"""README's examples: the library code runs and gives what its comments say,
and the CSV and JSON input examples state the same problem."""

import ast
import re
from pathlib import Path

import pytest

from pcrank import parse_problem

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)


def test_readme_examples_hold():
    (csv_text,), (json_text,) = blocks("csv"), blocks("json")
    assert parse_problem(csv_text, "csv") == parse_problem(json_text, "json")
    namespace = {}
    checked = []
    for block in blocks("python"):  # in order, in one namespace
        exec(block, namespace)
        for line in block.splitlines():
            code, _, comment = line.partition("  # ")
            if comment.startswith("("):  # a shown value, exact unless "up to rounding"
                shown = ast.literal_eval(comment[: comment.index(")") + 1])
                expected = pytest.approx(shown, rel=1e-12) if "up to rounding" in comment else shown
                assert eval(code, namespace) == expected, line
            elif comment.startswith("== "):
                assert eval(code, namespace) == eval(comment[3:], namespace), line
            else:
                continue
            checked.append(code.strip())
    assert checked == [
        "solve_arithmetic(matrix, partition).values",
        "solve_geometric(matrix, partition).values",
        "build_geometric_system(matrix, partition).ranking(partition)",
    ]

