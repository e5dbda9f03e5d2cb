import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import check_report_rows, problem_texts, triad_deviations_loops
from pcrank import PcrankError, diagnose, parse_problem
from pcrank import cli, formats
from pcrank.cli import build_parser, main

MICRO_CSV = """label,a,b,c
a,1,2,4
b,1/2,1,?
c,1/4,?,1

label,priority
c,1
"""

MICRO_JSON = """{
  "alternatives": ["a", "b", "c"],
  "matrix": [[1, 2, 4], [0.5, 1, "?"], [0.25, "?", 1]],
  "known": {"c": 1.0}
}
"""

CONSISTENT_CSV = """label,a,b,c
a,1,2,4
b,1/2,1,2
c,1/4,1/2,1

label,priority
c,1
"""

DEGENERATE_CSV = """label,a,b,c
a,1,?,?
b,?,1,2
c,?,1/2,1

label,priority
b,2
c,4
"""

ISLAND_CSV = """label,a,b,c,d
a,1,5,?,?
b,1/5,1,?,?
c,?,?,1,2
d,?,?,1/2,1

label,priority
c,3
d,1.5
"""

NONRECIPROCAL_CSV = """label,a,b
a,1,2
b,0.6,1

label,priority
b,1
"""

# c(a,b) * w(b) = 1e400 overflows a float, but the geometric mean of the
# two products is exactly 1.
HUGE_CSV = """label,a,b,d
a,1,1e200,1e-200
b,1e-200,1,?
d,1e200,?,1

label,priority
b,1e200
d,1e-200
"""

# The priorities span 1e200 to 1e-200, so the fill ratio w_a/w_c overflows.
WIDE_CSV = """label,a,b,c
a,1,1e200,?
b,1e-200,1,1e200
c,?,1e-200,1

label,priority
b,1
c,1e-200
"""

CYCLE_CSV = """label,a,b,c,d
a,1,9,1/9,1
b,1/9,1,9,1
c,9,1/9,1,1
d,1,1,1,1

label,priority
d,1
"""


# A label that needs CSV quoting; the parser reads it back as one field.
QUOTED_CSV = """label,"a,plus",b,c
"a,plus",1,2,4
b,1/2,1,?
c,1/4,?,1

label,priority
c,1
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def ranking_csv_to_dict(out: str) -> dict[str, float]:
    return {
        line.split(",")[0]: float(line.split(",")[1])
        for line in out.strip().splitlines()
    }


class TestRank:
    def test_geometric_json(self, tmp_path, capsys):
        path = write(tmp_path, "micro.json", MICRO_JSON)
        assert main(["rank", path, "--method", "geometric"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["a"] == pytest.approx(4.0, rel=1e-11)
        assert out["b"] == pytest.approx(2.0, rel=1e-11)
        assert out["c"] == 1.0

    def test_arithmetic_csv(self, tmp_path, capsys):
        path = write(tmp_path, "micro.csv", MICRO_CSV)
        assert main(["rank", path, "--method", "arithmetic"]) == 0
        values = ranking_csv_to_dict(capsys.readouterr().out)
        assert values == {"a": 4.0, "b": 2.0, "c": 1.0}

    def test_default_is_both_side_by_side(self, tmp_path, capsys):
        path = write(tmp_path, "micro.csv", MICRO_CSV)
        assert main(["rank", path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "label,arithmetic,geometric"
        row = dict(zip(("label", "ari", "geo"), lines[1].split(",")))
        assert float(row["ari"]) == pytest.approx(4.0, rel=1e-11)
        assert float(row["geo"]) == pytest.approx(4.0, rel=1e-11)

    def test_normalize_sums_to_one(self, tmp_path, capsys):
        path = write(tmp_path, "micro.csv", MICRO_CSV)
        assert main(["rank", path, "--method", "geometric", "--normalize"]) == 0
        values = ranking_csv_to_dict(capsys.readouterr().out)
        assert sum(values.values()) == pytest.approx(1.0, abs=1e-12)
        assert values["a"] == pytest.approx(4 / 7, rel=1e-10)

    def test_separate_known_file(self, tmp_path, capsys):
        matrix_only = MICRO_CSV.split("\n\n")[0] + "\n"
        path = write(tmp_path, "matrix.csv", matrix_only)
        known = write(tmp_path, "known.csv", "label,priority\nc,1\n")
        assert main(["rank", path, "--known", known, "--method", "geometric"]) == 0
        values = ranking_csv_to_dict(capsys.readouterr().out)
        assert values["a"] == pytest.approx(4.0, rel=1e-11)

    def test_output_file(self, tmp_path, capsys):
        path = write(tmp_path, "micro.csv", MICRO_CSV)
        out_path = tmp_path / "result.csv"
        assert main(["rank", path, "--method", "geometric", "--output", str(out_path)]) == 0
        assert capsys.readouterr().out == ""
        assert ranking_csv_to_dict(out_path.read_text())["a"] == pytest.approx(4.0, rel=1e-11)

    def test_stdin_input(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(MICRO_JSON))
        assert main(["rank", "-", "--format", "json", "--method", "geometric"]) == 0
        assert json.loads(capsys.readouterr().out)["a"] == pytest.approx(4.0, rel=1e-11)

    def test_known_mismatch_warns_once_on_stderr(self, tmp_path, capsys):
        # b and c are judged equal but fixed at 3 vs 2.5; both solvers hit
        # the mismatch, yet the warning is printed once and ranking proceeds.
        text = (
            "label,a,b,c\na,1,2,2\nb,1/2,1,1\nc,1/2,1,1\n"
            "\nlabel,priority\nb,3\nc,2.5\n"
        )
        path = write(tmp_path, "sloppy_knowns.csv", text)
        assert main(["rank", path]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("label,")
        err_lines = captured.err.strip().splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith("WARNING:")

    def test_force_reciprocal_flag(self, tmp_path, capsys):
        text = "label,a,b\na,1,4\nb,9,1\n\nlabel,priority\nb,1\n"
        path = write(tmp_path, "sloppy.csv", text)
        assert main(["rank", path]) == 2  # lower triangle contradicts upper
        assert capsys.readouterr().err.startswith("RECIPROCITY_VIOLATION")
        assert main(["rank", path, "--force-reciprocal", "--method", "arithmetic"]) == 0
        assert ranking_csv_to_dict(capsys.readouterr().out)["a"] == pytest.approx(4.0)

    def test_module_runs_as_a_script(self, tmp_path, capsys):
        """``python -m pcrank.cli`` exits with ``main``'s code and prints what
        ``main`` prints in process (in a child process: importing the running
        module again would warn)."""
        path = write(tmp_path, "micro.csv", MICRO_CSV)
        assert main(["rank", path]) == 0
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "pcrank.cli", "rank", path],
            capture_output=True, text=True, env=env, check=False,
        )
        assert done.returncode == 0 and done.stdout == capsys.readouterr().out


class TestErrorPaths:
    def test_degenerate_row(self, tmp_path, capsys):
        path = write(tmp_path, "degenerate.csv", DEGENERATE_CSV)
        assert main(["rank", path]) == 2
        assert capsys.readouterr().err.startswith("DEGENERATE_ROW")

    def test_not_connected(self, tmp_path, capsys):
        path = write(tmp_path, "island.csv", ISLAND_CSV)
        assert main(["rank", path]) == 2
        assert capsys.readouterr().err.startswith("NOT_CONNECTED")

    def test_non_reciprocal(self, tmp_path, capsys):
        path = write(tmp_path, "bad.csv", NONRECIPROCAL_CSV)
        assert main(["rank", path]) == 2
        assert capsys.readouterr().err.startswith("RECIPROCITY_VIOLATION")

    def test_asymmetric_missingness(self, tmp_path, capsys):
        text = '{"alternatives": ["a", "b"], "matrix": [[1, 3], ["?", 1]], "known": {"b": 1}}'
        path = write(tmp_path, "asym.json", text)
        assert main(["rank", path]) == 2
        assert capsys.readouterr().err.startswith("PARSE_ERROR")

    def test_non_positive_solution(self, tmp_path, capsys):
        path = write(tmp_path, "cycle.csv", CYCLE_CSV)
        assert main(["rank", path, "--method", "arithmetic"]) == 3
        assert capsys.readouterr().err.startswith("NON_POSITIVE_SOLUTION")

    def test_singular_matrix(self, tmp_path, capsys):
        x = (3.0 + math.sqrt(5.0)) / 2.0
        inv = 1.0 / x
        text = (
            "label,a,b,c,d\n"
            f"a,1,{x!r},{inv!r},1\n"
            f"b,{inv!r},1,{x!r},1\n"
            f"c,{x!r},{inv!r},1,1\n"
            "d,1,1,1,1\n"
            "\nlabel,priority\nd,1\n"
        )
        path = write(tmp_path, "singular.csv", text)
        assert main(["rank", path, "--method", "arithmetic"]) == 3
        assert capsys.readouterr().err.startswith("SINGULAR_MATRIX")

    @pytest.mark.parametrize("method", ["arithmetic", "geometric"])
    def test_priority_underflow_is_a_solver_failure(self, tmp_path, capsys, method):
        # w(a) = 1e-30 * 1e-300 is below the float range. The arithmetic
        # system is certified, so its 0 is an underflow, not inconsistency.
        text = "label,a,c\na,1,1e-30\nc,1e30,1\n\nlabel,priority\nc,1e-300\n"
        path = write(tmp_path, "tiny.csv", text)
        assert main(["rank", path, "--method", method]) == 3
        assert capsys.readouterr().err == (
            "SINGULAR_MATRIX: computed priorities leave the float range\n"
        )

    def test_geometric_ranks_past_product_overflow(self, tmp_path, capsys):
        path = write(tmp_path, "huge.csv", HUGE_CSV)
        assert main(["rank", path, "--method", "geometric"]) == 0
        captured = capsys.readouterr()
        assert ranking_csv_to_dict(captured.out)["a"] == pytest.approx(1.0, rel=1e-12)
        assert captured.err == ""

    @pytest.mark.parametrize("c,mirror", [("1e300", "1e-300"), ("1e-300", "1e300")])
    def test_geometric_priority_out_of_float_range(self, tmp_path, capsys, c, mirror):
        # w(a) = c * w(b) = c**2 is beyond the float range either way.
        text = f"label,a,b\na,1,{c}\nb,{mirror},1\n\nlabel,priority\nb,{c}\n"
        path = write(tmp_path, "range.csv", text)
        assert main(["rank", path, "--method", "geometric"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("SINGULAR_MATRIX") and len(err.splitlines()) == 1

    def test_arithmetic_overflow_is_a_solver_failure(self, tmp_path, capsys):
        path = write(tmp_path, "huge.csv", HUGE_CSV)
        assert main(["rank", path, "--method", "arithmetic"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("SINGULAR_MATRIX") and len(err.splitlines()) == 1

    def test_parse_error(self, tmp_path, capsys):
        path = write(tmp_path, "broken.csv", "label,a,b\na,1\n")
        assert main(["check", path]) == 2
        assert capsys.readouterr().err.startswith("PARSE_ERROR")

    def test_missing_file(self, tmp_path, capsys):
        assert main(["rank", str(tmp_path / "nope.csv")]) == 2
        assert capsys.readouterr().err.startswith("IO_ERROR")

    def test_no_known_priorities(self, tmp_path, capsys):
        path = write(tmp_path, "nok.csv", "label,a,b\na,1,4\nb,1/4,1\n")
        assert main(["rank", path]) == 2
        assert capsys.readouterr().err.startswith("PARSE_ERROR")

    def test_results_on_stdout_errors_on_stderr(self, tmp_path, capsys):
        path = write(tmp_path, "island.csv", ISLAND_CSV)
        main(["rank", path])
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1


NO_KNOWN = "PARSE_ERROR: no known priorities declared; ranking needs at least one fixed alternative\n"
ALL_KNOWN = "PARSE_ERROR: every alternative already has a known priority; nothing to compute\n"


@pytest.mark.parametrize(
    "name,text,err",
    [
        pytest.param("nok.csv", "label,a,b\na,1,4\nb,1/4,1\n", NO_KNOWN, id="no-known-csv"),
        pytest.param(
            "nok.json", '{"alternatives": ["a", "b"], "matrix": [[1, 4], [0.25, 1]]}', NO_KNOWN,
            id="no-known-json",
        ),
        pytest.param(
            "allk.csv", "label,a,b\na,1,4\nb,1/4,1\n\nlabel,priority\na,4\nb,1\n", ALL_KNOWN,
            id="all-known-csv",
        ),
        pytest.param(
            "allk.json",
            '{"alternatives": ["a", "b"], "matrix": [[1, 4], [0.25, 1]], "known": {"a": 4, "b": 1}}',
            ALL_KNOWN, id="all-known-json",
        ),
        pytest.param("none.json", '{"alternatives": [], "matrix": []}', NO_KNOWN, id="empty-json"),
    ],
)
@pytest.mark.parametrize(
    "command", [["rank"], ["complete", "--method", "geometric"], ["compare"]], ids=lambda c: c[0]
)
def test_unusable_partition_stderr(tmp_path, capsys, name, text, err, command):
    path = write(tmp_path, name, text)
    assert main([command[0], path, *command[1:]]) == 2
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize(
    "name,text,counts,message",
    [
        pytest.param("nok.csv", "label,a,b\na,1,4\nb,1/4,1\n", "2 (2 unknown, 0 known)",
                     NO_KNOWN, id="no-known-csv"),
        pytest.param(
            "nok.json", '{"alternatives": ["a", "b"], "matrix": [[1, 4], [0.25, 1]]}',
            "2 (2 unknown, 0 known)", NO_KNOWN, id="no-known-json",
        ),
        pytest.param(
            "allk.csv", "label,a,b\na,1,4\nb,1/4,1\n\nlabel,priority\na,4\nb,1\n",
            "2 (0 unknown, 2 known)", ALL_KNOWN, id="all-known-csv",
        ),
        pytest.param(
            "allk.json",
            '{"alternatives": ["a", "b"], "matrix": [[1, 4], [0.25, 1]], "known": {"a": 4, "b": 1}}',
            "2 (0 unknown, 2 known)", ALL_KNOWN, id="all-known-json",
        ),
        pytest.param("none.json", '{"alternatives": [], "matrix": []}', "0 (0 unknown, 0 known)",
                     NO_KNOWN, id="empty-json"),
    ],
)
def test_check_unusable_partition_is_a_finding(tmp_path, capsys, name, text, counts, message):
    """``check`` on a file the solvers refuse for its known/unknown split
    prints the split's error on the connectivity line and exits 1."""
    assert main(["check", write(tmp_path, name, text)]) == 1
    out, err = capsys.readouterr()
    rows = "a=0, b=0" if counts.startswith("2") else ""
    reason = message.removeprefix("PARSE_ERROR: ").rstrip("\n")
    assert out == (
        f"alternatives: {counts}\nreciprocity violations: 0\n"
        f"undefined comparisons per row: {rows}\nconnectivity: FAILED ({reason})\n"
        "triad deviations above tol 1e-09: 0\n"
    )
    assert err == ""


@pytest.mark.parametrize("known", [False, True], ids=["inline", "known-file"])
def test_json_unknown_top_level_key_is_a_parse_error(tmp_path, capsys, known):
    text = '{"alternatives": ["a", "b"], "matrix": [[1, 2], [0.5, 1]], "knwon": {"b": 3}}'
    argv = ["rank", write(tmp_path, "typo.json", text), "--method", "geometric"]
    if known:
        argv += ["--known", write(tmp_path, "kb.csv", "b,1\n")]
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "", "PARSE_ERROR: unknown top-level key 'knwon'; expected alternatives, matrix, known\n"
    )


def test_json_repeated_key_is_a_parse_error(tmp_path, capsys):
    text = '{"alternatives": ["a", "b"], "matrix": [[1, 2], [0.5, 1]], "known": {"b": 1, "b": 5}}'
    path = write(tmp_path, "dup.json", text)
    assert main(["rank", path, "--method", "geometric"]) == 2
    assert capsys.readouterr() == ("", "PARSE_ERROR: repeated key 'b' in a JSON object\n")


def test_nul_in_a_label_is_a_parse_error(tmp_path, capsys):
    text = "label,a\0x,b\na\0x,1,2\nb,0.5,1\n\nlabel,priority\nb,1\n"
    assert main(["rank", write(tmp_path, "nul.csv", text)]) == 2
    assert capsys.readouterr() == ("", "PARSE_ERROR: line 1: line contains NUL\n")


class TestUnreadableInput:
    """Input that cannot be read as text or as numbers fails as
    ``PARSE_ERROR`` (exit 2), never as a traceback (exit 1, the code that
    ``check`` uses for findings)."""

    @staticmethod
    def assert_parse_error(code, capsys) -> str:
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("PARSE_ERROR") and len(err.splitlines()) == 1
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize("where", ["cell", "known"])
    def test_json_integer_beyond_float_range(self, tmp_path, capsys, where):
        huge = "1" + "0" * 400
        cell, known = (huge, "1") if where == "cell" else ("2", huge)
        text = (
            '{"alternatives": ["a", "b"], "matrix": [[1, %s], [0.5, 1]], "known": {"b": %s}}'
            % (cell, known)
        )
        path = write(tmp_path, "huge.json", text)
        self.assert_parse_error(main(["rank", path]), capsys)

    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(MICRO_CSV.replace("a", "\u00e9").encode("latin-1"))
        self.assert_parse_error(main(["rank", str(path)]), capsys)

    def test_non_utf8_stdin(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b"label,a\n\xff,1\n"), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        self.assert_parse_error(main(["check", "-"]), capsys)

    @pytest.mark.parametrize(
        "command", [["check"], ["compare"], ["rank"], ["complete", "--method", "geometric"]]
    )
    @pytest.mark.parametrize("source", ["json-escape", "stdin-byte"])
    def test_lone_surrogate_in_a_label(self, tmp_path, capsys, monkeypatch, command, source):
        """A JSON escape of half a surrogate pair, or a byte that stdin decodes
        with ``surrogateescape`` (Python's UTF-8 mode, under the C locale),
        leaves a lone surrogate in a label: no UTF-8 writer can print it."""
        if source == "json-escape":
            text = '{"alternatives": ["b\\ud800", "c"], "matrix": [[1, 2], [0.5, 1]], "known": {"c": 1}}'
            path, label = write(tmp_path, "surrogate.json", text), "b\ud800"
        else:
            data = b"label,b\xe9,c\nb\xe9,1,2\nc,0.5,1\n\nlabel,priority\nc,1\n"
            stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")
            monkeypatch.setattr(sys, "stdin", stdin)
            path, label = "-", "b\udce9"
        err = self.assert_parse_error(main([command[0], path, *command[1:]]), capsys)
        assert err == f"PARSE_ERROR: alternative label {label!r} holds a lone surrogate\n"

    def test_csv_field_beyond_size_limit(self, tmp_path, capsys):
        text = MICRO_CSV.replace("b,1/2,1,?", "b,1/2,1," + "9" * 131_073)
        path = write(tmp_path, "wide_field.csv", text)
        err = self.assert_parse_error(main(["rank", path]), capsys)
        assert err.startswith("PARSE_ERROR: line 3:")


class TestLabelQuoting:
    """Every CSV table quotes a label the way the parser reads it back."""

    @staticmethod
    def rows(out: str) -> list[list[str]]:
        return list(csv.reader(io.StringIO(out)))

    def test_rank_both_csv(self, tmp_path, capsys):
        path = write(tmp_path, "quoted.csv", QUOTED_CSV)
        assert main(["rank", path, "--method", "both"]) == 0
        rows = self.rows(capsys.readouterr().out)
        assert rows[0] == ["label", "arithmetic", "geometric"]
        assert [row[0] for row in rows[1:]] == ["a,plus", "b", "c"]
        assert all(len(row) == len(rows[0]) for row in rows)

    def test_compare(self, tmp_path, capsys):
        path = write(tmp_path, "quoted.csv", QUOTED_CSV)
        assert main(["compare", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = self.rows("\n".join(lines[1:5]))
        assert rows[0] == ["label", "arithmetic", "geometric"]
        assert [row[0] for row in rows[1:]] == ["a,plus", "b", "c"]
        assert all(len(row) == len(rows[0]) for row in rows)

    def test_rank_both_json_shape(self, tmp_path, capsys):
        obj = {
            "alternatives": ["a,plus", "b", "c"],
            "matrix": [[1, 2, 4], [0.5, 1, "?"], [0.25, "?", 1]],
            "known": {"c": 1},
        }
        path = write(tmp_path, "quoted.json", json.dumps(obj))
        assert main(["rank", path, "--method", "both"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert list(obj) == ["arithmetic", "geometric"]
        for column in obj.values():
            assert list(column) == ["a,plus", "b", "c"]
            assert column["a,plus"] == pytest.approx(4.0, rel=1e-11)
            assert column["c"] == 1.0


class TestCheck:
    def test_clean_complete_file(self, tmp_path, capsys):
        path = write(tmp_path, "ok.csv", CONSISTENT_CSV)
        assert main(["check", path]) == 0
        out = capsys.readouterr().out
        assert "reciprocity violations: 0" in out
        assert "connectivity: ok" in out

    def test_missing_pair_reported_but_clean(self, tmp_path, capsys):
        path = write(tmp_path, "micro.csv", MICRO_CSV)
        assert main(["check", path]) == 0
        out = capsys.readouterr().out
        assert "undefined comparisons per row: a=0, b=1, c=1" in out

    def test_non_reciprocal_listing(self, tmp_path, capsys):
        path = write(tmp_path, "bad.csv", NONRECIPROCAL_CSV)
        assert main(["check", path]) == 1
        out = capsys.readouterr().out
        assert "reciprocity violations: 1" in out
        assert "a vs b" in out

    def test_inconsistent_triad_listing(self, tmp_path, capsys):
        text = "label,a,b,c\na,1,2,2\nb,1/2,1,1/2\nc,1/2,2,1\n\nlabel,priority\nc,1\n"
        path = write(tmp_path, "triad.csv", text)
        assert main(["check", path]) == 1
        assert "deviation 1" in capsys.readouterr().out

    def test_disconnected_is_a_finding(self, tmp_path, capsys):
        path = write(tmp_path, "island.csv", ISLAND_CSV)
        assert main(["check", path]) == 1
        assert "connectivity: FAILED" in capsys.readouterr().out

    def test_no_knowns_is_a_finding(self, tmp_path, capsys):
        path = write(tmp_path, "nok.csv", "label,a,b\na,1,4\nb,1/4,1\n")
        assert main(["check", path]) == 1
        assert "connectivity: FAILED (no known priorities declared;" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "options, listing",
        [
            ([], "triad deviations above tol 1e-09: 2\n"
                 "  (a, b, d): deviation 9\n  (b, c, d): deviation 0.988095\n"),
            (["--tol", "1"], "triad deviations above tol 1: 1\n  (a, b, d): deviation 9\n"),
        ],
    )
    def test_exact_report_with_a_missing_pair(self, tmp_path, capsys, options, listing):
        # (a, b, c) and (a, c, d) touch the missing pair a-c and are skipped.
        text = (
            "label,a,b,c,d\na,1,2,?,5\nb,1/2,1,3,1/4\nc,?,1/3,1,7\nd,1/5,4,1/7,1\n"
            "\nlabel,priority\nd,1\n"
        )
        path = write(tmp_path, "four.csv", text)
        assert main(["check", path, *options]) == 1
        assert capsys.readouterr().out == (
            "alternatives: 4 (3 unknown, 1 known)\n"
            "reciprocity violations: 0\n"
            "undefined comparisons per row: a=1, b=0, c=1, d=0\n"
            "connectivity: ok\n" + listing
        )


class TestTolerance:
    """``--tol`` is a usage error (exit 2) unless it is a number >= 0."""

    @pytest.mark.parametrize("command", ["check", "rank"])
    @pytest.mark.parametrize("value", ["nan", "-1", "abc"])
    def test_nonsensical_tolerance_is_rejected(self, tmp_path, capsys, command, value):
        path = write(tmp_path, "micro.csv", MICRO_CSV)
        with pytest.raises(SystemExit) as exc:
            main([command, path, "--tol", value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--tol" in captured.err

    def test_infinite_tolerance_is_allowed(self, tmp_path, capsys):
        text = "label,a,b,c\na,1,2,2\nb,1/2,1,1/2\nc,1/2,2,1\n\nlabel,priority\nc,1\n"
        path = write(tmp_path, "triad.csv", text)
        assert main(["check", path, "--tol", "inf"]) == 0
        assert "triad deviations above tol inf: 0" in capsys.readouterr().out


@settings(max_examples=150, deadline=None)
@given(problem_texts(max_label=12), st.sampled_from([0.0, 1e-9, 0.2, 1.5]))
@example(("label,a\na,1\n", "csv", False), 1e-9)
@example(("label,only one\nonly one,1\n\nlabel,priority\nonly one,2\n", "csv", False), 0.2)
@example(("label,a,bbbbbbbbbb\na,1,2\nbbbbbbbbbb,1/2,1\n\nbbbbbbbbbb,1\n", "csv", False), 1.5)
@example(('{"alternatives": ["a", "b"], "matrix": [[1, 3], [0.5, 1]]}', "json", False), 1e-9)
@example(("label,a,b,c\na,1,2,4\nb,1/2,1,2\nc,1/4,1/2,1\n", "csv", False), 0.0)
def test_check_matches_row_reference(problem_text, tol):
    """``check`` prints what a report built one finding per line prints:
    n = 1 and n = 2 (no triads at all) included, and an exactly consistent
    triad at tolerance 0 is not a finding."""
    text, fmt, force_reciprocal = problem_text
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"input.{fmt}"
        path.write_text(text, encoding="utf-8")
        argv = ["check", str(path), "--tol", repr(tol)]
        if force_reciprocal:
            argv.append("--force-reciprocal")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    try:
        problem = parse_problem(text, fmt=fmt, force_reciprocal=force_reciprocal)
    except PcrankError:
        assert (code, out.getvalue()) == (2, "")
        return
    assert (out.getvalue(), code) == check_report_rows(problem, tol)
    report = diagnose(problem.matrix, tol=tol)
    assert report.triad_deviations == tuple(triad_deviations_loops(problem.matrix, tol))


def noisy_problem_text(labels, known: str, seed: int) -> str:
    """A complete reciprocal CSV problem over ``labels`` with random ratios,
    so nearly every triad deviates, and ``known`` fixed at 1; a label with a
    comma is quoted."""
    fields = [f'"{label}"' if "," in label else label for label in labels]
    rng = np.random.default_rng(seed)
    n = len(labels)
    rows = [["1"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            value = float(rng.uniform(0.2, 5.0))
            rows[i][j], rows[j][i] = repr(value), repr(1.0 / value)
    text = "label," + ",".join(fields) + "\n"
    text += "".join(f"{fields[i]}," + ",".join(row) + "\n" for i, row in enumerate(rows))
    return text + f"\nlabel,priority\n{known},1\n"


def noisy_problem_json(labels, known: str, seed: int) -> str:
    """:func:`noisy_problem_text`'s kind of problem as JSON, written as UTF-8
    with NUL escaped, so a label may hold any character."""
    rng = np.random.default_rng(seed)
    n = len(labels)
    matrix = np.ones((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            value = float(rng.uniform(0.2, 5.0))
            matrix[i, j], matrix[j, i] = value, 1.0 / value
    obj = {"alternatives": labels, "matrix": matrix.tolist(), "known": {known: 1}}
    return json.dumps(obj, ensure_ascii=False)


def check_output(text: str, to_file: bool, tmp_path, capsys, name="input.csv") -> tuple[int, str]:
    """The exit code of ``check`` on ``text``, in a file called ``name``, and
    the report it writes to stdout, or to ``--output`` (stdout then stays
    empty)."""
    argv = ["check", write(tmp_path, name, text)]
    if to_file:
        argv += ["--output", str(tmp_path / "report.txt")]
    code = main(argv)
    out = capsys.readouterr().out
    if to_file:
        assert out == ""
        out = (tmp_path / "report.txt").read_text(encoding="utf-8")
    return code, out


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("to_file", [False, True])
def test_check_listing_across_chunk_boundaries(offset, to_file, tmp_path, capsys, monkeypatch):
    """The listing is written in pieces of ``formats._BLOCK_VALUES`` rows; with the
    deviation count one below, at and one above the piece size, stdout and
    ``--output`` hold the report built one line per finding."""
    text = noisy_problem_text([f"x{i}" for i in range(7)], "x0", seed=3)
    problem = parse_problem(text)
    expected, code = check_report_rows(problem, 1e-9)
    deviations = len(triad_deviations_loops(problem.matrix, 1e-9))
    assert deviations > 2 and code == 1
    monkeypatch.setattr(formats, "_BLOCK_VALUES", deviations - offset)
    assert check_output(text, to_file, tmp_path, capsys) == (code, expected)


@pytest.mark.parametrize("to_file", [False, True])
def test_check_listing_labels_like_format_codes(to_file, tmp_path, capsys, monkeypatch):
    """Labels that read as %-codes print verbatim, also with a piece
    boundary inside a run of rows that share their first two labels."""
    text = noisy_problem_text(["%s", "%%", "100%", "%(x)s", "%.6g", "a,b"], "100%", seed=5)
    problem = parse_problem(text)
    expected, code = check_report_rows(problem, 1e-9)
    assert code == 1 and "  (%s, %%, " in expected
    i, j, _, _ = diagnose(problem.matrix, tol=1e-9).triad_columns
    chunk = 3  # the second piece starts within the first run
    assert (i[chunk - 1], j[chunk - 1]) == (i[chunk], j[chunk])
    monkeypatch.setattr(formats, "_BLOCK_VALUES", chunk)
    assert check_output(text, to_file, tmp_path, capsys) == (code, expected)


@pytest.mark.parametrize(
    "labels",
    [
        pytest.param(["a\x0bb", "c\x0cd", "e\x1cf", "g\x85h", "i\u2028j", "k"], id="line-breaks"),
        pytest.param(["é", "名", "a\u2028b", "c\x1cd", "x", "k"], id="non-ascii"),
    ],
)
@pytest.mark.parametrize("to_file", [False, True])
def test_check_listing_labels_print_verbatim(labels, to_file, tmp_path, capsys, monkeypatch):
    """Labels holding characters that ``str.splitlines`` splits on, and
    non-ASCII labels, print verbatim: only the deviations' own text is split
    into lines, also across the boundaries of pieces."""
    text = noisy_problem_text(labels, "k", seed=7)
    problem = parse_problem(text)
    assert problem.labels == tuple(labels)
    expected, code = check_report_rows(problem, 1e-9)
    assert code == 1 and f"  ({labels[0]}, {labels[1]}, {labels[2]}): deviation " in expected
    assert len(triad_deviations_loops(problem.matrix, 1e-9)) > 8  # five pieces at least
    monkeypatch.setattr(formats, "_BLOCK_VALUES", 2)
    assert check_output(text, to_file, tmp_path, capsys) == (code, expected)


@pytest.mark.parametrize("to_file", [False, True])
def test_check_listing_labels_a_byte_kernel_could_corrupt(to_file, tmp_path, capsys, monkeypatch):
    """Labels holding NUL (valid JSON as ``\\u0000``), inside and at the end,
    characters of 2, 3 and 4 UTF-8 bytes, and labels of different widths print
    verbatim, across pieces of two rows."""
    labels = ["a\0z", "b\0", "é", "名", "𝔸", "a", "x119"]
    text = noisy_problem_json(labels, "x119", seed=13)
    assert "\\u0000" in text
    problem = parse_problem(text, "json")
    assert problem.labels == tuple(labels)
    expected, code = check_report_rows(problem, 1e-9)
    assert code == 1 and "  (a\0z, b\0, é): deviation " in expected
    assert "  (名, 𝔸, a): deviation " in expected and ", a, x119): deviation " in expected
    monkeypatch.setattr(formats, "_BLOCK_VALUES", 2)
    assert check_output(text, to_file, tmp_path, capsys, "input.json") == (code, expected)


@pytest.mark.parametrize("to_file", [False, True])
def test_check_listing_at_its_own_piece_size(to_file, tmp_path, capsys):
    """With ``formats._BLOCK_VALUES`` as it ships, a listing longer than one piece
    (every one of n = 50's 19,600 triads deviates) matches the report built
    one line per finding."""
    text = noisy_problem_text([f"x{i}" for i in range(50)], "x0", seed=11)
    problem = parse_problem(text)
    expected, code = check_report_rows(problem, 1e-9)
    assert code == 1 and "above tol 1e-09: 19600\n" in expected
    assert 19600 > formats._BLOCK_VALUES
    assert check_output(text, to_file, tmp_path, capsys) == (code, expected)


class TestByteOrderMark:
    """A leading UTF-8 byte-order mark is dropped from every input."""

    @staticmethod
    def rank(args, capsys) -> str:
        assert main(["rank", *args, "--method", "geometric"]) == 0
        return capsys.readouterr().out

    def test_main_csv(self, tmp_path, capsys, monkeypatch):
        plain = self.rank([write(tmp_path, "plain.csv", MICRO_CSV)], capsys)
        assert self.rank([write(tmp_path, "bom.csv", "\ufeff" + MICRO_CSV)], capsys) == plain
        monkeypatch.setattr(sys, "stdin", io.StringIO("\ufeff" + MICRO_CSV))
        assert self.rank(["-", "--format", "csv"], capsys) == plain

    def test_known_csv_with_header(self, tmp_path, capsys):
        main_path = write(tmp_path, "main.csv", MICRO_CSV.split("\n\n")[0] + "\n")
        known = "label,priority\nc,1\n"
        plain = self.rank([main_path, "--known", write(tmp_path, "k.csv", known)], capsys)
        bom = write(tmp_path, "k_bom.csv", "\ufeff" + known)
        assert self.rank([main_path, "--known", bom], capsys) == plain

    def test_json(self, tmp_path, capsys):
        plain = self.rank([write(tmp_path, "plain.json", MICRO_JSON)], capsys)
        assert self.rank([write(tmp_path, "bom.json", "\ufeff" + MICRO_JSON)], capsys) == plain


class TestComplete:
    def test_fills_missing_pair(self, tmp_path, capsys):
        path = write(tmp_path, "micro.csv", MICRO_CSV)
        assert main(["complete", path, "--method", "geometric"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[2].startswith("b,")
        filled = float(lines[2].split(",")[3])
        assert filled == pytest.approx(2.0, rel=1e-11)

    def test_completed_file_ranks_identically(self, tmp_path, capsys):
        path = write(tmp_path, "micro.csv", MICRO_CSV)
        completed = tmp_path / "completed.csv"
        assert main(["complete", path, "--method", "geometric", "--output", str(completed)]) == 0
        assert main(["rank", str(completed), "--method", "geometric"]) == 0
        values = ranking_csv_to_dict(capsys.readouterr().out)
        assert values["a"] == pytest.approx(4.0, rel=1e-9)
        assert values["b"] == pytest.approx(2.0, rel=1e-9)

    def test_completed_consistent_source_passes_check(self, tmp_path, capsys):
        path = write(tmp_path, "micro.csv", MICRO_CSV)
        completed = tmp_path / "completed.csv"
        assert main(["complete", path, "--method", "arithmetic", "--output", str(completed)]) == 0
        assert main(["check", str(completed)]) == 0
        assert "deviations above tol" in capsys.readouterr().out

    def test_already_complete_is_a_no_op(self, tmp_path, capsys):
        path = write(tmp_path, "full.csv", CONSISTENT_CSV)
        assert main(["complete", path, "--method", "arithmetic"]) == 0
        out = capsys.readouterr().out
        from pcrank import parse_problem

        assert parse_problem(out, "csv").matrix.entries == parse_problem(
            CONSISTENT_CSV, "csv"
        ).matrix.entries

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_matrix_above_the_bulk_threshold(self, fmt, tmp_path, capsys, monkeypatch):
        """A matrix with more cells than ``formats._BULK_CELLS`` is written by
        ``formats._g_lines``, byte for byte as one ``%`` writes it when the
        threshold is raised above its size."""
        labels = [f"x{i}" for i in range(math.isqrt(formats._BULK_CELLS) + 1)]
        text = noisy_problem_text(labels, "x0", seed=13)
        if fmt == "json":
            text = formats.serialize_problem(parse_problem(text), "json")
        path = write(tmp_path, f"input.{fmt}", text)
        outputs = []
        for threshold in (formats._BULK_CELLS, len(labels) ** 2 + 1):
            monkeypatch.setattr(formats, "_BULK_CELLS", threshold)
            assert main(["complete", path, "--method", "geometric"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] and outputs[0].count("\n") > len(labels)

    @pytest.mark.parametrize("method", ["arithmetic", "geometric"])
    def test_fill_ratio_overflow_is_a_solver_failure(self, tmp_path, capsys, method):
        path = write(tmp_path, "wide.csv", WIDE_CSV)
        assert main(["rank", path, "--method", method]) == 0
        capsys.readouterr()
        assert main(["complete", path, "--method", method]) == 3
        err = capsys.readouterr().err
        assert err.startswith("SINGULAR_MATRIX") and len(err.splitlines()) == 1

    def test_method_is_required(self, tmp_path, capsys):
        path = write(tmp_path, "micro.csv", MICRO_CSV)
        with pytest.raises(SystemExit) as exc:
            main(["complete", path])
        assert exc.value.code == 2

    def test_json_output_format(self, tmp_path, capsys):
        path = write(tmp_path, "micro.json", MICRO_JSON)
        assert main(["complete", path, "--method", "geometric"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["matrix"][1][2] == pytest.approx(2.0, rel=1e-11)
        assert obj["known"] == {"c": 1.0}

    @pytest.mark.parametrize("suffix", ["csv", "json"])
    def test_fraction_style_keeps_known_priorities_exact(self, tmp_path, capsys, suffix):
        """A known 1/3 comes back as 1/3, not as 12 digits, so b = 3 * 1/3 = 1."""
        source = {
            "csv": "label,a,b,c\na,1,1/3,1/6\nb,3,1,?\nc,6,?,1\n\nlabel,priority\na,1/3\n",
            "json": '{"alternatives": ["a", "b", "c"], "known": {"a": "1/3"},'
            ' "matrix": [[1, "1/3", "1/6"], [3, 1, "?"], [6, "?", 1]]}',
        }[suffix]
        path = write(tmp_path, f"third.{suffix}", source)
        completed = tmp_path / f"completed.{suffix}"
        args = ["--method", "geometric", "--number-style", "fraction", "--output", str(completed)]
        assert main(["complete", path, *args]) == 0
        assert parse_problem(completed.read_text(), suffix).known == (("a", 1 / 3),)
        for method in ("arithmetic", "geometric"):
            assert main(["rank", str(completed), "--method", method]) == 0
            out = capsys.readouterr().out
            values = json.loads(out) if suffix == "json" else ranking_csv_to_dict(out)
            assert values["b"] == 1.0


# Complete and inconsistent, b known. geometric and gmm agree bit for bit on
# it (also with OpenBLAS's Haswell, Sandybridge and Prescott kernels), so the
# pinned text does not hang on a last-bit difference.
FOUR_CSV = """label,a,b,c,d
a,1,1/7,1/7,1/9
b,7,1,1/6,1/9
c,7,6,1,1/6
d,9,9,6,1

label,priority
b,1
"""
FOUR_COMPARE = """# priorities rescaled to sum 1 for comparability
label,arithmetic,geometric,evm,gmm
a,0.0384357729024,0.030562376662,0.031379196241,0.030562376662
b,0.0461396750963,0.0840374452342,0.0880499140792,0.0840374452342
c,0.220566069335,0.227809211676,0.228438422224,0.227809211676
d,0.694858482666,0.657590966428,0.652132467455,0.657590966428
max relative difference arithmetic/geometric: 0.450963
max relative difference arithmetic/evm: 0.475983
max relative difference arithmetic/gmm: 0.450963
max relative difference geometric/evm: 0.0455704
max relative difference geometric/gmm: 0
max relative difference evm/gmm: 0.0455704
"""


class TestCompare:
    def test_complete_file_pins_every_pair_in_order(self, tmp_path, capsys):
        path = write(tmp_path, "four.csv", FOUR_CSV)
        assert main(["compare", path]) == 0
        assert capsys.readouterr().out == FOUR_COMPARE

    def test_complete_consistent_shows_all_methods(self, tmp_path, capsys):
        path = write(tmp_path, "full.csv", CONSISTENT_CSV)
        assert main(["compare", path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = lines[1].split(",")
        assert header == ["label", "arithmetic", "geometric", "evm", "gmm"]
        reference = {"a": 4 / 7, "b": 2 / 7, "c": 1 / 7}
        for line in lines[2:5]:
            cells = line.split(",")
            for value in cells[1:]:
                assert float(value) == pytest.approx(reference[cells[0]], rel=1e-8)
        assert any(line.startswith("max relative difference") for line in lines)

    def test_incomplete_gates_out_baselines(self, tmp_path, capsys):
        path = write(tmp_path, "micro.csv", MICRO_CSV)
        assert main(["compare", path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1].split(",") == ["label", "arithmetic", "geometric"]

    def test_validation_failures_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "island.csv", ISLAND_CSV)
        assert main(["compare", path]) == 2


def test_deterministic_output(tmp_path, capsys):
    path = write(tmp_path, "micro.csv", MICRO_CSV)
    main(["rank", path])
    first = capsys.readouterr().out
    main(["rank", path])
    assert capsys.readouterr().out == first


def test_reused_parser_leaks_no_state_between_calls(tmp_path, capsys, monkeypatch):
    """``main`` builds its parser once per process; a call after others gives
    exactly what the same call gives with a freshly built parser."""
    micro = write(tmp_path, "micro.csv", MICRO_CSV)
    full = write(tmp_path, "full.csv", CONSISTENT_CSV)
    output = tmp_path / "ranked.csv"
    calls = [
        ["rank", micro, "--method", "arithmetic", "--tol", "0.25", "--normalize",
         "--output", str(output)],
        ["rank", micro],
        ["rank", micro, "--tol", "nan"],
        ["check", micro],
        ["complete", micro, "--method", "geometric", "--number-style", "fraction"],
        ["compare", full],
        None,  # read from sys.argv
    ]
    monkeypatch.setattr(sys, "argv", ["pcrank", "rank", micro, "--method", "geometric"])

    def run(argv):
        output.unlink(missing_ok=True)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        written = output.read_bytes() if output.exists() else None
        return code, captured.out, captured.err, written

    cli._parser.cache_clear()
    in_sequence = [run(argv) for argv in calls]
    assert cli._parser() is cli._parser()
    for argv, result in zip(calls, in_sequence):
        cli._parser.cache_clear()
        assert run(argv) == result, argv

    codes = [code for code, *_ in in_sequence]
    assert codes == [0, 0, 2, 0, 0, 0, 0]
    assert in_sequence[0][1] == "" and in_sequence[0][3]  # --output, not stdout
    _, out, err, written = in_sequence[1]  # plain rank: stdout, default method
    assert written is None and err == ""
    assert out.splitlines()[0] == "label,arithmetic,geometric"
    assert "--tol" in in_sequence[2][2]
    assert "triad deviations above tol 1e-09: 0" in in_sequence[3][1]  # default tol
    assert build_parser() is not build_parser()


# b and c are judged equal but fixed at 3 vs 2.5: a known-comparison warning.
SLOPPY_KNOWNS_CSV = "label,a,b,c\na,1,2,2\nb,1/2,1,1\nc,1/2,1,1\n\nlabel,priority\nb,3\nc,2.5\n"


@pytest.fixture
def guard_calls(monkeypatch):
    """Every call of ``ensure_solvable``, through whichever pcrank module
    makes it."""
    from pcrank import matrix

    calls = []
    original = matrix.ensure_solvable

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("pcrank") and getattr(module, "ensure_solvable", None) is original:
            monkeypatch.setattr(module, "ensure_solvable", counted)
    return calls


class TestGuardOnce:
    """Both methods share one precondition, so one invocation checks it once."""

    @pytest.mark.parametrize(
        "args", [["rank", "--method", "both"], ["compare"], ["complete", "--method", "geometric"]]
    )
    def test_guard_runs_once_per_invocation(self, tmp_path, capsys, guard_calls, args):
        path = write(tmp_path, "micro.csv", MICRO_CSV)
        assert main([args[0], path, *args[1:]]) == 0
        assert len(guard_calls) == 1

    @pytest.mark.parametrize("args", [["compare"], ["complete", "--method", "arithmetic"]])
    def test_known_mismatch_warns_once(self, tmp_path, capsys, args):
        path = write(tmp_path, "sloppy_knowns.csv", SLOPPY_KNOWNS_CSV)
        for _ in range(2):  # and again on a second call in the same process
            assert main([args[0], path, *args[1:]]) == 0
            err_lines = capsys.readouterr().err.splitlines()
            assert len(err_lines) == 1 and err_lines[0].startswith("WARNING:")

    def test_warning_in_a_loop_prints_once(self, tmp_path, capsys):
        # Row sums past the float range stop the power iteration at once. The
        # overflow warning is silenced: the failure is the one stderr line.
        big, small = "1.5e308", repr(1 / 1.5e308)
        rows = [
            ",".join([label, *[("1" if (i < 3) == (j < 3) else big if i < 3 else small)
                               for j in range(6)]])
            for i, label in enumerate("abcdef")
        ]
        text = "label,a,b,c,d,e,f\n" + "\n".join(rows)
        text += "\n\nlabel,priority\nd,1e-10\ne,1e-10\nf,1e-10\n"
        path = write(tmp_path, "evm_overflow.csv", text)
        assert main(["compare", path]) == 3
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1 and err_lines[0].startswith("NO_CONVERGENCE")


class TestNormalizedRange:
    """Rescaling to sum 1 (``rank --normalize``, ``compare``) at the ends of
    the float range."""

    # Each priority is 6e307, so their sum overflows.
    SUM_OVERFLOW_CSV = "label,a,b,c\na,1,1,1\nb,1,1,1\nc,1,1,1\n\nlabel,priority\nb,6e307\nc,6e307\n"
    # c is 1e-30 beside b at 1e300, so c / (a + b + c) underflows.
    UNDERFLOW_CSV = (
        "label,a,b,c\na,1,1e-300,1e30\nb,1e300,1,?\nc,1e-30,?,1\n"
        "\nlabel,priority\nb,1e300\nc,1e-30\n"
    )

    def test_rank_normalize_past_sum_overflow(self, tmp_path, capsys):
        path = write(tmp_path, "sum.csv", self.SUM_OVERFLOW_CSV)
        assert main(["rank", path, "--normalize", "--method", "arithmetic"]) == 0
        values = ranking_csv_to_dict(capsys.readouterr().out)
        assert values == pytest.approx({"a": 1 / 3, "b": 1 / 3, "c": 1 / 3}, rel=1e-12)

    def test_compare_past_sum_overflow(self, tmp_path, capsys):
        path = write(tmp_path, "sum.csv", self.SUM_OVERFLOW_CSV)
        assert main(["compare", path]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = list(csv.reader(io.StringIO(captured.out)))
        assert rows[1] == ["label", "arithmetic", "geometric", "evm", "gmm"]
        for row in rows[2:5]:
            assert [float(v) for v in row[1:]] == pytest.approx([1 / 3] * 4, rel=1e-12)

    @pytest.mark.parametrize("args", [["rank", "--normalize"], ["compare"]])
    def test_underflow_is_a_solver_failure(self, tmp_path, capsys, args):
        path = write(tmp_path, "under.csv", self.UNDERFLOW_CSV)
        assert main(["rank", path]) == 0  # the problem itself ranks
        capsys.readouterr()
        assert main([args[0], path, *args[1:]]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("SINGULAR_MATRIX") and "float range" in captured.err
        assert len(captured.err.splitlines()) == 1
