"""Property: whatever the input file holds, the CLI ends with a documented
exit code and at most one documented error line, never a traceback."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from pcrank.cli import main

# First tokens of the error line, as the README lists them.
CODES = {
    "PARSE_ERROR",
    "RECIPROCITY_VIOLATION",
    "DEGENERATE_ROW",
    "NOT_CONNECTED",
    "SINGULAR_MATRIX",
    "NON_POSITIVE_SOLUTION",
    "IO_ERROR",
    "NO_CONVERGENCE",
    "OUT_OF_MEMORY",
}

COMMANDS = [
    ["rank"],
    ["rank", "--method", "arithmetic"],
    ["check"],
    ["complete", "--method", "geometric"],
    ["complete", "--method", "arithmetic"],
    ["compare"],
]

HUGE = "1" + "0" * 400
TOO_LONG = "9" * 5000  # more digits than int() converts
DEEP = "[" * 5000 + "]" * 5000  # nested deeper than the JSON decoder recurses
LABELS = ["a", "b", "c", "d"]
# Mostly well-formed values, so that some inputs get past the parser.
CSV_TOKENS = ["1", "2", "1/2", "4", "1/4", "?", "0", "-1", "nan", "inf", "1e400", HUGE,
              "1/0", f"{HUGE}/1", f"1/{TOO_LONG}", "", "x"]
JSON_TOKENS = ["1", "2", "0.5", "4", "0.25", '"?"', '"1/2"', "NaN", "Infinity", "-Infinity",
               "1e400", HUGE, TOO_LONG, "0", "true", "null", '"x"', "[]", DEEP]


@st.composite
def csv_problems(draw) -> bytes:
    n = draw(st.integers(1, 4))
    labels = LABELS[:n]
    rows = [["label", *labels]]
    for i, label in enumerate(labels):
        cells = [draw(st.sampled_from(CSV_TOKENS)) for _ in range(n)]
        cells[i] = draw(st.sampled_from(["1", "1", "?"]))  # '?' on the diagonal
        cells = cells[: draw(st.integers(0, n + 1))] if draw(st.booleans()) else cells  # ragged
        rows.append([label, *cells])
    text = "\n".join(",".join(row) for row in rows) + "\n"
    known = draw(st.lists(st.sampled_from(labels), max_size=n, unique=True))
    if known:
        text += "\nlabel,priority\n" + "".join(
            f"{label},{draw(st.sampled_from(CSV_TOKENS))}\n" for label in known
        )
    bom = "\ufeff" if draw(st.booleans()) else ""
    return (bom + text).encode("utf-8")


@st.composite
def json_problems(draw) -> bytes:
    n = draw(st.integers(1, 4))
    labels = LABELS[:n]
    rows = []
    for i in range(n):
        cells = [draw(st.sampled_from(JSON_TOKENS)) for _ in range(n)]
        cells[i] = draw(st.sampled_from(["1", "1", '"?"']))
        rows.append("[" + ", ".join(cells) + "]")
    known = draw(st.lists(st.sampled_from(labels), max_size=n, unique=True))
    known_obj = ", ".join(f'"{label}": {draw(st.sampled_from(JSON_TOKENS))}' for label in known)
    return (
        f'{{"alternatives": {json.dumps(labels)}, "matrix": [{", ".join(rows)}], '
        f'"known": {{{known_obj}}}}}'
    ).encode("utf-8")


inputs = st.one_of(
    st.tuples(st.sampled_from(["csv", "json"]), st.binary(max_size=200)),
    st.tuples(st.just("csv"), csv_problems()),
    st.tuples(st.just("json"), json_problems()),
)


@settings(max_examples=300, deadline=None)
@given(inputs, st.sampled_from(COMMANDS), st.booleans())
def test_cli_ends_with_a_documented_outcome(data, command, force_reciprocal):
    fmt, content = data
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"input.{fmt}"
        path.write_bytes(content)
        argv = [command[0], str(path), *command[1:]]
        if force_reciprocal:
            argv.append("--force-reciprocal")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)  # an uncaught exception fails the property
    errors = [line for line in err.getvalue().splitlines() if not line.startswith("WARNING: ")]
    assert code in {0, 1, 2, 3}
    if code in (0, 1):
        assert code == 0 or command[0] == "check"
        assert errors == []
    else:
        assert len(errors) == 1
        assert errors[0].split(":", 1)[0] in CODES
