import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pcrank import (
    MISSING,
    ParseError,
    StructureError,
    format_value,
    formats,
    parse_known,
    parse_problem,
    parse_value,
    serialize_problem,
    serialize_ranking,
)
from pcrank.formats import serialize_table

from helpers import (
    ODD_TOKENS,
    entry_at,
    is_defined,
    json_grid_cells,
    parse_problem_cells,
    parse_value_regex,
    problem_texts,
    ratio_rows,
    rng_for,
    serialize_problem_cells,
    split_blocks_loop,
)

CSV_3 = """label,a,b,c
a,1,2,4
b,1/2,1,?
c,1/4,?,1

label,priority
c,1
"""

JSON_3 = """{
  "alternatives": ["a", "b", "c"],
  "matrix": [[1, 2, 4], [0.5, 1, "?"], [0.25, "?", 1]],
  "known": {"c": 1.0}
}
"""


class TestParseValue:
    def test_decimal_fraction_and_missing(self):
        assert parse_value("2.5") == 2.5
        assert parse_value(" 1/2 ") == 0.5
        assert parse_value("4/2") == 2.0
        assert parse_value("?") is MISSING

    @pytest.mark.parametrize("bad", ["", "  ", "0/3", "3/0", "1.5/2", "-1/2", "abc", "inf", "nan/2"])
    def test_rejected_tokens(self, bad):
        with pytest.raises(ParseError):
            parse_value(bad)


def _parsed(parse, token: str):
    try:
        return "value", parse(token, 7)
    except ParseError as exc:
        return "error", str(exc), exc.line


_DIGITS = "0123456789\u0661\u0662\uff11\u00b2"  # Arabic-Indic, fullwidth, superscript
_SPACES = " \t\xa0\u2003\x1c\x85\u2028"
_fraction_like = st.builds(
    "{}{}{}{}{}".format,
    st.text(alphabet=_DIGITS + "+-", max_size=4),
    st.text(alphabet=_SPACES, max_size=2),
    st.sampled_from(["/", "//", "/ /", ""]),
    st.text(alphabet=_SPACES, max_size=2),
    st.text(alphabet=_DIGITS + "._", max_size=4),
)


@settings(max_examples=2000, deadline=None)
@given(st.one_of(_fraction_like, st.text(alphabet=_DIGITS + _SPACES + "/?.e+-_x", max_size=8)))
@example("1" * 4300 + "/1")
@example("1/" + "1" * 4301)
@example("9" * 400 + " / 1")
@example("1 // 2")
@example("\u0661/\uff12")
@example("\u00b2/2")
def test_parse_value_matches_regex_grammar(token):
    """The regex-free reader takes the tokens the ``(\\d+)\\s*/\\s*(\\d+)``
    grammar takes, with the same value, message and line, on Unicode digits
    and spaces, signs, repeated slashes and int()'s digit limit alike."""
    assert _parsed(parse_value, token) == _parsed(parse_value_regex, token)


class TestParseProblem:
    def test_csv_and_json_agree(self):
        for text, fmt in ((CSV_3, "csv"), (JSON_3, "json")):
            problem = parse_problem(text, fmt)
            assert problem.original_labels == ("a", "b", "c")
            assert problem.labels == ("a", "b", "c")  # already canonical
            assert problem.k == 2
            assert problem.known == (("c", 1.0),)
            assert entry_at(problem.matrix, 0, 1) == 2.0
            assert entry_at(problem.matrix, 1, 0) == 0.5
            assert not is_defined(problem.matrix, 1, 2)
            assert problem.partition.k == 2

    def test_canonical_reordering_moves_knowns_last(self):
        text = json.dumps(
            {
                "alternatives": ["x", "y", "z"],
                "matrix": [[1, 2, 6], [0.5, 1, 3], ["1/6", "1/3", 1]],
                "known": {"y": 2.0},
            }
        )
        problem = parse_problem(text, "json")
        assert problem.original_labels == ("x", "y", "z")
        assert problem.labels == ("x", "z", "y")
        assert problem.k == 2
        # Permutation must carry the cells along: c(x,y)=2 in file order.
        pos = {label: i for i, label in enumerate(problem.labels)}
        assert entry_at(problem.matrix, pos["x"], pos["y"]) == 2.0
        assert entry_at(problem.matrix, pos["z"], pos["y"]) == pytest.approx(1 / 3)
        assert entry_at(problem.matrix, pos["x"], pos["z"]) == 6.0

    def test_permutation_preserves_comparison_graph(self):
        rng = rng_for(71)
        for _ in range(10):
            n = int(rng.integers(3, 8))
            labels = [f"alt{i}" for i in range(n)]
            rows = ratio_rows(rng.uniform(0.2, 5.0, size=n))
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.3:
                        rows[i][j] = rows[j][i] = None
            known_count = int(rng.integers(1, n))
            known = {labels[i]: float(rng.uniform(0.5, 2.0)) for i in rng.permutation(n)[:known_count]}
            obj = {
                "alternatives": labels,
                "matrix": [["?" if cell is None else cell for cell in row] for row in rows],
                "known": known,
            }
            problem = parse_problem(json.dumps(obj), "json")
            assert sorted(problem.labels) == sorted(labels)
            pos = {label: i for i, label in enumerate(problem.labels)}
            for i, a in enumerate(labels):
                for j, b in enumerate(labels):
                    assert entry_at(problem.matrix, pos[a], pos[b]) == rows[i][j]

    def test_asymmetric_missingness_is_a_value_error(self):
        text = '{"alternatives": ["a", "b"], "matrix": [[1, 3], ["?", 1]]}'
        with pytest.raises(ValueError, match="asymmetric"):
            parse_problem(text, "json")

    def test_force_reciprocal_rebuilds_lower_triangle(self):
        text = "label,a,b\na,1,4\nb,9,1\n"
        problem = parse_problem(text, "csv", force_reciprocal=True)
        assert entry_at(problem.matrix, 1, 0) == 0.25
        asym = '{"alternatives": ["a", "b"], "matrix": [[1, 3], ["?", 1]]}'
        repaired = parse_problem(asym, "json", force_reciprocal=True)
        assert entry_at(repaired.matrix, 1, 0) == pytest.approx(1 / 3)

    def test_force_reciprocal_keeps_lower_cell_of_nonpositive_upper(self):
        # Canonical order is (b, a), so the kept lower cell comes first.
        text = "label,a,b\na,1,-2\nb,3,1\n\nlabel,priority\na,1\n"
        with pytest.raises(StructureError, match=r"entry \(1,0\) .* got -2\.0$"):
            parse_problem(text, "csv", force_reciprocal=True)

    def test_separate_known_file(self):
        text = "label,a,b\na,1,4\nb,1/4,1\n"
        problem = parse_problem(text, "csv", known_text="label,priority\nb,2\n")
        assert problem.known == (("b", 2.0),)
        with pytest.raises(ParseError, match="both inline"):
            parse_problem(CSV_3, "csv", known_text="b,2\n")

    def test_crlf_input_accepted(self):
        problem = parse_problem(CSV_3.replace("\n", "\r\n"), "csv")
        assert problem.n == 3

    def test_quoted_label_with_comma(self):
        text = 'label,"a,plus",b\n"a,plus",1,2\nb,1/2,1\n'
        problem = parse_problem(text, "csv")
        assert problem.original_labels == ("a,plus", "b")

    def test_partition_requires_a_usable_split(self):
        no_known = "label,a,b\na,1,4\nb,1/4,1\n"
        with pytest.raises(StructureError, match="no known"):
            parse_problem(no_known, "csv").partition
        all_known = no_known + "\nlabel,priority\na,1\nb,2\n"
        with pytest.raises(StructureError, match="nothing to compute"):
            parse_problem(all_known, "csv").partition


CSV_TOKENS = [
    "1_0", " 2 ", "+3", "1e-3", "\u0661\u0662", "inf", "-inf", "nan",
    "1e400", "0", "-1", "3/4", "3 / 4", "", "abc",
]


@pytest.mark.parametrize("token", CSV_TOKENS)
def test_csv_cell_reads_as_parse_value(token):
    # The token sits on line 3, in a row that also holds a '?'.
    text = f"label,a,b,c\na,1,?,1\nb,?,1,{token}\nc,1,1,1\n"
    try:
        expected = parse_value(token, 3)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            formats._parse_csv_problem(text)
        assert (type(got.value), str(got.value), got.value.line) == (type(exc), str(exc), exc.line)
    else:
        _, grid, _ = formats._parse_csv_problem(text)
        assert grid[1, 2] == expected and math.isnan(grid[1, 0])


def _outcome(parse, *args):
    try:
        return parse(*args)
    except (ParseError, StructureError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("token", ODD_TOKENS)
def test_odd_token_in_plain_grid_parses_as_cells(token):
    # The other cells are plain decimals and '?', so the C reader is tried first.
    text = f"label,a,b,c\na,1,?,1\nb,?,1,{token}\nc,1,1,1\n\nlabel,priority\nc,1\n"
    problem = _outcome(parse_problem, text)
    reference = _outcome(parse_problem_cells, text)
    if isinstance(reference, tuple):
        assert problem == reference
    else:
        assert np.array_equal(problem.matrix.array, reference.matrix.array, equal_nan=True)
        assert np.array_equal(np.signbit(problem.matrix.array), np.signbit(reference.matrix.array))


@pytest.mark.parametrize(
    "text,line",
    [
        ("label,a,b\na,1,2,3\nb,0.5,1,3\n", 2),
        ("label,a,b\na,1,2\nb,0.5,1,\n", 3),
        ("label,a,b\na,1,?,?\nb,?,1\n", 2),
        ("label,a,b\na,1,2,nan\nb,0.5,1,inf\n", 2),
    ],
)
def test_extra_trailing_column_is_an_error(text, line):
    # The cell reference reads valid files only, so this is checked apart.
    with pytest.raises(ParseError, match="row needs 3 cells, got 4") as got:
        parse_problem(text)
    assert got.value.line == line


WIDE = "1." + "0" * 131_071  # one character past the csv module's field size limit


@pytest.mark.parametrize(
    "text,message",
    [
        ("label,a\na\n", "line 2: row needs 2 cells, got 1"),
        (
            "label,a,b\na,1,2\nb,0.5,1\nc,1,1\n",
            "line 1: expected 2 matrix rows after the header, found 3",
        ),
        (f"label,a,b\na,1,2\nb,0.5,{WIDE}\n", "line 3: field larger than field limit (131072)"),
        (
            "label,a,b\na,1,2\nb,0.5,1\n\nlabel,priority\nb,-1\n",
            "line 6: known priority for 'b' must be positive, got '-1'",
        ),
        (f"label,a,b\na,1,2\nb,0.5,1\n\n\nb,{WIDE}\n",
         "line 6: field larger than field limit (131072)"),
        (
            "label,a,b\na,1,2\nb,0.5,1\n\nb,1\n\na,1\n",
            "expected at most two blocks: the matrix and the known priorities",
        ),
        ("label\n", "line 1: header must be 'label,<label1>,...'"),
        (",\n,1\n", "line 2: expected 1 matrix rows after the header, found 0"),
    ],
)
def test_plain_grid_errors_keep_messages_and_lines(text, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the CLI would print any warning
        with pytest.raises(ParseError) as got:
            parse_problem(text)
    assert str(got.value) == message


PLAIN_2 = "label,a,b\na,1,2\nb,0.5,1\n\nlabel,priority\nb,1\n"


@pytest.mark.parametrize(
    "text,line",
    [
        pytest.param(PLAIN_2.replace(",a", ",a\0x").replace("\na,", "\na\0x,"), 1, id="label"),
        pytest.param(PLAIN_2.replace("0.5", "0.5\0"), 3, id="plain-cell"),
        pytest.param(PLAIN_2.replace("0.5", "1/2\0"), 3, id="fraction-cell"),
        pytest.param(PLAIN_2.replace("b,1\n", "b,1\0\n"), 6, id="known-block"),
        pytest.param(PLAIN_2.replace("\n", "\r\n").replace("0.5", "0.5\0"), 3, id="crlf"),
        pytest.param('label,"a\nb",c\n"a\nb",1,2\0\nc,0.5,1\n', 4, id="after-quoted-line-end"),
    ],
)
def test_nul_is_a_parse_error_on_its_line(text, line):
    """The csv module reads NUL from Python 3.11 on and rejected it before:
    every CSV reader rejects it first, as Python 3.10 did."""
    for parse, given in ((parse_problem, text), (parse_problem_cells, formats._lf_lines(text))):
        with pytest.raises(ParseError) as got:
            parse(given)
        assert (str(got.value), got.value.line) == (f"line {line}: line contains NUL", line)


def test_nul_in_a_known_file_is_a_parse_error():
    known_text = "label,priority\nb,\x001\n"
    with pytest.raises(ParseError) as got:
        parse_known(known_text)
    assert (str(got.value), got.value.line) == ("line 2: line contains NUL", 2)
    with pytest.raises(ParseError) as got:
        parse_problem("label,a,b\na,1,2\nb,0.5,1\n", known_text=known_text)
    assert (str(got.value), got.value.line) == ("line 2: line contains NUL", 2)


def _fraction_grid_csv(bad: str) -> str:
    """A 6x6 ``p/q`` grid of a few repeated tokens, with ``bad`` in data row 3
    (line 4) and again in data row 5 (line 6), there in an earlier column."""
    n = 6
    rows = [["1/2" if j > i else "2" if j < i else "1" for j in range(n)] for i in range(n)]
    rows[2][4] = rows[4][1] = bad
    labels = [f"x{i}" for i in range(n)]
    body = "".join(f"{labels[i]}," + ",".join(row) + "\n" for i, row in enumerate(rows))
    return "label," + ",".join(labels) + "\n" + body


@pytest.mark.parametrize(
    "bad,message",
    [
        ("1/0", "line 4: fraction '1/0' must have positive numerator and denominator"),
        ("x", "line 4: cannot parse value 'x'"),
        ("", "line 4: empty cell (use '?' for a missing comparison)"),
    ],
)
def test_cell_path_raises_at_the_first_bad_cell(bad, message):
    """Each distinct token is converted once, in row-major order: the first
    occurrence of a bad token raises, with its own line."""
    with pytest.raises(ParseError) as got:
        parse_problem(_fraction_grid_csv(bad))
    assert (str(got.value), got.value.line) == (message, 4)


@pytest.mark.parametrize(
    "cell,got",
    [
        ("true", 'expected a number, a fraction string, or "?", got True'),
        ("null", 'expected a number, a fraction string, or "?", got None'),
        ("NaN", "value nan is not finite"),
        ("Infinity", "value inf is not finite"),
        ("1e400", "value inf is not finite"),
        ("[1]", 'expected a number, a fraction string, or "?", got [1.0]'),
        ("{}", 'expected a number, a fraction string, or "?", got {}'),
        ('"x"', "cannot parse value 'x'"),
        ('"1/0"', "fraction '1/0' must have positive numerator and denominator"),
        ('""', "empty cell (use '?' for a missing comparison)"),
        ('"inf"', "value 'inf' is not finite"),
    ],
)
def test_json_cell_after_float_rows(cell, got):
    """Finite floats are taken as they are; any other cell is rejected as
    before, ``true`` included although it equals 1.0."""
    text = (
        '{"alternatives": ["a", "b", "c"],'
        ' "matrix": [[1, 2.5, 4.0], [0.4, 1.0, 2.0], [0.25, %s, 1]]}' % cell
    )
    with pytest.raises(ParseError) as error:
        parse_problem(text, "json")
    assert (str(error.value), error.value.line) == (f"matrix[2][1]: {got}", None)


def test_json_known_string_names_its_label():
    text = '{"alternatives": ["a", "b"], "matrix": [[1, 2], [0.5, 1]], "known": {"b": "1/0"}}'
    with pytest.raises(ParseError) as got:
        parse_problem(text, "json")
    assert str(got.value) == "known['b']: fraction '1/0' must have positive numerator and denominator"


def test_json_first_bad_string_in_row_order_is_named():
    text = '{"alternatives": ["a", "b"], "matrix": [[1, "2"], ["y", "x"]]}'
    with pytest.raises(ParseError) as got:
        parse_problem(text, "json")
    assert str(got.value) == "matrix[1][0]: cannot parse value 'y'"


def test_json_bad_cell_wins_over_a_later_ragged_row():
    text = '{"alternatives": ["a", "b", "c"], "matrix": [[1, 2, 4], [0.5, true, 1], [0.25, 1]]}'
    with pytest.raises(ParseError) as got:
        parse_problem(text, "json")
    assert str(got.value) == 'matrix[1][1]: expected a number, a fraction string, or "?", got True'


@pytest.mark.parametrize(
    "text",
    [
        "label,a,b,c\na,1,?,2.5\nb,?,1,1e-3\nc,0.4,1000,1\n",
        "label,a?,b\r\na?,1,?\r\nb,?,1\r\n,,,\r\nlabel,priority\r\nb,1\r\n",
        "label,x\nx,1",
    ],
)
def test_plain_decimal_csv_takes_the_c_reader(text, monkeypatch):
    expected = parse_problem(text)

    def row_path(rows):
        raise AssertionError("plain decimal grid read cell by cell")

    monkeypatch.setattr(formats, "_parse_matrix_block", row_path)
    problem = parse_problem(text)
    assert (problem.labels, problem.known) == (expected.labels, expected.known)
    assert np.array_equal(problem.matrix.array, expected.matrix.array, equal_nan=True)


GATE_FILES = [
    "label,a?,b\na?,1,?\nb,?,1\n\nlabel,priority\nb,1\n",  # '?' inside a label
    'label,"a,plus",b\n"a,plus",1,2\nb,0.5,1\n\nb,1\n',  # quoted label with a comma
    "label,a,b\r\na,1,?\r\nb,?,1\r\n\r\nlabel,priority\r\nb,1\r\n",  # CRLF
    "label,a,b\na,1,2\nb,0.5,1\n,,,\nlabel,priority\nb,1\n",  # ',,,' between the blocks
]


@settings(max_examples=200, deadline=None)
@given(st.one_of(problem_texts(), problem_texts(plain=True)))
@example((GATE_FILES[0], "csv", False))
@example((GATE_FILES[1], "csv", False))
@example((GATE_FILES[2], "csv", True))
@example((GATE_FILES[3], "csv", False))
def test_parse_matches_cell_reference(case):
    text, fmt, force_reciprocal = case
    problem = _outcome(parse_problem, text, fmt, None, force_reciprocal)
    reference = _outcome(parse_problem_cells, text, fmt, force_reciprocal)
    if isinstance(reference, tuple):
        assert problem == reference
        return
    assert problem.labels == reference.labels
    assert problem.original_labels == reference.original_labels
    assert problem.known == reference.known
    assert np.array_equal(problem.matrix.mask, reference.matrix.mask)
    assert np.array_equal(problem.matrix.array, reference.matrix.array, equal_nan=True)


# Where repr switches between positional and exponent notation, where %.12g
# rounds up to the next power of ten, and subnormals, where 12 digits do not
# pin one double.
NOTATION_BOUNDARIES = [
    1e11, 999999999999.5, 1e12, 1e15, 1e16, 2.0**53, 1e-5, 2.2250738585072014e-308, 5e-324,
]


def _bulk_file() -> str:
    """The smallest square CSV problem with more cells than
    ``formats._BULK_CELLS``, so its decimal rows come from ``_g_lines``:
    missing pairs, labels that need quoting, NOTATION_BOUNDARIES values and
    values on both sides of the 12-digit fast path's 1e-3 floor."""
    n = math.isqrt(formats._BULK_CELLS) + 1
    labels = ['"x,1"', '"z""q"', *[f"a{i}" for i in range(2, n)]]
    values = [*map(repr, NOTATION_BOUNDARIES), "1/3", "0.2", "7", "123.456789012345"]
    values += ["0.00123456789012", "0.000123456789012", "1/7000"]
    rows = [["label", *labels]]
    for i, label in enumerate(labels):
        cells = [values[(i * n + j) % len(values)] for j in range(n)]
        cells = ["1" if i == j else "?" if (i + j) % 5 == 0 else c for j, c in enumerate(cells)]
        rows.append([label, *cells])
    return "\n".join(map(",".join, rows)) + f"\n\nlabel,priority\na{n - 1},2\n"


# NaN rows, extreme magnitudes, and labels that need quoting; the last file
# is written by _g_lines.
SERIALIZE_FILES = [
    'label,"x,1",y,"z""q"\n"x,1",1,5e-324,?\ny,1e300,1,1e-300\n"z""q",?,1e300,1\n\ny,2\n',
    '{"alternatives": ["x,1", "y", "z\\"q"], "known": {"y": 2},'
    ' "matrix": [[1, 5e-324, "?"], [1e300, 1, 1e-300], ["?", 1e300, 1]]}',
    _bulk_file(),
]


@settings(max_examples=150, deadline=None)
@given(st.one_of(problem_texts(), problem_texts(plain=True)))
@example((SERIALIZE_FILES[0], "csv", False))
@example((SERIALIZE_FILES[1], "json", False))
@example((SERIALIZE_FILES[2], "csv", False))
def test_serialize_matches_cell_reference(case):
    text, fmt, force_reciprocal = case
    problem = _outcome(parse_problem, text, fmt, None, force_reciprocal)
    assume(not isinstance(problem, tuple))
    for out_fmt in ("csv", "json"):
        for style in ("decimal", "fraction"):
            assert serialize_problem(problem, out_fmt, style) == serialize_problem_cells(
                problem, out_fmt, style
            )


WRITER_LABELS = ["NaN", "?", '"', "\\", "é"]
SOME_MISSING = [False, True] * 7 + [True]  # every other pair missing, three knowns


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.floats(min_value=5e-324, allow_nan=False, allow_infinity=False), min_size=25, max_size=25
    ),
    st.lists(st.booleans(), min_size=15, max_size=15),
)
@example(NOTATION_BOUNDARIES * 2 + NOTATION_BOUNDARIES[:7], [False] * 15)
@example([1e11] * 25, SOME_MISSING)  # one value throughout: no other cell picks the path
@example([999999999999.5] * 25, SOME_MISSING)
@example([1e12] * 25, SOME_MISSING)
@example([1e15] * 25, SOME_MISSING)
@example([1e16] * 25, SOME_MISSING)
@example([2.0**53] * 25, SOME_MISSING)
@example([1e-5] * 25, SOME_MISSING)
@example([2.2250738585072014e-308] * 25, SOME_MISSING)
@example([5e-324] * 25, SOME_MISSING)
def test_json_writer_at_notation_boundaries(values, flags):
    """The three JSON writers against ``json.dumps(..., indent=2)``: any
    positive finite number, with a missing pair and a known priority drawn
    for each flag; the labels need escaping or read like ``nan`` and ``?``."""
    n = len(WRITER_LABELS)
    grid = np.ones((n, n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for (i, j), missing, upper, lower in zip(pairs, flags, values[0::2], values[1::2]):
        grid[i, j], grid[j, i] = (math.nan, math.nan) if missing else (upper, lower)
    known = {label: v for label, v, on in zip(WRITER_LABELS, values[20:], flags[10:]) if on}
    problem = formats._canonicalize(list(WRITER_LABELS), grid, known)
    for style in ("decimal", "fraction"):
        assert serialize_problem(problem, "json", style) == serialize_problem_cells(
            problem, "json", style
        )

    def reference(column):
        return {label: float(f"{v:.12g}") for label, v in zip(WRITER_LABELS, column)}

    columns = {"arithmetic": values[:n], "NaN": values[n : 2 * n], '"\\é': values[-n:]}
    assert serialize_ranking(WRITER_LABELS, values[:n], "json") == (
        json.dumps(reference(values[:n]), indent=2) + "\n"
    )
    assert serialize_table(WRITER_LABELS, columns, "json") == (
        json.dumps({name: reference(col) for name, col in columns.items()}, indent=2) + "\n"
    )


VALID_JSON_CELLS = st.one_of(
    st.floats(1e-3, 1e3),
    st.integers(1, 9),
    st.sampled_from(["?", " ? "]),
    st.builds(lambda p, q: f" {p} / {q} ", st.integers(1, 9), st.integers(1, 9)),
    st.builds("{:.6g}".format, st.floats(1e-3, 1e3)),
)
ODD_JSON_CELLS = st.one_of(
    st.floats(),  # NaN, infinities, zeros and negatives among them
    st.booleans(),
    st.none(),
    st.lists(st.floats(1, 2), max_size=2),
    st.just({}),
    st.sampled_from(["", "x", "nan", "1e400", "1/0", "-1/2", "?1", "1_0"]),
)


@st.composite
def json_grids(draw):
    """(n, rows) of a JSON matrix: valid cells with now and then up to three
    odd ones and one row that is ragged or not an array."""
    n = draw(st.integers(1, 5))
    rows = [draw(st.lists(VALID_JSON_CELLS, min_size=n, max_size=n)) for _ in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(ODD_JSON_CELLS)
    if draw(st.integers(0, 3)) == 0:
        ragged = st.lists(VALID_JSON_CELLS, max_size=n + 1).filter(lambda row: len(row) != n)
        rows[draw(st.integers(0, n - 1))] = draw(st.one_of(ragged, VALID_JSON_CELLS))
    return n, rows


@settings(max_examples=300, deadline=None)
@given(json_grids())
@example((2, [[1.0, True], [1.0, 1.0]]))  # True == 1.0, so no memo may hold floats
@example((2, [[1.0, "1/2"], ["2", 1.0]]))
@example((2, [[1.0, math.nan], [1.0, 1.0]]))
@example((2, [[1.0, "?"], [math.inf, 1.0]]))
def test_json_reader_matches_cell_reference(case):
    n, rows = case
    text = json.dumps({"alternatives": [f"x{i}" for i in range(n)], "matrix": rows})
    got = _outcome(lambda: formats._parse_json_problem(text)[1])
    reference = _outcome(
        lambda: np.array(json_grid_cells(json.loads(text, parse_int=float)["matrix"], n), dtype=float)
    )
    if isinstance(reference, tuple):
        assert isinstance(got, tuple) and got == reference
    else:
        assert np.array_equal(got, reference.reshape(n, n), equal_nan=True)


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(min_value=-1e4, max_value=1e4),
        st.tuples(st.integers(1, 30000), st.integers(1, 30000)).map(lambda t: t[0] / t[1]),
    ),
    st.sampled_from([1, 2, 3, 7, 100, 9999]),
)
@example(0.5, 1)  # ties between the two candidates: the convergent wins
@example(2.5, 1)
@example(0.25, 2)
@example(-0.75, 2)
@example(5e-324, 9999)
def test_limit_denominator_matches_fraction(value, max_denominator):
    frac = Fraction(value).limit_denominator(max_denominator)
    assert formats._limit_denominator(value, max_denominator) == (frac.numerator, frac.denominator)


class TestParseErrors:
    @pytest.mark.parametrize(
        "text,match",
        [
            ("", "empty input"),
            ("label,a,b\na,1,2\n", "expected 2 matrix rows"),
            ("label,a,b\na,1,2\nb,0.5\n", "cells"),
            ("label,a,b\nb,1,2\na,0.5,1\n", "does not match header order"),
            ("label,a,b\na,1,\nb,0.5,1\n", "empty cell"),
            ("label,a,b\na,1,2\nb,0.5,1\n\nx\n", "label,priority"),
            ("label,a,b\na,1,2\nb,0.5,1\n\na,1\n\na,2\n", "at most two blocks"),
        ],
    )
    def test_csv_errors(self, text, match):
        with pytest.raises(ParseError, match=match):
            parse_problem(text, "csv")

    def test_line_numbers_reported(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_problem("label,a,b\na,1,2\nb,oops,1\n", "csv")

    def test_unknown_label_in_known(self):
        with pytest.raises(StructureError, match="undeclared"):
            parse_problem("label,a,b\na,1,2\nb,0.5,1\n\nq,3\n", "csv")

    def test_duplicate_labels(self):
        with pytest.raises(StructureError, match="duplicate"):
            parse_problem("label,a,a\na,1,2\na,0.5,1\n", "csv")

    def test_non_unit_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            parse_problem("label,a,b\na,2,2\nb,0.5,1\n", "csv")

    def test_nonpositive_entry(self):
        with pytest.raises(ValueError, match="positive"):
            parse_problem("label,a,b\na,1,-2\nb,0.5,1\n", "csv")

    def test_bad_json(self):
        with pytest.raises(ParseError, match="invalid JSON"):
            parse_problem("{not json", "json")
        with pytest.raises(ParseError, match="alternatives"):
            parse_problem('{"matrix": []}', "json")
        with pytest.raises(ParseError):
            parse_problem('{"alternatives": ["a"], "matrix": [[1]], "known": {"a": null}}', "json")

    @pytest.mark.parametrize(
        "text,fmt",
        [
            pytest.param("label,a\na,1" + "0" * 400 + "/1\n", "csv", id="fraction-overflow"),
            pytest.param("label,a\na,1/" + "9" * 5000 + "\n", "csv", id="fraction-digits"),
            pytest.param(
                '{"alternatives": ["a"], "matrix": [[1' + "0" * 400 + "]]}", "json",
                id="json-integer-overflow",
            ),
            pytest.param(
                '{"alternatives": ["a"], "matrix": [[' + "9" * 5000 + "]]}", "json",
                id="json-integer-digits",
            ),
            pytest.param("[" * 5000 + "]" * 5000, "json", id="json-nesting"),
        ],
    )
    def test_out_of_range_input_is_a_parse_error(self, text, fmt):
        # Each of these once escaped as OverflowError, ValueError or RecursionError.
        with pytest.raises(ParseError):
            parse_problem(text, fmt)

    def test_known_file_errors(self):
        with pytest.raises(ParseError, match="positive"):
            parse_known("a,-1\n")
        with pytest.raises(ParseError, match="duplicate"):
            parse_known("a,1\na,2\n")
        with pytest.raises(ParseError, match="'?'"):
            parse_known("a,?\n")


class TestSerialize:
    def test_ranking_csv(self):
        text = serialize_ranking(("x", "y", "z"), (4.0, 2.0, 1.0))
        assert text == "x,4\ny,2\nz,1\n"

    def test_ranking_empty(self):
        assert serialize_ranking((), ()) == ""
        assert serialize_ranking((), (), "json") == "{}\n"

    def test_ranking_json_round_trip_at_12_digits(self):
        values = (4.000000000000123, 2 / 3, 1.0e-7)
        text = serialize_ranking(("x", "y", "z"), values, "json")
        back = json.loads(text)
        assert [back[l] for l in ("x", "y", "z")] == [float(f"{v:.12g}") for v in values]

    def test_ranking_length_mismatch(self):
        with pytest.raises(StructureError):
            serialize_ranking(("x",), (1.0, 2.0))
        for labels, column, fmt in ((["a", "b"], [1.0], "csv"), (["a"], [1.0, 2.0], "json")):
            with pytest.raises(StructureError) as got:
                serialize_table(labels, {"x": column}, fmt)
            assert str(got.value) == f"column 'x': {len(labels)} labels but {len(column)} values"

    def test_format_value_styles(self):
        assert format_value(0.5) == "0.5"
        assert format_value(0.5, "fraction") == "1/2"
        assert format_value(2.0, "fraction") == "2"
        assert format_value(math.pi, "fraction") == f"{math.pi:.12g}"
        for value, text in [(math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan")]:
            assert format_value(value) == format_value(value, "fraction") == text
        with pytest.raises(ValueError):
            format_value(1.0, "roman")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_serialize_problem_rejects_unknown_number_style(self, fmt):
        with pytest.raises(ValueError, match="unknown number style 'roman'"):
            serialize_problem(parse_problem(CSV_3, "csv"), fmt, "roman")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_unknown_number_style_without_known_priorities(self, fmt):
        # Nothing here reaches a known-priority cell, and yet the style is checked.
        problem = parse_problem("label,a,b\na,1,2\nb,1/2,1\n", "csv")
        assert not problem.known
        with pytest.raises(ValueError, match="unknown number style 'hex'"):
            serialize_problem(problem, fmt, number_style="hex")
        with pytest.raises(ValueError, match="unknown number style 'hex'"):
            format_value(1.0, "hex")

    def test_problem_round_trip_csv(self):
        problem = parse_problem(CSV_3, "csv")
        text = serialize_problem(problem, "csv", number_style="fraction")
        assert "b,1/2,1,?" in text.splitlines()
        again = parse_problem(text, "csv")
        assert again.labels == problem.labels
        assert again.matrix.entries == problem.matrix.entries
        assert again.known == problem.known

    def test_problem_round_trip_json(self):
        problem = parse_problem(JSON_3, "json")
        text = serialize_problem(problem, "json")
        again = parse_problem(text, "json")
        assert again.matrix.entries == problem.matrix.entries
        assert again.known == problem.known

    def test_problem_serialization_restores_original_order(self):
        text = json.dumps(
            {
                "alternatives": ["x", "y", "z"],
                "matrix": [[1, 2, 6], [0.5, 1, 3], ["1/6", "1/3", 1]],
                "known": {"y": 2.0},
            }
        )
        problem = parse_problem(text, "json")
        out = json.loads(serialize_problem(problem, "json"))
        assert out["alternatives"] == ["x", "y", "z"]
        assert out["matrix"][0][1] == 2.0
        assert out["matrix"][2][0] == pytest.approx(1 / 6, rel=1e-12)

    def test_random_problems_round_trip(self):
        rng = rng_for(72)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            labels = [f"alt{i}" for i in range(n)]
            rows = ratio_rows(rng.uniform(0.2, 5.0, size=n))
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.25:
                        rows[i][j] = rows[j][i] = None
            known = {labels[-1]: 1.5}
            obj = {
                "alternatives": labels,
                "matrix": [["?" if c is None else c for c in row] for row in rows],
                "known": known,
            }
            problem = parse_problem(json.dumps(obj), "json")
            for fmt in ("csv", "json"):
                again = parse_problem(serialize_problem(problem, fmt), fmt)
                assert again.labels == problem.labels
                assert again.known == problem.known
                for i in range(n):
                    for j in range(n):
                        a = entry_at(problem.matrix, i, j)
                        b = entry_at(again.matrix, i, j)
                        if a is MISSING:
                            assert b is MISSING
                        else:
                            assert b == pytest.approx(a, rel=1e-11)

    def test_lf_only_output(self):
        problem = parse_problem(CSV_3, "csv")
        assert "\r" not in serialize_problem(problem, "csv")
        assert "\r" not in serialize_ranking(("x",), (1.0,))

    def test_values_in_original_order(self):
        text = json.dumps(
            {
                "alternatives": ["x", "y", "z"],
                "matrix": [[1, 2, 6], [0.5, 1, 3], ["1/6", "1/3", 1]],
                "known": {"y": 2.0},
            }
        )
        problem = parse_problem(text, "json")
        # canonical order is (x, z, y)
        assert problem.file_order == [0, 2, 1]
        values = (4.0, 1.0, 2.0)
        assert [values[i] for i in problem.file_order] == [4.0, 2.0, 1.0]
        # Unknowns first, each group in file order: knowns first in the file,
        # knowns interleaved with unknowns, a single unknown.
        for labels, known, canonical, file_order in [
            ("abcd", "ab", "cdab", [2, 3, 0, 1]),
            ("abcde", "bd", "acebd", [0, 3, 1, 4, 2]),
            ("abc", "ac", "bac", [1, 0, 2]),
        ]:
            n = len(labels)
            grid = 2.0 ** (np.arange(n)[:, None] - np.arange(n))  # c_ij = 2**(i - j)
            problem = formats._canonicalize(list(labels), grid, dict.fromkeys(known, 1.0))
            assert problem.labels == tuple(canonical)
            assert problem.known == tuple((label, 1.0) for label in known)
            assert problem.file_order == file_order
            assert (problem.matrix.array[np.ix_(file_order, file_order)] == grid).all()


@pytest.mark.parametrize(
    "text,key",
    [
        pytest.param(
            '{"alternatives": ["a", "b"], "matrix": [[1, 2], [0.5, 1]], "known": {"b": 1, "b": 5}}',
            "b", id="known",
        ),
        pytest.param(
            '{"alternatives": ["a", "b"], "matrix": [[1]], "matrix": [[1, 2], [0.5, 1]]}',
            "matrix", id="matrix",
        ),
        pytest.param(
            '{"alternatives": ["x"], "alternatives": ["a", "b"], "matrix": [[1, 2], [0.5, 1]]}',
            "alternatives", id="alternatives",
        ),
        pytest.param('{"alternatives": ["a"], "matrix": [[{"x": 1, "x": 1}]]}', "x", id="cell"),
    ],
)
def test_json_repeated_key_is_a_parse_error(text, key):
    with pytest.raises(ParseError) as got:
        parse_problem(text, "json")
    assert str(got.value) == f"repeated key {key!r} in a JSON object"


@pytest.mark.parametrize("key", ["knwon", "Known", "comment"])
@pytest.mark.parametrize("known_text", [None, "b,1\n"], ids=["inline", "known-file"])
def test_json_unknown_top_level_key_is_a_parse_error(key, known_text):
    """Only 'alternatives', 'matrix' and 'known' may sit at the top level, so
    a misspelled 'known' is an error even when a known file is given."""
    text = json.dumps({"alternatives": ["a", "b"], "matrix": [[1, 2], [0.5, 1]], key: {"b": 3}})
    with pytest.raises(ParseError) as got:
        parse_problem(text, "json", known_text=known_text)
    assert str(got.value) == f"unknown top-level key {key!r}; expected alternatives, matrix, known"


@pytest.mark.parametrize(
    "body,plain",
    [
        pytest.param("a,1,2\nb,0.5,1\n\nb,1\n\na,1\n", True, id="plain"),
        pytest.param("a,1,2\nb,1/2,1\n\nb,1\n\na,1\n", False, id="cells"),
        pytest.param("a,1,x\nb,1/2,1\n\nb,1\n\na,1\n", False, id="cells-bad-cell"),
        pytest.param("a,1,2\nb,0.5,1\n\nb,-1\n\na,1\n", True, id="plain-bad-known"),
    ],
)
def test_three_blocks_on_both_grid_readers(body, plain):
    """The block count is checked once, before any cell or known priority."""
    text = "label,a,b\n" + body
    assert (formats._plain_grid(text) is not None) == plain
    with pytest.raises(ParseError) as got:
        parse_problem(text)
    assert str(got.value) == "expected at most two blocks: the matrix and the known priorities"


JSON_KNOWN_B = '{"alternatives": ["a", "b"], "matrix": [[1, 2], [0.5, 1]], "known": {"b": %s}}'


@pytest.mark.parametrize(
    "text,fmt,error,message",
    [
        pytest.param(
            "label,a,b\na,1,2\nb,0.5,1\n\n,1\n", "csv",
            ParseError, "line 5: empty label in known-priority row", id="empty-known-label",
        ),
        pytest.param(
            "[1, 2]", "json", ParseError, "top-level JSON value must be an object", id="top-level"
        ),
        pytest.param(
            '{"alternatives": ["a", "b"], "matrix": [[1, 2]]}', "json",
            ParseError, "'matrix' must be an array of 2 rows", id="matrix-rows",
        ),
        pytest.param(
            '{"alternatives": ["a", "b"], "matrix": [[1, 2], [0.5, 1]], "known": [1]}', "json",
            ParseError, "'known' must be an object mapping labels to priorities", id="known-object",
        ),
        pytest.param(
            '{"alternatives": ["", "b"], "matrix": [[1, 2], [0.5, 1]]}', "json",
            StructureError, "alternative labels must be nonempty", id="empty-label",
        ),
        pytest.param(
            "label,a,b\na,1,2\nb,0.5,1\n\nlabel,priority\nb,?\n", "csv",
            ParseError, "line 6: known priority for 'b' cannot be '?'", id="csv-known-missing",
        ),
        pytest.param(
            JSON_KNOWN_B % '"?"', "json",
            ParseError, "known priority for 'b' cannot be '?'", id="json-known-missing",
        ),
        pytest.param(
            JSON_KNOWN_B % "-1", "json",
            ParseError, "known priority for 'b' must be positive, got -1.0", id="json-known-negative",
        ),
        pytest.param(
            JSON_KNOWN_B % '"-1"', "json",
            ParseError, "known priority for 'b' must be positive, got '-1'", id="json-known-string",
        ),
        pytest.param(
            JSON_KNOWN_B % "0", "json",
            ParseError, "known priority for 'b' must be positive, got 0.0", id="json-known-zero",
        ),
    ],
)
def test_input_error_messages(text, fmt, error, message):
    with pytest.raises(error) as got:
        parse_problem(text, fmt)
    assert str(got.value) == message


# A record as the csv reader gives it: [] for a blank line, [""] * m for a
# line of commas, and cells that may be empty beside filled ones.
_csv_record = st.one_of(
    st.just([]), st.lists(st.just(""), min_size=1, max_size=3),
    st.lists(st.sampled_from(["", "a", "1/2", "?"]), min_size=1, max_size=3),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(_csv_record, max_size=12))
@example([])
@example([[], ["", ""], ["a", "1"], ["", "?"], [], [""], ["b", ""], [], []])
def test_split_blocks_matches_blank_row_loop(records):
    """Leading, repeated and trailing blank or comma-only rows split the same
    way as in the state machine they replace, and no rows give no blocks."""
    rows = list(enumerate(records, 1))
    assert formats._split_blocks(rows) == split_blocks_loop(rows)


def test_parse_known_blank_and_two_blocks():
    assert parse_known("") == {} and parse_known("\n,\n") == {}
    with pytest.raises(ParseError) as got:
        parse_known("a,1\n\nb,2\n")
    assert str(got.value) == "known-priorities file must be a single block of rows"


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: parse_problem(CSV_3, "xml"), id="parse_problem"),
        pytest.param(lambda: serialize_ranking(("a",), (1.0,), "xml"), id="serialize_ranking"),
        pytest.param(lambda: serialize_table(("a",), {"m": (1.0,)}, "xml"), id="serialize_table"),
        pytest.param(lambda: serialize_problem(parse_problem(CSV_3), "xml"), id="serialize_problem"),
    ],
)
def test_unknown_format_is_a_value_error(call):
    with pytest.raises(ValueError) as got:
        call()
    assert str(got.value) == "unknown format 'xml'"


def g6_reference(values) -> str:
    return "".join("%.6g\n" % value for value in np.asarray(values, dtype=float).tolist())


_bit_patterns = st.integers(0, 2**64 - 1).map(lambda bits: np.uint64(bits).view(np.float64).item())
_spread = st.floats(-25.0, 25.0).map(math.exp)  # log drawn, so many decades are covered
_ties = st.builds(  # the floats nearest the 7-digit decimal ties (10 m + 5) 10**e
    lambda m, e: float(f"{10 * m + 5}e{e}"), st.integers(10**5, 10**6 - 1), st.integers(-12, 2)
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(), _bit_patterns, _spread, _ties), max_size=200))
def test_g6_kernel_matches_percent_format(values):
    """Both signs, 0, subnormals, inf and NaN (``st.floats`` and raw bit
    patterns), values over many decades, and near ties."""
    assert formats._g_lines(np.array(values, dtype=float)) == g6_reference(values)


def test_g6_kernel_on_bulk_draws():
    """Log-normal values, raw bit patterns and decimal ties, 100,000 each,
    through the fast path and the fallback in one array."""
    rng = np.random.default_rng(16)
    m, e = rng.integers(10**5, 10**6, 100_000), rng.integers(-12, 3, 100_000)
    values = np.concatenate([
        rng.lognormal(0.0, 5.0, 100_000),
        rng.integers(0, 2**64 - 1, 100_000, dtype=np.uint64).view(np.float64),
        [float(f"{10 * a + 5}e{b}") for a, b in zip(m.tolist(), e.tolist())],
    ])
    rng.shuffle(values)
    assert formats._g_lines(values) == g6_reference(values)


_POWERS = 10.0 ** np.arange(-8, 9)


@pytest.mark.parametrize(
    "values",
    [
        pytest.param([], id="empty"),
        pytest.param([1e-4, 9.999995e-5, 1e-5], id="fixed-notation-floor"),
        pytest.param([0.5, 9.5, 123456.5, 999999.5, 1e6], id="ties-and-carry"),
        pytest.param([100.0, 120.0, 0.00012, 999999.0, 1.0], id="integer-part-zeros"),
        pytest.param(np.nextafter(_POWERS, 0.0), id="below-powers-of-ten"),
        pytest.param(_POWERS, id="powers-of-ten"),
        pytest.param(np.nextafter(_POWERS, math.inf), id="above-powers-of-ten"),
        pytest.param(
            [0.0, -0.0, -1.5, math.inf, -math.inf, math.nan, 5e-324, 1.7976931348623157e308],
            id="special",
        ),
    ],
)
def test_g6_kernel_fixed_values(values):
    assert formats._g_lines(np.array(values, dtype=float)) == g6_reference(values)


def g12_reference(values, row: int = 1) -> str:
    """``"%.12g" % v`` for each value, ``,`` after each but the last of every
    ``row`` values and a newline after that one."""
    texts = ["%.12g" % value for value in np.asarray(values, dtype=float).tolist()]
    return "".join(text + ("\n" if i % row == row - 1 else ",") for i, text in enumerate(texts))


_spread12 = st.floats(-32.0, 32.0).map(math.exp)  # 1e-14 to 8e13, past both fixed-notation ends
_ties12 = st.builds(  # the floats nearest the 13-digit decimal ties (10 m + 5) 10**e
    lambda m, e: float(f"{10 * m + 5}e{e}"), st.integers(10**11, 10**12 - 1), st.integers(-18, 0)
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(st.floats(), _bit_patterns, _spread12, _ties12), max_size=200),
    st.integers(1, 7),
)
def test_g12_kernel_matches_percent_format(values, row):
    """The ``%.6g`` property at 12 digits, the values laid out in rows."""
    values = values[: len(values) // row * row]
    assert formats._g_lines(np.array(values, dtype=float), 12, row) == g12_reference(values, row)


def test_g12_kernel_on_bulk_draws():
    """Log-normal values, raw bit patterns and 13-digit ties, 100,000 each,
    in rows of 400 as the serializer writes an n = 400 matrix."""
    rng = np.random.default_rng(17)
    m, e = rng.integers(10**11, 10**12, 100_000), rng.integers(-18, 1, 100_000)
    values = np.concatenate([
        rng.lognormal(0.0, 8.0, 100_000),
        rng.integers(0, 2**64 - 1, 100_000, dtype=np.uint64).view(np.float64),
        [float(f"{10 * a + 5}e{b}") for a, b in zip(m.tolist(), e.tolist())],
    ])
    rng.shuffle(values)
    rows = formats._g_lines(values, 12, 400).split("\n")  # a list: pytest reports its diff fast
    assert rows == g12_reference(values, 400).split("\n")


_POWERS12 = 10.0 ** np.arange(-5, 14)


@pytest.mark.parametrize(
    "values",
    [
        pytest.param([1e-4, np.nextafter(1e-4, 0.0), 1e-3, np.nextafter(1e-3, 0.0)], id="floors"),
        pytest.param([999999999999.5, 1e12, 999999999999.0, 0.5, 9.5], id="ties-and-carry"),
        pytest.param(np.nextafter(_POWERS12, 0.0), id="below-powers-of-ten"),
        pytest.param(_POWERS12, id="powers-of-ten"),
        pytest.param(np.nextafter(_POWERS12, math.inf), id="above-powers-of-ten"),
        pytest.param(
            [5e-324, 2.2250738585072014e-308, 0.0, -0.0, math.inf, -math.inf, math.nan],
            id="special",
        ),
    ],
)
def test_g12_kernel_fixed_values(values):
    assert formats._g_lines(np.array(values, dtype=float), 12) == g12_reference(values)


_listing_labels = st.text(st.one_of(st.characters(), st.sampled_from("\0\n\xff名𝔸")), max_size=5)
_deviations = st.one_of(
    st.sampled_from([0.0, math.inf, 5e-324, 2.2250738585072014e-308]),
    st.floats(0.0, 2.2250738585072014e-308),  # subnormals
    _spread,
    _ties,
    st.builds(  # within 1e-4 of a 7-digit tie, in units of the 6th digit
        lambda m, off, e: (m + 0.5 + off) * 10.0**e,
        st.integers(10**5, 10**6 - 1), st.floats(-1e-4, 1e-4), st.integers(-10, 2),
    ),
)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_triad_listing_matches_line_by_line(data):
    """Labels of any text (NUL, newlines and characters of 1 to 4 UTF-8 bytes
    among them), deviations from 0 to inf, and pieces of 1 to 40 rows."""
    labels = data.draw(st.lists(_listing_labels, min_size=1, max_size=6))
    index = st.integers(0, len(labels) - 1)
    rows = data.draw(st.lists(st.tuples(index, index, index, _deviations), max_size=60))
    columns = [np.array([row[c] for row in rows], dtype=np.intp) for c in range(3)]
    columns.append(np.array([row[3] for row in rows], dtype=float))
    expected = "".join(
        f"  ({labels[i]}, {labels[j]}, {labels[k]}): deviation {d:.6g}\n" for i, j, k, d in rows
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(formats, "_BLOCK_VALUES", data.draw(st.integers(1, 40)))
        assert "".join(formats.triad_listing(labels, columns)) == expected


def test_triad_listing_pieces_stay_within_a_mebibyte():
    """Every cell is padded to the widest label, so a label of 768 KiB makes
    each row wider than 1 MiB and each piece one row; short labels keep
    pieces of _BLOCK_VALUES rows."""
    columns = [np.array([0, 1, 2]), np.array([1, 2, 0]), np.array([2, 0, 1]), np.ones(3)]
    for labels, pieces in [(["a", "b", "c"], 1), (["a", "é" * 3 * 2**17, "c"], 3)]:
        listing = list(formats.triad_listing(labels, columns))
        assert len(listing) == pieces
        assert "".join(listing).count("): deviation 1\n") == 3
        assert "".join(listing).startswith(f"  (a, {labels[1]}, c): deviation 1\n")
