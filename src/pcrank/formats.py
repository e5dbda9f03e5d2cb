"""Text formats for comparison problems and rankings (CSV and JSON).

A problem file names the alternatives, gives the comparison matrix with
``?`` marking absent judgments, and fixes the known priorities for a subset
of alternatives.  On load the alternatives are reordered so that unknowns
come first (the index convention the solvers use); every serializer restores
the original file order, so callers never see the shuffle.

Values may be written as decimals or as fractions ``p/q`` with positive
integers, the conventional way ratio judgments are recorded.  Internally
the matrix is one ``float64`` grid with NaN for ``?``, from the parser to
the serializer.  Empty cells are an error rather than a missing value:
silent emptiness hides data-entry mistakes, ``?`` states intent.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ParseError, StructureError
from .matrix import MISSING, Entry, PCMatrix, Partition

# The fraction style prints p/q, q <= _MAX_DENOMINATOR, when it is within
# _FRACTION_TOL of the value (relative, or absolute below 1).
_MAX_DENOMINATOR = 9999
_FRACTION_TOL = 1e-12

_POWERS_OF_TEN = 10.0 ** np.arange(16)  # each exact: every power up to 1e22 is a float
_BULK_CELLS = 1024  # fewer cells: one % beats _g_lines in a complete call (n = 30: +22 us)
_BLOCK_VALUES = 1 << 14  # values per _g_lines pass, and rows per piece of check's listing


@dataclass(frozen=True)
class Problem:
    """A parsed problem: labeled matrix plus known priorities.

    ``labels`` and ``matrix`` are in canonical order (unknown alternatives
    first, knowns last); ``original_labels`` remembers the input order for
    serialization.  ``known`` pairs each known label with its priority, in
    canonical tail order.
    """

    labels: tuple[str, ...]
    original_labels: tuple[str, ...]
    matrix: PCMatrix
    known: tuple[tuple[str, float], ...]

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def k(self) -> int:
        return self.n - len(self.known)

    @property
    def partition(self) -> Partition:
        """The solver-facing partition; raises when the file fixes either no
        priorities or all of them."""
        return Partition(self.k, tuple(value for _, value in self.known))

    @property
    def file_order(self) -> list[int]:
        """The canonical index of each label, in file order: indexing a
        canonical-order array with it restores the order of the file."""
        position = {label: idx for idx, label in enumerate(self.labels)}
        return [position[label] for label in self.original_labels]


def parse_value(token: str, line: int | None = None) -> Entry:
    """Parse one cell: ``?``, a decimal, or a fraction ``p/q`` (p, q > 0)."""
    text = token.strip()
    if text == "?":
        return MISSING
    if not text:
        raise ParseError("empty cell (use '?' for a missing comparison)", line)
    # p/q: decimal digits on both sides, whitespace allowed around the '/'.
    p, slash, q = text.partition("/")
    p, q = p.rstrip(), q.lstrip()
    if slash and p.isdecimal() and q.isdecimal():
        try:
            p, q = int(p), int(q)
            if p and q:
                return p / q
        except (ValueError, OverflowError):  # past int()'s digit limit or the float range
            raise ParseError(f"fraction {text!r} is out of range", line) from None
        raise ParseError(f"fraction {text!r} must have positive numerator and denominator", line)
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"cannot parse value {text!r}", line) from None
    if not math.isfinite(value):
        raise ParseError(f"value {text!r} is not finite", line)
    return value


def _limit_denominator(value: float, max_denominator: int) -> tuple[int, int]:
    """``Fraction(value).limit_denominator(max_denominator)`` as ``(p, q)``,
    computed on the integers of ``value.as_integer_ratio()``."""
    numerator, denominator = value.as_integer_ratio()
    if denominator <= max_denominator:
        return numerator, denominator
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = numerator, denominator
    while True:  # the convergents p1/q1 of the continued fraction
        a, r = divmod(n, d)
        q2 = q0 + a * q1
        if q2 > max_denominator:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, r
    k = (max_denominator - q0) // q1
    # value lies between p1/q1 and the semiconvergent (p0 + k p1)/(q0 + k q1),
    # which are 1/(q1 (q0 + k q1)) apart; p1/q1 wins when at least as close.
    if 2 * d * (q0 + k * q1) <= denominator:
        return p1, q1
    return p0 + k * p1, q0 + k * q1


def format_value(value: float, style: str = "decimal") -> str:
    """Render a value with 12 significant digits, or as ``p/q`` when the
    fraction style is selected and the value is (up to rounding) a ratio of
    small integers.  Both styles print inf and NaN as ``%.12g`` does."""
    if style not in ("decimal", "fraction"):
        raise ValueError(f"unknown number style {style!r}")
    if style == "fraction" and math.isfinite(value):
        p, q = _limit_denominator(value, _MAX_DENOMINATOR)
        if p > 0 and abs(p / q - value) <= _FRACTION_TOL * max(1.0, abs(value)):
            return str(p) if q == 1 else f"{p}/{q}"
    return f"{value:.12g}"


def _g_lines(values: np.ndarray, precision: int = 6, row: int = 1) -> str:
    """``"%.{precision}g" % v`` for each value of a float64 array, precision 6
    or 12, each followed by ``,`` or, every ``row``-th, by a newline: the
    same text byte for byte, from :func:`_g_bytes` over blocks of whole rows."""
    v = np.asarray(values, dtype=np.float64)
    step = max(_BLOCK_VALUES // row, 1) * row  # blocks of whole rows, or one row
    blocks = (_g_bytes(v[i : i + step], precision, row) for i in range(0, len(v), step))
    return "".join([block.tobytes().translate(None, b"\0").decode("ascii") for block in blocks])


def _g_bytes(v: np.ndarray, precision: int, row: int) -> np.ndarray:
    """The bytes of :func:`_g_lines`' text, one row of a uint8 matrix per
    value: its text, NUL padding, and its separator as the last byte; 16
    bytes a value at 6 digits, 24 at 12.

    A value in fixed notation takes the fast path: s = v * 10**(p - 1 - e),
    e = floor(log10(v)), scales by an exact power of ten; s < 1e12 < 2**40, so
    its one rounding errs by at most 2**-14 ~ 6.1e-5, and rint(s) is the p
    digits when s is in [10**(p-1), 10**p - 0.5) and more than 1e-4 from a tie.
    Every other value goes through ``%``: 0, negatives, inf, NaN, scientific
    notation, 12 digits below 1e-3, a missed log10 guess, a near tie.  SWAR
    splits the digits into bytes: 6 in one word, laid out by shifts; 12 as 16
    digits with a 0 for the dot, in two words made ASCII up to the last nonzero
    digit or the dot.  A call's fixed cost, about 0.1 ms, sets _BULK_CELLS.
    """
    top, least = _POWERS_OF_TEN[precision], max(precision - 15, -4)  # z + p + 1 <= 16
    clamped = np.fmin(np.fmax(v, 10.0**least), top - 1)  # NaN becomes the floor
    e = np.floor(np.fmax(np.log10(clamped), least)).astype(np.int64)
    scale = _POWERS_OF_TEN[precision - 1 - e]
    s = clamped * scale
    r = np.rint(s)
    fast = (clamped == v) & (s >= top / 10) & (r < top) & (np.abs(s - r) < 0.5 - 1e-4)
    z, q = np.maximum(-e, 0), np.maximum(e, 0) + 1  # z zeros lead; the dot goes at q
    w = r.astype(np.int64)[None]  # 6 digits: one word
    if precision == 12:  # the digits, a 0 in the dot's place, zeros: 16 digits, two words
        t = (r + 9 * np.floor(r / scale) * scale).astype(np.int64)
        w = np.stack(np.divmod(t * _POWERS_OF_TEN[15 - precision - z].astype(np.int64), 10**8))
    w = (w << 32) - (w // 10000) * ((10000 << 32) - 1)  # 4|4 digits, low lane first
    w = (w << 16) - ((w * 5243 >> 19) & 0x7F0000007F) * 6553599  # 2|2|2|2
    w = (w << 8) - ((w * 103 >> 10) & 0xF000F000F000F) * 2559  # 8 single digits
    nonzero = (w + 0x7F7F7F7F7F7F7F7F) >> 7 & 0x0101010101010101  # 1 per nonzero digit
    end = np.frexp((nonzero * 2.0 ** (64 * np.arange(len(w)))[:, None]).sum(0))[1] + 7 >> 3
    if precision == 6:  # 0|0|d1|..|d6; end - 2: the digits up to the last nonzero one
        digits, significant = w[0] >> 16, end - 2
        digits |= 0x303030303030 & (1 << 8 * np.maximum(significant, q - z)) - 1
        lo = (digits << 8 * z) | (0x30303030 >> 32 - 8 * z)
        moved = lo >> 8 * q << 8 * q  # the bytes from q on move up one for the dot
        words = np.stack([lo + moved * 255 + ((z + significant > q) * 0x2E << 8 * q),
                          (digits >> 56 - 8 * z >> 8 << 8) | (lo >> 56)], axis=1)  # no shift by 64
    else:  # ASCII up to the last nonzero digit or the dot, the dot, a word for the separator
        m = np.clip(np.maximum(end, q) - [[0], [8]], 0, 8)  # the text bytes of each word
        words = np.column_stack([*w | 0x3030303030303030 & (1 << 4 * m << 4 * m) - 1, 0 * q])
        dotted = np.flatnonzero(q < end)
        words.view(np.uint8)[dotted, q[dotted]] = 46
    text = words.view(np.uint8)
    slow = np.flatnonzero(~fast)
    text.view(f"S{text.shape[1]}")[slow, 0] = [f"%.{precision}g" % x for x in v[slow].tolist()]
    text[:, -1] = 44
    text[row - 1 :: row, -1] = 10
    return text


def triad_listing(labels: Sequence[str], columns) -> Iterator[str]:
    """``check``'s ``  (a, b, c): deviation d`` lines, in pieces of up to
    _BLOCK_VALUES rows, so memory does not grow with the number of deviations.

    Each label is encoded once into NUL-padded cells ``"  (a, "``, ``"b, "``
    and ``"c): deviation "``.  A piece is one byte matrix whose rows are the
    cells of i, j and k beside the :func:`_g_bytes` row of the deviation, and
    one pass drops the padding.  A NUL in a label is written as 0xFF, a byte
    UTF-8 never holds, and mapped back in that pass only when a label has one.
    """
    i, j, k, deviation = columns
    encoded = [label.encode().replace(b"\0", b"\xff") for label in labels]
    cells = [  # S{width} arrays: each cell padded with NUL to the widest
        np.array([head + label + tail for label in encoded], dtype=bytes)
        for head, tail in [(b"  (", b", "), (b"", b", "), (b"", b"): deviation ")]
    ]
    line = np.dtype([("", cell.dtype) for cell in cells] + [("", "S16")])  # i, j, k, deviation
    nul = bytes.maketrans(b"\xff", b"\0") if any("\0" in label for label in labels) else None
    step = max(1, min(_BLOCK_VALUES, (1 << 20) // line.itemsize))  # long labels: pieces of 1 MiB
    for start in range(0, len(deviation), step):
        rows = slice(start, start + step)
        number = _g_bytes(deviation[rows], 6, 1)
        piece = np.empty(len(number), line)
        for name, cell, index in zip(line.names, cells, (i, j, k)):
            piece[name] = cell.take(index[rows])
        piece[line.names[3]] = number.view("S16")[:, 0]
        yield piece.tobytes().translate(nul, b"\0").decode()


def _csv_rows(text: str, first_line: int = 1) -> list[tuple[int, list[str]]]:
    """Stripped cells of each CSV record, with the number of the line it ends
    on; the text, with LF line ends only, starts on line ``first_line``."""
    if "\0" in text:  # the csv module reads NUL from Python 3.11 on, rejects it before
        raise ParseError("line contains NUL", text.count("\n", 0, text.index("\0")) + first_line)
    reader = csv.reader(io.StringIO(text))
    offset = first_line - 1
    try:
        return [(reader.line_num + offset, list(map(str.strip, cells))) for cells in reader]
    except csv.Error as exc:  # e.g. a field beyond the csv module's size limit
        raise ParseError(str(exc), reader.line_num + offset) from None


def _lf_lines(text: str) -> str:
    """``text`` with CRLF and CR line ends turned into LF."""
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _split_blocks(rows: list[tuple[int, list[str]]]) -> list[list[tuple[int, list[str]]]]:
    return [list(run) for filled, run in itertools.groupby(rows, lambda row: any(row[1])) if filled]


def _parse_known_block(rows: list[tuple[int, list[str]]]) -> dict[str, float]:
    known: dict[str, float] = {}
    for idx, (line, cells) in enumerate(rows):
        if idx == 0 and [c.lower() for c in cells] == ["label", "priority"]:
            continue
        if len(cells) != 2:
            raise ParseError(f"known-priority row needs 'label,priority', got {len(cells)} cells", line)
        label, token = cells
        if not label:
            raise ParseError("empty label in known-priority row", line)
        if label in known:
            raise ParseError(f"duplicate known priority for {label!r}", line)
        known[label] = _known_priority(parse_value(token, line), label, token, line)
    return known


def _known_priority(value: Entry, label: str, given, line: int | None = None) -> float:
    """A parsed known priority ``value``, or the ParseError that names ``label``
    and shows the priority as ``given``, in CSV and JSON alike."""
    if value is MISSING:
        raise ParseError(f"known priority for {label!r} cannot be '?'", line)
    if value <= 0.0:
        raise ParseError(f"known priority for {label!r} must be positive, got {given!r}", line)
    return value


def parse_known(text: str) -> dict[str, float]:
    """Parse a standalone known-priorities file (CSV rows ``label,priority``,
    optional header)."""
    blocks = _split_blocks(_csv_rows(_lf_lines(text)))
    if not blocks:
        return {}
    if len(blocks) > 1:
        raise ParseError("known-priorities file must be a single block of rows")
    return _parse_known_block(blocks[0])


def _plain_grid(text: str) -> tuple[list[str], np.ndarray, str] | None:
    """The labels and grid of a plain decimal CSV matrix block, read by
    numpy's C reader, and the text after the blank line that ends the block;
    None unless the row path would read the same labels and grid.

    ``loadtxt`` converts with ``PyOS_string_to_double`` as ``float`` does,
    except that it rejects underscores and non-ASCII digits, and it strips the
    same whitespace as ``str.strip``.  So on text the csv reader splits on
    commas alone, a grid it reads with one NaN per ``?`` cell and no other
    non-finite value equals the one ``parse_value`` gives cell by cell.
    """
    header, _, body = text.partition("\n")
    labels = [cell.strip() for cell in header.split(",")[1:]]
    n = len(labels)
    lines = body.split("\n", n + 1)
    rows = lines[:n]
    if (
        not labels
        or not all(labels)  # also keeps a blank first line out
        or len(lines) > n and lines[n].replace(",", "").strip()  # a row after the last
        or '"' in text
        or "\0" in text
        or any("/" in row for row in rows)  # loadtxt rejects p/q: skip its work
        or max(map(len, [header, *rows])) > csv.field_size_limit()
    ):
        return None
    # A '?' that starts a cell becomes 'nan'; any other '?' fails to convert.
    mapped = [row.replace(",?", ",nan") for row in rows]
    missing = (sum(map(len, mapped)) - sum(map(len, rows))) // 2
    cells = [row.partition(",") for row in mapped]
    if [label.strip() for label, _, _ in cells] != labels or not all(rest for _, _, rest in cells):
        return None  # an empty line would be skipped by loadtxt
    try:
        grid = np.loadtxt([rest for _, _, rest in cells], delimiter=",", ndmin=2, comments=None)
    except ValueError:
        return None
    if grid.shape != (n, n) or np.isfinite(grid).sum() != n * n - missing:
        return None  # ragged rows, or a literal nan or inf
    return labels, grid, lines[n + 1] if len(lines) > n + 1 else ""


class _CellValues(dict):
    """The value of each distinct cell token: :func:`parse_value` runs at a
    token's first lookup, on the line set in ``line``, and never again."""

    line: int | None = None

    def __missing__(self, token: str) -> Entry:
        value = self[token] = parse_value(token, self.line)
        return value


def _parse_matrix_block(rows: list[tuple[int, list[str]]]) -> tuple[list[str], np.ndarray]:
    header_line, header = rows[0]
    if len(header) < 2:
        raise ParseError("header must be 'label,<label1>,...'", header_line)
    labels = header[1:]
    n = len(labels)
    data = rows[1:]
    if len(data) != n:
        raise ParseError(
            f"expected {n} matrix rows after the header, found {len(data)}", header_line
        )
    for i, (line, cells) in enumerate(data):
        if len(cells) != n + 1:
            raise ParseError(f"row needs {n + 1} cells, got {len(cells)}", line)
        if cells[0] != labels[i]:
            raise ParseError(
                f"row label {cells[0]!r} does not match header order (expected {labels[i]!r})",
                line,
            )
    # Row-major, so the first bad cell still raises first, with its line.
    values = _CellValues()
    cells_read: list[Entry] = []
    for line, cells in data:
        values.line = line
        cells_read.extend(map(values.__getitem__, cells[1:]))
    return labels, np.array(cells_read, dtype=float).reshape(n, n)  # None becomes NaN


def _parse_csv_problem(text: str) -> tuple[list[str], np.ndarray, dict[str, float]]:
    text = _lf_lines(text)
    plain = _plain_grid(text)
    if plain is None:
        blocks = _split_blocks(_csv_rows(text))
    else:
        labels, grid, rest = plain
        # The rest starts on the line after the header, the n rows and the blank.
        blocks = [[], *_split_blocks(_csv_rows(rest, len(labels) + 3))]
    if not blocks:
        raise ParseError("empty input")
    if len(blocks) > 2:
        raise ParseError("expected at most two blocks: the matrix and the known priorities")
    if plain is None:
        labels, grid = _parse_matrix_block(blocks[0])
    known = _parse_known_block(blocks[1]) if len(blocks) == 2 else {}
    return labels, grid, known


def _json_cell(cell, where: str) -> Entry:
    if isinstance(cell, str):
        try:
            return parse_value(cell)
        except ParseError as exc:
            raise ParseError(f"{where}: {exc}") from None
    if type(cell) is float:  # json.loads(..., parse_int=float) yields no int
        if not math.isfinite(cell):
            raise ParseError(f"{where}: value {cell!r} is not finite")
        return cell
    raise ParseError(f"{where}: expected a number, a fraction string, or \"?\", got {cell!r}")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise ParseError(f"repeated key {key!r} in a JSON object")
        obj[key] = value
    return obj


def _parse_json_problem(text: str) -> tuple[list[str], np.ndarray, dict[str, float]]:
    try:  # a huge integer is inf, not an OverflowError; a repeated key is an error
        obj = json.loads(text, parse_int=float, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno) from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    if not isinstance(obj, dict):
        raise ParseError("top-level JSON value must be an object")
    for key in obj:  # a misspelled 'known' must not vanish silently
        if key not in ("alternatives", "matrix", "known"):
            raise ParseError(f"unknown top-level key {key!r}; expected alternatives, matrix, known")
    labels = obj.get("alternatives")
    if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
        raise ParseError("'alternatives' must be an array of strings")
    grid = obj.get("matrix")
    if not isinstance(grid, list) or len(grid) != len(labels):
        raise ParseError(f"'matrix' must be an array of {len(labels)} rows")
    strings = _CellValues()  # keyed by strings alone: True would hit 1.0
    rows: list[list[Entry]] = []
    for i, raw in enumerate(grid):
        if not isinstance(raw, list) or len(raw) != len(labels):
            raise ParseError(f"matrix row {i} must be an array of {len(labels)} entries")
        # A finite float is kept as it is and each distinct string parsed once;
        # only the other cells go through _json_cell, which rejects a bool
        # although it equals a float.  After an error the row is read again
        # through _json_cell alone, which names the bad cell's place.
        try:
            rows.append([
                cell if type(cell) is float and math.isfinite(cell)
                else strings[cell] if type(cell) is str
                else _json_cell(cell, f"matrix[{i}][{j}]")
                for j, cell in enumerate(raw)
            ])
        except ParseError:
            rows.append([_json_cell(cell, f"matrix[{i}][{j}]") for j, cell in enumerate(raw)])
    grid = np.array(rows, dtype=float).reshape(len(labels), len(labels))  # None becomes NaN
    known_obj = obj.get("known", {})
    if not isinstance(known_obj, dict):
        raise ParseError("'known' must be an object mapping labels to priorities")
    known: dict[str, float] = {}
    for label, raw in known_obj.items():
        known[label] = _known_priority(_json_cell(raw, f"known[{label!r}]"), label, raw)
    return list(labels), grid, known


@np.errstate(over="ignore", divide="ignore")  # only positive and NaN cells are inverted
def _force_reciprocal(grid: np.ndarray) -> None:
    # Upper triangle is the source of truth: a missing or positive upper cell
    # sets the lower one (NaN inverts to NaN); any other is left for validation.
    i, j = np.triu_indices(len(grid), 1)
    upper = grid[i, j]
    grid[j, i] = np.where(np.isnan(upper) | (upper > 0.0), 1.0 / upper, grid[j, i])


def _canonicalize(labels: list[str], grid: np.ndarray, known: dict[str, float]) -> Problem:
    for label in labels:
        if not label:
            raise StructureError("alternative labels must be nonempty")
        try:  # a JSON escape such as \ud800, or an undecodable byte read from stdin
            label.encode()
        except UnicodeEncodeError:
            raise ParseError(f"alternative label {label!r} holds a lone surrogate") from None
    if len(set(labels)) != len(labels):
        dupes = sorted({l for l in labels if labels.count(l) > 1})
        raise StructureError(f"duplicate alternative labels: {dupes}")
    stray = sorted(set(known) - set(labels))
    if stray:
        raise StructureError(f"known priorities for undeclared alternatives: {stray}")
    perm = sorted(range(len(labels)), key=lambda i: labels[i] in known)  # unknowns first, stable
    order = tuple(labels[i] for i in perm)
    return Problem(
        labels=order,
        original_labels=tuple(labels),
        matrix=PCMatrix(grid.take(perm, 0).take(perm, 1)),
        known=tuple((label, known[label]) for label in order if label in known),
    )


def parse_problem(
    text: str,
    fmt: str = "csv",
    known_text: str | None = None,
    force_reciprocal: bool = False,
) -> Problem:
    """Parse a problem file, optionally merging a separate known-priorities
    file, and reorder alternatives into the solvers' convention.

    ``force_reciprocal`` rebuilds the lower triangle as the reciprocal of the
    upper before validation, repairing sloppy input; without it the file must
    carry both triangles (their mutual consistency is checked later by the
    reciprocity validator, not here, so diagnostic tools can still load and
    report on defective data).
    """
    if fmt == "csv":
        labels, grid, known = _parse_csv_problem(text)
    elif fmt == "json":
        labels, grid, known = _parse_json_problem(text)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if known_text is not None:
        separate = parse_known(known_text)
        if known and separate:
            raise ParseError(
                "known priorities given both inline and via a separate file; pick one"
            )
        known = known or separate
    if force_reciprocal:
        _force_reciprocal(grid)
    return _canonicalize(labels, grid, known)


def _json_cells(row: str, style: str = "decimal") -> list[str]:
    """The JSON text of each cell of a CSV row in ``style``: ``?`` and each
    fraction-style cell as a string, a ``%.12g`` token as ``json.dumps``
    writes its float: the token if it holds ``.`` or ``e``, else the token
    and ``.0``.  A row holding ``e+1`` (``repr`` writes e+12 to e+15 in
    full), ``e-3`` (12 digits need not pin a subnormal), ``nan`` or ``inf``
    goes through ``json.dumps`` token by token."""
    tokens = row.split(",") if row else []
    if style == "fraction":
        return [f'"{token}"' for token in tokens]
    if "e+1" in row or "e-3" in row or "n" in row:
        return ['"?"' if token == "?" else json.dumps(float(token)) for token in tokens]
    return [t if "." in t or "e" in t else '"?"' if t == "?" else t + ".0" for t in tokens]


def _json_layout(members: list[str], depth: int, brackets: str = "{}") -> str:
    """Encoded ``members`` (``"key": value`` for an object) laid out as
    ``json.dumps(..., indent=2)`` lays out an object or array at ``depth``."""
    if not members:
        return brackets
    pad = "\n" + "  " * (depth + 1)
    return brackets[0] + pad + ("," + pad).join(members) + pad[:-2] + brackets[1]


def _json_object(keys: Iterable[str], values: Iterable[str], depth: int) -> str:
    """The object of ``keys`` and encoded ``values``."""
    return _json_layout([f"{json.dumps(key)}: {value}" for key, value in zip(keys, values)], depth)


def _csv_text(rows: Iterable[Sequence[str]]) -> str:
    """``rows`` as the csv writer writes them, with LF line ends."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def serialize_ranking(
    labels: Sequence[str], values: Sequence[float], fmt: str = "csv"
) -> str:
    """Serialize label/priority pairs, 12 significant digits, LF newlines.

    CSV emits one ``label,priority`` row per alternative; JSON emits an
    object in the same order.
    """
    if len(labels) != len(values):
        raise StructureError(f"{len(labels)} labels but {len(values)} values")
    if len(set(labels)) != len(labels):
        raise StructureError(f"duplicate labels: {sorted({l for l in labels if labels.count(l) > 1})}")
    if fmt == "csv":
        return _csv_text([(label, f"{value:.12g}") for label, value in zip(labels, values)])
    if fmt == "json":
        cells = _json_cells(",".join([f"{value:.12g}" for value in values]))
        return _json_object(labels, cells, 0) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def serialize_table(
    labels: Sequence[str], columns: dict[str, Sequence[float]], fmt: str = "csv"
) -> str:
    """Serialize named value columns side by side, 12 significant digits: a
    ``label,<name>,...`` CSV table, or JSON ``{name: {label: value}}``."""
    for name, values in columns.items():
        if len(values) != len(labels):
            raise StructureError(f"column {name!r}: {len(labels)} labels but {len(values)} values")
    if len(set(labels)) != len(labels):
        raise StructureError(f"duplicate labels: {sorted({l for l in labels if labels.count(l) > 1})}")
    cells = {name: [f"{value:.12g}" for value in values] for name, values in columns.items()}
    if fmt == "csv":
        return _csv_text([("label", *cells), *zip(labels, *cells.values())])
    if fmt == "json":
        tables = [_json_object(labels, _json_cells(",".join(col)), 1) for col in cells.values()]
        return _json_object(cells, tables, 0) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def serialize_problem(problem: Problem, fmt: str = "csv", number_style: str = "decimal") -> str:
    """Serialize a problem back to text, in the original label order."""
    format_value(1.0, number_style)  # an unknown style raises before any text is built
    labels = problem.original_labels
    order = problem.file_order
    array = problem.matrix.array[np.ix_(order, order)]
    known = dict(problem.known)
    known_labels = [label for label in labels if label in known]
    known_cells = [format_value(known[label], number_style) for label in known_labels]
    if number_style == "decimal":
        if array.size < _BULK_CELLS:
            cells = (",".join(["%.12g"] * len(labels)) + "\n") * len(labels)
            text = cells % tuple(array.ravel().tolist())
        else:
            text = _g_lines(array.ravel(), 12, len(labels))
        rows = text.replace("nan", "?").split("\n")[:-1]  # numbers only: "nan" is NaN
    else:
        rows = [
            ",".join(["?" if math.isnan(v) else format_value(v, "fraction") for v in row])
            for row in array.tolist()
        ]
    if fmt == "json":
        matrix = [_json_layout(_json_cells(row, number_style), 2, "[]") for row in rows]
        members = [
            '"alternatives": ' + _json_layout(list(map(json.dumps, labels)), 1, "[]"),
            '"matrix": ' + _json_layout(matrix, 1, "[]"),
        ]
        if known:
            cells = _json_cells(",".join(known_cells), number_style)
            members.append('"known": ' + _json_object(known_labels, cells, 1))
        return _json_layout(members, 0) + "\n"
    if fmt == "csv":
        # Numbers and '?' never need quoting; only the label may, as in a row.
        fields = [_csv_text([(label, "")])[:-2] for label in labels]
        body = "".join([f"{field},{row}\n" for field, row in zip(fields, rows)])
        tail = [(), ("label", "priority"), *zip(known_labels, known_cells)] if known else []
        return _csv_text([("label", *labels)]) + body + _csv_text(tail)
    raise ValueError(f"unknown format {fmt!r}")
