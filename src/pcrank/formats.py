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
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ParseError, StructureError
from .matrix import MISSING, Entry, PCMatrix, Partition

_FRACTION = re.compile(r"(\d+)\s*/\s*(\d+)")


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
        if not self.known:
            raise StructureError(
                "no known priorities declared; ranking needs at least one fixed alternative"
            )
        if self.k == 0:
            raise StructureError(
                "every alternative already has a known priority; nothing to compute"
            )
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
    match = _FRACTION.fullmatch(text)
    if match:
        try:
            p, q = int(match.group(1)), int(match.group(2))
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


def format_value(value: float, style: str = "decimal") -> str:
    """Render a value with 12 significant digits, or as ``p/q`` when the
    fraction style is selected and the value is (up to rounding) a ratio of
    small integers."""
    if style == "fraction":
        frac = Fraction(value).limit_denominator(9999)
        if frac > 0 and abs(float(frac) - value) <= 1e-12 * max(1.0, abs(value)):
            if frac.denominator == 1:
                return str(frac.numerator)
            return f"{frac.numerator}/{frac.denominator}"
    elif style != "decimal":
        raise ValueError(f"unknown number style {style!r}")
    return f"{value:.12g}"


def _csv_rows(text: str) -> list[tuple[int, list[str]]]:
    normalized = text.replace("\r\n", "\n").replace("\r", "\n")
    reader = csv.reader(io.StringIO(normalized))
    try:
        return [(reader.line_num, list(map(str.strip, cells))) for cells in reader]
    except csv.Error as exc:  # e.g. a field beyond the csv module's size limit
        raise ParseError(str(exc), reader.line_num) from None


def _split_blocks(rows: list[tuple[int, list[str]]]) -> list[list[tuple[int, list[str]]]]:
    blocks: list[list[tuple[int, list[str]]]] = [[]]
    for line, cells in rows:
        if not any(cells):
            if blocks[-1]:
                blocks.append([])
            continue
        blocks[-1].append((line, cells))
    if blocks and not blocks[-1]:
        blocks.pop()
    return blocks


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
        value = parse_value(token, line)
        if value is MISSING:
            raise ParseError("known priority cannot be '?'", line)
        if value <= 0.0:
            raise ParseError(f"known priority for {label!r} must be positive, got {token!r}", line)
        known[label] = value
    return known


def parse_known(text: str) -> dict[str, float]:
    """Parse a standalone known-priorities file (CSV rows ``label,priority``,
    optional header)."""
    blocks = _split_blocks(_csv_rows(text))
    if not blocks:
        return {}
    if len(blocks) > 1:
        raise ParseError("known-priorities file must be a single block of rows")
    return _parse_known_block(blocks[0])


def _parse_csv_problem(text: str) -> tuple[list[str], np.ndarray, dict[str, float]]:
    blocks = _split_blocks(_csv_rows(text))
    if not blocks:
        raise ParseError("empty input")
    if len(blocks) > 2:
        raise ParseError("expected at most two blocks: the matrix and the known priorities")
    matrix_rows = blocks[0]
    header_line, header = matrix_rows[0]
    if len(header) < 2:
        raise ParseError("header must be 'label,<label1>,...'", header_line)
    labels = header[1:]
    n = len(labels)
    data = matrix_rows[1:]
    if len(data) != n:
        raise ParseError(
            f"expected {n} matrix rows after the header, found {len(data)}", header_line
        )
    grid = np.empty((n, n))
    for i, (line, cells) in enumerate(data):
        if len(cells) != n + 1:
            raise ParseError(f"row needs {n + 1} cells, got {len(cells)}", line)
        if cells[0] != labels[i]:
            raise ParseError(
                f"row label {cells[0]!r} does not match header order (expected {labels[i]!r})",
                line,
            )
        # float reads tokens without '/' as parse_value does; a row it cannot
        # read exactly so goes through parse_value (None becomes NaN).
        tokens = cells[1:]
        try:
            grid[i] = [math.nan if token == "?" else float(token) for token in tokens]
            exact = np.isfinite(grid[i]).sum() == n - tokens.count("?")
        except ValueError:
            exact = False
        if not exact:
            grid[i] = [parse_value(token, line) for token in tokens]
    known = _parse_known_block(blocks[1]) if len(blocks) == 2 else {}
    return labels, grid, known


def _json_cell(cell, where: str) -> Entry:
    if isinstance(cell, bool) or cell is None:
        raise ParseError(f"{where}: expected a number, a fraction string, or \"?\", got {cell!r}")
    if isinstance(cell, (int, float)):
        value = float(cell)
        if not math.isfinite(value):
            raise ParseError(f"{where}: value {cell!r} is not finite")
        return value
    if isinstance(cell, str):
        return parse_value(cell)
    raise ParseError(f"{where}: expected a number, a fraction string, or \"?\", got {cell!r}")


def _parse_json_problem(text: str) -> tuple[list[str], np.ndarray, dict[str, float]]:
    try:
        obj = json.loads(text, parse_int=float)  # a huge integer is inf, not an OverflowError
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno) from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    if not isinstance(obj, dict):
        raise ParseError("top-level JSON value must be an object")
    labels = obj.get("alternatives")
    if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
        raise ParseError("'alternatives' must be an array of strings")
    grid = obj.get("matrix")
    if not isinstance(grid, list) or len(grid) != len(labels):
        raise ParseError(f"'matrix' must be an array of {len(labels)} rows")
    rows: list[list[Entry]] = []
    for i, raw in enumerate(grid):
        if not isinstance(raw, list) or len(raw) != len(labels):
            raise ParseError(f"matrix row {i} must be an array of {len(labels)} entries")
        rows.append([_json_cell(cell, f"matrix[{i}][{j}]") for j, cell in enumerate(raw)])
    grid = np.array(rows, dtype=float).reshape(len(labels), len(labels))  # None becomes NaN
    known_obj = obj.get("known", {})
    if not isinstance(known_obj, dict):
        raise ParseError("'known' must be an object mapping labels to priorities")
    known: dict[str, float] = {}
    for label, raw in known_obj.items():
        value = _json_cell(raw, f"known[{label!r}]")
        if value is MISSING or value <= 0.0:
            raise StructureError(f"known priority for {label!r} must be positive, got {raw!r}")
        known[label] = value
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
    if len(set(labels)) != len(labels):
        dupes = sorted({l for l in labels if labels.count(l) > 1})
        raise StructureError(f"duplicate alternative labels: {dupes}")
    stray = sorted(set(known) - set(labels))
    if stray:
        raise StructureError(f"known priorities for undeclared alternatives: {stray}")
    unknown_labels = [l for l in labels if l not in known]
    known_labels = [l for l in labels if l in known]
    order = unknown_labels + known_labels
    index = {label: idx for idx, label in enumerate(labels)}
    perm = [index[label] for label in order]
    return Problem(
        labels=tuple(order),
        original_labels=tuple(labels),
        matrix=PCMatrix(grid[np.ix_(perm, perm)]),
        known=tuple((label, known[label]) for label in known_labels),
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


def serialize_ranking(
    labels: Sequence[str], values: Sequence[float], fmt: str = "csv"
) -> str:
    """Serialize label/priority pairs, 12 significant digits, LF newlines.

    CSV emits one ``label,priority`` row per alternative; JSON emits an
    object in the same order.
    """
    if len(labels) != len(values):
        raise StructureError(f"{len(labels)} labels but {len(values)} values")
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        for label, value in zip(labels, values):
            writer.writerow([label, f"{value:.12g}"])
        return out.getvalue()
    if fmt == "json":
        obj = {label: float(f"{value:.12g}") for label, value in zip(labels, values)}
        return json.dumps(obj, indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def serialize_table(
    labels: Sequence[str], columns: dict[str, Sequence[float]], fmt: str = "csv"
) -> str:
    """Serialize named value columns side by side, 12 significant digits: a
    ``label,<name>,...`` CSV table, or JSON ``{name: {label: value}}``."""
    cells = {name: [f"{value:.12g}" for value in values] for name, values in columns.items()}
    if fmt == "csv":
        out = io.StringIO()
        rows = [("label", *cells), *zip(labels, *cells.values())]
        csv.writer(out, lineterminator="\n").writerows(rows)
        return out.getvalue()
    if fmt == "json":
        obj = {name: dict(zip(labels, map(float, col))) for name, col in cells.items()}
        return json.dumps(obj, indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def _csv_field(text: str) -> str:
    """``text`` as the csv writer renders it inside a row."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow([text, ""])
    return out.getvalue()[:-2]


def serialize_problem(problem: Problem, fmt: str = "csv", number_style: str = "decimal") -> str:
    """Serialize a problem back to text, in the original label order."""
    labels = problem.original_labels
    order = problem.file_order
    grid = problem.matrix.array[np.ix_(order, order)].tolist()
    known = dict(problem.known)

    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["label", *labels])
        decimal = number_style == "decimal"
        for label, row in zip(labels, grid):
            # Numbers and '?' never need quoting; only the label may.
            cells = [
                "?" if math.isnan(v) else f"{v:.12g}" if decimal else format_value(v, number_style)
                for v in row
            ]
            out.write(_csv_field(label) + "," + ",".join(cells) + "\n")
        if known:
            writer.writerow([])
            writer.writerow(["label", "priority"])
            for label in labels:
                if label in known:
                    writer.writerow([label, format_value(known[label], number_style)])
        return out.getvalue()
    if fmt == "json":
        def json_cell(value: float):
            if math.isnan(value):
                return "?"
            if number_style == "fraction":
                return format_value(value, "fraction")
            return float(f"{value:.12g}")

        obj = {
            "alternatives": list(labels),
            "matrix": [[json_cell(value) for value in row] for row in grid],
        }
        if known:
            obj["known"] = {
                label: float(f"{known[label]:.12g}") for label in labels if label in known
            }
        return json.dumps(obj, indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
