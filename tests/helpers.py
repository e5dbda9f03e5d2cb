"""Shared instance generators and independent oracles.

Everything here is deliberately written from the definitions (ratio
construction, breadth-first reachability, direct evaluation of the averaging
and product identities) rather than through the library's own machinery, so
tests cross-check the implementation instead of echoing it.

The ``*_loops`` functions, :func:`eliminate`, :func:`parse_problem_cells`,
:func:`json_grid_cells` and :func:`serialize_problem_cells` keep the
cell-by-cell Python versions of the systems, the solver, the triad scan,
the input checks, parsing and serializing that the library now computes
with array operations; :func:`parse_value_regex` keeps the regular-expression
grammar of a cell, and :func:`split_blocks_loop` the blank-row state machine
that split a CSV file into blocks.  Tests require the two to agree.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from itertools import combinations

import numpy as np
from hypothesis import strategies as st

from pcrank import (
    MISSING,
    PCMatrix,
    Partition,
    ParseError,
    PcrankError,
    Problem,
    check_connectivity,
    format_value,
    formats,
    undefined_counts,
    validate_reciprocity,
)

Rows = list[list[float | None]]


def entry_at(matrix: PCMatrix, i: int, j: int) -> float | None:
    """Cell (i, j) of the matrix, or MISSING: one cell, for the loops here."""
    return matrix.entries[i][j]


def is_defined(matrix: PCMatrix, i: int, j: int) -> bool:
    return bool(matrix.mask[i, j])


def ratio_rows(v) -> Rows:
    """Fully consistent comparison grid c_ij = v_i / v_j."""
    return [[float(a) / float(b) for b in v] for a in v]


def perturbed_rows(v, rng, lo: float = 0.5, hi: float = 2.0) -> Rows:
    """Reciprocal but inconsistent grid: each upper-triangle ratio gets an
    independent multiplicative nudge from [lo, hi], mirrored exactly below."""
    rows = ratio_rows(v)
    n = len(rows)
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] *= float(rng.uniform(lo, hi))
            rows[j][i] = 1.0 / rows[i][j]
    return rows


def unknowns_reach_knowns(rows: Rows, k: int) -> bool:
    """Breadth-first reachability oracle over defined comparisons."""
    n = len(rows)
    seen = set(range(k, n))
    frontier = list(seen)
    while frontier:
        u = frontier.pop()
        for w in range(n):
            if w != u and w not in seen and rows[u][w] is not MISSING:
                seen.add(w)
                frontier.append(w)
    return all(i in seen for i in range(k))


def drop_pairs(rows: Rows, k: int, rng, max_density: float = 0.4) -> Rows:
    """Blank out random symmetric pairs without stranding any unknown.

    Candidate pairs are tried in random order up to a random target density;
    a drop that would leave some unknown unable to reach a known alternative
    is rolled back.
    """
    n = len(rows)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    order = rng.permutation(len(pairs))
    target = int(round(float(rng.uniform(0.0, max_density)) * len(pairs)))
    dropped = 0
    for idx in order:
        if dropped == target:
            break
        i, j = pairs[idx]
        keep_i, keep_j = rows[i][j], rows[j][i]
        rows[i][j] = rows[j][i] = MISSING
        if unknowns_reach_knowns(rows, k):
            dropped += 1
        else:
            rows[i][j], rows[j][i] = keep_i, keep_j
    return rows


def random_instance(
    rng,
    n: int | None = None,
    k: int | None = None,
    consistent: bool = False,
    incomplete: bool = True,
    max_density: float = 0.4,
):
    """A solvable random instance; returns (matrix, partition, generating v)."""
    if n is None:
        n = int(rng.integers(4, 11))
    if k is None:
        k = int(rng.integers(1, n))
    v = rng.uniform(0.2, 5.0, size=n)
    rows = ratio_rows(v) if consistent else perturbed_rows(v, rng)
    if incomplete:
        rows = drop_pairs(rows, k, rng, max_density)
    matrix = PCMatrix(tuple(tuple(row) for row in rows))
    partition = Partition(k, tuple(float(x) for x in v[k:]))
    return matrix, partition, v


def arithmetic_residual(matrix: PCMatrix, k: int, values) -> float:
    """Worst relative violation of the averaging identity
    w_i = mean(c_ij * w_j over defined j != i), for the unknown rows."""
    worst = 0.0
    for i in range(k):
        defined = [j for j in range(matrix.n) if j != i and is_defined(matrix, i, j)]
        mean = sum(entry_at(matrix, i, j) * values[j] for j in defined) / len(defined)
        worst = max(worst, abs(values[i] - mean) / abs(values[i]))
    return worst


def geometric_residual(matrix: PCMatrix, k: int, values) -> float:
    """Worst relative violation of the product identity
    w_i ** (#defined) = prod(c_ij * w_j over defined j != i)."""
    worst = 0.0
    for i in range(k):
        defined = [j for j in range(matrix.n) if j != i and is_defined(matrix, i, j)]
        lhs = values[i] ** len(defined)
        rhs = 1.0
        for j in defined:
            rhs *= entry_at(matrix, i, j) * values[j]
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
    return worst


def max_rel_diff(a, b) -> float:
    return max(abs(x - y) / max(abs(x), abs(y)) for x, y in zip(a, b))


def rows_to_matrix(rows: Rows) -> PCMatrix:
    return PCMatrix(tuple(tuple(row) for row in rows))


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


@st.composite
def instances(draw, max_n: int = 9, consistent: bool = False):
    """Hypothesis strategy for :func:`random_instance`: (matrix, partition, v)."""
    n = draw(st.integers(min_value=3, max_value=max_n))
    k = draw(st.integers(min_value=1, max_value=n - 1))
    rng = rng_for(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return random_instance(rng, n=n, k=k, consistent=consistent, max_density=0.5)


def arithmetic_system_loops(matrix: PCMatrix, partition: Partition):
    """Reference arithmetic system (coeff, constants), one cell at a time."""
    n, k = matrix.n, partition.k
    coeff = np.zeros((k, k))
    constants = np.zeros(k)
    for i in range(k):
        denom = float(sum(1 for j in range(n) if j != i and is_defined(matrix, i, j)))
        coeff[i, i] = 1.0
        for j in range(k):
            if j != i and is_defined(matrix, i, j):
                coeff[i, j] = -(entry_at(matrix, i, j) / denom)
        acc = 0.0
        for j in range(k, n):
            if is_defined(matrix, i, j):
                acc += entry_at(matrix, i, j) * partition.known[j - k]
        constants[i] = acc / denom
    return coeff, constants


def geometric_system_loops(matrix: PCMatrix, partition: Partition, log_base: float = math.e):
    """Reference geometric system (coeff, constants), one cell at a time,
    taking ``log(c_ij * w_j)`` toward the knowns."""
    n, k = matrix.n, partition.k
    coeff = np.zeros((k, k))
    constants = np.zeros(k)
    for i in range(k):
        acc = 0.0
        for j in range(n):
            if j == i or not is_defined(matrix, i, j):
                continue
            coeff[i, i] += 1.0
            if j < k:
                coeff[i, j] = -1.0
                acc += math.log(entry_at(matrix, i, j))
            else:
                acc += math.log(entry_at(matrix, i, j) * partition.known[j - k])
        constants[i] = acc / math.log(log_base)
    return coeff, constants


def eliminate(matrix, rhs) -> np.ndarray:
    """Reference solver: Gaussian elimination with partial pivoting, one row
    operation at a time, then back substitution."""
    a = np.array(matrix, dtype=float)
    b = np.array(rhs, dtype=float)
    n = len(b)
    for col in range(n):
        p = col + int(np.argmax(np.abs(a[col:, col])))
        if p != col:
            a[[col, p]] = a[[p, col]]
            b[[col, p]] = b[[p, col]]
        for r in range(col + 1, n):
            factor = a[r, col] / a[col, col]
            if factor != 0.0:
                a[r, col:] -= factor * a[col, col:]
                b[r] -= factor * b[col]
    x = np.empty(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x


def triad_deviations_loops(matrix: PCMatrix, tol: float):
    """Reference triad scan: (i, j, k, deviation) for every fully defined
    triple i < j < k whose |c_ij - c_ik * c_kj| / c_ij exceeds ``tol``."""
    out = []
    for i, j, k in combinations(range(matrix.n), 3):
        if not (is_defined(matrix, i, j) and is_defined(matrix, i, k) and is_defined(matrix, k, j)):
            continue
        direct = entry_at(matrix, i, j)
        deviation = abs(direct - entry_at(matrix, i, k) * entry_at(matrix, k, j)) / direct
        if deviation > tol:
            out.append((i, j, k, deviation))
    return out


def check_report_rows(problem: Problem, tol: float) -> tuple[str, int]:
    """Reference ``pcrank check`` report (stdout, exit code): one formatted
    line per finding, with the triads from :func:`triad_deviations_loops`."""
    matrix, labels = problem.matrix, problem.labels
    lines = [
        f"alternatives: {problem.n} ({problem.n - len(problem.known)} unknown, "
        f"{len(problem.known)} known)"
    ]
    violations = validate_reciprocity(matrix, tol)
    lines.append(f"reciprocity violations: {len(violations)}")
    for i, j, value, mirror in violations:
        lines.append(
            f"  {labels[i]} vs {labels[j]}: {value:.12g} * {mirror:.12g} = {value * mirror:.12g}"
        )
    counts = ", ".join(f"{labels[i]}={c}" for i, c in enumerate(undefined_counts(matrix)))
    lines.append(f"undefined comparisons per row: {counts}")
    try:
        ok, isolated = check_connectivity(matrix, problem.partition)
    except PcrankError as exc:  # no known or no unknown alternative
        ok = False
        lines.append(f"connectivity: FAILED ({exc})")
    else:
        if ok:
            lines.append("connectivity: ok")
        else:
            names = ", ".join(labels[i] for i in isolated)
            lines.append(f"connectivity: FAILED (unknowns not reaching any known: {names})")
    triads = triad_deviations_loops(matrix, tol)
    lines.append(f"triad deviations above tol {tol:g}: {len(triads)}")
    for i, j, k, deviation in triads:
        lines.append(f"  ({labels[i]}, {labels[j]}, {labels[k]}): deviation {deviation:.6g}")
    clean = not violations and not triads and ok is not False
    return "\n".join(lines) + "\n", 0 if clean else 1


def pcmatrix_error_loops(rows: Rows) -> str | None:
    """Reference construction check of nested rows: the message of the first
    bad cell in row-major order (a diagonal cell must be 1, any other present
    cell positive and finite), else of the first pair i < j in row-major order
    with exactly one cell missing, else None."""
    n = len(rows)
    for i in range(n):
        for j in range(n):
            v = rows[i][j]
            if i == j and v is MISSING:
                return f"diagonal entry ({i},{i}) cannot be missing"
            if v is not MISSING and not (math.isfinite(v) and v > 0.0):
                return f"entry ({i},{j}) must be a positive finite number, got {v!r}"
            if i == j and v != 1.0:
                return f"diagonal entry ({i},{i}) must be 1, got {v!r}"
    for i in range(n):
        for j in range(i + 1, n):
            if (rows[i][j] is MISSING) != (rows[j][i] is MISSING):
                return f"asymmetric missingness: exactly one of ({i},{j}) and ({j},{i}) is missing"
    return None


_FRACTION = re.compile(r"(\d+)\s*/\s*(\d+)")


def parse_value_regex(token: str, line: int | None = None):
    """Reference cell parser: a fraction is whatever ``(\\d+)\\s*/\\s*(\\d+)``
    matches in full after stripping; the rest as in ``parse_value``."""
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
        except (ValueError, OverflowError):
            raise ParseError(f"fraction {text!r} is out of range", line) from None
        raise ParseError(f"fraction {text!r} must have positive numerator and denominator", line)
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"cannot parse value {text!r}", line) from None
    if not math.isfinite(value):
        raise ParseError(f"value {text!r} is not finite", line)
    return value


def split_blocks_loop(rows: list[tuple[int, list[str]]]) -> list[list[tuple[int, list[str]]]]:
    """Reference block split of ``(line, cells)`` rows: a row with no
    nonempty cell ends the block before it, and blocks are never empty."""
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


def json_grid_cells(grid, n: int) -> Rows:
    """Reference read of a JSON matrix: row by row, each row's shape checked
    before its cells, and every cell through ``_json_cell`` with its place."""
    rows = []
    for i, row in enumerate(grid):
        if not isinstance(row, list) or len(row) != n:
            raise formats.ParseError(f"matrix row {i} must be an array of {n} entries")
        rows.append([formats._json_cell(cell, f"matrix[{i}][{j}]") for j, cell in enumerate(row)])
    return rows


def parse_problem_cells(text: str, fmt: str = "csv", force_reciprocal: bool = False) -> Problem:
    """Reference parse of a valid problem: every cell through ``parse_value``
    (or :func:`json_grid_cells`), the reciprocal rebuilt pair by pair, and the
    canonical permutation taken as tuples of cells."""
    if fmt == "csv":
        blocks = formats._split_blocks(formats._csv_rows(text))
        labels = blocks[0][0][1][1:]
        rows = [
            [formats.parse_value(token, line) for token in cells[1:]]
            for line, cells in blocks[0][1:]
        ]
        known = formats._parse_known_block(blocks[1]) if len(blocks) == 2 else {}
    else:
        obj = json.loads(text)
        labels = obj["alternatives"]
        rows = json_grid_cells(obj["matrix"], len(labels))
        known = {label: formats._json_cell(raw, "") for label, raw in obj.get("known", {}).items()}
    if force_reciprocal:
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                upper = rows[i][j]
                if upper is MISSING:
                    rows[j][i] = MISSING
                elif upper > 0.0:
                    rows[j][i] = 1.0 / upper
    order = [label for label in labels if label not in known]
    order += [label for label in labels if label in known]
    index = {label: idx for idx, label in enumerate(labels)}
    return Problem(
        labels=tuple(order),
        original_labels=tuple(labels),
        matrix=PCMatrix(tuple(tuple(rows[index[a]][index[b]] for b in order) for a in order)),
        known=tuple((label, known[label]) for label in order if label in known),
    )


def serialize_problem_cells(problem: Problem, fmt: str = "csv", number_style: str = "decimal") -> str:
    """Reference serializer: each cell looked up by label pair through
    ``matrix.value`` and every CSV row written by the csv writer."""
    labels = problem.original_labels
    position = {label: idx for idx, label in enumerate(problem.labels)}
    known = dict(problem.known)

    def cell(a: str, b: str):
        return entry_at(problem.matrix, position[a], position[b])

    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["label", *labels])
        for a in labels:
            writer.writerow(
                [a]
                + [
                    "?" if cell(a, b) is MISSING else format_value(cell(a, b), number_style)
                    for b in labels
                ]
            )
        if known:
            writer.writerow([])
            writer.writerow(["label", "priority"])
            for label in labels:
                if label in known:
                    writer.writerow([label, format_value(known[label], number_style)])
        return out.getvalue()

    def json_value(value):
        if value is MISSING:
            return "?"
        if number_style == "fraction":
            return format_value(value, "fraction")
        return float(f"{value:.12g}")

    obj = {
        "alternatives": list(labels),
        "matrix": [[json_value(cell(a, b)) for b in labels] for a in labels],
    }
    if known:
        obj["known"] = {label: json_value(known[label]) for label in labels if label in known}
    return json.dumps(obj, indent=2) + "\n"


# Tokens on which numpy's C reader and ``parse_value`` might disagree, and
# extreme magnitudes; the plain grids of :func:`problem_texts` now and then
# hold one.
ODD_TOKENS = [
    "1_0", "0x10", "+inf", "inf", "-inf", "nan", "NaN", "-nan", " 1.5 ", "\xa01.5\xa0",
    "\u0661\u0662", "1e400", "1e-400", "-0", "2#x", "-?", "+?", " ?", "? ", "?1", "\u20281",
    "1\x00", "5e-324", "1e-300", "1e300",
]


@st.composite
def problem_texts(draw, max_label: int = 4, plain: bool = False):
    """Hypothesis strategy for problem files: (text, fmt, force_reciprocal).

    Cells are decimals or ``p/q`` fractions, drawn independently for the two
    triangles (so reciprocity is left to the validators), now and then a
    nonpositive one.  ``?`` pairs are symmetric unless the lower triangle is
    to be rebuilt, when its cells are drawn on their own.  Labels may need
    CSV quoting and have 1 to ``max_label`` characters; a random subset is
    known.

    ``plain`` draws the CSV files numpy's C reader takes: decimal cells only,
    labels that need no quoting (``?`` may sit inside one), LF or CRLF line
    ends, and a blank or ``,,,`` line before the known block.  One grid in
    three also holds a few of :data:`ODD_TOKENS`.
    """
    n = draw(st.integers(min_value=1, max_value=7))
    alphabet = "ab? é-" if plain else 'ab,"\' é\n'
    label = st.text(alphabet=alphabet, min_size=1, max_size=max_label)
    label = label.filter(lambda t: t == t.strip())
    labels = draw(st.lists(label, min_size=n, max_size=n, unique=True))
    fmt = "csv" if plain else draw(st.sampled_from(["csv", "json"]))
    force_reciprocal = draw(st.booleans())
    decimal = st.builds(lambda v, p: f"{v:.{p}g}", st.floats(1e-4, 1e4), st.integers(1, 17))
    fraction = st.tuples(st.integers(1, 40), st.integers(1, 40), st.sampled_from(["/", " / "]))
    fraction = fraction.map(lambda t: f"{t[0]}{t[2]}{t[1]}")
    value = decimal if plain else st.one_of(decimal, fraction)
    cell = st.one_of(value, st.just("?"))
    if draw(st.integers(0, 9)) == 0:
        cell = st.one_of(cell, st.sampled_from(["0", "-2"]))
    if plain and draw(st.integers(0, 2)) == 0:
        cell = st.one_of(cell, st.sampled_from(ODD_TOKENS))
    grid = [["1"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            grid[i][j] = draw(cell)
            if force_reciprocal:
                grid[j][i] = draw(cell)
            else:
                grid[j][i] = "?" if grid[i][j] == "?" else draw(cell.filter(lambda t: t != "?"))
    known = {lab: draw(value) for lab in labels if draw(st.booleans())}
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["label", *labels])
        writer.writerows([lab, *row] for lab, row in zip(labels, grid))
        if known:
            out.write(",,,\n" if plain and draw(st.booleans()) else "\n")
            writer.writerows(known.items())
        text = out.getvalue()
        if plain and draw(st.booleans()):
            text = text.replace("\n", "\r\n")
    else:
        def json_cell(token: str):
            return token if "/" in token or token == "?" else float(token)

        obj = {"alternatives": labels, "matrix": [[json_cell(t) for t in row] for row in grid]}
        obj["known"] = {lab: json_cell(token) for lab, token in known.items()}
        text = json.dumps(obj)
    return text, fmt, force_reciprocal
