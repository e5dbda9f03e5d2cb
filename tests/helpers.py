"""Shared instance generators and independent oracles.

Everything here is deliberately written from the definitions (ratio
construction, breadth-first reachability, direct evaluation of the averaging
and product identities) rather than through the library's own machinery, so
tests cross-check the implementation instead of echoing it.

The ``*_loops`` functions and :func:`eliminate` keep the cell-by-cell Python
versions of the systems, the solver and the triad scan that the library now
computes with array operations; tests require the two to agree.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
from hypothesis import strategies as st

from pcrank import MISSING, PCMatrix, Partition

Rows = list[list[float | None]]


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
        defined = [j for j in range(matrix.n) if j != i and matrix.defined(i, j)]
        mean = sum(matrix.value(i, j) * values[j] for j in defined) / len(defined)
        worst = max(worst, abs(values[i] - mean) / abs(values[i]))
    return worst


def geometric_residual(matrix: PCMatrix, k: int, values) -> float:
    """Worst relative violation of the product identity
    w_i ** (#defined) = prod(c_ij * w_j over defined j != i)."""
    worst = 0.0
    for i in range(k):
        defined = [j for j in range(matrix.n) if j != i and matrix.defined(i, j)]
        lhs = values[i] ** len(defined)
        rhs = 1.0
        for j in defined:
            rhs *= matrix.value(i, j) * values[j]
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
        denom = float(sum(1 for j in range(n) if j != i and matrix.defined(i, j)))
        coeff[i, i] = 1.0
        for j in range(k):
            if j != i and matrix.defined(i, j):
                coeff[i, j] = -(matrix.value(i, j) / denom)
        acc = 0.0
        for j in range(k, n):
            if matrix.defined(i, j):
                acc += matrix.value(i, j) * partition.known[j - k]
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
            if j == i or not matrix.defined(i, j):
                continue
            coeff[i, i] += 1.0
            if j < k:
                coeff[i, j] = -1.0
                acc += math.log(matrix.value(i, j))
            else:
                acc += math.log(matrix.value(i, j) * partition.known[j - k])
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
        if not (matrix.defined(i, j) and matrix.defined(i, k) and matrix.defined(k, j)):
            continue
        direct = matrix.value(i, j)
        deviation = abs(direct - matrix.value(i, k) * matrix.value(k, j)) / direct
        if deviation > tol:
            out.append((i, j, k, deviation))
    return out
