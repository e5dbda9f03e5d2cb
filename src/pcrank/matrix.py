"""Pairwise-comparison matrices, known/unknown partitions, and validation.

A comparison matrix records how many times alternative ``i`` is preferred
over alternative ``j``.  Pairs the experts never judged hold the sentinel
:data:`MISSING` (plain ``None``); missingness is always symmetric, so a
matrix either has both ``(i, j)`` and ``(j, i)`` or neither.  Zero is
rejected outright, and so is NaN in nested rows: an absent judgment and a
corrupt one are different problems.  In the array form NaN is the missing
cell itself.

The solvers split the alternatives into a leading block of ``k`` unknowns
(priorities to be computed) and a trailing block of knowns (priorities fixed
up front).  Both methods need what :func:`ensure_solvable` checks, so it runs
once per input, then ``build_*_system`` assembles and ``.ranking`` solves
(``solve_*`` does all three).  Everything here is immutable and side-effect
free, so instances can be shared freely across threads.

Indices are 0-based, unknowns first.  The CLI's ``check`` report names labels,
but every CLI error message prints these indices as they are.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from .errors import (
    DegenerateRowError,
    KnownComparisonWarning,
    NotConnectedError,
    ReciprocityError,
    SingularMatrixError,
    StructureError,
)

#: Sentinel for an absent comparison.  Kept distinct from 0/NaN so that
#: validation can tell "not compared" from "bad data".
MISSING = None

#: Default relative tolerance separating floating-point noise from real
#: reciprocity/consistency violations in human-scale judgment data.
DEFAULT_TOL = 1e-9

Entry = float | None


class ReciprocityViolation(NamedTuple):
    i: int
    j: int
    value: float   # c[i][j]
    mirror: float  # c[j][i]


class TriadDeviation(NamedTuple):
    i: int
    j: int
    k: int
    deviation: float  # |c_ij - c_ik * c_kj| / c_ij


class PCMatrix:
    """Square grid of positive comparison values with explicit missing cells.

    Built from one of two forms.  A 2-D int, uint or float array with NaN in
    absent cells is copied as ``float64`` in C order; any other dtype (object,
    text, bool, dates, complex) is rejected, so convert an object array with
    ``.astype(float)`` first.  Nested rows are sequences of cells, not text;
    a cell is a number, a numeric string or :data:`MISSING` (NaN and bools
    are rejected).  The diagonal is fixed at 1.  Every pass reads ``array``
    (read-only ``float64``, NaN where missing) and ``mask`` (read-only).
    ``entries[i][j]``, the ratio of ``i`` over ``j`` or :data:`MISSING`, is
    built on first use; equality, hashing and ``repr`` go by it.
    """

    def __init__(self, entries):
        array_form = isinstance(entries, np.ndarray)
        if array_form and entries.ndim != 2:
            raise StructureError(f"expected a 2-D array, got {entries.ndim} dimension(s)")
        if array_form and entries.dtype.kind not in "iuf":  # numpy would cast text, bools, dates
            raise StructureError(f"expected a real array, got dtype {entries.dtype}")
        if array_form and len(entries) == 0 < entries.shape[1]:  # no row 0 to name
            raise StructureError(f"expected a square array, got shape {entries.shape}")
        rows = entries if array_form else [r if isinstance(r, (str, bytes)) else tuple(r) for r in entries]
        n = len(rows)
        for i, row in enumerate(rows[:1] if array_form else rows):  # an array's rows share a length
            if isinstance(row, (str, bytes)):
                raise StructureError(f"row {i} must be a sequence of cells, got {type(row).__name__}")
            if len(row) != n:
                raise StructureError(f"row {i} has {len(row)} cells, expected {n}")
        if array_form:
            a = np.array(entries, float, order="C")
            mask = ~np.isnan(a)
        else:
            cells = [c for row in rows for c in row]
            a = np.fromiter(map(_number, cells), float, n * n).reshape(n, n)
            mask = np.fromiter((c is not MISSING for c in cells), bool, n * n).reshape(n, n)
        bad = mask & ~((a > 0.0) & (a < math.inf))
        bad.flat[:: n + 1] |= a.diagonal() != 1.0  # a missing diagonal cell is NaN, not 1
        if bad.any():
            i, j = divmod(int(bad.argmax()), n)
            cell = a[i, j].item() if array_form else rows[i][j]
            if not mask[i, j]:
                raise StructureError(f"diagonal entry ({i},{i}) cannot be missing")
            if not (math.isfinite(a[i, j]) and a[i, j] > 0.0):
                raise StructureError(
                    f"entry ({i},{j}) must be a positive finite number, got {cell!r}"
                )
            raise StructureError(f"diagonal entry ({i},{i}) must be 1, got {cell!r}")
        if (mask != mask.T).any():
            i, j = divmod(int(np.triu(mask != mask.T).argmax()), n)
            raise StructureError(
                f"asymmetric missingness: exactly one of ({i},{j}) and ({j},{i}) is missing"
            )
        a.flags.writeable = False
        mask.flags.writeable = False
        self.array = a
        self.mask = mask

    @cached_property
    def entries(self) -> tuple[tuple[Entry, ...], ...]:
        return tuple(map(tuple, np.where(self.mask, self.array, MISSING).tolist()))

    def __eq__(self, other):
        return self.entries == other.entries if isinstance(other, PCMatrix) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"PCMatrix(entries={self.entries!r})"

    @property
    def n(self) -> int:
        return len(self.array)

    @property
    def is_complete(self) -> bool:
        return bool(self.mask.all())

    def missing_pairs(self) -> list[tuple[int, int]]:
        """Unordered missing pairs as (i, j) with i < j."""
        return [(i, j) for i, j in np.argwhere(np.triu(~self.mask)).tolist()]


def _number(given) -> float:
    """``float(given)``, or NaN for a bool or anything ``float`` rejects, so
    that the callers' messages show such a value as given."""
    try:
        return math.nan if isinstance(given, (bool, np.bool_)) else float(given)
    except (TypeError, ValueError, OverflowError):
        return math.nan


def _positive_finite(values: Iterable[float], noun: str) -> tuple[float, ...]:
    """``values`` read by :func:`_number`, each positive and finite, or a
    StructureError naming the first that is not (as given when rejected)."""
    values = tuple(values)
    floats = tuple(map(_number, values))
    for idx, v in enumerate(floats):
        if not 0.0 < v < math.inf:
            shown = values[idx] if math.isnan(v) else v
            raise StructureError(f"{noun} #{idx} must be positive and finite, got {shown!r}")
    return floats


@dataclass(frozen=True)
class Partition:
    """Split of ``n = k + len(known)`` alternatives: the first ``k`` have
    unknown priorities, the trailing ones carry the fixed values ``known``."""

    k: int
    known: tuple[float, ...]

    def __post_init__(self):
        known = _positive_finite(self.known, "known priority")
        if not known:
            raise StructureError(
                "no known priorities declared; ranking needs at least one fixed alternative"
            )
        try:
            k = operator.index(self.k)
        except TypeError:
            raise StructureError(f"k must be an integer, got {self.k!r}") from None
        if k < 1:
            raise StructureError(
                "every alternative already has a known priority; nothing to compute"
            )
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "known", known)

    @property
    def n(self) -> int:
        return self.k + len(self.known)


@dataclass(frozen=True)
class Ranking:
    """Full priority vector: the first ``k`` values were computed, the rest
    are the known priorities, copied verbatim."""

    values: tuple[float, ...]
    k: int

    def __post_init__(self):
        values = _positive_finite(self.values, "ranking value")
        k = operator.index(self.k)
        if not 0 <= k <= len(values):
            raise StructureError(f"k={k} out of range for {len(values)} values")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def computed(self) -> tuple[float, ...]:
        return self.values[: self.k]

    @property
    def known(self) -> tuple[float, ...]:
        return self.values[self.k :]

    def normalized(self) -> "Ranking":
        """Rescale so the values sum to 1.  Alters the known values, so this
        is presentation only.  A sum past the float range is taken over values
        scaled by a power of two (exact); a 0 quotient is a SingularMatrixError."""
        scale = 1.0 if sum(self.values) < math.inf else 0.5 ** len(self.values).bit_length()
        total = sum(v * scale for v in self.values)
        normalized = tuple(v * scale / total for v in self.values)
        if 0.0 in normalized:
            raise SingularMatrixError("a priority rescaled to sum 1 leaves the float range")
        return Ranking(normalized, self.k)


@dataclass(frozen=True)
class Diagnostics:
    """Validation report produced by :func:`diagnose`.

    ``connectivity_ok`` is ``None`` when no partition was supplied (nothing
    to check reachability against).  ``triad_columns`` holds the triad
    deviations as four read-only arrays ``(i, j, k, deviation)``;
    ``triad_deviations``, the same rows as tuples, is built on first use,
    and equality and hashing go by it.
    """

    reciprocity_violations: tuple[ReciprocityViolation, ...]
    undefined_counts: tuple[int, ...]
    connectivity_ok: bool | None
    isolated_unknowns: tuple[int, ...]
    triad_columns: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

    @cached_property
    def triad_deviations(self) -> tuple[TriadDeviation, ...]:
        return tuple(_triad_rows(self.triad_columns))

    def _key(self) -> tuple:
        return (
            self.reciprocity_violations,
            self.undefined_counts,
            self.connectivity_ok,
            self.isolated_unknowns,
            self.triad_deviations,
        )

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, Diagnostics) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def clean(self) -> bool:
        return (
            not self.reciprocity_violations
            and not len(self.triad_columns[3])
            and self.connectivity_ok is not False
        )


@np.errstate(over="ignore")  # overflow gives inf, as in Python floats
def validate_reciprocity(matrix: PCMatrix, tol: float = DEFAULT_TOL) -> list[ReciprocityViolation]:
    """Report every defined pair whose product c_ij * c_ji strays from 1 by
    more than ``tol``.  An empty list means reciprocal within tolerance."""
    a = matrix.array
    # Missing cells are NaN, and NaN never compares greater than tol.
    far = np.abs(a * a.T - 1.0) > tol
    bad = np.argwhere(np.triu(far, 1)).tolist() if far.any() else []
    return [ReciprocityViolation(i, j, float(a[i, j]), float(a[j, i])) for i, j in bad]


@np.errstate(over="ignore")  # overflow gives inf, as in Python floats
def _triad_columns(matrix: PCMatrix, tol: float):
    """The triad scan behind :func:`check_consistency`, as read-only columns
    ``(i, j, k, deviation)``: int arrays and a float array, in the order of
    ``itertools.combinations``.  The j < k pairs are listed once with c_kj;
    row ``i``'s (j > i) are a suffix of them, scanned in one 1-D pass.
    """
    a = matrix.array
    pair_j, pair_k = np.triu_indices(matrix.n, 1)
    pair_c_kj = a[pair_k, pair_j]
    counts = []
    pieces = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)], [np.empty(0)]
    for i in range(matrix.n - 2):
        start = len(pair_j) - (matrix.n - 1 - i) * (matrix.n - 2 - i) // 2  # first pair with j > i
        js, ks, row = pair_j[start:], pair_k[start:], a[i]
        direct = row[js]
        deviation = np.abs(direct - row[ks] * pair_c_kj[start:]) / direct
        # A missing pair makes the deviation NaN, which never exceeds tol.
        hits = np.flatnonzero(deviation > tol)
        counts.append(len(hits))
        for column, values in zip(pieces, (js[hits], ks[hits], deviation[hits])):
            column.append(values)
    columns = np.repeat(np.arange(len(counts), dtype=np.intp), counts), *map(np.concatenate, pieces)
    for column in columns:
        column.flags.writeable = False
    return columns


def _triad_rows(columns):
    return map(TriadDeviation._make, zip(*(column.tolist() for column in columns)))


def check_consistency(matrix: PCMatrix, tol: float = DEFAULT_TOL) -> list[TriadDeviation]:
    """Report transitivity failures over fully defined triads.

    One canonical triad is examined per unordered triple i < j < k: the
    direct judgment c_ij is compared against the indirect product
    c_ik * c_kj.  For a reciprocal matrix this covers all orderings.
    Triads touching a missing pair are skipped.  Deviations come in the
    order of ``itertools.combinations``.
    """
    return list(_triad_rows(_triad_columns(matrix, tol)))


def undefined_counts(matrix: PCMatrix) -> tuple[int, ...]:
    """Per-row count of missing off-diagonal comparisons."""
    return tuple((~matrix.mask).sum(axis=1).tolist())


def check_connectivity(matrix: PCMatrix, partition: Partition) -> tuple[bool, list[int]]:
    """Check that every unknown alternative reaches a known one through
    defined comparisons.

    Vertices are alternatives, edges are defined comparisons.  Returns
    ``(ok, isolated)`` where ``isolated`` lists the unknown indices whose
    component contains no known alternative (this subsumes rows with no
    defined comparison at all).
    """
    n = matrix.n
    if partition.n != n:
        raise StructureError(f"partition describes {partition.n} alternatives, matrix has {n}")
    seen = np.arange(n) >= partition.k
    frontier = seen
    while frontier.any():
        frontier = matrix.mask[frontier].any(axis=0) > seen
        seen |= frontier
    isolated = np.flatnonzero(~seen).tolist()
    return not isolated, isolated


def diagnose(
    matrix: PCMatrix, partition: Partition | None = None, tol: float = DEFAULT_TOL
) -> Diagnostics:
    """Run every structural check at once and bundle the findings."""
    if partition is None:
        ok: bool | None = None
        isolated: list[int] = []
    else:
        ok, isolated = check_connectivity(matrix, partition)
    return Diagnostics(
        reciprocity_violations=tuple(validate_reciprocity(matrix, tol)),
        undefined_counts=undefined_counts(matrix),
        connectivity_ok=ok,
        isolated_unknowns=tuple(isolated),
        triad_columns=_triad_columns(matrix, tol),
    )


@np.errstate(over="ignore")  # overflow gives inf, as in Python floats
def ensure_solvable(matrix: PCMatrix, partition: Partition, tol: float = DEFAULT_TOL) -> None:
    """Guard pipeline that both builders rely on: the partition size, then the
    most informative failures first: reciprocity, degenerate rows, connectivity.

    Comparisons among known alternatives never enter the systems; if any
    disagree with the fixed priorities a :class:`KnownComparisonWarning` is
    emitted, because that usually flags a data-entry mistake.
    """
    ok, isolated = check_connectivity(matrix, partition)  # raises on a wrong size
    violations = validate_reciprocity(matrix, tol)
    if violations:
        raise ReciprocityError(violations)
    degenerate = np.flatnonzero(matrix.mask[: partition.k].sum(axis=1) == 1).tolist()
    if degenerate:
        raise DegenerateRowError(degenerate)
    if not ok:
        raise NotConnectedError(isolated)

    k = partition.k
    known = np.array(partition.known)
    implied = known[:, None] / known[None, :]
    # Missing cells are NaN and the diagonal matches exactly: neither counts.
    mismatched = int((np.abs(matrix.array[k:, k:] - implied) > tol * implied).sum())
    if mismatched:
        warnings.warn(
            f"{mismatched} comparison(s) among known alternatives disagree with "
            f"their fixed priorities; these entries are ignored by the solvers",
            KnownComparisonWarning,
            stacklevel=2,
        )


@np.errstate(over="ignore")  # overflow gives inf, as in Python floats
def fill_missing(matrix: PCMatrix, values: Iterable[float]) -> PCMatrix:
    """Complete the matrix by setting every missing c_ij to values[i]/values[j].

    With ``values`` taken from a solver ranking this realizes the rule that
    missing judgments agree perfectly with the final priorities; re-solving
    the filled matrix reproduces the ranking.  A ratio that overflows raises
    :class:`SingularMatrixError` (one that underflows to 0 has such a mirror).
    """
    values = tuple(values)
    if len(values) != matrix.n:
        raise StructureError(f"expected {matrix.n} values, got {len(values)}")
    vals = _positive_finite(values, "fill value")
    filled = np.where(matrix.mask, matrix.array, np.divide.outer(vals, vals))
    if not np.isfinite(filled).all():
        raise SingularMatrixError("a fill ratio values[i]/values[j] leaves the float range")
    return PCMatrix(filled)
