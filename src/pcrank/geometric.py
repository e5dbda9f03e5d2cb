"""Geometric-mean ranking of the unknown alternatives.

Here each unknown priority is postulated to be the geometric mean of
``c_ij * w(a_j)`` over the defined comparisons.  Raising row ``i`` to the
power ``n - s_i - 1`` and taking logarithms turns the multiplicative system
into a linear one: the coefficient matrix holds the defined-comparison count
on the diagonal and -1 wherever two unknowns were compared; products against
known alternatives collapse into the constant terms.  Exponentiating the
solution maps back to priorities, so the result is positive whenever the
system solves at all.

The logarithm base is mathematically irrelevant (it cancels in the back
transformation); it is exposed only so that invariance can be demonstrated.
The builder runs no guard: :func:`solve_geometric` is ``ensure_solvable`` (so
its errors precede a bad ``log_base``'s), the builder, then ``.ranking``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularMatrixError
from .linsolve import solve
from .matrix import DEFAULT_TOL, PCMatrix, Partition, Ranking, ensure_solvable


@dataclass(frozen=True, eq=False)
class GeometricSystem:
    """Log-linear system for the unknown priorities.

    ``coeff[i][i]`` is the defined-comparison count ``n - s_i - 1``;
    off-diagonal entries are -1 for a defined unknown-unknown comparison and
    0 for a missing one, so the zero pattern is symmetric.  ``constants[i]``
    sums the logarithms of the defined ``c_ij`` toward unknowns plus
    ``log c_ij + log w(a_j)`` toward knowns (empty sums contribute 0); the
    logarithms are taken apart so that a product beyond the float range
    cannot overflow.
    """

    coeff: np.ndarray
    constants: np.ndarray
    log_base: float

    def ranking(self, partition: Partition) -> Ranking:
        """Solve and exponentiate; ``SingularMatrixError`` when a priority
        leaves the float range or the system is singular (after the guard
        the matrix is diagonally dominant, which rules that out in practice)."""
        exponents = solve(self.coeff, self.constants)
        with np.errstate(over="ignore"):
            computed = np.exp(exponents * math.log(self.log_base))
        if not ((computed > 0.0) & (computed < math.inf)).all():
            raise SingularMatrixError("computed priorities leave the float range")
        return Ranking(tuple(computed.tolist()) + partition.known, partition.k)


def build_geometric_system(
    matrix: PCMatrix, partition: Partition, log_base: float = math.e
) -> GeometricSystem:
    """Assemble the log-linear system of a matrix that passed the guard."""
    if not (log_base > 0.0 and log_base != 1.0 and math.isfinite(log_base)):
        raise ValueError(f"log base must be positive, finite and != 1, got {log_base!r}")
    k = partition.k
    defined = matrix.mask[:k]
    coeff = np.where(defined[:, :k], -1.0, 0.0)
    np.fill_diagonal(coeff, defined.sum(axis=1) - 1.0)
    logs = np.log(matrix.array[:k])
    logs[:, k:] += np.log(partition.known)
    # The diagonal contributes log 1 = 0; missing cells contribute nothing.
    constants = np.where(defined, logs, 0.0).sum(axis=1) / math.log(log_base)
    return GeometricSystem(coeff=coeff, constants=constants, log_base=float(log_base))


def solve_geometric(
    matrix: PCMatrix,
    partition: Partition,
    log_base: float = math.e,
    tol: float = DEFAULT_TOL,
) -> Ranking:
    """Guard, build and rank: the full ranking, known priorities verbatim."""
    ensure_solvable(matrix, partition, tol)
    return build_geometric_system(matrix, partition, log_base).ranking(partition)
