"""Arithmetic-mean ranking of the unknown alternatives.

Each unknown priority is postulated to equal the arithmetic mean of
``c_ij * w(a_j)`` over the comparisons that were actually made.  A missing
judgment is treated as if it agreed perfectly with the final result, which
absorbs it into the diagonal: row ``i`` averages over its
``n - s_i - 1`` defined comparisons, where ``s_i`` counts the missing ones.
Moving the unknown terms left yields a k-by-k linear system with unit
diagonal; terms involving known alternatives accumulate into the
constant-term vector.  The builder runs no guard: :func:`solve_arithmetic`
is ``ensure_solvable``, then the builder, then :meth:`ArithmeticSystem.ranking`.

Unlike the geometric variant the solution is not guaranteed positive: large
inconsistency can push a component below zero, reported as
:class:`~pcrank.errors.NonPositiveSolutionError`.  Writing the matrix as
``I - B``, that happens exactly when the spectral radius of B exceeds 1 (at
1 the matrix is singular): below 1, ``pcrank.linsolve`` certifies the matrix
as an M-matrix, whose inverse is nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveSolutionError, SingularMatrixError
from .linsolve import solve
from .matrix import DEFAULT_TOL, PCMatrix, Partition, Ranking, ensure_solvable


@dataclass(frozen=True, eq=False)
class ArithmeticSystem:
    """Linear system for the unknown priorities.

    ``coeff`` has unit diagonal and ``-c_ij / (n - s_i - 1)`` where the
    unknown-unknown comparison is defined, 0 where it is missing.
    ``constants[i]`` collects the defined comparisons of unknown ``i``
    against the known alternatives, averaged with the same row denominator.
    ``row_denominators`` keeps the per-row averaging counts for audit.
    """

    coeff: np.ndarray
    constants: np.ndarray
    row_denominators: tuple[int, ...]

    def ranking(self, partition: Partition) -> Ranking:
        """Solve; raises ``SingularMatrixError`` when there is no unique
        solution or a priority underflows to 0, ``NonPositiveSolutionError``
        for a negative priority.

        A guarded system has nonnegative constants and every unknown reaches
        a positive one, so an exact solution with no negative entry is
        positive (and its matrix an M-matrix): a 0 beside no negative is an
        underflow, not the method's failure.
        """
        x = solve(self.coeff, self.constants)
        if np.any(x < 0.0):
            raise NonPositiveSolutionError(x)
        if not x.all():
            raise SingularMatrixError("computed priorities leave the float range")
        return Ranking(tuple(x.tolist()) + partition.known, partition.k)


@np.errstate(over="ignore")  # overflow gives inf, which solve rejects
def build_arithmetic_system(matrix: PCMatrix, partition: Partition) -> ArithmeticSystem:
    """Assemble the averaged linear system of a matrix that passed the guard."""
    k = partition.k
    defined = matrix.mask[:k]
    denominators = defined.sum(axis=1) - 1
    coeff = np.where(defined[:, :k], -(matrix.array[:k, :k] / denominators[:, None]), 0.0)
    np.fill_diagonal(coeff, 1.0)
    terms = np.where(defined[:, k:], matrix.array[:k, k:] * np.array(partition.known), 0.0)
    # Summed left to right (not with @, whose BLAS order differs), so the
    # constants equal a plain running sum over j entry for entry.
    constants = np.cumsum(terms, axis=1)[:, -1] / denominators
    return ArithmeticSystem(
        coeff=coeff, constants=constants, row_denominators=tuple(denominators.tolist())
    )


def solve_arithmetic(matrix: PCMatrix, partition: Partition, tol: float = DEFAULT_TOL) -> Ranking:
    """Guard, build and rank: the full ranking, known priorities verbatim."""
    ensure_solvable(matrix, partition, tol)
    return build_arithmetic_system(matrix, partition).ranking(partition)
