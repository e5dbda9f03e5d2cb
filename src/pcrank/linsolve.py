"""Dense linear solver for the k-by-k systems both ranking methods produce.

LAPACK's LU with partial pivoting (``np.linalg.solve``) does the work.  The
ranking contract needs more than "LAPACK did not fail": a system whose
matrix is singular in exact arithmetic often comes back from floating point
with a tiny pivot and a huge, meaningless solution.  So the 1-norm condition
number is checked too, and anything above :data:`MAX_CONDITION` is reported
as singular instead of returning garbage.

Both ranking methods build Z-matrices (every off-diagonal entry <= 0).  For a
Z-matrix A, one solve ``A.T @ z = 1`` usually gives the condition number
exactly: if z > 0 and ``A.T @ z > 0``, A is a nonsingular M-matrix (Berman &
Plemmons, *Nonnegative Matrices in the Mathematical Sciences*, ch. 6), so
``inv(A) >= 0``, its column sums are z and ``cond_1(A) = ||A||_1 * max(z)``.
For the arithmetic rule ``A = I - B`` this certificate holds exactly when
the spectral radius of B is below 1, Kulakowski's existence condition for a
positive solution: a guarded system has nonnegative constants that reach
every unknown, so each priority is positive and a 0 is an underflow.  Above
1 some priority is negative (at 1, A is singular).  Any other matrix (not a
Z-matrix, no positive z, or a check that rounding spoils, far beyond
:data:`MAX_CONDITION`) falls back to ``np.linalg.cond``, which forms an
explicit inverse and costs about four solves.  The two agree to rounding;
only the last digit of the condition number quoted in an error message can
differ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularMatrixError
from .matrix import Partition, Ranking

#: Largest 1-norm condition number accepted; beyond it the solution carries
#: no correct digits worth ranking by (float64 keeps about 16).
MAX_CONDITION = 1e12


@np.errstate(all="ignore")  # like np.linalg.cond: a product that overflows just fails the test
def _certified_condition(matrix: np.ndarray) -> float | None:
    """The 1-norm condition number of a finite matrix that an M-matrix
    certificate proves nonsingular, or None when there is no certificate."""
    k = len(matrix)
    # Past the first entry of the flat array every (k+1)-th one is on the
    # diagonal, so the first k columns of this view are the off-diagonal.
    if k == 0 or matrix.reshape(-1)[1:].reshape(k - 1, k + 1)[:, :k].max(initial=0.0) > 0.0:
        return None
    try:
        z = np.linalg.solve(matrix.T, np.ones(k))
    except np.linalg.LinAlgError:
        return None
    top = z.max()
    if not (z.min() > 0.0 and top < np.inf and (z @ matrix).min() > 0.0):
        return None
    return float(np.abs(matrix).sum(axis=0).max() * top)


def solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` with LAPACK.

    Raises :class:`SingularMatrixError` when an entry of ``matrix`` or
    ``rhs`` is not finite, when the matrix is exactly singular, when its
    1-norm condition number exceeds :data:`MAX_CONDITION`, or when the
    solution is not finite.  Deterministic: identical input yields
    identical output.
    """
    if not (np.isfinite(matrix).all() and np.isfinite(rhs).all()):
        raise SingularMatrixError("system contains non-finite entries; it cannot be solved")
    condition = _certified_condition(matrix)
    if condition is None:
        # cond() reports an exactly singular matrix as inf.
        condition = float(np.linalg.cond(matrix, 1))
    if not condition <= MAX_CONDITION:
        raise SingularMatrixError(
            f"1-norm condition number {condition:.3e} exceeds {MAX_CONDITION:.0e}"
        )
    x = np.linalg.solve(matrix, rhs)
    if not np.isfinite(x).all():
        raise SingularMatrixError("solution overflowed; system is effectively singular")
    return x


@dataclass(frozen=True, eq=False)
class _System:
    """The k-by-k system ``coeff @ x = constants`` of an estimation rule,
    whose ``_priorities`` turns the solution x into the unknown priorities."""

    coeff: np.ndarray
    constants: np.ndarray

    def ranking(self, partition: Partition) -> Ranking:
        """Solve, then append the known priorities; ``SingularMatrixError`` when
        there is no unique solution or a priority leaves the positive floats."""
        computed = self._priorities(solve(self.coeff, self.constants))
        if not ((computed > 0.0) & (computed < np.inf)).all():
            raise SingularMatrixError("computed priorities leave the float range")
        return Ranking(tuple(computed.tolist()) + partition.known, partition.k)
