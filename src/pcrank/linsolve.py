"""Dense linear solver for the k-by-k systems both ranking methods produce.

LAPACK's LU with partial pivoting (``np.linalg.solve``) does the work.  The
ranking contract needs more than "LAPACK did not fail": a system whose
matrix is singular in exact arithmetic often comes back from floating point
with a tiny pivot and a huge, meaningless solution.  So the 1-norm condition
number is checked too, and anything above :data:`MAX_CONDITION` is reported
as singular instead of returning garbage.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrixError

#: Largest 1-norm condition number accepted; beyond it the solution carries
#: no correct digits worth ranking by (float64 keeps about 16).
MAX_CONDITION = 1e12


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
