"""Dense linear solver for the k-by-k systems both ranking methods produce.

LAPACK's LU with partial pivoting (``np.linalg.solve``) does the work.  The
ranking contract needs more than "LAPACK did not fail": a system whose
matrix is singular in exact arithmetic often comes back from floating point
with a tiny pivot and a huge, meaningless solution.  So the 1-norm condition
number is checked too, and anything above :data:`MAX_CONDITION` is reported
as singular instead of returning garbage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularMatrixError, StructureError

#: Largest 1-norm condition number accepted; beyond it the solution carries
#: no correct digits worth ranking by (float64 keeps about 16).
MAX_CONDITION = 1e12


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """A square coefficient matrix and its right-hand side."""

    matrix: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        b = np.array(self.rhs, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise StructureError(f"coefficient matrix must be square, got shape {m.shape}")
        if b.ndim != 1 or b.shape[0] != m.shape[0]:
            raise StructureError(
                f"right-hand side length {b.shape} does not match matrix {m.shape}"
            )
        if not (np.isfinite(m).all() and np.isfinite(b).all()):
            raise StructureError("system contains non-finite entries")
        m.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "rhs", b)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def solve(system: LinearSystem) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` with LAPACK.

    Raises :class:`SingularMatrixError` when the matrix is exactly singular,
    when its 1-norm condition number exceeds :data:`MAX_CONDITION`, or when
    the solution is not finite.  Deterministic: identical input yields
    identical output.
    """
    # cond() reports an exactly singular matrix as inf.
    condition = float(np.linalg.cond(system.matrix, 1))
    if not condition <= MAX_CONDITION:
        raise SingularMatrixError(
            f"1-norm condition number {condition:.3e} exceeds {MAX_CONDITION:.0e}"
        )
    x = np.linalg.solve(system.matrix, system.rhs)
    if not np.isfinite(x).all():
        raise SingularMatrixError("solution overflowed; system is effectively singular")
    return x
