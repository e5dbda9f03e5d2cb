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


def build_geometric_system(
    matrix: PCMatrix,
    partition: Partition,
    log_base: float = math.e,
    tol: float = DEFAULT_TOL,
) -> GeometricSystem:
    """Assemble the log-linear system after running the guard pipeline."""
    if not (log_base > 0.0 and log_base != 1.0 and math.isfinite(log_base)):
        raise ValueError(f"log base must be positive, finite and != 1, got {log_base!r}")
    ensure_solvable(matrix, partition, tol)
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
    """Compute the full ranking; known priorities are preserved verbatim.

    The computed priorities are exponentials of finite reals, hence
    strictly positive unless they leave the float range, which raises
    :class:`~pcrank.errors.SingularMatrixError`.  A singular system is the
    other solver failure, and the connectivity guard rules it out in
    practice (the coefficient matrix is diagonally dominant on connected
    instances).
    """
    system = build_geometric_system(matrix, partition, log_base, tol)
    exponents = solve(system.coeff, system.constants)
    with np.errstate(over="ignore"):
        computed = np.exp(exponents * math.log(system.log_base))
    if not ((computed > 0.0) & (computed < math.inf)).all():
        raise SingularMatrixError("computed priorities leave the float range")
    return Ranking(tuple(computed.tolist()) + partition.known, partition.k)
