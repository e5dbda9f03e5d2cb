"""Classical prioritization baselines for complete matrices.

Two reference methods used to cross-validate the ranking solvers and to
populate the CLI's compare table:

* ``evm`` - principal-eigenvector weights via power iteration,
* ``gmm`` - normalized row geometric means.

Both require a complete matrix; incomplete extensions are deliberately out
of scope here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IncompleteMatrixError, NoConvergenceError, StructureError
from .matrix import PCMatrix

_MAX_ITERATIONS = 10000  # evm's power-iteration budget


@dataclass(frozen=True)
class BaselineResult:
    """Weights normalized to sum 1, plus method-specific extras.

    ``spectral_radius`` and ``iterations`` are set by ``evm`` only,
    ``normalizer`` by ``gmm`` only.
    """

    method: str
    weights: tuple[float, ...]
    spectral_radius: float | None = None
    normalizer: float | None = None
    iterations: int | None = None


def _as_array(matrix: PCMatrix) -> np.ndarray:
    if not matrix.n:
        raise StructureError("matrix has no alternatives; this method needs at least one")
    if not matrix.is_complete:
        raise IncompleteMatrixError(
            f"matrix has {len(matrix.missing_pairs())} missing pair(s); "
            f"this method needs a complete matrix"
        )
    return matrix.array


@np.errstate(over="ignore")  # a sum past the float range is inf, which raises below
def evm(matrix: PCMatrix) -> BaselineResult:
    """Eigenvalue-method weights: the sum-normalized principal eigenvector.

    Power iteration starting from the uniform vector; positive matrices make
    it converge geometrically, so no general eigensolver is needed.  Stops
    when successive sum-normalized iterates agree to 1e-12 in max-norm, and
    raises :class:`NoConvergenceError` after 10,000 iterations or at the
    first iterate whose sum leaves the float range.  The spectral radius is
    estimated by the Rayleigh quotient; for a reciprocal matrix it is >= n,
    with equality exactly on consistent input (useful as a diagnostic).
    """
    a = _as_array(matrix)
    n = a.shape[0]
    v = np.full(n, 1.0 / n)
    for iteration in range(1, _MAX_ITERATIONS + 1):
        y = a @ v
        total = y.sum()
        if not total < math.inf:
            raise NoConvergenceError(f"power iteration left the float range at iteration {iteration}")
        nxt = y / total
        delta = float(np.abs(nxt - v).max())
        v = nxt
        if delta < 1e-12:
            av = a @ v
            lam = float(v @ av / (v @ v))
            return BaselineResult(
                method="evm",
                weights=tuple(float(w) for w in v),
                spectral_radius=lam,
                iterations=iteration,
            )
    raise NoConvergenceError(f"power iteration did not converge in {_MAX_ITERATIONS} iterations")


def gmm(matrix: PCMatrix) -> BaselineResult:
    """Geometric-mean weights: row geometric means rescaled to sum 1.

    The mean runs over all n row entries including the unit diagonal.
    """
    a = _as_array(matrix)
    means = np.exp(np.log(a).mean(axis=1))
    alpha = 1.0 / float(means.sum())
    return BaselineResult(
        method="gmm",
        weights=tuple(float(w) for w in alpha * means),
        normalizer=alpha,
    )
