import numpy as np
import pytest

from pcrank import (
    MISSING,
    IncompleteMatrixError,
    NoConvergenceError,
    PCMatrix,
    Partition,
    StructureError,
    evm,
    gmm,
    solve_arithmetic,
    solve_geometric,
)
from pcrank import baselines

from helpers import perturbed_rows, ratio_rows, rng_for, rows_to_matrix


def perron_root_by_charpoly(a: np.ndarray) -> float:
    """Independent spectral-radius oracle: expand det(a - t*I) by cofactors
    using polynomial arithmetic, then take the largest real root."""
    n = a.shape[0]
    grid = [
        [
            np.poly1d([-1.0, a[i, i]]) if i == j else np.poly1d([a[i, j]])
            for j in range(n)
        ]
        for i in range(n)
    ]

    def det(m):
        if len(m) == 1:
            return m[0][0]
        total = np.poly1d([0.0])
        for j, cell in enumerate(m[0]):
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            term = cell * det(minor)
            total = total + term if j % 2 == 0 else total - term
        return total

    roots = np.roots(det(grid).coeffs)
    return max(float(r.real) for r in roots)


class TestEvm:
    def test_consistent_matrix(self):
        result = evm(rows_to_matrix(ratio_rows([4.0, 2.0, 1.0])))
        assert result.method == "evm"
        assert result.weights == pytest.approx((4 / 7, 2 / 7, 1 / 7), rel=1e-10)
        assert result.spectral_radius == pytest.approx(3.0, abs=1e-8)
        assert result.iterations >= 1

    def test_symmetric_2x2(self):
        result = evm(PCMatrix(((1, 1), (1, 1))))
        assert result.weights == pytest.approx((0.5, 0.5), abs=1e-14)

    def test_spectral_radius_vs_charpoly_oracle(self):
        rng = rng_for(61)
        for n in (3, 4):
            for _ in range(10):
                rows = perturbed_rows(rng.uniform(0.5, 3.0, size=n), rng, 0.25, 4.0)
                m = rows_to_matrix(rows)
                result = evm(m)
                oracle = perron_root_by_charpoly(np.array(m.entries))
                assert result.spectral_radius == pytest.approx(oracle, abs=1e-8)
                assert result.spectral_radius >= n - 1e-8

    def test_eigen_residual(self):
        rng = rng_for(62)
        for _ in range(10):
            rows = perturbed_rows(rng.uniform(0.5, 3.0, size=5), rng)
            m = rows_to_matrix(rows)
            result = evm(m)
            w = np.array(result.weights)
            residual = np.abs(np.array(m.entries) @ w - result.spectral_radius * w).max()
            assert residual <= 1e-7

    def test_weights_sum_to_one(self):
        rng = rng_for(63)
        rows = perturbed_rows(rng.uniform(0.5, 3.0, size=6), rng)
        result = evm(rows_to_matrix(rows))
        assert abs(sum(result.weights) - 1.0) <= 1e-12

    def test_incomplete_rejected(self):
        m = PCMatrix(((1, MISSING), (MISSING, 1)))
        with pytest.raises(IncompleteMatrixError):
            evm(m)

    def test_iteration_budget(self, monkeypatch):
        rng = rng_for(64)
        rows = perturbed_rows(rng.uniform(0.5, 3.0, size=5), rng)
        monkeypatch.setattr(baselines, "_MAX_ITERATIONS", 1)
        with pytest.raises(NoConvergenceError):
            evm(rows_to_matrix(rows))

    def test_overflow_stops_at_the_first_iterate(self):
        # The first product a @ v sums past the float range.
        big = 1.5e308
        rows = [
            [1.0 if (i < 3) == (j < 3) else big if i < 3 else 1 / big for j in range(6)]
            for i in range(6)
        ]
        with np.errstate(all="ignore"), pytest.raises(
            NoConvergenceError, match="left the float range at iteration 1$"
        ):
            evm(rows_to_matrix(rows))


class TestGmm:
    def test_consistent_matrix(self):
        result = gmm(rows_to_matrix(ratio_rows([4.0, 2.0, 1.0])))
        assert result.method == "gmm"
        assert result.weights == pytest.approx((4 / 7, 2 / 7, 1 / 7), rel=1e-12)

    def test_all_ones_gives_uniform(self):
        n = 5
        m = PCMatrix(tuple(tuple(1.0 for _ in range(n)) for _ in range(n)))
        result = gmm(m)
        assert result.weights == pytest.approx((1 / n,) * n, rel=1e-14)
        assert result.normalizer == pytest.approx(1 / n, rel=1e-14)

    def test_strong_2x2_preference(self):
        # Row geometric means are sqrt(9) and sqrt(1/9): 3 and 1/3.
        result = gmm(PCMatrix(((1, 9), (1 / 9, 1))))
        assert result.weights == pytest.approx((0.9, 0.1), rel=1e-12)

    def test_transpose_gives_inverted_weights(self):
        rng = rng_for(65)
        for _ in range(10):
            rows = perturbed_rows(rng.uniform(0.5, 3.0, size=5), rng)
            m = rows_to_matrix(rows)
            transposed = rows_to_matrix([list(col) for col in zip(*m.entries)])
            direct = np.array(gmm(m).weights)
            inverted = 1.0 / np.array(gmm(transposed).weights)
            inverted /= inverted.sum()
            assert np.abs(direct - inverted).max() <= 1e-12

    def test_incomplete_rejected(self):
        m = PCMatrix(((1, 2, MISSING), (0.5, 1, 2), (MISSING, 0.5, 1)))
        with pytest.raises(IncompleteMatrixError):
            gmm(m)



@pytest.mark.parametrize("method", [evm, gmm])
def test_empty_matrix_rejected(method):
    """The empty matrix is valid but has no weights: a StructureError before
    any arithmetic, so neither a division by zero nor numpy's empty-mean
    warning."""
    with pytest.raises(StructureError, match="^matrix has no alternatives"):
        method(PCMatrix(np.zeros((0, 0))))

def test_all_methods_agree_on_consistent_matrices():
    rng = rng_for(66)
    for _ in range(10):
        n = int(rng.integers(3, 8))
        k = int(rng.integers(1, n))
        v = rng.uniform(0.2, 5.0, size=n)
        m = rows_to_matrix(ratio_rows(v))
        partition = Partition(k, tuple(float(x) for x in v[k:]))
        reference = v / v.sum()
        for weights in (
            evm(m).weights,
            gmm(m).weights,
            solve_arithmetic(m, partition).normalized().values,
            solve_geometric(m, partition).normalized().values,
        ):
            assert np.abs(np.array(weights) - reference).max() <= 1e-8
