import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcrank import (
    MISSING,
    DegenerateRowError,
    NotConnectedError,
    PCMatrix,
    Partition,
    build_geometric_system,
    fill_missing,
    solve_arithmetic,
    solve_geometric,
)

from helpers import (
    geometric_residual,
    geometric_system_loops,
    instances,
    is_defined,
    random_instance,
    rng_for,
)


def incomplete_3x3():
    return (
        PCMatrix(((1, 2, 4), (0.5, 1, MISSING), (0.25, MISSING, 1))),
        Partition(2, (1.0,)),
    )


class TestBuild:
    def test_incomplete_micro_instance(self):
        system = build_geometric_system(*incomplete_3x3())
        assert np.array_equal(system.coeff, np.array([[2.0, -1.0], [-1.0, 1.0]]))
        # Row 0 collects log 2 (toward the other unknown) and log(4*1)
        # (toward the known); row 1 only log 1/2, its known product is empty.
        assert system.constants == pytest.approx(
            (math.log(2.0) + math.log(4.0), math.log(0.5)), abs=1e-15
        )
        assert system.log_base == math.e

    def test_complete_matrix_coefficients(self):
        rng = rng_for(51)
        for _ in range(10):
            matrix, partition, _ = random_instance(rng, incomplete=False)
            n, k = matrix.n, partition.k
            system = build_geometric_system(matrix, partition)
            expected = -np.ones((k, k)) + n * np.eye(k)
            assert np.array_equal(system.coeff, expected)

    def test_single_unknown_pair_base_10(self):
        m = PCMatrix(((1, 3), (1 / 3, 1)))
        system = build_geometric_system(m, Partition(1, (5.0,)), log_base=10.0)
        assert np.array_equal(system.coeff, np.array([[1.0]]))
        assert system.constants == pytest.approx((math.log(15.0) / math.log(10.0),), abs=1e-15)

    def test_zero_pattern_is_symmetric(self):
        rng = rng_for(52)
        for _ in range(15):
            matrix, partition, _ = random_instance(rng)
            system = build_geometric_system(matrix, partition)
            zero = system.coeff == 0.0
            assert np.array_equal(zero, zero.T)

    def test_diagonal_counts_defined_comparisons(self):
        matrix, partition = incomplete_3x3()
        system = build_geometric_system(matrix, partition)
        for i in range(partition.k):
            defined = sum(
                1 for j in range(matrix.n) if j != i and is_defined(matrix, i, j)
            )
            assert system.coeff[i][i] == float(defined)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -2.0, math.inf])
    def test_rejects_bad_log_base(self, bad):
        with pytest.raises(ValueError):
            build_geometric_system(*incomplete_3x3(), log_base=bad)


@settings(max_examples=60, deadline=None)
@given(instances(max_n=12), st.sampled_from([math.e, 2.0, 10.0]))
def test_system_matches_loop_reference(instance, log_base):
    # log c + log w rounds differently from log(c * w), and the row sums may
    # be added in another order, so the constants get a relative tolerance.
    matrix, partition, _ = instance
    system = build_geometric_system(matrix, partition, log_base=log_base)
    coeff, constants = geometric_system_loops(matrix, partition, log_base)
    assert np.array_equal(system.coeff, coeff)
    bound = 1e-12 * np.maximum(np.abs(constants), 1.0)
    assert np.all(np.abs(system.constants - constants) <= bound)


class TestSolve:
    def test_micro_instance(self):
        ranking = solve_geometric(*incomplete_3x3())
        assert ranking.values == pytest.approx((4.0, 2.0, 1.0), rel=1e-12)

    def test_single_equation(self):
        m = PCMatrix(((1, 3, MISSING), (1 / 3, 1, 0.5), (MISSING, 2, 1)))
        ranking = solve_geometric(m, Partition(1, (2.0, 4.0)))
        assert ranking.values[0] == pytest.approx(6.0, rel=1e-12)

    def test_decoupled_unknowns(self):
        m = PCMatrix(((1, MISSING, 2), (MISSING, 1, 4), (0.5, 0.25, 1)))
        ranking = solve_geometric(m, Partition(2, (1.0,)))
        assert ranking.values == pytest.approx((2.0, 4.0, 1.0), rel=1e-12)

    def test_log_base_invariance(self):
        rng = rng_for(53)
        for _ in range(15):
            matrix, partition, _ = random_instance(rng)
            base_e = solve_geometric(matrix, partition)
            for xi in (2.0, 10.0):
                other = solve_geometric(matrix, partition, log_base=xi)
                for a, b in zip(other.values, base_e.values):
                    assert abs(a - b) <= 1e-10 * abs(b)

    def test_multiplicative_fixed_point(self):
        rng = rng_for(54)
        for _ in range(40):
            matrix, partition, _ = random_instance(rng)
            ranking = solve_geometric(matrix, partition)
            assert geometric_residual(matrix, partition.k, ranking.values) <= 1e-9

    def test_exact_recovery_on_consistent_data(self):
        rng = rng_for(55)
        for _ in range(30):
            matrix, partition, v = random_instance(rng, consistent=True)
            ranking = solve_geometric(matrix, partition)
            for got, want in zip(ranking.computed, v):
                assert abs(got - want) <= 1e-10 * want

    def test_agrees_with_arithmetic_on_consistent_data(self):
        rng = rng_for(56)
        for _ in range(20):
            matrix, partition, _ = random_instance(rng, consistent=True)
            geo = solve_geometric(matrix, partition)
            ari = solve_arithmetic(matrix, partition)
            for a, b in zip(geo.values, ari.values):
                assert abs(a - b) <= 1e-10 * abs(b)

    def test_scale_equivariance(self):
        rng = rng_for(57)
        for gamma in (0.1, 7.0):
            matrix, partition, _ = random_instance(rng, n=6, k=4)
            base = solve_geometric(matrix, partition)
            scaled = solve_geometric(
                matrix, Partition(partition.k, tuple(gamma * w for w in partition.known))
            )
            for a, b in zip(scaled.computed, base.computed):
                assert abs(a - gamma * b) <= 1e-10 * abs(gamma * b)

    def test_completion_idempotence(self):
        rng = rng_for(58)
        for _ in range(20):
            matrix, partition, _ = random_instance(rng)
            ranking = solve_geometric(matrix, partition)
            filled = fill_missing(matrix, ranking.values)
            again = solve_geometric(filled, partition)
            for a, b in zip(again.values, ranking.values):
                assert abs(a - b) <= 1e-9 * abs(b)

    def test_positive_even_on_wild_inconsistency(self):
        # The same preference cycle that breaks the arithmetic method.
        x = 9.0
        m = PCMatrix((
            (1, x, 1 / x, 1),
            (1 / x, 1, x, 1),
            (x, 1 / x, 1, 1),
            (1, 1, 1, 1),
        ))
        ranking = solve_geometric(m, Partition(3, (1.0,)))
        assert all(value > 0.0 for value in ranking.values)

    def test_never_singular_on_connected_instances(self):
        # Diagonal dominance: each diagonal entry counts all defined
        # comparisons in its row, off-diagonals only the unknown ones.
        rng = rng_for(59)
        for _ in range(150):
            matrix, partition, _ = random_instance(rng)
            system = build_geometric_system(matrix, partition)
            off = np.abs(system.coeff).sum(axis=1) - np.abs(np.diag(system.coeff))
            assert np.all(np.diag(system.coeff) >= off)
            solve_geometric(matrix, partition)  # must not raise

    def test_guards_propagate(self):
        degenerate = PCMatrix((
            (1, MISSING, MISSING),
            (MISSING, 1, 2),
            (MISSING, 0.5, 1),
        ))
        with pytest.raises(DegenerateRowError):
            solve_geometric(degenerate, Partition(1, (2.0, 4.0)))
        island = PCMatrix((
            (1, 5, MISSING, MISSING),
            (0.2, 1, MISSING, MISSING),
            (MISSING, MISSING, 1, 2),
            (MISSING, MISSING, 0.5, 1),
        ))
        with pytest.raises(NotConnectedError):
            solve_geometric(island, Partition(2, (3.0, 1.5)))


@settings(max_examples=60, deadline=None)
@given(instances(max_n=12), st.sampled_from([math.e, 2.0, 10.0, 0.5]))
def test_system_ranking_is_solve_geometric(instance, log_base):
    # solve_geometric is the guard, then the builder, then .ranking.
    matrix, partition, _ = instance
    system = build_geometric_system(matrix, partition, log_base=log_base)
    assert system.ranking(partition) == solve_geometric(matrix, partition, log_base=log_base)


def test_guard_error_comes_before_a_bad_log_base():
    degenerate = PCMatrix(((1, MISSING, MISSING), (MISSING, 1, 2), (MISSING, 0.5, 1)))
    with pytest.raises(DegenerateRowError):
        solve_geometric(degenerate, Partition(1, (2.0, 4.0)), log_base=1.0)
    with pytest.raises(ValueError):
        solve_geometric(*incomplete_3x3(), log_base=1.0)
