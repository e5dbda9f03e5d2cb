import math
import re

import numpy as np
import pytest
from hypothesis import given, settings

from pcrank import (
    MISSING,
    DegenerateRowError,
    NonPositiveSolutionError,
    NotConnectedError,
    PCMatrix,
    PcrankError,
    Partition,
    SingularMatrixError,
    build_arithmetic_system,
    fill_missing,
    solve_arithmetic,
)

from helpers import (
    arithmetic_residual,
    arithmetic_system_loops,
    entry_at,
    instances,
    is_defined,
    random_instance,
    ratio_rows,
    rng_for,
    rows_to_matrix,
)


def incomplete_3x3():
    # c01=2, c02=4, c12 missing; alternative 2 has known priority 1.
    return (
        PCMatrix(((1, 2, 4), (0.5, 1, MISSING), (0.25, MISSING, 1))),
        Partition(2, (1.0,)),
    )


class TestBuild:
    def test_incomplete_micro_instance(self):
        system = build_arithmetic_system(*incomplete_3x3())
        # Row 0 averages over 2 defined comparisons, row 1 over 1.
        assert np.array_equal(system.coeff, np.array([[1.0, -1.0], [-0.5, 1.0]]))
        assert np.array_equal(system.constants, np.array([2.0, 0.0]))
        assert system.row_denominators == (2, 1)

    def test_complete_consistent_micro_instance(self):
        # Ratios of (4, 2, 1): expanding w_i = mean of c_ij*w_j by hand gives
        # coefficients [[1, -1], [-1/4, 1]] and constants (2, 1).
        m = rows_to_matrix(ratio_rows([4.0, 2.0, 1.0]))
        system = build_arithmetic_system(m, Partition(2, (1.0,)))
        assert np.array_equal(system.coeff, np.array([[1.0, -1.0], [-0.25, 1.0]]))
        assert np.array_equal(system.constants, np.array([2.0, 1.0]))

    def test_single_unknown_pair(self):
        m = PCMatrix(((1, 3), (1 / 3, 1)))
        system = build_arithmetic_system(m, Partition(1, (5.0,)))
        assert np.array_equal(system.coeff, np.array([[1.0]]))
        assert np.array_equal(system.constants, np.array([15.0]))

    def test_reduces_to_complete_form(self):
        # On complete input every row denominator is n-1, entry-exact.
        rng = rng_for(41)
        for _ in range(20):
            matrix, partition, _ = random_instance(rng, incomplete=False)
            n, k = matrix.n, partition.k
            system = build_arithmetic_system(matrix, partition)
            expected_coeff = np.array(
                [
                    [
                        1.0 if i == j else -(entry_at(matrix, i, j) / float(n - 1))
                        for j in range(k)
                    ]
                    for i in range(k)
                ]
            )
            expected_constants = []
            for i in range(k):
                acc = 0.0
                for j in range(k, n):
                    acc += entry_at(matrix, i, j) * partition.known[j - k]
                expected_constants.append(acc / float(n - 1))
            assert np.array_equal(system.coeff, expected_coeff)
            assert np.array_equal(system.constants, np.array(expected_constants))
            assert system.row_denominators == (n - 1,) * k

    def test_missing_entries_zero_the_coefficient(self):
        matrix, partition = incomplete_3x3()
        system = build_arithmetic_system(matrix, partition)
        assert system.coeff[1][0] != 0.0
        # constants[1] must be zero: unknown 1 has no defined known comparison
        assert system.constants[1] == 0.0

    def test_structural_invariants_on_random_instances(self):
        rng = rng_for(47)
        for _ in range(25):
            matrix, partition, _ = random_instance(rng)
            n, k = matrix.n, partition.k
            system = build_arithmetic_system(matrix, partition)
            assert np.array_equal(np.diag(system.coeff), np.ones(k))
            for i in range(k):
                assert system.row_denominators[i] >= 1
                for j in range(k):
                    if i == j:
                        continue
                    if is_defined(matrix, i, j):
                        assert system.coeff[i][j] < 0.0
                    else:
                        assert system.coeff[i][j] == 0.0
                has_known_comparison = any(
                    is_defined(matrix, i, j) for j in range(k, n)
                )
                assert system.constants[i] >= 0.0
                assert (system.constants[i] == 0.0) == (not has_known_comparison)


@settings(max_examples=60, deadline=None)
@given(instances(max_n=12))
def test_system_matches_loop_reference_entry_for_entry(instance):
    matrix, partition, _ = instance
    system = build_arithmetic_system(matrix, partition)
    coeff, constants = arithmetic_system_loops(matrix, partition)
    assert np.array_equal(system.coeff, coeff)
    assert np.array_equal(system.constants, constants)


class TestSolve:
    def test_micro_instance(self):
        ranking = solve_arithmetic(*incomplete_3x3())
        assert ranking.values == pytest.approx((4.0, 2.0, 1.0), rel=1e-12)
        assert ranking.known == (1.0,)

    def test_single_equation(self):
        m = PCMatrix(((1, 3, MISSING), (1 / 3, 1, 0.5), (MISSING, 2, 1)))
        ranking = solve_arithmetic(m, Partition(1, (2.0, 4.0)))
        assert ranking.values[0] == pytest.approx(6.0, rel=1e-12)

    def test_decoupled_unknowns(self):
        m = PCMatrix(((1, MISSING, 2), (MISSING, 1, 4), (0.5, 0.25, 1)))
        ranking = solve_arithmetic(m, Partition(2, (1.0,)))
        assert ranking.values == pytest.approx((2.0, 4.0, 1.0), rel=1e-12)

    def test_exact_recovery_on_consistent_data(self):
        rng = rng_for(42)
        for _ in range(30):
            matrix, partition, v = random_instance(rng, consistent=True)
            ranking = solve_arithmetic(matrix, partition)
            for got, want in zip(ranking.computed, v):
                assert abs(got - want) <= 1e-10 * want

    def test_fixed_point_identity(self):
        rng = rng_for(43)
        for _ in range(40):
            matrix, partition, _ = random_instance(rng)
            try:
                ranking = solve_arithmetic(matrix, partition)
            except (NonPositiveSolutionError, SingularMatrixError):
                continue
            assert arithmetic_residual(matrix, partition.k, ranking.values) <= 1e-9

    def test_scale_equivariance(self):
        rng = rng_for(44)
        for gamma in (0.1, 7.0):
            matrix, partition, _ = random_instance(rng, n=6, k=3)
            base = solve_arithmetic(matrix, partition)
            scaled = solve_arithmetic(
                matrix, Partition(partition.k, tuple(gamma * w for w in partition.known))
            )
            for a, b in zip(scaled.computed, base.computed):
                assert abs(a - gamma * b) <= 1e-10 * abs(gamma * b)

    def test_completion_idempotence(self):
        rng = rng_for(45)
        for _ in range(20):
            matrix, partition, _ = random_instance(rng)
            try:
                ranking = solve_arithmetic(matrix, partition)
            except (NonPositiveSolutionError, SingularMatrixError):
                continue
            filled = fill_missing(matrix, ranking.values)
            again = solve_arithmetic(filled, partition)
            for a, b in zip(again.values, ranking.values):
                assert abs(a - b) <= 1e-9 * abs(b)

    def test_known_values_preserved_verbatim(self):
        rng = rng_for(46)
        matrix, partition, _ = random_instance(rng, n=7, k=4)
        ranking = solve_arithmetic(matrix, partition)
        assert ranking.known == partition.known


class TestFailureModes:
    def test_non_positive_solution(self):
        # A strong 9-9-9 preference cycle among the unknowns drives every
        # component of the solution negative.
        x = 9.0
        m = PCMatrix((
            (1, x, 1 / x, 1),
            (1 / x, 1, x, 1),
            (x, 1 / x, 1, 1),
            (1, 1, 1, 1),
        ))
        with pytest.raises(NonPositiveSolutionError):
            solve_arithmetic(m, Partition(3, (1.0,)))

    def test_singular_system(self):
        # The cycle strength solving x^2 - 3x + 1 = 0 zeroes out the row sums
        # of the coefficient matrix, making (1,1,1) a null vector.
        x = (3.0 + math.sqrt(5.0)) / 2.0
        m = PCMatrix((
            (1, x, 1 / x, 1),
            (1 / x, 1, x, 1),
            (x, 1 / x, 1, 1),
            (1, 1, 1, 1),
        ))
        with pytest.raises(SingularMatrixError):
            solve_arithmetic(m, Partition(3, (1.0,)))

    def test_guards_propagate(self):
        degenerate = PCMatrix((
            (1, MISSING, MISSING),
            (MISSING, 1, 2),
            (MISSING, 0.5, 1),
        ))
        with pytest.raises(DegenerateRowError):
            solve_arithmetic(degenerate, Partition(1, (2.0, 4.0)))
        island = PCMatrix((
            (1, 5, MISSING, MISSING),
            (0.2, 1, MISSING, MISSING),
            (MISSING, MISSING, 1, 2),
            (MISSING, MISSING, 0.5, 1),
        ))
        with pytest.raises(NotConnectedError):
            solve_arithmetic(island, Partition(2, (3.0, 1.5)))


@settings(max_examples=60, deadline=None)
@given(instances(max_n=12))
def test_system_ranking_is_solve_arithmetic(instance):
    # solve_arithmetic is the guard, then the builder, then .ranking.
    matrix, partition, _ = instance
    try:
        expected = solve_arithmetic(matrix, partition)
    except PcrankError as exc:  # e.g. a non-positive solution
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            build_arithmetic_system(matrix, partition).ranking(partition)
        return
    assert build_arithmetic_system(matrix, partition).ranking(partition) == expected
