import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pcrank import SingularMatrixError
from pcrank.linsolve import solve

from helpers import eliminate, rng_for


def test_identity():
    x = solve(np.eye(3), np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(x, np.array([1.0, 2.0, 3.0]))


def test_diagonal():
    x = solve(np.array([[2.0, 0.0], [0.0, 4.0]]), np.array([2.0, 8.0]))
    assert np.array_equal(x, np.array([1.0, 2.0]))


def test_zero_leading_pivot_is_handled_by_row_exchange():
    x = solve(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, 2.0]))
    assert x == pytest.approx([2.0, 1.0], abs=0)


def test_recovers_known_solution_and_residual_bound():
    # Forward-multiply oracle: build rhs from a known x, then ask for x back.
    rng = rng_for(101)
    for _ in range(30):
        m = rng.uniform(-1.0, 1.0, size=(8, 8)) + 8.0 * np.eye(8)
        x = rng.uniform(-5.0, 5.0, size=8)
        rhs = m @ x
        got = solve(m, rhs)
        assert np.abs(got - x).max() <= 1e-9
        residual = np.abs(m @ got - rhs).max()
        assert residual <= 1e-10 * (1.0 + np.abs(rhs).max())


def test_equation_order_does_not_matter():
    rng = rng_for(202)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        m = rng.uniform(-1.0, 1.0, size=(n, n)) + n * np.eye(n)
        rhs = rng.uniform(-3.0, 3.0, size=n)
        base = solve(m, rhs)
        perm = rng.permutation(n)
        shuffled = solve(m[perm], rhs[perm])
        assert np.abs(shuffled - base).max() <= 1e-12 * max(1.0, np.abs(base).max())


def test_deterministic():
    rng = rng_for(303)
    m = rng.uniform(-1.0, 1.0, size=(5, 5)) + 5.0 * np.eye(5)
    rhs = rng.uniform(-1.0, 1.0, size=5)
    first = solve(m, rhs)
    second = solve(m, rhs)
    assert np.array_equal(first, second)


def test_all_zero_matrix_is_singular():
    with pytest.raises(SingularMatrixError):
        solve(np.zeros((3, 3)), np.zeros(3))


def test_duplicated_row_is_singular():
    m = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [1.0, 2.0, 3.0]])
    with pytest.raises(SingularMatrixError):
        solve(m, np.array([1.0, 2.0, 3.0]))


def test_pivot_tolerance_is_scale_aware():
    # Tiny but perfectly well-conditioned systems must still solve.
    m = 1e-8 * np.eye(2)
    x = solve(m, np.array([1e-8, 2e-8]))
    assert x == pytest.approx([1.0, 2.0], rel=1e-12)


def test_ill_conditioned_matrix_is_singular():
    # Nonsingular in exact arithmetic, but its 1-norm condition number is 4e14.
    m = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
    with pytest.raises(SingularMatrixError, match="condition number"):
        solve(m, np.array([1.0, 2.0]))


def test_overflowing_solution_is_singular():
    m = 1e-300 * np.eye(2)
    with pytest.raises(SingularMatrixError, match="overflow"):
        solve(m, np.array([1e300, 1.0]))


@pytest.mark.parametrize(
    "m,rhs",
    [
        pytest.param([[1.0, np.inf], [0.0, 1.0]], [1.0, 1.0], id="matrix"),
        pytest.param([[1.0, 0.0], [0.0, 1.0]], [np.inf, 1.0], id="rhs"),
        pytest.param([[1.0, 0.0], [np.nan, 1.0]], [1.0, 1.0], id="matrix-nan"),
        pytest.param([[1.0, 0.0], [0.0, 1.0]], [1.0, np.nan], id="rhs-nan"),
    ],
)
def test_non_finite_entries_are_singular(m, rhs):
    with pytest.raises(SingularMatrixError, match="non-finite"):
        solve(np.array(m), np.array(rhs))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            ),
            st.lists(st.floats(-4.0, 4.0, allow_nan=False), min_size=n, max_size=n),
        )
    )
)
def test_round_trip_on_diagonally_dominant_systems(data):
    body, x = data
    n = len(x)
    m = np.array(body) + 2.0 * n * np.eye(n)
    x = np.array(x)
    got = solve(m, m @ x)
    scale = max(1.0, float(np.abs(x).max()))
    assert np.abs(got - x).max() <= 1e-9 * scale


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=12).flatmap(
        lambda n: st.tuples(
            arrays(float, (n, n), elements=st.floats(-1.0, 1.0)),
            arrays(float, n, elements=st.floats(-4.0, 4.0)),
        )
    )
)
def test_matches_elimination_reference(data):
    body, rhs = data
    n = len(rhs)
    m = body + 2.0 * n * np.eye(n)
    reference = eliminate(m, rhs)
    got = solve(m, rhs)
    scale = max(1.0, float(np.abs(reference).max()))
    assert np.abs(got - reference).max() <= 1e-10 * scale
