import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pcrank import (
    NonPositiveSolutionError,
    Partition,
    SingularMatrixError,
    build_arithmetic_system,
    build_geometric_system,
)
from pcrank.linsolve import MAX_CONDITION, _certified_condition, solve

from helpers import drop_pairs, eliminate, perturbed_rows, rng_for, rows_to_matrix


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


# --- The M-matrix certificate for the condition number ---------------------


@st.composite
def noisy_instances(draw, max_n: int = 8):
    """A guarded (matrix, partition) with each judgment nudged by a factor of
    up to 4-9 either way and at least 3 unknowns (with 2, rho(B) <= 1), so
    that arithmetic systems fall on both sides of rho(B) = 1."""
    n = draw(st.integers(min_value=4, max_value=max_n))
    k = draw(st.integers(min_value=3, max_value=n - 1))
    spread = draw(st.floats(min_value=4.0, max_value=9.0))
    rng = rng_for(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    v = rng.uniform(0.2, 5.0, size=n)
    rows = drop_pairs(perturbed_rows(v, rng, 1.0 / spread, spread), k, rng, 0.5)
    return rows_to_matrix(rows), Partition(k, tuple(float(x) for x in v[k:]))


@st.composite
def m_matrices(draw, max_k: int = 8):
    """D - N with N >= 0 and D chosen so that (D - N) y > 0 for a positive y:
    a nonsingular M-matrix by semipositivity."""
    k = draw(st.integers(min_value=1, max_value=max_k))
    off = draw(arrays(float, (k, k), elements=st.floats(0.0, 1.0)))
    np.fill_diagonal(off, 0.0)
    y = draw(arrays(float, k, elements=st.floats(0.1, 10.0)))
    margin = draw(st.floats(min_value=1e-2, max_value=1.0))
    diagonal = (off @ y / y) * (1.0 + margin) + margin
    return np.diag(diagonal) - off


@st.composite
def spectral_systems(draw, max_k: int = 7):
    """I - B for a B >= 0 with zero diagonal, scaled to a spectral radius
    drawn from [0.2, 1.8] (left at 0 when B is nilpotent)."""
    k = draw(st.integers(min_value=1, max_value=max_k))
    b = draw(arrays(float, (k, k), elements=st.floats(0.0, 1.0)))
    # Entries of 1e-3 or more keep a cycle's spectral radius at 1e-3 or more,
    # so the scaling below stays within a factor of 1800.
    b[b < 1e-3] = 0.0
    np.fill_diagonal(b, 0.0)
    rho = float(np.abs(np.linalg.eigvals(b)).max())
    if rho > 0.0:
        b *= draw(st.floats(min_value=0.2, max_value=1.8)) / rho
    return np.eye(k) - b


def assert_matches_numpy(matrix):
    certified = _certified_condition(matrix)
    assert certified is not None
    assert certified == pytest.approx(float(np.linalg.cond(matrix, 1)), rel=1e-10)


@settings(max_examples=100, deadline=None)
@given(noisy_instances())
def test_certified_condition_matches_numpy_on_both_systems(instance):
    matrix, partition = instance
    # The geometric matrix is a connected, diagonally dominant Z-matrix:
    # always certified.
    assert_matches_numpy(build_geometric_system(matrix, partition).coeff)
    coeff = build_arithmetic_system(matrix, partition).coeff
    if _certified_condition(coeff) is not None:
        assert_matches_numpy(coeff)


@settings(max_examples=100, deadline=None)
@given(m_matrices())
def test_certified_condition_matches_numpy_on_m_matrices(matrix):
    assert_matches_numpy(matrix)


def spectral_radius_of_b(matrix) -> float | None:
    """rho(B) for ``matrix = I - B``, or None when the draw is too close to
    call: rho(B) within 1e-9 of 1, or the matrix beyond the gate, where the
    rounding error of ``A.T @ z`` can exceed the 1 it should equal."""
    rho = float(np.abs(np.linalg.eigvals(np.eye(len(matrix)) - matrix)).max())
    if abs(rho - 1.0) < 1e-9 or not np.linalg.cond(matrix, 1) <= MAX_CONDITION:
        return None
    return rho


@settings(max_examples=200, deadline=None)
@given(spectral_systems())
def test_certificate_holds_exactly_below_spectral_radius_one(matrix):
    rho = spectral_radius_of_b(matrix)
    if rho is not None:
        assert (_certified_condition(matrix) is not None) == (rho < 1.0)


@settings(max_examples=100, deadline=None)
@given(noisy_instances())
def test_certificate_decides_arithmetic_positivity(instance):
    # rho(B) < 1 iff certified; certified systems rank positive, and the
    # others (when solvable) leave the positive orthant.
    matrix, partition = instance
    system = build_arithmetic_system(matrix, partition)
    rho = spectral_radius_of_b(system.coeff)
    if rho is None:
        return
    assert (_certified_condition(system.coeff) is not None) == (rho < 1.0)
    if rho < 1.0:
        assert all(value > 0.0 for value in system.ranking(partition).values)
    else:
        with pytest.raises(NonPositiveSolutionError):
            system.ranking(partition)


def test_nearly_singular_m_matrix_fails_the_gate():
    m = np.array([[1.0, -1.0], [-1.0, 1.0 + 1e-14]])
    assert _certified_condition(m) > MAX_CONDITION
    with pytest.raises(SingularMatrixError, match="condition number"):
        solve(m, np.array([1.0, 2.0]))


def test_positive_z_alone_is_no_certificate(monkeypatch):
    # Rounding can return a positive z that does not solve A.T @ z = 1; only
    # A.T @ z > 0 makes it a certificate. Here A.T @ (1, 1) = (1, -1).
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.ones(2))
    assert _certified_condition(np.array([[1.0, -2.0], [0.0, 1.0]])) is None


def test_all_zero_matrix_reports_an_infinite_condition_number():
    with pytest.raises(SingularMatrixError, match="condition number inf exceeds"):
        solve(np.zeros((3, 3)), np.zeros(3))


@pytest.fixture
def cond_calls(monkeypatch):
    calls = []
    original = np.linalg.cond

    def counting(matrix, p=None):
        calls.append(p)
        return original(matrix, p)

    monkeypatch.setattr(np.linalg, "cond", counting)
    return calls


def test_z_matrix_without_certificate_falls_back(cond_calls):
    # -I is a Z-matrix, but -I.T z = 1 gives z = -1.
    assert _certified_condition(-np.eye(3)) is None
    x = solve(-np.eye(3), np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(x, np.array([-1.0, -2.0, -3.0]))
    assert cond_calls == [1]


def test_non_z_matrix_falls_back(cond_calls):
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert _certified_condition(m) is None
    solve(m, np.array([1.0, 1.0]))
    assert cond_calls == [1]


def test_certified_matrix_skips_the_inverse(cond_calls):
    m = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    assert _certified_condition(m) == pytest.approx(np.linalg.cond(m, 1), rel=1e-14)
    cond_calls.clear()
    x = solve(m, np.array([1.0, 0.0, 1.0]))
    assert x == pytest.approx([1.0, 1.0, 1.0], rel=1e-14)
    assert cond_calls == []
