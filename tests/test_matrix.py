import math
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcrank import (
    MISSING,
    PcrankError,
    KnownComparisonWarning,
    DegenerateRowError,
    NotConnectedError,
    PCMatrix,
    Partition,
    Ranking,
    ReciprocityError,
    SingularMatrixError,
    StructureError,
    check_connectivity,
    check_consistency,
    diagnose,
    ensure_solvable,
    fill_missing,
    solve_arithmetic,
    solve_geometric,
    undefined_counts,
    validate_reciprocity,
)
from helpers import (
    drop_pairs,
    entry_at,
    instances,
    is_defined,
    pcmatrix_error_loops,
    perturbed_rows,
    random_instance,
    ratio_rows,
    rng_for,
    rows_to_matrix,
    triad_deviations_loops,
    unknowns_reach_knowns,
)

positive = st.floats(min_value=0.1, max_value=10.0, allow_nan=False, allow_infinity=False)
vectors = st.lists(positive, min_size=2, max_size=7)


@st.composite
def checked_rows(draw):
    """Nested rows for the construction checks: mostly 1, ratios and missing
    cells, and in one draw of two also zero, negative and non-finite cells."""
    n = draw(st.integers(min_value=1, max_value=5))
    cells = [1.0, 1.0, 1.0, 2.0, 0.5, MISSING, MISSING]
    if draw(st.booleans()):
        cells += [0.0, -1.0, math.inf, math.nan]
    cell = st.sampled_from(cells)
    return [[draw(cell) for _ in range(n)] for _ in range(n)]


def _outcome(solve, matrix, partition):
    try:
        return solve(matrix, partition).values
    except PcrankError as exc:
        return str(exc)


class TestConstruction:
    def test_normalizes_to_float_tuples(self):
        m = PCMatrix(([1, 2], [0.5, 1],))
        assert m.entries == ((1.0, 2.0), (0.5, 1.0))
        assert m.n == 2 and m.is_complete

    def test_asymmetric_missingness_rejected(self):
        with pytest.raises(StructureError, match="asymmetric"):
            PCMatrix(((1, 3), (MISSING, 1)))

    def test_missing_diagonal_rejected(self):
        with pytest.raises(StructureError, match="diagonal"):
            PCMatrix(((MISSING, 2), (0.5, 1)))

    def test_non_unit_diagonal_rejected(self):
        with pytest.raises(StructureError, match="diagonal"):
            PCMatrix(((2, 2), (0.5, 1)))

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_nonpositive_or_nonfinite_rejected(self, bad):
        with pytest.raises(StructureError):
            PCMatrix(((1, bad), (1, 1)))

    def test_ragged_rejected(self):
        with pytest.raises(StructureError):
            PCMatrix(((1, 2), (0.5, 1, 3)))

    def test_array_and_mask_are_read_only_views(self):
        m = PCMatrix(((1, 2, MISSING), (0.5, 1, 4), (MISSING, 0.25, 1)))
        assert m.array.dtype == np.float64 and math.isnan(m.array[0, 2])
        assert m.array[1, 2] == 4.0
        assert m.mask.tolist() == [[True, True, False], [True, True, True], [False, True, True]]
        with pytest.raises(ValueError):
            m.array[0, 1] = 3.0
        with pytest.raises(ValueError):
            m.mask[0, 2] = True

    @pytest.mark.parametrize(
        "rows",
        [
            [[1.0, 0.0], [1.0, 1.0]],
            [[1.0, -1.0], [1.0, 1.0]],
            [[1.0, 2.0], [math.inf, 1.0]],
            [[1.0, 2.0], [0.5, MISSING]],
            [[2.0, 2.0], [0.5, 1.0]],
            [[1.0, 3.0], [MISSING, 1.0]],
            [[1.0, 2.0, 3.0], [0.5, 1.0, 1.0]],
        ],
        ids=["zero", "negative", "inf", "missing-diagonal", "non-unit-diagonal", "asymmetric", "non-square"],
    )
    def test_array_form_rejects_with_nested_message(self, rows):
        with pytest.raises(StructureError) as nested:
            PCMatrix(rows)
        with pytest.raises(StructureError) as array:
            PCMatrix(np.array(rows, dtype=float))  # MISSING becomes NaN
        assert str(array.value) == str(nested.value)

    @settings(max_examples=60, deadline=None)
    @given(instances())
    def test_array_form_equals_nested_form(self, instance):
        m, _, _ = instance
        again = PCMatrix(m.array)
        assert again == m and PCMatrix(m.entries) == m
        assert hash(again) == hash(m) and repr(again) == repr(m)
        assert again.entries == m.entries
        assert np.array_equal(again.mask, m.mask)

    def test_array_form_copies_its_input(self):
        grid = np.array([[1.0, 2.0, np.nan], [0.5, 1.0, 4.0], [np.nan, 0.25, 1.0]])
        m = PCMatrix(grid)
        grid[0, 1], grid[0, 2] = 7.0, 3.0
        assert entry_at(m, 0, 1) == 2.0 and not is_defined(m, 0, 2)
        assert m == PCMatrix(((1, 2, MISSING), (0.5, 1, 4), (MISSING, 0.25, 1)))

    def test_missing_pairs_listed(self):
        m = PCMatrix(((1, 2, MISSING), (0.5, 1, 4), (MISSING, 0.25, 1)))
        assert m.missing_pairs() == [(0, 2)]
        assert not m.is_complete

    @pytest.mark.parametrize(
        "rows,message",
        [
            (
                [[1.0, 2.0, 0.5], [0.5, 3.0, 2.0], [-1.0, 0.5, 1.0]],
                "diagonal entry (1,1) must be 1, got 3.0",
            ),
            (
                [[1.0, 2.0, 0.0], [0.5, 3.0, 2.0], [2.0, 0.5, 1.0]],
                "entry (0,2) must be a positive finite number, got 0.0",
            ),
            (
                [[1.0, 2.0, 0.5], [math.inf, MISSING, 2.0], [2.0, 0.5, 1.0]],
                "entry (1,0) must be a positive finite number, got inf",
            ),
            (
                [[1.0, MISSING, 0.5], [MISSING, MISSING, -2.0], [2.0, 0.5, 1.0]],
                "diagonal entry (1,1) cannot be missing",
            ),
        ],
        ids=["diagonal-first", "off-diagonal-first", "off-diagonal-before-missing-diagonal",
             "missing-diagonal-first"],
    )
    def test_first_bad_cell_in_row_major_order(self, rows, message):
        for entries in (rows, np.array(rows, dtype=float)):
            with pytest.raises(StructureError) as err:
                PCMatrix(entries)
            assert str(err.value) == message

    @pytest.mark.parametrize(
        "missing,pair",
        [([(3, 1), (0, 2)], (0, 2)), ([(2, 0), (1, 3)], (0, 2)), ([(3, 2), (1, 3)], (1, 3))],
        ids=["upper-cell-first", "lower-cell-first", "second-row"],
    )
    def test_first_asymmetric_pair_in_row_major_order(self, missing, pair):
        rows = ratio_rows([1.0, 2.0, 3.0, 4.0])
        for i, j in missing:
            rows[i][j] = MISSING
        i, j = pair
        message = f"asymmetric missingness: exactly one of ({i},{j}) and ({j},{i}) is missing"
        for entries in (rows, np.array(rows, dtype=float)):
            with pytest.raises(StructureError) as err:
                PCMatrix(entries)
            assert str(err.value) == message

    @settings(max_examples=300, deadline=None)
    @given(checked_rows())
    def test_construction_errors_match_loop_reference(self, rows):
        """Nested rows, and their array form when no cell is NaN, fail with
        the reference's message, or build when it finds nothing."""
        expected = pcmatrix_error_loops(rows)
        forms = [rows]
        if not any(v is not MISSING and math.isnan(v) for row in rows for v in row):
            forms.append(np.array(rows, dtype=float))
        for entries in forms:
            if expected is None:
                assert PCMatrix(entries).entries == tuple(map(tuple, rows))
            else:
                with pytest.raises(StructureError) as err:
                    PCMatrix(entries)
                assert str(err.value) == expected

    @settings(max_examples=40, deadline=None)
    @given(instances(max_n=16))
    def test_memory_layout_does_not_change_rankings(self, instance):
        """An F-ordered array ranks bit for bit as its C-ordered copy, by
        both methods; the stored array is C-ordered either way."""
        m, partition, _ = instance
        c_form, f_form = PCMatrix(np.ascontiguousarray(m.array)), PCMatrix(np.asfortranarray(m.array))
        assert c_form.array.flags.c_contiguous and f_form.array.flags.c_contiguous
        for solve in (solve_arithmetic, solve_geometric):
            assert _outcome(solve, f_form, partition) == _outcome(solve, c_form, partition)


class TestReciprocity:
    def test_exact_reciprocals_with_missing_pair(self):
        m = PCMatrix(((1, 2, MISSING), (0.5, 1, 3), (MISSING, 1 / 3, 1)))
        assert validate_reciprocity(m, 1e-9) == []

    def test_violation_reported_with_values(self):
        m = PCMatrix(((1, 2), (0.6, 1)))
        assert validate_reciprocity(m, 1e-9) == [(0, 1, 2.0, 0.6)]

    def test_random_ratio_matrix_is_reciprocal(self):
        rng = rng_for(7)
        v = rng.uniform(0.2, 5.0, size=6)
        assert validate_reciprocity(rows_to_matrix(ratio_rows(v)), 1e-9) == []

    def test_violations_in_row_major_pair_order(self):
        rows = ratio_rows([1.0, 2.0, 3.0, 4.0, 5.0])
        for i, j in [(4, 3), (3, 0), (2, 1), (1, 0)]:
            rows[i][j] *= 1.5
        m = rows_to_matrix(rows)
        expected = [(i, j, rows[i][j], rows[j][i]) for i, j in [(0, 1), (0, 3), (1, 2), (3, 4)]]
        assert validate_reciprocity(m) == expected
        with pytest.raises(ReciprocityError) as err:
            ensure_solvable(m, Partition(4, (5.0,)))
        assert err.value.violations == tuple(expected)

    def test_reciprocal_matrix_gives_an_empty_list(self):
        assert validate_reciprocity(rows_to_matrix(ratio_rows([1.0, 3.0, 7.0]))) == []


class TestConsistency:
    def test_ratio_matrix_is_consistent(self):
        m = rows_to_matrix(ratio_rows([4.0, 2.0, 1.0, 0.5]))
        assert check_consistency(m, 1e-9) == []

    def test_single_bad_triad(self):
        # c_01=2, c_02=2, c_20=2 so the indirect product is 4 against 2.
        m = PCMatrix(((1, 2, 2), (0.5, 1, 0.5), (0.5, 2, 1)))
        assert check_consistency(m, 1e-9) == [(0, 1, 2, 1.0)]

    def test_triads_touching_missing_pair_are_skipped(self):
        # Every upper entry gets a different prime factor, so every fully
        # defined triad violates transitivity by a comfortable margin.
        primes = iter([2.0, 3.0, 5.0, 7.0, 11.0, 13.0])
        rows = ratio_rows([1.0, 1.0, 1.0, 1.0])
        for i in range(4):
            for j in range(i + 1, 4):
                rows[i][j] = next(primes)
                rows[j][i] = 1.0 / rows[i][j]
        rows[0][1] = rows[1][0] = MISSING
        m = rows_to_matrix(rows)

        fully_defined = sum(
            1
            for a, b, c in combinations(range(4), 3)
            if all(is_defined(m, x, y) for x, y in [(a, b), (a, c), (b, c)])
        )
        assert fully_defined == 2
        assert len(check_consistency(m, 1e-9)) == fully_defined


@settings(max_examples=60, deadline=None)
@given(instances(max_n=12), st.sampled_from([1e-9, 0.2, 0.6, 1.5]))
def test_triad_scan_matches_loop_reference(instance, tol):
    matrix, _, _ = instance
    assert check_consistency(matrix, tol) == triad_deviations_loops(matrix, tol)


def test_triad_scan_matches_loop_reference_at_n40():
    # Long per-i blocks, noisy judgments and missing pairs.
    matrix, _, _ = random_instance(rng_for(40), n=40, k=36, max_density=0.3)
    assert not matrix.is_complete
    for tol in (1e-9, 0.2, 0.6):
        assert check_consistency(matrix, tol) == triad_deviations_loops(matrix, tol)


# The pair (0, 2) is missing: only the triads (0, 1, 3) and (1, 2, 3) are examined.
FOUR_WITH_A_GAP = PCMatrix(
    ((1, 2, MISSING, 5), (0.5, 1, 3, 0.25), (MISSING, 1 / 3, 1, 7), (0.2, 4, 1 / 7, 1))
)


@pytest.mark.parametrize("n", [0, 1, 2, 4])
def test_triad_columns_types(n):
    matrix = FOUR_WITH_A_GAP if n == 4 else PCMatrix(np.ones((n, n)))
    columns = diagnose(matrix).triad_columns
    assert [column.dtype for column in columns] == [np.intp, np.intp, np.intp, np.float64]
    assert not any(column.flags.writeable for column in columns)
    assert [column.shape for column in columns] == [(2 if n == 4 else 0,)] * 4


def _scan_is_the_reference(matrix, tol):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflowing product must stay silent
        scanned = check_consistency(matrix, tol)
    assert scanned == triad_deviations_loops(matrix, tol)
    assert list(diagnose(matrix, tol=tol).triad_deviations) == scanned
    return scanned


@pytest.mark.parametrize("tol", [0.0, 1e-9, 0.5, math.inf])
def test_triad_scan_hand_built_cases(tol):
    listed = _scan_is_the_reference(FOUR_WITH_A_GAP, tol)
    assert [row[:3] for row in listed] == ([] if tol == math.inf else [(0, 1, 3), (1, 2, 3)])
    # c_02 * c_21 = 1e200 * 1e200 overflows: the deviation is inf, and listed.
    overflow = PCMatrix(((1, 1, 1e200), (1, 1, 1e-200), (1e-200, 1e200, 1)))
    listed = _scan_is_the_reference(overflow, tol)
    assert listed == ([] if tol == math.inf else [(0, 1, 2, math.inf)])
    # check scans non-reciprocal input too: c_kj is read as given, never as 1 / c_jk,
    # and a pair with j == i (c_ii = 1 against c_ik * c_ki != 1) is no triad.
    skewed = PCMatrix(np.array([[1.0, 2, 3, 5], [7, 1, 11, 13], [17, 19, 1, 23], [29, 31, 37, 1]]))
    assert len(_scan_is_the_reference(skewed, tol)) == (0 if tol == math.inf else 4)


@settings(max_examples=60, deadline=None)
@given(vectors)
def test_ratio_matrices_pass_both_checks(v):
    m = rows_to_matrix(ratio_rows(v))
    assert validate_reciprocity(m, 1e-9) == []
    assert check_consistency(m, 1e-9) == []


class TestUndefinedCounts:
    def test_complete_matrix(self):
        m = rows_to_matrix(ratio_rows([5.0, 4.0, 3.0, 2.0, 1.0]))
        assert undefined_counts(m) == (0, 0, 0, 0, 0)

    def test_single_missing_pair(self):
        m = PCMatrix(((1, 2, MISSING), (0.5, 1, 4), (MISSING, 0.25, 1)))
        assert undefined_counts(m) == (1, 0, 1)

    def test_fully_undefined_row(self):
        m = PCMatrix((
            (1, MISSING, MISSING, MISSING),
            (MISSING, 1, 2, 3),
            (MISSING, 0.5, 1, 4),
            (MISSING, 1 / 3, 0.25, 1),
        ))
        assert undefined_counts(m)[0] == 3

    def test_sum_is_even(self):
        rng = rng_for(11)
        for _ in range(25):
            n = int(rng.integers(3, 9))
            rows = drop_pairs(ratio_rows(rng.uniform(0.2, 5.0, size=n)), 1, rng)
            assert sum(undefined_counts(rows_to_matrix(rows))) % 2 == 0


class TestConnectivity:
    def test_complete_matrix_any_partition(self):
        m = rows_to_matrix(ratio_rows([5.0, 4.0, 3.0, 2.0, 1.0]))
        for k in range(1, 5):
            ok, isolated = check_connectivity(m, Partition(k, tuple(range(1, 6 - k))))
            assert ok and isolated == []

    def test_unknown_island(self):
        m = PCMatrix((
            (1, 5, MISSING, MISSING),
            (0.2, 1, MISSING, MISSING),
            (MISSING, MISSING, 1, 2),
            (MISSING, MISSING, 0.5, 1),
        ))
        assert check_connectivity(m, Partition(2, (3.0, 1.5))) == (False, [0, 1])

    def test_chain_through_unknowns(self):
        # a0-a1 and a1-a2 defined; a2 known, a3 known but fully unjudged.
        m = PCMatrix((
            (1, 2, MISSING, MISSING),
            (0.5, 1, 4, MISSING),
            (MISSING, 0.25, 1, MISSING),
            (MISSING, MISSING, MISSING, 1),
        ))
        assert check_connectivity(m, Partition(2, (1.0, 2.0))) == (True, [])
        assert unknowns_reach_knowns([list(r) for r in m.entries], 2)

    def test_matches_bfs_oracle_on_random_instances(self):
        rng = rng_for(13)
        for _ in range(50):
            n = int(rng.integers(3, 9))
            k = int(rng.integers(1, n))
            rows = ratio_rows(rng.uniform(0.2, 5.0, size=n))
            # Unconstrained random drops, so disconnection does happen.
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.5:
                        rows[i][j] = rows[j][i] = MISSING
            m = rows_to_matrix(rows)
            ok, isolated = check_connectivity(m, Partition(k, tuple(range(1, n - k + 1))))
            assert ok == unknowns_reach_knowns(rows, k)
            assert ok == (isolated == [])


class TestEnsureSolvable:
    def test_reciprocity_checked_first(self):
        m = PCMatrix((
            (1, 2, MISSING),
            (0.6, 1, 4),
            (MISSING, 0.25, 1),
        ))
        with pytest.raises(ReciprocityError):
            ensure_solvable(m, Partition(2, (1.0,)))

    def test_degenerate_row_beats_connectivity(self):
        # A fully unjudged unknown is both degenerate and disconnected; the
        # cheaper, more specific degenerate-row error must win.
        m = PCMatrix((
            (1, MISSING, MISSING),
            (MISSING, 1, 2),
            (MISSING, 0.5, 1),
        ))
        with pytest.raises(DegenerateRowError) as err:
            ensure_solvable(m, Partition(1, (2.0, 4.0)))
        assert err.value.rows == (0,)

    def test_not_connected(self):
        m = PCMatrix((
            (1, 5, MISSING, MISSING),
            (0.2, 1, MISSING, MISSING),
            (MISSING, MISSING, 1, 2),
            (MISSING, MISSING, 0.5, 1),
        ))
        with pytest.raises(NotConnectedError) as err:
            ensure_solvable(m, Partition(2, (3.0, 1.5)))
        assert err.value.isolated == (0, 1)

    def test_known_comparison_mismatch_warns(self):
        # Knowns are 2 and 4, so c(known1, known2) should be 0.5, not 7.
        m = PCMatrix((
            (1, 3, 3),
            (1 / 3, 1, 7),
            (1 / 3, 1 / 7, 1),
        ))
        with pytest.warns(KnownComparisonWarning):
            ensure_solvable(m, Partition(1, (2.0, 4.0)))

    def test_matching_known_comparisons_are_silent(self):
        m = PCMatrix((
            (1, 3, 3),
            (1 / 3, 1, 0.5),
            (1 / 3, 2, 1),
        ))
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ensure_solvable(m, Partition(1, (2.0, 4.0)))

    def test_size_mismatch(self):
        m = PCMatrix(((1, 2), (0.5, 1)))
        with pytest.raises(StructureError):
            ensure_solvable(m, Partition(2, (1.0,)))

    def test_degenerate_rows_in_index_order(self):
        # Unknowns 0 and 3 have no comparison; known 5 has none either, and
        # is not listed.  Unknowns 1 and 2 reach known 4.
        rows = [[MISSING] * 6 for _ in range(6)]
        for i in range(6):
            rows[i][i] = 1.0
        for i, j in [(1, 4), (2, 4), (1, 2)]:
            rows[i][j], rows[j][i] = 2.0, 0.5
        with pytest.raises(DegenerateRowError) as err:
            ensure_solvable(rows_to_matrix(rows), Partition(4, (1.0, 2.0)))
        assert err.value.rows == (0, 3)
        assert str(err.value) == "unknown alternative(s) [0, 3] have no defined comparisons"


class TestFillMissing:
    def test_fills_with_value_ratios(self):
        m = PCMatrix(((1, 2, MISSING), (0.5, 1, MISSING), (MISSING, MISSING, 1)))
        filled = fill_missing(m, (4.0, 2.0, 1.0))
        assert entry_at(filled, 0, 2) == 4.0
        assert entry_at(filled, 2, 0) == 0.25
        assert entry_at(filled, 1, 2) == 2.0
        assert filled.is_complete
        # defined entries untouched
        assert entry_at(filled, 0, 1) == 2.0

    def test_complete_matrix_unchanged(self):
        m = rows_to_matrix(ratio_rows([3.0, 2.0, 1.0]))
        assert fill_missing(m, (9.0, 5.0, 1.0)).entries == m.entries

    def test_ratio_out_of_float_range_is_singular(self):
        m = PCMatrix(((1, MISSING), (MISSING, 1)))
        with pytest.raises(SingularMatrixError):
            fill_missing(m, (1e200, 1e-200))

    def test_rejects_bad_values(self):
        m = PCMatrix(((1, MISSING), (MISSING, 1)))
        with pytest.raises(StructureError):
            fill_missing(m, (1.0,))
        with pytest.raises(StructureError):
            fill_missing(m, (1.0, -2.0))


class TestTypes:
    def test_partition_validation(self):
        with pytest.raises(StructureError):
            Partition(0, (1.0,))
        with pytest.raises(StructureError):
            Partition(2, ())
        with pytest.raises(StructureError):
            Partition(1, (0.0,))
        p = Partition(2, (3, 1))
        assert p.n == 4 and p.known == (3.0, 1.0)

    def test_partition_accepts_numpy_integers(self):
        p = Partition(np.int64(2), (1.0,))
        assert p.k == 2 and type(p.k) is int and p.n == 3
        with pytest.raises(StructureError, match=r"^k must be an integer, got 2\.0$"):
            Partition(2.0, (1.0,))

    def test_ranking_takes_k_as_an_index(self):
        r = Ranking((1.0, 2.0), np.int64(1))
        assert r.k == 1 and type(r.k) is int and r.computed == (1.0,)
        for k in (0, 2):  # all known, all computed
            assert Ranking((1.0, 2.0), k).k == k
        with pytest.raises(TypeError):
            Ranking((1.0, 2.0), 1.5)

    def test_ranking_slices_and_normalization(self):
        r = Ranking((4.0, 2.0, 1.0), k=2)
        assert r.n == 3
        assert r.computed == (4.0, 2.0)
        assert r.known == (1.0,)
        norm = r.normalized()
        assert norm.values == pytest.approx((4 / 7, 2 / 7, 1 / 7), rel=1e-15)
        assert sum(norm.values) == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(StructureError):
            Ranking((1.0, -1.0), k=1)

    def test_normalization_at_the_ends_of_the_float_range(self):
        # The sum overflows; scaling by a power of two is exact, so the result
        # is bit for bit that of the same values scaled down beforehand.
        big = Ranking((1.5e308, 1e308, 5e307), k=1)
        scaled = Ranking(tuple(v / 2**10 for v in big.values), k=1)
        assert big.normalized() == scaled.normalized()
        assert sum(big.normalized().values) == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(SingularMatrixError, match="float range"):
            Ranking((1.0, 1e300, 1e-30), k=1).normalized()

    def test_diagnose_bundles_everything(self):
        m = PCMatrix(((1, 2, MISSING), (0.5, 1, 4), (MISSING, 0.25, 1)))
        report = diagnose(m, Partition(2, (1.0,)))
        assert report.reciprocity_violations == ()
        assert report.undefined_counts == (1, 0, 1)
        assert report.connectivity_ok is True
        assert report.triad_deviations == ()
        assert report.clean

    def test_diagnostics_compare_and_hash_by_value(self):
        m = rows_to_matrix(perturbed_rows([1.0, 2.0, 3.0, 4.0, 5.0], rng_for(5)))
        partition = Partition(4, (5.0,))
        first, second = diagnose(m, partition), diagnose(m, partition)
        assert first == second and hash(first) == hash(second)
        assert len({first, second}) == 1
        assert first != diagnose(m, partition, tol=10.0)
        assert len(first.triad_deviations) > 1

    def test_diagnose_without_partition_skips_connectivity(self):
        m = PCMatrix(((1, 2), (0.5, 1)))
        report = diagnose(m)
        assert report.connectivity_ok is None
        assert report.clean


NO_KNOWN = "no known priorities declared; ranking needs at least one fixed alternative"
NO_UNKNOWN = "every alternative already has a known priority; nothing to compute"
# One number rule for known priorities, ranking and fill values: a bool is
# rejected and shown as given, any number ``float`` reads is shown as its float.
NUMBER_RULE = [(True, "True"), (np.True_, repr(np.True_)), (-1, "-1.0"), (np.int64(-1), "-1.0")]


class TestInputRuleMessages:
    """Each input rule is checked in one place; these pin its message and
    where it ranks among the other checks."""

    @pytest.mark.parametrize(
        "k,known,message",
        [
            pytest.param(0, (), NO_KNOWN, id="no-known-before-k"),
            pytest.param(2, (), NO_KNOWN, id="no-known"),
            pytest.param(0, (1.0,), NO_UNKNOWN, id="no-unknown"),
            pytest.param(2.0, (1.0,), "k must be an integer, got 2.0", id="float-k"),
            pytest.param(
                0, (1.0, -1.0), "known priority #1 must be positive and finite, got -1.0",
                id="bad-value-before-k",
            ),
            pytest.param(
                1, (math.nan,), "known priority #0 must be positive and finite, got nan", id="nan"
            ),
            pytest.param(
                1, ("a",), "known priority #0 must be positive and finite, got 'a'", id="string"
            ),
            pytest.param(
                1, (None,), "known priority #0 must be positive and finite, got None", id="none"
            ),
            *[
                pytest.param(
                    1, (given,), f"known priority #0 must be positive and finite, got {shown}",
                    id=f"number-rule-{given!r}",
                )
                for given, shown in NUMBER_RULE
            ],
        ],
    )
    def test_partition_messages_in_order(self, k, known, message):
        with pytest.raises(StructureError) as got:
            Partition(k, known)
        assert str(got.value) == message

    def test_partition_takes_known_from_a_generator(self):
        p = Partition(1, (v for v in (2, 1.0)))
        assert p.known == (2.0, 1.0) and p.n == 3

    def test_size_mismatch_wins_over_reciprocity(self):
        m = PCMatrix(((1, 2), (0.6, 1)))  # not reciprocal
        message = "partition describes 3 alternatives, matrix has 2"
        for check in (ensure_solvable, diagnose):
            with pytest.raises(StructureError) as got:
                check(m, Partition(2, (1.0,)))
            assert str(got.value) == message
        with pytest.raises(ReciprocityError):
            ensure_solvable(m, Partition(1, (1.0,)))

    def test_fill_missing_checks_the_length_first(self):
        m = PCMatrix(((1, MISSING), (MISSING, 1)))
        with pytest.raises(StructureError) as got:
            fill_missing(m, (1.0, -2.0, 3.0))
        assert str(got.value) == "expected 2 values, got 3"
        with pytest.raises(StructureError) as got:
            fill_missing(m, (v for v in (1.0, -2.0, 3.0)))
        assert str(got.value) == "expected 2 values, got 3"
        assert fill_missing(m, (v for v in (1.0, 2.0))).entries == ((1.0, 0.5), (2.0, 1.0))
        with pytest.raises(StructureError) as got:
            fill_missing(m, (1.0, -2.0))
        assert str(got.value) == "fill value #1 must be positive and finite, got -2.0"
        with pytest.raises(StructureError) as got:
            fill_missing(m, (1.0, "a"))
        assert str(got.value) == "fill value #1 must be positive and finite, got 'a'"
        for given, shown in NUMBER_RULE:
            with pytest.raises(StructureError) as got:
                fill_missing(m, (1.0, given))
            assert str(got.value) == f"fill value #1 must be positive and finite, got {shown}"

    def test_ranking_messages(self):
        with pytest.raises(StructureError) as got:
            Ranking((1.0, math.inf), k=1)
        assert str(got.value) == "ranking value #1 must be positive and finite, got inf"
        with pytest.raises(StructureError) as got:
            Ranking(("x", 1.0), 1)
        assert str(got.value) == "ranking value #0 must be positive and finite, got 'x'"
        for given, shown in NUMBER_RULE:
            with pytest.raises(StructureError) as got:
                Ranking((given, 2.0), 1)
            assert str(got.value) == f"ranking value #0 must be positive and finite, got {shown}"
        for k in (-1, 3):
            with pytest.raises(StructureError) as got:
                Ranking((1.0, 2.0), k=k)
            assert str(got.value) == f"k={k} out of range for 2 values"

    def test_three_dimensional_array_is_rejected(self):
        with pytest.raises(StructureError) as got:
            PCMatrix(np.ones((2, 2, 2)))
        assert str(got.value) == "expected a 2-D array, got 3 dimension(s)"

    def test_complex_array_is_rejected(self):
        with pytest.raises(StructureError) as got:
            PCMatrix(np.array([[1, 2 + 1j], [0.5 - 3j, 1]]))
        assert str(got.value) == "expected a real array, got dtype complex128"

    @pytest.mark.parametrize(
        "array",
        [
            pytest.param(np.array([[1, "a"], [0.5, 1]], dtype=object), id="object-string"),
            pytest.param(np.array([[1, 2 + 1j], [0.5, 1]], dtype=object), id="object-complex"),
            pytest.param(np.array([[1, 10**400], [0.5, 1]], dtype=object), id="object-huge-int"),
            pytest.param(np.array([[1, None], [None, 1]], dtype=object), id="object-none"),
            pytest.param(np.array([[1.0, 2.0], [0.5, 1.0]], dtype=object), id="object-floats"),
            pytest.param(np.array([["1", "1_0"], ["0.1", "1"]]), id="str"),
            pytest.param(np.array([["1", "nan"], ["nan", "1"]]), id="str-nan"),
            pytest.param(np.array([[b"1", b"2"], [b"0.5", b"1"]]), id="bytes"),
            pytest.param(np.ones((2, 2), dtype=bool), id="bool"),
            pytest.param(np.ones((2, 2), dtype="timedelta64[D]"), id="timedelta"),
            pytest.param(np.ones((2, 2), dtype="datetime64[D]"), id="datetime"),
        ],
    )
    def test_array_of_anything_but_real_numbers_is_rejected(self, array):
        """numpy's casts would read text, bools and dates as numbers, and an
        object array as whatever its cells cast to: only int, uint and float
        arrays are matrices."""
        with pytest.raises(StructureError) as got:
            PCMatrix(array)
        assert str(got.value) == f"expected a real array, got dtype {array.dtype}"

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint8, np.uint64, np.float16, float])
    def test_real_arrays_are_accepted(self, dtype):
        matrix = PCMatrix(np.array([[1, 2, 4], [2, 1, 1], [4, 1, 1]], dtype=dtype))
        assert matrix.array.dtype == np.float64
        assert matrix.entries == ((1.0, 2.0, 4.0), (2.0, 1.0, 1.0), (4.0, 1.0, 1.0))

    @pytest.mark.parametrize(
        "rows, message",
        [
            pytest.param(["12", "21"], "row 0 must be a sequence of cells, got str", id="str"),
            pytest.param([b"12", b"21"], "row 0 must be a sequence of cells, got bytes", id="bytes"),
            pytest.param([(1, 2), "21"], "row 1 must be a sequence of cells, got str", id="row-1"),
            pytest.param(
                [np.str_("1"), (1,)], "row 0 must be a sequence of cells, got str_", id="numpy-str"
            ),
            pytest.param([(1, 2, 3), "1"], "row 0 has 3 cells, expected 2", id="length-first"),
        ],
    )
    def test_text_row_is_rejected(self, rows, message):
        with pytest.raises(StructureError) as got:
            PCMatrix(rows)
        assert str(got.value) == message

    def test_nested_forms_that_stay_accepted(self):
        expected = PCMatrix(((1, 2, MISSING), (0.5, 1, 4), (MISSING, 0.25, 1)))
        assert PCMatrix([[1, "2", MISSING], ["0.5", 1, 4], [MISSING, 0.25, "1"]]) == expected
        assert PCMatrix(row for row in expected.entries) == expected
        assert PCMatrix(iter(row) for row in expected.entries) == expected
        assert PCMatrix([np.array([1, 2]), np.array([0.5, 1])]).entries == ((1, 2), (0.5, 1))

    @pytest.mark.parametrize(
        "rows, cell, shown",
        [
            pytest.param(((1, 2 + 1j), (0.5, 1)), "(0,1)", "(2+1j)", id="complex"),
            pytest.param(((1, "a"), (0.5, 1)), "(0,1)", "'a'", id="string"),
            pytest.param(((1, [2]), (0.5, 1)), "(0,1)", "[2]", id="list"),
            pytest.param((([1, 2], [3, 4]), ([1, 2], [3, 4])), "(0,0)", "[1, 2]", id="nested"),
            pytest.param(((1, np.ones(2)), (0.5, 1)), "(0,1)", "array([1., 1.])", id="array"),
            pytest.param(((1, 10**400), (0.5, 1)), "(0,1)", str(10**400), id="huge-int"),
            pytest.param(((1, 2), ("b", "a")), "(1,0)", "'b'", id="first-in-row-order"),
            pytest.param(((True, 2), (0.5, True)), "(0,0)", "True", id="bool"),
            pytest.param(((1, 2), (0.5, np.True_)), "(1,1)", repr(np.True_), id="numpy-bool"),
        ],
    )
    def test_nested_cell_that_is_not_a_number(self, rows, cell, shown):
        with pytest.raises(StructureError) as got:
            PCMatrix(rows)
        assert str(got.value) == f"entry {cell} must be a positive finite number, got {shown}"

    def test_nested_numeric_strings_are_numbers(self):
        assert PCMatrix(((1, "2"), ("0.5", 1))) == PCMatrix(((1, 2), (0.5, 1)))

    @pytest.mark.parametrize(
        "shape, message",
        [
            ((0, 3), "expected a square array, got shape (0, 3)"),
            ((3, 0), "row 0 has 0 cells, expected 3"),
            ((2, 3), "row 0 has 3 cells, expected 2"),
        ],
    )
    def test_non_square_array_is_rejected(self, shape, message):
        with pytest.raises(StructureError) as got:
            PCMatrix(np.ones(shape))
        assert str(got.value) == message

    def test_empty_array_is_an_empty_matrix(self):
        matrix = PCMatrix(np.zeros((0, 0)))
        assert matrix.n == 0 and matrix.array.shape == matrix.mask.shape == (0, 0)
