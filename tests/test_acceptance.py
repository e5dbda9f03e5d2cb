"""Acceptance suite: one test per release criterion.

Each test prints a single ``[PASS]``/``[FAIL]`` line (visible with ``-s`` or
in captured output on failure) and pins its tolerance inline.  Oracles are
taken from tests/helpers.py, which re-derives every identity from first
principles instead of calling back into the code under test.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np
import pytest

from pcrank import (
    MISSING,
    NonPositiveSolutionError,
    PCMatrix,
    Partition,
    SingularMatrixError,
    build_arithmetic_system,
    build_geometric_system,
    check_consistency,
    evm,
    gmm,
    parse_problem,
    solve_arithmetic,
    solve_geometric,
)
from pcrank.cli import main

from helpers import (
    arithmetic_residual,
    entry_at,
    geometric_residual,
    random_instance,
    ratio_rows,
    rng_for,
    rows_to_matrix,
)


def criterion(cid: str, title: str):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] {cid}: {title}")
                raise
            print(f"[PASS] {cid}: {title}")

        return run

    return wrap


@criterion("C01", "fixed-point residuals <= 1e-9 on 500 random incomplete instances")
def test_c01_fixed_point_residuals():
    rng = rng_for(1001)
    arithmetic_checked = 0
    for _ in range(500):
        matrix, partition, _ = random_instance(rng)  # n in 4..10, k in 1..n-1, <=40% missing
        try:
            ranking = solve_arithmetic(matrix, partition)
        except (NonPositiveSolutionError, SingularMatrixError):
            pass
        else:
            arithmetic_checked += 1
            assert arithmetic_residual(matrix, partition.k, ranking.values) <= 1e-9
        ranking = solve_geometric(matrix, partition)
        assert geometric_residual(matrix, partition.k, ranking.values) <= 1e-9
    # not part of the criterion, but guard against a vacuous pass
    assert arithmetic_checked >= 450


@criterion("C02", "exact recovery of the generating vector on consistent data (1e-10)")
def test_c02_exact_recovery():
    rng = rng_for(1002)
    for trial in range(200):
        matrix, partition, v = random_instance(
            rng, consistent=True, incomplete=bool(trial % 2)
        )
        gamma = float(rng.uniform(0.5, 3.0))
        scaled = Partition(partition.k, tuple(gamma * w for w in partition.known))
        expected = gamma * v
        ari = solve_arithmetic(matrix, scaled)
        geo = solve_geometric(matrix, scaled)
        for got_a, got_g, want in zip(ari.values, geo.values, expected):
            assert abs(got_a - want) <= 1e-10 * want
            assert abs(got_g - want) <= 1e-10 * want
            assert abs(got_a - got_g) <= 1e-10 * abs(got_a)


@criterion("C03", "complete inputs reduce to the uniform-denominator systems, entry-exact")
def test_c03_reduction_to_complete_form():
    rng = rng_for(1003)
    for _ in range(50):
        matrix, partition, _ = random_instance(rng, incomplete=False)
        n, k = matrix.n, partition.k
        ari = build_arithmetic_system(matrix, partition)
        expected_coeff = np.array(
            [
                [1.0 if i == j else -(entry_at(matrix, i, j) / float(n - 1)) for j in range(k)]
                for i in range(k)
            ]
        )
        expected_constants = []
        for i in range(k):
            acc = 0.0
            for j in range(k, n):
                acc += entry_at(matrix, i, j) * partition.known[j - k]
            expected_constants.append(acc / float(n - 1))
        assert np.array_equal(ari.coeff, expected_coeff)
        assert np.array_equal(ari.constants, np.array(expected_constants))

        geo = build_geometric_system(matrix, partition)
        assert np.array_equal(geo.coeff, (n - 1.0) * np.eye(k) - (np.ones((k, k)) - np.eye(k)))


@criterion("C04", "geometric solutions invariant to the log base (1e-10)")
def test_c04_base_invariance():
    rng = rng_for(1004)
    for _ in range(100):
        matrix, partition, _ = random_instance(rng)
        reference = solve_geometric(matrix, partition, log_base=math.e)
        for xi in (2.0, 10.0):
            other = solve_geometric(matrix, partition, log_base=xi)
            for a, b in zip(other.values, reference.values):
                assert abs(a - b) <= 1e-10 * abs(b)


@criterion("C05", "scaling the known priorities by gamma scales the output by gamma (1e-10)")
def test_c05_scale_equivariance():
    rng = rng_for(1005)
    for _ in range(50):
        matrix, partition, _ = random_instance(rng)
        try:
            base = {
                "arithmetic": solve_arithmetic(matrix, partition),
                "geometric": solve_geometric(matrix, partition),
            }
        except (NonPositiveSolutionError, SingularMatrixError):
            continue
        for gamma in (0.1, 7.0):
            scaled = Partition(partition.k, tuple(gamma * w for w in partition.known))
            for name, solver in (("arithmetic", solve_arithmetic), ("geometric", solve_geometric)):
                result = solver(matrix, scaled)
                for a, b in zip(result.computed, base[name].computed):
                    assert abs(a - gamma * b) <= 1e-10 * abs(gamma * b)


@criterion("C06", "complete-then-rank reproduces the ranking (1e-9), consistent fills stay consistent")
def test_c06_completion_idempotence(tmp_path):
    rng = rng_for(1006)
    done = 0
    trial = 0
    while done < 100:
        trial += 1
        consistent = trial % 2 == 0
        method = "geometric" if trial % 4 < 2 else "arithmetic"
        matrix, partition, _ = random_instance(rng, consistent=consistent)
        labels = [f"x{i}" for i in range(matrix.n)]
        problem = {
            "alternatives": labels,
            "matrix": [
                ["?" if cell is MISSING else cell for cell in row] for row in matrix.entries
            ],
            "known": {labels[partition.k + i]: w for i, w in enumerate(partition.known)},
        }
        src = tmp_path / f"case{trial}.json"
        src.write_text(json.dumps(problem))
        first = tmp_path / f"rank1_{trial}.json"
        if main(["rank", str(src), "--method", method, "--output", str(first)]) != 0:
            continue  # arithmetic failure; not this criterion's concern
        filled = tmp_path / f"filled{trial}.json"
        assert main(["complete", str(src), "--method", method, "--output", str(filled)]) == 0
        second = tmp_path / f"rank2_{trial}.json"
        assert main(["rank", str(filled), "--method", method, "--output", str(second)]) == 0
        before = json.loads(first.read_text())
        after = json.loads(second.read_text())
        for label in labels:
            assert abs(after[label] - before[label]) <= 1e-9 * abs(before[label])
        if consistent:
            completed = parse_problem(filled.read_text(), "json")
            assert check_consistency(completed.matrix, 1e-9) == []
        done += 1


@criterion("C07", "geometric system never singular on 1000 connected instances")
def test_c07_geometric_solvability():
    rng = rng_for(1007)
    for _ in range(1000):
        matrix, partition, _ = random_instance(rng)
        try:
            ranking = solve_geometric(matrix, partition)
        except SingularMatrixError as exc:  # pragma: no cover - build failure
            pytest.fail(f"geometric system reported singular: {exc}")
        assert all(v > 0.0 for v in ranking.values)


@criterion("C08", "EVM/GMM agree with both solvers on consistent complete input (1e-8)")
def test_c08_baseline_agreement():
    rng = rng_for(1008)
    for _ in range(50):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(1, n))
        v = rng.uniform(0.2, 5.0, size=n)
        matrix = rows_to_matrix(ratio_rows(v))
        partition = Partition(k, tuple(float(x) for x in v[k:]))
        reference = v / v.sum()
        evm_result = evm(matrix)
        assert abs(evm_result.spectral_radius - n) <= 1e-8
        for weights in (
            evm_result.weights,
            gmm(matrix).weights,
            solve_arithmetic(matrix, partition).normalized().values,
            solve_geometric(matrix, partition).normalized().values,
        ):
            assert np.abs(np.array(weights) - reference).max() <= 1e-8


@criterion("C09", "every guard fires with its documented exit code and error token")
def test_c09_guard_behavior(tmp_path, capsys):
    def run(name, text, argv, expect_exit, expect_code):
        path = tmp_path / name
        path.write_text(text)
        assert main(argv + [str(path)]) == expect_exit
        captured = capsys.readouterr()
        assert captured.err.startswith(expect_code)

    run(
        "degenerate.csv",
        "label,a,b,c\na,1,?,?\nb,?,1,2\nc,?,1/2,1\n\nlabel,priority\nb,2\nc,4\n",
        ["rank"],
        2,
        "DEGENERATE_ROW",
    )
    run(
        "island.csv",
        "label,a,b,c,d\na,1,5,?,?\nb,1/5,1,?,?\nc,?,?,1,2\nd,?,?,1/2,1\n"
        "\nlabel,priority\nc,3\nd,1.5\n",
        ["rank"],
        2,
        "NOT_CONNECTED",
    )
    run(
        "asym.json",
        '{"alternatives": ["a", "b"], "matrix": [[1, 3], ["?", 1]], "known": {"b": 1}}',
        ["rank"],
        2,
        "PARSE_ERROR",
    )
    run(
        "nonreciprocal.csv",
        "label,a,b\na,1,2\nb,0.6,1\n\nlabel,priority\nb,1\n",
        ["rank"],
        2,
        "RECIPROCITY_VIOLATION",
    )

    # Brute-force search over small high-inconsistency reciprocal instances
    # until the arithmetic positivity guard trips.
    rng = rng_for(1009)
    extremes = np.array([9.0, 8.0, 7.0, 1 / 7.0, 1 / 8.0, 1 / 9.0])
    found = None
    for _ in range(300):
        n = 4
        rows = [[1.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = float(rng.choice(extremes))
                rows[j][i] = 1.0 / rows[i][j]
        matrix = rows_to_matrix(rows)
        try:
            solve_arithmetic(matrix, Partition(3, (1.0,)))
        except NonPositiveSolutionError:
            found = rows
            break
        except SingularMatrixError:
            continue
    assert found is not None, "search budget exhausted without a non-positive instance"
    lines = ["label," + ",".join(f"x{i}" for i in range(4))]
    for i, row in enumerate(found):
        lines.append(f"x{i}," + ",".join(repr(cell) for cell in row))
    text = "\n".join(lines) + "\n\nlabel,priority\nx3,1\n"
    run("nonpositive.csv", text, ["rank", "--method", "arithmetic"], 3, "NON_POSITIVE_SOLUTION")


@criterion("C10", "hand-derived micro-instances reproduce exactly (1e-12)")
def test_c10_worked_micro_instances():
    coupled = PCMatrix(((1, 2, 4), (0.5, 1, MISSING), (0.25, MISSING, 1)))
    partition = Partition(2, (1.0,))
    for solver in (solve_arithmetic, solve_geometric):
        ranking = solver(coupled, partition)
        assert ranking.values == pytest.approx((4.0, 2.0, 1.0), rel=1e-12)

    decoupled = PCMatrix(((1, MISSING, 2), (MISSING, 1, 4), (0.5, 0.25, 1)))
    for solver in (solve_arithmetic, solve_geometric):
        ranking = solver(decoupled, partition)
        assert ranking.values == pytest.approx((2.0, 4.0, 1.0), rel=1e-12)

    tiny = PCMatrix(((1, 3), (1 / 3, 1)))
    tiny_partition = Partition(1, (5.0,))
    assert solve_arithmetic(tiny, tiny_partition).values[0] == pytest.approx(15.0, rel=1e-12)
    assert solve_geometric(tiny, tiny_partition).values[0] == pytest.approx(15.0, rel=1e-12)
