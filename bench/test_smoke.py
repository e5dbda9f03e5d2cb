"""Smoke test of the benchmark: every workload at toy size, untraced and
traced.  Not part of the tier-1 suite; run it from the repository root with

    PYTHONPATH=src python3 -m pytest bench/test_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result, out = run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, out
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["metrics"]["success_rate"]["value"] == 1.0


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_reports_every_layer_and_accounts_for_wall_time(workload):
    result, out = run(workload, 1)
    assert result["correct"] and result["failed"] == 0, out
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert "absent layers" not in out
    report = json.loads((ROOT / ".bench_out" / f"result-{workload}-seed7-trace1.json").read_text())
    low, high = report["trace"]["unattributed_s"]
    # Self times of the spans of one call add up to its wall time, up to the
    # few microseconds the call spends outside the root span.
    assert 0.0 <= low and high < 1e-3
