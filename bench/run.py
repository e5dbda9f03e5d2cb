"""pcrank benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload survey --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The inputs are generated from the seed and
written before anything is timed; set-up is timed in fresh interpreters; the
workload then runs in a fresh process of its own (BLAS capped at one thread)
as a closed loop over ``pcrank.cli.main``, every output checked.  The last
line of standard output is the result as JSON: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.  Per-command latencies,
the environment and, when traced, the spans are kept under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "ops_per_ref_s": "1/s",
    "sequence_p50_ref_s": "s",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.main.self_s": "s",
    "cli.output_bytes": "bytes",
    "formats.parse_problem.self_s": "s",
    "formats.input_bytes": "bytes",
    "formats.serialize_ranking.self_s": "s",
    "formats.serialize_problem.self_s": "s",
    "matrix.PCMatrix.self_s": "s",
    "matrix.PCMatrix.calls": "count",
    "matrix.ensure_solvable.self_s": "s",
    "matrix.ensure_solvable.calls": "count",
    "matrix.diagnose.self_s": "s",
    "matrix.check_consistency.self_s": "s",
    "matrix.triads_examined": "count",
    "matrix.triad_deviations": "count",
    "matrix.fill_missing.self_s": "s",
    "arithmetic.build_arithmetic_system.self_s": "s",
    "arithmetic.solve_arithmetic.self_s": "s",
    "geometric.build_geometric_system.self_s": "s",
    "geometric.solve_geometric.self_s": "s",
    "linsolve.solve.self_s": "s",
    "linsolve.solve.calls": "count",
    "linsolve.flops_computed": "flop",
    "baselines.evm.self_s": "s",
    "baselines.evm.iterations": "count",
    "baselines.gmm.self_s": "s",
    "trace.overhead_s": "s",
}

SETUP_SAMPLES = 7
WORKER_PROCESSES = 6
TIMEOUT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # One client in one process: BLAS gets one thread, well under nproc, so
    # the closed loop does not compete with its own helper threads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def tail(samples: list[float]) -> dict | None:
    """The highest sample with at least ten samples beyond it, reported only
    with at least 100 samples."""
    n = len(samples)
    if n < 100:
        return None
    return {"value": sorted(samples)[n - 11], "percentile": 100.0 * (n - 10) / n, "beyond": 10}


def run_child(args: list[str], env: dict, deadline: float) -> float:
    """Run a Python child to completion and return its wall time.  The wait
    blocks in waitpid, which wakes as soon as the child ends; a timer kills
    the child at the deadline."""
    start = perf_counter()
    with subprocess.Popen([sys.executable, *args], env=env, stdout=subprocess.DEVNULL) as proc:
        timer = threading.Timer(max(1.0, deadline - perf_counter()), proc.kill)
        timer.start()
        try:
            proc.wait()
        finally:
            timer.cancel()
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited with {proc.returncode}")
    return elapsed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=sorted(gen.SIZES), default="full",
                        help="tiny runs every workload at toy size, for the smoke test")
    args = parser.parse_args()
    started = perf_counter()
    deadline = started + TIMEOUT_S

    if not (ROOT / "src" / "pcrank" / "__init__.py").is_file():
        print(f"error: no pcrank sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".bench_out"
    data_dir = out_dir / f"data-{args.workload}-{args.seed}-{os.getpid()}"
    data_dir.mkdir(parents=True)
    try:
        problems = gen.make_workload(args.workload, args.seed, args.size)
        tiny = gen.tiny_problem()
        for p in [tiny, *problems]:
            gen.write_problem(p, data_dir)
        gen.save_truth(problems, data_dir)
        env = child_env()
        worker = str(HERE / "worker.py")
        tiny_path = str(data_dir / "tiny.csv")
        # The first set-up fills the bytecode and file caches and is not counted.
        setup = [run_child([worker, "--setup", tiny_path], env, deadline)
                 for _ in range(SETUP_SAMPLES + 1)][1:]
        # Speed differs from one process to the next by more than it drifts
        # within one, so the timed run is split over several fresh processes,
        # each continuing the problem sequence where the previous one stopped.
        # Large and audit cycle through a few problems of different cost; the
        # last process ends on a whole cycle, so every problem is measured
        # equally often and the medians do not depend on where time ran out.
        parts = 1 if args.trace else WORKER_PROCESSES
        cycle = 1 if args.workload == "survey" else len(problems)
        results = []
        start = 0
        for part in range(parts):
            align = cycle if part == parts - 1 else 1
            run_child([worker, str(data_dir), "--seconds", str(args.seconds / parts),
                       "--trace", str(args.trace), "--start", str(start), "--align", str(align)],
                      env, deadline)
            results.append(json.loads((data_dir / "result.json").read_text()))
            start = results[-1]["next"]
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            shutil.move(data_dir / "spans.json", out_dir / f"spans-{tag}.json")
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    failures = [f for r in results for f in r["failures"]][:20]
    latencies: dict[str, list[float]] = {}
    scaled: dict[str, list[float]] = {}
    for r in results:
        for cmd, samples in r["latencies"].items():
            latencies.setdefault(cmd, []).extend(samples)
            scaled.setdefault(cmd, []).extend(r["scaled_latencies"][cmd])
    result = results[-1]
    commands = {}
    for cmd, samples in latencies.items():
        commands[cmd] = {"count": len(samples), "p50_s": statistics.median(samples),
                         "tail": tail(samples), "p50_ref_s": statistics.median(scaled[cmd])}
    if args.trace:
        trace = result["trace"]
        values = {name: trace["per_op"].get(name, 0.0) for name in PER_LAYER}
        units = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(setup),
            "ops_per_ref_s": attempted / sum(sum(s) for s in scaled.values()),
            "sequence_p50_ref_s": sum(c["p50_ref_s"] for c in commands.values()),
            "success_rate": (attempted - failed) / attempted,
            "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        }
        units = END_TO_END

    raw = {
        "ops_per_s": attempted / sum(sum(s) for s in latencies.values()),
        "sequence_p50_s": sum(c["p50_s"] for c in commands.values()),
    }
    report = {
        "workload": args.workload, "why": gen.WHY[args.workload], "seed": args.seed,
        "seconds": args.seconds, "env": result["env"], "commands": commands,
        "failures": failures, "metrics": values, "unscaled": raw, "setup_s": setup,
        "latencies": latencies, "scaled_latencies": scaled,
        "trace": result.get("trace"), "elapsed_s": perf_counter() - started,
    }
    (out_dir / f"result-{tag}.json").write_text(json.dumps(report, indent=1))

    print(f"workload {args.workload}: {gen.WHY[args.workload]}")
    print("env: " + ", ".join(f"{k} {v}" for k, v in result["env"].items()))
    for cmd, c in commands.items():
        line = f"{cmd}: {c['count']} calls, p50 {c['p50_s']:.6f} s ({c['p50_ref_s']:.6f} ref s)"
        if c["tail"]:
            t = c["tail"]
            line += f", tail p{t['percentile']:.2f} {t['value']:.6f} s ({t['beyond']} beyond)"
        print(line)
    print(f"unscaled: ops_per_s {raw['ops_per_s']:.6g} 1/s, "
          f"sequence_p50_s {raw['sequence_p50_s']:.6g} s")
    for failure in failures:
        print(f"FAILED {failure}")
    if args.trace:
        trace = result["trace"]
        for cmd, layers in trace["self_s_by_command"].items():
            wall = layers.pop("wall")
            shares = sorted(((s / wall, layer) for layer, s in layers.items()), reverse=True)
            print(f"{cmd} traced, {wall / commands[cmd]['count']:.6f} s/call: "
                  + ", ".join(f"{layer} {share:.1%}" for share, layer in shares))
        low, high = trace["unattributed_s"]
        print(f"wall minus summed self time per call: {low:.2e} to {high:.2e} s")
        if trace["absent"]:
            print("absent layers: " + ", ".join(trace["absent"]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
