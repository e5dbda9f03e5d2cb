"""The measuring process of one benchmark run; started by run.py.

``worker.py --setup TINY`` is one set-up sample: import pcrank and rank a
tiny problem.  ``worker.py DATA_DIR --seconds S --trace T`` runs the workload
written to DATA_DIR as a closed loop: one client calls ``pcrank.cli.main``
in-process, the next call only after the previous one returns, and checks
every output outside the timed region.  Before each call it times a short
calibration, and records each latency also scaled to reference speed.
Results go to DATA_DIR/result.json.
``--start`` and ``--align`` let run.py split one timed run over several
processes that continue the same problem sequence.

With ``--trace 1`` every call runs twice, untraced and traced, in
alternating order; the traced call records spans and the mean difference
is the tracing overhead.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from collections import defaultdict, deque
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

import gen
import oracle
import tracing

SRC = Path(__file__).resolve().parents[1] / "src"

# Median time of calibrate() at reference speed (2-vCPU Xeon VM, quiet).
CALIBRATION_REF_S = 0.0006


def import_cli():
    """Import pcrank from this checkout's ``src``, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import pcrank.cli

    if Path(pcrank.__file__).resolve().parent != SRC / "pcrank":
        raise SystemExit(f"pcrank imported from {pcrank.__file__}, not from {SRC}")
    return pcrank.cli


def call(cli, argv):
    """One CLI invocation, timed; returns (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed operation, not a crash
            code = -1
            err.write(traceback.format_exc())
        elapsed = perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue()


def calibrate() -> float:
    """Seconds for a fixed piece of work of the kind the CLI does (format,
    join, parse and convert a grid of numbers, a small numpy solve), with the
    collector off so the program's heap does not slow it.  On a shared
    machine its time follows the machine's current speed; timings divided by
    it stay comparable from run to run while that speed drifts."""
    was_enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    rows = [[f"{(i * 31 + j * 17) % 997 / 7:.6g}" for j in range(24)] for i in range(24)]
    grid = [[float(c) for c in r] for r in csv.reader(io.StringIO("\n".join(map(",".join, rows))))]
    a = np.array(grid) + 24.0 * np.eye(24)
    np.linalg.solve(a, a[0])
    elapsed = perf_counter() - start
    if was_enabled:
        gc.enable()
    return elapsed


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def run(data_dir: Path, seconds: float, trace: bool, start: int, align: int) -> dict:
    problems = gen.load_truth(data_dir)
    tiny = gen.tiny_problem()
    cli = import_cli()
    tracer = tracing.Tracer() if trace else None

    refs: dict = {}

    def reference(p, method):
        if (p.name, method) not in refs:
            refs[p.name, method] = oracle.reference_priorities(p.values, p.known, method)
        return refs[p.name, method]

    # Warm-up: every command on the tiny problem, untimed and unchecked, so
    # imports, lazy numpy set-up and the file cache are done before timing.
    for _ in range(3):
        for _, args, _ in tiny.ops:
            call(cli, gen.argv_for(tiny, args, data_dir))
    calibrations = deque((calibrate() for _ in range(9)), maxlen=9)
    gc.collect()
    gc.freeze()  # keep set-up objects out of the collections timed calls trigger

    latencies: dict[str, list[float]] = defaultdict(list)
    scaled: dict[str, list[float]] = defaultdict(list)
    failures: list[str] = []
    attempted = failed = 0
    busy = overhead = 0.0
    walls: list[float] = []
    op_cmds: list[str] = []
    output_bytes = 0
    deadline = perf_counter() + 3 * seconds + 30
    idx = start
    while (busy < seconds or idx % align) and perf_counter() < deadline:
        p = problems[idx % len(problems)]
        idx += 1
        for op in p.ops:  # a problem's command sequence is never cut short
            argv = gen.argv_for(p, op[1], data_dir)
            calibrations.append(calibrate())
            speed = CALIBRATION_REF_S / statistics.median(calibrations)
            if tracer is None:
                dt, code, out, err = call(cli, argv)
            else:
                # Alternate which run goes first separately for each command.
                runs = {}
                for traced in ((False, True) if len(latencies[op[0]]) % 2 else (True, False)):
                    if traced:
                        tracer.op = attempted
                        tracer.install()
                    runs[traced] = call(cli, argv)
                    if traced:
                        tracer.uninstall()
                dt, code, out, err = runs[True]
                overhead += dt - runs[False][0]
                walls.append(dt)
                op_cmds.append(op[0])
                busy += runs[False][0]
            busy += dt
            attempted += 1
            latencies[op[0]].append(dt)
            scaled[op[0]].append(dt * speed)
            output_bytes += len(out.encode())
            try:
                errors = oracle.check_op(p, op, code, out, err, reference)
            except Exception as exc:  # unparseable output is a failed check
                errors = [f"{op[0]}: output check raised {exc!r}"]
            if tracer is not None and runs[False][1:] != runs[True][1:]:
                errors.append(f"{op[0]}: traced and untraced outputs differ")
            if errors:
                failed += 1
                if len(failures) < 20:
                    failures.append(f"{p.name} {' '.join(op[1])}: {errors[0]}")

    result = {
        "attempted": attempted,
        "failed": failed,
        "next": idx % len(problems),
        "failures": failures,
        "latencies": latencies,
        "scaled_latencies": scaled,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if tracer is not None:
        result["trace"] = summarize_trace(tracer, overhead, walls, op_cmds, output_bytes)
        write_spans(tracer, data_dir / "spans.json")
    return result


def summarize_trace(tracer, overhead, walls, op_cmds, output_bytes) -> dict:
    """Per-layer totals divided by the number of operations; self time by
    command and layer; and how far each operation's wall time is from the
    sum of its spans' self times."""
    ops = len(walls)
    layer_self: dict[str, float] = defaultdict(float)
    layer_calls: dict[str, int] = defaultdict(int)
    by_command: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    op_self = [0.0] * ops
    for (layer, _, _, _, op), s in zip(tracer.spans, tracer.self_times()):
        layer_self[layer] += s
        layer_calls[layer] += 1
        op_self[op] += s
        by_command[op_cmds[op]][layer] += s
    for cmd, wall in zip(op_cmds, walls):
        by_command[cmd]["wall"] += wall
    per_op = {"cli.output_bytes": output_bytes / ops, "trace.overhead_s": overhead / ops}
    for layer in tracer.layers:
        per_op[f"{layer}.self_s"] = layer_self[layer] / ops
        per_op[f"{layer}.calls"] = layer_calls[layer] / ops
    for name in tracing.COUNTS:
        per_op[name] = tracer.counts.get(name, 0.0) / ops
    unattributed = [w - s for w, s in zip(walls, op_self)]
    return {
        "per_op": per_op,
        "absent": tracer.absent,
        "self_s_by_command": by_command,
        "unattributed_s": [min(unattributed, default=0.0), max(unattributed, default=0.0)],
    }


def write_spans(tracer, path: Path) -> None:
    names = sorted({s[0] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    rows = [[index[n], round(a, 9), round(b, 9), parent, op] for n, a, b, parent, op in tracer.spans]
    path.write_text(json.dumps({"layers": names, "columns": ["layer", "start", "end", "parent", "op"],
                                "spans": rows}))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("data_dir", nargs="?")
    parser.add_argument("--setup", metavar="TINY")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--start", type=int, default=0, help="index of the first problem")
    parser.add_argument("--align", type=int, default=1,
                        help="stop only when the next problem index is a multiple of this")
    args = parser.parse_args()
    if args.setup:
        cli = import_cli()
        code = call(cli, ["rank", args.setup, "--method", "both"])[1]
        return 0 if code == 0 else 1
    data_dir = Path(args.data_dir)
    result = run(data_dir, args.seconds, bool(args.trace), args.start, args.align)
    (data_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
