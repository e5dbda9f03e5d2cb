"""Seeded, deterministic workload generator.

Uses numpy and the standard library only and never imports pcrank, so a
change to the program cannot change the inputs it is measured on.  Building
a workload (:func:`make_workload`) is pure computation on the seed; writing it
(:func:`write_problem`) turns each problem into the text file the CLI reads.
The benchmark's parent process builds and writes the files before any timing,
and saves the ground truth (:func:`save_truth`) that the measuring processes
load to check outputs against.

Every cell value the checks use is the value the file states, parsed the way
the file format defines it: ``p/q`` is ``p / q``, a decimal is ``float(token)``.
Reciprocal pairs are written so that their product is 1 within a few ulps,
and comparisons between two known alternatives are written as the exact
ratio of the stated priorities, except where a problem is built to trigger
the known-comparison warning.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from oracle import reference_priorities

# Why each workload exists; BENCHMARK.json and README.md say the same.
WHY = {
    "survey": "thousands of small mixed-format problems, 10% invalid on purpose, through rank "
    "and complete: fixed per-call cost (argparse, parsing, the guard) dominates",
    "large": "n=400 problems, 30% missing, 10% known, through rank and complete: the Python "
    "elimination in linsolve and the O(n^2) builders dominate",
    "audit": "complete and near-complete n=100-120 problems through check at two tolerances "
    "and compare: the triad scan and the deviation report dominate",
}

# Sizes per workload.  "full" is what the benchmark measures; "tiny" is for
# the smoke test.  Large and audit use fixed shapes so that each command's
# latencies form the same clusters on every seed and their medians are steady.
SIZES = {
    "full": {
        "survey": {"problems": 1500, "n": (5, 30)},
        "large": {"n": (400, 400, 400)},
        "audit": {"n": (100, 110, 120)},
    },
    "tiny": {
        "survey": {"problems": 40, "n": (5, 12)},
        "large": {"n": (40, 40)},
        "audit": {"n": (12, 14, 16)},
    },
}

INVALID_KINDS = ("reciprocity", "stranded", "diagonal", "cycle")

# Documented failure of each invalid kind: (exit code, first stderr token).
# The geometric rule cannot fail on the cycle, so there only rank fails.
INVALID_EXPECT = {
    "reciprocity": (2, "RECIPROCITY_VIOLATION"),
    "stranded": (2, "NOT_CONNECTED"),
    "diagonal": (2, "PARSE_ERROR"),
    "cycle": (3, "NON_POSITIVE_SOLUTION"),
}


@dataclass
class Problem:
    """One generated problem, in file order.

    ``values`` holds each cell as the file states it (NaN where the file says
    ``?``); ``tokens`` are the strings written for CSV and for JSON string cells.
    Each op is ``(name, CLI arguments after the input path, expected failure)``,
    where the expected failure is ``(exit code, stderr token)`` or ``None``.
    """

    name: str
    labels: list[str]
    values: np.ndarray
    tokens: list[list[str]]
    known: dict[int, float]
    known_tokens: dict[int, str]
    fmt: str = "csv"
    known_file: bool = False
    kind: str = "valid"
    warn: bool = False
    ops: list[tuple[str, list[str], tuple[int, str] | None]] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def complete(self) -> bool:
        return not np.isnan(self.values).any()


def _decimal_pair(r: float) -> tuple[str, str, float, float]:
    up = f"{r:.6g}"
    v = float(up)
    return up, repr(1.0 / v), v, 1.0 / v


def _fraction_pair(r: float) -> tuple[str, str, float, float]:
    frac = Fraction(r).limit_denominator(9)
    p, q = frac.numerator, frac.denominator
    if p == 0:
        p, q = 1, 9
    return f"{p}/{q}", f"{q}/{p}", p / q, q / p


def _problem(
    rng: np.random.Generator,
    name: str,
    n: int,
    n_known: int,
    missing: float,
    noise: float,
    fmt: str,
    style: str,
    known_file: bool = False,
) -> Problem:
    """A valid problem: every unknown reaches a known through defined cells."""
    labels = [f"x{i}" for i in range(n)]
    known_idx = sorted(int(i) for i in rng.choice(n, size=n_known, replace=False))
    w = np.exp(rng.normal(0.0, 1.0, size=n))
    known_tokens = {i: f"{w[i]:.4g}" for i in known_idx}
    known = {i: float(t) for i, t in known_tokens.items()}
    for i, v in known.items():
        w[i] = v

    # A random spanning tree is never dropped, so the comparison graph stays
    # connected and no unknown is stranded.
    order = rng.permutation(n)
    tree = {
        tuple(sorted((int(order[t]), int(order[rng.integers(0, t)])))) for t in range(1, n)
    }
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in tree]
    n_drop = int(round(missing * n * (n - 1) / 2))
    n_drop = min(n_drop, len(pairs))
    dropped = {pairs[t] for t in rng.choice(len(pairs), size=n_drop, replace=False)}

    values = np.ones((n, n))
    tokens = [["1"] * n for _ in range(n)]
    pair = _decimal_pair if style == "decimal" else _fraction_pair
    noise_draws = rng.normal(0.0, noise, size=(n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) in dropped:
                values[i, j] = values[j, i] = math.nan
                tokens[i][j] = tokens[j][i] = "?"
                continue
            if i in known and j in known:
                up, low = known[i] / known[j], known[j] / known[i]
                tokens[i][j], tokens[j][i] = repr(float(up)), repr(low)
                values[i, j], values[j, i] = up, low
                continue
            r = w[i] / w[j] * math.exp(noise_draws[i, j])
            tokens[i][j], tokens[j][i], values[i, j], values[j, i] = pair(r)
    return Problem(
        name=name,
        labels=labels,
        values=values,
        tokens=tokens,
        known=known,
        known_tokens=known_tokens,
        fmt=fmt,
        known_file=known_file,
    )


def _set_pair(p: Problem, i: int, j: int, up: str, low: str) -> None:
    p.tokens[i][j], p.tokens[j][i] = up, low
    p.values[i, j], p.values[j, i] = _parse(up), _parse(low)


def _parse(token: str) -> float:
    if token == "?":
        return math.nan
    if "/" in token:
        a, b = token.split("/")
        return int(a) / int(b)
    return float(token)


def _arithmetic_solution(p: Problem) -> np.ndarray | None:
    try:
        w = reference_priorities(p.values, p.known, "arithmetic")
    except np.linalg.LinAlgError:
        return None
    return w if np.all(np.isfinite(w)) else None


def _arithmetic_positive(p: Problem) -> bool:
    w = _arithmetic_solution(p)
    return w is not None and bool(np.all(w > 0.0))


def _survey_problem(rng: np.random.Generator, idx: int, n_range) -> Problem:
    invalid = idx % 10 == 9
    kind = INVALID_KINDS[(idx // 10) % len(INVALID_KINDS)] if invalid else "valid"
    while True:
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        n_known = int(rng.integers(1, 4))
        fmt = "csv" if rng.random() < 0.5 else "json"
        style = "decimal" if rng.random() < 0.5 else "fraction"
        p = _problem(
            rng,
            name=f"s{idx:05d}",
            n=n,
            n_known=n_known,
            missing=float(rng.uniform(0.0, 0.4)),
            noise=float(rng.uniform(0.0, 0.4)),
            fmt=fmt,
            style=style,
            known_file=bool(rng.random() < 0.2),
        )
        p.kind = kind
        unknown = [i for i in range(n) if i not in p.known]
        if kind == "valid":
            # Every twentieth problem states one known-known comparison 1.5x
            # off the fixed priorities, which must raise the warning.
            defined = [
                (i, j) for i in p.known for j in p.known
                if i < j and not math.isnan(p.values[i, j])
            ]
            if idx % 20 == 3 and defined:
                i, j = defined[0]
                up = p.values[i, j] * 1.5
                _set_pair(p, i, j, repr(float(up)), repr(1.0 / float(up)))
                p.warn = True
        elif kind == "reciprocity":
            # Both triangles state the same ratio, so c_ij * c_ji != 1.
            i = unknown[0]
            j = _first_defined(p, i)
            up = p.values[i, j] if p.values[i, j] != 1.0 else 2.0
            _set_pair(p, i, j, repr(float(up)), repr(float(up)))
        elif kind == "stranded":
            if len(unknown) < 2:
                continue
            a, b = unknown[0], unknown[1]
            rest = [i for i in range(n) if i not in (a, b)]
            if not _connected_without(p, {a, b}, rest):
                continue
            for j in range(n):
                if j not in (a, b):
                    for i in (a, b):
                        p.values[i, j] = p.values[j, i] = math.nan
                        p.tokens[i][j] = p.tokens[j][i] = "?"
            _set_pair(p, a, b, "3", "1/3")
        elif kind == "diagonal":
            d = unknown[0]
            p.tokens[d][d] = "?"
            p.values[d, d] = math.nan
        elif kind == "cycle":
            if len(unknown) < 3:
                continue
            _make_cycle(p, unknown[:3], next(iter(p.known)))
            w = _arithmetic_solution(p)
            if w is None or np.all(w > 0.0):
                continue
        if kind == "valid" and not _arithmetic_positive(p):
            continue
        return p


def _first_defined(p: Problem, i: int) -> int:
    return next(j for j in range(p.n) if j != i and not math.isnan(p.values[i, j]))


def _connected_without(p: Problem, removed: set[int], rest: list[int]) -> bool:
    """Every unknown outside ``removed`` still reaches a known."""
    seen = set(p.known) - removed
    frontier = list(seen)
    while frontier:
        u = frontier.pop()
        for v in rest:
            if v not in seen and not math.isnan(p.values[u, v]):
                seen.add(v)
                frontier.append(v)
    return all(i in seen for i in rest)


def _make_cycle(p: Problem, cyc: list[int], anchor: int) -> None:
    """A 9/9/9 preference cycle among three unknowns, each compared only with
    the other two and with one known at ratio 1: the arithmetic solution of
    that block is negative, whatever the rest of the problem holds."""
    a, b, c = cyc
    for i in cyc:
        for j in range(p.n):
            if j != i:
                p.values[i, j] = p.values[j, i] = math.nan
                p.tokens[i][j] = p.tokens[j][i] = "?"
    _set_pair(p, a, b, "9", "1/9")
    _set_pair(p, b, c, "9", "1/9")
    _set_pair(p, c, a, "9", "1/9")
    for i in cyc:
        _set_pair(p, i, anchor, "1", "1")
    # The other unknowns must still reach a known.
    rest = [i for i in range(p.n) if i not in cyc]
    if not _connected_without(p, set(cyc), rest):
        for i in rest:
            if i not in p.known:
                j = next(iter(p.known))
                ratio = p.values[i, j] if not math.isnan(p.values[i, j]) else 1.0
                _set_pair(p, i, j, repr(float(ratio)), repr(1.0 / float(ratio)))


def make_workload(workload: str, seed: int, size: str = "full") -> list[Problem]:
    """Build the problems of a workload, with the CLI calls each goes through."""
    spec = SIZES[size][workload]
    rng = np.random.default_rng([seed, list(WHY).index(workload)])
    problems: list[Problem] = []
    if workload == "survey":
        for idx in range(spec["problems"]):
            p = _survey_problem(rng, idx, spec["n"])
            fail = INVALID_EXPECT.get(p.kind)
            p.ops = [
                ("rank", ["rank", "--method", "both"], fail),
                ("complete", ["complete", "--method", "geometric"],
                 None if p.kind == "cycle" else fail),
            ]
            problems.append(p)
    elif workload == "large":
        for idx, n in enumerate(spec["n"]):
            while True:
                p = _problem(rng, f"l{idx}", n, max(1, n // 10), 0.3, 0.2, "csv", "decimal")
                if _arithmetic_positive(p):
                    break
            p.ops = [
                ("rank", ["rank", "--method", "both"], None),
                ("complete", ["complete", "--method", "arithmetic"], None),
            ]
            problems.append(p)
    elif workload == "audit":
        # One complete problem, so compare also runs the baselines, and two
        # near-complete ones; formats and cell styles differ by position.
        shapes = [(0.0, "csv", "decimal"), (0.05, "json", "decimal"), (0.10, "csv", "fraction")]
        for idx, n in enumerate(spec["n"]):
            missing, fmt, style = shapes[idx % len(shapes)]
            while True:
                p = _problem(rng, f"a{idx}", n, max(1, n // 20), missing, 0.2, fmt, style)
                if _arithmetic_positive(p):
                    break
            p.ops = [
                ("check", ["check"], None),
                ("check_tol", ["check", "--tol", "0.25"], None),
                ("compare", ["compare"], None),
            ]
            problems.append(p)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return problems


def tiny_problem() -> Problem:
    """Fixed 4-alternative problem for warm-up and set-up timing."""
    labels = ["a", "b", "c", "d"]
    tokens = [
        ["1", "2", "4", "8"],
        ["1/2", "1", "2", "?"],
        ["1/4", "1/2", "1", "2"],
        ["1/8", "?", "1/2", "1"],
    ]
    values = np.array([[_parse(t) for t in row] for row in tokens])
    return Problem(
        name="tiny",
        labels=labels,
        values=values,
        tokens=tokens,
        known={3: 1.0},
        known_tokens={3: "1"},
        ops=[
            ("rank", ["rank", "--method", "both"], None),
            ("complete", ["complete", "--method", "geometric"], None),
            ("check", ["check"], None),
            ("compare", ["compare"], None),
        ],
    )


def input_paths(p: Problem, data_dir: Path) -> tuple[Path, Path | None]:
    main = data_dir / f"{p.name}.{p.fmt}"
    return main, (data_dir / f"{p.name}.known.csv") if p.known_file else None


def argv_for(p: Problem, args: list[str], data_dir: Path) -> list[str]:
    main, known = input_paths(p, data_dir)
    argv = [args[0], str(main), *args[1:]]
    if known is not None:
        argv += ["--known", str(known)]
    return argv


def write_problem(p: Problem, data_dir: Path) -> None:
    main, known_path = input_paths(p, data_dir)
    known_rows = [f"{p.labels[i]},{p.known_tokens[i]}" for i in sorted(p.known)]
    if p.fmt == "csv":
        lines = ["label," + ",".join(p.labels)]
        lines += [p.labels[i] + "," + ",".join(row) for i, row in enumerate(p.tokens)]
        if not p.known_file:
            lines += ["", "label,priority", *known_rows]
        text = "\n".join(lines) + "\n"
    else:
        def cell(i: int, j: int):
            token = p.tokens[i][j]
            if token == "?" or "/" in token:
                return token
            return float(p.values[i, j]) if i != j else 1

        obj = {
            "alternatives": p.labels,
            "matrix": [[cell(i, j) for j in range(p.n)] for i in range(p.n)],
        }
        if not p.known_file:
            obj["known"] = {p.labels[i]: p.known[i] for i in sorted(p.known)}
        text = json.dumps(obj) + "\n"
    main.write_text(text, encoding="utf-8")
    if known_path is not None:
        known_path.write_text("label,priority\n" + "\n".join(known_rows) + "\n", encoding="utf-8")


def save_truth(problems: list[Problem], data_dir: Path) -> None:
    """Store what the output checks need, so the measuring process does not
    have to generate (and hold) the file texts again."""
    np.savez(data_dir / "truth.npz", **{p.name: p.values for p in problems})
    meta = [
        {
            "name": p.name, "labels": p.labels, "known": sorted(p.known.items()),
            "fmt": p.fmt, "known_file": p.known_file,
            "kind": p.kind, "warn": p.warn, "ops": p.ops,
        }
        for p in problems
    ]
    (data_dir / "truth.json").write_text(json.dumps(meta), encoding="utf-8")


def load_truth(data_dir: Path) -> list[Problem]:
    meta = json.loads((data_dir / "truth.json").read_text(encoding="utf-8"))
    with np.load(data_dir / "truth.npz") as arrays:
        return [
            Problem(
                name=m["name"], labels=m["labels"], values=arrays[m["name"]], tokens=[],
                known={int(i): v for i, v in m["known"]}, known_tokens={},
                fmt=m["fmt"], known_file=m["known_file"],
                kind=m["kind"], warn=m["warn"],
                ops=[(name, args, tuple(fail) if fail else None) for name, args, fail in m["ops"]],
            )
            for m in meta
        ]
