"""Command-line interface: validate, rank, complete, and compare.

Exit codes are a stable contract: 0 success, 1 findings (check only),
2 input or validation error, 3 solver failure.  Failures print a single
machine-readable line to stderr (``CODE: detail``); results go to stdout or
``--output``.

``main(argv)`` may be called any number of times in one process: it builds
its argument parser on the first call and reuses it, since parsing only
reads the parser and writes a fresh namespace.  ``main`` is not for
concurrent threads, because it installs a process-global warnings capture
for the length of each call.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
import warnings
from itertools import chain, combinations
from pathlib import Path
from typing import Iterable

from .arithmetic import build_arithmetic_system
from .baselines import evm, gmm
from .errors import KnownComparisonWarning, ParseError, PcrankError
from .formats import Problem, parse_problem, serialize_problem, serialize_ranking, serialize_table
from .formats import triad_listing
from .geometric import build_geometric_system
from .matrix import DEFAULT_TOL, diagnose, ensure_solvable, fill_missing

_BUILDERS = {"arithmetic": build_arithmetic_system, "geometric": build_geometric_system}


def _read_text(path: str) -> str:
    """The text of a file, or of stdin for ``-``, without a leading UTF-8
    byte-order mark."""
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return text.removeprefix("\ufeff")


def _tolerance(text: str) -> float:
    """``--tol``: a float that is neither NaN nor negative (``inf`` is allowed)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not value >= 0.0:
        raise argparse.ArgumentTypeError(f"expected a non-negative number, got {text!r}")
    return value


def _emit(args, chunks: Iterable[str]) -> None:
    """Write the output text, given as consecutive pieces, to ``--output`` or
    stdout."""
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as out:
            out.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _format_of(args) -> str:
    if args.format:
        return args.format
    return "json" if args.input.lower().endswith(".json") else "csv"


def _load(args) -> Problem:
    known_text = _read_text(args.known) if args.known else None
    return parse_problem(
        _read_text(args.input),
        fmt=_format_of(args),
        known_text=known_text,
        force_reciprocal=args.force_reciprocal,
    )


def _solve_methods(problem: Problem, methods, tol: float):
    """The ranking by each method in ``methods``, behind one run of the guard."""
    matrix, partition = problem.matrix, problem.partition
    ensure_solvable(matrix, partition, tol)
    return {name: _BUILDERS[name](matrix, partition).ranking(partition) for name in methods}


def _in_file_order(problem: Problem, columns: dict) -> dict:
    order = problem.file_order
    return {name: [values[i] for i in order] for name, values in columns.items()}


def cmd_rank(args) -> int:
    problem = _load(args)
    methods = ["arithmetic", "geometric"] if args.method == "both" else [args.method]
    rankings = _solve_methods(problem, methods, args.tol)
    if args.normalize:
        rankings = {name: r.normalized() for name, r in rankings.items()}

    columns = _in_file_order(problem, {name: r.values for name, r in rankings.items()})
    fmt = _format_of(args)
    if len(methods) == 1:
        _emit(args, [serialize_ranking(problem.original_labels, columns[args.method], fmt)])
    else:
        _emit(args, [serialize_table(problem.original_labels, columns, fmt)])
    return 0


def cmd_check(args) -> int:
    problem = _load(args)
    try:
        partition, unusable = problem.partition, None
    except PcrankError as exc:  # no known or no unknown alternative: a finding
        partition, unusable = None, exc
    report = diagnose(problem.matrix, partition, args.tol)

    lines = [f"alternatives: {problem.n} ({problem.k} unknown, {len(problem.known)} known)"]
    lines.append(f"reciprocity violations: {len(report.reciprocity_violations)}")
    for v in report.reciprocity_violations:
        lines.append(
            f"  {problem.labels[v.i]} vs {problem.labels[v.j]}: "
            f"{v.value:.12g} * {v.mirror:.12g} = {v.value * v.mirror:.12g}"
        )
    counts = ", ".join(
        f"{problem.labels[i]}={c}" for i, c in enumerate(report.undefined_counts)
    )
    lines.append(f"undefined comparisons per row: {counts}")
    if report.connectivity_ok is None:
        lines.append(f"connectivity: FAILED ({unusable})")
    elif report.connectivity_ok:
        lines.append("connectivity: ok")
    else:
        isolated = ", ".join(problem.labels[i] for i in report.isolated_unknowns)
        lines.append(f"connectivity: FAILED (unknowns not reaching any known: {isolated})")
    lines.append(f"triad deviations above tol {args.tol:g}: {len(report.triad_columns[3])}")
    listing = triad_listing(problem.labels, report.triad_columns)
    _emit(args, chain(["\n".join(lines) + "\n"], listing))
    return 0 if report.clean and unusable is None else 1


def cmd_complete(args) -> int:
    problem = _load(args)
    ranking = _solve_methods(problem, [args.method], args.tol)[args.method]
    filled = fill_missing(problem.matrix, ranking.values)
    completed = dataclasses.replace(problem, matrix=filled)
    _emit(args, [serialize_problem(completed, _format_of(args), args.number_style)])
    return 0


def cmd_compare(args) -> int:
    problem = _load(args)
    rankings = _solve_methods(problem, ["arithmetic", "geometric"], args.tol)
    columns = {name: rankings[name].normalized().values for name in rankings}
    if problem.matrix.is_complete:
        columns["evm"] = evm(problem.matrix).weights
        columns["gmm"] = gmm(problem.matrix).weights

    columns = _in_file_order(problem, columns)
    lines = ["# priorities rescaled to sum 1 for comparability"]
    lines.append(serialize_table(problem.original_labels, columns, "csv").rstrip("\n"))
    for a, b in combinations(columns, 2):
        diff = max(abs(x - y) / max(abs(x), abs(y)) for x, y in zip(columns[a], columns[b]))
        lines.append(f"max relative difference {a}/{b}: {diff:.6g}")
    _emit(args, ["\n".join(lines) + "\n"])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcrank",
        description="Rank decision alternatives from (possibly incomplete) pairwise "
        "comparisons, given fixed priorities for a reference subset.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("input", help="problem file (CSV or JSON), or - for stdin")
    common.add_argument(
        "--format", choices=["csv", "json"], help="file format (default: by extension)"
    )
    common.add_argument(
        "--known", metavar="PATH", help="separate known-priorities file (label,priority rows)"
    )
    common.add_argument(
        "--tol", type=_tolerance, default=DEFAULT_TOL,
        help="relative tolerance for reciprocity/consistency checks (default %(default)g)",
    )
    common.add_argument(
        "--force-reciprocal", action="store_true",
        help="repair the lower triangle from the upper while loading",
    )
    common.add_argument("--output", metavar="PATH", help="write output here instead of stdout")

    rank = sub.add_parser("rank", parents=[common], help="compute the priority ranking")
    rank.add_argument(
        "--method", choices=["arithmetic", "geometric", "both"], default="both",
        help="ranking method (default both, printed side by side)",
    )
    rank.add_argument(
        "--normalize", action="store_true",
        help="rescale priorities to sum to 1 (presentation only: alters the known values)",
    )
    rank.set_defaults(handler=cmd_rank)

    check = sub.add_parser("check", parents=[common], help="validate a problem file")
    check.set_defaults(handler=cmd_check)

    complete = sub.add_parser(
        "complete", parents=[common],
        help="fill missing comparisons from the solved ranking",
    )
    complete.add_argument(
        "--method", choices=["arithmetic", "geometric"], required=True,
        help="method whose ranking supplies the fill ratios",
    )
    complete.add_argument(
        "--number-style", choices=["decimal", "fraction"], default="decimal",
        help="how to print values (default decimal, 12 significant digits)",
    )
    complete.set_defaults(handler=cmd_complete)

    compare = sub.add_parser(
        "compare", parents=[common],
        help="tabulate all applicable methods side by side",
    )
    compare.set_defaults(handler=cmd_compare)
    return parser


# The parser ``main`` uses, built once per process: building it costs more
# than ten times as much as one ``parse_args``.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    def show_warning(message, category, filename, lineno, file=None, line=None):
        print(f"WARNING: {message}", file=sys.stderr)

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always", KnownComparisonWarning)
            warnings.showwarning = show_warning
            return args.handler(args)
    except PcrankError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"IO_ERROR: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
