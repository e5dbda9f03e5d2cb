"""Output checks written from the definitions, with numpy and the standard
library only; nothing here imports pcrank.

Each ``check_*`` function takes the generated problem (ground truth, in file
order) and the text a CLI call printed, and returns a list of mismatch
messages; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

RESIDUAL_TOL = 1e-8   # output priorities carry 12 significant digits
SUM_TOL = 1e-9
DEFAULT_TOL = 1e-9    # the CLI's documented default --tol


def _split(values: np.ndarray, known: dict[int, float]):
    n = values.shape[0]
    mask = ~np.isnan(values)
    np.fill_diagonal(mask, False)
    unknown = np.array([i for i in range(n) if i not in known], dtype=int)
    known_idx = np.array(sorted(known), dtype=int)
    return mask, unknown, known_idx


def reference_priorities(values: np.ndarray, known: dict[int, float], method: str) -> np.ndarray:
    """Solve the estimation rule's fixed point directly (file order).

    Arithmetic: w_i = mean of c_ij w_j over defined j != i.
    Geometric:  w_i^d_i = product of c_ij w_j over defined j != i.
    Known priorities are fixed; raises ``numpy.linalg.LinAlgError`` when
    the system is singular.
    """
    mask, u, k = _split(values, known)
    c = np.where(mask, values, 0.0)
    d = mask.sum(axis=1).astype(float)
    w_known = np.array([known[i] for i in k])
    w = np.empty(values.shape[0])
    w[k] = w_known
    if method == "arithmetic":
        a = np.eye(len(u)) - c[np.ix_(u, u)] / d[u, None]
        b = c[np.ix_(u, k)] @ w_known / d[u]
        w[u] = np.linalg.solve(a, b)
    else:
        m = mask.astype(float)
        logc = np.log(np.where(mask, values, 1.0))
        a = np.diag(d[u]) - m[np.ix_(u, u)]
        b = logc[u].sum(axis=1) + m[np.ix_(u, k)] @ np.log(w_known)
        w[u] = np.exp(np.linalg.solve(a, b))
    return w


def arithmetic_residual(values: np.ndarray, known: dict[int, float], w: np.ndarray) -> float:
    """Worst relative violation of the averaging identity over unknown rows."""
    mask, u, _ = _split(values, known)
    c = np.where(mask, values, 0.0)
    mean = (c @ w) / mask.sum(axis=1)
    return float(np.max(np.abs(w[u] - mean[u]) / np.abs(w[u]))) if len(u) else 0.0


def geometric_residual(values: np.ndarray, known: dict[int, float], w: np.ndarray) -> float:
    """Worst violation of the product identity over unknown rows, in logs,
    relative to the size of the terms summed."""
    mask, u, _ = _split(values, known)
    m = mask.astype(float)
    logc = np.log(np.where(mask, values, 1.0))
    logw = np.log(w)
    d = mask.sum(axis=1)
    lhs = d * logw
    rhs = logc.sum(axis=1) + m @ logw
    scale = np.abs(logc).sum(axis=1) + m @ np.abs(logw) + np.abs(lhs) + 1.0
    return float(np.max(np.abs(lhs - rhs)[u] / scale[u])) if len(u) else 0.0


RESIDUALS = {"arithmetic": arithmetic_residual, "geometric": geometric_residual}


def triad_count(values: np.ndarray, known: dict[int, float], tol: float) -> int:
    """Unordered triples i < j < k, all three pairs defined, whose direct
    judgment c_ij differs from c_ik * c_kj by more than ``tol`` relative.

    On inconsistent data the count depends on which pair of a triple is the
    direct one, so i < j < k is taken in the canonical order problems load in:
    unknown alternatives first, then known ones, each in file order.
    """
    n = values.shape[0]
    order = [i for i in range(n) if i not in known] + sorted(known)
    values = values[np.ix_(order, order)]
    count = 0
    for i in range(n - 2):
        direct = values[i, i + 1 :, None]            # c_ij over j > i
        indirect = values[i, None, i + 1 :] * values[i + 1 :, i + 1 :].T  # c_ik * c_kj
        dev = np.abs(direct - indirect) / direct
        upper = np.triu(np.ones((n - i - 1, n - i - 1), dtype=bool), 1)  # k > j
        count += int(np.count_nonzero((dev > tol) & upper))  # NaN compares False
    return count


def _csv_table(text: str) -> list[list[str]]:
    return [row for row in csv.reader(io.StringIO(text))]


def _known_verbatim(p, got: dict[str, float], where: str) -> list[str]:
    return [
        f"{where}: known {p.labels[i]} is {got.get(p.labels[i])}, expected {v:.12g}"
        for i, v in p.known.items()
        if got.get(p.labels[i]) != float(f"{v:.12g}")
    ]


def check_rank(p, text: str) -> list[str]:
    """``rank --method both``: file order, known values verbatim, both rules'
    fixed-point residuals."""
    if p.fmt == "json":
        obj = json.loads(text)
        columns = {name: obj[name] for name in ("arithmetic", "geometric")}
        orders = [list(col) for col in columns.values()]
    else:
        rows = _csv_table(text)
        if rows[0] != ["label", "arithmetic", "geometric"]:
            return [f"rank: header {rows[0]}"]
        orders = [[r[0] for r in rows[1:]]]
        columns = {
            name: {r[0]: float(r[col]) for r in rows[1:]}
            for col, name in ((1, "arithmetic"), (2, "geometric"))
        }
    errors = [f"rank: labels {order} not in file order" for order in orders if order != p.labels]
    for name, col in columns.items():
        errors += _known_verbatim(p, col, f"rank {name}")
        if errors:
            continue
        w = np.array([col[label] for label in p.labels])
        r = RESIDUALS[name](p.values, p.known, w)
        if not r <= RESIDUAL_TOL:
            errors.append(f"rank {name}: fixed-point residual {r:.3g}")
    return errors


def _complete_grid(p, text: str) -> tuple[list[str], np.ndarray, dict[str, float]]:
    if p.fmt == "json":
        obj = json.loads(text)
        grid = np.array([[float(c) for c in row] for row in obj["matrix"]])
        return obj["alternatives"], grid, obj.get("known", {})
    rows = _csv_table(text)
    n = len(rows[0]) - 1
    grid = np.array([[float(c) for c in row[1:]] for row in rows[1 : n + 1]])
    known = {r[0]: float(r[1]) for r in rows[n + 3 :]}
    return rows[0][1:], grid, known


def check_complete(p, text: str, method: str, ref_w: np.ndarray) -> list[str]:
    """``complete``: defined cells unchanged, every filled cell w_i / w_j."""
    labels, grid, known = _complete_grid(p, text)
    if labels != p.labels:
        return [f"complete: labels {labels[:5]}... not in file order"]
    errors = _known_verbatim(p, known, "complete")
    defined = ~np.isnan(p.values)
    expect = np.vectorize(lambda v: float(f"{v:.12g}"))(np.where(defined, p.values, 1.0))
    changed = defined & (grid != expect)
    if changed.any():
        i, j = map(int, np.argwhere(changed)[0])
        errors.append(f"complete: defined cell ({i},{j}) changed to {grid[i, j]!r}")
    ratio = ref_w[:, None] / ref_w[None, :]
    off = ~defined & (np.abs(grid - ratio) > RESIDUAL_TOL * ratio)
    if off.any():
        i, j = map(int, np.argwhere(off)[0])
        errors.append(
            f"complete {method}: filled cell ({i},{j}) is {grid[i, j]!r}, w_i/w_j is {ratio[i, j]!r}"
        )
    return errors


def check_check(p, text: str, code: int, tol: float) -> list[str]:
    """``check``: the reported deviation count equals an independent count,
    each is listed, and the exit code says whether there were findings."""
    lines = text.splitlines()
    head = next((ln for ln in lines if ln.startswith("triad deviations above tol")), None)
    if head is None:
        return ["check: no triad deviation line"]
    reported = int(head.rsplit(":", 1)[1])
    listed = sum(1 for ln in lines if ln.startswith("  ("))
    expected = triad_count(p.values, p.known, tol)
    errors = []
    if reported != expected or listed != expected:
        errors.append(f"check tol {tol:g}: reported {reported}, listed {listed}, expected {expected}")
    if "reciprocity violations: 0" not in lines or "connectivity: ok" not in lines:
        errors.append("check: reciprocity or connectivity findings on a valid problem")
    if code != (1 if expected else 0):
        errors.append(f"check tol {tol:g}: exit code {code} with {expected} deviations")
    return errors


def check_compare(p, text: str) -> list[str]:
    """``compare``: columns present, each sums to 1, the estimation rules'
    residuals hold, and the baselines match their definitions."""
    rows = _csv_table(text)
    header = rows[1]
    names = header[1:]
    expected_names = ["arithmetic", "geometric"] + (["evm", "gmm"] if p.complete else [])
    if names != expected_names:
        return [f"compare: columns {names}, expected {expected_names}"]
    body = rows[2 : 2 + p.n]
    errors = []
    if [r[0] for r in body] != p.labels:
        errors.append("compare: labels not in file order")
    cols = {name: np.array([float(r[c + 1]) for r in body]) for c, name in enumerate(names)}
    for name, col in cols.items():
        if abs(col.sum() - 1.0) > SUM_TOL:
            errors.append(f"compare {name}: column sums to {col.sum()!r}")
    for name in ("arithmetic", "geometric"):
        r = RESIDUALS[name](p.values, {i: cols[name][i] for i in p.known}, cols[name])
        if not r <= RESIDUAL_TOL:
            errors.append(f"compare {name}: fixed-point residual {r:.3g}")
    if p.complete:
        g = np.exp(np.log(p.values).mean(axis=1))
        g /= g.sum()
        if not np.allclose(cols["gmm"], g, rtol=RESIDUAL_TOL, atol=0.0):
            errors.append("compare gmm: not the normalized row geometric means")
        v = cols["evm"]
        lam = (p.values @ v) / v
        if not lam.max() - lam.min() <= 1e-6 * lam.mean():
            errors.append("compare evm: not an eigenvector")
    pairs = len(names) * (len(names) - 1) // 2
    if sum(1 for r in rows if r and r[0].startswith("max relative difference")) != pairs:
        errors.append("compare: missing pairwise difference lines")
    return errors


def check_failure(code: int, err: str, expect_code: int, expect_token: str) -> list[str]:
    """An invalid input fails with its documented exit code and first token."""
    first = err.split(":", 1)[0] if err else ""
    if code != expect_code or first != expect_token or len(err.splitlines()) != 1:
        return [f"expected exit {expect_code} {expect_token}, got exit {code} {err.strip()[:120]!r}"]
    return []


def check_stderr(err: str, warn: bool) -> list[str]:
    """A successful call prints nothing on stderr except, when the problem
    was built to trigger it, the known-comparison warning."""
    lines = err.splitlines()
    if warn:
        ok = bool(lines) and all(ln.startswith("WARNING:") for ln in lines)
    else:
        ok = not lines
    return [] if ok else [f"stderr {err.strip()[:120]!r} (warning expected: {warn})"]


def check_op(p, op, code: int, out: str, err: str, reference) -> list[str]:
    """Check one CLI call's outcome.  ``op`` is the problem's
    ``(name, args, expected failure)``; ``reference(p, method)`` returns the
    reference priorities of ``p`` for an estimation rule."""
    _, args, fail = op
    if fail is not None:
        return check_failure(code, err, *fail)
    errors = check_stderr(err, p.warn)
    if args[0] == "check":
        tol = float(args[args.index("--tol") + 1]) if "--tol" in args else DEFAULT_TOL
        return errors + check_check(p, out, code, tol)
    if code != 0:
        return errors + [f"{args[0]}: exit {code}"]
    if args[0] == "rank":
        errors += check_rank(p, out)
    elif args[0] == "complete":
        method = args[args.index("--method") + 1]
        errors += check_complete(p, out, method, reference(p, method))
    elif args[0] == "compare":
        errors += check_compare(p, out)
    return errors
