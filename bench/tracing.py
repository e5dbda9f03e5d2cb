"""Span tracing of pcrank from outside the program.

Each layer is a public function (or class) of a pcrank module.  Installing
the tracer replaces every reference to it that pcrank's modules hold, under
whatever name and in module-level dicts such as a dispatch table, so callers
that look the name up at call time go through a wrapper that records a span.
A class is wrapped at its ``__init__``, which keeps ``isinstance`` working.
Spans stay in memory (name, start, end, parent, operation id) until the run
writes them out.  A layer whose target no longer exists is reported absent;
the run goes on without it.
"""

from __future__ import annotations

import importlib
import math
import sys
from collections import defaultdict
from time import perf_counter


def _input_chars(counts, args, kwargs, result):
    # The generated inputs are ASCII, so characters are bytes.
    text = args[0] if args else kwargs.get("text", "")
    known = args[2] if len(args) > 2 else kwargs.get("known_text")
    counts["formats.input_bytes"] += len(text) + len(known or "")


def _triads(counts, args, kwargs, result):
    n = getattr(args[0] if args else kwargs.get("matrix"), "n", 0)
    counts["matrix.triads_examined"] += math.comb(n, 3)
    counts["matrix.triad_deviations"] += len(result)


def _flops(counts, args, kwargs, result):
    # LU with partial pivoting of a k-by-k system: 2/3 k^3 flops, computed.
    k = len(result)
    counts["linsolve.flops_computed"] += 2.0 * k**3 / 3.0


def _evm_iterations(counts, args, kwargs, result):
    counts["baselines.evm.iterations"] += getattr(result, "iterations", None) or 0


# (layer, module, attribute, counter run on the call's arguments and result)
TARGETS = [
    ("cli.main", "pcrank.cli", "main", None),
    ("formats.parse_problem", "pcrank.formats", "parse_problem", _input_chars),
    ("formats.serialize_ranking", "pcrank.formats", "serialize_ranking", None),
    ("formats.serialize_problem", "pcrank.formats", "serialize_problem", None),
    ("matrix.PCMatrix", "pcrank.matrix", "PCMatrix", None),
    ("matrix.ensure_solvable", "pcrank.matrix", "ensure_solvable", None),
    ("matrix.diagnose", "pcrank.matrix", "diagnose", None),
    ("matrix.check_consistency", "pcrank.matrix", "check_consistency", _triads),
    ("matrix.fill_missing", "pcrank.matrix", "fill_missing", None),
    ("arithmetic.build_arithmetic_system", "pcrank.arithmetic", "build_arithmetic_system", None),
    ("arithmetic.solve_arithmetic", "pcrank.arithmetic", "solve_arithmetic", None),
    ("geometric.build_geometric_system", "pcrank.geometric", "build_geometric_system", None),
    ("geometric.solve_geometric", "pcrank.geometric", "solve_geometric", None),
    ("linsolve.solve", "pcrank.linsolve", "solve", _flops),
    ("baselines.evm", "pcrank.baselines", "evm", _evm_iterations),
    ("baselines.gmm", "pcrank.baselines", "gmm", None),
]

COUNTS = [
    "formats.input_bytes",
    "matrix.triads_examined",
    "matrix.triad_deviations",
    "linsolve.flops_computed",
    "baselines.evm.iterations",
]


class Tracer:
    """Records spans while installed; :meth:`install` and :meth:`uninstall`
    swap the wrappers in and out so untraced calls run the original code."""

    def __init__(self):
        self.spans: list[list] = []   # [layer, start, end, parent index, op id]
        self.counts: dict[str, float] = defaultdict(float)
        self.op = 0
        self._stack: list[int] = []
        self._sites: list[tuple[object, str, object, object]] = []
        self.layers: list[str] = []
        self.absent: list[str] = []
        for layer, module, attr, counter in TARGETS:
            try:
                target = getattr(importlib.import_module(module), attr)
            except (ImportError, AttributeError):
                self.absent.append(layer)
                continue
            self.layers.append(layer)
            if isinstance(target, type):
                init = target.__dict__.get("__init__", target.__init__)
                self._sites.append((target, "__init__", init, self._wrap(layer, init, counter)))
            else:
                wrapper = self._wrap(layer, target, counter)
                self._sites += [(ns, key, target, wrapper) for ns, key in _references(target)]

    def _wrap(self, layer, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for ns, key, _, wrapper in self._sites:
            _set(ns, key, wrapper)

    def uninstall(self) -> None:
        for ns, key, original, _ in self._sites:
            _set(ns, key, original)

    def self_times(self):
        """Per span: its duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own


def _references(target):
    """Every (namespace, key) in pcrank's modules that holds ``target``:
    module globals and the values of module-level dicts."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "pcrank" or name.startswith("pcrank.")):
            continue
        for key, value in vars(module).items():
            if value is target:
                found.append((module, key))
            elif type(value) is dict:
                found += [(value, k) for k, v in value.items() if v is target]
    return found


def _set(ns, key, value) -> None:
    if isinstance(ns, dict):
        ns[key] = value
    else:
        setattr(ns, key, value)
