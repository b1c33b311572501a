"""Per-layer span tracing of the manna package, installed from outside it.

A :class:`Tracer` replaces each traced function in every ``manna.*``
module namespace that binds it with a wrapper that records one span per
call: the function name, start, end, the enclosing span and the op it
belongs to. Spans stay in memory until the run ends. A layer's self
time is the duration of its spans minus the part of each span that its
child spans cover, so the self times of all spans in a tree add up to
the duration of the tree's root.

Nothing here imports manna at module level: the workload process times
``import manna`` itself.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Sequence

# Span record fields; spans are plain lists because one is made per call.
NAME, PARENT, START, END, OP, SIZE = range(6)

# Traced public functions, by home module. The wrapper is installed under
# every name that binds the same function object in any manna module.
FUNCTIONS = {
    "manna.preprocess": ("compute_constants", "compute_lambda", "compute_omega", "perturb"),
    "manna.kkm": ("find_wstar", "membership_summary", "build_star_point"),
    "manna.pricing": ("dual_prices", "build_tie_graph", "enumerate_opt"),
    "manna.leveling": ("compute_tau", "find_leveled"),
    "manna.augmenting": ("solve_by_augmenting", "augment"),
    "manna.oracles": ("verify_certificate", "brute_po"),
    "manna.model": ("ief1_witnesses",),
    "manna.solver": ("solve",),
}
# Traced methods of the certificate class: (module, class, method).
METHODS = (("manna.certificate", "Certificate", "to_json"), ("manna.certificate", "Certificate", "from_json"))

# What a call's result contributes as a size count.
SIZES: dict[str, Callable] = {"enumerate_opt": len, "to_json": len}

# Self time of each traced function goes to one per-layer metric.
SELF_METRIC = {
    "compute_constants": "preprocess.constants_s",
    "compute_lambda": "preprocess.lambda_s",
    "compute_omega": "preprocess.omega_s",
    "perturb": "preprocess.perturb_s",
    "find_wstar": "kkm.search_self_s",
    "membership_summary": "kkm.membership_s",
    "build_star_point": "kkm.star_s",
    "dual_prices": "pricing.dual_prices_s",
    "build_tie_graph": "pricing.tie_graph_s",
    "enumerate_opt": "pricing.enumerate_opt_s",
    "compute_tau": "leveling.tau_s",
    "find_leveled": "leveling.leveled_s",
    "solve_by_augmenting": "augmenting.solve_s",
    "augment": "augmenting.solve_s",
    "verify_certificate": "oracles.verify_s",
    "brute_po": "oracles.brute_po_s",
    "ief1_witnesses": "oracles.ief1_s",
    "to_json": "certificate.to_json_s",
    "from_json": "certificate.from_json_s",
    "solve": "solver.self_s",
}
# The verifier re-derives the constants itself; that work is the oracles layer's.
UNDER_VERIFIER = {"compute_lambda": "oracles.lambda_s", "compute_omega": "oracles.omega_s"}
INCLUSIVE_METRIC = {"find_wstar": "kkm.find_wstar_s"}
CALL_METRIC = {
    "perturb": "preprocess.perturb_calls",
    "membership_summary": "kkm.membership_calls",
    "enumerate_opt": "pricing.enumerate_opt_calls",
    "augment": "augmenting.augment_calls",
}
SIZE_METRIC = {"enumerate_opt": "pricing.face_allocs", "to_json": "certificate.bytes"}

LAYERS = ("preprocess", "kkm", "pricing", "leveling", "augmenting", "oracles", "certificate", "solver")
# Spans the benchmark itself opens around each op and its round-trip check.
BENCH_ROOTS = ("op", "roundtrip")


class Tracer:
    """Records spans of the traced manna functions while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        record = [name, parent, 0.0, 0.0, self.op, None]
        self.spans.append(record)
        return record

    def _wrap(self, name: str, fn: Callable) -> Callable:
        if inspect.isgeneratorfunction(fn):
            raise TypeError(f"{name} is a generator; its span would end before its work")
        size = SIZES.get(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = self._open(name)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if size is not None:
                record[SIZE] = size(result)
            return result

        return wrapper

    @contextmanager
    def root(self, name: str):
        """A span opened by the benchmark itself around a traced region."""
        record = self._open(name)
        record[START] = time.perf_counter()
        try:
            yield record
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()

    def install(self) -> None:
        modules = [mod for key, mod in sorted(sys.modules.items()) if key == "manna" or key.startswith("manna.")]
        for home, names in FUNCTIONS.items():
            for name in names:
                original = getattr(sys.modules[home], name)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, value))
                            setattr(mod, attr, wrapper)
        for home, cls_name, name in METHODS:
            cls = getattr(sys.modules[home], cls_name)
            raw = cls.__dict__[name]
            self._patches.append((cls, name, raw))
            if isinstance(raw, classmethod):
                setattr(cls, name, classmethod(self._wrap(name, raw.__func__)))
            else:
                setattr(cls, name, self._wrap(name, raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="ascii") as fh:
            json.dump({"fields": ["name", "parent", "start", "end", "op", "size"], "spans": self.spans}, fh)


def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Each span's duration minus the union of its children's intervals inside it.

    Children may nest or overlap; covered time is counted once, and only
    the part of a child that lies inside its parent is subtracted.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span[PARENT] is not None:
            children[span[PARENT]].append(i)
    out = []
    for i, span in enumerate(spans):
        lo, hi = span[START], span[END]
        clipped = sorted(
            (max(spans[c][START], lo), min(spans[c][END], hi)) for c in children.get(i, ())
        )
        covered, run_start, run_end = 0.0, None, None
        for a, b in clipped:
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out.append((hi - lo) - covered)
    return out


def _under(spans: Sequence[Sequence], i: int, name: str) -> bool:
    parent = spans[i][PARENT]
    while parent is not None:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def layer_totals(spans: Sequence[Sequence]) -> tuple[dict[str, float], float, float]:
    """Per-layer metric totals, the summed self time, and the summed root duration."""
    selfs = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for i, span in enumerate(spans):
        name = span[NAME]
        if name in BENCH_ROOTS:
            totals["bench.self_s"] += selfs[i]
            continue
        metric = SELF_METRIC[name]
        if name in UNDER_VERIFIER and _under(spans, i, "verify_certificate"):
            metric = UNDER_VERIFIER[name]
        totals[metric] += selfs[i]
        if name in INCLUSIVE_METRIC:
            totals[INCLUSIVE_METRIC[name]] += span[END] - span[START]
        if name in CALL_METRIC:
            totals[CALL_METRIC[name]] += 1
        if name in SIZE_METRIC:
            totals[SIZE_METRIC[name]] += span[SIZE]
    root_total = sum(s[END] - s[START] for s in spans if s[PARENT] is None)
    return dict(totals), sum(selfs), root_total


def layer_shares(totals: dict[str, float], root_total: float) -> dict[str, float]:
    """Share of traced time spent in each layer's own code."""
    shares = {}
    for layer in LAYERS:
        own = sum(v for k, v in totals.items() if k.startswith(layer + ".") and k.endswith("_s") and k not in INCLUSIVE_METRIC.values())
        shares[f"{layer}.share"] = own / root_total if root_total > 0 else 0.0
    return shares


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric of a traced run, with its unit, in layer order."""
    units: dict[str, str] = {}
    for metric in (*SELF_METRIC.values(), *UNDER_VERIFIER.values(), *INCLUSIVE_METRIC.values()):
        units[metric] = "s/op"
    for metric in CALL_METRIC.values():
        units[metric] = "count/op"
    units["pricing.face_allocs"] = "count/op"
    units["certificate.bytes"] = "B/op"
    for layer in LAYERS:
        units[f"{layer}.share"] = "frac"
    order = {layer: i for i, layer in enumerate(LAYERS)}
    listed = sorted(units.items(), key=lambda kv: (order[kv[0].split(".")[0]], kv[0]))
    return listed + [("trace_op_s", "s/op"), ("trace_overhead_frac", "frac")]
