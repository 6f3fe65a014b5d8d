"""Spans recorded from outside regulab, around calls into its public functions.

`Tracer.install` replaces the names that each consumer module imported
(for example `regulab.time_step.integrate_realline`) with timing wrappers,
so every call the program makes through that name passes through the
tracer.  Two kinds of wrapper exist:

* a span records (id, parent, op, layer, start, end) for every call;
* a leaf aggregates calls and total time per (enclosing span, layer).  It is
  for integrands and jets, called ~10^5 times per operation, and must not
  call any other wrapped name.

Self time of a span is its duration minus the part of it that its child
spans cover, minus the time of the leaf calls made directly under it.
Everything stays in memory until `dump` writes it out at the end of a run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

_now = time.perf_counter_ns

QUAD = "numerics.quad"
CLASSIFY = "numerics.classify"

# (consumer module, imported name, layer, kind)
WRAPPED = (
    ("time_step", "integrate_realline", QUAD, "span"),
    ("time_step", "integrate_interval", QUAD, "span"),
    ("static_well", "integrate_halfline", QUAD, "span"),
    ("flanagan", "integrate_interval", QUAD, "span"),
    ("regulator_lab", "classify_limit", CLASSIFY, "span"),
    ("time_step", "pointsplit_density", "time_step.pointsplit", "span"),
    ("cli", "pointsplit_density", "time_step.pointsplit", "span"),
    ("time_step", "mode_reg_density", "time_step.mode_reg", "span"),
    ("cli", "mode_reg_density", "time_step.mode_reg", "span"),
    ("time_step", "pointsplit_integrand", "time_step.integrand", "leaf"),
    ("static_well", "t00r_static", "static_well.t00r", "span"),
    ("cli", "t00r_static", "static_well.t00r", "span"),
    ("static_well", "s_omega", "static_well.integrand", "leaf"),
    ("flanagan", "parse", "exprlang.parse", "span"),
    ("flanagan", "eval_jet3", "exprlang.jet", "leaf"),
    ("regulator_lab", "scan_path", "regulator_lab.scan", "span"),
    ("cli", "scan_path", "regulator_lab.scan", "span"),
    ("cli", "qi_bound_rhs", "flanagan.qi", "span"),
    ("cli", "delta_flanagan", "flanagan.delta", "span"),
    ("cli", "delta_tau", "flanagan.delta", "span"),
    ("cli", "delta_pointsplit", "flanagan.delta", "span"),
    ("regulator_lab", "delta_pointsplit", "flanagan.delta", "span"),
    ("cli", "main", "cli", "span"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (span_id, parent_id, op_id, layer, start_ns, end_ns)
        self.leaves: dict = {}  # (parent_id, layer) -> [calls, total_ns]
        self.counts: dict = defaultdict(int)
        self.op_id = 0
        self._stack = [0]  # 0 is the root: no enclosing span
        self._next_id = 1
        self._in_leaf = False
        self._patched: list[tuple] = []

    def span(self, layer: str, fn, on_result=None, on_error=None):
        def wrapper(*args, **kwargs):
            if self._in_leaf:
                raise RuntimeError(f"{layer} called under a leaf layer")
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            self._stack.append(span_id)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                end = _now()
                self._stack.pop()
                self.spans.append((span_id, parent, self.op_id, layer, start, end))
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def leaf(self, layer: str, fn):
        leaves, stack = self.leaves, self._stack

        def wrapper(*args, **kwargs):
            if self._in_leaf:
                raise RuntimeError(f"{layer} called under a leaf layer")
            self._in_leaf = True
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _now() - start
                self._in_leaf = False
                key = (stack[-1], layer)
                entry = leaves.get(key)
                if entry is None:
                    leaves[key] = [1, elapsed]
                else:
                    entry[0] += 1
                    entry[1] += elapsed

        return wrapper

    def install(self, modules: dict, tolerance_not_met: type) -> None:
        """Wrap every name in WRAPPED; `modules` maps short names to modules."""

        def quad_done(result):
            self.counts["quad.evals"] += result.evaluations

        def quad_failed(exc):
            if isinstance(exc, tolerance_not_met):
                self.counts["quad.tol_not_met"] += 1
                self.counts["quad.evals"] += exc.evaluations

        def classified(outcome):
            self.counts["classify." + outcome.kind.value] += 1

        for mod_name, name, layer, kind in WRAPPED:
            module = modules[mod_name]
            original = getattr(module, name)
            if kind == "leaf":
                wrapper = self.leaf(layer, original)
            elif layer == QUAD:
                wrapper = self.span(layer, original, quad_done, quad_failed)
            elif layer == CLASSIFY:
                wrapper = self.span(layer, original, classified)
            else:
                wrapper = self.span(layer, original)
            self._patched.append((module, name, original))
            setattr(module, name, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            module, name, original = self._patched.pop()
            setattr(module, name, original)

    def dump(self, path: str, header: dict) -> None:
        doc = dict(header)
        doc["spans"] = [list(s) for s in self.spans]
        doc["leaves"] = [[p, layer, c, t] for (p, layer), (c, t) in self.leaves.items()]
        doc["counts"] = dict(self.counts)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans, leaves: dict) -> dict:
    """span_id -> duration minus child-span coverage minus direct leaf time."""
    children = defaultdict(list)
    for _, parent, _, _, start, end in spans:
        children[parent].append((start, end))
    leaf_ns = defaultdict(int)
    for (parent, _), (_, total) in leaves.items():
        leaf_ns[parent] += total
    out = {}
    for span_id, _, _, _, start, end in spans:
        out[span_id] = end - start - covered_ns(children.get(span_id, ()), start, end) - leaf_ns[span_id]
    return out


def layer_totals(spans, leaves: dict) -> dict:
    """layer -> {"calls", "wall_ns", "self_ns"}; a leaf's wall and self agree."""
    totals: dict = defaultdict(lambda: {"calls": 0, "wall_ns": 0, "self_ns": 0})
    selfs = self_times(spans, leaves)
    for span_id, _, _, layer, start, end in spans:
        row = totals[layer]
        row["calls"] += 1
        row["wall_ns"] += end - start
        row["self_ns"] += selfs[span_id]
    for (_, layer), (calls, total) in leaves.items():
        row = totals[layer]
        row["calls"] += calls
        row["wall_ns"] += total
        row["self_ns"] += total
    return dict(totals)
