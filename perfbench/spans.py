"""Call spans around the chaosinfer layers, recorded from outside the package.

A `Tracer` replaces every public function of the eight layer modules, wherever
a chaosinfer module has bound it, with a wrapper that records one span per
call: name, start, end and the index of the calling span.  Nothing under
`src/` changes; uninstalling puts the original functions back.

Work counters (trajectory steps, symbols scanned, table cells, ...) are taken
from the arguments and results of calls that enter a layer.  The time spent
taking them is recorded as its own `trace.counters` span, so it is not charged
to any layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from types import FunctionType

import numpy as np

from chaosinfer.counts import CountTable
from chaosinfer.dynamics import Trajectory
from chaosinfer.order_select import OrderPosterior
from chaosinfer.symbolize import SymbolSequence

PACKAGE = "chaosinfer"
LAYERS = ("dynamics", "symbolize", "counts", "inference", "order_select", "entropy", "sweep", "cli")
COUNTER_SPAN = "trace.counters"
DIGAMMA = "entropy.digamma"
EMIT = ("sweep.emit", "sweep.emit_detail")


def public_functions(module) -> dict[str, FunctionType]:
    """Functions a module defines itself under a name without a leading underscore."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


def _values(args, kwargs):
    yield from args
    yield from kwargs.values()


def _count_dynamics(counts, args, kwargs, result):
    if isinstance(result, Trajectory):
        counts["dynamics.steps"] += result.transient + len(result)


def _count_symbolize(counts, args, kwargs, result):
    if isinstance(result, SymbolSequence):
        counts["symbolize.states"] += len(result)


def _count_counts(counts, args, kwargs, result):
    for value in _values(args, kwargs):
        if isinstance(value, SymbolSequence):
            counts["counts.symbols_scanned"] += len(value)


def _count_inference(counts, args, kwargs, result):
    for value in _values(args, kwargs):
        if isinstance(value, CountTable):
            table = value.table
            counts["inference.cells"] += table.size
            counts["inference.contexts"] += table.shape[0]
            counts["inference.visited"] += int(np.count_nonzero(table.any(axis=1)))


def _count_order_select(counts, args, kwargs, result):
    if isinstance(result, OrderPosterior):
        counts["order_select.rankings"] += 1
        counts["order_select.top_k"] += int(result.selected == result.orders[-1])


def _count_digamma(counts, args, kwargs, result):
    x = args[0] if args else next(iter(kwargs.values()))
    counts["entropy.digamma_evals"] += int(np.size(x))


# Counters run on calls that enter the layer from another one; digamma's run on every call.
_LAYER_COUNTERS = {
    "dynamics": _count_dynamics,
    "symbolize": _count_symbolize,
    "counts": _count_counts,
    "inference": _count_inference,
    "order_select": _count_order_select,
}


class Tracer:
    """Records spans of calls into the chaosinfer layers while installed.

    Spans are tuples (name, start_ns, end_ns, parent_index) in call order;
    parent_index is -1 for a call made from outside every layer.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        # Self time per layer and the time of root spans, added up while the
        # calls run; layer_report derives both again from the span list.
        self.live_self_ns: Counter = Counter()
        self.live_root_ns = 0
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, FunctionType]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.live_self_ns.clear()
        self.live_root_ns = 0

    def targets(self) -> dict[FunctionType, str]:
        """Every public function of the layer modules, mapped to its span name."""
        found = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, fn in public_functions(module).items():
                found[fn] = f"{layer}.{name}"
        return found

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {fn: self._wrap(fn, name) for fn, name in self.targets().items()}
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, FunctionType) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        self._stack.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, fn: FunctionType, name: str):
        layer = layer_of(name)
        layer_counter = _LAYER_COUNTERS.get(layer)
        tracer, spans, stack, counts = self, self.spans, self._stack, self.counts
        live, clock = self.live_self_ns, time.perf_counter_ns

        def charge_caller(ns: int) -> None:
            if stack:
                stack[-1][2] += ns
            else:
                tracer.live_root_ns += ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, parent_layer, _ = stack[-1] if stack else (-1, "", 0)
            index = len(spans)
            spans.append(None)
            frame = [index, layer, 0]  # the last item adds up the time of child spans
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
                live[layer] += end - start - frame[2]
                charge_caller(end - start)
            counter = _count_digamma if name == DIGAMMA else (
                layer_counter if parent_layer != layer else None
            )
            if counter is not None:
                counter(counts, args, kwargs, result)
                counted = clock()
                spans.append((COUNTER_SPAN, end, counted, parent))
                live["trace"] += counted - end
                charge_caller(counted - end)
            return result

        return traced


def self_times(spans) -> list[int]:
    """Each span's duration minus the durations of its child spans."""
    out = [end - start for name, start, end, parent in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_report(spans, counts, wall_start: int, wall_end: int) -> dict:
    """Per-layer self time, calls and counters for one traced call.

    `wall_start`/`wall_end` bracket the traced call as seen by the caller;
    time inside that window outside every root span is glue.  Calls count
    spans that enter a layer from outside it.  Every layer appears, with zeros
    when it was never called.
    """
    selfs = self_times(spans)
    self_ns = {layer: 0 for layer in LAYERS + ("trace",)}
    calls = {layer: 0 for layer in LAYERS}
    digamma_ns = emit_ns = root_ns = 0
    for (name, start, end, parent), own in zip(spans, selfs):
        layer = layer_of(name)
        self_ns[layer] = self_ns.get(layer, 0) + own
        if parent < 0:
            root_ns += end - start
        if name == DIGAMMA:
            digamma_ns += own
        if layer in calls and (parent < 0 or layer_of(spans[parent][0]) != layer):
            calls[layer] += 1
        if name in EMIT and (parent < 0 or spans[parent][0] not in EMIT):
            emit_ns += end - start
    wall = wall_end - wall_start
    return {
        "wall_ns": wall,
        "glue_ns": wall - root_ns,
        "self_ns": self_ns,
        "calls": calls,
        "digamma_self_ns": digamma_ns,
        "emit_ns": emit_ns,
        "counts": dict(counts),
    }


def accounting_gap_ns(report: dict, live_self_ns, live_root_ns: int) -> int:
    """How far the report's self times and glue are from those the tracer added up live.

    The report derives them from the span list after the call; the tracer
    added them up frame by frame while the calls ran.  A span that was lost,
    left open, given the wrong parent or recorded twice makes the two differ.
    """
    layers = set(report["self_ns"]) | set(live_self_ns)
    gap = sum(abs(report["self_ns"].get(layer, 0) - live_self_ns.get(layer, 0)) for layer in layers)
    return gap + abs(report["glue_ns"] - (report["wall_ns"] - live_root_ns))


def layer_metrics(report: dict) -> dict[str, float]:
    """Per-layer metric values, by the names BENCHMARK.json declares."""
    s = {layer: ns / 1e9 for layer, ns in report["self_ns"].items()}
    calls, counts = report["calls"], report["counts"]

    def ratio(num, den):
        return num / den if den else 0.0

    steps = counts.get("dynamics.steps", 0)
    scanned = counts.get("counts.symbols_scanned", 0)
    rankings = counts.get("order_select.rankings", 0)
    return {
        "dynamics.self_s": s["dynamics"],
        "dynamics.calls": calls["dynamics"],
        "dynamics.steps": steps,
        "dynamics.ns_per_step": ratio(report["self_ns"]["dynamics"], steps),
        "symbolize.self_s": s["symbolize"],
        "symbolize.calls": calls["symbolize"],
        "symbolize.states": counts.get("symbolize.states", 0),
        "counts.self_s": s["counts"],
        "counts.calls": calls["counts"],
        "counts.symbols_scanned": scanned,
        "counts.ns_per_symbol": ratio(report["self_ns"]["counts"], scanned),
        "inference.self_s": s["inference"],
        "inference.calls": calls["inference"],
        "inference.cells": counts.get("inference.cells", 0),
        "inference.visited_frac": ratio(
            counts.get("inference.visited", 0), counts.get("inference.contexts", 0)
        ),
        "order_select.self_s": s["order_select"],
        "order_select.calls": calls["order_select"],
        "order_select.us_per_call": ratio(s["order_select"] * 1e6, calls["order_select"]),
        "order_select.top_k_frac": ratio(counts.get("order_select.top_k", 0), rankings),
        "entropy.self_s": s["entropy"],
        "entropy.calls": calls["entropy"],
        "entropy.digamma_self_s": report["digamma_self_ns"] / 1e9,
        "entropy.digamma_evals": counts.get("entropy.digamma_evals", 0),
        "sweep.self_s": s["sweep"],
        "sweep.emit_s": report["emit_ns"] / 1e9,
        "cli.self_s": s["cli"],
        "trace.counters_s": s["trace"],
        "trace.glue_frac": ratio(report["glue_ns"], report["wall_ns"]),
    }


def dump(spans, path) -> None:
    """Write spans as JSON: a name table plus rows [name index, start, end, parent].

    Times are in ns from the first span's start.
    """
    names: dict[str, int] = {}
    origin = spans[0][1] if spans else 0
    rows = [[names.setdefault(n, len(names)), s - origin, e - origin, p] for n, s, e, p in spans]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"names": list(names), "spans": rows}, fh, separators=(",", ":"))
        fh.write("\n")
