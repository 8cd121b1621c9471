"""Layer spans recorded from outside the package.

``Tracer.install`` wraps every public module-level function of each layer
module and rebinds the wrapper under every name that refers to the original
in any ``annulus_flux`` module, because several modules import functions by
name (``navier_stokes`` holds its own reference to ``solve_stream_system``).
Methods are not wrapped: their time counts toward the layer of the function
that called them.

Spans are kept in memory as ``(key, start, end, parent, op)`` tuples, with
``parent`` the index of the enclosing span or -1, and summarised when the
run ends.  The package runs single-threaded by default, so one stack of open
spans describes the nesting.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

PACKAGE = "annulus_flux"
LAYERS = ("grid", "fields", "boundary", "stokes", "navier_stokes", "diagnostics",
          "oracle", "verify", "cli")

STREAM_SOLVE = "stokes.solve_stream_system"
PRESSURE = {"stokes.pressure_from_momentum", "stokes.pressure_poisson"}
IO = {"fields.write_velocity_csv", "fields.write_scalar_csv", "fields.read_velocity_csv"}
MEMORY_LAYERS = ("stokes", "navier_stokes", "fields", "diagnostics")


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - child[i] for i, (_, start, end, *_) in enumerate(spans)]


def outermost_time(spans, keys, ops) -> float:
    """Total duration of spans of ``ops`` in ``keys`` that have no ancestor in ``keys``."""
    total = 0.0
    for key, start, end, parent, op in spans:
        if key not in keys or op not in ops:
            continue
        while parent >= 0 and spans[parent][0] not in keys:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total


def layer_of(key: str) -> str:
    return key.split(".", 1)[0]


class Tracer:
    """Records spans and counters while ``op`` is not None."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.peak_alloc: dict[str, int] = defaultdict(int)
        self.op: int | None = None
        self.memory = False
        self._stack: list[int] = []
        self._mem_stack: list[list[int]] = []  # [start bytes, peak bytes] per open span

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public functions and rebind them everywhere."""
        layers = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        wrapped = {}
        for layer, module in layers.items():
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for module in modules:
            for name, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, name, hit[1])

    def _wrap(self, key: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            if self.memory:
                self._memory_boundary()
                now = tracemalloc.get_traced_memory()[0]
                self._mem_stack.append([now, now])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (key, start, end, parent, self.op)
                if self.memory:
                    self._memory_boundary()
                    begin, peak = self._mem_stack.pop()
                    layer = layer_of(key)
                    self.peak_alloc[layer] = max(self.peak_alloc[layer], peak - begin)
            self._count(key, args, kwargs, result)
            return result

        return traced

    def _memory_boundary(self) -> None:
        """Fold the allocation peak since the last boundary into every open span."""
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for entry in self._mem_stack:
            entry[1] = max(entry[1], peak)

    def _count(self, key, args, kwargs, result) -> None:
        counts = self.counts[self.op]
        if key == "navier_stokes.solve":
            counts["solves"] += 1
            counts["iterations"] += result.iterations
            counts["converged"] += int(result.converged)
        elif key == "navier_stokes.sweep":
            values = args[4] if len(args) > 4 else kwargs["values"]
            counts["sweep_retries"] += len(result.points) - len(values)
        elif key in IO:
            path = args[0] if args else kwargs["path"]
            counts["io_bytes"] += os.path.getsize(path)

    # -- memory phase ------------------------------------------------------------

    def start_memory(self) -> None:
        tracemalloc.start()
        self.memory = True

    def stop_memory(self) -> None:
        self.memory = False
        tracemalloc.stop()


def summarise(tracer: Tracer, timed_ops: list[int], first_op: int) -> dict[str, float]:
    """Per-op means over ``timed_ops``, plus the cold first stokes call of ``first_op``.

    A layer that the ops never enter reads 0 s: only the verify workload enters
    ``oracle`` and ``verify``, and only ``solve`` reads or writes CSV fields.
    """
    ops = set(timed_ops)
    spans = tracer.spans
    selfs = self_times(spans)
    per_layer = Counter()
    for span, own in zip(spans, selfs):
        if span[4] in ops:
            per_layer[layer_of(span[0])] += own
    n = max(len(ops), 1)
    out = {f"{layer}.self_s": per_layer[layer] / n for layer in LAYERS}
    out["stokes.stream_solve_s"] = outermost_time(spans, {STREAM_SOLVE}, ops) / n
    out["stokes.pressure_s"] = outermost_time(spans, PRESSURE, ops) / n
    out["fields.io_s"] = outermost_time(spans, IO, ops) / n
    out["stokes.stream_solve_calls"] = sum(
        1 for s in spans if s[0] == STREAM_SOLVE and s[4] in ops) / n
    counts = Counter()
    for op in ops:
        counts.update(tracer.counts.get(op, {}))
    out["navier_stokes.solves"] = counts["solves"] / n
    out["navier_stokes.iterations"] = counts["iterations"] / n
    out["navier_stokes.sweep_retries"] = counts["sweep_retries"] / n
    out["navier_stokes.converged_ratio"] = counts["converged"] / max(counts["solves"], 1)
    out["fields.io_bytes"] = counts["io_bytes"] / n
    out["stokes.first_call_s"] = next(
        (end - start for key, start, end, parent, op in spans
         if op == first_op and layer_of(key) == "stokes"
         and (parent < 0 or layer_of(spans[parent][0]) != "stokes")), 0.0)
    for layer in MEMORY_LAYERS:
        out[f"{layer}.peak_alloc_mb"] = tracer.peak_alloc[layer] / 2**20
    return out
