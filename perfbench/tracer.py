"""Span tracing from outside the program: wraps vecsim's public calls in place.

Each wrapped call is a span. Count, total time and self time (duration
minus the wrapped spans nested inside it) are aggregated per span name as
the run goes, so memory stays bounded however long the run is. Full spans
(name, start, end, parent) are kept only for kernel phases and control-plane
calls, and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from pathlib import Path

# Modules of src/vecsim whose public functions are wrapped, by span prefix.
MODULES = (
    "channel", "cipher", "clustering", "config", "control_plane", "ecorouting",
    "edge", "mac", "metrics", "mobility", "predictor", "rng",
)

# Class methods the simulation calls through, as (module, class, methods).
METHODS = (
    ("rng", "RngStream", ("random", "integers", "choice_without_replacement", "bytes", "substream")),
    ("metrics", "MetricsReport", ("record_energy", "write", "aggregates")),
    ("ecorouting", "QLearner", ("select", "update")),
    ("mobility", "MarkovJumpModel", ("transition_matrix",)),
    ("mac", "BlerCurve", ("bler",)),
    ("cipher", "Fingerprint", ("digest",)),
    ("predictor", "ObservationModel", ("obs_likelihood",)),
    ("control_plane", "ControlTopology", ("graph", "all_pairs_latency")),
)


class Stat:
    __slots__ = ("calls", "total", "self_time", "true_results")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.true_results = 0


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple[str, float, float, str | None]] = []
        self._stack: list[list] = []     # [name, time covered by child spans]

    def wrap(self, name: str, fn, keep: bool = False):
        stat = self.stats.setdefault(name, Stat())
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stat.calls += 1
                stat.total += duration
                stat.self_time += duration - frame[1]
                if keep:
                    spans.append((name, start, end, stack[-1][0] if stack else None))
            if result is True:
                stat.true_results += 1
            return result

        return traced

    def write_spans(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap vecsim's public functions, the listed methods, networkx.dijkstra_path
    and every phase handler registered on a SlotEngine."""
    import networkx

    from vecsim import kernel

    for short in MODULES:
        mod = importlib.import_module(f"vecsim.{short}")
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            setattr(mod, attr, tracer.wrap(f"{short}.{attr}", fn, keep=short == "control_plane"))
    for short, cls_name, methods in METHODS:
        cls = getattr(importlib.import_module(f"vecsim.{short}"), cls_name, None)
        for meth in methods:
            fn = getattr(cls, meth, None) if cls is not None else None
            if inspect.isfunction(fn):
                setattr(cls, meth, tracer.wrap(f"{short}.{cls_name}.{meth}", fn))
    networkx.dijkstra_path = tracer.wrap("networkx.dijkstra_path", networkx.dijkstra_path)

    register = kernel.SlotEngine.register

    def traced_register(self, phase, handler):
        return register(self, phase, tracer.wrap(f"phase.{phase.name}", handler, keep=True))

    kernel.SlotEngine.register = traced_register
