"""Timing of the benchmark's calls into sqmv, with optional spans.

Every call the benchmark makes into sqmv goes through ``Recorder.call``.  The
call's wall time is added to the current operation's latency.  With tracing
on, the call is also recorded as a span (name, start, end, parent span,
operation id) that stays in memory until the run writes it out.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

# Layer of a span: the longest of these prefixes that starts the span name.
LAYERS = (
    "syntax", "models", "semantics", "transform", "proofkit.script",
    "proofkit.registry", "proofkit.checker", "proofkit.transforms", "cli",
)


def layer_of(name: str) -> str:
    """The span's layer; spans outside sqmv's layers are the benchmark's own."""
    best = ""
    for layer in LAYERS:
        if (name == layer or name.startswith(layer + ".")) and len(layer) > len(best):
            best = layer
    return best or "bench"


def merge(into: list[dict], spans: list[dict]) -> None:
    """Append another recorder's spans, keeping their parent links."""
    offset = len(into)
    for s in spans:
        if s["parent"] is not None:
            s["parent"] += offset
        into.append(s)


class Recorder:
    """Collects per-operation latencies and, when tracing, spans."""

    def __init__(self, tracing: bool = False, peak_memory_of: tuple = ()):
        self.tracing = tracing
        self.peak_memory_of = set(peak_memory_of) if tracing else set()
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op_id = -1
        self.op_time = 0.0
        self._depth = 0  # nesting of calls; only outermost ones add to op_time

    @contextmanager
    def operation(self, kind: str):
        """Bracket one benchmark operation; its latency is its sqmv time."""
        self.op_id += 1
        self.op_time = 0.0
        if not self.tracing:
            yield
            return
        with self._span("op." + kind):
            yield

    @contextmanager
    def _span(self, name: str):
        index = len(self.spans)
        span = {"name": name, "op": self.op_id,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        finally:
            self._stack.pop()
            span["end"] = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` as the sqmv call ``name`` and time it.
        Calls made inside ``fn`` through this recorder nest under it."""
        outer = self._depth == 0
        self._depth += 1
        track = self.tracing and name in self.peak_memory_of and not tracemalloc.is_tracing()
        if track:
            tracemalloc.start()
        t0 = time.perf_counter()
        try:
            if not self.tracing:
                return fn(*args, **kwargs)
            with self._span(name) as span:
                t0 = span["start"]
                return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._depth -= 1
            if outer:
                self.op_time += t1 - t0
            if track:
                span["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()

    def note(self, **attrs):
        """Attach counts to the most recent span (traced runs only)."""
        if self.tracing and self.spans:
            self.spans[-1].update(attrs)


def summarize(spans: list[dict]) -> dict:
    """Per span name and per layer: calls, total and self time in seconds.

    A span's self time is its duration minus the part of it that its child
    spans cover; spans of one process never overlap except by nesting.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    by_name: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    by_layer: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for i, s in enumerate(spans):
        dur = s["end"] - s["start"]
        own = dur - child_time[i]
        for table, key in ((by_name, s["name"]), (by_layer, layer_of(s["name"]))):
            row = table[key]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += own
    return {"by_name": dict(by_name), "by_layer": dict(by_layer)}
