"""In-memory spans recorded around the benchmark's calls into each layer.

A span has a name, start and end (``perf_counter`` seconds), the index
of its parent span and a trace id naming the graph, complex, matrix or
command it belongs to.  Spans stay in memory until the run writes them
out; ``self_times`` turns them into per-name busy time.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent, trace_id]
        self._stack = []
        self.counts = {}

    @contextmanager
    def span(self, name, trace_id=None):
        parent = self._stack[-1] if self._stack else None
        if trace_id is None and parent is not None:
            trace_id = self.spans[parent][4]
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, trace_id])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span named ``name``."""
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def add(self, spans):
        """Append spans recorded by another process; its root spans become
        children of the span open now."""
        parent = self._stack[-1] if self._stack else None
        base = len(self.spans)
        for name, start, end, up, trace_id in spans:
            self.spans.append([name, start, end,
                               parent if up is None else base + up, trace_id])

    def write(self, path, extra=None):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts,
                       **(extra or {})}, fh)


class Plain:
    """The caller interface of Tracer and speed.Item, doing nothing more."""

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def self_times(spans) -> dict:
    """Total self time per span name: duration minus the time covered by
    the span's direct children (children never overlap: one thread)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child[i]
    return out


def durations(spans, name) -> list:
    return [end - start for n, start, end, _, _ in spans if n == name]


def layer_metrics(spans) -> dict:
    """Busy time and call count per layer function.

    A span named ``layer.fn`` or ``layer.fn.qualifier`` adds its self time
    to ``layer.fn_s`` or ``layer.fn_s.qualifier``, and one call to
    ``layer.fn_calls``.
    """
    out = {}
    for name, secs in self_times(spans).items():
        layer, fn, *qual = name.split(".")
        out[".".join([f"{layer}.{fn}_s"] + qual)] = secs
    for name, *_ in spans:
        key = ".".join(name.split(".")[:2]) + "_calls"
        out[key] = out.get(key, 0) + 1
    return out
