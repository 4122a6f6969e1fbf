"""Timings scaled to a nominal machine speed.

On a shared virtual machine the speed of the same Python code swings by a
third for tens of seconds at a time, as other tenants come and go, which
would swamp any change to the program.  So the run times a fixed
reference pass of plain Python every ``PROBE_PERIOD_S`` between calls,
and reports each call's wall time scaled by ``REF_NOMINAL_S`` over the
reference time measured around it: the time the call would take on a
machine where one reference pass takes ``REF_NOMINAL_S``.  The raw wall
times are kept too.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

REF_NOMINAL_S = 0.001
PROBE_PERIOD_S = 0.05


def reference_pass():
    """About a millisecond of the interpreter work the layers do: dict and
    list churn, small-integer and string arithmetic, Fraction sums."""
    d = {}
    acc = 0
    for i in range(1500):
        k = (i * 7919) % 211
        d[k] = d.get(k, 0) + i
        acc += len(str(i)) + (i * i) % 13
    ranked = sorted(d.items(), key=lambda kv: -kv[1])
    f = Fraction(0)
    for i in range(1, 60):
        f += Fraction(1, i)
    return acc + len(ranked) + f.numerator % 7


class Timings:
    """Wall times of calls per class, with reference probes around them."""

    def __init__(self):
        self.probe_at = []      # perf_counter of each probe
        self.probe_s = []       # fastest of three reference passes, per probe
        self.calls = {}         # class -> [(segments of one item, work units)]

    def probe(self):
        runs = []
        for _ in range(3):
            t = time.perf_counter()
            reference_pass()
            runs.append(time.perf_counter() - t)
        self.probe_at.append(time.perf_counter())
        self.probe_s.append(min(runs))

    def probe_if_due(self):
        if not self.probe_at or time.perf_counter() - self.probe_at[-1] >= PROBE_PERIOD_S:
            self.probe()

    def item(self):
        """A recorder for the calls of one item (graph, surface, command)."""
        return Item(self)

    def add(self, cls, item, work=1):
        self.calls.setdefault(cls, []).append((item.segments, work))

    def _ref(self, start, end):
        """Mean reference time of the last probe before ``start`` and the
        first after ``end``."""
        i = bisect.bisect_right(self.probe_at, start)
        j = bisect.bisect_left(self.probe_at, end)
        near = [self.probe_s[k] for k in (i - 1, j) if 0 <= k < len(self.probe_s)]
        return sum(near) / len(near)

    def scaled(self, cls):
        """Nominal seconds of each item of the class."""
        return [sum(secs * REF_NOMINAL_S / self._ref(end - secs, end)
                    for end, secs in segments)
                for segments, _ in self.calls.get(cls, [])]

    def scaled_rates(self, cls):
        """Work units per nominal second, per item."""
        return [work / nominal for (_, work), nominal
                in zip(self.calls.get(cls, []), self.scaled(cls))]

    def reference_ms(self):
        return 1000 * statistics.median(self.probe_s)


class Item:
    """Times each call of one item and probes the speed after it when a
    probe is due, so a long item is scaled call by call."""

    def __init__(self, timings):
        self.timings = timings
        self.segments = []      # (end, wall seconds) per call

    def call(self, name, fn, *args):
        t = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self.segments.append((end, end - t))
            self.timings.probe_if_due()
