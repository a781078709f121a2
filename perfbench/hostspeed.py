"""The speed of the host, from a fixed computation that does not call blend.

The shared host's cores slow down by up to 1.6x for minutes at a time, and
every CPU-bound timing slows down with them: ten 30 s runs of the same code
spread by up to half their median.  The runner times :func:`reference`
between ops, at most every :data:`SAMPLE_EVERY_NS`.  The fast decile of those
samples over :data:`REFERENCE_NS` is the run's slowdown, and the timings of
the workloads whose time is Python work are divided by it: they read as on
the reference host at its usual speed.
"""

from __future__ import annotations

import json
import math
import time
from fractions import Fraction

#: Fast-decile time of :func:`reference` on the reference host (x86_64 Xeon,
#: 2 vCPUs, Python 3.11.7) at its usual speed.
REFERENCE_NS = 780_000

#: Least time between two samples, so that they cover a run evenly.
SAMPLE_EVERY_NS = 25_000_000


def reference() -> float:
    """Pure-Python work of the program's kind: rationals, float maths, containers, JSON."""
    total = Fraction(0)
    for k in range(1, 60):
        total += Fraction(k % 7 + 1, k) * Fraction(3, k + 2)
    xs = [math.sin(i * 0.001) * 1.0001 for i in range(1000)]
    table = {}
    for i, x in enumerate(xs):
        table[i % 97] = table.get(i % 97, 0.0) + x * x
    text = json.dumps({str(i): [i, i * 0.5, "x" * (i % 5)] for i in range(150)})
    return float(total) + sorted(xs)[500] + sum(table.values()) + len(text)


class Sampler:
    def __init__(self):
        self.samples: list[int] = []
        self._last = time.perf_counter_ns()

    def tick(self) -> None:
        """Time :func:`reference` once if the last sample is old enough."""
        if time.perf_counter_ns() - self._last < SAMPLE_EVERY_NS:
            return
        start = time.perf_counter_ns()
        reference()
        self._last = time.perf_counter_ns()
        self.samples.append(self._last - start)

    def slowdown(self) -> float:
        """The run's speed against the reference: above 1 when the host ran slow."""
        return sorted(self.samples)[len(self.samples) // 10] / REFERENCE_NS
