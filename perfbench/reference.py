"""The reference loop: how fast the host runs at this moment.

A shared host runs the same query 30–50% slower for seconds to minutes at
a time.  The timing metrics therefore divide each latency by the time a
fixed reference loop takes on the same host at the same moment, sampled
between requests (untimed) at most :data:`INTERVAL` seconds apart.  A
drift in host speed slows the loop and the query alike and cancels; a
change to the engine moves only the query.

The loop mixes interpreted Python (arithmetic, dict and list traffic) with
a small NumPy sweep, as a query does.  It uses nothing from the engine, so
no engine change can move it.
"""

from __future__ import annotations

import bisect
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

#: Longest gap, in seconds, between two reference samples in a closed loop.
INTERVAL = 0.25
_STEPS = 20_000
_VECTOR = np.linspace(0.0, 1.0, 8192)


def reference_loop() -> float:
    """Run the fixed reference loop once; return its wall seconds."""
    start = time.perf_counter()
    total = 0
    table: dict[int, int] = {}
    items: list[int] = []
    for step in range(_STEPS):
        total = (total + step * step) % 1_000_003
        table[step & 511] = total
        items.append(total & 1023)
    items.sort()
    vector = _VECTOR
    for _ in range(16):
        vector = np.sqrt(vector * vector + 1.0) - 0.5
    total += int(vector.sum()) + len(table) + items[-1]
    return time.perf_counter() - start


@dataclass
class HostSpeed:
    """Reference samples of one run, and latencies expressed in them."""

    interval: float = INTERVAL
    #: ``(end time, seconds)`` of each reference sample, in time order.
    samples: list[tuple[float, float]] = field(default_factory=list)
    #: Wall seconds spent in the reference loop.
    spent: float = 0.0

    def tick(self, force: bool = False) -> None:
        """Sample the reference loop if :attr:`interval` has passed (or ``force``)."""
        now = time.perf_counter()
        if force or not self.samples or now - self.samples[-1][0] >= self.interval:
            seconds = reference_loop()
            end = time.perf_counter()
            self.samples.append((end, seconds))
            self.spent += end - now

    def around(self, start: float, end: float) -> float:
        """Mean reference seconds of the last sample before ``start`` and the first after ``end``."""
        ends = [sample_end for sample_end, _ in self.samples]
        before = bisect.bisect_right(ends, start) - 1
        after = bisect.bisect_left(ends, end)
        picks = [self.samples[k][1] for k in {before, after} if 0 <= k < len(self.samples)]
        if not picks:
            raise ValueError("no reference sample around the interval")
        return statistics.fmean(picks)

    def in_reference(self, start: float, end: float) -> float:
        """The wall interval ``[start, end]`` in reference-loop units."""
        return (end - start) / self.around(start, end)

    def median_seconds(self) -> float:
        return statistics.median(seconds for _, seconds in self.samples)
