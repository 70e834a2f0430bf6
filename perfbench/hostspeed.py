"""Host-speed calibration for the untraced timings.

On a shared host the speed of a core drifts by tens of percent over seconds
to minutes, in process CPU time as much as in wall time, so raw seconds from
two runs a minute apart do not compare.  :class:`HostSpeed` runs a fixed
pure-Python kernel (heap pushes and pops, dict updates, float arithmetic: the
interpreter work the simulator itself does) from a ``SIGALRM`` handler every
``PERIOD_S`` seconds while the benchmark runs.  Its time is taken out of
every measured interval, and dividing an interval's net seconds by
:meth:`HostSpeed.slowdown` over it gives *reference seconds*: seconds on a
host where one kernel pass takes ``REFERENCE_S``.  The kernel shares no code
with the program, so a faster program does not move the unit.
"""

from __future__ import annotations

import heapq
import signal
from time import perf_counter
from typing import List, Tuple

#: Seconds between two kernel passes.
PERIOD_S = 0.2
#: One kernel pass on the reference host (about the fast state of a 2-core
#: x86-64 VM running CPython 3.11).
REFERENCE_S = 0.002


def kernel(n: int = 3000) -> float:
    heap: List[Tuple[float, int]] = []
    table = {}
    acc = 0.0
    for i in range(n):
        heapq.heappush(heap, ((i * 7919) % 1009 / 7.0, i))
        if len(heap) > 48:
            t, k = heapq.heappop(heap)
            key = k % 61
            table[key] = table.get(key, 0.0) + t * 0.5
            acc += (t * t + 1.0) ** 0.5
    return acc


class HostSpeed:
    """Periodic kernel passes: ``(start, duration)`` samples and their total."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        #: seconds spent in kernel passes so far; callers subtract deltas
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        kernel()
        elapsed = perf_counter() - start
        self.samples.append((start, elapsed))
        self.spent += elapsed

    def start(self) -> None:
        # One unrecorded pass first: a cold first pass runs slow.
        start = perf_counter()
        kernel()
        self.spent += perf_counter() - start
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Mean kernel time over ``[start, end]`` relative to the reference.

        The mean (not the median) follows the time-average speed the
        interval ran at; the fastest and slowest tenth of the samples are
        dropped as one-off hiccups.  With no sample inside the interval the
        nearest one stands in.
        """
        inside = sorted(d for t, d in self.samples if start <= t <= end)
        if not inside:
            nearest = min(self.samples, key=lambda s: min(abs(s[0] - start), abs(s[0] - end)))
            inside = [nearest[1]]
        cut = len(inside) // 10
        kept = inside[cut : len(inside) - cut]
        return sum(kept) / len(kept) / REFERENCE_S
