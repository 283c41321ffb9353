"""Host-speed reference: every host time is reported at a standard speed.

A shared host's speed drifts by tens of percent over minutes, as other
work on the machine competes for its cores and caches, and a drift that
outlasts a run cannot be removed by any statistic of that run's passes.
So each run also times a fixed reference kernel between its cycles, and
reports every host time multiplied by ``STANDARD_S / reference floor``:
the seconds the run would have taken on a host where the kernel takes
``STANDARD_S``.

The kernel is a small event loop in the style of the program's DES:
heap pushes and pops of small objects, and dict updates.  That kind of
interpreter-bound, allocation-heavy code slows with the host the way
the workloads do; a tight arithmetic loop slows less.  The kernel is not
the program, so no change to the program moves it, and it runs with the
garbage collector off, so the program's heap does not move it either.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

#: The kernel's floor on the host the bounds were set on (2 vCPUs, a
#: quiet stretch).  Only the scale of the reported times depends on it.
STANDARD_S = 0.008

#: Kernel timings taken after each cycle.
SAMPLES_PER_CYCLE = 2


class _Event:
    __slots__ = ("t", "key", "data")

    def __init__(self, t: float, key: int, data: dict) -> None:
        self.t, self.key, self.data = t, key, data

    def __lt__(self, other: "_Event") -> bool:
        return self.t < other.t


def kernel() -> int:
    """A fixed event loop: 200 pending events, 6000 pops, each pushing a successor."""
    rng = random.Random(7)
    queue: list[_Event] = []
    for i in range(200):
        heapq.heappush(queue, _Event(rng.random(), i, {"n": i}))
    totals: dict[int, float] = {}
    for _ in range(6000):
        ev = heapq.heappop(queue)
        totals[ev.key % 31] = totals.get(ev.key % 31, 0.0) + ev.t
        heapq.heappush(queue, _Event(ev.t + rng.random(), ev.key + 1, {"n": ev.key, "p": [ev.t] * 3}))
    return len(totals)


class Speed:
    """Kernel times taken between a run's cycles."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(SAMPLES_PER_CYCLE):
                t0 = time.perf_counter()
                kernel()
                self.samples.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()

    def floor_s(self) -> float:
        """The kernel's fastest time in this run: the host's undisturbed speed."""
        return min(self.samples)

    def scale(self) -> float:
        """Factor that turns this run's host seconds into standard seconds."""
        return STANDARD_S / self.floor_s()
