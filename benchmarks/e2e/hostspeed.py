"""A yardstick for the host's speed, so that times compare across runs.

This sandbox's vCPUs flip between two speeds about 1.5x apart, many times a
second, and the share of time spent in the slow one drifts over seconds and
between runs: raw timings of the same code on the same seed spread by
20-60 % run to run.  The engine is interpreter-bound and slows with the
host, so the benchmark reads a *yardstick* — a fixed piece of pure-Python
work, half arithmetic and half allocation, the two kinds the engine does —
every few tens of milliseconds between operations, and reports every time
as what the work would take on a host that runs the yardstick in exactly
``NOMINAL`` seconds:

* a latency is multiplied by ``NOMINAL / mean(the few readings around it)``;
* a total (wall, CPU) by ``NOMINAL / mean(readings in its interval)``.

Readings are taken when no operation is in flight and are left out of the
timed wall.  A change to the engine does not move the yardstick, so a
regression still shows; a slower minute on the host moves both, and cancels
to within the 5-10 % that README.md reports.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from typing import List

__all__ = ["NOMINAL", "EVERY", "HostSpeed", "yardstick"]

#: What one yardstick reading is taken to cost on the nominal host, in seconds.
NOMINAL = 0.5e-3
#: Single-client workloads take a reading between operations this often, in seconds.
EVERY = 0.02
#: Readings averaged either side of a latency's start.
AROUND = 5


class _Cell:
    __slots__ = ("number", "key")

    def __init__(self, number: int, key: tuple):
        self.number = number
        self.key = key


def yardstick() -> float:
    """Seconds the host needs, now, for a fixed arithmetic loop and for
    building and indexing 500 small objects.

    The collector is held off meanwhile: a collection triggered by these
    allocations would time the size of the benchmark's heap, not the host.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        total, table = 0, {}
        for number in range(1500):
            total += number * number % 7
            table[number & 255] = (total, number)
        cells = [_Cell(number, (number, str(number))) for number in range(500)]
        index = {cell.key: cell for cell in cells}
        total += sum(cell.number for cell in index.values())
        return time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()


class HostSpeed:
    """Yardstick readings on a timeline and the factors derived from them."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.values: List[float] = []

    def read(self) -> None:
        value = yardstick()
        self.times.append(time.perf_counter())
        self.values.append(value)

    def due(self) -> bool:
        return time.perf_counter() - self.times[-1] >= EVERY

    def factor_at(self, moment: float) -> float:
        """Scale for a latency that started at ``moment``: the readings around it."""
        position = bisect.bisect_right(self.times, moment)
        return NOMINAL / statistics.fmean(self.values[max(0, position - AROUND) : position + AROUND])

    def factor_between(self, start: float, end: float) -> float:
        """Scale for a total over ``[start, end]``: every reading inside, and one either side."""
        low = max(0, bisect.bisect_left(self.times, start) - 1)
        high = bisect.bisect_right(self.times, end) + 1
        return NOMINAL / statistics.fmean(self.values[low:high])
