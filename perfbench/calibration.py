"""Host-speed calibration: a fixed reference loop timed next to every stage.

On a shared machine the CPU's speed drifts by tens of percent over seconds
and minutes (other tenants' load on the same cores), far more than the
changes the benchmark must resolve.  :func:`probe` runs a small fixed loop
of the kinds of work the simulator and checker do immediately before each
timed stage.  :func:`normalize` rescales a stage's host time to what it
would have been with the probe at :data:`REFERENCE_PROBE_S`, where the
probe time is the median of the probes around the stage
(:func:`smoothed`), which tracks the drift without one probe's jitter.  A
stage's work and its probe slow down together, so the ratio stays put when
the machine's speed moves, while a change to the program moves the stage
and not the probe.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import List, Sequence

#: The probe's duration that normalized host times are scaled to (about
#: its duration on an unloaded 2-core Xeon container with Python 3.11).
REFERENCE_PROBE_S = 0.0025

#: Probes on each side of a stage that :func:`smoothed` takes the median of.
SMOOTHING_RADIUS = 4

#: Iterations of each half of the reference loop (about 2.5 ms in all).
PROBE_ITERATIONS = 1000


class _Cell:
    __slots__ = ("key", "total")

    def __init__(self, key: int) -> None:
        self.key = key
        self.total = 0

    def add(self, value: int) -> int:
        self.total += value
        return self.total


_CELLS = [_Cell(key) for key in range(64)]


def probe() -> float:
    """Host seconds of one run of the reference loop.

    One half is call-bound (slotted-object method calls and attribute
    updates), the other allocation-bound (heap pushes and pops of fresh
    tuples, formatted key strings, dict stores and a frontier-style merge)
    — the two kinds of work the simulator and the checker spend their time
    on, which contention on a shared machine slows by different amounts.
    """
    cells = _CELLS
    for cell in cells:
        cell.total = 0
    started = time.perf_counter()
    running = 0
    for index in range(PROBE_ITERATIONS):
        running += cells[index & 63].add(index)
    heap: list = []
    table = {}
    for index in range(PROBE_ITERATIONS):
        heapq.heappush(heap, (index * 31 % 977, index))
        if len(heap) > 64:
            heapq.heappop(heap)
        table[f"p{index % 3}:k{index % 500:06d}"] = (index, running)
    merged: dict = {}
    for key, value in table.items():
        current = merged.get(key)
        if current is None or value > current:
            merged[key] = value
    return time.perf_counter() - started


def smoothed(probes: Sequence[float], radius: int = SMOOTHING_RADIUS) -> List[float]:
    """Each probe replaced by the median of the probes within ``radius``."""
    return [
        statistics.median(probes[max(0, index - radius):index + radius + 1])
        for index in range(len(probes))
    ]


def normalize(seconds: float, probe_s: float) -> float:
    """``seconds`` rescaled to the reference host speed."""
    return seconds * REFERENCE_PROBE_S / probe_s
