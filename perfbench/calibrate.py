"""Machine-speed calibration for a shared, noisy host.

On a host whose other tenants slow every CPU by up to 2x for seconds at a
time, raw wall times of the same work vary by 20-30% between runs. The
benchmark therefore times a fixed pure-Python loop (independent of
pktsched: set, dict, heap, sort and recursive-search work like the
package's own) between measured intervals, and scales each interval by
``PROBE_REFERENCE_S`` over the loop's time around that interval. A
calibrated time is the interval as it would read on a machine where the
loop takes ``PROBE_REFERENCE_S``; that is about the loop's time on a quiet
2-vCPU Xeon VM, so there calibrated and quiet wall times agree. Changes to
pktsched move it fully; changes in host load cancel to first order.
"""

from __future__ import annotations

import heapq
import random
import time

PROBE_ITEMS = 1200
PROBE_REPEATS = 3
PROBE_REFERENCE_S = 0.040


def _probe_work() -> int:
    rng = random.Random(7)
    items = [(f"j{i:05d}", rng.randint(0, 200), rng.random()) for i in range(PROBE_ITEMS)]
    by_id = {key: (release, weight) for key, release, weight in items}
    picked = 0
    for t in range(0, 200, 10):
        buffer = {key for key, release, _ in items if release <= t < release + 20 and key in by_id}
        if buffer:
            picked += max(buffer, key=lambda key: by_id[key][1]) != ""
    heap: list = []
    for key, release, weight in sorted(items, key=lambda x: (x[1], x[0])):
        heapq.heappush(heap, (release + 5, -weight, key))
        if len(heap) > 50:
            heapq.heappop(heap)
    owner: dict[int, int] = {}

    def place(i: int, seen: set) -> bool:
        for slot in range(items[i][1], items[i][1] + 8):
            if slot in seen:
                continue
            seen.add(slot)
            holder = owner.get(slot)
            if holder is None or place(holder, seen):
                owner[slot] = i
                return True
        return False

    for i in sorted(range(len(items)), key=lambda i: -items[i][2]):
        place(i, set())
    return picked + len(owner)


class Calibrator:
    """Probe points taken between measured intervals, and the scaling."""

    def __init__(self) -> None:
        self.points: list[float] = []

    def mark(self) -> int:
        """Time the probe loop now (best of a few); returns the point's index."""
        best = float("inf")
        for _ in range(PROBE_REPEATS):
            started = time.perf_counter()
            _probe_work()
            best = min(best, time.perf_counter() - started)
        self.points.append(best)
        return len(self.points) - 1

    def calibrated(self, seconds: float, before: int, after: int) -> float:
        """``seconds`` measured between probe points ``before`` and ``after``,
        scaled to the reference probe time."""
        around = (self.points[before] + self.points[after]) / 2
        return seconds * PROBE_REFERENCE_S / around
