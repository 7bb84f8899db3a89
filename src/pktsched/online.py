"""Prediction-free per-slot scheduling policies and their driver.

Each step rule is memoryless: given the current buffer of feasible,
unprocessed jobs it picks one job id (or none). That makes the rules
usable standalone and as the fallback inside the learning-augmented
scheduler, which may hand over mid-stream. :func:`drive` runs the slots
of every online run, LAP's too: it keeps a :class:`Buffer`, whose ``jobs``
map (id to job) changes only by the jobs released, expiring or run at each
slot. Two heaps index it, so greedy, EDF and MG pick in O(log n) amortized
per step over an n-job run instead of scanning the b buffered jobs;
EDF-alpha still scans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Optional

from .core import Instance, Job, Schedule, edf_first

# Golden ratio: modified greedy's weight threshold and its competitive ratio
# on agreeable-deadline instances.
PHI = (1 + math.sqrt(5)) / 2


class _Heap:
    """A lazy-deletion heap of int keys, one per pending job, and ``fed``,
    the count of slots whose released ranks it has been fed (see
    :meth:`Buffer._first`)."""

    __slots__ = ("entries", "fed")

    def __init__(self):
        self.entries: list[int] = []
        self.fed = 0


class Buffer:
    """The pending jobs of one run: released, not run, not yet expired.

    ``jobs`` maps each pending job's id to the job and is the only record
    of what is pending. :func:`drive` runs the slots: it calls :meth:`at`
    for slots 0, 1, 2, ... in turn and pops every job that runs from
    ``jobs``, so ``jobs`` after ``at(t)`` holds
    ``core.pending_set(instance, run_so_far, t)``. That holds when slots
    are skipped too: ``at(t)`` takes each slot since its last call in turn,
    with one ``dict.update`` from the instance's ``arrivals`` and one pop
    per id in its ``expiring``. So a slot costs only what changes at it,
    and a run on an ``Instance`` that was driven before sets up in O(1).
    The instance's tables are never changed.

    :meth:`heaviest` and :meth:`earliest` read lazy-deletion heaps of int
    keys (:class:`_Heap`): the ranks themselves (``heavier_first`` order),
    and ``deadline * n + rank`` for an n-job instance. Every rank is < n, so
    deadline ties break by rank, as ``edf_first`` breaks them: no sort key
    is built per job and no order is sorted. A heap is fed the ranks
    released (the instance's ``released``) and still pending on its first
    read after they come, so a run that never reads it (LAP following its
    prediction) pays nothing for it. An entry whose job has left ``jobs`` is
    popped when it reaches the top. Each job is pushed and popped at most
    once per heap: O(log n) amortized per read over an n-job run, against
    O(b) to scan a b-job buffer.
    """

    def __init__(self, instance: Instance) -> None:
        self.jobs: dict[str, Job] = {}
        self._arrivals = instance.arrivals
        self._expiring = instance.expiring
        self._released = instance.released
        self._ranked = instance.ranked
        self._n = len(instance.ranked)
        # The last slot admitted; no job is released or expires past the
        # horizon, so it stops there.
        self._t = -1
        self._heaviest = _Heap()
        self._earliest = _Heap()

    def __len__(self) -> int:
        return len(self.jobs)

    def at(self, t: int) -> Buffer:
        """Admit the jobs released by t, drop those expiring by t, and
        return the buffer (the step rules only read it)."""
        s = self._t
        if s < t:
            jobs = self.jobs
            pop = jobs.pop
            arrivals, expiring = self._arrivals, self._expiring
            end = t if t < len(arrivals) else len(arrivals) - 1
            while s < end:
                s += 1
                jobs.update(arrivals[s])
                for job_id in expiring[s]:
                    pop(job_id, None)
            self._t = s
        return self

    def heaviest(self) -> Optional[Job]:
        """First pending job in ``heavier_first`` order; None if empty."""
        return self._first(self._heaviest, 0)

    def earliest(self) -> Optional[Job]:
        """First pending job in ``edf_first`` order; None if empty."""
        return self._first(self._earliest, self._n)

    def _first(self, heap: _Heap, n: int) -> Optional[Job]:
        """Feed the heap the pending ranks released since its last read,
        pop the stale entries off its top, and return the top job. A key
        is ``deadline * n + rank`` (``key % n`` is the rank), or with n = 0
        the rank itself."""
        jobs, entries, ranked = self.jobs, heap.entries, self._ranked
        if heap.fed <= self._t:
            for released in self._released[heap.fed : self._t + 1]:
                for rank in released:
                    job = ranked[rank]
                    if job.id in jobs:
                        heappush(entries, job.deadline * n + rank if n else rank)
            heap.fed = self._t + 1
        while entries:
            key = entries[0]
            job = ranked[key % n if n else key]
            if job.id in jobs:
                return job
            heappop(entries)
        return None


def greedy_step(buffer: Buffer) -> Optional[str]:
    """Heaviest buffered job; None on an empty buffer."""
    job = buffer.heaviest()
    return job.id if job is not None else None


def edf_step(buffer: Buffer) -> Optional[str]:
    """First buffered job in ``edf_first`` order; None on an empty buffer."""
    job = buffer.earliest()
    return job.id if job is not None else None


def edf_alpha_step(buffer: Buffer, alpha: float) -> Optional[str]:
    """Earliest-deadline job among those weighing at least alpha times the
    buffer maximum."""
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    jobs = buffer.jobs.values()
    if not jobs:
        return None
    top = max(j.weight for j in jobs)
    eligible = [j for j in jobs if j.weight >= alpha * top]
    return min(eligible, key=edf_first).id


def mg_step(buffer: Buffer) -> Optional[str]:
    """Earliest-deadline non-dominated job if it weighs at least 1/phi of
    the heaviest job, else the heaviest job."""
    heaviest = buffer.heaviest()
    if heaviest is None:
        return None
    # The first job in edf_first order is never dominated: a job dominating
    # it would be heavier with a no-later deadline, so it would sort first.
    # Filtering out dominated jobs cannot change the pick.
    earliest = buffer.earliest()
    pick = earliest if earliest.weight >= heaviest.weight / PHI else heaviest
    return pick.id


# Step rule per policy name. The lambdas look the rules up in this module
# at call time, so rebinding a module attribute (as a tracer does) reaches
# every policy.
_STEPS = {
    "greedy": lambda buffer, alpha: greedy_step(buffer),
    "edf": lambda buffer, alpha: edf_step(buffer),
    "edf-alpha": lambda buffer, alpha: edf_alpha_step(buffer, alpha),
    "mg": lambda buffer, alpha: mg_step(buffer),
}


@dataclass(frozen=True)
class OnlineStepPolicy:
    """A named step rule: ``greedy``, ``edf``, ``edf-alpha`` or ``mg``.

    ``edf-alpha`` needs its threshold ``alpha``; the others take none.
    """

    name: str
    alpha: Optional[float] = None

    def __post_init__(self):
        if self.name not in _STEPS:
            raise ValueError(f"unknown policy {self.name!r}")
        if self.name == "edf-alpha":
            if self.alpha is None or not 0 < self.alpha <= 1:
                raise ValueError("edf-alpha requires alpha in (0, 1]")
        elif self.alpha is not None:
            raise ValueError(f"policy {self.name!r} takes no alpha")

    def step(self, buffer: Buffer) -> Optional[str]:
        return _STEPS[self.name](buffer, self.alpha)

    @classmethod
    def parse(cls, text: str) -> "OnlineStepPolicy":
        """Parse ``greedy``, ``edf``, ``mg``, or ``edf-alpha:<alpha>``."""
        name, sep, arg = text.partition(":")
        if name == "edf-alpha" and not arg:
            raise ValueError("edf-alpha needs a threshold, e.g. edf-alpha:0.5")
        return cls(name, float(arg) if sep else None)


GREEDY = OnlineStepPolicy("greedy")
EDF = OnlineStepPolicy("edf")
MG = OnlineStepPolicy("mg")


def drive(
    instance: Instance, pick: Callable[[int, Buffer], Optional[str]]
) -> Schedule:
    """Run the online model over slots 0..horizon of the instance.

    At each slot t the buffer admits the jobs released by t and drops those
    expiring at t; then ``pick(t, buffer)`` names the pending job that runs
    in slot t, or None to leave the slot empty. The named job leaves
    ``buffer.jobs``; KeyError if no pending job has that id.
    """
    buffer = Buffer(instance)
    jobs = buffer.jobs
    slots: list[Optional[Job]] = []
    for t in range(instance.horizon + 1):
        job_id = pick(t, buffer.at(t))
        slots.append(jobs.pop(job_id) if job_id is not None else None)
    return Schedule(tuple(slots))


def run_online(policy: OnlineStepPolicy, instance: Instance) -> Schedule:
    """Drive a step policy over every slot of the instance."""
    return drive(instance, lambda t, buffer: policy.step(buffer))
