"""Prediction-free per-slot scheduling policies and their driver.

Each step rule is memoryless: given the current buffer of feasible,
unprocessed jobs it picks one job id (or none). That makes the rules
usable standalone and as the fallback inside the learning-augmented
scheduler, which may hand over mid-stream. A run keeps its buffer in a
:class:`Buffer`, which changes only by the jobs released, expiring or run
at each slot. The buffer also indexes its jobs in two heaps, so greedy,
EDF and MG pick in O(log n) amortized per step over an n-job run instead
of scanning the b buffered jobs; EDF-alpha still scans, O(b) per step.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import attrgetter
from typing import Optional

from .core import Instance, Job, Schedule, edf_first

# Golden ratio: modified greedy's weight threshold and its competitive ratio
# on agreeable-deadline instances.
PHI = (1 + math.sqrt(5)) / 2


class Buffer:
    """The pending jobs of one run: released, not run, not yet expired.

    Call :meth:`at` for slots 0, 1, 2, ... in turn and pass every job that
    runs to :meth:`remove`; then ``buffer.jobs`` after ``at(t)`` equals
    ``core.pending_set(instance, run_so_far, t)``. A release-ordered
    cursor adds jobs and a deadline-bucket map drops each job at slot
    ``deadline``, so a slot costs only what changes at it.

    :meth:`heaviest` and :meth:`earliest` return the first pending job in
    ``heavier_first`` and ``edf_first`` order from two lazy-deletion
    heaps. A heap is fed on its first read after new admissions, with the
    admitted jobs still pending, so a run that never reads it (LAP
    following its prediction) pays nothing for it. A job that runs or
    expires stays in a heap until it reaches the top, and is popped there.
    Each job is pushed at most once per heap and popped at most once, so a
    read costs O(log n) amortized over an n-job run, against O(b) for a
    scan of a b-job buffer.
    """

    def __init__(self, instance: Instance) -> None:
        self.jobs: set[Job] = set()
        self._arrivals = sorted(instance.jobs, key=attrgetter("release"))
        self._next = 0
        self._t = -1
        # Ids of the jobs run so far. A heap entry is pending iff its job
        # is neither run nor past its deadline: the same test as membership
        # in self.jobs, without hashing a Job (a Python-level __hash__).
        self._ran: set[str] = set()
        # Entries are a sort key followed by the job; the keys end in the
        # unique id, so two entries never compare their jobs. Each heap has
        # fed the arrivals before its cursor.
        self._by_weight: list[tuple[float, str, Job]] = []
        self._by_deadline: list[tuple[int, float, str, Job]] = []
        self._fed_by_weight = 0
        self._fed_by_deadline = 0
        self._expiring: dict[int, list[Job]] = defaultdict(list)
        for job in instance.jobs:
            self._expiring[job.deadline].append(job)

    def __len__(self) -> int:
        return len(self.jobs)

    def at(self, t: int) -> Buffer:
        """Admit the jobs released by t, drop those expiring at t, and
        return the buffer (the step rules only read it)."""
        arrivals, i = self._arrivals, self._next
        while i < len(arrivals) and arrivals[i].release <= t:
            self.jobs.add(arrivals[i])
            i += 1
        self._next = i
        self.jobs.difference_update(self._expiring.pop(t, ()))
        self._t = t
        return self

    def remove(self, job: Job) -> None:
        """Take out a pending job that runs now."""
        self.jobs.remove(job)
        self._ran.add(job.id)

    def heaviest(self) -> Optional[Job]:
        """First pending job in ``heavier_first`` order; None if empty."""
        heap = self._by_weight
        if self._fed_by_weight < self._next:
            t, ran = self._t, self._ran
            for job in self._arrivals[self._fed_by_weight : self._next]:
                if job.deadline > t and job.id not in ran:
                    heappush(heap, (-job.weight, job.id, job))
            self._fed_by_weight = self._next
        return self._top(heap)

    def earliest(self) -> Optional[Job]:
        """First pending job in ``edf_first`` order; None if empty."""
        heap = self._by_deadline
        if self._fed_by_deadline < self._next:
            t, ran = self._t, self._ran
            for job in self._arrivals[self._fed_by_deadline : self._next]:
                if job.deadline > t and job.id not in ran:
                    heappush(heap, (job.deadline, -job.weight, job.id, job))
            self._fed_by_deadline = self._next
        return self._top(heap)

    def _top(self, heap: list) -> Optional[Job]:
        """Pop the run or expired jobs off the top; return the top job."""
        t, ran = self._t, self._ran
        while heap:
            job = heap[0][-1]
            if job.deadline > t and job.id not in ran:
                return job
            heappop(heap)
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
    jobs = buffer.jobs
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


def run_online(policy: OnlineStepPolicy, instance: Instance) -> Schedule:
    """Drive a step policy over every slot of the instance."""
    buffer = Buffer(instance)
    slots: list[Optional[Job]] = []
    for t in range(instance.horizon + 1):
        pick = policy.step(buffer.at(t))
        job = instance.by_id[pick] if pick is not None else None
        if job is not None:
            buffer.remove(job)
        slots.append(job)
    return Schedule(tuple(slots))
