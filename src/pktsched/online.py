"""Prediction-free per-slot scheduling policies and their driver.

Each step rule is memoryless: given the current buffer of feasible,
unprocessed jobs it picks one job id (or none). That makes the rules
usable standalone and as the fallback inside the learning-augmented
scheduler, which may hand over mid-stream. A run keeps its buffer in a
:class:`Buffer`, which changes only by the jobs released, expiring or run
at each slot.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from operator import attrgetter
from typing import Optional

from .core import Instance, Job, Schedule, edf_first, heavier_first

# Golden ratio: modified greedy's weight threshold and its competitive ratio
# on agreeable-deadline instances.
PHI = (1 + math.sqrt(5)) / 2


class Buffer:
    """The pending jobs of one run: released, not run, not yet expired.

    Call :meth:`at` for slots 0, 1, 2, ... in turn and pass every job that
    runs to :meth:`remove`; then ``at(t)`` equals
    ``core.pending_set(instance, run_so_far, t)``. A release-ordered
    cursor adds jobs and a deadline-bucket map drops each job at slot
    ``deadline``, so a slot costs only what changes at it.
    """

    def __init__(self, instance: Instance) -> None:
        self.jobs: set[Job] = set()
        self._arrivals = sorted(instance.jobs, key=attrgetter("release"))
        self._next = 0
        self._expiring: dict[int, list[Job]] = defaultdict(list)
        for job in instance.jobs:
            self._expiring[job.deadline].append(job)

    def at(self, t: int) -> set[Job]:
        """Admit the jobs released by t, drop those expiring at t, and
        return the buffer (the step rules only read it)."""
        arrivals, i = self._arrivals, self._next
        while i < len(arrivals) and arrivals[i].release <= t:
            self.jobs.add(arrivals[i])
            i += 1
        self._next = i
        self.jobs.difference_update(self._expiring.pop(t, ()))
        return self.jobs

    def remove(self, job: Job) -> None:
        """Take out a pending job that runs now."""
        self.jobs.remove(job)


def greedy_step(buffer: set[Job]) -> Optional[str]:
    """Heaviest buffered job; None on an empty buffer."""
    if not buffer:
        return None
    return min(buffer, key=heavier_first).id


def edf_step(buffer: set[Job]) -> Optional[str]:
    """First buffered job in ``edf_first`` order; None on an empty buffer."""
    if not buffer:
        return None
    return min(buffer, key=edf_first).id


def edf_alpha_step(buffer: set[Job], alpha: float) -> Optional[str]:
    """Earliest-deadline job among those weighing at least alpha times the
    buffer maximum."""
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if not buffer:
        return None
    top = max(j.weight for j in buffer)
    eligible = [j for j in buffer if j.weight >= alpha * top]
    return min(eligible, key=edf_first).id


def mg_step(buffer: set[Job]) -> Optional[str]:
    """Earliest-deadline non-dominated job if it weighs at least 1/phi of
    the heaviest job, else the heaviest job."""
    if not buffer:
        return None
    heaviest = min(buffer, key=heavier_first)
    # The first job in edf_first order is never dominated: a job dominating
    # it would be heavier with a no-later deadline, so it would sort first.
    # Filtering out dominated jobs cannot change the pick.
    earliest = min(buffer, key=edf_first)
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

    def step(self, buffer: set[Job]) -> Optional[str]:
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
