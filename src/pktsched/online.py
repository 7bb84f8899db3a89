"""Prediction-free per-slot scheduling policies and their driver.

Each step rule is memoryless: given the current buffer of feasible,
unprocessed jobs it picks one job id (or none). That makes the rules
usable standalone and as the fallback inside the learning-augmented
scheduler, which may hand over mid-stream. :func:`drive` runs the slots
of every online run, LAP's too: it keeps a :class:`Buffer`, whose
``pending`` set of ranks changes only by the jobs released, expiring or
run at each slot. Two heaps index it, so greedy, EDF and MG pick in
O(log n) amortized per step over an n-job run instead of scanning the b
buffered jobs; EDF-alpha still scans. A run reads the instance's columns;
its schedule holds a ``Job`` record only for each job it runs
(``Instance.record``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Optional, Sequence

from .core import Instance, Job, Schedule

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

    A job is its rank in the instance's ``heavier_first`` order, and
    ``pending``, a set of ranks, is the only record of what is pending;
    ``ids`` and ``weights`` are the instance's columns in rank order
    (``Instance.by_rank``). :func:`drive` runs the slots: it calls
    :meth:`at` for slots 0, 1, 2, ... in turn and removes every job that
    runs from ``pending``, so after ``at(t)`` the ranks in ``pending`` are
    those of ``core.pending_set(instance, run_so_far, t)``. That holds when
    slots are skipped too: ``at(t)`` takes each slot since its last call in
    turn, adding the slot's ranks in ``Instance.released`` and dropping
    those in ``Instance.expiring``, one C-level set operation each. So a
    slot costs only what changes at it, and a run on an ``Instance`` that
    was driven before sets up in O(1). The instance's tables are never
    changed.

    :meth:`heaviest` and :meth:`earliest` read lazy-deletion heaps of int
    keys (:class:`_Heap`): the ranks themselves (``heavier_first`` order),
    and the instance's ``edf_keys``, ``deadline * n + rank`` for an n-job
    instance, in ``edf_first`` order. For either, ``key % n`` is the rank:
    no sort key is built per job and no order is sorted. A heap is fed the
    ranks released and still pending on its first read after they come, so
    a run that never reads it (LAP following its prediction) pays nothing
    for it, and a run that never reads ``earliest`` never builds the key
    column. An entry whose job has left ``pending`` is popped when it
    reaches the top. Each job is pushed and popped at most once per heap:
    O(log n) amortized per read over an n-job run, against O(b) to scan a
    b-job buffer.
    """

    def __init__(self, instance: Instance) -> None:
        self.pending: set[int] = set()
        self.instance = instance
        self.ids, _, _, self.weights = instance.by_rank
        self._released = instance.released
        self._expiring = instance.expiring
        self._n = len(self.ids)
        # The last slot admitted; no job is released or expires past the
        # horizon, so it stops there.
        self._t = -1
        self._heaviest = _Heap()
        self._earliest = _Heap()

    def __len__(self) -> int:
        return len(self.pending)

    def at(self, t: int) -> Buffer:
        """Admit the jobs released by t, drop those expiring by t, and
        return the buffer (the step rules only read it)."""
        s = self._t
        if s < t:
            pending = self.pending
            released, expiring = self._released, self._expiring
            end = t if t < len(released) else len(released) - 1
            while s < end:
                s += 1
                pending.update(released[s])
                pending.difference_update(expiring[s])
            self._t = s
        return self

    def heaviest(self) -> Optional[int]:
        """Rank of the first pending job in ``heavier_first`` order; None if
        empty."""
        return self._first(self._heaviest, self.instance.ranks)

    def earliest(self) -> Optional[int]:
        """Rank of the first pending job in ``edf_first`` order; None if
        empty."""
        return self._first(self._earliest, self.instance.edf_keys)

    def _first(self, heap: _Heap, keys: Sequence[int]) -> Optional[int]:
        """Feed the heap the keys of the pending ranks released since its
        last read, pop the stale entries off its top, and return the top
        rank."""
        pending, entries = self.pending, heap.entries
        if heap.fed <= self._t:
            for released in self._released[heap.fed : self._t + 1]:
                for rank in released:
                    if rank in pending:
                        heappush(entries, keys[rank])
            heap.fed = self._t + 1
        n = self._n
        while entries:
            rank = entries[0] % n
            if rank in pending:
                return rank
            heappop(entries)
        return None


def greedy_step(buffer: Buffer) -> Optional[str]:
    """Heaviest buffered job; None on an empty buffer."""
    rank = buffer.heaviest()
    return buffer.ids[rank] if rank is not None else None


def edf_step(buffer: Buffer) -> Optional[str]:
    """First buffered job in ``edf_first`` order; None on an empty buffer."""
    rank = buffer.earliest()
    return buffer.ids[rank] if rank is not None else None


def edf_alpha_step(buffer: Buffer, alpha: float) -> Optional[str]:
    """Earliest-deadline job among those weighing at least alpha times the
    buffer maximum."""
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    pending = buffer.pending
    if not pending:
        return None
    weights, keys = buffer.weights, buffer.instance.edf_keys
    # The smallest rank is the heaviest job.
    threshold = alpha * weights[min(pending)]
    key = min(keys[rank] for rank in pending if weights[rank] >= threshold)
    return buffer.ids[key % len(keys)]


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
    weights = buffer.weights
    pick = earliest if weights[earliest] >= weights[heaviest] / PHI else heaviest
    return buffer.ids[pick]


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
    ``buffer.pending`` and its record (``Instance.record``) fills the slot;
    KeyError if no pending job has that id.
    """
    buffer = Buffer(instance)
    take = buffer.pending.remove
    rank_of, record = instance.rank_of, instance.record
    slots: list[Optional[Job]] = []
    for t in range(instance.horizon + 1):
        job_id = pick(t, buffer.at(t))
        if job_id is None:
            slots.append(None)
        else:
            rank = rank_of[job_id]
            take(rank)
            slots.append(record(rank))
    return Schedule(tuple(slots))


def run_online(policy: OnlineStepPolicy, instance: Instance) -> Schedule:
    """Drive a step policy over every slot of the instance."""
    return drive(instance, lambda t, buffer: policy.step(buffer))
