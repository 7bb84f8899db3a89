"""Exact offline optima via augmenting-path matching of jobs onto slots.

The schedulable subsets of an instance form a matroid (a set is feasible
iff it matches into the slots), so inserting jobs in decreasing weight
with an augmenting-path feasibility check yields the exact maximum-weight
schedule. A memoized exhaustive search over slot assignments serves as an
independent oracle for small instances. The prefix-optimum series is
maintained incrementally as releases arrive: one running matching, and the
earliest-deadline placement of its jobs, placed again only from the
earliest slot an evicted job held.

Windows are intervals of slots, so the augmenting search is iterative and
grows one interval, reaching each slot at most once. A failed search ends
on a closed interval: every slot in it is taken by a job whose window lies
inside it. While jobs are only added, no slot there is ever freed, so no
later augmenting path can end there, and the greedy skips it from then on.
The series' exchange step may free a slot, so it remembers only the
interval of its latest failed search, which stays closed until the next
one, and rejects without a search a newcomer whose window lies inside it
and which comes after all of its owners in ``heavier_first`` order.
"""

from __future__ import annotations

import math
from collections import defaultdict
from functools import lru_cache
from heapq import heappop, heappush
from operator import attrgetter
from typing import Optional

from .core import (
    _FOLD,
    Instance,
    Job,
    Schedule,
    canonicalize,
    edf_first,
    exact_terms,
    feasible_at,
    heavier_first,
    schedule_weight,
)

BRUTE_FORCE_MAX_JOBS = 12
BRUTE_FORCE_MAX_HORIZON = 12


class TooLarge(ValueError):
    """Instance exceeds the brute-force enumeration guard."""


class _SlotMatching:
    """Jobs matched onto unit slots by iterative augmenting-path search.

    ``add_if_fits`` is the greedy matroid step (call in ``heavier_first``
    order for a maximum-weight set). ``insert`` additionally performs the
    exchange step needed when jobs arrive in release order: a newcomer that
    cannot be added outright evicts the last job of its blocking structure
    in ``heavier_first`` order when the newcomer comes before it. A
    matching takes its jobs through one of the two.

    A search walks alternating paths with an explicit stack and records,
    for each slot it reaches, the job that reached it; those records are
    the augmenting path when a free slot turns up. A failed search reaches
    a closed interval: all of its slots are occupied, by jobs whose windows
    lie inside it. Without evictions no slot there is ever freed, so no
    later augmenting path can end there; ``add_if_fits`` remembers these
    intervals in ``_full`` and skips them. ``insert`` remembers only the
    latest one, in ``_closed`` (see there).
    """

    def __init__(self) -> None:
        self.owner: dict[int, Job] = {}
        self.slot_of: dict[str, int] = {}
        # _full[s] = a later slot e with every slot in [s, e) proven full.
        self._full: dict[int, int] = {}
        # _closed = (lo, hi, key): the interval [lo, hi) of insert's latest
        # failed search and the heavier_first key of its last owner.
        self._closed: Optional[tuple[int, int, tuple[float, str]]] = None

    def _next_open(self, s: int) -> int:
        """Smallest slot >= s not proven full (compresses the jump chain)."""
        full = self._full
        path = []
        while s in full:
            path.append(s)
            s = full[s]
        for p in path:
            full[p] = s
        return s

    def _search(self, job: Job) -> tuple[Optional[int], dict[int, Job]]:
        """Alternating search from the job's window, grown as an interval.

        Returns the free slot found (None when there is none) and the
        slots reached, each mapped to the job that reached it. The owner
        of each occupied slot reached extends the interval [lo, hi)
        searched so far to cover its window; the stack holds the
        extensions not yet scanned, so each slot is reached at most once.
        On failure the interval is closed: it holds every slot the
        newcomer could be routed to. Slots proven full are skipped; only
        ``add_if_fits`` proves any, so ``insert``'s searches see none.
        """
        owner = self.owner
        full = self._full
        reached: dict[int, Job] = {}
        lo, hi = job.release, job.deadline
        stack = [(lo, hi, job)]
        while stack:
            s, end, j = stack.pop()
            while s < end:
                if s in full:
                    s = self._next_open(s)
                    continue
                reached[s] = j
                holder = owner.get(s)
                if holder is None:
                    return s, reached
                if holder.release < lo:
                    stack.append((holder.release, lo, holder))
                    lo = holder.release
                if holder.deadline > hi:
                    stack.append((hi, holder.deadline, holder))
                    hi = holder.deadline
                s += 1
        return None, reached

    def _shift_into(self, s: Optional[int], reached: dict[int, Job]) -> None:
        """Move each job on the recorded path from slot s back to its root
        one step along, so the searching job takes a slot of its own."""
        while s is not None:
            j = reached[s]
            prev = self.slot_of.get(j.id)
            self.owner[s] = j
            self.slot_of[j.id] = s
            s = prev

    def add_if_fits(self, job: Job) -> bool:
        free, reached = self._search(job)
        if free is None:
            end = max((j.deadline for j in reached.values()), default=0)
            for s in reached:
                self._full[s] = end
            return False
        self._shift_into(free, reached)
        return True

    def insert(self, job: Job) -> tuple[bool, Optional[Job]]:
        """Add the job, possibly evicting one; returns (added, evicted).

        A failed augmentation leaves the matching untouched and has
        explored exactly the alternating-reachable slots, whose owners are
        the jobs whose removal would admit the newcomer (the matroid
        circuit, whatever slots they hold). Evicting the last of them in
        ``heavier_first`` order, when the newcomer comes before it, keeps
        the set ``add_if_fits`` would pick from the same jobs, ties
        included. The jobs on the recorded path to the evicted job's slot
        shift into it, so no second search is needed.

        Every failed search leaves ``_closed`` = (lo, hi, key): its
        interval [lo, hi) and the ``heavier_first`` key of the last owner
        there once the insert is done. A later newcomer whose window lies
        inside [lo, hi) and which comes after that key is rejected without
        a search. That is exact, because the interval stays closed, with
        the same owners, until the next failed search replaces it:

        - a successful augmenting path never enters a closed interval: a
          path that enters one stays inside it, and it has no free slot;
        - a rejection changes nothing;
        - after an eviction the search's own interval is still closed: all
          of its slots are held by jobs whose windows lie inside it.

        The newcomer's own search would stay inside [lo, hi) and fail, and
        the last owner it reached would come no later than that key.
        """
        closed = self._closed
        key = heavier_first(job)
        if (
            closed is not None
            and closed[0] <= job.release
            and job.deadline <= closed[1]
            and closed[2] < key
        ):
            return False, None
        free, reached = self._search(job)
        if free is not None:
            self._shift_into(free, reached)
            return True, None
        owner = self.owner
        lo, hi = min(reached), max(reached) + 1
        keys = [heavier_first(owner[s]) for s in reached]
        last = max(keys)
        if last < key:
            self._closed = (lo, hi, last)
            return False, None
        freed = self.slot_of.pop(last[1])
        lightest = owner[freed]
        self._shift_into(freed, reached)
        # The newcomer now holds a slot there in the evicted job's stead.
        keys[keys.index(last)] = key
        self._closed = (lo, hi, max(keys))
        return True, lightest

    def selected_ids(self) -> set[str]:
        return set(self.slot_of)


def _optimal_ids(instance: Instance) -> set[str]:
    matching = _SlotMatching()
    for job in sorted(instance.jobs, key=heavier_first):
        matching.add_if_fits(job)
    return matching.selected_ids()


def opt_schedule(instance: Instance) -> Schedule:
    """Canonical maximum-weight schedule for the instance."""
    return canonicalize(instance, _optimal_ids(instance))


def brute_force_opt(instance: Instance) -> tuple[float, Schedule]:
    """Exhaustive maximum over all feasible job-to-slot assignments.

    Independent of the matching path; guarded to <= 12 jobs and horizon
    <= 12. Returns the optimal weight and one canonical maximizer.
    """
    jobs = instance.jobs
    if len(jobs) > BRUTE_FORCE_MAX_JOBS or instance.horizon > BRUTE_FORCE_MAX_HORIZON:
        raise TooLarge(
            f"{len(jobs)} jobs / horizon {instance.horizon} exceeds "
            f"{BRUTE_FORCE_MAX_JOBS} jobs / horizon {BRUTE_FORCE_MAX_HORIZON}"
        )
    memo: dict[tuple[int, int], tuple[float, int]] = {}

    def explore(t: int, used: int) -> tuple[float, int]:
        if t > instance.horizon:
            return 0.0, 0
        key = (t, used)
        cached = memo.get(key)
        if cached is not None:
            return cached
        best = explore(t + 1, used)
        for i, job in enumerate(jobs):
            bit = 1 << i
            if used & bit or not feasible_at(job, t):
                continue
            tail_w, tail_mask = explore(t + 1, used | bit)
            if tail_w + job.weight > best[0]:
                best = (tail_w + job.weight, tail_mask | bit)
        memo[key] = best
        return best

    _, mask = explore(0, 0)
    chosen = {jobs[i].id for i in range(len(jobs)) if mask >> i & 1}
    schedule = canonicalize(instance, chosen)
    return schedule_weight(schedule), schedule


@lru_cache(maxsize=64)
def prefix_opt_series(instance: Instance) -> tuple[float, ...]:
    """Prefix-optimum weights for every t in [0, horizon].

    values[t] is the weight of slots [0, t] of the canonical optimum for
    the jobs released by t (that optimum is taken over the full horizon).

    As each slot's releases arrive they are inserted (with optimal
    exchange) into the running matching, which at every t holds the
    maximum-weight schedulable subset of the released jobs. Equivalent to
    re-solving opt_schedule per release prefix, at the cost of a single
    matching overall.

    The canonical (EDF) placement of that selection is kept through slot
    t - 1, with a heap of its released, unplaced jobs; evicted jobs still
    in the heap are dropped when they reach its top. Jobs released at t
    cannot change slots before t, and an evicted job that EDF had placed
    at slot s < t leaves slots before s unchanged (EDF passed it over
    there), so only slots s..t are placed again. values[t] sums the
    placed weights of slots 0..t, the multiset that slots 0..t of
    ``canonicalize(...)`` hold. Each whole block of 64 placed weights is
    folded by ``exact_terms`` into the block's mark, so a slot sums the
    last mark and at most 64 weights past it: the same exact sum, rounded
    once. Placing slots again from s drops the marks of blocks past s.
    """
    by_release: dict[int, list[Job]] = defaultdict(list)
    for job in instance.jobs:
        by_release[job.release].append(job)
    matching = _SlotMatching()
    selected = matching.slot_of
    placed: list[Optional[Job]] = []
    placed_at: dict[str, int] = {}
    weights: list[float] = []
    # marks[k] = exact_terms(weights[:_FOLD * k]).
    marks: list[list[float]] = [[]]
    waiting: list[tuple[int, float, str]] = []
    values: list[float] = []
    for t in range(instance.horizon + 1):
        start = t
        for job in sorted(by_release.get(t, ()), key=heavier_first):
            added, evicted = matching.insert(job)
            if added:
                heappush(waiting, edf_first(job))
            if evicted is not None and evicted.id in placed_at:
                start = min(start, placed_at[evicted.id])
        # Selected jobs that re-enter the heap at their release while slots
        # start..t are placed again (none when only slot t is placed).
        replay: list[Job] = []
        if start < t:
            undone = [j for j in placed[start:] if j is not None]
            for j in undone:
                del placed_at[j.id]
            del placed[start:], weights[start:], marks[start // _FOLD + 1 :]
            undone += [instance.by_id[key[2]] for key in waiting]
            replay = sorted(
                (j for j in undone if j.id in selected), key=attrgetter("release")
            )
            waiting = []
        i = 0
        for s in range(start, t + 1):
            while i < len(replay) and replay[i].release <= s:
                heappush(waiting, edf_first(replay[i]))
                i += 1
            while waiting and waiting[0][2] not in selected:
                heappop(waiting)
            job = instance.by_id[heappop(waiting)[2]] if waiting else None
            placed.append(job)
            if job is not None:
                placed_at[job.id] = s
            weights.append(0.0 if job is None else job.weight)
        while len(weights) > _FOLD * len(marks):
            base = _FOLD * (len(marks) - 1)
            marks.append(exact_terms(marks[-1] + weights[base : base + _FOLD]))
        values.append(math.fsum(marks[-1] + weights[_FOLD * (len(marks) - 1) :]))
    return tuple(values)
