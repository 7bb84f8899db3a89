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
grows one interval. A failed search ends on a closed interval: every slot
in it is taken by a job whose window lies inside it. While jobs are only
added, no slot there is ever freed, so no later augmenting path can end
there, and the greedy skips it from then on. The series' exchange step
frees no slot either (the path refills the evicted job's slot), but it can
move a job whose window is not inside an older closed interval into that
interval, which is then no longer closed. So the series remembers only
the interval of its latest failed search, which stays closed until the
next one, and rejects without a search a newcomer whose window lies inside
it and which comes after all of its owners in ``heavier_first`` order.

The two operations search differently. The greedy (``add_if_fits``)
walks one slot at a time, so that it can jump over the slots it has
proven full. The series (``insert``) proves none full, and most of its
searches fail, which needs no augmenting path: it grows its interval one
layer at a time, each layer one C-level ``min`` and ``max`` over the
releases and deadlines of the owners of the slots the last layer added.
Each is the faster of the two on its own path; on the benchmark shapes
the layered search made the optimum solve 12-22% slower.

The matching works on ranks, not ``Job`` records: the instance's jobs are
sorted once in ``heavier_first`` order, and a job is its index in that
list. Slots hold ranks, so comparing two jobs in ``heavier_first`` order
is an int compare, and the last owner of a set of slots is one C-level
``max`` over them.
"""

from __future__ import annotations

import math
from collections import defaultdict
from heapq import heappop, heappush
from operator import attrgetter
from typing import Optional, Sequence

from .core import (
    _FOLD,
    Instance,
    Job,
    Schedule,
    canonicalize,
    exact_terms,
    feasible_at,
    schedule_weight,
)

BRUTE_FORCE_MAX_JOBS = 12
BRUTE_FORCE_MAX_HORIZON = 12


class TooLarge(ValueError):
    """Instance exceeds the brute-force enumeration guard."""


def _ranked(instance: Instance) -> list[Job]:
    """The instance's jobs in ``heavier_first`` order.

    ``instance.jobs`` is in increasing id order and the sort is stable
    (``reverse`` keeps it so), so equal weights stay smaller id first.
    """
    return sorted(instance.jobs, key=attrgetter("weight"), reverse=True)


class _PathBack:
    """The layers of a failed or successful ``_SlotMatching._grow``, read
    as a map from a slot to the rank that reached it.

    The rank that reached a slot of layer k > 0 held a slot of layer
    k - 1: the owner there with the release that layer k extends the
    interval to on the left, or the deadline it extends it to on the
    right. Layer 0's slots were reached by the searching rank. A path asks
    for its slots from the last one back, one layer down per step, before
    any slot of a lower layer is moved, so each lookup reads its layer's
    owners as the search saw them.
    """

    __slots__ = ("matching", "rank", "layers", "k")

    def __init__(
        self, matching: _SlotMatching, rank: int, layers: list[tuple[int, int]]
    ) -> None:
        self.matching = matching
        self.rank = rank
        self.layers = layers
        self.k = len(layers) - 1

    def __getitem__(self, s: int) -> int:
        layers = self.layers
        k = self.k
        # Slot s was added by the first layer whose interval holds it.
        while k and layers[k - 1][0] <= s < layers[k - 1][1]:
            k -= 1
        self.k = k
        if not k:
            return self.rank
        m = self.matching
        lo, hi = layers[k - 1]
        # Layer k - 1 added [lo, a) and [b, hi).
        a, b = layers[k - 2] if k > 1 else (hi, hi)
        if s < lo:
            at, end = m.rel_at, layers[k][0]
        else:
            at, end = m.dl_at, layers[k][1]
        part = at[lo:a]
        slot = lo + part.index(end) if end in part else at.index(end, b, hi)
        return m.owner[slot]


class _SlotMatching:
    """Jobs matched onto unit slots by iterative augmenting-path search.

    Built on a list of jobs in ``heavier_first`` order; every method takes
    and returns ranks, indexes into that list, and a smaller rank comes
    first. ``add_if_fits`` is the greedy matroid step (call in rank order
    for a maximum-weight set). ``insert`` additionally performs the
    exchange step needed when jobs arrive in release order: a newcomer that
    cannot be added outright evicts the largest rank of its blocking
    structure when that rank is larger than its own. A matching takes its
    jobs through one of the two.

    Both searches grow an interval [lo, hi) of slots from the newcomer's
    window: the owner of each occupied slot reached extends it to cover
    the owner's window, and a free slot ends it with an augmenting path.
    A failed search ends on a closed interval: all of its slots are
    occupied, by jobs whose windows lie inside it.

    - ``add_if_fits`` walks the slots one at a time (``_walk``) and records
      the rank that reached each one. It skips the slots ``_full`` proves
      full: without evictions no slot of a closed interval is ever freed,
      so no later augmenting path can end there.
    - ``insert`` grows the interval one layer at a time (``_grow``), with
      C-level scans of ``rel_at`` and ``dl_at``, the release and deadline
      of each slot's owner; every owner change updates them. A failed
      search needs only its interval and the largest rank in it, and the
      path of a successful one is read back from the layers
      (``_PathBack``). It remembers only the latest closed interval, in
      ``_closed`` (see there).
    """

    def __init__(self, ranked: Sequence[Job]) -> None:
        self.ranked = ranked
        self.release = [j.release for j in ranked]
        self.deadline = [j.deadline for j in ranked]
        horizon = max(self.deadline, default=0)
        # owner[s] = rank of the job in slot s; slot_of[r] = slot of rank r.
        self.owner: list[Optional[int]] = [None] * horizon
        self.slot_of: list[Optional[int]] = [None] * len(ranked)
        # rel_at[s], dl_at[s] = release and deadline of owner[s]; -1 when
        # slot s is free, below every release and deadline.
        self.rel_at = [-1] * horizon
        self.dl_at = [-1] * horizon
        # _full[s] = a later slot e with every slot in [s, e) proven full.
        self._full: dict[int, int] = {}
        # _closed = (lo, hi, rank): the interval [lo, hi) of insert's latest
        # failed search and the largest rank among its owners.
        self._closed: Optional[tuple[int, int, int]] = None

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

    def _walk(self, rank: int) -> tuple[Optional[int], dict[int, int]]:
        """Alternating search from the job's window, one slot at a time.

        Returns the free slot found (None when there is none) and the
        slots reached, each mapped to the rank that reached it. The stack
        holds the extensions not yet scanned, so each slot is reached at
        most once. Slots proven full are skipped.
        """
        owner = self.owner
        release = self.release
        deadline = self.deadline
        full = self._full
        reached: dict[int, int] = {}
        lo, hi = release[rank], deadline[rank]
        stack = [(lo, hi, rank)]
        while stack:
            s, end, j = stack.pop()
            while s < end:
                if s in full:
                    s = self._next_open(s)
                    continue
                reached[s] = j
                holder = owner[s]
                if holder is None:
                    return s, reached
                if release[holder] < lo:
                    stack.append((release[holder], lo, holder))
                    lo = release[holder]
                if deadline[holder] > hi:
                    stack.append((hi, deadline[holder], holder))
                    hi = deadline[holder]
                s += 1
        return None, reached

    def _grow(self, rank: int) -> tuple[Optional[int], list[tuple[int, int]]]:
        """Alternating search from the job's window, one layer at a time.

        Returns the free slot found (None when there is none) and the
        layers: the intervals [lo, hi) searched after each layer, from the
        job's window on. On failure the last one is the closed interval.
        A layer scans only the slots the last one added, at most one range
        on each side: ``min`` of ``rel_at`` over a range finds a free slot
        (the -1) or the release that extends the interval to the left, and
        ``max`` of ``dl_at`` the deadline that extends it to the right.
        Which owner reached which range is worked out only along an
        augmenting path (``_PathBack``); a failed search never needs it.
        """
        rel_at = self.rel_at
        dl_at = self.dl_at
        lo, hi = self.release[rank], self.deadline[rank]
        layers: list[tuple[int, int]] = []
        # [lo, a) and [b, hi): the slots the newest layer added. The two
        # sides are written out: a loop over them costs about 10% more.
        a = b = hi
        while True:
            layers.append((lo, hi))
            left, right = lo, hi
            if lo < a:
                first = min(rel_at[lo:a])
                if first < 0:
                    return rel_at.index(-1, lo, a), layers
                last = max(dl_at[lo:a])
                if first < left:
                    left = first
                if last > right:
                    right = last
            if b < hi:
                first = min(rel_at[b:hi])
                if first < 0:
                    return rel_at.index(-1, b, hi), layers
                last = max(dl_at[b:hi])
                if first < left:
                    left = first
                if last > right:
                    right = last
            if left == lo and right == hi:
                return None, layers
            a, b, lo, hi = lo, hi, left, right

    def _shift_into(
        self, s: Optional[int], reached: dict[int, int] | _PathBack
    ) -> None:
        """Move each job on a recorded path one step along: reached[s]
        takes slot s, the rank that reached its old slot takes that, and
        so on back to the searching job, which held no slot."""
        owner = self.owner
        slot_of = self.slot_of
        rel_at = self.rel_at
        dl_at = self.dl_at
        release = self.release
        deadline = self.deadline
        while s is not None:
            j = reached[s]
            prev = slot_of[j]
            owner[s] = j
            slot_of[j] = s
            rel_at[s] = release[j]
            dl_at[s] = deadline[j]
            s = prev

    def add_if_fits(self, rank: int) -> bool:
        # Every slot of the window proven full: a search would reach none.
        if self._next_open(self.release[rank]) >= self.deadline[rank]:
            return False
        free, reached = self._walk(rank)
        if free is None:
            end = max(map(self.deadline.__getitem__, reached.values()))
            for s in reached:
                self._full[s] = end
            return False
        self._shift_into(free, reached)
        return True

    def insert(self, rank: int) -> tuple[bool, Optional[int]]:
        """Add the rank, possibly evicting one; returns (added, evicted).

        A failed augmentation leaves the matching untouched and has
        explored exactly the alternating-reachable slots, whose owners are
        the jobs whose removal would admit the newcomer (the matroid
        circuit, whatever slots they hold). Evicting the largest rank among
        them, when the newcomer's rank is smaller, keeps the set
        ``add_if_fits`` would pick from the same jobs, ties included. The
        jobs on the path that ``_PathBack`` reads back from the search's
        layers to the evicted job's slot shift into it, so no second search
        is needed. The circuit is unique, so the ranks added and evicted,
        and the closed interval (the union of the circuit's windows), do
        not depend on the order the search scans in; only the slots the
        jobs end up in may.

        Every failed search leaves ``_closed`` = (lo, hi, last): its
        interval [lo, hi) and the largest rank among the owners there once
        the insert is done. A later newcomer whose window lies inside
        [lo, hi) and whose rank is larger than ``last`` is rejected without
        a search. That is exact, because the interval stays closed, with
        the same owners, until the next failed search replaces it:

        - a successful augmenting path never enters a closed interval: a
          path that enters one stays inside it, and it has no free slot;
        - a rejection changes nothing;
        - after an eviction the search's own interval is still closed: all
          of its slots are held by jobs whose windows lie inside it.

        The newcomer's own search would stay inside [lo, hi) and fail, and
        the largest rank it reached would be no larger than ``last``.
        """
        closed = self._closed
        if (
            closed is not None
            and closed[0] <= self.release[rank]
            and self.deadline[rank] <= closed[1]
            and closed[2] < rank
        ):
            return False, None
        free, layers = self._grow(rank)
        if free is not None:
            self._shift_into(free, _PathBack(self, rank, layers))
            return True, None
        lo, hi = layers[-1]
        last = max(self.owner[lo:hi])
        if last < rank:
            self._closed = (lo, hi, last)
            return False, None
        freed = self.slot_of[last]
        self.slot_of[last] = None
        self._shift_into(freed, _PathBack(self, rank, layers))
        # The same owners, with the newcomer in the evicted job's stead.
        self._closed = (lo, hi, max(self.owner[lo:hi]))
        return True, last

    def selected_ids(self) -> set[str]:
        ranked = self.ranked
        return {ranked[r].id for r, s in enumerate(self.slot_of) if s is not None}


def _optimal_ids(instance: Instance) -> set[str]:
    ranked = _ranked(instance)
    matching = _SlotMatching(ranked)
    for rank in range(len(ranked)):
        matching.add_if_fits(rank)
    return matching.selected_ids()


def opt_schedule(instance: Instance) -> Schedule:
    """Canonical maximum-weight schedule for the instance.

    Returns ``instance.optimum``: the instance is solved on the first call
    and every later call on the same ``Instance`` returns that schedule.
    """
    return instance.optimum


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
    ranked = _ranked(instance)
    matching = _SlotMatching(ranked)
    release, deadline, slot_of = matching.release, matching.deadline, matching.slot_of
    # Ranks released at each slot, in rank (heavier_first) order.
    by_release: dict[int, list[int]] = defaultdict(list)
    for rank, r in enumerate(release):
        by_release[r].append(rank)
    placed: list[Optional[int]] = []
    placed_at: dict[int, int] = {}
    weights: list[float] = []
    # marks[k] = exact_terms(weights[:_FOLD * k]).
    marks: list[list[float]] = [[]]
    # (deadline, rank) is edf_first order.
    waiting: list[tuple[int, int]] = []
    values: list[float] = []
    for t in range(instance.horizon + 1):
        start = t
        for rank in by_release.get(t, ()):
            added, evicted = matching.insert(rank)
            if added:
                heappush(waiting, (deadline[rank], rank))
            if evicted is not None and evicted in placed_at:
                start = min(start, placed_at[evicted])
        # Selected ranks that re-enter the heap at their release while slots
        # start..t are placed again (none when only slot t is placed).
        replay: list[int] = []
        if start < t:
            undone = [r for r in placed[start:] if r is not None]
            for r in undone:
                del placed_at[r]
            del placed[start:], weights[start:], marks[start // _FOLD + 1 :]
            undone += [r for _, r in waiting]
            replay = sorted(
                (r for r in undone if slot_of[r] is not None), key=release.__getitem__
            )
            waiting = []
        i = 0
        for s in range(start, t + 1):
            while i < len(replay) and release[replay[i]] <= s:
                heappush(waiting, (deadline[replay[i]], replay[i]))
                i += 1
            while waiting and slot_of[waiting[0][1]] is None:
                heappop(waiting)
            if waiting:
                rank = heappop(waiting)[1]
                placed.append(rank)
                placed_at[rank] = s
                weights.append(ranked[rank].weight)
            else:
                placed.append(None)
                weights.append(0.0)
        while len(weights) > _FOLD * len(marks):
            base = _FOLD * (len(marks) - 1)
            marks.append(exact_terms(marks[-1] + weights[base : base + _FOLD]))
        values.append(math.fsum(marks[-1] + weights[_FOLD * (len(marks) - 1) :]))
    return tuple(values)
