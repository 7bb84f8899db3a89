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

The two operations search differently. The greedy (``_optimal_ranks``)
walks one slot at a time, so that it can jump over the slots it has
proven full. It searches only when it must: a window with a free slot
takes the first one outright, and once the jobs taken hold every slot
from the earliest release to the latest deadline, no later job can fit
and it stops. The series (``insert``) proves none full, and most of its
searches fail, which needs no augmenting path: it grows its interval one
layer at a time, each layer one C-level ``min`` and ``max`` over the
releases and deadlines of the owners of the slots the last layer added.
When it ends on a slot (a free one, or an evicted job's), the path there
is read back from the layers into the map the walk records, slot to the
rank that takes it, and one ``_shift_into`` moves the jobs along either.
Each search is the faster of the two on its own path; on the benchmark
shapes the layered search made the optimum solve 12-22% slower.

The matching works on ranks, not ``Job`` records: a job is its index in
the instance's ``heavier_first`` order, sorted once per ``Instance`` and
shared with the online runs' buffers, and the matching reads the release
and deadline columns in that order (``Instance.by_rank``). Slots hold
ranks, so comparing two jobs in ``heavier_first`` order is an int compare,
and the last owner of a set of slots is one C-level ``max`` over them.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Optional

from .core import (
    Instance,
    Schedule,
    canonicalize,
    feasible_at,
    folded,
    schedule_weight,
)

BRUTE_FORCE_MAX_JOBS = 12
BRUTE_FORCE_MAX_HORIZON = 12


class TooLarge(ValueError):
    """Instance exceeds the brute-force enumeration guard."""


class _SlotMatching:
    """Jobs matched onto unit slots by iterative augmenting-path search.

    Built on an instance's jobs in rank order (``heavier_first``); every
    method takes and returns ranks, and a smaller rank comes first.
    ``_optimal_ranks`` runs the greedy matroid step on it, each rank in
    turn. ``insert`` performs the exchange step needed when jobs arrive
    in release order: a newcomer that cannot be added outright evicts the
    largest rank of its blocking structure when that rank is larger than
    its own. A matching takes its jobs through one of the two.

    Both searches grow an interval [lo, hi) of slots from the newcomer's
    window: the owner of each occupied slot reached extends it to cover
    the owner's window, and a free slot ends it with an augmenting path.
    A failed search ends on a closed interval: all of its slots are
    occupied, by jobs whose windows lie inside it.

    - The greedy walks the slots one at a time (``_walk``) and records
      the rank that reached each one. It skips the slots ``_full`` proves
      full: without evictions no slot of a closed interval is ever freed,
      so no later augmenting path can end there.
    - ``insert`` grows the interval one layer at a time (``_grow``), with
      C-level scans of ``rel_at`` and ``dl_at``, the release and deadline
      of each slot's owner; every owner change updates them. A failed
      search needs only its interval and the largest rank in it. The path
      of a search that ends on a slot (a free one, or an evicted job's) is
      read back from the layers into the walk's slot-to-rank map
      (``_path_back``). It remembers only the latest closed interval, in
      ``_closed`` (see there).
    """

    def __init__(self, instance: Instance) -> None:
        # release[r], deadline[r] = the window of rank r; read-only.
        _, self.release, self.deadline, _ = instance.by_rank
        horizon = max(self.deadline, default=0)
        # owner[s] = rank of the job in slot s; slot_of[r] = slot of rank r.
        self.owner: list[Optional[int]] = [None] * horizon
        self.slot_of: list[Optional[int]] = [None] * len(self.release)
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
        Which owner reached which range is worked out only along the path
        to the slot that ends a search (``_path_back``); a failed search
        that evicts nothing never needs it.
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

    def _path_back(
        self, rank: int, layers: list[tuple[int, int]], target: int
    ) -> dict[int, int]:
        """The path from ``rank`` to slot ``target`` through ``_grow``'s
        layers, as ``_walk``'s map: each slot on it to the rank that
        reached it. Read before any slot moves.

        The rank that reached a slot of layer k > 0 held a slot of layer
        k - 1: the owner there with the release that layer k extends the
        interval to on the left, or the deadline it extends it to on the
        right. Layer 0's slots were reached by the searching rank.
        """
        rel_at = self.rel_at
        dl_at = self.dl_at
        path: dict[int, int] = {}
        s = target
        k = len(layers) - 1
        while True:
            # Slot s was added by the first layer whose interval holds it.
            while k and layers[k - 1][0] <= s < layers[k - 1][1]:
                k -= 1
            if not k:
                path[s] = rank
                return path
            lo, hi = layers[k - 1]
            # Layer k - 1 added [lo, a) and [b, hi).
            a, b = layers[k - 2] if k > 1 else (hi, hi)
            if s < lo:
                at, end = rel_at, layers[k][0]
            else:
                at, end = dl_at, layers[k][1]
            part = at[lo:a]
            slot = lo + part.index(end) if end in part else at.index(end, b, hi)
            path[s] = self.owner[slot]
            s = slot

    def _shift_into(self, s: Optional[int], reached: dict[int, int]) -> None:
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

    def insert(self, rank: int) -> tuple[bool, Optional[int]]:
        """Add the rank, possibly evicting one; returns (added, evicted).

        A failed augmentation leaves the matching untouched and has
        explored exactly the alternating-reachable slots, whose owners are
        the jobs whose removal would admit the newcomer (the matroid
        circuit, whatever slots they hold). Evicting the largest rank among
        them, when the newcomer's rank is smaller, keeps the set
        the greedy would pick from the same jobs, ties included. The
        jobs on the path that ``_path_back`` reads back from the search's
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
            self._shift_into(free, self._path_back(rank, layers, free))
            return True, None
        lo, hi = layers[-1]
        last = max(self.owner[lo:hi])
        if last < rank:
            self._closed = (lo, hi, last)
            return False, None
        freed = self.slot_of[last]
        self.slot_of[last] = None
        self._shift_into(freed, self._path_back(rank, layers, freed))
        # The same owners, with the newcomer in the evicted job's stead.
        self._closed = (lo, hi, max(self.owner[lo:hi]))
        return True, last


def _optimal_ranks(instance: Instance) -> list[int]:
    """The ranks of a maximum-weight schedulable set of the instance's jobs,
    in slot order: the matroid greedy, each rank in turn.

    A rank whose window ``_full`` proves full is rejected without a search.
    A window with a free slot takes its first one: the slot ``_walk`` would
    end on, as its first range is the window, scanned left to right, and
    the greedy never frees a slot, so no free slot is in ``_full``. Only a
    window with every slot taken is walked. Each job taken holds its own
    slot of [earliest release, latest deadline), so once that many are
    taken no later search can end on a free slot, and the greedy stops.
    """
    matching = _SlotMatching(instance)
    release, deadline = matching.release, matching.deadline
    owner, slot_of, full = matching.owner, matching.slot_of, matching._full
    rel_at, dl_at = matching.rel_at, matching.dl_at
    room = max(deadline, default=0) - min(release, default=0)
    taken = 0
    for rank, (r, d) in enumerate(zip(release, deadline)):
        if taken == room:
            break
        if r in full and matching._next_open(r) >= d:
            continue
        if None in owner[r:d]:
            s = owner.index(None, r, d)
            owner[s] = rank
            slot_of[rank] = s
            rel_at[s] = r
            dl_at[s] = d
        else:
            free, reached = matching._walk(rank)
            if free is None:
                end = max(map(deadline.__getitem__, reached.values()))
                for s in reached:
                    full[s] = end
                continue
            matching._shift_into(free, reached)
        taken += 1
    return [rank for rank in owner if rank is not None]


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

    The releases come from ``Instance.released``. The canonical (EDF)
    placement of that selection is kept through slot t - 1, with a heap of
    its released, unplaced jobs, keyed as ``online.Buffer`` keys them
    (``deadline * n + rank``, as ``Instance.edf_keys``, computed per push);
    evicted jobs still in the heap are dropped when they reach its top.
    Jobs released at t cannot change slots before
    t, and an evicted job that EDF had placed at slot s < t leaves slots
    before s unchanged (EDF passed it over there), so only slots s..t are
    placed again. values[t] is the weight of slots 0..t, the multiset that
    slots 0..t of ``canonicalize(...)`` hold: one ``math.fsum`` through
    ``core.folded`` of a list of each nonzero weight placed and the negation
    of each one undone, so no value is -0.0.
    """
    weight_of = instance.by_rank.weights
    released_at = instance.released
    matching = _SlotMatching(instance)
    release, deadline, slot_of = matching.release, matching.deadline, matching.slot_of
    placed: list[Optional[int]] = []
    placed_at: dict[int, int] = {}
    weights: list[float] = []
    # Every rank is < n, so deadline * n + rank is edf_first order.
    n = len(weight_of)
    waiting: list[int] = []
    values: list[float] = []
    for t in range(instance.horizon + 1):
        start = t
        for rank in released_at[t]:
            added, evicted = matching.insert(rank)
            if added:
                heappush(waiting, deadline[rank] * n + rank)
            if evicted is not None and evicted in placed_at:
                start = min(start, placed_at[evicted])
        # Selected ranks that re-enter the heap at their release while slots
        # start..t are placed again (none when only slot t is placed).
        replay: list[int] = []
        if start < t:
            undone = [r for r in placed[start:] if r is not None]
            for r in undone:
                del placed_at[r]
                if weight := weight_of[r]:
                    weights.append(-weight)
            del placed[start:]
            undone += [key % n for key in waiting]
            replay = sorted(
                (r for r in undone if slot_of[r] is not None), key=release.__getitem__
            )
            waiting = []
        i = 0
        for s in range(start, t + 1):
            while i < len(replay) and release[replay[i]] <= s:
                heappush(waiting, deadline[replay[i]] * n + replay[i])
                i += 1
            while waiting and slot_of[waiting[0] % n] is None:
                heappop(waiting)
            if waiting:
                rank = heappop(waiting) % n
                placed.append(rank)
                placed_at[rank] = s
                if weight := weight_of[rank]:
                    weights.append(weight)
            else:
                placed.append(None)
        values.append(math.fsum(folded(weights)))
    return tuple(values)
