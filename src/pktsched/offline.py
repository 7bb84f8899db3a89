"""Exact offline optima via augmenting-path matching of jobs onto slots.

The schedulable subsets of an instance form a matroid (a set is feasible
iff it matches into the slots), so inserting jobs in decreasing weight
with an augmenting-path feasibility check yields the exact maximum-weight
schedule. A memoized exhaustive search over slot assignments serves as an
independent oracle for small instances.

The greedy (``_optimal_ranks``) keeps its matching in plain lists: the
rank in each slot, and a map of the slots proven full. Windows are
intervals of slots, so its augmenting search is iterative and walks one
slot at a time (``_walk``). A failed search ends on a closed interval:
every slot in it is taken by a job whose window lies inside it. The
greedy frees no slot, so no later augmenting path can end there, and it
skips those slots from then on (``_next_open``). It searches only when
it must: a window with a free slot takes the first one outright, and once
the jobs taken hold every slot from the earliest release to the latest
deadline, no later job can fit and it stops.

The prefix-optimum series needs no matching. Its jobs arrive in release
order, and a job released at t cannot change how slots before t are
placed, so it decides each newcomer from its own earliest-deadline
placement: whether the newcomer fits into the slots from t on, and if not,
which job of the tight interval it is compared with (see
``prefix_opt_series``).

Both work on ranks, not ``Job`` records: a job is its index in the
instance's ``heavier_first`` order, sorted once per ``Instance`` and
shared with the online runs' buffers, and both read the release and
deadline columns in that order (``Instance.by_rank``). Comparing two jobs
in ``heavier_first`` order is an int compare, and the last of a set of
jobs in that order is one C-level ``max`` over their ranks.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from heapq import heappop, heappush
from itertools import compress, count
from operator import lt
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


def _next_open(full: dict[int, int], s: int) -> int:
    """Smallest slot >= s not proven full (compresses the jump chain):
    ``full[s]`` is a later slot e with every slot of [s, e) proven full."""
    path = []
    while s in full:
        path.append(s)
        s = full[s]
    for p in path:
        full[p] = s
    return s


def _walk(
    owner: list[Optional[int]], release: tuple[int, ...], deadline: tuple[int, ...],
    full: dict[int, int], rank: int,
) -> tuple[Optional[int], dict[int, Optional[int]]]:
    """Alternating search from the rank's window, one slot at a time.

    The interval [lo, hi) grows from the window: the owner of each held
    slot reached widens it to the owner's window. The stack holds the
    extensions not yet scanned, each with the slot of the job whose window
    it is (None for the searching rank), so each slot is reached at most
    once. Slots proven full are skipped. Returns the free slot found (None
    if none) and each slot reached, mapped to the slot of the job that
    reached it: from the free slot, the augmenting path back. A failed
    search leaves [lo, hi) closed, each slot reached and held or skipped
    as proven full, so it marks the slots reached full up to hi.
    """
    reached: dict[int, Optional[int]] = {}
    lo, hi = release[rank], deadline[rank]
    stack: list[tuple[int, int, Optional[int]]] = [(lo, hi, None)]
    while stack:
        s, end, via = stack.pop()
        while s < end:
            if s in full:
                s = _next_open(full, s)
                continue
            reached[s] = via
            holder = owner[s]
            if holder is None:
                return s, reached
            if release[holder] < lo:
                stack.append((release[holder], lo, s))
                lo = release[holder]
            if deadline[holder] > hi:
                stack.append((hi, deadline[holder], s))
                hi = deadline[holder]
            s += 1
    for s in reached:
        full[s] = hi
    return None, reached


def _optimal_ranks(instance: Instance) -> list[int]:
    """The ranks of a maximum-weight schedulable set of the instance's jobs,
    in slot order: the matroid greedy, each rank in turn.

    ``owner[s]`` is the rank in slot s. A rank whose window ``full``
    proves full is rejected without a search. A window with a free slot
    takes its first one: the slot ``_walk`` would end on, as it scans the
    window first, left to right, and no free slot is proven full. Only a
    window with every slot taken is walked, and each job on the path found
    moves into the slot it reached. Each job taken holds its own slot of
    [earliest release, latest deadline), so once that many are taken no
    later search can end on a free slot, and the greedy stops.
    """
    _, release, deadline, _ = instance.by_rank
    owner: list[Optional[int]] = [None] * max(deadline, default=0)
    full: dict[int, int] = {}
    room = len(owner) - min(release, default=0)
    taken = 0
    for rank, (r, d) in enumerate(zip(release, deadline)):
        if taken == room:
            break
        if r in full and _next_open(full, r) >= d:
            continue
        if None in owner[r:d]:
            owner[owner.index(None, r, d)] = rank
        else:
            s, reached = _walk(owner, release, deadline, full, rank)
            if s is None:
                continue
            while (prev := reached[s]) is not None:
                owner[s] = owner[prev]
                s = prev
            owner[s] = rank
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

    The selection, the maximum-weight schedulable set of the jobs released
    so far, is kept as its canonical (EDF) placement: slots before t
    placed, and the pending jobs (selected, not yet placed) in EDF order,
    as parallel lists of their keys ``deadline * n + rank`` (as
    ``Instance.edf_keys``, computed per job, so the series builds no
    per-job table), ranks and releases. All of them are released,
    so the i-th pending job sits at slot t + i, and its slot is tight when
    its deadline is t + i + 1 (its key is below (t + i + 2) * n). The
    releases come from ``Instance.released``, in rank order.

    The fit rule. A job released at t cannot change how slots before t are
    placed, so a newcomer with deadline d fits iff the pending jobs and it
    fit into slots t, t + 1, ... by deadline alone: iff no slot at or past
    pending index d - t - 1 is tight, which one C-level scan finds. A job
    that fits joins the pending lists.

    The tight interval. Otherwise the newcomer's circuit in the matroid
    is the jobs of the tight interval [a, b): b is the deadline of the
    first tight slot found, and a is the latest entry at or before m, the
    earliest release of the pending jobs up to that slot, of ``stack``:
    the ascending slots a' such that every job placed in [a', t) was
    released at a' or later. The circuit is the newcomer, the first b - t
    pending jobs and ``placed[a:t]``. As the greedy would, the largest
    rank among them is evicted if it is larger than the newcomer's, and
    otherwise the newcomer is rejected.

    The stack. Each placed slot pops the entries above its job's release
    and pushes the next slot. The stack holds this for the slots before
    ``stacked``, and a search brings it up to t before it reads it. An
    idle stretch leaves only the slot after it: every job pending later
    was released after it, so no circuit reaches back across it. A pending
    job evicted just leaves the lists. A placed one, at slot s, has slots
    s..t-1 placed again by EDF from the circuit's other jobs there and the
    pending ones; the rest stay pending. Slots before s keep their jobs
    (EDF passed the evicted job over there). ``stacked`` drops to r, the
    earliest release placed in [s, t) before the replay: the pops of those
    jobs never reached the entries up to r, and the update at slot r pops
    every entry above it, so the next search works them out again.

    The shortcut. A failed search leaves (``closed_end``,
    ``closed_last``) = (b, last): its interval's end and the largest rank
    held in [a, b) once the exchange is done. [a, b) is full with jobs of
    rank at most ``last``, all released, so any later newcomer (released
    at t >= a) with deadline at most b and a larger rank is spanned by
    lighter jobs and rejected: no scan is needed.

    When nothing is pending, every slot up to the next release is idle,
    and is filled at C level in one step. values[t] is the weight of
    slots 0..t, the multiset that slots 0..t of ``canonicalize(...)``
    hold: one ``math.fsum`` through ``core.folded`` of a list of each
    nonzero weight placed and the negation of each one evicted, so no
    value is -0.0.
    """
    release, deadline, weight_of = instance.by_rank[1:]
    released_at = instance.released
    horizon = instance.horizon
    # Every rank is < n, so deadline * n + rank is edf_first order.
    n = len(weight_of)
    keys: list[int] = []
    ranks: list[int] = []
    rels: list[int] = []
    placed: list[Optional[int]] = []
    stack = [0]
    # The stack is kept for slots before ``stacked`` and brought up to t
    # only when a search reads it.
    stacked = 0
    weights: list[float] = []
    values: list[float] = []
    closed_end, closed_last = 0, n
    t = 0
    arrivals = list(filter(released_at.__getitem__, range(horizon + 1)))
    for now in arrivals + [horizon + 1]:
        # No job is released in [t, now): place those slots.
        while ranks and t < now:
            placed.append(ranks.pop(0))
            del keys[0], rels[0]
            t += 1
            if weight := weight_of[placed[-1]]:
                weights.append(weight)
            values.append(math.fsum(folded(weights)))
        if t < now:
            # Idle until the next release.
            placed += [None] * (now - t)
            values += [math.fsum(folded(weights))] * (now - t)
            stack = [now]
            t = stacked = now
        if t > horizon:
            break
        for x in released_at[t]:
            d = deadline[x]
            if d <= closed_end and closed_last < x:
                continue
            b = None
            start = d - t - 1
            if start < len(keys):
                b = next(compress(count(d), map(lt, keys[start:], count((d + 1) * n, n))), None)
            if b is not None:
                i = b - t
                for u in range(stacked, t):
                    r = release[placed[u]]
                    while stack[-1] > r:
                        stack.pop()
                    stack.append(u + 1)
                stacked = t
                a = stack[bisect_right(stack, min(rels[:i])) - 1]
                held = placed[a:t]
                top = max(ranks[:i])
                last = max(top, max(held, default=-1))
                if last < x:
                    closed_end, closed_last = b, last
                    continue
                if last == top:
                    j = ranks.index(last)
                    del keys[j], ranks[j], rels[j]
                else:
                    s = a + held.index(last)
                    undone = placed[s:t]
                    pool = undone[1:] + ranks[:i]
                    pool.sort(key=release.__getitem__)
                    heap: list[int] = []
                    k = 0
                    for u in range(s, t):
                        while k < len(pool) and release[pool[k]] <= u:
                            r = pool[k]
                            heappush(heap, deadline[r] * n + r)
                            k += 1
                        placed[u] = heappop(heap) % n
                    heap += [deadline[r] * n + r for r in pool[k:]]
                    heap.sort()
                    keys[:i] = heap
                    ranks[:i] = [key % n for key in heap]
                    rels[:i] = map(release.__getitem__, ranks[: i - 1])
                    # The circuit's jobs fill [a, b) before and after, so
                    # one pending job moved into [s, t) in last's stead.
                    (pulled,) = set(placed[s:t]).difference(undone)
                    if weight := weight_of[last]:
                        weights.append(-weight)
                    if weight := weight_of[pulled]:
                        weights.append(weight)
                    stacked = min(map(release.__getitem__, undone))
            key = d * n + x
            p = bisect_right(keys, key)
            keys.insert(p, key)
            ranks.insert(p, x)
            rels.insert(p, t)
            if b is not None:
                closed_end, closed_last = b, max(max(ranks[:i]), max(placed[a:t], default=-1))
    return tuple(values)
