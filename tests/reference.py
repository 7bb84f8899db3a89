"""Plain reference definitions that only the tests use."""

import math
import random
from heapq import heappop, heappush
from itertools import accumulate, chain, repeat
from operator import add
from typing import Optional

from pktsched import (
    PHI,
    GeneratorSpec,
    InfeasibleSelection,
    Instance,
    Job,
    LapTrace,
    PerturbationSpec,
    Schedule,
    apply_choices,
    build_choices,
    canonicalize,
    local_test,
    opt_schedule,
    prefix_opt_series,
)
from pktsched.core import edf_first, feasible_at, heavier_first
from pktsched.experiments import WEIGHT_FLOOR
from pktsched.offline import _SlotMatching


def dominates(j: Job, j2: Job) -> bool:
    """True iff j is strictly heavier with a no-later deadline than j2."""
    return j.weight > j2.weight and j.deadline <= j2.deadline


def release_prefix(instance: Instance, t: int) -> Instance:
    """The sub-instance of jobs released by t, over the same horizon."""
    return Instance(
        tuple(j for j in instance.jobs if j.release <= t), instance.horizon
    )


def processed_ids(trace: LapTrace) -> set[str]:
    """Ids of the jobs a LAP run processed."""
    return {r.job_id for r in trace.rows if r.job_id is not None}


def greedy_edf_ids(instance: Instance) -> set[str]:
    """Ids of the maximum-weight schedulable set, by the matroid greedy
    with ``canonicalize`` as the feasibility test: jobs in
    ``heavier_first`` order, each kept iff the kept set still places."""
    kept: set[str] = set()
    for job in sorted(instance.jobs, key=heavier_first):
        try:
            canonicalize(instance, kept | {job.id})
        except InfeasibleSelection:
            continue
        kept.add(job.id)
    return kept


def prefix_weight(schedule: Schedule, t: int) -> float:
    """Total weight of the slots [0, t]."""
    return math.fsum(j.weight for j in schedule.slots[: t + 1] if j is not None)


def resolved_prefix_opt(instance: Instance, t: int) -> float:
    """values[t] of the prefix-optimum series, re-solved from scratch on
    the jobs released by t."""
    return prefix_weight(opt_schedule(release_prefix(instance, t)), t)


# Full-list sums: each slot sums every weight so far, which the package
# folds into a few exact terms once the prefix is long.


def prediction_error_by_full_sums(realization: Instance, prediction: Instance) -> float:
    """The prediction error, each denominator one fsum of the whole
    collected prefix of the replayed choices."""
    series = prefix_opt_series(realization)
    followed = apply_choices(build_choices(prediction), realization)
    ratios = []
    for t, numerator in enumerate(series):
        if numerator == 0.0:
            continue
        denominator = prefix_weight(followed, t)
        if denominator == 0.0:
            return math.inf
        ratios.append(numerator / denominator)
    return max(ratios, default=1.0)


def local_ratios_by_full_sums(
    prediction: Instance, realization: Instance, trace: LapTrace
) -> list[Optional[float]]:
    """Each slot's local ratio, recomputed from the trace rows: the test
    runs where the predicted job is pending, over every weight processed
    before that slot (None where it does not run)."""
    series = prefix_opt_series(realization)
    choices = build_choices(prediction)
    done: set[str] = set()
    processed: list[float] = []
    ratios: list[Optional[float]] = []
    for row in trace.rows:
        cid = choices[row.t] if row.t < len(choices) else None
        job = realization.by_id.get(cid) if cid is not None else None
        ratio = None
        if job is not None and job.id not in done and feasible_at(job, row.t):
            ratio = local_test(series, processed, job.weight, row.t, trace.rho)[1]
        ratios.append(ratio)
        if row.job_id is not None:
            done.add(row.job_id)
            processed.append(row.weight)
    return ratios


# Set-scan step rules: the oracle for online.Buffer's heap-indexed tops.


def greedy_step(jobs: set[Job]) -> Optional[str]:
    """Heaviest job of the set; None on an empty set."""
    if not jobs:
        return None
    return min(jobs, key=heavier_first).id


def edf_step(jobs: set[Job]) -> Optional[str]:
    """First job of the set in ``edf_first`` order; None on an empty set."""
    if not jobs:
        return None
    return min(jobs, key=edf_first).id


def mg_step(jobs: set[Job]) -> Optional[str]:
    """Modified greedy over a set: the edf_first minimum if it weighs at
    least 1/phi of the heaviest job, else the heaviest job."""
    if not jobs:
        return None
    heaviest = min(jobs, key=heavier_first)
    earliest = min(jobs, key=edf_first)
    return (earliest if earliest.weight >= heaviest.weight / PHI else heaviest).id


def walking_greedy_ranks(instance: Instance) -> set[int]:
    """Ranks of the maximum-weight schedulable set, by the plain matroid
    greedy: every rank in turn searched with ``_walk``, with no slot ever
    proven full, no free slot taken without a search and no early stop."""
    matching = _SlotMatching(instance)
    for rank in range(len(instance.ids)):
        free, reached = matching._walk(rank)
        if free is not None:
            matching._shift_into(free, reached)
    return {rank for rank, slot in enumerate(matching.slot_of) if slot is not None}


class WalkingMatching(_SlotMatching):
    """A ``_SlotMatching`` with the matroid exchange step, searching with
    the per-slot ``_walk``: the matching that :func:`walking_series`, the
    oracle for ``prefix_opt_series``, inserts each release into.

    A newcomer that cannot be added outright evicts the largest rank of
    its circuit (the owners of the closed interval its failed search
    reached) when that rank is larger than its own. ``_closed`` = (lo,
    hi, last) is the interval of the latest failed search and the largest
    rank among its owners once the insert is done; a newcomer whose
    window lies inside it and whose rank is larger than ``last`` is
    rejected without a search."""

    def __init__(self, instance: Instance) -> None:
        super().__init__(instance)
        self._closed: Optional[tuple[int, int, int]] = None

    def insert(self, rank: int) -> tuple[bool, Optional[int]]:
        """Add the rank, possibly evicting one; returns (added, evicted)."""
        closed = self._closed
        if (
            closed is not None
            and closed[0] <= self.release[rank]
            and self.deadline[rank] <= closed[1]
            and closed[2] < rank
        ):
            return False, None
        free, reached = self._walk(rank)
        if free is not None:
            self._shift_into(free, reached)
            return True, None
        owner_of = self.owner.__getitem__
        lo, hi = min(reached), max(reached) + 1
        last = max(map(owner_of, reached))
        if last < rank:
            self._closed = (lo, hi, last)
            return False, None
        freed = self.slot_of[last]
        self.slot_of[last] = None
        self._shift_into(freed, reached)
        self._closed = (lo, hi, max(map(owner_of, reached)))
        return True, last


def walking_series(instance: Instance) -> tuple[float, ...]:
    """The prefix-optimum series from a matching: each slot's releases
    inserted into one ``WalkingMatching``, and the earliest-deadline
    placement of its jobs kept through slot t - 1, with a heap of its
    released, unplaced jobs keyed ``deadline * n + rank``. An evicted job
    still in the heap is dropped when it reaches the top; one that EDF had
    placed at slot s < t has slots s..t placed again, from every selected
    job placed there or waiting, each entering the heap at its release."""
    weight_of = instance.by_rank.weights
    matching = WalkingMatching(instance)
    release, deadline, slot_of = matching.release, matching.deadline, matching.slot_of
    placed: list[Optional[int]] = []
    placed_at: dict[int, int] = {}
    weights: list[float] = []
    n = len(weight_of)
    waiting: list[int] = []
    values: list[float] = []
    for t in range(instance.horizon + 1):
        start = t
        for rank in instance.released[t]:
            added, evicted = matching.insert(rank)
            if added:
                heappush(waiting, deadline[rank] * n + rank)
            if evicted is not None and evicted in placed_at:
                start = min(start, placed_at[evicted])
        replay: list[int] = []
        if start < t:
            undone = [r for r in placed[start:] if r is not None]
            for r in undone:
                del placed_at[r]
                weights.append(-weight_of[r])
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
                weights.append(weight_of[rank])
            else:
                placed.append(None)
        values.append(math.fsum(weights) + 0.0)
    return tuple(values)


# Seeded draws by one stdlib call each: the oracle for experiments'
# bulk draws, which must take the same values from the same draws.


def generate_by_stdlib(spec: GeneratorSpec) -> Instance:
    """``experiments.generate``, each count and slack one ``rng.randint``."""
    rng = random.Random(spec.seed)
    if spec.kind == "uniform":
        counts = [rng.randint(spec.lo, spec.hi) for _ in range(spec.horizon)]
    else:
        counts = [
            max(0, round(spec.m * (1.0 - rng.random() ** (1.0 / spec.a))))
            for _ in range(spec.horizon)
        ]
    n = sum(counts)
    draws = [(rng.randint(1, spec.max_slack), rng.random()) for _ in range(n)]
    slacks, randoms = zip(*draws) if draws else ((), ())
    releases = tuple(chain.from_iterable(repeat(t, count) for t, count in enumerate(counts, 1)))
    return Instance.from_columns(
        [f"j{i:05d}" for i in range(n)],
        releases,
        accumulate(map(add, releases, slacks), max),
        map((1.0).__sub__, randoms),
    )


def perturb_by_stdlib(instance: Instance, spec: PerturbationSpec) -> Instance:
    """``experiments.perturb``, each noise term one ``rng.gauss`` and each
    shift one ``rng.randint``."""
    rng = random.Random(spec.seed)
    ids, releases = instance.ids, instance.releases
    deadlines, weights = instance.deadlines, instance.weights
    if spec.kind == "weight-gauss":
        if spec.sigma == 0:
            return instance
        noise = [rng.gauss(0.0, spec.sigma) for _ in weights]
        noisy = map(max, map(add, weights, noise), repeat(WEIGHT_FLOOR))
        return Instance.from_columns(ids, releases, deadlines, noisy, instance.horizon)
    if spec.k == 0:
        return instance
    shifts = [rng.randint(-spec.k, spec.k) for _ in deadlines]
    shifted = map(max, map((1).__add__, releases), map(add, deadlines, shifts))
    return Instance.from_columns(ids, releases, shifted, weights)
