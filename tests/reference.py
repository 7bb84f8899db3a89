"""Plain reference definitions that only the tests use."""

import math
from typing import Optional

from pktsched import (
    PHI,
    InfeasibleSelection,
    Instance,
    Job,
    LapTrace,
    Schedule,
    apply_choices,
    build_choices,
    canonicalize,
    local_test,
    opt_schedule,
    prefix_opt_series,
)
from pktsched.core import edf_first, feasible_at, heavier_first
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


class WalkingMatching(_SlotMatching):
    """A ``_SlotMatching`` whose ``insert`` searches with the per-slot
    ``_walk``, as the series did before its layered search: the oracle for
    ``insert``'s added and evicted ranks and for its ``_closed``."""

    def insert(self, rank: int) -> tuple[bool, Optional[int]]:
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
