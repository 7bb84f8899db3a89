"""Plain reference definitions that only the tests use."""

from typing import Optional

from pktsched import PHI, Instance, Job, LapTrace
from pktsched.core import edf_first, heavier_first


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
