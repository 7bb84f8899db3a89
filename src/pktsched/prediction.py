"""Prediction handling: choice sequences, the error metric, and the
blind follower.

A prediction is just another instance. Its optimal schedule is distilled
into a per-slot sequence of job-id choices, which can then be replayed
against any realization: a choice lands only if the realized job with
that id exists, is unprocessed, and is feasible at that slot; otherwise
the slot stays empty. The error metric compares, slot prefix by slot
prefix, the realization's achievable optimum against what replaying the
predicted choices actually collects.
"""

from __future__ import annotations

import math
from typing import Optional

from .core import Instance, Job, Schedule, folded
from .offline import opt_schedule


def build_choices(prediction: Instance) -> tuple[Optional[str], ...]:
    """Per-slot ids of the prediction's canonical optimal schedule.

    The optimum is ``opt_schedule(prediction)``, solved once per
    ``Instance``: the error metric and LAP build their choices from the
    same kept schedule.
    """
    return tuple(j.id if j is not None else None for j in opt_schedule(prediction).slots)


def apply_choices(
    choices: tuple[Optional[str], ...], realization: Instance
) -> Schedule:
    """Replay the choices on the realization's slots, dummying out misses.

    A slot's choice is honored only when the realized job with that id
    exists, has not been placed yet, and is feasible right there; no
    rescue rescheduling is attempted (that is the fallback policy's job).
    The schedule spans the realization's horizon: choices past it are
    dropped, since no realized job is feasible there.
    """
    rank_of = realization.rank_of
    _, releases, deadlines, _ = realization.by_rank
    record = realization.record
    placed: set[int] = set()
    slots: list[Optional[Job]] = []
    for t in range(realization.horizon + 1):
        rank = rank_of.get(choices[t]) if t < len(choices) else None
        # Feasible at t: released by t, deadline after t.
        if rank is not None and releases[rank] <= t < deadlines[rank] and rank not in placed:
            placed.add(rank)
            slots.append(record(rank))
        else:
            slots.append(None)
    return Schedule(tuple(slots))


def prediction_error(realization: Instance, prediction: Instance) -> float:
    """Worst prefix ratio of the realization's optimum to the followed choices.

    For each slot t of the realization's horizon, the numerator is the
    prefix-optimum weight over jobs released by t and the denominator is
    the weight collected through t by replaying the prediction's optimal
    choices. Returns infinity when some positive numerator meets a zero
    denominator, and 1 when every numerator is zero. The collected
    weights are summed through ``core.folded``, which leaves every
    denominator unchanged.
    """
    series = realization.prefix_opt
    followed = apply_choices(build_choices(prediction), realization)
    collected: list[float] = []
    ratios: list[float] = []
    for t, job in enumerate(followed.slots):
        if job is not None:
            collected.append(job.weight)
        numerator = series[t]
        if numerator == 0.0:
            continue
        denominator = math.fsum(folded(collected))
        if denominator == 0.0:
            return math.inf
        ratios.append(numerator / denominator)
    return max(ratios) if ratios else 1.0


def blind_follow(prediction: Instance, realization: Instance) -> Schedule:
    """Follow the prediction's optimal choices unconditionally.

    Optimal when the prediction is exact; with errors its weight can
    degrade without bound, which is exactly what the thresholded
    scheduler exists to prevent.
    """
    return apply_choices(build_choices(prediction), realization)
