"""LAP: prediction-following with a per-slot local test and free fallback.

Each slot, if the predicted choice is a real, unprocessed, feasible job,
the scheduler compares the prefix-optimum weight against its own
processed weight plus that candidate. Within the threshold it follows the
prediction; beyond it (or when the choice is a dummy, already processed,
or infeasible) the slot goes to the fallback online policy. Because the
fallback is memoryless, control can move back and forth any number of
times.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Optional, Sequence

from .core import Instance, Schedule, _Record, _slot_setters, folded, weight_ratio
from .online import Buffer, OnlineStepPolicy, drive
from .prediction import build_choices

PREDICTION = "prediction"
ONLINE = "online"


class InvalidThreshold(ValueError):
    """The local-test threshold must be at least 1."""


@dataclass(slots=True, unsafe_hash=True)
class LapSlot(_Record):
    """One slot of a run: who chose, what ran, and the test outcome.

    An immutable record, built like ``core.Job`` (see ``core._Record``).
    ``local_ratio`` is None when the test was not evaluated (the predicted
    choice was a dummy, already processed, or infeasible at this slot).
    """

    t: int
    source: str
    job_id: Optional[str]
    weight: float
    local_ratio: Optional[float]

    def __init__(
        self,
        t: int,
        source: str,
        job_id: Optional[str],
        weight: float,
        local_ratio: Optional[float],
    ):
        _set_t(self, t)
        _set_source(self, source)
        _set_job_id(self, job_id)
        _set_weight(self, weight)
        _set_local_ratio(self, local_ratio)


_set_t, _set_source, _set_job_id, _set_weight, _set_local_ratio = _slot_setters(LapSlot)


@dataclass(frozen=True)
class LapTrace:
    """A run's slots 0..horizon as four columns, one entry per slot: who
    chose (``sources``), what ran (``job_ids``, None for an empty slot),
    its weight (``weights``, 0.0 for an empty slot) and the local ratio
    (``local_ratios``, None where the test was not evaluated).

    ``rows`` holds the same slots as :class:`LapSlot` records. They are
    built on its first read, so a run whose trace nobody reads builds none.
    """

    rho: float
    sources: tuple[str, ...]
    job_ids: tuple[Optional[str], ...]
    weights: tuple[float, ...]
    local_ratios: tuple[Optional[float], ...]

    @cached_property
    def rows(self) -> tuple[LapSlot, ...]:
        return tuple(
            map(
                LapSlot,
                range(len(self.sources)),
                self.sources,
                self.job_ids,
                self.weights,
                self.local_ratios,
            )
        )

    @property
    def t_lambda(self) -> int:
        """One past the last slot whose local test passed (0 if none did)."""
        passed = [
            t
            for t, ratio in enumerate(self.local_ratios)
            if ratio is not None and ratio <= self.rho
        ]
        return passed[-1] + 1 if passed else 0


def check_threshold(rho: float) -> None:
    """Raise InvalidThreshold unless rho >= 1 (so NaN is rejected too)."""
    if not rho >= 1:
        raise InvalidThreshold(f"threshold must be >= 1, got {rho}")


def local_test(
    prefix_opt: Sequence[float],
    processed_weights: Sequence[float],
    candidate_weight: float,
    t: int,
    rho: float,
) -> tuple[bool, float]:
    """Compare the prefix optimum at t against processed + candidate weight.

    The denominator is one correctly-rounded sum over the individual
    processed weights and the candidate, so a denominator set equal to the
    numerator's yields a ratio of exactly 1. Ratio conventions
    (``core.weight_ratio``): 1 when both sides are zero, infinity when only
    the denominator is. Returns (ratio <= rho, ratio).
    """
    check_threshold(rho)
    denominator = math.fsum((*processed_weights, candidate_weight))
    ratio = weight_ratio(prefix_opt[t], denominator)
    return ratio <= rho, ratio


def lap_run(
    prediction: Instance,
    realization: Instance,
    rho: float,
    policy: OnlineStepPolicy,
) -> tuple[Schedule, LapTrace]:
    """Run the learning-augmented scheduler over the realization's slots.

    The prediction's optimal choices are computed upfront from
    ``opt_schedule(prediction)``, which solves each ``Instance`` once, so a
    prediction whose error was measured is not solved again. The
    realization's prefix-optimum series is ``realization.prefix_opt``,
    solved on the first run and shared by every later run on the same
    ``Instance``. The schedule and trace span the realization's horizon:
    no realized job is feasible after it, whatever the prediction's.
    Each local test reads the processed weights through ``core.folded``,
    which leaves their exact sum, hence every ratio, unchanged.
    """
    check_threshold(rho)
    choices = build_choices(prediction)
    series = realization.prefix_opt
    step = policy.step
    rank_of, weight_of = realization.rank_of, realization.by_rank.weights
    processed_weights: list[float] = []
    sources: list[str] = []
    job_ids: list[Optional[str]] = []
    weights: list[float] = []
    local_ratios: list[Optional[float]] = []

    def pick(t: int, buffer: Buffer) -> Optional[str]:
        cid = choices[t] if t < len(choices) else None
        rank = rank_of.get(cid)
        ratio: Optional[float] = None
        source = ONLINE
        # Pending means released, unprocessed and feasible at t.
        if rank in buffer.pending:
            passed, ratio = local_test(
                series, folded(processed_weights), weight_of[rank], t, rho
            )
            if passed:
                source = PREDICTION
        job_id = cid if source == PREDICTION else step(buffer)
        weight = 0.0
        if job_id is not None:
            # KeyError, as drive raises, if the fallback names no job.
            weight = weight_of[rank_of[job_id]]
            processed_weights.append(weight)
        sources.append(source)
        job_ids.append(job_id)
        weights.append(weight)
        local_ratios.append(ratio)
        return job_id

    schedule = drive(realization, pick)
    trace = LapTrace(
        rho, tuple(sources), tuple(job_ids), tuple(weights), tuple(local_ratios)
    )
    return schedule, trace


def write_trace_csv(trace: LapTrace, path: Path | str) -> None:
    """Write the trace's slots as ``t,source,job_id,weight,local_ratio``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "source", "job_id", "weight", "local_ratio"])
        columns = zip(trace.sources, trace.job_ids, trace.weights, trace.local_ratios)
        for t, (source, job_id, weight, ratio) in enumerate(columns):
            writer.writerow(
                [
                    t,
                    source,
                    job_id or "",
                    repr(weight),
                    "" if ratio is None else repr(ratio),
                ]
            )
