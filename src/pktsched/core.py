"""Core model for unit-length packet scheduling with deadlines.

Jobs, instances, schedules, feasibility, canonical (earliest-deadline)
ordering, and the CSV instance format shared by the whole package.
Everything here is an immutable value; operations are pure.

Weights are kept as given and may tie. Every order on jobs in the package
is :func:`heavier_first` or :func:`edf_first`, where on a weight tie the
smaller id counts as heavier, so every result is deterministic.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left
from dataclasses import FrozenInstanceError, dataclass, fields
from functools import cached_property
from heapq import heappop, heappush
from operator import attrgetter, eq, lt
from pathlib import Path
from typing import Iterable, Optional


# The largest horizon an Instance may have. Every layer keeps per-slot
# tables and the CLI prints one row per slot, so memory and time grow with
# the horizon; at 10**6 a LAP run takes about 11 s and 273 MB.
MAX_HORIZON = 10**6

# The largest job count a generator may draw in the worst case (every slot
# of the arrival window at its largest count). At about 160 bytes and 4 us
# per generated job, 10**7 jobs take about 1.6 GB and 40 s to draw.
MAX_GENERATED_JOBS = 10**7


def check_horizon(name: str, horizon: int) -> None:
    """Raise ValueError naming the bound if ``horizon``, which ``name``
    spells out, is past :data:`MAX_HORIZON`."""
    if horizon > MAX_HORIZON:
        raise ValueError(f"{name} = {horizon} exceeds MAX_HORIZON = {MAX_HORIZON}")


class InfeasibleSelection(ValueError):
    """A selected job set cannot be packed into its feasible slots."""


class ParseError(ValueError):
    """Malformed input line; carries the 1-based line number."""

    def __init__(self, message: str, line_no: int):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class _Record:
    """Base of the package's immutable records: ``Job`` and ``lap.LapSlot``.

    A record is a ``@dataclass(slots=True, unsafe_hash=True)`` with its own
    ``__init__``, which validates its arguments and stores each one through
    its slot descriptor's ``__set__`` (:func:`_slot_setters`), where
    ``frozen=True`` pays an ``object.__setattr__`` call per field. Those
    setter calls still cost: a record takes over twice as long to build as
    a plain slots class with the same checks (Python 3.11.7, best of
    18 x 50k: ``Job`` 466 ns against 205 ns, ``lap.LapSlot`` 445 ns against
    166 ns). Assigning or deleting a field raises ``FrozenInstanceError``,
    as on a frozen dataclass.
    ``fields``, ``replace`` (which re-validates), ``repr``, ``==`` and
    ``hash`` are the dataclass's own, so a record never equals a plain
    tuple; ``unsafe_hash=True`` keeps the field hash that a dataclass which
    is not frozen would otherwise drop. ``__reduce__`` rebuilds the record
    through ``__init__``, so pickle and ``copy`` never reach the raising
    ``__setattr__``.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (type(self), tuple(getattr(self, f.name) for f in fields(self)))


def _slot_setters(cls: type) -> tuple:
    """The ``__set__`` of each field's slot descriptor, in field order."""
    return tuple(cls.__dict__[f.name].__set__ for f in fields(cls))


@dataclass(slots=True, unsafe_hash=True)
class Job(_Record):
    """One unit-length packet: an immutable record (see :class:`_Record`).

    Feasible slots are release <= t <= deadline - 1, so every job has at
    least one (deadline >= release + 1). Weight is finite and nonnegative.
    """

    id: str
    release: int
    deadline: int
    weight: float

    def __init__(self, id: str, release: int, deadline: int, weight: float):
        if release < 0:
            raise ValueError(f"job {id!r}: release must be >= 0")
        if deadline < release + 1:
            raise ValueError(f"job {id!r}: deadline must be >= release + 1")
        if not (math.isfinite(weight) and weight >= 0):
            raise ValueError(f"job {id!r}: weight must be finite and >= 0")
        _set_id(self, id)
        _set_release(self, release)
        _set_deadline(self, deadline)
        _set_weight(self, weight)


_set_id, _set_release, _set_deadline, _set_weight = _slot_setters(Job)


def feasible_at(job: Job, t: int) -> bool:
    """True iff the job may run in slot t (released, not yet expired)."""
    return job.release <= t <= job.deadline - 1


def heavier_first(job: Job) -> tuple[float, str]:
    """Sort key: larger weight first; on a tie the smaller id is heavier."""
    return (-job.weight, job.id)


def edf_first(job: Job) -> tuple[int, float, str]:
    """Sort key: earliest deadline first, deadline ties by heavier_first."""
    return (job.deadline, -job.weight, job.id)


@dataclass(frozen=True)
class Instance:
    """A finite job collection plus the time horizon (slots 0..horizon).

    Jobs are stored in strictly increasing id order, so ids are unique and
    a stable sort of ``jobs`` keeps id order on ties. Weights may tie (see
    the module docstring for how jobs are ordered). Build instances through
    :meth:`of`, which sorts the jobs and fills in the default horizon (the
    largest deadline). The horizon is at most :data:`MAX_HORIZON`.

    What is derived from the instance is a ``cached_property``, built on
    first read and kept with the instance: the id map, the ``heavier_first``
    order (``ranked``) that the optimum, the series and every online run
    share, the per-slot tables that every online run reads (``arrivals``,
    ``expiring`` and ``released``, the series' only one), the
    prefix-optimum series and the optimum. No caller changes one.
    """

    jobs: tuple[Job, ...]
    horizon: int

    def __post_init__(self):
        ids = list(map(attrgetter("id"), self.jobs))
        if not all(map(lt, ids, ids[1:])):
            if any(map(eq, ids, ids[1:])):
                raise ValueError("duplicate job ids in instance")
            raise ValueError("instance jobs not sorted by id (use Instance.of)")
        for j in self.jobs:
            if j.deadline > self.horizon:
                raise ValueError(f"job {j.id!r}: deadline exceeds horizon {self.horizon}")
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        check_horizon("horizon", self.horizon)

    @classmethod
    def of(cls, jobs: Iterable[Job], horizon: Optional[int] = None) -> "Instance":
        """Jobs sorted by id, weights kept bit-for-bit; horizon defaults to
        the largest deadline."""
        ordered = tuple(sorted(jobs, key=attrgetter("id")))
        max_deadline = max((j.deadline for j in ordered), default=0)
        if horizon is None:
            horizon = max_deadline
        return cls(ordered, horizon)

    @cached_property
    def by_id(self) -> dict[str, Job]:
        return {j.id: j for j in self.jobs}

    @cached_property
    def ranked(self) -> tuple[Job, ...]:
        """The jobs in :func:`heavier_first` order; a job's rank is its
        index here.

        ``jobs`` is in increasing id order and the sort is stable
        (``reverse`` keeps it so), so equal weights stay smaller id first.
        """
        return tuple(sorted(self.jobs, key=attrgetter("weight"), reverse=True))

    @cached_property
    def arrivals(self) -> tuple[dict[str, Job], ...]:
        """``arrivals[t]``: the jobs released at slot t in 0..horizon, as a
        dict from id to job, in id order."""
        arrivals: list[dict[str, Job]] = [{} for _ in range(self.horizon + 1)]
        for job in self.jobs:
            arrivals[job.release][job.id] = job
        return tuple(arrivals)

    @cached_property
    def expiring(self) -> tuple[tuple[str, ...], ...]:
        """``expiring[t]``: the ids of the jobs whose deadline is slot t."""
        expiring: list = [[] for _ in range(self.horizon + 1)]
        for job in self.jobs:
            expiring[job.deadline].append(job.id)
        return _tuples(expiring)

    @cached_property
    def released(self) -> tuple[tuple[int, ...], ...]:
        """``released[t]``: the ranks (indexes into ``ranked``) of the jobs
        released at slot t, in rank order."""
        released: list = [[] for _ in range(self.horizon + 1)]
        for rank, job in enumerate(self.ranked):
            released[job.release].append(rank)
        return _tuples(released)

    @cached_property
    def prefix_opt(self) -> tuple[float, ...]:
        """:func:`offline.prefix_opt_series` of this instance, solved on
        first read and kept with it."""
        # Imported here because offline imports this module; the name is
        # read at each call, so a rebound prefix_opt_series is the one run.
        from .offline import prefix_opt_series

        return prefix_opt_series(self)

    @cached_property
    def optimum(self) -> "Schedule":
        """The canonical maximum-weight schedule of this instance, solved on
        first read and kept with it, so each ``Instance`` is solved at most
        once however many callers read its optimum. The solve selects ranks
        and :func:`_place` places them: no id is looked up."""
        # Imported here, as in prefix_opt: a rebound _optimal_ranks is run.
        from .offline import _optimal_ranks

        return _place(self, _optimal_ranks(self))


def _tuples(lists: list[list]) -> tuple[tuple, ...]:
    """The lists as a tuple of tuples. Each list is let go as its tuple is
    made, so the lists and the tuples are never all held at once."""
    for t, items in enumerate(lists):
        lists[t] = tuple(items)
    return tuple(lists)


@dataclass(frozen=True)
class Schedule:
    """Per-slot assignment over [0, horizon]: a Job or a dummy (None).

    Dummies carry weight 0 and are not Job records, so job ids stay
    unique. A real job appears in at most one slot.
    """

    slots: tuple[Optional[Job], ...]

    def job_ids(self) -> set[str]:
        return {j.id for j in self.slots if j is not None}


def schedule_weight(schedule: Schedule) -> float:
    """Total weight of the schedule's jobs."""
    return math.fsum(j.weight for j in schedule.slots if j is not None)


def weight_ratio(numerator: float, denominator: float) -> float:
    """numerator / denominator, with 0 / 0 = 1 and x / 0 = infinity."""
    if denominator == 0.0:
        return 1.0 if numerator == 0.0 else math.inf
    return numerator / denominator


def exact_terms(values: Iterable[float]) -> list[float]:
    """A few floats whose exact sum is the exact sum of the finite values.

    e1 = fsum(values), e2 = fsum(values + [-e1]), and so on up to the
    first remainder of 0.0. Every finite double is a multiple of 2**-1074,
    so a nonzero remainder never rounds to 0, and each step leaves less
    than half an ulp of the last term: the list ends after a few terms
    (one or two for sums of weights in (0, 1]). ``math.fsum`` rounds the
    exact sum correctly, so fsum(exact_terms(xs) + ys) == fsum(xs + ys).
    Raises OverflowError where ``math.fsum(values)`` does.
    """
    rest = list(values)
    terms: list[float] = []
    while (term := math.fsum(rest)) != 0.0:
        terms.append(term)
        rest.append(-term)
    return terms


_FOLD = 64


def folded(running: list[float]) -> list[float]:
    """The running list, folded in place by :func:`exact_terms` first if it
    is longer than ``_FOLD``. Called right before each ``math.fsum`` of it,
    so each read sums a short list with the same exact sum."""
    if len(running) > _FOLD:
        running[:] = exact_terms(running)
    return running


def pending_set(instance: Instance, processed: set[str], t: int) -> set[Job]:
    """Released, unprocessed, still-feasible jobs at slot t (the buffer).

    A scan of every job: the reference that ``online.Buffer.jobs``, the
    id-keyed pending map the run loops keep slot by slot, is tested
    against. No run loop calls it.
    """
    return {j for j in instance.jobs if j.id not in processed and feasible_at(j, t)}


def canonicalize(instance: Instance, selected: set[str]) -> Schedule:
    """Schedule exactly the selected jobs in canonical order.

    At each slot the released, not-yet-placed selected job first in
    :func:`edf_first` order runs. Raises KeyError naming the ids the
    instance lacks, and InfeasibleSelection when some selected job cannot
    be placed before its deadline. A front end on :func:`_place`.
    """
    rank_of = {job.id: rank for rank, job in enumerate(instance.ranked)}
    unknown = [i for i in selected if i not in rank_of]
    if unknown:
        raise KeyError(f"selected ids not in instance: {sorted(unknown)}")
    return _place(instance, [rank_of[i] for i in selected])


def _place(instance: Instance, ranks: list[int]) -> Schedule:
    """Schedule exactly the jobs of the given ranks (indexes into
    ``instance.ranked``, each once) in canonical order; see
    :func:`canonicalize`.

    The heap holds ``deadline * n + rank`` for an n-job instance, the key
    ``online.Buffer`` and the prefix series use: every rank is < n, so
    deadline ties break by rank, which is ``heavier_first`` order, and the
    heap's order is :func:`edf_first` order.
    """
    ranked = instance.ranked
    n = len(ranked)
    by_release = sorted(ranks, key=lambda rank: ranked[rank].release)
    releases = [ranked[rank].release for rank in by_release]
    keys = [ranked[rank].deadline * n + rank for rank in by_release]
    heap: list[int] = []
    slots: list[Optional[Job]] = []
    i, k = 0, len(keys)
    for t in range(instance.horizon + 1):
        while i < k and releases[i] <= t:
            heappush(heap, keys[i])
            i += 1
        if heap:
            job = ranked[heappop(heap) % n]
            if job.deadline <= t:
                raise InfeasibleSelection(f"job {job.id!r} expires unscheduled at slot {t}")
            slots.append(job)
        else:
            slots.append(None)
    return Schedule(tuple(slots))


def validate_schedule(
    instance: Instance, schedule: Schedule
) -> tuple[bool, list[str]]:
    """Check all schedule invariants against the instance.

    Returns (ok, violations); ok is True iff the violation list is empty.
    """
    violations: list[str] = []
    seen: set[str] = set()
    for t, job in enumerate(schedule.slots):
        if job is None:
            continue
        actual = instance.by_id.get(job.id)
        if actual is None:
            violations.append(f"slot {t}: job {job.id!r} not in instance")
            continue
        # A record the instance holds needs no field compare.
        if actual is not job and actual != job:
            violations.append(f"slot {t}: job {job.id!r} differs from instance record")
        if job.id in seen:
            violations.append(f"slot {t}: job {job.id!r} scheduled more than once")
        seen.add(job.id)
        if t < job.release:
            violations.append(f"slot {t}: job {job.id!r} runs before release {job.release}")
        if t > job.deadline - 1:
            violations.append(f"slot {t}: job {job.id!r} runs at/after deadline {job.deadline}")
    return (not violations, violations)


CSV_HEADER = ["id", "release", "deadline", "weight"]


def write_instance_csv(instance: Instance, path: Path | str) -> None:
    """Write the instance file: optional horizon comment, then job rows."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# horizon={instance.horizon}\n")
        # With a "\n" line terminator csv quotes no field for a lone "\r",
        # which the reader takes as a line end: quote every field then.
        lone_cr = "\r" in "".join(map(attrgetter("id"), instance.jobs))
        quoting = csv.QUOTE_ALL if lone_cr else csv.QUOTE_MINIMAL
        writer = csv.writer(fh, lineterminator="\n", quoting=quoting)
        writer.writerow(CSV_HEADER)
        for j in instance.jobs:
            writer.writerow([j.id, j.release, j.deadline, repr(j.weight)])


def read_instance_csv(path: Path | str) -> Instance:
    """Parse an instance file (UTF-8 CSV with header id,release,deadline,weight;
    a leading byte-order mark is skipped).

    Comment (``#``) and blank lines may precede the header; a comment
    ``# horizon=T`` there fixes the horizon, otherwise the largest deadline
    is used. Below the header every record but a blank line is a job row,
    so any id ``write_instance_csv`` writes reads back unchanged.

    The weights must have a finite sum: a file whose weights add up past
    the float maximum raises ParseError at the row where the sum does.
    Every sum the package takes is over a subset of them, so none of those
    overflows either.
    """
    horizon: Optional[int] = None
    jobs: list[Job] = []
    first_line: dict[str, int] = {}
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        for header_line, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("horizon="):
                    try:
                        horizon = int(body.split("=", 1)[1])
                    except ValueError:
                        raise ParseError(f"bad horizon comment {line!r}", header_line)
            elif line:
                if [c.strip() for c in next(csv.reader([line]))] != CSV_HEADER:
                    raise ParseError(f"expected header {','.join(CSV_HEADER)}", header_line)
                break
        else:
            raise ParseError("missing header row", 1)
        reader = csv.reader(fh)
        for row in reader:
            line_no = header_line + reader.line_num
            if len(row) < 2 and not "".join(row).strip():  # blank line
                continue
            if len(row) != 4:
                raise ParseError(f"expected 4 fields, got {len(row)}", line_no)
            try:
                jobs.append(Job(row[0], int(row[1]), int(row[2]), float(row[3])))
            except ValueError as exc:
                raise ParseError(str(exc), line_no) from exc
            if row[0] in first_line:
                raise ParseError(
                    f"duplicate job id {row[0]!r} (first on line {first_line[row[0]]})",
                    line_no,
                )
            first_line[row[0]] = line_no
    weights = [j.weight for j in jobs]
    if not _finite_sum(weights):
        # Nonnegative weights: the prefix sums only grow.
        k = bisect_left(
            range(len(weights)), True, key=lambda i: not _finite_sum(weights[: i + 1])
        )
        raise ParseError("weights sum past the float maximum", first_line[jobs[k].id])
    return Instance.of(jobs, horizon)


def _finite_sum(values: list[float]) -> bool:
    """True iff ``math.fsum`` of the finite values does not overflow."""
    try:
        math.fsum(values)
    except OverflowError:
        return False
    return True
