"""Core model for unit-length packet scheduling with deadlines.

Jobs, instances, schedules, feasibility, canonical (earliest-deadline)
ordering, and the CSV instance format shared by the whole package.
Everything here is an immutable value; operations are pure.

An instance is a set of columns (ids, releases, deadlines, weights), and
every layer reads them; a ``Job`` record is built only for a job that a
schedule holds, once per instance (:meth:`Instance.record`).

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
from itertools import islice
from operator import add, attrgetter, eq, itemgetter, lt
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, TextIO


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


class Columns(NamedTuple):
    """Four columns of an instance's jobs, one entry per job: its id,
    release, deadline and weight. ``Instance.by_rank`` holds them in rank
    order."""

    ids: tuple[str, ...]
    releases: tuple[int, ...]
    deadlines: tuple[int, ...]
    weights: tuple[float, ...]


def _check_deadlines(ids: tuple[str, ...], deadlines: tuple[int, ...], horizon: int) -> None:
    """Raise ValueError naming the first job whose deadline is past the horizon."""
    if deadlines and max(deadlines) > horizon:
        late = next(i for i, deadline in enumerate(deadlines) if deadline > horizon)
        raise ValueError(f"job {ids[late]!r}: deadline exceeds horizon {horizon}")


@dataclass(frozen=True, init=False)
class Instance:
    """A finite job collection plus the time horizon (slots 0..horizon).

    An instance is five fields: four columns, ``ids``, ``releases``,
    ``deadlines`` and ``weights``, with one entry per job in strictly
    increasing id order (so ids are unique), and ``horizon``, at most
    :data:`MAX_HORIZON`; equality and hashing read only these. Each job's
    entries pass :class:`Job`'s checks. Build an instance from ``Job``
    records with :meth:`of` (which sorts them and fills in the default
    horizon, the largest deadline) or ``Instance(jobs, horizon)`` (jobs
    already in id order), or from columns with :meth:`from_columns`, as
    the CSV reader, the generators and the perturbations do.

    What is derived from the instance is a ``cached_property``, built on
    first read and kept with the instance; no caller changes one:

    - the rank order: ``by_rank``, the columns in :func:`heavier_first`
      order (a job's rank is its index there), ``ranks`` and ``rank_of``,
      id to rank. The optimum, the series and every online run read these.
    - per-slot rank tables: ``released`` and ``expiring``, and
      ``edf_keys``, each rank's int :func:`edf_first` key;
    - the prefix-optimum series and the optimum;
    - ``Job`` records. :meth:`record` builds the record of one rank on its
      first read and keeps it, so a schedule builds a record only for a job
      it holds, and every schedule of the instance shares it. ``jobs``
      (in id order) and ``by_id`` hold every record; only the tests, the
      brute-force oracle and :func:`pending_set` read them. An instance
      built from records keeps those records, put in rank order by reading
      ``by_rank.ids`` in ``by_id``.
    """

    ids: tuple[str, ...]
    releases: tuple[int, ...]
    deadlines: tuple[int, ...]
    weights: tuple[float, ...]
    horizon: int

    def __init__(self, jobs: Iterable[Job], horizon: int):
        jobs = tuple(jobs)
        ids, releases, deadlines, weights = (
            tuple(map(attrgetter(name), jobs)) for name in ("id", "release", "deadline", "weight")
        )
        if not all(map(lt, ids, ids[1:])):
            if any(map(eq, ids, ids[1:])):
                raise ValueError("duplicate job ids in instance")
            raise ValueError("instance jobs not sorted by id (use Instance.of)")
        _check_deadlines(ids, deadlines, horizon)
        self._fill(ids, releases, deadlines, weights, horizon)
        self.__dict__["jobs"] = jobs

    @classmethod
    def of(cls, jobs: Iterable[Job], horizon: Optional[int] = None) -> "Instance":
        """Jobs sorted by id, weights kept bit-for-bit; horizon defaults to
        the largest deadline."""
        ordered = tuple(sorted(jobs, key=attrgetter("id")))
        if horizon is None:
            horizon = max((j.deadline for j in ordered), default=0)
        return cls(ordered, horizon)

    @classmethod
    def from_columns(
        cls,
        ids: Iterable[str],
        releases: Iterable[int],
        deadlines: Iterable[int],
        weights: Iterable[float],
        horizon: Optional[int] = None,
    ) -> "Instance":
        """The instance :meth:`of` builds from the jobs whose fields are the
        columns' entries, with the same checks and messages, building no
        record: the entries are checked as ``Job`` checks them (the first
        job it would reject raises), the columns are put in id order, and
        the horizon defaults to the largest deadline. Releases and
        deadlines are ints (slots), so ``release < deadline`` is ``Job``'s
        ``deadline >= release + 1``."""
        ids, releases, deadlines, weights = columns = tuple(
            map(tuple, (ids, releases, deadlines, weights))
        )
        if not (
            min(releases, default=0) >= 0
            and all(map(lt, releases, deadlines))
            and all(map(math.isfinite, weights))
            and min(weights, default=0.0) >= 0
        ):
            for row in zip(*columns):
                Job(*row)
        if not all(map(lt, ids, ids[1:])):
            # One stable index sort by id, then each column gathered in that
            # order by one itemgetter call: no per-job row is built.
            gather = itemgetter(*sorted(range(len(ids)), key=ids.__getitem__))
            ids, releases, deadlines, weights = map(gather, columns)
            # Sorted now, so a repeated id sits next to itself.
            if any(map(eq, ids, ids[1:])):
                raise ValueError("duplicate job ids in instance")
        if horizon is None:
            horizon = max(deadlines, default=0)
        else:
            _check_deadlines(ids, deadlines, horizon)
        instance = cls.__new__(cls)
        instance._fill(ids, releases, deadlines, weights, horizon)
        return instance

    def _fill(self, ids, releases, deadlines, weights, horizon) -> None:
        """Check the horizon and set the fields; the caller has checked
        the id order and the deadlines against the horizon."""
        if horizon < 0:
            raise ValueError("horizon must be >= 0")
        check_horizon("horizon", horizon)
        self.__dict__.update(
            ids=ids, releases=releases, deadlines=deadlines, weights=weights, horizon=horizon
        )

    @cached_property
    def by_rank(self) -> Columns:
        """The four columns in rank order: ``by_rank.weights[rank]`` is the
        weight of the job of that rank. One stable sort of the job indices
        by weight (``reverse`` keeps it stable), so equal weights stay
        smaller id first; then each column is gathered in that order by one
        ``itemgetter`` call. No per-job row is built: the cyclic garbage
        collector gets four new tuples to track, not one per job."""
        columns = Columns(self.ids, self.releases, self.deadlines, self.weights)
        if len(self.ids) < 2:
            # Already in rank order; itemgetter of one index returns no tuple.
            return columns
        order = sorted(range(len(self.ids)), key=self.weights.__getitem__, reverse=True)
        return Columns(*map(itemgetter(*order), columns))

    @cached_property
    def ranks(self) -> tuple[int, ...]:
        """The ranks, 0..n-1 for an n-job instance: the one int object of
        each rank that every rank table holds, so the tables share n ints."""
        return tuple(range(len(self.ids)))

    @cached_property
    def rank_of(self) -> dict[str, int]:
        """Each job's id to its rank."""
        return dict(zip(self.by_rank.ids, self.ranks))

    @cached_property
    def released(self) -> tuple[tuple[int, ...], ...]:
        """``released[t]``: the ranks of the jobs released at slot t in
        0..horizon, in rank order."""
        return _slot_table(self.ranks, self.by_rank.releases, self.horizon)

    @cached_property
    def expiring(self) -> tuple[tuple[int, ...], ...]:
        """``expiring[t]``: the ranks of the jobs whose deadline is slot t,
        in rank order."""
        return _slot_table(self.ranks, self.by_rank.deadlines, self.horizon)

    @cached_property
    def edf_keys(self) -> tuple[int, ...]:
        """``deadline * n + rank`` of each rank, for an n-job instance. Every
        rank is < n, so deadline ties break by rank, which is
        :func:`heavier_first` order: the keys' order is :func:`edf_first`
        order, and ``key % n`` is the rank."""
        n = len(self.ids)
        return tuple(map(add, map(n.__mul__, self.by_rank.deadlines), range(n)))

    @cached_property
    def _records(self) -> list[Optional[Job]]:
        """The record of each rank, None until :meth:`record` builds it."""
        jobs = self.__dict__.get("jobs")
        if jobs is None:
            return [None] * len(self.ids)
        # by_rank's order, on the records: no second sort to disagree with it.
        return list(map(self.by_id.__getitem__, self.by_rank.ids))

    def record(self, rank: int) -> Job:
        """The ``Job`` record of the job of that rank, built on its first
        read and kept with the instance."""
        records = self._records
        job = records[rank]
        if job is None:
            ids, releases, deadlines, weights = self.by_rank
            job = records[rank] = Job(ids[rank], releases[rank], deadlines[rank], weights[rank])
        return job

    @cached_property
    def jobs(self) -> tuple[Job, ...]:
        """Every job's record, in id order."""
        if "_records" not in self.__dict__:
            return tuple(map(Job, self.ids, self.releases, self.deadlines, self.weights))
        rank_of = self.rank_of
        return tuple(self.record(rank_of[i]) for i in self.ids)

    @cached_property
    def by_id(self) -> dict[str, Job]:
        return dict(zip(self.ids, self.jobs))

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


def _slot_table(
    ranks: tuple[int, ...], slots: tuple[int, ...], horizon: int
) -> tuple[tuple[int, ...], ...]:
    """``table[t]``: the ranks whose entry in ``slots`` is t, for t in
    0..horizon, in rank order."""
    table: list = [[] for _ in range(horizon + 1)]
    for rank, t in zip(ranks, slots):
        table[t].append(rank)
    # Each list is let go as its tuple is made, so the lists and the tuples
    # are never all held at once.
    for t, entries in enumerate(table):
        table[t] = tuple(entries)
    return tuple(table)


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


_FOLD = 16


def folded(running: list[float]) -> list[float]:
    """The running list, folded in place by :func:`exact_terms` first if it
    is longer than ``_FOLD``. Called right before each ``math.fsum`` of it,
    so each read sums a short list with the same exact sum."""
    if len(running) > _FOLD:
        running[:] = exact_terms(running)
    return running


def pending_set(instance: Instance, processed: set[str], t: int) -> set[Job]:
    """Released, unprocessed, still-feasible jobs at slot t (the buffer).

    A scan of every job: the reference that ``online.Buffer.pending``, the
    set of pending ranks the run loops keep slot by slot, is tested
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
    rank_of = instance.rank_of
    unknown = [i for i in selected if i not in rank_of]
    if unknown:
        raise KeyError(f"selected ids not in instance: {sorted(unknown)}")
    return _place(instance, [rank_of[i] for i in selected])


def _place(instance: Instance, ranks: list[int]) -> Schedule:
    """Schedule exactly the jobs of the given ranks (each once) in
    canonical order; see :func:`canonicalize`.

    The heap holds the ranks' ``Instance.edf_keys``, computed here for
    these ranks only: a prediction's optimum places a few of its jobs and
    needs no key column. The schedule holds the ranks' records.
    """
    ids, releases, deadlines, _ = instance.by_rank
    n = len(ids)
    record = instance.record
    by_release = sorted(ranks, key=releases.__getitem__)
    starts = list(map(releases.__getitem__, by_release))
    keys = [deadlines[rank] * n + rank for rank in by_release]
    heap: list[int] = []
    slots: list[Optional[Job]] = []
    i, k = 0, len(keys)
    for t in range(instance.horizon + 1):
        while i < k and starts[i] <= t:
            heappush(heap, keys[i])
            i += 1
        if heap:
            rank = heappop(heap) % n
            if deadlines[rank] <= t:
                raise InfeasibleSelection(f"job {ids[rank]!r} expires unscheduled at slot {t}")
            slots.append(record(rank))
        else:
            slots.append(None)
    return Schedule(tuple(slots))


def validate_schedule(
    instance: Instance, schedule: Schedule
) -> tuple[bool, list[str]]:
    """Check all schedule invariants against the instance.

    Returns (ok, violations); ok is True iff the violation list is empty.
    A job is read against the instance's columns, so no record is built.
    """
    rank_of = instance.rank_of
    _, releases, deadlines, weights = instance.by_rank
    records = instance._records
    violations: list[str] = []
    seen: set[int] = set()
    for t, job in enumerate(schedule.slots):
        if job is None:
            continue
        rank = rank_of.get(job.id)
        if rank is None:
            violations.append(f"slot {t}: job {job.id!r} not in instance")
            continue
        # A record the instance holds needs no field compare; any other
        # equals it only as a Job with the same fields.
        if job is not records[rank] and not (
            type(job) is Job
            and (job.release, job.deadline, job.weight)
            == (releases[rank], deadlines[rank], weights[rank])
        ):
            violations.append(f"slot {t}: job {job.id!r} differs from instance record")
        if rank in seen:
            violations.append(f"slot {t}: job {job.id!r} scheduled more than once")
        seen.add(rank)
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
        lone_cr = "\r" in "".join(instance.ids)
        quoting = csv.QUOTE_ALL if lone_cr else csv.QUOTE_MINIMAL
        writer = csv.writer(fh, lineterminator="\n", quoting=quoting)
        writer.writerow(CSV_HEADER)
        writer.writerows(
            zip(instance.ids, instance.releases, instance.deadlines, map(repr, instance.weights))
        )


# Rows read and converted at a time: the text of one chunk is held at
# once, never a whole file's.
_CHUNK = 256


def read_instance_csv(path: Path | str) -> Instance:
    """Parse an instance file (UTF-8 CSV with header id,release,deadline,weight;
    a leading byte-order mark is skipped).

    Comment (``#``) and blank lines may precede the header; a comment
    ``# horizon=T`` there fixes the horizon, otherwise the largest deadline
    is used. Below the header every record but a blank line is a job row,
    so any id ``write_instance_csv`` writes reads back unchanged. Fields
    are read by ``int`` and ``float``, so ``" 5"`` and ``"1_0"`` read as 5
    and 10.

    The weights must have a finite sum: a file whose weights add up past
    the float maximum raises ParseError at the row where the sum does.
    Every sum the package takes is over a subset of them, so none of those
    overflows either.

    The rows are converted and checked a column at a time, and build no
    ``Job`` record. Only when a check fails are the rows walked one at a
    time (:func:`_raise_first_fault`), so the ParseError names the first
    faulty row by line, whichever check found a fault.
    """
    horizon: Optional[int] = None
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
        try:
            columns: list[list] = [[], [], [], []]
            reader = csv.reader(fh)
            while rows := list(islice(reader, _CHUNK)):
                if any(map((4).__ne__, map(len, rows))):
                    # Drop blank lines; a row left with another field count
                    # is a fault.
                    rows = [row for row in rows if len(row) > 1 or "".join(row).strip()]
                    if any(map((4).__ne__, map(len, rows))):
                        raise ValueError("field count")
                ids, releases, deadlines, weights = zip(*rows) if rows else ((),) * 4
                columns[0] += ids
                columns[1] += map(int, releases)
                columns[2] += map(int, deadlines)
                columns[3] += map(float, weights)
            instance = Instance.from_columns(*columns, horizon)
            math.fsum(instance.weights)  # OverflowError past the float maximum
        except (ValueError, OverflowError, csv.Error):
            fh.seek(0)
            _raise_first_fault(fh, header_line)
            # No row is at fault: the instance's own check failed.
            raise
    return instance


def _raise_first_fault(fh: TextIO, header_line: int) -> None:
    """Walk the job rows below the file's header line one at a time and
    raise the ParseError of the first fault, by line: a field count, a
    conversion, a check of ``Job``, a duplicate id, or else the weight sum
    past the float maximum. Return if there is none."""
    for _ in range(header_line):
        next(fh)
    first_line: dict[str, int] = {}
    weights: list[float] = []
    reader = csv.reader(fh)
    for row in reader:
        line_no = header_line + reader.line_num
        if len(row) < 2 and not "".join(row).strip():  # blank line
            continue
        if len(row) != 4:
            raise ParseError(f"expected 4 fields, got {len(row)}", line_no)
        try:
            weights.append(Job(row[0], int(row[1]), int(row[2]), float(row[3])).weight)
        except ValueError as exc:
            raise ParseError(str(exc), line_no) from exc
        if row[0] in first_line:
            raise ParseError(
                f"duplicate job id {row[0]!r} (first on line {first_line[row[0]]})",
                line_no,
            )
        first_line[row[0]] = line_no
    if not _finite_sum(weights):
        # Nonnegative weights: the prefix sums only grow.
        k = bisect_left(
            range(len(weights)), True, key=lambda i: not _finite_sum(weights[: i + 1])
        )
        raise ParseError("weights sum past the float maximum", list(first_line.values())[k])


def _finite_sum(values: list[float]) -> bool:
    """True iff ``math.fsum`` of the finite values does not overflow."""
    try:
        math.fsum(values)
    except OverflowError:
        return False
    return True
