"""Experiment pipeline: generators, perturbations, ingestion, and sweeps.

Synthetic instances follow the agreeable-deadline model: arrivals land in
slots 1..T with per-slot counts from either a uniform range or a
power-law rule, weights are uniform on (0, 1], and deadlines take a
running maximum of release + uniform slack so later arrivals never get
earlier deadlines. Event logs (one UNIX timestamp per line/field) are
bucketed into days and re-synthesized the same way; weights and deadlines
for real data are reconstructions, since the logs carry timestamps only.

Predictions are built by perturbing a realization: Gaussian noise on
weights or a uniform integer shift on deadlines, keeping job identities.
The runner sweeps the perturbation magnitude, runs every algorithm in the
roster per trial, and emits tidy CSVs (all rows plus per-algorithm means).
"""

from __future__ import annotations

import csv
import hashlib
import math
import random
import time
from dataclasses import MISSING, dataclass, fields as dataclass_fields
from itertools import accumulate, chain, repeat, starmap
from math import cos, log, sin, sqrt, tau
from operator import add
from pathlib import Path
from typing import Optional, get_args, get_origin, get_type_hints

from .core import (
    MAX_GENERATED_JOBS,
    Instance,
    ParseError,
    Schedule,
    check_horizon,
    schedule_weight,
    validate_schedule,
    weight_ratio,
    write_instance_csv,
)
from .lap import LapTrace, lap_run
from .online import OnlineStepPolicy, run_online
from .prediction import blind_follow, prediction_error

WEIGHT_FLOOR = 1e-9
# Event-log timestamps are bucketed into days of this many seconds.
DAY_S = 86_400

# The algorithms that follow a prediction; every other name is an
# OnlineStepPolicy that sees only the realization.
PREDICTION_ALGORITHMS = ("lap", "blind")


class InvalidSchedule(ValueError):
    """Schedule fails validation against its instance."""


class EmptyDataset(ValueError):
    """Event file contains no parseable events."""


class MissingPrediction(ValueError):
    """The algorithm follows a prediction, but none was given."""


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from the given parts (pickle-free, hash-stable)."""
    digest = hashlib.sha256(repr(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _check_ints(**values) -> None:
    """Raise ValueError naming the first value that is not an int (a bool
    is not one): the draws read each as a count or a bound."""
    for name, value in values.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an int, got {value!r}")


def _randints(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """``[rng.randint(lo, hi) for _ in range(count)]``, from the same draws.

    randint draws ``getrandbits(width.bit_length())`` and draws again while
    the result is >= width. Here each round draws as many values as are
    still missing, so the last draw is the last value kept, as in randint's
    loop, and ``rng`` is left in the state randint leaves it.
    """
    width = hi - lo + 1
    bits = (width.bit_length(),)
    kept: list[int] = []
    while len(kept) < count:
        kept += filter(width.__gt__, starmap(rng.getrandbits, repeat(bits, count - len(kept))))
    return list(map(lo.__add__, kept))


def _gausses(rng: random.Random, sigma: float, count: int) -> list[float]:
    """``[rng.gauss(0.0, sigma) for _ in range(count)]`` on a fresh ``rng``,
    operation for operation: gauss's Box-Muller pair, cosine value first,
    each value ``mu + z * sigma`` with mu 0.0 (which turns a -0.0 into 0.0).
    The sine value of an odd count's last pair is not kept."""
    uniform = rng.random
    out: list[float] = []
    for _ in range((count + 1) // 2):
        angle = uniform() * tau
        radius = sqrt(-2.0 * log(1.0 - uniform()))
        out.append(0.0 + cos(angle) * radius * sigma)
        out.append(0.0 + sin(angle) * radius * sigma)
    del out[count:]
    return out


@dataclass(frozen=True)
class GeneratorSpec:
    """Synthetic-instance recipe.

    ``horizon`` is the arrival window T (releases fall in 1..T); the
    instance's own horizon ends up at the largest deadline. ``lo``/``hi``
    bound the per-slot arrival count for the uniform kind; ``a``/``m``
    parameterize the power-law kind, whose per-slot count is
    round(m * (1 - p)) with p drawn from density a * x**(a-1) on [0, 1].
    Weights are uniform on (0, 1]; deadlines are release plus a uniform
    slack in [1, max_slack], forced nondecreasing. ``horizon + max_slack``,
    the largest deadline it can draw, is at most ``core.MAX_HORIZON``, and
    the most jobs it can draw (``horizon * hi``, or ``horizon * m`` for the
    power law) at most ``core.MAX_GENERATED_JOBS``. ``horizon``, ``lo``,
    ``hi`` and ``max_slack`` are ints (a bool is not one).
    """

    kind: str
    horizon: int = 75
    lo: int = 2
    hi: int = 8
    a: float = 150.0
    m: float = 500.0
    max_slack: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("uniform", "powerlaw"):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        _check_ints(horizon=self.horizon, lo=self.lo, hi=self.hi, max_slack=self.max_slack)
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not 0 <= self.lo <= self.hi:
            raise ValueError("need 0 <= lo <= hi")
        if not 0 < self.a < math.inf:
            raise ValueError(f"a must be finite and > 0, got {self.a!r}")
        if not 0 <= self.m < math.inf:
            raise ValueError(f"m must be finite and >= 0, got {self.m!r}")
        if self.max_slack < 1:
            raise ValueError("max_slack must be >= 1")
        check_horizon("horizon + max_slack", self.horizon + self.max_slack)
        # The largest per-slot count the kind can draw.
        count = "hi" if self.kind == "uniform" else "m"
        jobs = self.horizon * getattr(self, count)
        if jobs > MAX_GENERATED_JOBS:
            raise ValueError(
                f"horizon * {count} = {jobs} exceeds "
                f"MAX_GENERATED_JOBS = {MAX_GENERATED_JOBS}"
            )


def _agreeable_instance(
    counts: list[int], rng: random.Random, max_slack: int, id_prefix: str = "j"
) -> Instance:
    """counts[i] arrivals at release slot i+1. Each job draws its slack,
    then its weight; running-max deadlines keep the instance agreeable
    under generation order."""
    n = sum(counts)
    getrandbits, uniform = rng.getrandbits, rng.random
    bits = max_slack.bit_length()
    draws = []
    for _ in range(n):
        # rng.randint(1, max_slack), without its three Python frames.
        slack = getrandbits(bits)
        while slack >= max_slack:
            slack = getrandbits(bits)
        draws.append((1 + slack, uniform()))
    slacks, randoms = zip(*draws) if draws else ((), ())
    releases = tuple(chain.from_iterable(repeat(t, count) for t, count in enumerate(counts, 1)))
    return Instance.from_columns(
        [f"{id_prefix}{i:05d}" for i in range(n)],
        releases,
        accumulate(map(add, releases, slacks), max),
        map((1.0).__sub__, randoms),
    )


def generate(spec: GeneratorSpec) -> Instance:
    """The agreeable instance ``spec`` describes. One seeded stream draws
    the per-slot counts first (a power-law p by inverse CDF), then each
    job's slack and weight."""
    rng = random.Random(spec.seed)
    if spec.kind == "uniform":
        counts = _randints(rng, spec.lo, spec.hi, spec.horizon)
    else:
        counts = [
            max(0, round(spec.m * (1.0 - rng.random() ** (1.0 / spec.a))))
            for _ in range(spec.horizon)
        ]
    return _agreeable_instance(counts, rng, spec.max_slack)


_KEY_ALIASES = {"t": "horizon", "slack": "max_slack"}


def _typed_field(hints: dict, key: str, text: str) -> tuple[str, object]:
    """Field name and value of one ``key = value`` pair for the dataclass
    whose field annotations are ``hints`` (its ``get_type_hints``, which a
    parse resolves once, as each call evaluates every annotation again).

    Keys are case-insensitive; ``t`` and ``slack`` stand for ``horizon``
    and ``max_slack``. The value is typed by the field's annotation: int,
    float, a comma-separated tuple of either or of text, or text. A value
    that does not convert raises ValueError naming the key.
    """
    name = key.strip().lower()
    name = _KEY_ALIASES.get(name, name)
    kind = hints.get(name)
    if kind is None:
        raise ValueError(f"unknown key {key.strip()!r}")
    try:
        if get_origin(kind) is tuple:
            item = get_args(kind)[0]
            return name, tuple(item(v.strip()) for v in text.split(","))
        text = text.strip()
        return name, kind(text) if kind in (int, float) else text
    except ValueError as exc:
        raise ValueError(f"key {key.strip()!r}: {exc}") from None


def parse_generator_spec(text: str, seed: Optional[int] = None) -> GeneratorSpec:
    """Parse ``uniform:T=75,lo=2,hi=8,seed=1`` style spec strings; a key
    given twice, aliases included, raises ValueError naming it, and so does
    a ``seed=`` key when the ``seed`` argument is given too."""
    kind, _, rest = text.partition(":")
    fields: dict = {"kind": kind.strip()}
    hints = get_type_hints(GeneratorSpec)
    for part in filter(None, (p.strip() for p in rest.split(","))):
        key, _, value = part.partition("=")
        name, typed = _typed_field(hints, key, value)
        if name in fields:
            raise ValueError(f"key {key.strip()!r} sets {name!r} again")
        fields[name] = typed
    if seed is not None:
        if "seed" in fields:
            raise ValueError(f"seed given twice: {fields['seed']!r} in the spec and {seed!r}")
        fields["seed"] = seed
    return GeneratorSpec(**fields)


@dataclass(frozen=True)
class PerturbationSpec:
    """How a prediction is derived from a realization.

    ``weight-gauss`` adds N(0, sigma) noise to every weight (clamped to a
    tiny positive floor); ``deadline-shift`` adds a uniform integer in
    [-k, k] to every deadline (clamped to release + 1); ``k`` is an int.
    Identities, releases, and the untouched attribute are preserved.
    """

    kind: str
    sigma: float = 0.0
    k: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("weight-gauss", "deadline-shift"):
            raise ValueError(f"unknown perturbation kind {self.kind!r}")
        if not 0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma!r}")
        _check_ints(k=self.k)
        if self.k < 0:
            raise ValueError(f"k must be >= 0, got {self.k!r}")


def perturb(instance: Instance, spec: PerturbationSpec) -> Instance:
    """The prediction ``spec`` derives from the instance: a new weight or
    deadline column, each entry drawn in id order, with the other three
    columns shared."""
    rng = random.Random(spec.seed)
    ids, releases = instance.ids, instance.releases
    deadlines, weights = instance.deadlines, instance.weights
    if spec.kind == "weight-gauss":
        if spec.sigma == 0:
            return instance
        noise = _gausses(rng, spec.sigma, len(weights))
        noisy = map(max, map(add, weights, noise), repeat(WEIGHT_FLOOR))
        return Instance.from_columns(ids, releases, deadlines, noisy, instance.horizon)
    if spec.k == 0:
        return instance
    shifts = _randints(rng, -spec.k, spec.k, len(deadlines))
    shifted = map(max, map((1).__add__, releases), map(add, deadlines, shifts))
    return Instance.from_columns(ids, releases, shifted, weights)


def _check_ingest_arguments(slots_per_day: int, max_slack: int, ts_col: int) -> None:
    """The checks of the :func:`ingest_snap_events` arguments that an
    event-log :class:`ExperimentConfig` sets too; raise ValueError."""
    _check_ints(slots_per_day=slots_per_day, max_slack=max_slack, ts_col=ts_col)
    if slots_per_day < 1:
        raise ValueError(f"slots_per_day must be >= 1, got {slots_per_day!r}")
    if max_slack < 1:
        raise ValueError(f"max_slack must be >= 1, got {max_slack!r}")
    if ts_col < 0:
        raise ValueError(f"ts_col must be >= 0, got {ts_col!r}")
    check_horizon("slots_per_day + max_slack", slots_per_day + max_slack)


def ingest_snap_events(
    path: Path | str,
    slots_per_day: int = 75,
    band: tuple[int, int] = (300, 500),
    max_slack: int = 10,
    seed: int = 0,
    ts_col: int = 2,
) -> list[Instance]:
    """Bucket a timestamped event log into per-day scheduling instances.

    Lines are comma- or whitespace-separated; field ``ts_col`` holds a
    UNIX timestamp. Days whose event count falls inside ``band`` become
    one instance each: timestamps are quantized linearly into release
    slots 1..slots_per_day and weights/deadlines are synthesized with the
    per-day-seeded agreeable models. Raises ValueError, before the file
    is read, unless slots_per_day, max_slack and ts_col are ints,
    slots_per_day >= 1, the band's lo <= hi, max_slack >= 1, ts_col >= 0
    and slots_per_day + max_slack <= ``core.MAX_HORIZON``.
    """
    lo, hi = band
    _check_ingest_arguments(slots_per_day, max_slack, ts_col)
    if lo > hi:
        raise ValueError(f"band must have lo <= hi, got {band!r}")
    events: list[int] = []
    with open(path, "r", encoding="utf-8-sig") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split(",") if "," in line else line.split()
            if ts_col >= len(fields):
                raise ParseError(
                    f"no field {ts_col} in {len(fields)}-field line", line_no
                )
            try:
                events.append(int(float(fields[ts_col])))
            # OverflowError: an infinite timestamp has no int.
            except (ValueError, OverflowError) as exc:
                raise ParseError(
                    f"field {ts_col} ({fields[ts_col]!r}) is not a timestamp", line_no
                ) from exc
    if not events:
        raise EmptyDataset(f"no events in {path}")
    by_day: dict[int, list[int]] = {}
    for ts in events:
        by_day.setdefault(ts // DAY_S, []).append(ts)
    instances: list[Instance] = []
    for day_index, day_key in enumerate(sorted(by_day)):
        stamps = sorted(by_day[day_key])
        if not lo <= len(stamps) <= hi:
            continue
        start = day_key * DAY_S
        counts = [0] * slots_per_day
        for ts in stamps:
            slot = 1 + (ts - start) * slots_per_day // DAY_S
            counts[min(max(slot, 1), slots_per_day) - 1] += 1
        rng = random.Random(derive_seed(seed, "day", day_key))
        instances.append(
            _agreeable_instance(counts, rng, max_slack, id_prefix=f"d{day_index:03d}e")
        )
    return instances


def competitive_ratio(instance: Instance, schedule: Schedule, best: float) -> float:
    """``core.weight_ratio`` of the instance's optimal weight ``best`` and the
    schedule's weight. Raises InvalidSchedule for a schedule the instance
    does not admit."""
    ok, violations = validate_schedule(instance, schedule)
    if not ok:
        raise InvalidSchedule("; ".join(violations))
    return weight_ratio(best, schedule_weight(schedule))


@dataclass(frozen=True)
class ResultRecord:
    dataset: str
    sweep: str
    sweep_value: float
    trial: int
    algorithm: str
    eta: float
    ratio: float
    runtime_s: float


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: a dataset, a perturbation grid, and an algorithm roster.

    ``dataset`` is ``uniform`` or ``powerlaw``, run for ``trials`` >= 1
    generated trials, or a path to an event log (in which case trials are
    its qualifying days); the fields it reads are checked when the config is
    built, as the generator or the ingest checks them. ``sweep`` is
    ``sigma`` (weight noise) or ``k`` (deadline shift, whole ``values``
    only; the largest deadline a shift can reach, ``horizon + max_slack +
    max(values)`` or ``slots_per_day + max_slack + max(values)``, is at
    most ``core.MAX_HORIZON``). ``algorithms`` (each name once) and
    ``fallback`` take the names :func:`run_algorithm` reads; a bare
    ``edf-alpha`` runs with threshold ``alpha``. The learning-augmented
    scheduler runs with threshold 1 + rho_excess and the named fallback;
    the benchmarks ignore the prediction.
    """

    dataset: str
    sweep: str
    values: tuple[float, ...]
    trials: int = 10
    algorithms: tuple[str, ...] = ("lap", "mg", "greedy", "edf", "edf-alpha")
    rho_excess: float = 0.1
    alpha: float = 0.5
    seed: int = 0
    out_dir: Optional[str] = None
    fallback: str = "greedy"
    horizon: int = 75
    lo: int = 2
    hi: int = 8
    a: float = 150.0
    m: float = 500.0
    max_slack: int = 10
    slots_per_day: int = 75
    ts_col: int = 2

    def __post_init__(self):
        if self.sweep not in ("sigma", "k"):
            raise ValueError(f"sweep must be 'sigma' or 'k', got {self.sweep!r}")
        if not self.values:
            raise ValueError("values must name at least one sweep value")
        for value in self.values:
            if self.sweep == "k" and not float(value).is_integer():
                raise ValueError(f"k sweep values must be whole numbers, got {value!r}")
            if not 0 <= value < math.inf:
                raise ValueError(f"values must be finite and >= 0, got {value!r}")
        if self.dataset in ("uniform", "powerlaw"):
            _check_ints(trials=self.trials)
            if self.trials < 1:
                raise ValueError(f"trials must be >= 1, got {self.trials!r}")
            self.generator_spec(self.seed)  # checks the generator fields
            window = "horizon"
        else:
            _check_ingest_arguments(self.slots_per_day, self.max_slack, self.ts_col)
            window = "slots_per_day"
        if self.sweep == "k":
            # A deadline shift of k moves the largest deadline, at most
            # window + max_slack, by at most k.
            check_horizon(
                f"{window} + max_slack + max(values)",
                getattr(self, window) + self.max_slack + int(max(self.values)),
            )
        if not self.rho_excess >= 0:
            raise ValueError("rho_excess must be >= 0")
        for i, name in enumerate(self.algorithms):
            if name in self.algorithms[:i]:
                raise ValueError(f"algorithms names {name!r} more than once")
            if name not in PREDICTION_ALGORITHMS:
                OnlineStepPolicy.parse(self.spelled(name))
        OnlineStepPolicy.parse(self.spelled(self.fallback))

    def generator_spec(self, seed: int) -> GeneratorSpec:
        """The recipe of a generated trial with this seed."""
        return GeneratorSpec(
            kind=self.dataset, horizon=self.horizon, lo=self.lo, hi=self.hi,
            a=self.a, m=self.m, max_slack=self.max_slack, seed=seed,
        )

    def spelled(self, name: str) -> str:
        """``name`` as :func:`run_algorithm` reads it: a bare ``edf-alpha``
        gets this config's ``alpha``."""
        return f"edf-alpha:{self.alpha!r}" if name == "edf-alpha" else name


def parse_config_file(path: Path | str) -> ExperimentConfig:
    """Read a flat ``key = value`` config file; ``#`` starts a comment.

    Raises ParseError for a key set twice (``T`` and ``horizon`` are one
    key), and ValueError naming every required key (``dataset``, ``sweep``,
    ``values``) that the file leaves out.
    """
    fields: dict = {}
    first_line: dict[str, int] = {}
    hints = get_type_hints(ExperimentConfig)
    with open(path, "r", encoding="utf-8-sig") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.partition("#")[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ParseError("expected 'key = value'", line_no)
            try:
                name, typed = _typed_field(hints, key, value)
            except ValueError as exc:
                raise ParseError(str(exc), line_no) from exc
            if name in first_line:
                raise ParseError(
                    f"key {key.strip()!r} sets {name!r} again "
                    f"(first on line {first_line[name]})",
                    line_no,
                )
            first_line[name] = line_no
            fields[name] = typed
    missing = [
        f.name
        for f in dataclass_fields(ExperimentConfig)
        if f.default is MISSING and f.name not in fields
    ]
    if missing:
        raise ValueError(f"missing required key(s): {', '.join(missing)}")
    return ExperimentConfig(**fields)


def run_algorithm(
    algorithm: str,
    realization: Instance,
    prediction: Optional[Instance],
    rho: float,
    fallback: str,
) -> tuple[Schedule, Optional[LapTrace]]:
    """Run one algorithm by name on the realization.

    ``algorithm`` is ``lap``, ``blind`` or a policy in the form
    :meth:`OnlineStepPolicy.parse` reads (``edf-alpha:<alpha>`` included);
    ``fallback`` is such a policy and, with the threshold ``rho``, is read
    only by ``lap``. Returns the schedule and, for ``lap`` only, its trace.
    Raises MissingPrediction when the algorithm follows a prediction and
    ``prediction`` is None.
    """
    if algorithm in PREDICTION_ALGORITHMS and prediction is None:
        raise MissingPrediction(f"algorithm {algorithm!r} needs a prediction")
    if algorithm == "lap":
        return lap_run(prediction, realization, rho, OnlineStepPolicy.parse(fallback))
    if algorithm == "blind":
        return blind_follow(prediction, realization), None
    return run_online(OnlineStepPolicy.parse(algorithm), realization), None


def run_experiment(config: ExperimentConfig) -> list[ResultRecord]:
    """Run the full sweep and return one record per (value, trial, algorithm).

    The trials are built once: one generated realization per trial, seeded
    per trial, or the qualifying days of an event log. Every sweep value
    reuses them, so curves compare like against like. Each realization's
    prefix-optimum series is solved once: the prediction error reads it,
    ``lap`` reads it, and its last value, the full optimum's weight, is
    what the ratios divide. Perturbations are seeded per
    (sweep value, trial). Each prediction's optimum is solved once, by the
    prediction error (``Instance.optimum``); ``lap`` and ``blind`` read it,
    so their wall time (``runtime_s``) leaves that solve out, as it leaves
    out the realization's series. Only ``lap`` and ``blind`` read the
    prediction, so they run at every sweep value; every other algorithm
    runs once per trial, and its rows at every sweep value repeat that
    run's ratio and wall time.
    """
    if config.dataset in ("uniform", "powerlaw"):
        realizations = [
            generate(config.generator_spec(derive_seed(config.seed, "instance", trial)))
            for trial in range(config.trials)
        ]
    else:
        realizations = ingest_snap_events(
            config.dataset,
            slots_per_day=config.slots_per_day,
            max_slack=config.max_slack,
            seed=derive_seed(config.seed, "ingest"),
            ts_col=config.ts_col,
        )
    optima = [r.prefix_opt[-1] for r in realizations]
    rho, fallback = 1.0 + config.rho_excess, config.spelled(config.fallback)

    def ratio_and_runtime(
        name: str, trial: int, predicted: Optional[Instance]
    ) -> tuple[float, float]:
        started = time.perf_counter()
        schedule, _ = run_algorithm(
            config.spelled(name), realizations[trial], predicted, rho, fallback
        )
        elapsed = time.perf_counter() - started
        return competitive_ratio(realizations[trial], schedule, optima[trial]), elapsed

    prediction_free = {
        (trial, name): ratio_and_runtime(name, trial, None)
        for trial in range(len(realizations))
        for name in config.algorithms
        if name not in PREDICTION_ALGORITHMS
    }
    records: list[ResultRecord] = []
    for sweep_index, value in enumerate(config.values):
        for trial, realization in enumerate(realizations):
            pert_seed = derive_seed(config.seed, "perturb", sweep_index, trial)
            if config.sweep == "sigma":
                pspec = PerturbationSpec("weight-gauss", sigma=value, seed=pert_seed)
            else:
                pspec = PerturbationSpec("deadline-shift", k=int(value), seed=pert_seed)
            predicted = perturb(realization, pspec)
            eta = prediction_error(realization, predicted)
            for name in config.algorithms:
                if name in PREDICTION_ALGORITHMS:
                    ratio, elapsed = ratio_and_runtime(name, trial, predicted)
                else:
                    ratio, elapsed = prediction_free[trial, name]
                records.append(
                    ResultRecord(
                        dataset=config.dataset,
                        sweep=config.sweep,
                        sweep_value=value,
                        trial=trial,
                        algorithm=name,
                        eta=eta,
                        ratio=ratio,
                        runtime_s=elapsed,
                    )
                )
    return records


def series_rows(
    records: list[ResultRecord],
) -> list[tuple[float, str, float, float]]:
    """Per (sweep value, algorithm) mean ratio and standard error."""
    grouped: dict[tuple[float, str], list[float]] = {}
    for r in records:
        grouped.setdefault((r.sweep_value, r.algorithm), []).append(r.ratio)
    rows = []
    for key, ratios in grouped.items():
        n = len(ratios)
        mean = math.fsum(ratios) / n
        if n > 1:
            stderr = math.sqrt(
                math.fsum((x - mean) ** 2 for x in ratios) / (n - 1)
            ) / math.sqrt(n)
        else:
            stderr = 0.0
        rows.append((key[0], key[1], mean, stderr))
    return rows


RESULTS_HEADER = [
    "dataset", "sweep", "sweep_value", "trial", "algorithm", "eta", "ratio",
    "runtime_s",
]


def write_results_csv(
    records: list[ResultRecord], path: Path | str, meta: Optional[list[str]] = None
) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in meta or []:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULTS_HEADER)
        for r in records:
            writer.writerow(
                [
                    r.dataset,
                    r.sweep,
                    repr(r.sweep_value),
                    r.trial,
                    r.algorithm,
                    repr(r.eta),
                    repr(r.ratio),
                    f"{r.runtime_s:.6f}",
                ]
            )


def write_series_csv(records: list[ResultRecord], path: Path | str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sweep_value", "algorithm", "mean_ratio", "stderr"])
        for value, algorithm, mean, stderr in series_rows(records):
            writer.writerow([repr(value), algorithm, repr(mean), repr(stderr)])


def run_experiment_to_dir(config: ExperimentConfig) -> list[ResultRecord]:
    """Run the sweep, then make out_dir and write results.csv + series.csv
    there: a sweep that fails (an event log that cannot be read, say)
    makes no out_dir."""
    if not config.out_dir:
        raise ValueError("config.out_dir is required")
    records = run_experiment(config)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trials = len({r.trial for r in records})
    meta = [
        f"dataset={config.dataset} sweep={config.sweep} trials={trials} "
        f"seed={config.seed} rho={1.0 + config.rho_excess!r} "
        f"fallback={config.fallback} alpha={config.alpha!r}",
        "weights and deadlines are synthetic reconstructions: "
        "weight ~ uniform(0,1], deadline = running-max(release + uniform[1,max_slack])",
    ]
    write_results_csv(records, out / "results.csv", meta)
    write_series_csv(records, out / "series.csv")
    return records


def write_day_instances(instances: list[Instance], out_dir: Path | str) -> list[Path]:
    """Write one instance CSV per ingested day; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, instance in enumerate(instances):
        path = out / f"day_{i:03d}.csv"
        write_instance_csv(instance, path)
        paths.append(path)
    return paths
