import hashlib
import math
import random
from collections import Counter
from functools import cached_property
from pathlib import Path

import pytest

from pktsched import (
    EmptyDataset,
    ExperimentConfig,
    GREEDY,
    GeneratorSpec,
    Instance,
    Job,
    InvalidSchedule,
    MissingPrediction,
    OnlineStepPolicy,
    ParseError,
    PerturbationSpec,
    Schedule,
    blind_follow,
    competitive_ratio,
    generate,
    ingest_snap_events,
    lap_run,
    opt_schedule,
    perturb,
    run_algorithm,
    run_experiment,
    run_online,
    schedule_weight,
)
from pktsched import experiments, offline
from pktsched.core import MAX_GENERATED_JOBS, MAX_HORIZON, write_instance_csv
from pktsched.experiments import (
    ResultRecord,
    derive_seed,
    parse_config_file,
    parse_generator_spec,
    run_experiment_to_dir,
    series_rows,
)
from pktsched.lap import LapSlot


def _is_agreeable(instance):
    jobs = sorted(instance.jobs, key=lambda j: (j.release, j.deadline))
    for earlier, later in zip(jobs, jobs[1:]):
        if earlier.release < later.release and earlier.deadline > later.deadline:
            return False
    return True


def test_gen_uniform_bounds_and_agreeability():
    inst = generate(GeneratorSpec("uniform", seed=5))
    assert 150 <= len(inst.jobs) <= 600
    assert _is_agreeable(inst)
    assert all(1 <= j.release <= 75 for j in inst.jobs)
    assert all(0.0 < j.weight <= 1.0 for j in inst.jobs)
    assert inst.horizon == max(j.deadline for j in inst.jobs)


def test_gen_uniform_empty_and_determinism():
    empty = generate(GeneratorSpec("uniform", lo=0, hi=0, seed=1))
    assert not empty.jobs
    a = generate(GeneratorSpec("uniform", horizon=10, seed=42))
    b = generate(GeneratorSpec("uniform", horizon=10, seed=42))
    assert a == b
    c = generate(GeneratorSpec("uniform", horizon=10, seed=43))
    assert a != c


def test_gen_powerlaw_mean_counts():
    # E[count] ~= m / (a + 1); check within 10% over 10^4 slots.
    spec = GeneratorSpec("powerlaw", horizon=10_000, a=150.0, m=500.0, seed=9)
    inst = generate(spec)
    mean = len(inst.jobs) / spec.horizon
    expected = spec.m / (spec.a + 1.0)
    assert abs(mean - expected) <= 0.1 * expected
    assert _is_agreeable(inst)


def test_gen_powerlaw_degenerate_params():
    assert not generate(GeneratorSpec("powerlaw", horizon=50, m=0.0, seed=1)).jobs
    sparse = generate(
        GeneratorSpec("powerlaw", horizon=10_000, a=1e6, m=500.0, seed=2)
    )
    assert len(sparse.jobs) / 10_000 < 0.01


def test_generator_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec("nope")
    with pytest.raises(ValueError):
        GeneratorSpec("uniform", lo=5, hi=2)
    with pytest.raises(ValueError):
        GeneratorSpec("powerlaw", a=0.0)
    # The CLI tests cover the non-finite values a --spec gives.
    with pytest.raises(ValueError, match=r"^a must be finite and > 0, got inf$"):
        GeneratorSpec("powerlaw", a=math.inf)
    with pytest.raises(ValueError, match=r"^m must be finite and >= 0, got -1.0$"):
        GeneratorSpec("powerlaw", m=-1.0)


def test_parse_generator_spec():
    spec = parse_generator_spec("uniform:T=10,lo=1,hi=3,seed=7")
    assert spec == GeneratorSpec("uniform", horizon=10, lo=1, hi=3, seed=7)
    spec = parse_generator_spec("powerlaw:a=150,m=500", seed=3)
    assert spec.kind == "powerlaw" and spec.seed == 3
    # A key given twice is an error, aliases included.
    for text, message in (
        ("uniform:lo=1,lo=2", "key 'lo' sets 'lo' again"),
        ("uniform:T=5,horizon=6", "key 'horizon' sets 'horizon' again"),
        ("uniform:max_slack=3,SLACK=4", "key 'SLACK' sets 'max_slack' again"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_generator_spec(text)
    # So is a seed in the spec next to the seed argument.
    with pytest.raises(ValueError, match="^seed given twice: 3 in the spec and 1$"):
        parse_generator_spec("uniform:seed=3", seed=1)
    assert parse_generator_spec("uniform:seed=3").seed == 3


def test_horizon_past_the_bound_fails_before_anything_is_built(tmp_path, j2):
    # Each check runs on the arguments alone: nothing per slot is allocated.
    assert GeneratorSpec("uniform", horizon=MAX_HORIZON - 10, max_slack=10)
    message = rf"^horizon \+ max_slack = {MAX_HORIZON + 1} exceeds MAX_HORIZON = {MAX_HORIZON}$"
    with pytest.raises(ValueError, match=message):
        GeneratorSpec("uniform", horizon=MAX_HORIZON - 9, max_slack=10)
    with pytest.raises(ValueError, match=message):
        ExperimentConfig("powerlaw", "sigma", (0.0,), horizon=MAX_HORIZON - 9)
    message = rf"^slots_per_day \+ max_slack = {MAX_HORIZON + 1} exceeds MAX_HORIZON = {MAX_HORIZON}$"
    with pytest.raises(ValueError, match=message):
        ExperimentConfig("events.txt", "sigma", (0.0,), slots_per_day=MAX_HORIZON - 9)
    with pytest.raises(ValueError, match=message):
        ingest_snap_events(tmp_path / "missing.txt", slots_per_day=MAX_HORIZON - 9)
    # A deadline shift past the bound fails in the shifted Instance.
    with pytest.raises(ValueError, match=f"exceeds MAX_HORIZON = {MAX_HORIZON}$"):
        perturb(j2, PerturbationSpec("deadline-shift", k=2 * MAX_HORIZON, seed=1))


def test_job_count_past_the_bound_fails_before_anything_is_drawn():
    # The worst case is every slot at its largest count: horizon * hi, or
    # horizon * m for the power law. Only specs are built, nothing drawn.
    assert GeneratorSpec("uniform", horizon=1000, lo=0, hi=10_000)
    assert GeneratorSpec("powerlaw", horizon=1000, m=10_000.0)
    bound = f"exceeds MAX_GENERATED_JOBS = {MAX_GENERATED_JOBS}$"
    with pytest.raises(ValueError, match=rf"^horizon \* hi = 10001000 {bound}"):
        GeneratorSpec("uniform", horizon=1000, lo=0, hi=10_001)
    with pytest.raises(ValueError, match=rf"^horizon \* m = 10000500.0 {bound}"):
        GeneratorSpec("powerlaw", horizon=1000, m=10_000.5)
    with pytest.raises(ValueError, match=rf"^horizon \* hi = 75000000000000 {bound}"):
        GeneratorSpec("uniform", lo=10**12, hi=10**12)
    with pytest.raises(ValueError, match=rf"^horizon \* m = 75000000000000.0 {bound}"):
        parse_generator_spec("powerlaw:m=1e12,a=1")
    with pytest.raises(ValueError, match=rf"^horizon \* hi = 75000000000000 {bound}"):
        ExperimentConfig("uniform", "sigma", (0.0,), hi=10**12)
    with pytest.raises(ValueError, match=rf"^horizon \* m = 75000000000000.0 {bound}"):
        ExperimentConfig("powerlaw", "sigma", (0.0,), m=1e12)


def test_perturb_identity_cases(j2):
    assert perturb(j2, PerturbationSpec("weight-gauss", sigma=0.0, seed=1)) is j2
    assert perturb(j2, PerturbationSpec("deadline-shift", k=0, seed=1)) is j2


def test_perturb_weight_noise(j2):
    pred = perturb(j2, PerturbationSpec("weight-gauss", sigma=0.5, seed=3))
    assert {j.id for j in pred.jobs} == {"a", "b", "c"}
    assert all(
        p.release == q.release and p.deadline == q.deadline
        for p, q in zip(pred.jobs, j2.jobs)
    )
    assert all(j.weight >= 1e-9 for j in pred.jobs)
    huge = perturb(j2, PerturbationSpec("weight-gauss", sigma=1e9, seed=4))
    assert min(j.weight for j in huge.jobs) >= 1e-9
    # Weight noise keeps the horizon; a deadline shift's is its largest
    # deadline, as for a fresh instance.
    wide = Instance.of(j2.jobs, 10)
    assert perturb(wide, PerturbationSpec("weight-gauss", sigma=0.5, seed=3)).horizon == 10
    shifted = perturb(wide, PerturbationSpec("deadline-shift", k=1, seed=3))
    assert shifted.horizon == max(shifted.deadlines) < 10


def test_perturb_deadline_clamp():
    inst = Instance.of([Job("x", 3, 4, 1.0)])
    # Find a seed whose first draw is the extreme -5 to hit the clamp.
    seed = next(
        s for s in range(1000) if random.Random(s).randint(-5, 5) == -5
    )
    pred = perturb(inst, PerturbationSpec("deadline-shift", k=5, seed=seed))
    assert pred.jobs[0].deadline == 4  # clamped to release + 1
    assert pred.jobs[0].weight == 1.0


def test_perturbation_spec_rejects_bad_magnitudes():
    for sigma in (math.nan, math.inf, -0.1):
        with pytest.raises(ValueError, match="sigma must be finite and >= 0"):
            PerturbationSpec("weight-gauss", sigma=sigma)
    with pytest.raises(ValueError, match="k must be >= 0"):
        PerturbationSpec("deadline-shift", k=-1)
    PerturbationSpec("weight-gauss", sigma=1e9)
    PerturbationSpec("deadline-shift", k=6)


def test_perturb_determinism(j2):
    spec = PerturbationSpec("weight-gauss", sigma=0.2, seed=77)
    assert perturb(j2, spec) == perturb(j2, spec)


def _write_events(path, days):
    # days: list of (day_index, count); timestamps spread inside each day.
    lines = []
    for day, count in days:
        base = day * 86_400
        for i in range(count):
            ts = base + (i * 86_400) // max(count, 1)
            lines.append(f"{i % 50} {(i + 1) % 50} {ts}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# Four days of events, three of them inside the default 300-500 band.
THREE_DAY_LOG = [(0, 320), (1, 200), (2, 350), (3, 300)]


def test_ingest_day_banding(tmp_path):
    events = tmp_path / "events.txt"
    _write_events(events, [(0, 350), (1, 200), (2, 500), (3, 501), (4, 300)])
    instances = ingest_snap_events(events, seed=1)
    assert len(instances) == 3  # 350, 500, and 300 qualify
    for inst in instances:
        assert _is_agreeable(inst)
        assert all(1 <= j.release <= 75 for j in inst.jobs)
    counts = sorted(len(i.jobs) for i in instances)
    assert counts == [300, 350, 500]


def test_ingest_idempotent(tmp_path):
    events = tmp_path / "events.txt"
    _write_events(events, [(0, 320)])
    first = ingest_snap_events(events, seed=9)
    second = ingest_snap_events(events, seed=9)
    assert first == second
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_instance_csv(first[0], p1)
    write_instance_csv(second[0], p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_ingest_comma_separated(tmp_path):
    events = tmp_path / "events.csv"
    lines = [f"u{i},v{i},{i * 86_400 // 310}" for i in range(310)]
    events.write_text("\n".join(lines) + "\n", encoding="utf-8")
    instances = ingest_snap_events(events, seed=2)
    assert len(instances) == 1 and len(instances[0].jobs) in (309, 310)


def test_ingest_skips_a_byte_order_mark(tmp_path):
    # The timestamp is field 0, right after the mark.
    lines = "".join(f"{i * 86_400 // 310},u{i}\n" for i in range(310)).encode()
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(lines)
    marked.write_bytes(b"\xef\xbb\xbf" + lines)
    assert ingest_snap_events(marked, ts_col=0) == ingest_snap_events(plain, ts_col=0)


def test_ingest_errors(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(EmptyDataset):
        ingest_snap_events(empty)

    bad = tmp_path / "bad.txt"
    bad.write_text("1 2 1082040961\n1 2 not-a-time\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        ingest_snap_events(bad)
    assert exc.value.line_no == 2


@pytest.mark.parametrize(
    "kwargs, message",
    [({"slots_per_day": 0}, "slots_per_day must be >= 1, got 0"),
     ({"slots_per_day": -3}, "slots_per_day must be >= 1, got -3"),
     ({"band": (500, 300)}, r"band must have lo <= hi, got \(500, 300\)"),
     ({"ts_col": -3}, "ts_col must be >= 0, got -3"),
     ({"max_slack": 0}, "max_slack must be >= 1, got 0"),
     ({"slots_per_day": 75.0}, "slots_per_day must be an int, got 75.0"),
     ({"max_slack": 2.0}, "max_slack must be an int, got 2.0"),
     ({"ts_col": True}, "ts_col must be an int, got True")],
    ids=["slots-zero", "slots-negative", "band-reversed", "ts-col-negative", "slack-zero",
         "slots-float", "slack-float", "ts-col-bool"],
)
def test_ingest_rejects_bad_arguments_before_reading(tmp_path, kwargs, message):
    # The file does not exist: an argument checked after the read would
    # fail there instead.
    with pytest.raises(ValueError, match=f"^{message}$"):
        ingest_snap_events(tmp_path / "missing.txt", **kwargs)


def test_competitive_ratio(j1, j2):
    best = schedule_weight(opt_schedule(j2))
    assert competitive_ratio(j2, opt_schedule(j2), best) == 1.0
    ratio = competitive_ratio(j2, blind_follow(j1, j2), best)
    assert abs(ratio - 1.999 / 1.01) < 1e-12
    dummies = Schedule((None, None, None))
    assert math.isinf(competitive_ratio(j2, dummies, best))
    # Both weights zero: nothing could be run and nothing was, ratio 1.
    assert competitive_ratio(j2, dummies, 0.0) == 1.0
    zero = Instance.of([Job("z", 0, 2, 0.0)])
    assert competitive_ratio(zero, opt_schedule(zero), 0.0) == 1.0
    bad = Schedule((j2.by_id["c"], None, None))  # runs before release
    with pytest.raises(InvalidSchedule):
        competitive_ratio(j2, bad, best)


def test_derive_seed_stability():
    assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
    assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)


def _tiny_config(**overrides):
    base = dict(
        dataset="uniform",
        sweep="sigma",
        values=(0.0, 0.3),
        trials=2,
        algorithms=("lap", "greedy", "edf"),
        seed=99,
        horizon=6,
        lo=1,
        hi=2,
        max_slack=4,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_run_experiment_records():
    records = run_experiment(_tiny_config())
    assert len(records) == 2 * 2 * 3
    for r in records:
        assert r.ratio >= 1.0 - 1e-9
        if r.sweep_value == 0.0:
            assert r.eta == 1.0
            if r.algorithm == "lap":
                assert abs(r.ratio - 1.0) <= 1e-9


def test_run_experiment_deterministic():
    a = run_experiment(_tiny_config())
    b = run_experiment(_tiny_config())
    strip = lambda r: (r.dataset, r.sweep, r.sweep_value, r.trial, r.algorithm,
                       r.eta, r.ratio)
    assert [strip(r) for r in a] == [strip(r) for r in b]


RECORD_COLUMNS = ("dataset", "sweep", "sweep_value", "trial", "algorithm", "eta", "ratio")
PINNED_SIGMAS = (0.0, 0.1, 0.3)
PINNED_KS = (0.0, 1.0, 3.0)
PINNED_SMALL = dict(horizon=12, max_slack=4, trials=3, seed=11)
UNIFORM_SMALL = dict(dataset="uniform", lo=1, hi=3, **PINNED_SMALL)
POWERLAW_SMALL = dict(dataset="powerlaw", a=3.0, m=8.0, **PINNED_SMALL)


@pytest.mark.parametrize(
    "config, digest",
    [
        (dict(sweep="sigma", values=PINNED_SIGMAS, **UNIFORM_SMALL), "7beb311c68643c571c86"),
        (dict(sweep="k", values=PINNED_KS, **UNIFORM_SMALL), "e49465cebee31ac8451a"),
        (dict(sweep="sigma", values=PINNED_SIGMAS, **POWERLAW_SMALL), "cbf4762ea88075c23247"),
        (dict(sweep="k", values=PINNED_KS, **POWERLAW_SMALL), "ecfa56673af629ec0c97"),
        (dict(dataset="events.txt", sweep="sigma", values=(0.0, 0.2), trials=3, seed=11),
         "a692758c99a0a8768899"),
    ],
    ids=["uniform-sigma", "uniform-k", "powerlaw-sigma", "powerlaw-k", "events-sigma"],
)
def test_multi_trial_sweeps_match_pinned_digests(tmp_path, monkeypatch, config, digest):
    # Every column but the wall clock, over three trials per sweep value,
    # so a realization, perturbation or optimum paired with the wrong trial
    # changes the digest. The event log is read by a relative path, so the
    # dataset column is the same wherever the test runs.
    monkeypatch.chdir(tmp_path)
    _write_events(tmp_path / "events.txt", THREE_DAY_LOG)
    records = run_experiment(ExperimentConfig(**config))
    assert len({r.trial for r in records}) == 3
    h = hashlib.sha256()
    for r in records:
        h.update(",".join(repr(getattr(r, col)) for col in RECORD_COLUMNS).encode())
        h.update(b"\n")
    assert h.hexdigest()[:20] == digest


def test_prediction_free_algorithms_run_once_per_trial(monkeypatch):
    calls = []

    def counted(algorithm, realization, *rest):
        calls.append((algorithm, realization))
        return run_algorithm(algorithm, realization, *rest)

    monkeypatch.setattr(experiments, "run_algorithm", counted)
    config = ExperimentConfig(sweep="sigma", values=PINNED_SIGMAS, **UNIFORM_SMALL)
    records = run_experiment(config)
    assert len(records) == 3 * 3 * len(config.algorithms)
    realizations = {id(realization) for _, realization in calls}
    assert len(realizations) == 3
    per_name = Counter(name for name, _ in calls)
    assert per_name == {
        "lap": 9, "mg": 3, "greedy": 3, "edf": 3, "edf-alpha:0.5": 3,
    }
    per_pair = Counter((name, id(realization)) for name, realization in calls)
    assert all(
        count == (3 if name == "lap" else 1) for (name, _), count in per_pair.items()
    )


def test_prediction_free_rows_repeat_their_trials_run():
    config = _tiny_config(values=(0.0, 0.2, 0.5))
    seen: dict = {}
    for r in run_experiment(config):
        seen.setdefault((r.trial, r.algorithm), []).append((r.ratio, r.runtime_s))
    for trial in range(config.trials):
        realization = generate(
            GeneratorSpec(
                kind="uniform", horizon=config.horizon, lo=config.lo, hi=config.hi,
                max_slack=config.max_slack,
                seed=derive_seed(config.seed, "instance", trial),
            )
        )
        best = schedule_weight(opt_schedule(realization))
        for name in ("greedy", "edf"):
            rows = seen[trial, name]
            assert len(rows) == 3 and len(set(rows)) == 1, (trial, name)
            schedule = run_online(OnlineStepPolicy.parse(name), realization)
            assert rows[0][0] == competitive_ratio(realization, schedule, best)
        assert len(seen[trial, "lap"]) == 3


def test_sweep_solves_each_realizations_series_once(monkeypatch):
    # Every sweep value, the prediction error, lap and the optimum the
    # ratios divide read one series per realization, however many trials.
    solved = []
    original = offline.prefix_opt_series

    def counted(instance):
        solved.append(instance)
        return original(instance)

    monkeypatch.setattr(offline, "prefix_opt_series", counted)
    records = run_experiment(_tiny_config(trials=70, values=(0.0, 0.2, 0.5)))
    assert len(records) == 70 * 3 * 3
    assert len(solved) == 70 and len({id(inst) for inst in solved}) == 70


def test_sweep_builds_each_realizations_index_once(monkeypatch):
    # Every online run of a trial, lap's at every sweep value included,
    # drives the trial's realization: its rank-ordered columns (by_rank)
    # and each of its rank tables are built once, and no table of a
    # prediction is ever built, since no prediction is driven. A
    # prediction's columns are built once too, for its optimum.
    built, realizations, predictions = Counter(), [], []
    original_generate, original_perturb = experiments.generate, experiments.perturb

    def kept_generate(spec):
        realizations.append(original_generate(spec))
        return realizations[-1]

    def kept_perturb(instance, spec):
        predictions.append(original_perturb(instance, spec))
        return predictions[-1]

    tables = ("rank_of", "released", "expiring", "edf_keys")
    for name in ("by_rank", *tables):
        def counted(instance, build=Instance.__dict__[name].func, name=name):
            built[name, id(instance)] += 1
            return build(instance)

        prop = cached_property(counted)
        prop.__set_name__(Instance, name)
        monkeypatch.setattr(Instance, name, prop)
    monkeypatch.setattr(experiments, "generate", kept_generate)
    monkeypatch.setattr(experiments, "perturb", kept_perturb)
    config = _tiny_config(
        trials=70, values=(0.0, 0.2, 0.5), algorithms=("lap", "mg", "greedy", "edf")
    )
    assert len(run_experiment(config)) == 70 * 3 * 4
    assert len(realizations) == 70 and len(predictions) == 70 * 3
    # At sigma = 0 the prediction is the realization itself.
    distinct = {id(p) for p in predictions} - {id(r) for r in realizations}
    assert built == Counter(
        [("by_rank", i) for i in {id(r) for r in realizations} | distinct]
        + [(name, id(r)) for r in realizations for name in tables]
    )


def test_sweep_solves_each_prediction_once(monkeypatch):
    # The prediction error and lap and blind all read the prediction's
    # optimum: one solve per prediction, at sigma = 0 too, where the
    # prediction is the realization itself.
    solved, predictions = [], []
    original_ranks, original_perturb = offline._optimal_ranks, experiments.perturb

    def counted_ranks(instance):
        solved.append(instance)
        return original_ranks(instance)

    def kept_perturb(instance, spec):
        predictions.append(original_perturb(instance, spec))
        return predictions[-1]

    monkeypatch.setattr(offline, "_optimal_ranks", counted_ranks)
    monkeypatch.setattr(experiments, "perturb", kept_perturb)
    config = _tiny_config(
        trials=70, values=(0.0, 0.2, 0.5), algorithms=("lap", "blind", "greedy")
    )
    assert len(run_experiment(config)) == 70 * 3 * 3
    assert len(predictions) == 70 * 3
    assert [id(inst) for inst in solved] == [id(inst) for inst in predictions]


def test_sweep_builds_no_trace_records(monkeypatch):
    # A sweep reads LAP's schedule, never its trace: no LapSlot is built.
    built = []
    original = LapSlot.__init__

    def counted(self, *args):
        built.append(args[0])
        original(self, *args)

    monkeypatch.setattr(LapSlot, "__init__", counted)
    config = _tiny_config(trials=3, values=(0.0, 0.3), algorithms=("lap", "greedy"))
    assert len(run_experiment(config)) == 3 * 2 * 2
    assert built == []
    # The counter sees the records that reading a trace's rows builds.
    realization = generate(config.generator_spec(1))
    _, trace = lap_run(realization, realization, 1.1, GREEDY)
    assert len(trace.rows) == len(built) == realization.horizon + 1


def test_series_rows_standard_error_by_hand():
    # The standard error of the mean uses the sample deviation (n - 1):
    # ratios 1, 2 give sqrt(0.5) / sqrt(2) = 0.5, and 1, 2, 4 give
    # sqrt((16 + 1 + 25) / 9 / 2) / sqrt(3) = sqrt(7) / 3. Dividing by n
    # would give sqrt(2) / 4 and sqrt(14) / 9.
    def record(algorithm, ratio):
        return ResultRecord("uniform", "sigma", 0.1, 0, algorithm, 1.0, ratio, 0.0)

    records = [record("mg", r) for r in (1.0, 2.0)]
    records += [record("greedy", r) for r in (1.0, 2.0, 4.0)]
    records.append(record("edf", 1.5))
    rows = {algorithm: (mean, stderr) for _, algorithm, mean, stderr in series_rows(records)}
    assert rows["mg"] == (1.5, pytest.approx(0.5, rel=1e-12))
    assert rows["greedy"] == (pytest.approx(7 / 3, rel=1e-12), pytest.approx(math.sqrt(7) / 3, rel=1e-12))
    assert rows["edf"] == (1.5, 0.0)


def test_series_rows_grouping():
    records = run_experiment(_tiny_config())
    rows = series_rows(records)
    assert len(rows) == 2 * 3
    for _, _, mean, stderr in rows:
        assert mean >= 1.0 - 1e-9 and stderr >= 0.0


def test_config_file_and_output_dir(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "# tiny sweep\n"
        "dataset = uniform\n"
        "sweep = k\n"
        "values = 0, 2\n"
        "trials = 2\n"
        "algorithms = lap, greedy\n"
        "rho_excess = 0.1\n"
        "alpha = 0.5\n"
        "seed = 7\n"
        f"out_dir = {out}\n"
        "horizon = 5\n"
        "lo = 1\n"
        "hi = 2\n",
        encoding="utf-8",
    )
    config = parse_config_file(cfg)
    assert config.sweep == "k" and config.values == (0.0, 2.0)
    records = run_experiment_to_dir(config)
    assert (out / "results.csv").exists() and (out / "series.csv").exists()
    header = next(
        line
        for line in (out / "results.csv").read_text().splitlines()
        if not line.startswith("#")
    )
    assert header == "dataset,sweep,sweep_value,trial,algorithm,eta,ratio,runtime_s"
    assert (out / "series.csv").read_text().splitlines()[0] == \
        "sweep_value,algorithm,mean_ratio,stderr"
    assert len(records) == 2 * 2 * 2
    assert " trials=2 " in (out / "results.csv").read_text().splitlines()[0]

    # An event log runs one trial per qualifying day, whatever trials says.
    events = tmp_path / "events.txt"
    _write_events(events, THREE_DAY_LOG)
    cfg.write_text(
        f"dataset = {events}\nsweep = k\nvalues = 0\ntrials = 10\n"
        f"algorithms = greedy\nout_dir = {out}\n",
        encoding="utf-8",
    )
    records = run_experiment_to_dir(parse_config_file(cfg))
    assert len(records) == 3
    assert " trials=3 " in (out / "results.csv").read_text().splitlines()[0]


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(dataset="uniform", sweep="nope", values=(0.0,))
    with pytest.raises(ValueError, match="unknown policy 'gredy'"):
        _tiny_config(algorithms=("lap", "gredy"))
    with pytest.raises(ValueError, match="unknown policy 'gredy'"):
        _tiny_config(algorithms=("greedy",), fallback="gredy")
    for roster in (("lap", "lap"), ("mg", "lap", "greedy", "mg")):
        with pytest.raises(ValueError, match="algorithms names '.*' more than once"):
            _tiny_config(algorithms=roster)
    for rho_excess in (-0.1, math.nan):
        with pytest.raises(ValueError, match="rho_excess must be >= 0"):
            _tiny_config(rho_excess=rho_excess)
    with pytest.raises(ValueError, match="alpha in"):
        _tiny_config(algorithms=("edf-alpha",), alpha=2.0)
    with pytest.raises(ValueError, match="alpha in"):
        _tiny_config(fallback="edf-alpha", alpha=2.0)
    _tiny_config(algorithms=("greedy",), alpha=2.0)  # alpha unused: no error
    for trials in (0, -2):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            _tiny_config(trials=trials)
    # A float or bool count is rejected by name, not left to range().
    for trials in (2.0, True, 2.5):
        with pytest.raises(ValueError, match=rf"^trials must be an int, got {trials!r}$"):
            _tiny_config(trials=trials)
    # A generated dataset's generator fields are checked as GeneratorSpec
    # checks them; an event log does not read them.
    for fields, message in (
        ({"horizon": 0}, "horizon must be >= 1"),
        ({"lo": 3, "hi": 2}, "need 0 <= lo <= hi"),
        ({"dataset": "powerlaw", "a": 0.0}, "a must be finite and > 0"),
    ):
        with pytest.raises(ValueError, match=message):
            _tiny_config(**fields)
    _tiny_config(dataset="events.txt", horizon=0, lo=3, hi=2)
    with pytest.raises(ValueError, match="values must name at least one"):
        _tiny_config(values=())
    for sweep, values in (
        ("sigma", (0.0, math.nan)),
        ("sigma", (0.0, -0.1)),
        ("sigma", (0.0, math.inf)),
        ("k", (0.0, -1.0)),
    ):
        with pytest.raises(ValueError, match="values must be finite and >= 0"):
            _tiny_config(sweep=sweep, values=values)


def test_k_sweep_takes_whole_values_only():
    for values in ((0.7, 2.9), (1.0, math.nan), (math.inf,)):
        with pytest.raises(ValueError, match="k sweep values must be whole numbers"):
            _tiny_config(sweep="k", values=values)
    # Whole floats run as their integer k, under their own label.
    floats = run_experiment(_tiny_config(sweep="k", values=(0.0, 2.0)))
    ints = run_experiment(_tiny_config(sweep="k", values=(0, 2)))
    assert [r.sweep_value for r in floats] == [0.0] * 6 + [2.0] * 6
    assert [(r.eta, r.ratio) for r in floats] == [(r.eta, r.ratio) for r in ints]


def test_run_algorithm_matches_each_runner(j1, j2):
    schedule, trace = run_algorithm("lap", j2, j1, 1.1, "greedy")
    assert (schedule, trace) == lap_run(j1, j2, 1.1, GREEDY)
    assert run_algorithm("blind", j2, j1, 1.1, "greedy") == (blind_follow(j1, j2), None)
    for name in ("greedy", "edf", "mg", "edf-alpha:0.5"):
        expected = run_online(OnlineStepPolicy.parse(name), j2)
        assert run_algorithm(name, j2, None, 1.1, "greedy") == (expected, None)
        assert run_algorithm(name, j2, j1, 1.1, "greedy") == (expected, None)
    for name in ("lap", "blind"):
        with pytest.raises(MissingPrediction):
            run_algorithm(name, j2, None, 1.1, "greedy")
    with pytest.raises(ValueError):
        run_algorithm("gredy", j2, j1, 1.1, "greedy")


def test_sweep_accepts_edf_alpha_with_threshold():
    def ratios(config):
        return [(r.algorithm, r.ratio) for r in run_experiment(config)]

    bare = ratios(_tiny_config(algorithms=("edf-alpha",), alpha=0.3))
    spelled = ratios(_tiny_config(algorithms=("edf-alpha:0.3",)))
    assert [r for _, r in spelled] == [r for _, r in bare]
    assert {a for a, _ in spelled} == {"edf-alpha:0.3"}
    assert {a for a, _ in bare} == {"edf-alpha"}

    lap_bare = _tiny_config(algorithms=("lap",), fallback="edf-alpha", alpha=0.3)
    lap_spelled = _tiny_config(algorithms=("lap",), fallback="edf-alpha:0.3")
    assert ratios(lap_spelled) == ratios(lap_bare)


def _readme_sweep_config():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    after = readme.split("A sweep config is flat", 1)[1]
    return after.split("```", 2)[1].strip("\n")


def test_readme_sweep_config_parses(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(_readme_sweep_config() + "\n", encoding="utf-8")
    config = parse_config_file(cfg)
    assert config.dataset == "uniform" and config.sweep == "sigma"
    assert config.values == (0.0, 0.05, 0.1)
    assert config.algorithms == ("lap", "mg", "greedy", "edf", "edf-alpha")
    assert config.rho_excess == 0.1 and config.trials == 10


def test_config_file_errors_carry_line_numbers(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("dataset = uniform\ntrials = ten\n", encoding="utf-8")
    with pytest.raises(ParseError, match="^line 2: key 'trials': invalid literal for int"):
        parse_config_file(cfg)
    cfg.write_text("dataset = uniform\nrho = 0.1\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 2: unknown key 'rho'"):
        parse_config_file(cfg)


def test_config_file_skips_a_byte_order_mark(tmp_path):
    text = "dataset = uniform\nsweep = sigma\nvalues = 0, 0.1\n".encode()
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_bytes(text)
    marked.write_bytes(b"\xef\xbb\xbf" + text)
    assert parse_config_file(marked) == parse_config_file(plain)


@pytest.mark.parametrize(
    "lines, message",
    [("values = 0\nvalues = 0.1", "key 'values' sets 'values' again"),
     ("T = 5\nhorizon = 6", "key 'horizon' sets 'horizon' again"),
     ("slack = 3\nMAX_SLACK = 4", "key 'MAX_SLACK' sets 'max_slack' again")],
    ids=["same-spelling", "alias-first", "alias-then-upper-case"],
)
def test_config_file_rejects_a_key_set_twice(tmp_path, lines, message):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text(f"dataset = uniform\nsweep = sigma\n# note\n{lines}\n", "utf-8")
    with pytest.raises(ParseError, match=f"^line 5: {message} \\(first on line 4\\)$"):
        parse_config_file(cfg)


@pytest.mark.parametrize(
    "text, missing",
    [("dataset = uniform\nsweep = sigma\n", "values"),
     ("", "dataset, sweep, values")],
    ids=["no-values", "empty"],
)
def test_config_file_names_missing_keys(tmp_path, text, missing):
    cfg = tmp_path / "short.cfg"
    cfg.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=f"^missing required key\\(s\\): {missing}$"):
        parse_config_file(cfg)


def test_each_parse_resolves_the_type_hints_once(tmp_path, monkeypatch):
    # get_type_hints evaluates every annotation of the class again at each
    # call, so a parse resolves them once, however many keys it types.
    calls = []
    resolve = experiments.get_type_hints

    def counted(cls):
        calls.append(cls)
        return resolve(cls)

    monkeypatch.setattr(experiments, "get_type_hints", counted)
    spec = parse_generator_spec("uniform:T=10,lo=1,hi=3,slack=2,seed=7")
    assert spec == GeneratorSpec("uniform", horizon=10, lo=1, hi=3, max_slack=2, seed=7)
    assert calls == [GeneratorSpec]
    calls.clear()
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(_readme_sweep_config() + "\n", encoding="utf-8")
    assert parse_config_file(cfg).trials == 10
    assert calls == [ExperimentConfig]
    # The messages are unchanged.
    calls.clear()
    with pytest.raises(ValueError, match="^key 'lo': invalid literal for int"):
        parse_generator_spec("uniform:T=10,lo=x")
    cfg.write_text("dataset = uniform\nrho = 0.1\n", encoding="utf-8")
    with pytest.raises(ParseError, match="^line 2: unknown key 'rho'$"):
        parse_config_file(cfg)
    assert calls == [GeneratorSpec, ExperimentConfig]


def test_a_sweep_that_fails_makes_no_out_dir(tmp_path):
    # An event-log dataset is read when the sweep runs; out_dir is made
    # only once the sweep has its rows.
    out = tmp_path / "out"
    config = ExperimentConfig(
        dataset=str(tmp_path / "missing.txt"), sweep="sigma", values=(0.0,), out_dir=str(out)
    )
    with pytest.raises(FileNotFoundError):
        run_experiment_to_dir(config)
    assert not out.exists()
