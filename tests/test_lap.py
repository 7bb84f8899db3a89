import math
import random

import pytest

from pktsched import (
    EDF,
    GREEDY,
    MG,
    PHI,
    GeneratorSpec,
    Instance,
    InvalidThreshold,
    OnlineStepPolicy,
    blind_follow,
    brute_force_opt,
    generate,
    lap_run,
    local_test,
    opt_schedule,
    prediction_error,
    prefix_opt_series,
    run_online,
    schedule_weight,
    validate_schedule,
)
from pktsched.core import weight_ratio
from pktsched.lap import ONLINE, PREDICTION, LapSlot, write_trace_csv
from conftest import (
    TIED_WEIGHTS,
    adversarial_prediction,
    edge_shape_instances,
    mk,
    random_agreeable,
    random_instance,
)
from reference import local_ratios_by_full_sums, processed_ids


def test_local_test_conventions():
    series = (0.0, 2.0)
    assert local_test(series, [1.0], 1.0, 1, 1.0) == (True, 1.0)
    assert local_test(series, [], 0.0, 0, 1.0) == (True, 1.0)
    passed, ratio = local_test(series, [], 0.0, 1, 1.5)
    assert not passed and math.isinf(ratio)
    with pytest.raises(InvalidThreshold):
        local_test(series, [], 1.0, 0, 0.9)


def test_local_test_fixture_numbers(j2):
    series = prefix_opt_series(j2)
    passed, ratio = local_test(series, [0.01], 1.0, 1, 1.1)
    assert not passed and ratio == 1.999 / 1.01
    passed, ratio = local_test(series, [0.01], 1.0, 1, 2.0)
    assert passed


def test_lap_consistency_is_exact(j2):
    for rho in (1.0, 1.1, 2.0):
        for policy in (GREEDY, EDF, MG, OnlineStepPolicy("edf-alpha", 0.5)):
            sched, trace = lap_run(j2, j2, rho, policy)
            assert schedule_weight(sched) == brute_force_opt(j2)[0]
            assert all(
                row.source == PREDICTION or row.local_ratio is None
                for row in trace.rows
            )


def test_lap_fixture_run(j1, j2):
    sched, trace = lap_run(j1, j2, 1.1, GREEDY)
    assert schedule_weight(sched) == 1.01
    assert trace.rows[0].source == PREDICTION
    assert trace.rows[0].local_ratio == 1.0
    assert trace.rows[1].source == ONLINE
    assert trace.rows[1].local_ratio == 1.999 / 1.01  # evaluated, failed
    assert trace.rows[1].job_id == "b"
    assert trace.t_lambda == 1


def test_lap_empty_prediction_falls_back(j2):
    sched, trace = lap_run(Instance.of([]), j2, 1.1, GREEDY)
    assert sched == run_online(GREEDY, j2)
    assert schedule_weight(sched) == 1.999
    assert all(row.source == ONLINE and row.local_ratio is None for row in trace.rows)


def test_runs_span_the_realizations_horizon(j2):
    # A prediction reaching past the realization's horizon adds no slots:
    # no realized job is feasible there.
    pred = mk([("b", 0, 2, 1.0), ("c", 1, 2, 0.999), ("z", 3, 6, 2.0)], horizon=8)
    sched, trace = lap_run(pred, j2, 1.1, GREEDY)
    assert len(sched.slots) == len(trace.rows) == j2.horizon + 1
    assert schedule_weight(sched) == 1.999
    followed = blind_follow(pred, j2)
    assert len(followed.slots) == j2.horizon + 1
    assert schedule_weight(followed) == 1.999


def test_lap_switches_back_and_forth():
    # Slot 0 follows the prediction, slot 1 fails the test (the prediction
    # front-loads the wrong job), slots 1-2 run the fallback, and slot 3
    # passes the test again: prediction -> online -> prediction.
    real = mk([("d", 0, 1, 1.0), ("a", 1, 3, 10.0), ("b", 1, 3, 0.1), ("c", 3, 4, 5.0)])
    pred = mk([("d", 0, 1, 1.0), ("a", 1, 3, 0.1), ("b", 1, 3, 10.0), ("c", 3, 4, 5.0)])
    sched, trace = lap_run(pred, real, 1.1, GREEDY)
    sources = [row.source for row in trace.rows]
    assert sources == [PREDICTION, ONLINE, ONLINE, PREDICTION, ONLINE]
    assert trace.rows[1].local_ratio > 1.1  # a genuine failed test, not a dummy
    assert trace.rows[2].local_ratio is None  # predicted job already grabbed
    assert schedule_weight(sched) == brute_force_opt(real)[0]


def test_lap_threshold_validation(j2):
    for rho in (0.1, math.nan):
        with pytest.raises(InvalidThreshold):
            lap_run(j2, j2, rho, GREEDY)
        with pytest.raises(InvalidThreshold):
            local_test(prefix_opt_series(j2), [], 1.0, 0, rho)


def test_trace_matches_schedule():
    rng = random.Random(53)
    for _ in range(30):
        real = random_instance(rng)
        pred = adversarial_prediction(real, rng.choice(("empty", "reversed", "shifted")),
                                      rng.randrange(2**32))
        sched, trace = lap_run(pred, real, 1.1, GREEDY)
        assert processed_ids(trace) == sched.job_ids()
        assert [row.weight for row in trace.rows] == [
            j.weight if j else 0.0 for j in sched.slots
        ]
        for row in trace.rows:
            if row.source == PREDICTION:
                assert row.local_ratio is not None and row.local_ratio <= trace.rho
        ok, violations = validate_schedule(real, sched)
        assert ok, violations


@pytest.mark.parametrize(
    "fallback", [GREEDY, EDF, MG, OnlineStepPolicy("edf-alpha", 0.5)], ids=lambda p: p.name
)
def test_lap_schedules_valid_on_edge_shapes(fallback):
    rng = random.Random(57)
    for inst in edge_shape_instances(rng):
        predictions = [inst] + [
            adversarial_prediction(inst, kind, rng.randrange(2**32))
            for kind in ("empty", "reversed", "shifted")
        ]
        for pred in predictions:
            sched, _ = lap_run(pred, inst, 1.1, fallback)
            ok, violations = validate_schedule(inst, sched)
            assert ok, violations


def _assert_one_consistent(inst, optimum):
    sched, trace = lap_run(inst, inst, 1.0, GREEDY)
    assert schedule_weight(sched) == optimum
    assert not any(
        row.source == ONLINE and row.local_ratio is not None
        for row in trace.rows
    )


def test_lap_consistency_random():
    rng = random.Random(59)
    for _ in range(40):
        inst = random_instance(rng)
        _assert_one_consistent(inst, brute_force_opt(inst)[0])
    # Tied instances are larger than the exhaustive oracle allows; gate 01
    # checks opt_schedule against it on tied weights too.
    for _ in range(400):
        inst = random_instance(rng, max_jobs=16, max_horizon=10, weights=TIED_WEIGHTS)
        _assert_one_consistent(inst, schedule_weight(opt_schedule(inst)))


def test_lap_smoothness_when_error_within_threshold():
    rng = random.Random(61)
    rho = 2.0
    checked = 0
    for _ in range(120):
        real = random_instance(rng, min_jobs=1)
        pred = adversarial_prediction(real, "shifted", rng.randrange(2**32))
        eta = prediction_error(real, pred)
        if not eta <= rho:
            continue
        sched, trace = lap_run(pred, real, rho, GREEDY)
        # With eta within the threshold every evaluated test passes.
        assert not any(
            row.source == ONLINE and row.local_ratio is not None
            for row in trace.rows
        )
        assert brute_force_opt(real)[0] <= eta * schedule_weight(sched) + 1e-9
        checked += 1
    assert checked >= 30


def test_lap_robustness_bound_random():
    rng = random.Random(67)
    for _ in range(60):
        real = random_agreeable(rng)
        kind = rng.choice(("empty", "reversed", "shifted"))
        pred = adversarial_prediction(real, kind, rng.randrange(2**32))
        opt = brute_force_opt(real)[0]
        if opt == 0.0:
            continue
        for policy, gamma in ((GREEDY, 2.0), (MG, PHI)):
            sched, _ = lap_run(pred, real, 1.1, policy)
            got = schedule_weight(sched)
            ratio = math.inf if got == 0.0 else opt / got
            assert ratio <= 1.1 + gamma + 1.0 + 1e-9


def test_lap_combined_bound():
    # Per-pair bound: error within threshold gives the error itself,
    # otherwise the robustness cap applies (greedy fallback).
    rng = random.Random(71)
    rho = 1.5
    for _ in range(60):
        real = random_agreeable(rng)
        pred = adversarial_prediction(real, rng.choice(("empty", "reversed", "shifted")),
                                      rng.randrange(2**32))
        opt = brute_force_opt(real)[0]
        if opt == 0.0:
            continue
        eta = prediction_error(real, pred)
        sched, _ = lap_run(pred, real, rho, GREEDY)
        got = schedule_weight(sched)
        ratio = math.inf if got == 0.0 else opt / got
        cap = eta if eta <= rho else rho + 2.0 + 1.0
        assert ratio <= cap + 1e-9


def test_lap_bounds_on_large_generated_instances():
    # Past brute force, the optimum is the series' last value: the matching
    # is checked against brute force, per-prefix re-solves and the
    # metamorphic relations. Generated instances are agreeable, so MG's
    # ratio is at most phi. An exact prediction is a fresh copy of the
    # realization, so its optimum is solved apart from the series.
    rng = random.Random(79)
    specs = [GeneratorSpec("uniform", horizon=rng.randint(50, 400), seed=rng.randrange(2**32))
             for _ in range(12)]
    specs += [GeneratorSpec("powerlaw", horizon=rng.randint(20, 150), seed=rng.randrange(2**32))
              for _ in range(12)]
    for spec in specs:
        real = generate(spec)
        opt = real.prefix_opt[-1]
        predictions = {"exact": Instance.of(real.jobs, real.horizon)}
        for kind in ("empty", "reversed", "shifted"):
            predictions[kind] = adversarial_prediction(real, kind, rng.randrange(2**32))
        for kind, pred in predictions.items():
            for policy, c in ((GREEDY, 2.0), (MG, PHI)):
                for rho in (1.0, 1.1, 2.0):
                    sched, _ = lap_run(pred, real, rho, policy)
                    ratio = weight_ratio(opt, schedule_weight(sched))
                    if kind == "exact":
                        assert ratio == 1.0, (spec, policy.name, rho)
                    else:
                        assert ratio <= rho + c + 1.0, (spec, kind, policy.name, rho, ratio)


def test_trace_rows_are_the_records_of_the_run():
    # A run keeps its trace as columns and builds the LapSlot records on the
    # first read of rows. They must be the records of what the run did, as
    # the schedule and a recomputed local test say: the job and weight of
    # each slot, the ratio, and PREDICTION exactly where the test passed.
    rng = random.Random(61)
    rho = 1.1
    for inst in edge_shape_instances(rng):
        predictions = [inst] + [
            adversarial_prediction(inst, kind, rng.randrange(2**32))
            for kind in ("empty", "reversed", "shifted")
        ]
        for pred in predictions:
            for fallback in (GREEDY, MG):
                sched, trace = lap_run(pred, inst, rho, fallback)
                assert "rows" not in vars(trace)
                ratios = local_ratios_by_full_sums(pred, inst, trace)
                expected = tuple(
                    LapSlot(
                        t,
                        PREDICTION if ratio is not None and ratio <= rho else ONLINE,
                        job.id if job is not None else None,
                        job.weight if job is not None else 0.0,
                        ratio,
                    )
                    for t, (job, ratio) in enumerate(zip(sched.slots, ratios))
                )
                assert trace.rows == expected
                assert trace.rows is trace.rows
                passed = [r.t for r in expected if r.source == PREDICTION]
                assert trace.t_lambda == (passed[-1] + 1 if passed else 0)


def test_trace_csv(tmp_path, j1, j2):
    _, trace = lap_run(j1, j2, 1.1, GREEDY)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,source,job_id,weight,local_ratio"
    assert lines[1].startswith("0,prediction,a,")
    assert len(lines) == 4
