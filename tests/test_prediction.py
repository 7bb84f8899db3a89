import math
import random

from pktsched import (
    GREEDY,
    Instance,
    apply_choices,
    blind_follow,
    brute_force_opt,
    build_choices,
    lap_run,
    opt_schedule,
    prediction_error,
    schedule_weight,
)
from pktsched.experiments import PerturbationSpec, perturb
from conftest import mk, random_instance


def test_build_choices_examples(j1):
    assert build_choices(j1) == ("a", "b", None)
    assert build_choices(Instance.of([])) == (None,)
    late = mk([("x", 2, 4, 5.0)])
    assert build_choices(late) == (None, None, "x", None, None)


def test_apply_choices_examples(j1, j2):
    choices = build_choices(j1)
    identity = apply_choices(choices, j1)
    assert identity == opt_schedule(j1)
    assert schedule_weight(identity) == 1.01

    onto_j2 = apply_choices(choices, j2)
    assert [j.id if j else None for j in onto_j2.slots] == ["a", "b", None]
    assert schedule_weight(onto_j2) == 1.01

    missing = apply_choices(("ghost", None), j1)
    assert missing.slots[0] is None


def test_apply_choices_skips_infeasible_slots():
    # The chosen job exists but is not feasible at the choice's slot:
    # the slot stays a dummy (no rescue rescheduling).
    pred = mk([("x", 0, 1, 1.0)])
    real = mk([("x", 1, 3, 1.0)])
    applied = apply_choices(build_choices(pred), real)
    assert all(j is None for j in applied.slots)


def test_apply_choices_places_a_repeated_choice_once(j2):
    # A choice sequence may name a job twice; it runs at its first
    # feasible choice only, and the later choice leaves its slot empty.
    applied = apply_choices(("b", "b", "b"), j2)
    assert [j.id if j else None for j in applied.slots] == ["b", None, None]


def test_prediction_error_examples(j1, j2):
    assert prediction_error(j2, j2) == 1.0
    assert prediction_error(j2, j1) == 1.999 / 1.01
    assert prediction_error(j2, Instance.of([])) == math.inf
    assert prediction_error(Instance.of([]), Instance.of([])) == 1.0


def test_prediction_identity_property():
    rng = random.Random(211)
    for _ in range(60):
        inst = random_instance(rng)
        assert apply_choices(build_choices(inst), inst) == opt_schedule(inst)


def test_eta_at_least_one_when_prefixes_positive():
    rng = random.Random(223)
    seen = 0
    for _ in range(80):
        real = random_instance(rng, min_jobs=1)
        pred = perturb(
            real,
            PerturbationSpec("weight-gauss", sigma=0.3, seed=rng.randrange(2**32)),
        )
        eta = prediction_error(real, pred)
        if math.isinf(eta):
            continue
        seen += 1
        assert eta >= 1.0
    assert seen >= 40


def test_blind_follow_examples(j1, j2):
    assert schedule_weight(blind_follow(j2, j2)) == brute_force_opt(j2)[0]
    assert schedule_weight(blind_follow(j1, j2)) == 1.01
    assert schedule_weight(blind_follow(Instance.of([]), j2)) == 0.0


def test_blind_follow_smoothness():
    # Whenever the error is finite, the optimum is within a factor eta of
    # blindly following the prediction (checked against the oracle).
    rng = random.Random(227)
    checked = 0
    for _ in range(60):
        real = random_instance(rng, min_jobs=1)
        kind = rng.choice(("weight-gauss", "deadline-shift"))
        spec = (
            PerturbationSpec(kind, sigma=0.4, seed=rng.randrange(2**32))
            if kind == "weight-gauss"
            else PerturbationSpec(kind, k=2, seed=rng.randrange(2**32))
        )
        pred = perturb(real, spec)
        eta = prediction_error(real, pred)
        if math.isinf(eta):
            continue
        checked += 1
        opt_w = brute_force_opt(real)[0]
        assert opt_w <= eta * schedule_weight(blind_follow(pred, real)) + 1e-9
    assert checked >= 20


def test_perfect_prediction_is_exact():
    rng = random.Random(229)
    for _ in range(40):
        inst = random_instance(rng, min_jobs=1)
        assert prediction_error(inst, inst) == 1.0
        assert schedule_weight(blind_follow(inst, inst)) == brute_force_opt(inst)[0]


def test_error_of_an_undriven_instance_builds_no_buffer_tables():
    # The prediction error reads the realization's series and the
    # prediction's optimum and drives no run, as `pktsched eta` does: of the
    # per-slot tables only the series' released ranks are built, and only
    # on the realization.
    rng = random.Random(37)
    for k in range(30):
        real = random_instance(rng, max_jobs=12, max_horizon=10, min_jobs=1)
        pred = perturb(real, PerturbationSpec("weight-gauss", sigma=0.3, seed=k))
        prediction_error(real, pred)
        assert "released" in vars(real) and "released" not in vars(pred)
        for inst in (real, pred):
            assert "arrivals" not in vars(inst) and "expiring" not in vars(inst)


def test_the_prediction_is_read_by_rank_not_by_id():
    # The prediction's optimum is solved and placed on ranks, and its
    # choices are looked up in the realization: the error, LAP and the
    # blind follower build no id map of the prediction.
    rng = random.Random(41)
    for k in range(30):
        real = random_instance(rng, max_jobs=12, max_horizon=10, min_jobs=1)
        pred = perturb(real, PerturbationSpec("weight-gauss", sigma=0.3, seed=k))
        prediction_error(real, pred)
        lap_run(pred, real, 1.1, GREEDY)
        blind_follow(pred, real)
        assert "optimum" in vars(pred) and "by_id" not in vars(pred)
