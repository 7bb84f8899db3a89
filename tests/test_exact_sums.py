"""Exact running sums past the fold.

The prefix-optimum series, the prediction error and LAP's local test each
sum a running list of weights through ``core.folded``, which folds a long
list into ``exact_terms`` before the sum reads it. These checks run
instances of 150-400 slots, where every caller folds several times,
against full-list ``math.fsum`` oracles.
"""

import math
import random
from fractions import Fraction

import pytest

from pktsched import (
    EDF,
    GREEDY,
    MG,
    GeneratorSpec,
    Instance,
    Job,
    OnlineStepPolicy,
    competitive_ratio,
    generate,
    lap_run,
    opt_schedule,
    prediction_error,
    prefix_opt_series,
    schedule_weight,
)
from pktsched import core, offline
from pktsched.core import exact_terms
from conftest import (
    WIDE_WEIGHTS,
    adversarial_prediction,
    edge_shape_instances,
    long_instance,
    mk,
)
from reference import (
    local_ratios_by_full_sums,
    prediction_error_by_full_sums,
    resolved_prefix_opt,
)

FALLBACKS = (GREEDY, EDF, MG, OnlineStepPolicy("edf-alpha", 0.5))


def _fold_slots(horizon):
    """The slots on each side of every 64-slot boundary, and the last."""
    slots = {horizon}
    for boundary in range(64, horizon + 1, 64):
        slots.update(s for s in (boundary - 1, boundary, boundary + 1) if s <= horizon)
    return sorted(slots)


def _long_instances(rng, count):
    return [long_instance(rng, rng.randint(150, 400)) for _ in range(count)]


def _predictions(rng, inst):
    yield inst
    for kind in ("reversed", "shifted"):
        yield adversarial_prediction(inst, kind, rng.randrange(2**32))


def test_exact_terms_examples():
    assert exact_terms([]) == []
    assert exact_terms([0.0, 0.0]) == []
    assert exact_terms([0.1]) == [0.1]
    # 1e16 + 1 rounds to 1e16; the lost 1.0 is the second term.
    assert exact_terms([1e16, 1.0]) == [1e16, 1.0]
    assert exact_terms([5e-324, 1e300, 5e-324]) == [1e300, 1e-323]
    with pytest.raises(OverflowError, match="intermediate overflow in fsum"):
        exact_terms([1e308, 1e308])


def test_exact_terms_keep_the_exact_sum():
    rng = random.Random(401)
    for _ in range(400):
        xs = [rng.choice(WIDE_WEIGHTS) * rng.random() for _ in range(rng.randrange(200))]
        ys = [rng.choice(WIDE_WEIGHTS) * rng.random() for _ in range(rng.randrange(70))]
        terms = exact_terms(xs)
        assert sum(map(Fraction, terms)) == sum(map(Fraction, xs))
        assert math.fsum(terms + ys) == math.fsum(xs + ys)
        assert len(terms) <= 40
        # rng.random() draws multiples of 2**-53: two floats hold any such sum.
        assert len(exact_terms(rng.random() for _ in range(200))) <= 2


def test_prefix_series_past_the_fold_matches_resolve():
    rng = random.Random(409)
    instances = _long_instances(rng, 10)
    for inst in instances:
        values = prefix_opt_series(inst)
        for t in _fold_slots(inst.horizon):
            assert values[t] == resolved_prefix_opt(inst, t), t
    # Every slot of two instances: a replay undoes the weights it places
    # again by appending their negations, before and after folds.
    for inst in instances[:2]:
        values = prefix_opt_series(inst)
        assert values == tuple(
            resolved_prefix_opt(inst, t) for t in range(inst.horizon + 1)
        )


def test_prediction_error_matches_full_sums():
    rng = random.Random(419)
    for inst in _long_instances(rng, 8) + list(edge_shape_instances(rng)):
        for pred in _predictions(rng, inst):
            assert prediction_error(inst, pred) == prediction_error_by_full_sums(
                inst, pred
            )


@pytest.mark.parametrize("fallback", FALLBACKS, ids=lambda p: p.name)
def test_local_ratios_match_full_sums(fallback):
    rng = random.Random(421)
    past_the_fold = 0
    for inst in _long_instances(rng, 5) + list(edge_shape_instances(rng, rounds=10)):
        for pred in _predictions(rng, inst):
            for rho in (1.0, 1.1):
                _, trace = lap_run(pred, inst, rho, fallback)
                ratios = [row.local_ratio for row in trace.rows]
                assert ratios == local_ratios_by_full_sums(pred, inst, trace)
                past_the_fold += sum(r is not None for r in ratios[65:])
    assert past_the_fold >= 1000


def test_one_consistency_past_the_fold():
    rng = random.Random(431)
    instances = [
        generate(GeneratorSpec("uniform", horizon=300, lo=2, hi=8, max_slack=10, seed=s))
        for s in range(3)
    ] + _long_instances(rng, 3)
    for inst in instances:
        assert prediction_error(inst, inst) == 1.0
        best = schedule_weight(opt_schedule(inst))
        for fallback in FALLBACKS:
            sched, trace = lap_run(inst, inst, 1.0, fallback)
            ratios = [r.local_ratio for r in trace.rows if r.local_ratio is not None]
            assert len(ratios) > 100
            assert all(ratio <= 1.0 for ratio in ratios)
            assert competitive_ratio(inst, sched, best) == 1.0


def _sums(inst, pred):
    """Every exact sum read on a fresh copy of ``inst`` (so its series is
    solved again): the series, the prediction error against ``pred`` and
    each LAP run's local ratios, one list of floats per call."""
    real = Instance(inst.jobs, inst.horizon)
    found = [list(prefix_opt_series(real)), [prediction_error(real, pred)]]
    for fallback in FALLBACKS:
        _, trace = lap_run(pred, real, 1.0, fallback)
        found.append([r.local_ratio for r in trace.rows if r.local_ratio is not None])
    return found


def test_fold_cadence_leaves_every_sum_unchanged(monkeypatch):
    rng = random.Random(439)
    replays = generate(
        GeneratorSpec("powerlaw", horizon=100, a=30, m=300, max_slack=40, seed=1)
    )
    replay_heavy = generate(
        GeneratorSpec("powerlaw", horizon=200, a=30, m=400, max_slack=100, seed=2)
    )
    instances = _long_instances(rng, 3) + list(edge_shape_instances(rng, rounds=5))
    cases = [
        (inst, pred)
        for inst in instances + [replays, replay_heavy]
        for pred in _predictions(rng, inst)
    ]
    by_cadence = []
    for fold in (1, 16, 64, 10**9):
        monkeypatch.setattr(core, "_FOLD", fold)
        # repr tells -0.0 from 0.0: the sums must be bit-identical.
        by_cadence.append([repr(_sums(inst, pred)) for inst, pred in cases])
    assert by_cadence[0] == by_cadence[1] == by_cadence[2] == by_cadence[3]
    # Unfolded, the series' list keeps every entry: the heavier power-law
    # instance evicts over a hundred placed jobs, and each one undoes its
    # weight.
    lists = []
    monkeypatch.setattr(offline, "folded", lambda running: lists.append(running) or running)
    prefix_opt_series(replay_heavy)
    assert sum(w < 0 for w in lists[-1]) >= 100


@pytest.mark.parametrize("fold", [0, 1, 16, 64])
def test_no_sum_is_negative_zero(monkeypatch, fold):
    # z, of weight zero, is placed at slot 0; at slot 1 b evicts it, so the
    # series places slot 0 again and undoes z's weight. A negated zero in a
    # list that holds only zeros, or nothing once folded, would make fsum
    # return -0.0 on Pythons that keep the sign of a zero sum.
    monkeypatch.setattr(core, "_FOLD", fold)
    rng = random.Random(443)
    instances = [
        mk([("y", 0, 3, 1.0), ("z", 0, 2, weight), ("a", 1, 3, 1.0), ("b", 1, 3, 1.0)])
        for weight in (0.0, -0.0)
    ] + list(edge_shape_instances(rng, rounds=10))
    for inst in instances:
        assert prefix_opt_series(inst) == tuple(
            resolved_prefix_opt(inst, t) for t in range(inst.horizon + 1)
        )
        for pred in _predictions(rng, inst):
            for found in _sums(inst, pred):
                assert all(math.copysign(1.0, x) == 1.0 for x in found), found


def _huge_instance(rng):
    """70-200 slots of weights from 1e306 to 8e307: a few jobs up to 8e307,
    or many near 1e306, so the weight so far passes the float maximum on
    some instances, often late, and never on others."""
    horizon = rng.randint(70, 200)
    if rng.random() < 0.5:
        count, top = rng.randint(2, 10), 8e307
    else:
        count, top = rng.randint(60, 180), 2e306
    jobs = []
    for i in range(count):
        r = rng.randrange(horizon)
        d = rng.randint(r + 1, min(horizon, r + 4))
        jobs.append(Job(f"h{i:03d}", r, d, rng.uniform(1e306, top)))
    return Instance.of(jobs, horizon)


def _outcome(call, inst):
    """``call`` on a fresh copy of ``inst``, so it solves the series itself
    rather than read a memo: its result, or the text of the OverflowError
    it raised."""
    try:
        return call(Instance(inst.jobs, inst.horizon))
    except OverflowError as exc:
        return f"OverflowError: {exc}"


def _outcomes(cases):
    found = []
    for inst, pred in cases:
        found.append(_outcome(prefix_opt_series, inst))
        found.append(_outcome(lambda real: prediction_error(real, pred), inst))
        for fallback in FALLBACKS:
            found.append(_outcome(lambda real: lap_run(pred, real, 1.1, fallback), inst))
    return found


def test_overflow_matches_unfolded_sums(monkeypatch):
    # Each caller returns what it returns with no fold, or raises the same
    # OverflowError: a fold runs only right before a read of the same sum,
    # and every partial sum of the series' signed list lies between sums
    # that were read.
    rng = random.Random(433)
    cases = []
    for _ in range(60):
        inst = _huge_instance(rng)
        cases.append((inst, adversarial_prediction(inst, "reversed", 0)))
    folded = _outcomes(cases)
    monkeypatch.setattr(core, "_FOLD", 10**9)
    unfolded = _outcomes(cases)
    assert folded == unfolded
    raised = [o for o in folded if isinstance(o, str)]
    assert set(raised) == {"OverflowError: intermediate overflow in fsum"}
    assert 100 <= len(raised) <= len(folded) - 100
