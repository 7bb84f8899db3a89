"""Metamorphic relations: checks that need no oracle.

``brute_force_opt`` stops at 12 jobs and the per-prefix re-solve at a few
hundred. Past that, the outputs on an instance are checked against the
outputs on a transformed copy of it, where the relation between the two
is known exactly:

- **scale** every weight of the realization and the prediction by 2.0:
  each series value doubles, and every schedule, η, trace row and local
  ratio is unchanged but for the doubled trace weights. Doubling a finite
  float is exact short of overflow (halving a subnormal is not, so the
  factor is 2.0, not 0.5);
- **shift** every release, deadline and the horizon by c: the series
  gains c leading 0.0s and every schedule c leading empty slots; η and
  every trace row from slot c on (apart from ``t``) are unchanged;
- **rename** every id in an order-preserving way (prefix ``"x"``):
  everything is unchanged up to the names.

The outputs compared are the realization's series, its optimum's ids, η,
``run_online`` under all four policies and the ``lap_run`` trace under all
four fallbacks. Each prediction is a weight-noise perturbation of its
realization.
"""

import random
from dataclasses import replace

from pktsched import (
    EDF,
    GREEDY,
    MG,
    GeneratorSpec,
    Instance,
    Job,
    LapSlot,
    OnlineStepPolicy,
    PerturbationSpec,
    generate,
    lap_run,
    opt_schedule,
    perturb,
    prediction_error,
    run_online,
)
from pktsched.lap import ONLINE
from conftest import (
    TIED_WEIGHTS,
    edge_shape_instances,
    long_instance,
    random_agreeable,
    random_instance,
)

POLICIES = (GREEDY, EDF, MG, OnlineStepPolicy("edf-alpha", 0.5))
RHO = 1.1


def _scaled(instance):
    jobs = [Job(j.id, j.release, j.deadline, 2.0 * j.weight) for j in instance.jobs]
    return Instance.of(jobs, instance.horizon)


def _shifted(instance, c):
    jobs = [Job(j.id, j.release + c, j.deadline + c, j.weight) for j in instance.jobs]
    return Instance.of(jobs, instance.horizon + c)


def _renamed(instance):
    jobs = [Job("x" + j.id, j.release, j.deadline, j.weight) for j in instance.jobs]
    return Instance.of(jobs, instance.horizon)


def _ids(schedule):
    return tuple(j.id if j is not None else None for j in schedule.slots)


def _outputs(realization, prediction):
    return dict(
        series=realization.prefix_opt,
        opt=_ids(opt_schedule(realization)),
        eta=prediction_error(realization, prediction),
        online=[_ids(run_online(p, realization)) for p in POLICIES],
        lap=[lap_run(prediction, realization, RHO, p)[1].rows for p in POLICIES],
    )


def _rename_id(job_id):
    return None if job_id is None else "x" + job_id


def _expected_scaled(base):
    return dict(
        base,
        series=tuple(2.0 * v for v in base["series"]),
        lap=[tuple(replace(r, weight=2.0 * r.weight) for r in rows) for rows in base["lap"]],
    )


def _expected_shifted(base, c):
    idle = (None,) * c
    idle_rows = tuple(LapSlot(t, ONLINE, None, 0.0, None) for t in range(c))
    return dict(
        base,
        series=(0.0,) * c + base["series"],
        opt=idle + base["opt"],
        online=[idle + ids for ids in base["online"]],
        lap=[idle_rows + tuple(replace(r, t=r.t + c) for r in rows) for rows in base["lap"]],
    )


def _expected_renamed(base):
    return dict(
        base,
        opt=tuple(map(_rename_id, base["opt"])),
        online=[tuple(map(_rename_id, ids)) for ids in base["online"]],
        lap=[
            tuple(replace(r, job_id=_rename_id(r.job_id)) for r in rows)
            for rows in base["lap"]
        ],
    )


def _check_relations(realization, seed, c):
    prediction = perturb(realization, PerturbationSpec("weight-gauss", sigma=0.2, seed=seed))
    base = _outputs(realization, prediction)
    assert _outputs(_scaled(realization), _scaled(prediction)) == _expected_scaled(base)
    assert _outputs(_shifted(realization, c), _shifted(prediction, c)) == (
        _expected_shifted(base, c)
    )
    assert _outputs(_renamed(realization), _renamed(prediction)) == _expected_renamed(base)


def _small_corpus(rng):
    yield from edge_shape_instances(rng, rounds=15)
    for _ in range(60):
        yield random_instance(rng, max_jobs=14, max_horizon=10)
        yield random_instance(rng, max_jobs=20, max_horizon=10, weights=TIED_WEIGHTS)
    for _ in range(15):
        yield random_agreeable(rng, max_window=20, lo=1, hi=4, max_slack=6)
    for horizon in (30, 60, 120, 240):
        yield long_instance(rng, horizon)


def test_relations_hold_on_small_instances():
    rng = random.Random(171)
    for realization in _small_corpus(rng):
        _check_relations(realization, seed=rng.randrange(2**32), c=rng.randint(1, 5))


def test_relations_hold_at_benchmark_size():
    # The shape of perfbench's wide_burst workload: about 2.5k jobs in
    # overloaded wide windows, so long augmenting paths and evictions.
    spec = GeneratorSpec("powerlaw", horizon=150, a=30.0, m=500.0, max_slack=40, seed=17)
    realization = generate(spec)
    assert len(realization.jobs) > 2000
    _check_relations(realization, seed=18, c=7)
