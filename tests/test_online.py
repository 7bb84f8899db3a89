import random
from functools import cached_property
from itertools import chain

import pytest

from pktsched import (
    EDF,
    GREEDY,
    MG,
    PHI,
    GeneratorSpec,
    Instance,
    Job,
    OnlineStepPolicy,
    blind_follow,
    brute_force_opt,
    edf_alpha_step,
    edf_step,
    generate,
    greedy_step,
    lap_run,
    mg_step,
    pending_set,
    prediction_error,
    run_online,
    schedule_weight,
    validate_schedule,
)
from pktsched import core, lap, offline, online, prediction
from pktsched.core import edf_first, heavier_first
from pktsched.online import Buffer, drive
from conftest import (
    TIED_WEIGHTS,
    adversarial_prediction,
    edge_shape_instances,
    mk,
    pending_jobs,
    random_agreeable,
    random_instance,
    take,
)
import reference
from reference import dominates

# The rank tables every Buffer reads off its Instance.
SLOT_TABLES = ("released", "expiring")


def _buffer(rows):
    return Buffer(mk(rows, horizon=99)).at(0)


def _released_at_0(inst):
    # The instance's jobs, all released at slot 0, as a slot-0 buffer.
    jobs = [Job(j.id, 0, j.deadline, j.weight) for j in inst.jobs]
    return Buffer(Instance.of(jobs)).at(0)


def test_greedy_step():
    assert greedy_step(_buffer([("x", 0, 1, 2.0), ("y", 0, 2, 3.0)])) == "y"
    assert greedy_step(_buffer([])) is None
    assert greedy_step(_buffer([("a", 0, 1, 0.01), ("b", 0, 2, 1.0)])) == "b"


def test_edf_step():
    assert edf_step(_buffer([("x", 0, 1, 0.1), ("y", 0, 5, 9.0)])) == "x"
    assert edf_step(_buffer([("x", 0, 2, 1.0), ("y", 0, 2, 3.0)])) == "y"
    assert edf_step(_buffer([])) is None


def test_edf_alpha_step():
    assert edf_alpha_step(_buffer([("x", 0, 3, 10.0), ("y", 0, 1, 4.0)]), 0.5) == "x"
    assert edf_alpha_step(_buffer([("x", 0, 3, 10.0), ("y", 0, 1, 6.0)]), 0.5) == "y"
    with pytest.raises(ValueError):
        edf_alpha_step(_buffer([]), 0.0)
    with pytest.raises(ValueError):
        edf_alpha_step(_buffer([]), 1.5)


def test_edf_alpha_one_is_greedy():
    rng = random.Random(31)
    for _ in range(100):
        buffer = _released_at_0(random_instance(rng, min_jobs=1, max_jobs=6))
        assert edf_alpha_step(buffer, 1.0) == greedy_step(buffer)


def test_mg_step_threshold_rule():
    # Earliest non-dominated e vs heaviest h with threshold h / phi.
    assert mg_step(_buffer([("e", 0, 1, 1.0), ("h", 0, 5, 1.5)])) == "e"
    assert mg_step(_buffer([("e", 0, 1, 0.5), ("h", 0, 5, 1.5)])) == "h"
    assert mg_step(_buffer([("only", 0, 4, 2.0)])) == "only"
    assert mg_step(_buffer([])) is None


def test_mg_never_picks_dominated():
    rng = random.Random(37)
    for _ in range(100):
        buffer = _released_at_0(random_instance(rng, min_jobs=1, max_jobs=7))
        jobs = pending_jobs(buffer)
        pick = jobs[mg_step(buffer)]
        assert not any(dominates(other, pick) for other in jobs.values())


def _mg_by_dominance_filter(buffer):
    # The rule as stated: earliest non-dominated job vs the heaviest job.
    heaviest = min(buffer, key=lambda j: (-j.weight, j.id))
    non_dominated = [j for j in buffer if not any(dominates(k, j) for k in buffer)]
    earliest = min(non_dominated, key=lambda j: (j.deadline, -j.weight, j.id))
    return (earliest if earliest.weight >= heaviest.weight / PHI else heaviest).id


def test_mg_step_matches_dominance_filter_rule():
    # Few distinct deadlines and weights, so ties in both are common.
    rng = random.Random(43)
    for _ in range(2000):
        jobs = [
            Job(f"j{i}", 0, rng.randint(1, 4), rng.choice([0.3, 0.5, 0.62, 0.8, 1.0]))
            for i in range(rng.randint(1, 12))
        ]
        buffer = Buffer(Instance.of(jobs)).at(0)
        assert mg_step(buffer) == _mg_by_dominance_filter(pending_jobs(buffer).values())


def test_steps_pick_buffer_members():
    rng = random.Random(41)
    for _ in range(50):
        buffer = _released_at_0(random_instance(rng, min_jobs=1, max_jobs=6))
        ids = set(pending_jobs(buffer))
        for policy in (GREEDY, EDF, MG, OnlineStepPolicy("edf-alpha", 0.5)):
            assert policy.step(buffer) in ids
            assert policy.step(_buffer([])) is None


def test_buffer_matches_pending_set():
    # Slot by slot, the running buffer equals the full scan. Each slot runs
    # either the step rule's pick or, as LAP does when it follows the
    # prediction, some other pending job.
    rng = random.Random(53)
    policies = (GREEDY, EDF, MG, OnlineStepPolicy("edf-alpha", 0.5))
    randoms = (
        random_instance(rng, max_jobs=12, max_horizon=10, weights=TIED_WEIGHTS if k % 2 else None)
        for k in range(400)
    )
    for k, inst in enumerate(chain(randoms, edge_shape_instances(rng))):
        policy = policies[k % len(policies)]
        buffer = Buffer(inst)
        processed = set()
        for t in range(inst.horizon + 1):
            pending = pending_jobs(buffer.at(t))
            assert pending == {j.id: j for j in pending_set(inst, processed, t)}
            assert len(buffer) == len(pending)
            if not pending:
                continue
            if rng.random() < 0.5:
                job = inst.by_id[policy.step(buffer)]
            else:
                job = rng.choice(sorted(pending.values(), key=lambda j: j.id))
            take(buffer, job.id)
            processed.add(job.id)


def _differential_instances(rng):
    for k in range(300):
        weights = TIED_WEIGHTS if k % 2 else None
        yield random_instance(rng, max_jobs=14, max_horizon=10, weights=weights)
    # Overloaded power-law bursts: buffers of dozens of jobs, most of which
    # expire unrun, so stale heap tops are common.
    for seed in range(6):
        yield generate(
            GeneratorSpec("powerlaw", horizon=20, a=30, m=100, max_slack=12, seed=seed)
        )
    yield from edge_shape_instances(rng)


def test_indexed_rules_match_set_scan():
    # Slot by slot, the heap-indexed rules pick what a scan of the buffer
    # picks. Each slot runs either that pick or, as LAP does when it
    # follows the prediction, an arbitrary pending job.
    rng = random.Random(59)
    rules = (
        (greedy_step, reference.greedy_step),
        (edf_step, reference.edf_step),
        (mg_step, reference.mg_step),
    )
    for inst in _differential_instances(rng):
        buffer = Buffer(inst)
        for t in range(inst.horizon + 1):
            jobs = pending_jobs(buffer.at(t))
            picks = [rule(buffer) for rule, _ in rules]
            assert picks == [oracle(jobs.values()) for _, oracle in rules]
            if not jobs:
                continue
            if rng.random() < 0.5:
                job = inst.by_id[rng.choice(picks)]
            else:
                job = rng.choice(sorted(jobs.values(), key=lambda j: j.id))
            take(buffer, job.id)


@pytest.mark.parametrize("fallback", [GREEDY, EDF, MG, OnlineStepPolicy("edf-alpha", 0.5)])
def test_lap_trace_unchanged_under_set_scan_rules(monkeypatch, fallback):
    # LAP leaves the buffer unread at the slots where it follows the
    # prediction, so the heaps are fed late and skip jobs run or expired
    # meanwhile. _STEPS looks the rules up at call time, so the patch
    # reaches the fallback.
    import pktsched.online as online

    rng = random.Random(61)
    cases = []
    for k, inst in enumerate(_differential_instances(rng)):
        kind = ("empty", "reversed", "shifted")[k % 3]
        prediction = inst if k % 4 == 0 else adversarial_prediction(inst, kind, seed=k)
        cases.append((prediction, inst, rng.choice((1.0, 1.2, 2.0))))
    indexed = [lap_run(pred, real, rho, fallback) for pred, real, rho in cases]
    for name in ("greedy_step", "edf_step", "mg_step"):
        oracle = getattr(reference, name)
        monkeypatch.setattr(
            online, name, lambda buffer, oracle=oracle: oracle(pending_jobs(buffer).values())
        )
    assert [lap_run(pred, real, rho, fallback) for pred, real, rho in cases] == indexed


def test_run_loop_never_hashes_a_job(monkeypatch):
    # The buffer keeps its pending jobs as int ranks: a Job's dataclass
    # hash is a Python-level call, so no admission, expiry, heap read or
    # take pays for it. The prefix-optimum series is memoized on its
    # instance, so reading it hashes nothing either.
    instances = (
        generate(GeneratorSpec("uniform", horizon=60, seed=5)),
        # Overloaded: most jobs expire unrun, so stale heap tops are common.
        generate(GeneratorSpec("powerlaw", horizon=20, a=30, m=100, max_slack=12, seed=6)),
    )
    cases = [
        (inst, pred)
        for k, inst in enumerate(instances)
        for pred in (inst, *(adversarial_prediction(inst, kind, seed=k)
                             for kind in ("reversed", "shifted")))
    ]
    policies = (GREEDY, EDF, MG, OnlineStepPolicy("edf-alpha", 0.5))

    def hashed(job):
        raise AssertionError("Job hashed")

    monkeypatch.setattr(Job, "__hash__", hashed)
    for inst, pred in cases:
        assert prediction_error(inst, pred) >= 1.0
        assert validate_schedule(inst, blind_follow(pred, inst))[0]
        for fallback in policies:
            assert validate_schedule(inst, lap_run(pred, inst, 1.1, fallback)[0])[0]
    for inst in instances:
        for policy in policies:
            assert validate_schedule(inst, run_online(policy, inst))[0]
        buffer = Buffer(inst)
        for t in range(inst.horizon + 1):
            pending = buffer.at(t).pending
            if pending:
                assert buffer.heaviest() is not None and buffer.earliest() is not None
                # An arbitrary pending job, as LAP takes when it follows
                # the prediction.
                pending.remove(max(pending))


def test_runs_sharing_an_instance_match_runs_on_fresh_instances():
    # Every Buffer reads the heavier_first order and the per-slot rank
    # tables kept on its Instance: runs that share one Instance, in either
    # order, give what runs on fresh copies give, and leave the shared
    # order and tables as built.
    def fresh(inst):
        return Instance(inst.jobs, inst.horizon)

    rng = random.Random(19)
    instances = [
        generate(GeneratorSpec("uniform", horizon=40, seed=19)),
        generate(GeneratorSpec("powerlaw", horizon=20, a=30, m=100, max_slack=12, seed=19)),
        *(random_instance(rng, max_jobs=10, max_horizon=10) for _ in range(20)),
    ]
    policies = (GREEDY, EDF, MG, OnlineStepPolicy.parse("edf-alpha:0.5"))
    for k, inst in enumerate(instances):
        pred = adversarial_prediction(inst, "shifted", seed=k)
        runs = [lambda real, p=p: run_online(p, real) for p in policies]
        runs += [lambda real, p=p: lap_run(pred, real, 1.1, p) for p in policies]
        expected = [run(fresh(inst)) for run in runs]
        for order in (runs, runs[::-1]):
            shared = fresh(inst)
            results = [run(shared) for run in order]
            if order is not runs:
                results.reverse()
            assert results == expected
            ranked = [shared.record(rank) for rank in shared.ranks]
            assert ranked == sorted(inst.jobs, key=heavier_first)
            assert shared.by_rank == fresh(inst).by_rank
            assert [getattr(shared, name) for name in SLOT_TABLES] == [
                getattr(fresh(inst), name) for name in SLOT_TABLES
            ]


def test_slot_index_holds_each_slots_changes():
    # The rank-ordered columns, the id-to-rank map, each slot's released
    # and expiring ranks against scans of the jobs, and the heaps'
    # deadline * n + rank keys against the edf_first order; ties included.
    rng = random.Random(23)
    instances = [
        generate(GeneratorSpec("powerlaw", horizon=20, a=30, m=100, max_slack=12, seed=23)),
        *(random_instance(rng, max_jobs=12, max_horizon=10, weights=TIED_WEIGHTS) for _ in range(50)),
    ]
    for inst in instances:
        n = len(inst.jobs)
        ranked = sorted(inst.jobs, key=heavier_first)
        assert [inst.record(rank) for rank in inst.ranks] == ranked
        assert list(zip(*inst.by_rank)) == [(j.id, j.release, j.deadline, j.weight) for j in ranked]
        assert inst.rank_of == {j.id: rank for rank, j in enumerate(ranked)}
        assert inst.edf_keys == tuple(j.deadline * n + rank for rank, j in enumerate(ranked))
        keys = sorted(inst.edf_keys)
        assert [ranked[key % n] for key in keys] == sorted(inst.jobs, key=edf_first)
        for t in range(inst.horizon + 1):
            assert [ranked[r] for r in inst.released[t]] == [j for j in ranked if j.release == t]
            assert [ranked[r] for r in inst.expiring[t]] == [j for j in ranked if j.deadline == t]


def test_buffer_skipping_slots_matches_slot_by_slot():
    # at(t) after at(s) with s < t - 1 admits and expires every slot in
    # between, past the horizon too, and the heaps are fed what is pending.
    rng = random.Random(29)
    randoms = (random_instance(rng, max_jobs=12, max_horizon=10) for _ in range(200))
    for inst in chain(randoms, edge_shape_instances(rng)):
        h = inst.horizon
        stops = [(0, 7), (0, h + 1), (0, h + 5), (h, h + 3)]
        stops += [tuple(sorted(rng.sample(range(h + 4), 2))) for _ in range(3)]
        for first, second in stops:
            skipping, stepping = Buffer(inst), Buffer(inst)
            processed = set()
            skipping.at(first)
            for t in range(first + 1):
                stepping.at(t)
            assert skipping.pending == stepping.pending
            if skipping.pending:
                job_id = greedy_step(skipping)
                assert job_id == greedy_step(stepping)
                take(skipping, job_id)
                take(stepping, job_id)
                processed.add(job_id)
            skipping.at(second)
            for t in range(first + 1, second + 1):
                stepping.at(t)
            assert skipping.pending == stepping.pending
            jobs = pending_jobs(skipping)
            assert jobs == {j.id: j for j in pending_set(inst, processed, second)}
            for rule in (greedy_step, edf_step, mg_step):
                assert rule(skipping) == rule(stepping)
                assert rule(skipping) == getattr(reference, rule.__name__)(jobs.values())


def test_runs_on_a_solved_instance_sort_no_jobs(monkeypatch):
    # The optimum, the series and every run share the instance's one
    # heavier_first order: once an instance's optimum or series has been
    # read, its runs build no order again and sort no Job records at all;
    # the online runs, which build the per-slot tables and feed the heaps
    # their int keys, sort nothing.
    builds, job_sorts, sorts = [], [], []
    build = Instance.__dict__["by_rank"].func

    def counted(instance):
        builds.append(instance)
        return build(instance)

    def sorting(iterable, **kwargs):
        items = list(iterable)
        sorts.append(items)
        if any(isinstance(item, Job) for item in items):
            job_sorts.append(items)
        return sorted(items, **kwargs)

    prop = cached_property(counted)
    prop.__set_name__(Instance, "by_rank")
    monkeypatch.setattr(Instance, "by_rank", prop)
    for module in (core, offline, online, lap, prediction):
        monkeypatch.setattr(module, "sorted", sorting, raising=False)
    rng = random.Random(31)
    policies = (GREEDY, EDF, MG, OnlineStepPolicy.parse("edf-alpha:0.5"))
    for k in range(20):
        inst = generate(GeneratorSpec("uniform", horizon=30, seed=k))
        pred = adversarial_prediction(inst, "shifted", seed=k)
        builds.clear()
        pred.optimum
        if k % 2:
            inst.optimum
        else:
            inst.prefix_opt
        assert list(map(id, builds)) == [id(pred), id(inst)]
        job_sorts.clear()
        sorts.clear()
        for policy in policies:
            run_online(policy, inst)
        assert sorts == []
        for policy in policies:
            lap_run(pred, inst, rng.choice((1.0, 1.1, 2.0)), policy)
        assert list(map(id, builds)) == [id(pred), id(inst)]
        assert job_sorts == []


def test_run_online_examples(j2):
    greedy = run_online(GREEDY, j2)
    assert [j.id if j else None for j in greedy.slots] == ["b", "c", None]
    assert schedule_weight(greedy) == 1.999

    edf = run_online(EDF, j2)
    assert [j.id if j else None for j in edf.slots] == ["a", "b", None]
    assert schedule_weight(edf) == 1.01

    empty = Instance.of([])
    for policy in (GREEDY, EDF, MG, OnlineStepPolicy("edf-alpha", 0.5)):
        assert all(j is None for j in run_online(policy, empty).slots)


def test_drive_calls_pick_once_per_slot_after_at():
    # Slots 0..4 in order, each with the one buffer after at(t): a expires
    # at 1, b and c at 2, and nothing is pending after that.
    inst = mk([("a", 0, 1, 0.01), ("b", 0, 2, 1.0), ("c", 1, 2, 0.999)], horizon=4)
    for runs in ({}, {0: "a", 1: "b"}, {1: "c"}):
        calls, buffers, done = [], set(), set()

        def pick(t, buffer):
            assert pending_jobs(buffer) == {j.id: j for j in pending_set(inst, done, t)}
            calls.append(t)
            buffers.add(id(buffer))
            job_id = runs.get(t)
            if job_id is not None:
                done.add(job_id)
            return job_id

        schedule = drive(inst, pick)
        assert calls == [0, 1, 2, 3, 4] and len(buffers) == 1
        # A None pick leaves its slot empty and the buffer as it was.
        assert [j.id if j else None for j in schedule.slots] == [
            runs.get(t) for t in range(5)
        ]


@pytest.mark.parametrize("stale", ["a", "b"])
def test_drive_raises_on_a_pick_that_is_not_pending(monkeypatch, j2, stale):
    # greedy_step names b at slot 0 and then a job that is no longer
    # pending at slot 1: a has expired, b has run.
    import pktsched.online as online

    monkeypatch.setattr(
        online, "greedy_step", lambda buffer: "b" if "a" in pending_jobs(buffer) else stale
    )
    with pytest.raises(KeyError):
        run_online(GREEDY, j2)
    # An empty prediction hands every slot to the fallback.
    with pytest.raises(KeyError):
        lap_run(Instance.of([]), j2, 1.0, GREEDY)


def test_run_online_always_valid():
    rng = random.Random(43)
    for _ in range(40):
        inst = random_instance(rng)
        for policy in (GREEDY, EDF, MG, OnlineStepPolicy("edf-alpha", 0.5)):
            ok, violations = validate_schedule(inst, run_online(policy, inst))
            assert ok, violations


def test_empirical_competitiveness_on_agreeable():
    rng = random.Random(47)
    for _ in range(120):
        inst = random_agreeable(rng)  # stays under the brute-force guard
        opt = brute_force_opt(inst)[0]
        if opt == 0.0:
            continue
        assert opt / schedule_weight(run_online(GREEDY, inst)) <= 2.0 + 1e-9
        assert opt / schedule_weight(run_online(MG, inst)) <= PHI + 1e-9


def test_policy_parse_and_validation():
    assert OnlineStepPolicy.parse("greedy") == GREEDY
    assert OnlineStepPolicy.parse("edf-alpha:0.5") == OnlineStepPolicy("edf-alpha", 0.5)
    with pytest.raises(ValueError):
        OnlineStepPolicy.parse("edf-alpha")
    with pytest.raises(ValueError):
        OnlineStepPolicy("nope")
    with pytest.raises(ValueError):
        OnlineStepPolicy("greedy", alpha=0.5)
    with pytest.raises(ValueError):
        OnlineStepPolicy.parse("greedy:0.5")
    with pytest.raises(ValueError):
        OnlineStepPolicy.parse("edf-alpha:1.5")
    # A bool is an int but no threshold: True would otherwise pass as 1.
    for flag in (True, False):
        with pytest.raises(ValueError, match=rf"^edf-alpha requires alpha in \(0, 1\], got {flag}$"):
            OnlineStepPolicy("edf-alpha", flag)
    assert OnlineStepPolicy("edf-alpha", 1).alpha == 1


def test_policy_step_looks_up_rule_at_call_time(monkeypatch):
    # A tracer rebinds the module's step functions; every policy must see it.
    import pktsched.online as online

    buffer = _buffer([("x", 0, 1, 2.0)])
    for name, policy in (
        ("greedy_step", GREEDY),
        ("edf_step", EDF),
        ("mg_step", MG),
        ("edf_alpha_step", OnlineStepPolicy("edf-alpha", 0.5)),
    ):
        monkeypatch.setattr(online, name, lambda *args: "rebound")
        assert policy.step(buffer) == "rebound"
