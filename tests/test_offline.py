import random
from itertools import compress

import pytest

from pktsched import (
    GeneratorSpec,
    Instance,
    Job,
    PerturbationSpec,
    TooLarge,
    brute_force_opt,
    canonicalize,
    generate,
    opt_schedule,
    perturb,
    prefix_opt_series,
    schedule_weight,
    validate_schedule,
)
from pktsched import offline
from pktsched.offline import (
    BRUTE_FORCE_MAX_HORIZON,
    BRUTE_FORCE_MAX_JOBS,
    _optimal_ranks,
)
from conftest import TIED_WEIGHTS, edge_shape_instances, long_instance, mk, random_instance
from reference import (
    greedy_ranks_by_edf,
    prefix_weight,
    release_prefix,
    resolved_prefix_opt,
    walking_selection,
    walking_series,
)


def test_opt_schedule_examples(j2):
    assert schedule_weight(opt_schedule(j2)) == 1.999

    single = mk([("x", 0, 3, 7.0)])
    sched = opt_schedule(single)
    assert schedule_weight(sched) == 7.0
    assert sched.slots[0].id == "x"  # canonical: earliest feasible slot

    inst = mk([("a", 0, 2, 3.0), ("b", 0, 1, 2.0), ("c", 0, 1, 1.0)])
    assert schedule_weight(opt_schedule(inst)) == 5.0


def test_brute_force_examples(j2):
    assert brute_force_opt(j2)[0] == 1.999
    assert brute_force_opt(Instance.of([]))[0] == 0.0
    inst = mk([("a", 0, 2, 3.0), ("b", 0, 1, 2.0), ("c", 0, 1, 1.0)])
    weight, sched = brute_force_opt(inst)
    assert weight == 5.0
    assert validate_schedule(inst, sched)[0]


def test_brute_force_guard():
    jobs = [(f"j{i:02d}", 0, 13, float(i + 1)) for i in range(13)]
    with pytest.raises(TooLarge):
        brute_force_opt(mk(jobs, horizon=13))


def test_oracle_equivalence():
    rng = random.Random(101)
    for _ in range(100):
        inst = random_instance(rng)
        assert schedule_weight(opt_schedule(inst)) == brute_force_opt(inst)[0]


def test_oracle_equivalence_on_edge_shapes():
    # The tied shapes reach 20 jobs, past the oracle's guard.
    rng = random.Random(137)
    kept = [
        inst
        for inst in edge_shape_instances(rng)
        if len(inst.jobs) <= BRUTE_FORCE_MAX_JOBS
        and inst.horizon <= BRUTE_FORCE_MAX_HORIZON
    ]
    assert len(kept) == 139  # of 162
    for inst in kept:
        assert schedule_weight(opt_schedule(inst)) == brute_force_opt(inst)[0]


def test_opt_schedule_always_valid():
    rng = random.Random(103)
    for _ in range(50):
        inst = random_instance(rng)
        ok, violations = validate_schedule(inst, opt_schedule(inst))
        assert ok, violations


def test_prefix_series_examples(j2):
    assert prefix_opt_series(j2) == (0.01, 1.999, 1.999)

    single = mk([("x", 0, 3, 7.0)])
    assert prefix_opt_series(single) == (7.0, 7.0, 7.0, 7.0)

    assert prefix_opt_series(Instance.of([])) == (0.0,)


def test_prefix_series_monotone_and_bounded():
    rng = random.Random(107)
    for _ in range(60):
        inst = random_instance(rng)
        values = prefix_opt_series(inst)
        total = schedule_weight(opt_schedule(inst))
        assert len(values) == inst.horizon + 1
        for t, v in enumerate(values):
            assert v >= 0.0
            assert v <= total
            if t:
                assert v >= values[t - 1]


def test_prefix_series_matches_per_t_recompute():
    # The incremental maintenance must agree with re-solving the matching
    # on every release prefix, and with the exhaustive oracle. With tied
    # weights the oracle may return another optimal set, whose canonical
    # prefix weight can differ, so tied instances check the matching only;
    # they catch an exchange that breaks ties unlike the greedy. Instances
    # beyond the oracle's guard also check the matching only.
    rng = random.Random(109)
    for _ in range(40):
        inst = random_instance(rng)
        values = prefix_opt_series(inst)
        for t in range(inst.horizon + 1):
            prefix = release_prefix(inst, t)
            assert values[t] == prefix_weight(opt_schedule(prefix), t)
            assert values[t] == prefix_weight(brute_force_opt(prefix)[1], t)
    tied = [
        random_instance(rng, max_jobs=16, max_horizon=10, weights=TIED_WEIGHTS)
        for _ in range(300)
    ]
    # Overloaded power-law bursts with windows up to 12 slots wide: most
    # jobs are rejected, and releases often evict jobs the earliest-deadline
    # placement already holds, so the series places those slots again.
    overloaded = [
        generate(
            GeneratorSpec("powerlaw", horizon=20, a=30, m=100, max_slack=12, seed=seed)
        )
        for seed in range(8)
    ]
    assert all(len(opt_schedule(i).job_ids()) < len(i.jobs) for i in overloaded)
    for inst in tied + overloaded:
        values = prefix_opt_series(inst)
        for t in range(inst.horizon + 1):
            assert values[t] == resolved_prefix_opt(inst, t)


def _series_by_resolve(inst):
    """values[t] re-solved from scratch on the jobs released by t."""
    return tuple(resolved_prefix_opt(inst, t) for t in range(inst.horizon + 1))


def _series_fuzz_instances(rng):
    for _ in range(150):
        yield random_instance(rng, max_jobs=14, max_horizon=10)
    yield from edge_shape_instances(rng, rounds=150)
    # Overloaded power-law bursts with wide windows: most newcomers are
    # rejected, many inside the interval the previous failed search closed.
    for seed in range(6):
        yield generate(
            GeneratorSpec(
                "powerlaw",
                horizon=rng.randint(15, 30),
                a=30,
                m=rng.choice((100.0, 500.0)),
                max_slack=rng.randint(8, 25),
                seed=seed,
            )
        )


def test_prefix_series_fuzz_matches_per_prefix_resolve():
    rng = random.Random(127)
    for inst in _series_fuzz_instances(rng):
        assert prefix_opt_series(inst) == _series_by_resolve(inst)


def test_series_rejects_inside_last_closed_interval_without_search(monkeypatch):
    inst = generate(
        GeneratorSpec("powerlaw", horizon=30, a=30, m=500, max_slack=25, seed=0)
    )
    searched = []

    def counted(*args):
        searched.append(args)
        return compress(*args)

    # The series looks the tight scan's compress up in offline at each call.
    monkeypatch.setattr(offline, "compress", counted)
    values = prefix_opt_series(inst)
    assert values == walking_series(inst)
    assert values[-1] == schedule_weight(opt_schedule(inst))
    # 297 newcomers, 60 tight searches: the rest fit with no pending job
    # at or past their deadline, or are rejected by the shortcut. Without
    # the shortcut's refresh after an eviction it would be 69.
    assert len(searched) == 60 < len(inst.ids) / 2


def _release_order_corpus(rng):
    """The fuzz corpus, then one instance of each benchmark shape and its
    weight-gauss perturbation."""
    yield from _series_fuzz_instances(rng)
    for spec in (
        GeneratorSpec("powerlaw", horizon=150, a=30, m=500, max_slack=40, seed=1),
        GeneratorSpec("uniform", horizon=1200, lo=2, hi=8, max_slack=10, seed=1),
    ):
        inst = generate(spec)
        yield inst
        yield perturb(inst, PerturbationSpec("weight-gauss", sigma=0.2, seed=2))


def test_series_matches_the_walking_series():
    # The reference series inserts each release into a matching that
    # searches slot by slot and shares no code with the series.
    inserts = 0
    for inst in _release_order_corpus(random.Random(149)):
        assert prefix_opt_series(inst) == walking_series(inst)
        inserts += len(inst.ids)
    assert inserts > 20000


def _all_at_zero(rng, jobs, horizon):
    """``jobs`` jobs all released at 0, with deadlines spread over
    1..horizon: the pending list holds every selected job at first."""
    return Instance.of(
        [
            Job(f"j{i:04d}", 0, rng.randint(1, horizon), rng.choice((rng.random(), 0.5, 0.0)))
            for i in range(jobs)
        ]
    )


def test_series_with_long_pending_lists():
    # Windows as wide as the horizon. In all but the one-job-a-slot shape
    # hundreds to over a thousand selected jobs wait at once, so the tight
    # scan and the circuit reach far into the pending list and evictions
    # replay long stretches of placed slots.
    rng = random.Random(173)
    large = [
        generate(GeneratorSpec("uniform", horizon=2000, lo=0, hi=3, max_slack=2000, seed=1)),
        generate(GeneratorSpec("uniform", horizon=3000, lo=1, hi=1, max_slack=3000, seed=2)),
        _all_at_zero(rng, 1500, 3000),
        _all_at_zero(rng, 3000, 1000),
    ]
    for inst in large:
        assert prefix_opt_series(inst) == walking_series(inst)
    small = [
        generate(GeneratorSpec("uniform", horizon=h, lo=0, hi=3, max_slack=h, seed=seed))
        for seed, h in enumerate((8, 12, 20, 30))
    ] + [_all_at_zero(rng, jobs, horizon) for jobs, horizon in ((10, 30), (30, 12), (40, 40))]
    for inst in small:
        assert prefix_opt_series(inst) == walking_series(inst) == _series_by_resolve(inst)


def test_series_fills_idle_stretches_in_bulk(monkeypatch):
    # a waits a million slots; b takes slot 0 and a slot 1. The series
    # sums once for each of those slots and once for all the idle ones.
    sums = []
    monkeypatch.setattr(offline, "folded", lambda running: sums.append(1) or running)
    inst = mk([("a", 0, 10**6, 1.0), ("b", 0, 2, 0.5)])
    values = prefix_opt_series(inst)
    assert len(sums) == 3
    assert values[:2] == (0.5, 1.5) and set(values[2:]) == {1.5}
    assert len(values) == 10**6 + 1
    # Idle stretches before, between and after releases.
    gaps = mk([("c", 5, 7, 2.0), ("d", 5, 6, 1.0), ("e", 40, 42, 3.0)], horizon=90)
    sums.clear()
    assert prefix_opt_series(gaps) == walking_series(gaps) == _series_by_resolve(gaps)
    assert len(sums) == 6
    rng = random.Random(179)
    for _ in range(20):
        inst, _ = _gapped(rng)
        assert prefix_opt_series(inst) == walking_series(inst)


@pytest.mark.parametrize(
    "rows, expected",
    [
        # At t=1, d cannot fit and evicts a, which EDF had placed at slot 0;
        # b takes slot 0 in the replay.
        (
            [("a", 0, 2, 1.0), ("b", 0, 3, 2.0), ("c", 1, 3, 5.0), ("d", 1, 3, 4.0)],
            (1.0, 7.0, 11.0, 11.0),
        ),
        # At t=2, z evicts a from slot 0. x (released at 1, placed at 1) is
        # replayed too and must not move to slot 0, where it would beat b.
        (
            [("a", 0, 3, 1.0), ("b", 0, 4, 2.0), ("x", 1, 4, 3.0),
             ("y", 2, 4, 10.0), ("z", 2, 4, 9.0)],
            (1.0, 4.0, 15.0, 24.0, 24.0),
        ),
    ],
)
def test_prefix_series_replays_after_evicting_a_placed_job(rows, expected):
    inst = mk(rows)
    assert prefix_opt_series(inst) == expected
    for t, value in enumerate(expected):
        assert value == resolved_prefix_opt(inst, t)


def test_prefix_dominance_of_full_optimum():
    # The full-horizon optimum never trails the prefix optimum on any prefix.
    rng = random.Random(113)
    for _ in range(60):
        inst = random_instance(rng)
        values = prefix_opt_series(inst)
        full = opt_schedule(inst)
        for t in range(inst.horizon + 1):
            assert prefix_weight(full, t) >= values[t]


def test_prefix_series_cached(j2):
    assert j2.prefix_opt is j2.prefix_opt == prefix_opt_series(j2)


def _ratio_source_corpus(rng):
    for _ in range(60):
        yield random_instance(rng, max_jobs=14, max_horizon=10)
        yield random_instance(rng, max_jobs=20, max_horizon=10, weights=TIED_WEIGHTS)
    yield from edge_shape_instances(rng, rounds=20)
    for seed in range(3):
        yield generate(
            GeneratorSpec("powerlaw", horizon=30, a=30, m=500, max_slack=25, seed=seed)
        )
    for horizon in (40, 200, 400):
        yield long_instance(rng, horizon)


def test_series_end_is_the_optimum_weight_and_the_optimum_is_kept():
    # pktsched run divides by prefix_opt[-1] when a prediction was given
    # and by the optimum's weight otherwise: the two must agree bit for bit.
    rng = random.Random(151)
    for inst in _ratio_source_corpus(rng):
        assert inst.prefix_opt[-1] == schedule_weight(opt_schedule(inst))
        assert opt_schedule(inst) is opt_schedule(inst) is inst.optimum
        # A kept optimum is not part of the value: an unsolved twin still
        # compares and hashes equal.
        twin = Instance.of(inst.jobs, inst.horizon)
        assert "optimum" not in vars(twin)
        assert twin == inst and hash(twin) == hash(inst)
        assert opt_schedule(twin) == opt_schedule(inst)


def test_long_augmenting_chain():
    # Each c<i> can run in slot i or i+1 and z only in slot 0, so placing z
    # last (the greedy order) or c<t> at release t (the prefix series)
    # shifts a chain of up to n jobs: far deeper than the recursion limit.
    n = 3001
    jobs = [Job(f"c{i}", i, i + 2, 2 - i / n) for i in range(n)]
    inst = Instance.of(jobs + [Job("z", 0, 1, 1e-3)])
    assert schedule_weight(opt_schedule(inst)) == 4502.001
    assert prefix_opt_series(inst)[-1] == 4502.001


def _ids(instance, ranks):
    """The ids of the jobs of the given ranks."""
    return {instance.by_rank.ids[rank] for rank in ranks}


def test_opt_matches_matroid_greedy_on_overloaded_wide_windows():
    # Hundreds of jobs with windows up to 25 slots wide, most rejected:
    # far beyond brute force, and the shape where a failed search proves
    # a whole interval of slots full.
    for seed in range(4):
        inst = generate(
            GeneratorSpec("powerlaw", horizon=30, a=30, m=500, max_slack=25, seed=seed)
        )
        opt = opt_schedule(inst)
        assert len(inst.jobs) >= 250
        assert len(opt.job_ids()) < len(inst.jobs) / 4
        assert opt.job_ids() == _ids(inst, greedy_ranks_by_edf(inst))
        assert prefix_opt_series(inst)[-1] == schedule_weight(opt)


def _non_agreeable(rng, weights):
    """40-200 jobs whose windows nest and cross at random, so release
    order and deadline order disagree."""
    horizon = rng.randint(10, 60)
    jobs = []
    for i in range(rng.randint(40, 200)):
        r = rng.randrange(horizon)
        d = rng.randint(r + 1, min(horizon, r + rng.randint(1, horizon)))
        jobs.append(Job(f"j{i:03d}", r, d, rng.choice(weights)))
    return Instance.of(jobs)


def test_matching_matches_greedy_edf_oracle_past_brute_force():
    # Far past the brute-force guard, an oracle that shares no code with
    # the matching: tied weights and crossing windows, most jobs rejected.
    rng = random.Random(139)
    for k in range(30):
        inst = _non_agreeable(rng, TIED_WEIGHTS if k % 3 else TIED_WEIGHTS + (0.75, 2.0))
        expected = _ids(inst, greedy_ranks_by_edf(inst))
        assert opt_schedule(inst).job_ids() == expected
        assert prefix_opt_series(inst)[-1] == schedule_weight(canonicalize(inst, expected))
        assert prefix_opt_series(inst) == walking_series(inst)


def _gapped(rng):
    """Random jobs whose windows each lie between two holes: slots that no
    window holds, so the jobs can never take every slot of their span."""
    horizon = rng.randint(12, 120)
    holes = sorted(rng.sample(range(1, horizon - 1), rng.randint(1, 4)))
    bounds = [0] + [h for hole in holes for h in (hole, hole + 1)] + [horizon]
    segments = [(a, b) for a, b in zip(bounds[::2], bounds[1::2]) if a < b]
    jobs = []
    for i in range(rng.randint(20, 300)):
        lo, hi = rng.choice(segments)
        r = rng.randrange(lo, hi)
        d = rng.randint(r + 1, min(hi, r + rng.randint(1, 8)))
        jobs.append(Job(f"j{i:03d}", r, d, rng.choice((rng.random(), 0.0, 5e-324, 0.5))))
    return Instance.of(jobs), holes


def test_greedy_selects_the_independent_oracles_ranks_at_scale():
    # Two oracles that share no code with the greedy, neither with a
    # shortcut of its own: the matroid greedy over Jackson's rule, up to
    # a few thousand jobs, and past that the selection of the plain
    # matching that inserts every job in release order, with evictions.
    rng = random.Random(157)
    specs = [
        GeneratorSpec("uniform", horizon=horizon, lo=2, hi=8, max_slack=10, seed=seed)
        for horizon, seed in ((100, 1), (300, 2), (1200, 3))
    ] + [
        GeneratorSpec("powerlaw", horizon=horizon, a=30, m=500, max_slack=slack, seed=seed)
        for horizon, slack, seed in ((30, 25, 4), (80, 40, 5), (150, 40, 6))
    ]
    sizes = []
    for spec in specs:
        inst = generate(spec)
        sizes.append(len(inst.ids))
        oracle = greedy_ranks_by_edf if len(inst.ids) < 5000 else walking_selection
        for case in (
            inst,
            perturb(inst, PerturbationSpec("deadline-shift", k=3, seed=spec.seed)),
            perturb(inst, PerturbationSpec("weight-gauss", sigma=0.3, seed=spec.seed)),
        ):
            assert sorted(_optimal_ranks(case)) == sorted(oracle(case))
    assert min(sizes) >= 300 and max(sizes) >= 5000
    for _ in range(60):
        inst, holes = _gapped(rng)
        ranks = _optimal_ranks(inst)
        assert sorted(ranks) == sorted(greedy_ranks_by_edf(inst))
        # Every job is held or was rejected, yet slots are left over: the
        # stop, at one job per slot of the span, never fired.
        _, release, deadline, _ = inst.by_rank
        assert any(min(release) < h < max(deadline) for h in holes)
        assert len(ranks) < max(deadline) - min(release)
        assert not any(r <= h < d for r, d in zip(release, deadline) for h in holes)


def _spy_on_greedy(monkeypatch):
    """Record, for each greedy run that walks, the free slots left in its
    span [earliest release, latest deadline) at every ``_next_open`` call
    (a start proven full), and for every ``_walk`` call a tuple: the free
    slots left in the span, whether the window had a free slot, the
    window, and the hull of the slots a failed walk reached (None for a
    walk that found a slot); and in ``skips``, for every walk, how many
    slots proven full before it it reached and how many ``_next_open``
    calls it made. Returns the records: one dict per run, told apart by
    the run's ``owner`` list."""
    records = []
    original_walk, original_next_open = offline._walk, offline._next_open

    def free_in_span(record):
        return record["owner"][min(record["release"]):].count(None)

    def walk(owner, release, deadline, full, rank):
        if not records or records[-1]["owner"] is not owner:
            records.append(
                {"checks": [], "walks": [], "skips": [], "owner": owner, "release": release}
            )
        r, d = release[rank], deadline[rank]
        span_free, window_free = free_in_span(records[-1]), None in owner[r:d]
        proven, checks = set(full), len(records[-1]["checks"])
        free, reached = original_walk(owner, release, deadline, full, rank)
        hull = None if free is not None else (min(reached), max(reached) + 1)
        records[-1]["walks"].append((span_free, window_free, (r, d), hull))
        # Slots proven full before the walk that it reached, and its skips.
        records[-1]["skips"].append(
            (len(proven.intersection(reached)), len(records[-1]["checks"]) - checks)
        )
        return free, reached

    def next_open(full, s):
        # full is empty until the run's first failed walk made its record.
        records[-1]["checks"].append(free_in_span(records[-1]))
        return original_next_open(full, s)

    # The greedy and the walk look both helpers up in offline at each call.
    monkeypatch.setattr(offline, "_walk", walk)
    monkeypatch.setattr(offline, "_next_open", next_open)
    return records


def test_greedy_stops_once_its_span_is_full(monkeypatch):
    # Overloaded wide windows: every slot of the span ends up taken, by a
    # rank far ahead of the last one.
    inst = generate(
        GeneratorSpec("powerlaw", horizon=40, a=30, m=500, max_slack=25, seed=2)
    )
    last_taken = max(greedy_ranks_by_edf(inst))
    assert len(inst.ids) - last_taken > 200
    records = _spy_on_greedy(monkeypatch)
    ranks = _optimal_ranks(inst)
    (record,) = records
    assert record["owner"][min(record["release"]):].count(None) == 0
    assert max(ranks) == last_taken
    # No rank after the one that took the last free slot reaches a search
    # or the proven-full check.
    span_free = [walk[0] for walk in record["walks"]]
    assert span_free and record["checks"]
    assert 0 not in span_free and 0 not in record["checks"]


def test_greedy_never_walks_a_window_with_a_free_slot(monkeypatch):
    rng = random.Random(163)
    records = _spy_on_greedy(monkeypatch)
    instances = [random_instance(rng, max_jobs=30, max_horizon=12) for _ in range(200)]
    instances += [_gapped(rng)[0] for _ in range(20)]
    instances.append(
        generate(GeneratorSpec("powerlaw", horizon=60, a=30, m=300, max_slack=25, seed=7))
    )
    for inst in instances:
        _optimal_ranks(inst)
    had_free = [walk[1] for record in records for walk in record["walks"]]
    # The greedy walked many windows, none of them with a free slot.
    assert len(had_free) > 500
    assert not any(had_free)


def test_greedy_walks_no_window_that_a_failed_walk_proved_full(monkeypatch):
    # A failed walk proves the slots it reached full; the greedy frees no
    # slot, so a later window inside them is rejected without a walk.
    rng = random.Random(167)
    records = _spy_on_greedy(monkeypatch)
    instances = [
        generate(GeneratorSpec("powerlaw", horizon=40, a=30, m=500, max_slack=25, seed=seed))
        for seed in range(3)
    ]
    instances += [_non_agreeable(rng, TIED_WEIGHTS) for _ in range(10)]
    for inst in instances:
        _optimal_ranks(inst)
    failed = 0
    for record in records:
        proven = []
        for _, _, (r, d), hull in record["walks"]:
            assert not any(lo <= r and d <= hi for lo, hi in proven), (r, d)
            if hull is not None:
                proven.append(hull)
        failed += len(proven)
    assert failed > 30


def test_greedy_walks_skip_the_slots_proven_full(monkeypatch):
    # A walk that meets a slot a failed walk proved full jumps past the
    # proven run with _next_open and reaches none of its slots.
    rng = random.Random(181)
    records = _spy_on_greedy(monkeypatch)
    instances = [
        generate(GeneratorSpec("powerlaw", horizon=40, a=30, m=500, max_slack=25, seed=seed))
        for seed in range(3)
    ]
    instances += [_non_agreeable(rng, TIED_WEIGHTS) for _ in range(10)]
    for inst in instances:
        _optimal_ranks(inst)
    skips = [skip for record in records for skip in record["skips"]]
    assert all(reached == 0 for reached, _ in skips)
    assert sum(jumps for _, jumps in skips) > 30
