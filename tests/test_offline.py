import random

import pytest

from pktsched import (
    GeneratorSpec,
    Instance,
    Job,
    TooLarge,
    brute_force_opt,
    canonicalize,
    generate,
    opt_schedule,
    prefix_opt_series,
    schedule_weight,
    validate_schedule,
)
from pktsched.core import heavier_first
from pktsched.offline import BRUTE_FORCE_MAX_HORIZON, BRUTE_FORCE_MAX_JOBS, _SlotMatching
from conftest import TIED_WEIGHTS, edge_shape_instances, long_instance, mk, random_instance
from reference import (
    WalkingMatching,
    greedy_edf_ids,
    prefix_weight,
    release_prefix,
    resolved_prefix_opt,
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


def test_insert_rejects_inside_last_closed_interval_without_search(monkeypatch):
    inst = generate(
        GeneratorSpec("powerlaw", horizon=30, a=30, m=500, max_slack=25, seed=0)
    )
    best = opt_schedule(inst).job_ids()
    searched = []

    def counting(search):
        def counted(self, rank):
            searched.append(rank)
            return search(self, rank)

        return counted

    # Both searches are counted, so the count holds whichever one insert
    # calls; a search under a third name leaves it at 0 and fails below.
    for name in ("_walk", "_grow"):
        monkeypatch.setattr(_SlotMatching, name, counting(getattr(_SlotMatching, name)))
    ranked = sorted(inst.jobs, key=heavier_first)
    matching = _SlotMatching(ranked)
    for rank in sorted(range(len(ranked)), key=lambda r: (ranked[r].release, r)):
        matching.insert(rank)
    assert matching.selected_ids() == best
    # 297 inserts, 108 searches: the rest are rejected by the shortcut.
    assert 0 < len(searched) < len(inst.jobs) / 2


def test_insert_in_any_order_selects_the_optimum():
    # The series inserts in release order, where every newcomer starts at
    # or after the remembered interval; other orders exercise its start.
    rng = random.Random(131)
    for inst in _series_fuzz_instances(rng):
        ranks = list(range(len(inst.jobs)))
        rng.shuffle(ranks)
        matching = _SlotMatching(sorted(inst.jobs, key=heavier_first))
        for rank in ranks:
            matching.insert(rank)
        assert matching.selected_ids() == opt_schedule(inst).job_ids()


def _occupied(matching):
    """The number of occupied slots, once owner, slot_of, rel_at and
    dl_at are checked to agree and every owner to sit in its window."""
    owner, slot_of = matching.owner, matching.slot_of
    release, deadline = matching.release, matching.deadline
    held = [(s, r) for s, r in enumerate(owner) if r is not None]
    assert all(slot_of[r] == s and release[r] <= s < deadline[r] for s, r in held)
    # Each held rank points back at its slot, so equal counts leave no
    # rank with a slot it does not own.
    assert len(held) == len(slot_of) - slot_of.count(None)
    assert matching.rel_at == [-1 if r is None else release[r] for r in owner]
    assert matching.dl_at == [-1 if r is None else deadline[r] for r in owner]
    return len(held)


def _insert_orders(rng):
    """(ranked jobs, insert order): the fuzz corpus in release order and
    shuffled, then one instance of each benchmark shape in release order."""
    def ranked_in_release_order(inst):
        ranked = sorted(inst.jobs, key=heavier_first)
        return ranked, sorted(range(len(ranked)), key=lambda r: (ranked[r].release, r))

    for inst in _series_fuzz_instances(rng):
        ranked, order = ranked_in_release_order(inst)
        yield ranked, order
        shuffled = order[:]
        rng.shuffle(shuffled)
        yield ranked, shuffled
    yield ranked_in_release_order(
        generate(GeneratorSpec("powerlaw", horizon=150, a=30, m=500, max_slack=40, seed=1))
    )
    yield ranked_in_release_order(
        generate(GeneratorSpec("uniform", horizon=1200, lo=2, hi=8, max_slack=10, seed=1))
    )


def test_insert_keeps_its_slot_arrays_and_matches_the_per_slot_walk():
    inserts = 0
    for ranked, order in _insert_orders(random.Random(149)):
        matching, oracle = _SlotMatching(ranked), WalkingMatching(ranked)
        occupied = 0
        for rank in order:
            assert matching.insert(rank) == oracle.insert(rank)
            assert matching._closed == oracle._closed
            # An eviction refills the evicted job's slot: none is freed.
            now = _occupied(matching)
            assert now >= occupied
            occupied = now
        assert matching.selected_ids() == oracle.selected_ids()
        inserts += len(order)
    assert inserts > 20000


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
        assert opt.job_ids() == greedy_edf_ids(inst)
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
        expected = greedy_edf_ids(inst)
        assert opt_schedule(inst).job_ids() == expected
        assert prefix_opt_series(inst)[-1] == schedule_weight(canonicalize(inst, expected))
        ranked = sorted(inst.jobs, key=heavier_first)
        in_release_order = sorted(range(len(ranked)), key=lambda r: (ranked[r].release, r))
        shuffled = in_release_order[:]
        rng.shuffle(shuffled)
        for order in (in_release_order, shuffled):
            matching = _SlotMatching(ranked)
            for rank in order:
                matching.insert(rank)
            assert matching.selected_ids() == expected
