import pytest

from pktsched import GeneratorSpec, Instance, Job, PerturbationSpec, generate, perturb


def mk(rows, horizon=None):
    """Instance from (id, release, deadline, weight) tuples."""
    return Instance.of([Job(i, r, d, w) for i, r, d, w in rows], horizon)


def pending_jobs(buffer):
    """The buffer's pending jobs, as an id-to-record dict."""
    instance = buffer.instance
    return {instance.by_rank.ids[rank]: instance.record(rank) for rank in buffer.pending}


def take(buffer, job_id):
    """Run the pending job with that id, as ``online.drive`` does."""
    buffer.pending.remove(buffer.instance.rank_of[job_id])


@pytest.fixture
def j1():
    # Two-job lower-bound fixture: a tight light job and a loose unit job.
    return mk([("a", 0, 1, 0.01), ("b", 0, 2, 1.0)])


@pytest.fixture
def j2():
    # j1 plus a late near-unit rival for the same final slot.
    return mk([("a", 0, 1, 0.01), ("b", 0, 2, 1.0), ("c", 1, 2, 0.999)])


# Weights for instances where ties are common, zero included.
TIED_WEIGHTS = (0.0, 0.25, 0.5, 1.0)


def random_instance(rng, max_jobs=8, max_horizon=8, min_jobs=0, weights=None):
    """Random jobs; weights are uniform in [0, 1), or drawn from the given
    sequence (e.g. TIED_WEIGHTS) when one is passed."""
    n = rng.randint(min_jobs, max_jobs)
    jobs = []
    for i in range(n):
        r = rng.randint(0, max_horizon - 1)
        d = rng.randint(r + 1, max_horizon)
        w = rng.random() if weights is None else rng.choice(weights)
        jobs.append(Job(f"j{i:02d}", r, d, w))
    return Instance.of(jobs)


# Weights from the subnormal range to 3.3e15: a sum of these rarely fits
# in one float, so an inexact running sum shows in the last bits.
WIDE_WEIGHTS = (5e-324, 1e-300, 1e-9, 0.1, 1e6, 3.3e15)


def long_instance(rng, horizon, max_window=10):
    """About 1.5 jobs per slot with windows of up to max_window slots, so
    the prefix optimum often evicts a job it has already placed. Weights
    are WIDE_WEIGHTS, half of them scaled by a factor in [1, 2)."""
    jobs = []
    for i in range(rng.randint(horizon, 2 * horizon)):
        r = rng.randrange(horizon)
        d = rng.randint(r + 1, min(horizon, r + max_window))
        w = rng.choice(WIDE_WEIGHTS) * rng.choice((1.0, 1.0 + rng.random()))
        jobs.append(Job(f"j{i:03d}", r, d, w))
    return Instance.of(jobs, horizon)


def edge_shape_instances(rng, rounds=40):
    """Edge shapes for the random checks: the empty instance (horizon 0),
    an empty one with horizon 5, then per round one instance each with
    all-zero weights, all-identical jobs (distinct ids), one deadline for
    every job, and TIED_WEIGHTS."""
    # Horizon 0 admits no job: every deadline is at least 1.
    yield Instance.of([])
    yield Instance.of([], horizon=5)
    for _ in range(rounds):
        yield random_instance(rng, max_jobs=10, max_horizon=8, weights=(0.0,))
        release = rng.randint(0, 4)
        deadline = rng.randint(release + 1, 8)
        weight = rng.choice(TIED_WEIGHTS + (rng.random(),))
        yield mk([(f"j{i}", release, deadline, weight) for i in range(rng.randint(1, 9))])
        yield mk(
            [
                (f"j{i}", rng.randrange(deadline), deadline, rng.choice(TIED_WEIGHTS))
                for i in range(rng.randint(1, 12))
            ]
        )
        yield random_instance(rng, max_jobs=20, max_horizon=10, weights=TIED_WEIGHTS)


def random_agreeable(rng, max_window=6, lo=1, hi=2, max_slack=5):
    spec = GeneratorSpec(
        "uniform",
        horizon=rng.randint(2, max_window),
        lo=lo,
        hi=hi,
        max_slack=max_slack,
        seed=rng.randrange(2**32),
    )
    return generate(spec)


def reversed_weights(instance):
    """Same jobs with the weight order flipped (lightest gets heaviest)."""
    by_weight = sorted(instance.jobs, key=lambda j: j.weight)
    flipped = [j.weight for j in by_weight][::-1]
    return Instance.of(
        [Job(j.id, j.release, j.deadline, w) for j, w in zip(by_weight, flipped)],
        instance.horizon,
    )


def shifted_deadlines(instance, k, seed):
    return perturb(instance, PerturbationSpec("deadline-shift", k=k, seed=seed))


def adversarial_prediction(instance, kind, seed):
    if kind == "empty":
        return Instance.of([])
    if kind == "reversed":
        return reversed_weights(instance)
    return shifted_deadlines(instance, k=3, seed=seed)
