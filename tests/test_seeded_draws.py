"""The generators' and perturbations' bulk draws against one stdlib call
per draw: the same values from the same draws, bit for bit."""

import math
import random

import pytest

from pktsched import (
    ExperimentConfig,
    GeneratorSpec,
    Instance,
    PerturbationSpec,
    generate,
    perturb,
)
from pktsched.experiments import _gausses, _randints
from reference import generate_by_stdlib, perturb_by_stdlib

SEEDS = range(6)
# max_slack 2, 8 and 16 are powers of two: randint rejects about half the
# draws of their width.
SLACKS = (1, 2, 8, 10, 16, 40)
SIGMAS = (0.05, 0.2, 0.5, 1e9, 5e-324)
# Widths 1 (lo == hi), 7, 8, 10, 13 and 2**40 + 1.
BOUNDS = ((3, 3), (0, 6), (1, 8), (-4, 5), (-6, 6), (-(2**39), 2**39))
COUNTS = (0, 1, 2, 3, 7, 100, 377)


def outcome(build, *args):
    """The instance ``build(*args)`` returns, with each weight as its repr
    (so 0.0 and -0.0 differ), or the error it raises."""
    try:
        instance = build(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return instance, tuple(map(repr, instance.weights))


def prefix(instance, n):
    """The instance of its first n jobs in id order, over the same horizon."""
    columns = (instance.ids, instance.releases, instance.deadlines, instance.weights)
    return Instance.from_columns(*(column[:n] for column in columns), instance.horizon)


@pytest.fixture(scope="module")
def realizations():
    """Instances of 0, 1, 2, 3 and 7 jobs, and two generated ones with an
    odd and an even job count."""
    base = generate(GeneratorSpec("uniform", horizon=12, seed=1))
    odd = next(
        inst for seed in range(2, 50)
        if len((inst := generate(GeneratorSpec("uniform", horizon=12, seed=seed))).ids) % 2
    )
    even = base if len(base.ids) % 2 == 0 else prefix(base, len(base.ids) - 1)
    return [prefix(base, n) for n in (0, 1, 2, 3, 7)] + [odd, even]


@pytest.mark.parametrize("max_slack", SLACKS)
@pytest.mark.parametrize(
    "lo, hi", [(0, 0), (1, 1), (3, 3), (2, 8), (0, 5)], ids=["0-0", "1-1", "3-3", "2-8", "0-5"]
)
def test_uniform_generator_matches_stdlib_draws(lo, hi, max_slack):
    for seed in SEEDS:
        spec = GeneratorSpec("uniform", horizon=23, lo=lo, hi=hi, max_slack=max_slack, seed=seed)
        assert outcome(generate, spec) == outcome(generate_by_stdlib, spec)


@pytest.mark.parametrize("max_slack", SLACKS)
def test_powerlaw_generator_matches_stdlib_draws(max_slack):
    for seed in SEEDS:
        spec = GeneratorSpec("powerlaw", horizon=15, a=3.0, m=9.0, max_slack=max_slack, seed=seed)
        assert outcome(generate, spec) == outcome(generate_by_stdlib, spec)


@pytest.mark.parametrize("sigma", SIGMAS)
def test_weight_noise_matches_stdlib_gauss(realizations, sigma):
    for instance in realizations:
        for seed in SEEDS:
            spec = PerturbationSpec("weight-gauss", sigma=sigma, seed=seed)
            assert outcome(perturb, instance, spec) == outcome(perturb_by_stdlib, instance, spec)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 2**40])
def test_deadline_shift_matches_stdlib_randint(realizations, k):
    # A shift of 2**40 takes a deadline past MAX_HORIZON: both raise the
    # same error, which names the largest deadline.
    for instance in realizations:
        for seed in SEEDS:
            spec = PerturbationSpec("deadline-shift", k=k, seed=seed)
            assert outcome(perturb, instance, spec) == outcome(perturb_by_stdlib, instance, spec)


@pytest.mark.parametrize("lo, hi", BOUNDS, ids=["1", "7", "8", "10", "13", "2**40+1"])
def test_randints_take_randints_values_and_leave_its_state(lo, hi):
    for seed in SEEDS:
        for count in COUNTS:
            bulk, loop = random.Random(seed), random.Random(seed)
            values = _randints(bulk, lo, hi, count)
            assert values == [loop.randint(lo, hi) for _ in range(count)]
            assert all(type(v) is int for v in values)
            # The generator goes on drawing from this rng.
            assert bulk.getstate() == loop.getstate()


@pytest.mark.parametrize("sigma", (*SIGMAS, 3.0, 1e-300))
def test_gausses_take_gauss_values_from_the_same_draws(sigma):
    for seed in SEEDS:
        for count in COUNTS:
            bulk, loop = random.Random(seed), random.Random(seed)
            values = _gausses(bulk, sigma, count)
            expected = [loop.gauss(0.0, sigma) for _ in range(count)]
            assert list(map(repr, values)) == list(map(repr, expected))
            # As many random() draws; only gauss keeps an odd count's spare.
            assert bulk.getstate()[:2] == loop.getstate()[:2]


class ScriptedRandom(random.Random):
    """A Random whose random() returns the given values in turn."""

    def __init__(self, values):
        super().__init__(0)
        self.values = iter(values)

    def random(self):
        return next(self.values)


def test_gausses_turn_a_negative_zero_into_zero():
    # A radius draw of 0.0 makes the radius sqrt(-0.0) = -0.0, so z is a
    # signed zero: gauss's mu + z * sigma turns -0.0 into 0.0.
    script = (0.25, 0.0, 0.75, 0.0)
    z = math.cos(0.25 * math.tau) * math.sqrt(-2.0 * math.log(1.0 - 0.0))
    assert math.copysign(1.0, z) == -1.0
    for sigma in (0.2, 5e-324):
        stdlib = ScriptedRandom(script)
        expected = [stdlib.gauss(0.0, sigma) for _ in range(4)]
        values = _gausses(ScriptedRandom(script), sigma, 4)
        assert list(map(repr, values)) == list(map(repr, expected)) == ["0.0"] * 4


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: PerturbationSpec("deadline-shift", k=2.5), "k must be an int, got 2.5"),
        (lambda: PerturbationSpec("deadline-shift", k=2.0), "k must be an int, got 2.0"),
        (lambda: PerturbationSpec("deadline-shift", k=True), "k must be an int, got True"),
        (lambda: GeneratorSpec("uniform", horizon=10.0), "horizon must be an int, got 10.0"),
        (lambda: GeneratorSpec("uniform", lo=1.5), "lo must be an int, got 1.5"),
        (lambda: GeneratorSpec("uniform", hi=8.0), "hi must be an int, got 8.0"),
        (lambda: GeneratorSpec("powerlaw", max_slack=True), "max_slack must be an int, got True"),
        (
            lambda: ExperimentConfig("uniform", "sigma", (0.0,), max_slack=2.0),
            "max_slack must be an int, got 2.0",
        ),
        (
            lambda: ExperimentConfig("events.txt", "sigma", (0.0,), max_slack=2.5),
            "max_slack must be an int, got 2.5",
        ),
    ],
    ids=[
        "k-fraction", "k-whole-float", "k-bool", "horizon", "lo", "hi", "max-slack-bool",
        "config-max-slack", "event-config-max-slack",
    ],
)
def test_a_non_int_count_or_bound_is_one_typed_error(build, message):
    # randint took a whole float with a DeprecationWarning on Python 3.10
    # and 3.11 and raised ValueError for 2.5; from 3.12 it raises
    # TypeError for both. The specs raise one ValueError on every version.
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()
