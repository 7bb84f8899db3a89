"""Tests of the benchmark's own code: self time, rebinding, tail, digests,
calibration."""

from __future__ import annotations

import random
import sys
import time
from dataclasses import fields, replace

import run
from calibrate import PROBE_REFERENCE_S, Calibrator
from tracing import LAYER_FUNCTIONS, Tracer, self_times
from workloads import RECORD_COLUMNS, check_run_output, records_digest

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

import pktsched  # noqa: E402
import pktsched.cli  # noqa: E402,F401


def test_self_time_subtracts_union_of_children():
    spans = [
        ("root", 0, 100, -1, 0),
        ("child", 10, 40, 0, 0),
        ("grandchild", 20, 30, 1, 0),
        ("overlap_a", 50, 60, 0, 0),
        ("overlap_b", 55, 70, 0, 0),
        ("sticks_out", 90, 120, 0, 0),
        ("other_root", 200, 250, -1, 1),
    ]
    # root is covered by [10,40] + [50,70] + [90,100] = 60 of its 100.
    assert self_times(spans) == [40, 20, 10, 10, 15, 30, 50]


def test_observer_time_stays_out_of_parent_self_time():
    tracer = Tracer()
    inner = tracer._wrap("x.inner", "x", lambda: None,
                         lambda *_: time.sleep(0.05))

    def outer_fn():
        for _ in range(4):
            inner()

    outer = tracer._wrap("x.outer", "x", outer_fn, None)
    tracer.begin(0)
    outer()
    tracer.end()
    outer_span, outer_self = tracer.spans[0], self_times(tracer.spans, tracer.overhead_ns)[0]
    assert outer_span[2] - outer_span[1] >= 200_000_000  # four 50 ms observers ran inside
    assert outer_self < 20_000_000


def test_layer_metrics_are_the_declared_ones():
    run_level = {"trace_overhead_frac", "trace.sample_s", "input.jobs", "input.horizon"}
    assert set(Tracer().metrics(1)) | run_level == set(run.declared_units(1))


def test_cold_import_runs_in_a_fresh_interpreter():
    assert 0 < run.cold_import_seconds() < 30


def _aliases(modules):
    """(module name, attribute) -> original, for every listed function."""
    found = {}
    for layer, names in LAYER_FUNCTIONS.items():
        for fname in names:
            original = getattr(modules[f"pktsched.{layer}"], fname)
            for mod_name, module in modules.items():
                for attr, value in vars(module).items():
                    if value is original:
                        found[(mod_name, attr)] = original
    return found


def test_rebinding_covers_every_alias_and_is_undone():
    modules = run.package_modules()
    aliases = _aliases(modules)
    # Functions are re-exported at the package root, so aliases exist.
    assert len(aliases) > len(set(aliases.values()))
    instance = pktsched.Instance.of(
        [pktsched.Job("a", 0, 1, 0.5), pktsched.Job("b", 0, 2, 1.0), pktsched.Job("c", 1, 3, 0.7)]
    )
    tracer = Tracer()
    tracer.install(modules)
    try:
        for (mod_name, attr), original in aliases.items():
            bound = getattr(modules[mod_name], attr)
            assert bound is not original and bound.__wrapped__ is original, (mod_name, attr)
        prefix = aliases[("pktsched.offline", "prefix_opt_series")]
        if hasattr(prefix, "cache_info"):
            assert modules["pktsched.offline"].prefix_opt_series.cache_info() == prefix.cache_info()

        pktsched.lap.lap_run(instance, instance, 1.0, pktsched.GREEDY)
        assert tracer.spans == []  # no sample open: calls pass straight through
        tracer.begin(7)
        pktsched.lap.lap_run(instance, instance, 1.0, pktsched.GREEDY)
        tracer.end()
    finally:
        tracer.uninstall()
    for (mod_name, attr), original in aliases.items():
        assert getattr(modules[mod_name], attr) is original, (mod_name, attr)

    names = [span[0] for span in tracer.spans]
    assert names[0] == "lap.lap_run" and tracer.spans[0][3] == -1
    assert {span[4] for span in tracer.spans} == {7}
    opt_span = names.index("offline.opt_schedule")
    assert names[tracer.spans[opt_span][3]] == "prediction.build_choices"
    metrics = tracer.metrics(1)
    assert metrics["lap.lap_run.calls"] == 1
    # The optimum fills slots 0-2; slot 3 has no predicted job, so it falls back.
    assert metrics["lap.lap_run.prediction_frac"] == 0.75
    assert metrics["offline.opt_schedule.kept_frac"] == 1.0


def test_tail_picks_highest_percentile_with_ten_samples_above():
    xs = [float(i) for i in range(100)]
    random.Random(3).shuffle(xs)
    assert run.tail_latency(xs) == (89.0, 90.0)
    assert run.tail_latency([float(i) for i in range(200)]) == (189.0, 95.0)
    # Under 100 samples that percentile is below p90, so the maximum stands in.
    assert run.tail_latency([float(i) for i in range(99)]) == (98.0, 100.0)
    assert run.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_digest_masks_only_the_wall_clock_column():
    assert "runtime_s" not in RECORD_COLUMNS
    assert set(RECORD_COLUMNS) < {f.name for f in fields(pktsched.ResultRecord)}
    base = pktsched.ResultRecord(
        dataset="uniform", sweep="sigma", sweep_value=0.05, trial=0, algorithm="lap",
        eta=1.25, ratio=1.0625, runtime_s=0.5,
    )
    assert records_digest([base]) == records_digest([replace(base, runtime_s=9.75)])
    changed = dict(dataset="powerlaw", sweep="k", sweep_value=0.1, trial=1,
                   algorithm="mg", eta=1.5, ratio=1.125)
    for column, value in changed.items():
        assert records_digest([replace(base, **{column: value})]) != records_digest([base])


def test_run_output_check_flags_a_tampered_row(tmp_path, capsys):
    instance = pktsched.Instance.of(
        [pktsched.Job("a", 0, 1, 0.5), pktsched.Job("b", 0, 2, 1.0), pktsched.Job("c", 1, 3, 0.7)]
    )
    path = tmp_path / "real.csv"
    pktsched.write_instance_csv(instance, path)
    assert pktsched.cli.main(["run", "--algo", "mg", "--real", str(path)]) == 0
    text = capsys.readouterr().out
    lines, problems = check_run_output(pktsched, instance, "mg", text)
    assert problems == []
    assert lines[0].startswith("# weight=") and lines[-1].startswith("3,")
    tampered = text.replace(",b,1.0", ",b,0.9")
    assert check_run_output(pktsched, instance, "mg", tampered)[1]


def test_calibration_scales_by_reference_over_bracketing_probes():
    cal = Calibrator()
    cal.points = [0.2, 0.1, 0.3]
    # Measured between probes of 0.2 s and 0.3 s.
    assert cal.calibrated(5.0, 0, 2) == 5.0 * PROBE_REFERENCE_S / 0.25
    assert cal.mark() == 3 and cal.points[3] > 0
