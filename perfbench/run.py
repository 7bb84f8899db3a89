"""pktsched benchmark: one workload, one single-threaded closed loop.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from a checkout: the package is imported from ``src/`` next to this
directory, never from an installed copy. With ``--trace 0`` the last
stdout line is a JSON object with the end-to-end metrics; with
``--trace 1`` untraced and traced samples alternate and it carries the
per-layer metrics. Everything written goes under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from calibrate import Calibrator
from tracing import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
BENCHMARK = ROOT / "BENCHMARK.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 11
TAIL_MIN_ABOVE = 10


# Run in a fresh interpreter: the stdlib modules pktsched needs are not yet
# loaded there, so their import counts as it does for a new pktsched process.
COLD_IMPORT = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); started = time.perf_counter(); "
    "import pktsched, pktsched.cli; print(time.perf_counter() - started)"
)


def import_package():
    """Import pktsched from ``src/``."""
    pkg = importlib.import_module("pktsched")
    importlib.import_module("pktsched.cli")
    if Path(pkg.__file__).resolve().parent != SRC / "pktsched":
        raise ImportError(f"pktsched imported from {pkg.__file__}, not from {SRC}")
    return pkg


def cold_import_seconds() -> float:
    """Seconds ``import pktsched, pktsched.cli`` takes in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", COLD_IMPORT, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(done.stdout)


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them for the mode."""
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def package_modules() -> dict:
    return {
        name: module
        for name, module in sys.modules.items()
        if name == "pktsched" or name.startswith("pktsched.")
    }


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples above it.

    When that percentile is below p90 (under 100 samples) it says nothing
    about the tail, so the maximum is reported as percentile 100 instead.
    """
    xs = sorted(latencies)
    n = len(xs)
    index = n - 1 - TAIL_MIN_ABOVE
    percentile = 100.0 * (index + 1) / n
    if percentile < 90.0:
        return xs[-1], 100.0
    return xs[index], percentile


def load_reference(workload: str) -> list[str]:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pktsched" / "__init__.py").is_file():
        print(f"no package at {SRC / 'pktsched'}: run from a pktsched checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    reference = load_reference(workload.name)
    units = declared_units(args.trace)
    pkg = import_package()
    out_dir = OUT / workload.name

    # Sample 0 comes from the default seed in every run, so every run checks
    # at least one sample against its reference digest; later samples come
    # from --seed. Every timed interval lies between two calibration probes.
    cal = Calibrator()
    before = cal.mark()
    setups = []
    for _ in range(SETUP_REPEATS):
        # Set-up: a cold import of pktsched, the first sample's inputs and
        # their CSV files.
        imported = cold_import_seconds()
        started = time.perf_counter()
        first = workload.prepare(pkg, out_dir, DEFAULT_SEED, 0)
        elapsed = imported + time.perf_counter() - started
        after = cal.mark()
        setups.append((elapsed, before, after))
        before = after

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(package_modules())

    def timed_sample(prepared, sample_id: int, traced: bool, before: int):
        """Run a sample's steps with a probe point after each.

        Returns ([(seconds, probe before, probe after)] per step, the step
        outputs or None when a step raised, the last probe point).
        """
        pieces, outputs = [], []
        if traced:
            tracer.begin(sample_id)
        try:
            for step in workload.steps(pkg, prepared):
                started = time.perf_counter()
                try:
                    outputs.append(step())
                except (Exception, SystemExit):
                    traceback.print_exc(file=sys.stderr)
                    return pieces, None, cal.mark()
                elapsed = time.perf_counter() - started
                after = cal.mark()
                pieces.append((elapsed, before, after))
                before = after
        finally:
            if traced:
                tracer.end()
        return pieces, outputs, before

    samples = {False: [], True: []}  # traced -> [per-step (seconds, before, after)]
    schedules = attempted = failed = 0
    jobs, horizons = [], []
    rss_mb = 0.0
    # A traced run needs an untraced and a traced sample at least.
    min_samples = 1 if tracer is None else 2
    loop_started = time.perf_counter()
    index = 0
    while index < min_samples or time.perf_counter() - loop_started < args.seconds:
        prepared = first if index == 0 else workload.prepare(pkg, out_dir, args.seed, index)
        traced = tracer is not None and index % 2 == 1
        pieces, outputs, after = timed_sample(prepared, index, traced, before)
        if index == 0:
            # Set-up plus one sample, as one fresh pktsched process would peak;
            # later samples add only what in-process caches keep.
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted += 1
        outcome = None
        if outputs is not None:
            try:
                outcome = workload.check(pkg, prepared, outputs)
            except Exception:  # malformed output fails the sample, not the run
                traceback.print_exc(file=sys.stderr)
        problems = ["raised"] if outcome is None else list(outcome.problems)
        if outcome is not None:
            checked = index == 0 or (args.seed == DEFAULT_SEED and index < len(reference))
            if checked and outcome.digest != reference[index]:
                problems.append(f"digest {outcome.digest} != reference {reference[index]}")
            jobs.append(outcome.jobs)
            horizons.append(outcome.horizon)
        if problems:
            failed += 1
            print(f"sample {index} failed: {problems[:5]}", file=sys.stderr)
        else:
            samples[traced].append(pieces)
            schedules += outcome.schedules
        before = after
        index += 1

    if not samples[False] or (tracer is not None and not samples[True]):
        print("no successful sample to measure", file=sys.stderr)
        return 1
    latency = {
        traced: [sum(cal.calibrated(*piece) for piece in pieces) for pieces in runs]
        for traced, runs in samples.items()
    }
    raw = {
        traced: [sum(seconds for seconds, _, _ in pieces) for pieces in runs]
        for traced, runs in samples.items()
    }
    untraced = latency[False]
    shape = {
        "input.jobs": statistics.fmean(jobs),
        "input.horizon": statistics.fmean(horizons),
    }
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"samples {len(untraced) + len(latency[True])}  "
          f"jobs/instance {shape['input.jobs']:.1f}  horizon {shape['input.horizon']:.1f}")
    print(f"  failed_frac {failed / attempted:.4f} ratio  ({failed} of {attempted} attempted)")
    print(f"  uncalibrated wall: latency p50 {statistics.median(raw[False]):.4f} s, "
          f"max {max(raw[False]):.4f} s; "
          f"probe fastest {1000 * min(cal.points):.2f} ms, "
          f"median {1000 * statistics.median(cal.points):.2f} ms")

    if tracer is None:
        tail, pct = tail_latency(untraced)
        # The tail of so few samples is too noisy to gate on, so it is
        # printed but left out of the JSON metrics, like failed_frac.
        print(f"  latency_tail_s {tail:.6g} s  (p{pct:.0f} of {len(untraced)} samples)")
        metrics = {
            "setup_s": statistics.median(cal.calibrated(*s) for s in setups),
            "schedules_per_s": schedules / sum(untraced),
            "latency_p50_s": statistics.median(untraced),
            "peak_rss_mb": rss_mb,
        }
        notes = {
            "setup_s": f"median of {SETUP_REPEATS} set-ups",
            "peak_rss_mb": "after set-up and the first sample",
        }
    else:
        tracer.uninstall()
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(OUT / f"{workload.name}.spans.csv.gz")
        traced = latency[True]
        layer = tracer.metrics(len(traced))
        layer["trace_overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
        # Self times are raw span times; so is the sample time they divide.
        layer["trace.sample_s"] = statistics.fmean(raw[True])
        layer.update(shape)
        metrics = layer
        busiest = sorted(
            (name[: -len(".self_s")] for name in layer if name.endswith(".self_s")),
            key=lambda n: -layer[f"{n}.self_s"],
        )
        notes = {
            f"{n}.self_s": f"{100 * layer[f'{n}.self_s'] / layer['trace.sample_s']:.1f}% "
            "of a traced sample"
            for n in busiest[:8]
        }
    if set(metrics) != set(units):
        print(f"metrics {sorted(set(metrics) ^ set(units))} are measured or declared "
              f"in {BENCHMARK.name}, not both", file=sys.stderr)
        return 1
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name} {value:.6g} {units[name]}{note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
