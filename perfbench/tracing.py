"""Traced run: wrap each layer's public functions from outside the package.

Every listed function is rebound at each ``pktsched.*`` module attribute
that holds it (``opt_schedule`` lives in ``offline`` but is also bound in
``prediction``, ``experiments``, ``cli`` and the package root), so calls
between modules go through the wrapper. Wrappers record spans only while a
sample is open; outside a sample they call straight through, so set-up and
the benchmark's own output checks are not counted.

A span is ``(name, start_ns, end_ns, parent_index, sample_id)``. Spans stay
in memory until :meth:`Tracer.write_spans` writes them at exit. The
wrapper's own work outside a span (its bookkeeping and the per-function
observers) falls inside the parent span; it is timed and charged to the
parent in ``Tracer.overhead_ns``, which :func:`self_times` subtracts.
"""

from __future__ import annotations

import csv
import functools
import gzip
import time
from collections import defaultdict
from pathlib import Path
from types import ModuleType
from typing import Callable, Optional

# Public functions traced per layer; the layer is the pktsched module name.
LAYER_FUNCTIONS: dict[str, tuple[str, ...]] = {
    "core": (
        "pending_set",
        "canonicalize",
        "schedule_weight",
        "validate_schedule",
        "read_instance_csv",
    ),
    "offline": ("opt_schedule", "prefix_opt_series"),
    "prediction": ("build_choices", "prediction_error", "apply_choices"),
    "online": ("run_online", "greedy_step", "edf_step", "edf_alpha_step", "mg_step"),
    "lap": ("lap_run", "local_test"),
    "experiments": ("generate", "perturb", "competitive_ratio", "run_experiment"),
    "cli": ("main",),
}

NAME, START, END, PARENT, SAMPLE = range(5)


def _first_arg(args: tuple, kwargs: dict, keyword: str):
    return args[0] if args else kwargs[keyword]


class Tracer:
    """Spans and counters for the traced functions of one package import."""

    def __init__(self) -> None:
        self.spans: list[Optional[tuple]] = []
        self.counters: dict[str, float] = defaultdict(float)
        # Span index -> tracer time spent inside that span but outside its children.
        self.overhead_ns: dict[int, int] = defaultdict(int)
        self.sample: Optional[int] = None
        self._stack: list[int] = []
        self._seen: dict[str, set] = defaultdict(set)
        self._bindings: list[tuple[ModuleType, str, Callable]] = []

    # -- rebinding -------------------------------------------------------

    def install(self, modules: dict[str, ModuleType]) -> None:
        """Wrap every listed function at every module attribute bound to it.

        ``modules`` maps ``pktsched`` and ``pktsched.<layer>`` names to the
        imported modules.
        """
        for layer, names in LAYER_FUNCTIONS.items():
            home = modules[f"pktsched.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                qualname = f"{layer}.{fname}"
                wrapper = self._wrap(qualname, layer, original, _OBSERVERS.get(qualname))
                for module in modules.values():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._bindings.append((module, attr, original))

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` replaced."""
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    def _wrap(self, qualname: str, layer: str, fn: Callable, observe) -> Callable:
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sample = tracer.sample
            if sample is None:
                return fn(*args, **kwargs)
            entered = clock()
            stack = tracer._stack
            index = len(tracer.spans)
            parent = stack[-1] if stack else -1
            tracer.spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.counters[f"{layer}.errors"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                tracer.spans[index] = (qualname, start, end, parent, sample)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            if parent >= 0:
                tracer.overhead_ns[parent] += start - entered + clock() - end
            return result

        # The lru_cache wrapper's controls stay usable through the tracer.
        for control in ("cache_info", "cache_clear", "cache_parameters"):
            if hasattr(fn, control):
                setattr(traced, control, getattr(fn, control))
        return traced

    # -- samples ---------------------------------------------------------

    def begin(self, sample: int) -> None:
        self.sample = sample
        self._seen.clear()

    def end(self) -> None:
        self.sample = None
        self._seen.clear()

    def repeated(self, key: str, value) -> bool:
        """True iff an equal value was passed to ``key`` earlier in the sample."""
        seen = self._seen[key]
        if value in seen:
            return True
        seen.add(value)
        return False

    # -- results ---------------------------------------------------------

    def metrics(self, samples: int) -> dict[str, float]:
        """Per-sample layer metrics over the traced samples."""
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        for span, own in zip(self.spans, self_times(self.spans, self.overhead_ns)):
            calls[span[NAME]] += 1
            self_ns[span[NAME]] += own
        c = self.counters
        out: dict[str, float] = {}
        for layer, names in LAYER_FUNCTIONS.items():
            for fname in names:
                name = f"{layer}.{fname}"
                out[f"{name}.calls"] = calls[name] / samples
                out[f"{name}.self_s"] = self_ns[name] / 1e9 / samples
            out[f"{layer}.errors"] = c[f"{layer}.errors"] / samples
        out["core.pending_set.hit_frac"] = _ratio(
            c["core.pending_set.returned"], c["core.pending_set.scanned"]
        )
        for name in ("offline.opt_schedule", "offline.prefix_opt_series",
                     "prediction.build_choices"):
            out[f"{name}.repeat_frac"] = _ratio(c[f"{name}.repeats"], calls[name])
        out["offline.opt_schedule.kept_frac"] = _ratio(
            c["offline.opt_schedule.kept"], c["offline.opt_schedule.jobs"]
        )
        for step in ("greedy_step", "edf_step", "edf_alpha_step", "mg_step"):
            name = f"online.{step}"
            out[f"{name}.buffer_mean"] = _ratio(c[f"{name}.buffered"], calls[name])
        out["lap.lap_run.prediction_frac"] = _ratio(
            c["lap.lap_run.prediction_slots"], c["lap.lap_run.slots"]
        )
        out["lap.lap_run.switches"] = c["lap.lap_run.switches"] / samples
        return out

    def write_spans(self, path: Path) -> None:
        """Write all spans as gzipped CSV: index, name, start/end ns, parent, sample."""
        with gzip.open(path, "wt", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["index", "name", "start_ns", "end_ns", "parent", "sample"])
            for index, span in enumerate(self.spans):
                writer.writerow([index, *span])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def self_times(spans: list[tuple], overhead_ns: Optional[dict[int, int]] = None) -> list[int]:
    """Each span's duration minus the part of it that its child spans cover.

    Children may overlap each other or stick out of the parent; only the
    union of their intervals clipped to the parent is subtracted, and then
    ``overhead_ns[index]``, the tracer's own time inside the span.
    """
    overhead_ns = overhead_ns or {}
    children: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(index)
    out: list[int] = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0
        cursor = start
        for child in sorted(children.get(index, ()), key=lambda i: spans[i][START]):
            lo = max(spans[child][START], cursor)
            hi = min(spans[child][END], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered - overhead_ns.get(index, 0))
    return out


# -- per-function counters, taken after the call returns ---------------------


def _observe_pending_set(tracer: Tracer, args, kwargs, result) -> None:
    c = tracer.counters
    c["core.pending_set.scanned"] += len(_first_arg(args, kwargs, "instance").jobs)
    c["core.pending_set.returned"] += len(result)


def _observe_opt_schedule(tracer: Tracer, args, kwargs, result) -> None:
    instance = _first_arg(args, kwargs, "instance")
    c = tracer.counters
    c["offline.opt_schedule.repeats"] += tracer.repeated("opt_schedule", instance)
    c["offline.opt_schedule.kept"] += len(result.job_ids())
    c["offline.opt_schedule.jobs"] += len(instance.jobs)


def _observe_prefix_opt_series(tracer: Tracer, args, kwargs, result) -> None:
    instance = _first_arg(args, kwargs, "instance")
    tracer.counters["offline.prefix_opt_series.repeats"] += tracer.repeated(
        "prefix_opt_series", instance
    )


def _observe_build_choices(tracer: Tracer, args, kwargs, result) -> None:
    prediction = _first_arg(args, kwargs, "prediction")
    tracer.counters["prediction.build_choices.repeats"] += tracer.repeated(
        "build_choices", prediction
    )


def _buffer_observer(name: str):
    def observe(tracer: Tracer, args, kwargs, result) -> None:
        tracer.counters[f"{name}.buffered"] += len(_first_arg(args, kwargs, "buffer"))

    return observe


def _observe_lap_run(tracer: Tracer, args, kwargs, result) -> None:
    _, trace = result
    sources = [row.source for row in trace.rows]
    c = tracer.counters
    c["lap.lap_run.slots"] += len(sources)
    c["lap.lap_run.prediction_slots"] += sources.count("prediction")
    c["lap.lap_run.switches"] += sum(a != b for a, b in zip(sources, sources[1:]))


_OBSERVERS = {
    "core.pending_set": _observe_pending_set,
    "offline.opt_schedule": _observe_opt_schedule,
    "offline.prefix_opt_series": _observe_prefix_opt_series,
    "prediction.build_choices": _observe_build_choices,
    "lap.lap_run": _observe_lap_run,
    **{
        f"online.{step}": _buffer_observer(f"online.{step}")
        for step in ("greedy_step", "edf_step", "edf_alpha_step", "mg_step")
    },
}
