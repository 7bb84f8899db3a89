"""Command-line harness: optimal schedules, error measurement, single runs,
instance generation, event-log ingestion, and sweep experiments."""

from __future__ import annotations

import argparse
import csv
import os
import sys
from contextlib import contextmanager

from .core import (
    Instance,
    Schedule,
    read_instance_csv,
    schedule_weight,
    write_instance_csv,
)
from .experiments import (
    PREDICTION_ALGORITHMS,
    competitive_ratio,
    generate,
    ingest_snap_events,
    parse_config_file,
    parse_generator_spec,
    run_algorithm,
    run_experiment_to_dir,
    write_day_instances,
)
from .lap import check_threshold, write_trace_csv
from .offline import opt_schedule
from .online import OnlineStepPolicy
from .prediction import prediction_error


def _print_schedule(schedule: Schedule) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["slot", "job_id", "weight"])
    for t, job in enumerate(schedule.slots):
        writer.writerow(
            [t, job.id if job else "", repr(job.weight) if job else repr(0.0)]
        )


def _read_instance(command: str, path: str) -> Instance:
    """``read_instance_csv``, ending the command with a one-line message
    (no traceback) when the file cannot be read or parsed."""
    try:
        return read_instance_csv(path)
    except OSError as exc:
        raise SystemExit(
            f"pktsched {command}: cannot read {path}: {exc.strerror or exc}"
        ) from None
    except ValueError as exc:
        raise SystemExit(f"pktsched {command}: {path}: {exc}") from None


@contextmanager
def _one_line_errors(command: str):
    """End the command with a one-line message (no traceback) when a file
    cannot be read or written, or an input is rejected."""
    try:
        yield
    except OSError as exc:
        where = f"{exc.filename}: " if exc.filename is not None else ""
        raise SystemExit(f"pktsched {command}: {where}{exc.strerror or exc}") from None
    except ValueError as exc:
        raise SystemExit(f"pktsched {command}: {exc}") from None


def _cmd_opt(args) -> int:
    instance = _read_instance("opt", args.instance)
    schedule = opt_schedule(instance)
    print(f"# optimal_weight={schedule_weight(schedule)!r}")
    _print_schedule(schedule)
    return 0


def _cmd_eta(args) -> int:
    realization = _read_instance("eta", args.real)
    predicted = _read_instance("eta", args.pred)
    print(repr(prediction_error(realization, predicted)))
    return 0


def _cmd_run(args) -> int:
    with _one_line_errors("run"):
        if args.trace and args.algo != "lap":
            raise ValueError("--trace is only meaningful with --algo lap")
        if args.algo in PREDICTION_ALGORITHMS:
            if not args.pred:
                raise ValueError(f"--algo {args.algo} requires --pred")
        else:
            OnlineStepPolicy.parse(args.algo)
        OnlineStepPolicy.parse(args.fallback)
        check_threshold(args.rho)
    realization = _read_instance("run", args.real)
    predicted = _read_instance("run", args.pred) if args.pred else None
    schedule, trace = run_algorithm(
        args.algo, realization, predicted, args.rho, args.fallback
    )
    # Written before anything is printed, so an unwritable path fails alone.
    if args.trace:
        with _one_line_errors("run"):
            write_trace_csv(trace, args.trace)
    print(f"# algorithm={args.algo}")
    print(f"# weight={schedule_weight(schedule)!r}")
    # With a prediction the eta line below needs the realization's series
    # anyway, and its last value is the optimum's weight bit for bit.
    # Without one, a single solve is cheaper than the series.
    if predicted is not None:
        best = realization.prefix_opt[-1]
    else:
        best = schedule_weight(opt_schedule(realization))
    print(f"# competitive_ratio={competitive_ratio(realization, schedule, best)!r}")
    if predicted is not None:
        print(f"# eta={prediction_error(realization, predicted)!r}")
    _print_schedule(schedule)
    return 0


def _cmd_gen(args) -> int:
    with _one_line_errors("gen"):
        spec = parse_generator_spec(args.spec, seed=args.seed)
        write_instance_csv(generate(spec), args.out)
    return 0


def _cmd_ingest(args) -> int:
    with _one_line_errors("ingest"):
        instances = ingest_snap_events(
            args.infile,
            slots_per_day=args.slots_per_day,
            band=(args.band_lo, args.band_hi),
            seed=args.seed,
            ts_col=args.ts_col,
        )
        paths = write_day_instances(instances, args.out_dir)
    print(f"wrote {len(paths)} day instance(s) to {args.out_dir}")
    return 0


def _cmd_experiment(args) -> int:
    with _one_line_errors("experiment"):
        config = parse_config_file(args.config)
        records = run_experiment_to_dir(config)
    print(f"wrote {len(records)} records to {config.out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pktsched",
        description="Online packet scheduling with deadlines and predictions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("opt", help="print the optimal weight and schedule")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_opt)

    p = sub.add_parser("eta", help="print the prediction error")
    p.add_argument("--real", required=True)
    p.add_argument("--pred", required=True)
    p.set_defaults(func=_cmd_eta)

    p = sub.add_parser("run", help="run one algorithm on an instance")
    p.add_argument(
        "--algo",
        required=True,
        help="lap | blind | greedy | edf | edf-alpha:<alpha> | mg",
    )
    p.add_argument("--real", required=True)
    p.add_argument("--pred")
    p.add_argument("--rho", type=float, default=1.1, help="threshold for lap (>= 1)")
    p.add_argument(
        "--fallback", default="greedy", help="fallback policy for lap"
    )
    p.add_argument("--trace", help="write the per-slot trace CSV here (lap only)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("gen", help="generate a synthetic instance CSV")
    p.add_argument(
        "--spec",
        required=True,
        help="e.g. uniform:T=75,lo=2,hi=8 or powerlaw:T=75,a=150,m=500",
    )
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("ingest", help="bucket an event log into day instances")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--slots-per-day", type=int, default=75)
    p.add_argument("--band-lo", type=int, default=300)
    p.add_argument("--band-hi", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ts-col", type=int, default=2)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("experiment", help="run a sweep from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        # Flushed here, so a reader that has gone away (`| head`) is
        # caught below and not at exit.
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone: send what is still buffered to devnull, so
        # the flush at exit does not fail again, and exit non-zero.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
