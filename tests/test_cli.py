import re
import subprocess
import sys
from pathlib import Path

import pytest

from pktsched import (
    ExperimentConfig,
    GeneratorSpec,
    Job,
    PerturbationSpec,
    generate,
    offline,
    opt_schedule,
    perturb,
    read_instance_csv,
    schedule_weight,
    write_instance_csv,
)
from pktsched import cli, prediction
from pktsched.cli import main
from pktsched.core import MAX_HORIZON
from conftest import mk


def _write_fixtures(tmp_path, j1, j2):
    real = tmp_path / "real.csv"
    pred = tmp_path / "pred.csv"
    write_instance_csv(j2, real)
    write_instance_csv(j1, pred)
    return real, pred


def test_opt_command(tmp_path, j2, capsys):
    real = tmp_path / "real.csv"
    write_instance_csv(j2, real)
    assert main(["opt", str(real)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "# optimal_weight=1.999"
    assert out[1] == "slot,job_id,weight"
    assert out[2] == "0,b,1.0"


def test_eta_command(tmp_path, j1, j2, capsys):
    real, pred = _write_fixtures(tmp_path, j1, j2)
    assert main(["eta", "--real", str(real), "--pred", str(pred)]) == 0
    assert capsys.readouterr().out.strip() == repr(1.999 / 1.01)


def test_run_lap_with_trace(tmp_path, j1, j2, capsys):
    real, pred = _write_fixtures(tmp_path, j1, j2)
    trace = tmp_path / "trace.csv"
    assert (
        main(
            [
                "run", "--algo", "lap", "--real", str(real), "--pred", str(pred),
                "--rho", "1.1", "--fallback", "greedy", "--trace", str(trace),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "# weight=1.01" in out
    assert trace.read_text(encoding="utf-8").splitlines()[0] == (
        "t,source,job_id,weight,local_ratio"
    )


def test_run_benchmarks(tmp_path, j2, capsys):
    real = tmp_path / "real.csv"
    write_instance_csv(j2, real)
    for algo, weight in (("greedy", "1.999"), ("edf", "1.01"), ("mg", "1.999"),
                         ("edf-alpha:0.5", "1.999")):
        assert main(["run", "--algo", algo, "--real", str(real)]) == 0
        assert f"# weight={weight}" in capsys.readouterr().out


@pytest.mark.parametrize(
    "algo, with_pred", [("lap", True), ("blind", True), ("mg", False)]
)
def test_run_solves_one_optimum(tmp_path, monkeypatch, capsys, algo, with_pred):
    # With a prediction, run solves the prediction's optimum once (its
    # choices serve the algorithm and the eta line) and the realization's
    # series once, whose last value is the ratio's optimum. Without one it
    # solves the realization's optimum and builds no series.
    real_inst = generate(GeneratorSpec("uniform", horizon=30, lo=1, hi=4, seed=3))
    pred_inst = perturb(real_inst, PerturbationSpec("weight-gauss", sigma=0.2, seed=4))
    real, pred = tmp_path / "real.csv", tmp_path / "pred.csv"
    write_instance_csv(real_inst, real)
    write_instance_csv(pred_inst, pred)
    solved, series = [], []
    original_ranks, original_series = offline._optimal_ranks, offline.prefix_opt_series

    def counted_ranks(instance):
        solved.append(instance)
        return original_ranks(instance)

    def counted_series(instance):
        series.append(instance)
        return original_series(instance)

    monkeypatch.setattr(offline, "_optimal_ranks", counted_ranks)
    monkeypatch.setattr(offline, "prefix_opt_series", counted_series)
    argv = ["run", "--algo", algo, "--real", str(real)]
    assert main(argv + (["--pred", str(pred)] if with_pred else [])) == 0
    assert solved == [pred_inst if with_pred else real_inst]
    assert series == ([real_inst] if with_pred else [])
    # The printed ratio is the optimum's weight over the schedule's.
    out = capsys.readouterr().out
    weight = float(re.search(r"^# weight=(.*)$", out, re.M).group(1))
    ratio = float(re.search(r"^# competitive_ratio=(.*)$", out, re.M).group(1))
    assert ratio == schedule_weight(opt_schedule(real_inst)) / weight


def test_run_lap_requires_pred(tmp_path, j2):
    real = tmp_path / "real.csv"
    write_instance_csv(j2, real)
    with pytest.raises(SystemExit):
        main(["run", "--algo", "lap", "--real", str(real)])


def test_run_trace_needs_lap_before_any_output(tmp_path, j2, capsys):
    real = tmp_path / "real.csv"
    write_instance_csv(j2, real)
    trace = tmp_path / "trace.csv"
    with pytest.raises(SystemExit, match="only meaningful with --algo lap"):
        main(["run", "--algo", "greedy", "--real", str(real), "--trace", str(trace)])
    assert capsys.readouterr().out == ""
    assert not trace.exists()


@pytest.mark.parametrize(
    "flags, message",
    [(["--algo", "gredy"], "unknown policy 'gredy'"),
     (["--algo", "lap", "--fallback", "gredy"], "unknown policy 'gredy'"),
     (["--algo", "mg", "--fallback", "gredy"], "unknown policy 'gredy'"),
     (["--algo", "lap", "--rho", "0.5"], "threshold must be >= 1, got 0.5"),
     (["--algo", "lap", "--rho", "nan"], "threshold must be >= 1, got nan")],
    ids=["algo", "lap-fallback", "mg-fallback", "rho", "rho-nan"],
)
def test_run_rejects_unknown_policy_before_reading_input(tmp_path, flags, message, capsys):
    # Neither file exists: an option checked after the input would fail there.
    missing = [str(tmp_path / "real.csv"), str(tmp_path / "pred.csv")]
    with pytest.raises(SystemExit, match=f"^pktsched run: {message}$") as exc:
        main(["run", *flags, "--real", missing[0], "--pred", missing[1]])
    # A string code is printed alone on exit, with no traceback.
    assert isinstance(exc.value.code, str) and "\n" not in exc.value.code
    assert capsys.readouterr() == ("", "")


def test_gen_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    spec = "uniform:T=8,lo=1,hi=3,seed=11"
    assert main(["gen", "--spec", spec, "--out", str(out1)]) == 0
    assert main(["gen", "--spec", spec, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    inst = read_instance_csv(out1)
    assert 8 <= len(inst.jobs) <= 24


def test_ingest_command(tmp_path, capsys):
    events = tmp_path / "events.txt"
    lines = [f"1 2 {(i * 86_400) // 310}" for i in range(310)]
    events.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out_dir = tmp_path / "days"
    assert main(["ingest", "--in", str(events), "--out-dir", str(out_dir)]) == 0
    assert "wrote 1 day instance(s)" in capsys.readouterr().out
    day = read_instance_csv(out_dir / "day_000.csv")
    assert len(day.jobs) == 310


def test_experiment_command(tmp_path, capsys):
    out = tmp_path / "results"
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "dataset = uniform\nsweep = sigma\nvalues = 0,0.2\ntrials = 1\n"
        "algorithms = lap,greedy\nseed = 5\nhorizon = 4\nlo = 1\nhi = 1\n"
        f"out_dir = {out}\n",
        encoding="utf-8",
    )
    assert main(["experiment", "--config", str(cfg)]) == 0
    assert "wrote 4 records" in capsys.readouterr().out
    assert (out / "results.csv").exists() and (out / "series.csv").exists()


def _overflowing(tmp_path):
    # Each weight is finite, but their sum passes the float maximum.
    path = tmp_path / "big.csv"
    path.write_text("id,release,deadline,weight\na,0,1,1e308\nb,0,2,1e308\n", encoding="utf-8")
    return path


def _malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,release,deadline,weight\na,0,1\n", encoding="utf-8")
    return path


def _far(tmp_path):
    # One job, but a horizon past the bound: rejected before any per-slot table.
    path = tmp_path / "far.csv"
    path.write_text("# horizon=1000000000\nid,release,deadline,weight\na,0,1,1.0\n", encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "make, message",
    [(_malformed, "line 2: expected 4 fields, got 3"),
     (lambda tmp_path: tmp_path / "missing.csv", "cannot read .*No such file or directory"),
     (_overflowing, "line 3: weights sum past the float maximum"),
     (_far, "horizon = 1000000000 exceeds MAX_HORIZON = 1000000")],
    ids=["malformed", "missing", "overflow", "far"],
)
@pytest.mark.parametrize(
    "command",
    [["opt", "{path}"],
     ["eta", "--real", "{path}", "--pred", "{good}"],
     ["eta", "--real", "{good}", "--pred", "{path}"],
     ["run", "--algo", "mg", "--real", "{path}"],
     ["run", "--algo", "lap", "--real", "{good}", "--pred", "{path}"]],
    ids=["opt", "eta-real", "eta-pred", "run", "run-pred"],
)
def test_unreadable_instance_exits_with_one_line(tmp_path, j2, make, message, command, capsys):
    good = tmp_path / "good.csv"
    write_instance_csv(j2, good)
    path = make(tmp_path)
    argv = [a.format(path=path, good=good) for a in command]
    with pytest.raises(SystemExit, match=f"^pktsched {argv[0]}: .*{message}$") as exc:
        main(argv)
    # A string code is printed alone on exit, with no traceback.
    assert isinstance(exc.value.code, str) and "\n" not in exc.value.code
    assert capsys.readouterr() == ("", "")


def _config(tmp_path, text, name="bad.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "command, message",
    [(["run", "--algo", "lap", "--real", "{good}", "--pred", "{good}",
       "--trace", "{tmp}/nodir/t.csv"], "{tmp}/nodir/t.csv: No such file or directory"),
     (["run", "--algo", "lap", "--real", "{tmp}/missing.csv"], "--algo lap requires --pred"),
     (["run", "--algo", "blind", "--real", "{tmp}/missing.csv"], "--algo blind requires --pred"),
     (["run", "--algo", "greedy", "--real", "{tmp}/missing.csv", "--trace", "{tmp}/t.csv"],
      "--trace is only meaningful with --algo lap"),
     (["gen", "--spec", "uniform:T=5", "--out", "{tmp}/nodir/x.csv"],
      "{tmp}/nodir/x.csv: No such file or directory"),
     (["gen", "--spec", "bogus:T=5", "--out", "{tmp}/x.csv"], "unknown generator kind 'bogus'"),
     (["gen", "--spec", "uniform:T=abc", "--out", "{tmp}/x.csv"], "key 'T': invalid literal for int() with base 10: 'abc'"),
     (["gen", "--spec", "uniform:T=5,horizon=6", "--out", "{tmp}/x.csv"],
      "key 'horizon' sets 'horizon' again"),
     (["gen", "--spec", "uniform:T=5,seed=3", "--seed", "1", "--out", "{tmp}/x.csv"],
      "seed given twice: 3 in the spec and 1"),
     (["gen", "--spec", "uniform:T=1000000", "--out", "{tmp}/x.csv"],
      "horizon + max_slack = 1000010 exceeds MAX_HORIZON = 1000000"),
     (["gen", "--spec", "uniform:lo=1000000000000,hi=1000000000000", "--out", "{tmp}/x.csv"],
      "horizon * hi = 75000000000000 exceeds MAX_GENERATED_JOBS = 10000000"),
     (["gen", "--spec", "powerlaw:m=inf", "--out", "{tmp}/x.csv"], "m must be finite and >= 0, got inf"),
     (["gen", "--spec", "powerlaw:a=nan", "--out", "{tmp}/x.csv"], "a must be finite and > 0, got nan"),
     (["gen", "--spec", "powerlaw:m=nan", "--out", "{tmp}/x.csv"], "m must be finite and >= 0, got nan"),
     (["experiment", "--config", "{tmp}/nope.cfg"], "{tmp}/nope.cfg: No such file or directory"),
     (["experiment", "--config", "{bogus_cfg}"], "line 1: unknown key 'bogus'"),
     (["experiment", "--config", "{short_cfg}"], "missing required key(s): values"),
     (["ingest", "--in", "{tmp}/missing.txt", "--out-dir", "{tmp}/days"],
      "{tmp}/missing.txt: No such file or directory"),
     (["ingest", "--in", "{tmp}/missing.txt", "--out-dir", "{tmp}/days", "--slots-per-day", "0"],
      "slots_per_day must be >= 1, got 0"),
     (["ingest", "--in", "{tmp}/missing.txt", "--out-dir", "{tmp}/days", "--ts-col", "-3"],
      "ts_col must be >= 0, got -3"),
     (["ingest", "--in", "{tmp}/missing.txt", "--out-dir", "{tmp}/days",
       "--slots-per-day", "999991"],
      "slots_per_day + max_slack = 1000001 exceeds MAX_HORIZON = 1000000")],
    ids=["run-trace", "run-lap-no-pred", "run-blind-no-pred", "run-trace-not-lap", "gen-out",
         "gen-kind", "gen-value", "gen-key-twice", "gen-seed-twice", "gen-horizon", "gen-jobs", "gen-m-inf",
         "gen-a-nan", "gen-m-nan", "experiment-missing", "experiment-key",
         "experiment-no-values", "ingest-missing", "ingest-slots", "ingest-ts-col",
         "ingest-horizon"],
)
def test_unusable_path_or_option_exits_with_one_line(tmp_path, j2, command, message, capsys):
    good = tmp_path / "good.csv"
    write_instance_csv(j2, good)
    names = {
        "good": good,
        "tmp": tmp_path,
        "bogus_cfg": _config(tmp_path, "bogus = 1\n"),
        "short_cfg": _config(tmp_path, "dataset = uniform\nsweep = sigma\n", "short.cfg"),
    }
    argv = [a.format(**names) for a in command]
    pattern = re.escape(f"pktsched {argv[0]}: {message.format(**names)}")
    with pytest.raises(SystemExit, match=f"^{pattern}$") as exc:
        main(argv)
    # A string code is printed alone on exit, with no traceback; run has
    # printed no schedule before it fails.
    assert isinstance(exc.value.code, str) and "\n" not in exc.value.code
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize(
    "key, field, value, message",
    [("slots_per_day", "slots_per_day", 0, "slots_per_day must be >= 1, got 0"),
     ("slack", "max_slack", 0, "max_slack must be >= 1, got 0"),
     ("ts_col", "ts_col", -1, "ts_col must be >= 0, got -1")],
    ids=["slots-per-day", "slack", "ts-col"],
)
def test_event_log_config_fails_before_making_out_dir(tmp_path, key, field, value, message, capsys):
    # An event-log config runs ingest_snap_events' own argument checks
    # when it is built, so `experiment` fails before it makes out_dir.
    events = tmp_path / "events.txt"
    events.write_text("1 2 86400\n", encoding="utf-8")
    out = tmp_path / "evout"
    with pytest.raises(ValueError, match=f"^{message}$"):
        ExperimentConfig(
            dataset=str(events), sweep="sigma", values=(0.0,), out_dir=str(out), **{field: value}
        )
    cfg = _config(
        tmp_path, f"dataset = {events}\nsweep = sigma\nvalues = 0\n{key} = {value}\nout_dir = {out}\n"
    )
    with pytest.raises(SystemExit, match=f"^pktsched experiment: {message}$"):
        main(["experiment", "--config", str(cfg)])
    assert not out.exists()
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize(
    "dataset, window",
    [("uniform", "horizon"), ("events", "slots_per_day")],
)
def test_deadline_shift_past_the_bound_fails_before_making_out_dir(tmp_path, dataset, window, capsys):
    # A k sweep grows the largest deadline, at most window + max_slack, by
    # at most max(values): the config checks that sum when it is built.
    events = tmp_path / "events.txt"
    events.write_text("1 2 86400\n", encoding="utf-8")
    name = str(events) if dataset == "events" else dataset
    out = tmp_path / "kout"
    message = (
        f"{window} + max_slack + max(values) = 100000000000000000015 "
        "exceeds MAX_HORIZON = 1000000"
    )
    cfg = _config(
        tmp_path,
        f"dataset = {name}\nsweep = k\nvalues = 0, 1e20\nT = 5\n"
        f"slots_per_day = 5\nout_dir = {out}\n",
    )
    with pytest.raises(SystemExit, match=f"^pktsched experiment: {re.escape(message)}$"):
        main(["experiment", "--config", str(cfg)])
    assert not out.exists()
    assert capsys.readouterr() == ("", "")
    # Right at the bound the config builds; a sigma sweep shifts nothing.
    fields = {window: 5, "out_dir": str(out)}
    ExperimentConfig(name, "k", (0.0, MAX_HORIZON - 15.0), **fields)
    ExperimentConfig(name, "sigma", (0.0, 1e20), **fields)


@pytest.mark.parametrize("stamp", ["inf", "-inf", "1e400", "nan"])
def test_ingest_of_a_timestamp_with_no_int_exits_with_one_line(tmp_path, stamp, capsys):
    events = tmp_path / "events.txt"
    events.write_text(f"1 2 86400\n1 2 {stamp}\n", encoding="utf-8")
    out = tmp_path / "days"
    message = f"pktsched ingest: line 2: field 2 ('{stamp}') is not a timestamp"
    with pytest.raises(SystemExit, match=f"^{re.escape(message)}$"):
        main(["ingest", "--in", str(events), "--out-dir", str(out)])
    assert not out.exists()
    assert capsys.readouterr() == ("", "")


def test_a_run_builds_a_record_only_for_a_job_a_schedule_holds(tmp_path, monkeypatch, capsys):
    # `run` reads columns: it builds a Job record only for a slot of a
    # schedule it makes, at most once per instance and rank, and never
    # every record (`jobs`, `by_id`).
    # Overloaded: most jobs never run.
    real = generate(GeneratorSpec("powerlaw", horizon=40, a=30, m=200, max_slack=12, seed=3))
    pred = perturb(real, PerturbationSpec("weight-gauss", sigma=0.2, seed=4))
    real_path, pred_path = tmp_path / "real.csv", tmp_path / "pred.csv"
    write_instance_csv(real, real_path)
    write_instance_csv(pred, pred_path)
    built, read, schedules = [], [], []
    init = Job.__init__

    def counted_init(job, *fields):
        built.append(fields[0])
        init(job, *fields)

    def kept_read(path):
        read.append(read_instance_csv(path))
        return read[-1]

    def kept(make):
        def run(*args):
            result = make(*args)
            schedules.append(result[0] if isinstance(result, tuple) else result)
            return result

        return run

    monkeypatch.setattr(Job, "__init__", counted_init)
    monkeypatch.setattr(cli, "read_instance_csv", kept_read)
    monkeypatch.setattr(cli, "run_algorithm", kept(cli.run_algorithm))
    monkeypatch.setattr(prediction, "apply_choices", kept(prediction.apply_choices))
    assert main(["run", "--algo", "lap", "--real", str(real_path), "--pred", str(pred_path)]) == 0
    assert main(["run", "--algo", "mg", "--real", str(real_path)]) == 0
    capsys.readouterr()
    assert len(read) == 3 and len(schedules) == 3
    schedules += [vars(inst)["optimum"] for inst in read if "optimum" in vars(inst)]
    assert len(schedules) == 5  # lap, the followed choices, mg, two optima
    held = sum(job is not None for schedule in schedules for job in schedule.slots)
    assert 0 < len(built) <= held < len(real.ids) + len(pred.ids)
    assert len(built) == sum(len(inst._records) - inst._records.count(None) for inst in read)
    for inst in read:
        assert "jobs" not in vars(inst) and "by_id" not in vars(inst)


SRC = Path(__file__).resolve().parents[1] / "src"

# The entry point as the installed script runs it, in a fresh interpreter.
ENTRY = """
import sys
sys.path.insert(0, sys.argv.pop(1))
from pktsched import cli, prediction
from pktsched.cli import main
from pktsched.core import MAX_HORIZON
sys.exit(main())
"""


@pytest.mark.parametrize(
    "command",
    [["opt", "{i}"], ["run", "--algo", "lap", "--real", "{i}", "--pred", "{i}"]],
)
def test_reader_that_stops_early_ends_the_command_quietly(tmp_path, command):
    # 20,001 schedule rows, more than a pipe holds, so the command is
    # still writing when the reader goes away, as under `| head -n 1`.
    path = tmp_path / "long.csv"
    write_instance_csv(mk([("a", 0, 20000, 1.0), ("b", 0, 2, 0.5)]), path)
    argv = [part.format(i=path) for part in command]
    with subprocess.Popen(
        [sys.executable, "-I", "-c", ENTRY, str(SRC), *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as child:
        assert child.stdout.readline().startswith(b"# ")
        child.stdout.close()
        err = child.stderr.read().decode()
    assert "Traceback" not in err, err
    # Non-zero: the command did write into the closed pipe.
    assert child.returncode == 1
