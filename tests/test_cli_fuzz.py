"""Seeded sample of mutated inputs run through ``cli.main``.

Each command either exits 0 or ends with ``SystemExit`` whose message is a
single ``pktsched <cmd>: `` line: no other exception escapes, and a failed
command leaves nothing behind, so a failed ``experiment`` or ``ingest``
makes no output directory. Mutants come from the reader fuzz's mutator.
A mutant that reads but asks for more work than a unit test should do (a
horizon of thousands of slots, say) is not run; their count is bounded.
"""

import random
from pathlib import Path

import pytest

from pktsched.cli import main
from pktsched.core import read_instance_csv
from pktsched.experiments import parse_config_file, parse_generator_spec
from test_reader_fuzz import EVENTS, INSTANCE_CSV, SPECS, _mutants

SEED = 20281
CONFIG = b"""dataset = uniform
sweep = sigma
values = 0, 0.1
T = 4
lo = 1
hi = 2
slack = 2
trials = 1
algorithms = lap, mg
out_dir = out
"""
# The most slots times jobs per slot a mutant that reads may ask for.
WORK = 4000


def _instance_argv(rng, name, valid):
    return rng.choice(
        (
            ["opt", name],
            ["eta", "--real", name, "--pred", valid],
            ["eta", "--real", valid, "--pred", name],
            ["run", "--algo", "lap", "--real", name, "--pred", valid],
            ["run", "--algo", "lap", "--real", valid, "--pred", name, "--fallback", "mg"],
            ["run", "--algo", rng.choice(("mg", "greedy", "edf", "edf-alpha:0.5")),
             "--real", name],
        )
    )


def _config_work(name):
    config = parse_config_file(name)
    out = Path(config.out_dir or ".").resolve()
    if not out.is_relative_to(Path.cwd()):
        return None  # writes outside the mutant's own directory: not run
    shift = int(max(config.values)) if config.sweep == "k" else 0
    horizon = config.horizon + config.max_slack + shift
    return config.trials * len(config.values) * horizon * max(config.hi, 1)


def _spec_work(spec, seed):
    parsed = parse_generator_spec(spec, seed)
    count = parsed.hi if parsed.kind == "uniform" else parsed.m
    return (parsed.horizon + parsed.max_slack) * max(count, 1)


CASES = {
    # name: (valid inputs, mutant count, its file name or None for a
    # --spec string, argv of a mutant, work of a mutant that reads)
    "instance-csv": (
        (INSTANCE_CSV,), 360, "m.csv", _instance_argv, lambda name: read_instance_csv(name).horizon
    ),
    "config": (
        (CONFIG,), 320, "m.cfg",
        lambda rng, name, valid: ["experiment", "--config", name],
        _config_work,
    ),
    "events": (
        (EVENTS,), 240, "m.txt",
        lambda rng, name, valid: [
            "ingest", "--in", name, "--out-dir", "days",
            "--slots-per-day", "10", "--band-lo", "1", "--band-hi", "50",
        ],
        lambda name: 0,
    ),
    "generator-spec": (
        SPECS, 400, None,
        lambda rng, spec, valid: (
            ["gen", f"--spec={spec}", "--out", "x.csv"]
            + ([] if "seed" in spec else ["--seed", "1"])
        ),
        lambda spec: _spec_work(spec, None if "seed" in spec else 1),
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_ends_with_exit_0_or_one_message_line(tmp_path, monkeypatch, capsys, case):
    seeds, count, file_name, argv_of, work_of = CASES[case]
    rng = random.Random(f"{SEED}-{case}")
    valid = tmp_path / "valid.csv"
    valid.write_bytes(INSTANCE_CSV)
    outcomes = {"ok": 0, "failed": 0, "not run": 0}
    faults = []
    mutants = (m for seed in seeds for m in _mutants(rng, seed, count // len(seeds)))
    for i, data in enumerate(mutants):
        here = tmp_path / f"m{i}"
        here.mkdir()
        monkeypatch.chdir(here)
        if file_name is None:
            target = data.decode("latin-1")
        else:
            target = file_name
            (here / file_name).write_bytes(data)
        try:
            work = work_of(target)
        except (ValueError, OSError):
            work = 0  # it fails to read: run it, it fails early
        if work is None or work > WORK:
            outcomes["not run"] += 1
            continue
        argv = argv_of(rng, target, str(valid))
        before = sorted(p.name for p in here.iterdir())
        try:
            status = main(argv)
        except SystemExit as exc:
            message = exc.code
            prefix = f"pktsched {argv[0]}: "
            if not (
                isinstance(message, str)
                and message.startswith(prefix)
                and len(message.splitlines()) == 1
            ):
                faults.append((argv, data, f"message {message!r}"))
            left = sorted(p.name for p in here.iterdir())
            if left != before:
                faults.append((argv, data, f"a failed command left {left}"))
            outcomes["failed"] += 1
        except Exception as exc:  # anything else escaped
            faults.append((argv, data, repr(exc)))
        else:
            if status != 0:
                faults.append((argv, data, f"status {status}"))
            outcomes["ok"] += 1
        capsys.readouterr()
    assert faults == []
    # The sample reaches both ends, and few mutants are too big to run.
    assert outcomes["ok"] > 10 and outcomes["failed"] > 10, outcomes
    assert outcomes["not run"] <= count // 20, outcomes
