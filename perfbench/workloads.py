"""Benchmark workloads: inputs from a seed, one timed sample, output checks.

A sample is one unit of user work. ``sweep`` runs one realization seed
through the paper's sigma and k grids via ``experiments.run_experiment``.
``long_horizon`` and ``wide_burst`` run ``pktsched run`` for lap and then
for mg in-process through ``cli.main`` on freshly generated instance files.
Every sample gets a fresh instance derived from the workload seed and the
sample index, so in-process caches never make a later sample cheaper than
a fresh ``pktsched`` process would be.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Any

# ``ResultRecord`` columns that are a function of the seed; ``runtime_s``,
# the wall-clock column, is left out of the digest.
RECORD_COLUMNS = ("dataset", "sweep", "sweep_value", "trial", "algorithm", "eta", "ratio")

SIGMAS = tuple(round(0.05 * i, 2) for i in range(11))
KS = tuple(float(k) for k in range(7))
ROSTER = ("lap", "mg", "greedy", "edf", "edf-alpha")
RHO = 1.1
GREEDY_GAMMA = 2.0
# LAP with a greedy fallback is at most rho + gamma_greedy + 1 competitive.
LAP_CAP = RHO + GREEDY_GAMMA + 1.0
PHI = (1 + math.sqrt(5)) / 2
RATIO_SLACK = 1e-9
# Weight noise of the CLI workloads' predictions.
PRED_SIGMA = 0.2


def derive_seed(*parts) -> int:
    digest = hashlib.sha256(repr(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def records_digest(records) -> str:
    """Digest of every ``RECORD_COLUMNS`` value of every record, in order."""
    h = hashlib.sha256()
    for r in records:
        h.update(",".join(repr(getattr(r, col)) for col in RECORD_COLUMNS).encode())
        h.update(b"\n")
    return h.hexdigest()[:20]


@dataclass
class Outcome:
    """What the benchmark learned from one sample's outputs."""

    schedules: int
    digest: str
    problems: list[str]
    jobs: int
    horizon: int


class Sweep:
    """The paper's figure workload (the acceptance gate's sweep, trials=1)."""

    name = "sweep"
    params = dict(dataset="uniform", horizon=75, lo=2, hi=8, max_slack=10)

    def prepare(self, pkg: ModuleType, out_dir: Path, seed: int, index: int):
        config_seed = derive_seed(self.name, seed, index)
        common = dict(
            trials=1,
            algorithms=ROSTER,
            rho_excess=RHO - 1.0,
            alpha=0.5,
            fallback="greedy",
            seed=config_seed,
            **self.params,
        )
        return (
            pkg.experiments.ExperimentConfig(sweep="sigma", values=SIGMAS, **common),
            pkg.experiments.ExperimentConfig(sweep="k", values=KS, **common),
        )

    def steps(self, pkg: ModuleType, prepared) -> list:
        """The sample's user work: one ``run_experiment`` call per grid."""
        return [functools.partial(_run_experiment, pkg, config) for config in prepared]

    def check(self, pkg: ModuleType, prepared, outputs) -> Outcome:
        records = [r for grid in outputs for r in grid]
        problems = []
        expected = len(ROSTER) * (len(SIGMAS) + len(KS))
        if len(records) != expected:
            problems.append(f"{len(records)} records, expected {expected}")
        for r in records:
            where = f"{r.sweep}={r.sweep_value} {r.algorithm}"
            if not r.ratio >= 1.0:
                problems.append(f"{where}: ratio {r.ratio!r} < 1")
            if r.algorithm == "lap":
                if r.sweep_value == 0.0 and r.ratio != 1.0:
                    problems.append(f"{where}: lap not 1-consistent ({r.ratio!r})")
                if r.ratio > LAP_CAP + RATIO_SLACK:
                    problems.append(f"{where}: lap ratio {r.ratio!r} above {LAP_CAP}")
            if r.algorithm == "mg" and r.ratio > PHI + RATIO_SLACK:
                problems.append(f"{where}: mg ratio {r.ratio!r} above phi")
        realization = pkg.experiments.generate(
            pkg.experiments.GeneratorSpec(
                kind=self.params["dataset"],
                horizon=self.params["horizon"],
                lo=self.params["lo"],
                hi=self.params["hi"],
                max_slack=self.params["max_slack"],
                seed=pkg.experiments.derive_seed(prepared[0].seed, "instance", 0),
            )
        )
        return Outcome(
            len(records), records_digest(records), problems,
            len(realization.jobs), realization.horizon,
        )


class CliRuns:
    """``pktsched run`` for lap (greedy fallback) and then mg, in-process."""

    def __init__(self, name: str, spec: dict[str, Any]):
        self.name = name
        self.spec = spec
        self._seen: set[str] = set()

    def prepare(self, pkg: ModuleType, out_dir: Path, seed: int, index: int):
        ex = pkg.experiments
        real = ex.generate(
            ex.GeneratorSpec(**self.spec, seed=derive_seed(self.name, seed, index, "real"))
        )
        pred = ex.perturb(
            real,
            ex.PerturbationSpec(
                "weight-gauss",
                sigma=PRED_SIGMA,
                seed=derive_seed(self.name, seed, index, "pred"),
            ),
        )
        out_dir.mkdir(parents=True, exist_ok=True)
        real_path, pred_path = out_dir / "real.csv", out_dir / "pred.csv"
        pkg.write_instance_csv(real, real_path)
        pkg.write_instance_csv(pred, pred_path)
        argvs = (
            ["run", "--algo", "lap", "--rho", str(RHO), "--fallback", "greedy",
             "--real", str(real_path), "--pred", str(pred_path)],
            ["run", "--algo", "mg", "--real", str(real_path)],
        )
        fingerprints = tuple(
            hashlib.sha256(path.read_bytes()).hexdigest() for path in (real_path, pred_path)
        )
        return real, pred, argvs, fingerprints

    def steps(self, pkg: ModuleType, prepared) -> list:
        """The sample's user work: one ``pktsched run`` per algorithm."""
        return [functools.partial(_cli_main, pkg, argv) for argv in prepared[2]]

    def check(self, pkg: ModuleType, prepared, outputs) -> Outcome:
        real, pred, argvs, fingerprints = prepared
        problems = []
        for fp in fingerprints:
            if fp in self._seen:
                problems.append("an instance repeats one of an earlier sample")
            self._seen.add(fp)
        h = hashlib.sha256()
        for algo, (code, text) in zip(("lap", "mg"), outputs):
            if code != 0:
                problems.append(f"{algo}: exit code {code}")
            digest_lines, found = check_run_output(pkg, real, algo, text)
            problems.extend(found)
            h.update("\n".join(digest_lines).encode())
            h.update(b"\n\n")
        return Outcome(len(outputs), h.hexdigest()[:20], problems, len(real.jobs), real.horizon)


def _run_experiment(pkg: ModuleType, config) -> list:
    # Looked up at call time, so a traced run sees the rebound function.
    return pkg.experiments.run_experiment(config)


def _cli_main(pkg: ModuleType, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = pkg.cli.main(argv)
    return code, out.getvalue()


def check_run_output(pkg: ModuleType, real, algo: str, text: str) -> tuple[list[str], list[str]]:
    """Check one ``pktsched run`` output against its realization.

    Returns the lines that enter the digest (weight, competitive ratio,
    eta and schedule rows) and the problems found.
    """
    problems: list[str] = []
    fields: dict[str, str] = {}
    digest_lines: list[str] = []
    rows: list[list[str]] = []
    lines = text.splitlines()
    in_rows = False
    for line in lines:
        if in_rows:
            rows.append(line.split(","))
            digest_lines.append(line)
        elif line == "slot,job_id,weight":
            in_rows = True
        elif line.startswith("# ") and "=" in line:
            key, _, value = line[2:].partition("=")
            if key in ("weight", "competitive_ratio", "eta"):
                fields[key] = value
                digest_lines.append(line)
    for key in ("weight", "competitive_ratio") + (("eta",) if algo == "lap" else ()):
        if key not in fields:
            problems.append(f"{algo}: no '# {key}=' line")
    if problems:
        return digest_lines, problems
    slots = []
    for t, row in enumerate(rows):
        if len(row) != 3 or row[0] != str(t):
            problems.append(f"{algo}: bad schedule row {t}: {row}")
            return digest_lines, problems
        job = real.by_id.get(row[1]) if row[1] else None
        if row[1] and job is None:
            problems.append(f"{algo}: slot {t} runs unknown job {row[1]!r}")
            return digest_lines, problems
        if job is not None:
            job = pkg.Job(job.id, job.release, job.deadline, float(row[2]))
        slots.append(job)
    ok, violations = pkg.validate_schedule(real, pkg.Schedule(tuple(slots)))
    if not ok:
        problems.append(f"{algo}: invalid schedule: {violations[:3]}")
    weight = float(fields["weight"])
    if weight != math.fsum(j.weight for j in slots if j is not None):
        problems.append(f"{algo}: printed weight is not the sum of its rows")
    ratio = float(fields["competitive_ratio"])
    cap = LAP_CAP if algo == "lap" else PHI
    if not 1.0 <= ratio <= cap + RATIO_SLACK:
        problems.append(f"{algo}: competitive ratio {ratio!r} outside [1, {cap}]")
    return digest_lines, problems


WORKLOADS = {
    w.name: w
    for w in (
        Sweep(),
        CliRuns("long_horizon", dict(kind="uniform", horizon=1200, lo=2, hi=8, max_slack=10)),
        CliRuns("wide_burst", dict(kind="powerlaw", horizon=150, a=30.0, m=500.0, max_slack=40)),
    )
}
