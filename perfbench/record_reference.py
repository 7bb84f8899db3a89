"""Record the reference output digests for the default seed.

    python3 perfbench/record_reference.py

Runs the first ``SAMPLES`` samples of every workload at ``run.DEFAULT_SEED``
and writes their digests to ``reference.json``. Record from a commit whose
outputs are known good; every benchmark run compares against the file.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import WORKLOADS

SAMPLES = 32


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    pkg = run.import_package()
    digests = {}
    for name, workload in WORKLOADS.items():
        digests[name] = []
        for index in range(SAMPLES):
            prepared = workload.prepare(pkg, run.OUT / name, run.DEFAULT_SEED, index)
            outputs = [step() for step in workload.steps(pkg, prepared)]
            outcome = workload.check(pkg, prepared, outputs)
            if outcome.problems:
                print(f"{name} sample {index}: {outcome.problems}", file=sys.stderr)
                return 1
            digests[name].append(outcome.digest)
            print(name, index, outcome.digest, flush=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
