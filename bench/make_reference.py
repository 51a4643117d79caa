"""Rewrite ``bench/reference/<workload>.json``: one job's summaries per seed.

Run from the root of a checkout whose outputs are known to be right:

    python3 bench/make_reference.py [WORKLOAD ...]

The benchmark compares every job it runs on one of these seeds against the
stored summaries (``workloads.gate``).  Regenerate only when a change is
meant to alter the program's numbers, and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys

import run_bench
from workloads import REL_TOL, cli_step, gate, make_workloads

REFERENCE_SEEDS = range(21)


def reference_for(workload, seed: int) -> dict:
    """Summaries of the set-up command and of one job, after the gate."""
    workdir = run_bench.WORK / workload.name
    workdir.mkdir(parents=True, exist_ok=True)
    setup = cli_step("setup", workload.setup_args(workdir, seed))
    steps = workload.prepare(workdir)()
    problems = gate([setup] if setup.summary is not None else [], None) + gate(steps, None)
    if setup.exit_code != 0 or problems:
        raise SystemExit(f"{workload.name} seed {seed}: {setup.error} {problems}")
    ref = {step.label: step.summary for step in steps}
    if setup.summary is not None:
        ref["setup"] = setup.summary
    return ref


def main() -> int:
    os.chdir(run_bench.ROOT)
    sys.path.insert(0, str(run_bench.SRC))
    out = run_bench.BENCH / "reference"
    out.mkdir(exist_ok=True)
    names = sys.argv[1:] or list(make_workloads())
    for name in names:
        workload = make_workloads()[name]
        seeds = {str(seed): reference_for(workload, seed) for seed in REFERENCE_SEEDS}
        doc = {"workload": workload.name, "rel_tol": REL_TOL, "seeds": seeds}
        (out / f"{workload.name}.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"{workload.name}: {len(seeds)} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
