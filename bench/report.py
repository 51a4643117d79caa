"""Print the end-to-end metrics of all four workloads, by name and unit.

    python3 bench/report.py [--seed 1] [--seconds 10]

Runs ``bench/run_bench.py`` once per workload with tracing off and prints
``job_s``, ``setup_s``, ``peak_mib`` and ``failed_ratio`` for each, with
the number of jobs behind them.  Exits 1 if any job failed its gate.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run_bench
from workloads import make_workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args(argv)
    print(f"{'workload':20s} {'job_s (s)':>10s} {'setup_s (s)':>12s} {'peak_mib (MiB)':>15s}"
          f" {'failed_ratio (fraction)':>24s} {'jobs':>5s}")
    all_correct = True
    for name in make_workloads():
        proc = subprocess.run(
            [sys.executable, str(run_bench.BENCH / "run_bench.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=run_bench.ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{name:20s} run failed: {proc.stderr.strip()}")
            all_correct = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        m = {k: v["value"] for k, v in result["metrics"].items()}
        all_correct &= result["correct"]
        print(f"{name:20s} {m['job_s']:10.4f} {m['setup_s']:12.4f} {m['peak_mib']:15.3f}"
              f" {result['failed'] / result['attempted']:24.4f} {result['attempted']:5d}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
