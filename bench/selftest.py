"""Smoke test of the benchmark at tiny sizes; takes about a minute.

    python3 bench/selftest.py

Runs every workload untraced and traced at 1% of its horizon and checks
that each run reports exactly the metrics ``BENCHMARK.json`` names, with
their units; that the exact per-round counts hold; that the layer self
times add up to the traced job time; that tracing leaves no wrapper behind;
that the correctness gate passes an untouched reference and fails a
tampered one; and that the benchmark fails, printing no result, when the
checkout holds only the benchmark's own files.
"""

from __future__ import annotations

import copy
import importlib
import json
import math
import os
import shutil
import subprocess
import sys

import run_bench
from make_reference import reference_for
from tracing import LAYERS
from workloads import gate, make_workloads

EXACT_COUNTS = {
    "vaw-piecewise": {"linreg.factorizations_per_round": 2.0},
    "identity-rotating": {"linreg.factorizations_per_round": 2.0},
    "logistic-pool": {"logreg.factorizations_per_expert_round": 2.0},
    "o2nc-long": {"o2nc.grad_calls_per_round": 3.0},
}


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def check_runs(spec: dict) -> None:
    for name, workload in make_workloads(scale=0.01).items():
        for trace, expected in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result = run_bench.run_workload(workload, 0, 0, trace, None, cold_starts=1)
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            check(units == {m["name"]: m["unit"] for m in expected},
                  f"{name} trace {int(trace)}: metrics {sorted(units)}")
            check(result["failed"] == 0, f"{name}: {result['failures']}")
            if trace:
                values = {k: v["value"] for k, v in result["metrics"].items()}
                for key, count in EXACT_COUNTS[name].items():
                    check(values[key] == count, f"{name}: {key} = {values[key]}")
                total = sum(values[f"{layer}.self_s"] for layer in LAYERS)
                check(math.isclose(total, values["trace.job_s"], rel_tol=1e-9),
                      f"{name}: self times sum to {total}, job took {values['trace.job_s']}")
        print(f"ok   {name}: both trace modes report every metric")
    for layer in LAYERS:
        for attr, obj in vars(importlib.import_module(f"driftlearn.{layer}")).items():
            held = list(obj.values()) if isinstance(obj, dict) else [obj]
            check(not any(hasattr(v, "__bench_original__") for v in held),
                  f"{layer}.{attr} still wrapped")
    print("ok   tracing uninstalls completely")


def check_gate() -> None:
    workload = make_workloads(scale=0.01)["vaw-piecewise"]
    reference = reference_for(workload, 0)
    steps = workload.prepare(run_bench.WORK / workload.name)()
    check(gate(steps, reference) == [], "gate rejects an untouched reference")
    tampered = copy.deepcopy(reference)
    tampered["run-vaw"]["dynamic_regret"] *= 1.0 + 1e-6
    check(gate(steps, tampered) != [], "gate accepts a tampered number")
    tampered = copy.deepcopy(reference)
    tampered["run-vaw"]["checks"]["dynamic_regret_le_path_bound"] = False
    check(gate(steps, tampered) != [], "gate accepts a tampered check")
    print("ok   gate passes the reference and fails tampered ones")


def check_bare_directory() -> None:
    bare = run_bench.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run_bench.BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run_bench.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", "vaw-piecewise",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and "correct" not in proc.stdout,
          f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("ok   fails without a result when the sources are missing")


def main() -> int:
    os.chdir(run_bench.ROOT)
    sys.path.insert(0, str(run_bench.SRC))
    spec = json.loads((run_bench.ROOT / "BENCHMARK.json").read_text())
    check_runs(spec)
    check_gate()
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
