"""driftlearn benchmark: one workload, one seed, one run.

Usage, from the root of a source checkout (no install needed; the package is
imported from ``src/``):

    python3 bench/run_bench.py --workload vaw-piecewise --seed 1 --seconds 10 --trace 0

Workloads: vaw-piecewise, identity-rotating, logistic-pool, o2nc-long (see
``bench/workloads.py`` for what each stresses).  Each run is closed-loop
from this single process, one job at a time.

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``setup_s``    median paced wall time (below) of cold starts of ``python -m
                 driftlearn.cli`` that write the workload's input (``gen``,
                 or ``run-o2nc --emit-config`` for o2nc-long);
* ``peak_mib``   tracemalloc peak of one job, in a pass of its own;
* ``job_s``      median paced wall time (below) of warm jobs that take
                 ``--seconds`` in all, spread over the run: a share after
                 each cold start.  The unpaced median and 90th percentile
                 are printed beside it, with the job count;
* ``pass_ratio`` jobs that passed the correctness gate over jobs attempted,
                 i.e. 1 - failed_ratio, reported this way round so that the
                 metric never reads 0 (failed_ratio is 0 when all is well).

Paced times.  A shared host's speed swings by up to 1.6x in phases of 1 to 60
s, which moves the median of raw wall times from run to run by as much.  So
while a timed job runs, ``HostGauge`` interrupts this process every
``PACE_PERIOD_S`` to time ``pace_loop()``, a fixed loop of small numpy solves
and Python arithmetic like the jobs' own inner loops.  A paced time is the
job's wall time, less the time the gauge took, times ``PACE_REF_S`` over the
loop's mean time meanwhile: seconds on a host that runs the loop in
``PACE_REF_S``.  The host's speed cancels; a program twice as fast gives half
the paced time.  Unpaced times and gauge means are kept in the result file.
A cold start runs in a child interpreter, out of the gauge's reach (a gauge
in this process would run beside it, on another CPU, and track its speed
too loosely), so its pace is the mean of ``pace_loop()`` runs just before
and just after it; that follows the host's slower swings only.

``--trace 1`` wraps every public function of the eight layer modules (see
``bench/tracing.py``) and reports the per-layer metrics, plus
``trace.overhead_ratio``, the traced over the untraced median job time, from
untraced and traced jobs that alternate for ``--seconds``.

Every job is gated (``bench/workloads.py``): exit code 0, every ``checks``
entry true and, for seeds with a stored reference in ``bench/reference/``,
every summary field within 1e-9 of it.  Failed jobs stay among the timed jobs
and count in ``failed``.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
every metric with its unit, the workload's properties and an environment
stamp.  Inputs, traces, spans and a result file go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = Path(".perfbench")

COLD_STARTS = 3
# The gauge's loop length, reference time (about the loop's time on a quiet
# 2-CPU Xeon host) and sampling period: it takes about 2% of a job's CPU.
PACE_LOOPS = 250
PACE_REF_S = 0.002
PACE_PERIOD_S = 0.1
SUBPROCESS_TIMEOUT = 120

END_TO_END_UNITS = {"job_s": "s", "setup_s": "s", "peak_mib": "MiB", "pass_ratio": "fraction"}

sys.path.insert(0, str(BENCH))
from layers import UNITS as LAYER_UNITS, layer_metrics, setup_metrics  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    TRUTH_FILE, Step, cli_step, comparator_move_share, gate, learner_rounds,
    make_workloads, parse_summary,
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def load_reference(workload: str, seed: int):
    """Reference summaries for this seed, or None when none are stored."""
    path = BENCH / "reference" / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text())["seeds"].get(str(seed))


_PACE_MATRIX = 5.0 * np.eye(5) + np.ones((5, 5))


def pace_loop() -> float:
    """Wall time of a fixed loop, a measure of the host's current speed."""
    began = perf_counter()
    acc = 0.0
    for i in range(PACE_LOOPS):
        acc += float(np.linalg.solve(_PACE_MATRIX, _PACE_MATRIX[i % 5])[0])
        for j in range(20):
            acc += j * 0.5
    return perf_counter() - began


class HostGauge:
    """Times ``pace_loop()`` from a SIGALRM handler between ``start`` and
    ``stop``, so the samples fall while the measured job runs."""

    def __init__(self) -> None:
        self.samples: list = []
        self.busy = 0.0     # time the samples took, set by stop()
        self.pace = 0.0     # their mean, set by stop()

    def _sample(self, signum, frame) -> None:
        self.samples.append(pace_loop())

    def start(self) -> None:
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PACE_PERIOD_S, PACE_PERIOD_S)

    def stop(self) -> None:
        """Stop sampling.  Work shorter than one period gets a single sample,
        taken now, that adds nothing to ``busy``."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.busy = sum(self.samples)
        if not self.samples:
            self.samples.append(pace_loop())
        self.pace = statistics.mean(self.samples)


def endpoint_pace() -> float:
    return statistics.mean(pace_loop() for _ in range(10))


def paced(elapsed: float, pace: float) -> float:
    return elapsed * PACE_REF_S / pace


class Run:
    """Jobs attempted in one run, with the reasons any of them failed."""

    def __init__(self, reference) -> None:
        self.reference = reference
        self.attempted = 0
        self.failures: list = []
        self.first_steps = None

    def check_setup(self, step: Step, workdir: Path, inputs) -> None:
        problems = [] if step.exit_code == 0 else [f"exit code {step.exit_code}: {step.error}"]
        problems += [f"{name} not written" for name in inputs if not (workdir / name).is_file()]
        if not problems and step.summary is not None:
            ref = self.reference
            problems = gate([step], ref if ref is not None and "setup" in ref else None)
        if problems:
            raise SystemExit(f"set-up failed: {problems}")

    def job(self, job, gauge=None) -> float:
        """Run one job, gate it, and return its wall time, less the time
        ``gauge`` (if given) took sampling during it."""
        gc.collect()
        if gauge:
            gauge.start()
        began = perf_counter()
        try:
            steps = job()
        finally:
            elapsed = perf_counter() - began
            if gauge:
                gauge.stop()
                elapsed -= gauge.busy
        self.attempted += 1
        self.first_steps = self.first_steps or steps
        problems = gate(steps, self.reference)
        if problems:
            self.failures.append(problems)
            print(f"job {self.attempted} failed: {problems}", file=sys.stderr)
        return elapsed

    def timed(self, job, times: list, paces: list, until: float, min_jobs: int) -> None:
        """Append paced jobs' times and gauge means until the times sum to
        ``until`` and number ``min_jobs``."""
        gauge = HostGauge()
        while len(times) < min_jobs or sum(times) < until:
            times.append(self.job(job, gauge))
            paces.append(gauge.pace)


def cold_setup(workload, seed: int, workdir: Path, run: Run) -> tuple:
    """Wall time of one fresh interpreter writing the workload's input, and
    the mean host pace just before and after it."""
    argv = [sys.executable, "-m", "driftlearn.cli",
            *map(str, workload.setup_args(workdir, seed))]
    before = endpoint_pace()
    began = perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=SUBPROCESS_TIMEOUT)
    elapsed = perf_counter() - began
    after = endpoint_pace()
    run.check_setup(Step("setup", proc.returncode, parse_summary(proc.stdout),
                         proc.stderr.strip()), workdir, workload.inputs)
    return elapsed, (before + after) / 2


def import_times() -> dict:
    """Cumulative import time of three layers in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import driftlearn.cli"],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT)
    if proc.returncode != 0:
        raise SystemExit(f"importing driftlearn.cli failed: {proc.stderr.strip()}")
    cumulative = {}
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            cumulative[fields[2].strip()] = int(fields[1]) / 1e6
    return {f"{layer}.import_s": cumulative.get(f"driftlearn.{layer}", 0.0)
            for layer in ("cli", "adam", "lemmas")}


def run_untraced(workload, seed, seconds, run, workdir, cold_starts) -> tuple:
    # The host's speed drifts over seconds, so the timed jobs are spread over
    # the whole run: each cold start is followed by a share of them, and the
    # tracemalloc pass sits after the first share, once the process is warm.
    setup, setup_paces, times, paces, peak = [], [], [], [], 0
    for i in range(cold_starts):
        elapsed, pace = cold_setup(workload, seed, workdir, run)
        setup.append(elapsed)
        setup_paces.append(pace)
        if i == 0:
            job = workload.prepare(workdir)
        run.timed(job, times, paces, seconds * (i + 1) / cold_starts, i + 1)
        if i == 0:
            tracemalloc.start()
            run.job(job)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
    return {
        "job_s": statistics.median(map(paced, times, paces)),
        "setup_s": statistics.median(map(paced, setup, setup_paces)),
        "peak_mib": peak / 2**20,
        "pass_ratio": (run.attempted - len(run.failures)) / run.attempted,
    }, {"job_times_s": times, "job_paces_s": paces,
        "setup_times_s": setup, "setup_paces_s": setup_paces}


def run_traced(workload, seed, seconds, run, workdir) -> tuple:
    tracer = Tracer()
    tracer.install()
    tracer.job_id = 0
    run.check_setup(cli_step("setup", workload.setup_args(workdir, seed)), workdir,
                    workload.inputs)
    metrics = setup_metrics(tracer)
    job = workload.prepare(workdir)

    # Memory pass, which also warms the process up: tracemalloc runs only
    # inside the outermost regret spans.
    tracer.job_id, tracer.watch_memory = 1, True
    run.job(job)
    tracer.watch_memory = False
    metrics["regret.peak_mib"] = tracer.memory_peak / 2**20
    tracer.uninstall()

    # Untraced and traced jobs alternate, so each pair sees the same host
    # speed; the ratio of their medians is the tracing overhead.
    counts, untraced, traced = {}, [], []

    def traced_job():
        tracer.job_id += 1
        tracer.counts.clear()
        steps = job()
        counts[tracer.job_id] = tracer.counts.copy()
        return steps

    first = tracer.job_id + 1
    while not traced or sum(untraced) + sum(traced) < seconds:
        untraced.append(run.job(job))
        tracer.install()
        traced.append(run.job(traced_job))
        tracer.uninstall()
    tracer.save(WORK / f"spans-{workload.name}-seed{seed}.npz")
    # All layer figures come from the median traced job, so they add up.
    pick = sorted(range(len(traced)), key=traced.__getitem__)[(len(traced) - 1) // 2]
    metrics.update(layer_metrics(tracer, first + pick, traced[pick], counts[first + pick],
                                 learner_rounds(run.first_steps)))
    metrics.update(import_times())
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    return metrics, {"untraced_job_times_s": untraced, "traced_job_times_s": traced,
                     "spans": len(tracer.start)}


def properties(workload, workdir: Path, steps) -> dict:
    truth = workdir / TRUTH_FILE
    return {
        "T": workload.T, "d": workload.d,
        "learner_rounds": sum(learner_rounds(steps).values()),
        "input_bytes": sum((workdir / f).stat().st_size for f in workload.inputs),
        "comparator_move_share": (comparator_move_share(truth)
                                  if TRUTH_FILE in workload.inputs else None),
    }


def environment() -> dict:
    import numpy
    import scipy

    def blas(module):
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):
            return None
        return {k: info.get(k) for k in ("name", "version", "openblas configuration")}

    digest = hashlib.sha256()
    for path in sorted((SRC / "driftlearn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(), "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(), "machine": platform.machine(),
        "numpy_blas": blas(numpy), "scipy_blas": blas(scipy),
    }


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def run_workload(workload, seed: int, seconds: float, trace: bool, reference,
                 cold_starts: int = COLD_STARTS) -> dict:
    """One benchmark run; returns the result record."""
    import driftlearn.cli  # noqa: F401  (import cost is setup_s's, never a job's)

    workdir = WORK / workload.name
    workdir.mkdir(parents=True, exist_ok=True)
    run = Run(reference)
    if trace:
        metrics, detail = run_traced(workload, seed, seconds, run, workdir)
        units = LAYER_UNITS
    else:
        metrics, detail = run_untraced(workload, seed, seconds, run, workdir, cold_starts)
        units = END_TO_END_UNITS
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "reference_checked": reference is not None,
        "properties": properties(workload, workdir, run.first_steps),
        "env": environment(),
        "attempted": run.attempted, "failed": len(run.failures),
        "failures": run.failures,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
        **detail,
    }


def report(result: dict) -> None:
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']}"
          f" (reference summaries {'checked' if result['reference_checked'] else 'not stored for this seed'})")
    print("properties " + " ".join(f"{k}={v}" for k, v in result["properties"].items()))
    print("env " + json.dumps(result["env"], sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    if not result["trace"]:
        times = result["job_times_s"]
        p90 = statistics.quantiles(times, n=10)[-1] if len(times) > 1 else times[0]
        print(f"{'job_s samples':40s} {len(times)} timed jobs: unpaced median"
              f" {statistics.median(times):.6g} s, unpaced p90 {p90:.6g} s")
    print(f"{'failed_ratio':40s} {failed / attempted:.6g} fraction ({failed}/{attempted} jobs)")


def main(argv=None) -> int:
    workloads = make_workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "driftlearn" / "__init__.py").is_file():
        print(f"error: no driftlearn sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    workload = workloads[args.workload]
    result = run_workload(workload, args.seed, args.seconds, bool(args.trace),
                          load_reference(workload.name, args.seed))
    out = WORK / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    report(result)
    print(json.dumps({
        "correct": result["failed"] == 0, "attempted": result["attempted"],
        "failed": result["failed"], "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
