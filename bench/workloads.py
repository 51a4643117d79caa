"""The benchmark's four workloads, their jobs and the correctness gate.

Every workload has a set-up command, run in a fresh interpreter, that puts
its input on disk, and a job that runs warm in the benchmark's own process
through ``driftlearn.cli.main`` or the library.  The program sees only the
files the set-up command wrote; the benchmark seed reaches it as ``--seed``.

Why these four (each stresses other layers):

* ``vaw-piecewise``: the main regression job.  The O(T^2) bound evaluators
  in ``regret`` dominate, then the ``linreg`` learner; the comparator moves
  in about 0.1% of rounds.
* ``identity-rotating``: ``regret`` through its verification path
  (conversion identity, path-length lemma) with a comparator that moves
  every round, wider features and no CSV I/O in the job; its column cache
  sets the peak memory.
* ``logistic-pool``: AIOLI plus the 13-expert discount-learning ensemble,
  so the ``logreg`` learner and ``lemmas.check_mixability`` dominate and
  ``regret`` does little.
* ``o2nc-long``: the Adam-driven online-to-non-convex loop, the only
  workload that reaches ``adam`` and ``o2nc``; it touches no ``linreg``,
  ``logreg`` or ``regret`` code and writes a long trace CSV.

Horizons are vaw-piecewise T=4000, identity-rotating T=4000,
logistic-pool T=1200 and o2nc-long T=15000.  Jobs of one to two seconds
give a run enough of them for a steady median, and keep the tracemalloc
pass (2 to 7 times a job's time) short; T=1200 is the shortest horizon that
keeps the 13-expert discount pool.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

# A summary number passes when |value - reference| <= REL_TOL * (1 + |reference|),
# the slack convention driftlearn's own checks use.
REL_TOL = 1e-9


@dataclass
class Step:
    """Outcome of one program call inside a job."""

    label: str
    exit_code: Optional[int]
    summary: Optional[dict]
    error: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    T: int
    d: int
    setup_args: Callable[[Path, int], list]
    prepare: Callable[[Path], Callable[[], list]]
    inputs: tuple                 # files the set-up command writes


def cli_step(label: str, argv: list) -> Step:
    """Run one subcommand in-process and parse its JSON summary."""
    from driftlearn import cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([str(a) for a in argv])
    except Exception:  # a traceback is a failed job, not a harness crash
        return Step(label, None, None, traceback.format_exc(limit=3))
    return Step(label, code, parse_summary(out.getvalue()), err.getvalue().strip())


def parse_summary(stdout: str) -> Optional[dict]:
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def _gen(kind: str, d: int, T: int, segments: int, noise: Optional[float] = None):
    def args(workdir: Path, seed: int) -> list:
        argv = ["gen", "--kind", kind, "--d", d, "--T", T, "--segments", segments]
        if noise is not None:
            argv += ["--noise", noise]
        return argv + ["--seed", seed, "--out", workdir / "stream.csv"]

    return args


def _cli_job(*commands: list) -> Callable[[Path], Callable[[], list]]:
    def prepare(workdir: Path) -> Callable[[], list]:
        argvs = [[a.format(dir=workdir) if isinstance(a, str) else a for a in c]
                 for c in commands]
        return lambda: [cli_step(argv[0], argv) for argv in argvs]

    return prepare


def _identity_prepare(workdir: Path) -> Callable[[], list]:
    from driftlearn import streams

    stream = streams.stream_from_csv((workdir / "stream.csv").read_text())
    truth = streams.path_from_csv((workdir / "stream.truth.csv").read_text())
    return lambda: [identity_step(stream, truth)]


def identity_step(stream, truth) -> Step:
    """Conversion identity and path-length lemma on a discounted-VAW run."""
    from driftlearn import linreg, regret

    beta, lam, gamma = 0.99, 1.0, 0.995
    try:
        run = linreg.run_dvaw(stream, beta, lam)
        ledger = linreg.vaw_ledger(run)
        dyn = regret.dynamic_regret(ledger, truth)
        gap = float(regret.d2d_identity_gap(ledger, truth))
        lemma = bool(regret.check_path_length_lemma(ledger, truth, beta, gamma))
    except Exception:
        return Step("identity", None, None, traceback.format_exc(limit=3))
    summary = {
        "T": stream.T, "d": stream.d, "beta": beta, "lam": lam, "gamma": gamma,
        "cumulative_loss": float(run.losses_at_play.sum()),
        "dynamic_regret": dyn, "d2d_identity_gap": gap,
        "checks": {
            "d2d_identity_gap_le_tol": gap <= 1e-9 * (1.0 + abs(dyn)),
            "path_length_lemma": lemma,
        },
    }
    return Step("identity", 0, summary)


TRUTH_FILE = "stream.truth.csv"
STREAM_FILES = ("stream.csv", TRUTH_FILE)

O2NC_FLAGS = ["--variant", "clipped", "--objective", "quadratic", "--dim", 10,
              "--eps", 0.3, "--c", 0.1, "--G", 1, "--sigma", 0.1]


def make_workloads(scale: float = 1.0) -> dict:
    """The four workloads; ``scale`` shrinks every horizon (self-test only)."""

    def T(n: int) -> int:
        return max(20, int(n * scale))

    o2nc_T = T(15000)

    def o2nc_setup(workdir: Path, seed: int) -> list:
        return ["run-o2nc", *O2NC_FLAGS, "--T", o2nc_T, "--seed", seed,
                "--out", workdir / "o2nc.trace.csv",
                "--emit-config", workdir / "o2nc.cfg"]

    workloads = [
        Workload(
            "vaw-piecewise",
            "regression job; O(T^2) regret bound evaluators then the linreg learner; comparator moves in about 0.1% of rounds",
            T(4000), 5,
            _gen("piecewise-constant-target", 5, T(4000), 8, 0.1),
            _cli_job(["run-vaw", "--beta", 0.99, "--lambda", 1,
                      "--stream", "{dir}/stream.csv", "--out", "{dir}/vaw.trace.csv"]),
            STREAM_FILES,
        ),
        Workload(
            "identity-rotating",
            "regret verification path (conversion identity, path-length lemma); comparator moves every round; d=20; no CSV I/O",
            T(4000), 20,
            _gen("rotating-target", 20, T(4000), 3),
            _identity_prepare,
            STREAM_FILES,
        ),
        Workload(
            "logistic-pool",
            "logreg learners: AIOLI plus the 13-expert ensemble with a mixability check per round; little regret work",
            T(1200), 3,
            _gen("logistic-drift", 3, T(1200), 4, 0.2),
            _cli_job(["run-aioli", "--beta", 0.9, "--B", 1, "--R", 1,
                      "--stream", "{dir}/stream.csv"],
                     ["run-ensemble", "--grid", "true", "--stream", "{dir}/stream.csv"]),
            STREAM_FILES,
        ),
        Workload(
            "o2nc-long",
            "Adam-driven online-to-non-convex loop; only workload reaching adam and o2nc; writes a long trace CSV",
            o2nc_T, 10,
            o2nc_setup,
            _cli_job(["run-o2nc", "--config", "{dir}/o2nc.cfg"]),
            ("o2nc.cfg",),
        ),
    ]
    return {w.name: w for w in workloads}


# ---------------------------------------------------------------------------
# Correctness gate.
# ---------------------------------------------------------------------------


def gate(steps: list, reference: Optional[dict]) -> list:
    """Reasons a job failed; empty when it passed.

    A job passes when every step exited 0 without raising, every ``checks``
    entry is true and, when a reference exists for the seed, every summary
    field matches it (numbers within ``REL_TOL``, everything else exactly).
    """
    problems = []
    for step in steps:
        if step.exit_code != 0:
            problems.append(f"{step.label}: exit code {step.exit_code}: {step.error}")
            continue
        if step.summary is None:
            problems.append(f"{step.label}: no JSON summary")
            continue
        failed = sorted(k for k, ok in step.summary.get("checks", {}).items() if ok is not True)
        if failed:
            problems.append(f"{step.label}: checks false: {failed}")
        if reference is not None:
            if step.label not in reference:
                problems.append(f"{step.label}: no reference summary")
            else:
                problems += [f"{step.label}: {p}" for p in
                             compare(step.summary, reference[step.label])]
    return problems


def compare(value, ref, where: str = "") -> list:
    """Differences between a summary and its reference, one line each."""
    if isinstance(ref, dict):
        if not isinstance(value, dict) or set(value) != set(ref):
            return [f"{where or 'summary'}: keys differ from the reference"]
        return [p for k in sorted(ref) for p in compare(value[k], ref[k], f"{where}.{k}".lstrip("."))]
    if isinstance(ref, list):
        if not isinstance(value, list) or len(value) != len(ref):
            return [f"{where}: length differs from the reference"]
        return [p for i, (v, r) in enumerate(zip(value, ref)) for p in compare(v, r, f"{where}[{i}]")]
    numeric = (int, float)
    if (isinstance(ref, numeric) and not isinstance(ref, bool)
            and isinstance(value, numeric) and not isinstance(value, bool)):
        if math.isclose(value, ref, rel_tol=0.0, abs_tol=REL_TOL * (1.0 + abs(ref))):
            return []
        return [f"{where}: {value!r} differs from reference {ref!r}"]
    if value != ref or type(value) is not type(ref):
        return [f"{where}: {value!r} differs from reference {ref!r}"]
    return []


# ---------------------------------------------------------------------------
# Workload properties.
# ---------------------------------------------------------------------------


# The layer whose learner each step runs, for rounds-per-layer figures.
LEARNER_LAYER = {"run-vaw": "linreg", "identity": "linreg", "run-aioli": "logreg",
                 "run-ensemble": "logreg", "run-o2nc": "o2nc"}


def learner_rounds(steps: list) -> dict:
    """Learner rounds per layer (T times the learners a step runs)."""
    rounds = {}
    for step in steps:
        layer = LEARNER_LAYER.get(step.label)
        if layer and step.summary:
            n = step.summary.get("T", 0) * step.summary.get("n_experts", 1)
            rounds[layer] = rounds.get(layer, 0) + n
    return rounds


def comparator_move_share(truth_csv: Path) -> float:
    """Share of rounds t >= 2 whose comparator differs from round t-1."""
    rows = [line for line in truth_csv.read_text().splitlines()
            if line and not line.startswith("#")][1:]
    values = [line.split(",", 1)[1] for line in rows]
    moves = sum(a != b for a, b in zip(values, values[1:]))
    return moves / max(1, len(values) - 1)
