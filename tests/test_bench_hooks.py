"""The library hooks that the traced benchmark (bench/tracing.py) relies on.

The tracer wraps every public layer function, reads ``linreg.cho_factor``
and ``logreg.cho_factor``, rebinds ``RegretLedger.__post_init__`` to count
loss rows, wraps ``O2ncTrace.to_csv`` and the factories in
``o2nc.OBJECTIVES``.  A library change that breaks one of these breaks the
traced benchmark; these tests run every workload's job (run-vaw with its
trace, identity, run-aioli, run-ensemble, run-o2nc) at tiny sizes under the
tracer.
"""

import importlib
from pathlib import Path

import pytest

from driftlearn import logreg, o2nc, regret, streams

BENCH = Path(__file__).resolve().parents[1] / "bench"
T = 60


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracing"), importlib.import_module("workloads")


def still_wrapped(layers) -> list:
    left = []
    for layer in layers:
        for attr, obj in vars(importlib.import_module(f"driftlearn.{layer}")).items():
            held = list(obj.values()) if isinstance(obj, dict) else [obj]
            held += [v for t in held if isinstance(t, tuple) for v in t]
            if any(hasattr(v, "__bench_original__") for v in held):
                left.append(f"{layer}.{attr}")
    if hasattr(regret.RegretLedger.__post_init__, "__wrapped__"):
        left.append("regret.RegretLedger.__post_init__")
    if hasattr(o2nc.O2ncTrace.to_csv, "__bench_original__"):
        left.append("o2nc.O2ncTrace.to_csv")
    return left


def test_traced_jobs_run_and_the_tracer_uninstalls(bench, tmp_path):
    tracing, workloads = bench
    spec = streams.StreamSpec(d=3, T=T, kind="rotating-target", segments=3, seed=1)
    stream, truth = streams.gen_stream(spec)
    regression, logistic = tmp_path / "piecewise.csv", tmp_path / "stream.csv"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.job_id = 0
        steps = [
            workloads.identity_step(stream, truth),
            workloads.cli_step("gen", [
                "gen", "--d", 3, "--T", T, "--segments", 2, "--noise", 0.1,
                "--seed", 1, "--out", regression]),
            workloads.cli_step("run-vaw", [
                "run-vaw", "--beta", 0.99, "--lambda", 1, "--stream", regression,
                "--out", tmp_path / "vaw.trace.csv"]),
            workloads.cli_step("gen", [
                "gen", "--kind", "logistic-drift", "--d", 2, "--T", T, "--segments", 2,
                "--noise", 0.2, "--seed", 1, "--out", logistic]),
            workloads.cli_step("run-aioli", [
                "run-aioli", "--beta", 0.9, "--B", 1, "--R", 1, "--stream", logistic]),
            workloads.cli_step("run-ensemble", [
                "run-ensemble", "--grid", "true", "--stream", logistic]),
            workloads.cli_step("run-o2nc", [
                "run-o2nc", *workloads.O2NC_FLAGS, "--T", T, "--seed", 1]),
        ]
    finally:
        tracer.uninstall()
    assert [s.exit_code for s in steps] == [0] * 7, [s.error for s in steps]
    assert workloads.gate(steps, None) == []
    assert steps[2].summary["checks"] and (tmp_path / "vaw.trace.csv").exists()
    # whole loss rows of T entries, one per comparator a ledger evaluates:
    # the identity job's lemma certifies after 6 moved rounds (7 comparators),
    # run-vaw's path variation takes 2, run-aioli's rescaled-bound check 3 and
    # its path variation 2; comparator rows (path_losses) are not counted
    assert tracer.counts["regret.loss_rows"] == (7 + 2 + 3 + 2) * T
    assert tracer.counts["o2nc.loop_grad_calls"] == 2 * T
    # logreg.root_calls is one root per expert and round: AIOLI's, then the grid pool's
    spans = importlib.import_module("layers").JobSpans(tracer, 0)
    assert spans.calls("logreg.solve_optimism_root") == T * (1 + logreg.build_grid(1, 1, 2, T).n)
    # run-o2nc steps Adam through adam.delta_for and adam.adam_update once a
    # round each, which the bench's adam.updates metric counts
    assert spans.calls("adam.adam_update") == spans.calls("adam.delta_for") == T
    assert still_wrapped(tracing.LAYERS) == []
