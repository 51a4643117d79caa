"""The library hooks that the traced benchmark (bench/tracing.py) relies on.

The tracer wraps every public layer function, reads ``linreg.cho_factor``
and ``logreg.cho_factor``, rebinds ``RegretLedger.__post_init__`` to count
loss rows, wraps ``O2ncTrace.to_csv`` and the factories in
``o2nc.OBJECTIVES``.  A library change that breaks one of these breaks the
traced benchmark; these tests run every workload's job (run-vaw with its
trace, identity, run-aioli, run-ensemble, run-o2nc) at tiny sizes under the
tracer.  The benchmark also gates every job's summaries against
``bench/reference``; the last test runs that gate at seed 0, at full size.
The tracer finds a span by its name, so a renamed function silences the
metric that reads it; the span-name tests keep every name that
``bench/layers.py`` reads resolving in ``driftlearn``.
"""

import ast
import importlib
import json
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
    # run-o2nc computes its diagnostics a block of rounds at a time; its T
    # spans two blocks and one round of a third
    flags = workloads.O2NC_FLAGS
    o2nc_T = 2 * o2nc._block_rounds(flags[flags.index("--dim") + 1]) + 1
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
                "run-o2nc", *workloads.O2NC_FLAGS, "--T", o2nc_T, "--seed", 1]),
        ]
    finally:
        tracer.uninstall()
    assert [s.exit_code for s in steps] == [0] * 7, [s.error for s in steps]
    assert workloads.gate(steps, None) == []
    assert steps[2].summary["checks"] and (tmp_path / "vaw.trace.csv").exists()
    # f_s(u) rows that loss_eval and loss_eval_batch give: run-aioli's
    # rescaled-bound check takes 3 whole rows of T.  The path variations read
    # the ledger's _loss of block margins, and comparator rows (path_losses)
    # are not counted either
    assert tracer.counts["regret.loss_rows"] == 3 * T
    assert tracer.counts["o2nc.loop_grad_calls"] == o2nc_T
    # logreg.root_calls is one root per expert and round: AIOLI's, then the grid pool's
    spans = importlib.import_module("layers").JobSpans(tracer, 0)
    assert spans.calls("logreg.solve_optimism_root") == T * (1 + len(logreg.build_grid(1, 1, 2, T)))
    # run-o2nc steps Adam through adam.delta_for and adam.adam_update once a
    # round each, which the bench's adam.updates metric counts
    assert spans.calls("adam.adam_update") == spans.calls("adam.delta_for") == o2nc_T
    assert still_wrapped(tracing.LAYERS) == []


@pytest.mark.parametrize("name", sorted(p.stem for p in (BENCH / "reference").glob("*.json")))
def test_seed_zero_jobs_pass_the_reference_gate(bench, tmp_path, name):
    _, workloads = bench
    workload = workloads.make_workloads()[name]
    setup = workloads.cli_step("setup", workload.setup_args(tmp_path, 0))
    assert setup.exit_code == 0, setup.error
    steps = workload.prepare(tmp_path)()
    reference = json.loads((BENCH / "reference" / f"{name}.json").read_text())
    assert workloads.gate(steps, reference["seeds"]["0"]) == []


# Span names bench/layers.py reads that name no driftlearn function, so the
# metrics built from them read 0 until the benchmark reads the new names.
DEAD_SPANS = {
    "adam.tune_clipped", "adam.tune_clipped_margin", "adam.tune_clipfree",
    "linreg.vaw_static_bound", "logreg.aioli_rescaled_bound",
    "linreg.dvaw_dynamic_bound", "regret.modular_bound_rhs",
}


def span_names() -> set:
    """The string arguments of JobSpans.inclusive, self_time and calls in
    bench/layers.py, and the entries of its LINREG_BOUNDS and LOGREG_BOUNDS."""
    names = set()
    for node in ast.walk(ast.parse((BENCH / "layers.py").read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("inclusive", "self_time", "calls")):
            names |= {a.value for a in node.args if isinstance(a, ast.Constant)}
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in ("LINREG_BOUNDS", "LOGREG_BOUNDS")
                for t in node.targets):
            names |= {e.value for e in node.value.elts}
    return names


def resolves(name: str) -> bool:
    layer, *attrs = name.split(".")
    obj = importlib.import_module(f"driftlearn.{layer}")
    for attr in attrs:
        obj = getattr(obj, attr, None)
    return callable(obj)


def test_every_span_name_the_bench_reads_resolves():
    names = span_names()
    assert DEAD_SPANS <= names
    assert [n for n in sorted(names - DEAD_SPANS) if not resolves(n)] == []


def test_every_dead_span_name_is_still_dead():
    assert [n for n in sorted(DEAD_SPANS) if resolves(n)] == []
