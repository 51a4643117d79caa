"""Per-layer metrics computed from the spans and counts of one traced job.

Times named ``<layer>.<function>_s`` are inclusive span times, so nested
ones overlap (``regret.modular_bound_s`` contains an ``ft_difference_term``
call).  ``<layer>.self_s`` is each layer's self time: its spans minus their
child spans.  ``cli.self_s`` is the traced job time minus the self time of
every other layer, so the eight ``self_s`` values add up to
``trace.job_s`` exactly; it includes the harness's own glue.
Per-round figures divide by the learner rounds the jobs' summaries report
(T times the learners run); a layer without rounds reports 0.
"""

from __future__ import annotations

import numpy as np

from tracing import LAYERS

UNITS = {
    "streams.read_s": "s", "streams.bytes_read": "B",
    "streams.gen_s": "s", "streams.write_s": "s",
    "linreg.learner_s": "s", "linreg.us_per_round": "us",
    "linreg.factorizations_per_round": "1/round", "linreg.bound_self_s": "s",
    "logreg.learner_s": "s", "logreg.us_per_expert_round": "us",
    "logreg.factorizations_per_expert_round": "1/round",
    "logreg.root_calls": "count", "logreg.rescaled_bound_calls": "count",
    "logreg.bound_self_s": "s",
    "regret.path_variation_s": "s", "regret.ft_difference_s": "s",
    "regret.modular_bound_s": "s", "regret.dynamic_regret_s": "s",
    "regret.trace_csv_s": "s", "regret.d2d_gap_s": "s", "regret.peak_mib": "MiB",
    "regret.loss_rows": "count",
    "adam.updates": "count", "adam.update_us": "us", "adam.tune_s": "s",
    "o2nc.loop_self_s": "s", "o2nc.us_per_round": "us",
    "o2nc.grad_calls_per_round": "1/round", "o2nc.trace_csv_s": "s",
    "lemmas.mixability_calls": "count", "lemmas.mixability_s": "s",
    "cli.import_s": "s", "adam.import_s": "s", "lemmas.import_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.job_s": "s", "trace.overhead_ratio": "ratio",
}

LINREG_BOUNDS = ("linreg.dvaw_dynamic_bound", "linreg.dvaw_log_term",
                 "linreg.vaw_ledger", "linreg.vaw_static_bound")
LOGREG_BOUNDS = ("logreg.aioli_rescaled_bound", "logreg.theorem_dynamic_bound",
                 "logreg.logistic_ledger")


class JobSpans:
    """Span table of one job with lookups by function name."""

    def __init__(self, tracer, job_id: int) -> None:
        self.ids, self.dur, self.self_t = tracer.job_table(job_id)
        self.name_ids = {name: i for i, name in enumerate(tracer.names)}
        layer_of = np.array([LAYERS.index(n.split(".", 1)[0]) for n in tracer.names] or [0])
        self.layer = layer_of[self.ids]

    def _mask(self, names) -> np.ndarray:
        return np.isin(self.ids, [self.name_ids[n] for n in names if n in self.name_ids])

    def inclusive(self, *names: str) -> float:
        return float(self.dur[self._mask(names)].sum())

    def self_time(self, *names: str) -> float:
        return float(self.self_t[self._mask(names)].sum())

    def calls(self, name: str) -> int:
        return int(self._mask([name]).sum())

    def layer_self(self, layer: str) -> float:
        return float(self.self_t[self.layer == LAYERS.index(layer)].sum())


def per(value: float, rounds: int, scale: float = 1.0) -> float:
    return scale * value / rounds if rounds else 0.0


def setup_metrics(tracer) -> dict:
    """Generator and writer time of the in-process set-up (job 0)."""
    spans = JobSpans(tracer, 0)
    return {
        "streams.gen_s": spans.inclusive("streams.gen_stream"),
        "streams.write_s": spans.inclusive("streams.stream_to_csv", "streams.path_to_csv"),
    }


def layer_metrics(tracer, job_id: int, job_s: float, counts, rounds: dict) -> dict:
    s = JobSpans(tracer, job_id)
    lin, log, o2 = rounds.get("linreg", 0), rounds.get("logreg", 0), rounds.get("o2nc", 0)
    m = {
        "streams.read_s": s.inclusive("streams.stream_from_csv", "streams.path_from_csv"),
        "streams.bytes_read": counts["streams.bytes_read"],
        "linreg.learner_s": s.inclusive("linreg.run_dvaw"),
        "linreg.factorizations_per_round": per(counts["linreg.cho_factor"], lin),
        "linreg.bound_self_s": s.self_time(*LINREG_BOUNDS),
        "logreg.learner_s": s.inclusive("logreg.run_aioli", "logreg.run_ensemble"),
        "logreg.factorizations_per_expert_round": per(counts["logreg.cho_factor"], log),
        "logreg.root_calls": s.calls("logreg.solve_optimism_root"),
        "logreg.rescaled_bound_calls": s.calls("logreg.aioli_rescaled_bound"),
        "logreg.bound_self_s": s.self_time(*LOGREG_BOUNDS),
        "regret.path_variation_s": s.inclusive("regret.path_variation"),
        "regret.ft_difference_s": s.inclusive("regret.ft_difference_term"),
        "regret.modular_bound_s": s.inclusive("regret.modular_bound_rhs"),
        "regret.dynamic_regret_s": s.inclusive("regret.dynamic_regret"),
        "regret.trace_csv_s": s.inclusive("regret.regret_trace_csv"),
        "regret.d2d_gap_s": s.inclusive("regret.d2d_identity_gap"),
        "regret.loss_rows": counts["regret.loss_rows"],
        "adam.updates": s.calls("adam.adam_update"),
        "adam.update_us": per(s.inclusive("adam.adam_update"), s.calls("adam.adam_update"), 1e6),
        "adam.tune_s": s.inclusive("adam.tune_clipped", "adam.tune_clipped_margin",
                                   "adam.tune_clipfree"),
        "o2nc.loop_self_s": s.self_time("o2nc.run_o2nc"),
        "o2nc.us_per_round": per(s.inclusive("o2nc.run_o2nc"), o2, 1e6),
        "o2nc.grad_calls_per_round": per(counts["o2nc.loop_grad_calls"], o2),
        "o2nc.trace_csv_s": s.inclusive("o2nc.O2ncTrace.to_csv"),
        "lemmas.mixability_calls": s.calls("lemmas.check_mixability"),
        "lemmas.mixability_s": s.inclusive("lemmas.check_mixability"),
        "trace.job_s": job_s,
    }
    m["linreg.us_per_round"] = per(m["linreg.learner_s"], lin, 1e6)
    m["logreg.us_per_expert_round"] = per(m["logreg.learner_s"], log, 1e6)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = s.layer_self(layer)
    m["cli.self_s"] = job_s - sum(m[f"{layer}.self_s"] for layer in LAYERS if layer != "cli")
    return m
