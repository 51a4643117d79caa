"""Experiment harness: subcommand dispatch, config handling, artifacts.

Subcommands: gen, run-vaw, run-aioli, run-ensemble, run-o2nc, tune-adam,
verify-lemmas.  Every subcommand accepts ``--config FILE`` (flat key=value
text) with CLI flags taking precedence, and ``--emit-config FILE`` to dump
the resolved configuration for exact reproduction.

Exit codes: 0 all checks passed, 2 an inequality check failed, 1 usage or
runtime error.  Artifacts carry a header comment (CSV) or fields (JSON)
embedding the config hash and seed, and all numeric output uses shortest
round-trip decimals, so a fixed configuration reproduces byte-identical
files.  The env var DRIFTLEARN_SEED supplies the default seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from driftlearn import adam, lemmas, linreg, logreg, o2nc, regret, streams

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2

SEED_ENV_VAR = "DRIFTLEARN_SEED"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1, not argparse's 2
        raise UsageError(message)


@dataclass(frozen=True)
class Field:
    name: str
    type: Callable
    default: object = None
    required: bool = False
    check: Optional[Callable[[object], Optional[str]]] = None
    help: str = ""
    choices: Optional[tuple] = None


def _in_range(lo, hi, lo_open=False, hi_open=False):
    def check(v):
        ok_lo = v > lo if lo_open else v >= lo
        ok_hi = v < hi if hi_open else v <= hi
        if not (ok_lo and ok_hi):  # NaN fails both
            lb = "(" if lo_open else "["
            rb = ")" if hi_open else "]"
            return f"must lie in {lb}{lo}, {hi}{rb}, got {v}"
        return None

    return check


def _positive(v):
    return None if 0 < v < math.inf else f"must be finite and > 0, got {v}"


def _nonneg(v):
    return None if 0 <= v < math.inf else f"must be finite and >= 0, got {v}"


def _at_least_one(v):
    return None if v >= 1 else f"must be >= 1, got {v}"


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR, "0")
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"{SEED_ENV_VAR}: expected an integer, got {raw!r}") from None


COMMON_FIELDS = [
    Field("config", str, help="flat key=value config file; flags override"),
    Field("emit_config", str, help="write the resolved config here and exit"),
]


def _resolve_config(fields: list[Field], args: argparse.Namespace) -> dict:
    """defaults < config file < explicit CLI flags, with validation."""
    by_name = {f.name: f for f in fields}
    values = {f.name: f.default for f in fields}
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        try:
            text = Path(cfg_path).read_text()
        except OSError as exc:
            raise UsageError(f"config: cannot read {cfg_path}: {exc}") from exc
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"config line {lineno}: expected key=value, got {line!r}")
            key, _, raw = line.partition("=")
            key = key.strip()
            if key in ("config", "emit_config"):
                continue
            if key not in by_name:
                raise UsageError(f"config line {lineno}: unknown key {key!r}")
            try:
                values[key] = by_name[key].type(raw.strip())
            except ValueError as exc:
                raise UsageError(f"{key}: cannot parse {raw.strip()!r}") from exc
    for f in fields:
        if hasattr(args, f.name) and getattr(args, f.name) is not None:
            values[f.name] = getattr(args, f.name)
    for f in fields:
        v = values[f.name]
        if v is None:
            if f.required:
                raise UsageError(f"{f.name}: required")
            continue
        if f.choices and v not in f.choices:
            raise UsageError(f"{f.name}: must be one of {f.choices}, got {v!r}")
        if f.check:
            msg = f.check(v)
            if msg:
                raise UsageError(f"{f.name}: {msg}")
    return values


# File locations are incidental to an experiment's identity: the hash covers
# the semantic parameters only, so rerunning into a different path still
# produces byte-identical artifacts.
_UNHASHED = ("config", "emit_config", "out", "stream", "truth")


def _config_hash(values: dict) -> str:
    text = "\n".join(
        f"{k}={v!r}" for k, v in sorted(values.items()) if k not in _UNHASHED
    )
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _maybe_emit_config(values: dict, args) -> bool:
    path = getattr(args, "emit_config", None) or values.get("emit_config")
    if not path:
        return False
    lines = [
        f"{k}={v}"
        for k, v in sorted(values.items())
        if v is not None and k not in ("config", "emit_config")
    ]
    Path(path).write_text("\n".join(lines) + "\n")
    return True


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, float) and math.isnan(obj):
        return None
    return obj


def _write_json(payload: dict, path: Optional[Path] = None) -> None:
    """Print ``payload`` as sorted JSON, and write the same text to ``path``."""
    text = json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    if path:
        path.write_text(text)


def _write_summary(out: Optional[str], summary: dict) -> None:
    _write_json(summary, Path(out).with_suffix(".summary.json") if out else None)


def _checks_exit(summary: dict) -> int:
    checks = summary.get("checks", {})
    return EXIT_OK if all(checks.values()) else EXIT_VIOLATION


def _resolve_gamma(values: dict, beta: float) -> float:
    """Variation discount for bound reports; defaults to (1+beta)/2."""
    gamma = values.get("gamma")
    if gamma is None:
        return 0.5 * (1.0 + beta)
    if gamma < beta:
        raise UsageError(f"gamma: must be >= beta={beta}, got {gamma}")
    return gamma


def _read_csv(key: str, path: Path, parse: Callable[[str], object]):
    try:
        return parse(path.read_text())
    except OSError as exc:
        raise UsageError(f"{key}: cannot read {path}: {exc}") from exc
    except streams.StreamSpecError as exc:
        raise UsageError(f"{key}: {path}: {exc}") from exc


def _load_stream(values: dict) -> tuple[streams.Stream, Optional[streams.ComparatorPath]]:
    path = Path(values["stream"])
    stream = _read_csv("stream", path, streams.stream_from_csv)
    truth = None
    truth_path = Path(values["truth"]) if values.get("truth") else path.with_suffix(".truth.csv")
    if truth_path.exists():
        truth = _read_csv("truth", truth_path, streams.path_from_csv)
        if (truth.T, truth.d) != (stream.T, stream.d):
            raise UsageError(
                f"truth: {truth_path} has shape (T={truth.T}, d={truth.d}) but the "
                f"stream has (T={stream.T}, d={stream.d})"
            )
    return stream, truth


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

GEN_FIELDS = COMMON_FIELDS + [
    Field("kind", str, "piecewise-constant-target", choices=streams.KINDS),
    Field("d", int, 2, check=_at_least_one),
    Field("T", int, 100, check=_at_least_one),
    Field("segments", int, 1, check=_at_least_one),
    Field("noise", float, 0.0, check=_nonneg),
    Field("seed", int, None),
    Field("R", float, 1.0, check=_positive),
    Field("B", float, 1.0, check=_positive),
    Field("out", str, required=True),
]


def cmd_gen(values: dict) -> int:
    spec = streams.StreamSpec(
        d=values["d"], T=values["T"], kind=values["kind"],
        segments=values["segments"], noise=values["noise"],
        seed=values["seed"], R=values["R"], B=values["B"],
    )
    stream, truth = streams.gen_stream(spec)
    h = _config_hash(values)
    comment = f"driftlearn gen config_hash={h} seed={values['seed']}"
    out = Path(values["out"])
    out.write_text(streams.stream_to_csv(stream, comment))
    out.with_suffix(".truth.csv").write_text(streams.path_to_csv(truth, comment))
    _write_json({
        "subcommand": "gen", "config_hash": h, "seed": values["seed"],
        "T": stream.T, "d": stream.d, "out": str(out), "checks": {},
    })
    return EXIT_OK


VAW_FIELDS = COMMON_FIELDS + [
    Field("beta", float, 1.0, check=_in_range(0.0, 1.0, lo_open=True)),
    Field("lam", float, 1.0, check=_positive),
    Field("gamma", float, None, check=_in_range(0.0, 1.0, lo_open=True, hi_open=True)),
    Field("stream", str, required=True),
    Field("truth", str, None),
    Field("out", str, None),
]


def cmd_run_vaw(values: dict) -> int:
    stream, truth = _load_stream(values)
    beta, lam = values["beta"], values["lam"]
    run = linreg.run_dvaw(stream, beta, lam)
    h = _config_hash(values)
    summary = {
        "subcommand": "run-vaw", "config_hash": h, "beta": beta, "lam": lam,
        "T": stream.T, "d": stream.d,
        "cumulative_loss": float(run.losses_at_play.sum()),
        "checks": {},
    }
    if truth is not None:
        ledger = linreg.vaw_ledger(run)
        dyn = regret.dynamic_regret(ledger, truth)
        summary["dynamic_regret"] = dyn
        if beta < 1.0:
            gamma = _resolve_gamma(values, beta)
            bound_path = linreg.dvaw_dynamic_bound(run, truth, gamma, form="path")
            bound_ft = linreg.dvaw_dynamic_bound(run, truth, form="ftdiff")
            modular = regret.modular_bound_rhs(ledger, truth)
            summary.update(
                gamma=gamma, bound_path_form=bound_path,
                bound_ftdiff_form=bound_ft, modular_rhs=modular,
            )
            tol = 1e-9 * (1.0 + abs(dyn))
            summary["checks"] = {
                "dynamic_regret_le_path_bound": dyn <= bound_path + tol,
                "dynamic_regret_le_ftdiff_bound": dyn <= bound_ft + tol,
                "dynamic_regret_le_modular_rhs": dyn <= modular + tol,
            }
        if values["out"]:
            comment = f"driftlearn run-vaw config_hash={h}"
            Path(values["out"]).write_text(
                regret.regret_trace_csv(ledger, truth, comment)
            )
    _write_summary(values["out"], summary)
    return _checks_exit(summary)


AIOLI_FIELDS = COMMON_FIELDS + [
    Field("beta", float, 0.9, check=_in_range(0.0, 1.0, lo_open=True, hi_open=True)),
    Field("B", float, 1.0, check=_positive),
    Field("R", float, 1.0, check=_positive),
    Field("lam", float, None, check=_positive),
    Field("gamma", float, None, check=_in_range(0.0, 1.0, lo_open=True, hi_open=True)),
    Field("stream", str, required=True),
    Field("truth", str, None),
    Field("out", str, None),
]


def cmd_run_aioli(values: dict) -> int:
    stream, truth = _load_stream(values)
    beta, B, R = values["beta"], values["B"], values["R"]
    lam = values["lam"] if values["lam"] is not None else 1.0 / (B * B)
    run = logreg.run_aioli(stream, beta, lam, B, R)
    ledger = logreg.logistic_ledger(run)
    h = _config_hash(values)
    max_resid = float(run.residuals.max())
    checks = {"stationarity_residual_le_1e-9": max_resid <= 1e-9}

    # Discounted-regret bound at every prefix for a few fixed comparators.
    comparators = [np.zeros(stream.d)]
    if truth is not None:
        comparators += [truth[0], truth[-1]]
    worst, ok = logreg.rescaled_bound_check(run, comparators)
    checks["discounted_regret_le_rescaled_bound"] = ok
    summary = {
        "subcommand": "run-aioli", "config_hash": h, "beta": beta, "lam": lam,
        "B": B, "R": R, "T": stream.T, "d": stream.d,
        "cumulative_loss": float(run.losses_at_play.sum()),
        "max_stationarity_residual": max_resid,
        "rescaled_bound_worst_slack": worst,
        "checks": checks,
    }
    if truth is not None:
        dyn = regret.dynamic_regret(ledger, truth)
        gamma = _resolve_gamma(values, beta)
        bound = logreg.theorem_dynamic_bound(run, truth, gamma)
        summary.update(dynamic_regret=dyn, gamma=gamma, dynamic_bound=bound)
        checks["dynamic_regret_le_bound"] = dyn <= bound + 1e-9 * (1.0 + abs(bound))
    if values["out"] and truth is not None:
        comment = f"driftlearn run-aioli config_hash={h}"
        Path(values["out"]).write_text(regret.regret_trace_csv(ledger, truth, comment))
    _write_summary(values["out"], summary)
    return _checks_exit(summary)


def _parse_bool(raw: str) -> bool:
    text = str(raw).strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


ENSEMBLE_FIELDS = COMMON_FIELDS + [
    Field("B", float, 1.0, check=_positive),
    Field("R", float, 1.0, check=_positive),
    Field("lam", float, None, check=_positive),
    Field("betas", str, None, help="comma-separated pool"),
    Field("grid", _parse_bool, None, help="use the geometric discount pool (default)"),
    Field("stream", str, required=True),
    Field("truth", str, None),
    Field("out", str, None),
]


def _parse_betas(raw: str) -> list[float]:
    try:
        betas = [float(v) for v in raw.split(",")]
    except ValueError:
        raise UsageError(f"betas: expected comma-separated numbers, got {raw!r}") from None
    for b in betas:
        if not (0.0 < b < 1.0):
            raise UsageError(f"betas: every entry must lie in (0, 1), got {b}")
    return betas


def cmd_run_ensemble(values: dict) -> int:
    stream, truth = _load_stream(values)
    B, R = values["B"], values["R"]
    if values["betas"] is not None:
        if values["grid"]:
            raise UsageError("betas: give an explicit pool or --grid true, not both")
        betas = _parse_betas(values["betas"])
        lam = values["lam"] if values["lam"] is not None else 1.0 / (B * B)
    elif values["grid"] is False:
        raise UsageError("grid: --grid false needs an explicit pool in --betas")
    else:
        grid = logreg.build_grid(B, R, stream.d, stream.T)
        betas = list(grid.betas)
        lam = values["lam"] if values["lam"] is not None else grid.lam
    run = logreg.run_ensemble(stream, betas, lam, B, R)
    n = len(betas)
    mix = lemmas.check_mixability(run.expert_yhats, run.weights)
    meta = run.meta_regret
    h = _config_hash(values)
    summary = {
        "subcommand": "run-ensemble", "config_hash": h, "B": B, "R": R,
        "lam": lam, "betas": betas, "n_experts": n, "T": stream.T,
        "meta_regret": meta, "ln_n": math.log(n),
        "mixability_worst_slack": mix.worst_slack,
        "cumulative_loss": float(run.mix_losses.sum()),
        "checks": {
            "meta_regret_le_ln_n": meta <= math.log(n) + 1e-9,
            "mixability_every_round": mix.passed,
        },
    }
    if truth is not None:
        summary["dynamic_regret"] = regret.dynamic_regret(logreg.ensemble_ledger(run), truth)
    if values["out"]:
        comment = f"driftlearn run-ensemble config_hash={h}"
        columns = [run.mix_losses, run.expert_losses.min(axis=1)]
        text = streams.csv_text(["mix_loss", "best_expert_loss"], columns, comment)
        Path(values["out"]).write_text(text)
    _write_summary(values["out"], summary)
    return _checks_exit(summary)


O2NC_FIELDS = COMMON_FIELDS + [
    Field("variant", str, "clipped", choices=("clipped", "clipfree")),
    Field("objective", str, "quadratic", choices=tuple(o2nc.OBJECTIVES)),
    Field("dim", int, 10, check=_at_least_one),
    Field("T", int, 1000, check=_at_least_one),
    Field("seed", int, None),
    Field("eps", float, None, check=_positive),
    Field("c", float, 0.1, check=_positive),
    Field("G", float, 1.0, check=_positive),
    Field("sigma", float, 0.1, check=_nonneg),
    Field("nu", float, None, check=_positive),
    Field("rho", float, None, check=_in_range(0.0, 1.0, hi_open=True)),
    Field("Fstar", float, None, check=_positive),
    Field("x0_scale", float, None, check=_nonneg),
    Field("out", str, None),
]


def _tune(values: dict) -> adam.TuningReport:
    """Tuning report of the variant in ``values``; ``rho`` picks the margin form."""
    args = [values[k] for k in ("eps", "c", "G", "sigma", "Fstar", "nu")]
    if values["variant"] == "clipfree":
        return adam.tune_clipfree(*args, values["rho"])
    if values["rho"] is None:
        return adam.tune_clipped(*args)
    return adam.tune_clipped_margin(*args, values["rho"])


def cmd_run_o2nc(values: dict) -> int:
    G, sigma = values["G"], values["sigma"]
    dim = values["dim"]
    if values["objective"] == "quadratic":
        objective = o2nc.clamped_quadratic(dim, radius=G)
    elif values["objective"] == "norm":
        objective = o2nc.euclidean_norm(dim)
        G = objective.lipschitz
    else:
        objective = o2nc.max_affine(dim, seed=values["seed"])
        G = objective.lipschitz
    x0_scale = values["x0_scale"] if values["x0_scale"] is not None else G
    x0 = x0_scale / math.sqrt(dim) * np.ones(dim)
    g0 = float(np.linalg.norm(objective.grad(x0)))
    eps = values["eps"] if values["eps"] is not None else max(0.3 * g0, 1e-6)
    nu = values["nu"] if values["nu"] is not None else G + sigma
    fstar = values["Fstar"] if values["Fstar"] is not None else max(objective.value(x0), 1e-6)

    rep = _tune({**values, "eps": eps, "G": G, "Fstar": fstar, "nu": nu})
    variant = "clipped" if values["variant"] == "clipped" else "clip-free"
    if not rep.feasible:
        raise UsageError(f"tuning infeasible: {rep.reason}")
    cfg = adam.AdamConfig(
        beta1=rep.beta1, beta2=rep.beta2, gamma=rep.gamma, nu=nu,
        variant=variant, D=rep.D, mu=rep.mu,
    )
    oracle = o2nc.StochasticOracle(objective=objective, sigma=sigma)
    trace = o2nc.run_o2nc(cfg, oracle, values["T"], values["seed"], x0)
    tail = max(1, values["T"] // 10)
    tail_mean = float(trace.grad_norms_at_xbar[-tail:].mean())
    delta_norms = np.linalg.norm(trace.deltas, axis=1)
    checks = {}
    if variant == "clipped":
        checks["delta_norm_le_D"] = bool(np.all(delta_norms <= rep.D * (1.0 + 1e-12)))
    h = _config_hash(values)
    summary = {
        "subcommand": "run-o2nc", "config_hash": h, "seed": values["seed"],
        "variant": variant, "objective": objective.name, "dim": dim,
        "T": values["T"], "eps": eps, "G": G, "sigma": sigma, "nu": nu,
        "tuning": rep.to_dict(),
        "grad_norm_at_x0": g0,
        "tail_mean_grad_norm": tail_mean,
        "final_grad_norm": float(trace.grad_norms_at_xbar[-1]),
        "max_delta_norm": float(delta_norms.max()),
        "dynamic_regret_terms_sum": float(trace.dynreg_terms.sum()),
        "zero_comparators": trace.zero_comparators,
        "checks": checks,
    }
    if values["out"]:
        comment = f"driftlearn run-o2nc config_hash={h} seed={values['seed']}"
        Path(values["out"]).write_text(trace.to_csv(comment))
    _write_summary(values["out"], summary)
    return _checks_exit(summary)


TUNE_FIELDS = COMMON_FIELDS + [
    Field("variant", str, "clipped", choices=("clipped", "clipfree")),
    Field("eps", float, required=True, check=_positive),
    Field("c", float, required=True, check=_positive),
    Field("G", float, required=True, check=_positive),
    Field("sigma", float, required=True, check=_nonneg),
    Field("Fstar", float, required=True, check=_positive),
    Field("nu", float, required=True, check=_positive),
    Field("rho", float, None, check=_in_range(0.0, 1.0, hi_open=True)),
    Field("out", str, None),
]


def cmd_tune_adam(values: dict) -> int:
    rep = _tune(values)
    errors = adam.verify_report(rep)
    payload = rep.to_dict()
    payload["config_hash"] = _config_hash(values)
    payload["checks"] = {"resubstitution": not errors}
    if errors:
        payload["violations"] = errors
    _write_json(payload, Path(values["out"]) if values["out"] else None)
    return EXIT_OK if not errors else EXIT_VIOLATION


LEMMA_FIELDS = COMMON_FIELDS + [
    Field("only", str, None, choices=tuple(lemmas.SUITES)),
    Field("instances", int, 1000, check=_at_least_one),
    Field("seed", int, None),
]


def cmd_verify_lemmas(values: dict) -> int:
    verdicts = lemmas.run_all(values["instances"], values["seed"], values["only"])
    payload = {
        "subcommand": "verify-lemmas",
        "config_hash": _config_hash(values),
        "seed": values["seed"],
        "verdicts": {k: v.to_dict() for k, v in verdicts.items()},
        "checks": {k: v.passed for k, v in verdicts.items()},
    }
    _write_json(payload)
    return EXIT_OK if all(v.passed for v in verdicts.values()) else EXIT_VIOLATION


SUBCOMMANDS = {
    "gen": (GEN_FIELDS, cmd_gen, "generate a synthetic stream + truth path"),
    "run-vaw": (VAW_FIELDS, cmd_run_vaw, "run the discounted VAW forecaster"),
    "run-aioli": (AIOLI_FIELDS, cmd_run_aioli, "run discounted AIOLI"),
    "run-ensemble": (ENSEMBLE_FIELDS, cmd_run_ensemble, "run the discount-learning ensemble"),
    "run-o2nc": (O2NC_FIELDS, cmd_run_o2nc, "run the online-to-non-convex driver"),
    "tune-adam": (TUNE_FIELDS, cmd_tune_adam, "derive theorem-faithful Adam parameters"),
    "verify-lemmas": (LEMMA_FIELDS, cmd_verify_lemmas, "fuzz the inequality oracles"),
}

_FLAG_ALIASES = {"lam": ["--lambda"], "Fstar": ["--fstar"]}


def build_parser() -> _Parser:
    parser = _Parser(prog="driftlearn", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand")
    for name, (fields, _, help_text) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for f in fields:
            flags = [f"--{f.name.replace('_', '-')}"] + _FLAG_ALIASES.get(f.name, [])
            p.add_argument(*flags, dest=f.name, type=f.type, default=None, help=f.help)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "subcommand", None):
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        fields, handler, _ = SUBCOMMANDS[args.subcommand]
        values = _resolve_config(fields, args)
        if any(f.name == "seed" for f in fields) and values.get("seed") is None:
            values["seed"] = _default_seed()
        if _maybe_emit_config(values, args):
            return EXIT_OK
        return handler(values)
    except UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
