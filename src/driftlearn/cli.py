"""Experiment harness: subcommand dispatch, config handling, artifacts.

Subcommands: gen, run-vaw, run-aioli, run-ensemble, run-o2nc, tune-adam,
verify-lemmas.  Every subcommand accepts ``--config FILE`` (flat key=value
text) with CLI flags taking precedence, and ``--emit-config FILE`` to dump
the resolved configuration for exact reproduction.

Each subcommand returns its JSON summary and the files it makes, each a
path and the writer of its contents; main alone opens files, writes and
prints.  It builds the summary's JSON text before it writes any file, so a
summary with no JSON form writes none, then writes the files in a fixed
order, then prints the text.  No run holds a whole file as text: stream
and truth files are read in chunks of ``streams.CHUNK`` bytes, and each
CSV artifact is written into its open file in blocks of
``streams.BLOCK_ROWS`` rows, the bytes a whole-text write would give.

Exit codes, the same for all seven subcommands: 0 when every entry of the
summary's checks is true, 2 when one is false (tune-adam's resubstitution
and each verify-lemmas suite included), 1 on a usage or runtime error.
Every bound check, here and in the library checks the subcommands call
(the rescaled bound, the lemma suites), is ``streams.bound_holds``; the
absolute checks (``stationarity_residual_le_1e-9``, ``delta_norm_le_D``,
``meta_regret_le_ln_n``) name their bound in their key.  Stream and truth
readers refuse a nan or infinite cell, naming its row.  Artifacts carry a
header comment (CSV) or fields (JSON) embedding the config hash and seed,
and all numeric output uses shortest round-trip decimals, so a fixed
configuration reproduces byte-identical files.  The env var
DRIFTLEARN_SEED supplies the default seed.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import driftlearn
from driftlearn import streams

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2

SEED_ENV_VAR = "DRIFTLEARN_SEED"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1, not argparse's 2
        # argparse's own errors get the banner; a fault in a value or a
        # file's contents is one error line
        build_parser().print_usage(sys.stderr)
        raise UsageError(message)


@dataclass(frozen=True)
class Field:
    name: str
    type: Callable
    default: object = None
    required: bool = False
    check: Optional[Callable[[object], Optional[str]]] = None
    help: str = ""
    # the allowed values, read only to check a value other than the default:
    # a list that a library module owns loads that module then, not at import
    choices: Optional[Callable[[], tuple]] = None


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


def _not_utf8(exc: UnicodeDecodeError) -> str:
    return f"not UTF-8 text (byte 0x{exc.object[exc.start]:02x} at offset {exc.start})"


def _resolve_config(fields: list[Field], args: argparse.Namespace) -> dict:
    """defaults < config file < explicit CLI flags, with validation."""
    by_name = {f.name: f for f in fields}
    values = {f.name: f.default for f in fields}
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        text = _read("config", cfg_path)
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
        if f.choices and v != f.default and v not in (choices := f.choices()):
            raise UsageError(f"{f.name}: must be one of {choices}, got {v!r}")
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


def _config_text(values: dict) -> str:
    """The resolved configuration as the ``key=value`` text ``--config`` reads."""
    lines = [
        f"{k}={v}"
        for k, v in sorted(values.items())
        if v is not None and k not in ("config", "emit_config")
    ]
    return "\n".join(lines) + "\n"


def _jsonable(obj, field: str = ""):
    """``obj`` in plain JSON types: None, the placeholder of a value that was
    not computed, becomes null, and nan and +-inf, which JSON cannot hold,
    raise ``ValueError`` naming the field."""
    if isinstance(obj, dict):
        return {k: _jsonable(v, f"{field}.{k}" if field else k) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v, f"{field}[{i}]") for i, v in enumerate(obj)]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        raise ValueError(f"{field}: {obj} has no JSON form; the summary is not written")
    return obj


def _json_text(payload: dict) -> str:
    return json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n"


def _run_files(out: Optional[str], trace: Optional[Callable]) -> list:
    """A run's files: the trace at ``out`` (when there is a trace writer) and
    the summary beside it as ``<out>.summary.json``; none without ``--out``."""
    if not out:
        return []
    files = [] if trace is None else [(Path(out), trace)]
    return files + [(Path(out).with_suffix(".summary.json"), None)]


def _ieee_floats():
    """Context for the evaluators that read a truth path: a comparator whose
    losses or norms overflow gives inf (and inf - inf nan) without a warning,
    as Python floats do, and the strict summary then reports it."""
    return np.errstate(over="ignore", invalid="ignore")


def _regret_trace(ledger, truth: streams.ComparatorPath, comment: str) -> Callable:
    """The writer of a run's regret trace: ``regret.regret_trace_csv``, whose
    comparator losses it computes under :func:`_ieee_floats`, as the run's
    other evaluators of the truth path do."""
    from driftlearn import regret

    def write(out) -> None:
        with _ieee_floats():
            regret.regret_trace_csv(ledger, truth, out, comment)

    return write


def _resolve_gamma(values: dict, beta: float) -> float:
    """Variation discount for bound reports, checked before the run; defaults to (1+beta)/2."""
    gamma = values.get("gamma")
    if gamma is None:
        return 0.5 * (1.0 + beta)
    if beta == 1.0:
        raise UsageError("gamma: no gamma-bound is reported at beta=1; leave gamma out")
    if gamma < beta:
        raise UsageError(f"gamma: must be >= beta={beta}, got {gamma}")
    return gamma


def _read(key: str, path: str | Path):
    """The input file ``key`` at ``path``: the text of a config, or the
    stream or truth path that ``streams.read_csv`` reads in pieces.  A file
    that cannot be read, is not UTF-8 or does not parse is one error line."""
    try:
        return Path(path).read_text() if key == "config" else streams.read_csv(path, key)
    except OSError as exc:
        raise UsageError(f"{key}: cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"{key}: cannot read {path}: {_not_utf8(exc)}") from None
    except streams.StreamSpecError as exc:
        raise UsageError(f"{key}: {path}: {exc}") from exc


def _load_stream(values: dict) -> tuple[streams.Stream, Optional[streams.ComparatorPath]]:
    path = Path(values["stream"])
    stream = _read("stream", path)
    truth = None
    explicit = values.get("truth")
    # only the sibling default is optional: an explicit path must be read
    truth_path = Path(explicit) if explicit else path.with_suffix(".truth.csv")
    if explicit or truth_path.exists():
        truth = _read("truth", truth_path)
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
    Field("kind", str, "piecewise-constant-target", choices=lambda: streams.KINDS),
    Field("d", int, 2, check=_at_least_one),
    Field("T", int, 100, check=_at_least_one),
    Field("segments", int, 1, check=_at_least_one),
    Field("noise", float, 0.0, check=_nonneg),
    Field("seed", int, None),
    Field("R", float, 1.0, check=_positive),
    Field("B", float, 1.0, check=_positive),
    Field("out", str, required=True),
]


def cmd_gen(values: dict) -> tuple[dict, list]:
    spec = streams.StreamSpec(
        d=values["d"], T=values["T"], kind=values["kind"],
        segments=values["segments"], noise=values["noise"],
        seed=values["seed"], R=values["R"], B=values["B"],
    )
    stream, truth = streams.gen_stream(spec)
    h = _config_hash(values)
    comment = f"driftlearn gen config_hash={h} seed={values['seed']}"
    out = Path(values["out"])
    summary = {
        "subcommand": "gen", "config_hash": h, "seed": values["seed"],
        "T": stream.T, "d": stream.d, "out": str(out), "checks": {},
    }
    return summary, [
        (out, functools.partial(streams.stream_to_csv, stream, header_comment=comment)),
        (out.with_suffix(".truth.csv"),
         functools.partial(streams.path_to_csv, truth, header_comment=comment)),
    ]


VAW_FIELDS = COMMON_FIELDS + [
    Field("beta", float, 1.0, check=_in_range(0.0, 1.0, lo_open=True)),
    Field("lam", float, 1.0, check=_positive),
    Field("gamma", float, None, check=_in_range(0.0, 1.0, lo_open=True, hi_open=True)),
    Field("stream", str, required=True),
    Field("truth", str, None),
    Field("out", str, None),
]


def cmd_run_vaw(values: dict) -> tuple[dict, list]:
    from driftlearn import linreg, regret

    beta, lam = values["beta"], values["lam"]
    gamma = _resolve_gamma(values, beta)
    stream, truth = _load_stream(values)
    run = linreg.run_dvaw(stream, beta, lam)
    h = _config_hash(values)
    summary = {
        "subcommand": "run-vaw", "config_hash": h, "beta": beta, "lam": lam,
        "T": stream.T, "d": stream.d,
        "cumulative_loss": float(run.losses_at_play.sum()),
        "checks": {},
    }
    trace = None
    if truth is not None:
        with _ieee_floats():
            ledger = linreg.vaw_ledger(run)
            dyn = regret.dynamic_regret(ledger, truth)
            summary["dynamic_regret"] = dyn
            if beta < 1.0:
                bound_path, bound_ft, modular = linreg.dvaw_bounds(run, truth, gamma)
                summary.update({
                    "gamma": gamma, "bound_path_form": bound_path,
                    "bound_ftdiff_form": bound_ft, "modular_rhs": modular,
                })
                summary["checks"] = {
                    "dynamic_regret_le_path_bound": streams.bound_holds(dyn, bound_path),
                    "dynamic_regret_le_ftdiff_bound": streams.bound_holds(dyn, bound_ft),
                    "dynamic_regret_le_modular_rhs": streams.bound_holds(dyn, modular),
                }
            if values["out"]:
                trace = _regret_trace(ledger, truth, f"driftlearn run-vaw config_hash={h}")
    return summary, _run_files(values["out"], trace)


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


def cmd_run_aioli(values: dict) -> tuple[dict, list]:
    from driftlearn import logreg, regret

    beta, B, R = values["beta"], values["B"], values["R"]
    gamma = _resolve_gamma(values, beta)
    stream, truth = _load_stream(values)
    lam = values["lam"] if values["lam"] is not None else logreg.default_lam(B)
    run = logreg.run_aioli(stream, beta, lam, B, R)
    ledger = logreg.logistic_ledger(run)
    h = _config_hash(values)
    max_resid = float(run.residuals.max())
    checks = {"stationarity_residual_le_1e-9": max_resid <= 1e-9}

    # Discounted-regret bound at every prefix for a few fixed comparators.
    comparators = [np.zeros(stream.d)]
    if truth is not None:
        comparators += [truth[0], truth[-1]]
    with _ieee_floats():
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
    trace = None
    if truth is not None:
        with _ieee_floats():
            dyn = regret.dynamic_regret(ledger, truth)
            bound = logreg.theorem_dynamic_bound(run, truth, gamma)
            summary.update(dynamic_regret=dyn, gamma=gamma, dynamic_bound=bound)
            checks["dynamic_regret_le_bound"] = streams.bound_holds(dyn, bound)
            if values["out"]:
                trace = _regret_trace(ledger, truth, f"driftlearn run-aioli config_hash={h}")
    return summary, _run_files(values["out"], trace)


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


def cmd_run_ensemble(values: dict) -> tuple[dict, list]:
    from driftlearn import lemmas, logreg, regret

    stream, truth = _load_stream(values)
    B, R = values["B"], values["R"]
    lam = values["lam"] if values["lam"] is not None else logreg.default_lam(B)
    if values["betas"] is not None:
        if values["grid"]:
            raise UsageError("betas: give an explicit pool or --grid true, not both")
        betas = _parse_betas(values["betas"])
    elif values["grid"] is False:
        raise UsageError("grid: --grid false needs an explicit pool in --betas")
    else:
        betas = list(logreg.build_grid(B, R, stream.d, stream.T))
    mix = lemmas.LemmaVerdict("mixability", 0, 0, float("inf"))

    def check(rows, played, yhats, p):
        # lemmas checks the mixture the run played, with its own code
        mix.absorb(lemmas.check_mixability(played, yhats, p))

    run = logreg.run_ensemble(stream, betas, lam, B, R, check)
    n = len(betas)
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
        with _ieee_floats():
            summary["dynamic_regret"] = regret.dynamic_regret(logreg.ensemble_ledger(run), truth)
    trace = None
    if values["out"]:
        comment = f"driftlearn run-ensemble config_hash={h}"
        columns = [run.mix_losses, run.best_expert_losses]
        trace = functools.partial(streams.write_csv, ["mix_loss", "best_expert_loss"], columns,
                                  comment=comment)
    return summary, _run_files(values["out"], trace)


# CLI spelling of each Adam variant -> its name in ``adam``
_ADAM_VARIANTS = {"clipped": "clipped", "clipfree": "clip-free"}

O2NC_FIELDS = COMMON_FIELDS + [
    Field("variant", str, "clipped", choices=lambda: tuple(_ADAM_VARIANTS)),
    Field("objective", str, "quadratic", choices=lambda: tuple(driftlearn.o2nc.OBJECTIVES)),
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


def cmd_run_o2nc(values: dict) -> tuple[dict, list]:
    from driftlearn import adam, o2nc

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
    with np.errstate(over="raise", invalid="raise"):
        try:
            grad0 = objective.grad(x0)
        except FloatingPointError:  # max-affine: A @ x0 leaves the floats
            raise UsageError(f"x0_scale: F(x0) is not finite at x0_scale={x0_scale!r}") from None
    g0 = adam._norm(grad0)  # |grad F(x0)|, without overflow
    eps = values["eps"] if values["eps"] is not None else max(0.3 * g0, 1e-6)
    nu = values["nu"] if values["nu"] is not None else G + sigma
    fstar = values["Fstar"] if values["Fstar"] is not None else max(objective.value(x0), 1e-6)

    variant = _ADAM_VARIANTS[values["variant"]]
    rep = adam.tune(variant, eps, values["c"], G, sigma, fstar, nu, values["rho"])
    if not rep.feasible:
        raise UsageError(f"tuning infeasible: {rep.reason}")
    cfg = adam.AdamConfig(
        beta1=rep.beta1, beta2=rep.beta2, gamma=rep.gamma, nu=nu,
        variant=variant, D=rep.D, mu=rep.mu,
    )
    trace = o2nc.run_o2nc(cfg, objective, sigma, values["T"], values["seed"], x0)
    tail = max(1, values["T"] // 10)
    tail_mean = float(trace.grad_norms_at_xbar[-tail:].mean())
    delta_norms = trace.delta_norms
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
    write = None
    if values["out"]:
        comment = f"driftlearn run-o2nc config_hash={h} seed={values['seed']}"
        write = functools.partial(trace.to_csv, header_comment=comment)
    return summary, _run_files(values["out"], write)


TUNE_FIELDS = COMMON_FIELDS + [
    Field("variant", str, "clipped", choices=lambda: tuple(_ADAM_VARIANTS)),
    Field("eps", float, required=True, check=_positive),
    Field("c", float, required=True, check=_positive),
    Field("G", float, required=True, check=_positive),
    Field("sigma", float, required=True, check=_nonneg),
    Field("Fstar", float, required=True, check=_positive),
    Field("nu", float, required=True, check=_positive),
    Field("rho", float, None, check=_in_range(0.0, 1.0, hi_open=True)),
    Field("out", str, None),
]


def cmd_tune_adam(values: dict) -> tuple[dict, list]:
    from driftlearn import adam

    rep = adam.tune(
        _ADAM_VARIANTS[values["variant"]], values["eps"], values["c"], values["G"],
        values["sigma"], values["Fstar"], values["nu"], values["rho"],
    )
    errors = adam.verify_report(rep)
    payload = rep.to_dict()
    payload["config_hash"] = _config_hash(values)
    payload["checks"] = {"resubstitution": not errors}
    if errors:
        payload["violations"] = errors
    return payload, [(Path(values["out"]), None)] if values["out"] else []


LEMMA_FIELDS = COMMON_FIELDS + [
    Field("only", str, None, choices=lambda: tuple(driftlearn.lemmas.SUITES)),
    Field("instances", int, 1000, check=_at_least_one),
    Field("seed", int, None),
]


def cmd_verify_lemmas(values: dict) -> tuple[dict, list]:
    from driftlearn import lemmas

    verdicts = lemmas.run_all(values["instances"], values["seed"], values["only"])
    payload = {
        "subcommand": "verify-lemmas",
        "config_hash": _config_hash(values),
        "seed": values["seed"],
        "verdicts": {k: v.to_dict() for k, v in verdicts.items()},
        "checks": {k: v.passed for k, v in verdicts.items()},
    }
    return payload, []


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


@functools.cache
def build_parser() -> _Parser:
    """The argparse parser, built once: a parse leaves no state on it, and a
    fresh parser per call would leave cyclic garbage for the collector."""
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
        if values["emit_config"]:
            Path(values["emit_config"]).write_text(_config_text(values))
            return EXIT_OK
        summary, files = handler(values)
        text = _json_text(summary)  # before any file: a summary with no JSON form writes none
        for path, write in files:
            with path.open("w") as out:
                if write is None:
                    out.write(text)
                else:
                    write(out)
        sys.stdout.write(text)
        return EXIT_OK if all(summary["checks"].values()) else EXIT_VIOLATION
    except (UsageError, ValueError, RuntimeError, OSError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # numpy's names the array it could not allocate
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory",
              file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
