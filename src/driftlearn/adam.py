"""Clipped and clip-free Adam updates as discounted FTRL, plus tuning.

The update state keeps the unnormalized moment sums

    m_t = sum_{s<=t} beta1^(t-s) g_s        (m <- beta1 m + g)
    v_t = sum_{s<=t} beta2^(t-s) |g_s|^2    (v <- beta2 v + |g|^2)

and the step size reads

    eta_t = gamma (1-beta1) beta1^t / (nu + sqrt((1-beta2) v_t)),

so the (1-beta2) factor is applied at read time and a single recurrence
drives v.  No bias-correction terms are kept.  The clipped variant applies
Clip_D, the clip-free variant damps the denominator by gamma*mu*(1-beta1^t).

`ftrl_equivalence_residual` verifies the closed forms against a numeric
argmin of the underlying discounted objective, evaluated with all
beta1^(-s) factors folded away (the raw rescaled sums overflow even at
moderate horizons; the folded objective is algebraically identical).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class AdamConfig:
    """Hyperparameters of one update rule instance.

    ``D`` is the clip radius for the clipped variant; the clip-free variant
    keeps it as the comparator radius used in diagnostics.  ``mu`` is the
    composite-loss weight of the clip-free variant.
    """

    beta1: float
    beta2: float
    gamma: float
    nu: float
    variant: str = "clipped"
    D: float = 1.0
    mu: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must lie in (0, 1)")
        if self.gamma <= 0.0 or self.nu <= 0.0:
            raise ValueError("gamma and nu must be positive")
        if self.variant not in ("clipped", "clip-free"):
            raise ValueError(f"variant must be clipped or clip-free, got {self.variant!r}")
        if self.variant == "clipped" and self.D <= 0.0:
            raise ValueError("clipped variant needs a positive clip radius D")
        if self.mu < 0.0:
            raise ValueError("mu must be >= 0")


@dataclass
class AdamState:
    """First/second moment accumulators; ``beta1_pow`` tracks beta1^t."""

    m: np.ndarray
    v: float = 0.0
    t: int = 0
    beta1_pow: float = 1.0

    @classmethod
    def fresh(cls, d: int) -> "AdamState":
        return cls(m=np.zeros(d))


def adam_update(cfg: AdamConfig, state: AdamState, g: np.ndarray) -> AdamState:
    g = np.asarray(g, dtype=float)
    return AdamState(
        m=cfg.beta1 * state.m + g,
        v=cfg.beta2 * state.v + float(g @ g),
        t=state.t + 1,
        beta1_pow=state.beta1_pow * cfg.beta1,
    )


def eta_t(cfg: AdamConfig, state: AdamState) -> float:
    """gamma (1-beta1) beta1^t / (nu + sqrt((1-beta2) v_t))."""
    denom = cfg.nu + math.sqrt((1.0 - cfg.beta2) * state.v)
    return cfg.gamma * (1.0 - cfg.beta1) * state.beta1_pow / denom


def clip_to_ball(a: np.ndarray, radius: float) -> np.ndarray:
    """Radial clip min(|a|, D) a/|a|, with 0 mapped to 0."""
    norm = math.sqrt(a @ a)
    if norm <= radius or norm == 0.0:
        return a
    return (radius / norm) * a


def _raw_direction(cfg: AdamConfig, state: AdamState) -> np.ndarray:
    denom = cfg.nu + math.sqrt((1.0 - cfg.beta2) * state.v)
    return -cfg.gamma * (1.0 - cfg.beta1) * state.m / denom


def clipped_delta(cfg: AdamConfig, state: AdamState) -> np.ndarray:
    """Clip_D[-gamma (1-beta1) m_t / (nu + sqrt((1-beta2) v_t))]."""
    if cfg.variant != "clipped":
        raise ValueError("clipped_delta requires a clipped-variant config")
    return clip_to_ball(_raw_direction(cfg, state), cfg.D)


def clipfree_delta(cfg: AdamConfig, state: AdamState) -> np.ndarray:
    """Closed-form damped update with denominator
    nu + gamma*mu*(1-beta1^t) + sqrt((1-beta2) v_t)."""
    if cfg.variant != "clip-free":
        raise ValueError("clipfree_delta requires a clip-free-variant config")
    damping = cfg.gamma * cfg.mu * (1.0 - state.beta1_pow)
    denom = cfg.nu + damping + math.sqrt((1.0 - cfg.beta2) * state.v)
    return -cfg.gamma * (1.0 - cfg.beta1) * state.m / denom


def delta_for(cfg: AdamConfig, state: AdamState) -> np.ndarray:
    if cfg.variant == "clipped":
        return clipped_delta(cfg, state)
    return clipfree_delta(cfg, state)


def ftrl_equivalence_residual(cfg: AdamConfig, grads: np.ndarray) -> float:
    """|Delta_closed_form - Delta_numeric_argmin| after replaying ``grads``.

    The discounted objective, multiplied by the positive constant
    beta1^t/(something that keeps coefficients O(1)), is

        J(D) = 1/2 |D|^2 + c.D             (+ ball constraint, clipped)
        J(D) = (1+r)/2 |D|^2 + c.D         (clip-free, r from the mu term)

    and the numeric side minimizes it with a generic constrained solver.
    This is the one function in driftlearn that needs scipy, and it imports
    ``scipy.optimize`` when called.
    """
    from scipy.optimize import NonlinearConstraint, minimize

    grads = np.atleast_2d(np.asarray(grads, dtype=float))
    state = AdamState.fresh(grads.shape[1])
    for g in grads:
        state = adam_update(cfg, state, g)

    # Folded quadratic coefficient a = beta1^t / eta_t, plus the composite
    # term mu * sum_{s<=t} beta1^(t-s) = mu (1-beta1^t)/(1-beta1).
    a = (cfg.nu + math.sqrt((1.0 - cfg.beta2) * state.v)) / (
        cfg.gamma * (1.0 - cfg.beta1)
    )
    if cfg.variant == "clip-free":
        a += cfg.mu * (1.0 - state.beta1_pow) / (1.0 - cfg.beta1)
    c = state.m / a  # normalized linear coefficient: J/a = |D|^2/2 + c.D

    def fun(x: np.ndarray) -> float:
        return 0.5 * float(x @ x) + float(c @ x)

    def jac(x: np.ndarray) -> np.ndarray:
        return x + c

    closed = delta_for(cfg, state)
    if cfg.variant == "clipped":
        cons = [
            {
                "type": "ineq",
                "fun": lambda x: cfg.D**2 - float(x @ x),
                "jac": lambda x: -2.0 * x,
            }
        ]
        res = minimize(
            fun, np.zeros_like(c), jac=jac, method="SLSQP", constraints=cons,
            options={"ftol": 1e-16, "maxiter": 500},
        )
        numeric = res.x

        # SLSQP tolerates small constraint violations and can stall on an
        # active boundary; judge the returned point by its projected-gradient
        # optimality and escalate to the interior-point solver when loose.
        def kkt(x: np.ndarray) -> float:
            return float(np.linalg.norm(x - clip_to_ball(x - jac(x), cfg.D)))

        if kkt(numeric) > 1e-10 * (1.0 + float(np.linalg.norm(numeric))):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # quasi-Newton noise on flat faces
                hi = minimize(
                    fun, clip_to_ball(numeric, cfg.D), jac=jac, method="trust-constr",
                    constraints=[NonlinearConstraint(
                        lambda x: float(x @ x), -np.inf, cfg.D**2,
                        jac=lambda x: 2.0 * x.reshape(1, -1),
                    )],
                    options={"gtol": 1e-14, "xtol": 1e-14, "maxiter": 2000},
                )
            if kkt(hi.x) < kkt(numeric):
                numeric = hi.x
    else:
        res = minimize(
            fun, np.zeros_like(c), jac=jac, method="BFGS",
            options={"gtol": 1e-12, "maxiter": 500},
        )
        numeric = res.x
    return float(np.linalg.norm(closed - numeric))


def rho_of(beta1: float, beta2: float) -> float:
    """Normalized distance of beta2 from the center (1+beta1^2)/2.

    rho = |beta2 - (1+beta1^2)/2| / ((1-beta1^2)/2); it is < 1 exactly when
    beta2 lies strictly inside (beta1^2, 1).
    """
    if not (0.0 < beta1 < 1.0):
        raise ValueError(f"beta1 must lie in (0, 1), got {beta1}")
    center = 0.5 * (1.0 + beta1 * beta1)
    half_width = 0.5 * (1.0 - beta1 * beta1)
    return abs(beta2 - center) / half_width


@dataclass(frozen=True)
class TuningReport:
    """Concrete parameter set derived from a convergence theorem."""

    variant: str
    eps: float
    c: float
    G: float
    sigma: float
    Fstar: float
    nu: float
    rho: Optional[float]
    feasible: bool
    reason: str = ""
    beta1: float = float("nan")
    # 1 - beta1 at full precision; beta1 alone cannot represent it once it
    # sits within ulps of 1, and every derived formula consumes this gap.
    one_minus_beta1: float = float("nan")
    beta2: float = float("nan")
    beta2_lo: float = float("nan")
    beta2_hi: float = float("nan")
    D: float = float("nan")
    gamma: float = float("nan")
    mu: float = 0.0
    margin: Optional[float] = None
    T_min: float = float("nan")

    def to_dict(self) -> dict:
        return asdict(self)


def _check_inputs(eps, c, G, sigma, Fstar, nu) -> Optional[str]:
    if min(eps, c, G, Fstar) <= 0 or sigma < 0 or nu <= 0:
        return "eps, c, G, Fstar must be positive; sigma >= 0; nu > 0"
    if nu > G + sigma:
        return f"nu={nu} exceeds G+sigma={G + sigma}"
    return None


def tune_clipped(eps, c, G, sigma, Fstar, nu) -> TuningReport:
    """Clipped-variant tuning with the relaxed beta2 floor.

    beta1 sits at its smallest admissible value 1-(eps/(16(G+sigma)))^2,
    D = (1-beta1) sqrt(eps)/sqrt(48 c), gamma = beta1 D / sqrt(1-beta1),
    beta2 >= max(1 - nu/(G+sigma), beta1^4), and T_min is the stated max.
    """
    bad = _check_inputs(eps, c, G, sigma, Fstar, nu)
    kw = dict(variant="clipped", eps=eps, c=c, G=G, sigma=sigma, Fstar=Fstar,
              nu=nu, rho=None)
    if bad:
        return TuningReport(feasible=False, reason=bad, **kw)
    gs = G + sigma
    one_minus_b1 = (eps / (16.0 * gs)) ** 2
    if one_minus_b1 >= 1.0:
        return TuningReport(
            feasible=False, reason=f"eps={eps} too large: needs eps < 16(G+sigma)", **kw
        )
    beta1 = 1.0 - one_minus_b1
    D = one_minus_b1 * math.sqrt(eps) / math.sqrt(48.0 * c)
    gamma = beta1 * D / math.sqrt(one_minus_b1)
    beta2_lo = max(1.0 - nu / gs, beta1**4)
    beta2 = beta2_lo
    T_min = max(
        (1.0 / one_minus_b1)
        * max(16.0 * Fstar * math.sqrt(48.0 * c) / eps**1.5, 16.0 * gs / eps),
        math.log(2.0) / (1.0 - beta2),
    )
    return TuningReport(
        feasible=True, beta1=beta1, one_minus_beta1=one_minus_b1, beta2=beta2,
        beta2_lo=beta2_lo, beta2_hi=1.0, D=D, gamma=gamma, T_min=T_min, **kw
    )


def _margin_interval(beta1: float, rho: float) -> tuple[float, float, float]:
    m = 0.5 * (1.0 - rho) * (1.0 - beta1 * beta1)
    lo = beta1 * beta1 + m
    hi = 1.0 - m
    # width = rho (1 - beta1^2) >= 0, so the interval cannot be empty
    assert lo <= hi + 1e-15
    return m, lo, hi


def tune_clipped_margin(eps, c, G, sigma, Fstar, nu, rho) -> TuningReport:
    """Clipped-variant tuning under the margin condition on beta2.

    beta1 = 1-(eps sqrt(1-rho^2)/(64(G+sigma)))^2; beta2 is reported as the
    interval [beta1^2+m, 1-m] with m = (1-rho)(1-beta1^2)/2 and pinned to
    its midpoint (1+beta1^2)/2.
    """
    kw = dict(variant="clipped", eps=eps, c=c, G=G, sigma=sigma, Fstar=Fstar,
              nu=nu, rho=rho)
    bad = _check_inputs(eps, c, G, sigma, Fstar, nu)
    if bad:
        return TuningReport(feasible=False, reason=bad, **kw)
    if not (0.0 <= rho < 1.0):
        return TuningReport(feasible=False, reason=f"rho={rho} outside [0, 1)", **kw)
    gs = G + sigma
    root = math.sqrt(1.0 - rho * rho)
    one_minus_b1 = (eps * root / (64.0 * gs)) ** 2
    if one_minus_b1 >= 1.0:
        return TuningReport(
            feasible=False,
            reason=f"eps={eps} too large: needs eps sqrt(1-rho^2) < 64(G+sigma)",
            **kw,
        )
    beta1 = 1.0 - one_minus_b1
    m, lo, hi = _margin_interval(beta1, rho)
    beta2 = 0.5 * (lo + hi)  # = (1+beta1^2)/2 for every rho
    D = one_minus_b1 * math.sqrt(eps) / math.sqrt(48.0 * c)
    gamma = beta1 * D / math.sqrt(one_minus_b1)
    T_min = max(
        (1.0 / one_minus_b1)
        * max(32.0 * Fstar * math.sqrt(c) / eps**1.5, 16.0 * gs / eps),
        32.0 * G / (eps * math.sqrt(one_minus_b1) * root) * math.log1p(G / nu),
        math.log(2.0) / (1.0 - beta2),
    )
    return TuningReport(
        feasible=True, beta1=beta1, one_minus_beta1=one_minus_b1, beta2=beta2,
        beta2_lo=lo, beta2_hi=hi, D=D, gamma=gamma, margin=m, T_min=T_min, **kw
    )


def tune_clipfree(eps, c, G, sigma, Fstar, nu, rho: Optional[float] = None) -> TuningReport:
    """Clip-free tuning; passing ``rho`` selects the margin condition.

    Without rho: beta1 = 1-(eps/(16(G+sigma)))^2, beta2 >= max(1-nu/(G+sigma),
    beta1^2).  With rho: beta1 = 1-(eps sqrt(1-rho^2)/(64(G+sigma)))^2 and
    beta2 in [beta1^2+m, 1-m].  Either way D = (1-beta1) sqrt(eps)/sqrt(96c),
    gamma = beta1 D/sqrt(1-beta1) and mu = 24 c D/(1-beta1)^2.
    """
    kw = dict(variant="clip-free", eps=eps, c=c, G=G, sigma=sigma, Fstar=Fstar,
              nu=nu, rho=rho)
    bad = _check_inputs(eps, c, G, sigma, Fstar, nu)
    if bad:
        return TuningReport(feasible=False, reason=bad, **kw)
    gs = G + sigma
    if rho is None:
        one_minus_b1 = (eps / (16.0 * gs)) ** 2
    else:
        if not (0.0 <= rho < 1.0):
            return TuningReport(feasible=False, reason=f"rho={rho} outside [0, 1)", **kw)
        one_minus_b1 = (eps * math.sqrt(1.0 - rho * rho) / (64.0 * gs)) ** 2
    if one_minus_b1 >= 1.0:
        return TuningReport(feasible=False, reason=f"eps={eps} too large", **kw)
    beta1 = 1.0 - one_minus_b1
    D = one_minus_b1 * math.sqrt(eps) / math.sqrt(96.0 * c)
    gamma = beta1 * D / math.sqrt(one_minus_b1)
    mu = 24.0 * c * D / one_minus_b1**2
    if rho is None:
        lo = max(1.0 - nu / gs, beta1 * beta1)
        hi = 1.0
        beta2 = lo
        margin = None
        T_min = max(
            (1.0 / one_minus_b1)
            * max(16.0 * Fstar * math.sqrt(96.0 * c) / eps**1.5, 48.0 * gs / eps),
            math.log(2.0) / (1.0 - beta2),
        )
    else:
        margin, lo, hi = _margin_interval(beta1, rho)
        beta2 = 0.5 * (lo + hi)
        T_min = max(
            (1.0 / one_minus_b1)
            * max(32.0 * Fstar * math.sqrt(96.0 * c) / eps**1.5, 48.0 * gs / eps),
            math.log(2.0) / (1.0 - beta2),
            32.0 * G / (eps * math.sqrt(one_minus_b1) * math.sqrt(1.0 - rho * rho))
            * math.log1p((gamma * mu + G) / nu),
        )
    return TuningReport(
        feasible=True, beta1=beta1, one_minus_beta1=one_minus_b1, beta2=beta2,
        beta2_lo=lo, beta2_hi=hi, D=D, gamma=gamma, mu=mu, margin=margin,
        T_min=T_min, **kw
    )


def verify_report(rep: TuningReport, rel_tol: float = 1e-12) -> list[str]:
    """Re-substitute a report into its theorem's constraints.

    Returns a list of violated constraints (empty when everything holds).
    Infeasible reports pass vacuously when the stated reason is genuine.
    All derived formulas are rebuilt from the report's full-precision
    ``one_minus_beta1`` gap.
    """
    if not rep.feasible:
        return [] if rep.reason else ["infeasible without a reason"]
    errs: list[str] = []
    gs = rep.G + rep.sigma
    omb = rep.one_minus_beta1

    def close(a: float, b: float, label: str) -> None:
        if abs(a - b) > rel_tol * (1.0 + abs(b)):
            errs.append(f"{label}: {a} != {b}")

    if not (0.0 < omb < 1.0):
        errs.append(f"one_minus_beta1={omb} outside (0,1)")
    if abs((1.0 - rep.beta1) - omb) > 1e-15:
        errs.append("beta1 and one_minus_beta1 disagree")
    if not (rep.beta2_lo <= rep.beta2 <= rep.beta2_hi):
        errs.append("beta2 outside its admissible range")
    if not (0.0 < rep.beta2 < 1.0):
        errs.append(f"beta2={rep.beta2} outside (0,1)")
    if not (0.0 < rep.nu <= gs):
        errs.append(f"nu={rep.nu} outside (0, G+sigma]")

    root48 = math.sqrt(48.0 * rep.c)
    root96 = math.sqrt(96.0 * rep.c)
    if rep.rho is None:
        # beta1 >= 1 - (eps/(16(G+sigma)))^2, checked in gap space
        if omb > (rep.eps / (16.0 * gs)) ** 2 * (1.0 + rel_tol):
            errs.append("beta1 below the theorem floor")
        if rep.variant == "clipped":
            close(rep.D, omb * math.sqrt(rep.eps) / root48, "D")
            if rep.beta2 < max(1.0 - rep.nu / gs, rep.beta1**4) - rel_tol:
                errs.append("beta2 below max(1-nu/(G+sigma), beta1^4)")
            t1 = (1.0 / omb) * max(
                16.0 * rep.Fstar * root48 / rep.eps**1.5, 16.0 * gs / rep.eps
            )
        else:
            close(rep.D, omb * math.sqrt(rep.eps) / root96, "D")
            close(rep.mu, 24.0 * rep.c * rep.D / omb**2, "mu")
            if rep.beta2 < max(1.0 - rep.nu / gs, rep.beta1**2) - rel_tol:
                errs.append("beta2 below max(1-nu/(G+sigma), beta1^2)")
            t1 = (1.0 / omb) * max(
                16.0 * rep.Fstar * root96 / rep.eps**1.5, 48.0 * gs / rep.eps
            )
        t_expect = max(t1, math.log(2.0) / (1.0 - rep.beta2))
    else:
        root = math.sqrt(1.0 - rep.rho**2)
        if omb > (rep.eps * root / (64.0 * gs)) ** 2 * (1.0 + rel_tol):
            errs.append("beta1 below the margin-theorem floor")
        m_expect = 0.5 * (1.0 - rep.rho) * (1.0 - rep.beta1**2)
        close(rep.margin, m_expect, "margin")
        close(rep.beta2_lo, rep.beta1**2 + m_expect, "beta2_lo")
        close(rep.beta2_hi, 1.0 - m_expect, "beta2_hi")
        if rep.beta2_lo > rep.beta2_hi + rel_tol:
            errs.append("empty beta2 interval")
        if rep.variant == "clipped":
            close(rep.D, omb * math.sqrt(rep.eps) / root48, "D")
            t1 = (1.0 / omb) * max(
                32.0 * rep.Fstar * math.sqrt(rep.c) / rep.eps**1.5, 16.0 * gs / rep.eps
            )
            t3 = (
                32.0 * rep.G / (rep.eps * math.sqrt(omb) * root)
                * math.log1p(rep.G / rep.nu)
            )
        else:
            close(rep.D, omb * math.sqrt(rep.eps) / root96, "D")
            close(rep.mu, 24.0 * rep.c * rep.D / omb**2, "mu")
            t1 = (1.0 / omb) * max(
                32.0 * rep.Fstar * root96 / rep.eps**1.5, 48.0 * gs / rep.eps
            )
            t3 = (
                32.0 * rep.G / (rep.eps * math.sqrt(omb) * root)
                * math.log1p((rep.gamma * rep.mu + rep.G) / rep.nu)
            )
        t_expect = max(t1, t3, math.log(2.0) / (1.0 - rep.beta2))
    close(rep.gamma, rep.beta1 * rep.D / math.sqrt(omb), "gamma")
    close(rep.T_min, t_expect, "T_min")
    return errs
