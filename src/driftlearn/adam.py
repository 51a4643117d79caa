"""Clipped and clip-free Adam updates as discounted FTRL, plus tuning.

The update state keeps the unnormalized moment sums

    m_t = sum_{s<=t} beta1^(t-s) g_s        (m <- beta1 m + g)
    v_t = sum_{s<=t} beta2^(t-s) |g_s|^2    (v <- beta2 v + |g|^2)

and the step size reads

    eta_t = gamma (1-beta1) beta1^t / (nu + sqrt((1-beta2) v_t)),

so the (1-beta2) factor is applied at read time and a single recurrence
drives v.  No bias-correction terms are kept.  Both variants take their
step from one rule, `delta_for`: the clipped variant applies Clip_D, the
clip-free variant damps the denominator by gamma*mu*(1-beta1^t).
`delta_for` and `adam_update` are the whole per-round cost of Adam in the
o2nc driver, one call each a round, so the clip takes `_norm`'s square
inline and calls `_norm` only where that square is not finite.  One
tuner, `tune`, derives the parameters of either variant from its
convergence theorem, with the plain beta2 floor or, given rho, the margin
condition; `verify_report` re-substitutes a report independently.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

VARIANTS = ("clipped", "clip-free")


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
        if self.variant not in VARIANTS:
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
    beta1_pow: float = 1.0

    @classmethod
    def fresh(cls, d: int) -> "AdamState":
        return cls(m=np.zeros(d))


def adam_update(cfg: AdamConfig, state: AdamState, g: np.ndarray) -> AdamState:
    """The state after folding in the float array ``g``; |g|^2 is np.vdot's,
    which gives g @ g's bits without its overflow warning."""
    return AdamState(cfg.beta1 * state.m + g, cfg.beta2 * state.v + float(np.vdot(g, g)),
                     state.beta1_pow * cfg.beta1)


def _norm(x: np.ndarray) -> float:
    """|x|, equal to math.sqrt(x @ x) bit for bit wherever x @ x is finite.

    ``np.vdot`` runs the same dot as ``x @ x`` but raises no overflow warning.
    Past |x| of about 1.3e154 the squares overflow, and |x| is taken from x
    scaled by its largest entry instead; an inf or nan entry gives inf or nan.
    """
    sq = np.vdot(x, x)
    if sq < math.inf:
        return math.sqrt(sq)
    m = float(np.abs(x).max())
    return m * math.sqrt(np.vdot(x / m, x / m)) if 0.0 < m < math.inf else m


def delta_for(cfg: AdamConfig, state: AdamState) -> np.ndarray:
    """Delta_t = -gamma (1-beta1) m_t / (nu + sqrt((1-beta2) v_t)), clipped to
    the ball of radius D in the clipped variant.  The clip-free variant
    damps the denominator instead, to nu + gamma*mu*(1-beta1^t) + sqrt(...).

    An entry whose product -gamma (1-beta1) m_t overflows before the
    division is taken as (-gamma (1-beta1) / denom) m_t instead; every other
    entry keeps the product-first bits.  The clip is the radial
    min(|Delta|, D) Delta/|Delta|, with 0 mapped to 0; |Delta| is `_norm`'s,
    taken inline while the square is finite."""
    denom = cfg.nu
    if cfg.variant == "clip-free":
        denom += cfg.gamma * cfg.mu * (1.0 - state.beta1_pow)
    denom += math.sqrt((1.0 - cfg.beta2) * state.v)
    scale = -cfg.gamma * (1.0 - cfg.beta1)
    if abs(scale) <= 1.0:  # |scale * m_i| <= |m_i|: no product overflows
        delta = scale * state.m / denom
    else:
        with np.errstate(over="ignore"):
            step = scale * state.m
        delta = np.divide(step, denom, out=(scale / denom) * state.m, where=np.isfinite(step))
    if cfg.variant != "clipped":
        return delta
    sq = np.vdot(delta, delta)
    norm = math.sqrt(sq) if sq < math.inf else _norm(delta)
    if norm <= cfg.D or norm == 0.0:
        return delta
    return (cfg.D / norm) * delta


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
    # None marks a value an infeasible report never computed
    beta1: Optional[float] = None
    # 1 - beta1 at full precision; beta1 alone cannot represent it once it
    # sits within ulps of 1, and every derived formula consumes this gap.
    one_minus_beta1: Optional[float] = None
    beta2: Optional[float] = None
    beta2_lo: Optional[float] = None
    beta2_hi: Optional[float] = None
    D: Optional[float] = None
    gamma: Optional[float] = None
    mu: float = 0.0
    margin: Optional[float] = None
    T_min: Optional[float] = None

    def to_dict(self) -> dict:
        return asdict(self)


def tune(variant, eps, c, G, sigma, Fstar, nu, rho: Optional[float] = None) -> TuningReport:
    """Parameters from the convergence theorem of ``variant``, "clipped" or
    "clip-free"; passing ``rho`` selects the margin condition on beta2.

    beta1 sits at its smallest admissible value 1-(eps/(16(G+sigma)))^2, or
    1-(eps sqrt(1-rho^2)/(64(G+sigma)))^2 under the margin condition.  Then
    D = (1-beta1) sqrt(eps)/sqrt(k c) with k = 48 (clipped) or 96
    (clip-free), gamma = beta1 D/sqrt(1-beta1), and the clip-free
    mu = 24 c D/(1-beta1)^2.  Without rho, beta2 is its floor
    max(1 - nu/(G+sigma), beta1^4) (clipped) or max(1 - nu/(G+sigma),
    beta1^2) (clip-free); with rho, beta2 is reported as the interval
    [beta1^2+m, 1-m] with m = (1-rho)(1-beta1^2)/2 and pinned to its
    midpoint (1+beta1^2)/2.  T_min is the theorem's stated max.  An eps or
    nu so small that beta1 or beta2 rounds to 1 is infeasible.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be clipped or clip-free, got {variant!r}")
    kw = dict(variant=variant, eps=eps, c=c, G=G, sigma=sigma, Fstar=Fstar,
              nu=nu, rho=rho)

    def infeasible(reason: str) -> TuningReport:
        return TuningReport(feasible=False, reason=reason, **kw)

    if min(eps, c, G, Fstar) <= 0 or sigma < 0 or nu <= 0:
        return infeasible("eps, c, G, Fstar must be positive; sigma >= 0; nu > 0")
    gs = G + sigma
    if nu > gs:
        return infeasible(f"nu={nu} exceeds G+sigma={gs}")
    if rho is None:
        ratio = eps / (16.0 * gs)  # squared only below 1, where it cannot overflow
        needs = "eps < 16(G+sigma)"
    elif not (0.0 <= rho < 1.0):
        return infeasible(f"rho={rho} outside [0, 1)")
    else:
        root = math.sqrt(1.0 - rho * rho)
        ratio = eps * root / (64.0 * gs)
        needs = "eps sqrt(1-rho^2) < 64(G+sigma)"
    if ratio >= 1.0:
        return infeasible(f"eps={eps} too large: needs {needs}")
    one_minus_b1 = ratio**2
    beta1 = 1.0 - one_minus_b1
    if beta1 == 1.0:
        return infeasible(f"eps={eps} too small: beta1 = 1 - {one_minus_b1!r} rounds to 1")
    clipped = variant == "clipped"
    root_c = math.sqrt((48.0 if clipped else 96.0) * c)
    D = one_minus_b1 * math.sqrt(eps) / root_c
    gamma = beta1 * D / math.sqrt(one_minus_b1)
    mu = 0.0 if clipped else 24.0 * c * D / one_minus_b1**2
    if rho is None:
        lo = max(1.0 - nu / gs, beta1**4 if clipped else beta1 * beta1)
        hi, beta2, margin = 1.0, lo, None
        if beta2 == 1.0:
            return infeasible(f"nu={nu} too small against G+sigma={gs}: "
                              "beta2 = 1 - nu/(G+sigma) rounds to 1")
        fstar_term = 16.0 * Fstar * root_c
        margin_terms = ()
    else:
        margin = 0.5 * (1.0 - rho) * (1.0 - beta1 * beta1)
        lo, hi = beta1 * beta1 + margin, 1.0 - margin
        # width = rho (1 - beta1^2) >= 0, so the interval cannot be empty
        assert lo <= hi + 1e-15
        beta2 = 0.5 * (lo + hi)  # = (1+beta1^2)/2 for every rho
        fstar_term = 32.0 * Fstar * (math.sqrt(c) if clipped else root_c)
        margin_terms = (
            32.0 * G / (eps * math.sqrt(one_minus_b1) * root)
            * math.log1p((gamma * mu + G) / nu),
        )
    try:
        eps_pow = eps**1.5
    except OverflowError:
        return infeasible(f"eps={eps} too large: eps**1.5 overflows")
    if eps_pow == 0.0:
        return infeasible(f"eps={eps} too small: eps**1.5 underflows")
    if gs * gs / (1.0 - beta2) == math.inf:  # the bound on Adam's second moment v
        return infeasible(f"G+sigma={gs} too large: (G+sigma)**2/(1-beta2) overflows")
    T_min = max(
        (1.0 / one_minus_b1)
        * max(fstar_term / eps_pow, (16.0 if clipped else 48.0) * gs / eps),
        math.log(2.0) / (1.0 - beta2),
        *margin_terms,
    )
    return TuningReport(
        feasible=True, beta1=beta1, one_minus_beta1=one_minus_b1, beta2=beta2,
        beta2_lo=lo, beta2_hi=hi, D=D, gamma=gamma, mu=mu, margin=margin,
        T_min=T_min, **kw
    )


def verify_report(rep: TuningReport) -> list[str]:
    """Re-substitute a report into its theorem's constraints.

    Returns a list of violated constraints (empty when everything holds).
    Infeasible reports pass vacuously when the stated reason is genuine.
    All derived formulas are rebuilt from the report's full-precision
    ``one_minus_beta1`` gap.  Each comparison allows a relative slack of
    1e-12.
    """
    if not rep.feasible:
        return [] if rep.reason else ["infeasible without a reason"]
    rel_tol = 1e-12
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
