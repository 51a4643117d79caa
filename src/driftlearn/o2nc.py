"""Exponentiated online-to-non-convex driver around the Adam updates.

One run executes, per round t = 1..T,

    receive Delta_t from the update rule (state holds g_1..g_{t-1}),
    x_t = x_{t-1} + s_t * Delta_t   with s_t ~ Exp(1) i.i.d.,
    g_t = stochastic gradient at x_t,
    fold g_t into the update state,
    xbar_t = (beta-beta^t)/(1-beta^t) xbar_{t-1} + (1-beta)/(1-beta^t) x_t,

with beta = beta1.  The trace records the full diagnostic sequence plus the
dynamic-regret terms against the drifting comparator

    u_t = -D * a_t / |a_t|,   a_t = sum_{s<=t} beta^(t-s) grad F(x_s),

built from true gradients (synthetic objectives expose them); a zero
accumulator yields u_t = 0 and is counted.  The returned point is drawn
uniformly from the running averages, and the full gradient-norm trace is
kept since it carries strictly more information than the single draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from driftlearn.adam import AdamConfig, AdamState, adam_update, delta_for
from driftlearn.streams import csv_text, philox_rng


class OracleBoundError(RuntimeError):
    """A stochastic gradient exceeded the declared Lipschitz bound."""


@dataclass(frozen=True)
class Objective:
    """Deterministic objective with true gradients available."""

    name: str
    dim: int
    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    lipschitz: float
    smooth: bool


def clamped_quadratic(dim: int, radius: float = 1.0) -> Objective:
    """|x|^2/2 inside |x| <= radius, linear continuation outside.

    The gradient is x clipped to norm ``radius``, so the objective is
    radius-Lipschitz and 1-smooth everywhere.
    """

    def value(x: np.ndarray) -> float:
        r = float(np.linalg.norm(x))
        if r <= radius:
            return 0.5 * r * r
        return radius * r - 0.5 * radius * radius

    def grad(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        r = math.sqrt(x @ x)
        if r <= radius or r == 0.0:
            return x.copy()
        return (radius / r) * x

    return Objective("clamped-quadratic", dim, value, grad, lipschitz=radius, smooth=True)


def euclidean_norm(dim: int) -> Objective:
    """F(x) = |x|; non-smooth at the origin, 1-Lipschitz."""

    def value(x: np.ndarray) -> float:
        return float(np.linalg.norm(x))

    def grad(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        r = math.sqrt(x @ x)
        if r == 0.0:
            return np.zeros(dim)
        return x / r

    return Objective("euclidean-norm", dim, value, grad, lipschitz=1.0, smooth=False)


def max_affine(dim: int, pieces: int = 8, seed: int = 0) -> Objective:
    """F(x) = max_i (a_i . x + b_i): piecewise linear, non-smooth."""
    rng = philox_rng(seed)
    A = rng.standard_normal((pieces, dim))
    b = rng.standard_normal(pieces)
    G = float(np.linalg.norm(A, axis=1).max())

    def value(x: np.ndarray) -> float:
        return float((A @ x + b).max())

    def grad(x: np.ndarray) -> np.ndarray:
        return A[int(np.argmax(A @ x + b))].copy()

    return Objective("max-affine", dim, value, grad, lipschitz=G, smooth=False)


OBJECTIVES = {
    "quadratic": clamped_quadratic,
    "norm": euclidean_norm,
    "maxaffine": max_affine,
}


@dataclass
class StochasticOracle:
    """Unbiased bounded-noise gradient oracle.

    The noise direction is uniform on the sphere and its magnitude is
    min(sigma * |N(0,1)|, G - |grad F(x)|), which keeps |g| <= G almost
    surely while preserving zero-mean noise; the cap slightly reduces the
    effective variance.
    """

    objective: Objective
    sigma: float

    def sample(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return self._perturb(self.objective.grad(x), rng)

    def _perturb(self, g: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """The noise step of :meth:`sample` on the true gradient ``g``."""
        gap = self.objective.lipschitz - math.sqrt(g @ g)
        direction = rng.standard_normal(self.objective.dim)
        nd = math.sqrt(direction @ direction)
        magnitude = min(self.sigma * abs(float(rng.standard_normal())), max(gap, 0.0))
        if nd == 0.0 or magnitude == 0.0:
            return g
        return g + (magnitude / nd) * direction


def exp_from_uniform(u: float) -> float:
    """Inverse-CDF exponential draw s = -ln(u) for u in (0, 1]."""
    if not (0.0 < u <= 1.0):
        raise ValueError(f"u must lie in (0, 1], got {u}")
    return -math.log(u)


def exp_sample(rng: np.random.Generator) -> float:
    """Unit-mean exponential scaling factor."""
    return exp_from_uniform(1.0 - float(rng.random()))


def ema_update(xbar_prev: np.ndarray, x_t: np.ndarray, beta: float, t: int) -> np.ndarray:
    """Running average with coefficients (beta-beta^t)/(1-beta^t) and
    (1-beta)/(1-beta^t); they are nonnegative and sum to 1, and t = 1
    returns x_t exactly."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    bt = beta**t
    c_prev = (beta - bt) / (1.0 - bt)
    c_new = (1.0 - beta) / (1.0 - bt)
    return c_prev * np.asarray(xbar_prev, dtype=float) + c_new * np.asarray(x_t, dtype=float)


@dataclass
class O2ncTrace:
    """Full diagnostic record of one driver run."""

    cfg: AdamConfig
    objective: Objective
    x0: np.ndarray
    xs: np.ndarray               # x_t, shape (T, d)
    xbars: np.ndarray            # running averages, shape (T, d)
    scalings: np.ndarray         # s_t
    deltas: np.ndarray           # Delta_t, shape (T, d)
    grad_norms_at_xbar: np.ndarray
    comparators: np.ndarray      # u_t, shape (T, d)
    dynreg_terms: np.ndarray
    zero_comparators: int
    final_index: int             # uniform draw over 1..T (0-based here)

    @property
    def T(self) -> int:
        return len(self.scalings)

    @property
    def xbar_final(self) -> np.ndarray:
        return self.xbars[self.final_index]

    def to_csv(self, header_comment: Optional[str] = None) -> str:
        header = ["s_t", "||delta||", "||grad_at_xbar||", "dynreg_term"]
        dn = np.linalg.norm(self.deltas, axis=1)
        columns = [self.scalings, dn, self.grad_norms_at_xbar, self.dynreg_terms]
        return csv_text(header, columns, header_comment)


def run_o2nc(
    cfg: AdamConfig,
    oracle: StochasticOracle,
    T: int,
    seed: int,
    x0: Optional[np.ndarray] = None,
) -> O2ncTrace:
    """Execute the conversion loop for ``T`` rounds from ``x0``."""
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    obj = oracle.objective
    d = obj.dim
    x = np.zeros(d) if x0 is None else np.asarray(x0, dtype=float).copy()
    x0_saved = x.copy()
    rng = philox_rng(seed)
    state = AdamState.fresh(d)
    acc = np.zeros(d)
    xbar = x.copy()

    xs = np.empty((T, d))
    xbars = np.empty((T, d))
    scalings = np.empty(T)
    deltas = np.empty((T, d))
    grad_norms = np.empty(T)
    comparators = np.empty((T, d))
    dynreg = np.empty(T)
    zero_comparators = 0
    G = obj.lipschitz

    for t in range(1, T + 1):
        delta = delta_for(cfg, state)
        s_t = exp_sample(rng)
        x = x + s_t * delta
        true_g = obj.grad(x)
        g = oracle._perturb(true_g, rng)
        gnorm = math.sqrt(g @ g)
        if gnorm > G * (1.0 + 1e-9) + 1e-12:
            raise OracleBoundError(
                f"round {t}: |g|={gnorm} exceeds declared bound G={G}"
            )
        acc = cfg.beta1 * acc + true_g
        acc_norm = math.sqrt(acc @ acc)
        if acc_norm > 0.0:
            u = -cfg.D * acc / acc_norm
        else:
            u = np.zeros(d)
            zero_comparators += 1
        term = float(g @ (delta - u))
        if cfg.variant == "clip-free":
            term += 0.5 * cfg.mu * (float(delta @ delta) - float(u @ u))
        state = adam_update(cfg, state, g)
        xbar = ema_update(xbar, x, cfg.beta1, t)

        i = t - 1
        xs[i] = x
        xbars[i] = xbar
        scalings[i] = s_t
        deltas[i] = delta
        g_bar = obj.grad(xbar)
        grad_norms[i] = math.sqrt(g_bar @ g_bar)
        comparators[i] = u
        dynreg[i] = term

    final_index = int(rng.integers(T))
    return O2ncTrace(
        cfg=cfg, objective=obj, x0=x0_saved, xs=xs, xbars=xbars,
        scalings=scalings, deltas=deltas, grad_norms_at_xbar=grad_norms,
        comparators=comparators, dynreg_terms=dynreg,
        zero_comparators=zero_comparators, final_index=final_index,
    )


def stationarity_surrogate(
    point,
    objective: Objective,
    radius: float,
    samples: int,
    seed: int,
    c: float = 0.0,
) -> float:
    """Upper-bound witness for the smoothed-gradient stationarity measure.

    Uses the uniform distribution on the ball of the given radius around
    the point (one feasible choice among all mean-preserving distributions)
    and returns |mean grad F(point + delta)| + c * mean |delta|^2.  With
    radius = 0 this is exactly |grad F(point)|.
    """
    if radius < 0.0 or samples < 1:
        raise ValueError("need radius >= 0 and samples >= 1")
    x = point.xbar_final if isinstance(point, O2ncTrace) else np.asarray(point, dtype=float)
    d = objective.dim
    if radius == 0.0:
        return float(np.linalg.norm(objective.grad(x)))
    rng = philox_rng(seed)
    dirs = rng.standard_normal((samples, d))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), np.finfo(float).tiny)
    radii = radius * rng.random(samples) ** (1.0 / d)
    perturbations = dirs * radii[:, None]
    mean_grad = np.zeros(d)
    mean_sq = 0.0
    for delta in perturbations:
        mean_grad += objective.grad(x + delta)
        mean_sq += float(delta @ delta)
    mean_grad /= samples
    mean_sq /= samples
    return float(np.linalg.norm(mean_grad)) + c * mean_sq
