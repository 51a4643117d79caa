"""Discounted AIOLI and a mixability ensemble for online logistic regression.

AIOLI plays the minimizer of an optimistic discounted FTRL objective

    x_t = argmin_x  lam*beta^t/2 |x|^2 + h_t(x) + sum_{s<t} beta^(t-s) fhat_s(x),

where h_t(x) = l(x.z_t, +1) + l(x.z_t, -1) and fhat_s is a quadratic
surrogate of the logistic loss with curvature eta_s = exp(y_s yhat_s)/(1+BR).
The raw eta_s overflows when the learner is confidently correct, so it is
never materialized: the products eta*g and eta*g*g' reduce to the bounded
forms sigma(u)sigma(-u) z z'/(1+BR) and -sigma(u) y z/(1+BR) with
u = y*yhat, and only those are accumulated, into one regularized matrix
Atilde_t = lam beta^t I + sum_{s<=t} beta^(t-s) eta_s g_s g_s'.  Each round
factors Atilde_t once, in the update; the next decision solves against
beta Atilde_t with that factor.

The argmin reduces to one scalar equation v + q*tanh(v/2) = p solved by a
safeguarded Newton/bisection on the bracket [p-q, p+q].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError
from scipy.special import expit

from driftlearn.regret import RegretLedger, path_variation
from driftlearn.streams import ComparatorPath, Stream

ROOT_TOL = 1e-12
ROOT_MAX_ITERS = 200


def logistic_loss(yhat: float, y: float) -> float:
    """l(yhat, y) = ln(1 + exp(-y*yhat)), overflow-safe."""
    return float(np.logaddexp(0.0, -y * yhat))


def logistic_grad(x: np.ndarray, z: np.ndarray, y: float) -> np.ndarray:
    """Gradient of x -> l(x.z, y): -y * sigma(-y * x.z) * z."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    return -y * float(expit(-y * float(x @ z))) * z


class RootNotConvergedError(RuntimeError):
    """The optimism root finder used up ROOT_MAX_ITERS iterations."""


def solve_optimism_root(p: float, q: float) -> float:
    """Root of v + q*tanh(v/2) = p with q >= 0.

    Since |tanh| <= 1 the root lies in [p-q, p+q]; a Newton iteration is
    safeguarded by that bracket (the map is strictly increasing) and gives
    way to a bisection step whenever the last step failed to halve the
    residual, which stops Newton from bouncing across the inflection at
    v = 0 when q is large.  It stops at |residual| <= ROOT_TOL or when the
    step falls below the spacing of doubles, and the root it returns meets
    |residual| <= ROOT_TOL * max(1, |p|): doubles near p are about
    2.2e-16 |p| apart, so an absolute 1e-12 is out of reach once |p| is
    above about 1e4.  Raises :class:`RootNotConvergedError` when that target
    is not met within ROOT_MAX_ITERS iterations.
    """
    if q < 0.0:
        raise ValueError(f"curvature scalar q must be >= 0, got {q}")
    if q == 0.0:
        return p
    lo, hi = p - q, p + q
    v = min(max(p, lo), hi)
    r_prev = math.inf
    for _ in range(ROOT_MAX_ITERS):
        th = math.tanh(0.5 * v)
        r = v + q * th - p
        if abs(r) <= ROOT_TOL:
            return v
        if r > 0.0:
            hi = v
        else:
            lo = v
        # d/dv [q tanh(v/2)] = q sech^2(v/2)/2, written through th so it
        # cannot overflow for large |v|
        v_new = v - r / (1.0 + 0.5 * q * (1.0 - th * th))
        if not (lo < v_new < hi) or abs(r) > 0.5 * abs(r_prev):
            v_new = 0.5 * (lo + hi)
        r_prev = r
        if v_new == v:  # the step is below the spacing of doubles at v
            break
        v = v_new
    r = v + q * math.tanh(0.5 * v) - p
    if abs(r) <= ROOT_TOL * max(1.0, abs(p)):
        return v
    raise RootNotConvergedError(
        f"optimism root v + q*tanh(v/2) = p not found for p={p!r}, q={q!r}: "
        f"residual {r!r} after {ROOT_MAX_ITERS} iterations"
    )


def _factor(A: np.ndarray) -> tuple:
    try:
        return cho_factor(A, lower=True)
    except (LinAlgError, np.linalg.LinAlgError) as exc:
        raise RuntimeError(
            "surrogate curvature matrix is numerically indefinite; "
            "use a larger lambda"
        ) from exc


@dataclass
class AioliState:
    """Discounted surrogate statistics of one AIOLI learner.

    ``A`` is the regularized surrogate curvature
    Atilde_t = lam beta^t I + sum beta^(t-s) eta_s g_s g_s', carried as
    A_t = beta A_{t-1} + eta_t g_t g_t' from A_0 = lam I, and ``chol`` its
    lower Cholesky factor as returned by ``cho_factor``; the next round's
    decision solves against beta A_t and reuses that factor.  w holds the
    negated discounted linear coefficients of the surrogates (constant terms
    are dropped, they do not move the argmin).  ``stab_disc`` carries the
    discounted stability sum sum beta^(t-s) eta_s g_s' Atilde_s^{-1} g_s
    and ``beta_pow`` the plain beta^t, both used by the bound evaluators.
    """

    beta: float
    lam: float
    B: float
    R: float
    A: np.ndarray
    chol: tuple
    w: np.ndarray
    t: int = 0
    beta_pow: float = 1.0
    stab_disc: float = 0.0

    @classmethod
    def fresh(cls, d: int, beta: float, lam: float, B: float, R: float) -> "AioliState":
        if not (0.0 < beta < 1.0):
            raise ValueError(f"beta must lie in (0, 1), got {beta}")
        if min(lam, B, R) <= 0.0:
            raise ValueError("lam, B and R must be positive")
        A = lam * np.eye(d)
        return cls(beta=beta, lam=lam, B=B, R=R, A=A, chol=_factor(A), w=np.zeros(d))


def aioli_predict(state: AioliState, z: np.ndarray) -> tuple[np.ndarray, float]:
    """Decision and prediction for the incoming feature ``z``.

    The stationarity condition is beta A x + tanh(v/2) z = beta w with
    v = z.x and A, w from the previous round, solved through
    p = z'A^{-1}w and q = z'A^{-1}z/beta with the stored factor of A.
    """
    z = np.asarray(z, dtype=float)
    ainv_w, ainv_z = cho_solve(state.chol, np.column_stack((state.w, z))).T
    ainv_z /= state.beta
    p = float(z @ ainv_w)
    q = float(z @ ainv_z)
    v = solve_optimism_root(p, q)
    x = ainv_w - math.tanh(0.5 * v) * ainv_z
    return x, float(x @ z)


def stationarity_residual(state: AioliState, z: np.ndarray, x: np.ndarray) -> float:
    """Sup-norm of beta A x + tanh((z.x)/2) z - beta w at the returned decision."""
    z = np.asarray(z, dtype=float)
    beta = state.beta
    grad = beta * (state.A @ x) + math.tanh(0.5 * float(z @ x)) * z - beta * state.w
    return float(np.max(np.abs(grad)))


def aioli_update(
    state: AioliState, z: np.ndarray, y: float, x_played: np.ndarray, yhat: float
) -> AioliState:
    """Fold the revealed label into the discounted surrogate statistics."""
    z = np.asarray(z, dtype=float)
    beta = state.beta
    u = y * yhat
    s_pos = float(expit(u))
    s_neg = float(expit(-u))
    scale = 1.0 + state.B * state.R
    g = -y * s_neg * z                      # true logistic gradient
    eta_g = -(s_pos / scale) * y * z        # eta_t g_t, bounded form
    c2 = s_pos * s_neg / scale              # eta_t g_t g_t' = c2 * z z'

    A = beta * state.A + c2 * np.outer(z, z)
    chol = _factor(A)
    stab_inc = c2 * float(z @ cho_solve(chol, z))
    return replace(
        state,
        A=A,
        chol=chol,
        w=beta * state.w - g + float(g @ x_played) * eta_g,
        t=state.t + 1,
        beta_pow=beta * state.beta_pow,
        stab_disc=beta * state.stab_disc + stab_inc,
    )


@dataclass
class AioliRun:
    """Trace of one discounted-AIOLI pass over a +/-1 labeled stream."""

    stream: Stream
    beta: float
    lam: float
    B: float
    R: float
    yhats: np.ndarray
    losses_at_play: np.ndarray
    stab_disc: np.ndarray        # prefix values of the discounted stability sum
    beta_pows: np.ndarray        # beta^t for t = 1..T
    residuals: np.ndarray
    curvature_coefs: np.ndarray  # c2_t with eta_t g_t g_t' = c2_t z_t z_t'
    state: AioliState

    @property
    def T(self) -> int:
        return self.stream.T


def run_aioli(stream: Stream, beta: float, lam: float, B: float, R: float) -> AioliRun:
    if not np.all(np.abs(stream.y) == 1.0):
        raise ValueError("logistic streams need labels in {+1, -1}")
    state = AioliState.fresh(stream.d, beta, lam, B, R)
    T = stream.T
    yhats = np.empty(T)
    losses = np.empty(T)
    stab = np.empty(T)
    pows = np.empty(T)
    resid = np.empty(T)
    coefs = np.empty(T)
    scale = 1.0 + B * R
    for t, rnd in enumerate(stream):
        x, yhat = aioli_predict(state, rnd.z)
        resid[t] = stationarity_residual(state, rnd.z, x)
        yhats[t] = yhat
        losses[t] = logistic_loss(yhat, rnd.y)
        u = rnd.y * yhat
        coefs[t] = float(expit(u)) * float(expit(-u)) / scale
        state = aioli_update(state, rnd.z, rnd.y, x, yhat)
        stab[t] = state.stab_disc
        pows[t] = state.beta_pow
    return AioliRun(
        stream=stream, beta=beta, lam=lam, B=B, R=R, yhats=yhats,
        losses_at_play=losses, stab_disc=stab, beta_pows=pows,
        residuals=resid, curvature_coefs=coefs, state=state,
    )


def logistic_ledger(run: AioliRun) -> RegretLedger:
    Z, y = run.stream.Z, run.stream.y

    def eval_one(t: int, u: np.ndarray) -> float:
        return logistic_loss(float(Z[t - 1] @ u), y[t - 1])

    def eval_batch(u: np.ndarray) -> np.ndarray:
        return np.logaddexp(0.0, -y * (Z @ u))

    lam = run.lam
    return RegretLedger(
        losses_at_play=run.losses_at_play,
        loss_eval=eval_one,
        beta=run.beta,
        phi_eval=lambda t, u: 0.5 * lam * float(u @ u),
        loss_eval_batch=eval_batch,
    )


def aioli_rescaled_bound(run: AioliRun, t: int, u: np.ndarray) -> float:
    """Discounted-form upper bound on the discounted regret at prefix ``t``.

    Returns beta^t lam/2 |u|^2 + (1+BR) sum_{s<=t} beta^(t-s)
    eta_s g_s' Atilde_s^{-1} g_s, valid for any |u| <= B.  The empty prefix
    t = 0 carries only the regularizer term.
    """
    if not 0 <= t <= run.T:
        raise ValueError(f"prefix t must lie in [0, {run.T}], got {t}")
    u = np.asarray(u, dtype=float)
    if t == 0:
        return float(0.5 * run.lam * (u @ u))
    scale = 1.0 + run.B * run.R
    return float(
        run.beta_pows[t - 1] * 0.5 * run.lam * (u @ u)
        + scale * run.stab_disc[t - 1]
    )


def rescaled_bound_check(
    run: AioliRun, comparators: Sequence[np.ndarray]
) -> tuple[float, bool]:
    """Check the discounted regret against :func:`aioli_rescaled_bound` at
    every prefix t = 1..T for each comparator.

    Returns the worst slack min (bound - regret) and whether every prefix
    holds within 1e-9 (1 + |bound|).
    """
    ledger = logistic_ledger(run)
    worst = float("inf")
    ok = True
    for u in comparators:
        r = 0.0
        diffs = run.losses_at_play - ledger.losses_at(u)
        for t in range(1, run.T + 1):
            r = run.beta * r + float(diffs[t - 1])
            bound = aioli_rescaled_bound(run, t, u)
            worst = min(worst, bound - r)
            if r > bound + 1e-9 * (1.0 + abs(bound)):
                ok = False
    return worst, ok


def theorem_dynamic_bound(run: AioliRun, path: ComparatorPath, gamma: float) -> float:
    """Dynamic-regret upper bound for a discounted-AIOLI run.

    beta lam |u_1|^2 + d(1+BR) log(1 + R^2 sum beta^(T-t) / (d lam (1+BR)))
    + gamma/(1-gamma) P_T^g + (1-beta)/beta * d(1+BR) T,
    for 0 < beta <= gamma < 1, comparators bounded by B, features by R.
    """
    beta, lam, d, T = run.beta, run.lam, run.stream.d, run.T
    if not (0.0 < beta <= gamma < 1.0):
        raise ValueError(f"need 0 < beta <= gamma < 1, got beta={beta} gamma={gamma}")
    scale = 1.0 + run.B * run.R
    geo = (1.0 - beta**T) / (1.0 - beta)
    bound = beta * lam * float(path[0] @ path[0])
    bound += d * scale * np.log1p(run.R**2 * geo / (d * lam * scale))
    pv = path_variation(logistic_ledger(run), path, gamma, include_f0=True)
    bound += gamma / (1.0 - gamma) * pv.value
    bound += (1.0 - beta) / beta * d * scale * T
    return float(bound)


# ---------------------------------------------------------------------------
# Mixability ensemble for learning the discount factor.
# ---------------------------------------------------------------------------


def mix_predict(yhats: np.ndarray, p: np.ndarray) -> float:
    """Mixed prediction ln(sum p_i sigma(yhat_i) / sum p_i (1-sigma(yhat_i))).

    Satisfies the 1-mixability inequality
    l(yhat_mix, y) <= -ln sum_i p_i exp(-l(yhat_i, y)) for y in {+1,-1}.
    If one side collapses to zero numerically (all experts saturated) it is
    clamped to the smallest positive float before the log.
    """
    yhats = np.asarray(yhats, dtype=float)
    p = np.asarray(p, dtype=float)
    if np.any(p < 0.0) or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("weights must be nonnegative and sum to 1")
    tiny = np.finfo(float).tiny
    s_pos = max(float(p @ expit(yhats)), tiny)
    s_neg = max(float(p @ expit(-yhats)), tiny)
    return math.log(s_pos) - math.log(s_neg)


@dataclass
class EnsembleState:
    """Exponential-weights meta learner over AIOLI base learners."""

    betas: np.ndarray
    log_q: np.ndarray
    bases: list
    B: float
    R: float
    lam: float

    @classmethod
    def fresh(
        cls, d: int, betas: Sequence[float], lam: float, B: float, R: float
    ) -> "EnsembleState":
        betas = np.asarray(list(betas), dtype=float)
        if betas.size < 1:
            raise ValueError("need at least one base learner")
        bases = [AioliState.fresh(d, float(b), lam, B, R) for b in betas]
        return cls(
            betas=betas, log_q=np.zeros(len(bases)), bases=bases, B=B, R=R, lam=lam
        )

    @property
    def n_experts(self) -> int:
        return len(self.bases)


@dataclass
class EnsembleStep:
    yhat: float
    expert_yhats: np.ndarray
    expert_losses: np.ndarray
    mix_loss: float
    p: np.ndarray


def ensemble_step(state: EnsembleState, z: np.ndarray, y: float) -> EnsembleStep:
    """One full round: every base predicts, the mixture prediction is
    emitted, then base states and log-domain weights absorb the label."""
    z = np.asarray(z, dtype=float)
    preds = []
    for base in state.bases:
        x, yhat = aioli_predict(base, z)
        preds.append((x, yhat))
    expert_yhats = np.array([yh for _, yh in preds])
    lq = state.log_q - state.log_q.max()
    p = np.exp(lq)
    p /= p.sum()
    yhat_mix = mix_predict(expert_yhats, p)

    expert_losses = np.logaddexp(0.0, -y * expert_yhats)
    state.log_q = state.log_q - expert_losses
    for i, (x, yh) in enumerate(preds):
        state.bases[i] = aioli_update(state.bases[i], z, y, x, yh)
    return EnsembleStep(
        yhat=yhat_mix,
        expert_yhats=expert_yhats,
        expert_losses=expert_losses,
        mix_loss=logistic_loss(yhat_mix, y),
        p=p,
    )


@dataclass
class EnsembleRun:
    stream: Stream
    betas: np.ndarray
    lam: float
    B: float
    R: float
    yhats: np.ndarray
    mix_losses: np.ndarray
    expert_losses: np.ndarray  # (T, N)
    expert_yhats: np.ndarray   # (T, N)
    weights: np.ndarray        # normalized p_t, (T, N)
    state: EnsembleState

    @property
    def T(self) -> int:
        return self.stream.T

    @property
    def meta_regret(self) -> float:
        """sum_t l(yhat_t) - min_i sum_t l(yhat_{t,i}); at most ln N."""
        return float(self.mix_losses.sum() - self.expert_losses.sum(axis=0).min())


def run_ensemble(
    stream: Stream, betas: Sequence[float], lam: float, B: float, R: float
) -> EnsembleRun:
    if not np.all(np.abs(stream.y) == 1.0):
        raise ValueError("logistic streams need labels in {+1, -1}")
    state = EnsembleState.fresh(stream.d, betas, lam, B, R)
    T, N = stream.T, state.n_experts
    yhats = np.empty(T)
    mix_losses = np.empty(T)
    expert_losses = np.empty((T, N))
    expert_yhats = np.empty((T, N))
    weights = np.empty((T, N))
    for t, rnd in enumerate(stream):
        step = ensemble_step(state, rnd.z, rnd.y)
        yhats[t] = step.yhat
        mix_losses[t] = step.mix_loss
        expert_losses[t] = step.expert_losses
        expert_yhats[t] = step.expert_yhats
        weights[t] = step.p
    return EnsembleRun(
        stream=stream, betas=state.betas, lam=lam, B=B, R=R, yhats=yhats,
        mix_losses=mix_losses, expert_losses=expert_losses,
        expert_yhats=expert_yhats, weights=weights, state=state,
    )


@dataclass(frozen=True)
class DiscountGrid:
    """Geometric pool of discount factors for learning beta."""

    betas: tuple
    lam: float
    eta_min: float
    eta_max: float
    n: int
    degenerate: bool  # eta_max < eta_min collapsed the pool to one entry


def build_grid(B: float, R: float, d: int, T: int) -> DiscountGrid:
    """Discount-factor pool beta_i = eta_i/(1+eta_i), eta_i = 2^(i-1) eta_min.

    eta_min = sqrt(d(1+BR)/(CB)) with C = max(1, 2R), eta_max = dT,
    N = ceil(log2(eta_max/eta_min)) + 1, and lam is fixed to 1/B^2.
    """
    if min(B, R, d, T) <= 0:
        raise ValueError("B, R, d and T must be positive")
    C = max(1.0, 2.0 * R)
    eta_min = math.sqrt(d * (1.0 + B * R) / (C * B))
    eta_max = float(d * T)
    degenerate = eta_max < eta_min
    if degenerate:
        n = 1
    else:
        n = int(math.ceil(math.log2(eta_max / eta_min))) + 1
        n = max(n, 1)
    etas = eta_min * 2.0 ** np.arange(n)
    betas = tuple(float(e / (1.0 + e)) for e in etas)
    return DiscountGrid(
        betas=betas, lam=1.0 / (B * B), eta_min=eta_min, eta_max=eta_max,
        n=n, degenerate=degenerate,
    )
