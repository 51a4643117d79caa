"""Discounted AIOLI and a mixability ensemble for online logistic regression.

AIOLI plays the minimizer of an optimistic discounted FTRL objective

    x_t = argmin_x  lam*beta^t/2 |x|^2 + h_t(x) + sum_{s<t} beta^(t-s) fhat_s(x),

where h_t(x) = l(x.z_t, +1) + l(x.z_t, -1) and fhat_s is a quadratic
surrogate of the logistic loss with curvature eta_s = exp(y_s yhat_s)/(1+BR).
The raw eta_s overflows when the learner is confidently correct, so it is
never materialized: the products eta*g and eta*g*g' reduce to the bounded
forms sigma(u)sigma(-u) z z'/(1+BR) and -sigma(u) y z/(1+BR) with
u = y*yhat, and only those are accumulated, into one regularized matrix
Atilde_t = lam beta^t I + sum_{s<=t} beta^(t-s) eta_s g_s g_s'.

The argmin reduces to one scalar equation v + q*tanh(v/2) = p solved by a
safeguarded Newton/bisection on the bracket [p-q, p+q].

Every learner here runs on one kernel over a leading expert axis: N
learners with their own discounts keep A as an (N, d, d) stack and w as
(N, d).  A round makes one ``np.linalg.solve`` of the stack against
[w, z] for all decisions and one ``np.linalg.cholesky`` of the updated
stack, which raises if a matrix has turned indefinite.  The discount
ensemble advances its N experts this way; ``run_aioli`` and the
single-learner functions are the N = 1 case.  The roots stay scalar, one
``solve_optimism_root`` call per expert and round: they take a few Newton
steps each, and a masked Newton over the expert axis would pay numpy's
fixed cost per call on every step for only N elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from driftlearn.regret import RegretLedger, path_variation, row_dots
from driftlearn.streams import ComparatorPath, Stream, discounted_scan

ROOT_TOL = 1e-12
ROOT_MAX_ITERS = 200

# Multiplies x into the stack [-x, x]; see _sigmoid_pm.
_MINUS_PLUS = np.array([-1.0, 1.0])
_TINY = np.finfo(float).tiny


def __getattr__(name: str):
    # bench/tracing.py counts factorizations by wrapping logreg.cho_factor,
    # which nothing here calls; scipy is imported only when the name is read.
    # ROADMAP item 0 moves that probe to np.linalg.cholesky and deletes this.
    if name == "cho_factor":
        from scipy.linalg import cho_factor

        return cho_factor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def sigmoid(x):
    """The logistic function 1/(1 + exp(-x)), elementwise; 0 where exp(-x)
    overflows.

    A float (Python or numpy scalar) goes through ``math.exp`` and returns a
    float; anything else through ``np.exp`` and returns an array.  Both
    evaluate the same formula, but numpy's vectorized ``exp`` can differ
    from the C library's in the last place, so the array form may differ
    from the float form by a few units in the last place.
    """
    if isinstance(x, float):
        try:
            return 1.0 / (1.0 + math.exp(-x))
        except OverflowError:
            return 0.0
    x = np.asarray(x, dtype=float)
    return _sigmoid_of_negated(np.negative(x, out=np.empty(x.shape)))


def _sigmoid_pm(x: np.ndarray) -> np.ndarray:
    """sigmoid(x) and sigmoid(-x), stacked on a new leading axis."""
    return _sigmoid_of_negated(np.multiply.outer(_MINUS_PLUS, x))


def _sigmoid_of_negated(s: np.ndarray) -> np.ndarray:
    """Overwrite ``s``, which holds -x, with sigmoid(x) and return it; every
    step runs in that one buffer."""
    with np.errstate(over="ignore"):  # exp(-x) = inf gives 1/inf = 0
        np.exp(s, out=s)
    s += 1.0
    return np.divide(1.0, s, out=s)


def logistic_loss(yhat: float, y: float) -> float:
    """l(yhat, y) = ln(1 + exp(-y*yhat)), overflow-safe."""
    return float(np.logaddexp(0.0, -y * yhat))


def logistic_grad(x: np.ndarray, z: np.ndarray, y: float) -> np.ndarray:
    """Gradient of x -> l(x.z, y): -y * sigma(-y * x.z) * z."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    return -y * sigmoid(-y * float(x @ z)) * z


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


def _check_definite(A: np.ndarray) -> None:
    """Raise if a matrix of the stack A (N, d, d) has no Cholesky factor."""
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            "surrogate curvature matrix is numerically indefinite; "
            "use a larger lambda"
        ) from exc


@dataclass
class _Experts:
    """N discounted-AIOLI learners on one stream, advanced together.

    Expert i is the learner an :class:`AioliState` with discount
    ``beta[i]``, matrix ``A[i]`` and coefficients ``w[i]`` describes:
    ``A`` is the (N, d, d) stack of regularized surrogate curvatures, ``w``
    the (N, d) negated linear coefficients, ``beta`` the (N,) discounts and
    ``scale`` = 1 + BR.  A round costs one stacked ``np.linalg.solve`` (the
    decisions), one stacked ``np.linalg.cholesky`` (the update's
    positive-definiteness check) and one scalar optimism root per expert.
    Updates rebind ``A`` and ``w`` to new arrays, so views handed out
    earlier keep their values.
    """

    beta: np.ndarray
    scale: float
    A: np.ndarray
    w: np.ndarray

    @classmethod
    def fresh(
        cls, d: int, betas: Sequence[float], lam: float, B: float, R: float
    ) -> "_Experts":
        betas = np.asarray(betas, dtype=float)
        for beta in betas.tolist():
            if not (0.0 < beta < 1.0):
                raise ValueError(f"beta must lie in (0, 1), got {beta}")
        if min(lam, B, R) <= 0.0:
            raise ValueError("lam, B and R must be positive")
        n = betas.size
        return cls(
            beta=betas, scale=1.0 + B * R,
            A=np.broadcast_to(lam * np.eye(d), (n, d, d)).copy(), w=np.zeros((n, d)),
        )

    def decide(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decisions X (N, d), predictions X z (N,) and q (N,) for feature z.

        Expert i's stationarity condition beta_i A_i x + tanh(v/2) z =
        beta_i w_i with v = z.x reduces to v + q_i tanh(v/2) = p_i with
        p_i = z'A_i^{-1}w_i and q_i = z'A_i^{-1}z/beta_i; the roots stay
        scalar, one :func:`solve_optimism_root` call per expert.
        """
        rhs = np.empty(self.w.shape + (2,))
        rhs[:, :, 0] = self.w
        rhs[:, :, 1] = z
        sol = np.linalg.solve(self.A, rhs)
        ainv_w = sol[:, :, 0]
        ainv_z = sol[:, :, 1] / self.beta[:, None]
        p = ainv_w @ z
        q = ainv_z @ z
        v = [solve_optimism_root(pi, qi) for pi, qi in zip(p.tolist(), q.tolist())]
        X = ainv_w - np.tanh(0.5 * np.array(v))[:, None] * ainv_z
        return X, X @ z, q

    def residuals(self, z: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Sup-norm of beta A x + tanh((z.x)/2) z - beta w at each decision."""
        beta = self.beta[:, None]
        grad = (
            beta * (self.A @ X[:, :, None])[:, :, 0]
            + np.tanh(0.5 * (X @ z))[:, None] * z
            - beta * self.w
        )
        return np.max(np.abs(grad), axis=1)

    def absorb(
        self, z: np.ndarray, y: float, X: np.ndarray, yhats: np.ndarray, q: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fold the revealed label into every expert's statistics.

        ``X``, ``yhats`` and ``q`` are this round's :meth:`decide` outputs.
        Returns the curvature weights c2 (eta g g' = c2 z z') and the
        stability increments c2 z'A_new^{-1}z.  With A_new = beta A +
        c2 z z' the latter is c2 q/(1 + c2 q) (Sherman-Morrison), so it
        needs no second solve.
        """
        u = y * yhats
        s_pos, s_neg = _sigmoid_pm(u)
        c2 = s_pos * s_neg / self.scale
        g = (-y * s_neg)[:, None] * z                      # true logistic gradients
        eta_g = (-(s_pos / self.scale) * y)[:, None] * z   # eta_t g_t, bounded form
        A = self.beta[:, None, None] * self.A + c2[:, None, None] * (z[:, None] * z)
        _check_definite(A)
        self.A = A
        gx = np.einsum("nd,nd->n", g, X)
        self.w = self.beta[:, None] * self.w - g + gx[:, None] * eta_g
        c2q = c2 * q
        return c2, c2q / (1.0 + c2q)


@dataclass
class AioliState:
    """Discounted surrogate statistics of one AIOLI learner.

    ``A`` is the regularized surrogate curvature
    Atilde_t = lam beta^t I + sum beta^(t-s) eta_s g_s g_s', carried as
    A_t = beta A_{t-1} + eta_t g_t g_t' from A_0 = lam I; the next round's
    decision solves against beta A_t.  w holds the negated discounted
    linear coefficients of the surrogates (constant terms are dropped, they
    do not move the argmin).  ``stab_disc`` carries the discounted
    stability sum sum beta^(t-s) eta_s g_s' Atilde_s^{-1} g_s and
    ``beta_pow`` the plain beta^t, both used by the bound evaluators.
    The learner functions below run it as a length-1 expert stack.
    """

    beta: float
    lam: float
    B: float
    R: float
    A: np.ndarray
    w: np.ndarray
    t: int = 0
    beta_pow: float = 1.0
    stab_disc: float = 0.0

    @classmethod
    def fresh(cls, d: int, beta: float, lam: float, B: float, R: float) -> "AioliState":
        experts = _Experts.fresh(d, [beta], lam, B, R)
        return cls(beta=beta, lam=lam, B=B, R=R, A=experts.A[0], w=experts.w[0])

    def _experts(self) -> _Experts:
        return _Experts(
            beta=np.array([self.beta]), scale=1.0 + self.B * self.R,
            A=self.A[None], w=self.w[None],
        )


def aioli_predict(state: AioliState, z: np.ndarray) -> tuple[np.ndarray, float]:
    """Decision and prediction for the incoming feature ``z``."""
    X, yhats, _ = state._experts().decide(np.asarray(z, dtype=float))
    return X[0], float(yhats[0])


def stationarity_residual(state: AioliState, z: np.ndarray, x: np.ndarray) -> float:
    """Sup-norm of beta A x + tanh((z.x)/2) z - beta w at the returned decision."""
    x = np.asarray(x, dtype=float)
    return float(state._experts().residuals(np.asarray(z, dtype=float), x[None])[0])


def aioli_update(
    state: AioliState, z: np.ndarray, y: float, x_played: np.ndarray, yhat: float
) -> AioliState:
    """Fold the revealed label into the discounted surrogate statistics."""
    z = np.asarray(z, dtype=float)
    x = np.asarray(x_played, dtype=float)
    beta = state.beta
    q = float(z @ np.linalg.solve(state.A, z)) / beta  # as aioli_predict takes it
    experts = state._experts()
    _, stab_inc = experts.absorb(z, y, x[None], np.array([yhat]), np.array([q]))
    return replace(
        state,
        A=experts.A[0],
        w=experts.w[0],
        t=state.t + 1,
        beta_pow=beta * state.beta_pow,
        stab_disc=beta * state.stab_disc + float(stab_inc[0]),
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
    experts = _Experts.fresh(stream.d, [beta], lam, B, R)
    T = stream.T
    yhats = np.empty(T)
    stab = np.empty(T)
    pows = np.empty(T)
    resid = np.empty(T)
    coefs = np.empty(T)
    stab_disc, beta_pow = 0.0, 1.0
    for t, (z, y) in enumerate(zip(stream.Z, stream.y.tolist())):
        X, yh, q = experts.decide(z)
        resid[t] = experts.residuals(z, X)[0]
        c2, stab_inc = experts.absorb(z, y, X, yh, q)
        yhats[t] = yh[0]
        coefs[t] = c2[0]
        stab_disc = beta * stab_disc + float(stab_inc[0])
        beta_pow = beta * beta_pow
        stab[t] = stab_disc
        pows[t] = beta_pow
    state = AioliState(
        beta=beta, lam=lam, B=B, R=R, A=experts.A[0], w=experts.w[0], t=T,
        beta_pow=beta_pow, stab_disc=stab_disc,
    )
    return AioliRun(
        stream=stream, beta=beta, lam=lam, B=B, R=R, yhats=yhats,
        losses_at_play=np.logaddexp(0.0, -stream.y * yhats), stab_disc=stab,
        beta_pows=pows, residuals=resid, curvature_coefs=coefs, state=state,
    )


def _stream_ledger(
    stream: Stream, losses_at_play: np.ndarray, beta: float, phi_eval=None
) -> RegretLedger:
    """Ledger of ``losses_at_play`` against the logistic losses of ``stream``."""
    Z, y = stream.Z, stream.y

    def eval_one(t: int, u: np.ndarray) -> float:
        return logistic_loss(float(Z[t - 1] @ u), y[t - 1])

    def eval_batch(u: np.ndarray) -> np.ndarray:
        return np.logaddexp(0.0, -y * (Z @ u))

    def eval_path(U: np.ndarray) -> np.ndarray:
        m = row_dots(Z, U)
        m *= y
        np.negative(m, out=m)  # -(y*m) == (-y)*m: rounding is sign-symmetric
        return np.logaddexp(0.0, m, out=m)

    return RegretLedger(
        losses_at_play=losses_at_play,
        loss_eval=eval_one,
        beta=beta,
        phi_eval=phi_eval,
        loss_eval_batch=eval_batch,
        path_losses=eval_path,
    )


def logistic_ledger(run: AioliRun) -> RegretLedger:
    lam = run.lam
    return _stream_ledger(
        run.stream, run.losses_at_play, run.beta,
        phi_eval=lambda u: 0.5 * lam * float(u @ u),
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
    holds within 1e-9 (1 + |bound|).  Each comparator's T bounds are one
    array with :func:`aioli_rescaled_bound`'s operation order, and its
    discounted regrets one :func:`~driftlearn.streams.discounted_scan`, so
    both match the prefix-by-prefix evaluation bit for bit.
    """
    ledger = logistic_ledger(run)
    scale = 1.0 + run.B * run.R
    worst = float("inf")
    ok = True
    for u in comparators:
        u = np.asarray(u, dtype=float)
        bounds = run.beta_pows * 0.5 * run.lam * (u @ u) + scale * run.stab_disc
        regrets = discounted_scan(run.losses_at_play - ledger.losses_at(u), run.beta)
        # fmin skips nan slacks, as the running min(worst, slack) would
        worst = float(np.fmin.reduce(bounds - regrets, initial=worst))
        ok = ok and not np.any(regrets > bounds + 1e-9 * (1.0 + np.abs(bounds)))
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


def mix_predict(yhats: np.ndarray, p: np.ndarray) -> float | np.ndarray:
    """Mixed prediction ln(sum p_i sigma(yhat_i) / sum p_i (1-sigma(yhat_i))).

    Satisfies the 1-mixability inequality
    l(yhat_mix, y) <= -ln sum_i p_i exp(-l(yhat_i, y)) for y in {+1,-1}.
    If one side collapses to zero numerically (all experts saturated) it is
    clamped to the smallest positive float before the log.  ``yhats`` and
    ``p`` hold one round, shape (N,), for a float, or T rounds, shape
    (T, N), for a (T,) array; a round gets the same value either way.
    """
    yhats = np.asarray(yhats, dtype=float)
    p = np.asarray(p, dtype=float)
    if yhats.shape != p.shape or yhats.ndim not in (1, 2):
        raise ValueError("predictions and weights must both be (N,) or (T, N)")
    if np.any(p < 0.0) or np.any(np.abs(p.sum(axis=-1) - 1.0) > 1e-9):
        raise ValueError("weights must be nonnegative and sum to 1")
    return _mix(yhats, p)


def _mix(yhats: np.ndarray, p: np.ndarray) -> float | np.ndarray:
    """:func:`mix_predict` for float arrays the caller built, unchecked."""
    weighted = _sigmoid_pm(yhats)
    for side in weighted:  # in place; a broadcast in-place product copies the stack
        side *= p
    s_pos, s_neg = np.maximum(weighted.sum(axis=-1), _TINY)
    mix = np.log(s_pos) - np.log(s_neg)
    return float(mix) if mix.ndim == 0 else mix


@dataclass
class EnsembleState:
    """Exponential-weights meta learner over AIOLI base learners, which
    advance together as one expert stack."""

    betas: np.ndarray
    log_q: np.ndarray
    experts: _Experts
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
        experts = _Experts.fresh(d, betas, lam, B, R)
        return cls(
            betas=betas, log_q=np.zeros(betas.size), experts=experts, B=B, R=R, lam=lam
        )

    @property
    def n_experts(self) -> int:
        return self.betas.size


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
    X, expert_yhats, q = state.experts.decide(z)
    lq = state.log_q - state.log_q.max()
    p = np.exp(lq)
    p /= p.sum()
    yhat_mix = _mix(expert_yhats, p)  # normalized weights by construction

    expert_losses = np.logaddexp(0.0, -y * expert_yhats)
    state.log_q = state.log_q - expert_losses
    state.experts.absorb(z, y, X, expert_yhats, q)
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
    for t, (z, y) in enumerate(zip(stream.Z, map(float, stream.y))):
        step = ensemble_step(state, z, y)
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


def ensemble_ledger(run: EnsembleRun) -> RegretLedger:
    """Ledger of the mixture's losses on the run's stream, undiscounted
    (beta = 1) and without a comparator term; its dynamic regret is the
    ensemble's."""
    return _stream_ledger(run.stream, run.mix_losses, 1.0)


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
