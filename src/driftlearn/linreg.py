"""Static and discounted VAW forecasters for online linear regression.

The forecaster plays, after seeing the feature z_t,

    x_t = argmin_x  lam*beta^t/2 |x|^2 + (x.z_t)^2/2
                    + 1/2 sum_{s<t} beta^(t-s) (x.z_s - y_s)^2,

which reduces to one symmetric positive-definite solve against the
discounted Gram matrix.  All running statistics are kept in discounted form
(A_t = lam beta^t I + sum beta^(t-s) z_s z_s', b_t = sum beta^(t-s) y_s z_s)
so nothing ever scales like beta^(-t).  Each round factors A_t once, in the
update; the next prediction reuses that factor through a rank-one identity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError

from driftlearn.regret import (
    RegretLedger,
    ft_difference_term,
    path_variation,
    quadratic_loss_ledger,
)
from driftlearn.streams import ComparatorPath, LabeledRound, Stream


class SingularSystemError(RuntimeError):
    """The regularized Gram matrix lost positive definiteness."""


def _factor(A: np.ndarray) -> tuple:
    try:
        return cho_factor(A, lower=True)
    except (LinAlgError, np.linalg.LinAlgError) as exc:
        raise SingularSystemError(
            "regularized Gram matrix is numerically singular "
            "(lam*beta^t underflowed against a rank-deficient history); "
            "use a larger lambda or a shorter horizon"
        ) from exc


@dataclass
class VawState:
    """Discounted sufficient statistics of the forecaster.

    ``A`` is the regularized discounted Gram matrix
    A_t = lam beta^t I + sum_{s<=t} beta^(t-s) z_s z_s', carried as
    A_t = beta A_{t-1} + z_t z_t' from A_0 = lam I, and ``chol`` its lower
    Cholesky factor as returned by ``cho_factor``.  The lam beta^t part may
    underflow to zero (the Gram term then carries the conditioning); a
    matrix that is no longer positive definite raises
    :class:`SingularSystemError`.  ``potential`` accumulates the discounted
    stability terms y_t^2 z_t' A_t^{-1} z_t.
    """

    beta: float
    lam: float
    A: np.ndarray
    chol: tuple
    b: np.ndarray
    t: int = 0
    maxy2: float = 0.0
    potential: float = 0.0

    @classmethod
    def fresh(cls, d: int, beta: float, lam: float) -> "VawState":
        if not (0.0 < beta <= 1.0):
            raise ValueError(f"beta must lie in (0, 1], got {beta}")
        if lam <= 0.0:
            raise ValueError(f"lambda must be > 0, got {lam}")
        A = lam * np.eye(d)
        return cls(beta=beta, lam=lam, A=A, chol=_factor(A), b=np.zeros(d))


def dvaw_predict(state: VawState, z: np.ndarray) -> tuple[np.ndarray, float]:
    """Decision and prediction for the incoming feature ``z``.

    Solves (beta A_{t-1} + z z') x = beta b_{t-1} where t is the upcoming
    round index.  With a = A_{t-1}^{-1} b_{t-1} and c = A_{t-1}^{-1} z from
    the stored factor, the rank-one identity gives
    x = a - c (z.a) / (beta + z.c); the denominator is at least beta > 0.
    """
    z = np.asarray(z, dtype=float)
    if not np.isfinite(z).all():
        raise ValueError("feature must be finite")
    a, c = cho_solve(state.chol, np.column_stack((state.b, z))).T
    x = a - c * (float(z @ a) / (state.beta + float(z @ c)))
    return x, float(x @ z)


def dvaw_update(state: VawState, rnd: LabeledRound) -> VawState:
    """Fold one revealed round into the discounted statistics."""
    z = np.asarray(rnd.z, dtype=float)
    if z.shape != state.b.shape:
        raise ValueError(f"feature dimension {z.shape} != state dimension {state.b.shape}")
    beta, y = state.beta, float(rnd.y)
    A = beta * state.A + np.outer(z, z)
    chol = _factor(A)
    pot_inc = y * y * float(z @ cho_solve(chol, z))
    return replace(
        state,
        A=A,
        chol=chol,
        b=beta * state.b + y * z,
        t=state.t + 1,
        maxy2=max(state.maxy2, y * y),
        potential=state.potential + pot_inc,
    )


@dataclass
class DvawRun:
    """Trace of one discounted-VAW pass over a stream."""

    stream: Stream
    beta: float
    lam: float
    yhats: np.ndarray
    losses_at_play: np.ndarray
    potential_increments: np.ndarray  # discounted terms, one per round
    state: VawState

    @property
    def T(self) -> int:
        return self.stream.T


def run_dvaw(stream: Stream, beta: float, lam: float) -> DvawRun:
    state = VawState.fresh(stream.d, beta, lam)
    T = stream.T
    yhats = np.empty(T)
    losses = np.empty(T)
    pots = np.empty(T)
    for t, rnd in enumerate(stream):
        _, yhat = dvaw_predict(state, rnd.z)
        yhats[t] = yhat
        losses[t] = 0.5 * (yhat - rnd.y) ** 2
        prev_pot = state.potential
        state = dvaw_update(state, rnd)
        pots[t] = state.potential - prev_pot
    return DvawRun(
        stream=stream,
        beta=beta,
        lam=lam,
        yhats=yhats,
        losses_at_play=losses,
        potential_increments=pots,
        state=state,
    )


def vaw_ledger(run: DvawRun) -> RegretLedger:
    """Regret ledger for a run, with phi = lam/2 |u|^2 and discounted
    stability terms supplied from the recorded potential increments."""
    return quadratic_loss_ledger(
        run.stream.Z,
        run.stream.y,
        run.losses_at_play,
        beta=run.beta,
        lam=run.lam,
        lambdas=run.potential_increments,
    )


def vaw_static_bound(
    stream: Stream, lam: float, t: int, u: np.ndarray
) -> float:
    """Static-comparator regret bound for the undiscounted forecaster.

    Returns lam/2 |u|^2 + 1/2 sum_{s<=t} y_s^2 z_s' A_s^{-1} z_s with
    A_s = lam I + sum_{r<=s} z_r z_r'; it upper-bounds the prefix regret
    sum_{s<=t} (f_s(x_s) - f_s(u)) for every comparator u.
    """
    if not 0 <= t <= stream.T:
        raise ValueError(f"prefix t must lie in [0, {stream.T}], got {t}")
    u = np.asarray(u, dtype=float)
    total = 0.5 * lam * float(u @ u)
    A = lam * np.eye(stream.d)
    for s in range(t):
        z, y = stream.Z[s], stream.y[s]
        A = A + np.outer(z, z)
        total += 0.5 * y * y * float(z @ np.linalg.solve(A, z))
    return total


def dvaw_log_term(run: DvawRun) -> float:
    """(d/2) max_t y_t^2 * ln(1 + sum_t beta^(T-t) |z_t|^2 / (lam d))."""
    T, d = run.T, run.stream.d
    pw = run.beta ** np.arange(T - 1, -1.0, -1.0)
    gram_mass = float(pw @ (run.stream.Z**2).sum(axis=1))
    return 0.5 * d * run.state.maxy2 * np.log1p(gram_mass / (run.lam * d))


def dvaw_dynamic_bound(
    run: DvawRun,
    path: ComparatorPath,
    gamma: Optional[float] = None,
    form: str = "path",
) -> float:
    """Dynamic-regret upper bound for a discounted-VAW run.

    form="path":    beta lam/2 |u_1|^2 + log term + gamma/(1-gamma) P_T^g
                    + (1-beta)/beta * d/2 * sum y_t^2     (needs beta<=gamma<1)
    form="ftdiff":  same with the path term replaced by the exact
                    beta * sum_{t<T} (F_t(u_{t+1}) - F_t(u_t)).
    """
    beta, lam, d = run.beta, run.lam, run.stream.d
    base = 0.5 * beta * lam * float(path[0] @ path[0])
    base += dvaw_log_term(run)
    base += (1.0 - beta) / beta * 0.5 * d * float((run.stream.y**2).sum())
    ledger = vaw_ledger(run)
    if form == "ftdiff":
        return base + ft_difference_term(ledger, path)
    if form != "path":
        raise ValueError(f"unknown bound form {form!r}")
    if gamma is None or not (0.0 < beta <= gamma < 1.0):
        raise ValueError(f"need 0 < beta <= gamma < 1, got beta={beta} gamma={gamma}")
    pv = path_variation(ledger, path, gamma, include_f0=True)
    return base + gamma / (1.0 - gamma) * pv.value
