"""Static and discounted VAW forecasters for online linear regression.

The forecaster plays, after seeing the feature z_t,

    x_t = argmin_x  lam*beta^t/2 |x|^2 + (x.z_t)^2/2
                    + 1/2 sum_{s<t} beta^(t-s) (x.z_s - y_s)^2,

which reduces to one symmetric positive-definite solve against the
discounted Gram matrix.  All running statistics are kept in discounted form
(A_t = lam beta^t I + sum beta^(t-s) z_s z_s', b_t = sum beta^(t-s) y_s z_s)
so nothing ever scales like beta^(-t).  The predict matrix
beta A_{t-1} + z_t z_t' is A_t itself, so round t solves A_t against
[beta b_{t-1}, z_t]: the first column is the decision x_t, the second gives
the stability term y_t^2 z_t' A_t^{-1} z_t.

A_t depends on the features only, never on the decisions, so every round is
an independent solve and ``run_dvaw`` advances a block of rounds at once:
the Gram and label-sum recurrences run as one exact discounted scan
(``streams.discounted_scan``) over the block, one ``np.linalg.cholesky`` of
the (B, d, d) stack checks positive definiteness, and one
``np.linalg.solve`` of the stack gives every round's decision and stability
term.  The block length B is set by a private byte budget for one (B, d, d)
stack, and results do not depend on it.  ``dvaw_predict`` and
``dvaw_update`` take one round as the direct step beta A_{t-1} + z_t z_t'
with the same roundings, so they agree with ``run_dvaw`` bit for bit.  The
module needs numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from driftlearn.regret import (
    RegretLedger,
    ft_difference_term,
    path_variation,
    quadratic_loss_ledger,
)
from driftlearn.streams import ComparatorPath, LabeledRound, Stream, discounted_scan

# Bytes of one (B, d, d) Gram stack; a block holds max(1, this // (8 d^2))
# rounds.  The kernel's working set is a few such stacks.
_BLOCK_BYTES = 1 << 15


class SingularSystemError(RuntimeError):
    """The regularized Gram matrix lost positive definiteness."""


def __getattr__(name: str):
    # bench/tracing.py counts factorizations by wrapping linreg.cho_factor,
    # which nothing here calls; scipy is imported only when the name is read.
    # ROADMAP item 0 moves that probe to np.linalg.cholesky and deletes this.
    if name == "cho_factor":
        from scipy.linalg import cho_factor

        return cho_factor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _advance(
    A: np.ndarray, b: np.ndarray, beta: float, Z: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run the rounds (Z, y) of one block from the statistics (A, b).

    Returns the stacks A_t (B, d, d) and b_t (B, d), the decisions x_t
    (B, d), the predictions x_t.z_t (B,) and the stability terms
    y_t^2 z_t' A_t^{-1} z_t (B,).  One discounted scan over the rows
    [z_t z_t' ; y_t z_t], started from [A ; b], computes beta A_{t-1} +
    z_t z_t' and beta b_{t-1} + y_t z_t with the same two roundings as the
    per-round recurrence, so the results do not depend on where blocks begin.
    """
    B, d = Z.shape
    V = np.empty((B, d + 1, d))
    with np.errstate(over="ignore"):  # an overflow raises below, not warns
        np.multiply(Z[:, :, None], Z[:, None, :], out=V[:, :d])
        np.multiply(y[:, None], Z, out=V[:, d])
    S = discounted_scan(V, beta, np.vstack((A, b)))
    A_stack, b_stack = S[:, :d], S[:, d]
    # inf and nan persist through the scan, so the last round shows an
    # overflow anywhere in the block
    _check_finite(S[-1])
    _check_definite(A_stack)
    rhs = np.empty((B, d, 2))
    rhs[0, :, 0] = beta * b
    rhs[1:, :, 0] = beta * b_stack[:-1]
    rhs[:, :, 1] = Z
    sol = np.linalg.solve(A_stack, rhs)
    X = sol[:, :, 0]
    stab = (y * y) * (Z * sol[:, :, 1]).sum(axis=1)
    return A_stack, b_stack, X, (X * Z).sum(axis=1), stab


def _check_finite(stats: np.ndarray) -> None:
    if not np.isfinite(stats).all():
        raise ValueError("discounted statistics overflowed; rescale the stream")


def _check_definite(A: np.ndarray) -> None:
    """Raise if a matrix of A (d, d), or of a stack of them, has no Cholesky factor."""
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
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
    A_t = beta A_{t-1} + z_t z_t' from A_0 = lam I, and ``b`` the discounted
    label sum b_t = beta b_{t-1} + y_t z_t.  The lam beta^t part may
    underflow to zero (the Gram term then carries the conditioning); a
    matrix that is no longer positive definite raises
    :class:`SingularSystemError`.  ``potential`` accumulates the discounted
    stability terms y_t^2 z_t' A_t^{-1} z_t.  No factor is stored: each
    round solves against A_t afresh.
    """

    beta: float
    lam: float
    A: np.ndarray
    b: np.ndarray
    t: int = 0
    maxy2: float = 0.0
    potential: float = 0.0

    @classmethod
    def fresh(cls, d: int, beta: float, lam: float) -> "VawState":
        if not (0.0 < beta <= 1.0):
            raise ValueError(f"beta must lie in (0, 1], got {beta}")
        if not (0.0 < lam < math.inf):
            raise ValueError(f"lambda must be > 0 and finite, got {lam}")
        return cls(beta=beta, lam=lam, A=lam * np.eye(d), b=np.zeros(d))


def _one_round(state: VawState, z, y: float) -> tuple:
    """The round (z, y) as one direct step from ``state``, after checking ``z``.

    Returns A_t, b_t, x_t, x_t.z_t and y^2 z_t' A_t^{-1} z_t with the
    roundings :func:`_advance` takes on a block of this one round.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != state.b.shape:
        raise ValueError(f"feature dimension {z.shape} != state dimension {state.b.shape}")
    if not np.isfinite(z).all():
        raise ValueError("feature must be finite")
    beta = state.beta
    with np.errstate(over="ignore", invalid="ignore"):  # _check_finite raises
        A = np.outer(z, z) + beta * state.A
        b = y * z + beta * state.b
    _check_finite(A)
    _check_finite(b)
    _check_definite(A)
    sol = np.linalg.solve(A, np.column_stack((beta * state.b, z)))
    x = sol[:, 0]
    return A, b, x, float((x * z).sum()), (y * y) * float((z * sol[:, 1]).sum())


def dvaw_predict(state: VawState, z: np.ndarray) -> tuple[np.ndarray, float]:
    """Decision and prediction for the incoming feature ``z``.

    Solves (beta A_{t-1} + z z') x = beta b_{t-1}, where t is the upcoming
    round index; the matrix is the A_t the update will store.
    """
    _, _, x, yhat, _ = _one_round(state, z, 0.0)
    return x, yhat


def dvaw_update(state: VawState, rnd: LabeledRound) -> VawState:
    """Fold one revealed round into the discounted statistics."""
    y = float(rnd.y)
    if not math.isfinite(y):
        raise ValueError("label must be finite")
    A, b, _, _, stab = _one_round(state, rnd.z, y)
    return replace(
        state,
        A=A,
        b=b,
        t=state.t + 1,
        maxy2=max(state.maxy2, y * y),
        potential=state.potential + stab,
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
    Z, y = stream.Z, stream.y
    T, d = Z.shape
    block = max(1, _BLOCK_BYTES // (8 * d * d))
    yhats = np.empty(T)
    pots = np.empty(T)
    A, b = state.A, state.b
    for lo in range(0, T, block):
        hi = min(lo + block, T)
        A_stack, b_stack, _, yhats[lo:hi], pots[lo:hi] = _advance(
            A, b, beta, Z[lo:hi], y[lo:hi]
        )
        A, b = A_stack[-1].copy(), b_stack[-1].copy()
    state = replace(
        state,
        A=A,
        b=b,
        t=T,
        maxy2=float((y * y).max(initial=0.0)),
        potential=float(pots.sum()),
    )
    return DvawRun(
        stream=stream,
        beta=beta,
        lam=lam,
        yhats=yhats,
        losses_at_play=0.5 * (yhats - y) ** 2,
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
