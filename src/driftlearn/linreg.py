"""Static and discounted VAW forecasters for online linear regression.

The forecaster plays, after seeing the feature z_t,

    x_t = argmin_x  lam*beta^t/2 |x|^2 + (x.z_t)^2/2
                    + 1/2 sum_{s<t} beta^(t-s) (x.z_s - y_s)^2,

which reduces to one symmetric positive-definite system in the discounted
Gram matrix.  All running statistics are kept in discounted form
(A_t = lam beta^t I + sum beta^(t-s) z_s z_s', b_t = sum beta^(t-s) y_s z_s)
so nothing ever scales like beta^(-t).  The predict matrix
beta A_{t-1} + z_t z_t' is A_t itself, and a round reads two numbers only:
the prediction z_t' A_t^{-1} beta b_{t-1} and the stability term
y_t^2 z_t' A_t^{-1} z_t.  With A_t = L L' both are dot products of the
forward substitutions c = L^{-1} z_t and w = L^{-1} beta b_{t-1}, w.c and
y_t^2 c.c, and one Cholesky factorization of A_t bordered by the rows
z_t' and beta b_{t-1}' returns c and w as its last two rows (the bordered
Cholesky of Golub and Van Loan, Matrix Computations, sec. 4.2).  The
decision x_t itself is never formed.

A_t depends on the features only, never on the decisions, so every round is
independent and ``run_dvaw`` advances a block of rounds at once: the Gram
and label-sum recurrences run as one exact discounted scan
(``streams.discounted_scan``) over the block, and one Cholesky
factorization of the (B, d+2, d+2) stack of bordered matrices checks
positive definiteness and gives every round's prediction and stability
term.  It calls numpy's LAPACK gufunc directly, as ``logreg`` does;
``streams._first_rejected`` referees a block whose factor holds a nan pivot.
A block holds two (B, d+2, d+2) stacks at a time, and its length B is set
by a private byte budget for one stack; results do not depend on it.
``run_dvaw`` is the one learner entry point; its losses are ``regret._loss``
of its predictions, as its ledger's are.  The module needs numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from driftlearn.regret import (RegretLedger, _check_discounts, _loss, ft_difference_term,
                               path_variation)
from driftlearn.streams import (BLOCK_ROWS, ComparatorPath, Stream, _first_rejected,
                                _umath_linalg, discounted_scan, row_dots)

# Bytes of one (B, d+2, d+2) stack of bordered Gram matrices; a block holds
# max(1, this // (8 (d+2)^2)) rounds.  The kernel's working set is two such
# stacks and O(B d) floats.
# At d = 20 and T = 4000 twice this budget lifts the run's peak above that
# of the regret checks that read it.
_BLOCK_BYTES = 1 << 16


class SingularSystemError(RuntimeError):
    """The regularized Gram matrix lost positive definiteness."""


def __getattr__(name: str):
    # bench/tracing.py counts factorizations by wrapping linreg.cho_factor,
    # which nothing here calls; scipy is imported only when the name is read.
    # ROADMAP item 0 moves that probe to _umath_linalg.cholesky_lo, times the
    # stack length: one bordered factorization a round (np.linalg.cholesky
    # runs only on a failed stack).
    if name == "cho_factor":
        from scipy.linalg import cho_factor

        return cho_factor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _advance(
    A: np.ndarray, b: np.ndarray, beta: float, Z: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run the rounds (Z, y) of one block from the statistics (A, b).

    Returns the stacks A_t (B, d, d) and b_t (B, d), the predictions
    z_t' A_t^{-1} beta b_{t-1} (B,) and the stability terms
    y_t^2 z_t' A_t^{-1} z_t (B,).  One discounted scan over the rows
    [z_t z_t' ; y_t z_t], started from [A ; b], computes beta A_{t-1} +
    z_t z_t' and beta b_{t-1} + y_t z_t with the same two roundings as the
    per-round recurrence, so the results do not depend on where blocks begin.

    Each round then takes one Cholesky factorization, of A_t bordered by
    the rows [z_t', inf] and [beta b_{t-1}', 0, inf] (only the lower
    triangle is read).  Its last two rows are c = L^{-1} z_t and
    w = L^{-1} beta b_{t-1}, the forward substitutions of the two
    right-hand sides, so the prediction is w.c and the stability term
    y_t^2 c.c.  The inf diagonal keeps the border's pivots positive
    whatever |c| and |w| are (LAPACK scales by 1/inf = 0), so the border
    never makes LAPACK reject; an overflow in the substitution leaves an
    inf or nan in the prediction, and ``run_dvaw``'s overflow check
    raises.  The scan's output is copied into the bordered stack and
    dropped, so the block holds two (B, d+2, d+2) stacks at a time, the
    bordered matrices and their factor, and O(B d) floats more.
    """
    B, d = Z.shape
    V = np.empty((B, d + 1, d))
    # an overflow raises below and a failed LAPACK call is a nan, not a warning
    with np.errstate(all="ignore"):
        # einsum writes the products straight into the strided view; a
        # broadcast multiply would stage them in a buffer of several stacks
        np.einsum("bi,bj->bij", Z, Z, out=V[:, :d])
        np.multiply(y[:, None], Z, out=V[:, d])
        # a new array: a column scan in place measured about a fifth slower
        V = discounted_scan(V, beta, np.vstack((A, b)))
        # inf and nan persist through the scan, so the last round shows an
        # overflow anywhere in the block
        _check_finite(V[-1])
        M = np.empty((B, d + 2, d + 2))
        M[:, :d, :d] = V[:, :d]
        b_stack = V[:, d].copy()
        del V
        M[:, d, :d] = Z
        M[0, d + 1, :d] = beta * b
        np.multiply(beta, b_stack[:-1], out=M[1:, d + 1, :d])
        M[:, d + 1, d] = 0.0
        M[:, d, d] = M[:, d + 1, d + 1] = np.inf
        L = _umath_linalg.cholesky_lo(M)
        A_stack = M[:, :d, :d]
        _check_definite(A_stack, L[:, :d, :d])
        # row_dots reads the strided rows in place; an elementwise product
        # of them stages copies of both in numpy buffers
        c, w = L[:, d, :d], L[:, d + 1, :d]
        return A_stack, b_stack, row_dots(w, c), (y * y) * row_dots(c, c)


def _check_finite(stats: np.ndarray) -> None:
    if not np.isfinite(stats).all():
        raise ValueError("discounted statistics overflowed; rescale the stream")


def _check_definite(A: np.ndarray, L: np.ndarray) -> None:
    """Raise if a matrix of the (B, d, d) stack A has no Cholesky factor
    (``streams._first_rejected`` referees an entry of L, the factors
    LAPACK returned, whose pivots hold a nan: LAPACK fills an entry it
    rejects with nan), or one with a squared pivot below the smallest
    normal float (a substitution would divide by a subnormal or zero
    pivot).  Only the (B, d) pivots are read on success, by reductions:
    an elementwise operation on a strided view stages copies of it."""
    pivots = np.diagonal(L, axis1=-2, axis2=-1)
    # the pivots are positive, so the least square is the least pivot's
    # square; fmin skips the nan pivots of an entry the referee accepted
    low = np.fmin.reduce(pivots, axis=None)
    if (math.isnan(pivots.sum()) and _first_rejected(np.linalg.cholesky, L, A) is not None
            or low * low < np.finfo(float).tiny):
        raise SingularSystemError(
            "regularized Gram matrix is numerically singular "
            "(lam*beta^t underflowed against a rank-deficient history); "
            "use a larger lambda or a shorter horizon"
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

    @property
    def T(self) -> int:
        return self.stream.T


def _rounds(
    Z: np.ndarray, y: np.ndarray, beta: float, lam: float
) -> tuple[np.ndarray, np.ndarray]:
    """Predictions and stability terms of the rounds (Z, y) from A_0 = lam I
    and b_0 = 0, one :func:`_advance` call per block of rounds."""
    T, d = Z.shape
    block = max(1, _BLOCK_BYTES // (8 * (d + 2) ** 2))
    yhats = np.empty(T)
    stab = np.empty(T)
    A, b = lam * np.eye(d), np.zeros(d)
    for lo in range(0, T, block):
        hi = min(lo + block, T)
        A_stack, b_stack, yhats[lo:hi], stab[lo:hi] = _advance(
            A, b, beta, Z[lo:hi], y[lo:hi]
        )
        # copies, so that the next block runs without this block's stacks
        A, b = A_stack[-1].copy(), b_stack[-1].copy()
        del A_stack, b_stack
    return yhats, stab


def run_dvaw(stream: Stream, beta: float, lam: float) -> DvawRun:
    """One discounted-VAW pass over ``stream``, for beta in (0, 1] and lam in
    (0, inf).  A label whose square overflows, or statistics or losses that
    overflow, raise ``ValueError``."""
    if not (0.0 < beta <= 1.0):
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    if not (0.0 < lam < math.inf):
        raise ValueError(f"lambda must be > 0 and finite, got {lam}")
    y = stream.y
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan raises here, not warns
        _check_finite(y * y)
        yhats, pots = _rounds(stream.Z, y, beta, lam)
        losses = _loss("squared", yhats.copy(), y)
        _check_finite(losses)
    return DvawRun(stream=stream, beta=beta, lam=lam, yhats=yhats,
                   losses_at_play=losses, potential_increments=pots)


def vaw_ledger(run: DvawRun) -> RegretLedger:
    """Squared-loss regret ledger for a run, with phi = lam/2 |u|^2."""
    return RegretLedger(
        run.losses_at_play, run.beta, run.stream.Z, run.stream.y, "squared", lam=run.lam,
    )


def dvaw_log_term(run: DvawRun) -> float:
    """(d/2) max_t y_t^2 * ln(1 + sum_t beta^(T-t) |z_t|^2 / (lam d)).

    |z_t|^2 is taken ``BLOCK_ROWS`` rows at a time, so beside two (T,) arrays
    the term holds one block of squares."""
    T, d, y, Z = run.T, run.stream.d, run.stream.y, run.stream.Z
    maxy2 = float((y * y).max(initial=0.0))
    pw = run.beta ** np.arange(T - 1, -1.0, -1.0)
    sq_norms = np.empty(T)
    for start in range(0, T, BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        sq_norms[rows] = (Z[rows] ** 2).sum(axis=1)
    gram_mass = float(pw @ sq_norms)
    return 0.5 * d * maxy2 * np.log1p(gram_mass / (run.lam * d))


def dvaw_bounds(
    run: DvawRun, ledger: RegretLedger, path: ComparatorPath, gamma: float
) -> tuple[float, float, float]:
    """The dynamic-regret upper bounds of a discounted-VAW run, for
    0 < beta <= gamma < 1: (path form, ftdiff form, modular RHS).
    ``ledger`` is the run's `vaw_ledger`.

    path form:     beta lam/2 |u_1|^2 + log term + gamma/(1-gamma) P_T^g
                   + (1-beta)/beta * d/2 * sum y_t^2
    ftdiff form:   the same with the path term replaced by the exact
                   FD = beta * sum_{t<T} (F_t(u_{t+1}) - F_t(u_t))
    modular RHS:   the reduction template beta phi(u_1)
                   + sum_t beta^t Lambda_t + FD, with the run's stability
                   terms beta^t Lambda_t; its phi drift term is 0, since
                   phi does not depend on t.

    The ledger serves P_T^g and FD, and FD is taken once for both bounds
    that add it.
    """
    _check_discounts(run.beta, gamma)
    beta, lam, d = run.beta, run.lam, run.stream.d
    u = path[0]
    base = 0.5 * beta * lam * float(u @ u)
    base += dvaw_log_term(run)
    base += (1.0 - beta) / beta * 0.5 * d * float((run.stream.y**2).sum())
    fd = ft_difference_term(ledger, path)  # checks the path length
    pv = path_variation(ledger, path, gamma)
    stab = run.potential_increments
    if np.any(stab < -1e-12):
        raise ValueError("stability terms must be nonnegative")
    modular = beta * (0.5 * lam * float(u @ u))
    modular += float(stab.sum())
    modular += fd
    return base + gamma / (1.0 - gamma) * pv, base + fd, modular
