"""Discounted AIOLI and a mixability ensemble for online logistic regression.

AIOLI plays the minimizer of an optimistic discounted FTRL objective

    x_t = argmin_x  lam*beta^t/2 |x|^2 + h_t(x) + sum_{s<t} beta^(t-s) fhat_s(x),

where h_t(x) = l(x.z_t, +1) + l(x.z_t, -1) and fhat_s is a quadratic
surrogate of the logistic loss with curvature eta_s = exp(y_s yhat_s)/(1+BR).
The raw eta_s overflows when the learner is confidently correct, so it is
never materialized.  A round is written in the margin u = y*yhat: with
c2 = sigma(u)sigma(-u)/(1+BR), g = -y sigma(-u) z and g.x = -y sigma(-u) yhat
(y^2 = 1), it adds eta g g' = c2 z z' to the regularized matrix
Atilde_t = lam beta^t I + sum_{s<=t} beta^(t-s) eta_s g_s g_s' and moves the
surrogates' linear term by one outer product:

    A <- beta A + c2 z z',    w <- beta w + (y sigma(-u) + c2 yhat) z.

The argmin reduces to one scalar equation v + q*tanh(v/2) = p, solved for
|p| by Newton from a closed-form lower bound of the root; v = z.x_t is
the prediction yhat_t.

Every learner here runs on one kernel over a leading expert axis: N
learners with their own discounts keep A as an (N, d, d) stack and w as
(N, d).  A round makes one stacked solve against [w, z] for all decisions,
one scalar root per expert, and the update of A and w.  The updates of a
block of L rounds go into one buffer of L + 1 states, row 0 holding the
state the block starts from, and one stacked Cholesky factorization of the
block's L matrices checks, at the block's end, that none has turned
indefinite; L is set by a private byte budget, and results do not depend
on it.  Both LAPACK calls go to numpy's gufuncs directly: at these small
stacks the public wrappers cost more than the gufunc.  A solve or a factor
that holds a nan goes to ``streams._first_rejected``, which names the first
failing round and expert.  An error raised inside a block first checks the
block's earlier rounds, so a matrix that turned indefinite at round t is
reported before anything a later round raises, as a check after every
round would.  The discount ensemble advances its N experts this way
and ``run_aioli`` is the N = 1 case; those two runners are the only drivers
of the stack.  The roots stay scalar, one ``solve_optimism_root`` call per
expert and round: they take a few Newton steps each, and a masked Newton
over the expert axis would pay numpy's fixed cost per call on every step
for only N elements.

Only the learner state is sequential.  ``run_ensemble`` advances the
expert stack a chunk of ``streams.BLOCK_ROWS`` rounds at a time into one
(chunk, N) buffer of predictions, and folds each chunk into the expert
losses, the exponential weights, the mixture and its losses before the
next: the weights carry the (N,) losses summed over earlier chunks, so
the run holds no (T, N) array.  ``run_aioli`` rebuilds each block's
decisions and stationarity residuals from the block's states, and takes
its discounted stability sums and beta^t after the loop.  Every loss at
play is ``regret._loss`` of the predictions, as the ledgers' are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from driftlearn.regret import RegretLedger, _check_discounts, _loss, path_variation
from driftlearn.streams import (BLOCK_ROWS, ComparatorPath, Stream, _first_rejected,
                                _umath_linalg, bound_holds, discounted_scan, row_dots)

ROOT_MAX_ITERS = 200

# Multiplies x into the stack [-x, x]; see _sigmoid_pm.
_MINUS_PLUS = np.array([-1.0, 1.0])
_TINY = np.finfo(float).tiny
# Bytes of one (L, N, d, d) stack of expert matrices; a block of the learner
# loop holds L = max(1, this // (8 N d^2)) rounds.  Its working set is that
# stack twice (the block's states and their Cholesky factor) and, in
# run_aioli, O(L d) floats for the residuals.
_BLOCK_BYTES = 1 << 15


def __getattr__(name: str):
    # bench/tracing.py counts factorizations by wrapping logreg.cho_factor,
    # which nothing here calls; scipy is imported only when the name is read.
    # ROADMAP item 0 moves that probe to _umath_linalg.cholesky_lo, times the
    # stack length (np.linalg.cholesky runs only on a failed stack).
    if name == "cho_factor":
        from scipy.linalg import cho_factor

        return cho_factor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _sigmoid_pm(x: np.ndarray) -> np.ndarray:
    """sigmoid(x) and sigmoid(-x), stacked on a new leading axis."""
    return _sigmoid_of_negated(np.multiply.outer(_MINUS_PLUS, x))


def _sigmoid_of_negated(s: np.ndarray) -> np.ndarray:
    """Overwrite ``s``, which holds -x, with sigmoid(x) and return it; every
    step runs in that one buffer.  Where exp(-x) overflows, 1/inf gives 0:
    callers silence the overflow flag."""
    np.exp(s, out=s)
    s += 1.0
    return np.divide(1.0, s, out=s)


class RootNotConvergedError(RuntimeError):
    """The optimism root finder used up ROOT_MAX_ITERS iterations."""


def solve_optimism_root(p: float, q: float) -> float:
    """Root of v + q*tanh(v/2) = p with q >= 0.

    The root is odd in p, so this solves f(v) = v + q*tanh(v/2) - |p| = 0,
    which is increasing and concave on v >= 0, and applies the sign of p.
    Both |p|/(1 + q/2) (tanh x <= x) and |p| - q (tanh < 1) lie below the
    root, so Newton starts at the larger of the two and climbs without
    overshooting.  It stops at the first step that does not move v up
    (f' >= 1, so that is f(v) >= 0 or a step below the spacing of doubles),
    which leaves v in [p-q, p+q] and a residual of a few units in the last
    place of p.  Raises :class:`RootNotConvergedError` when no step stops it
    within ROOT_MAX_ITERS iterations (p = nan).
    """
    if q < 0.0:
        raise ValueError(f"curvature scalar q must be >= 0, got {q}")
    a = abs(p)
    v = max(a / (1.0 + 0.5 * q), a - q)
    for _ in range(ROOT_MAX_ITERS):
        th = math.tanh(0.5 * v)
        # d/dv [q tanh(v/2)] = q sech^2(v/2)/2, written through th so it
        # cannot overflow for large v
        v_new = v - (v + q * th - a) / (1.0 + 0.5 * q * (1.0 - th * th))
        if v_new <= v:  # f(v) >= 0, or the step is below the spacing at v
            return math.copysign(v, p)
        v = v_new
    raise RootNotConvergedError(
        f"optimism root v + q*tanh(v/2) = p not found for p={p!r}, q={q!r} "
        f"after {ROOT_MAX_ITERS} iterations"
    )


# What failed in an expert, and the remedy besides a larger beta
_INDEFINITE = ("surrogate curvature matrix is numerically indefinite", "lambda")
_ILL_CONDITIONED = ("surrogate statistics are ill-conditioned", "rescale the stream")
_OVERFLOWED = ("surrogate statistics overflowed", "rescale the stream")


@dataclass
class _Experts:
    """N discounted-AIOLI learners on one stream, advanced together; the one
    AIOLI state, driven by ``run_aioli`` (N = 1) and ``run_ensemble``.

    ``A`` is the (N, d, d) stack of regularized surrogate curvatures
    Atilde_t = lam beta^t I + sum beta^(t-s) eta_s g_s g_s', carried as
    A_t = beta A_{t-1} + eta_t g_t g_t' from A_0 = lam I; ``w`` holds the
    (N, d) negated discounted linear coefficients of the surrogates
    (constant terms are dropped, they do not move the argmin), ``beta``
    the (N,) discounts, ``scale`` = 1 + BR and ``t`` the rounds absorbed.
    A round costs one stacked LAPACK solve (p and q) through numpy's
    gufunc, one scalar optimism root per expert and the update, which
    writes A_t and w_t into rows of :meth:`run`'s block buffer and makes
    them the state; the matrices' positive-definiteness is checked once
    per block, by one stacked Cholesky factorization.  The expert whose
    solve or factor LAPACK rejected is named by ``streams._first_rejected``.
    After :meth:`run`, ``A`` and ``w`` are arrays of their own.
    """

    beta: np.ndarray
    scale: float
    A: np.ndarray
    w: np.ndarray
    t: int = 0

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

    def run(
        self, Z: np.ndarray, y: np.ndarray, yhats: np.ndarray,
        c2q: np.ndarray | None = None, settle=None,
    ) -> None:
        """Advance every expert over the rounds (Z, y), ``y`` the (T,)
        labels, which the runners have checked with :func:`_check_labels`.

        Round t writes the (N,) predictions into ``yhats[t]`` and, when
        ``c2q`` is given, c2 q into ``c2q[t]`` (both (T, N) arrays).  The
        rounds go in blocks of L, each written into one buffer of states
        ``As`` (L+1, N, d, d) and ``ws`` (L+1, N, d): row k holds A and w
        after the block's k-th round, row 0 the state the block starts
        from.  At a block's end :meth:`_guard` checks rows 1..L, then
        ``settle(lo, As, ws)``, when given, reads the block's rows, its
        first round lo + 1 of this call.  Calls may follow one another on
        consecutive rounds; a failure names its round counted from the
        first call's, as ``t`` does.  The buffers live for one call, so a
        caller's work between calls runs without them.
        """
        ys = map(float, y)
        T = len(Z)
        N, d = self.w.shape
        L = max(1, min(T, _BLOCK_BYTES // (8 * N * d * d)))
        As = np.empty((L + 1, N, d, d))
        ws = np.empty((L + 1, N, d))
        for lo in range(0, T, L):
            rounds = slice(lo, min(lo + L, T))
            n = rounds.stop - lo
            As[0], ws[0] = self.A, self.w
            self.A, self.w = As[0], ws[0]
            self._block(Z[rounds], ys, As[:n + 1], ws[:n + 1], yhats[rounds],
                        None if c2q is None else c2q[rounds])
            self._guard(As[1:n + 1])
            if settle is not None:
                settle(lo, As[:n + 1], ws[:n + 1])
        self.A, self.w = self.A.copy(), self.w.copy()

    def _block(
        self, Z: np.ndarray, ys: Iterator[float], As: np.ndarray,
        ws: np.ndarray, yhats: np.ndarray, c2q: np.ndarray | None,
    ) -> None:
        """The sequential core of :meth:`run`: the block's rounds t+1, ...,
        each a :meth:`decide` and an :meth:`absorb` into the next row of
        ``As`` and ``ws``.  An error in a round first hands the rows of the
        rounds before it to :meth:`_guard`, so an update that failed its
        check is reported before anything a later round raises."""
        # einsum's products are z[:, None] * z's, without its temporaries
        ZZ = np.einsum("bi,bj->bij", Z, Z)
        # ys after range: zip stops at the block's end without taking a label
        for k, z, zz, y, row in zip(range(1, len(Z) + 1), Z, ZZ, ys, yhats):
            try:
                v, q = self.decide(z)
            except Exception:
                self._guard(As[1:k])
                raise
            c2 = self.absorb(z, zz, y, v, As[k], ws[k])
            row[:] = v
            if c2q is not None:
                c2q[k - 1] = c2 * q

    def decide(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Predictions v (N,) and q (N,) for feature z.

        Expert i's stationarity condition beta_i A_i x + tanh(v/2) z =
        beta_i w_i with v = z.x reduces to v + q_i tanh(v/2) = p_i with
        p_i = z'A_i^{-1}w_i and q_i = z'A_i^{-1}z/beta_i, so the root v_i
        is expert i's prediction z.x_i.  The roots stay scalar, one
        :func:`solve_optimism_root` call per expert.  A p or q
        that is not finite, a singular A and a negative q (A_i is positive
        definite, so only roundoff on a badly scaled stream gives one) raise
        ``ValueError`` before any root is sought; the runners call this
        under one ``np.errstate`` that silences the overflow itself, and
        the invalid flag of a failed solve.
        """
        rhs = np.empty(self.w.shape + (2,))
        rhs[:, :, 0] = self.w
        rhs[:, :, 1] = z
        sol = _umath_linalg.solve(self.A, rhs)
        p = sol[:, :, 0] @ z
        q = (sol[:, :, 1] / self.beta[:, None]) @ z
        ps, qs = p.tolist(), q.tolist()
        if not all(map(math.isfinite, ps + qs)):  # cheaper than numpy at small N
            rejected = _first_rejected(np.linalg.solve, sol, self.A, rhs)
            if rejected is not None:  # a singular A
                raise ValueError(self._failure(rejected[0], _ILL_CONDITIONED, self.t + 1))
            i = next(i for i, pq in enumerate(zip(ps, qs)) if not all(map(math.isfinite, pq)))
            raise ValueError(self._failure(i, _OVERFLOWED, self.t + 1))
        if min(qs) < 0.0:
            raise ValueError(self._failure(qs.index(min(qs)), _ILL_CONDITIONED, self.t + 1))
        v = np.array([solve_optimism_root(pi, qi) for pi, qi in zip(ps, qs)])
        return v, q

    def absorb(
        self, z: np.ndarray, zz: np.ndarray, y: float, yhats: np.ndarray,
        A: np.ndarray, w: np.ndarray,
    ) -> np.ndarray:
        """Fold the revealed label into every expert's statistics.

        ``zz`` is the outer product z z' and ``yhats`` are this round's
        :meth:`decide` predictions.  Writes A_t = beta A + c2 z z' into
        ``A`` and w_t into ``w``, both of the state's shape, makes them the
        state, and returns the curvature weights c2 (N,).  With q from
        :meth:`decide`, c2 q/(1 + c2 q) is the stability increment
        c2 z'A_t^{-1}z (Sherman-Morrison), so it needs no second solve.
        Nothing here checks A_t: :meth:`_guard` does, for a block of rounds
        at once.  Callers silence the overflow flag, as the runners do.
        """
        s_pos, s_neg = _sigmoid_pm(y * yhats)
        c2 = s_pos * s_neg / self.scale
        np.multiply(self.beta[:, None, None], self.A, out=A)
        # the products c2_i z z' as one (N, 1) @ (1, d^2) matmul, each entry
        # one rounded product, in one stack: a broadcast product took two
        # more of ufunc buffers, and an einsum costs more a call at small d
        A += (c2[:, None] @ zz.reshape(1, -1)).reshape(A.shape)
        np.multiply(self.beta[:, None], self.w, out=w)
        w += (y * s_neg + c2 * yhats)[:, None] * z
        self.A, self.w = A, w
        self.t += 1
        return c2

    def _guard(self, As: np.ndarray) -> None:
        """Check the (k, N, d, d) matrices of the last k rounds absorbed,
        t-k+1..t, with one stacked Cholesky factorization, and raise for
        the first (round, expert) in C order whose factor LAPACK rejected:
        the earliest round's first indefinite A."""
        factors = _umath_linalg.cholesky_lo(As)
        if math.isnan(factors.sum()):
            rejected = _first_rejected(np.linalg.cholesky, factors, As)
            if rejected is not None:
                k, i = rejected
                raise RuntimeError(self._failure(i, _INDEFINITE, self.t - len(As) + k + 1))

    def _failure(self, i: int, failure: tuple, t: int) -> str:
        """Expert i's failure at round t; a tiny beta underflows lam beta^t."""
        what, remedy = failure
        beta = float(self.beta[i])
        return f"{what} at round {t} for beta={beta}; use a larger beta or {remedy}"


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

    @property
    def T(self) -> int:
        return self.stream.T


def _check_labels(y: np.ndarray) -> None:
    """Raise ``ValueError`` unless every label is +/-1, before any round."""
    if not np.all(np.abs(y) == 1.0):
        raise ValueError("logistic streams need labels in {+1, -1}")


def run_aioli(stream: Stream, beta: float, lam: float, B: float, R: float) -> AioliRun:
    experts = _Experts.fresh(stream.d, [beta], lam, B, R)
    _check_labels(stream.y)
    T = stream.T
    yhats = np.empty((T, 1))
    c2q = np.empty((T, 1))
    resid = np.empty(T)

    def settle(lo: int, As: np.ndarray, ws: np.ndarray) -> None:
        rounds = slice(lo, lo + len(As) - 1)
        resid[rounds] = _residuals(As[:, 0], ws[:, 0], stream.Z[rounds], yhats[rounds, 0],
                                   experts.beta[0])

    with np.errstate(over="ignore", invalid="ignore"):  # decide raises instead
        experts.run(stream.Z, stream.y, yhats, c2q, settle)
    yhats, c2q = yhats[:, 0], c2q[:, 0]
    return AioliRun(
        stream=stream, beta=beta, lam=lam, B=B, R=R, yhats=yhats,
        losses_at_play=_loss("logistic", yhats.copy(), stream.y),
        stab_disc=discounted_scan(c2q / (1.0 + c2q), beta),
        beta_pows=np.cumprod(np.full(T, float(beta))), residuals=resid,
    )


def _residuals(
    As: np.ndarray, ws: np.ndarray, Z: np.ndarray, v: np.ndarray, beta: float
) -> np.ndarray:
    """Stationarity residuals of one AIOLI learner over a block of k rounds.

    ``As`` (k+1, d, d) and ``ws`` (k+1, d) are the states from before the
    block's first round to after its last, ``Z`` (k, d) the features and
    ``v`` (k,) the predictions.  Round t's decision is x_t = A^{-1}w -
    tanh(v_t/2) A^{-1}z_t/beta at (A, w) = (A_{t-1}, w_{t-1}), and its
    residual the sup-norm of beta A x_t + tanh(z_t.x_t/2) z_t - beta w.
    Each step is the per-round formula's, elementwise or one LAPACK or dot
    call per round, so the residuals do not depend on the block.
    """
    A, w = As[:-1], ws[:-1]
    sol = np.empty(w.shape + (2,))
    sol[:, :, 0] = w
    sol[:, :, 1] = Z
    sol = _umath_linalg.solve(A, sol)
    X = np.divide(sol[:, :, 1], beta)
    X *= np.tanh(0.5 * v)[:, None]
    X = np.subtract(sol[:, :, 0], X, out=X)
    del sol  # before the residual's arrays: four (k, d) arrays at a time
    grad = (A @ X[:, :, None])[:, :, 0]
    grad *= beta
    grad += np.tanh(0.5 * row_dots(X, Z))[:, None] * Z
    grad -= beta * w
    return np.max(np.abs(grad), axis=1)


def logistic_ledger(run: AioliRun) -> RegretLedger:
    """Logistic-loss regret ledger for a run, with phi = lam/2 |u|^2."""
    return RegretLedger(
        run.losses_at_play, run.beta, run.stream.Z, run.stream.y, "logistic", lam=run.lam
    )


def rescaled_bound_check(
    run: AioliRun, ledger: RegretLedger, comparators: Sequence[np.ndarray]
) -> tuple[float, bool]:
    """Check the discounted regret against its discounted-form bound
    beta^t lam/2 |u|^2 + (1+BR) sum_{s<=t} beta^(t-s) eta_s g_s' Atilde_s^{-1} g_s,
    valid for any |u| <= B, at every prefix t = 1..T for each comparator.
    ``ledger`` is the run's `logistic_ledger`, which gives each comparator's
    losses.

    Returns the worst slack min (bound - regret), nan if a prefix's slack
    is, and whether every prefix passes
    :func:`~driftlearn.streams.bound_holds`, so a nan prefix fails.
    Each comparator's T bounds are one array and its discounted regrets one
    :func:`~driftlearn.streams.discounted_scan`; both match a
    prefix-by-prefix evaluation of the same operations bit for bit.
    """
    scale = 1.0 + run.B * run.R
    worst = float("inf")
    ok = True
    for u in comparators:
        u = np.asarray(u, dtype=float)
        bounds = run.beta_pows * 0.5 * run.lam * (u @ u) + scale * run.stab_disc
        regrets = run.losses_at_play - ledger.loss_eval_batch(u)
        regrets = discounted_scan(regrets, run.beta, out=regrets)  # in place, at the same bits
        # minimum keeps a nan slack, so the worst slack reads a failed prefix
        worst = float(np.minimum.reduce(bounds - regrets, initial=worst))
        ok = ok and bool(bound_holds(regrets, bounds).all())
    return worst, ok


def theorem_dynamic_bound(run: AioliRun, path: ComparatorPath, gamma: float) -> float:
    """Dynamic-regret upper bound for a discounted-AIOLI run.

    beta lam |u_1|^2 + d(1+BR) log(1 + R^2 sum beta^(T-t) / (d lam (1+BR)))
    + gamma/(1-gamma) P_T^g + (1-beta)/beta * d(1+BR) T,
    for 0 < beta <= gamma < 1, comparators bounded by B, features by R.
    """
    _check_discounts(run.beta, gamma)
    beta, lam, d, T = run.beta, run.lam, run.stream.d, run.T
    scale = 1.0 + run.B * run.R
    geo = (1.0 - beta**T) / (1.0 - beta)
    bound = beta * lam * float(path[0] @ path[0])
    # numpy's scalar power: C pow, as Python's float **, but inf past the floats
    bound += d * scale * np.log1p(np.float64(run.R) ** 2 * geo / (d * lam * scale))
    pv = path_variation(logistic_ledger(run), path, gamma)
    bound += gamma / (1.0 - gamma) * pv
    bound += (1.0 - beta) / beta * d * scale * T
    return float(bound)


# ---------------------------------------------------------------------------
# Mixability ensemble for learning the discount factor.
# ---------------------------------------------------------------------------


def _mix(yhats: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Mixed predictions ln(sum p_i sigma(yhat_i) / sum p_i (1-sigma(yhat_i))),
    one per round of the (T, N) float arrays ``yhats`` and ``p``, unchecked.

    Satisfies the 1-mixability inequality
    l(yhat_mix, y) <= -ln sum_i p_i exp(-l(yhat_i, y)) for y in {+1,-1}.
    If one side collapses to zero numerically (all experts saturated) it is
    clamped to the smallest positive float before the log.
    """
    with np.errstate(over="ignore"):  # see _sigmoid_of_negated
        weighted = _sigmoid_pm(yhats)
    for side in weighted:  # in place; a broadcast in-place product copies the stack
        side *= p
    s_pos, s_neg = np.maximum(weighted.sum(axis=-1), _TINY)
    return np.log(s_pos) - np.log(s_neg)


@dataclass
class EnsembleRun:
    stream: Stream
    yhats: np.ndarray
    mix_losses: np.ndarray
    best_expert_losses: np.ndarray  # min_i l(yhat_{t,i}), (T,)
    expert_totals: np.ndarray       # sum_t l(yhat_{t,i}), (N,)

    @property
    def meta_regret(self) -> float:
        """sum_t l(yhat_t) - min_i sum_t l(yhat_{t,i}); at most ln N."""
        return float(self.mix_losses.sum() - self.expert_totals.min())


def run_ensemble(
    stream: Stream, betas: Sequence[float], lam: float, B: float, R: float,
    check: Callable[[slice, np.ndarray, np.ndarray, np.ndarray], None] | None = None,
) -> EnsembleRun:
    """Exponential-weights mixture over discounted-AIOLI experts, one per
    discount in ``betas``.

    One pass over chunks of ``streams.BLOCK_ROWS`` rounds.  A chunk
    advances the expert stack into one (chunk, N) buffer of predictions,
    then takes their losses, the weights (a row softmax of the expert
    losses summed over earlier rounds), the mixture, its losses and the
    best expert's loss, with the roundings of a per-round weight update.
    ``check(rows, mix, yhats, p)``, when given, reads each chunk's rounds
    ``rows`` of the stream, its mixture (n,), expert predictions and
    weights (n, N); the buffers are reused by the next chunk.  An error it
    raises is raised after the last round, so that a learner's error at
    any round comes first, as when the check followed the run.  Beside
    the chunk, the run holds three (T,) columns and (N,) sums.
    """
    betas = np.asarray(list(betas), dtype=float)
    if betas.size < 1:
        raise ValueError("need at least one base learner")
    experts = _Experts.fresh(stream.d, betas, lam, B, R)
    _check_labels(stream.y)
    T, N = stream.T, betas.size
    C = max(1, min(T, BLOCK_ROWS))
    expert_yhats = np.empty((C, N))
    # Row 0 carries the expert losses summed over earlier chunks and rows
    # 1..n take the chunk's losses, so one cumsum gives in row k < n the
    # sums C_t over rounds s < t for the chunk's k-th round t, and in row n
    # the next carry.  The carry joins the rows before the sum: added after
    # it, it would round differently from one sum over every round.
    sums = np.zeros((C + 1, N))
    yhats, mix_losses, best = np.empty(T), np.empty(T), np.empty(T)
    failure = None
    for lo in range(0, T, C):
        rows = slice(lo, min(lo + C, T))
        n = rows.stop - lo
        played = expert_yhats[:n]
        with np.errstate(over="ignore", invalid="ignore"):  # decide raises instead
            experts.run(stream.Z[rows], stream.y[rows], played)
        losses = sums[1:n + 1]
        np.copyto(losses, played)
        _loss("logistic", losses, stream.y[rows, None])
        np.min(losses, axis=1, out=best[rows])
        np.cumsum(sums[:n + 1], axis=0, out=sums[:n + 1])
        # log q_t = -C_t; with m_t = min_i C_t,i, log q_t - max_i log q_t
        # = m_t - C_t exactly
        p = sums[:n]
        np.subtract(p.min(axis=1, keepdims=True), p, out=p)
        np.exp(p, out=p)
        p /= p.sum(axis=1, keepdims=True)
        mix = yhats[rows]
        mix[:] = _mix(played, p)
        mix_losses[rows] = mix
        _loss("logistic", mix_losses[rows], stream.y[rows])
        if check is not None and failure is None:
            try:
                check(rows, mix, played, p)
            except Exception as exc:
                failure = exc
        sums[0] = sums[n]
    if failure is not None:
        raise failure
    # The carry adds each expert's losses in round order, as numpy sums a
    # (T, N) array over its rows; a (T, 1) array numpy sums pairwise, as it
    # does the best column, which at N = 1 is the one expert's losses.
    totals = sums[0].copy() if N > 1 else best.sum(keepdims=True)
    return EnsembleRun(
        stream=stream, yhats=yhats, mix_losses=mix_losses, best_expert_losses=best,
        expert_totals=totals,
    )


def ensemble_ledger(run: EnsembleRun) -> RegretLedger:
    """Ledger of the mixture's losses on the run's stream, undiscounted
    (beta = 1) and without a comparator term (the default lam = 0); its
    dynamic regret is the ensemble's."""
    return RegretLedger(run.mix_losses, 1.0, run.stream.Z, run.stream.y, "logistic")


def default_lam(B: float) -> float:
    """lam = 1/B^2, the regularizer AIOLI and the ensemble take by default.
    Raises ValueError naming B where that is not a positive finite float."""
    lam = 1.0 / (B * B) if B * B > 0.0 else 0.0
    if not 0.0 < lam < math.inf:
        raise ValueError(f"B: the default lam = 1/B^2 is not a positive finite float at B={B!r}")
    return lam


def build_grid(B: float, R: float, d: int, T: int) -> tuple[float, ...]:
    """Geometric pool of discount factors for learning beta:
    beta_i = eta_i/(1+eta_i), eta_i = 2^(i-1) eta_min.

    eta_min = sqrt(d(1+BR)/(CB)) with C = max(1, 2R), eta_max = dT,
    N = ceil(log2(eta_max/eta_min)) + 1, and N = 1 when eta_max < eta_min.
    Raises ValueError naming B and R when eta_min is not a positive finite
    float or a discount of the pool rounds to 1.
    """
    if min(B, R, d, T) <= 0:
        raise ValueError("B, R, d and T must be positive")
    C = max(1.0, 2.0 * R)
    eta_min = math.sqrt(d * (1.0 + B * R) / (C * B))
    if not 0.0 < eta_min < math.inf:
        raise ValueError(f"B: eta_min is not a positive finite float at B={B!r}, R={R!r}")
    eta_max = float(d * T)
    n = 1 if eta_max < eta_min else int(math.ceil(math.log2(eta_max / eta_min))) + 1
    etas = eta_min * 2.0 ** np.arange(n)
    betas = tuple(float(e / (1.0 + e)) for e in etas)
    if betas[-1] == 1.0:
        raise ValueError(
            f"B: the pool discount eta/(1+eta) rounds to 1 at eta={float(etas[-1])!r}, "
            f"B={B!r}, R={R!r}"
        )
    return betas
