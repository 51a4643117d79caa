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

Every learner here runs on one kernel over an expert axis: N learners
with their own discounts keep, each, the bordered matrix
[[A, ., .], [w', inf, .], [z', 0, inf]], with the expert axis last so
that the update runs on contiguous memory.  A round makes one stacked
Cholesky factorization of these matrices, whose last two rows are
L^{-1}w and L^{-1}z for A = L L' (the bordered Cholesky of Golub and Van
Loan, Matrix Computations, sec. 4.2): p and q are their dot products, and
the factor's A block checks that A has not turned indefinite.  Then one
scalar root per expert, and the update of A and w, which are one block of
rows scaled by one multiply.  The rounds of a block of L go into one
buffer of L + 2 bordered states, row 1 holding the state the block starts
from and row 0 the one before it; the inf entries are written once a
buffer and the features once a block.  Round t's factor checks A_{t-1},
so a matrix that turned indefinite at round t is reported before anything
a later round raises, and only the last state, which no round reads, gets
a factorization of its own, once a runner.  L is set by a private byte
budget, and results do not depend on it.  The LAPACK call goes to numpy's
gufunc directly: at these small stacks the public wrapper costs more than
the gufunc.  A factor that holds a nan goes to
``streams._first_rejected``, which names the first expert whose A LAPACK
rejects.  A failure keeps the name the LU solve the factor replaced gave
it: the decision of the round that made the rejected A, or of the round
that overflowed, is solved again, and a singular A or a q < 0 there names
the statistics ill-conditioned, whose remedy is to rescale the stream.
Only a failed round pays for that solve.  The discount ensemble advances
its N experts this way and ``run_aioli`` is the N = 1 case; those two
runners are the only drivers of the stack.  The roots stay scalar, one
``solve_optimism_root`` call per expert and round: they take a few Newton
steps each, and a masked Newton over the expert axis would pay numpy's
fixed cost per call on every step for only N elements.

Only the learner state is sequential.  ``run_ensemble`` advances the
expert stack a chunk of ``streams.BLOCK_ROWS`` rounds at a time into one
(chunk, N) buffer of predictions, and folds each chunk into the expert
losses, the exponential weights, the mixture and its losses before the
next: the weights carry the (N,) losses summed over earlier chunks, so
the run holds no (T, N) array.  ``run_aioli`` rebuilds each block's
decisions and stationarity residuals from the block's states, factored
again in one stacked call, and takes its discounted stability sums and
beta^t after the loop.  Every loss at play is ``regret._loss`` of the
predictions, as the ledgers' are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from driftlearn.regret import RegretLedger, _check_discounts, _loss, path_variation
from driftlearn.streams import (BLOCK_ROWS, ComparatorPath, Stream, _first_rejected,
                                _umath_linalg, bound_holds, discounted_scan, row_dots)

ROOT_MAX_ITERS = 200

# Multiplies x into the stack [-x, x]; see _sigmoid_pm.
_MINUS_PLUS = np.array([-1.0, 1.0])
_TINY = np.finfo(float).tiny
# Bytes of one (L, N, d+2, d+2) stack of bordered expert states; a block of
# the learner loop holds L = max(1, this // (8 N (d+2)^2)) rounds.  Its
# working set is that stack, one round's factor and O(L d^2) floats of
# products and, in run_aioli, the residuals' factor of the block's states.
_BLOCK_BYTES = 1 << 15


def __getattr__(name: str):
    # bench/tracing.py counts factorizations by wrapping logreg.cho_factor,
    # which nothing here calls; scipy is imported only when the name is read.
    # ROADMAP item 0 moves that probe to _umath_linalg.cholesky_lo, times the
    # stack length: one bordered factorization an expert-round, one check
    # of the last state a runner call, and in run_aioli one stacked factor
    # of each block's states for the residuals (np.linalg.cholesky runs
    # only on a failed stack).
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


def _lu_failure(M: np.ndarray, beta: np.ndarray) -> tuple[tuple, int] | None:
    """The failure an LU solve finds in a round's decision, and the expert
    it names, or None.  ``M`` (N, d+2, d+2) holds each expert's bordered
    state (A, w, z) and ``beta`` the (N,) discounts: p = z'A^{-1}w and
    q = z'A^{-1}z/beta from one solve of A against [w, z].  A p or q that
    is not finite is an overflow, or the first singular A's ill
    conditioning; a q < 0 (A is positive definite, so only roundoff gives
    one) is ill conditioning too.  Only a failed round calls this."""
    d = M.shape[-1] - 2
    A, rhs, z = M[:, :d, :d], M[:, d:, :d].transpose(0, 2, 1), M[0, d + 1, :d]
    sol = _umath_linalg.solve(A, rhs)
    p = sol[:, :, 0] @ z
    q = (sol[:, :, 1] / beta[:, None]) @ z
    ps, qs = p.tolist(), q.tolist()
    if not all(map(math.isfinite, ps + qs)):
        rejected = _first_rejected(np.linalg.solve, sol, A, rhs)
        if rejected is not None:
            return _ILL_CONDITIONED, rejected[0]
        return _OVERFLOWED, next(
            i for i, pq in enumerate(zip(ps, qs)) if not all(map(math.isfinite, pq)))
    if min(qs) < 0.0:
        return _ILL_CONDITIONED, qs.index(min(qs))
    return None


@dataclass
class _Experts:
    """N discounted-AIOLI learners on one stream, advanced together; the one
    AIOLI state, driven by ``run_aioli`` (N = 1) and ``run_ensemble``.

    ``S`` holds expert i's bordered matrix [[A, ., .], [w', inf, .],
    [z', 0, inf]] in ``S[:, :, i]``, the expert axis last, so that an
    update over all experts runs on contiguous memory; ``M`` is the
    (N, d+2, d+2) view LAPACK factors, of which only the lower triangle
    is read (the upper one holds zeros).  ``A`` is the regularized
    surrogate curvature Atilde_t = lam beta^t I + sum beta^(t-s) eta_s
    g_s g_s', carried as A_t = beta A_{t-1} + eta_t g_t g_t' from
    A_0 = lam I; ``w`` holds the negated discounted linear coefficients of
    the surrogates (constant terms are dropped, they do not move the
    argmin), and z is the feature the next :meth:`decide` reads.  ``A``
    (N, d, d) and ``w`` (N, d) are views of ``S``; ``beta`` holds the (N,)
    discounts, ``scale`` = 1 + BR, ``t`` the rounds absorbed and ``prev``
    the state the last of them decided from.  A round costs one stacked
    Cholesky factorization of ``M`` through numpy's LAPACK gufunc, which
    gives p and q and checks A, one scalar optimism root per expert and
    the update, which writes A_t and w_t into the next row of :meth:`run`'s
    block buffer and makes it the state.  The expert whose A LAPACK
    rejected is named by ``streams._first_rejected``, unless an LU solve
    of the decision that made it fails first (:meth:`_fail`).  After
    :meth:`run`, ``S`` and ``prev`` are arrays of their own.
    """

    beta: np.ndarray
    scale: float
    S: np.ndarray
    t: int = 0
    # the state the last round absorbed decided from, which _fail reads
    prev: np.ndarray | None = field(default=None, repr=False)
    # beta over the rows of A and w, as many entries as they hold: the
    # update's multiply then broadcasts nothing, which at these sizes halved
    # its cost and drops numpy's buffer of the broadcast
    beta_rows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        e = len(self.S)
        self.beta_rows = np.broadcast_to(self.beta, (e - 1, e, self.beta.size)).copy()

    @property
    def M(self) -> np.ndarray:
        return self.S.transpose(2, 0, 1)

    @property
    def A(self) -> np.ndarray:
        d = len(self.S) - 2
        return self.M[:, :d, :d]

    @property
    def w(self) -> np.ndarray:
        d = len(self.S) - 2
        return self.M[:, d, :d]

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
        S = np.zeros((d + 2, d + 2, betas.size))
        S[:d, :d] = lam * np.eye(d)[:, :, None]
        S[d, d] = S[d + 1, d + 1] = np.inf
        return cls(beta=betas, scale=1.0 + B * R, S=S)

    def run(
        self, Z: np.ndarray, y: np.ndarray, yhats: np.ndarray,
        c2q: np.ndarray | None = None, settle=None,
    ) -> None:
        """Advance every expert over the rounds (Z, y), ``y`` the (T,)
        labels, which the runners have checked with :func:`_check_labels`.

        Round t writes the (N,) predictions into ``yhats[t]`` and, when
        ``c2q`` is given, c2 q into ``c2q[t]`` (both (T, N) arrays).  The
        rounds go in blocks of L, each written into one buffer ``Ss`` of
        (L+2, d+2, d+2, N) states: row k >= 1 holds A and w after the
        block's (k-1)-th round and the feature of the round after it, row 1
        the state the block starts from and row 0 the one before it, which
        :meth:`_fail` reads.  The inf entries are written once a buffer,
        the features once a block.  At a block's end ``settle(lo, Ss)``,
        when given, reads the states the block's rounds decided from, rows
        1..n, its first round lo + 1 of this call.  Round t's factor checks
        A_{t-1}; the last A, which no round of this call reads, is the
        runners' to :meth:`check` after their last call.  Calls may follow
        one another on consecutive rounds; a failure names its round
        counted from the first call's, as ``t`` does.  The buffer lives for
        one call, so a caller's work between calls runs without it.
        """
        ys = map(float, y)
        T = len(Z)
        e, _, N = self.S.shape
        d = e - 2
        L = max(1, min(T, _BLOCK_BYTES // (8 * N * e * e)))
        Ss = np.zeros((L + 2, e, e, N))
        Ss[:, d, d] = Ss[:, d + 1, d + 1] = np.inf
        for lo in range(0, T, L):
            rounds = slice(lo, min(lo + L, T))
            n = rounds.stop - lo
            if self.prev is not None:
                Ss[0] = self.prev
                self.prev = Ss[0]
            Ss[1, :d + 1] = self.S[:d + 1]
            Ss[1:n + 1, d + 1, :d] = Z[rounds, :, None]
            self.S = Ss[1]
            self._block(Z[rounds], ys, Ss[2:n + 2], yhats[rounds],
                        None if c2q is None else c2q[rounds])
            if settle is not None:
                settle(lo, Ss[1:n + 1])
        self.S = self.S.copy()
        if self.prev is not None:
            self.prev = self.prev.copy()

    def check(self) -> None:
        """Check the last A, which no round has factored: the runners call
        this once, after their last :meth:`run`."""
        factor = _umath_linalg.cholesky_lo(self.A)
        if math.isnan(factor.sum()):
            self._fail(factor)

    def _block(
        self, Z: np.ndarray, ys: Iterator[float], Ss: np.ndarray,
        yhats: np.ndarray, c2q: np.ndarray | None,
    ) -> None:
        """The sequential core of :meth:`run`: the block's rounds, each a
        :meth:`decide` and an :meth:`absorb` into the next state of ``Ss``."""
        n, d = Z.shape
        # z z' in the first d columns of d + 2; einsum's products are
        # z[:, None] * z's, without its temporaries
        ZZ = np.zeros((n, d, d + 2))
        np.einsum("bi,bj->bij", Z, Z, out=ZZ[:, :, :d])
        # ys after Z: zip stops at the block's end without taking a label
        for z, zz, y, S, row, k in zip(Z, ZZ, ys, Ss, yhats, range(n)):
            q = self.decide(row)
            c2 = self.absorb(z, zz, y, row, S)
            if c2q is not None:
                c2q[k] = c2 * q

    def decide(self, out: np.ndarray) -> np.ndarray:
        """Write the (N,) predictions into ``out`` and return q (N,).

        Expert i's stationarity condition beta_i A_i x + tanh(v/2) z =
        beta_i w_i with v = z.x reduces to v + q_i tanh(v/2) = p_i with
        p_i = z'A_i^{-1}w_i and q_i = z'A_i^{-1}z/beta_i, so the root v_i
        is expert i's prediction z.x_i.  With A_i = L L', p_i = c_w.c_z and
        q_i = |c_z|^2/beta_i for the forward substitutions c_w = L^{-1}w_i
        and c_z = L^{-1}z, which one Cholesky factorization of the bordered
        ``M`` returns as its last two rows (Golub and Van Loan, sec. 4.2).
        The inf pivot of row d makes the entry coupling the two border rows
        0, so the border's pivots stay inf whatever |c_w| and |c_z| are, and
        q, a sum of squares, is never negative.  The factor's A block checks
        A_i: an A that LAPACK rejects raises ``RuntimeError``, and a p or q
        that is not finite ``ValueError``, before any root is sought.  The
        roots stay scalar, one :func:`solve_optimism_root` call per expert.
        The runners call this under one ``np.errstate`` that silences the
        overflow itself, and the invalid flag of a failed factor.
        """
        d = len(self.S) - 2
        factor = _umath_linalg.cholesky_lo(self.M)
        # [c_w.c_z, c_z.c_z] for every expert, in one stacked product
        pq = np.matmul(factor[:, d:, :d], factor[:, d + 1, :d, None])[:, :, 0]
        q = np.divide(pq[:, 1], self.beta, out=pq[:, 1])
        ps, qs = pq.T.tolist()
        if not all(map(math.isfinite, ps + qs)):  # cheaper than numpy at small N
            i = next(i for i, pq in enumerate(zip(ps, qs)) if not all(map(math.isfinite, pq)))
            self._fail(factor, i)
        out[:] = [solve_optimism_root(p, q) for p, q in zip(ps, qs)]
        return q

    def absorb(
        self, z: np.ndarray, zz: np.ndarray, y: float, yhats: np.ndarray, S: np.ndarray,
    ) -> np.ndarray:
        """Fold the revealed label into every expert's statistics.

        ``zz`` (d, d+2) holds the outer product z z' and two columns of
        zeros, and ``yhats`` are this round's :meth:`decide` predictions.
        Writes A_t = beta A + c2 z z' and w_t into the rows of ``S``, a
        state of the state's shape whose other entries the caller has
        written, makes it the state, and returns the curvature weights c2
        (N,).  With q from :meth:`decide`, c2 q/(1 + c2 q) is the stability
        increment c2 z'A_t^{-1}z (Sherman-Morrison), so it needs no second
        factorization.  Nothing here checks A_t: the next round's factor
        does.
        Callers silence the overflow flag, as the runners do.
        """
        s_pos, s_neg = _sigmoid_pm(y * yhats)
        c2 = s_pos * s_neg / self.scale
        d = len(z)
        # the rows of A and w are one contiguous block, scaled by one multiply
        np.multiply(self.beta_rows, self.S[:d + 1], out=S[:d + 1])
        # the products z_j z_k c2_i as one (d (d+2), 1) @ (1, N) matmul, each
        # entry one rounded product: a broadcast product took two more of
        # ufunc buffers, and an einsum costs more a call at small d
        S[:d] += (zz.reshape(-1, 1) @ c2[None]).reshape(S[:d].shape)
        S[d, :d] += z[:, None] * (y * s_neg + c2 * yhats)
        self.prev, self.S = self.S, S
        self.t += 1
        return c2

    def _fail(self, factor: np.ndarray, overflowed: int | None = None) -> None:
        """Raise for the failure ``factor``, a Cholesky factor of each
        expert's A or of its bordered ``M``, shows: the first expert whose A
        LAPACK rejected, or else expert ``overflowed``, whose p or q is not
        finite (None after the last round, where a nan LAPACK accepts
        raises nothing).  A rejected A_t is round t's update, and the start
        A_0 is named at round 1, the first round that reads it; an overflow
        is the deciding round's.  That round's decision is refereed first by
        an LU solve, as the learner once made it: a singular system or a
        q < 0 there, on a badly scaled stream, names the statistics
        ill-conditioned, for the first expert the LU solve fails."""
        rejected = _first_rejected(np.linalg.cholesky, factor, self.A)
        if rejected is not None:
            t, i, failure = max(self.t, 1), rejected[0], _INDEFINITE
            M = self.M if self.prev is None else self.prev.transpose(2, 0, 1)
        elif overflowed is not None:
            t, i, failure, M = self.t + 1, overflowed, _OVERFLOWED, self.M
        else:
            return
        failure, i = _lu_failure(M, self.beta) or (failure, i)
        error = RuntimeError if failure is _INDEFINITE else ValueError
        raise error(self._failure(i, failure, t))

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

    def settle(lo: int, Ss: np.ndarray) -> None:
        rounds = slice(lo, lo + len(Ss))
        resid[rounds] = _residuals(Ss[:, :, :, 0], yhats[rounds, 0], beta)

    with np.errstate(over="ignore", invalid="ignore"):  # decide raises instead
        experts.run(stream.Z, stream.y, yhats, c2q, settle)
        experts.check()
    yhats, c2q = yhats[:, 0], c2q[:, 0]
    return AioliRun(
        stream=stream, beta=beta, lam=lam, B=B, R=R, yhats=yhats,
        losses_at_play=_loss("logistic", yhats.copy(), stream.y),
        stab_disc=discounted_scan(c2q / (1.0 + c2q), beta),
        beta_pows=np.cumprod(np.full(T, float(beta))), residuals=resid,
    )


def _residuals(Ms: np.ndarray, v: np.ndarray, beta: float) -> np.ndarray:
    """Stationarity residuals of one AIOLI learner over a block of k rounds.

    ``Ms`` (k, d+2, d+2) are the bordered states the block's rounds decided
    from, each holding (A_{t-1}, w_{t-1}, z_t), and ``v`` (k,) the
    predictions.  Round t's decision is x_t = A^{-1}(w - tanh(v_t/2) z/beta),
    the learner's own: with the round's factor A = L L', whose rows c_w and
    c_z one stacked factorization of ``Ms`` gives again at the same bits,
    x_t = L'^{-1}(c_w - tanh(v_t/2) c_z/beta), by an LU solve of the
    triangular L', which pivots nothing and so is a back substitution.  Its
    residual is the sup-norm of beta A x_t + tanh(z.x_t/2) z - beta w, read
    with the stored A and w.  (A solve of A itself, independent of the
    factor, disagrees with the learner by about cond(A) times the roundoff
    of p and q, which failed the 1e-9 check at beta = 0.01 on streams whose
    predictions were right to the last bits.)  Each step is the per-round
    formula's, elementwise or one LAPACK or dot call per round, so the
    residuals do not depend on the block.
    """
    d = Ms.shape[-1] - 2
    factor = _umath_linalg.cholesky_lo(Ms)
    u = np.divide(factor[:, d + 1, :d], beta)
    u *= np.tanh(0.5 * v)[:, None]
    u = np.subtract(factor[:, d, :d], u, out=u)
    X = _umath_linalg.solve(factor[:, :d, :d].transpose(0, 2, 1), u[:, :, None])[:, :, 0]
    del factor, u  # before the residual's arrays: four (k, d) arrays at a time
    A, w, Z = Ms[:, :d, :d], Ms[:, d, :d], Ms[:, d + 1, :d]
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


def theorem_dynamic_bound(
    run: AioliRun, ledger: RegretLedger, path: ComparatorPath, gamma: float
) -> float:
    """Dynamic-regret upper bound for a discounted-AIOLI run; ``ledger`` is
    the run's `logistic_ledger`, which gives P_T^gamma.

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
    pv = path_variation(ledger, path, gamma)
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
    with np.errstate(over="ignore", invalid="ignore"):
        experts.check()
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
