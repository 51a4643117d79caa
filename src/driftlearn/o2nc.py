"""Exponentiated online-to-non-convex driver around the Adam updates.

One run executes, per round t = 1..T,

    receive Delta_t from `adam.delta_for` (state holds g_1..g_{t-1}),
    x_t = x_{t-1} + s_t * Delta_t   with s_t = -ln(1 - r_t) ~ Exp(1) i.i.d.,
    g_t = grad F(x_t) plus bounded noise (see `run_o2nc`),
    fold g_t into the update state with `adam.adam_update`.

Only this part is sequential, and `_rounds` is its one loop, run once a
block of rounds.  A round makes those two calls into `adam` and one
`Objective.grad` call, and calls no other function written in Python; it
draws r_t, uniform on [0, 1), and the noise's d + 1 normals itself, in that
order, the normals into one buffer made before the loop.  It records s_t in
the trace's column, and Delta_t, g_t and grad F(x_t) in three buffers of
one block of rounds.  After each block `run_o2nc` takes |Delta_t| into a
column and computes the rest from the block's rows and three rows carried
from the block before, with the roundings of the per-round formulas: the
check |g_t| <= G, the dynamic-regret terms against the drifting comparator

    u_t = -D * a_t / |a_t|,   a_t = sum_{s<=t} beta^(t-s) grad F(x_s),

built from true gradients (synthetic objectives expose them; a zero
accumulator yields u_t = 0 and is counted), the iterates x_t, the running
averages

    xbar_t = (beta-beta^t)/(1-beta^t) xbar_{t-1} + (1-beta)/(1-beta^t) x_t,

with beta = beta1 (xbar_t by one `discounted_scan` a block with a discount
per row, from `ema_coefficients`), and the gradient norms at them.  The
rows are those of one pass over all T rounds, bit for bit.  The run holds
four T-length columns (s_t, |Delta_t|, the gradient norms at the averages
and the regret terms) and its checkpoints; everything else is one block's.
The loop takes one true gradient a round, at x_t; the gradients at a
block's xbar_t come from one `Objective.grad_rows` call after it.  The
returned point is drawn uniformly from the running averages.  Every few
blocks the run keeps a checkpoint, the Adam state, x_t, xbar_t and the
generator's state the block starts from, spaced so that they cost at most
8 bytes a round; of these only the last one before the drawn round outlives
the run, and the point is rebuilt from it on first read.  The full
gradient-norm trace is kept since it carries strictly more information
than the single draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Optional

import numpy as np

from driftlearn.adam import AdamConfig, AdamState, _norm, adam_update, delta_for
from driftlearn.streams import discounted_scan, philox_rng, row_dots, write_csv


class OracleBoundError(RuntimeError):
    """A stochastic gradient exceeded the declared Lipschitz bound."""


@dataclass(frozen=True)
class Objective:
    """Deterministic objective with true gradients available.

    ``grad_rows`` maps a (T, d) array to the (T, d) array of ``grad`` at each
    row, bit for bit.
    """

    name: str
    dim: int
    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    lipschitz: float
    grad_rows: Callable[[np.ndarray], np.ndarray]


def clamped_quadratic(dim: int, radius: float = 1.0) -> Objective:
    """|x|^2/2 inside |x| <= radius, linear continuation outside.

    The gradient is x clipped to norm ``radius``, so the objective is
    radius-Lipschitz and 1-smooth everywhere.
    """

    def value(x: np.ndarray) -> float:
        r = _norm(x)
        if r <= radius:
            return 0.5 * r * r
        return radius * r - 0.5 * radius * radius

    def grad(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        r = _norm(x)
        if r <= radius or r == 0.0:
            return x.copy()
        return (radius / r) * x

    def grad_rows(X: np.ndarray) -> np.ndarray:
        r = _row_norms(X)
        scaled = ~(r <= radius) & (r != 0.0)  # grad's branches; a nan norm scales
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.multiply((radius / r)[:, None], X, out=X.copy(), where=scaled[:, None])

    return Objective("clamped-quadratic", dim, value, grad, radius, grad_rows)


def euclidean_norm(dim: int) -> Objective:
    """F(x) = |x|; non-smooth at the origin, 1-Lipschitz."""

    def value(x: np.ndarray) -> float:
        return _norm(x)

    def grad(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        r = _norm(x)
        if r == 0.0:
            return np.zeros(dim)
        return x / r

    def grad_rows(X: np.ndarray) -> np.ndarray:
        r = _row_norms(X)
        live = (r != 0.0)[:, None]
        with np.errstate(invalid="ignore"):  # inf/inf, as grad's x / r gives
            return np.divide(X, r[:, None], out=np.zeros_like(X), where=live)

    return Objective("euclidean-norm", dim, value, grad, 1.0, grad_rows)


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

    def grad_rows(X: np.ndarray) -> np.ndarray:
        # one gemv a row, the product grad's A @ x makes; X @ A.T rounds otherwise
        scores = np.matmul(A, X[:, :, None])[:, :, 0]
        scores += b
        return A[np.argmax(scores, axis=1)]

    return Objective("max-affine", dim, value, grad, G, grad_rows)


OBJECTIVES = {
    "quadratic": clamped_quadratic,
    "norm": euclidean_norm,
    "maxaffine": max_affine,
}


def ema_coefficients(beta: float, stop: int, start: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(beta-beta^t)/(1-beta^t) and (1-beta)/(1-beta^t), the running average's
    coefficients of xbar_{t-1} and x_t, for t = start+1..stop: the rows
    [start:stop] of the coefficients of the rounds 1..stop, bit for bit.
    beta^t is Python's float power: ``np.power`` does not always give its
    bits."""
    powers = np.fromiter((beta**t for t in range(start + 1, stop + 1)), float, stop - start)
    return (beta - powers) / (1.0 - powers), (1.0 - beta) / (1.0 - powers)


def _row_norms(X: np.ndarray) -> np.ndarray:
    """[_norm(x) for x in X], bit for bit: the square root of one batched row
    dot, with `_norm` on the rows whose square is inf or nan.  Unless a
    square is, it makes no array of len(X) entries but the result."""
    with np.errstate(over="ignore", invalid="ignore"):  # np.vdot warns of neither
        norms = row_dots(X, X)
        np.sqrt(norms, out=norms)
    if not norms.max(initial=0.0) < math.inf:  # an inf or a nan
        for i in np.flatnonzero(~np.isfinite(norms)):
            norms[i] = _norm(X[i])
    return norms


def _to_comparators(acc: np.ndarray, D: float) -> int:
    """Overwrite each row a_t of ``acc`` with u_t = -D a_t/|a_t|, and return
    the number of rows with |a_t| not > 0 (zero or nan), whose u_t is 0.

    u_t is (-D a_t)/|a_t| where D |a_t| is finite.  Elsewhere -D a_t may
    overflow, and u_t is (-D/|a_t|) a_t, which cannot.
    """
    norms = _row_norms(acc)
    live = norms > 0.0
    with np.errstate(over="ignore"):
        fits = live & (D * norms < math.inf)
    big = live & ~fits
    acc[big] = (-D / norms[big])[:, None] * acc[big]
    np.multiply(acc, -D, out=acc, where=fits[:, None])
    np.divide(acc, norms[:, None], out=acc, where=fits[:, None])
    acc[~live] = 0.0
    return int(np.count_nonzero(~live))


@dataclass
class O2ncTrace:
    """Diagnostic record of one driver run: four columns of T rows and the
    point the conversion returns.

    Delta_t, the iterates, the running averages and the comparators are not
    stored.  Delta_t lives one block of rounds, and the trace keeps its norm;
    x_t is the running sum of x0 and the rows s_t Delta_t, and u_t a function
    of the true gradients at them.  Of the running averages only the drawn
    one, ``xbar_final`` (the average at ``final_index``), is returned: it is
    rebuilt on first read by ``replay``, which runs the rounds from the
    run's last checkpoint before it again.  A trace built without a run
    passes ``replay=None`` and has no point.  The run's inputs, x0 among
    them, are the caller's.
    """

    scalings: np.ndarray         # s_t
    delta_norms: np.ndarray      # |Delta_t|: adam._norm's bits, as the clip takes them
    grad_norms_at_xbar: np.ndarray
    dynreg_terms: np.ndarray
    zero_comparators: int
    final_index: int             # uniform draw over 1..T (0-based here)
    replay: Optional[Callable[[], np.ndarray]] = field(repr=False, compare=False)

    @cached_property
    def xbar_final(self) -> np.ndarray:
        """The running average at ``final_index``, rebuilt on first read by
        running the rounds from the run's last checkpoint before it again,
        and kept."""
        return self.replay()

    def to_csv(self, out, header_comment: Optional[str] = None) -> None:
        """Write the CSV trace `t,s_t,||delta||,||grad_at_xbar||,dynreg_term`
        to the open text file ``out``."""
        header = ["s_t", "||delta||", "||grad_at_xbar||", "dynreg_term"]
        columns = [self.scalings, self.delta_norms, self.grad_norms_at_xbar, self.dynreg_terms]
        write_csv(header, columns, out, header_comment)


# Bytes of one (K, d) block buffer; a block of run_o2nc holds
# max(1, this // (8 d)) rounds.  A block's working set is its three
# buffers, Delta_t, g_t and grad F(x_t), and two (K, d) arrays more: its
# averages and the gradients at them.
_BLOCK_BYTES = 1 << 16

# Bytes of a checkpoint of run_o2nc beside its three points (the Adam
# state's m, x_t and xbar_t): the AdamState, the tuple and the Philox
# state, about 1.4 KB under tracemalloc.
_CHECKPOINT_OVERHEAD = 2048


def _block_rounds(d: int) -> int:
    """K, the rounds of one block of `run_o2nc` at dimension d."""
    return max(1, _BLOCK_BYTES // (8 * d))


def _checkpoint_rounds(d: int, K: int) -> int:
    """The rounds from one checkpoint of `run_o2nc` to the next, a whole
    number of its blocks of K rounds: the fewest at which a checkpoint,
    24 d bytes of points and its overhead, costs at most 8 bytes a round.
    So the checkpoints together weigh no more than one more T-length column,
    and the returned point is rebuilt from at most that many rounds."""
    blocks = -(-(24 * d + _CHECKPOINT_OVERHEAD) // (8 * K))
    return K * max(1, blocks)


def _rounds(
    cfg: AdamConfig, objective: Objective, sigma: float, state: AdamState, x: np.ndarray,
    rng: np.random.Generator, scalings: np.ndarray, deltas: np.ndarray, grads: np.ndarray,
    true_grads: np.ndarray,
) -> tuple[AdamState, np.ndarray]:
    """Run len(scalings) rounds from the Adam state ``state`` and the iterate
    ``x``, drawing from ``rng``, and return the state and the iterate after
    the last.  Round i writes its s_t, Delta_t, g_t and grad F(x_t) into row
    i of the four buffers.

    The sequential core of the run.  A round calls into adam twice and takes
    one true gradient, and calls no other function written in Python: the
    draws, s_t = -ln(1 - r) and then the noise's d + 1 normals, the norms
    (_norm's finite-square path) and the noise step are inline, on names
    bound once here.
    """
    grad, G, inf = objective.grad, objective.lipschitz, math.inf
    uniform, normal, sqrt, log, vdot = rng.random, rng.standard_normal, math.sqrt, math.log, np.vdot
    normals = np.empty(objective.dim + 1)
    direction = normals[:-1]
    for i in range(len(scalings)):
        delta = delta_for(cfg, state)
        s_t = -log(1.0 - uniform())
        x = x + s_t * delta
        true_g = grad(x)
        sq = vdot(true_g, true_g)
        gap = G - (sqrt(sq) if sq < inf else _norm(true_g))
        normal(out=normals)
        nd = sqrt(vdot(direction, direction))
        magnitude = min(sigma * abs(float(normals[-1])), max(gap, 0.0))
        g = true_g if nd == 0.0 or magnitude == 0.0 else true_g + (magnitude / nd) * direction
        state = adam_update(cfg, state, g)
        scalings[i] = s_t
        deltas[i] = delta
        grads[i] = g
        true_grads[i] = true_g
    return state, x


def _averages(
    beta: float, start: int, scalings: np.ndarray, deltas: np.ndarray, x: np.ndarray,
    xbar: np.ndarray,
) -> np.ndarray:
    """The running averages xbar_t of the rounds t = start+1..start+n, given
    their s_t and Delta_t and the iterate x and the average xbar of round
    ``start`` (x0 both at 0)."""
    c_prev, c_new = ema_coefficients(beta, start + len(scalings), start)
    xbars = scalings[:, None] * deltas  # x_t: the running sum of x and s_t Delta_t
    xbars[0] += x
    np.add.accumulate(xbars, axis=0, out=xbars)
    xbars *= c_new[:, None]
    return discounted_scan(xbars, c_prev, xbar, out=xbars)  # xbar_t, started from xbar


def _replay(
    cfg: AdamConfig, objective: Objective, sigma: float, K: int, start: int, index: int,
    checkpoint: tuple,
) -> np.ndarray:
    """xbar at round ``index`` (0-based) of a run of blocks of K rounds, by
    running its rounds start+1..index+1 again, a block at a time, from
    ``checkpoint``: the Adam state, the iterate, the average and the
    generator's state of round ``start``, the first of a block."""
    state, x, xbar, rng_state = checkpoint
    rng = np.random.Generator(np.random.Philox())
    rng.bit_generator.state = rng_state
    K, d = min(K, index + 1 - start), objective.dim
    scalings, deltas, scratch = np.empty(K), np.empty((K, d)), np.empty((K, d))
    for block in range(start, index + 1, K):
        n = min(K, index + 1 - block)
        # g_t and grad F(x_t) share one buffer: nothing reads them
        next_state, next_x = _rounds(cfg, objective, sigma, state, x, rng, scalings[:n],
                                     deltas[:n], scratch[:n], scratch[:n])
        xbar = _averages(cfg.beta1, block, scalings[:n], deltas[:n], x, xbar)[-1].copy()
        state, x = next_state, next_x
    return xbar


class _Diagnostics:
    """What `run_o2nc` computes from its rows, a block of K rounds at a time.

    A block's rows start from the accumulator a_t the block before carries
    and from the iterate and the average of the round before the block.  The
    first over-bound g_t and the first nan term are recorded, and once
    either is, nothing but the bound check runs: the run raises.
    """

    def __init__(self, cfg: AdamConfig, objective: Objective, T: int):
        self.cfg, self.objective = cfg, objective
        self.a = np.zeros(objective.dim)
        self.dynreg, self.grad_norms = np.empty(T), np.empty(T)
        self.zero_comparators = 0
        self.over: Optional[tuple[int, float]] = None  # (round index, |g_t|)
        self.nan: Optional[int] = None

    def absorb(self, start: int, scalings: np.ndarray, deltas: np.ndarray, grads: np.ndarray,
               true_grads: np.ndarray, x: np.ndarray, xbar: np.ndarray) -> np.ndarray:
        """Fold in the rounds start+1..start+n: their s_t and Delta_t, and
        their g_t and grad F(x_t), whose rows it overwrites, from the iterate
        ``x`` and the average ``xbar`` of round ``start``.  Return the average
        of round start+n; ``xbar`` itself once an error is recorded."""
        if self.over is not None:
            return xbar
        gnorms = _row_norms(grads)
        over = np.flatnonzero(gnorms > self.objective.lipschitz * (1.0 + 1e-9) + 1e-12)
        if len(over):
            self.over = start + int(over[0]), float(gnorms[over[0]])
        if self.over is not None or self.nan is not None:
            return xbar
        cfg, rows = self.cfg, slice(start, start + len(scalings))
        comparators = discounted_scan(true_grads, cfg.beta1, self.a, out=true_grads)  # a_t
        self.a = comparators[-1].copy()
        self.zero_comparators += _to_comparators(comparators, cfg.D)  # u_t
        with np.errstate(over="ignore", invalid="ignore"):  # silent, like per-row np.vdot
            if cfg.variant == "clip-free":
                extra = row_dots(deltas, deltas) - row_dots(comparators, comparators)
                extra *= 0.5 * cfg.mu
            np.subtract(deltas, comparators, out=comparators)
            dynreg = row_dots(grads, comparators)  # g_t.(Delta_t - u_t)
            if cfg.variant == "clip-free":
                dynreg += extra
        self.dynreg[rows] = dynreg
        nan = np.flatnonzero(np.isnan(dynreg))
        if len(nan):
            self.nan = start + int(nan[0])
            return xbar
        xbars = _averages(cfg.beta1, start, scalings, deltas, x, xbar)
        self.grad_norms[rows] = _row_norms(self.objective.grad_rows(xbars))
        return xbars[-1].copy()

    def check(self) -> None:
        """Raise the first recorded error, the bound's before the nan's."""
        if self.over is not None:
            i, norm = self.over
            raise OracleBoundError(
                f"round {i + 1}: |g|={norm} exceeds declared bound G={self.objective.lipschitz}"
            )
        if self.nan is not None:
            raise ValueError(
                f"round {self.nan + 1}: the dynamic-regret term is nan (its products overflow)"
            )


def run_o2nc(
    cfg: AdamConfig, objective: Objective, sigma: float, T: int, seed: int, x0: np.ndarray
) -> O2ncTrace:
    """Execute the conversion loop on ``objective`` for ``T`` rounds from
    ``x0``, a point of shape (d,) (ValueError before the first round
    otherwise).

    Each round's stochastic gradient is unbiased with bounded noise: its
    direction is uniform on the sphere and its magnitude is
    min(sigma * |N(0,1)|, G - |grad F(x)|), which keeps |g| <= G almost
    surely while preserving zero-mean noise; the cap slightly reduces the
    effective variance.  One draw of d + 1 standard normals gives the
    direction and then the magnitude's normal, the same values as a draw of
    d followed by a draw of one.  A zero direction or magnitude gives the
    true gradient itself.

    Raises OracleBoundError naming the first round whose |g_t| exceeds the
    objective's declared Lipschitz bound, and ValueError naming the first
    round whose dynamic-regret term is nan; the checks run on the recorded
    rows, so such a run still takes all T rounds first.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    d = objective.dim
    x0 = np.array(x0, dtype=float)  # a copy: the first block's checkpoint holds it
    if x0.shape != (d,):
        raise ValueError(f"x0 must have the shape ({d},) of one point, got {x0.shape}")
    rng = philox_rng(seed)

    # The rounds run a block at a time through `_rounds`; everything else is
    # computed from a block's rows after it.  Of the rows only s_t and
    # |Delta_t| are kept, as columns; Delta_t, g_t and grad F(x_t) live one
    # block.  A checkpoint is kept before every R rounds' block until the
    # returned round is drawn, and then only the last one before it.
    K = min(T, _block_rounds(d))
    R = _checkpoint_rounds(d, K)
    scalings, delta_norms = np.empty(T), np.empty(T)
    deltas, grads, true_grads = np.empty((K, d)), np.empty((K, d)), np.empty((K, d))
    diagnostics = _Diagnostics(cfg, objective, T)
    state, x, xbar = AdamState.fresh(d), x0, x0
    checkpoints: list[tuple[AdamState, np.ndarray, np.ndarray, dict]] = []
    for start in range(0, T, K):
        n = min(K, T - start)
        rows = slice(start, start + n)
        if start % R == 0:
            checkpoints.append((state, x, xbar, rng.bit_generator.state))
        block_x = x
        state, x = _rounds(cfg, objective, sigma, state, x, rng, scalings[rows], deltas[:n],
                           grads[:n], true_grads[:n])
        delta_norms[rows] = _row_norms(deltas[:n])
        xbar = diagnostics.absorb(start, scalings[rows], deltas[:n], grads[:n], true_grads[:n],
                                  block_x, xbar)
    final_index = int(rng.integers(T))
    diagnostics.check()
    replay = partial(_replay, cfg, objective, sigma, K, final_index - final_index % R,
                     final_index, checkpoints[final_index // R])
    return O2ncTrace(
        scalings=scalings, delta_norms=delta_norms, grad_norms_at_xbar=diagnostics.grad_norms,
        dynreg_terms=diagnostics.dynreg, zero_comparators=diagnostics.zero_comparators,
        final_index=final_index, replay=replay,
    )
