"""Dynamic and discounted regret accounting.

Everything here is expressed in *discounted* form: quantities that are
naturally written with beta**(-s) factors are folded into beta**(t-s)
weights before any arithmetic, since beta**(-t) overflows for t around 700
already at beta = 0.9.

Central objects:

* ``RegretLedger``        the learner's losses f_t(x_t) plus the data that
  defines f_t at any point: features Z, labels y, a loss kind (``_loss`` of
  the margin z_t.u, as the learners' are) and phi = lam/2 |u|^2 (0 at lam = 0)
* ``dynamic_regret``      sum_t f_t(x_t) - f_t(u_t)
* ``d2d_identity_gap``    |LHS - RHS| of the conversion identity
      D-Reg = beta * sum_{t<T} (R_t(u_t) - R_t(u_{t+1}))
              + (1-beta) * sum_t R_t(u_t) + beta * R_T(u_T)
  over the discounted regrets R_t(u) = sum_{s<=t} beta^(t-s) (f_s(x_s) - f_s(u))
* ``path_variation``      P_T^g = sum_{t<T} sum_{s=0..t} p_{t,s} [f_s(u_{t+1}) - f_s(u_t)]_+
* ``ft_difference_term``  beta * sum_{t<T} (F_t(u_{t+1}) - F_t(u_t)), the
  F-difference of the reduction template that ``linreg.dvaw_bounds`` adds
  to the comparator term and the learner's stability terms.

``d2d_identity_gap`` and the F-differences behind ``ft_difference_term`` and
``check_path_length_lemma`` read Z and y through a block kernel whose
carried statistics only a squared-loss ledger has, and raise ``ValueError``
on a logistic one; the other evaluators take either kind.
The F-differences come from the comparator differences
D_t = sum_{s<=t} beta^(t-s) (f_s(u_{t+1}) - f_s(u_t)).  A round with
u_{t+1} == u_t (exact compare, NaN counts as a move) is stationary: its
term is exactly 0 for finite losses, so it is skipped and no loss is
evaluated.  The phi parts are one vectorized difference of lam/2 |u_t|^2
over the path.  Costs, for T rounds in d dimensions:

* the F-difference and the conversion identity take D_t, and the identity
  R_t(u_t), from one kernel in margin form: a block of k rounds over L rows
  contracts the rows with its round vectors, O(k L d), and carries one
  (d, d) G_l between blocks, O(L d^2 + k d^2).  A block holds as many rounds
  as keep its temporaries within 8192 floats: O(T d^2) time on a sparse
  path, O(T (k + d) d) on a path that moves every round (k = 37 at d = 20);
* ``path_variation``: O(t d) per moved round t (its positive part has no
  running form), so O(T^2 d) on a path that moves every round.  A block of
  k moved rounds (k = 32 at the budget) evaluates its k + 1 distinct
  comparators once, in one (k+1, d) @ (d, R) margin product per chunk of R
  rows, whose temporaries stay within the same 8192 floats (R = 114 at
  d = 20), and one gemv a chunk weights the rows that all its rounds read;
* ``check_path_length_lemma``: one scan for the moved rounds and one phi
  pass, shared by the F-difference and by the same blocks, which stop at
  the first block end whose partial sum of P_T certifies the inequality
  when an O(T d) test proves every term finite (the partial sums then never
  decrease); on the identity-rotating bench stream that is after 1472 of
  3999 moved rounds.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from driftlearn.streams import ComparatorPath, bound_holds, row_dots, write_csv

_LOSSES = ("squared", "logistic")


def _loss(kind: str, m: np.ndarray, y) -> np.ndarray:
    """The ``kind`` loss of margins ``m`` = z.u against labels ``y``, in ``m``.

    The square is r * r, not Python's float ** 2 (C pow, an ulp off on about
    0.1% of inputs); -(y*m) == (-y)*m, as rounding is sign-symmetric.
    """
    if kind == "squared":
        m -= y
        m *= m
        m *= 0.5
        return m
    m *= y
    np.negative(m, out=m)
    return np.logaddexp(0.0, m, out=m)


def _check_discounts(beta: float, gamma: float) -> None:
    """Raise unless 0 < beta <= gamma < 1, the hypothesis of every gamma-bound."""
    if not (0.0 < beta <= gamma < 1.0):
        raise ValueError(f"need 0 < beta <= gamma < 1, got beta={beta} gamma={gamma}")


@dataclass
class RegretLedger:
    """Per-round losses of a learner plus the data that defines f_t.

    losses_at_play  f_t(x_t) for t = 1..T.
    beta            discount factor in (0, 1].
    Z, y            (T, d) features and (T,) labels of the rounds.
    loss            "squared":  f_t(u) = (z_t.u - y_t)^2 / 2;
                    "logistic": f_t(u) = ln(1 + exp(-y_t z_t.u)).
    lam             phi(u) = lam/2 |u|^2 >= 0, the comparator term of every
                    round (f_0 of the path variation); lam = 0 is no term.

    ``loss_eval(t, u)``, ``loss_eval_batch(u)`` and ``path_losses(U)``
    give f_t(u), the row [f_1(u), ..., f_T(u)] and [f_1(u_1), ..., f_T(u_T)],
    all through ``_loss`` of the margins from ``streams.row_dots``, so every
    one of them gives the same f_t(u) bit for bit.  The evaluators below
    take every comparator row from ``self.path_losses``, and P_T^g takes its
    losses from ``self._loss`` of block margins of Z, once per distinct
    comparator and block, up to the lemma's early stop, so an instance may
    rebind either (to count rows, or to feed rows that disagree with Z and
    y).  The F-differences and the identity's right side read Z and y
    themselves, through margins within a block and discounted statistics
    carried between blocks, which only a squared-loss ledger has;
    ``d2d_identity_gap`` checks the one against the other.
    """

    losses_at_play: np.ndarray
    beta: float
    Z: np.ndarray
    y: np.ndarray
    loss: str
    lam: float = 0.0
    _beta_pows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.losses_at_play = np.asarray(self.losses_at_play, dtype=float)
        if not (0.0 < self.beta <= 1.0):
            raise ValueError(f"beta must lie in (0, 1], got {self.beta}")
        if self.loss not in _LOSSES:
            raise ValueError(f"loss must be one of {_LOSSES}, got {self.loss!r}")
        self.Z = np.asarray(self.Z, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.Z.ndim != 2 or self.Z.shape[0] != self.T or self.y.shape != (self.T,):
            raise ValueError("Z and y must have one row per round")
        if not (0.0 <= self.lam < math.inf):
            raise ValueError(f"lam must be >= 0 and finite, got {self.lam}")
        self._beta_pows = self.beta ** np.arange(self.T + 1, dtype=float)

    @property
    def T(self) -> int:
        return len(self.losses_at_play)

    def _loss(self, m: np.ndarray, y) -> np.ndarray:
        return _loss(self.loss, m, y)

    def loss_eval(self, t: int, u: np.ndarray) -> float:
        """f_t(u), t 1-based."""
        row = slice(t - 1, t)
        return float(self._loss(row_dots(self.Z[row], np.asarray(u)), self.y[row])[0])

    def loss_eval_batch(self, u: np.ndarray) -> np.ndarray:
        """[f_1(u), ..., f_T(u)]."""
        return self._loss(row_dots(self.Z, np.asarray(u)), self.y)

    def path_losses(self, U: np.ndarray) -> np.ndarray:
        """[f_1(u_1), ..., f_T(u_T)] for (T, d) comparators U."""
        return self._loss(row_dots(self.Z, U), self.y)


def _comparator_losses(ledger: RegretLedger, path: ComparatorPath) -> np.ndarray:
    """[f_1(u_1), ..., f_T(u_T)] from the ledger's ``path_losses``."""
    if path.T != ledger.T:
        raise ValueError(f"path length {path.T} != ledger length {ledger.T}")
    return np.ascontiguousarray(ledger.path_losses(path.U), dtype=float)


def dynamic_regret(ledger: RegretLedger, path: ComparatorPath) -> float:
    """Cumulative loss of the learner minus that of the comparator path."""
    comp = _comparator_losses(ledger, path)
    # the builtin sum over the rows as Python floats, in round order, as the
    # per-round loop added them; the memoryview builds no list
    return float(ledger.losses_at_play.sum() - sum(memoryview(comp)))


def _moved_rounds(path: ComparatorPath) -> np.ndarray:
    """Rounds t in 1..T-1 with u_{t+1} != u_t; NaN entries count as moves."""
    return np.flatnonzero(np.any(path.U[1:] != path.U[:-1], axis=1)) + 1


def _peak(a: np.ndarray) -> float:
    """max |a| (0 when empty), nan if a holds one; builds no temporary."""
    return max(float(a.max(initial=0.0)), -float(a.min(initial=0.0)))


# Floats of a block's temporaries, for k rounds over L rows: k L for the
# weights and for each of the two margin arrays it holds at once, 2 L for
# the taper of the weights, d L for the weighted rows that advance the
# carried statistics and 4 k d for its vectors.  numpy stages the broadcast
# of y into a margin array in a buffer as large as that array, so y comes
# off the first margin array before the second is made.  A block holds as
# many rounds as fit, at least 1.
_BLOCK_FLOATS = 8192


def _margin_blocks(ledger: RegretLedger, U: np.ndarray, rounds: np.ndarray | range,
                   diag: bool):
    """Yield (b, D, R) for blocks ``rounds[b]`` of increasing rounds t_j.

    D[j] = sum_{s<=t_j} beta^(t_j-s) (f_s(v) - f_s(w)) with v = u_{t_j+1} and
    w = u_{t_j}, for the t_j < T, in the product form
    (z_s.(v-w)) (z_s.(v+w)/2 - y_s), where nothing cancels as it would in a
    difference of two losses.  With ``diag``, R[j] = R_{t_j}(u_{t_j}), the
    discounted play sum less sum_{s<=t_j} beta^(t_j-s) f_s(u_{t_j}); else R
    is None.

    A block spans the rows (l, t_k] after the last round l of the block
    before.  Those rows enter through their margins with the block's
    vectors, one (k, L) product per vector set, weighted by the
    lower-triangular beta^(t_j-s).  The rows up to l enter through
    G_l = sum_{s<=l} beta^(l-s) z_s z_s', h_l, c_l and P_l (the same sums of
    y_s z_s, y_s^2 and f_s(x_s)), decayed by beta^(t_j-l), since
    sum_{s<=l} beta^(l-s) f_s(u) = u'G_l u/2 - u'h_l + c_l/2; the block
    advances them to t_k with one (d, L) @ (L, d) product.

    A weight multiplies a margin before any other factor does, so a zero
    weight meets only finite values, as long as the margins, y_s and
    f_s(x_s) are.  A block ends before a row past its first round where a
    bound on them overflows, whose zero weight would give the earlier rounds
    0*inf = nan.
    """
    if ledger.loss != "squared":
        raise ValueError(f"running statistics need a squared loss, got loss={ledger.loss!r}")
    Z, y = ledger.Z, ledger.y
    play, pows = ledger.losses_at_play, ledger._beta_pows
    T, d = Z.shape
    with np.errstate(over="ignore", invalid="ignore"):  # a false alarm only cuts
        # |z_s.x| <= |z_s| sqrt(d) max|x|, and the kernel's vectors x have
        # entries of at most 2 max|U| (v - w); a factor 2 more covers roundoff.
        # A non-finite U makes every sum that reads it non-finite: no bound
        scale = _peak(U)
        reach = np.sqrt(np.einsum("sa,sa->s", Z, Z))
        reach *= 4.0 * math.sqrt(d) * (scale if math.isfinite(scale) else 0.0)
        reach += y
        reach += play
        cuts = np.append(np.flatnonzero(~np.isfinite(reach)), T) + 1
    del reach  # T floats that the blocks need not hold
    G, h, c, P = np.zeros((d, d)), np.zeros(d), 0.0, 0.0
    # k rounds over L rows cost per_row[k-1] * L + fixed[k-1] floats; as L >= k,
    # that is at least 3 k^2, so no more than len(ks) rounds fit
    ks = np.arange(1, max(1, math.isqrt(_BLOCK_FLOATS // 3)) + 1)
    per_row, fixed = 3 * ks + d + 2, 4 * d * ks
    i = last = 0
    while i < len(rounds):
        t = np.asarray(rounds[i : i + len(ks)])
        cost = per_row[: len(t)] * (t - last) + fixed[: len(t)]
        cut = cuts[np.searchsorted(cuts, t[0], "right")]  # first past t_1, or T + 1
        k = max(1, min(np.searchsorted(cost, _BLOCK_FLOATS, "right"), np.searchsorted(t, cut)))
        t, b = t[:k], slice(i, i + k)
        lag, L = t - last, int(t[-1]) - last
        Zr, yb, pb = Z[last : last + L].T, y[last : last + L], play[last : last + L]
        # row r of the view is taper[r : r + L], beta^(L-1-r-s) then zeros: row
        # L - (t_j - l) holds round t_j's weights beta^(t_j-s) over its rows
        taper = np.zeros(2 * L - 1)
        taper[:L] = pows[L - 1 :: -1]
        W = np.ndarray((L, L), buffer=taper, strides=2 * taper.strides)[L - lag]
        decay = pows[lag]
        n = np.searchsorted(t, T)  # the rounds t_j < T have a u_{t_j+1}
        u = U[t - 1]
        mid = U[t[:n]]
        step = mid - u[:n]
        mid += u[:n]
        mid *= 0.5
        B = mid @ Zr
        B -= yb  # before A exists: numpy's buffer for yb is as large as B
        A = step @ Zr
        A *= W[:n]
        D = row_dots(A, B)
        del A, B  # a block holds two margin arrays at once
        # nothing is carried into the first block: its zero G would give an
        # infinite comparator inf * 0 = nan, which no later block gives
        if last:
            D += decay[:n] * row_dots(step, mid @ G - h)
        R = None
        if diag:
            M = u @ Zr
            M -= yb
            loss = 0.5 * row_dots(W * M, M)
            del M
            if last:
                loss += decay * (row_dots(u, 0.5 * (u @ G) - h) + 0.5 * c)
            R = decay * P + W @ pb - loss
        yield b, D, R
        i, last = i + k, last + L
        if i < len(rounds):
            ZW = Zr * W[-1]  # W[-1] = beta^(t_k-s) over every row of the block
            G = pows[L] * G + ZW @ Zr.T
            h = pows[L] * h + ZW @ yb
            c = pows[L] * c + (W[-1] * yb) @ yb
            P = pows[L] * P + W[-1] @ pb


def _phi_differences(lam: float, U: np.ndarray, moved: np.ndarray) -> np.ndarray:
    """phi(u_{t+1}) - phi(u_t) at the moved rounds t, for phi(u) = lam/2 |u|^2.

    Exact zeros at lam = 0, even at an infinite u; else each phi(u_t) is
    (lam/2) * (u_t @ u_t), the per-row Python expression bit for bit (see
    ``row_dots``), and an overflow gives inf and inf - inf nan, unwarned.
    """
    if lam == 0.0:
        return np.zeros(len(moved))
    with np.errstate(over="ignore", invalid="ignore"):
        phi = row_dots(U, U)
        phi *= 0.5 * lam
        return phi[moved] - phi[moved - 1]


def _moves(ledger: RegretLedger, path: ComparatorPath) -> tuple[np.ndarray, np.ndarray]:
    """The moved rounds of ``path`` and ``_phi_differences`` at them; checks its length."""
    if path.T != ledger.T:
        raise ValueError(f"path length {path.T} != ledger length {ledger.T}")
    moved = _moved_rounds(path)
    return moved, _phi_differences(ledger.lam, path.U, moved)


def _ft_difference(
    ledger: RegretLedger, U: np.ndarray, moved: np.ndarray, phi_steps: np.ndarray
) -> float:
    """beta * sum over the moved rounds t of F_t(u_{t+1}) - F_t(u_t).

    F_t(u) = beta^t phi(u) + sum_{s<=t} beta^(t-s) f_s(u): each round adds
    the kernel's D_t and beta^t times its ``phi_steps`` entry, which at
    lam = 0 is an exact 0 (it still turns a -0.0 into 0.0).
    """
    diffs = np.empty(len(moved))
    for b, D, _ in _margin_blocks(ledger, U, moved, False):
        diffs[b] = D
    diffs += phi_steps * ledger._beta_pows[moved]
    return ledger.beta * float(diffs.sum())


def d2d_identity_gap(ledger: RegretLedger, path: ComparatorPath) -> float:
    """|LHS - RHS| of the discounted-to-dynamic conversion identity.

    The identity holds exactly for any horizon, discount and comparator
    sequence; the returned gap is float roundoff only.  The LHS sums the
    ledger's ``path_losses`` rows f_t(u_t).  The RHS reads Z and y through
    the block kernel, as
    (1-beta) sum_t R_t(u_t) + beta R_T(u_T) + beta sum_{t<T} D_t,
    since R_t(u_t) - R_t(u_{t+1}) is the loss difference D_t exactly (0 at a
    stationary round), so the two sides are evaluated independently.  The
    ledger must be a squared-loss one.
    """
    beta, T = ledger.beta, ledger.T
    lhs = dynamic_regret(ledger, path)  # checks the path length
    diag, diffs = np.empty(T), np.empty(T - 1)
    for b, D, R in _margin_blocks(ledger, path.U, range(1, T + 1), True):
        diag[b], diffs[b] = R, D  # the slice of diffs stops at T - 1
    rhs = (1.0 - beta) * diag.sum() + beta * diag[-1]
    rhs += beta * diffs.sum()
    return abs(lhs - rhs)


def _chunk_rows(k: int, d: int) -> int:
    """Rows of a chunk of P_T^g for a block of k moved rounds in d dimensions.

    A chunk holds the block's (k+1, d) comparators and its (k+1, rows)
    losses, whose differences overwrite them, and one array as large at
    once: the buffer of at most 8192 floats that numpy's broadcast of y
    into them takes, or the weights of the rounds that end inside it.
    """
    return max(1, (_BLOCK_FLOATS - (k + 1) * d) // (2 * k + 2))


def _positive_steps(ledger: RegretLedger, V: np.ndarray, a: int, b: int) -> np.ndarray:
    """[f_s(V[j+1]) - f_s(V[j])]_+ for rows s = a..b-1 (0-based), (len(V)-1, b-a).

    One (len(V), d) @ (d, b-a) product gives the margins and the ledger's
    ``_loss`` the losses, in place; the differences overwrite the rows they
    no longer need (numpy runs an output that trails its input unbuffered).
    """
    F = ledger._loss(V @ ledger.Z[a:b].T, ledger.y[a:b])
    up = np.subtract(F[1:], F[:-1], out=F[:-1])
    return np.maximum(up, 0.0, out=up)


def path_variation(ledger: RegretLedger, path: ComparatorPath, gamma: float) -> float:
    """Comparator variation through geometrically weighted loss differences.

    P_T^g = sum_{t=1}^{T-1} sum_{s=0}^{t} p_{t,s} [f_s(u_{t+1}) - f_s(u_t)]_+
    with p_{t,s} = gamma^(t-s) / sum_{r=0}^{t} gamma^(t-r).  The s = 0 term
    uses f_0 = phi, which is 0 on a ledger with lam = 0; the normalization
    runs over s = 0..t.  Only rounds
    with u_{t+1} != u_t are visited: a stationary round adds exactly 0.
    """
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    moved, steps = _moves(ledger, path)
    return float(_variation(ledger, path.U, moved, gamma, steps, None))


def _variation(
    ledger: RegretLedger, U: np.ndarray, moved: np.ndarray, gamma: float,
    phi_steps: np.ndarray, settles: Callable[[float], bool] | None,
) -> float:
    """P_T^g, or the first of its partial sums (0.0, then the sum after each
    block of moved rounds) that ``settles`` accepts; ``settles`` None reads
    the whole sum.

    ``phi_steps`` gives phi(u_{t+1}) - phi(u_t) at the moved rounds, the
    s = 0 term (exact zeros at lam = 0).  A block of moved rounds t_1 < ... <
    t_k reads its k + 1 distinct comparators against the rows s < t_k in
    chunks (``_positive_steps``).  The rounds that read a whole chunk take
    one gemv for it; a round that ends inside the chunk takes its own
    weights, and its rows past t_j are set to 0 in its differences before
    any weight meets them.  Round t's normalizer sum_{r<=t} gamma^r is the
    powers through t_1 and a running sum after.  The block's terms enter
    the total in round order.
    """
    total = 0.0
    if settles is not None and settles(total):
        return total
    T, d = ledger.Z.shape
    k = max(1, math.isqrt(_BLOCK_FLOATS // 8))  # 32 at the module's budget
    # the last block is the smallest, and its chunks the longest
    pad = _chunk_rows(len(moved) - k * ((len(moved) - 1) // k), d)
    # q[i] = gamma^(T-1-i), then zeros for a window that runs past row T-1;
    # T + pad floats, not built when 0.0 settles
    q = np.zeros(T + pad)
    q[:T] = np.arange(T - 1, -1.0, -1.0)
    np.power(gamma, q[:T], out=q[:T])
    window = np.ndarray((T + 1, pad), buffer=q, strides=2 * q.strides)  # row o: q[o : o+pad]
    # a chunk also forms the losses of rows past a round's t_j, which may
    # overflow where no term reads them
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, len(moved), k):
            t = moved[i : i + k]
            # u_{t_1}, then u_{t_j+1}, which is u_{t_{j+1}}: the path holds
            # still between moves
            V = U[np.append(t[0] - 1, t)]
            sums = np.zeros(len(t))
            ends = t.tolist()
            last, rows = ends[-1], _chunk_rows(len(ends), d)
            for a in range(0, last, rows):
                b = min(a + rows, last)
                j = bisect.bisect_right(ends, a)  # the rounds t_j > a read rows from a
                n = bisect.bisect_left(ends, b)  # and those from n on all of a..b-1
                up = _positive_steps(ledger, V[j:], a, b)
                # round t_j weights row s (0-based) by gamma^(t_j-1-s): for
                # the rounds that read the whole chunk, gamma^(t_j-b) times
                # one gemv with gamma^(b-1-s)
                sums[n:] += q[T - 1 - t[n:] + b] * (up[n - j :] @ q[T - (b - a) : T])
                if n > j:  # the rounds t_j < b take q[T-t_j+s], and 0 past t_j
                    for m in range(j, n):
                        up[m - j, ends[m] - a :] = 0.0
                    sums[j:n] += row_dots(window[T - t[j:n] + a, : b - a], up[: n - j])
                del up  # the next chunk's losses are formed without these
            # sum_{r=0..t_j} gamma^r: the part up to t_1, then the powers that
            # each later round adds
            norms = np.cumsum(np.add.reduceat(q[:T], T - 1 - t[::-1])[::-1])
            sums += q[T - 1 - t] * np.maximum(phi_steps[i : i + k], 0.0)
            sums /= norms
            for term in sums.tolist():
                total += term
            if settles is not None and settles(total):
                break
    return total


def _terms_finite(ledger: RegretLedger, U: np.ndarray, phi_steps: np.ndarray) -> bool:
    """True when every term of P_T^g is provably finite, from O(T d) maxima.

    On a squared-loss ledger with finite Z, y and U, every residual is at
    most r = d max|z| max|u| + max|y| in size (the factor 2 below covers the
    dot's roundoff), so every loss and every difference of two is finite.
    """
    Z, y = ledger.Z, ledger.y
    r = Z.shape[1] * _peak(Z) * _peak(U) + _peak(y)
    return 2.0 * r * r < math.inf and bool(np.isfinite(phi_steps).all())


def ft_difference_term(ledger: RegretLedger, path: ComparatorPath) -> float:
    """beta * sum_{t=1}^{T-1} (F_t(u_{t+1}) - F_t(u_t)); may be negative.

    F_t(u) = beta^t phi(u) + sum_{s<=t} beta^(t-s) f_s(u), so each moved
    round adds D_t plus its phi difference; stationary rounds add nothing.
    """
    moved, steps = _moves(ledger, path)
    return _ft_difference(ledger, path.U, moved, steps)


def check_path_length_lemma(
    ledger: RegretLedger, path: ComparatorPath, beta: float, gamma: float
) -> bool:
    """beta * sum_{t<T}(F_t^b(u_{t+1}) - F_t^b(u_t)) <= gamma/(1-gamma) P_T^g,
    by :func:`~driftlearn.streams.bound_holds`.

    Requires 0 < beta <= gamma < 1 and nonnegative f_0..f_T; F_t^b includes
    the f_0 = phi term with weight beta^t.  P_T^g sums nonnegative terms, so
    while every term is finite its float partial sums never decrease, and
    the first one at a block end of ``_variation`` that satisfies the
    inequality settles it.  A nan
    term would make the full sum nan and the verdict False, so the check
    stops early only when ``_terms_finite`` proves there is none.

    Only the F-difference depends on beta: it runs on a new ledger at
    ``beta``, and P_T^g reads ``ledger`` itself.
    """
    _check_discounts(beta, gamma)
    moved, steps = _moves(ledger, path)
    lhs = _ft_difference(replace(ledger, beta=beta), path.U, moved, steps)
    c = gamma / (1.0 - gamma)

    def holds(P: float) -> bool:
        return bool(bound_holds(lhs, c * P))

    settles = holds if _terms_finite(ledger, path.U, steps) else None
    return holds(_variation(ledger, path.U, moved, gamma, steps, settles))


def regret_trace_csv(
    ledger: RegretLedger, path: ComparatorPath, out, header_comment: str | None = None
) -> None:
    """Write the CSV trace `t,loss_play,loss_comp,cum_dynreg` to the open
    text file ``out``; its columns are computed before the first line."""
    play = ledger.losses_at_play
    comp = _comparator_losses(ledger, path)
    with np.errstate(over="ignore", invalid="ignore"):  # as Python floats would
        cum = np.cumsum(play - comp) + 0.0  # a sum from 0.0 never reads -0.0
    write_csv(["loss_play", "loss_comp", "cum_dynreg"], [play, comp, cum], out, header_comment)
