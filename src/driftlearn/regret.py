"""Dynamic and discounted regret accounting.

Everything here is expressed in *discounted* form: quantities that are
naturally written with beta**(-s) factors are folded into beta**(t-s)
weights before any arithmetic, since beta**(-t) overflows for t around 700
already at beta = 0.9.

Central objects:

* ``dynamic_regret``      sum_t f_t(x_t) - f_t(u_t)
* ``discounted_regret``   R_t(u) = sum_{s<=t} beta^(t-s) (f_s(x_s) - f_s(u))
* ``d2d_identity_gap``    |LHS - RHS| of the conversion identity
      D-Reg = beta * sum_{t<T} (R_t(u_t) - R_t(u_{t+1}))
              + (1-beta) * sum_t R_t(u_t) + beta * R_T(u_T)
* ``path_variation``      P_T^g = sum_{t<T} sum_{s=0..t} p_{t,s} [f_s(u_{t+1}) - f_s(u_t)]_+
* ``modular_bound_rhs``   the computable right-hand side of the template
  bound driven by a comparator regularizer phi and stability terms.

The F-differences behind ``ft_difference_term``, ``modular_bound_rhs`` and
``check_path_length_lemma`` come from one kernel over the comparator
differences D_t = sum_{s<=t} beta^(t-s) (f_s(u_{t+1}) - f_s(u_t)).  A round
with u_{t+1} == u_t (exact compare, NaN counts as a move) is stationary:
its term is exactly 0 for finite losses, so it is skipped and no loss is
evaluated.  Costs, for T rounds in d dimensions:

* squared-loss ledgers (``squared_loss`` set): the F-difference and the
  conversion identity carry the running statistics G_t = beta G_{t-1} +
  z_t z_t' and h_t = beta h_{t-1} + y_t z_t, O(T d^2) time and O(d^2)
  memory besides the per-round results;
* other ledgers: O(T) per moved round for the F-difference, O(T^2) for the
  conversion identity, both in O(T) memory;
* ``path_variation``: O(T d) per moved round for every ledger (its positive
  part has no running form), so O(T^2 d) on a path that moves every round.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from driftlearn.streams import ComparatorPath, csv_text, geometric_weights

LossEval = Callable[[int, np.ndarray], float]
PhiEval = Callable[[np.ndarray], float]
BatchLossEval = Callable[[np.ndarray], np.ndarray]


def row_dots(Z: np.ndarray, U: np.ndarray) -> np.ndarray:
    """[Z[0] @ U[0], ..., Z[T-1] @ U[T-1]] for (T, d) arrays.

    A stack of (1, d) @ (d, 1) products goes through the same dot kernel as
    ``Z[t] @ U[t]``, so every entry equals the per-row product bit for bit.
    """
    return np.matmul(Z[:, None, :], U[:, :, None])[:, 0, 0]


@dataclass
class RegretLedger:
    """Per-round losses of a learner plus evaluators of f_t at any point.

    losses_at_play  f_t(x_t) for t = 1..T.
    loss_eval       (t, u) -> f_t(u), t 1-based.
    beta            discount factor in (0, 1].
    phi_eval        optional u -> phi(u) >= 0, the comparator term of every round.
    lambdas         optional discounted stability terms; entry t-1 holds
                    beta^t * Lambda_t (suppliers fold the discount so the
                    ledger never sees a beta^(-t)).
    loss_eval_batch optional u -> array [f_1(u), ..., f_T(u)]; used to
                    vectorize the inner sums when available.
    path_losses     optional (T, d) comparators U -> array [f_1(u_1), ...,
                    f_T(u_T)], equal to ``loss_eval`` row by row; without
                    it the comparator losses take one ``loss_eval`` call
                    per round.
    squared_loss    optional (Z, y) marking f_t(u) = (u.z_t - y_t)^2 / 2;
                    the evaluators then use running discounted statistics
                    of Z and y in place of loss rows.  It must describe the
                    same losses as ``loss_eval``: ``d2d_identity_gap``
                    checks the one against the other.
    """

    losses_at_play: np.ndarray
    loss_eval: LossEval
    beta: float
    phi_eval: Optional[PhiEval] = None
    lambdas: Optional[np.ndarray] = None
    loss_eval_batch: Optional[BatchLossEval] = None
    path_losses: Optional[BatchLossEval] = None
    squared_loss: Optional[tuple[np.ndarray, np.ndarray]] = None
    _beta_pows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.losses_at_play = np.asarray(self.losses_at_play, dtype=float)
        if not (0.0 < self.beta <= 1.0):
            raise ValueError(f"beta must lie in (0, 1], got {self.beta}")
        if self.lambdas is not None:
            self.lambdas = np.asarray(self.lambdas, dtype=float)
            if self.lambdas.shape != self.losses_at_play.shape:
                raise ValueError("lambdas must have one entry per round")
            if np.any(self.lambdas < -1e-12):
                raise ValueError("stability terms must be nonnegative")
        if self.squared_loss is not None:
            Z, y = (np.asarray(a, dtype=float) for a in self.squared_loss)
            if Z.ndim != 2 or Z.shape[0] != self.T or y.shape != (self.T,):
                raise ValueError("squared_loss must be (Z, y) with one row per round")
            self.squared_loss = (Z, y)
        self._beta_pows = self.beta ** np.arange(self.T + 1, dtype=float)

    @property
    def T(self) -> int:
        return len(self.losses_at_play)

    def losses_at(self, u: np.ndarray, upto: Optional[int] = None) -> np.ndarray:
        """Array [f_1(u), ..., f_k(u)] with k = upto (default T)."""
        k = self.T if upto is None else upto
        if self.loss_eval_batch is not None:
            return self.loss_eval_batch(u)[:k]
        return np.array([self.loss_eval(s, u) for s in range(1, k + 1)])

    def weights(self, t: int) -> np.ndarray:
        """[beta^(t-1), ..., beta^0]: discount weights for rounds 1..t."""
        return self._beta_pows[t - 1 :: -1] if t > 0 else np.empty(0)


def _comparator_losses(ledger: RegretLedger, path: ComparatorPath) -> np.ndarray:
    """[f_1(u_1), ..., f_T(u_T)] from the ledger's ``path_losses``, else
    from one ``loss_eval`` call per round."""
    if path.T != ledger.T:
        raise ValueError(f"path length {path.T} != ledger length {ledger.T}")
    if ledger.path_losses is not None:
        return np.ascontiguousarray(ledger.path_losses(path.U), dtype=float)
    T = ledger.T
    return np.fromiter((ledger.loss_eval(t, path[t - 1]) for t in range(1, T + 1)), float, T)


def dynamic_regret(ledger: RegretLedger, path: ComparatorPath) -> float:
    """Cumulative loss of the learner minus that of the comparator path."""
    comp = _comparator_losses(ledger, path)
    # the builtin sum over the rows as Python floats, in round order, as the
    # per-round loop added them; the memoryview builds no list
    return float(ledger.losses_at_play.sum() - sum(memoryview(comp)))


def discounted_regret(ledger: RegretLedger, t: int, u: np.ndarray) -> float:
    """R_t(u) = sum_{s<=t} beta^(t-s) (f_s(x_s) - f_s(u))."""
    if not 1 <= t <= ledger.T:
        raise ValueError(f"round t must lie in [1, {ledger.T}], got {t}")
    diffs = ledger.losses_at_play[:t] - ledger.losses_at(u, upto=t)
    return float(ledger.weights(t) @ diffs)


def _moved_rounds(path: ComparatorPath) -> list[int]:
    """Rounds t in 1..T-1 with u_{t+1} != u_t; NaN entries count as moves."""
    U = path.U
    return (np.flatnonzero(np.any(U[1:] != U[:-1], axis=1)) + 1).tolist()


def _squared_loss_statistics(ledger: RegretLedger, rounds: list[int]):
    """Yield (G_t, h_t, c_t) at each of the increasing rounds ``rounds``.

    G_t = sum_{s<=t} beta^(t-s) z_s z_s', h_t = sum beta^(t-s) y_s z_s and
    c_t = sum beta^(t-s) y_s^2, so that sum_{s<=t} beta^(t-s) f_s(u) =
    u'G_t u/2 - u'h_t + c_t/2.  Consecutive rounds take the recursion
    G_t = beta G_{t-1} + z_t z_t'; a gap is crossed with one weighted block
    sum, so rounds that are not asked for cost no Python iteration.
    """
    Z, y = ledger.squared_loss
    beta = ledger.beta
    G, h, c = np.zeros((Z.shape[1],) * 2), np.zeros(Z.shape[1]), 0.0
    last = 0
    for t in rounds:
        if t == last + 1:
            z, yt = Z[last], float(y[last])
            G = beta * G + np.outer(z, z)
            h = beta * h + yt * z
            c = beta * c + yt * yt
        else:
            w = beta ** np.arange(t - last - 1, -1.0, -1.0)
            decay = beta ** (t - last)
            Zb, yb = Z[last:t], y[last:t]
            Zw = Zb.T * w
            G = decay * G + Zw @ Zb
            h = decay * h + Zw @ yb
            c = decay * c + float(w @ (yb * yb))
        last = t
        yield G, h, c


def _comparator_differences(
    ledger: RegretLedger, path: ComparatorPath
) -> tuple[list[int], np.ndarray]:
    """Moved rounds t and D_t = sum_{s<=t} beta^(t-s) (f_s(u_{t+1}) - f_s(u_t)).

    Stationary rounds (u_{t+1} == u_t) have D_t = 0 and are left out.  For a
    squared-loss ledger D_t = (v-w)'(G_t (v+w)/2 - h_t) with v = u_{t+1},
    w = u_t; any other ledger sums its loss rows up to round t.
    """
    moved = _moved_rounds(path)
    U = path.U
    if ledger.squared_loss is not None:
        stats = _squared_loss_statistics(ledger, moved)
        return moved, np.array([
            (U[t] - U[t - 1]) @ (0.5 * (G @ (U[t] + U[t - 1])) - h)
            for t, (G, h, _) in zip(moved, stats)
        ])
    return moved, np.array([
        ledger.weights(t) @ (ledger.losses_at(U[t], upto=t) - ledger.losses_at(U[t - 1], upto=t))
        for t in moved
    ])


def _regrets_along_path(
    ledger: RegretLedger, path: ComparatorPath
) -> tuple[np.ndarray, np.ndarray]:
    """R_t(u_t) for t = 1..T and R_t(u_{t+1}) for t = 1..T-1.

    A squared-loss ledger takes both from the closed form
    R_t(u) = P_t - (u'G_t u/2 - u'h_t + c_t/2), with P_t the discounted play
    sum; any other ledger sums loss rows, one column of f_s(u_{t+1}) at a
    time.
    """
    T, beta, U = ledger.T, ledger.beta, path.U
    play = ledger.losses_at_play
    diag, ahead = np.empty(T), np.empty(T - 1)
    if ledger.squared_loss is not None:
        P = 0.0
        stats = _squared_loss_statistics(ledger, range(1, T + 1))
        for t, (G, h, c) in enumerate(stats, start=1):
            P = beta * P + play[t - 1]
            V = U[t - 1 : t + 1]  # u_t, and u_{t+1} before the last round
            r = P - (0.5 * ((V @ G) * V).sum(axis=1) - V @ h + 0.5 * c)
            diag[t - 1] = r[0]
            ahead[t - 1 : t] = r[1:]
        return diag, ahead
    col = ledger.losses_at(U[0], upto=1)  # f_s(u_t) for s <= t
    for t in range(1, T + 1):
        w = ledger.weights(t)
        diag[t - 1] = w @ (play[:t] - col)
        if t < T:
            col = ledger.losses_at(U[t], upto=t + 1)
            ahead[t - 1] = w @ (play[:t] - col[:t])
    return diag, ahead


def d2d_identity_gap(ledger: RegretLedger, path: ComparatorPath) -> float:
    """|LHS - RHS| of the discounted-to-dynamic conversion identity.

    The identity holds exactly for any horizon, discount and comparator
    sequence; the returned gap is float roundoff only.  The LHS sums the
    ledger's loss rows f_t(u_t); a squared-loss ledger's RHS comes from its
    (Z, y) statistics instead, so the two sides are evaluated independently.
    """
    T, beta = ledger.T, ledger.beta
    if path.T != T:
        raise ValueError(f"path length {path.T} != ledger length {ledger.T}")
    lhs = dynamic_regret(ledger, path)
    diag, ahead = _regrets_along_path(ledger, path)
    rhs = (1.0 - beta) * diag.sum() + beta * diag[-1]
    rhs += beta * sum(diag[:-1] - ahead)
    return abs(lhs - rhs)


@dataclass(frozen=True)
class PathVariation:
    """Value of P_T^beta together with the convention it was computed under."""

    value: float
    beta: float
    includes_f0: bool


def path_variation(
    ledger: RegretLedger,
    path: ComparatorPath,
    gamma: float,
    include_f0: Optional[bool] = None,
) -> PathVariation:
    """Comparator variation through geometrically weighted loss differences.

    P_T^g = sum_{t=1}^{T-1} sum_{s=0}^{t} p_{t,s} [f_s(u_{t+1}) - f_s(u_t)]_+
    with p_{t,s} = gamma^(t-s) / sum_{r=0}^{t} gamma^(t-r).  The s = 0 term
    uses f_0 = phi and is included by default whenever the ledger carries a
    phi evaluator; the normalization always runs over s = 0..t.  Only rounds
    with u_{t+1} != u_t are visited: a stationary round adds exactly 0.
    """
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    T = ledger.T
    if path.T != T:
        raise ValueError(f"path length {path.T} != ledger length {ledger.T}")
    if include_f0 is None:
        include_f0 = ledger.phi_eval is not None
    if include_f0 and ledger.phi_eval is None:
        raise ValueError("include_f0 requires the ledger to carry phi_eval")

    total = 0.0
    for t in _moved_rounds(path):
        u_now, u_next = path[t - 1], path[t]
        w = geometric_weights(gamma, t)  # indices s = 0..t
        diffs = ledger.losses_at(u_next, upto=t) - ledger.losses_at(u_now, upto=t)
        total += float(w[1:] @ np.maximum(diffs, 0.0))
        if include_f0:
            d0 = ledger.phi_eval(u_next) - ledger.phi_eval(u_now)
            total += w[0] * max(d0, 0.0)
    return PathVariation(value=total, beta=gamma, includes_f0=bool(include_f0))


def ft_difference_term(ledger: RegretLedger, path: ComparatorPath) -> float:
    """beta * sum_{t=1}^{T-1} (F_t(u_{t+1}) - F_t(u_t)); may be negative.

    F_t(u) = beta^t phi(u) + sum_{s<=t} beta^(t-s) f_s(u), so each moved
    round adds D_t plus its phi difference; stationary rounds add nothing.
    """
    T = ledger.T
    if path.T != T:
        raise ValueError(f"path length {path.T} != ledger length {ledger.T}")
    total = 0.0
    for t, diff in zip(*_comparator_differences(ledger, path)):
        if ledger.phi_eval is not None:
            diff += ledger._beta_pows[t] * (
                ledger.phi_eval(path[t]) - ledger.phi_eval(path[t - 1])
            )
        total += diff
    return ledger.beta * float(total)


def modular_bound_rhs(ledger: RegretLedger, path: ComparatorPath) -> float:
    """Computable dynamic-regret upper bound from the reduction template.

    RHS = beta*phi(u_1) + sum_t beta^t Lambda_t
          + beta * sum_{t<T} (F_t(u_{t+1}) - F_t(u_t)),

    where the stability terms arrive pre-discounted in ``ledger.lambdas``;
    the template's phi drift term is 0, since phi does not depend on t.
    """
    if ledger.phi_eval is None:
        raise ValueError("modular_bound_rhs requires phi_eval on the ledger")
    if ledger.lambdas is None:
        raise ValueError("modular_bound_rhs requires stability terms (lambdas)")
    if path.T != ledger.T:
        raise ValueError(f"path length {path.T} != ledger length {ledger.T}")

    rhs = ledger.beta * ledger.phi_eval(path[0])
    rhs += float(ledger.lambdas.sum())
    rhs += ft_difference_term(ledger, path)
    return float(rhs)


def check_path_length_lemma(
    ledger: RegretLedger, path: ComparatorPath, beta: float, gamma: float
) -> bool:
    """beta * sum_{t<T}(F_t^b(u_{t+1}) - F_t^b(u_t)) <= gamma/(1-gamma) P_T^g.

    Requires 0 < beta <= gamma < 1 and nonnegative f_0..f_T; F_t^b includes
    the f_0 = phi term with weight beta^t.
    """
    if not (0.0 < beta <= gamma < 1.0):
        raise ValueError(f"need 0 < beta <= gamma < 1, got beta={beta} gamma={gamma}")
    probe = replace(ledger, beta=beta)
    lhs = ft_difference_term(probe, path)
    rhs = gamma / (1.0 - gamma) * path_variation(probe, path, gamma).value
    return lhs <= rhs + 1e-9 * (1.0 + abs(rhs))


def quadratic_loss_ledger(
    Z: np.ndarray,
    y: np.ndarray,
    losses_at_play: np.ndarray,
    beta: float,
    lam: Optional[float] = None,
    lambdas: Optional[np.ndarray] = None,
) -> RegretLedger:
    """Ledger over squared losses f_t(u) = (u.z_t - y_t)^2 / 2.

    When ``lam`` is given, phi(u) = lam/2 |u|^2.
    """
    Z = np.asarray(Z, dtype=float)
    y = np.asarray(y, dtype=float)

    # every evaluator squares as r * r: Python's float ** 2 is C pow, which
    # differs from the correctly rounded product in the last place on about
    # 0.1% of inputs, so one ledger would see two values of f_t(u)
    def eval_one(t: int, u: np.ndarray) -> float:
        r = float(Z[t - 1] @ u - y[t - 1])
        return 0.5 * (r * r)

    def eval_batch(u: np.ndarray) -> np.ndarray:
        return _half_squares(Z @ u - y)

    def eval_path(U: np.ndarray) -> np.ndarray:
        r = row_dots(Z, U)
        r -= y
        return _half_squares(r)

    phi = None
    if lam is not None:
        phi = lambda u: 0.5 * lam * float(u @ u)  # noqa: E731
    return RegretLedger(
        losses_at_play=losses_at_play,
        loss_eval=eval_one,
        beta=beta,
        phi_eval=phi,
        lambdas=lambdas,
        loss_eval_batch=eval_batch,
        path_losses=eval_path,
        squared_loss=(Z, y),
    )


def _half_squares(r: np.ndarray) -> np.ndarray:
    """Overwrite the residuals ``r`` with r * r / 2 and return them."""
    r *= r
    r *= 0.5
    return r


def regret_trace_csv(
    ledger: RegretLedger, path: ComparatorPath, header_comment: Optional[str] = None
) -> str:
    """CSV trace `t,loss_play,loss_comp,cum_dynreg`."""
    play = ledger.losses_at_play
    comp = _comparator_losses(ledger, path)
    with np.errstate(over="ignore", invalid="ignore"):  # as Python floats would
        cum = np.cumsum(play - comp) + 0.0  # a sum from 0.0 never reads -0.0
    return csv_text(["loss_play", "loss_comp", "cum_dynreg"], [play, comp, cum], header_comment)
