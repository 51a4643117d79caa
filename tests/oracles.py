"""Oracles only the tests call: reference quantities that no subcommand or
bound check of the library computes, and the referees that the library's
inlined or batched steps are held to bit for bit (`clip_to_ball`,
`reference_delta_for`, `exp_sample`, `perturb`, the per-round AIOLI of
`PerRoundExperts`, and the per-row truth writer `path_csv_rowwise`),
`csv_written`, the text a CSV writer writes into an open file,
`ensemble_rows`, the (T, N) rows an ensemble run hands its check hook,
`reference_o2nc`, the per-round driver loop, and `run_o2nc_with_deltas`,
the Delta_t rows a run makes, since an `O2ncTrace` keeps only their norms.
``ftrl_equivalence_residual`` needs scipy, a test dependency of driftlearn
and not a runtime one.
"""

import dataclasses
import io
import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
from numpy.linalg import _umath_linalg
from scipy.optimize import NonlinearConstraint, minimize

from driftlearn import linreg, logreg, o2nc
from driftlearn.adam import AdamConfig, AdamState, _norm, adam_update, delta_for
from driftlearn.logreg import AioliRun
from driftlearn.o2nc import O2ncTrace, Objective
from driftlearn.regret import RegretLedger
from driftlearn.streams import ComparatorPath, Stream, discounted_scan, philox_rng


def constant_path(u: np.ndarray, T: int) -> ComparatorPath:
    """The comparator path that plays u in each of T rounds."""
    return ComparatorPath(np.tile(np.asarray(u, dtype=float), (T, 1)))


def path_csv_rowwise(path: ComparatorPath, comment=None) -> str:
    """The truth CSV one row at a time, each by the row template
    ``"%d" + ",%r" * d``: the referee of ``streams.path_to_csv``, whichever
    way it formats a path."""
    parts = [f"# {comment}\n"] if comment else []
    parts.append(",".join(["t", *(f"u_{j}" for j in range(path.d))]) + "\n")
    row = "%d" + ",%r" * path.d + "\n"
    parts += [row % (t, *u) for t, u in enumerate(path.U.tolist(), 1)]
    return "".join(parts)


def csv_written(write, *args, comment=None) -> str:
    """The text ``write(*args, out, comment)``, a CSV writer of ``streams``,
    ``regret`` or ``o2nc``, writes into the open text file ``out``."""
    out = io.StringIO()
    write(*args, out, comment)
    return out.getvalue()


def stationarity_surrogate(
    point,
    objective: Objective,
    radius: float,
    samples: int,
    seed: int,
    c: float = 0.0,
) -> float:
    """Upper-bound witness for the smoothed-gradient stationarity measure.

    Uses the uniform distribution on the ball of the given radius around
    the point (one feasible choice among all mean-preserving distributions)
    and returns |mean grad F(point + delta)| + c * mean |delta|^2.  With
    radius = 0 this is exactly |grad F(point)|.
    """
    if radius < 0.0 or samples < 1:
        raise ValueError("need radius >= 0 and samples >= 1")
    x = point.xbar_final if isinstance(point, O2ncTrace) else np.asarray(point, dtype=float)
    d = objective.dim
    if radius == 0.0:
        return float(np.linalg.norm(objective.grad(x)))
    rng = philox_rng(seed)
    dirs = rng.standard_normal((samples, d))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), np.finfo(float).tiny)
    radii = radius * rng.random(samples) ** (1.0 / d)
    perturbations = dirs * radii[:, None]
    mean_grad = np.zeros(d)
    mean_sq = 0.0
    for delta in perturbations:
        mean_grad += objective.grad(x + delta)
        mean_sq += float(delta @ delta)
    mean_grad /= samples
    mean_sq /= samples
    return float(np.linalg.norm(mean_grad)) + c * mean_sq


def clip_to_ball(a: np.ndarray, radius: float) -> np.ndarray:
    """Radial clip min(|a|, D) a/|a|, with 0 mapped to 0."""
    norm = _norm(a)
    if norm <= radius or norm == 0.0:
        return a
    return (radius / norm) * a


def reference_delta_for(cfg: AdamConfig, state: AdamState) -> np.ndarray:
    """`adam.delta_for` as written with the clip in `clip_to_ball`: the
    referee its inline clip is held to, bit for bit."""
    denom = cfg.nu
    if cfg.variant == "clip-free":
        denom += cfg.gamma * cfg.mu * (1.0 - state.beta1_pow)
    denom += math.sqrt((1.0 - cfg.beta2) * state.v)
    scale = -cfg.gamma * (1.0 - cfg.beta1)
    if abs(scale) <= 1.0:
        delta = scale * state.m / denom
    else:
        with np.errstate(over="ignore"):
            step = scale * state.m
        delta = np.divide(step, denom, out=(scale / denom) * state.m, where=np.isfinite(step))
    return clip_to_ball(delta, cfg.D) if cfg.variant == "clipped" else delta


def exp_sample(rng: np.random.Generator) -> float:
    """Unit-mean exponential scaling factor, by the inverse CDF: s = -ln(u)
    with u = 1 - rng.random() in (0, 1]."""
    return -math.log(1.0 - float(rng.random()))


def perturb(
    objective: Objective, sigma: float, g: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """The stochastic gradient `run_o2nc` draws around the true gradient ``g``
    of ``objective`` at noise level ``sigma``, as a function of its own: one
    draw of d + 1 normals, the direction and then the magnitude's normal."""
    gap = objective.lipschitz - _norm(g)
    normals = rng.standard_normal(objective.dim + 1)
    direction = normals[:-1]
    nd = math.sqrt(direction @ direction)
    magnitude = min(sigma * abs(float(normals[-1])), max(gap, 0.0))
    if nd == 0.0 or magnitude == 0.0:
        return g
    return g + (magnitude / nd) * direction


def reference_objective(obj):
    """The zoo objective with its gradient as written before the norms went
    through math.sqrt (the max-of-affines gradient takes no norm)."""
    radius = obj.lipschitz

    def quadratic_grad(x):
        r = float(np.linalg.norm(x))
        if r <= radius or r == 0.0:
            return np.asarray(x, dtype=float).copy()
        return (radius / r) * np.asarray(x, dtype=float)

    def norm_grad(x):
        r = float(np.linalg.norm(x))
        if r == 0.0:
            return np.zeros(obj.dim)
        return np.asarray(x, dtype=float) / r

    grads = {"clamped-quadratic": quadratic_grad, "euclidean-norm": norm_grad}
    return dataclasses.replace(obj, grad=grads.get(obj.name, obj.grad))


def run_o2nc_with_deltas(cfg, objective, sigma, T, seed, x0):
    """`o2nc.run_o2nc`'s trace and the (T, d) Delta_t rows the run itself
    made, of which the trace keeps only the norms: each block's Delta_t
    buffer, copied out as `o2nc._rounds` returns it."""
    blocks, rounds = [], o2nc._rounds

    def recorded(cfg, objective, sigma, state, x, rng, scalings, deltas, *buffers):
        out = rounds(cfg, objective, sigma, state, x, rng, scalings, deltas, *buffers)
        blocks.append(deltas.copy())
        return out

    with mock.patch.object(o2nc, "_rounds", recorded):
        trace = o2nc.run_o2nc(cfg, objective, sigma, T, seed, x0)
    deltas = np.concatenate(blocks)
    assert len(deltas) == T
    return trace, deltas


def reference_o2nc(cfg, objective, sigma, T, seed, x0, referees=False):
    """Copy of the driver loop as it ran with three true gradients a round:
    one inside the oracle, one for the accumulator, one at the average.
    With ``referees`` each round takes Delta_t and g_t from the referees in
    oracles, `reference_delta_for` and `perturb`, as run_o2nc did before its
    clip and its draws went inline; s_t is always `exp_sample`'s."""
    obj = reference_objective(objective)

    def sample(x, rng):
        g = obj.grad(x)
        gap = obj.lipschitz - float(np.linalg.norm(g))
        direction = rng.standard_normal(obj.dim)
        nd = float(np.linalg.norm(direction))
        magnitude = min(sigma * abs(float(rng.standard_normal())), max(gap, 0.0))
        if nd == 0.0 or magnitude == 0.0:
            return g
        return g + (magnitude / nd) * direction

    def delta_for(m, v, beta1_pow):
        denom = cfg.nu + math.sqrt((1.0 - cfg.beta2) * v)
        if cfg.variant == "clipped":
            a = -cfg.gamma * (1.0 - cfg.beta1) * m / denom
            norm = float(np.linalg.norm(a))
            if norm <= cfg.D or norm == 0.0:
                return a
            return (cfg.D / norm) * a
        damping = cfg.gamma * cfg.mu * (1.0 - beta1_pow)
        denom = cfg.nu + damping + math.sqrt((1.0 - cfg.beta2) * v)
        return -cfg.gamma * (1.0 - cfg.beta1) * m / denom

    if referees:
        def delta_for(m, v, beta1_pow):
            return reference_delta_for(cfg, AdamState(m, v, beta1_pow))

        def sample(x, rng):
            return perturb(obj, sigma, obj.grad(x), rng)

    d = obj.dim
    x = np.asarray(x0, dtype=float).copy()
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    m, v, beta1_pow = np.zeros(d), 0.0, 1.0
    acc, xbar = np.zeros(d), x.copy()
    rows = {k: [] for k in ("xs", "xbars", "scalings", "deltas", "grad_norms_at_xbar",
                            "dynreg_terms")}
    zero = 0
    for t in range(1, T + 1):
        delta = delta_for(m, v, beta1_pow)
        s_t = exp_sample(rng)
        x = x + s_t * delta
        g = sample(x, rng)
        acc = cfg.beta1 * acc + obj.grad(x)
        acc_norm = float(np.linalg.norm(acc))
        if acc_norm > 0.0:
            u = -cfg.D * acc / acc_norm
        else:
            u = np.zeros(d)
            zero += 1
        term = float(g @ (delta - u))
        if cfg.variant == "clip-free":
            term += 0.5 * cfg.mu * (float(delta @ delta) - float(u @ u))
        m, v, beta1_pow = cfg.beta1 * m + g, cfg.beta2 * v + float(g @ g), beta1_pow * cfg.beta1
        bt = cfg.beta1**t
        xbar = (cfg.beta1 - bt) / (1.0 - bt) * xbar + (1.0 - cfg.beta1) / (1.0 - bt) * x
        for k, val in (("xs", x), ("xbars", xbar), ("scalings", s_t), ("deltas", delta),
                       ("grad_norms_at_xbar", float(np.linalg.norm(obj.grad(xbar)))),
                       ("dynreg_terms", term)):
            rows[k].append(val)
    fields = {k: np.array(val) for k, val in rows.items()}
    return fields, zero, int(rng.integers(T))


def eta_t(cfg: AdamConfig, state: AdamState) -> float:
    """gamma (1-beta1) beta1^t / (nu + sqrt((1-beta2) v_t))."""
    denom = cfg.nu + math.sqrt((1.0 - cfg.beta2) * state.v)
    return cfg.gamma * (1.0 - cfg.beta1) * state.beta1_pow / denom


def rho_of(beta1: float, beta2: float) -> float:
    """Normalized distance of beta2 from the center (1+beta1^2)/2.

    rho = |beta2 - (1+beta1^2)/2| / ((1-beta1^2)/2); it is < 1 exactly when
    beta2 lies strictly inside (beta1^2, 1).
    """
    if not (0.0 < beta1 < 1.0):
        raise ValueError(f"beta1 must lie in (0, 1), got {beta1}")
    center = 0.5 * (1.0 + beta1 * beta1)
    half_width = 0.5 * (1.0 - beta1 * beta1)
    return abs(beta2 - center) / half_width


def ftrl_equivalence_residual(cfg: AdamConfig, grads: np.ndarray) -> float:
    """|Delta_closed_form - Delta_numeric_argmin| after replaying ``grads``.

    The discounted objective, multiplied by the positive constant
    beta1^t/(something that keeps coefficients O(1)), is

        J(D) = 1/2 |D|^2 + c.D             (+ ball constraint, clipped)
        J(D) = (1+r)/2 |D|^2 + c.D         (clip-free, r from the mu term)

    and the numeric side minimizes it with a generic constrained solver,
    with all beta1^(-s) factors folded away (the raw rescaled sums overflow
    even at moderate horizons; the folded objective is algebraically
    identical).
    """
    grads = np.atleast_2d(np.asarray(grads, dtype=float))
    state = AdamState.fresh(grads.shape[1])
    for g in grads:
        state = adam_update(cfg, state, g)

    # Folded quadratic coefficient a = beta1^t / eta_t, plus the composite
    # term mu * sum_{s<=t} beta1^(t-s) = mu (1-beta1^t)/(1-beta1).
    a = (cfg.nu + math.sqrt((1.0 - cfg.beta2) * state.v)) / (
        cfg.gamma * (1.0 - cfg.beta1)
    )
    if cfg.variant == "clip-free":
        a += cfg.mu * (1.0 - state.beta1_pow) / (1.0 - cfg.beta1)
    c = state.m / a  # normalized linear coefficient: J/a = |D|^2/2 + c.D

    def fun(x: np.ndarray) -> float:
        return 0.5 * float(x @ x) + float(c @ x)

    def jac(x: np.ndarray) -> np.ndarray:
        return x + c

    closed = delta_for(cfg, state)
    if cfg.variant == "clipped":
        cons = [
            {
                "type": "ineq",
                "fun": lambda x: cfg.D**2 - float(x @ x),
                "jac": lambda x: -2.0 * x,
            }
        ]
        res = minimize(
            fun, np.zeros_like(c), jac=jac, method="SLSQP", constraints=cons,
            options={"ftol": 1e-16, "maxiter": 500},
        )
        numeric = res.x

        # SLSQP tolerates small constraint violations and can stall on an
        # active boundary; judge the returned point by its projected-gradient
        # optimality and escalate to the interior-point solver when loose.
        def kkt(x: np.ndarray) -> float:
            return float(np.linalg.norm(x - clip_to_ball(x - jac(x), cfg.D)))

        if kkt(numeric) > 1e-10 * (1.0 + float(np.linalg.norm(numeric))):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # quasi-Newton noise on flat faces
                hi = minimize(
                    fun, clip_to_ball(numeric, cfg.D), jac=jac, method="trust-constr",
                    constraints=[NonlinearConstraint(
                        lambda x: float(x @ x), -np.inf, cfg.D**2,
                        jac=lambda x: 2.0 * x.reshape(1, -1),
                    )],
                    options={"gtol": 1e-14, "xtol": 1e-14, "maxiter": 2000},
                )
            if kkt(hi.x) < kkt(numeric):
                numeric = hi.x
    else:
        res = minimize(
            fun, np.zeros_like(c), jac=jac, method="BFGS",
            options={"gtol": 1e-12, "maxiter": 500},
        )
        numeric = res.x
    return float(np.linalg.norm(closed - numeric))


def discount_weights(beta: float, t: int) -> np.ndarray:
    """[beta^(t-1), ..., beta^0]: the discount weights of rounds 1..t."""
    return beta ** np.arange(t - 1, -1.0, -1.0)


def discounted_regret(ledger: RegretLedger, t: int, u: np.ndarray) -> float:
    """R_t(u) = sum_{s<=t} beta^(t-s) (f_s(x_s) - f_s(u))."""
    if not 1 <= t <= ledger.T:
        raise ValueError(f"round t must lie in [1, {ledger.T}], got {t}")
    diffs = ledger.losses_at_play[:t] - ledger.loss_eval_batch(u)[:t]
    return float(discount_weights(ledger.beta, t) @ diffs)


class _Exact:
    """A squared-loss ledger and a path of its length as exact rationals.

    Every double is a dyadic rational, so the margins z_s.u, the losses
    f_s(u) = (z_s.u - y_s)^2 / 2, phi(u) = lam/2 |u|^2 (0 at lam = 0) and
    the powers beta^k are all exact; beta^k has about 53 k bits, so these
    referees are for small instances only.  Rows s count from 0.  The sizes
    bound what a float evaluation rounds: a_s(u) = (sum_i |z_si u_i| +
    |y_s|)^2 / 2 for f_s(u), and b_s(v, w) = (sum_i |z_si (v_i - w_i)|)
    (sum_i |z_si (v_i + w_i)| / 2 + |y_s|) >= |f_s(v) - f_s(w)| for the
    product form (z_s.(v-w)) (z_s.(v+w)/2 - y_s) of a loss difference.
    """

    def __init__(self, ledger: RegretLedger, path: ComparatorPath):
        if ledger.loss != "squared":
            raise ValueError(f"exact referees need a squared loss, got loss={ledger.loss!r}")
        if path.T != ledger.T:
            raise ValueError(f"path length {path.T} != ledger length {ledger.T}")
        self.T = ledger.T
        self.Z = [[Fraction(v) for v in row] for row in ledger.Z.tolist()]
        self.y = [Fraction(v) for v in ledger.y.tolist()]
        self.play = [Fraction(v) for v in ledger.losses_at_play.tolist()]
        self.U = [[Fraction(v) for v in row] for row in path.U.tolist()]
        self.beta, self.lam = Fraction(ledger.beta), Fraction(ledger.lam)
        self.pows = [self.beta**k for k in range(self.T + 1)]

    def loss(self, s, u):
        r = sum(z * v for z, v in zip(self.Z[s], u)) - self.y[s]
        return r * r / 2

    def size(self, s, u):
        r = sum(abs(z * v) for z, v in zip(self.Z[s], u)) + abs(self.y[s])
        return r * r / 2

    def step_size(self, s, v, w):
        z = self.Z[s]
        lag = sum(abs(zi * (vi - wi)) for zi, vi, wi in zip(z, v, w))
        return lag * (sum(abs(zi * (vi + wi)) for zi, vi, wi in zip(z, v, w)) / 2 + abs(self.y[s]))

    def phi(self, u):
        return self.lam / 2 * sum(v * v for v in u)

    def regret(self, t, u):
        """R_t(u) = sum_{s<=t} beta^(t-s) (f_s(x_s) - f_s(u)), t 1-based,
        and its size sum_{s<=t} beta^(t-s) (|f_s(x_s)| + a_s(u))."""
        rows = range(t)
        value = sum(self.pows[t - 1 - s] * (self.play[s] - self.loss(s, u)) for s in rows)
        size = sum(self.pows[t - 1 - s] * (abs(self.play[s]) + self.size(s, u)) for s in rows)
        return value, size

    def step(self, t):
        """D_t = sum_{s<=t} beta^(t-s) (f_s(u_{t+1}) - f_s(u_t)), t 1-based,
        and its size sum_{s<=t} beta^(t-s) b_s(u_{t+1}, u_t)."""
        v, w = self.U[t], self.U[t - 1]
        value = sum(self.pows[t - 1 - s] * (self.loss(s, v) - self.loss(s, w)) for s in range(t))
        size = sum(self.pows[t - 1 - s] * self.step_size(s, v, w) for s in range(t))
        return value, size


def exact_dynamic_regret(ledger: RegretLedger, path: ComparatorPath) -> tuple[Fraction, Fraction]:
    """sum_t f_t(x_t) - f_t(u_t) of a squared-loss ledger in exact rational
    arithmetic, and the size S = sum_t |f_t(x_t)| + a_t(u_t) (see ``_Exact``).

    ``regret.dynamic_regret`` is within gamma_n S of it, n = T + 2d + 6: a
    float loss is within gamma_(2d+4) a_t (the margin's d products and sums,
    the residual, the square and its half), each sum of T terms adds
    gamma_(T-1) and their difference one rounding.
    """
    ex = _Exact(ledger, path)
    value = sum(ex.play) - sum(ex.loss(s, u) for s, u in enumerate(ex.U))
    size = sum(map(abs, ex.play)) + sum(ex.size(s, u) for s, u in enumerate(ex.U))
    return value, size


def exact_ft_difference(ledger: RegretLedger, path: ComparatorPath) -> tuple[Fraction, Fraction]:
    """beta sum_{t<T} (F_t(u_{t+1}) - F_t(u_t)) of a squared-loss ledger in
    exact rational arithmetic, F_t(u) = beta^t phi(u) + sum_{s<=t}
    beta^(t-s) f_s(u), and the size S = beta sum over the moved rounds t of
    beta^t (phi(u_{t+1}) + phi(u_t)) plus the size of D_t (``_Exact.step``).

    ``regret.ft_difference_term`` is within gamma_n S of it, n = 5T + 2d + 16.
    A product-form term takes gamma_(2d+6) b_s: the step and the midpoint
    (one rounding each), two margins of d terms, the residual, two powers
    of beta (2u each) and the products.  The rows of a block sum within
    gamma_T, and the statistics carried from earlier blocks, sums of
    beta-weighted z_s z_s', y_s z_s, decayed by a power once a block, are
    within gamma_(4T) of |sums|, whose contraction with the step and the
    midpoint adds gamma_(2d+4) of the same sizes.  phi's part is within
    gamma_(d+4), and the sum over the moved rounds and beta add gamma_T + u.
    """
    ex = _Exact(ledger, path)
    value = size = Fraction(0)
    for t in range(1, ex.T):
        v, w = ex.U[t], ex.U[t - 1]
        if v == w:  # a stationary round adds exactly 0
            continue
        D, D_size = ex.step(t)
        value += D + ex.pows[t] * (ex.phi(v) - ex.phi(w))
        size += D_size + ex.pows[t] * (ex.phi(v) + ex.phi(w))
    return ex.beta * value, ex.beta * size


def exact_d2d_identity(
    ledger: RegretLedger, path: ComparatorPath
) -> tuple[Fraction, Fraction, Fraction]:
    """Both sides of the discounted-to-dynamic conversion identity of a
    squared-loss ledger in exact rational arithmetic, and the size S of
    their float evaluations together.

    LHS = sum_t f_t(x_t) - f_t(u_t) (``exact_dynamic_regret``) and
    RHS = (1-beta) sum_t R_t(u_t) + beta R_T(u_T)
          + beta sum_{t<T} (R_t(u_t) - R_t(u_{t+1})),
    each from its definition, so the identity holds when the two are equal.
    S = S_LHS + (1-beta) sum_t r_t + beta r_T + beta sum_{t<T} delta_t, with
    r_t the size of R_t(u_t) and delta_t that of D_t (``_Exact``), the
    product form in which ``regret.d2d_identity_gap`` takes the last sum.
    As the gap is |LHS~ - RHS~| and the exact sides are equal, it is within
    gamma_n S, n = 5T + 2d + 16: R_t(u_t) has the same error terms as D_t
    in ``exact_ft_difference``, with a_s(u_t) and |f_s(x_s)| in place of b_s.
    """
    ex = _Exact(ledger, path)
    lhs, size = exact_dynamic_regret(ledger, path)
    diag = [ex.regret(t, ex.U[t - 1]) for t in range(1, ex.T + 1)]
    ahead = [ex.regret(t, ex.U[t])[0] for t in range(1, ex.T)]
    rhs = (1 - ex.beta) * sum(r for r, _ in diag) + ex.beta * diag[-1][0]
    rhs += ex.beta * sum(r - a for (r, _), a in zip(diag, ahead))
    size += (1 - ex.beta) * sum(r for _, r in diag) + ex.beta * diag[-1][1]
    size += ex.beta * sum(ex.step(t)[1] for t in range(1, ex.T))
    return lhs, rhs, size


def exact_path_variation(
    ledger: RegretLedger, path: ComparatorPath, gamma: float
) -> tuple[Fraction, Fraction]:
    """P_T^g of a squared-loss ledger in exact rational arithmetic, and the
    size S of its terms.

    The losses' differences and positive parts, the powers gamma^(t-s) and
    the normalizers sum_{r<=t} gamma^r are all exact (see ``_Exact``).
    S = sum_t sum_s p_{t,s} (a_s(u_{t+1}) + a_s(u_t)) with a_0 = phi, the
    scale that the roundoff of any float evaluation of one term is a
    multiple of.
    """
    ex = _Exact(ledger, path)
    g = Fraction(gamma)
    total = scale = Fraction(0)
    for t in range(1, ex.T):
        w, v = ex.U[t - 1], ex.U[t]
        pows = [g ** (t - s) for s in range(t + 1)]
        term = sum(pows[s] * max(ex.loss(s - 1, v) - ex.loss(s - 1, w), 0)
                   for s in range(1, t + 1))
        sizes = sum(pows[s] * (ex.size(s - 1, v) + ex.size(s - 1, w)) for s in range(1, t + 1))
        term += pows[0] * max(ex.phi(v) - ex.phi(w), 0)
        sizes += pows[0] * (ex.phi(v) + ex.phi(w))
        norm = sum(pows)
        total += term / norm
        scale += sizes / norm
    return total, scale


def _exact_solve(A: list[list[Fraction]], rhs: list[list[Fraction]]) -> list[list[Fraction]]:
    """A^{-1} r for each column r of ``rhs`` (a list of columns), by Gauss
    elimination in exact rational arithmetic; A must be nonsingular."""
    d = len(A)
    M = [row[:] + [r[i] for r in rhs] for i, row in enumerate(A)]
    for k in range(d):
        p = next(i for i in range(k, d) if M[i][k] != 0)
        M[k], M[p] = M[p], M[k]
        for i in range(k + 1, d):
            f = M[i][k] / M[k][k]
            M[i] = [a - f * b for a, b in zip(M[i], M[k])]
    X = [[Fraction(0)] * len(rhs) for _ in range(d)]
    for i in reversed(range(d)):
        for j in range(len(rhs)):
            acc = M[i][d + j] - sum(M[i][k] * X[k][j] for k in range(i + 1, d))
            X[i][j] = acc / M[i][i]
    return [[X[i][j] for i in range(d)] for j in range(len(rhs))]


def exact_dvaw(
    stream: Stream, beta: float, lam: float
) -> tuple[list[Fraction], list[Fraction], list[float], list[float]]:
    """Discounted-VAW predictions and stability terms in exact rational
    arithmetic on the stream's doubles, and forward-error bounds of any
    float evaluation of them by the learner's route.

    With A_t = lam beta^t I + sum_{s<=t} beta^(t-s) z_s z_s' and b_t the
    same sum of y_s z_s, round t's prediction is yhat_t = z_t' A_t^{-1}
    beta b_{t-1} and its stability term stab_t = y_t^2 z_t' A_t^{-1} z_t.
    Write c = L^{-1} z_t and w = L^{-1} beta b_{t-1} for A_t = L L', so
    |c|^2 = z_t' A_t^{-1} z_t <= 1, and bbar for sum_{s<t} beta^(t-1-s)
    |y_s| |z_s|.  The least eigenvalue of A_t is at least lam beta^t, so
    mu_t = trace(A_t) / (lam beta^t) bounds |A_t| |A_t^{-1}| in the 2-norm.

    A float route that scans the statistics (at most 2t roundings an
    entry), factors A_t by Cholesky and forward-substitutes z_t and
    beta b_{t-1} (backward errors gamma_(d+1) |L||L'|, with
    || |L||L'| || <= trace(A_t)), and takes the two dot products, returns
    values within

        |yhat~_t - yhat_t| <= eps_t (|c||w| (mu_t + 1) + |c| beta |bbar| / sqrt(lam beta^t))
        |stab~_t - stab_t| <= eps_t (mu_t + 1) stab_t

    with eps_t = 2 (2t + 3d + 6) u and u = 2^-53: the first-order bound,
    doubled to cover the higher-order terms while eps_t mu_t is small.
    The bounds assume no product underflows.  These are the last two
    lists, as floats.  For small instances only: beta^t has about 53 t
    bits.
    """
    d = stream.d
    Z = [[Fraction(v) for v in row] for row in stream.Z.tolist()]
    y = [Fraction(v) for v in stream.y.tolist()]
    beta_q, lam_q = Fraction(beta), Fraction(lam)
    A = [[lam_q if i == j else Fraction(0) for j in range(d)] for i in range(d)]
    b, bbar = [Fraction(0)] * d, [Fraction(0)] * d
    yhats, stabs, yhat_bounds, stab_bounds = [], [], [], []
    for t, (z, yt) in enumerate(zip(Z, y), 1):
        A = [[beta_q * A[i][j] + z[i] * z[j] for j in range(d)] for i in range(d)]
        rhs = [beta_q * v for v in b]
        x, a = _exact_solve(A, [rhs, z])
        cc = sum(zi * ai for zi, ai in zip(z, a))
        ww = sum(ri * xi for ri, xi in zip(rhs, x))
        yhats.append(sum(zi * xi for zi, xi in zip(z, x)))
        stabs.append(yt * yt * cc)
        floor = lam_q * beta_q**t
        mu = float(sum(A[i][i] for i in range(d)) / floor)
        eps = 2 * (2 * t + 3 * d + 6) * 2.0**-53
        c_norm, w_norm = math.sqrt(cc), math.sqrt(ww)
        bbar_norm = math.sqrt(float(sum(v * v for v in bbar)))
        yhat_bounds.append(eps * (c_norm * w_norm * (mu + 1.0) + c_norm * beta * bbar_norm
                                  / math.sqrt(float(floor))))
        stab_bounds.append(eps * (mu + 1.0) * float(stabs[-1]))
        b = [beta_q * v + yt * zi for v, zi in zip(b, z)]
        bbar = [beta_q * v + abs(yt * zi) for v, zi in zip(bbar, z)]
    return yhats, stabs, yhat_bounds, stab_bounds


def logistic_loss(yhat: float, y: float) -> float:
    """l(yhat, y) = ln(1 + exp(-y*yhat)), overflow-safe."""
    return float(np.logaddexp(0.0, -y * yhat))


def aioli_rescaled_bound(run: AioliRun, t: int, u: np.ndarray) -> float:
    """Discounted-form upper bound on the discounted regret at prefix ``t``.

    Returns beta^t lam/2 |u|^2 + (1+BR) sum_{s<=t} beta^(t-s)
    eta_s g_s' Atilde_s^{-1} g_s, valid for any |u| <= B.  The empty prefix
    t = 0 carries only the regularizer term.  This is the prefix-by-prefix
    reference that ``logreg.rescaled_bound_check`` matches bit for bit.
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


# Fixed inputs of every sigma test: signed zeros, subnormal results, and both
# sides of exp's overflow at 709.782712893384, the largest x whose e^x is finite.
SIGMOID_EDGES = [0.0, -0.0, 1e-300, -1e-300, 36.0, -36.0, 708.4, -708.4, 709.78,
                 -709.78, 709.782712893384, -709.782712893384,
                 math.nextafter(709.782712893384, math.inf),
                 math.nextafter(-709.782712893384, -math.inf), 709.79, -709.79, 720.0,
                 -720.0, 745.2, -745.2, 800.0, -800.0, 1e308, -1e308, math.inf, -math.inf]


def sigmoid(x):
    """1/(1 + e^-x), elementwise; 0 where e^-x overflows."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(np.negative(x)))


def aioli_curvature_weights(run: AioliRun) -> np.ndarray:
    """c2_t = sigma(u_t) sigma(-u_t)/(1+BR) with the margin u_t = y_t yhat_t:
    round t's surrogate curvature is eta_t g_t g_t' = c2_t z_t z_t'."""
    u = run.stream.y * run.yhats
    return sigmoid(u) * sigmoid(-u) / (1.0 + run.B * run.R)


class PerRoundExperts:
    """The discount-AIOLI expert stack one round at a time: ``decide``, then
    ``decisions`` and ``residuals`` at the round's state, then ``absorb``,
    which factors every round's updated stack to check it.  The block loop
    of ``logreg._Experts.run`` is held to it bit for bit, and to the round
    and the expert each of its errors names."""

    def __init__(self, d, betas, lam, B, R):
        fresh = logreg._Experts.fresh(d, betas, lam, B, R)
        self.beta, self.scale, self.A, self.w, self.t = (
            fresh.beta, fresh.scale, fresh.A, fresh.w, 0)

    def decide(self, z):
        """The pair (A_i^{-1}w_i, A_i^{-1}z/beta_i), predictions v and q."""
        rhs = np.empty(self.w.shape + (2,))
        rhs[:, :, 0] = self.w
        rhs[:, :, 1] = z
        sol = _umath_linalg.solve(self.A, rhs)
        ainv_w = sol[:, :, 0]
        ainv_z = sol[:, :, 1] / self.beta[:, None]
        p = ainv_w @ z
        q = ainv_z @ z
        ps, qs = p.tolist(), q.tolist()
        if not all(map(math.isfinite, ps + qs)):
            self._checked(np.linalg.solve, ValueError, logreg._ILL_CONDITIONED, self.A, rhs)
            i = next(i for i, pq in enumerate(zip(ps, qs)) if not all(map(math.isfinite, pq)))
            raise ValueError(self._failure(i, logreg._OVERFLOWED))
        if min(qs) < 0.0:
            raise ValueError(self._failure(qs.index(min(qs)), logreg._ILL_CONDITIONED))
        v = np.array([logreg.solve_optimism_root(pi, qi) for pi, qi in zip(ps, qs)])
        return (ainv_w, ainv_z), v, q

    @staticmethod
    def decisions(ainv, v):
        """x_i = A_i^{-1}w_i - tanh(v_i/2) A_i^{-1}z/beta_i, (N, d)."""
        ainv_w, ainv_z = ainv
        return ainv_w - np.tanh(0.5 * v)[:, None] * ainv_z

    def residuals(self, z, X):
        """Sup-norm of beta A x + tanh((z.x)/2) z - beta w at each decision."""
        beta = self.beta[:, None]
        grad = (
            beta * (self.A @ X[:, :, None])[:, :, 0]
            + np.tanh(0.5 * (X @ z))[:, None] * z
            - beta * self.w
        )
        return np.max(np.abs(grad), axis=1)

    def absorb(self, z, y, yhats, q):
        """Fold the label in; returns the stability increments c2 q/(1 + c2 q)."""
        with np.errstate(over="ignore"):
            s_pos, s_neg = logreg._sigmoid_pm(y * yhats)
        c2 = s_pos * s_neg / self.scale
        A = self.beta[:, None, None] * self.A + c2[:, None, None] * (z[:, None] * z)
        if math.isnan(_umath_linalg.cholesky_lo(A).sum()):
            self._checked(np.linalg.cholesky, RuntimeError, logreg._INDEFINITE, A)
        self.A = A
        self.t += 1
        self.w = self.beta[:, None] * self.w + (y * s_neg + c2 * yhats)[:, None] * z
        c2q = c2 * q
        return c2q / (1.0 + c2q)

    def _checked(self, factor, error, failure, *stacks):
        try:
            return factor(*stacks)
        except np.linalg.LinAlgError:
            pass
        for i, args in enumerate(zip(*stacks)):
            try:
                factor(*args)
            except np.linalg.LinAlgError:
                break
        raise error(self._failure(i, failure))

    def _failure(self, i, failure):
        what, remedy = failure
        beta = float(self.beta[i])
        return f"{what} at round {self.t + 1} for beta={beta}; use a larger beta or {remedy}"


def per_round_aioli(stream: Stream, beta: float, lam: float, B: float, R: float) -> AioliRun:
    """``logreg.run_aioli`` on :class:`PerRoundExperts`, every field round
    by round but the discounted sums, which are one scan of the increments."""
    if not np.all(np.abs(stream.y) == 1.0):
        raise ValueError("logistic streams need labels in {+1, -1}")
    experts = PerRoundExperts(stream.d, [beta], lam, B, R)
    T = stream.T
    yhats, stab_incs, resid = np.empty(T), np.empty(T), np.empty(T)
    with np.errstate(over="ignore", invalid="ignore"):
        for t, (z, y) in enumerate(zip(stream.Z, stream.y.tolist())):
            ainv, yh, q = experts.decide(z)
            resid[t] = experts.residuals(z, experts.decisions(ainv, yh))[0]
            stab_incs[t] = experts.absorb(z, y, yh, q)[0]
            yhats[t] = yh[0]
    return AioliRun(
        stream=stream, beta=beta, lam=lam, B=B, R=R, yhats=yhats,
        losses_at_play=np.logaddexp(0.0, -stream.y * yhats),
        stab_disc=discounted_scan(stab_incs, beta),
        beta_pows=np.cumprod(np.full(T, float(beta))), residuals=resid,
    )


def ensemble_rows(stream: Stream, betas, lam: float, B: float = 1.0, R: float = 1.0,
                  check=None):
    """``logreg.run_ensemble`` and the (T, N) expert predictions and weights
    its check hook read, a chunk at a time: (run, expert_yhats, weights).
    ``check``, when given, is called on each chunk after the rows are kept."""
    yhats, weights = [], []

    def keep(rows, mix, chunk_yhats, p):
        yhats.append(chunk_yhats.copy())
        weights.append(p.copy())
        if check is not None:
            check(rows, mix, chunk_yhats, p)

    run = logreg.run_ensemble(stream, betas, lam, B, R, keep)
    return run, np.concatenate(yhats), np.concatenate(weights)


def vaw_static_bound(stream: Stream, lam: float, t: int, u: np.ndarray) -> float:
    """Static-comparator regret bound for the undiscounted forecaster.

    Returns lam/2 |u|^2 + 1/2 sum_{s<=t} y_s^2 z_s' A_s^{-1} z_s with
    A_s = lam I + sum_{r<=s} z_r z_r'; it upper-bounds the prefix regret
    sum_{s<=t} (f_s(x_s) - f_s(u)) for every comparator u.  The stability
    terms are the learner's own, from its round kernel at beta = 1.
    """
    if not 0 <= t <= stream.T:
        raise ValueError(f"prefix t must lie in [0, {stream.T}], got {t}")
    u = np.asarray(u, dtype=float)
    _, stab = linreg._rounds(stream.Z[:t], stream.y[:t], 1.0, lam)
    return 0.5 * lam * float(u @ u) + 0.5 * float(stab.sum())
