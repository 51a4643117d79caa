"""Independent numerical oracles for the supporting identities/inequalities.

Each ``check_*`` evaluates one concrete instance and returns a
:class:`LemmaVerdict`; the ``run_suite``/``run_all`` entry points fuzz the
checks over seeded random instances whose generators respect each
statement's hypotheses exactly (bounds, monotonicity, parameter ranges).

A violation is counted wherever ``streams.bound_holds(LHS, RHS)`` fails,
the relative slack 1e-9 (1 + |RHS|) of every bound check: exact equality
cases (beta = 1, a = b, the mixability equality) do not trip the oracles,
and a nan on either side, or an RHS of -inf, does.  The Abel-sum identity
has its own two-sided test, |LHS - RHS| <= ``IDENTITY_TOL`` (1 + |RHS|).
Where a raw formula overflows, the algebraically identical stable form is
substituted (e.g. e^b f'(b)^2 = sigma(b) sigma(-b) for the logistic
surrogate).

The oracles stand apart from the learners: this module imports from
``streams`` alone and keeps its own sigma, and a learner's output is passed
in, as ``run-ensemble`` passes the mixture it played to check_mixability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from driftlearn.streams import bound_holds, discounted_scan, philox_rng

IDENTITY_TOL = 1e-10
MIXABILITY_BLOCK = 64  # rounds per block of check_mixability
_TINY = np.finfo(float).tiny


@dataclass
class LemmaVerdict:
    """Outcome of one oracle or one fuzz suite."""

    lemma: str
    instances: int
    violations: int
    worst_slack: float  # min over everything checked of RHS - LHS

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def absorb(self, other: "LemmaVerdict") -> None:
        self.instances += other.instances
        self.violations += other.violations
        self.worst_slack = min(self.worst_slack, other.worst_slack)

    def to_dict(self) -> dict:
        return {
            "lemma": self.lemma,
            "instances": self.instances,
            "violations": self.violations,
            "worst_slack": self.worst_slack,
            "passed": self.passed,
        }


def _verdict(lemma: str, lhs, rhs) -> LemmaVerdict:
    """Count the entries of elementwise lhs <= rhs that fail ``bound_holds``."""
    lhs = np.atleast_1d(np.asarray(lhs, dtype=float))
    rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
    bad = int(np.sum(~bound_holds(lhs, rhs)))
    slack = float(np.min(rhs - lhs)) if len(lhs) else float("inf")
    return LemmaVerdict(lemma=lemma, instances=1, violations=bad, worst_slack=slack)


def _sigmoid(x: float) -> float:
    """1/(1 + e^-x) of a float, through ``math.exp``; 0 where e^-x overflows."""
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


def ema(beta: float, x: np.ndarray) -> np.ndarray:
    """V_t = beta V_{t-1} + (1-beta) x_t."""
    return (1.0 - beta) * discounted_scan(x, beta)


# ---------------------------------------------------------------------------
# Individual oracles.
# ---------------------------------------------------------------------------


def check_abel_sum(beta: float, a: Sequence[float]) -> LemmaVerdict:
    """sum_t V_t = sum_t (1 - beta^(T+1-t)) a_t, V_t = (1-b) sum b^(t-s) a_s."""
    if not (0.0 < beta <= 1.0):
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    a = np.asarray(a, dtype=float)
    T = len(a)
    lhs = float(ema(beta, a).sum())
    rhs = float(((1.0 - beta ** (T + 1 - np.arange(1, T + 1))) * a).sum())
    gap = abs(lhs - rhs)
    ok = gap <= IDENTITY_TOL * (1.0 + abs(rhs))
    return LemmaVerdict("abel-sum", 1, 0 if ok else 1, -gap)


def _ema_rhs_constant(beta: float) -> float:
    return 2.0 / np.sqrt((1.0 - beta) * 2.0 ** (-1.0 / beta))


def check_ema_self_confident(
    beta: float, eps: float, a: Sequence[float], A: Optional[float] = None,
    variant: str = "prev",
) -> LemmaVerdict:
    """Self-confident tuning against an EMA denominator.

    prev: sum a_t/(eps+sqrt(V_{t-1})) <= K A/eps + C sqrt(K sum a_t)
    curr: sum a_t/(eps+sqrt(V_t))     <=          C sqrt(K sum a_t)
    with K = T(1-beta)/ln2 + 1 and C = 2/sqrt((1-beta) 2^(-1/beta)).
    """
    if not (0.0 < beta < 1.0) or eps <= 0.0:
        raise ValueError("need beta in (0,1) and eps > 0")
    a = np.asarray(a, dtype=float)
    if A is None:
        A = float(a.max(initial=0.0))
    if np.any(a < 0.0) or np.any(a > A * (1.0 + 1e-12)):
        raise ValueError("sequence must satisfy 0 <= a_t <= A")
    T = len(a)
    V = ema(beta, a)
    V_prev = np.concatenate([[0.0], V[:-1]])
    denom = V_prev if variant == "prev" else V
    lhs = float((a / (eps + np.sqrt(denom))).sum())
    K = T * (1.0 - beta) / np.log(2.0) + 1.0
    rhs = _ema_rhs_constant(beta) * np.sqrt(K * a.sum())
    if variant == "prev":
        rhs += K * A / eps
    return _verdict(f"ema-self-confident-{variant}", lhs, rhs)


def check_beta_coupling(
    beta1: float, beta2: float, eps_seq: Sequence[float], g_norms: Sequence[float]
) -> LemmaVerdict:
    """[beta1/alpha_{t-1} - 1/alpha_t]_+ <= [beta1 - sqrt(beta2)]_+ sqrt(V_{t-1}).

    alpha_t = 1/(eps_t + sqrt(V_t)) with a nonnegative nondecreasing eps
    sequence (one entry more than g, for index 0) and V the (1-beta2)-scaled
    EMA of |g_t|^2.
    """
    if not (0.0 < beta1 < 1.0 and 0.0 < beta2 < 1.0):
        raise ValueError("beta1 and beta2 must lie in (0, 1)")
    eps_seq = np.asarray(eps_seq, dtype=float)
    g2 = np.asarray(g_norms, dtype=float) ** 2
    if len(eps_seq) != len(g2) + 1:
        raise ValueError("eps_seq needs one entry per t = 0..T")
    if np.any(eps_seq < 0.0) or np.any(np.diff(eps_seq) < 0.0):
        raise ValueError("eps sequence must be nonnegative and nondecreasing")
    sqrtV = np.sqrt(ema(beta2, g2))
    inv_alpha = eps_seq + np.concatenate([[0.0], sqrtV])
    lhs = np.maximum(beta1 * inv_alpha[:-1] - inv_alpha[1:], 0.0)
    rhs = max(beta1 - np.sqrt(beta2), 0.0) * np.concatenate([[0.0], sqrtV[:-1]])
    return _verdict("beta-coupling", lhs, rhs)


def check_lr_deviation(
    beta1: float, beta2: float, gamma: float, eps: float, mu: float,
    g_norms: Sequence[float],
) -> LemmaVerdict:
    """sum_{t<T} beta1^t (1/eta_t - 1/eta_{t-1}) <= sqrt(V_{T-1})/(g(1-b1))
    + sum_{t<=T-2} sqrt(V_t)/g + (T-1) eps/g + mu (T-1).

    The left side is evaluated in folded form (A_t - beta1 A_{t-1})/(g(1-b1))
    since 1/eta_t alone overflows once beta1^t underflows.
    """
    if not (0.0 < beta1 < 1.0 and 0.0 < beta2 < 1.0):
        raise ValueError("beta1 and beta2 must lie in (0, 1)")
    if gamma <= 0.0 or eps <= 0.0 or mu < 0.0:
        raise ValueError("need gamma > 0, eps > 0, mu >= 0")
    g2 = np.asarray(g_norms, dtype=float) ** 2
    n = len(g2)  # gradients g_1..g_{T-1}
    if n < 1:
        raise ValueError("need at least one gradient (T >= 2)")
    T = n + 1
    sqrtV = np.sqrt(ema(beta2, g2))
    b1pow = beta1 ** np.arange(1, T)
    A = eps + gamma * mu * (1.0 - b1pow) + sqrtV  # A_t, t = 1..T-1
    A_prev = np.concatenate([[eps], A[:-1]])
    lhs = float(((A - beta1 * A_prev) / (gamma * (1.0 - beta1))).sum())
    rhs = sqrtV[-1] / (gamma * (1.0 - beta1))
    rhs += float(sqrtV[: T - 2].sum()) / gamma
    rhs += (T - 1) * eps / gamma + mu * (T - 1)
    return _verdict("lr-deviation", lhs, rhs)


def check_min_self_confident(
    beta1: float, beta2: float, gamma: float, nu: float, mu: float,
    grads: np.ndarray,
) -> LemmaVerdict:
    """|eta_{t-1}-eta_t| |sum beta1^(t-1-s) g_s| <= gamma(1-b1) b1^(t-1)
    * (A_t - b1 A_{t-1})/A_t * sqrt(b2/((b2-b1^2)(1-b2))), for t >= 2.

    Requires beta2 > beta1^2 (the statement's hypothesis).
    """
    if not (0.0 < beta1 < 1.0 and 0.0 < beta2 < 1.0):
        raise ValueError("beta1 and beta2 must lie in (0, 1)")
    if beta2 <= beta1 * beta1:
        raise ValueError(f"hypothesis beta2 > beta1^2 violated: {beta2} <= {beta1**2}")
    if gamma <= 0.0 or nu <= 0.0 or mu < 0.0:
        raise ValueError("need gamma > 0, nu > 0, mu >= 0")
    grads = np.atleast_2d(np.asarray(grads, dtype=float))
    T = grads.shape[0]
    if T < 2:
        raise ValueError("need T >= 2")
    g2 = (grads**2).sum(axis=1)
    sqrtV = np.sqrt(ema(beta2, g2))
    b1pow = beta1 ** np.arange(1, T + 1)
    A = nu + gamma * mu * (1.0 - b1pow) + sqrtV
    eta = gamma * (1.0 - beta1) * b1pow / A
    m = discounted_scan(grads, beta1)  # sum beta1^(t-s) g_s
    m_norm = np.linalg.norm(m, axis=1)
    lhs = np.abs(eta[:-1] - eta[1:]) * m_norm[:-1]
    kappa = np.sqrt(beta2 / ((beta2 - beta1**2) * (1.0 - beta2)))
    rhs = (
        gamma * (1.0 - beta1) * b1pow[:-1] * (A[1:] - beta1 * A[:-1]) / A[1:] * kappa
    )
    return _verdict("min-self-confident", lhs, rhs)


def check_discounted_potential(
    beta: float, lam: float, Z: np.ndarray, c: Sequence[float]
) -> LemmaVerdict:
    """sum c_t^2 z_t'A_t^{-1}z_t <= d ln(1/b) sum c_t^2
    + (max c^2) d ln(1 + sum b^(T-t)|z_t|^2/(lam d)),
    with A_t = z_t z_t' + beta A_{t-1}, A_0 = lam I.
    """
    if not (0.0 < beta <= 1.0) or lam <= 0.0:
        raise ValueError("need beta in (0, 1] and lam > 0")
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    c = np.asarray(c, dtype=float)
    T, d = Z.shape
    A = lam * np.eye(d)
    lhs = 0.0
    for t in range(T):
        z = Z[t]
        A = np.outer(z, z) + beta * A
        lhs += c[t] ** 2 * float(z @ np.linalg.solve(A, z))
    pw = beta ** np.arange(T - 1, -1.0, -1.0)
    mass = float(pw @ (Z**2).sum(axis=1))
    rhs = d * np.log(1.0 / beta) * float((c**2).sum())
    rhs += float((c**2).max(initial=0.0)) * d * np.log1p(mass / (lam * d))
    return _verdict("discounted-potential", lhs, rhs)


def check_logistic_surrogate(C: float, a: float, b: float) -> LemmaVerdict:
    """f(a) >= f(b) + f'(b)(a-b) + e^b f'(b)^2 (a-b)^2 / (2(1+C)) on |a| <= C.

    The curvature coefficient is evaluated as sigma(b) sigma(-b) / (2(1+C)),
    which is exactly e^b f'(b)^2 / (2(1+C)) without overflow.
    """
    if C <= 0.0 or abs(a) > C * (1.0 + 1e-12):
        raise ValueError("need C > 0 and |a| <= C")
    a, b = float(a), float(b)
    f_a = float(np.logaddexp(0.0, -a))
    f_b = float(np.logaddexp(0.0, -b))
    fp_b = -_sigmoid(-b)
    curv = _sigmoid(b) * _sigmoid(-b) / (2.0 * (1.0 + C))
    rhs_expansion = f_b + fp_b * (a - b) + curv * (a - b) ** 2
    return _verdict("logistic-surrogate", rhs_expansion, f_a)


def _mixture_sums(yhats: np.ndarray, p: np.ndarray) -> list:
    """[s+, s-], s+- = max(sum_i p_i sigma(+-yhat_i), tiny) over the last
    axis: ln s+ - ln s- is the 1-mixable prediction (``logreg._mix``'s bits),
    and -ln s+- the right side of the inequality at y = +-1."""
    with np.errstate(over="ignore"):  # e^-x = inf gives sigma = 1/inf = 0
        return [np.maximum((p * (1.0 / (1.0 + np.exp(-y * yhats)))).sum(axis=-1), _TINY)
                for y in (1.0, -1.0)]


def check_mixability(mix: Sequence, yhats: Sequence, p: Sequence) -> LemmaVerdict:
    """l(mix, y) <= -ln sum_i p_i e^{-l(yhat_i, y)} for y in {+1, -1}.

    ``mix`` is the mixture's prediction for one round, with the experts'
    ``yhats`` and weights ``p`` of shape (N,), or T predictions with T
    rounds of shape (T, N); shapes that disagree and weights off the simplex
    raise ``ValueError``.  Every round counts as one instance, so one call
    on T rounds gives the verdict that T one-round calls absorb into.
    Rounds are taken ``MIXABILITY_BLOCK`` at a time, which keeps the
    temporaries at O(N * MIXABILITY_BLOCK) floats for any T.
    """
    mix = np.atleast_1d(np.asarray(mix, dtype=float))
    yhats = np.atleast_2d(np.asarray(yhats, dtype=float))
    p = np.atleast_2d(np.asarray(p, dtype=float))
    if yhats.shape != p.shape or yhats.ndim != 2:
        raise ValueError("predictions and weights must both be (T, N)")
    if mix.shape != yhats.shape[:1]:
        raise ValueError("the mixture needs one prediction per round")
    verdict = LemmaVerdict("mixability", 0, 0, float("inf"))
    for start in range(0, len(mix), MIXABILITY_BLOCK):
        rows = slice(start, start + MIXABILITY_BLOCK)
        q = p[rows]
        if not (np.all(q >= 0.0) and np.all(np.abs(q.sum(axis=1) - 1.0) <= 1e-9)):  # nan fails
            raise ValueError("weights must be nonnegative and sum to 1")
        lhs = [np.logaddexp(0.0, -y * mix[rows]) for y in (1.0, -1.0)]
        sums = _mixture_sums(yhats[rows], q)
        block = _verdict("mixability", np.ravel(lhs), -np.log(np.ravel(sums)))
        block.instances = len(q)
        verdict.absorb(block)
    return verdict


def check_self_confident_tuning(a: Sequence[float], delta: float) -> LemmaVerdict:
    """sum a_t/sqrt(delta + sum_{s<=t} a_s) <= 2(sqrt(delta + sum a) - sqrt(delta))."""
    a = np.asarray(a, dtype=float)
    if np.any(a < 0.0) or delta < 0.0:
        raise ValueError("sequence and delta must be nonnegative")
    prefix = delta + np.cumsum(a)
    terms = np.divide(a, np.sqrt(prefix), out=np.zeros_like(a), where=prefix > 0.0)
    lhs = float(terms.sum())
    rhs = 2.0 * (np.sqrt(delta + a.sum()) - np.sqrt(delta))
    return _verdict("self-confident-tuning", lhs, rhs)


def check_self_confident_int(a0: float, a: Sequence[float], bound: float) -> LemmaVerdict:
    """Integral-test bound with f(u) = u^(-1/2):
    sum a_t f(a_0 + sum_{s<t} a_s) <= B f(a_0) + 2(sqrt(a_0+sum a)-sqrt(a_0))."""
    a = np.asarray(a, dtype=float)
    if a0 <= 0.0 or np.any(a < 0.0) or np.any(a > bound * (1.0 + 1e-12)):
        raise ValueError("need a0 > 0 and 0 <= a_t <= bound")
    prefix = a0 + np.concatenate([[0.0], np.cumsum(a)[:-1]])
    lhs = float((a / np.sqrt(prefix)).sum())
    rhs = bound / np.sqrt(a0) + 2.0 * (np.sqrt(a0 + a.sum()) - np.sqrt(a0))
    return _verdict("self-confident-int", lhs, rhs)


# ---------------------------------------------------------------------------
# Fuzz suites.  Generators honor each statement's hypotheses; suites are
# deterministic in (instances, seed) and shardable by splitting seeds.
# ---------------------------------------------------------------------------


def _rand_nonneg(rng, T, scale) -> np.ndarray:
    kind = rng.integers(3)
    if kind == 0:
        return scale * rng.random(T)
    if kind == 1:
        out = scale * rng.random(T)
        out[rng.random(T) < 0.3] = 0.0
        return out
    return np.full(T, scale * rng.random())


def _fuzz_abel(rng) -> LemmaVerdict:
    T = int(rng.integers(1, 201))
    beta = 1.0 if rng.random() < 0.1 else float(rng.uniform(0.05, 1.0))
    a = rng.standard_normal(T) * float(10.0 ** rng.integers(-2, 3))
    return check_abel_sum(beta, a)


def _fuzz_ema_self_confident(rng) -> LemmaVerdict:
    T = int(rng.integers(1, 151))
    beta = float(rng.uniform(0.05, 0.995))
    A = float(10.0 ** rng.uniform(-1, 1))
    eps = float(A * 10.0 ** rng.uniform(-2, 1))
    a = _rand_nonneg(rng, T, A)
    out = check_ema_self_confident(beta, eps, a, A=A, variant="prev")
    out.absorb(check_ema_self_confident(beta, eps, a, A=A, variant="curr"))
    out.lemma, out.instances = "ema-self-confident", 1
    return out


def _fuzz_beta_coupling(rng) -> LemmaVerdict:
    T = int(rng.integers(1, 151))
    beta1 = float(rng.uniform(0.05, 0.995))
    beta2 = float(rng.uniform(0.05, 0.995))
    g = _rand_nonneg(rng, T, float(10.0 ** rng.uniform(-1, 1)))
    eps0 = float(rng.uniform(0.0, 2.0))
    if rng.random() < 0.5:
        eps_seq = np.full(T + 1, eps0)
    else:
        eps_seq = eps0 + np.concatenate([[0.0], np.cumsum(rng.random(T))])
    return check_beta_coupling(beta1, beta2, eps_seq, g)


def _fuzz_lr_deviation(rng) -> LemmaVerdict:
    T = int(rng.integers(2, 151))
    beta1 = float(rng.uniform(0.05, 0.995))
    beta2 = float(rng.uniform(0.05, 0.995))
    gamma = float(10.0 ** rng.uniform(-1, 1))
    eps = float(10.0 ** rng.uniform(-2, 1))
    mu = 0.0 if rng.random() < 0.4 else float(rng.uniform(0.0, 3.0))
    g = _rand_nonneg(rng, T - 1, float(10.0 ** rng.uniform(-1, 1)))
    return check_lr_deviation(beta1, beta2, gamma, eps, mu, g)


def _fuzz_min_self_confident(rng) -> LemmaVerdict:
    T = int(rng.integers(2, 101))
    d = int(rng.integers(1, 4))
    beta1 = float(rng.uniform(0.05, 0.99))
    beta2 = float(beta1**2 + (1.0 - beta1**2) * rng.uniform(0.01, 0.99))
    gamma = float(10.0 ** rng.uniform(-1, 1))
    nu = float(10.0 ** rng.uniform(-2, 1))
    mu = 0.0 if rng.random() < 0.5 else float(rng.uniform(0.0, 2.0))
    grads = rng.standard_normal((T, d)) * float(10.0 ** rng.integers(-1, 2))
    if rng.random() < 0.1:
        grads[:] = 0.0
    return check_min_self_confident(beta1, beta2, gamma, nu, mu, grads)


def _fuzz_discounted_potential(rng) -> LemmaVerdict:
    T = int(rng.integers(1, 61))
    d = int(rng.choice([1, 2, 5]))
    beta = 1.0 if rng.random() < 0.1 else float(rng.uniform(0.05, 1.0))
    lam = float(10.0 ** rng.uniform(-2, 0.7))
    Z = rng.standard_normal((T, d)) * float(10.0 ** rng.integers(-1, 2))
    c = rng.standard_normal(T)
    if rng.random() < 0.1:
        c[:] = 0.0
    return check_discounted_potential(beta, lam, Z, c)


def _fuzz_logistic_surrogate(rng) -> LemmaVerdict:
    C = float(rng.choice([1.0, 5.0, rng.uniform(0.5, 8.0)]))
    a = float(rng.uniform(-C, C))
    if rng.random() < 0.15:
        b = float(rng.uniform(-700.0, 700.0))  # stable-form regime
    else:
        b = float(rng.uniform(-10.0, 10.0))
    return check_logistic_surrogate(C, a, b)


def _fuzz_mixability(rng) -> LemmaVerdict:
    N = int(rng.integers(1, 17))
    yhats = rng.uniform(-30.0, 30.0, N)
    if rng.random() < 0.1:
        yhats[rng.integers(N)] = float(rng.choice([-700.0, 700.0]))
    p = rng.random(N)
    if N > 1 and rng.random() < 0.2:
        p[rng.integers(N)] = 0.0
    if p.sum() == 0.0:
        p[:] = 1.0
    p /= p.sum()
    s_pos, s_neg = _mixture_sums(yhats, p)
    return check_mixability(np.log(s_pos) - np.log(s_neg), yhats, p)


def _fuzz_self_confident(rng) -> LemmaVerdict:
    T = int(rng.integers(1, 201))
    scale = float(10.0 ** rng.uniform(-1, 1))
    a = _rand_nonneg(rng, T, scale)
    delta = 0.0 if rng.random() < 0.3 else float(rng.uniform(0.0, 5.0))
    out = check_self_confident_tuning(a, delta)
    out.absorb(check_self_confident_int(float(rng.uniform(1e-3, 3.0)), a, scale))
    out.lemma, out.instances = "self-confident-tuning", 1
    return out


SUITES = {
    "abel-sum": _fuzz_abel,
    "ema-self-confident": _fuzz_ema_self_confident,
    "beta-coupling": _fuzz_beta_coupling,
    "lr-deviation": _fuzz_lr_deviation,
    "min-self-confident": _fuzz_min_self_confident,
    "discounted-potential": _fuzz_discounted_potential,
    "logistic-surrogate": _fuzz_logistic_surrogate,
    "mixability": _fuzz_mixability,
    "self-confident-tuning": _fuzz_self_confident,
}


def run_suite(lemma: str, instances: int = 1000, seed: int = 0) -> LemmaVerdict:
    """Fuzz one oracle over ``instances`` seeded random instances."""
    if lemma not in SUITES:
        raise ValueError(f"unknown lemma suite {lemma!r}; known: {sorted(SUITES)}")
    gen = SUITES[lemma]
    rng = philox_rng(seed)
    total = LemmaVerdict(lemma=lemma, instances=0, violations=0, worst_slack=float("inf"))
    for _ in range(instances):
        total.absorb(gen(rng))
    total.lemma = lemma
    return total


def run_all(instances: int = 1000, seed: int = 0, only: Optional[str] = None) -> dict:
    names = [only] if only else list(SUITES)
    return {name: run_suite(name, instances, seed) for name in names}
