"""Independent numerical oracles for the supporting identities/inequalities.

Each ``check_*`` evaluates one concrete instance and returns a
:class:`LemmaVerdict`; the ``run_suite``/``run_all`` entry points fuzz the
checks over seeded random instances whose generators respect each
statement's hypotheses exactly (bounds, monotonicity, parameter ranges).

A violation is counted only when LHS - RHS > 1e-9 * (1 + |RHS|), so exact
equality cases (beta = 1, a = b, the mixability equality) do not trip the
oracles.  Where a raw formula overflows, the algebraically identical
stable form is substituted (e.g. e^b f'(b)^2 = sigma(b) sigma(-b) for the
logistic surrogate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from driftlearn.logreg import mix_predict, sigmoid
from driftlearn.streams import discounted_scan, philox_rng

TOL = 1e-9
IDENTITY_TOL = 1e-10
MIXABILITY_BLOCK = 64  # rounds per block of check_mixability


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


def _verdict(lemma: str, lhs, rhs, tol: float = TOL) -> LemmaVerdict:
    """Count violations of elementwise lhs <= rhs with relative slack."""
    lhs = np.atleast_1d(np.asarray(lhs, dtype=float))
    rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
    gaps = lhs - rhs
    bad = int(np.sum(gaps > tol * (1.0 + np.abs(rhs))))
    slack = float(np.min(rhs - lhs)) if len(gaps) else float("inf")
    return LemmaVerdict(lemma=lemma, instances=1, violations=bad, worst_slack=slack)


def discounted_sums(beta: float, x: np.ndarray) -> np.ndarray:
    """s_t = x_t + beta * s_{t-1} for t = 1..T (s_0 = 0)."""
    return discounted_scan(x, beta)


def ema(beta: float, x: np.ndarray) -> np.ndarray:
    """V_t = beta V_{t-1} + (1-beta) x_t."""
    return (1.0 - beta) * discounted_sums(beta, x)


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
    fp_b = -sigmoid(-b)
    curv = sigmoid(b) * sigmoid(-b) / (2.0 * (1.0 + C))
    rhs_expansion = f_b + fp_b * (a - b) + curv * (a - b) ** 2
    return _verdict("logistic-surrogate", rhs_expansion, f_a)


def check_mixability(yhats: Sequence, p: Sequence) -> LemmaVerdict:
    """l(yhat_mix, y) <= -ln sum_i p_i e^{-l(yhat_i, y)} for y in {+1, -1}.

    ``yhats`` and ``p`` hold one round, shape (N,), or T rounds, shape
    (T, N).  Every round is checked and counts as one instance, so one call
    on T rounds gives the verdict that T one-round calls absorb into.
    Rounds are taken ``MIXABILITY_BLOCK`` at a time, which keeps the
    temporaries at O(N * MIXABILITY_BLOCK) floats for any T.
    """
    yhats = np.atleast_2d(np.asarray(yhats, dtype=float))
    p = np.atleast_2d(np.asarray(p, dtype=float))
    tiny = np.finfo(float).tiny
    verdict = LemmaVerdict("mixability", 0, 0, float("inf"))
    for start in range(0, yhats.shape[0], MIXABILITY_BLOCK):
        block_yhats = yhats[start : start + MIXABILITY_BLOCK]
        block_p = p[start : start + MIXABILITY_BLOCK]
        mix = mix_predict(block_yhats, block_p)
        lhs, rhs = [], []
        for y in (1.0, -1.0):
            lhs.append(np.logaddexp(0.0, -y * mix))
            s = (block_p * sigmoid(y * block_yhats)).sum(axis=1)
            rhs.append(-np.log(np.maximum(s, tiny)))
        block = _verdict("mixability", np.ravel(lhs), np.ravel(rhs))
        block.instances = len(block_yhats)
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
    return check_mixability(yhats, p)


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
