import contextlib
import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from driftlearn import linreg, regret
from driftlearn.streams import ComparatorPath, Stream, StreamSpec, gen_stream, write_csv
import oracles


def random_quadratic_ledger(rng, T, d, beta, lam=0.0):
    Z = rng.standard_normal((T, d))
    y = rng.standard_normal(T)
    play = rng.random(T)
    return regret.RegretLedger(play, beta, Z, y, "squared", lam=lam)


def random_logistic_ledger(rng, T, d, beta, lam=0.5):
    Z = rng.standard_normal((T, d))
    y = rng.choice([-1.0, 1.0], T)
    return regret.RegretLedger(rng.random(T), beta, Z, y, "logistic", lam=lam)


def phi(ledger, u):
    """phi(u) = lam/2 |u|^2, as a Python float expression."""
    return 0.5 * ledger.lam * float(u @ u)


# ---------------------------------------------------------------------------
# O(T^2) oracles: every F_t and R_t summed directly from loss rows, round by
# round, with no skipped rounds and no running statistics.  Each returns the
# value and the sum of the absolute terms it adds up, the scale that
# floating-point roundoff in either evaluation is measured against.
# ---------------------------------------------------------------------------


def oracle_ft_value(ledger, t, u):
    val = float(oracles.discount_weights(ledger.beta, t) @ ledger.loss_eval_batch(u)[:t])
    if ledger.lam:  # phi = 0 at lam = 0
        val += ledger.beta**t * phi(ledger, u)
    return val


def oracle_ft_difference_term(ledger, path):
    total = scale = 0.0
    for t in range(1, ledger.T):
        hi, lo = oracle_ft_value(ledger, t, path[t]), oracle_ft_value(ledger, t, path[t - 1])
        total += hi - lo
        scale += abs(hi) + abs(lo)
    return ledger.beta * total, ledger.beta * scale


def geometric_weights(beta, t):
    """Normalized geometric weights over indices s = 0..t: entry s is
    proportional to beta**(t-s), and the vector sums to 1."""
    if not (0.0 < beta <= 1.0):
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    w = beta ** np.arange(t, -1.0, -1.0)
    return w / w.sum()


def oracle_path_variation(ledger, path, gamma):
    # a stationary round adds 0, which its terms are while its losses are
    # finite (an overflowing row would give it inf - inf)
    total = scale = 0.0
    for t in range(1, ledger.T):
        u_now, u_next = path[t - 1], path[t]
        if np.array_equal(u_now, u_next):
            continue
        w = geometric_weights(gamma, t)
        hi, lo = ledger.loss_eval_batch(u_next)[:t], ledger.loss_eval_batch(u_now)[:t]
        total += float(w[1:] @ np.maximum(hi - lo, 0.0))
        scale += float(w[1:] @ (np.abs(hi) + np.abs(lo)))
        if ledger.lam:  # phi = 0 at lam = 0
            hi0, lo0 = phi(ledger, u_next), phi(ledger, u_now)
            total += w[0] * max(hi0 - lo0, 0.0)
            scale += w[0] * (abs(hi0) + abs(lo0))
    return total, scale


def assert_path_variation_matches(value, ref, scale):
    """``value`` is ``ref`` within ORACLE_RTOL of ``scale``, or both are the
    same non-finite value (nan counts as equal to nan)."""
    if math.isfinite(ref):
        assert abs(value - ref) <= ORACLE_RTOL * scale, (value, ref, scale)
    else:
        assert value == ref or (math.isnan(value) and math.isnan(ref)), (value, ref)


def oracle_regret(ledger, t, u):
    diffs = ledger.losses_at_play[:t] - ledger.loss_eval_batch(u)[:t]
    return float(oracles.discount_weights(ledger.beta, t) @ diffs)


def oracle_d2d_identity_gap(ledger, path):
    T, beta = ledger.T, ledger.beta
    lhs = sum(ledger.losses_at_play[t - 1] - ledger.loss_eval(t, path[t - 1])
              for t in range(1, T + 1))
    diag = [oracle_regret(ledger, t, path[t - 1]) for t in range(1, T + 1)]
    ahead = [oracle_regret(ledger, t, path[t]) for t in range(1, T)]
    rhs = (1.0 - beta) * sum(diag) + beta * diag[-1]
    rhs += beta * sum(a - b for a, b in zip(diag, ahead))
    scale = abs(lhs) + sum(map(abs, diag)) + sum(map(abs, ahead))
    return abs(lhs - rhs), scale


def fuzz_path(rng, T, d, moving):
    """A path that moves every round, or a piecewise-constant one whose
    stationary rounds repeat the same row exactly."""
    if moving:
        return ComparatorPath(rng.standard_normal((T, d)))
    pieces = rng.standard_normal((int(rng.integers(1, 5)), d))
    return ComparatorPath(pieces[np.sort(rng.integers(0, len(pieces), T))])


# Drift of the running-statistics and skip-rule evaluators against the oracles
# is float roundoff: the sums are reordered, never truncated.  The bound is
# set in units of the oracle's summed absolute terms.
ORACLE_RTOL = 1e-12

fuzz_cases = st.fixed_dictionaries({
    "seed": st.integers(0, 2**31 - 1),
    "T": st.integers(1, 40),
    "d": st.integers(1, 6),
    "beta": st.floats(0.05, 1.0),
    "moving": st.booleans(),
})


class TestGeometricWeights:
    def test_uniform_at_beta_one(self):
        np.testing.assert_allclose(
            geometric_weights(1.0, 2), [1 / 3, 1 / 3, 1 / 3], rtol=1e-15
        )

    def test_half_discount_two_rounds(self):
        np.testing.assert_allclose(
            geometric_weights(0.5, 1), [1 / 3, 2 / 3], rtol=1e-15
        )

    def test_single_index(self):
        np.testing.assert_allclose(geometric_weights(0.5, 0), [1.0])

    def test_sum_one_and_monotone(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            beta = float(rng.uniform(0.01, 1.0))
            t = int(rng.integers(0, 200))
            w = geometric_weights(beta, t)
            assert abs(w.sum() - 1.0) <= 1e-12
            assert np.all(w > 0.0)
            if beta < 1.0:
                assert np.all(np.diff(w) >= 0.0)  # decreasing in the lag t-s

    @pytest.mark.parametrize("beta", [0.0, -0.5, 1.5])
    def test_bad_beta_rejected(self, beta):
        with pytest.raises(ValueError):
            geometric_weights(beta, 3)


class TestDynamicRegret:
    def test_self_comparator_gives_zero(self):
        rng = np.random.default_rng(0)
        ledger = random_quadratic_ledger(rng, 6, 2, beta=0.7)
        path = ComparatorPath(rng.standard_normal((6, 2)))
        ledger.losses_at_play = np.array(
            [ledger.loss_eval(t, path[t - 1]) for t in range(1, 7)]
        )
        assert regret.dynamic_regret(ledger, path) == 0.0

    def test_single_round(self):
        # f_1(0) = (0 - 1)^2 / 2
        ledger = regret.RegretLedger(np.array([3.0]), 1.0, np.ones((1, 1)), np.ones(1), "squared")
        assert regret.dynamic_regret(ledger, ComparatorPath(np.zeros((1, 1)))) == 2.5

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(1)
        ledger = random_quadratic_ledger(rng, 5, 3, beta=0.9)
        path = ComparatorPath(rng.standard_normal((5, 3)))
        direct = sum(
            ledger.losses_at_play[t - 1] - ledger.loss_eval(t, path[t - 1])
            for t in range(1, 6)
        )
        assert abs(regret.dynamic_regret(ledger, path) - direct) <= 1e-12

    def test_length_mismatch_rejected(self):
        rng = np.random.default_rng(2)
        ledger = random_quadratic_ledger(rng, 5, 2, beta=1.0)
        with pytest.raises(ValueError):
            regret.dynamic_regret(ledger, ComparatorPath(np.zeros((4, 2))))


class TestDiscountedRegret:
    def test_beta_one_reduces_to_static_prefix(self):
        rng = np.random.default_rng(3)
        ledger = random_quadratic_ledger(rng, 8, 2, beta=1.0)
        u = rng.standard_normal(2)
        for t in (1, 4, 8):
            static = sum(
                ledger.losses_at_play[s - 1] - ledger.loss_eval(s, u)
                for s in range(1, t + 1)
            )
            assert abs(oracles.discounted_regret(ledger, t, u) - static) <= 1e-12

    def test_single_term(self):
        rng = np.random.default_rng(4)
        ledger = random_quadratic_ledger(rng, 3, 2, beta=0.4)
        u = np.zeros(2)
        expected = ledger.losses_at_play[0] - ledger.loss_eval(1, u)
        assert abs(oracles.discounted_regret(ledger, 1, u) - expected) <= 1e-15

    def test_frozen_half_discount_example(self):
        # plays [1, 2, 4] against a zero-loss comparator: 0.25 + 1 + 4
        ledger = regret.RegretLedger(
            np.array([1.0, 2.0, 4.0]), 0.5, np.zeros((3, 1)), np.zeros(3), "squared"
        )
        assert abs(oracles.discounted_regret(ledger, 3, np.zeros(1)) - 5.25) <= 1e-12

    def test_round_out_of_range_rejected(self):
        rng = np.random.default_rng(5)
        ledger = random_quadratic_ledger(rng, 3, 1, beta=0.5)
        with pytest.raises(ValueError):
            oracles.discounted_regret(ledger, 4, np.zeros(1))


class TestConversionIdentity:
    def test_single_round_any_beta(self):
        rng = np.random.default_rng(6)
        for beta in (0.1, 0.5, 1.0):
            ledger = random_quadratic_ledger(rng, 1, 2, beta=beta)
            path = ComparatorPath(rng.standard_normal((1, 2)))
            assert regret.d2d_identity_gap(ledger, path) <= 1e-14

    @pytest.mark.parametrize("beta,T", [(1.0, 8), (0.3, 50)])
    def test_random_instances(self, beta, T):
        rng = np.random.default_rng(7)
        ledger = random_quadratic_ledger(rng, T, 3, beta=beta)
        path = ComparatorPath(rng.standard_normal((T, 3)))
        lhs = regret.dynamic_regret(ledger, path)
        assert regret.d2d_identity_gap(ledger, path) <= 1e-9 * (1.0 + abs(lhs))

    def test_fuzz(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            T = int(rng.integers(1, 60))
            d = int(rng.integers(1, 4))
            beta = float(rng.choice([0.1, 0.5, 0.9, 1.0]))
            ledger = random_quadratic_ledger(rng, T, d, beta=beta)
            path = ComparatorPath(rng.standard_normal((T, d)))
            lhs = regret.dynamic_regret(ledger, path)
            assert regret.d2d_identity_gap(ledger, path) <= 1e-9 * (1.0 + abs(lhs))


class TestPathVariation:
    def test_constant_path_has_no_variation(self):
        rng = np.random.default_rng(9)
        ledger = random_quadratic_ledger(rng, 10, 2, beta=0.8, lam=1.0)
        path = oracles.constant_path(rng.standard_normal(2), 10)
        assert regret.path_variation(ledger, path, 0.5) == 0.0

    def test_unit_jump_with_unit_weights_sums_to_one(self):
        # f_0(u) = f_1(u) = u^2/2; the jump from 0 to 1 gives [diff]_+ = 1/2
        # at both s = 0 and s = 1, and the normalized weights 1/3, 2/3 sum to 1.
        ledger = regret.RegretLedger(np.zeros(2), 0.5, np.ones((2, 1)), np.zeros(2), "squared",
                                     lam=1.0)
        path = ComparatorPath(np.array([[0.0], [1.0]]))
        assert abs(regret.path_variation(ledger, path, 0.5) - 0.5) <= 1e-15
        without_f0 = regret.path_variation(dataclasses.replace(ledger, lam=0.0), path, 0.5)
        assert abs(without_f0 - 1.0 / 3.0) <= 1e-15

    def test_lipschitz_upper_bound(self):
        # logistic losses f_s(u) = ln(1 + exp(-y_s z_s.u)) are G-Lipschitz
        # with G = max |z_s|; phi = 0
        rng = np.random.default_rng(10)
        T, d = 12, 3
        ledger = random_logistic_ledger(rng, T, d, beta=0.9, lam=0.0)
        U = rng.standard_normal((T, d))
        path = ComparatorPath(U)
        G = float(np.linalg.norm(ledger.Z, axis=1).max())
        hops = float(np.linalg.norm(np.diff(U, axis=0), axis=1).sum())
        for gamma in (0.3, 0.8, 0.99):
            assert regret.path_variation(ledger, path, gamma) <= G * hops + 1e-9

    def test_nonnegative_and_grows_with_jump_size(self):
        # f_s(u) = u^2/2 around 0; a bigger jump away from 0 costs more
        ledger = regret.RegretLedger(np.zeros(5), 0.5, np.ones((5, 1)), np.zeros(5), "squared")
        values = []
        for jump in (0.0, 1.0, 2.0):
            U = np.zeros((5, 1))
            U[3:] = jump
            values.append(regret.path_variation(ledger, ComparatorPath(U), 0.5))
        assert values[0] == 0.0
        assert values[0] <= values[1] <= values[2]

    def test_gamma_out_of_range_rejected(self):
        rng = np.random.default_rng(11)
        ledger = random_quadratic_ledger(rng, 4, 1, beta=0.5)
        with pytest.raises(ValueError):
            regret.path_variation(ledger, ComparatorPath(np.zeros((4, 1))), 1.0)


class TestPathLengthLemma:
    def _ledger(self, rng, T, d, lam=0.3):
        Z = rng.standard_normal((T, d))
        y = rng.standard_normal(T)
        return regret.RegretLedger(np.zeros(T), 0.5, Z, y, "squared", lam=lam)

    def test_constant_path_holds(self):
        rng = np.random.default_rng(16)
        ledger = self._ledger(rng, 8, 2)
        path = oracles.constant_path(rng.standard_normal(2), 8)
        assert regret.check_path_length_lemma(ledger, path, 0.5, 0.5)

    @pytest.mark.parametrize("beta,gamma", [(0.6, 0.6), (0.2, 0.8)])
    def test_random_instances_hold(self, beta, gamma):
        rng = np.random.default_rng(17)
        for _ in range(30):
            T = int(rng.integers(2, 40))
            ledger = self._ledger(rng, T, 2)
            path = ComparatorPath(rng.standard_normal((T, 2)))
            assert regret.check_path_length_lemma(ledger, path, beta, gamma)

    def test_probe_keeps_every_ledger_field_but_beta(self, monkeypatch):
        rng = np.random.default_rng(19)
        ledger = random_quadratic_ledger(rng, 6, 2, beta=0.9, lam=1.0)
        probes, sources = [], []
        ft_difference, variation = regret._ft_difference, regret._variation

        def spy(probe, *args):
            probes.append(probe)
            return ft_difference(probe, *args)

        def variation_spy(source, *args):
            sources.append(source)
            return variation(source, *args)

        monkeypatch.setattr(regret, "_ft_difference", spy)
        monkeypatch.setattr(regret, "_variation", variation_spy)
        regret.check_path_length_lemma(
            ledger, ComparatorPath(rng.standard_normal((6, 2))), 0.5, 0.8)
        (probe,) = probes
        assert probe.beta == 0.5
        for f in dataclasses.fields(regret.RegretLedger):
            if f.init and f.name != "beta":
                assert getattr(probe, f.name) is getattr(ledger, f.name), f.name
        assert sources == [ledger]  # P_T^g does not depend on beta

    def test_bad_ordering_rejected(self):
        rng = np.random.default_rng(18)
        ledger = self._ledger(rng, 4, 1)
        with pytest.raises(ValueError):
            regret.check_path_length_lemma(
                ledger, ComparatorPath(np.zeros((4, 1))), 0.9, 0.5
            )


def full_lemma_verdict(ledger, path, beta, gamma):
    """The lemma's verdict from the whole sum P_T, as the check read before
    it stopped at its first certificate."""
    lhs = regret.ft_difference_term(dataclasses.replace(ledger, beta=beta), path)
    rhs = gamma / (1.0 - gamma) * regret.path_variation(ledger, path, gamma)
    return lhs <= rhs + 1e-9 * (1.0 + abs(rhs))


class TestLemmaEarlyExit:
    # The check stops at the first block end whose partial sum of P_T
    # certifies the inequality.  Its verdict must be the one the whole sum
    # gives, also where a later term is nan: a y of 1e200 makes that row's
    # losses inf at every comparator, so the terms of the rounds from it on
    # are inf - inf = nan, while the F-differences (from G_t and h_t, not
    # y^2) stay finite.  A row whose features are 1e200 times larger has
    # finite losses only at the zero comparator; it sits in the rows past
    # t_j of the rounds before it in a block, where its difference is +inf
    # ("inf-row") or inf - inf ("nan-row"), and no value of those rows may
    # enter round t_j's term, not even times a zero weight: P_T must match
    # the per-round sum, which never reads them.  For a squared-loss ledger
    # the lemma holds, so the failing verdicts come from the faults: a nan
    # comparator, and loss rows of 0 that P_T reads while the left side
    # reads the statistics, which fail with every term finite and so run to
    # the end.
    @settings(max_examples=100)
    @given(case=fuzz_cases, gamma=st.floats(0.05, 0.95), lam=st.sampled_from([0.0, 0.7]),
           fault=st.sampled_from([None, "vanishing-rows", "late-inf-loss", "nan-comparator",
                                  "inf-row", "nan-row"]))
    @example(case={"seed": 3, "T": 30, "d": 3, "beta": 0.9, "moving": True}, gamma=0.95,
             lam=0.7, fault="late-inf-loss")
    @example(case={"seed": 5, "T": 12, "d": 2, "beta": 0.5, "moving": False}, gamma=0.5,
             lam=0.7, fault="nan-comparator")
    @example(case={"seed": 6, "T": 30, "d": 3, "beta": 0.9, "moving": True}, gamma=0.9,
             lam=0.7, fault="inf-row")
    @example(case={"seed": 7, "T": 30, "d": 3, "beta": 0.9, "moving": True}, gamma=0.9,
             lam=0.0, fault="nan-row")
    @example(case={"seed": 12, "T": 30, "d": 3, "beta": 0.9, "moving": True}, gamma=0.9,
             lam=0.0, fault="vanishing-rows")  # verdict False
    def test_verdict_is_the_full_sums(self, case, gamma, lam, fault):
        rng = np.random.default_rng(case["seed"])
        T, d, beta = max(case["T"], 2), case["d"], min(case["beta"], gamma)
        Z, y = rng.standard_normal((T, d)), rng.standard_normal(T)
        path = fuzz_path(rng, T, d, case["moving"])
        if fault == "late-inf-loss":
            y[T - 2] = 1e200  # row T-1: only the last round sees it
        elif fault == "nan-comparator":
            path.U[int(rng.integers(T)), 0] = math.nan
        elif fault in ("inf-row", "nan-row"):
            Z[T - 2] *= 1e200  # row T-1, read by round T-1 alone
            path.U[T - 2] = 0.0  # u_{T-1}: f_{T-1} is finite there
            if fault == "nan-row":
                path.U[T - 1] *= 1e-200  # and at u_T, so round T-1's term is finite
        ledger = regret.RegretLedger(np.zeros(T), 0.5, Z, y, "squared", lam=lam)
        if fault == "vanishing-rows":
            ledger._loss = lambda m, y: np.zeros_like(m)
        with np.errstate(over="ignore", invalid="ignore"):
            verdict = regret.check_path_length_lemma(ledger, path, beta, gamma)
            assert verdict == full_lemma_verdict(ledger, path, beta, gamma)
            pv = regret.path_variation(ledger, path, gamma)
            assert_path_variation_matches(pv, *oracle_path_variation(ledger, path, gamma))

    def test_rotating_target_certifies_before_the_last_round(self):
        T = 400
        stream, truth = gen_stream(StreamSpec(kind="rotating-target", d=5, T=T, segments=3, seed=1))
        ledger = linreg.vaw_ledger(linreg.run_dvaw(stream, 0.99, 1.0))
        assert len(regret._moved_rounds(truth)) == T - 1
        rows = []
        loss = ledger._loss
        ledger._loss = lambda m, y: rows.append(m.size) or loss(m, y)
        assert regret.check_path_length_lemma(ledger, truth, 0.99, 0.995)
        early = sum(rows)
        rows.clear()
        assert full_lemma_verdict(ledger, truth, 0.99, 0.995)
        # the whole sum evaluates a loss for each of the rows its rounds
        # read, 1 + 2 + ... + (T-1), and the lemma stops well before that
        assert sum(rows) >= (T - 1) * T // 2
        assert 0 < early < sum(rows) // 2


# Block budgets of the squared-loss kernel and of P_T^g's blocks: one round a
# block (and one row a P_T^g chunk), the module's own, and one block for
# every round these tests request.
BUDGETS = pytest.mark.parametrize(
    "budget", [0, None, 10**9], ids=["one-round-blocks", "default", "one-block"])


@contextlib.contextmanager
def squared_loss_kernel(budget):
    """Run the squared-loss kernel with ``budget`` (None: the module's own)."""
    with pytest.MonkeyPatch.context() as patch:
        if budget is not None:
            patch.setattr(regret, "_BLOCK_FLOATS", budget)
        yield


def kernel_columns(ledger, rounds, U, diag):
    """D_t (nan at round T) and, with ``diag``, R_t(u_t) (else nan) at ``rounds``,
    gathered from the blocks of the squared-loss kernel."""
    D, R = np.full(len(rounds), math.nan), np.full(len(rounds), math.nan)
    for b, Db, Rb in regret._margin_blocks(ledger, U, rounds, diag):
        D[b.start : b.start + len(Db)] = Db
        if diag:
            R[b] = Rb
    return D, R


def oracle_loss_difference(ledger, t, v, w):
    """sum_{s<=t} beta^(t-s) (f_s(v) - f_s(w)), and the sum of its two sides' sizes."""
    weights = oracles.discount_weights(ledger.beta, t)
    hi = float(weights @ ledger.loss_eval_batch(v)[:t])
    lo = float(weights @ ledger.loss_eval_batch(w)[:t])
    return hi - lo, abs(hi) + abs(lo)


def assert_regrets_match_oracle(ledger, path, upto):
    """R_t(u_t) and D_t against direct sums, for rounds t < upto: both from the
    identity's pass over every round, and D_t from the F-difference's pass
    over the moved rounds."""
    T, U = ledger.T, path.U
    D, R = kernel_columns(ledger, range(1, T + 1), U, True)
    moved = regret._moved_rounds(path)
    moved_D, _ = kernel_columns(ledger, moved, U, False)
    for t in range(1, upto):
        ref = oracle_regret(ledger, t, path[t - 1])
        assert abs(R[t - 1] - ref) <= ORACLE_RTOL * (1.0 + abs(ref))
        if t < T:
            ref, scale = oracle_loss_difference(ledger, t, path[t], path[t - 1])
            assert abs(D[t - 1] - ref) <= ORACLE_RTOL * scale
    for t, value in zip(moved, moved_D):
        if t < upto:
            ref, scale = oracle_loss_difference(ledger, t, path[t], path[t - 1])
            assert abs(value - ref) <= ORACLE_RTOL * scale


class TestOracleAgreement:
    @BUDGETS
    @given(case=fuzz_cases, lam=st.sampled_from([0.0, 0.7]))
    @example(case={"seed": 1, "T": 1, "d": 3, "beta": 0.5, "moving": True}, lam=0.7)
    @example(case={"seed": 2, "T": 40, "d": 6, "beta": 0.9, "moving": True}, lam=0.0)
    # a path that spans several default-budget blocks of the identity's pass
    @example(case={"seed": 3, "T": 300, "d": 20, "beta": 0.99, "moving": True}, lam=0.7)
    # beta^(t-s) underflows to 0 past a lag of about 250 rows: inside the
    # one-block budget's blocks, and inside the default budget's one block
    # over the 303 rows up to the last of this path's three moved rounds
    @example(case={"seed": 4, "T": 400, "d": 3, "beta": 0.05, "moving": False}, lam=0.7)
    def test_squared_loss_ledgers(self, budget, case, lam):
        rng = np.random.default_rng(case["seed"])
        T, d, beta = case["T"], case["d"], case["beta"]
        ledger = random_quadratic_ledger(rng, T, d, beta=beta, lam=lam)
        path = fuzz_path(rng, T, d, case["moving"])
        with squared_loss_kernel(budget):
            self._agree(ledger, path)
            assert_regrets_match_oracle(ledger, path, T + 1)

    # A logistic ledger has no running statistics: the conversion identity
    # holds on its loss rows, and path_variation takes the same losses from
    # its block margins.
    @given(case=fuzz_cases, lam=st.sampled_from([0.0, 0.5]))
    def test_logistic_ledgers(self, case, lam):
        rng = np.random.default_rng(case["seed"])
        T, d = case["T"], case["d"]
        ledger = random_logistic_ledger(rng, T, d, case["beta"], lam)
        path = fuzz_path(rng, T, d, case["moving"])
        gap, scale = oracle_d2d_identity_gap(ledger, path)
        assert gap <= ORACLE_RTOL * scale
        for gamma in (0.3, 0.9):
            pv = regret.path_variation(ledger, path, gamma)
            assert_path_variation_matches(pv, *oracle_path_variation(ledger, path, gamma))

    @pytest.mark.parametrize("evaluator", [
        regret.ft_difference_term, regret.d2d_identity_gap,
        lambda ledger, path: regret.check_path_length_lemma(ledger, path, 0.5, 0.9),
    ], ids=["ft-difference", "identity-gap", "path-length-lemma"])
    @pytest.mark.parametrize("moving", [True, False], ids=["moving", "constant"])
    def test_statistics_evaluators_reject_a_logistic_ledger(self, evaluator, moving):
        rng = np.random.default_rng(30)
        ledger = random_logistic_ledger(rng, 6, 2, 0.8)
        u = rng.standard_normal((6, 2))
        path = ComparatorPath(u) if moving else oracles.constant_path(u[0], 6)
        with pytest.raises(ValueError) as exc:
            evaluator(ledger, path)
        message = str(exc.value)
        assert "\n" not in message and "loss='logistic'" in message

    def _agree(self, ledger, path):
        ref, scale = oracle_ft_difference_term(ledger, path)
        assert abs(regret.ft_difference_term(ledger, path) - ref) <= ORACLE_RTOL * scale
        gap_ref, scale = oracle_d2d_identity_gap(ledger, path)
        assert abs(regret.d2d_identity_gap(ledger, path) - gap_ref) <= ORACLE_RTOL * scale
        for gamma in (0.3, 0.9):
            pv = regret.path_variation(ledger, path, gamma)
            assert_path_variation_matches(pv, *oracle_path_variation(ledger, path, gamma))

    def test_stationary_rounds_evaluate_no_loss(self):
        rng = np.random.default_rng(19)
        T, d = 30, 3
        ledger = random_logistic_ledger(rng, T, d, 0.8)
        calls = []
        loss = ledger._loss
        ledger._loss = lambda m, y: calls.append(m.shape) or loss(m, y)
        path = oracles.constant_path(rng.standard_normal(d), T)
        assert regret.path_variation(ledger, path, 0.5) == 0.0
        assert calls == []

    def test_each_distinct_comparator_is_evaluated_once(self):
        # moves at rounds 3, 5 and 8 of T = 10 make one block of four
        # distinct comparators, and its rows 1..8 one chunk: one loss
        # evaluation of each comparator on each row
        rng = np.random.default_rng(25)
        ledger = random_logistic_ledger(rng, 10, 3, 0.8)
        shapes = []
        loss = ledger._loss
        ledger._loss = lambda m, y: shapes.append(m.shape) or loss(m, y)
        pieces = rng.standard_normal((4, 3))
        path = ComparatorPath(pieces[[0, 0, 0, 1, 1, 2, 2, 2, 3, 3]])
        regret.path_variation(ledger, path, 0.5)
        assert shapes == [(4, 8)]

    @BUDGETS
    def test_constant_path_requests_no_round(self, budget):
        rng = np.random.default_rng(26)
        ledger = random_quadratic_ledger(rng, 30, 3, beta=0.8, lam=1.0)
        with squared_loss_kernel(budget):
            value = regret.ft_difference_term(ledger, oracles.constant_path(np.ones(3), 30))
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_blocks_follow_the_budget(self, monkeypatch):
        rng = np.random.default_rng(27)
        ledger = random_quadratic_ledger(rng, 30, 3, beta=0.9)
        U, rounds = rng.standard_normal((30, 3)), np.arange(1, 31)

        def blocks(diag):
            return [b for b, *_ in regret._margin_blocks(ledger, U, rounds, diag)]

        monkeypatch.setattr(regret, "_BLOCK_FLOATS", 0)
        assert blocks(True) == blocks(False) == [slice(i, i + 1) for i in range(30)]
        monkeypatch.setattr(regret, "_BLOCK_FLOATS", 10**9)
        assert blocks(True) == blocks(False) == [slice(0, 30)]
        # a non-finite comparator makes every sum that reads it non-finite,
        # so it cuts no block; a non-finite row (15) ends the block before it
        U[4, 0], U[9, 1] = math.inf, math.nan
        with np.errstate(over="ignore", invalid="ignore"):
            assert blocks(True) == blocks(False) == [slice(0, 30)]
            ledger.y[14] = math.inf
            assert blocks(True) == blocks(False) == [slice(0, 14), slice(14, 30)]

    # A row whose products overflow, or that holds an inf, makes the later
    # statistics non-finite.  The rounds before it keep their values: a block
    # that spans the row gives them a zero weight for it, and 0 * inf is nan.
    @BUDGETS
    @pytest.mark.parametrize("field, value", [
        ("Z", 1e300), ("Z", math.inf), ("y", 1e200), ("y", -math.inf), ("play", math.inf),
    ])
    @pytest.mark.parametrize("row", [12, 11])  # 1-based, of T = 12
    def test_overflowing_row_leaves_earlier_rounds_finite(self, budget, field, value, row):
        rng = np.random.default_rng(28)
        clean = random_quadratic_ledger(rng, 12, 3, beta=0.8, lam=0.5)
        path = ComparatorPath(rng.standard_normal((12, 3)))
        Z, y = clean.Z.copy(), clean.y.copy()
        play = clean.losses_at_play.copy()
        columns = {"Z": Z[:, 0], "y": y, "play": play}  # views of the copies
        columns[field][row - 1] = value
        # the loss rows stay clean: the oracles see rows < row only
        ledger = dataclasses.replace(clean, losses_at_play=play, Z=Z, y=y)
        ledger.loss_eval_batch = clean.loss_eval_batch
        with squared_loss_kernel(budget), np.errstate(over="ignore", invalid="ignore"):
            assert_regrets_match_oracle(ledger, path, row)

    @BUDGETS
    def test_no_comparator_term_at_lam_zero_even_at_an_infinite_comparator(self, budget):
        # phi is 0 at lam = 0, not 0 * |u|^2, which is nan where |u| is inf.
        # In one dimension the last round's D_t is +inf, not nan, whatever
        # the budget: the first block, which carries nothing, once added its
        # zero statistics' inf * 0 = nan.  So the F-difference is +inf, the
        # sum of its D_t terms alone, and P_T is +inf, with no nan term
        rng = np.random.default_rng(21)
        T = 6
        ledger = random_quadratic_ledger(rng, T, 1, beta=0.5, lam=0.0)
        U = np.repeat(rng.standard_normal((3, 1)), 2, axis=0)
        U[T - 1, 0] = math.inf  # the last round moves to infinity
        path = ComparatorPath(U)
        moved, steps = regret._moves(ledger, path)
        assert moved.tolist() == [2, 4, 5]
        assert steps.tolist() == [0.0, 0.0, 0.0] and not np.signbit(steps).any()
        with squared_loss_kernel(budget), np.errstate(over="ignore", invalid="ignore"):
            D, _ = kernel_columns(ledger, moved, U, False)
            assert D[-1] == math.inf and np.isfinite(D[:-1]).all()
            assert regret.ft_difference_term(ledger, path) == ledger.beta * float(D.sum())
            pv = regret.path_variation(ledger, path, 0.5)
        assert pv == math.inf
        assert_path_variation_matches(pv, *oracle_path_variation(ledger, path, 0.5))

    def test_nan_comparator_counts_as_a_move(self):
        rng = np.random.default_rng(20)
        ledger = random_quadratic_ledger(rng, 4, 2, beta=0.5, lam=1.0)
        U = np.ones((4, 2))
        U[2:, 0] = np.nan
        path = ComparatorPath(U)
        assert np.isnan(regret.ft_difference_term(ledger, path))
        assert np.isnan(regret.path_variation(ledger, path, 0.5))


def gamma_n(n):
    """Higham's gamma_n = n u / (1 - n u), with the unit roundoff u = 2^-53."""
    u = Fraction(1, 2**53)
    return n * u / (1 - n * u)


class TestExactPathVariation:
    # path_variation against the exact rational P_T^g.  Before its weight, a
    # term's float error is at most gamma_{2d+5} (a_s(v) + a_s(w)): the
    # margin's d products and sums, the residual, the square and the
    # difference; the positive part adds none.  A weight is off by at most
    # gamma_{t+7} relative (two powers within 2u each and their product, the
    # normalizer's t sums, the division) and its product by one more u, and
    # the sums over at most t rows, a chunk's sum into its round's and T
    # rounds add at most gamma_{2t+T}.  So the whole is within gamma_n S,
    # n = 4T + 2d + 16, for the oracle's size S of the terms.  The budgets
    # run one round and one row a chunk, two rounds and a few rows, the
    # module's own, and one block and chunk for every round.
    @pytest.mark.parametrize("budget", [0, 32, None, 10**9],
                             ids=["one-row-chunks", "small", "default", "one-block"])
    @given(seed=st.integers(0, 2**31 - 1), T=st.integers(1, 12), d=st.integers(1, 3),
           gamma=st.floats(0.05, 0.95), lam=st.sampled_from([0.0, 0.7]), moving=st.booleans())
    @example(seed=1, T=12, d=3, gamma=0.95, lam=0.7, moving=True)
    @example(seed=2, T=12, d=2, gamma=0.05, lam=0.0, moving=False)
    def test_within_the_forward_error_bound(self, budget, seed, T, d, gamma, lam, moving):
        rng = np.random.default_rng(seed)
        ledger = random_quadratic_ledger(rng, T, d, beta=0.9, lam=lam)
        path = fuzz_path(rng, T, d, moving)
        exact, size = oracles.exact_path_variation(ledger, path, gamma)
        with squared_loss_kernel(budget):
            pv = regret.path_variation(ledger, path, gamma)
        assert abs(Fraction(pv) - exact) <= gamma_n(4 * T + 2 * d + 16) * size

    def test_logistic_ledger_rejected(self):
        ledger = random_logistic_ledger(np.random.default_rng(31), 4, 2, 0.8)
        with pytest.raises(ValueError, match="loss='logistic'"):
            oracles.exact_path_variation(ledger, ComparatorPath(np.zeros((4, 2))), 0.5)


exact_cases = st.fixed_dictionaries({
    "seed": st.integers(0, 2**31 - 1),
    "T": st.integers(1, 40),
    "d": st.integers(1, 3),
    "beta": st.floats(0.05, 1.0),
    "lam": st.sampled_from([0.0, 0.7]),
    "moving": st.booleans(),
})


def exact_instance(case):
    rng = np.random.default_rng(case["seed"])
    T, d = case["T"], case["d"]
    ledger = random_quadratic_ledger(rng, T, d, beta=case["beta"], lam=case["lam"])
    return ledger, fuzz_path(rng, T, d, case["moving"])


class TestExactReferees:
    # dynamic_regret, ft_difference_term and d2d_identity_gap against the
    # exact rational values of tests/oracles.py, each within the gamma_n S
    # bound that its referee's docstring derives.  The kernel runs one round
    # a block, which carries statistics between every two rounds, and at
    # the module's own budget, one block at these sizes.
    KERNEL_BUDGETS = pytest.mark.parametrize("budget", [0, None],
                                             ids=["one-round-blocks", "default"])

    @given(case=exact_cases)
    @example(case={"seed": 1, "T": 40, "d": 3, "beta": 1.0, "lam": 0.0, "moving": True})
    def test_dynamic_regret(self, case):
        ledger, path = exact_instance(case)
        T, d = ledger.Z.shape
        exact, size = oracles.exact_dynamic_regret(ledger, path)
        value = regret.dynamic_regret(ledger, path)
        assert abs(Fraction(value) - exact) <= gamma_n(T + 2 * d + 6) * size

    @KERNEL_BUDGETS
    @given(case=exact_cases)
    @example(case={"seed": 2, "T": 40, "d": 3, "beta": 0.05, "lam": 0.7, "moving": True})
    @example(case={"seed": 3, "T": 30, "d": 2, "beta": 0.9, "lam": 0.0, "moving": False})
    def test_ft_difference(self, budget, case):
        ledger, path = exact_instance(case)
        T, d = ledger.Z.shape
        exact, size = oracles.exact_ft_difference(ledger, path)
        with squared_loss_kernel(budget):
            value = regret.ft_difference_term(ledger, path)
        assert abs(Fraction(value) - exact) <= gamma_n(5 * T + 2 * d + 16) * size

    @KERNEL_BUDGETS
    @given(case=exact_cases)
    @example(case={"seed": 4, "T": 40, "d": 3, "beta": 0.999, "lam": 0.7, "moving": True})
    def test_conversion_identity(self, budget, case):
        ledger, path = exact_instance(case)
        T, d = ledger.Z.shape
        lhs, rhs, size = oracles.exact_d2d_identity(ledger, path)
        assert lhs == rhs  # the identity is exact in rational arithmetic
        with squared_loss_kernel(budget):
            gap = regret.d2d_identity_gap(ledger, path)
        assert Fraction(gap) <= gamma_n(5 * T + 2 * d + 16) * size

    @pytest.mark.parametrize("referee", [oracles.exact_dynamic_regret,
                                         oracles.exact_ft_difference,
                                         oracles.exact_d2d_identity])
    def test_logistic_ledger_rejected(self, referee):
        ledger = random_logistic_ledger(np.random.default_rng(32), 4, 2, 0.8)
        with pytest.raises(ValueError, match="loss='logistic'"):
            referee(ledger, ComparatorPath(np.zeros((4, 2))))


class TestPowerOfTwoScaling:
    # Z by 2^k, lam by 4^k and the path by 2^-k scale every product z_i u_i
    # by exactly 1 and phi by 4^k 2^(-2k) = 1, and the learner's solves and
    # factors by powers of two, so P_T^g, the lemma verdict and all three
    # dvaw_bounds keep their bits on the bench streams of two workloads
    SPECS = {
        "vaw-piecewise": StreamSpec(kind="piecewise-constant-target", d=5, T=4000, segments=8,
                                    noise=0.1, seed=1),
        "identity-rotating": StreamSpec(kind="rotating-target", d=20, T=4000, segments=3, seed=1),
    }

    @staticmethod
    def numbers(stream, truth, lam):
        run = linreg.run_dvaw(stream, 0.99, lam)
        ledger = linreg.vaw_ledger(run)
        return [regret.path_variation(ledger, truth, 0.995),
                regret.check_path_length_lemma(ledger, truth, 0.99, 0.995),
                *linreg.dvaw_bounds(run, ledger, truth, 0.995)]

    @pytest.mark.parametrize("spec", sorted(SPECS))
    def test_scaled_problems_keep_every_bit(self, spec):
        stream, truth = gen_stream(self.SPECS[spec])
        base = self.numbers(stream, truth, 1.0)
        for k in (3, -5, 20):
            scaled = self.numbers(Stream(stream.Z * 2.0**k, stream.y),
                                  ComparatorPath(truth.U * 2.0**-k), 4.0**k)
            assert bits(scaled).tolist() == bits(base).tolist(), k


def per_round_dynamic_regret(ledger, path):
    comp = sum(ledger.loss_eval(t, path[t - 1]) for t in range(1, ledger.T + 1))
    return float(ledger.losses_at_play.sum() - comp)


def per_round_regret_trace_csv(ledger, path, header_comment=None):
    play, T = ledger.losses_at_play, ledger.T
    comp = np.fromiter((ledger.loss_eval(t, path[t - 1]) for t in range(1, T + 1)), float, T)
    cum = np.cumsum(play - comp) + 0.0
    header = ["loss_play", "loss_comp", "cum_dynreg"]
    return oracles.csv_written(write_csv, header, [play, comp, cum], comment=header_comment)


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


class TestComparatorLossRows:
    # The per-round functions above are the loops that path_losses replaced:
    # the rows, the regret and the trace must equal theirs bit for bit, for
    # both loss kinds, and so must every row of loss_eval_batch.
    @pytest.mark.parametrize("loss", ["squared", "logistic"])
    @given(seed=st.integers(0, 2**31 - 1), T=st.integers(1, 60), d=st.integers(1, 24),
           layout=st.sampled_from(["C", "F", "reversed"]))
    def test_rows_regret_and_trace_match_the_loops(self, loss, seed, T, d, layout):
        rng = np.random.default_rng(seed)
        make = {"squared": random_quadratic_ledger, "logistic": random_logistic_ledger}[loss]
        ledger = make(rng, T, d, beta=0.9, lam=1.0)
        U = 2.0 * rng.standard_normal((T, d))
        U = {"C": U, "F": np.asfortranarray(U), "reversed": U[::-1]}[layout]
        rows = [ledger.loss_eval(t, U[t - 1]) for t in range(1, T + 1)]
        assert ledger.path_losses(U).tolist() == rows
        assert [ledger.loss_eval_batch(U[t - 1])[t - 1] for t in range(1, T + 1)] == rows
        path = ComparatorPath(U)
        assert regret.dynamic_regret(ledger, path) == per_round_dynamic_regret(ledger, path)
        assert oracles.csv_written(regret.regret_trace_csv, ledger, path, comment="c") == (
            per_round_regret_trace_csv(ledger, path, "c")
        )

    def test_every_evaluator_squares_the_same_way(self):
        # r**2 (C pow) rounds this residual differently from r*r
        r = 2.3480084736201086
        assert r**2 != r * r
        ledger = regret.RegretLedger(np.zeros(1), 0.9, np.array([[1.0]]), np.array([0.0]),
                                     "squared")
        u = np.array([r])
        one = ledger.loss_eval(1, u)
        assert one == ledger.loss_eval_batch(u)[0] == ledger.path_losses(u[None])[0]
        assert one == 0.5 * (r * r)

    def test_length_mismatch_rejected_by_the_trace(self):
        ledger = random_quadratic_ledger(np.random.default_rng(24), 5, 2, beta=0.5)
        with pytest.raises(ValueError, match="path length"):
            oracles.csv_written(regret.regret_trace_csv, ledger, ComparatorPath(np.zeros((4, 2))))


class TestIdentityGapIndependence:
    # The squared-loss RHS reads the rows of (Z, y); the LHS the loss rows.  A
    # ledger whose Z or y differs from its loss rows in one entry must fail
    # the identity, or the acceptance check would be empty: the RHS takes the
    # loss differences D_t, not R_t(u_{t+1}), so the sum does not telescope.
    @pytest.mark.parametrize("field, entry", [("y", (25,)), ("Z", (25, 0))],  # at T // 2
                             ids=["y", "Z"])
    def test_statistics_that_disagree_with_loss_eval_break_the_identity(self, field, entry):
        rng = np.random.default_rng(21)
        T, d = 50, 3
        ledger = random_quadratic_ledger(rng, T, d, beta=0.9)
        path = ComparatorPath(rng.standard_normal((T, d)))
        dyn = regret.dynamic_regret(ledger, path)
        assert regret.d2d_identity_gap(ledger, path) <= 1e-9 * (1.0 + abs(dyn))
        off = getattr(ledger, field).copy()
        off[entry] += 1.0
        tampered = dataclasses.replace(ledger, **{field: off})
        tampered.path_losses = ledger.path_losses  # rows of the untampered data
        assert regret.dynamic_regret(tampered, path) == dyn
        assert regret.d2d_identity_gap(tampered, path) >= 1e-3 * (1.0 + abs(dyn))

    MISMATCHES = {
        "short-statistics": lambda ledger: {"Z": ledger.Z[:4], "y": ledger.y[:4]},
        "flat-features": lambda ledger: {"Z": ledger.Z[:, 0]},
        "column-labels": lambda ledger: {"y": ledger.y[:, None]},
        "unknown-loss": lambda ledger: {"loss": "hinge"},
        "negative-lam": lambda ledger: {"lam": -1.0},
        "nan-lam": lambda ledger: {"lam": math.nan},
        "inf-lam": lambda ledger: {"lam": math.inf},
    }

    @pytest.mark.parametrize("fault", sorted(MISMATCHES))
    def test_mismatched_statistics_rejected(self, fault):
        rng = np.random.default_rng(22)
        ledger = random_quadratic_ledger(rng, 5, 2, beta=0.5, lam=1.0)
        with pytest.raises(ValueError):
            dataclasses.replace(ledger, **self.MISMATCHES[fault](ledger))


class TestSquaredLossMemory:
    # On a path that moves every round, the evaluators hold a few T-length
    # arrays (the moved rounds, their phi steps and differences, or the
    # regret and difference columns, and the row bounds that find
    # non-finite rows) besides one block's temporaries.  Those stay within
    # the block budget, and with the carried (d, d) statistics and the
    # block's small arrays, within three budgets.  A Python list with an
    # entry per round takes about 36 bytes a round and breaks the bound.
    @pytest.mark.parametrize("evaluator", [regret.ft_difference_term, regret.d2d_identity_gap])
    def test_peak_is_a_few_arrays_plus_the_block_budget(self, evaluator):
        T, d = 8000, 20
        rng = np.random.default_rng(29)
        ledger = random_quadratic_ledger(rng, T, d, beta=0.99, lam=1.0)
        path = ComparatorPath(rng.standard_normal((T, d)))
        evaluator(ledger, path)
        tracemalloc.start()
        try:
            evaluator(ledger, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (4 * T + 3 * regret._BLOCK_FLOATS)

    # Over every round of a path that moves every round, the kernel keeps to
    # the block budget.  Besides a block's temporaries it holds the carried
    # statistics, a few k-length index and weight arrays and, before the
    # first block, T floats of row bounds (fewer than the budget at this T):
    # within 1024 floats more at these d.  numpy's buffer for the broadcast
    # of y into a margin array while the other one is live breaks the bound.
    @pytest.mark.parametrize("d", [5, 20])
    @pytest.mark.parametrize("diag", [False, True], ids=["differences", "regrets"])
    def test_kernel_keeps_to_the_block_budget(self, d, diag):
        T = 4000
        rng = np.random.default_rng(31)
        ledger = random_quadratic_ledger(rng, T, d, beta=0.99, lam=1.0)
        U = rng.standard_normal((T, d))

        def drain():
            for _ in regret._margin_blocks(ledger, U, range(1, T + 1), diag):
                pass

        drain()
        tracemalloc.start()
        try:
            drain()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (regret._BLOCK_FLOATS + 1024)

    # P_T^g holds the moved rounds, their phi steps and one power array of
    # the weights, besides one chunk's temporaries within the block budget:
    # its losses and one array as large (numpy's buffer for the broadcast of
    # y into them, or the gathered weights), about 7.5 T floats in all at
    # this T.  A per-round Python list adds about four T-length arrays.
    @pytest.mark.parametrize("reader, args", [
        (regret.path_variation, (0.995,)), (regret.check_path_length_lemma, (0.99, 0.995))],
        ids=["path_variation", "check_path_length_lemma"])
    def test_path_variation_peak_is_a_few_arrays(self, reader, args, monkeypatch):
        T, d = 2000, 20
        rng = np.random.default_rng(29)
        ledger = random_quadratic_ledger(rng, T, d, beta=0.99, lam=1.0)
        path = ComparatorPath(rng.standard_normal((T, d)))
        # no partial sum certifies an infinite left side, so the lemma reads
        # the whole of P_T, and its F-difference stage is left out
        monkeypatch.setattr(regret, "_ft_difference", lambda *_: math.inf)
        reader(ledger, path, *args)
        tracemalloc.start()
        try:
            reader(ledger, path, *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 8 * T
