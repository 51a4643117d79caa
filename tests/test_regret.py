import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from driftlearn import regret
from driftlearn.streams import ComparatorPath, csv_text, geometric_weights


def random_quadratic_ledger(rng, T, d, beta, lam=None, with_lambdas=False):
    Z = rng.standard_normal((T, d))
    y = rng.standard_normal(T)
    play = rng.random(T)
    lambdas = rng.random(T) * 0.1 if with_lambdas else None
    return regret.quadratic_loss_ledger(Z, y, play, beta=beta, lam=lam, lambdas=lambdas)


# ---------------------------------------------------------------------------
# O(T^2) oracles: every F_t and R_t summed directly from loss rows, round by
# round, with no skipped rounds and no running statistics.  Each returns the
# value and the sum of the absolute terms it adds up, the scale that
# floating-point roundoff in either evaluation is measured against.
# ---------------------------------------------------------------------------


def oracle_ft_value(ledger, t, u):
    val = float(ledger.weights(t) @ ledger.losses_at(u, upto=t))
    if ledger.phi_eval is not None:
        val += ledger.beta**t * ledger.phi_eval(u)
    return val


def oracle_ft_difference_term(ledger, path):
    total = scale = 0.0
    for t in range(1, ledger.T):
        hi, lo = oracle_ft_value(ledger, t, path[t]), oracle_ft_value(ledger, t, path[t - 1])
        total += hi - lo
        scale += abs(hi) + abs(lo)
    return ledger.beta * total, ledger.beta * scale


def oracle_path_variation(ledger, path, gamma):
    total = 0.0
    for t in range(1, ledger.T):
        u_now, u_next = path[t - 1], path[t]
        w = geometric_weights(gamma, t)
        diffs = ledger.losses_at(u_next, upto=t) - ledger.losses_at(u_now, upto=t)
        total += float(w[1:] @ np.maximum(diffs, 0.0))
        if ledger.phi_eval is not None:
            d0 = ledger.phi_eval(u_next) - ledger.phi_eval(u_now)
            total += w[0] * max(d0, 0.0)
    return total


def oracle_regret(ledger, t, u):
    return float(ledger.weights(t) @ (ledger.losses_at_play[:t] - ledger.losses_at(u, upto=t)))


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


def logistic_like_ledger(rng, T, d, beta, batch):
    """A non-squared ledger, with or without a batch evaluator."""
    Z = rng.standard_normal((T, d))
    y = rng.choice([-1.0, 1.0], T)

    def eval_batch(u):
        return np.logaddexp(0.0, -y * (Z @ u))

    return regret.RegretLedger(
        losses_at_play=rng.random(T),
        loss_eval=lambda t, u: float(np.logaddexp(0.0, -y[t - 1] * (Z[t - 1] @ u))),
        beta=beta,
        phi_eval=lambda u: 0.25 * float(u @ u),
        loss_eval_batch=eval_batch if batch else None,
    )


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
        ledger = regret.RegretLedger(
            losses_at_play=np.array([3.0]), loss_eval=lambda t, u: 1.0, beta=1.0
        )
        assert regret.dynamic_regret(ledger, ComparatorPath(np.zeros((1, 1)))) == 2.0

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
            assert abs(regret.discounted_regret(ledger, t, u) - static) <= 1e-12

    def test_single_term(self):
        rng = np.random.default_rng(4)
        ledger = random_quadratic_ledger(rng, 3, 2, beta=0.4)
        u = np.zeros(2)
        expected = ledger.losses_at_play[0] - ledger.loss_eval(1, u)
        assert abs(regret.discounted_regret(ledger, 1, u) - expected) <= 1e-15

    def test_frozen_half_discount_example(self):
        # plays [1, 2, 4] against a zero-loss comparator: 0.25 + 1 + 4
        ledger = regret.RegretLedger(
            losses_at_play=np.array([1.0, 2.0, 4.0]),
            loss_eval=lambda t, u: 0.0,
            beta=0.5,
        )
        assert abs(regret.discounted_regret(ledger, 3, np.zeros(1)) - 5.25) <= 1e-12

    def test_round_out_of_range_rejected(self):
        rng = np.random.default_rng(5)
        ledger = random_quadratic_ledger(rng, 3, 1, beta=0.5)
        with pytest.raises(ValueError):
            regret.discounted_regret(ledger, 4, np.zeros(1))


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
        path = ComparatorPath.constant(rng.standard_normal(2), 10)
        assert regret.path_variation(ledger, path, 0.5).value == 0.0

    def test_unit_jump_with_unit_weights_sums_to_one(self):
        # f_0(u) = f_1(u) = u[0]; jump from 0 to 1 gives [diff]_+ = 1 at both
        # s = 0 and s = 1, and the normalized weights sum to 1.
        ledger = regret.RegretLedger(
            losses_at_play=np.zeros(2),
            loss_eval=lambda t, u: float(u[0]),
            beta=0.5,
            phi_eval=lambda u: float(u[0]),
        )
        path = ComparatorPath(np.array([[0.0], [1.0]]))
        pv = regret.path_variation(ledger, path, 0.5)
        assert abs(pv.value - 1.0) <= 1e-15
        assert pv.includes_f0

    def test_lipschitz_upper_bound(self):
        # linear losses f_s(u) = g_s . u are G-Lipschitz with G = max |g_s|
        rng = np.random.default_rng(10)
        T, d = 12, 3
        Gmat = rng.standard_normal((T, d))
        ledger = regret.RegretLedger(
            losses_at_play=np.zeros(T),
            loss_eval=lambda t, u: float(Gmat[t - 1] @ u),
            beta=0.9,
            phi_eval=lambda u: 0.0,
        )
        U = rng.standard_normal((T, d))
        path = ComparatorPath(U)
        G = float(np.linalg.norm(Gmat, axis=1).max())
        hops = float(np.linalg.norm(np.diff(U, axis=0), axis=1).sum())
        for gamma in (0.3, 0.8, 0.99):
            pv = regret.path_variation(ledger, path, gamma)
            assert pv.value <= G * hops + 1e-9

    def test_nonnegative_and_grows_with_jump_size(self):
        # f_s(u) = u^2/2 around 0; a bigger jump away from 0 costs more
        ledger = regret.RegretLedger(
            losses_at_play=np.zeros(5),
            loss_eval=lambda t, u: 0.5 * float(u @ u),
            beta=0.5,
        )
        values = []
        for jump in (0.0, 1.0, 2.0):
            U = np.zeros((5, 1))
            U[3:] = jump
            values.append(regret.path_variation(ledger, ComparatorPath(U), 0.5).value)
        assert values[0] == 0.0
        assert values[0] <= values[1] <= values[2]

    def test_gamma_out_of_range_rejected(self):
        rng = np.random.default_rng(11)
        ledger = random_quadratic_ledger(rng, 4, 1, beta=0.5)
        with pytest.raises(ValueError):
            regret.path_variation(ledger, ComparatorPath(np.zeros((4, 1))), 1.0)


class TestModularBound:
    def test_all_terms_vanish(self):
        rng = np.random.default_rng(12)
        T, d = 6, 2
        ledger = random_quadratic_ledger(rng, T, d, beta=0.7)
        ledger.phi_eval = lambda u: 0.0
        ledger.lambdas = np.zeros(T)
        path = ComparatorPath.constant(rng.standard_normal(d), T)
        assert regret.modular_bound_rhs(ledger, path) == 0.0

    def test_time_independent_phi_kills_drift_term(self):
        rng = np.random.default_rng(13)
        T = 8
        ledger = random_quadratic_ledger(rng, T, 2, beta=0.6, lam=0.5, with_lambdas=True)
        path = ComparatorPath(rng.standard_normal((T, 2)))
        rhs = regret.modular_bound_rhs(ledger, path)
        manual = (
            0.6 * ledger.phi_eval(path[0])
            + ledger.lambdas.sum()
            + regret.ft_difference_term(ledger, path)
        )
        assert rhs == pytest.approx(manual, abs=0.0)  # drift term is exactly 0

    def test_matches_slow_direct_summation(self):
        rng = np.random.default_rng(14)
        for T in (5, 40, 200):
            d = 3
            Z = rng.standard_normal((T, d))
            y = rng.standard_normal(T)
            play = rng.random(T)
            lambdas = rng.random(T) * 0.05
            beta, lam = 0.9, 0.8
            ledger = regret.quadratic_loss_ledger(Z, y, play, beta, lam, lambdas)
            path = ComparatorPath(rng.standard_normal((T, d)))

            def f(s, u):
                return 0.5 * float(Z[s - 1] @ u - y[s - 1]) ** 2

            def F(t, u):
                return beta**t * 0.5 * lam * float(u @ u) + sum(
                    beta ** (t - s) * f(s, u) for s in range(1, t + 1)
                )

            slow = beta * 0.5 * lam * float(path[0] @ path[0]) + lambdas.sum()
            slow += beta * sum(
                F(t, path[t]) - F(t, path[t - 1]) for t in range(1, T)
            )
            fast = regret.modular_bound_rhs(ledger, path)
            assert abs(fast - slow) <= 1e-8 * (1.0 + abs(slow))

    def test_missing_pieces_rejected(self):
        rng = np.random.default_rng(15)
        ledger = random_quadratic_ledger(rng, 4, 2, beta=0.5)
        path = ComparatorPath(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            regret.modular_bound_rhs(ledger, path)


class TestPathLengthLemma:
    def _ledger(self, rng, T, d, lam=0.3):
        Z = rng.standard_normal((T, d))
        y = rng.standard_normal(T)
        return regret.quadratic_loss_ledger(Z, y, np.zeros(T), beta=0.5, lam=lam)

    def test_constant_path_holds(self):
        rng = np.random.default_rng(16)
        ledger = self._ledger(rng, 8, 2)
        path = ComparatorPath.constant(rng.standard_normal(2), 8)
        assert regret.check_path_length_lemma(ledger, path, 0.5, 0.5)

    @pytest.mark.parametrize("beta,gamma", [(0.6, 0.6), (0.2, 0.8)])
    def test_random_instances_hold(self, beta, gamma):
        rng = np.random.default_rng(17)
        for _ in range(30):
            T = int(rng.integers(2, 40))
            ledger = self._ledger(rng, T, 2)
            path = ComparatorPath(rng.standard_normal((T, 2)))
            assert regret.check_path_length_lemma(ledger, path, beta, gamma)

    def test_bad_ordering_rejected(self):
        rng = np.random.default_rng(18)
        ledger = self._ledger(rng, 4, 1)
        with pytest.raises(ValueError):
            regret.check_path_length_lemma(
                ledger, ComparatorPath(np.zeros((4, 1))), 0.9, 0.5
            )


class TestOracleAgreement:
    @given(case=fuzz_cases, lam=st.sampled_from([None, 0.7]))
    def test_squared_loss_ledgers(self, case, lam):
        rng = np.random.default_rng(case["seed"])
        T, d, beta = case["T"], case["d"], case["beta"]
        ledger = random_quadratic_ledger(rng, T, d, beta=beta, lam=lam)
        path = fuzz_path(rng, T, d, case["moving"])
        self._agree(ledger, path)
        # the closed form R_t(u) against direct sums, term by term
        diag, ahead = regret._regrets_along_path(ledger, path)
        for t in range(1, T + 1):
            ref = oracle_regret(ledger, t, path[t - 1])
            assert abs(diag[t - 1] - ref) <= ORACLE_RTOL * (1.0 + abs(ref))
            if t < T:
                ref = oracle_regret(ledger, t, path[t])
                assert abs(ahead[t - 1] - ref) <= ORACLE_RTOL * (1.0 + abs(ref))

    @given(case=fuzz_cases, batch=st.booleans())
    def test_non_squared_ledger(self, case, batch):
        rng = np.random.default_rng(case["seed"])
        T, d = case["T"], case["d"]
        ledger = logistic_like_ledger(rng, T, d, case["beta"], batch)
        self._agree(ledger, fuzz_path(rng, T, d, case["moving"]))

    def _agree(self, ledger, path):
        ref, scale = oracle_ft_difference_term(ledger, path)
        assert abs(regret.ft_difference_term(ledger, path) - ref) <= ORACLE_RTOL * scale
        gap_ref, scale = oracle_d2d_identity_gap(ledger, path)
        assert abs(regret.d2d_identity_gap(ledger, path) - gap_ref) <= ORACLE_RTOL * scale
        for gamma in (0.3, 0.9):
            pv = regret.path_variation(ledger, path, gamma)
            assert pv.value == oracle_path_variation(ledger, path, gamma)

    def test_stationary_rounds_evaluate_no_loss(self):
        rng = np.random.default_rng(19)
        T, d = 30, 3
        ledger = logistic_like_ledger(rng, T, d, 0.8, batch=True)
        calls = []
        batch = ledger.loss_eval_batch
        ledger.loss_eval_batch = lambda u: calls.append(1) or batch(u)
        path = ComparatorPath.constant(rng.standard_normal(d), T)
        assert regret.ft_difference_term(ledger, path) == 0.0
        assert regret.path_variation(ledger, path, 0.5).value == 0.0
        assert calls == []

    def test_nan_comparator_counts_as_a_move(self):
        rng = np.random.default_rng(20)
        ledger = random_quadratic_ledger(rng, 4, 2, beta=0.5, lam=1.0)
        U = np.ones((4, 2))
        U[2:, 0] = np.nan
        path = ComparatorPath(U)
        assert np.isnan(regret.ft_difference_term(ledger, path))
        assert np.isnan(regret.path_variation(ledger, path, 0.5).value)


def per_round_dynamic_regret(ledger, path):
    comp = sum(ledger.loss_eval(t, path[t - 1]) for t in range(1, ledger.T + 1))
    return float(ledger.losses_at_play.sum() - comp)


def per_round_regret_trace_csv(ledger, path, header_comment=None):
    play, T = ledger.losses_at_play, ledger.T
    comp = np.fromiter((ledger.loss_eval(t, path[t - 1]) for t in range(1, T + 1)), float, T)
    cum = np.cumsum(play - comp) + 0.0
    return csv_text(["loss_play", "loss_comp", "cum_dynreg"], [play, comp, cum], header_comment)


class TestComparatorLossRows:
    # The per-round functions above are the loops that path_losses replaced:
    # the rows, the regret and the trace must equal theirs bit for bit.
    @given(seed=st.integers(0, 2**31 - 1), T=st.integers(1, 60), d=st.integers(1, 24),
           layout=st.sampled_from(["C", "F", "reversed"]))
    def test_quadratic_rows_regret_and_trace_match_the_loops(self, seed, T, d, layout):
        rng = np.random.default_rng(seed)
        ledger = random_quadratic_ledger(rng, T, d, beta=0.9, lam=1.0)
        U = 2.0 * rng.standard_normal((T, d))
        U = {"C": U, "F": np.asfortranarray(U), "reversed": U[::-1]}[layout]
        rows = [ledger.loss_eval(t, U[t - 1]) for t in range(1, T + 1)]
        assert ledger.path_losses(U).tolist() == rows
        path = ComparatorPath(U)
        assert regret.dynamic_regret(ledger, path) == per_round_dynamic_regret(ledger, path)
        assert regret.regret_trace_csv(ledger, path, "c") == per_round_regret_trace_csv(
            ledger, path, "c"
        )

    def test_ledger_without_row_evaluator_uses_loss_eval(self):
        rng = np.random.default_rng(23)
        ledger = logistic_like_ledger(rng, 30, 3, beta=0.8, batch=True)
        assert ledger.path_losses is None
        path = fuzz_path(rng, 30, 3, moving=True)
        assert regret.dynamic_regret(ledger, path) == per_round_dynamic_regret(ledger, path)
        assert regret.regret_trace_csv(ledger, path) == per_round_regret_trace_csv(ledger, path)

    def test_length_mismatch_rejected_by_the_trace(self):
        ledger = random_quadratic_ledger(np.random.default_rng(24), 5, 2, beta=0.5)
        with pytest.raises(ValueError, match="path length"):
            regret.regret_trace_csv(ledger, ComparatorPath(np.zeros((4, 2))))


class TestIdentityGapIndependence:
    def test_statistics_that_disagree_with_loss_eval_break_the_identity(self):
        # The squared-loss RHS comes from (Z, y); the LHS from loss_eval.  A
        # ledger whose statistics differ from its loss rows in one y entry
        # must fail the identity, or the acceptance check would be empty.
        rng = np.random.default_rng(21)
        T, d = 50, 3
        ledger = random_quadratic_ledger(rng, T, d, beta=0.9)
        path = ComparatorPath(rng.standard_normal((T, d)))
        dyn = regret.dynamic_regret(ledger, path)
        assert regret.d2d_identity_gap(ledger, path) <= 1e-9 * (1.0 + abs(dyn))
        Z, y = ledger.squared_loss
        y_off = y.copy()
        y_off[T // 2] += 1.0
        tampered = dataclasses.replace(ledger, squared_loss=(Z, y_off))
        assert regret.dynamic_regret(tampered, path) == dyn
        assert regret.d2d_identity_gap(tampered, path) >= 1e-3 * (1.0 + abs(dyn))

    def test_mismatched_statistics_rejected(self):
        rng = np.random.default_rng(22)
        ledger = random_quadratic_ledger(rng, 5, 2, beta=0.5)
        Z, y = ledger.squared_loss
        with pytest.raises(ValueError):
            dataclasses.replace(ledger, squared_loss=(Z[:4], y[:4]))
