import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import expit

from driftlearn import lemmas, logreg
from oracles import SIGMOID_EDGES


def ulps_apart(a, b):
    """Units in the last place between nonnegative float arrays a and b."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.abs(a.view(np.int64) - b.view(np.int64))


class TestSigmoid:
    # the float sigma of the logistic-surrogate oracle
    @given(x=st.one_of(st.sampled_from(SIGMOID_EDGES), st.floats(allow_nan=False)))
    def test_bit_identical_to_expit(self, x):
        got = lemmas._sigmoid(x)
        assert type(got) is float
        assert ulps_apart(got, expit(x)) == 0

    def test_nan_stays_nan(self):
        assert math.isnan(lemmas._sigmoid(math.nan))

    def test_no_warning_where_exp_overflows(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [lemmas._sigmoid(x) for x in (720.0, -720.0, 800.0, -800.0)]
        assert got == [1.0, 0.0, 1.0, 0.0]


class TestMixtureSums:
    def test_one_expert_gives_sigma_within_four_ulp_of_expit(self):
        rng = np.random.default_rng(30)
        x = np.concatenate([
            SIGMOID_EDGES,
            rng.standard_normal(20000) * 10.0 ** rng.integers(-3, 3, 20000),
            rng.uniform(-750.0, 750.0, 20000),
        ])
        tiny = np.finfo(float).tiny
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s_pos, s_neg = lemmas._mixture_sums(x[:, None], np.ones((x.size, 1)))
        assert ulps_apart(s_pos, np.maximum(expit(x), tiny)).max() <= 4
        assert ulps_apart(s_neg, np.maximum(expit(-x), tiny)).max() <= 4

    @given(
        seed=st.integers(0, 2**31 - 1),
        T=st.integers(1, 4),
        n=st.integers(1, 16),
        saturated=st.floats(0.0, 1.0),
    )
    def test_its_mixture_is_the_learners_bit_for_bit(self, seed, T, n, saturated):
        # _fuzz_mixability checks ln s+ - ln s-: the mixture run_ensemble plays
        rng = np.random.default_rng(seed)
        yhats = rng.uniform(-40.0, 40.0, (T, n))
        mask = rng.random((T, n)) < saturated
        yhats[mask] = rng.choice([-800.0, -700.0, 700.0, 800.0], size=int(mask.sum()))
        p = rng.random((T, n))
        p /= p.sum(axis=1, keepdims=True)
        want = logreg._mix(yhats, p).tobytes()
        s_pos, s_neg = lemmas._mixture_sums(yhats, p)
        assert (np.log(s_pos) - np.log(s_neg)).tobytes() == want
        s_pos, s_neg = lemmas._mixture_sums(yhats[0], p[0])  # one round, as the fuzz passes it
        assert np.atleast_1d(np.log(s_pos) - np.log(s_neg)).tobytes() == want[:8]


class TestAbelSum:
    def test_undiscounted_degenerate_case(self):
        v = lemmas.check_abel_sum(1.0, [2.0, -1.0, 3.0])
        assert v.passed  # both sides are exactly zero

    def test_frozen_two_term_expansion(self):
        # V_1 = 0.5, V_2 = 0.75, sum = 1.25 = (1-0.25) + (1-0.5)
        a = np.array([1.0, 1.0])
        assert abs(lemmas.ema(0.5, a)[0] - 0.5) <= 1e-15
        assert abs(lemmas.ema(0.5, a)[1] - 0.75) <= 1e-15
        assert lemmas.check_abel_sum(0.5, a).passed

    def test_fuzz_suite_clean(self):
        v = lemmas.run_suite("abel-sum", instances=300, seed=0)
        assert v.violations == 0


class TestEmaSelfConfident:
    def test_zero_sequence(self):
        for variant in ("prev", "curr"):
            v = lemmas.check_ema_self_confident(0.7, 0.5, np.zeros(20), A=1.0, variant=variant)
            assert v.passed and v.worst_slack >= 0.0

    def test_saturated_sequence_has_positive_slack(self):
        A = 2.0
        v = lemmas.check_ema_self_confident(
            0.9, A, np.full(100, A), A=A, variant="prev"
        )
        assert v.passed and v.worst_slack > 0.0

    def test_fuzz_suite_clean(self):
        v = lemmas.run_suite("ema-self-confident", instances=300, seed=1)
        assert v.violations == 0

    def test_hypothesis_violation_rejected(self):
        with pytest.raises(ValueError):
            lemmas.check_ema_self_confident(0.9, 1.0, [2.0], A=1.0)


class TestBetaCoupling:
    def test_dominant_beta2_zeroes_both_sides(self):
        beta1 = 0.8
        v = lemmas.check_beta_coupling(
            beta1, beta1**2, np.full(6, 0.3), np.array([1.0, 2.0, 0.5, 0.0, 1.0])
        )
        assert v.passed and v.worst_slack == 0.0

    def test_small_beta2_still_bounded(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            g = rng.random(30) * 3
            eps = np.full(31, float(rng.uniform(0.0, 1.0)))
            v = lemmas.check_beta_coupling(0.99, 0.5, eps, g)
            assert v.passed

    def test_two_round_hand_computation(self):
        beta1, beta2, eps = 0.9, 0.25, 0.1
        g = np.array([2.0, 0.0])
        V1 = (1 - beta2) * 4.0
        V2 = beta2 * V1
        lhs = max(beta1 * (eps + math.sqrt(V1)) - (eps + math.sqrt(V2)), 0.0)
        rhs = (beta1 - math.sqrt(beta2)) * math.sqrt(V1)
        assert lhs <= rhs + 1e-12
        assert lemmas.check_beta_coupling(beta1, beta2, np.full(3, eps), g).passed

    def test_fuzz_suite_clean(self):
        v = lemmas.run_suite("beta-coupling", instances=300, seed=3)
        assert v.violations == 0


class TestLrDeviation:
    def test_zero_gradients_hit_equality(self):
        v = lemmas.check_lr_deviation(0.9, 0.99, 1.5, 0.3, 0.7, np.zeros(40))
        assert v.passed
        assert abs(v.worst_slack) <= 1e-9  # the statement is an identity here

    @pytest.mark.parametrize("mu", [0.0, 1.3])
    def test_fuzzed_instances(self, mu):
        rng = np.random.default_rng(4)
        for _ in range(60):
            g = rng.random(int(rng.integers(1, 80))) * 2
            v = lemmas.check_lr_deviation(0.8, 0.9, 0.5, 0.2, mu, g)
            assert v.passed

    def test_fuzz_suite_clean(self):
        v = lemmas.run_suite("lr-deviation", instances=300, seed=5)
        assert v.violations == 0


class TestMinSelfConfident:
    def test_single_gradient_hand_computation(self):
        beta1, beta2, gamma, nu = 0.8, 0.9, 1.0, 0.5
        g = np.array([[1.5], [0.0]])
        V1 = (1 - beta2) * 1.5**2
        V2 = beta2 * V1
        A1 = nu + math.sqrt(V1)
        A2 = nu + math.sqrt(V2)
        eta1 = gamma * (1 - beta1) * beta1 / A1
        eta2 = gamma * (1 - beta1) * beta1**2 / A2
        lhs = abs(eta1 - eta2) * 1.5  # |m_1| = |g_1|
        kappa = math.sqrt(beta2 / ((beta2 - beta1**2) * (1 - beta2)))
        rhs = gamma * (1 - beta1) * beta1 * (A2 - beta1 * A1) / A2 * kappa
        assert lhs <= rhs + 1e-12
        v = lemmas.check_min_self_confident(beta1, beta2, gamma, nu, 0.0, g)
        assert v.passed

    def test_zero_gradients_give_zero_lhs(self):
        v = lemmas.check_min_self_confident(0.7, 0.9, 1.0, 0.2, 0.5, np.zeros((30, 2)))
        assert v.passed

    def test_hypothesis_beta2_le_beta1_sq_rejected(self):
        with pytest.raises(ValueError):
            lemmas.check_min_self_confident(0.9, 0.81, 1.0, 0.1, 0.0, np.ones((4, 1)))

    def test_fuzz_suite_clean(self):
        v = lemmas.run_suite("min-self-confident", instances=300, seed=6)
        assert v.violations == 0


class TestDiscountedPotential:
    def test_zero_coefficients(self):
        rng = np.random.default_rng(7)
        v = lemmas.check_discounted_potential(0.8, 1.0, rng.standard_normal((10, 2)),
                                              np.zeros(10))
        assert v.passed

    def test_one_round_scalar_inequality(self):
        c, z, lam, beta = 1.3, 0.7, 0.5, 0.6
        lhs = c**2 * z**2 / (z**2 + beta * lam)
        rhs = c**2 * math.log(1 / beta) + c**2 * math.log(1 + z**2 / lam)
        assert lhs <= rhs
        v = lemmas.check_discounted_potential(beta, lam, np.array([[z]]), [c])
        assert v.passed

    def test_fuzz_suite_clean(self):
        v = lemmas.run_suite("discounted-potential", instances=300, seed=8)
        assert v.violations == 0


class TestLogisticSurrogate:
    def test_expansion_point_equality(self):
        v = lemmas.check_logistic_surrogate(1.0, 0.3, 0.3)
        assert v.passed and abs(v.worst_slack) <= 1e-15

    @pytest.mark.parametrize("C", [1.0, 5.0])
    def test_grid_scan(self, C):
        for a in np.linspace(-C, C, 21):
            for b in np.linspace(-10.0, 10.0, 21):
                assert lemmas.check_logistic_surrogate(C, float(a), float(b)).passed

    def test_huge_expansion_point_no_overflow(self):
        for b in (-730.0, 730.0):
            v = lemmas.check_logistic_surrogate(5.0, 2.0, b)
            assert v.passed and np.isfinite(v.worst_slack)

    def test_stable_curvature_identity(self):
        from scipy.special import expit
        for b in np.linspace(-25, 25, 11):
            raw = math.exp(b) * expit(-b) ** 2
            assert raw == pytest.approx(float(expit(b) * expit(-b)), rel=1e-12)

    def test_fuzz_suite_clean(self):
        v = lemmas.run_suite("logistic-surrogate", instances=300, seed=9)
        assert v.violations == 0


class TestMixability:
    def test_single_expert_equality(self):
        v = lemmas.check_mixability(1.7, [1.7], [1.0])
        assert v.passed and abs(v.worst_slack) <= 1e-12

    def test_symmetric_pair(self):
        v = lemmas.check_mixability(0.0, [3.0, -3.0], [0.5, 0.5])
        assert v.passed

    def test_a_shifted_mixture_fails(self):
        v = lemmas.check_mixability([0.0, 1.0], [[3.0, -3.0]] * 2, [[0.5, 0.5]] * 2)
        assert (v.instances, v.violations) == (2, 1) and v.worst_slack < -0.1

    @pytest.mark.parametrize("mix, yhats, p", [
        (0.0, np.zeros((1, 1, 2)), np.full((1, 1, 2), 0.5)),
        (np.zeros(2), np.zeros((2, 2)), np.full((1, 2), 0.5)),
    ], ids=["three-axes", "shapes-differ"])
    def test_only_matching_blocks_are_taken(self, mix, yhats, p):
        with pytest.raises(ValueError, match=r"^predictions and weights must both be \(T, N\)$"):
            lemmas.check_mixability(mix, yhats, p)

    @pytest.mark.parametrize("mix", [np.zeros(3), np.zeros(1), np.zeros((2, 1))],
                             ids=["too-many", "too-few", "two-axes"])
    def test_one_mixture_prediction_per_round(self, mix):
        with pytest.raises(ValueError, match="^the mixture needs one prediction per round$"):
            lemmas.check_mixability(mix, np.zeros((2, 2)), np.full((2, 2), 0.5))

    @pytest.mark.parametrize(
        "p", [[math.nan, math.nan], [math.nan, 1.0], [-0.5, 1.5], [0.5, 0.4], [math.inf, 0.0]],
        ids=["all-nan", "one-nan", "negative", "short-sum", "inf"],
    )
    def test_weights_off_the_simplex_are_rejected(self, p):
        message = "^weights must be nonnegative and sum to 1$"
        with pytest.raises(ValueError, match=message):
            lemmas.check_mixability(0.0, [0.3, -0.2], p)
        with pytest.raises(ValueError, match=message):  # one round of two
            lemmas.check_mixability(np.zeros(2), np.zeros((2, 2)), np.array([[0.5, 0.5], p]))

    def test_fuzz_suite_clean(self):
        v = lemmas.run_suite("mixability", instances=300, seed=10)
        assert v.violations == 0


class TestSelfConfidentTuning:
    def test_zero_sequence(self):
        assert lemmas.check_self_confident_tuning(np.zeros(5), 0.0).passed

    def test_single_step_frozen(self):
        v = lemmas.check_self_confident_tuning([1.0], 0.0)
        assert v.passed and v.worst_slack == pytest.approx(1.0)  # 1 <= 2

    def test_integral_variant(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = rng.random(20) * 2
            assert lemmas.check_self_confident_int(0.5, a, 2.0).passed

    def test_fuzz_suite_clean(self):
        v = lemmas.run_suite("self-confident-tuning", instances=300, seed=12)
        assert v.violations == 0


class TestSuiteMachinery:
    def test_all_suites_present(self):
        assert len(lemmas.SUITES) == 9

    def test_suites_are_deterministic(self):
        a = lemmas.run_suite("beta-coupling", instances=50, seed=99)
        b = lemmas.run_suite("beta-coupling", instances=50, seed=99)
        assert a.to_dict() == b.to_dict()

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            lemmas.run_suite("nope")

    def test_run_all_covers_everything(self):
        out = lemmas.run_all(instances=5, seed=0)
        assert set(out) == set(lemmas.SUITES)


class TestNanInstances:
    # a gap that is not <= the tolerance is a violation, nan included
    @pytest.mark.parametrize(
        "check, args",
        [
            (lemmas.check_self_confident_tuning, ([math.nan], 1.0)),
            (lemmas.check_beta_coupling, (0.5, 0.5, [0.0, 1.0], [math.nan])),
            (lemmas.check_logistic_surrogate, (1.0, 0.5, math.nan)),
            (lemmas.check_abel_sum, (0.5, [math.nan])),
        ],
        ids=["self-confident-tuning", "beta-coupling", "logistic-surrogate", "abel-sum"],
    )
    def test_nan_gap_is_a_violation(self, check, args):
        with np.errstate(invalid="ignore"):
            verdict = check(*args)
        assert (verdict.instances, verdict.violations) == (1, 1)
        assert not verdict.passed
