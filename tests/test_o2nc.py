import math

import numpy as np
import pytest

from driftlearn import adam, o2nc


def small_clipped_cfg(**kw):
    base = dict(beta1=0.9, beta2=0.99, gamma=0.05, nu=0.5, variant="clipped", D=0.05)
    base.update(kw)
    return adam.AdamConfig(**base)


class TestExpSample:
    def test_inverse_cdf_at_half(self):
        assert o2nc.exp_from_uniform(0.5) == pytest.approx(math.log(2), rel=1e-15)

    def test_boundary_gives_zero(self):
        assert o2nc.exp_from_uniform(1.0) == 0.0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            o2nc.exp_from_uniform(0.0)

    def test_unit_mean_monte_carlo(self):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(123)))
        draws = np.array([o2nc.exp_sample(rng) for _ in range(100_000)])
        assert abs(draws.mean() - 1.0) <= 0.02
        assert np.all(draws >= 0.0)


class TestExponentialScalingIdentity:
    def test_expected_increment_equals_expected_inner_product(self):
        # E_s[F(x + s d) - F(x)] = E_s[<grad F(x + s d), d>] for s ~ Exp(1),
        # checked by quadrature against the exponential density.
        from scipy.integrate import quad

        obj = o2nc.clamped_quadratic(2, radius=3.0)
        rng = np.random.default_rng(5)
        for _ in range(5):
            x = rng.standard_normal(2)
            d = rng.standard_normal(2) * 0.5
            lhs, _ = quad(
                lambda s: math.exp(-s) * (obj.value(x + s * d) - obj.value(x)),
                0.0, 60.0, limit=200,
            )
            rhs, _ = quad(
                lambda s: math.exp(-s) * float(obj.grad(x + s * d) @ d),
                0.0, 60.0, limit=200,
            )
            assert lhs == pytest.approx(rhs, abs=1e-8)


class TestEmaUpdate:
    def test_first_round_returns_iterate(self):
        xbar = o2nc.ema_update(np.array([5.0, 5.0]), np.array([1.0, 2.0]), 0.9, 1)
        np.testing.assert_allclose(xbar, [1.0, 2.0], rtol=1e-15)

    def test_second_round_half_discount_coefficients(self):
        xbar1 = np.array([3.0])
        x2 = np.array([6.0])
        xbar2 = o2nc.ema_update(xbar1, x2, 0.5, 2)
        assert xbar2[0] == pytest.approx(3.0 / 3.0 + 2.0 * 6.0 / 3.0, rel=1e-15)

    def test_unrolled_weights_are_normalized_geometric(self):
        beta, T = 0.8, 12
        rng = np.random.default_rng(0)
        xs = rng.standard_normal((T, 2))
        xbar = xs[0].copy()
        for t in range(2, T + 1):
            xbar = o2nc.ema_update(xbar, xs[t - 1], beta, t)
        weights = (1 - beta) * beta ** np.arange(T - 1, -1.0, -1.0) / (1 - beta**T)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(xbar, weights @ xs, rtol=1e-10)

    def test_coefficients_sum_to_one_every_round(self):
        for beta in (0.3, 0.9, 0.999):
            for t in range(1, 50):
                bt = beta**t
                c_prev = (beta - bt) / (1 - bt)
                c_new = (1 - beta) / (1 - bt)
                assert c_prev >= 0 and c_new >= 0
                assert abs(c_prev + c_new - 1.0) <= 1e-12


class TestComparatorPath:
    """The drifting comparator u_t = -D a_t/|a_t| that run_o2nc records."""

    def run(self, obj, sigma, x0, T=200, D=0.05):
        cfg = small_clipped_cfg(D=D)
        oracle = o2nc.StochasticOracle(obj, sigma=sigma)
        return o2nc.run_o2nc(cfg, oracle, T=T, seed=4, x0=x0)

    def test_single_gradient_normalized(self):
        obj = o2nc.clamped_quadratic(2, radius=10.0)
        trace = self.run(obj, 0.0, np.array([3.0, 4.0]), T=1, D=1.0)
        np.testing.assert_allclose(trace.comparators[0], [-0.6, -0.8], rtol=1e-15)

    def test_norm_is_exactly_the_radius(self):
        trace = self.run(o2nc.max_affine(3, pieces=5, seed=2), 0.3, np.ones(3), D=2.5)
        norms = np.linalg.norm(trace.comparators, axis=1)
        moving = norms > 0.0
        assert moving.any()
        np.testing.assert_allclose(norms[moving], 2.5, rtol=1e-12)

    def test_matches_recomputed_true_gradient_accumulator(self):
        obj = o2nc.clamped_quadratic(3, radius=1.0)
        trace = self.run(obj, 0.2, np.array([0.5, -0.3, 0.2]))
        a = np.zeros(3)
        for t in range(trace.T):
            a = 0.9 * a + obj.grad(trace.xs[t])
            np.testing.assert_allclose(
                trace.comparators[t], -0.05 * a / np.linalg.norm(a), rtol=1e-12
            )
        assert trace.zero_comparators == 0

    def test_zero_history_yields_zero_comparator(self):
        obj = o2nc.clamped_quadratic(2, radius=1.0)
        trace = self.run(obj, 0.0, np.zeros(2), T=4)
        assert np.array_equal(trace.comparators, np.zeros((4, 2)))
        assert trace.zero_comparators == 4


class TestRunLoop:
    def test_first_step_does_not_move(self):
        obj = o2nc.clamped_quadratic(3, radius=1.0)
        oracle = o2nc.StochasticOracle(obj, sigma=0.1)
        x0 = np.array([0.5, 0.0, 0.0])
        trace = o2nc.run_o2nc(small_clipped_cfg(), oracle, T=1, seed=0, x0=x0)
        np.testing.assert_array_equal(trace.xs[0], x0)
        np.testing.assert_array_equal(trace.deltas[0], np.zeros(3))

    def test_clipped_moves_bounded_by_scaled_radius(self):
        obj = o2nc.euclidean_norm(4)
        oracle = o2nc.StochasticOracle(obj, sigma=0.2)
        cfg = small_clipped_cfg(D=0.02)
        trace = o2nc.run_o2nc(cfg, oracle, T=400, seed=3, x0=np.ones(4))
        steps = np.diff(np.vstack([trace.x0, trace.xs]), axis=0)
        caps = trace.scalings * 0.02
        assert np.all(np.linalg.norm(steps, axis=1) <= caps * (1.0 + 1e-9))

    def test_trace_reproducible_bit_for_bit(self):
        obj = o2nc.max_affine(3, pieces=5, seed=11)
        oracle = o2nc.StochasticOracle(obj, sigma=0.3)
        cfg = small_clipped_cfg()
        t1 = o2nc.run_o2nc(cfg, oracle, T=200, seed=42, x0=np.zeros(3))
        t2 = o2nc.run_o2nc(cfg, oracle, T=200, seed=42, x0=np.zeros(3))
        assert np.array_equal(t1.xs, t2.xs)
        assert np.array_equal(t1.scalings, t2.scalings)
        assert t1.final_index == t2.final_index
        assert t1.to_csv() == t2.to_csv()

    def test_oracle_noise_stays_within_declared_bound(self):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(7)))
        for obj in (o2nc.clamped_quadratic(3, 2.0), o2nc.euclidean_norm(3),
                    o2nc.max_affine(3, seed=1)):
            oracle = o2nc.StochasticOracle(obj, sigma=0.5)
            for _ in range(300):
                x = rng.standard_normal(3) * 3
                g = oracle.sample(x, rng)
                assert np.linalg.norm(g) <= obj.lipschitz * (1 + 1e-12)

    def test_run_aborts_when_oracle_violates_declared_bound(self):
        # an objective lying about its Lipschitz constant must be caught
        liar = o2nc.Objective(
            "liar", 2, lambda x: float(x @ x), lambda x: 2.0 * np.asarray(x),
            lipschitz=0.1, smooth=True,
        )
        oracle = o2nc.StochasticOracle(liar, sigma=0.0)
        cfg = small_clipped_cfg()
        with pytest.raises(o2nc.OracleBoundError, match="exceeds"):
            o2nc.run_o2nc(cfg, oracle, T=5, seed=0, x0=np.array([5.0, 5.0]))

    def test_oracle_noise_is_mean_zero(self):
        obj = o2nc.clamped_quadratic(2, radius=5.0)
        oracle = o2nc.StochasticOracle(obj, sigma=0.3)
        rng = np.random.Generator(np.random.Philox(key=np.uint64(9)))
        x = np.array([0.5, 0.5])
        noise = np.array([oracle.sample(x, rng) - obj.grad(x) for _ in range(40_000)])
        assert np.linalg.norm(noise.mean(axis=0)) <= 0.01


class TestObjectiveZoo:
    def test_clamped_quadratic_gradient_is_clipped(self):
        obj = o2nc.clamped_quadratic(2, radius=1.5)
        inside = np.array([0.3, 0.4])
        np.testing.assert_allclose(obj.grad(inside), inside)
        outside = np.array([3.0, 4.0])
        assert np.linalg.norm(obj.grad(outside)) == pytest.approx(1.5, rel=1e-12)
        assert obj.value(outside) == pytest.approx(1.5 * 5.0 - 0.5 * 1.5**2)

    def test_norm_objective_subgradient(self):
        obj = o2nc.euclidean_norm(3)
        assert np.array_equal(obj.grad(np.zeros(3)), np.zeros(3))
        x = np.array([0.0, 3.0, 4.0])
        assert np.linalg.norm(obj.grad(x)) == pytest.approx(1.0)

    def test_max_affine_gradient_is_active_row(self):
        obj = o2nc.max_affine(2, pieces=4, seed=5)
        rng = np.random.default_rng(6)
        for _ in range(50):
            x = rng.standard_normal(2)
            g = obj.grad(x)
            assert np.linalg.norm(g) <= obj.lipschitz + 1e-12
            h = 1e-7 * rng.standard_normal(2)
            # first-order expansion along the active piece
            assert obj.value(x + h) >= obj.value(x) + g @ h - 1e-12


class TestStationaritySurrogate:
    def test_zero_radius_is_exact_gradient_norm(self):
        obj = o2nc.clamped_quadratic(3, radius=2.0)
        x = np.array([0.3, -0.2, 0.1])
        w = o2nc.stationarity_surrogate(x, obj, radius=0.0, samples=10, seed=0)
        assert w == pytest.approx(float(np.linalg.norm(x)), rel=1e-15)

    def test_linear_objective_keeps_constant_gradient(self):
        a = np.array([1.0, -2.0])
        obj = o2nc.Objective(
            "affine", 2, lambda x: float(a @ x), lambda x: a.copy(),
            lipschitz=float(np.linalg.norm(a)), smooth=True,
        )
        c = 0.7
        w = o2nc.stationarity_surrogate(
            np.zeros(2), obj, radius=1.0, samples=2000, seed=1, c=c
        )
        mean_sq_expected = 1.0 * 2 / (2 + 2)  # E|delta|^2 = r^2 d/(d+2)
        assert w == pytest.approx(np.linalg.norm(a) + c * mean_sq_expected, rel=0.05)

    def test_absolute_value_cancels_by_symmetry(self):
        obj = o2nc.euclidean_norm(1)
        samples = 40_000
        w = o2nc.stationarity_surrogate(
            np.zeros(1), obj, radius=1.0, samples=samples, seed=2, c=0.0
        )
        assert w <= 3.0 / math.sqrt(samples)


class TestConvergenceSmoke:
    def test_tuned_clipped_run_reduces_gradient(self):
        # scaled-down version of the full acceptance run
        obj = o2nc.clamped_quadratic(5, radius=1.0)
        rep = adam.tune_clipped(eps=0.3, c=0.02, G=1.0, sigma=0.1, Fstar=0.5, nu=1.1)
        cfg = adam.AdamConfig(
            beta1=rep.beta1, beta2=rep.beta2, gamma=rep.gamma, nu=1.1,
            variant="clipped", D=rep.D,
        )
        oracle = o2nc.StochasticOracle(obj, sigma=0.1)
        x0 = np.ones(5) / math.sqrt(5)
        trace = o2nc.run_o2nc(cfg, oracle, T=8000, seed=0, x0=x0)
        tail = trace.grad_norms_at_xbar[-800:]
        assert tail.mean() < 0.25  # moved most of the way to the optimum
