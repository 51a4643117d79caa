import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import cho_factor, cho_solve
from scipy.special import expit

from driftlearn import lemmas, logreg, regret
from driftlearn.streams import ComparatorPath, StreamSpec, gen_stream


def logistic_stream(rng, T=80, d=3, segments=2, noise=0.3, B=1.0, R=1.0):
    seed = int(rng.integers(2**31))
    spec = StreamSpec(
        d=d, T=T, kind="logistic-drift", segments=segments, noise=noise,
        seed=seed, R=R, B=B,
    )
    return gen_stream(spec)


class TestLoss:
    def test_zero_score_gives_ln2(self):
        assert logreg.logistic_loss(0.0, 1.0) == pytest.approx(math.log(2), rel=1e-15)

    def test_large_negative_score_no_overflow(self):
        loss = logreg.logistic_loss(-700.0, 1.0)
        assert loss == pytest.approx(700.0, rel=1e-12)
        assert np.isfinite(loss)

    def test_gradient_at_origin(self):
        z = np.array([0.5, -1.0])
        for y in (1.0, -1.0):
            np.testing.assert_allclose(
                logreg.logistic_grad(np.zeros(2), z, y), -y * 0.5 * z, rtol=1e-15
            )


class TestScalarSolve:
    def test_odd_symmetry_root_at_zero(self):
        assert logreg.solve_optimism_root(0.0, 1.0) == 0.0

    def test_frozen_example(self):
        v = logreg.solve_optimism_root(2.0, 1.0)
        assert v == pytest.approx(1.3965, abs=1e-3)
        assert abs(v + math.tanh(v / 2) - 2.0) <= 1e-12

    def test_residual_tolerance_on_fuzz(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            p = float(rng.standard_normal() * 10.0 ** rng.integers(-2, 3))
            q = float(rng.random() * 10.0 ** rng.integers(-2, 3))
            v = logreg.solve_optimism_root(p, q)
            assert abs(v + q * math.tanh(v / 2) - p) <= 1e-12
            assert p - q - 1e-12 <= v <= p + q + 1e-12

    def test_huge_arguments_do_not_overflow(self):
        # tanh saturates, so the roots sit exactly on the bracket ends
        assert logreg.solve_optimism_root(1e6, 0.5) == 999999.5
        assert logreg.solve_optimism_root(-1e6, 2.0) == -999998.0


class TestPredict:
    def test_empty_history_plays_zero(self):
        state = logreg.AioliState.fresh(3, beta=0.9, lam=1.0, B=1.0, R=1.0)
        x, yhat = logreg.aioli_predict(state, np.array([1.0, 0.0, -1.0]))
        assert np.array_equal(x, np.zeros(3)) and yhat == 0.0

    def test_stationarity_residual_small_on_fuzzed_runs(self):
        rng = np.random.default_rng(1)
        stream, _ = logistic_stream(rng, T=60)
        run = logreg.run_aioli(stream, beta=0.85, lam=1.0, B=1.0, R=1.0)
        assert float(run.residuals.max()) <= 1e-9


class TestUpdate:
    def test_balanced_score_curvature(self):
        # u = 0: eta g g' = z z' / (4 (1 + BR))
        state = logreg.AioliState.fresh(2, beta=0.9, lam=1.0, B=1.0, R=1.0)
        z = np.array([0.8, -0.6])
        new = logreg.aioli_update(state, z, 1.0, np.zeros(2), 0.0)
        np.testing.assert_allclose(
            new.A - 0.9 * np.eye(2), np.outer(z, z) / 8.0, rtol=1e-14
        )

    def test_confidently_correct_round_adds_no_curvature(self):
        state = logreg.AioliState.fresh(1, beta=0.9, lam=1.0, B=1.0, R=1.0)
        new = logreg.aioli_update(state, np.array([1.0]), 1.0, np.array([800.0]), 800.0)
        assert new.A[0, 0] - 0.9 <= 1e-300
        assert np.isfinite(new.w).all()

    def test_single_update_matches_stable_product(self):
        state = logreg.AioliState.fresh(2, beta=0.99, lam=1.0, B=2.0, R=0.5)
        z = np.array([0.3, 0.4])
        yhat = -0.7
        new = logreg.aioli_update(state, z, -1.0, np.array([0.1, 0.2]), yhat)
        u = -1.0 * yhat
        expected = expit(u) * expit(-u) / (1.0 + 2.0 * 0.5) * np.outer(z, z)
        np.testing.assert_allclose(new.A - 0.99 * np.eye(2), expected, rtol=1e-14)

    def test_curvature_norm_never_exceeds_stable_cap(self):
        rng = np.random.default_rng(2)
        stream, _ = logistic_stream(rng, T=120, R=1.5)
        run = logreg.run_aioli(stream, beta=0.9, lam=1.0, B=1.0, R=1.5)
        cap = 1.5**2 / (4.0 * (1.0 + 1.0 * 1.5))
        # |eta g g'| = c2 |z|^2 <= R^2/(4(1+BR)) per round
        assert np.all(run.curvature_coefs * 1.5**2 <= cap * (1 + 1e-12))


class TestRescaledBound:
    def test_zero_comparator_empty_history(self):
        rng = np.random.default_rng(3)
        stream, _ = logistic_stream(rng, T=5)
        run = logreg.run_aioli(stream, beta=0.9, lam=1.0, B=1.0, R=1.0)
        assert logreg.aioli_rescaled_bound(run, 0, np.zeros(stream.d)) == 0.0
        # one round in, the bound is the pure stability term, nonnegative
        assert logreg.aioli_rescaled_bound(run, 1, np.zeros(stream.d)) >= 0.0

    def test_holds_at_every_prefix(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            stream, truth = logistic_stream(rng, T=120)
            beta = float(rng.uniform(0.6, 0.98))
            run = logreg.run_aioli(stream, beta=beta, lam=1.0, B=1.0, R=1.0)
            ledger = logreg.logistic_ledger(run)
            comparators = [np.zeros(stream.d), truth[0], truth[-1]]
            ball = rng.standard_normal(stream.d)
            comparators.append(ball / max(1.0, float(np.linalg.norm(ball))))
            worst = float("inf")
            for u in comparators:
                diffs = run.losses_at_play - ledger.losses_at(u)
                r = 0.0
                for t in range(1, run.T + 1):
                    r = beta * r + float(diffs[t - 1])
                    bound = logreg.aioli_rescaled_bound(run, t, u)
                    assert r <= bound + 1e-9 * (1.0 + abs(bound))
                    worst = min(worst, bound - r)
            assert logreg.rescaled_bound_check(run, comparators) == (worst, True)

    def test_stability_sum_obeys_potential_lemma(self):
        rng = np.random.default_rng(5)
        stream, _ = logistic_stream(rng, T=80)
        beta, lam = 0.9, 1.0
        run = logreg.run_aioli(stream, beta=beta, lam=lam, B=1.0, R=1.0)
        scaled = np.sqrt(run.curvature_coefs)[:, None] * stream.Z
        verdict = lemmas.check_discounted_potential(
            beta, lam, scaled, np.ones(stream.T)
        )
        assert verdict.passed
        # that lemma's LHS is exactly the plain sum of stability increments
        sigma = np.empty(stream.T)
        prev = 0.0
        for t in range(stream.T):
            sigma[t] = run.stab_disc[t] - beta * prev
            prev = run.stab_disc[t]
        lhs = 0.0
        A = lam * np.eye(stream.d)
        for t in range(stream.T):
            zt = scaled[t]
            A = np.outer(zt, zt) + beta * A
            lhs += float(zt @ np.linalg.solve(A, zt))
        assert lhs == pytest.approx(float(sigma.sum()), rel=1e-9)


def two_factorization_aioli(stream, beta, lam, B, R):
    """Reference copy of AIOLI that keeps H_t and lam beta^t apart and
    factors the predict and update matrices separately."""
    d = stream.d
    H, w, lam_beta, stab = np.zeros((d, d)), np.zeros(d), lam, 0.0
    scale = 1.0 + B * R
    yhats, stabs = np.empty(stream.T), np.empty(stream.T)
    for t, (z, y) in enumerate(zip(stream.Z, stream.y)):
        fac = cho_factor((lam_beta * beta) * np.eye(d) + beta * H, lower=True)
        ainv_w = cho_solve(fac, beta * w)
        ainv_z = cho_solve(fac, z)
        v = logreg.solve_optimism_root(float(z @ ainv_w), float(z @ ainv_z))
        x = ainv_w - math.tanh(0.5 * v) * ainv_z
        yhat = float(x @ z)
        yhats[t] = yhat
        s_pos, s_neg = float(expit(y * yhat)), float(expit(-y * yhat))
        g = -y * s_neg * z
        eta_g = -(s_pos / scale) * y * z
        c2 = s_pos * s_neg / scale
        H = beta * H + c2 * np.outer(z, z)
        H = 0.5 * (H + H.T)
        w = beta * w - g + float(g @ x) * eta_g
        lam_beta *= beta
        fac = cho_factor(lam_beta * np.eye(d) + H, lower=True)
        stab = beta * stab + c2 * float(z @ cho_solve(fac, z))
        stabs[t] = stab
    return yhats, stabs


class TestSingleMatrixMatchesTwoFactorizations:
    @given(
        seed=st.integers(0, 2**31 - 1),
        d=st.integers(1, 6),
        T=st.integers(1, 300),
        beta=st.floats(0.5, 0.999),
        lam=st.floats(0.1, 10.0),
    )
    def test_predictions_and_stability_sums_agree(self, seed, d, T, beta, lam):
        spec = StreamSpec(
            d=d, T=T, kind="logistic-drift", segments=3, noise=0.3, seed=seed
        )
        stream, _ = gen_stream(spec)
        run = logreg.run_aioli(stream, beta, lam, B=1.0, R=1.0)
        yhats, stabs = two_factorization_aioli(stream, beta, lam, 1.0, 1.0)
        assert np.all(np.abs(run.yhats - yhats) <= 1e-12 * (1.0 + np.abs(yhats)))
        assert np.all(np.abs(run.stab_disc - stabs) <= 1e-12 * (1.0 + np.abs(stabs)))


class TestDynamicBound:
    def test_constant_path_has_no_variation_term(self):
        rng = np.random.default_rng(6)
        stream, _ = logistic_stream(rng, T=40, segments=1)
        run = logreg.run_aioli(stream, beta=0.9, lam=1.0, B=1.0, R=1.0)
        path = ComparatorPath.constant(np.full(stream.d, 0.1), stream.T)
        pv = regret.path_variation(logreg.logistic_ledger(run), path, 0.95)
        assert pv.value == 0.0

    def test_fourth_term_vanishes_as_beta_tends_to_one(self):
        values = [
            (1.0 - b) / b * 3 * (1.0 + 1.0) * 100
            for b in (0.9, 0.99, 0.999, 0.999999)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] <= 1e-3

    def test_bound_dominates_measured_regret(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            stream, truth = logistic_stream(rng, T=100, segments=2)
            beta = float(rng.uniform(0.7, 0.97))
            run = logreg.run_aioli(stream, beta=beta, lam=1.0, B=1.0, R=1.0)
            dyn = regret.dynamic_regret(logreg.logistic_ledger(run), truth)
            bound = logreg.theorem_dynamic_bound(run, truth, max(beta, 0.95))
            assert dyn <= bound + 1e-9 * (1.0 + abs(bound))


class TestMixPredict:
    def test_single_expert_identity(self):
        for yhat in (-3.0, 0.0, 1.7):
            assert logreg.mix_predict(np.array([yhat]), np.array([1.0])) == pytest.approx(
                yhat, abs=1e-9
            )

    def test_symmetric_pair_mixes_to_zero(self):
        mixed = logreg.mix_predict(np.array([2.5, -2.5]), np.array([0.5, 0.5]))
        assert mixed == pytest.approx(0.0, abs=1e-12)

    def test_mixability_inequality_fuzz(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            yhats = rng.uniform(-20, 20, n)
            p = rng.random(n)
            p /= p.sum()
            assert lemmas.check_mixability(yhats, p).passed

    def test_saturated_experts_are_clamped(self):
        mixed = logreg.mix_predict(np.array([800.0, 900.0]), np.array([0.5, 0.5]))
        assert np.isfinite(mixed) and mixed > 0


class TestEnsemble:
    def test_single_base_equals_base_learner(self):
        rng = np.random.default_rng(9)
        stream, _ = logistic_stream(rng, T=50)
        solo = logreg.run_aioli(stream, beta=0.9, lam=1.0, B=1.0, R=1.0)
        ens = logreg.run_ensemble(stream, [0.9], lam=1.0, B=1.0, R=1.0)
        np.testing.assert_allclose(ens.yhats, solo.yhats, atol=1e-9)

    def test_meta_regret_at_most_log_n(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            stream, _ = logistic_stream(rng, T=60)
            betas = sorted(rng.uniform(0.5, 0.99, size=int(rng.integers(2, 6))))
            run = logreg.run_ensemble(stream, betas, lam=1.0, B=1.0, R=1.0)
            assert run.meta_regret <= math.log(len(betas)) + 1e-9

    def test_equal_losses_keep_weights_uniform(self):
        rng = np.random.default_rng(11)
        stream, _ = logistic_stream(rng, T=3)
        state = logreg.EnsembleState.fresh(stream.d, [0.9, 0.9], 1.0, 1.0, 1.0)
        logreg.ensemble_step(state, stream.Z[0], stream.y[0])
        step = logreg.ensemble_step(state, stream.Z[1], stream.y[1])
        np.testing.assert_allclose(step.p, [0.5, 0.5], rtol=1e-15)

    def test_mixability_holds_every_round(self):
        rng = np.random.default_rng(12)
        stream, _ = logistic_stream(rng, T=40)
        run = logreg.run_ensemble(stream, [0.7, 0.9, 0.97], lam=1.0, B=1.0, R=1.0)
        for t in range(run.T):
            assert lemmas.check_mixability(run.expert_yhats[t], run.weights[t]).passed


class TestGrid:
    def test_frozen_eleven_point_example(self):
        grid = logreg.build_grid(B=1.0, R=0.5, d=1, T=1024)
        assert grid.n == 11
        assert grid.eta_min == pytest.approx(math.sqrt(1.5), rel=1e-12)
        assert grid.eta_max == 1024.0
        assert grid.lam == pytest.approx(1.0)

    def test_pool_is_increasing_inside_unit_interval(self):
        grid = logreg.build_grid(B=2.0, R=1.0, d=3, T=500)
        betas = np.array(grid.betas)
        assert np.all(np.diff(betas) > 0)
        assert np.all((betas > 0) & (betas < 1))

    def test_tiny_horizon_collapses_pool(self):
        grid = logreg.build_grid(B=1.0, R=0.5, d=1, T=1)
        assert grid.degenerate and grid.n == 1 and len(grid.betas) == 1

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            logreg.build_grid(B=0.0, R=1.0, d=1, T=10)
