from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import minimize

from driftlearn import linreg, regret
from driftlearn.streams import ComparatorPath, LabeledRound, Stream, StreamSpec, gen_stream


def drifting_stream(rng, T=60, d=3, segments=3, noise=0.2):
    seed = int(rng.integers(2**31))
    spec = StreamSpec(d=d, T=T, segments=segments, noise=noise, seed=seed)
    return gen_stream(spec)


class TestPredict:
    def test_empty_history_plays_zero(self):
        state = linreg.VawState.fresh(3, beta=0.7, lam=2.0)
        x, yhat = linreg.dvaw_predict(state, np.array([1.0, -2.0, 0.5]))
        assert np.array_equal(x, np.zeros(3)) and yhat == 0.0

    def test_undiscounted_scalar_example(self):
        # history (z=1, y=1), next z=1, lam=1: x = b/(lam + 1 + 1) = 1/3
        state = linreg.VawState.fresh(1, beta=1.0, lam=1.0)
        state = linreg.dvaw_update(state, LabeledRound(np.array([1.0]), 1.0))
        x, _ = linreg.dvaw_predict(state, np.array([1.0]))
        assert x[0] == pytest.approx(1 / 3, rel=1e-14)

    def test_discounted_scalar_example(self):
        # beta=0.5: solve (lam b^2 + b + 1) x = b  ->  x = 0.5/1.75 = 2/7
        state = linreg.VawState.fresh(1, beta=0.5, lam=1.0)
        state = linreg.dvaw_update(state, LabeledRound(np.array([1.0]), 1.0))
        x, _ = linreg.dvaw_predict(state, np.array([1.0]))
        assert x[0] == pytest.approx(2 / 7, rel=1e-14)

    def test_matches_numerical_minimizer(self):
        # independent check: minimize the forward-regularized objective directly
        rng = np.random.default_rng(0)
        for beta in (1.0, 0.8, 0.5):
            d, T = 3, 12
            Z = rng.standard_normal((T, d))
            y = rng.standard_normal(T)
            lam = 0.7
            state = linreg.VawState.fresh(d, beta, lam)
            for t in range(1, T + 1):
                z_t = Z[t - 1]
                x, _ = linreg.dvaw_predict(state, z_t)

                def objective(v):
                    val = 0.5 * lam * beta**t * v @ v + 0.5 * (v @ z_t) ** 2
                    for s in range(1, t):
                        val += 0.5 * beta ** (t - s) * (v @ Z[s - 1] - y[s - 1]) ** 2
                    return val

                res = minimize(objective, x0=np.zeros(d), method="BFGS",
                               options={"gtol": 1e-12})
                assert np.linalg.norm(x - res.x) <= 1e-6
                state = linreg.dvaw_update(state, LabeledRound(z_t, y[t - 1]))


class TestUpdate:
    def test_beta_one_keeps_plain_sums(self):
        rng = np.random.default_rng(1)
        Z = rng.standard_normal((7, 2))
        y = rng.standard_normal(7)
        state = linreg.VawState.fresh(2, beta=1.0, lam=1.0)
        for t in range(7):
            state = linreg.dvaw_update(state, LabeledRound(Z[t], y[t]))
        np.testing.assert_allclose(state.A, np.eye(2) + Z.T @ Z, rtol=1e-12)
        np.testing.assert_allclose(state.b, Z.T @ y, rtol=1e-12)

    def test_two_half_discount_updates(self):
        state = linreg.VawState.fresh(1, beta=0.5, lam=1.0)
        for _ in range(2):
            state = linreg.dvaw_update(state, LabeledRound(np.array([1.0]), 1.0))
        # A_2 = lam beta^2 + beta z^2 + z^2 = 0.25 + 0.5 + 1
        assert state.A[0, 0] == pytest.approx(1.75, rel=1e-15)
        assert state.b[0] == pytest.approx(1.5, rel=1e-15)

    def test_potential_single_round(self):
        # y^2 z (lam*beta + z^2)^{-1} z = 4 / (1 + 1) = 2
        state = linreg.VawState.fresh(1, beta=1.0, lam=1.0)
        state = linreg.dvaw_update(state, LabeledRound(np.array([1.0]), 2.0))
        assert state.potential == pytest.approx(2.0, rel=1e-14)

    def test_gram_matrix_stays_symmetric(self):
        rng = np.random.default_rng(2)
        state = linreg.VawState.fresh(3, beta=0.95, lam=1.0)
        for _ in range(10_000):
            z = rng.standard_normal(3)
            state = linreg.dvaw_update(state, LabeledRound(z, float(rng.standard_normal())))
        assert np.max(np.abs(state.A - state.A.T)) <= 1e-12

    def test_underflowed_regularizer_raises_helpful_error(self):
        # rank-deficient history along e1 with lam*beta^t underflowed to 0
        state = linreg.VawState.fresh(2, beta=0.01, lam=1.0)
        z = np.array([1.0, 0.0])
        with pytest.raises(linreg.SingularSystemError, match="larger lambda"):
            for _ in range(200):
                linreg.dvaw_predict(state, z)
                state = linreg.dvaw_update(state, LabeledRound(z, 1.0))


class TestStaticBound:
    def test_empty_prefix_zero_comparator(self):
        s = Stream(np.zeros((1, 2)), np.zeros(1))
        assert linreg.vaw_static_bound(s, 1.0, 0, np.zeros(2)) == 0.0

    def test_frozen_single_round_value(self):
        # lam=1, one round (z=1, y=1), u=0: 0.5 * 1 / (1 + 1) = 0.25
        s = Stream(np.array([[1.0]]), np.array([1.0]))
        assert linreg.vaw_static_bound(s, 1.0, 1, np.zeros(1)) == pytest.approx(0.25)

    def test_prefix_regret_never_exceeds_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            stream, _ = drifting_stream(rng, T=50, d=int(rng.integers(1, 5)))
            lam = float(rng.uniform(0.2, 2.0))
            run = linreg.run_dvaw(stream, beta=1.0, lam=lam)
            A = lam * np.eye(stream.d)
            ridge_b = np.zeros(stream.d)
            incs = np.empty(stream.T)
            for t in range(stream.T):
                z, yt = stream.Z[t], stream.y[t]
                A += np.outer(z, z)
                ridge_b += yt * z
                incs[t] = 0.5 * yt**2 * float(z @ np.linalg.solve(A, z))
            bound_stab = np.cumsum(incs)
            comparators = [np.zeros(stream.d), rng.standard_normal(stream.d),
                           np.linalg.solve(A, ridge_b)]
            for u in comparators:
                losses_u = 0.5 * (stream.Z @ u - stream.y) ** 2
                prefix_regret = np.cumsum(run.losses_at_play - losses_u)
                bound = 0.5 * lam * float(u @ u) + bound_stab
                assert np.all(prefix_regret <= bound + 1e-9 * (1.0 + np.abs(bound)))
                # spot-check the library evaluator against the incremental oracle
                t_spot = int(rng.integers(1, stream.T + 1))
                lib = linreg.vaw_static_bound(stream, lam, t_spot, u)
                assert lib == pytest.approx(
                    0.5 * lam * float(u @ u) + bound_stab[t_spot - 1], rel=1e-10
                )


class TestDynamicBound:
    def test_zero_stream_gives_zero_bound(self):
        T, d = 10, 2
        stream = Stream(np.tile([[1.0, 0.0]], (T, 1)), np.zeros(T))
        run = linreg.run_dvaw(stream, beta=0.9, lam=1.0)
        path = ComparatorPath(np.zeros((T, d)))
        assert linreg.dvaw_dynamic_bound(run, path, 0.95) == 0.0
        assert regret.dynamic_regret(linreg.vaw_ledger(run), path) == 0.0

    def test_constant_path_drops_variation_term(self):
        rng = np.random.default_rng(4)
        stream, _ = drifting_stream(rng, T=30, segments=1)
        run = linreg.run_dvaw(stream, beta=0.9, lam=1.0)
        path = ComparatorPath.constant(rng.standard_normal(stream.d), stream.T)
        with_term = linreg.dvaw_dynamic_bound(run, path, 0.95)
        base = (
            0.5 * 0.9 * 1.0 * float(path[0] @ path[0])
            + linreg.dvaw_log_term(run)
            + (1 - 0.9) / 0.9 * 0.5 * stream.d * float((stream.y**2).sum())
        )
        assert with_term == pytest.approx(base, rel=1e-12)

    def test_bound_dominates_measured_regret_both_forms(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            stream, truth = drifting_stream(rng, T=60, segments=3, noise=0.3)
            beta = float(rng.choice([0.5, 0.9, 0.99]))
            run = linreg.run_dvaw(stream, beta=beta, lam=1.0)
            dyn = regret.dynamic_regret(linreg.vaw_ledger(run), truth)
            for gamma in (beta, min(0.999, 0.5 * (1 + beta))):
                b_path = linreg.dvaw_dynamic_bound(run, truth, gamma)
                assert dyn <= b_path + 1e-9 * (1.0 + abs(b_path))
            b_ft = linreg.dvaw_dynamic_bound(run, truth, form="ftdiff")
            assert dyn <= b_ft + 1e-9 * (1.0 + abs(b_ft))

    def test_modular_rhs_dominates_measured_regret(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            stream, truth = drifting_stream(rng, T=40, segments=2, noise=0.2)
            run = linreg.run_dvaw(stream, beta=0.9, lam=0.5)
            ledger = linreg.vaw_ledger(run)
            dyn = regret.dynamic_regret(ledger, truth)
            rhs = regret.modular_bound_rhs(ledger, truth)
            assert dyn <= rhs + 1e-9 * (1.0 + abs(rhs))

    def test_bad_gamma_ordering_rejected(self):
        rng = np.random.default_rng(7)
        stream, truth = drifting_stream(rng, T=10)
        run = linreg.run_dvaw(stream, beta=0.9, lam=1.0)
        with pytest.raises(ValueError):
            linreg.dvaw_dynamic_bound(run, truth, gamma=0.5)


class TestPotentialLemmaDelegation:
    def test_discounted_potential_bounds_the_stability_sum(self):
        from driftlearn import lemmas

        rng = np.random.default_rng(8)
        stream, _ = drifting_stream(rng, T=50, d=2, noise=0.3)
        run = linreg.run_dvaw(stream, beta=0.8, lam=1.0)
        verdict = lemmas.check_discounted_potential(0.8, 1.0, stream.Z, stream.y)
        assert verdict.passed
        # the run's accumulated potential is that lemma's left-hand side
        pw = 0.8 ** np.arange(stream.T - 1, -1.0, -1.0)
        mass = float(pw @ (stream.Z**2).sum(axis=1))
        rhs = stream.d * np.log(1 / 0.8) * float((stream.y**2).sum())
        rhs += float((stream.y**2).max()) * stream.d * np.log1p(mass / stream.d)
        assert run.state.potential <= rhs + 1e-9


def two_factorization_dvaw(stream, beta, lam):
    """Reference copy of the forecaster that keeps M_t and lam beta^t apart
    and factors the predict and update matrices separately."""
    d = stream.d
    M, b, lam_beta, potential = np.zeros((d, d)), np.zeros(d), lam, 0.0
    yhats, pots = np.empty(stream.T), np.empty(stream.T)
    for t, (z, y) in enumerate(zip(stream.Z, stream.y)):
        A = (lam_beta * beta) * np.eye(d) + beta * M + np.outer(z, z)
        x = cho_solve(cho_factor(A, lower=True), beta * b)
        yhats[t] = x @ z
        M = beta * M + np.outer(z, z)
        M = 0.5 * (M + M.T)
        b = beta * b + y * z
        lam_beta *= beta
        A = lam_beta * np.eye(d) + M
        prev = potential
        potential += y * y * float(z @ cho_solve(cho_factor(A, lower=True), z))
        pots[t] = potential - prev
    return yhats, pots


class TestSingleMatrixMatchesTwoFactorizations:
    @given(
        seed=st.integers(0, 2**31 - 1),
        d=st.integers(1, 6),
        T=st.integers(1, 300),
        beta=st.floats(0.5, 1.0),
        lam=st.floats(0.1, 10.0),
        kind=st.sampled_from(["piecewise-constant-target", "rotating-target"]),
    )
    def test_predictions_and_potentials_agree(self, seed, d, T, beta, lam, kind):
        spec = StreamSpec(d=d, T=T, kind=kind, segments=3, noise=0.3, seed=seed)
        stream, _ = gen_stream(spec)
        run = linreg.run_dvaw(stream, beta, lam)
        yhats, pots = two_factorization_dvaw(stream, beta, lam)
        assert np.all(np.abs(run.yhats - yhats) <= 1e-12 * (1.0 + np.abs(yhats)))
        assert np.all(
            np.abs(run.potential_increments - pots) <= 1e-12 * (1.0 + np.abs(pots))
        )


def per_round_scipy_dvaw(stream, beta, lam):
    """Reference copy of the per-round learner: one scipy Cholesky factor of
    A_t per round, and the next prediction through the rank-one identity
    x = a - c (z.a) / (beta + z.c) with a = A^{-1} b and c = A^{-1} z."""
    d = stream.d
    A, b = lam * np.eye(d), np.zeros(d)
    chol = cho_factor(A, lower=True)
    potential = 0.0
    T = stream.T
    yhats, losses, pots = np.empty(T), np.empty(T), np.empty(T)
    for t, (z, y) in enumerate(zip(stream.Z, stream.y.tolist())):
        a, c = cho_solve(chol, np.column_stack((b, z))).T
        x = a - c * (float(z @ a) / (beta + float(z @ c)))
        yhats[t] = float(x @ z)
        losses[t] = 0.5 * (yhats[t] - y) ** 2
        A = beta * A + np.outer(z, z)
        chol = cho_factor(A, lower=True)
        b = beta * b + y * z
        prev = potential
        potential += y * y * float(z @ cho_solve(chol, z))
        pots[t] = potential - prev
    return yhats, losses, pots, A, b, potential


def assert_close(new, ref, rel=1e-12):
    new, ref = np.asarray(new), np.asarray(ref)
    assert new.shape == ref.shape
    assert np.all(np.abs(new - ref) <= rel * (1.0 + np.abs(ref)))


def run_fields(run):
    return (run.yhats, run.losses_at_play, run.potential_increments,
            run.state.A, run.state.b, run.state.potential)


class TestBlockedKernelMatchesPerRoundLoop:
    @given(
        seed=st.integers(0, 2**31 - 1),
        d=st.integers(1, 8),
        block=st.integers(1, 40),
        extra=st.integers(0, 60),
        beta=st.floats(0.5, 1.0),
        lam=st.floats(0.1, 10.0),
        kind=st.sampled_from(["piecewise-constant-target", "rotating-target"]),
    )
    def test_fields_agree(self, seed, d, block, extra, beta, lam, kind):
        # a budget of `block` rounds, so that T spans at least three blocks
        T = 3 * block + extra
        spec = StreamSpec(d=d, T=T, kind=kind, segments=3, noise=0.3, seed=seed)
        stream, _ = gen_stream(spec)
        with mock.patch.object(linreg, "_BLOCK_BYTES", block * 8 * d * d):
            run = linreg.run_dvaw(stream, beta, lam)
        for new, ref in zip(run_fields(run), per_round_scipy_dvaw(stream, beta, lam)):
            assert_close(new, ref)

    @pytest.mark.parametrize("d, T", [(8, 200), (5, 500)])
    def test_default_budget_spans_several_blocks(self, d, T):
        assert T >= 3 * (linreg._BLOCK_BYTES // (8 * d * d))
        spec = StreamSpec(d=d, T=T, kind="rotating-target", segments=3, noise=0.3, seed=d)
        stream, _ = gen_stream(spec)
        run = linreg.run_dvaw(stream, 0.95, 0.5)
        for new, ref in zip(run_fields(run), per_round_scipy_dvaw(stream, 0.95, 0.5)):
            assert_close(new, ref)

    def test_single_round_views_match_the_run(self):
        rng = np.random.default_rng(9)
        stream, _ = drifting_stream(rng, T=30, d=4)
        run = linreg.run_dvaw(stream, 0.9, 1.0)
        state = linreg.VawState.fresh(4, 0.9, 1.0)
        for t, rnd in enumerate(stream):
            _, yhat = linreg.dvaw_predict(state, rnd.z)
            assert yhat == run.yhats[t]
            state = linreg.dvaw_update(state, rnd)
        assert np.array_equal(state.A, run.state.A)
        assert np.array_equal(state.b, run.state.b)
        assert state.t == run.state.t and state.maxy2 == run.state.maxy2
        assert state.potential == pytest.approx(run.state.potential, rel=1e-12)


class TestOneRoundSteps:
    @given(
        seed=st.integers(0, 2**31 - 1),
        d=st.integers(1, 8),
        T=st.integers(1, 40),
        beta=st.floats(0.5, 1.0),
        lam=st.floats(0.1, 10.0),
    )
    def test_predict_and_update_equal_the_blocked_run(self, seed, d, T, beta, lam):
        spec = StreamSpec(d=d, T=T, segments=2, noise=0.3, seed=seed)
        stream, _ = gen_stream(spec)
        run = linreg.run_dvaw(stream, beta, lam)
        state = linreg.VawState.fresh(d, beta, lam)
        for t, rnd in enumerate(stream):
            x, yhat = linreg.dvaw_predict(state, rnd.z)
            assert yhat == run.yhats[t] and yhat == float((x * rnd.z).sum())
            potential = state.potential
            state = linreg.dvaw_update(state, rnd)
            assert state.potential == potential + run.potential_increments[t]
        assert np.array_equal(state.A, run.state.A) and np.array_equal(state.b, run.state.b)


class TestBlockSizeInvariance:
    def test_one_round_blocks_equal_the_default(self, monkeypatch):
        spec = StreamSpec(d=5, T=500, kind="piecewise-constant-target", segments=4,
                          noise=0.1, seed=21)
        stream, _ = gen_stream(spec)
        default = linreg.run_dvaw(stream, 0.99, 1.0)
        monkeypatch.setattr(linreg, "_BLOCK_BYTES", 1)
        one_round = linreg.run_dvaw(stream, 0.99, 1.0)
        for a, b in zip(run_fields(default), run_fields(one_round)):
            assert np.array_equal(a, b)


class TestKernelErrors:
    def test_rank_deficient_stream_raises_singular_error(self):
        T = 200
        stream = Stream(np.tile([[1.0, 0.0]], (T, 1)), np.ones(T))
        with pytest.raises(linreg.SingularSystemError, match="larger lambda"):
            linreg.run_dvaw(stream, beta=0.01, lam=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_rejected(self, bad):
        state = linreg.VawState.fresh(2, beta=0.9, lam=1.0)
        z = np.array([1.0, bad])
        with pytest.raises(ValueError, match="feature must be finite"):
            linreg.dvaw_predict(state, z)
        with pytest.raises(ValueError, match="feature must be finite"):
            linreg.dvaw_update(state, LabeledRound(z, 1.0))

    def test_non_finite_label_rejected(self):
        state = linreg.VawState.fresh(2, beta=0.9, lam=1.0)
        with pytest.raises(ValueError, match="label must be finite"):
            linreg.dvaw_update(state, LabeledRound(np.ones(2), np.nan))

    @pytest.mark.parametrize("lam", [np.inf, np.nan, 0.0])
    def test_bad_lambda_rejected(self, lam):
        with pytest.raises(ValueError, match="lambda"):
            linreg.VawState.fresh(2, beta=0.9, lam=lam)

    def test_overflowing_stream_raises(self):
        stream = Stream(np.full((3, 2), 1e200), np.ones(3))
        with pytest.raises(ValueError, match="overflowed"):
            linreg.run_dvaw(stream, beta=0.9, lam=1.0)
