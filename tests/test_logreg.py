import dataclasses
import math
import tracemalloc
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.linalg import cho_factor, cho_solve
from scipy.special import expit

from driftlearn import lemmas, logreg, regret
from driftlearn.streams import Stream, StreamSpec, gen_stream
import oracles


def prefix_loop_bound_check(run, comparators):
    ledger = logreg.logistic_ledger(run)
    worst = float("inf")
    ok = True
    for u in comparators:
        r = 0.0
        diffs = run.losses_at_play - ledger.loss_eval_batch(u)
        for t in range(1, run.T + 1):
            r = run.beta * r + float(diffs[t - 1])
            bound = oracles.aioli_rescaled_bound(run, t, u)
            worst = float(np.minimum(worst, bound - r))
            if r > bound + 1e-9 * (1.0 + abs(bound)):
                ok = False
    return worst, ok


def logistic_stream(rng, T=80, d=3, segments=2, noise=0.3, B=1.0, R=1.0):
    seed = int(rng.integers(2**31))
    spec = StreamSpec(
        d=d, T=T, kind="logistic-drift", segments=segments, noise=noise,
        seed=seed, R=R, B=B,
    )
    return gen_stream(spec)


def logistic_grad(x, z, y):
    """Gradient of x -> l(x.z, y): -y * sigma(-y * x.z) * z."""
    return -y * float(expit(-y * float(x @ z))) * z


# The optimism root's residual target: doubles near p are about 2.2e-16 |p|
# apart, so an absolute 1e-12 is out of reach once |p| is above about 1e4.
ROOT_TOL = 1e-12


def ulps_apart(a, b):
    """Units in the last place between nonnegative float arrays a and b."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.abs(a.view(np.int64) - b.view(np.int64))


class TestSigmoidPm:
    # the learner's sigma; the float sigma of the oracles is pinned in test_lemmas
    def test_within_four_ulp_of_expit(self):
        rng = np.random.default_rng(30)
        x = np.concatenate([
            oracles.SIGMOID_EDGES,
            rng.standard_normal(20000) * 10.0 ** rng.integers(-3, 3, 20000),
            rng.uniform(-750.0, 750.0, 20000),
        ])
        with np.errstate(over="ignore"):  # as every caller runs it
            s_pos, s_neg = logreg._sigmoid_pm(x)
            grid = logreg._sigmoid_pm(x[:100].reshape(-1, 4))
        assert ulps_apart(s_pos, expit(x)).max() <= 4
        assert ulps_apart(s_neg, expit(-x)).max() <= 4
        assert grid.shape == (2, 25, 4)

    def test_nan_stays_nan(self):
        assert np.isnan(logreg._sigmoid_pm(np.array([math.nan]))).all()

    def test_zero_where_exp_overflows(self):
        with np.errstate(over="ignore"):
            got = logreg._sigmoid_pm(np.array([720.0, -720.0, 800.0, -800.0]))
        assert got.tolist() == [[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]]


class TestLoss:
    def test_zero_score_gives_ln2(self):
        assert oracles.logistic_loss(0.0, 1.0) == pytest.approx(math.log(2), rel=1e-15)

    def test_large_negative_score_no_overflow(self):
        loss = oracles.logistic_loss(-700.0, 1.0)
        assert loss == pytest.approx(700.0, rel=1e-12)
        assert np.isfinite(loss)

    def test_gradient_at_origin(self):
        # the first update from x = 0 stores -g, the true gradient, as w
        z = np.array([0.5, -1.0])
        for y in (1.0, -1.0):
            np.testing.assert_allclose(
                logistic_grad(np.zeros(2), z, y), -y * 0.5 * z, rtol=1e-15
            )
            experts = oracles.PerRoundExperts(2, [0.9], 1.0, 1.0, 1.0)
            factor, yhats, q = experts.decide(z)
            X = experts.decisions(factor, yhats)
            experts.absorb(z, y, yhats, q)
            np.testing.assert_allclose(experts.w[0], -logistic_grad(X[0], z, y), rtol=1e-15)


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

    @pytest.mark.parametrize(
        "p,q",
        [
            (-3e4, 0.7),  # absolute 1e-12 is below the spacing of doubles near p
            (-7.670826430483827, 10.817771626214467),  # Newton bounced across v = 0
        ],
    )
    def test_meets_scaled_target_where_iterations_used_to_run_out(self, p, q):
        v = logreg.solve_optimism_root(p, q)
        assert abs(v + q * math.tanh(v / 2) - p) <= ROOT_TOL * max(1.0, abs(p))
        assert p - q <= v <= p + q

    def test_running_out_of_iterations_raises(self, monkeypatch):
        with pytest.raises(logreg.RootNotConvergedError, match="p=nan"):
            logreg.solve_optimism_root(math.nan, 1.0)
        monkeypatch.setattr(logreg, "ROOT_MAX_ITERS", 1)
        with pytest.raises(logreg.RootNotConvergedError, match="1 iterations"):
            logreg.solve_optimism_root(2.0, 1.0)
        assert issubclass(logreg.RootNotConvergedError, RuntimeError)

    # Above 1e300 the residual v + q*tanh(v/2) below can itself overflow.
    @given(p=st.floats(-1e300, 1e300), q=st.floats(0.0, 1e300))
    @example(p=4.878048780487805e+37, q=1.084010840108401e+76)  # q >> |p|
    @example(p=191.0, q=71.0)  # |p|/(1 + q/2) alone is one ulp below p - q
    def test_root_in_bracket_meets_scaled_target(self, p, q):
        v = logreg.solve_optimism_root(p, q)
        assert p - q <= v <= p + q
        assert abs(v + q * math.tanh(v / 2) - p) <= ROOT_TOL * max(1.0, abs(p))


def one_expert(d, beta, lam=1.0, B=1.0, R=1.0):
    return logreg._Experts.fresh(d, [beta], lam, B, R)


def decide(experts, z):
    """The predictions and q of ``experts`` at feature z, which the state's
    feature row holds, as a block of ``_Experts.run`` writes it."""
    d = len(z)
    experts.S[d + 1, :d] = z[:, None]
    yhats = np.empty(len(experts.beta))
    return yhats, experts.decide(yhats)


def padded_outer(z):
    """z z' in the first d columns of d + 2, as ``_Experts.absorb`` takes it."""
    d = len(z)
    zz = np.zeros((d, d + 2))
    zz[:, :d] = np.outer(z, z)
    return zz


def step(experts, z, y, yhats):
    """One update of ``experts`` into a state of its own; returns c2."""
    with np.errstate(over="ignore"):
        return experts.absorb(z, padded_outer(z), y, yhats, experts.S.copy())


class TestPredict:
    def test_empty_history_plays_zero(self):
        experts = oracles.PerRoundExperts(3, [0.9], 1.0, 1.0, 1.0)
        factor, yhats, _ = experts.decide(np.array([1.0, 0.0, -1.0]))
        X = experts.decisions(factor, yhats)
        assert np.array_equal(X[0], np.zeros(3)) and yhats[0] == 0.0

    # The route before the bordered factor: p = z'A^{-1}w and
    # q = z'A^{-1}z/beta from one LU solve of A against [w, z], each expert
    # on its own trajectory.  The factor's predictions drift from it by
    # roundoff alone.
    @given(
        seed=st.integers(0, 2**31 - 1),
        d=st.integers(1, 6),
        T=st.integers(1, 200),
        betas=st.lists(st.floats(0.5, 0.999), min_size=1, max_size=6),
        lam=st.floats(0.1, 10.0),
    )
    def test_factor_predictions_agree_with_an_lu_solve(self, seed, d, T, betas, lam):
        stream, _ = gen_stream(StreamSpec(d=d, T=T, kind="logistic-drift", segments=3,
                                          noise=0.3, seed=seed))
        _, got, _ = oracles.ensemble_rows(stream, betas, lam)
        experts = oracles.PerRoundExperts(d, betas, lam, 1.0, 1.0)
        want = np.empty_like(got)
        for t, (z, y) in enumerate(zip(stream.Z, stream.y.tolist())):
            rhs = np.stack([experts.w, np.broadcast_to(z, experts.w.shape)], axis=-1)
            sol = np.linalg.solve(experts.A, rhs)
            p, q = sol[:, :, 0] @ z, (sol[:, :, 1] / experts.beta[:, None]) @ z
            want[t] = [logreg.solve_optimism_root(pi, qi) for pi, qi in zip(p, q)]
            with np.errstate(over="ignore"):
                experts.absorb(z, y, want[t], q)
        assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))

    # q = |L^{-1}z|^2/beta is a sum of squares: no roundoff makes it negative,
    # however badly A is conditioned, where an LU solve gave q < 0.
    @given(
        seed=st.integers(0, 2**31 - 1),
        d=st.integers(1, 6),
        n=st.integers(1, 5),
        log_cond=st.floats(0.0, 15.0),
        log_scale=st.floats(-150.0, 150.0),
    )
    def test_q_is_never_negative(self, seed, d, n, log_cond, log_scale):
        rng = np.random.default_rng(seed)
        experts = logreg._Experts.fresh(d, np.linspace(0.3, 0.99, n), 1.0, 1.0, 1.0)
        for i in range(n):
            Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            spectrum = 10.0 ** (log_scale - log_cond * rng.random(d))
            experts.A[i] = (Q * spectrum) @ Q.T
            experts.w[i] = rng.standard_normal(d) * 10.0 ** (0.5 * log_scale)
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                _, q = decide(experts, rng.standard_normal(d))
            except (RuntimeError, ValueError):  # a stack LAPACK rejects, or one that overflows
                return
        assert np.all(q >= 0.0)

    def test_stationarity_residual_small_on_fuzzed_runs(self):
        rng = np.random.default_rng(1)
        stream, _ = logistic_stream(rng, T=60)
        run = logreg.run_aioli(stream, beta=0.85, lam=1.0, B=1.0, R=1.0)
        assert float(run.residuals.max()) <= 1e-9

    # The residuals read the decision x_t from the learner's own factor.  An
    # LU solve of A_{t-1} for the same decision lands within cond(A) times
    # the roundoff of it, so its residual differs from the factor's by at
    # most that much, in units of the terms beta A x, z and beta w.  At
    # beta = 0.01 cond(A) reaches 1.2e8 here: the LU residual reads 1.7e-8,
    # beyond the 1e-9 check, where the factor's reads 3e-14.
    def test_residuals_agree_with_an_lu_solve_to_the_condition_number(self):
        beta, eps = 0.01, np.finfo(float).eps
        stream, _ = gen_stream(StreamSpec(kind="logistic-drift", d=3, T=1200, segments=4,
                                          noise=0.2, seed=2))
        run = logreg.run_aioli(stream, beta, 1.0, 1.0, 1.0)
        experts = oracles.PerRoundExperts(3, [beta], 1.0, 1.0, 1.0)
        lu, slack = np.empty(stream.T), np.empty(stream.T)
        for t, (z, y) in enumerate(zip(stream.Z, stream.y.tolist())):
            A, w = experts.A[0], experts.w[0]
            x = np.linalg.solve(A, w - np.tanh(0.5 * run.yhats[t]) * z / beta)
            lu[t] = np.abs(beta * A @ x + np.tanh(0.5 * (x @ z)) * z - beta * w).max()
            scale = beta * np.abs(A).max() * np.abs(x).max() + np.abs(z).max()
            slack[t] = 16.0 * np.linalg.cond(A) * eps * (scale + beta * np.abs(w).max())
            with np.errstate(over="ignore"):
                _, yh, q = experts.decide(z)
                experts.absorb(z, y, yh, q)
        assert float(run.residuals.max()) <= 1e-12
        assert np.all(np.abs(lu - run.residuals) <= slack)
        assert float(lu.max()) > 1e-9


class TestUpdate:
    def test_balanced_score_curvature(self):
        # u = 0: eta g g' = z z' / (4 (1 + BR))
        experts = one_expert(2, 0.9)
        z = np.array([0.8, -0.6])
        yhats, _ = decide(experts, z)  # the empty history plays x = 0
        step(experts, z, 1.0, yhats)
        np.testing.assert_allclose(
            experts.A[0] - 0.9 * np.eye(2), np.outer(z, z) / 8.0, rtol=1e-14
        )

    def test_confidently_correct_round_adds_no_curvature(self):
        experts = one_expert(1, 0.9)
        step(experts, np.array([1.0]), 1.0, np.array([800.0]))
        assert experts.A[0, 0, 0] - 0.9 <= 1e-300
        assert np.isfinite(experts.w).all()

    def test_single_update_matches_stable_product(self):
        experts = one_expert(2, 0.99, B=2.0, R=0.5)
        z = np.array([0.3, 0.4])
        yhat = -0.7
        c2 = step(experts, z, -1.0, np.array([yhat]))
        u = -1.0 * yhat
        assert c2[0] == pytest.approx(expit(u) * expit(-u) / (1.0 + 2.0 * 0.5), rel=1e-15)
        expected = expit(u) * expit(-u) / (1.0 + 2.0 * 0.5) * np.outer(z, z)
        np.testing.assert_allclose(experts.A[0] - 0.99 * np.eye(2), expected, rtol=1e-14)

    @given(
        seed=st.integers(0, 2**31 - 1),
        d=st.integers(1, 5),
        T=st.integers(1, 60),
        beta=st.floats(0.5, 0.999),
        lam=st.floats(0.1, 10.0),
    )
    def test_margin_form_matches_textbook_update(self, seed, d, T, beta, lam):
        # absorb takes w <- beta w + (y sigma(-u) + c2 yhat) z; the textbook
        # update is beta w - g + (g.x) eta g with x the decision of decide;
        # the referee's rounds are the library's, bit for bit
        stream, _ = gen_stream(StreamSpec(d=d, T=T, kind="logistic-drift", segments=3,
                                          noise=0.3, seed=seed))
        experts = oracles.PerRoundExperts(d, [beta], lam, 1.0, 1.0)
        for z, y in zip(stream.Z[:-1], stream.y[:-1].tolist()):
            _, yh, q = experts.decide(z)
            experts.absorb(z, y, yh, q)
        z, y = stream.Z[-1], float(stream.y[-1])
        factor, yh, q = experts.decide(z)
        x, w = experts.decisions(factor, yh)[0], experts.w[0]
        u = y * float(x @ z)
        g = -y * float(expit(-u)) * z
        eta_g = -y * float(expit(u)) / 2.0 * z  # 1 + BR = 2
        want = beta * w - g + float(g @ x) * eta_g
        experts.absorb(z, y, yh, q)
        # a few ulps of the terms, with |g|.|x| the magnitude of the dot product
        size = np.abs(beta * w) + np.abs(g) + float(np.abs(g) @ np.abs(x)) * np.abs(eta_g)
        assert np.all(np.abs(experts.w[0] - want) <= 8 * np.finfo(float).eps * size)

    def test_curvature_norm_never_exceeds_stable_cap(self):
        rng = np.random.default_rng(2)
        stream, _ = logistic_stream(rng, T=120, R=1.5)
        run = logreg.run_aioli(stream, beta=0.9, lam=1.0, B=1.0, R=1.5)
        cap = 1.5**2 / (4.0 * (1.0 + 1.0 * 1.5))
        # the increment A_t - beta A_{t-1} = eta g g' = c2 z z' has spectral
        # norm c2 |z|^2 <= R^2/(4(1+BR)) per round
        experts = one_expert(stream.d, 0.9, R=1.5)
        norms = np.empty(stream.T)
        for t, (z, y) in enumerate(zip(stream.Z, stream.y.tolist())):
            yh, _ = decide(experts, z)
            A_prev = experts.A[0]
            step(experts, z, y, yh)
            norms[t] = np.linalg.norm(experts.A[0] - 0.9 * A_prev, ord=2)
        assert np.all(norms <= cap * (1 + 1e-12))
        c2 = oracles.aioli_curvature_weights(run)
        np.testing.assert_allclose(norms, c2 * (stream.Z**2).sum(axis=1), rtol=1e-12, atol=1e-15)


class TestRescaledBound:
    def test_zero_comparator_empty_history(self):
        rng = np.random.default_rng(3)
        stream, _ = logistic_stream(rng, T=5)
        run = logreg.run_aioli(stream, beta=0.9, lam=1.0, B=1.0, R=1.0)
        assert oracles.aioli_rescaled_bound(run, 0, np.zeros(stream.d)) == 0.0
        # one round in, the bound is the pure stability term, nonnegative
        assert oracles.aioli_rescaled_bound(run, 1, np.zeros(stream.d)) >= 0.0

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
                diffs = run.losses_at_play - ledger.loss_eval_batch(u)
                r = 0.0
                for t in range(1, run.T + 1):
                    r = beta * r + float(diffs[t - 1])
                    bound = oracles.aioli_rescaled_bound(run, t, u)
                    assert r <= bound + 1e-9 * (1.0 + abs(bound))
                    worst = min(worst, bound - r)
            assert logreg.rescaled_bound_check(run, ledger, comparators) == (worst, True)

    def test_one_pass_check_equals_the_prefix_loop(self):
        # prefix_loop_bound_check is the per-prefix loop the check replaced;
        # a run whose stability sums are cut to a tenth fails some prefixes
        rng = np.random.default_rng(6)
        outcomes = set()
        for _ in range(12):
            stream, truth = logistic_stream(rng, T=int(rng.integers(1, 150)))
            beta = float(rng.uniform(0.3, 0.99))
            run = logreg.run_aioli(stream, beta=beta, lam=1.0, B=1.0, R=1.0)
            comparators = [np.zeros(stream.d), truth[0], 5.0 * truth[-1], list(truth[-1])]
            for checked in (run, dataclasses.replace(run, stab_disc=0.1 * run.stab_disc)):
                got = logreg.rescaled_bound_check(checked, logreg.logistic_ledger(checked),
                                                  comparators)
                assert got == prefix_loop_bound_check(checked, comparators)
                outcomes.add(got[1])
        assert outcomes == {True, False}

    def test_a_nan_prefix_fails(self):
        # |u|^2 overflows and beta^t underflows to 0 from round 162 on, so
        # 0 * inf leaves 39 nan bounds.  The worst slack is nan, whichever
        # comparator comes first, and a nan prefix fails the check.
        spec = StreamSpec(d=3, T=200, kind="logistic-drift", segments=2, noise=0.2, seed=1)
        stream, _ = gen_stream(spec)
        run = logreg.run_aioli(stream, beta=0.01, lam=1.0, B=1.0, R=1.0)
        ledger = logreg.logistic_ledger(run)
        zero, huge = np.zeros(3), np.array([1e155, 0.0, 0.0])
        assert np.flatnonzero(run.beta_pows == 0.0)[0] == 161  # round 162
        with np.errstate(over="ignore", invalid="ignore"):
            got = logreg.rescaled_bound_check(run, ledger, [zero, huge])
            flipped = logreg.rescaled_bound_check(run, ledger, [huge, zero])
        for worst, ok in (got, flipped):
            assert math.isnan(worst) and ok is False
        worst, ok = logreg.rescaled_bound_check(run, ledger, [zero])
        assert math.isfinite(worst) and ok

    def test_stability_sum_obeys_potential_lemma(self):
        rng = np.random.default_rng(5)
        stream, _ = logistic_stream(rng, T=80)
        beta, lam = 0.9, 1.0
        run = logreg.run_aioli(stream, beta=beta, lam=lam, B=1.0, R=1.0)
        scaled = np.sqrt(oracles.aioli_curvature_weights(run))[:, None] * stream.Z
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
        path = oracles.constant_path(np.full(stream.d, 0.1), stream.T)
        assert regret.path_variation(logreg.logistic_ledger(run), path, 0.95) == 0.0

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
            ledger = logreg.logistic_ledger(run)
            dyn = regret.dynamic_regret(ledger, truth)
            bound = logreg.theorem_dynamic_bound(run, ledger, truth, max(beta, 0.95))
            assert dyn <= bound + 1e-9 * (1.0 + abs(bound))


class TestMix:
    # _mix takes (T, N) blocks; a one-round case is a block of one row
    def test_single_expert_identity(self):
        yhats = np.array([[-3.0], [0.0], [1.7]])
        mixed = logreg._mix(yhats, np.ones((3, 1)))
        assert mixed.shape == (3,)
        np.testing.assert_allclose(mixed, yhats[:, 0], rtol=0.0, atol=1e-9)

    def test_symmetric_pair_mixes_to_zero(self):
        mixed = logreg._mix(np.array([[2.5, -2.5]]), np.array([[0.5, 0.5]]))
        assert mixed == pytest.approx([0.0], abs=1e-12)

    def test_mixability_inequality_fuzz(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            yhats = rng.uniform(-20, 20, (1, n))
            p = rng.random((1, n))
            p /= p.sum()
            assert lemmas.check_mixability(logreg._mix(yhats, p), yhats, p).passed

    def test_saturated_experts_are_clamped(self):
        mixed = logreg._mix(np.array([[800.0, 900.0]]), np.array([[0.5, 0.5]]))
        assert np.isfinite(mixed[0]) and mixed[0] > 0


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
        stream, _ = logistic_stream(rng, T=2)
        _, _, weights = oracles.ensemble_rows(stream, [0.9, 0.9], 1.0)
        np.testing.assert_allclose(weights[1], [0.5, 0.5], rtol=1e-15)

    def test_mixability_holds_every_round(self):
        rng = np.random.default_rng(12)
        stream, _ = logistic_stream(rng, T=40)
        run, expert_yhats, weights = oracles.ensemble_rows(stream, [0.7, 0.9, 0.97], 1.0)
        for t in range(stream.T):
            assert lemmas.check_mixability(run.yhats[t], expert_yhats[t], weights[t]).passed


def per_expert_ensemble(stream, betas, lam, B, R):
    """Reference copy of the ensemble with one AIOLI state per expert, each
    advanced on its own through scipy cho_factor/cho_solve."""
    d, n = stream.d, len(betas)
    scale = 1.0 + B * R
    tiny = np.finfo(float).tiny
    A = [lam * np.eye(d) for _ in betas]
    chol = [cho_factor(a, lower=True) for a in A]
    w = [np.zeros(d) for _ in betas]
    log_q = np.zeros(n)
    expert_yhats, weights, expert_losses = (np.empty((stream.T, n)) for _ in range(3))
    yhats = np.empty(stream.T)
    for t, (z, y) in enumerate(zip(stream.Z, stream.y)):
        xs = []
        for i, beta in enumerate(betas):
            ainv_w, ainv_z = cho_solve(chol[i], np.column_stack((w[i], z))).T
            ainv_z /= beta
            v = logreg.solve_optimism_root(float(z @ ainv_w), float(z @ ainv_z))
            xs.append(ainv_w - math.tanh(0.5 * v) * ainv_z)
            expert_yhats[t, i] = float(xs[i] @ z)
        yh = expert_yhats[t]
        lq = log_q - log_q.max()
        p = np.exp(lq)
        p /= p.sum()
        s_pos = max(float(p @ expit(yh)), tiny)
        s_neg = max(float(p @ expit(-yh)), tiny)
        yhats[t] = math.log(s_pos) - math.log(s_neg)
        weights[t] = p
        expert_losses[t] = np.logaddexp(0.0, -y * yh)
        log_q = log_q - expert_losses[t]
        for i, beta in enumerate(betas):
            u = y * yh[i]
            sp, sn = float(expit(u)), float(expit(-u))
            g = -y * sn * z
            eta_g = -(sp / scale) * y * z
            A[i] = beta * A[i] + (sp * sn / scale) * np.outer(z, z)
            chol[i] = cho_factor(A[i], lower=True)
            w[i] = beta * w[i] - g + float(g @ xs[i]) * eta_g
    return dict(
        expert_yhats=expert_yhats, weights=weights, yhats=yhats,
        expert_losses=expert_losses,
    )


class TestStackedEnsembleMatchesPerExpertLoop:
    @given(
        seed=st.integers(0, 2**31 - 1),
        d=st.integers(1, 6),
        T=st.integers(1, 200),
        betas=st.lists(st.floats(0.5, 0.999), min_size=1, max_size=6),
        lam=st.floats(0.1, 10.0),
    )
    def test_fields_agree(self, seed, d, T, betas, lam):
        spec = StreamSpec(
            d=d, T=T, kind="logistic-drift", segments=3, noise=0.3, seed=seed
        )
        stream, _ = gen_stream(spec)
        run, expert_yhats, weights = oracles.ensemble_rows(stream, betas, lam)
        # the run's expert losses, from the predictions its check hook read
        expert_losses = regret._loss("logistic", expert_yhats.copy(), stream.y[:, None])
        fields = dict(expert_yhats=expert_yhats, weights=weights, yhats=run.yhats,
                      expert_losses=expert_losses)
        ref = per_expert_ensemble(stream, betas, lam, 1.0, 1.0)
        for name, want in ref.items():
            got = fields[name]
            assert got.shape == want.shape, name
            assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want))), name


def per_round_ensemble(stream, betas, lam, B, R):
    """The ensemble as one round at a time: each round mixes its weights,
    then updates the log-domain weights by the expert losses."""
    experts = oracles.PerRoundExperts(stream.d, betas, lam, B, R)
    T, n = stream.T, len(betas)
    log_q = np.zeros(n)
    yhats, mix_losses = np.empty(T), np.empty(T)
    expert_losses, expert_yhats, weights = (np.empty((T, n)) for _ in range(3))
    for t, (z, y) in enumerate(zip(stream.Z, map(float, stream.y))):
        with np.errstate(over="ignore", invalid="ignore"):  # as in the runner's loop
            _, yh, q = experts.decide(z)
        lq = log_q - log_q.max()
        p = np.exp(lq)
        p /= p.sum()
        yhats[t] = logreg._mix(yh[None], p[None])[0]
        mix_losses[t] = oracles.logistic_loss(float(yhats[t]), y)
        expert_losses[t] = np.logaddexp(0.0, -y * yh)
        expert_yhats[t] = yh
        weights[t] = p
        log_q = log_q - expert_losses[t]
        with np.errstate(over="ignore", invalid="ignore"):
            experts.absorb(z, y, yh, q)
    return dict(yhats=yhats, mix_losses=mix_losses, expert_yhats=expert_yhats,
                weights=weights, best_expert_losses=expert_losses.min(axis=1),
                expert_totals=expert_losses.sum(axis=0))


def checked_ensemble(stream, betas, lam):
    """run_ensemble under cli's check, each chunk's mixability verdict
    absorbed into one: its fields and the rows its hook read, under the
    names of :func:`per_round_ensemble`'s, meta_regret and the verdict."""
    verdict = lemmas.LemmaVerdict("mixability", 0, 0, float("inf"))

    def check(rows, mix, yhats, p):
        verdict.absorb(lemmas.check_mixability(mix, yhats, p))

    run, expert_yhats, weights = oracles.ensemble_rows(stream, betas, lam, check=check)
    got = {f.name: getattr(run, f.name) for f in dataclasses.fields(run) if f.name != "stream"}
    return dict(got, expert_yhats=expert_yhats, weights=weights), run.meta_regret, verdict


def per_round_aioli_sums(stream, beta, lam, B, R):
    """run_aioli's stab_disc and beta_pows, carried as Python floats round
    by round."""
    experts = oracles.PerRoundExperts(stream.d, [beta], lam, B, R)
    stab, pows = np.empty(stream.T), np.empty(stream.T)
    stab_disc, beta_pow = 0.0, 1.0
    for t, (z, y) in enumerate(zip(stream.Z, stream.y.tolist())):
        _, yh, q = experts.decide(z)
        stab_inc = experts.absorb(z, y, yh, q)
        stab_disc = beta * stab_disc + float(stab_inc[0])
        beta_pow = beta * beta_pow
        stab[t], pows[t] = stab_disc, beta_pow
    return stab, pows


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBatchedDiagnosticsMatchPerRoundLoops:
    @given(
        seed=st.integers(0, 2**31 - 1),
        d=st.integers(1, 5),
        T=st.integers(1, 300),
        betas=st.lists(st.floats(0.3, 0.999), min_size=1, max_size=13),
        lam=st.floats(0.1, 10.0),
    )
    def test_bit_identical(self, seed, d, T, betas, lam):
        spec = StreamSpec(
            d=d, T=T, kind="logistic-drift", segments=3, noise=0.3, seed=seed
        )
        stream, _ = gen_stream(spec)
        got, _, _ = checked_ensemble(stream, betas, lam)
        for name, want in per_round_ensemble(stream, betas, lam, 1.0, 1.0).items():
            assert same_bits(got[name], want), name
        solo = logreg.run_aioli(stream, betas[0], lam, B=1.0, R=1.0)
        stab, pows = per_round_aioli_sums(stream, betas[0], lam, 1.0, 1.0)
        assert same_bits(solo.stab_disc, stab) and same_bits(solo.beta_pows, pows)


def chunks_of(C):
    """run_ensemble's chunk patched to C rounds."""
    return mock.patch.object(logreg, "BLOCK_ROWS", C)


class TestChunkedEnsemble:
    # The ensemble folds its experts a chunk of streams.BLOCK_ROWS rounds
    # at a time, carrying the expert losses summed over earlier chunks.
    # Chunks of 1, 7 and 64 rounds and of the whole stream give the bits of
    # the per-round referee: every field, the rows the hook reads,
    # meta_regret and cli's mixability verdict.  At N = 1 meta_regret sums
    # the one expert's losses pairwise, as numpy sums a (T, 1) array.
    @given(
        seed=st.integers(0, 2**31 - 1),
        d=st.integers(1, 5),
        T=st.integers(1, 300),
        betas=st.lists(st.floats(0.3, 0.999), min_size=1, max_size=13),
        lam=st.floats(0.1, 10.0),
    )
    @example(seed=3, d=2, T=300, betas=[0.9], lam=1.0)
    def test_every_chunk_length_gives_the_referee_bits(self, seed, d, T, betas, lam):
        stream, _ = gen_stream(StreamSpec(d=d, T=T, kind="logistic-drift", segments=3,
                                          noise=0.3, seed=seed))
        want = per_round_ensemble(stream, betas, lam, 1.0, 1.0)
        meta = float(want["mix_losses"].sum() - want["expert_totals"].min())
        verdict = lemmas.check_mixability(want["yhats"], want["expert_yhats"], want["weights"])
        for C in (1, 7, 64, T):
            with chunks_of(C):
                got, got_meta, got_verdict = checked_ensemble(stream, betas, lam)
            assert set(got) == set(want), C
            for name in want:
                assert same_bits(got[name], want[name]), (C, name)
            assert same_bits(got_meta, meta) and got_verdict == verdict, C


def per_round_mixability(mix, yhats, p):
    """One check_mixability call per round, absorbed into one verdict."""
    total = lemmas.LemmaVerdict("mixability", 0, 0, float("inf"))
    for row_mix, row_yhats, row_p in zip(mix, yhats, p):
        total.absorb(lemmas.check_mixability(row_mix, row_yhats, row_p))
    return total


class TestOnePassMixability:
    @given(
        seed=st.integers(0, 2**31 - 1),
        T=st.integers(1, 3 * lemmas.MIXABILITY_BLOCK),
        n=st.integers(1, 8),
        saturated=st.floats(0.0, 1.0),
    )
    def test_matches_per_round_loop(self, seed, T, n, saturated):
        rng = np.random.default_rng(seed)
        yhats = rng.uniform(-30.0, 30.0, (T, n))
        mask = rng.random((T, n)) < saturated
        yhats[mask] = rng.choice([-800.0, 800.0], size=int(mask.sum()))
        p = rng.random((T, n)) * (rng.random((T, n)) < 0.8)
        p[:, 0] += 1e-3
        p /= p.sum(axis=1, keepdims=True)
        mix = logreg._mix(yhats, p)
        one_pass = lemmas.check_mixability(mix, yhats, p)
        assert one_pass == per_round_mixability(mix, yhats, p)
        assert one_pass.instances == T
        # the worst slack of the scalar formulas, computed round by round
        tiny = np.finfo(float).tiny
        worst = float("inf")
        for row_yhats, row_p in zip(yhats, p):
            s_pos = max(float(row_p @ expit(row_yhats)), tiny)
            s_neg = max(float(row_p @ expit(-row_yhats)), tiny)
            mix = math.log(s_pos) - math.log(s_neg)
            worst = min(
                worst,
                -math.log(s_pos) - oracles.logistic_loss(mix, 1.0),
                -math.log(s_neg) - oracles.logistic_loss(mix, -1.0),
            )
        assert abs(one_pass.worst_slack - worst) <= 1e-12 * (1.0 + abs(worst))

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match="both be"):
            lemmas.check_mixability(np.zeros(3), np.zeros((3, 2)), np.full(2, 0.5))


# The public LAPACK wrappers in the gufuncs' place: a reference learner
# whose every round goes through np.linalg.
PUBLIC_LAPACK = SimpleNamespace(solve=np.linalg.solve, cholesky_lo=np.linalg.cholesky)


class TestEnsembleErrors:
    def test_unconverged_root_raises(self, monkeypatch):
        rng = np.random.default_rng(13)
        stream, _ = logistic_stream(rng, T=20)
        monkeypatch.setattr(logreg, "ROOT_MAX_ITERS", 1)
        with pytest.raises(logreg.RootNotConvergedError):
            logreg.run_ensemble(stream, [0.6, 0.9], lam=1.0, B=1.0, R=1.0)

    # diag(1, -1) is indefinite, yet z = e_1 gives a valid decision (q > 0)
    # to an LU solve, so round 1's factor, which reads the start, names the
    # start indefinite at round 1.
    INDEFINITE = np.diag([1.0, -1.0])
    MESSAGE = ("surrogate curvature matrix is numerically indefinite at round 1 for "
               "beta={}; use a larger beta or lambda")

    def with_indefinite_expert(self, monkeypatch, i, A=INDEFINITE, z=(1.0, 0.0)):
        fresh = logreg._Experts.fresh

        def patched(*args):
            experts = fresh(*args)
            experts.A[i] = A
            return experts

        monkeypatch.setattr(logreg._Experts, "fresh", patched)
        return Stream(np.array([z]), np.array([1.0]))

    def test_indefinite_matrix_single_learner(self, monkeypatch):
        stream = self.with_indefinite_expert(monkeypatch, 0)
        with pytest.raises(RuntimeError) as exc:
            logreg.run_aioli(stream, 0.9, 1.0, 1.0, 1.0)
        assert str(exc.value) == self.MESSAGE.format(0.9)

    def test_indefinite_matrix_in_expert_stack(self, monkeypatch):
        stream = self.with_indefinite_expert(monkeypatch, 1)
        with pytest.raises(RuntimeError) as exc:
            logreg.run_ensemble(stream, [0.6, 0.8, 0.9], 1.0, 1.0, 1.0)
        assert str(exc.value) == self.MESSAGE.format(0.8)  # the second expert's

    # z = e_2 meets the negative eigenvalue of diag(1, -1), so q = -1/beta < 0;
    # a zero matrix cannot be solved at all.  Both stand for the roundoff of
    # a badly scaled stream, and neither reaches the root finder.
    @pytest.mark.parametrize("A", [INDEFINITE, np.zeros((2, 2))], ids=["negative-q", "singular"])
    @pytest.mark.parametrize("runner", ["aioli", "ensemble"])
    def test_ill_conditioned_statistics_raise_one_value_error(self, monkeypatch, A, runner):
        stream = self.with_indefinite_expert(monkeypatch, 0, A, z=(0.0, 1.0))
        monkeypatch.setattr(logreg, "solve_optimism_root", None)
        with pytest.raises(ValueError) as exc:
            if runner == "aioli":
                logreg.run_aioli(stream, 0.9, 1.0, 1.0, 1.0)
            else:
                logreg.run_ensemble(stream, [0.6, 0.8, 0.9], 1.0, 1.0, 1.0)
        beta = 0.9 if runner == "aioli" else 0.6
        assert str(exc.value) == (f"surrogate statistics are ill-conditioned at round 1 for "
                                  f"beta={beta}; use a larger beta or rescale the stream")

    @pytest.mark.parametrize("first", [1e200, -1e200, 1e160])
    @pytest.mark.parametrize("runner", ["aioli", "ensemble"])
    def test_overflowing_feature_raises_before_the_root_finder(
        self, monkeypatch, first, runner
    ):
        calls = []
        root = logreg.solve_optimism_root
        monkeypatch.setattr(logreg, "solve_optimism_root",
                            lambda p, q: calls.append((p, q)) or root(p, q))
        stream = Stream(np.array([[first], [1.0]]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="^surrogate statistics overflowed"):
            if runner == "aioli":
                logreg.run_aioli(stream, 0.9, 1.0, 1.0, 1.0)
            else:
                logreg.run_ensemble(stream, [0.5, 0.9], 1.0, 1.0, 1.0)
        assert calls == []

    def test_later_overflow_raises_too(self):
        # the feature of round 2 overflows p = z'A^{-1}w as well as q
        stream = Stream(np.array([[1.0, 0.5], [1e200, -1e200]]), np.array([1.0, -1.0]))
        with pytest.raises(ValueError, match="overflowed"):
            logreg.run_ensemble(stream, [0.5, 0.9], 1.0, 1.0, 1.0)

    # Five edge stacks, one in place of an expert's fresh A, with round 1
    # at z = e_1 and warnings as errors: the failures keep the messages of
    # the public wrappers' path, and the runs that finish keep its bits.
    EDGES = {
        "nan": (np.full((2, 2), np.nan), ValueError, "surrogate statistics overflowed"),
        "indefinite": (INDEFINITE, RuntimeError,
                       "surrogate curvature matrix is numerically indefinite"),
        "zero": (np.zeros((2, 2)), ValueError, "surrogate statistics are ill-conditioned"),
        "inf": (np.diag([np.inf, 1.0]), None, None),
        "tiny": (np.diag([1e-300, 1.0]), None, None),
    }

    @pytest.mark.parametrize("edge", list(EDGES))
    @pytest.mark.parametrize("runner", ["aioli", "ensemble"])
    def test_edge_stacks_end_as_with_the_public_wrappers(self, monkeypatch, edge, runner):
        A, error, what = self.EDGES[edge]
        i, beta = (0, 0.9) if runner == "aioli" else (1, 0.8)
        self.with_indefinite_expert(monkeypatch, i, A)
        stream = Stream(np.array([[1.0, 0.0], [0.5, -0.3], [0.2, 0.9]]),
                        np.array([1.0, -1.0, 1.0]))

        def run():
            if runner == "aioli":
                r = logreg.run_aioli(stream, 0.9, 1.0, 1.0, 1.0)
                return r.yhats, r.residuals, r.stab_disc
            r, expert_yhats, weights = oracles.ensemble_rows(stream, [0.6, 0.8, 0.9], 1.0)
            return r.yhats, weights, expert_yhats

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if error is not None:
                with pytest.raises(error) as exc:
                    run()
                assert str(exc.value).startswith(f"{what} at round 1 for beta={beta}; ")
                return
            got = run()
            monkeypatch.setattr(logreg, "_umath_linalg", PUBLIC_LAPACK)
            want = run()
        assert all(same_bits(g, w) for g, w in zip(got, want))


class TestPublicLinalgOnlyReferees:
    def test_healthy_runs_never_call_the_public_wrappers(self, monkeypatch):
        stream, _ = logistic_stream(np.random.default_rng(27), T=300)

        def runs():
            solo = logreg.run_aioli(stream, 0.9, 1.0, 1.0, 1.0)
            betas = logreg.build_grid(1.0, 1.0, 3, 300)
            pool, _, weights = oracles.ensemble_rows(stream, betas, 1.0)
            return solo.yhats, solo.residuals, solo.stab_disc, pool.yhats, weights

        want = runs()

        def referee(*args):
            raise AssertionError("a healthy round called the public wrapper")

        monkeypatch.setattr(np.linalg, "solve", referee)
        monkeypatch.setattr(np.linalg, "cholesky", referee)
        assert all(same_bits(g, w) for g, w in zip(runs(), want))


class TestPowerOfTwoScaling:
    # Z by 2^k, B by 2^-k, R by 2^k and lam by 4^k keep every margin z.x,
    # B R and p; A, w and the solutions scale by powers of two, so the
    # learners keep their bits on the logistic-pool bench stream, and the
    # stationarity residual, a gradient in units of Z, scales by 2^k
    SPEC = StreamSpec(kind="logistic-drift", d=3, T=1200, segments=4, noise=0.2, seed=1)

    @pytest.mark.parametrize("k", [3, -4, 17])
    def test_aioli_keeps_its_bits(self, k):
        stream, _ = gen_stream(self.SPEC)
        base = logreg.run_aioli(stream, 0.9, 1.0, 1.0, 1.0)
        run = logreg.run_aioli(Stream(stream.Z * 2.0**k, stream.y), 0.9, 4.0**k,
                               2.0**-k, 2.0**k)
        for name in ("yhats", "losses_at_play", "stab_disc"):
            assert same_bits(getattr(run, name), getattr(base, name)), name
        assert same_bits(run.residuals, base.residuals * 2.0**k)

    @pytest.mark.parametrize("k", [3, -4, 17])
    def test_ensemble_keeps_its_bits(self, k):
        stream, _ = gen_stream(self.SPEC)
        betas = logreg.build_grid(1.0, 1.0, stream.d, stream.T)
        base, _, base_weights = oracles.ensemble_rows(stream, betas, 1.0)
        run, _, weights = oracles.ensemble_rows(Stream(stream.Z * 2.0**k, stream.y), betas,
                                                4.0**k, 2.0**-k, 2.0**k)
        assert same_bits(run.yhats, base.yhats) and same_bits(weights, base_weights)


class TestGrid:
    def test_frozen_eleven_point_example(self):
        # eta_min = sqrt(d(1+BR)/(CB)) = sqrt(1.5); the etas double up to the
        # first one at or past eta_max = dT = 1024
        betas = logreg.build_grid(B=1.0, R=0.5, d=1, T=1024)
        assert isinstance(betas, tuple) and len(betas) == 11
        eta_min = math.sqrt(1.5)
        assert betas[0] == pytest.approx(eta_min / (1.0 + eta_min), rel=1e-15)
        etas = np.array(betas) / (1.0 - np.array(betas))
        np.testing.assert_allclose(etas, eta_min * 2.0 ** np.arange(11), rtol=1e-12)
        assert etas[-2] < 1024.0 <= etas[-1]

    def test_pool_is_increasing_inside_unit_interval(self):
        betas = np.array(logreg.build_grid(B=2.0, R=1.0, d=3, T=500))
        assert np.all(np.diff(betas) > 0)
        assert np.all((betas > 0) & (betas < 1))

    def test_tiny_horizon_collapses_pool(self):
        # eta_max = dT = 1 lies below eta_min = sqrt(1.5): the pool is beta_1 alone
        eta_min = math.sqrt(1.5)
        assert logreg.build_grid(B=1.0, R=0.5, d=1, T=1) == (eta_min / (1.0 + eta_min),)

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            logreg.build_grid(B=0.0, R=1.0, d=1, T=10)

    # C*B overflows (eta_min is 0), both sides overflow (nan), C*B is subnormal (inf)
    @pytest.mark.parametrize("B, R", [(1e308, 1.0), (1e308, 1e300), (1e-320, 1.0)])
    def test_eta_min_outside_the_floats_names_b(self, B, R):
        with pytest.raises(ValueError, match=r"^B: eta_min"):
            logreg.build_grid(B=B, R=R, d=1, T=10)

    @given(log_b=st.floats(-320.0, 308.0), log_r=st.floats(-300.0, 300.0),
           d=st.integers(1, 50), T=st.integers(1, 10**6))
    def test_every_pool_lies_inside_the_unit_interval_or_names_b(self, log_b, log_r, d, T):
        try:
            betas = np.array(logreg.build_grid(B=10.0**log_b, R=10.0**log_r, d=d, T=T))
        except ValueError as exc:
            assert str(exc).startswith("B: ")
            return
        assert np.all((betas > 0.0) & (betas < 1.0))

    @pytest.mark.parametrize("B", [1.0, 2.0, 0.3, 1e-150, 1e150])
    def test_default_lam_is_one_over_b_squared(self, B):
        assert logreg.default_lam(B) == 1.0 / (B * B)

    # B*B underflows to 0, 1/B^2 overflows, and B*B overflows (1/B^2 is 0)
    @pytest.mark.parametrize("B", [1e-200, 1e-160, 1e300])
    def test_default_lam_outside_the_floats_names_b(self, B):
        with pytest.raises(ValueError, match=r"^B: .*lam"):
            logreg.default_lam(B)


# ---------------------------------------------------------------------------
# The block loop: the per-round referee, the order of errors under the
# deferred definiteness check, and the block's working set.
# ---------------------------------------------------------------------------

AIOLI_FIELDS = [f.name for f in dataclasses.fields(logreg.AioliRun) if f.name != "stream"]
BETA_GRID = (0.3, 0.5, 0.9, 0.99, 0.999)
EDGES = ("L-1", "L", "L+1", "2L+1")


def block_rounds(n, d):
    """Rounds in one block of the module's budget for n experts at dimension
    d, whose states are (d + 2, d + 2) bordered matrices."""
    return max(1, logreg._BLOCK_BYTES // (8 * n * (d + 2) ** 2))


def blocks_of(L, n, d):
    """The budget patched in so that n experts at dimension d run blocks of L."""
    return mock.patch.object(logreg, "_BLOCK_BYTES", L * 8 * n * (d + 2) ** 2)


def edge_horizon(L, edge):
    return max(1, {"L-1": L - 1, "L": L, "L+1": L + 1, "2L+1": 2 * L + 1}[edge])


def assert_aioli_matches_referee(stream, beta, lam):
    run = logreg.run_aioli(stream, beta, lam, 1.0, 1.0)
    want = oracles.per_round_aioli(stream, beta, lam, 1.0, 1.0)
    for name in AIOLI_FIELDS:
        assert same_bits(getattr(run, name), getattr(want, name)), name


def assert_ensemble_matches_referee(stream, betas, lam):
    got, _, _ = checked_ensemble(stream, betas, lam)
    for name, want in per_round_ensemble(stream, betas, lam, 1.0, 1.0).items():
        assert same_bits(got[name], want), name


class TestBlockLoopMatchesPerRoundReferee:
    # The budget is patched to blocks of L rounds, so that T falls one
    # short of a block, on it, one past it, and one past two blocks.
    @given(
        seed=st.integers(0, 2**31 - 1),
        d=st.integers(1, 5),
        L=st.integers(1, 12),
        edge=st.sampled_from(EDGES),
        betas=st.lists(st.sampled_from(BETA_GRID), min_size=1, max_size=5),
        lam=st.sampled_from([0.01, 1.0, 10.0]),
    )
    def test_bit_identical_around_block_edges(self, seed, d, L, edge, betas, lam):
        T = edge_horizon(L, edge)
        stream, _ = gen_stream(StreamSpec(d=d, T=T, kind="logistic-drift", segments=3,
                                          noise=0.3, seed=seed))
        with blocks_of(L, 1, d):
            assert_aioli_matches_referee(stream, betas[0], lam)
        with blocks_of(L, len(betas), d):
            assert_ensemble_matches_referee(stream, betas, lam)

    # The module's own budget at the bench shape: d 3, one learner (163
    # rounds a block) and the 13-expert pool (12 rounds a block).
    @pytest.mark.parametrize("edge", EDGES)
    @pytest.mark.parametrize("runner", ["aioli", "ensemble"])
    def test_bit_identical_at_the_bench_shape(self, runner, edge):
        pool = logreg.build_grid(1.0, 1.0, 3, 1200)
        n = 1 if runner == "aioli" else len(pool)
        T = edge_horizon(block_rounds(n, 3), edge)
        stream, _ = gen_stream(StreamSpec(kind="logistic-drift", d=3, T=T, segments=4,
                                          noise=0.2, seed=1))
        if runner == "aioli":
            assert_aioli_matches_referee(stream, 0.9, 1.0)
        else:
            assert_ensemble_matches_referee(stream, pool, 1.0)


class TestLapackCalls:
    """The LAPACK calls the runners make, by routine and stack shape."""

    @staticmethod
    def counted(monkeypatch):
        calls = []
        lapack = logreg._umath_linalg

        def cholesky_lo(M):
            calls.append(("cholesky_lo", M.shape))
            return lapack.cholesky_lo(M)

        def solve(A, b):
            calls.append(("solve", A.shape))
            return lapack.solve(A, b)

        monkeypatch.setattr(logreg, "_umath_linalg",
                            SimpleNamespace(cholesky_lo=cholesky_lo, solve=solve))
        return calls

    STREAM = StreamSpec(kind="logistic-drift", d=3, T=600, segments=4, noise=0.2, seed=1)

    # One factor of the (N, 5, 5) bordered stack a round, though the
    # ensemble calls _Experts.run once a chunk of streams.BLOCK_ROWS
    # rounds, and one check of the last (N, 3, 3) state after the stream.
    # No solve.
    def test_the_ensemble_factors_once_a_round(self, monkeypatch):
        stream, _ = gen_stream(self.STREAM)
        assert stream.T > 2 * logreg.BLOCK_ROWS
        pool = logreg.build_grid(1.0, 1.0, 3, stream.T)
        calls = self.counted(monkeypatch)
        logreg.run_ensemble(stream, pool, 1.0, 1.0, 1.0)
        N = len(pool)
        assert calls == [("cholesky_lo", (N, 5, 5))] * stream.T + [("cholesky_lo", (N, 3, 3))]

    # run_aioli's learner makes the same calls at N = 1; its residuals add,
    # a block of L rounds at a time, one stacked factor of the block's
    # states and one solve of their triangles.
    def test_aioli_adds_one_factor_and_one_solve_a_block(self, monkeypatch):
        stream, _ = gen_stream(self.STREAM)
        L = block_rounds(1, 3)
        calls = self.counted(monkeypatch)
        logreg.run_aioli(stream, 0.9, 1.0, 1.0, 1.0)
        blocks = [min(L, stream.T - lo) for lo in range(0, stream.T, L)]
        residuals = [c for n in blocks for c in (("cholesky_lo", (n, 5, 5)), ("solve", (n, 3, 3)))]
        learner = [c for c in calls if c[1][0] == 1]
        assert learner == [("cholesky_lo", (1, 5, 5))] * stream.T + [("cholesky_lo", (1, 3, 3))]
        assert [c for c in calls if c[1][0] > 1] == residuals


def outcome(run):
    """The error type and text a call ends in, or None."""
    try:
        run()
    except Exception as exc:
        return type(exc), str(exc)
    return None


INDEFINITE_AT = ("surrogate curvature matrix is numerically indefinite at round {} for "
                 "beta={}; use a larger beta or lambda")


class TestDeferredGuard:
    """The library checks A_t in round t + 1's factor, and the last state
    after the loop; the referee after every round.  A failure here is
    followed by a later round that raises on its own, or ends the stream,
    and both must name the failed round and expert."""

    L = 4  # rounds a block, through the patched budget

    def start_stacks(self, monkeypatch, stacks):
        """Expert i starts from stacks[i] in place of lam I."""
        fresh = logreg._Experts.fresh

        def patched(*args):
            experts = fresh(*args)
            for i, A in stacks.items():
                experts.A[i] = A
            return experts

        monkeypatch.setattr(logreg._Experts, "fresh", patched)

    def both(self, runner, stream, betas, reset=lambda: None, L=None):
        """The library's and the referee's outcome, under warnings as errors,
        in blocks of ``L`` rounds (``self.L`` by default); ``reset`` runs
        before each."""
        if runner == "aioli":
            runs = (logreg.run_aioli, oracles.per_round_aioli)
            args = (stream, betas[0], 1.0, 1.0, 1.0)
        else:
            runs = (logreg.run_ensemble, per_round_ensemble)
            args = (stream, betas, 1.0, 1.0, 1.0)
        got = []
        with warnings.catch_warnings(), blocks_of(L or self.L, len(betas), stream.d):
            warnings.simplefilter("error")
            for f in runs:
                reset()
                got.append(outcome(lambda: f(*args)))
        assert got[0] == got[1]
        return got[0]

    @staticmethod
    def along_e1(T):
        """T rounds at z = e_1 in two dimensions."""
        return Stream(np.tile([1.0, 0.0], (T, 1)), np.where(np.arange(T) % 3 == 0, 1.0, -1.0))

    @staticmethod
    def underflowing(k, t0):
        """The start of an expert with beta = 2^-k, k >= 54, whose A_t along
        e_1 features is singular from round t0 >= 2 on, and whose rounds up
        to t0 decide finitely: the e_2 entry 2^(k (t0 - t) - 1076) is a normal
        float for t < t0 and rounds to 0 at t0.  The next round's factor,
        or the check after the loop, rejects A_t0."""
        return 2.0 ** (k * t0 - 1076) * np.eye(2)

    # Rounds 4 and 8 end a block, 5 and 9 begin one, 2 lies inside; a
    # failure in the stream's last round is caught by the check after the
    # loop, one with rounds after it by the next round's factor.
    @pytest.mark.parametrize("after", [0, 3], ids=["last-round", "rounds-after"])
    @pytest.mark.parametrize("t0", [2, 4, 5, 8, 9])
    def test_a_singular_update_names_its_round(self, monkeypatch, t0, after):
        self.start_stacks(monkeypatch, {0: self.underflowing(60, t0)})
        got = self.both("aioli", self.along_e1(t0 + after), [2.0**-60])
        assert got == (RuntimeError, INDEFINITE_AT.format(t0, 2.0**-60))

    # No round reads the stream's last update: the check after the loop
    # names it, for one learner and for the pool, at a block's end or
    # inside a block.
    @pytest.mark.parametrize("runner", ["aioli", "ensemble"])
    @pytest.mark.parametrize("t0", [4, 6])
    def test_an_update_in_the_streams_last_round_is_named(self, monkeypatch, runner, t0):
        betas = [2.0**-60] if runner == "aioli" else [0.5, 2.0**-60]
        self.start_stacks(monkeypatch, {len(betas) - 1: self.underflowing(60, t0)})
        got = self.both(runner, self.along_e1(t0), betas)
        assert got == (RuntimeError, INDEFINITE_AT.format(t0, 2.0**-60))

    # test_cli's ill-scaled stream, features of 1e26 and 1e22 with labels
    # +1 and -1, in rounds t0 - 1 and t0: the factor decides round t0 and
    # rejects A_t0 of the beta = 0.9 expert, but an LU solve of round t0's
    # decision finds A_{t0-1} singular for both, and that names the
    # failure, for the first expert.  The state round t0
    # decided from lies in the block's rows, in the row before them when
    # t0 ends a block (4, 8, and every round in blocks of one), or in the
    # experts when t0 ends a chunk of the ensemble (256), and after the
    # loop when t0 ends the stream.
    @pytest.mark.parametrize("L", [1, 4])
    @pytest.mark.parametrize("after", [0, 3], ids=["last-round", "rounds-after"])
    @pytest.mark.parametrize("t0", [2, 4, 5, 8, 9, 256])
    @pytest.mark.parametrize("runner", ["aioli", "ensemble"])
    def test_an_ill_scaled_round_is_named_before_the_update_it_leaves(self, runner, t0,
                                                                      after, L):
        Z = np.random.default_rng(t0).standard_normal((t0 + after, 3)) / 3.0
        Z[t0 - 2:t0] = [
            [-4.725876767584841e+26, 5.863372815313004e+26, -6.63535198304047e+26],
            [-6.134178486140281e+21, -1.6051493968851136e+22, 7.293494040178567e+21]]
        y = np.where(np.arange(len(Z)) % 3 == 0, 1.0, -1.0)
        y[t0 - 2:t0] = [1.0, -1.0]
        stream = Stream(Z, y)
        betas = [0.9] if runner == "aioli" else [0.5, 0.9]
        assert self.both(runner, stream, betas, L=L) == (
            ValueError, f"surrogate statistics are ill-conditioned at round {t0} for "
                        f"beta={betas[0]}; use a larger beta or rescale the stream")

    # Experts 1 and 3 fail at t0, expert 1 at t0 + 1 in the second case:
    # the earliest round wins, then the lowest expert of that round.
    @pytest.mark.parametrize("late", [False, True], ids=["same-round", "expert-1-later"])
    @pytest.mark.parametrize("t0", [2, 4, 5, 8, 9])
    def test_the_earliest_round_then_the_first_expert_is_named(self, monkeypatch, t0, late):
        betas = [0.5, 2.0**-60, 0.25, 2.0**-55]
        self.start_stacks(monkeypatch, {1: self.underflowing(60, t0 + late),
                                        3: self.underflowing(55, t0)})
        got = self.both("ensemble", self.along_e1(t0 + 3), betas)
        assert got == (RuntimeError, INDEFINITE_AT.format(t0, betas[3 if late else 1]))

    # diag(1, -1) fails at round 1 and leaves every later decision along
    # e_1 finite.  The later error comes in round r: a feature of 1e200
    # overflows q for every expert, or the root finder is made to fail.
    # r = 4 is the block's last round, r = 5 the next block's first.
    @pytest.mark.parametrize("later", ["overflow", "root"])
    @pytest.mark.parametrize("r", [2, 4, 5])
    @pytest.mark.parametrize("runner", ["aioli", "ensemble"])
    def test_an_indefinite_start_is_named_before_a_later_error(
        self, monkeypatch, runner, r, later
    ):
        betas = [0.9, 0.6, 0.8][: 1 if runner == "aioli" else 3]
        stream = self.along_e1(2 * self.L + 1)
        calls = []
        if later == "overflow":
            stream.Z[r - 1] = [1e200, 0.0]
            error = (ValueError, f"surrogate statistics overflowed at round {r} for "
                                 f"beta={betas[0]}; use a larger beta or rescale the stream")
        else:
            root = logreg.solve_optimism_root

            def failing(p, q):
                calls.append(p)
                if len(calls) > (r - 1) * len(betas):
                    raise logreg.RootNotConvergedError("from round r on")
                return root(p, q)

            monkeypatch.setattr(logreg, "solve_optimism_root", failing)
            error = (logreg.RootNotConvergedError, "from round r on")
        assert self.both(runner, stream, betas, reset=calls.clear) == error
        self.start_stacks(monkeypatch, {len(betas) - 1: TestEnsembleErrors.INDEFINITE})
        got = self.both(runner, stream, betas, reset=calls.clear)
        assert got == (RuntimeError, INDEFINITE_AT.format(1, betas[-1]))

    # Chunks of 4 rounds: the check fails on the first chunk, whose weights
    # it doubles, and expert 1 turns indefinite at round t0 of a later
    # chunk.  The learner's error names its round of the stream, and comes
    # first, as when the check ran after the last round; without it the
    # check's error ends the run.
    @pytest.mark.parametrize("t0", [5, 6, 8, 9])
    def test_a_later_chunk_names_its_round_before_the_check_fails(self, monkeypatch, t0):
        betas = [0.5, 2.0**-60]
        stream = self.along_e1(12)

        def check(rows, mix, yhats, p):
            lemmas.check_mixability(mix, yhats, 2.0 * p)

        def run():
            with chunks_of(4), warnings.catch_warnings():
                warnings.simplefilter("error")
                logreg.run_ensemble(stream, betas, 1.0, 1.0, 1.0, check)

        assert outcome(run) == (ValueError, "weights must be nonnegative and sum to 1")
        self.start_stacks(monkeypatch, {1: self.underflowing(60, t0)})
        assert outcome(run) == (RuntimeError, INDEFINITE_AT.format(t0, betas[1]))


def traced_peak(f):
    """tracemalloc peak, in bytes, of a second call of ``f``."""
    f()
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Python objects, the fresh state and the O(N d) arrays of a round.
SLACK = 8 << 10


class TestBlockWorkingSet:
    # The experts hold their state and the one before it, 2 N (d+2)^2
    # floats, and the discounts over the rows of A and w, N (d+1)(d+2).
    # The loop holds its block of states, (L+2) N (d+2)^2 floats with the
    # block's start and the state before it, and at a time the block's
    # products z z' (L d (d+2), in padded rows) and a round's arrays: the
    # factor of the bordered stack (N (d+2)^2) and the update's products
    # c2_i z z' (N d (d+2)).  A loop that keeps a second block, allocates
    # states for every round, or factors a block of states at once breaks
    # the bound.
    @staticmethod
    def state_floats(N, d):
        return N * (d + 2) * (3 * d + 5)

    @staticmethod
    def loop_floats(L, N, d):
        e = d + 2
        return (L + 2) * N * e * e + L * d * e + N * e * e + N * d * e

    @pytest.mark.parametrize("d, T", [(3, 1200), (20, 300)])
    def test_the_ensemble_loop_holds_one_block(self, d, T):
        N = 13
        L = block_rounds(N, d)
        stream, _ = gen_stream(StreamSpec(kind="logistic-drift", d=d, T=T, segments=4,
                                          noise=0.2, seed=1))
        yhats = np.empty((T, N))

        def loop():
            experts = logreg._Experts.fresh(d, np.linspace(0.5, 0.99, N), 1.0, 1.0, 1.0)
            with np.errstate(over="ignore", invalid="ignore"):
                experts.run(stream.Z, stream.y, yhats)

        floats = self.state_floats(N, d) + self.loop_floats(L, N, d)
        assert traced_peak(loop) <= 8 * floats + SLACK

    # One absorb makes one stack, the products c2_i z z' in padded rows,
    # and little else: the broadcast product c2[:, None, None] * zz made
    # three, and a multiply by the (N,) discounts broadcast over the rows
    # of A and w staged a buffer of their size.
    @pytest.mark.parametrize("d", [3, 20, 64])
    def test_an_absorb_makes_one_stack(self, d):
        N = 13
        experts = logreg._Experts.fresh(d, np.linspace(0.5, 0.99, N), 1.0, 1.0, 1.0)
        z = np.random.default_rng(d).standard_normal(d) / d
        zz, yhats, S = padded_outer(z), np.linspace(-0.5, 0.5, N), experts.S.copy()
        peak = traced_peak(lambda: experts.absorb(z, zz, 1.0, yhats, S))
        assert peak <= 8 * N * d * (d + 2) + 3072

    # run_aioli adds its three (T,) outputs and one expert's state, and its
    # residuals hold the block's factor and at most five (L, d) arrays.
    @pytest.mark.parametrize("d, T", [(3, 1200), (20, 300)])
    def test_aioli_holds_one_block_and_its_residuals(self, d, T):
        L = block_rounds(1, d)
        stream, _ = gen_stream(StreamSpec(kind="logistic-drift", d=d, T=T, segments=4,
                                          noise=0.2, seed=1))
        e = d + 2
        at_a_time = max(L * d * e + e * e + d * e, L * e * e + 5 * L * d)
        peak = traced_peak(lambda: logreg.run_aioli(stream, 0.9, 1.0, 1.0, 1.0))
        floats = 3 * T + self.state_floats(1, d) + (L + 2) * e * e + at_a_time
        assert peak <= 8 * floats + SLACK

    # At the bench shape the ensemble holds its three (T,) columns, one
    # chunk of C = streams.BLOCK_ROWS rounds (the (C, N) predictions and
    # the (C + 1, N) summed losses) and the experts' state.  Beside them it
    # holds, at a time, either the loop's block (as above) or the
    # mixture's (2, C, N) sigmoids and at most five (C,) arrays of its sums
    # and logs.  A (T, N) array (125 KB here), or the loop's block (about
    # 42 KB) kept through the mixture, breaks the bound.
    def test_the_ensemble_releases_its_block_before_the_mix(self):
        T, d = 1200, 3
        stream, _ = gen_stream(StreamSpec(kind="logistic-drift", d=d, T=T, segments=4,
                                          noise=0.2, seed=1))
        pool = logreg.build_grid(1.0, 1.0, d, T)
        N, L, C = len(pool), block_rounds(len(pool), d), min(T, logreg.BLOCK_ROWS)
        state = self.state_floats(N, d)
        at_a_time = max(self.loop_floats(L, N, d), 2 * C * N + 5 * C)
        peak = traced_peak(lambda: logreg.run_ensemble(stream, pool, 1.0, 1.0, 1.0))
        assert peak <= 8 * (3 * T + 2 * (C + 1) * N + state + at_a_time) + SLACK
