import dataclasses
import tracemalloc
import warnings
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from numpy.linalg import _umath_linalg
from hypothesis import given, strategies as st
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import minimize

from driftlearn import linreg, regret
from driftlearn.streams import (BLOCK_ROWS, ComparatorPath, Stream, StreamSpec, StreamSpecError,
                               gen_stream)
import oracles


def drifting_stream(rng, T=60, d=3, segments=3, noise=0.2):
    seed = int(rng.integers(2**31))
    spec = StreamSpec(d=d, T=T, segments=segments, noise=noise, seed=seed)
    return gen_stream(spec)


def kernel(Z, y, beta, lam):
    """A_t, b_t, the predictions and stability terms of every round, from
    A_0 = lam I and b_0 = 0 in one block of the learner's kernel."""
    Z, y = np.asarray(Z, dtype=float), np.asarray(y, dtype=float)
    d = Z.shape[1]
    return linreg._advance(lam * np.eye(d), np.zeros(d), beta, Z, y)


def decisions(A, b, beta):
    """The decisions x_t = A_t^{-1} beta b_{t-1} of a block started from
    b_0 = 0, by a solve of the kernel's A_t and b_t stacks."""
    rhs = beta * np.vstack((np.zeros((1, b.shape[1])), b[:-1]))
    return np.linalg.solve(A, rhs[..., None])[..., 0]


class TestPredict:
    def test_empty_history_plays_zero(self):
        z = np.array([[1.0, -2.0, 0.5]])
        A, b, yhats, _ = kernel(z, [0.3], beta=0.7, lam=2.0)
        assert np.array_equal(decisions(A, b, 0.7)[0], np.zeros(3)) and yhats[0] == 0.0
        assert linreg.run_dvaw(Stream(z, np.array([0.3])), 0.7, 2.0).yhats[0] == 0.0

    def test_undiscounted_scalar_example(self):
        # history (z=1, y=1), next z=1, lam=1: x = b/(lam + 1 + 1) = 1/3
        A, b, yhats, _ = kernel([[1.0], [1.0]], [1.0, 0.0], beta=1.0, lam=1.0)
        assert decisions(A, b, 1.0)[1, 0] == pytest.approx(1 / 3, rel=1e-14)
        assert yhats[1] == pytest.approx(1 / 3, rel=1e-14)

    def test_discounted_scalar_example(self):
        # beta=0.5: solve (lam b^2 + b + 1) x = b  ->  x = 0.5/1.75 = 2/7
        A, b, yhats, _ = kernel([[1.0], [1.0]], [1.0, 0.0], beta=0.5, lam=1.0)
        assert decisions(A, b, 0.5)[1, 0] == pytest.approx(2 / 7, rel=1e-14)
        assert yhats[1] == pytest.approx(2 / 7, rel=1e-14)

    def test_matches_numerical_minimizer(self):
        # independent check: minimize the forward-regularized objective directly
        rng = np.random.default_rng(0)
        for beta in (1.0, 0.8, 0.5):
            d, T = 3, 12
            Z = rng.standard_normal((T, d))
            y = rng.standard_normal(T)
            lam = 0.7
            A, b, yhats, _ = kernel(Z, y, beta, lam)
            X = decisions(A, b, beta)
            # the kernel's predictions are those decisions played
            assert_close(yhats, (X * Z).sum(axis=1))
            for t in range(1, T + 1):
                z_t = Z[t - 1]

                def objective(v):
                    val = 0.5 * lam * beta**t * v @ v + 0.5 * (v @ z_t) ** 2
                    for s in range(1, t):
                        val += 0.5 * beta ** (t - s) * (v @ Z[s - 1] - y[s - 1]) ** 2
                    return val

                res = minimize(objective, x0=np.zeros(d), method="BFGS",
                               options={"gtol": 1e-12})
                assert np.linalg.norm(X[t - 1] - res.x) <= 1e-6


class TestUpdate:
    def test_beta_one_keeps_plain_sums(self):
        rng = np.random.default_rng(1)
        Z = rng.standard_normal((7, 2))
        y = rng.standard_normal(7)
        A, b, _, _ = kernel(Z, y, beta=1.0, lam=1.0)
        np.testing.assert_allclose(A[-1], np.eye(2) + Z.T @ Z, rtol=1e-12)
        np.testing.assert_allclose(b[-1], Z.T @ y, rtol=1e-12)

    def test_two_half_discount_updates(self):
        A, b, _, _ = kernel([[1.0], [1.0]], [1.0, 1.0], beta=0.5, lam=1.0)
        assert A.shape == (2, 1, 1) and b.shape == (2, 1)
        # A_2 = lam beta^2 + beta z^2 + z^2 = 0.25 + 0.5 + 1
        assert A[1, 0, 0] == pytest.approx(1.75, rel=1e-15)
        assert b[1, 0] == pytest.approx(1.5, rel=1e-15)

    def test_potential_single_round(self):
        # y^2 z (lam*beta + z^2)^{-1} z = 4 / (1 + 1) = 2
        run = linreg.run_dvaw(Stream(np.array([[1.0]]), np.array([2.0])), 1.0, 1.0)
        assert run.potential_increments[0] == pytest.approx(2.0, rel=1e-14)

    def test_gram_matrix_stays_symmetric(self):
        rng = np.random.default_rng(2)
        A, _, _, _ = kernel(rng.standard_normal((10_000, 3)),
                            rng.standard_normal(10_000), beta=0.95, lam=1.0)
        assert np.max(np.abs(A - A.transpose(0, 2, 1))) <= 1e-12


class TestStaticBound:
    def test_empty_prefix_zero_comparator(self):
        s = Stream(np.zeros((1, 2)), np.zeros(1))
        assert oracles.vaw_static_bound(s, 1.0, 0, np.zeros(2)) == 0.0

    def test_frozen_single_round_value(self):
        # lam=1, one round (z=1, y=1), u=0: 0.5 * 1 / (1 + 1) = 0.25
        s = Stream(np.array([[1.0]]), np.array([1.0]))
        assert oracles.vaw_static_bound(s, 1.0, 1, np.zeros(1)) == pytest.approx(0.25)

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
                # spot-check the learner's stability terms against the incremental form
                t_spot = int(rng.integers(1, stream.T + 1))
                lib = oracles.vaw_static_bound(stream, lam, t_spot, u)
                assert lib == pytest.approx(
                    0.5 * lam * float(u @ u) + bound_stab[t_spot - 1], rel=1e-10
                )


class TestDynamicBound:
    def test_zero_stream_gives_zero_bounds(self):
        T, d = 10, 2
        stream = Stream(np.tile([[1.0, 0.0]], (T, 1)), np.zeros(T))
        run = linreg.run_dvaw(stream, beta=0.9, lam=1.0)
        path = ComparatorPath(np.zeros((T, d)))
        assert linreg.dvaw_bounds(run, linreg.vaw_ledger(run), path, 0.95) == (0.0, 0.0, 0.0)
        assert regret.dynamic_regret(linreg.vaw_ledger(run), path) == 0.0

    def test_constant_path_drops_variation_term(self):
        rng = np.random.default_rng(4)
        stream, _ = drifting_stream(rng, T=30, segments=1)
        run = linreg.run_dvaw(stream, beta=0.9, lam=1.0)
        path = oracles.constant_path(rng.standard_normal(stream.d), stream.T)
        ledger = linreg.vaw_ledger(run)
        bound_path, bound_ft, modular = linreg.dvaw_bounds(run, ledger, path, 0.95)
        phi = 0.5 * 1.0 * float(path[0] @ path[0])
        base = (
            0.9 * phi
            + linreg.dvaw_log_term(run)
            + (1 - 0.9) / 0.9 * 0.5 * stream.d * float((stream.y**2).sum())
        )
        assert bound_path == pytest.approx(base, rel=1e-12)
        assert bound_ft == pytest.approx(base, rel=1e-12)
        assert modular == pytest.approx(
            0.9 * phi + run.potential_increments.sum(), rel=1e-12)

    def test_bounds_share_the_base_and_the_f_difference(self):
        # each bound is its expression over the public pieces, bit for bit:
        # the template's phi drift term is exactly 0 for a phi fixed in t
        rng = np.random.default_rng(13)
        stream, truth = drifting_stream(rng, T=50, segments=4, noise=0.3)
        beta, lam, gamma = 0.6, 0.5, 0.8
        run = linreg.run_dvaw(stream, beta=beta, lam=lam)
        ledger = linreg.vaw_ledger(run)
        u = truth[0]
        base = (
            0.5 * beta * lam * float(u @ u)
            + linreg.dvaw_log_term(run)
            + (1.0 - beta) / beta * 0.5 * stream.d * float((stream.y**2).sum())
        )
        fd = regret.ft_difference_term(ledger, truth)
        pv = regret.path_variation(ledger, truth, gamma)
        modular = (beta * (0.5 * lam * float(u @ u))
                   + float(run.potential_increments.sum()) + fd)
        assert linreg.dvaw_bounds(run, ledger, truth, gamma) == (
            base + gamma / (1.0 - gamma) * pv, base + fd, modular)

    def test_bounds_dominate_measured_regret(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            stream, truth = drifting_stream(rng, T=60, segments=3, noise=0.3)
            beta = float(rng.choice([0.5, 0.9, 0.99]))
            run = linreg.run_dvaw(stream, beta=beta, lam=1.0)
            ledger = linreg.vaw_ledger(run)
            dyn = regret.dynamic_regret(ledger, truth)
            for gamma in (beta, min(0.999, 0.5 * (1 + beta))):
                for bound in linreg.dvaw_bounds(run, ledger, truth, gamma):
                    assert dyn <= bound + 1e-9 * (1.0 + abs(bound))

    def test_modular_rhs_dominates_measured_regret(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            stream, truth = drifting_stream(rng, T=40, segments=2, noise=0.2)
            run = linreg.run_dvaw(stream, beta=0.9, lam=0.5)
            ledger = linreg.vaw_ledger(run)
            dyn = regret.dynamic_regret(ledger, truth)
            _, _, rhs = linreg.dvaw_bounds(run, ledger, truth, 0.95)
            assert dyn <= rhs + 1e-9 * (1.0 + abs(rhs))

    def test_modular_rhs_matches_slow_direct_summation(self):
        rng = np.random.default_rng(14)
        for T in (5, 40, 200):
            d = 3
            stream = Stream(rng.standard_normal((T, d)), rng.standard_normal(T))
            beta, lam = 0.9, 0.8
            run = linreg.run_dvaw(stream, beta, lam)
            path = ComparatorPath(rng.standard_normal((T, d)))
            Z, y = stream.Z, stream.y

            def f(s, u):
                return 0.5 * float(Z[s - 1] @ u - y[s - 1]) ** 2

            def F(t, u):
                return beta**t * 0.5 * lam * float(u @ u) + sum(
                    beta ** (t - s) * f(s, u) for s in range(1, t + 1)
                )

            slow = beta * 0.5 * lam * float(path[0] @ path[0])
            slow += run.potential_increments.sum()
            slow += beta * sum(
                F(t, path[t]) - F(t, path[t - 1]) for t in range(1, T)
            )
            _, _, fast = linreg.dvaw_bounds(run, linreg.vaw_ledger(run), path, 0.95)
            assert abs(fast - slow) <= 1e-8 * (1.0 + abs(slow))

    def test_bad_gamma_ordering_rejected(self):
        rng = np.random.default_rng(7)
        stream, truth = drifting_stream(rng, T=10)
        run = linreg.run_dvaw(stream, beta=0.9, lam=1.0)
        with pytest.raises(ValueError, match=r"^need 0 < beta <= gamma < 1, got beta=0.9 gamma=0.5$"):
            linreg.dvaw_bounds(run, linreg.vaw_ledger(run), truth, 0.5)

    def test_negative_stability_term_rejected(self):
        rng = np.random.default_rng(15)
        stream, truth = drifting_stream(rng, T=10)
        run = linreg.run_dvaw(stream, beta=0.9, lam=1.0)
        pots = run.potential_increments.copy()
        pots[3] = -2e-12
        run = dataclasses.replace(run, potential_increments=pots)
        with pytest.raises(ValueError, match="^stability terms must be nonnegative$"):
            linreg.dvaw_bounds(run, linreg.vaw_ledger(run), truth, 0.95)


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
        assert float(run.potential_increments.sum()) <= rhs + 1e-9


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


class TestExactReferee:
    # Tiny instances against oracles.exact_dvaw, within its forward-error
    # bounds.  On this domain (beta >= 0.95, lam >= 1, |z_i| <= 1/2,
    # |y| <= 1, T <= 12, d <= 3) mu_t <= 20 and |w| <= sqrt(11), so each
    # bound is within the 1e-12 (1 + |x|) of the per-round referee; the
    # least nonzero entry 2^-10 keeps every product from underflowing.
    coord = st.one_of(st.just(0.0), st.floats(2**-10, 0.5), st.floats(-0.5, -(2**-10)))
    label = st.one_of(st.just(0.0), st.floats(2**-10, 1.0), st.floats(-1.0, -(2**-10)))

    @given(data=st.data(), d=st.integers(1, 3), T=st.integers(1, 12),
           beta=st.floats(0.95, 1.0), lam=st.floats(1.0, 4.0))
    def test_predictions_and_stability_terms_within_the_bound(self, data, d, T, beta, lam):
        Z = np.array(data.draw(st.lists(st.lists(self.coord, min_size=d, max_size=d),
                                        min_size=T, max_size=T)))
        y = np.array(data.draw(st.lists(self.label, min_size=T, max_size=T)))
        run = linreg.run_dvaw(Stream(Z, y), beta, lam)
        exact = oracles.exact_dvaw(Stream(Z, y), beta, lam)
        for got, want, bounds in ((run.yhats, exact[0], exact[2]),
                                  (run.potential_increments, exact[1], exact[3])):
            for g, w, bound in zip(got.tolist(), want, bounds):
                assert bound <= 1e-12 * (1.0 + abs(float(w)))
                assert abs(Fraction(g) - w) <= bound

    def test_the_singular_to_lu_stream_gives_its_exact_outputs(self):
        Z, y, beta, lam, _, _ = EDGE_STREAMS["singular-to-lu"]
        run = linreg.run_dvaw(Stream(Z, y), beta, lam)
        yhats, stabs, _, _ = oracles.exact_dvaw(Stream(Z, y), beta, lam)
        losses = [(w - Fraction(v)) ** 2 / 2 for w, v in zip(yhats, y.tolist())]
        assert run.yhats.tolist() == [float(w) for w in yhats] == [0.0]
        assert run.potential_increments.tolist() == [float(w) for w in stabs] == [1e80]
        assert run.losses_at_play.tolist() == [float(w) for w in losses] == [5e79]


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
    return yhats, losses, pots


def assert_close(new, ref, rel=1e-12):
    new, ref = np.asarray(new), np.asarray(ref)
    assert new.shape == ref.shape
    assert np.all(np.abs(new - ref) <= rel * (1.0 + np.abs(ref)))


def run_fields(run):
    return run.yhats, run.losses_at_play, run.potential_increments


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


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
        with mock.patch.object(linreg, "_BLOCK_BYTES", block * 8 * (d + 2) ** 2):
            run = linreg.run_dvaw(stream, beta, lam)
        for new, ref in zip(run_fields(run), per_round_scipy_dvaw(stream, beta, lam)):
            assert_close(new, ref)

    # at d = 40 the 42 x 42 bordered matrices are past OpenBLAS's unblocked
    # size (32 on common x86 cores): the trailing updates of a blocked
    # factorization then reach the border's inf diagonal
    @pytest.mark.parametrize("d", [8, 5, 40])
    def test_default_budget_spans_several_blocks(self, d):
        # three whole default blocks and a partial fourth, at any budget
        T = 3 * default_block(d) + 7
        spec = StreamSpec(d=d, T=T, kind="rotating-target", segments=3, noise=0.3, seed=d)
        stream, _ = gen_stream(spec)
        run = linreg.run_dvaw(stream, 0.95, 0.5)
        for new, ref in zip(run_fields(run), per_round_scipy_dvaw(stream, 0.95, 0.5)):
            assert_close(new, ref)


class TestBlockSizeInvariance:
    # budgets of one round a block, the module's own, and four times it
    @pytest.mark.parametrize("scale", [None, 1, 4], ids=["one-round", "default", "4x-default"])
    @pytest.mark.parametrize("kind, d", [("piecewise-constant-target", 5),
                                         ("rotating-target", 20)])
    def test_every_budget_gives_the_same_bits(self, monkeypatch, kind, d, scale):
        spec = StreamSpec(d=d, T=500, kind=kind, segments=4, noise=0.1, seed=21)
        stream, _ = gen_stream(spec)
        default = linreg.run_dvaw(stream, 0.99, 1.0)
        monkeypatch.setattr(linreg, "_BLOCK_BYTES",
                            1 if scale is None else scale * linreg._BLOCK_BYTES)
        run = linreg.run_dvaw(stream, 0.99, 1.0)
        for a, b in zip(run_fields(default), run_fields(run)):
            assert same_bits(a, b)


def default_block(d):
    """Rounds in one block of the module's budget at dimension d."""
    return max(1, linreg._BLOCK_BYTES // (8 * (d + 2) ** 2))


def traced_peak(f):
    """tracemalloc peak, in bytes, of a second call of ``f``."""
    f()
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkingSet:
    # One default block holds two (B, d+2, d+2) stacks at a time, within
    # twice the byte budget: the scan's input and output, then the bordered
    # matrices and their Cholesky factor.  The rest is O(B d): the label
    # sums b_t, the block's outputs and the reductions' buffers, within
    # 6 B d floats.  A broadcast Gram fill (a buffer of about three stacks),
    # or a scan output kept alive through the factorization, breaks the bound.
    @pytest.mark.parametrize("d", [5, 20])
    def test_one_block_holds_two_stacks(self, d):
        B = default_block(d)
        assert 2 * 8 * B * (d + 2) ** 2 <= 2 * linreg._BLOCK_BYTES
        rng = np.random.default_rng(d)
        Z, y = rng.standard_normal((B, d)), rng.standard_normal(B)
        peak = traced_peak(lambda: kernel(Z, y, 0.99, 1.0))
        assert peak <= 8 * (2 * B * (d + 2) ** 2 + 6 * B * d)

    # A run holds its T-length outputs (predictions, stability terms and
    # losses) and one block's working set; at d = 20 the block's O(B d)
    # arrays fit in half a stack.  A block that keeps the last block's
    # stacks alive breaks the bound.
    def test_a_run_holds_one_block_at_a_time(self):
        T, d = 4000, 20
        stream, _ = gen_stream(StreamSpec(d=d, T=T, kind="rotating-target", segments=3, seed=1))
        peak = traced_peak(lambda: linreg.run_dvaw(stream, 0.99, 1.0))
        assert peak <= 8 * 3 * T + 5 * linreg._BLOCK_BYTES // 2


def log_term_run(T, d, seed, Z=None):
    """A DvawRun with only what dvaw_log_term reads: the stream and beta, lam."""
    rng = np.random.default_rng(seed)
    if Z is None:
        Z = rng.standard_normal((T, d)) * rng.choice([1e-3, 1.0, 1e3], size=(T, 1))
    return linreg.DvawRun(Stream(Z, rng.standard_normal(T)), 0.99, 0.5, None, None, None)


class TestLogTerm:
    # dvaw_log_term squares the stream BLOCK_ROWS rows at a time: each row's
    # |z_t|^2 keeps the bits of one (Z**2).sum(axis=1) over the whole stream,
    # for row-major streams and for the strided rows of a parse array
    @pytest.mark.parametrize("d", [1, 3, 8, 20, 64])
    @pytest.mark.parametrize("T", [1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 7])
    @pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "strided"])
    def test_blocks_keep_the_whole_stream_bits(self, d, T, strided):
        rng = np.random.default_rng(T * d)
        Z = rng.standard_normal((T, d + 2)) * rng.choice([1e-3, 1.0, 1e3], size=(T, 1))
        Z = Z[:, 1:-1] if strided else np.ascontiguousarray(Z[:, 1:-1])
        run = log_term_run(T, d, seed=d, Z=Z)
        pw = run.beta ** np.arange(T - 1, -1.0, -1.0)
        y = run.stream.y
        whole = 0.5 * d * float((y * y).max()) * np.log1p(
            float(pw @ (Z**2).sum(axis=1)) / (run.lam * d))
        assert same_bits(linreg.dvaw_log_term(run), whole)

    # Beside two (T,) arrays, the weights beta^(T-t) and the squared norms,
    # the term holds one block of squares and its row sums; squaring the
    # whole stream at once holds a (T, d) array
    def test_holds_two_round_arrays_and_one_block(self):
        T, d = 40000, 20
        run = log_term_run(T, d, seed=1)
        peak = traced_peak(lambda: linreg.dvaw_log_term(run))
        assert peak <= 8 * (2 * T + 2 * BLOCK_ROWS * d)


class TestFactorizationCount:
    # Three whole default blocks and seven rounds: one stacked Cholesky
    # factorization a block, one bordered matrix a round, and no LAPACK
    # solve.  A second factorization or a solve coming back fails here.
    @pytest.mark.parametrize("d", [1, 5, 20])
    def test_one_cholesky_call_per_block_and_no_solve(self, monkeypatch, d):
        lengths, solves = [], []

        def cholesky_lo(M):
            lengths.append(len(M))
            return _umath_linalg.cholesky_lo(M)

        def solve(*args):
            solves.append(args)
            return _umath_linalg.solve(*args)

        monkeypatch.setattr(linreg, "_umath_linalg",
                            SimpleNamespace(cholesky_lo=cholesky_lo, solve=solve))
        T = 3 * default_block(d) + 7
        stream, _ = gen_stream(StreamSpec(d=d, T=T, kind="rotating-target", segments=3, seed=d))
        linreg.run_dvaw(stream, 0.95, 0.5)
        assert lengths == [default_block(d)] * 3 + [7] and sum(lengths) == T
        assert solves == []


# The edge streams of the kernel, with their beta and lambda, and the
# error and message each ends in, or None and the predictions, stability
# terms and losses of a stream that runs.
SINGULAR = ("regularized Gram matrix is numerically singular (lam*beta^t underflowed "
            "against a rank-deficient history); use a larger lambda or a shorter horizon")
EDGE_STREAMS = {
    "rank-deficient": (np.tile([[1.0, 0.0]], (200, 1)), np.ones(200), 0.01, 1.0,
                       linreg.SingularSystemError, SINGULAR),
    # A_2 = beta A_1 = 1e-323 is positive but subnormal: its reciprocal in a
    # solve is inf
    "subnormal-pivot": (np.array([[1.0], [0.0]]), np.array([1.0, 0.0]), 5e-324, 1.0,
                        linreg.SingularSystemError, SINGULAR),
    # lam beta I + z z' rounds to a matrix singular to LU, yet it has a
    # Cholesky factor: its outputs are the exact values
    "singular-to-lu": (np.array([[-1e40, -1e40]]), np.array([-1e40]), 0.99, 1.0,
                       None, ([0.0], [1e80], [5e79])),
    "overflowing": (np.full((3, 2), 1e200), np.ones(3), 0.9, 1.0,
                    ValueError, "discounted statistics overflowed; rescale the stream"),
}


class TestPublicLinalgOnlyReferees:
    def test_healthy_runs_never_call_the_public_wrappers(self, monkeypatch):
        streams = [gen_stream(StreamSpec(d=d, T=600, kind=kind, segments=3, seed=29))[0]
                   for kind, d in (("rotating-target", 20), ("piecewise-constant-target", 5))]

        def runs():
            return [run_fields(linreg.run_dvaw(s, 0.99, 1.0)) for s in streams]

        want = runs()

        def referee(*args):
            raise AssertionError("a healthy block called the public wrapper")

        monkeypatch.setattr(np.linalg, "solve", referee)
        monkeypatch.setattr(np.linalg, "cholesky", referee)
        for got, ref in zip(runs(), want):
            assert all(same_bits(g, w) for g, w in zip(got, ref))

    # An overflow in the border's substitution leaves a nan LAPACK accepts,
    # in a row of the factor past A_t's; a LAPACK that rejected it would fill
    # the whole entry with nan.  Either way the public factorization runs at
    # most once, on the A_t of that one round, does not raise, and the nan
    # flows on to the prediction and the overflow message
    @pytest.mark.parametrize("nan_at, referred", [(np.s_[0, 3, 0], []),
                                                  (np.s_[0], [[(2, 2)]])],
                             ids=["border-row", "whole-entry"])
    def test_a_nan_in_the_border_stays_in_the_prediction(self, monkeypatch, nan_at, referred):
        def overflowed(M):
            L = _umath_linalg.cholesky_lo(M)
            L[nan_at] = np.nan
            return L

        calls = []

        def public_cholesky(*args):
            calls.append([a.copy() for a in args])
            return cholesky(*args)

        cholesky = np.linalg.cholesky
        monkeypatch.setattr(linreg, "_umath_linalg", SimpleNamespace(cholesky_lo=overflowed))
        monkeypatch.setattr(np.linalg, "cholesky", public_cholesky)
        Z, y = np.array([[1.0, 0.5], [0.3, -1.0]]), np.array([1.0, 2.0])
        A_stack, _, yhats, _ = kernel(Z, y, 0.9, 1.0)
        assert [[a.shape for a in args] for args in calls] == referred
        assert all(same_bits(args[0], A_stack[0]) for args in calls)
        assert np.isnan(yhats[0]) and np.isfinite(yhats[1])
        with pytest.raises(ValueError, match="^discounted statistics overflowed; rescale the stream$"):
            linreg.run_dvaw(Stream(Z, y), 0.9, 1.0)


class TestKernelErrors:
    # each edge stream ends in its exact message, or its exact outputs,
    # with warnings as errors: the kernel silences the flag of a failed
    # LAPACK call itself, also outside run_dvaw's np.errstate
    @pytest.mark.parametrize("edge", list(EDGE_STREAMS))
    @pytest.mark.parametrize("entry", ["run_dvaw", "kernel"])
    def test_edge_streams_keep_their_messages(self, edge, entry):
        Z, y, beta, lam, error, message = EDGE_STREAMS[edge]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if error is None:
                if entry == "run_dvaw":
                    run = linreg.run_dvaw(Stream(Z, y), beta, lam)
                    got = run.yhats, run.potential_increments, run.losses_at_play
                else:
                    got = kernel(Z, y, beta, lam)[2:]
                assert [a.tolist() for a in got] == list(message[:len(got)])
                return
            with pytest.raises(error) as exc:
                if entry == "run_dvaw":
                    linreg.run_dvaw(Stream(Z, y), beta, lam)
                else:
                    kernel(Z, y, beta, lam)
        assert type(exc.value) is error and str(exc.value) == message

    def test_smallest_normal_pivot_square_still_solves(self):
        # a 1x1 Gram matrix equal to the smallest normal float is its pivot square
        tiny = np.finfo(float).tiny
        run = linreg.run_dvaw(Stream(np.zeros((1, 1)), np.zeros(1)), beta=1.0, lam=tiny)
        assert run.yhats.tolist() == [0.0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["feature", "label"])
    def test_non_finite_stream_never_reaches_the_learner(self, bad, where):
        Z, y = np.ones((2, 2)), np.ones(2)
        (Z[1] if where == "feature" else y)[-1] = bad
        with pytest.raises(StreamSpecError, match="stream entries must be finite"):
            Stream(Z, y)

    @pytest.mark.parametrize("lam", [np.inf, np.nan, 0.0])
    def test_bad_lambda_rejected(self, lam):
        stream = Stream(np.ones((2, 2)), np.ones(2))
        with pytest.raises(ValueError, match="lambda must be > 0 and finite"):
            linreg.run_dvaw(stream, beta=0.9, lam=lam)

    @pytest.mark.parametrize("beta", [0.0, 1.5, np.nan])
    def test_bad_beta_rejected(self, beta):
        stream = Stream(np.ones((2, 2)), np.ones(2))
        with pytest.raises(ValueError, match=r"beta must lie in \(0, 1\]"):
            linreg.run_dvaw(stream, beta=beta, lam=1.0)

    def test_label_whose_square_overflows_raises(self):
        # y*z stays finite, so only y^2 (stability term, loss, log term) overflows
        stream = Stream(np.array([[1e-200], [1.0]]), np.array([1e160, 1.0]))
        with pytest.raises(ValueError, match="discounted statistics overflowed"):
            linreg.run_dvaw(stream, beta=0.9, lam=1.0)
