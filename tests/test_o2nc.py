import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from driftlearn import adam, o2nc
from driftlearn.streams import discounted_scan, philox_rng
from oracles import (csv_written, exp_sample, perturb, reference_o2nc, run_o2nc_with_deltas,
                     stationarity_surrogate)


def small_clipped_cfg(**kw):
    base = dict(beta1=0.9, beta2=0.99, gamma=0.05, nu=0.5, variant="clipped", D=0.05)
    base.update(kw)
    return adam.AdamConfig(**base)


class FixedUniform:
    """A generator stand-in whose ``random()`` always returns ``r``."""

    def __init__(self, r):
        self.r = r

    def random(self):
        return self.r


def iterates(scalings, deltas, x0):
    """x_1..x_T rebuilt from the s_t and Delta_t of a run from x0: the
    running sum of x0 and s_t Delta_t."""
    steps = scalings[:, None] * deltas
    return np.add.accumulate(np.vstack([x0, steps]))[1:]


class TestExpSample:
    def test_inverse_cdf_at_half(self):
        assert exp_sample(FixedUniform(0.5)) == pytest.approx(math.log(2), rel=1e-15)

    def test_boundary_gives_zero(self):
        assert exp_sample(FixedUniform(0.0)) == 0.0

    def test_unit_mean_monte_carlo(self):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(123)))
        draws = np.array([exp_sample(rng) for _ in range(100_000)])
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


def running_averages(xs, beta, x0):
    """xbar_1..xbar_T as run_o2nc forms them: one scan of the rows c_new_t x_t
    with the discounts c_prev_t, started from x0."""
    c_prev, c_new = o2nc.ema_coefficients(beta, len(xs))
    return discounted_scan(c_new[:, None] * xs, c_prev, x0)


class TestEmaCoefficients:
    def test_first_round_returns_iterate(self):
        c_prev, c_new = o2nc.ema_coefficients(0.9, 1)
        assert (c_prev[0], c_new[0]) == (0.0, 1.0)
        xbar = running_averages(np.array([[1.0, 2.0]]), 0.9, np.array([5.0, 5.0]))
        np.testing.assert_array_equal(xbar[0], [1.0, 2.0])

    def test_second_round_half_discount_coefficients(self):
        xbar = running_averages(np.array([[3.0], [6.0]]), 0.5, np.array([5.0]))
        assert xbar[1, 0] == pytest.approx(3.0 / 3.0 + 2.0 * 6.0 / 3.0, rel=1e-15)

    def test_unrolled_weights_are_normalized_geometric(self):
        beta, T = 0.8, 12
        rng = np.random.default_rng(0)
        xs = rng.standard_normal((T, 2))
        xbar = running_averages(xs, beta, np.zeros(2))[-1]
        weights = (1 - beta) * beta ** np.arange(T - 1, -1.0, -1.0) / (1 - beta**T)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(xbar, weights @ xs, rtol=1e-10)

    def test_coefficients_sum_to_one_every_round(self):
        for beta in (0.3, 0.9, 0.999):
            c_prev, c_new = o2nc.ema_coefficients(beta, 49)
            assert np.all(c_prev >= 0) and np.all(c_new >= 0)
            assert np.all(np.abs(c_prev + c_new - 1.0) <= 1e-12)

    @given(beta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           T=st.integers(1, 3000))
    def test_coefficients_are_the_per_round_formula(self, beta, T):
        # beta**t in Python floats: np.power gives other bits for some t
        c_prev, c_new = o2nc.ema_coefficients(beta, T)
        for t in range(1, T + 1, max(1, T // 200)):
            bt = beta**t
            assert c_prev[t - 1] == (beta - bt) / (1.0 - bt)
            assert c_new[t - 1] == (1.0 - beta) / (1.0 - bt)


    @given(beta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           cuts=st.lists(st.integers(0, 500), min_size=1, max_size=6))
    def test_pieces_of_the_range_are_slices_of_the_whole(self, beta, cuts):
        # run_o2nc takes the coefficients of one block of rounds at a time
        bounds = [0, *sorted(cuts)]
        c_prev, c_new = o2nc.ema_coefficients(beta, bounds[-1])
        for start, stop in zip(bounds, bounds[1:]):
            p_prev, p_new = o2nc.ema_coefficients(beta, stop, start)
            assert bits(p_prev).tolist() == bits(c_prev[start:stop]).tolist()
            assert bits(p_new).tolist() == bits(c_new[start:stop]).tolist()


class TestComparatorPath:
    """The drifting comparator u_t = -D a_t/|a_t| behind run_o2nc's
    dynamic-regret terms g_t.(Delta_t - u_t).  With a noise-free oracle g_t
    is the true gradient at x_t, so every term follows from the iterates."""

    def run(self, obj, x0, T=200, D=0.05):
        """The run's trace and its Delta_t rows."""
        return run_o2nc_with_deltas(small_clipped_cfg(D=D), obj, 0.0, T, 4, x0)

    def test_single_gradient_normalized(self):
        # g = (3, 4), Delta_1 = 0 and u_1 = -(0.6, 0.8): the term is g.(-u_1) = 5
        obj = o2nc.clamped_quadratic(2, radius=10.0)
        trace, _ = self.run(obj, np.array([3.0, 4.0]), T=1, D=1.0)
        assert trace.dynreg_terms[0] == pytest.approx(5.0, rel=1e-15)

    @pytest.mark.parametrize("obj, x0, D", [
        (o2nc.clamped_quadratic(3, radius=1.0), np.array([0.5, -0.3, 0.2]), 0.05),
        (o2nc.max_affine(3, pieces=5, seed=2), np.ones(3), 2.5),
    ], ids=["quadratic", "maxaffine"])
    def test_matches_recomputed_true_gradient_accumulator(self, obj, x0, D):
        trace, deltas = self.run(obj, x0, D=D)
        a = np.zeros(3)
        for t, x in enumerate(iterates(trace.scalings, deltas, x0)):
            g = obj.grad(x)
            a = 0.9 * a + g
            u = -D * a / np.linalg.norm(a)
            term = float(g @ (deltas[t] - u))
            assert trace.dynreg_terms[t] == pytest.approx(term, rel=1e-12, abs=1e-15)
        assert trace.zero_comparators == 0

    def test_comparator_past_the_largest_double(self):
        # |g| = 1e153 and D = 5e154: D |a_t| passes the largest double from
        # round 5 on, while u_t has norm D and every term g.(Delta_t - u_t)
        # is about D |g| = 5e307
        D = 5e154
        obj = o2nc.clamped_quadratic(2, radius=1e160)
        x0 = np.array([6e152, 8e152])
        trace, deltas = self.run(obj, x0, T=8, D=D)
        a, overflows = np.zeros(2), 0
        for t, x in enumerate(iterates(trace.scalings, deltas, x0)):
            g = obj.grad(x)
            a = 0.9 * a + g
            norm = math.hypot(*a)
            overflows += D * norm == math.inf
            term = float(np.vdot(g, deltas[t] - (-D / norm) * a))
            assert trace.dynreg_terms[t] == pytest.approx(term, rel=1e-12)
        assert overflows == 4

    def test_zero_history_yields_zero_comparator(self):
        obj = o2nc.clamped_quadratic(2, radius=1.0)
        trace, _ = self.run(obj, np.zeros(2), T=4)
        assert np.array_equal(trace.dynreg_terms, np.zeros(4))
        assert trace.zero_comparators == 4


class TestRunLoop:
    def test_first_step_does_not_move(self):
        obj = o2nc.clamped_quadratic(3, radius=1.0)
        x0 = np.array([0.5, 0.0, 0.0])
        trace, deltas = run_o2nc_with_deltas(small_clipped_cfg(), obj, 0.1, 1, 0, x0)
        np.testing.assert_array_equal(deltas[0], np.zeros(3))
        assert trace.final_index == 0
        np.testing.assert_array_equal(trace.xbar_final, x0)  # xbar_1 = x_1 exactly

    @pytest.mark.parametrize("x0", [np.ones(1), np.ones(4), np.ones((3, 1)), np.float64(1.0)],
                             ids=["short", "long", "column", "scalar"])
    def test_x0_of_another_shape_is_rejected_before_the_first_round(self, x0):
        # np.ones(1) once broadcast through every round and then failed in
        # discounted_scan with a message that named its s0
        base = o2nc.clamped_quadratic(3, radius=1.0)
        calls = []

        def counted(x):
            calls.append(1)
            return base.grad(x)

        obj = dataclasses.replace(base, grad=counted)
        with pytest.raises(ValueError, match=r"^x0 must have the shape \(3,\) of one point, got "):
            o2nc.run_o2nc(small_clipped_cfg(), obj, 0.1, T=20, seed=0, x0=x0)
        assert calls == []

    def test_clipped_moves_bounded_by_scaled_radius(self):
        obj = o2nc.euclidean_norm(4)
        cfg = small_clipped_cfg(D=0.02)
        x0 = np.ones(4)
        trace, deltas = run_o2nc_with_deltas(cfg, obj, 0.2, 400, 3, x0)
        steps = np.diff(np.vstack([x0, iterates(trace.scalings, deltas, x0)]), axis=0)
        caps = trace.scalings * 0.02
        assert np.all(np.linalg.norm(steps, axis=1) <= caps * (1.0 + 1e-9))

    def test_trace_reproducible_bit_for_bit(self):
        obj = o2nc.max_affine(3, pieces=5, seed=11)
        cfg = small_clipped_cfg()
        t1, deltas1 = run_o2nc_with_deltas(cfg, obj, 0.3, 200, 42, np.zeros(3))
        t2, deltas2 = run_o2nc_with_deltas(cfg, obj, 0.3, 200, 42, np.zeros(3))
        assert np.array_equal(t1.xbar_final, t2.xbar_final)
        assert np.array_equal(deltas1, deltas2)
        assert np.array_equal(t1.delta_norms, t2.delta_norms)
        assert np.array_equal(t1.scalings, t2.scalings)
        assert t1.final_index == t2.final_index
        assert csv_written(t1.to_csv) == csv_written(t2.to_csv)

    def test_delta_norms_past_the_square_overflow(self):
        # rows of |Delta| up to 1e300: adam._norm's bits on every row, the
        # clip's, both while the squares stay finite and past about 1.3e154.
        # run_o2nc fills its delta_norms column with _row_norms of each
        # block's Delta_t rows
        rng = np.random.default_rng(5)
        scales = np.array([1.0, 1e150, 1e156, 1e200, 1e300])
        deltas = rng.standard_normal((5, 3)) * scales[:, None]
        norms = o2nc._row_norms(deltas)
        with np.errstate(over="ignore"):
            squares = np.einsum("ij,ij->i", deltas, deltas)
        assert np.isfinite(squares).tolist() == [True, True, False, False, False]
        assert bits(norms).tolist() == bits([adam._norm(row) for row in deltas]).tolist()
        for norm, row in zip(norms, deltas):
            assert norm == pytest.approx(math.hypot(*row), rel=1e-15)

    def test_oracle_noise_stays_within_declared_bound(self):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(7)))
        for obj in (o2nc.clamped_quadratic(3, 2.0), o2nc.euclidean_norm(3),
                    o2nc.max_affine(3, seed=1)):
            for _ in range(300):
                x = rng.standard_normal(3) * 3
                g = perturb(obj, 0.5, obj.grad(x), rng)
                assert np.linalg.norm(g) <= obj.lipschitz * (1 + 1e-12)

    @pytest.mark.parametrize("value, grad, x0, sigma, message", [
        # |grad F(x0)| = 14.1 already
        (lambda x: float(x @ x), lambda x: 2.0 * np.asarray(x), [5.0, 5.0], 0.0,
         "round 1: |g|=14.142135623730951 exceeds declared bound G=0.1"),
        # an ascent direction: |g_t| = |x_t| grows from 0.05 and first
        # passes 0.1 at round 16, with later rounds over the bound as well
        (lambda x: -0.5 * float(x @ x), lambda x: -np.asarray(x), [0.03, 0.04], 0.02,
         "round 16: |g|=0.1070015273360457 exceeds declared bound G=0.1"),
    ], ids=["first-round", "later-round"])
    def test_run_aborts_when_oracle_violates_declared_bound(self, value, grad, x0, sigma,
                                                           message):
        # an objective lying about its Lipschitz constant must be caught, at
        # the first round that breaks the bound
        liar = o2nc.Objective("liar", 2, value, grad, 0.1, grad_rows=grad)  # grad is linear
        with pytest.raises(o2nc.OracleBoundError) as err:
            o2nc.run_o2nc(small_clipped_cfg(), liar, sigma, T=400, seed=3, x0=np.array(x0))
        assert str(err.value) == message

    def test_oracle_noise_is_mean_zero(self):
        obj = o2nc.clamped_quadratic(2, radius=5.0)
        rng = np.random.Generator(np.random.Philox(key=np.uint64(9)))
        x = np.array([0.5, 0.5])
        g = obj.grad(x)
        noise = np.array([perturb(obj, 0.3, g, rng) - g for _ in range(40_000)])
        assert np.linalg.norm(noise.mean(axis=0)) <= 0.01


class TestReturnedRound:
    """The returned round is drawn before the first round from a jumped copy
    of the run's generator: a function of the seed and T alone."""

    SETUPS = st.tuples(st.integers(1, 8), st.sampled_from(sorted(o2nc.OBJECTIVES)),
                       st.sampled_from(["clipped", "clip-free"]), st.floats(0.0, 1.0),
                       st.floats(0.0, 2.0))

    @staticmethod
    def final_index(seed, T, setup):
        d, name, variant, sigma, scale = setup
        cfg = small_clipped_cfg(variant=variant, mu=0.2 if variant == "clip-free" else 0.0)
        obj = o2nc.OBJECTIVES[name](d)
        return o2nc.run_o2nc(cfg, obj, sigma, T, seed, np.full(d, scale)).final_index

    @given(seed=st.integers(0, 2**64 - 1), T=st.integers(1, 3000), one=SETUPS, other=SETUPS)
    def test_final_index_is_the_jumped_draw_whatever_the_run(self, seed, T, one, other):
        jumped = np.random.Generator(philox_rng(seed).bit_generator.jumped())
        want = int(jumped.integers(T))
        assert self.final_index(seed, T, one) == want
        assert self.final_index(seed, T, other) == want


OBJECTIVE_CASES = [
    ("quadratic", lambda: o2nc.clamped_quadratic(4, radius=1.0), np.full(4, 1.5)),
    ("norm", lambda: o2nc.euclidean_norm(4), np.ones(4)),
    ("maxaffine", lambda: o2nc.max_affine(4, pieces=6, seed=5), np.zeros(4)),
]
VARIANT_CASES = [
    ("clipped", small_clipped_cfg),
    ("clip-free", lambda: small_clipped_cfg(variant="clip-free", mu=0.2)),
]


class TestOneTrueGradientPerRound:
    @pytest.mark.parametrize("variant, make_cfg", VARIANT_CASES)
    @pytest.mark.parametrize("name, make_obj, x0", OBJECTIVE_CASES)
    def test_trace_equals_three_gradient_loop(self, name, make_obj, x0, variant, make_cfg):
        self.check(make_cfg(), make_obj(), x0, referees=False)

    @pytest.mark.parametrize("variant, make_cfg", VARIANT_CASES)
    @pytest.mark.parametrize("name, make_obj, x0", OBJECTIVE_CASES)
    def test_trace_equals_the_loop_of_referees(self, name, make_obj, x0, variant, make_cfg):
        # run_o2nc's inline clip and draws, against the functions they replaced
        self.check(make_cfg(), make_obj(), x0, referees=True)

    # run_o2nc computes its diagnostics a block of K rounds at a time, from
    # rows carried from the block before; the rows of every field are those
    # of the per-round loop on either side of a block's edge
    @pytest.mark.parametrize("variant, make_cfg", VARIANT_CASES)
    @pytest.mark.parametrize("name, make_obj, x0", OBJECTIVE_CASES)
    @pytest.mark.parametrize("rounds", ["1", "K-1", "K", "K+1", "2K+1"])
    def test_trace_equals_the_loop_across_block_edges(self, name, make_obj, x0, variant,
                                                      make_cfg, rounds):
        obj = make_obj()
        K = o2nc._block_rounds(obj.dim)
        T = {"1": 1, "K-1": K - 1, "K": K, "K+1": K + 1, "2K+1": 2 * K + 1}[rounds]
        self.check(make_cfg(), obj, x0, referees=False, T=T)

    @staticmethod
    def check(cfg, obj, x0, referees, T=300):
        trace, deltas = run_o2nc_with_deltas(cfg, obj, 0.4, T, 17, x0)
        fields, zero, final = reference_o2nc(cfg, obj, 0.4, T, 17, x0, referees)
        assert np.array_equal(iterates(trace.scalings, deltas, x0), fields.pop("xs"))
        assert np.array_equal(trace.xbar_final, fields.pop("xbars")[final])
        assert np.array_equal(deltas, fields.pop("deltas"))
        norms = [adam._norm(delta) for delta in deltas]
        assert bits(trace.delta_norms).tolist() == bits(norms).tolist()
        for key, ref in fields.items():
            assert np.array_equal(getattr(trace, key), ref), key
        assert trace.zero_comparators == zero
        assert trace.final_index == final

    def test_one_gradient_call_per_round(self):
        base = o2nc.clamped_quadratic(3, radius=1.0)
        calls = []

        def counted(x):
            calls.append(1)
            return base.grad(x)

        obj = dataclasses.replace(base, grad=counted)
        o2nc.run_o2nc(small_clipped_cfg(), obj, 0.2, T=50, seed=1, x0=np.ones(3))
        assert len(calls) == 50  # at x_t; the averages take grad_rows


class TestErrorsAcrossBlocks:
    """run_o2nc records the first over-bound g_t and the first nan regret
    term as its blocks go, and raises them after all T rounds, the bound's
    before the nan's, whichever block each lies in."""

    G = 1e300

    def objective(self, schedule, calls):
        """An objective on R^2 whose true gradient at the n-th call is
        schedule.get(n, (0, 0)), wherever x is; with sigma = 0, g_t is it."""

        def grad(x):
            calls.append(1)
            return np.array(schedule.get(len(calls), (0.0, 0.0)), dtype=float)

        return o2nc.Objective("scheduled", 2, lambda x: 0.0, grad, self.G,
                              grad_rows=lambda X: np.zeros_like(X))

    def run(self, schedule, T):
        calls = []
        cfg = small_clipped_cfg(variant="clip-free", mu=0.2, D=1e200)
        try:
            o2nc.run_o2nc(cfg, self.objective(schedule, calls), 0.0, T=T, seed=0, x0=np.zeros(2))
        finally:
            assert len(calls) == T  # every round ran before the run raised

    # From round 2 on, |u_t|^2 = D^2 overflows: the clip-free term
    # g_t.(Delta_t - u_t) + mu/2 (|Delta_t|^2 - |u_t|^2) is -inf where g_t = 0,
    # and nan at round 2, where g_2.(-u_2) = D |g_2| overflows as well.
    NAN_AT_2 = {2: (1e150, 0.0)}
    def test_the_nan_of_the_first_block_is_raised(self):
        T = o2nc._block_rounds(2) + 10
        with pytest.raises(ValueError) as err:
            self.run(self.NAN_AT_2, T)
        assert str(err.value) == "round 2: the dynamic-regret term is nan (its products overflow)"

    def test_an_over_bound_gradient_of_a_later_block_is_raised_first(self):
        K = o2nc._block_rounds(2)
        T, late = K + 10, K + 5
        with pytest.raises(o2nc.OracleBoundError) as err:
            self.run({**self.NAN_AT_2, late: (2e300, 0.0)}, T)
        assert str(err.value) == f"round {late}: |g|=2e+300 exceeds declared bound G=1e+300"

    def test_an_over_bound_gradient_of_the_first_block_waits_for_the_last_round(self):
        T = 2 * o2nc._block_rounds(2) + 1
        with pytest.raises(o2nc.OracleBoundError) as err:
            self.run({3: (2e300, 0.0), T: (3e300, 0.0)}, T)
        assert str(err.value) == "round 3: |g|=2e+300 exceeds declared bound G=1e+300"


class TestBlockLengthInvariance:
    """run_o2nc's trace does not depend on its block length.  At one round
    a block, three, and the default K, on T = 1, K, K + 1 and 2K + 1 rounds
    of the default K, every field and the returned point are the referee
    loop's, bit for bit, and so are the run's Delta_t rows.  The seeds put
    final_index at the first round or at the last: in the first block and in
    the last at every block length.  A run takes one gradient a round, and
    reading the returned point takes none."""

    # final_index is drawn from a jumped copy of the generator before the
    # first round, so it is a function of the seed and T alone
    DIM = 16  # the default K is 512
    SEEDS = {1: {"first": 0}, 512: {"first": 417, "last": 6},
             513: {"first": 417, "last": 6}, 1025: {"first": 958, "last": 286}}
    CASES = {
        "clipped-quadratic": (small_clipped_cfg, lambda d: o2nc.clamped_quadratic(d, 1.0), 0.5),
        "clipfree-norm": (lambda: small_clipped_cfg(variant="clip-free", mu=0.2),
                          o2nc.euclidean_norm, 1.0),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("T, where", [(T, where) for T, seeds in SEEDS.items()
                                          for where in seeds])
    def test_every_field_is_the_referee_s_at_every_block_length(self, monkeypatch, case, T,
                                                                where):
        make_cfg, make_obj, scale = self.CASES[case]
        cfg, base, d = make_cfg(), make_obj(self.DIM), self.DIM
        assert o2nc._block_rounds(d) == 512
        x0, seed = np.full(d, scale), self.SEEDS[T][where]
        rows, zero, final = reference_o2nc(cfg, base, 0.4, T, seed, x0)
        assert final == {"first": 0, "last": T - 1}[where]
        want = {
            "scalings": rows["scalings"],
            "delta_norms": [adam._norm(delta) for delta in rows["deltas"]],
            "grad_norms_at_xbar": rows["grad_norms_at_xbar"],
            "dynreg_terms": rows["dynreg_terms"], "zero_comparators": zero,
            "final_index": final, "xbar_final": rows["xbars"][final],
        }
        assert sorted(want) == sorted(f.name for f in dataclasses.fields(o2nc.O2ncTrace))
        seen = []
        for block_bytes in (8 * d, 24 * d, o2nc._BLOCK_BYTES):
            calls = []

            def counted(x):
                calls.append(1)
                return base.grad(x)

            monkeypatch.setattr(o2nc, "_BLOCK_BYTES", block_bytes)
            trace, deltas = run_o2nc_with_deltas(cfg, dataclasses.replace(base, grad=counted),
                                                 0.4, T, seed, x0)
            assert np.array_equal(deltas, rows["deltas"]), block_bytes
            assert len(calls) == T
            got = {name: getattr(trace, name) for name in want}
            assert len(calls) == T  # the returned point was copied out during the run
            for name, value in want.items():
                assert bits(got[name]).tolist() == bits(value).tolist(), (block_bytes, name)
            seen.append({name: bits(value).tolist() for name, value in got.items()})
        assert seen[0] == seen[1] == seen[2]


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


class TestBatchedKernels:
    """The batched kernels run_o2nc computes its diagnostics with after each
    block of rounds, held to the per-round operations they replace, bit for
    bit."""

    @given(X=st.tuples(st.integers(1, 40), st.integers(1, 12)).flatmap(lambda shape: arrays(
        np.float64, shape, elements=st.one_of(
            st.floats(-10.0, 10.0),
            st.floats(),                 # inf, nan and squares that overflow
            st.floats(-1e160, 1e160),
            st.floats(-1e-160, 1e-160),  # squares that underflow
        ))), zero=st.lists(st.booleans(), min_size=40, max_size=40))
    def test_row_norms_equal_per_row_norm(self, X, zero):
        X[np.array(zero[: len(X)])] = 0.0
        expected = np.array([adam._norm(row) for row in X])
        got = o2nc._row_norms(X)
        nan = np.isnan(expected)
        assert np.isnan(got).tolist() == nan.tolist()
        assert bits(got[~nan]).tolist() == bits(expected[~nan]).tolist()

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 40), rounds=st.integers(1, 30))
    def test_one_normal_draw_of_d_plus_one(self, seed, d, rounds):
        # run_o2nc draws the noise's d + 1 normals at once, in place of d
        # and then one; on Philox that is the same stream of values
        merged, split = philox_rng(seed), philox_rng(seed)
        for _ in range(rounds):
            assert merged.random() == split.random()
            both = np.append(split.standard_normal(d), split.standard_normal())
            assert bits(merged.standard_normal(d + 1)).tolist() == bits(both).tolist()
        assert merged.integers(1000) == split.integers(1000)


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


def nan_with_payload(payload, negative):
    """The nan whose 52 fraction bits are ``payload`` (not 0), signed."""
    word = (0xFFF << 52 if negative else 0x7FF << 52) | payload
    return float(np.array([word], dtype=np.uint64).view(np.float64)[0])


# Row entries for the row gradients: ordinary values, zeros, squares that
# overflow (|x| past about 1.3e154) and that underflow, inf, and nans of
# every sign and payload.
ROW_ENTRIES = st.one_of(
    st.floats(-10.0, 10.0),
    st.sampled_from([0.0, -0.0, 1e160, -3e200, 5e-324]),
    st.floats(-1e160, 1e160),
    st.floats(-1e-160, 1e-160),
    st.floats(),
    st.builds(nan_with_payload, st.integers(1, 2**52 - 1), st.booleans()),
)


def per_row_grads(obj, X):
    return np.array([obj.grad(x) for x in X], dtype=float).reshape(X.shape)


def assert_same_rows(got, want):
    """nan where ``want`` has nan, and ``want``'s bits everywhere else.  A
    nan's sign and payload are left out: numpy's loops pass on one operand's
    or the other's by how they vectorize, and every artifact writes `nan`."""
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.isnan(got).tolist() == nan.tolist()
    assert bits(got[~nan]).tolist() == bits(want[~nan]).tolist()


class TestRowGradients:
    # Each factory's grad_rows must give grad's bits on every row.

    @pytest.mark.parametrize("make", [
        lambda d: o2nc.clamped_quadratic(d, radius=2.0),
        lambda d: o2nc.clamped_quadratic(d, radius=1.0),
        o2nc.euclidean_norm,
        lambda d: o2nc.max_affine(d, pieces=8, seed=3),
        lambda d: o2nc.max_affine(d, pieces=1, seed=0),
    ], ids=["quadratic-r2", "quadratic-r1", "norm", "maxaffine", "maxaffine-one-piece"])
    @given(X=st.tuples(st.integers(1, 30), st.integers(1, 12)).flatmap(
        lambda shape: arrays(np.float64, shape, elements=ROW_ENTRIES)),
        zero=st.lists(st.booleans(), min_size=30, max_size=30))
    def test_equal_grad_row_by_row(self, make, X, zero):
        X[np.array(zero[: len(X)])] = 0.0
        obj = make(X.shape[1])
        with np.errstate(all="ignore"):  # both may warn of inf/inf or inf - inf
            want, got = per_row_grads(obj, X), obj.grad_rows(X)
        assert_same_rows(got, want)

    def test_rows_at_the_radius_keep_their_bits(self):
        # |x| == radius exactly takes grad's copy branch, one ulp past it scales
        obj = o2nc.clamped_quadratic(3, radius=5.0)
        X = np.array([[3.0, 4.0, 0.0], [0.0, -5.0, 0.0], [-3.0, 0.0, -4.0],
                      [3.0, np.nextafter(4.0, 5.0), 0.0], [0.0, 0.0, 0.0],
                      [-0.0, 0.0, -0.0], [np.inf, 0.0, 0.0], [np.nan, 1.0, 0.0],
                      [1e200, -1e200, 0.0], [5e-324, 0.0, 0.0]])
        with np.errstate(all="ignore"):
            want = per_row_grads(obj, X)
        assert_same_rows(obj.grad_rows(X), want)
        assert np.array_equal(obj.grad_rows(X)[:3], X[:3])
        assert not np.array_equal(obj.grad_rows(X)[3], X[3])

    def test_norm_rows_at_zero_inf_and_overflow(self):
        obj = o2nc.euclidean_norm(2)
        X = np.array([[0.0, 0.0], [-0.0, -0.0], [1e300, 1e300], [np.inf, 1.0],
                      [-np.inf, np.inf], [np.nan, 0.0], [5e-324, -5e-324], [3.0, 4.0]])
        with np.errstate(all="ignore"):
            want = per_row_grads(obj, X)
        assert_same_rows(obj.grad_rows(X), want)

    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 40), pieces=st.integers(2, 10))
    def test_max_affine_near_ties(self, seed, dim, pieces):
        # each row moved onto the plane where its top two pieces score alike,
        # so the argmax turns on the last bits of the scores; X @ A.T, which
        # sums in another order, flips a share of them
        obj = o2nc.max_affine(dim, pieces=pieces, seed=seed)
        A, b = reference_pieces(dim, pieces, seed)
        X = philox_rng(seed + 1).standard_normal((200, dim))
        scores = np.array([A @ x + b for x in X])
        top = np.argsort(-scores, axis=1)[:, :2]
        rows = np.arange(len(X))
        diff = A[top[:, 0]] - A[top[:, 1]]
        gap = scores[rows, top[:, 0]] - scores[rows, top[:, 1]]
        X -= (gap / np.einsum("ij,ij->i", diff, diff))[:, None] * diff
        assert bits(obj.grad_rows(X)).tolist() == bits(per_row_grads(obj, X)).tolist()

    @pytest.mark.parametrize("dim, T", [(10, 15000), (3, 2000), (1, 500), (33, 300)])
    def test_max_affine_on_run_shapes(self, dim, T):
        obj = o2nc.max_affine(dim, seed=dim)
        X = philox_rng(T).standard_normal((T, dim))
        assert bits(obj.grad_rows(X)).tolist() == bits(per_row_grads(obj, X)).tolist()


def reference_pieces(dim, pieces, seed):
    """max_affine's (A, b), drawn as the factory draws them."""
    rng = philox_rng(seed)
    A = rng.standard_normal((pieces, dim))
    return A, rng.standard_normal(pieces)


class TestOverflowFreeNorm:
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=12))
    def test_dot_wherever_it_is_finite_and_hypot_past_it(self, entries):
        x = np.array(entries)
        with np.errstate(over="ignore"):
            sq = x @ x
        if math.isfinite(sq):
            assert adam._norm(x) == math.sqrt(sq)
        else:
            assert math.isclose(adam._norm(x), math.hypot(*entries), rel_tol=1e-14)

    def test_non_finite_entries(self):
        assert adam._norm(np.array([1.0, -math.inf])) == math.inf
        assert math.isnan(adam._norm(np.array([math.nan, 1e300])))

    @pytest.mark.parametrize("make, value", [
        (lambda: o2nc.clamped_quadratic(3, radius=2.0), 2.0 * 3e160 - 2.0),
        (lambda: o2nc.euclidean_norm(3), 3e160),
    ])
    def test_far_point_keeps_its_gradient_and_value(self, make, value):
        # |x| = 3e160: x @ x overflows, which once made the gradient 0 and
        # the value inf
        obj = make()
        x = np.array([1e160, -2e160, 2e160])
        np.testing.assert_allclose(obj.grad(x), obj.lipschitz * x / 3e160, rtol=1e-15)
        assert obj.value(x) == pytest.approx(value, rel=1e-15)


class TestStationaritySurrogate:
    def test_zero_radius_is_exact_gradient_norm(self):
        obj = o2nc.clamped_quadratic(3, radius=2.0)
        x = np.array([0.3, -0.2, 0.1])
        w = stationarity_surrogate(x, obj, radius=0.0, samples=10, seed=0)
        assert w == pytest.approx(float(np.linalg.norm(x)), rel=1e-15)

    def test_linear_objective_keeps_constant_gradient(self):
        a = np.array([1.0, -2.0])
        obj = o2nc.Objective(
            "affine", 2, lambda x: float(a @ x), lambda x: a.copy(),
            lipschitz=float(np.linalg.norm(a)),
            grad_rows=lambda X: np.tile(a, (len(X), 1)),
        )
        c = 0.7
        w = stationarity_surrogate(
            np.zeros(2), obj, radius=1.0, samples=2000, seed=1, c=c
        )
        mean_sq_expected = 1.0 * 2 / (2 + 2)  # E|delta|^2 = r^2 d/(d+2)
        assert w == pytest.approx(np.linalg.norm(a) + c * mean_sq_expected, rel=0.05)

    def test_absolute_value_cancels_by_symmetry(self):
        obj = o2nc.euclidean_norm(1)
        samples = 40_000
        w = stationarity_surrogate(
            np.zeros(1), obj, radius=1.0, samples=samples, seed=2, c=0.0
        )
        assert w <= 3.0 / math.sqrt(samples)


class TestConvergenceSmoke:
    def test_tuned_clipped_run_reduces_gradient(self):
        # scaled-down version of the full acceptance run
        obj = o2nc.clamped_quadratic(5, radius=1.0)
        rep = adam.tune("clipped", eps=0.3, c=0.02, G=1.0, sigma=0.1, Fstar=0.5, nu=1.1)
        cfg = adam.AdamConfig(
            beta1=rep.beta1, beta2=rep.beta2, gamma=rep.gamma, nu=1.1,
            variant="clipped", D=rep.D,
        )
        x0 = np.ones(5) / math.sqrt(5)
        trace = o2nc.run_o2nc(cfg, obj, 0.1, T=8000, seed=0, x0=x0)
        tail = trace.grad_norms_at_xbar[-800:]
        assert tail.mean() < 0.25  # moved most of the way to the optimum
