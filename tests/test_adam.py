import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

from driftlearn import adam
import oracles


def clipped_cfg(**kw):
    base = dict(beta1=0.9, beta2=0.99, gamma=1.0, nu=0.1, variant="clipped", D=0.1)
    base.update(kw)
    return adam.AdamConfig(**base)


def clipfree_cfg(**kw):
    base = dict(beta1=0.9, beta2=0.99, gamma=1.0, nu=0.1, variant="clip-free", mu=1.0)
    base.update(kw)
    return adam.AdamConfig(**base)


def random_cfg(rng, variant):
    beta1 = float(rng.uniform(0.3, 0.99))
    beta2 = float(rng.uniform(0.3, 0.999))
    kw = dict(
        beta1=beta1, beta2=beta2,
        gamma=float(10.0 ** rng.uniform(-1, 1)),
        nu=float(10.0 ** rng.uniform(-2, 0)),
        variant=variant,
    )
    if variant == "clipped":
        kw["D"] = float(10.0 ** rng.uniform(-2, 1))
    else:
        kw["mu"] = 0.0 if rng.random() < 0.3 else float(10.0 ** rng.uniform(-1, 1))
    return adam.AdamConfig(**kw)


class TestStepSize:
    def test_frozen_single_gradient_value(self):
        cfg = clipped_cfg()
        state = adam.adam_update(cfg, adam.AdamState.fresh(2), np.array([1.0, 0.0]))
        # 1 * 0.1 * 0.9 / (0.1 + sqrt(0.01 * 1)) = 0.45
        assert oracles.eta_t(cfg, state) == pytest.approx(0.45, rel=1e-14)

    def test_empty_history(self):
        cfg = clipped_cfg()
        state = adam.AdamState.fresh(2)
        state.beta1_pow = cfg.beta1
        assert oracles.eta_t(cfg, state) == pytest.approx(
            cfg.gamma * (1 - cfg.beta1) * cfg.beta1 / cfg.nu
        )

    def test_always_positive_and_denominator_floored_at_nu(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            cfg = random_cfg(rng, "clipped")
            state = adam.AdamState.fresh(3)
            for _ in range(int(rng.integers(0, 30))):
                state = adam.adam_update(cfg, state, rng.standard_normal(3))
            eta = oracles.eta_t(cfg, state)
            assert eta > 0.0
            denom = cfg.gamma * (1 - cfg.beta1) * state.beta1_pow / eta
            assert denom >= cfg.nu - 1e-15


class TestClippedDelta:
    def test_zero_momentum_maps_to_zero(self):
        cfg = clipped_cfg()
        assert np.array_equal(adam.delta_for(cfg, adam.AdamState.fresh(3)), np.zeros(3))

    def test_frozen_clip_example(self):
        cfg = clipped_cfg()
        state = adam.AdamState(m=np.array([1.0, 0.0]), v=1.0, beta1_pow=0.9)
        raw = -cfg.gamma * 0.1 * state.m / (0.1 + math.sqrt(0.01 * 1.0))
        np.testing.assert_allclose(raw, [-0.5, 0.0], rtol=1e-14)
        np.testing.assert_allclose(adam.delta_for(cfg, state), [-0.1, 0.0], rtol=1e-14)

    def test_norm_never_exceeds_radius(self):
        rng = np.random.default_rng(1)
        for _ in range(100_000):
            D = float(10.0 ** rng.uniform(-2, 1))
            cfg = clipped_cfg(D=D)
            state = adam.AdamState(
                m=rng.standard_normal(2) * 10.0 ** rng.integers(-2, 4),
                v=float(rng.random() * 10.0 ** rng.integers(-2, 4)),
                beta1_pow=float(rng.random()),
            )
            delta = adam.delta_for(cfg, state)
            assert np.linalg.norm(delta) <= D * (1.0 + 1e-12)


def step_outcome(step, cfg, state):
    """The bits of ``step(cfg, state)``, or the warning it raised, with
    every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            delta = step(cfg, state)
        except RuntimeWarning as err:
            return str(err)
    return delta.shape, delta.view(np.uint64).tolist()


# Moment entries: ordinary values, zeros, and entries up to 1e300 and past,
# whose squares and scaled steps overflow.
MOMENTS = st.one_of(
    st.floats(-10.0, 10.0),
    st.floats(-1e300, 1e300),
    st.sampled_from([0.0, -0.0, 1e300, -1e300, 1e160, 1.5e308]),
)


@st.composite
def step_cases(draw):
    """(|scale| > 1, cfg, state): gamma is drawn through |scale| =
    gamma (1-beta1), on one side of 1 or the other, and m may be all zero."""
    variant = draw(st.sampled_from(adam.VARIANTS))
    beta1 = draw(st.floats(0.01, 0.99))
    big = draw(st.booleans())
    scale = draw(st.floats(1.001, 1e12) if big else st.floats(1e-4, 0.999))
    cfg = adam.AdamConfig(
        beta1=beta1, beta2=draw(st.floats(0.01, 0.999)), gamma=scale / (1.0 - beta1),
        nu=draw(st.floats(1e-6, 10.0)), variant=variant, D=draw(st.floats(1e-3, 1e3)),
        mu=draw(st.floats(0.0, 10.0)),
    )
    m = draw(arrays(np.float64, draw(st.integers(1, 12)), elements=MOMENTS))
    if draw(st.booleans()):
        m[:] = 0.0
    v = draw(st.one_of(st.just(0.0), st.floats(0.0, 1e6)))
    return big, cfg, adam.AdamState(m=m, v=v, beta1_pow=draw(st.floats(0.0, 1.0)))


def step_case(variant, gamma, m, nu=1.0):
    cfg = adam.AdamConfig(beta1=0.5, beta2=0.9, gamma=gamma, nu=nu, variant=variant, D=2.0,
                          mu=0.5)
    return abs(gamma * 0.5) > 1.0, cfg, adam.AdamState(m=np.array(m), v=0.0, beta1_pow=0.25)


class TestDeltaForAgainstItsReferee:
    # delta_for clips inline, with _norm's finite-square path taken there;
    # oracles.reference_delta_for is the rule with the clip in clip_to_ball.
    # np.dot or @ in place of np.vdot warns where the squares overflow.

    @given(case=step_cases())
    @example(case=step_case("clipped", 1.0, [0.0, 0.0]))
    @example(case=step_case("clipped", 1.0, [1e300, -1e300, 3.0]))
    @example(case=step_case("clipped", 1.0, [1e160, 1.0], nu=1e-6))
    @example(case=step_case("clipped", 8.0, [1e300, 1.0]))
    @example(case=step_case("clipped", 8.0, [1e308, 1.0], nu=10.0))  # only the product overflows
    @example(case=step_case("clip-free", 8.0, [1e300, 0.0]))
    @example(case=step_case("clip-free", 1.0, [0.0]))
    def test_bits_and_warnings_match(self, case):
        big, cfg, state = case
        assert (abs(-cfg.gamma * (1.0 - cfg.beta1)) > 1.0) == big
        assert step_outcome(adam.delta_for, cfg, state) == step_outcome(
            oracles.reference_delta_for, cfg, state)

    def test_overflowing_squares_take_the_scaled_norm(self):
        # |Delta| about 1.4e300: the squares overflow, the clip still lands on D
        _, cfg, state = step_case("clipped", 1.0, [1e300, -1e300, 3.0])
        assert isinstance(step_outcome(adam.delta_for, cfg, state), tuple)  # no warning
        assert np.linalg.norm(adam.delta_for(cfg, state)) == pytest.approx(cfg.D, rel=1e-15)


class TestClipFreeDelta:
    def test_zero_mu_matches_unclipped_interior(self):
        rng = np.random.default_rng(2)
        cfg = clipfree_cfg(mu=0.0)
        ref = clipped_cfg(D=1e18)  # effectively unclipped
        state = adam.AdamState.fresh(3)
        for _ in range(10):
            state = adam.adam_update(cfg, state, rng.standard_normal(3))
        np.testing.assert_allclose(
            adam.delta_for(cfg, state), adam.delta_for(ref, state), rtol=1e-14
        )

    def test_frozen_damped_example(self):
        cfg = clipfree_cfg()
        state = adam.AdamState(m=np.array([1.0, 0.0]), v=1.0, beta1_pow=0.9)
        # -0.1 * m / (0.1 + 1*(1-0.9) + 0.1) = (-1/3, 0)
        np.testing.assert_allclose(
            adam.delta_for(cfg, state), [-1.0 / 3.0, 0.0], rtol=1e-14
        )

    def test_damping_saturates_at_gamma_mu(self):
        cfg = clipfree_cfg(gamma=2.0, mu=3.0)
        state = adam.AdamState(m=np.array([1.0]), v=0.0, beta1_pow=0.0)
        delta = adam.delta_for(cfg, state)
        expected = -2.0 * 0.1 * 1.0 / (0.1 + 2.0 * 3.0)
        assert delta[0] == pytest.approx(expected, rel=1e-14)


class TestRecurrenceReplay:
    def test_moments_match_direct_sums(self):
        rng = np.random.default_rng(3)
        cfg = clipped_cfg(beta1=0.95, beta2=0.999)
        T, d = 1000, 4
        G = rng.standard_normal((T, d))
        state = adam.AdamState.fresh(d)
        for g in G:
            state = adam.adam_update(cfg, state, g)
        pw1 = cfg.beta1 ** np.arange(T - 1, -1.0, -1.0)
        pw2 = cfg.beta2 ** np.arange(T - 1, -1.0, -1.0)
        m_direct = pw1 @ G
        v_direct = float(pw2 @ (G**2).sum(axis=1))
        np.testing.assert_allclose(state.m, m_direct, rtol=1e-10)
        assert state.v == pytest.approx(v_direct, rel=1e-10)
        assert state.beta1_pow == pytest.approx(cfg.beta1**T, rel=1e-10)


class TestFtrlEquivalence:
    def test_inactive_clip_gives_zero_residual(self):
        cfg = clipped_cfg(D=100.0)  # unconstrained minimizer well inside
        grads = 0.01 * np.ones((3, 2))
        assert oracles.ftrl_equivalence_residual(cfg, grads) <= 1e-10

    def test_active_clip_matches_ball_projection(self):
        cfg = clipped_cfg(D=0.01)
        grads = np.ones((10, 2))
        resid = oracles.ftrl_equivalence_residual(cfg, grads)
        assert resid <= 1e-8 * (1.0 + 0.01)

    def test_clip_free_matches_closed_form(self):
        cfg = clipfree_cfg(mu=2.5)
        rng = np.random.default_rng(4)
        resid = oracles.ftrl_equivalence_residual(cfg, rng.standard_normal((12, 3)))
        assert resid <= 1e-8

    def test_large_scale_active_clip_stays_tight(self):
        # regime where a sequential solver leaves the ball by ~1e-8: the
        # checker must escalate rather than score that as a mismatch
        cfg = clipped_cfg(
            beta1=0.9407708981452745, beta2=0.6417849965807525,
            gamma=49.330585687726526, nu=0.06190175816327156,
            D=0.6487672003152472,
        )
        rng = np.random.default_rng(12345)
        grads = rng.standard_normal((9, 3)) * 100.0
        resid = oracles.ftrl_equivalence_residual(cfg, grads)
        assert resid <= 1e-8

    def test_fuzzed_short_histories(self):
        rng = np.random.default_rng(5)
        for variant in ("clipped", "clip-free"):
            for _ in range(60):
                cfg = random_cfg(rng, variant)
                t = int(rng.integers(1, 51))
                grads = rng.standard_normal((t, int(rng.integers(1, 4))))
                state = adam.AdamState.fresh(grads.shape[1])
                for g in grads:
                    state = adam.adam_update(cfg, state, g)
                delta = adam.delta_for(cfg, state)
                resid = oracles.ftrl_equivalence_residual(cfg, grads)
                assert resid <= 1e-8 * (1.0 + float(np.linalg.norm(delta)))


class TestRho:
    def test_pytorch_default_row(self):
        rho = oracles.rho_of(0.9, 0.999)
        assert rho == pytest.approx(0.989, rel=5e-3)
        assert 1.0 / math.sqrt(1.0 - rho**2) == pytest.approx(6.9, rel=5e-3)

    def test_llm_row(self):
        rho = oracles.rho_of(0.9, 0.95)
        assert rho == pytest.approx(0.473, rel=5e-3)
        assert 1.0 / math.sqrt(1.0 - rho**2) == pytest.approx(1.13, rel=5e-3)

    def test_balanced_row(self):
        rho = oracles.rho_of(0.95, 0.95)
        assert rho == pytest.approx(0.025, abs=7e-4)
        assert 1.0 / math.sqrt(1.0 - rho**2) == pytest.approx(1.0, rel=5e-3)

    def test_center_gives_zero(self):
        beta1 = 0.8
        assert oracles.rho_of(beta1, 0.5 * (1 + beta1**2)) == 0.0

    def test_outside_interval_flagged_by_value(self):
        assert oracles.rho_of(0.9, 0.81) >= 1.0
        assert oracles.rho_of(0.9, 1.0) >= 1.0


class TestTuneClipped:
    def test_frozen_beta1_boundary(self):
        rep = adam.tune("clipped", eps=0.16, c=1.0, G=0.6, sigma=0.4, Fstar=1.0, nu=1.0)
        assert rep.feasible
        assert rep.beta1 == pytest.approx(0.9999, abs=1e-15)

    def test_nu_at_cap_leaves_beta1_fourth_floor(self):
        rep = adam.tune("clipped", eps=0.2, c=1.0, G=1.0, sigma=0.5, Fstar=1.0, nu=1.5)
        assert rep.beta2 == pytest.approx(rep.beta1**4, rel=1e-14)

    def test_horizon_includes_second_moment_mixing_time(self):
        rep = adam.tune("clipped", eps=0.2, c=1e-12, G=1.0, sigma=0.0, Fstar=1e-12, nu=1e-6)
        # with negligible c and Fstar the ln2/(1-beta2) branch dominates
        assert rep.T_min == pytest.approx(math.log(2.0) / (1.0 - rep.beta2), rel=1e-12)

    def test_nu_above_cap_is_infeasible(self):
        rep = adam.tune("clipped", eps=0.1, c=1.0, G=1.0, sigma=0.0, Fstar=1.0, nu=2.0)
        assert not rep.feasible and "nu" in rep.reason


class TestTuneClippedMargin:
    def test_zero_rho_collapses_interval_to_center(self):
        rep = adam.tune("clipped", 0.2, 1.0, 1.0, 0.1, 1.0, 0.5, rho=0.0)
        center = 0.5 * (1.0 + rep.beta1**2)
        assert rep.beta2_lo == pytest.approx(rep.beta2_hi, rel=1e-15)
        assert rep.beta2 == pytest.approx(center, rel=1e-15)

    def test_midpoint_is_center_for_every_rho(self):
        for rho in (0.0, 0.3, 0.9):
            rep = adam.tune("clipped", 0.2, 1.0, 1.0, 0.1, 1.0, 0.5, rho=rho)
            center = 0.5 * (1.0 + rep.beta1**2)
            assert 0.5 * (rep.beta2_lo + rep.beta2_hi) == pytest.approx(center, rel=1e-15)

    def test_interval_width_is_rho_times_gap(self):
        rep = adam.tune("clipped", 0.2, 1.0, 1.0, 0.1, 1.0, 0.5, rho=0.4)
        width = rep.beta2_hi - rep.beta2_lo
        assert width == pytest.approx(0.4 * (1.0 - rep.beta1**2), rel=1e-12)


class TestTuneClipFree:
    def test_frozen_mu_chain(self):
        # G + sigma = 1, eps = 0.16 puts 1 - beta1 at 1e-4 exactly
        rep = adam.tune("clip-free", eps=0.16, c=1.0, G=0.5, sigma=0.5, Fstar=1.0, nu=1.0)
        D_expected = 1e-4 * 0.4 / math.sqrt(96.0)
        assert rep.D == pytest.approx(D_expected, rel=1e-12)
        assert rep.mu == pytest.approx(24.0 * D_expected / 1e-8, rel=1e-12)

    def test_beta2_floor_is_square_not_fourth(self):
        rep = adam.tune("clip-free", eps=0.2, c=1.0, G=1.0, sigma=0.5, Fstar=1.0, nu=1.5)
        assert rep.beta2 == pytest.approx(rep.beta1**2, rel=1e-14)

    def test_margin_variant_matches_clipped_interval_shape(self):
        kw = dict(eps=0.2, c=1.0, G=1.0, sigma=0.1, Fstar=1.0, nu=0.5)
        free = adam.tune("clip-free", **kw, rho=0.3)
        clip = adam.tune("clipped", **kw, rho=0.3)
        assert free.beta1 == clip.beta1
        assert free.margin == pytest.approx(clip.margin, rel=1e-15)
        assert (free.beta2_lo, free.beta2_hi) == (clip.beta2_lo, clip.beta2_hi)


class TestResubstitution:
    def test_fuzzed_reports_satisfy_their_theorems(self):
        rng = np.random.default_rng(6)
        for i in range(60):
            eps = float(10.0 ** rng.uniform(-2, 0))
            c = float(10.0 ** rng.uniform(-1, 1))
            G = float(10.0 ** rng.uniform(-0.5, 1))
            sigma = float(G * rng.uniform(0.0, 1.0))
            Fstar = float(10.0 ** rng.uniform(-1, 1))
            nu = float((G + sigma) * rng.uniform(0.05, 1.0))
            rho = float(rng.uniform(0.0, 0.99))
            reports = [
                adam.tune(variant, eps, c, G, sigma, Fstar, nu, r)
                for variant in adam.VARIANTS for r in (None, rho)
            ]
            for rep in reports:
                assert rep.feasible, rep.reason
                assert adam.verify_report(rep) == []


TUNERS = {
    "clipped": lambda *a: adam.tune("clipped", *a),
    "clipped-margin": lambda *a: adam.tune("clipped", *a, 0.5),
    "clipfree": lambda *a: adam.tune("clip-free", *a),
    "clipfree-margin": lambda *a: adam.tune("clip-free", *a, 0.5),
}


class TestUnrepresentableTuning:
    @pytest.mark.parametrize("form", TUNERS)
    @pytest.mark.parametrize("eps", [1e-7, 1e-200])
    def test_eps_that_rounds_beta1_to_one_is_infeasible(self, form, eps):
        # 1 - beta1 = (eps/(16(G+sigma)))^2 is below half an ulp of 1 (or 0)
        rep = TUNERS[form](eps, 1.0, 1.0, 0.1, 1.0, 0.5)
        assert not rep.feasible and rep.reason.startswith(f"eps={eps} too small")
        assert rep.beta1 is None and rep.T_min is None
        assert adam.verify_report(rep) == []

    @pytest.mark.parametrize("form", ["clipped", "clipfree"])
    def test_nu_that_rounds_beta2_to_one_is_infeasible(self, form):
        rep = TUNERS[form](0.1, 1.0, 1.0, 0.0, 1.0, 1e-20)
        assert not rep.feasible and rep.reason.startswith("nu=1e-20 too small")
        assert adam.verify_report(rep) == []

    @pytest.mark.parametrize("form", TUNERS)
    def test_eps_whose_gap_would_overflow_is_too_large(self, form):
        rep = TUNERS[form](1e200, 1.0, 1e-200, 1.0, 1.0, 0.5)
        needs = "eps sqrt(1-rho^2) < 64(G+sigma)" if "margin" in form else "eps < 16(G+sigma)"
        assert not rep.feasible and rep.reason == f"eps=1e+200 too large: needs {needs}"

    @pytest.mark.parametrize("form", TUNERS)
    def test_eps_whose_power_overflows_is_infeasible(self, form):
        # eps^1.5 in T_min is above the largest double
        rep = TUNERS[form](1e299, 1.0, 1e300, 0.0, 1.0, 1e300)
        assert not rep.feasible and rep.reason == "eps=1e+299 too large: eps**1.5 overflows"
        assert adam.verify_report(rep) == []

    @pytest.mark.parametrize("form", TUNERS)
    def test_eps_whose_power_underflows_is_infeasible(self, form):
        # eps^1.5 in T_min's denominator is below the smallest double
        rep = TUNERS[form](1e-217, 1.0, 1e-212, 0.0, 1.0, 1e-212)
        assert not rep.feasible and rep.reason == "eps=1e-217 too small: eps**1.5 underflows"
        assert adam.verify_report(rep) == []

    @pytest.mark.parametrize("form", TUNERS)
    def test_gradients_whose_second_moment_overflows_are_infeasible(self, form):
        # |g|^2 <= (G+sigma)^2, so Adam's v stays below (G+sigma)^2/(1-beta2),
        # which is above the largest double here
        rep = TUNERS[form](1e154, 1.0, 1e155, 0.0, 1.0, 1e155)
        assert not rep.feasible
        assert rep.reason == "G+sigma=1e+155 too large: (G+sigma)**2/(1-beta2) overflows"
        assert adam.verify_report(rep) == []

    def test_unknown_variant_is_rejected(self):
        with pytest.raises(ValueError, match="clipped or clip-free, got 'clipfree'"):
            adam.tune("clipfree", 0.1, 1.0, 1.0, 0.1, 1.0, 0.5)

    @pytest.mark.parametrize("form", TUNERS)
    def test_every_eps_near_the_rounding_edge_gives_a_sound_report(self, form):
        feasible = set()
        for eps in np.geomspace(1e-9, 1e-6, 200).tolist():
            rep = TUNERS[form](eps, 1.0, 1.0, 0.1, 1.0, 0.5)
            feasible.add(rep.feasible)
            assert adam.verify_report(rep) == [], (eps, rep)
            if rep.feasible:
                assert rep.beta1 < 1.0 and rep.beta2 < 1.0 and math.isfinite(rep.T_min)
            else:
                assert "too small" in rep.reason
        assert feasible == {True, False}


class TestInducedStepSizeCoupling:
    def test_nonincreasing_effective_inverse_step_when_beta2_ge_beta1_sq(self):
        # beta1/alpha_{t-1} - 1/alpha_t <= 0 with alpha from an actual trace
        rng = np.random.default_rng(7)
        cfg = clipped_cfg(beta1=0.9, beta2=0.85)  # 0.85 >= 0.81
        state = adam.AdamState.fresh(3)
        inv_alpha_prev = cfg.nu  # V_0 = 0
        for _ in range(200):
            state = adam.adam_update(cfg, state, rng.standard_normal(3))
            inv_alpha = cfg.nu + math.sqrt((1.0 - cfg.beta2) * state.v)
            assert cfg.beta1 * inv_alpha_prev - inv_alpha <= 1e-12
            inv_alpha_prev = inv_alpha
