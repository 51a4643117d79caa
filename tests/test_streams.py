import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from driftlearn import streams


class TestGenStream:
    def test_zero_noise_single_segment_is_exactly_realizable(self):
        spec = streams.StreamSpec(d=1, T=20, segments=1, noise=0.0, seed=5, B=2.0)
        s, truth = streams.gen_stream(spec)
        clean = np.einsum("td,td->t", truth.U, s.Z)
        assert np.array_equal(s.y, clean)
        # |u| = 2 and |z| = 1 exactly, so every label has magnitude 2
        np.testing.assert_allclose(np.abs(s.y), 2.0, rtol=1e-14)

    def test_same_seed_reproduces_bit_for_bit(self):
        spec = streams.StreamSpec(d=3, T=50, segments=3, noise=0.2, seed=7)
        s1, u1 = streams.gen_stream(spec)
        s2, u2 = streams.gen_stream(spec)
        assert np.array_equal(s1.Z, s2.Z) and np.array_equal(s1.y, s2.y)
        assert np.array_equal(u1.U, u2.U)
        assert streams.stream_to_csv(s1) == streams.stream_to_csv(s2)

    def test_two_segments_switch_at_round_six(self):
        spec = streams.StreamSpec(d=2, T=10, segments=2, seed=1)
        _, truth = streams.gen_stream(spec)
        changes = [
            t for t in range(2, 11) if not np.array_equal(truth.U[t - 1], truth.U[t - 2])
        ]
        assert changes == [6]

    def test_segment_boundaries_match_enumeration(self):
        # ceil-rule oracle: round t sits in the first k with t <= ceil(T k / S)
        for T, S in [(10, 2), (10, 3), (7, 7), (100, 4), (5, 1)]:
            for t in range(1, T + 1):
                expected = next(
                    k - 1 for k in range(1, S + 1) if t <= math.ceil(T * k / S)
                )
                assert streams.segment_index(t, T, S) == expected

    def test_feature_and_target_norms_are_exact(self):
        spec = streams.StreamSpec(d=4, T=30, segments=2, seed=2, R=0.7, B=1.3)
        s, truth = streams.gen_stream(spec)
        np.testing.assert_allclose(np.linalg.norm(s.Z, axis=1), 0.7, rtol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(truth.U, axis=1), 1.3, rtol=1e-12)

    def test_logistic_labels_are_signs(self):
        spec = streams.StreamSpec(
            d=2, T=40, kind="logistic-drift", segments=2, noise=0.3, seed=9
        )
        s, _ = streams.gen_stream(spec)
        assert set(np.unique(s.y)) <= {-1.0, 1.0}

    def test_rotating_target_respects_bound(self):
        spec = streams.StreamSpec(d=3, T=25, kind="rotating-target", segments=2, seed=4)
        _, truth = streams.gen_stream(spec)
        assert np.all(np.linalg.norm(truth.U, axis=1) <= 1.0 + 1e-12)
        # the target actually moves
        assert not np.allclose(truth.U[0], truth.U[10])

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(d=0, T=5),
            dict(d=1, T=0),
            dict(d=1, T=5, segments=0),
            dict(d=1, T=5, noise=-0.1),
            dict(d=1, T=5, kind="nope"),
            dict(d=1, T=5, R=0.0),
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(streams.StreamSpecError):
            streams.gen_stream(streams.StreamSpec(**{"seed": 0, **kwargs}))


class TestGeometricWeights:
    def test_uniform_at_beta_one(self):
        np.testing.assert_allclose(
            streams.geometric_weights(1.0, 2), [1 / 3, 1 / 3, 1 / 3], rtol=1e-15
        )

    def test_half_discount_two_rounds(self):
        np.testing.assert_allclose(
            streams.geometric_weights(0.5, 1), [1 / 3, 2 / 3], rtol=1e-15
        )

    def test_single_index(self):
        np.testing.assert_allclose(streams.geometric_weights(0.5, 0), [1.0])

    def test_sum_one_and_monotone(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            beta = float(rng.uniform(0.01, 1.0))
            t = int(rng.integers(0, 200))
            w = streams.geometric_weights(beta, t)
            assert abs(w.sum() - 1.0) <= 1e-12
            assert np.all(w > 0.0)
            if beta < 1.0:
                assert np.all(np.diff(w) >= 0.0)  # decreasing in the lag t-s

    @pytest.mark.parametrize("beta", [0.0, -0.5, 1.5])
    def test_bad_beta_rejected(self, beta):
        with pytest.raises(ValueError):
            streams.geometric_weights(beta, 3)


class TestCsvRoundTrip:
    def test_stream_and_truth_round_trip_exactly(self):
        spec = streams.StreamSpec(d=3, T=17, segments=2, noise=0.4, seed=13)
        s, truth = streams.gen_stream(spec)
        s2 = streams.stream_from_csv(streams.stream_to_csv(s, "comment"))
        truth2 = streams.path_from_csv(streams.path_to_csv(truth, "comment"))
        assert np.array_equal(s.Z, s2.Z) and np.array_equal(s.y, s2.y)
        assert np.array_equal(truth.U, truth2.U)

    @given(
        data=st.integers(1, 5).flatmap(
            lambda d: arrays(
                np.float64,
                st.tuples(st.integers(1, 20), st.just(d + 1)),
                elements=st.floats(allow_nan=False, allow_infinity=False),
            )
        ),
        comment=st.sampled_from([None, "comment"]),
    )
    def test_stream_round_trip_is_bit_exact(self, data, comment):
        s = streams.Stream(Z=data[:, 1:], y=data[:, 0])
        s2 = streams.stream_from_csv(streams.stream_to_csv(s, comment))
        assert s2.Z.tobytes() == s.Z.tobytes() and s2.y.tobytes() == s.y.tobytes()


class TestCsvStrictParse:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty"),
            ("# only a comment\n", "empty"),
            ("t,y,z_0\n", "no rows"),
            ("t,y,z_0,z_1\n1,0.5,0.1\n", "expected 4 columns, got 3"),
            ("t,y,z_0\n1,0.5,0.1,0.2\n", "expected 3 columns, got 4"),
            ("t,y,z_0\n1,0.5,0.1\n3,0.5,0.1\n", "t must be 2"),
            ("t,y,z_1\n1,0.5,0.1\n", "header"),
            ("t,y\n1,0.5\n", "header"),
            ("t,u_0\n1,0.5\n", "header"),
            ("t,y,z_0\n1,abc,0.1\n", "row 1"),
        ],
        ids=["empty", "comment-only", "header-only", "short-row", "long-row",
             "t-gap", "wrong-name", "no-features", "truth-header", "bad-float"],
    )
    def test_malformed_stream_rejected(self, text, message):
        with pytest.raises(streams.StreamSpecError, match=message):
            streams.stream_from_csv(text)

    def test_truth_header_is_checked(self):
        with pytest.raises(streams.StreamSpecError, match="header"):
            streams.path_from_csv("t,y,z_0\n1,0.5,0.1\n")
        path = streams.path_from_csv("# c\nt,u_0,u_1\n1,0.5,0.1\n2,0.5,0.2\n")
        assert path.U.shape == (2, 2)
