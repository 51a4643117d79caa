import io
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

from driftlearn import o2nc, regret, streams


# ---------------------------------------------------------------------------
# The per-row writers and reader that preceded the shared codec, kept as
# oracles: the codec must reproduce their bytes and their arrays exactly.
# ---------------------------------------------------------------------------


def rowwise_stream_csv(stream, header_comment=None):
    buf = io.StringIO()
    if header_comment:
        buf.write(f"# {header_comment}\n")
    cols = ["t", "y"] + [f"z_{j}" for j in range(stream.d)]
    buf.write(",".join(cols) + "\n")
    for t in range(stream.T):
        row = [str(t + 1), repr(float(stream.y[t]))]
        row += [repr(float(v)) for v in stream.Z[t]]
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


def rowwise_path_csv(path, header_comment=None):
    buf = io.StringIO()
    if header_comment:
        buf.write(f"# {header_comment}\n")
    cols = ["t"] + [f"u_{j}" for j in range(path.d)]
    buf.write(",".join(cols) + "\n")
    for t in range(path.T):
        row = [str(t + 1)] + [repr(float(v)) for v in path.U[t]]
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


def rowwise_regret_trace_csv(ledger, path, header_comment=None):
    lines = []
    if header_comment:
        lines.append(f"# {header_comment}")
    lines.append("t,loss_play,loss_comp,cum_dynreg")
    cum = 0.0
    for t in range(1, ledger.T + 1):
        lp = float(ledger.losses_at_play[t - 1])
        lc = float(ledger.loss_eval(t, path[t - 1]))
        cum += lp - lc
        lines.append(f"{t},{lp!r},{lc!r},{cum!r}")
    return "\n".join(lines) + "\n"


def rowwise_o2nc_csv(trace, header_comment=None):
    lines = []
    if header_comment:
        lines.append(f"# {header_comment}")
    lines.append("t,s_t,||delta||,||grad_at_xbar||,dynreg_term")
    dn = np.linalg.norm(trace.deltas, axis=1)
    for t in range(trace.T):
        lines.append(
            f"{t + 1},{float(trace.scalings[t])!r},{float(dn[t])!r},"
            f"{float(trace.grad_norms_at_xbar[t])!r},{float(trace.dynreg_terms[t])!r}"
        )
    return "\n".join(lines) + "\n"


def rowwise_ensemble_csv(mix_losses, expert_losses, comment):
    lines = [f"# {comment}", "t,mix_loss,best_expert_loss"]
    best = expert_losses.min(axis=1)
    for t in range(len(mix_losses)):
        lines.append(f"{t + 1},{float(mix_losses[t])!r},{float(best[t])!r}")
    return "\n".join(lines) + "\n"


def rowwise_parse_csv(text, lead, prefix):
    rows = []
    header = None
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        cells = line.split(",")
        if header is None:
            header = cells
            d = len(header) - len(lead)
            if d < 1 or header != lead + [f"{prefix}{j}" for j in range(d)]:
                want = ",".join(lead + [f"{prefix}0", "...", f"{prefix}{{d-1}}"])
                raise streams.StreamSpecError(f"CSV header must be {want}, got {line!r}")
            continue
        t = len(rows) + 1
        if len(cells) != len(header):
            raise streams.StreamSpecError(
                f"CSV row {t}: expected {len(header)} columns, got {len(cells)}"
            )
        try:
            row = [float(v) for v in cells]
        except ValueError as exc:
            raise streams.StreamSpecError(f"CSV row {t}: {exc}") from exc
        if row[0] != t:
            raise streams.StreamSpecError(f"CSV row {t}: t must be {t}, got {cells[0]}")
        rows.append(row)
    if header is None:
        raise streams.StreamSpecError("empty CSV")
    if not rows:
        raise streams.StreamSpecError("CSV has a header but no rows")
    return np.asarray(rows)


EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300]
FINITE = st.one_of(
    st.sampled_from(EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False)
)
ANY_FLOAT = st.one_of(st.sampled_from(EDGE_VALUES), st.floats())


def table(columns, elements=FINITE, max_rows=12):
    """(T, columns) float arrays with T >= 1; ``columns`` is a strategy."""
    return columns.flatmap(lambda k: arrays(
        np.float64, st.tuples(st.integers(1, max_rows), st.just(k)), elements=elements
    ))


COMMENTS = st.sampled_from([None, "", "driftlearn gen config_hash=abc seed=3"])


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

    @pytest.mark.parametrize("T, S", [(10, 2), (10, 3), (7, 7), (100, 4), (5, 1),
                                      (3, 8), (1, 3), (4000, 8), (997, 13)])
    def test_truth_phases_match_the_per_round_loop(self, T, S):
        # the phases as segment_index gives them, one round at a time
        spec = streams.StreamSpec(d=3, T=T, segments=S, seed=T + S)
        _, truth = streams.gen_stream(spec)
        targets = streams._sphere(streams.philox_rng(spec.seed), S, 3, spec.B)
        seg = [streams.segment_index(t, T, S) for t in range(1, T + 1)]
        assert np.array_equal(truth.U, targets[seg])

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


def lfilter_oracle(v, beta, s0):
    """scipy's first-order filter, the form the scan replaced."""
    from scipy.signal import lfilter

    if len(v) == 0:  # lfilter also returns a final state; nothing to compare
        return np.empty_like(v)
    if s0 is None:
        return lfilter([1.0], [1.0, -beta], v, axis=0)
    return lfilter([1.0], [1.0, -beta], v, axis=0, zi=beta * s0[None])[0]


BETAS = st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True))
# |v| <= 1e300 over at most 30 rows cannot overflow, so every row is finite
SCAN_VALUES = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(-1e300, 1e300))


def scan_inputs(draw_shape):
    """(v, s0) with v 1-D (T,) or 2-D (T, k), T = 0..30, and s0 None or one row."""
    return draw_shape.flatmap(lambda shape: st.tuples(
        arrays(np.float64, shape, elements=SCAN_VALUES),
        st.one_of(st.none(), arrays(np.float64, shape[1:], elements=SCAN_VALUES)),
    ))


SCAN_SHAPES = st.one_of(
    st.tuples(st.integers(0, 30)),
    st.tuples(st.integers(0, 30), st.integers(1, 5)),
)


class TestDiscountedScan:
    @given(inputs=scan_inputs(SCAN_SHAPES), beta=BETAS)
    @example(inputs=(np.zeros((0, 3)), None), beta=0.5)
    @example(inputs=(np.array([2.0]), np.array(3.0)), beta=1.0)
    @example(inputs=(np.array([[-0.0, 1.0]]), None), beta=0.9)
    def test_equals_the_linear_filter(self, inputs, beta):
        # equal values: the same bits, except that a zero may carry the other
        # sign (the filter's state update is 0*x - (-beta)*s, not beta*s)
        v, s0 = inputs
        got = streams.discounted_scan(v, beta, s0)
        assert got.shape == v.shape
        assert np.array_equal(got, lfilter_oracle(v, beta, s0))

    @given(
        inputs=scan_inputs(st.tuples(st.integers(1, 30), st.integers(1, 4))),
        beta=BETAS,
        bad=st.sampled_from([np.inf, -np.inf, np.nan]),
        where=st.tuples(st.integers(0, 29), st.integers(0, 3)),
        one_d=st.booleans(),
    )
    def test_non_finite_entries_persist(self, inputs, beta, bad, where, one_d):
        v, s0 = inputs
        if one_d:
            v, s0 = v[:, 0].copy(), None if s0 is None else s0[0].copy()
        row = where[0] % len(v)
        idx = (row,) if one_d else (row, where[1] % v.shape[1])
        v[idx] = bad
        got = streams.discounted_scan(v, beta, s0)
        col = got if one_d else got[:, idx[1]]
        assert not np.isfinite(col[row:]).any()
        assert np.array_equal(got[:row], streams.discounted_scan(v[:row], beta, s0))

    def test_pieces_started_from_the_last_row_equal_one_scan(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal((50, 2, 3))
        whole = streams.discounted_scan(v, 0.97)
        first = streams.discounted_scan(v[:17], 0.97)
        rest = streams.discounted_scan(v[17:], 0.97, first[-1])
        assert np.array_equal(np.concatenate([first, rest]), whole)

    def test_state_of_the_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            streams.discounted_scan(np.zeros((4, 3)), 0.5, np.zeros((1, 3)))
        with pytest.raises(ValueError, match="axis"):
            streams.discounted_scan(np.float64(1.0), 0.5)


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
            ("t,y,z_0\n1,0.5,0.1\n\n# c\n2,0.5,0.1\n3,0.5,x\n", "row 3"),
            ("t,y,z_0\n1,1_0,0.1\n", "row 1: could not convert"),
        ],
        ids=["empty", "comment-only", "header-only", "short-row", "long-row",
             "t-gap", "wrong-name", "no-features", "truth-header", "bad-float",
             "bad-float-row-3", "underscore-digits"],
    )
    def test_malformed_stream_rejected(self, text, message):
        with pytest.raises(streams.StreamSpecError, match=message):
            streams.stream_from_csv(text)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "t,y,z_0\n",
            "t,y,z_0,z_1\n1,0.5,0.1\n",
            "t,y,z_0\n1,0.5,0.1,0.2\n",
            "t,y,z_0\n1,0.5,0.1\n3,0.5,0.1\n",
            "t,y,z_0\n1.0,0.5,0.1\n 02 ,0.5,0.1\n2.5,0.5,0.1\n",
            "t,y,z_1\n1,0.5,0.1\n",
            "t,y,z_0\n1,0.5,0.1\n\n# c\n2,0.5,0.1\n3,0.5,x\n",
            "t,y,z_0\n1,0.5,0.1\n2,0.5,\n",
            "t,y,z_0\n1,0.5,0.1 # trailing note\n",
        ],
    )
    def test_single_fault_messages_match_the_rowwise_reader(self, text):
        with pytest.raises(streams.StreamSpecError) as want:
            rowwise_parse_csv(text, ["t", "y"], "z_")
        with pytest.raises(streams.StreamSpecError) as got:
            streams.stream_from_csv(text)
        assert str(got.value) == str(want.value)

    def test_truth_header_is_checked(self):
        with pytest.raises(streams.StreamSpecError, match="header"):
            streams.path_from_csv("t,y,z_0\n1,0.5,0.1\n")
        path = streams.path_from_csv("# c\nt,u_0,u_1\n1,0.5,0.1\n2,0.5,0.2\n")
        assert path.U.shape == (2, 2)


class TestCodecMatchesRowwiseWriters:
    @pytest.mark.parametrize("T", [255, 256, 257, 513])
    def test_rows_across_block_boundaries(self, T):
        rng = np.random.default_rng(T)
        s = streams.Stream(Z=rng.standard_normal((T, 3)), y=rng.standard_normal(T))
        text = streams.stream_to_csv(s, "c")
        assert text == rowwise_stream_csv(s, "c")
        assert np.array_equal(streams.stream_from_csv(text).Z, s.Z)

    @given(data=table(st.integers(2, 7)), comment=COMMENTS)
    def test_stream(self, data, comment):
        s = streams.Stream(Z=data[:, 1:], y=data[:, 0])
        assert streams.stream_to_csv(s, comment) == rowwise_stream_csv(s, comment)

    @given(data=table(st.integers(1, 6), ANY_FLOAT), comment=COMMENTS)
    def test_path(self, data, comment):
        path = streams.ComparatorPath(data)
        assert streams.path_to_csv(path, comment) == rowwise_path_csv(path, comment)

    @given(data=table(st.just(2), ANY_FLOAT, max_rows=40), comment=COMMENTS)
    @example(data=np.array([[1e308, -1e308], [1e308, -1e308]]), comment=None)
    @example(data=np.array([[np.inf, np.inf], [1.0, 2.0]]), comment=None)
    @example(data=np.array([[-0.0, 0.0], [-0.0, 0.0], [1.0, 0.5]]), comment="c")
    def test_regret_trace(self, data, comment):
        # any float pair, so the running sum also meets -0.0, overflow and nan
        comp = data[:, 1]
        ledger = regret.RegretLedger(
            losses_at_play=data[:, 0], loss_eval=lambda t, u: float(comp[t - 1]), beta=1.0
        )
        path = streams.ComparatorPath(np.zeros((len(data), 1)))
        got = regret.regret_trace_csv(ledger, path, comment)
        assert got == rowwise_regret_trace_csv(ledger, path, comment)

    @given(
        columns=table(st.just(3), ANY_FLOAT),
        deltas=st.integers(1, 6).flatmap(lambda d: arrays(
            np.float64, (12, d), elements=st.floats(-1e150, 1e150)
        )),
        comment=COMMENTS,
    )
    def test_o2nc_trace(self, columns, deltas, comment):
        T = len(columns)
        trace = o2nc.O2ncTrace(
            cfg=None, objective=None, x0=None, xs=None, xbars=None,
            scalings=columns[:, 0], deltas=deltas[:T], grad_norms_at_xbar=columns[:, 1],
            comparators=None, dynreg_terms=columns[:, 2], zero_comparators=0,
            final_index=0,
        )
        assert trace.to_csv(comment) == rowwise_o2nc_csv(trace, comment)

    @given(
        mix=table(st.just(1), ANY_FLOAT, max_rows=20),
        experts=st.integers(1, 5).flatmap(
            lambda n: arrays(np.float64, (20, n), elements=ANY_FLOAT)
        ),
    )
    def test_ensemble_trace(self, mix, experts):
        # the columns cmd_run_ensemble hands to the codec
        mix, experts = mix[:, 0], experts[: len(mix)]
        comment = "driftlearn run-ensemble config_hash=abc"
        columns = [mix, experts.min(axis=1)]
        got = streams.csv_text(["mix_loss", "best_expert_loss"], columns, comment)
        assert got == rowwise_ensemble_csv(mix, experts, comment)


def _messy_csv(draw_text, header, data):
    """``data`` as CSV with comments and blank lines between rows, CRLF or LF
    line ends and spaces or tabs around cells."""
    blank = st.sampled_from(["", "   ", "\t", "# note", "  # t,y,1,2"])
    pad = st.sampled_from(["", " ", "\t", "  "])
    end = draw_text(st.sampled_from(["\n", "\r\n"]))
    lines = [draw_text(blank) for _ in range(draw_text(st.integers(0, 2)))]
    lines.append(header)
    for t, row in enumerate(data.tolist(), 1):
        lines += [draw_text(blank) for _ in range(draw_text(st.integers(0, 1)))]
        cells = [str(t)] + [repr(v) for v in row]
        lines.append(",".join(f"{draw_text(pad)}{c}{draw_text(pad)}" for c in cells))
    return end.join(lines) + draw_text(st.sampled_from(["", end]))


class TestCodecMatchesRowwiseReader:
    @given(data=table(st.integers(2, 7)), draw=st.data())
    def test_stream(self, data, draw):
        header = ",".join(["t", "y"] + [f"z_{j}" for j in range(data.shape[1] - 1)])
        text = _messy_csv(draw.draw, header, data)
        want = rowwise_parse_csv(text, ["t", "y"], "z_")
        got = streams.stream_from_csv(text)
        assert got.Z.tobytes() == want[:, 2:].tobytes()
        assert got.y.tobytes() == want[:, 1].tobytes()

    @given(data=table(st.integers(1, 6), ANY_FLOAT), draw=st.data())
    def test_path(self, data, draw):
        header = ",".join(["t"] + [f"u_{j}" for j in range(data.shape[1])])
        text = _messy_csv(draw.draw, header, data)
        want = rowwise_parse_csv(text, ["t"], "u_")
        assert streams.path_from_csv(text).U.tobytes() == want[:, 1:].tobytes()
