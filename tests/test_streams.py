import io
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

from driftlearn import adam, cli, o2nc, regret, streams
from oracles import csv_written, path_csv_rowwise


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


def rowwise_regret_trace_csv(play, comp, header_comment=None):
    lines = []
    if header_comment:
        lines.append(f"# {header_comment}")
    lines.append("t,loss_play,loss_comp,cum_dynreg")
    cum = 0.0
    for t in range(1, len(play) + 1):
        lp = float(play[t - 1])
        lc = float(comp[t - 1])
        cum += lp - lc
        lines.append(f"{t},{lp!r},{lc!r},{cum!r}")
    return "\n".join(lines) + "\n"


def rowwise_o2nc_csv(trace, deltas, header_comment=None):
    lines = []
    if header_comment:
        lines.append(f"# {header_comment}")
    lines.append("t,s_t,||delta||,||grad_at_xbar||,dynreg_term")
    for t, delta in enumerate(deltas):
        lines.append(
            f"{t + 1},{float(trace.scalings[t])!r},{adam._norm(delta)!r},"
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
        bad = [v for v in row if not math.isfinite(v)]
        if bad:
            raise streams.StreamSpecError(
                f"CSV row {t}: entries must be finite, got {bad[0]!r}"
            )
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


def segment_index(t, T, S):
    """0-based drift phase of round t (1-based), one round at a time: the
    first phase whose last round, as ``streams._phase_ends`` gives it, is at
    or after t."""
    return next(k for k, end in enumerate(streams._phase_ends(T, S)) if t <= end)


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
        assert csv_written(streams.stream_to_csv, s1) == csv_written(streams.stream_to_csv, s2)

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
                assert segment_index(t, T, S) == expected

    @pytest.mark.parametrize("T, S", [(10, 2), (10, 3), (7, 7), (100, 4), (5, 1),
                                      (3, 8), (1, 3), (4000, 8), (997, 13)])
    def test_truth_phases_match_the_per_round_loop(self, T, S):
        # the phases as segment_index gives them, one round at a time
        spec = streams.StreamSpec(d=3, T=T, segments=S, seed=T + S)
        _, truth = streams.gen_stream(spec)
        targets = streams._sphere(streams.philox_rng(spec.seed), S, 3, spec.B)
        seg = [segment_index(t, T, S) for t in range(1, T + 1)]
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


COLUMNS = streams.COLUMN_SCAN_MAX
# 1-D, 2-D and 3-D rows, with widths on both sides of the column route's limit
ROUTE_SHAPES = st.one_of(
    st.tuples(st.integers(0, 30)),
    st.tuples(st.integers(0, 30), st.integers(1, 2 * COLUMNS + 2)),
    st.tuples(st.integers(0, 30), st.integers(1, 6), st.integers(1, 6)),
)


def per_row_recurrence(v, betas, s0):
    """s[n] = v[n] + betas[n]*s[n-1], one row at a time: Python floats for a
    1-D ``v``, numpy rows for a wider one."""
    prev = np.zeros(v.shape[1:]) if s0 is None else s0
    if v.ndim == 1:
        prev = float(prev)
    out = np.empty_like(v)
    with np.errstate(over="ignore", invalid="ignore"):
        for n, beta in enumerate(betas.tolist()):
            prev = (float(v[n]) if v.ndim == 1 else v[n]) + beta * prev
            out[n] = prev
    return out


def bits(values):
    """The IEEE bit patterns, so that nan equals nan and -0.0 differs from 0.0."""
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


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

    @given(
        inputs=scan_inputs(SCAN_SHAPES),
        data=st.data(),
        bad=st.sampled_from([None, np.inf, -np.inf, np.nan]),
        where=st.tuples(st.integers(0, 29), st.integers(0, 4)),
    )
    def test_per_row_discounts_equal_the_recurrence(self, inputs, data, bad, where):
        v, s0 = inputs
        betas = data.draw(arrays(np.float64, len(v), elements=st.floats(0.0, 1.0)))
        if bad is not None and len(v):
            row = where[0] % len(v)
            v[(row,) if v.ndim == 1 else (row, where[1] % v.shape[1])] = bad
        got = streams.discounted_scan(v, betas, s0)
        want = per_row_recurrence(v, betas, s0)
        assert got.shape == v.shape and bits(got) == bits(want)

    @given(inputs=scan_inputs(SCAN_SHAPES), beta=BETAS,
           bad=st.sampled_from([None, np.inf, -np.inf, np.nan]), where=st.integers(0, 29))
    def test_a_float_equals_it_repeated_per_row(self, inputs, beta, bad, where):
        # a 1-D v: the Python-float loop against the per-row discounts' path
        v, s0 = inputs
        if bad is not None and len(v):
            v[where % len(v)] = bad
        repeated = streams.discounted_scan(v, np.full(len(v), beta), s0)
        assert bits(streams.discounted_scan(v, beta, s0)) == bits(repeated)

    @given(
        inputs=scan_inputs(ROUTE_SHAPES),
        data=st.data(),
        per_row=st.booleans(),
        in_place=st.booleans(),
        bad=st.sampled_from([None, np.inf, -np.inf, np.nan]),
        where=st.integers(0, 10**6),
    )
    @example(inputs=(np.ones((3, COLUMNS)), None), data=None, per_row=False, in_place=True,
             bad=None, where=0)
    @example(inputs=(np.ones((3, COLUMNS + 1)), np.full(COLUMNS + 1, -0.0)), data=None,
             per_row=False, in_place=True, bad=np.nan, where=4)
    def test_both_routes_equal_the_recurrence(self, inputs, data, per_row, in_place, bad,
                                              where):
        # rows of at most COLUMN_SCAN_MAX entries scan by columns, wider rows
        # by rows; either way, and into v itself, the bits of the recurrence
        v, s0 = inputs
        beta = 0.9 if data is None else data.draw(BETAS)
        betas = np.full(len(v), beta)
        if per_row:
            betas = data.draw(arrays(np.float64, len(v), elements=st.floats(0.0, 1.0)))
        if bad is not None and v.size:
            v.reshape(-1)[where % v.size] = bad
        want = per_row_recurrence(v, betas, s0)
        out = v if in_place else None
        got = streams.discounted_scan(v, betas if per_row else beta, s0, out=out)
        assert got.shape == v.shape and bits(got) == bits(want)
        assert (got is v) == in_place

    def test_out_of_the_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="out must be a float array of the shape"):
            streams.discounted_scan(np.zeros((4, 3)), 0.5, out=np.zeros((4, 2)))
        with pytest.raises(ValueError, match="out must be a float array of the shape"):
            streams.discounted_scan(np.zeros(4), 0.5, out=np.zeros(4, dtype=np.float32))

    def test_per_row_discounts_of_the_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="beta must be a float or 4 floats"):
            streams.discounted_scan(np.zeros((4, 3)), np.full(3, 0.5))
        with pytest.raises(ValueError, match="beta must be a float or 4 floats"):
            streams.discounted_scan(np.zeros(4), np.full((4, 1), 0.5))

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


def rowwise_csv_text(header, columns, comment=None):
    """The codec's writer as it was: one f-string and one join a row."""
    parts = [f"# {comment}\n"] if comment else []
    parts.append(",".join(["t", *header]) + "\n")
    rows = np.column_stack(columns).tolist()
    parts += [f"{t},{','.join(map(repr, row))}\n" for t, row in enumerate(rows, 1)]
    return "".join(parts)


CSV_VALUES = st.one_of(
    st.sampled_from([-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                     2.225073858507201e-308, 1e-310, 1e300, 0.1, 1e16, 123456789.0]),
    st.floats(),
)


class TestRowDots:
    """The one row-dot kernel behind the loss rows of `regret`, the margins
    of `logreg` and the norms and regret terms of `o2nc`, held to the
    per-row dot bit for bit."""

    @given(pair=st.integers(1, 39).flatmap(lambda d: st.tuples(*[
        arrays(np.float64, (17, d), elements=st.floats(-1e3, 1e3))] * 2)))
    def test_row_dots_equal_per_row_vdot(self, pair):
        X, Y = pair
        assert bits(streams.row_dots(X, Y)) == bits(list(map(np.vdot, X, Y)))

    def test_row_dots_on_the_o2nc_bench_shape(self):
        rng = streams.philox_rng(3)
        X, Y = rng.standard_normal((15000, 10)), rng.standard_normal((15000, 10))
        assert bits(streams.row_dots(X, Y)) == bits(list(map(np.vdot, X, Y)))

    # The rows through any k are the per-row dots, and the first k entries
    # of the whole, bit for bit, in every memory layout the ledgers and the
    # CSV reader produce.
    @given(seed=st.integers(0, 2**31 - 1), T=st.integers(1, 1000), d=st.integers(1, 64),
           layout=st.sampled_from(["C", "column-slice", "reversed", "F"]), data=st.data())
    def test_row_dots_prefixes_equal_per_row_vdot(self, seed, T, d, layout, data):
        rng = np.random.default_rng(seed)
        wide = rng.standard_normal((T, d + 2))
        Z = {"C": np.ascontiguousarray(wide[:, :d]), "column-slice": wide[:, 1 : d + 1],
             "reversed": np.ascontiguousarray(wide[:, :d])[::-1],
             "F": np.asfortranarray(wide[:, :d])}[layout]
        u, k = rng.standard_normal(d), data.draw(st.integers(0, T))
        prefix = bits(streams.row_dots(Z[:k], u))
        assert prefix == bits([np.vdot(z, u) for z in Z[:k]])
        assert prefix == bits(streams.row_dots(Z, u)[:k])


# The public wrapper of each LAPACK gufunc, and the faults it rejects: a
# nan in the input passes
LAPACK = {"solve": (streams._umath_linalg.solve, np.linalg.solve, {"zero"}),
          "cholesky": (streams._umath_linalg.cholesky_lo, np.linalg.cholesky,
                       {"zero", "indefinite"})}
MATRIX_FAULTS = {"zero": lambda d: np.zeros((d, d)),
                 "indefinite": lambda d: np.diag([1.0] * (d - 1) + [-1.0]),
                 "nan": lambda d: np.full((d, d), np.nan)}


class TestLapackGufuncs:
    # Both learners call numpy's LAPACK gufuncs without the public wrappers
    # and trust two things: the gufunc gives the public call's bits, and a
    # stack entry the public call rejects comes back as nan.  A numpy that
    # moves or changes the private module fails here first.
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 16), d=st.integers(1, 6))
    def test_gufuncs_give_the_public_bits(self, seed, n, d):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((n, d, d))
        A = M @ M.transpose(0, 2, 1) + rng.uniform(1e-3, 2.0) * np.eye(d)
        rhs = rng.standard_normal((n, d, 2))
        assert bits(streams._umath_linalg.solve(A, rhs)) == bits(np.linalg.solve(A, rhs))
        assert bits(streams._umath_linalg.cholesky_lo(A)) == bits(np.linalg.cholesky(A))

    @pytest.mark.parametrize("edge", sorted(MATRIX_FAULTS))
    @pytest.mark.parametrize("at", [0, 1, 2])
    @pytest.mark.parametrize("name", ["solve", "cholesky"])
    def test_a_rejected_entry_comes_back_as_nan(self, edge, at, name):
        stack = np.stack([np.eye(2), 2.0 * np.eye(2), np.diag([3.0, 0.5])])
        stack[at] = MATRIX_FAULTS[edge](2)
        gufunc, public, _ = LAPACK[name]
        args = (stack, np.ones((3, 2, 2))) if name == "solve" else (stack,)
        with np.errstate(invalid="ignore"):  # the flag of a rejected entry
            out = gufunc(*args)
        for i, entry in enumerate(zip(*args)):
            try:
                public(*entry)
                rejected = False
            except np.linalg.LinAlgError:
                rejected = True
            if rejected:  # LAPACK's flag: numpy fills the whole entry
                assert np.isnan(out[i]).all(), i
            elif edge == "nan" and i == at:  # passed, but nan in gives nan out
                assert np.isnan(out[i]).any(), i
            else:
                assert not np.isnan(out[i]).any(), i
                assert bits(out[i]) == bits(public(*entry)), i

    # A (k, N) stack, as logreg's block guard factors, with faults at drawn
    # entries: the referee names the first rejected entry in C order, never
    # a nan input's, and runs the public wrapper on the entries of the
    # gufunc's output that hold a nan alone, in C order, up to that entry.
    @given(seed=st.integers(0, 2**31 - 1), k=st.integers(1, 4), N=st.integers(1, 4),
           d=st.integers(1, 3), name=st.sampled_from(sorted(LAPACK)), data=st.data())
    def test_first_rejected_names_the_first_entry_lapack_rejects(
        self, seed, k, N, d, name, data
    ):
        faults = data.draw(st.dictionaries(
            st.tuples(st.integers(0, k - 1), st.integers(0, N - 1)),
            st.sampled_from(sorted(MATRIX_FAULTS))))
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((k, N, d, d))
        A = M @ np.swapaxes(M, -1, -2) + np.eye(d)
        for at, fault in faults.items():
            A[at] = MATRIX_FAULTS[fault](d)
        gufunc, public, rejects = LAPACK[name]
        stacks = (A, rng.standard_normal((k, N, d, 2))) if name == "solve" else (A,)
        with np.errstate(invalid="ignore"):
            out = gufunc(*stacks)
        calls = []

        def referee(*entry):
            calls.append((entry[0].ctypes.data - A.ctypes.data) // entry[0].nbytes)
            return public(*entry)

        got = streams._first_rejected(referee, out, *stacks)
        rejected = sorted(at for at, fault in faults.items() if fault in rejects)
        assert got == (rejected[0] if rejected else None)
        assert got is None or faults[got] != "nan"
        held = np.flatnonzero(np.isnan(out).any(axis=(-2, -1))).tolist()
        stop = len(held) if got is None else held.index(np.ravel_multi_index(got, (k, N))) + 1
        assert calls == held[:stop]


# (lhs, rhs, verdict) at the edges of the slack rule
BOUND_EDGES = [
    (math.nan, 0.0, False), (0.0, math.nan, False), (math.nan, math.nan, False),
    (math.nan, math.inf, False), (math.inf, math.nan, False),
    (0.0, math.inf, True), (-1e308, math.inf, True), (1e308, math.inf, True),
    (0.0, -math.inf, False), (-1e308, -math.inf, False), (1e308, -math.inf, False),
    (math.inf, 1e308, False), (math.inf, math.inf, True), (math.inf, -math.inf, False),
    (-math.inf, -math.inf, False), (-math.inf, -1e308, True), (1.0, 1.0, True),
    (-0.0, 0.0, True),
]


class TestBoundHolds:
    # The slack rule of every relative bound check.
    @given(rhs=st.floats(-1e300, 1e300))
    @example(rhs=0.0)
    @example(rhs=-1.0)
    @example(rhs=1e300)
    def test_the_threshold_passes_and_the_next_float_up_fails(self, rhs):
        lhs = rhs + 1e-9 * (1.0 + abs(rhs))
        assert streams.bound_holds(lhs, rhs) is True
        assert streams.bound_holds(math.nextafter(lhs, math.inf), rhs) is False

    @pytest.mark.parametrize("lhs, rhs, verdict", BOUND_EDGES)
    def test_nan_and_infinite_edges(self, lhs, rhs, verdict):
        assert streams.bound_holds(lhs, rhs) is verdict

    @given(pairs=st.lists(st.tuples(st.floats(), st.floats()), max_size=20))
    @example(pairs=[(lhs, rhs) for lhs, rhs, _ in BOUND_EDGES])
    def test_scalars_and_arrays_agree(self, pairs):
        lhs = np.array([p[0] for p in pairs], dtype=float)
        rhs = np.array([p[1] for p in pairs], dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, as floats give
            verdicts = streams.bound_holds(lhs, rhs)
            scalars = [bool(streams.bound_holds(a, b)) for a, b in zip(lhs, rhs)]
        assert verdicts.dtype == bool
        assert verdicts.tolist() == [streams.bound_holds(a, b) for a, b in pairs] == scalars


class TestCsvRoundTrip:
    @given(
        T=st.one_of(st.integers(1, 3), st.integers(254, 258), st.integers(511, 514)),
        widths=st.lists(st.integers(0, 3), min_size=1, max_size=3),
        data=st.data(),
        comment=COMMENTS,
    )
    def test_write_csv_equals_the_row_writer(self, T, widths, data, comment):
        # width 0 is a 1-D column; T straddles the 256-row blocks
        columns = [data.draw(arrays(np.float64, (T, k) if k else (T,), elements=CSV_VALUES))
                   for k in widths]
        header = [f"c_{j}" for j in range(sum(max(k, 1) for k in widths))]
        got = csv_written(streams.write_csv, header, columns, comment=comment)
        assert got == rowwise_csv_text(header, columns, comment)

    def test_stream_and_truth_round_trip_exactly(self):
        spec = streams.StreamSpec(d=3, T=17, segments=2, noise=0.4, seed=13)
        s, truth = streams.gen_stream(spec)
        s2 = streams.stream_from_csv(csv_written(streams.stream_to_csv, s, comment="comment"))
        truth2 = streams.path_from_csv(csv_written(streams.path_to_csv, truth, comment="comment"))
        assert np.array_equal(s.Z, s2.Z) and np.array_equal(s.y, s2.y)
        assert np.array_equal(truth.U, truth2.U)

    def test_parsed_path_owns_a_contiguous_array(self):
        # the parse array holds the t column too: a path that kept a column
        # view of it would pin it, and its rows would compare through buffers
        path = streams.path_from_csv("t,u_0,u_1\n1,0.5,0.1\n2,0.5,0.2\n")
        assert path.U.flags.c_contiguous and path.U.base is None
        strided = np.arange(12.0).reshape(3, 4)[:, 1:]
        assert streams.ComparatorPath(strided).U.flags.c_contiguous

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
        s2 = streams.stream_from_csv(csv_written(streams.stream_to_csv, s, comment=comment))
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
            # past row 1 a ragged row is loadtxt's own column check, mapped
            "t,y,z_0\n1,0.5,0.1\n2,0.5,0.2\n\n# c\n3,0.5\n4,0.5,0.1\n",
            "t,y,z_0\n1,0.5,0.1\n2,0.5,0.1,0.2\n3,0.5,0.1\n",
            "t,y,z_0\r\n1,0.5,0.1\r\n2,0.5,0.2\r\n3,0.5\r\n",
            "t,y,z_0\n1,0.5,0.1\n2,0.5,0.1\n3,0.5,0.1\n4,,0.1\n",
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
        text = csv_written(streams.stream_to_csv, s, comment="c")
        assert text == rowwise_stream_csv(s, "c")
        assert np.array_equal(streams.stream_from_csv(text).Z, s.Z)

    @given(data=table(st.integers(2, 7)), comment=COMMENTS)
    def test_stream(self, data, comment):
        s = streams.Stream(Z=data[:, 1:], y=data[:, 0])
        got = csv_written(streams.stream_to_csv, s, comment=comment)
        assert got == rowwise_stream_csv(s, comment)

    @given(data=table(st.integers(1, 6), ANY_FLOAT), comment=COMMENTS)
    def test_path(self, data, comment):
        path = streams.ComparatorPath(data)
        got = csv_written(streams.path_to_csv, path, comment=comment)
        assert got == path_csv_rowwise(path, comment)

    @given(data=table(st.just(2), ANY_FLOAT, max_rows=40), comment=COMMENTS)
    @example(data=np.array([[1e308, -1e308], [1e308, -1e308]]), comment=None)
    @example(data=np.array([[np.inf, np.inf], [1.0, 2.0]]), comment=None)
    @example(data=np.array([[-0.0, 0.0], [-0.0, 0.0], [1.0, 0.5]]), comment="c")
    def test_regret_trace(self, data, comment):
        # any float pair, so the running sum also meets -0.0, overflow and nan
        play, comp = data[:, 0], data[:, 1]
        T = len(data)
        ledger = regret.RegretLedger(play, 1.0, np.zeros((T, 1)), np.zeros(T), "squared")
        ledger.path_losses = lambda U: comp  # comparator rows no loss kind gives
        got = csv_written(regret.regret_trace_csv, ledger, streams.ComparatorPath(np.zeros((T, 1))),
                          comment=comment)
        assert got == rowwise_regret_trace_csv(play, comp, comment)

    @given(
        columns=table(st.just(3), ANY_FLOAT),
        deltas=st.integers(1, 6).flatmap(lambda d: arrays(
            np.float64, (12, d), elements=st.floats(-1e150, 1e150)
        )),
        comment=COMMENTS,
    )
    def test_o2nc_trace(self, columns, deltas, comment):
        # run_o2nc's delta_norms column is _row_norms of its Delta_t rows
        T = len(columns)
        trace = o2nc.O2ncTrace(
            scalings=columns[:, 0], delta_norms=o2nc._row_norms(deltas[:T]),
            grad_norms_at_xbar=columns[:, 1], dynreg_terms=columns[:, 2],
            zero_comparators=0, final_index=0, xbar_final=np.zeros(deltas.shape[1]),
        )
        assert csv_written(trace.to_csv, comment=comment) == (
            rowwise_o2nc_csv(trace, deltas[:T], comment))

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
        got = csv_written(streams.write_csv, ["mix_loss", "best_expert_loss"], columns,
                          comment=comment)
        assert got == rowwise_ensemble_csv(mix, experts, comment)


@st.composite
def run_paths(draw):
    """Paths made of runs of equal rows: short runs and runs that straddle
    the writer's 256-row pieces, rows drawn with both zeros, nan and +-inf."""
    lengths = draw(st.lists(st.one_of(st.integers(1, 5), st.integers(250, 300)),
                            min_size=1, max_size=6))
    rows = draw(arrays(np.float64, st.tuples(st.just(len(lengths)), st.integers(1, 4)),
                       elements=st.one_of(st.sampled_from([0.0, -0.0, np.nan]), ANY_FLOAT)))
    return np.repeat(rows, lengths, axis=0)


class TestTruthWriterByRuns:
    @given(U=run_paths(), comment=COMMENTS)
    @example(U=np.array([[0.5]]), comment=None)
    @example(U=np.repeat([[0.0], [-0.0], [0.0], [-0.0]], 3, axis=0), comment="c")
    @example(U=np.repeat([[0.0, 1.0], [-0.0, 1.0], [0.0, -1.0]], [300, 4, 3], axis=0),
             comment=None)
    @example(U=np.repeat([[np.nan, 1.0], [np.nan, 1.0], [np.inf, np.nan]], [3, 4, 5], axis=0),
             comment=None)
    @example(U=np.full((257, 1), 2.5), comment="c")
    def test_equals_the_rowwise_referee(self, U, comment):
        path = streams.ComparatorPath(U)
        got = csv_written(streams.path_to_csv, path, comment=comment)
        assert got == path_csv_rowwise(path, comment)

    @pytest.mark.parametrize("run, by_runs", [
        (streams.MEAN_RUN_MIN, True), (streams.MEAN_RUN_MIN - 1, False), (1, False),
    ])
    def test_only_long_runs_skip_the_block_writer(self, monkeypatch, run, by_runs):
        # the choice is made from the path: a path whose rows all differ
        # keeps the block writer, which is faster there
        calls = []
        block = streams.write_csv
        monkeypatch.setattr(streams, "write_csv", lambda *args: calls.append(args) or block(*args))
        path = streams.ComparatorPath(np.repeat(np.arange(8.0).reshape(4, 2), run, axis=0))
        assert csv_written(streams.path_to_csv, path, comment="c") == path_csv_rowwise(path, "c")
        assert (calls == []) == by_runs

    def test_signed_zeros_are_separate_runs(self):
        path = streams.ComparatorPath(np.repeat([[0.0], [-0.0]], 4, axis=0))
        rows = csv_written(streams.path_to_csv, path).splitlines()[1:]
        assert rows == [f"{t},{'0.0' if t <= 4 else '-0.0'}" for t in range(1, 9)]


def _cell_rows(data):
    """The cells of each row of ``data`` as the writer gives them, t first."""
    return [[str(t), *map(repr, row)] for t, row in enumerate(data.tolist(), 1)]


def _messy_csv(draw_text, header, rows):
    """Rows of cells as CSV with comments and blank lines between rows, CRLF
    or LF line ends and spaces or tabs around cells."""
    blank = st.sampled_from(["", "   ", "\t", "# note", "  # t,y,1,2"])
    pad = st.sampled_from(["", " ", "\t", "  "])
    end = draw_text(st.sampled_from(["\n", "\r\n"]))
    lines = [draw_text(blank) for _ in range(draw_text(st.integers(0, 2)))]
    lines.append(header)
    for cells in rows:
        lines += [draw_text(blank) for _ in range(draw_text(st.integers(0, 1)))]
        lines.append(",".join(f"{draw_text(pad)}{c}{draw_text(pad)}" for c in cells))
    return end.join(lines) + draw_text(st.sampled_from(["", end]))


FAULTS = ("short", "long", "empty", "bad")
# cells that float() and loadtxt both refuse, and that no strip turns into
# a comment line
BAD_CELLS = st.sampled_from(["x", "abc", "1.2.3", "--1", "0.5 # note", "1e", "0x1"])
# cells both read as a float that is not finite, refused after the parse
NON_FINITE_CELLS = st.sampled_from(["nan", "inf", "-inf"])


def _inject(draw_text, cells, fault):
    """``cells`` with one column-count, cell or non-finite fault."""
    cells = list(cells)
    if fault == "short":
        cells.pop()
    elif fault == "long":
        cells.append(repr(draw_text(FINITE)))
    else:
        j = draw_text(st.integers(0, len(cells) - 1))
        if fault == "empty":
            cells[j] = ""
        else:
            cells[j] = draw_text(BAD_CELLS if fault == "bad" else NON_FINITE_CELLS)
    return cells


def _header(lead, prefix, d):
    return ",".join(lead + [f"{prefix}{j}" for j in range(d)])


class TestCodecMatchesRowwiseReader:
    @given(data=table(st.integers(2, 7)), draw=st.data())
    def test_stream(self, data, draw):
        header = _header(["t", "y"], "z_", data.shape[1] - 1)
        text = _messy_csv(draw.draw, header, _cell_rows(data))
        want = rowwise_parse_csv(text, ["t", "y"], "z_")
        got = streams.stream_from_csv(text)
        assert got.Z.tobytes() == want[:, 2:].tobytes()
        assert got.y.tobytes() == want[:, 1].tobytes()

    @given(data=table(st.integers(1, 6)), draw=st.data())
    def test_path(self, data, draw):
        header = _header(["t"], "u_", data.shape[1])
        text = _messy_csv(draw.draw, header, _cell_rows(data))
        want = rowwise_parse_csv(text, ["t"], "u_")
        assert streams.path_from_csv(text).U.tobytes() == want[:, 1:].tobytes()

    # a non-finite cell in the t column is a t fault, and the referee's
    # message says so too
    @given(data=table(st.integers(2, 6)), fault=st.sampled_from(FAULTS + ("non-finite",)),
           draw=st.data())
    @pytest.mark.parametrize(
        "lead, prefix, read",
        [(["t", "y"], "z_", streams.stream_from_csv), (["t"], "u_", streams.path_from_csv)],
        ids=["stream", "truth"],
    )
    def test_one_fault_gives_the_referees_message(self, lead, prefix, read, data, fault, draw):
        rows = _cell_rows(data)
        t = draw.draw(st.integers(1, len(rows)), label="faulty row")
        rows[t - 1] = _inject(draw.draw, rows[t - 1], fault)
        d = data.shape[1] - (len(lead) - 1)  # data holds every column but t
        text = _messy_csv(draw.draw, _header(lead, prefix, d), rows)
        with pytest.raises(streams.StreamSpecError) as want:
            rowwise_parse_csv(text, lead, prefix)
        with pytest.raises(streams.StreamSpecError) as got:
            read(text)
        assert str(got.value) == str(want.value)
        assert str(want.value).startswith(f"CSV row {t}: ")

    # t faults and non-finite cells stay out: both are checked after the
    # parse, so one before a column or cell fault is not the one reported
    @given(
        data=table(st.integers(2, 6), max_rows=12).filter(lambda a: len(a) >= 2),
        faults=st.tuples(st.sampled_from(FAULTS), st.sampled_from(FAULTS)),
        draw=st.data(),
    )
    def test_of_two_faults_the_earlier_row_is_named(self, data, faults, draw):
        rows = _cell_rows(data)
        first = draw.draw(st.integers(1, len(rows) - 1), label="first faulty row")
        second = draw.draw(st.integers(first + 1, len(rows)), label="second faulty row")
        for t, fault in zip((first, second), faults):
            rows[t - 1] = _inject(draw.draw, rows[t - 1], fault)
        text = _messy_csv(draw.draw, _header(["t", "y"], "z_", data.shape[1] - 1), rows)
        with pytest.raises(streams.StreamSpecError) as want:
            rowwise_parse_csv(text, ["t", "y"], "z_")
        with pytest.raises(streams.StreamSpecError) as got:
            streams.stream_from_csv(text)
        assert str(got.value) == str(want.value)
        assert str(want.value).startswith(f"CSV row {first}: ")


def _long_rows(n, first=1):
    """``n`` stream rows ``t,y,z_0,z_1`` from t = ``first``, about 60 bytes each."""
    values = np.random.default_rng(first).standard_normal((n, 3)).tolist()
    return [",".join([str(t), *map(repr, row)]) for t, row in enumerate(values, first)]


# Past the first piece of either entry: row 1500 starts near byte 90,000.
LONG = 2000
FAR = 1500


def _long_text(rows, end="\n"):
    return "t,y,z_0,z_1" + end + end.join(rows) + end


def _with_row(t, row):
    rows = _long_rows(LONG)
    rows[t - 1] = row
    return rows


# Each text goes to both entries, the str entry and the file entry on its
# UTF-8 bytes: the arrays and the messages must be the same.
CORPUS = {
    "crlf": _long_text(_long_rows(LONG), "\r\n"),
    "lone-cr": _long_text(_long_rows(LONG), "\r"),
    # the file's first piece ends between the CR and the LF of a line end
    "crlf-cut-between": ("#" + "x" * (streams.CHUNK - 2) + "\r\n"
                         + _long_text(_long_rows(LONG), "\r\n")),
    "formfeed-between-cells": _long_text(_with_row(FAR, f"{FAR},0.5\x0c,0.1,0.2")),
    "formfeed-ending-a-row": _long_text(_with_row(FAR, f"{FAR},0.5,0.1,0.2\x0c")),
    "line-separator-in-a-row": _long_text(_with_row(FAR, f"{FAR},0.5,0.1\u2028,0.2")),
    "line-separator-ending-a-row": _long_text(_with_row(FAR, f"{FAR},0.5,0.1,0.2\u2028")),
    "comments-and-blanks-anywhere": "\n# c\n  \nt,y,z_0,z_1\n\n" + "\n# c\n\t\n".join(
        _long_rows(LONG)) + "\n# end\n\n",
    "no-final-newline": _long_text(_long_rows(LONG))[:-1],
    "ragged-far": _long_text(_with_row(FAR, f"{FAR},0.5,0.1")),
    "bad-t-far": _long_text(_with_row(FAR, f"{FAR + 1},0.5,0.1,0.2")),
    "bad-cell-far": _long_text(_with_row(FAR, f"{FAR},0.5,x,0.2")),
    "nan-far": _long_text(_with_row(FAR, f"{FAR},0.5,nan,0.2")),
    "short": "t,y,z_0,z_1\n1,0.5,0.1,0.2",
    "empty": "",
}


def _outcome(read):
    """The (Z, y) bits ``read()`` gives, or the message of its StreamSpecError."""
    try:
        stream = read()
    except streams.StreamSpecError as exc:
        return str(exc)
    return stream.Z.tobytes(), stream.y.tobytes()


class TestOneCorpusTwoEntries:
    @pytest.mark.parametrize("name", list(CORPUS))
    def test_the_entries_agree(self, tmp_path, capsys, name):
        text = CORPUS[name]
        path = tmp_path / "s.csv"
        path.write_bytes(text.encode("utf-8"))
        want = _outcome(lambda: streams.stream_from_csv(text))
        assert _outcome(lambda: streams.read_csv(path, "stream")) == want
        code = cli.main(["run-vaw", "--beta", "0.9", "--stream", str(path)])
        err = capsys.readouterr().err
        if isinstance(want, str):
            assert (code, err) == (1, f"error: stream: {path}: {want}\n")
        else:
            assert (code, err) == (0, "")

    def test_the_far_faults_lie_past_the_first_piece(self):
        assert len("\n".join(_long_rows(FAR - 1)).encode()) > streams.CHUNK
        for name in ("ragged-far", "bad-t-far", "bad-cell-far", "nan-far"):
            with pytest.raises(streams.StreamSpecError, match=f"^CSV row {FAR}: "):
                streams.stream_from_csv(CORPUS[name])

    @pytest.mark.parametrize("fault, offset", [
        (b"\xff", None), (b"\xe2\x80", None), (b"\xff", 9),
    ], ids=["far", "truncated-far", "in-the-header"])
    def test_a_byte_that_is_not_utf8_names_its_offset_in_the_file(self, tmp_path, capsys, fault,
                                                                   offset):
        # the decode fault wins over a CSV fault before it, as a whole read
        # of the file would have it, and its offset counts from the file's start
        body = _long_text(_with_row(3, "3,0.5,0.1")).encode()
        if offset is None:
            offset = len(body) - 100
        data = body[:offset] + fault + body[offset:]
        path = tmp_path / "s.csv"
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as want:
            data.decode("utf-8")
        with pytest.raises(UnicodeDecodeError) as got:
            streams.read_csv(path, "stream")
        assert want.value.start == offset and got.value.object[offset] == fault[0]
        assert (got.value.start, got.value.reason) == (want.value.start, want.value.reason)
        code = cli.main(["run-vaw", "--beta", "0.9", "--stream", str(path)])
        assert code == 1 and capsys.readouterr().err == (
            f"error: stream: cannot read {path}: not UTF-8 text "
            f"(byte 0x{fault[0]:02x} at offset {offset})\n")

    @given(st.text(alphabet="a,\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029#  ", max_size=60))
    def test_the_line_bound_bounds_the_lines(self, text):
        # a bound below the count would let loadtxt stop short of the last rows
        assert streams._line_bound(text) >= len(text.splitlines())


def _traced_peak(f) -> int:
    """tracemalloc peak, in bytes, of a second call of ``f``."""
    f()
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# One piece of input held at a time: its bytes, its str and its lines,
# with the rows loadtxt is parsing, under six times the 16 KiB of a piece
# (streams.CHUNK): about 80 KB measured, against 205 KB with 64 KiB pieces.
PIECE_BUDGET = 96 << 10


def block_budget(width):
    """One block of output, ``width`` floats a row: each float as a Python
    float in a list and a tuple, and its text as a str and encoded, under
    100 bytes a float."""
    return streams.BLOCK_ROWS * width * 100 + 16 * 1024


class TestCodecMemory:
    # A reader holds its result's arrays, and at a time one piece of its
    # input; a writer holds at a time one block of its output, and the
    # arrays it computes.  Neither grows otherwise from T = 4,000 to
    # 40,000, where the stream's text is 5 MB.  A reader that kept the
    # text or its lines, a parse array grown by over-allocation instead of
    # sized by the line bound, or a writer that joined its blocks breaks
    # the bound at 40,000.
    @pytest.mark.parametrize("T", [4000, 40000])
    @pytest.mark.parametrize("role", ["stream", "truth"])
    @pytest.mark.parametrize("entry", ["file", "str"])
    def test_a_reader_holds_its_arrays_and_a_piece(self, tmp_path, T, role, entry):
        d = 5
        s, truth = streams.gen_stream(streams.StreamSpec(d=d, T=T, segments=8, noise=0.1, seed=1))
        path = tmp_path / "in.csv"
        with path.open("w") as out:
            if role == "stream":
                streams.stream_to_csv(s, out, "c")
            else:
                streams.path_to_csv(truth, out, "c")
        text = path.read_text()
        from_text = {"stream": streams.stream_from_csv, "truth": streams.path_from_csv}[role]
        read = {"file": lambda: streams.read_csv(path, role), "str": lambda: from_text(text)}[entry]
        # the stream's parse array is its (T, d + 2) result; the truth's is
        # (T, d + 1), and its path a contiguous (T, d) copy
        arrays = 8 * T * (d + 2) if role == "stream" else 8 * T * (2 * d + 1)
        assert _traced_peak(read) <= arrays + PIECE_BUDGET

    @pytest.mark.parametrize("T", [4000, 40000])
    def test_a_writer_holds_a_block_and_its_arrays(self, tmp_path, T):
        s, steps = streams.gen_stream(streams.StreamSpec(d=5, T=T, segments=8, seed=1))
        _, rotating = streams.gen_stream(streams.StreamSpec(d=5, T=T, kind="rotating-target",
                                                            seed=1))
        ledger = regret.RegretLedger(s.y, 0.9, s.Z, s.y, "squared")
        trace = o2nc.O2ncTrace(scalings=s.y, delta_norms=o2nc._row_norms(s.Z),
                               grad_norms_at_xbar=s.y, dynreg_terms=s.y,
                               zero_comparators=0, final_index=0,
                               xbar_final=np.zeros(5))
        path = tmp_path / "out.csv"

        def peak(write):
            def run():
                with path.open("w") as out:
                    write(out)
            return _traced_peak(run)

        assert peak(lambda out: streams.stream_to_csv(s, out, "c")) <= block_budget(7)
        assert peak(lambda out: trace.to_csv(out, "c")) <= block_budget(5)
        assert peak(lambda out: streams.write_csv(["a", "b"], [s.y, s.y], out)) <= block_budget(3)
        # both routes first find the runs with a (T - 1, d) and a (T - 1,)
        # mask; the run writer then formats a row per run
        assert peak(lambda out: streams.path_to_csv(steps, out, "c")) <= 6 * T + block_budget(2)
        assert peak(lambda out: streams.path_to_csv(rotating, out, "c")) <= (
            6 * T + block_budget(6))
        # the trace computes its comparator losses, their difference from
        # the losses at play and its running sum
        assert peak(lambda out: regret.regret_trace_csv(ledger, steps, out, "c")) <= (
            3 * 8 * T + block_budget(4))
