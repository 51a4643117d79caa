import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from driftlearn import adam, cli, lemmas, linreg, logreg, o2nc, streams
import oracles


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def make_stream(capsys, tmp_path, name="s.csv", **kw):
    args = ["gen", "--out", str(tmp_path / name)]
    defaults = dict(d=2, T=40, segments=2, noise=0.05, seed=11)
    defaults.update(kw)
    for k, v in defaults.items():
        args += [f"--{k}", str(v)]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    return tmp_path / name


class TestUsage:
    def test_no_arguments_prints_usage_and_fails(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1
        assert "usage" in err

    def test_out_of_range_beta_names_the_key(self, capsys, tmp_path):
        stream = make_stream(capsys, tmp_path)
        code, _, err = run_cli(capsys, "run-vaw", "--beta", "1.5", "--stream", str(stream))
        assert code == 1
        assert "beta" in err and "1.5" in err

    def test_unknown_config_key_named(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus_key=3\n")
        code, _, err = run_cli(capsys, "verify-lemmas", "--config", str(cfg))
        assert code == 1
        assert "bogus_key" in err


class TestParserReuse:
    def test_second_call_sees_no_values_from_the_first(self, capsys, tmp_path):
        assert cli.build_parser() is cli.build_parser()
        first, second = tmp_path / "a.cfg", tmp_path / "b.cfg"
        code, _, _ = run_cli(
            capsys, "gen", "--d", "3", "--T", "25", "--noise", "0.1", "--seed", "9",
            "--out", str(tmp_path / "x.csv"), "--emit-config", str(first),
        )
        assert code == 0 and "d=3\n" in first.read_text()
        code, _, _ = run_cli(
            capsys, "gen", "--seed", "4", "--out", str(tmp_path / "y.csv"),
            "--emit-config", str(second),
        )
        assert code == 0
        emitted = dict(line.split("=", 1) for line in second.read_text().splitlines())
        defaults = {f.name: str(f.default) for f in cli.GEN_FIELDS if f.default is not None}
        assert {k: emitted[k] for k in defaults} == defaults
        assert emitted["seed"] == "4"

    def test_usage_error_after_a_success_is_one_error_line(self, capsys, tmp_path):
        make_stream(capsys, tmp_path)
        code, out, err = run_cli(capsys, "gen", "--d", "three", "--out", str(tmp_path / "z.csv"))
        assert code == 1 and out == ""
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "three" in errors[0]
        assert err.splitlines()[-1] == errors[0]


class TestConfigRoundTrip:
    def test_emit_then_parse_is_identical(self, capsys, tmp_path):
        first = tmp_path / "a.cfg"
        second = tmp_path / "b.cfg"
        code, _, _ = run_cli(
            capsys, "gen", "--d", "3", "--T", "25", "--seed", "9",
            "--noise", "0.1", "--out", str(tmp_path / "x.csv"),
            "--emit-config", str(first),
        )
        assert code == 0
        code, _, _ = run_cli(
            capsys, "gen", "--config", str(first), "--emit-config", str(second)
        )
        assert code == 0
        assert first.read_bytes() == second.read_bytes()

    def test_flags_override_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("instances=10\nseed=1\n")
        code, out, _ = run_cli(
            capsys, "verify-lemmas", "--config", str(cfg),
            "--only", "abel-sum", "--instances", "3",
        )
        assert code == 0
        assert json.loads(out)["verdicts"]["abel-sum"]["instances"] == 3


class TestGen:
    def test_writes_stream_and_truth(self, capsys, tmp_path):
        stream = make_stream(capsys, tmp_path)
        assert stream.exists()
        assert stream.with_suffix(".truth.csv").exists()
        header = stream.read_text().splitlines()
        assert header[0].startswith("#") and "seed=11" in header[0]
        assert header[1] == "t,y,z_0,z_1"


class TestRunVaw:
    def test_zero_noise_constant_stream_passes_bounds(self, capsys, tmp_path):
        stream = make_stream(capsys, tmp_path, noise=0.0, segments=1, T=60)
        out = tmp_path / "trace.csv"
        code, stdout, _ = run_cli(
            capsys, "run-vaw", "--beta", "0.9", "--lambda", "1.0",
            "--stream", str(stream), "--out", str(out),
        )
        summary = json.loads(stdout)
        assert code == 0
        assert all(summary["checks"].values())
        assert summary["dynamic_regret"] <= summary["bound_path_form"]
        assert out.exists()
        assert out.with_suffix(".summary.json").exists()
        lines = out.read_text().splitlines()
        assert lines[1] == "t,loss_play,loss_comp,cum_dynreg"

    def test_gamma_below_beta_names_the_key(self, capsys, tmp_path):
        stream = make_stream(capsys, tmp_path)
        code, _, err = run_cli(
            capsys, "run-vaw", "--beta", "0.9", "--gamma", "0.5",
            "--stream", str(stream),
        )
        assert code == 1 and "gamma" in err

    # A gamma is checked before the run: whether the stream has a truth path,
    # and so whether a bound is computed, does not decide it.  At beta = 1
    # run-vaw computes no bound that gamma could enter.
    @pytest.mark.parametrize("truth", [True, False], ids=["truth", "no-truth"])
    @pytest.mark.parametrize("argv, message", [
        (["run-vaw", "--beta", "0.9", "--gamma", "0.5"], "gamma: must be >= beta=0.9, got 0.5"),
        (["run-aioli", "--beta", "0.9", "--gamma", "0.5"], "gamma: must be >= beta=0.9, got 0.5"),
        (["run-vaw", "--beta", "1", "--gamma", "0.5"],
         "gamma: no gamma-bound is reported at beta=1; leave gamma out"),
        (["run-vaw", "--gamma", "0.95"],
         "gamma: no gamma-bound is reported at beta=1; leave gamma out"),
    ], ids=["vaw-below-beta", "aioli-below-beta", "vaw-beta-one", "vaw-default-beta"])
    def test_bad_gamma_fails_with_or_without_truth(self, capsys, tmp_path, truth, argv, message):
        kind = "piecewise-constant-target" if argv[0] == "run-vaw" else "logistic-drift"
        stream = make_stream(capsys, tmp_path, kind=kind)
        if not truth:
            stream.with_suffix(".truth.csv").unlink()
        code, stdout, err = run_cli(capsys, *argv, "--stream", str(stream))
        assert_one_error_line(code, err)
        assert err.splitlines()[-1] == f"error: {message}" and stdout == ""

    def test_undiscounted_run_reports_loss_only(self, capsys, tmp_path):
        stream = make_stream(capsys, tmp_path)
        code, stdout, _ = run_cli(
            capsys, "run-vaw", "--beta", "1.0", "--stream", str(stream)
        )
        assert code == 0
        assert "bound_path_form" not in json.loads(stdout)

    def test_trace_csv_agrees_with_summary(self, capsys, tmp_path):
        stream = make_stream(capsys, tmp_path, T=70, noise=0.2)
        out = tmp_path / "trace.csv"
        _, stdout, _ = run_cli(
            capsys, "run-vaw", "--beta", "0.8", "--stream", str(stream),
            "--out", str(out),
        )
        summary = json.loads(stdout)
        rows = [
            line.split(",") for line in out.read_text().splitlines()
            if line and not line.startswith(("#", "t,"))
        ]
        assert len(rows) == summary["T"]
        # the final cumulative column is the reported dynamic regret
        assert float(rows[-1][3]) == pytest.approx(summary["dynamic_regret"], rel=1e-12)
        total_play = sum(float(r[1]) for r in rows)
        assert total_play == pytest.approx(summary["cumulative_loss"], rel=1e-9)


class TestRunAioli:
    def test_logistic_run_passes_checks(self, capsys, tmp_path):
        stream = make_stream(
            capsys, tmp_path, name="lg.csv", kind="logistic-drift", d=3, T=80,
            noise=0.2, seed=3,
        )
        code, stdout, _ = run_cli(
            capsys, "run-aioli", "--beta", "0.9", "--stream", str(stream)
        )
        summary = json.loads(stdout)
        assert code == 0
        assert all(summary["checks"].values())
        assert summary["max_stationarity_residual"] <= 1e-9

    def test_saturated_optimism_root_does_not_overflow(self, capsys, tmp_path):
        stream = make_stream(
            capsys, tmp_path, kind="logistic-drift", d=6, T=279, segments=3,
            noise=0.3, seed=29,
        )
        code, stdout, err = run_cli(
            capsys, "run-aioli", "--beta", "0.5", "--lambda", "1", "--stream", str(stream)
        )
        assert code == 0, err
        assert all(json.loads(stdout)["checks"].values())

    def test_unconverged_optimism_root_is_one_error_line(
        self, capsys, tmp_path, monkeypatch
    ):
        stream = make_stream(capsys, tmp_path, name="lg.csv", kind="logistic-drift", d=3)
        monkeypatch.setattr(logreg, "ROOT_MAX_ITERS", 1)
        code, stdout, err = run_cli(capsys, "run-aioli", "--stream", str(stream))
        assert_one_error_line(code, err)
        assert "optimism root" in err and stdout == ""


def assert_one_error_line(code, err):
    assert code == 1
    assert "Traceback" not in err
    assert sum(line.startswith("error:") for line in err.splitlines()) == 1


class TestMalformedInput:
    @pytest.mark.parametrize(
        "text, fault",
        [
            ("t,y,z_0,z_1\n", "has a header but no rows"),
            ("t,y,z_0,z_1\n1,0.5,0.1\n2,0.5,0.2\n", "row 1: expected 4 columns"),
            ("t,y,z_0\n1,0.5,0.1\n3,0.5,0.2\n", "row 2: t must be 2"),
            ("t,y,z_0\n1,0.5,0.1\n2,0.5,0.2\n3,0.5\n4,0.5,0.1\n", "row 3: expected 3 columns"),
        ],
        ids=["header-only", "ragged", "t-gap", "ragged-row-3"],
    )
    def test_bad_stream_exits_one(self, capsys, tmp_path, text, fault):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        code, _, err = run_cli(capsys, "run-vaw", "--beta", "0.9", "--stream", str(bad))
        assert_one_error_line(code, err)
        assert f"error: stream: {bad}: CSV {fault}" in err

    # The usage banner belongs to argparse's own errors; a fault in a file's
    # contents is the error line alone.
    @pytest.mark.parametrize("text", ["a,b,c\n1,0.5,0.1\n", "t,y,z_0\n1,nan,0.1\n"],
                             ids=["bad-header", "nan-entry"])
    def test_a_content_fault_is_one_stderr_line(self, capsys, tmp_path, text):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        code, stdout, err = run_cli(capsys, "run-aioli", "--beta", "0.9", "--stream", str(bad))
        assert code == 1 and stdout == ""
        assert err.startswith(f"error: stream: {bad}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["run-aioli", "--bogus", "1"], ["run-aioli", "--beta", "x"]],
                             ids=["unknown-flag", "bad-float"])
    def test_an_argparse_error_keeps_the_banner(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert_one_error_line(code, err)
        lines = err.splitlines()
        assert lines[0].startswith("usage: driftlearn ") and lines[-1].startswith("error: ")

    def test_ragged_truth_exits_one_naming_the_file_and_row(self, capsys, tmp_path):
        stream = make_stream(capsys, tmp_path, name="s.csv")
        bad = tmp_path / "bad.truth.csv"
        bad.write_text("t,u_0,u_1\n1,0.5,0.1\n2,0.5,0.1,0.2\n3,0.5,0.1\n")
        code, _, err = run_cli(capsys, "run-vaw", "--beta", "0.9", "--stream", str(stream),
                               "--truth", str(bad))
        assert_one_error_line(code, err)
        assert f"error: truth: {bad}: CSV row 2: expected 3 columns, got 4" in err

    # a comparator at infinity on the side of every label once gave
    # run-ensemble a finite dynamic regret and exit 0, and a nan comparator
    # ended run-vaw blaming the dynamic_regret it computed from it
    @pytest.mark.parametrize("command, rows, fault", [
        ("run-ensemble", ["-inf,inf", "-inf,inf", "inf,inf", "inf,-inf"], "row 1: entries must "
         "be finite, got -inf"),
        ("run-vaw", ["0,0", "0,0", "nan,0", "0,0"], "row 3: entries must be finite, got nan"),
    ], ids=["inf-ensemble", "nan-vaw"])
    def test_non_finite_truth_exits_one_naming_the_row(self, capsys, tmp_path, command, rows,
                                                        fault):
        stream = make_stream(capsys, tmp_path, kind="logistic-drift", d=2, T=4, segments=1,
                             noise=0.0, seed=3)
        truth = stream.with_suffix(".truth.csv")
        truth.write_text("t,u_0,u_1\n" + "".join(f"{t},{r}\n" for t, r in enumerate(rows, 1)))
        out = tmp_path / "o.csv"
        code, stdout, err = run_cli(capsys, command, "--stream", str(stream), "--out", str(out))
        assert_one_error_line(code, err)
        assert err == f"error: truth: {truth}: CSV {fault}\n" and stdout == ""
        assert not out.exists() and not out.with_suffix(".summary.json").exists()

    @pytest.mark.parametrize("other", [dict(d=3), dict(T=30)], ids=["d", "T"])
    def test_truth_shape_mismatch_exits_one(self, capsys, tmp_path, other):
        stream = make_stream(capsys, tmp_path, name="s.csv")
        wrong = make_stream(capsys, tmp_path, name="w.csv", **other)
        code, _, err = run_cli(
            capsys, "run-vaw", "--beta", "0.9", "--stream", str(stream),
            "--truth", str(wrong.with_suffix(".truth.csv")),
        )
        assert_one_error_line(code, err)
        assert "(T=40, d=2)" in err

    @pytest.mark.parametrize("command", ["run-vaw", "run-aioli", "run-ensemble"])
    @pytest.mark.parametrize("role", ["stream", "truth"])
    def test_missing_input_exits_one(self, capsys, tmp_path, role, command):
        # only the sibling *.truth.csv is optional; a named --truth must be read
        stream = make_stream(capsys, tmp_path, name="s.csv", kind="logistic-drift")
        missing = tmp_path / "nope.csv"
        argv = [command, "--stream", str(missing if role == "stream" else stream)]
        if role == "truth":
            argv += ["--truth", str(missing)]
        code, stdout, err = run_cli(capsys, *argv)
        assert_one_error_line(code, err)
        assert f"error: {role}: cannot read {missing}:" in err and stdout == ""

    @pytest.mark.parametrize("role", ["stream", "truth", "config"])
    def test_non_utf8_input_names_the_file(self, capsys, tmp_path, role):
        stream = make_stream(capsys, tmp_path, name="s.csv")
        bad = {"stream": stream, "truth": stream.with_suffix(".truth.csv"),
               "config": tmp_path / "run.cfg"}[role]
        bad.write_bytes(b"t,y,z_0,z\xff\n1,0.5,0.1,0.2\n")  # 0xff at offset 9
        argv = ["run-vaw", "--beta", "0.9", "--stream", str(stream)]
        if role == "config":
            argv += ["--config", str(bad)]
        code, _, err = run_cli(capsys, *argv)
        assert_one_error_line(code, err)
        assert f"error: {role}: cannot read {bad}: not UTF-8 text (byte 0xff at offset 9)" in err


class TestNonFiniteParameters:
    @pytest.mark.parametrize(
        "argv, field",
        [
            (["run-vaw", "--lambda", "inf"], "lam"),
            (["run-aioli", "--lambda", "inf"], "lam"),
            (["run-ensemble", "--lambda", "inf"], "lam"),
            (["run-o2nc", "--sigma", "inf", "--T", "5"], "sigma"),
            (["run-vaw", "--beta", "nan"], "beta"),
        ],
    )
    def test_rejected_with_one_error_line_naming_the_field(
        self, capsys, tmp_path, argv, field
    ):
        kind = "piecewise-constant-target" if argv[0] == "run-vaw" else "logistic-drift"
        stream = make_stream(capsys, tmp_path, kind=kind)
        if argv[0] != "run-o2nc":
            argv = argv + ["--stream", str(stream)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, err = run_cli(capsys, *argv)
        assert_one_error_line(code, err)
        assert f"error: {field}:" in err and stdout == ""
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestSeedsAndOverflow:
    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--seed", "-1"],
            ["gen", "--seed", str(2**64)],
            ["run-o2nc", "--seed", "-1", "--T", "5"],
            ["run-o2nc", "--objective", "maxaffine", "--seed", "-1", "--T", "5"],
            ["verify-lemmas", "--seed", "-1", "--instances", "2"],
        ],
    )
    def test_seed_outside_uint64_is_one_error_line(self, capsys, tmp_path, argv):
        if argv[0] == "gen":
            argv = argv + ["--out", str(tmp_path / "s.csv")]
        code, stdout, err = run_cli(capsys, *argv)
        assert_one_error_line(code, err)
        assert "error: seed must lie in [0, 2**64)" in err and stdout == ""
        assert not list(tmp_path.iterdir())

    def test_largest_seed_is_accepted(self, capsys, tmp_path):
        code, stdout, _ = run_cli(
            capsys, "gen", "--T", "3", "--seed", str(2**64 - 1),
            "--out", str(tmp_path / "s.csv"),
        )
        assert code == 0 and json.loads(stdout)["seed"] == 2**64 - 1

    def test_unparsable_seed_env_var_is_named(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "seven")
        code, stdout, err = run_cli(capsys, "gen", "--out", str(tmp_path / "s.csv"))
        assert_one_error_line(code, err)
        assert f"error: {cli.SEED_ENV_VAR}:" in err and "'seven'" in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--R", "1e308", "--d", "3", "--T", "5"],
            ["--R", "1e308", "--kind", "rotating-target", "--d", "3", "--T", "50"],
            ["--noise", "1e308", "--T", "50"],
        ],
        ids=["R", "R-rotating", "noise"],
    )
    def test_overflowing_stream_is_one_error_line_without_warning(
        self, capsys, tmp_path, flags
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, err = run_cli(
                capsys, "gen", *flags, "--seed", "1", "--out", str(tmp_path / "s.csv")
            )
        assert_one_error_line(code, err)
        assert "error: stream entries must be finite" in err and stdout == ""
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    # finite entries whose squares or products overflow inside a learner, and
    # features so badly scaled that the surrogate statistics cannot be solved
    ILL_SCALED = (
        "t,y,z_0,z_1,z_2\n"
        "1,1.0,-4.725876767584841e+26,5.863372815313004e+26,-6.63535198304047e+26\n"
        "2,-1.0,-6.134178486140281e+21,-1.6051493968851136e+22,7.293494040178567e+21\n"
    )

    @pytest.mark.parametrize(
        "argv, text, message",
        [
            (["run-vaw", "--beta", "0.9"], "t,y,z_0\n1,1e160,1e-200\n2,1.0,1.0\n",
             "discounted statistics overflowed; rescale the stream"),
            (["run-aioli"], "t,y,z_0\n1,1.0,1e200\n2,1.0,1.0\n",
             "surrogate statistics overflowed at round 1 for beta=0.9; "
             "use a larger beta or rescale the stream"),
            (["run-ensemble", "--betas", "0.5,0.9"], "t,y,z_0\n1,1.0,1e200\n2,1.0,1.0\n",
             "surrogate statistics overflowed at round 1 for beta=0.5; "
             "use a larger beta or rescale the stream"),
            (["run-aioli"], ILL_SCALED,
             "surrogate statistics are ill-conditioned at round 2 for beta=0.9; "
             "use a larger beta or rescale the stream"),
            (["run-ensemble", "--betas", "0.5,0.9"], ILL_SCALED,
             "surrogate statistics are ill-conditioned at round 2 for beta=0.5; "
             "use a larger beta or rescale the stream"),
            # A_2 = 1e-323 is positive but subnormal, and LU once took its
            # reciprocal as inf
            (["run-vaw", "--beta", "5e-324"], "t,y,z_0\n1,1,1\n2,0,0\n",
             "regularized Gram matrix is numerically singular (lam*beta^t underflowed "
             "against a rank-deficient history); use a larger lambda or a shorter horizon"),
        ],
        ids=["vaw-label", "aioli-feature", "ensemble-feature",
             "aioli-ill-scaled", "ensemble-ill-scaled", "vaw-subnormal-pivot"],
    )
    def test_overflow_in_the_learner_is_one_error_line_without_warning(
        self, capsys, tmp_path, argv, text, message
    ):
        stream = tmp_path / "huge.csv"
        stream.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, err = run_cli(capsys, *argv, "--stream", str(stream))
        assert_one_error_line(code, err)
        assert err == f"error: {message}\n" and stdout == ""
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    # lam beta I + z z' of this stream rounds to a matrix singular to LU,
    # yet it has a Cholesky factor, and run-vaw gives the exact answer:
    # yhat 0, so the loss 5e79 equals the zero comparator's, and the
    # stability term y^2 z'A^{-1}z rounds to 1e80, the modular right-hand
    # side of a one-round path at u = 0
    def test_vaw_ill_scaled_stream_runs_to_the_exact_answer(self, capsys, tmp_path):
        stream = tmp_path / "huge.csv"
        stream.write_text("t,y,z_0,z_1\n1,-1e40,-1e40,-1e40\n")
        stream.with_suffix(".truth.csv").write_text("t,u_0,u_1\n1,0.0,0.0\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, err = run_cli(capsys, "run-vaw", "--beta", "0.99",
                                        "--stream", str(stream))
        assert (code, err) == (0, "")
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        summary = json.loads(stdout)
        assert (summary["cumulative_loss"], summary["dynamic_regret"],
                summary["modular_rhs"]) == (5e79, 0.0, 1e80)
        assert all(summary["checks"].values())

    # A tiny AIOLI discount underflows lam beta^t: the message names the round
    # and the failing expert's beta, and a larger beta, which it advises, runs.
    @pytest.mark.parametrize("stream_kw, argv, message, larger", [
        ({}, ["run-aioli", "--beta", "1e-20"],
         "surrogate curvature matrix is numerically indefinite at round 1 for beta=1e-20; "
         "use a larger beta or lambda", ["run-aioli", "--beta", "1e-4"]),
        ({}, ["run-aioli", "--beta", "1e-20", "--lambda", "1e100"],
         "surrogate curvature matrix is numerically indefinite at round 6 for beta=1e-20; "
         "use a larger beta or lambda", ["run-aioli", "--beta", "1e-4", "--lambda", "1e100"]),
        ({}, ["run-ensemble", "--betas", "1e-20,0.9"],
         "surrogate curvature matrix is numerically indefinite at round 1 for beta=1e-20; "
         "use a larger beta or lambda", ["run-ensemble", "--betas", "1e-4,0.9"]),
        ({}, ["run-aioli", "--beta", "1e-320"],
         "surrogate statistics overflowed at round 1 for beta=1e-320; "
         "use a larger beta or rescale the stream", ["run-aioli", "--beta", "1e-4"]),
        (dict(d=3, T=1200, segments=4, noise=0.2, seed=1), ["run-aioli", "--beta", "1e-6"],
         "surrogate statistics are ill-conditioned at round 159 for beta=1e-06; "
         "use a larger beta or rescale the stream", ["run-aioli", "--beta", "1e-5"]),
    ], ids=["indefinite", "indefinite-large-lambda", "ensemble-indefinite", "overflow",
            "ill-conditioned"])
    def test_tiny_discount_names_round_and_beta(
        self, capsys, tmp_path, stream_kw, argv, message, larger
    ):
        kw = dict(d=2, T=30, segments=2, noise=0.0, seed=1) | stream_kw
        stream = make_stream(capsys, tmp_path, kind="logistic-drift", **kw)
        code, stdout, err = run_cli(capsys, *argv, "--stream", str(stream))
        assert_one_error_line(code, err)
        assert err == f"error: {message}\n" and stdout == ""
        code, _, _ = run_cli(capsys, *larger, "--stream", str(stream))
        assert code == 0

    # In round 2, q (about 1e76) is far above |p| (about 5e37), and the root
    # is about 1e-38.  The feature 1e38 breaks the bound's R = 1, so
    # run-aioli's checks fail.
    @pytest.mark.parametrize("argv, expected", [(["run-aioli"], 2), (["run-ensemble"], 0)])
    def test_root_with_q_far_above_p_is_found(self, capsys, tmp_path, argv, expected):
        stream = tmp_path / "s.csv"
        stream.write_text("t,y,z_0\n1,1.0,1.0\n2,1.0,1e38\n3,1.0,1.0\n")
        code, stdout, err = run_cli(capsys, *argv, "--stream", str(stream))
        assert (code, err) == (expected, "")
        json.loads(stdout)


class TestRunEnsemble:
    def test_grid_pool_meta_regret_within_log_n(self, capsys, tmp_path):
        stream = make_stream(
            capsys, tmp_path, name="lg.csv", kind="logistic-drift", d=2, T=60,
            noise=0.3, seed=5,
        )
        code, stdout, _ = run_cli(capsys, "run-ensemble", "--stream", str(stream))
        summary = json.loads(stdout)
        assert code == 0
        assert summary["meta_regret"] <= math.log(summary["n_experts"]) + 1e-9
        assert all(summary["checks"].values())

    def test_explicit_pool_validated(self, capsys, tmp_path):
        stream = make_stream(
            capsys, tmp_path, name="lg.csv", kind="logistic-drift", seed=5
        )
        code, _, err = run_cli(
            capsys, "run-ensemble", "--stream", str(stream), "--betas", "0.5,1.2"
        )
        assert code == 1 and "betas" in err


    @pytest.mark.parametrize(
        "flags",
        [["--grid", "false"], ["--betas", ""], ["--betas", "0.5,,0.9"]],
        ids=["grid-false-without-pool", "empty-pool", "empty-entry"],
    )
    def test_no_pool_is_a_usage_error(self, capsys, tmp_path, flags):
        stream = make_stream(
            capsys, tmp_path, name="lg.csv", kind="logistic-drift", seed=5
        )
        code, stdout, err = run_cli(
            capsys, "run-ensemble", "--stream", str(stream), *flags
        )
        assert_one_error_line(code, err)
        assert stdout == ""

    def test_unconverged_optimism_root_is_one_error_line(
        self, capsys, tmp_path, monkeypatch
    ):
        stream = make_stream(capsys, tmp_path, name="lg.csv", kind="logistic-drift", d=3)
        monkeypatch.setattr(logreg, "ROOT_MAX_ITERS", 1)
        code, stdout, err = run_cli(capsys, "run-ensemble", "--stream", str(stream))
        assert_one_error_line(code, err)
        assert "optimism root" in err and stdout == ""

    def test_mixability_reads_the_mixture_played(self, capsys, tmp_path, monkeypatch):
        # predictions shifted off the mixture fail the check; the losses
        # stay, so meta_regret_le_ln_n still holds.  The shift happens in
        # the check hook, where cli hands each chunk's mixture to lemmas.
        stream = make_stream(capsys, tmp_path, name="lg.csv", kind="logistic-drift", seed=5)
        run_ensemble = logreg.run_ensemble

        def shifted(*args):
            *args, check = args
            return run_ensemble(*args, lambda rows, mix, yhats, p: check(rows, mix + 1.0, yhats, p))

        monkeypatch.setattr(logreg, "run_ensemble", shifted)
        code, stdout, err = run_cli(capsys, "run-ensemble", "--stream", str(stream))
        assert (code, err) == (2, "")
        checks = json.loads(stdout)["checks"]
        assert checks == {"meta_regret_le_ln_n": True, "mixability_every_round": False}

    def test_dynamic_regret_is_mixture_minus_truth_losses(self, capsys, tmp_path):
        stream = make_stream(
            capsys, tmp_path, name="lg.csv", kind="logistic-drift", d=2, T=60,
            noise=0.3, seed=5,
        )
        truth = stream.with_suffix(".truth.csv")
        code, stdout, _ = run_cli(
            capsys, "run-ensemble", "--stream", str(stream), "--truth", str(truth),
            "--betas", "0.6,0.9",
        )
        assert code == 0
        data = streams.stream_from_csv(stream.read_text())
        path = streams.path_from_csv(truth.read_text())
        run = logreg.run_ensemble(data, [0.6, 0.9], lam=1.0, B=1.0, R=1.0)
        comp = sum(
            oracles.logistic_loss(float(data.Z[t] @ path[t]), data.y[t])
            for t in range(data.T)
        )
        assert json.loads(stdout)["dynamic_regret"] == float(run.mix_losses.sum() - comp)


# B*B underflows to 0 (1/B^2 once divided by zero) or overflows (1/B^2 is 0)
DEFAULT_LAM_OUTSIDE_THE_FLOATS = [
    [command, "--B", B, *pool]
    for B in ("1e-200", "1e300")
    for command, pool in (("run-aioli", []), ("run-ensemble", []),
                          ("run-ensemble", ["--betas", "0.5,0.9"]))
]
LOGISTIC_STREAM = "t,y,z_0\n1,1.0,0.5\n2,-1.0,0.25\n"
# the grid's C*B overflows, so eta_min is 0 (log2(eta_max/eta_min) once divided by zero)
GRID_ETA_MIN_ZERO = ["run-ensemble", "--B", "1.0e308", "--lam", "1"]
# eta_min is about 7e99, so the pool's one discount eta/(1+eta) rounds to 1
GRID_DISCOUNT_ONE = ["run-ensemble", "--B", "1e-200", "--lam", "1"]
B_CASES = [(argv, LOGISTIC_STREAM, None)
           for argv in [*DEFAULT_LAM_OUTSIDE_THE_FLOATS, GRID_ETA_MIN_ZERO, GRID_DISCOUNT_ONE]]


class TestDefaultLam:
    @pytest.mark.parametrize("argv", DEFAULT_LAM_OUTSIDE_THE_FLOATS)
    def test_default_lam_outside_the_floats_names_b(self, capsys, tmp_path, argv):
        stream = tmp_path / "s.csv"
        stream.write_text(LOGISTIC_STREAM)
        code, stdout, err = run_cli(capsys, *argv, "--stream", str(stream))
        assert_one_error_line(code, err)
        assert err == (f"error: B: the default lam = 1/B^2 is not a positive finite float"
                       f" at B={float(argv[2])!r}\n") and stdout == ""

    def test_grid_eta_min_outside_the_floats_names_b(self, capsys, tmp_path):
        stream = tmp_path / "s.csv"
        stream.write_text(LOGISTIC_STREAM)
        code, stdout, err = run_cli(capsys, *GRID_ETA_MIN_ZERO, "--stream", str(stream))
        assert_one_error_line(code, err)
        assert err == "error: B: eta_min is not a positive finite float at B=1e+308, R=1.0\n"
        assert stdout == ""

    def test_grid_discount_that_rounds_to_one_names_b(self, capsys, tmp_path):
        stream = tmp_path / "s.csv"
        stream.write_text(LOGISTIC_STREAM)
        code, stdout, err = run_cli(capsys, *GRID_DISCOUNT_ONE, "--stream", str(stream))
        assert_one_error_line(code, err)
        assert err == ("error: B: the pool discount eta/(1+eta) rounds to 1 at "
                       "eta=7.071067811865475e+99, B=1e-200, R=1.0\n")
        assert stdout == ""

    @pytest.mark.parametrize("argv", [["run-aioli"], ["run-ensemble", "--betas", "0.5,0.9"]])
    def test_explicit_lam_needs_no_default(self, capsys, tmp_path, argv):
        stream = tmp_path / "s.csv"
        stream.write_text(LOGISTIC_STREAM)
        code, stdout, err = run_cli(
            capsys, *argv, "--B", "1e-200", "--lam", "1", "--stream", str(stream))
        assert (code, err) == (0, "")
        assert json.loads(stdout)["lam"] == 1.0


class TestRunO2nc:
    def test_short_run_summary(self, capsys, tmp_path):
        out = tmp_path / "o.csv"
        code, stdout, _ = run_cli(
            capsys, "run-o2nc", "--variant", "clipped", "--objective", "quadratic",
            "--dim", "4", "--T", "300", "--seed", "6", "--eps", "0.3",
            "--c", "0.1", "--G", "1.0", "--sigma", "0.1", "--out", str(out),
        )
        summary = json.loads(stdout)
        assert code == 0
        assert summary["checks"]["delta_norm_le_D"]
        assert out.read_text().splitlines()[1] == "t,s_t,||delta||,||grad_at_xbar||,dynreg_term"

    def test_clipfree_variant_runs(self, capsys, tmp_path):
        code, stdout, _ = run_cli(
            capsys, "run-o2nc", "--variant", "clipfree", "--dim", "3", "--T", "200",
            "--seed", "1", "--eps", "0.3", "--c", "0.1",
        )
        assert code == 0
        assert json.loads(stdout)["tuning"]["mu"] > 0

    @pytest.mark.parametrize("eps", ["1e-8", "1e-200"])
    def test_eps_that_rounds_beta1_to_one_is_infeasible(self, capsys, eps):
        code, stdout, err = run_cli(
            capsys, "run-o2nc", "--T", "5", "--dim", "2", "--eps", eps, "--seed", "1"
        )
        assert_one_error_line(code, err)
        assert f"error: tuning infeasible: eps={float(eps)} too small" in err
        assert stdout == ""

    def test_far_start_point_has_a_finite_value(self, capsys):
        code, stdout, err = run_cli(
            capsys, "run-o2nc", "--x0-scale", "1e160", "--T", "5", "--seed", "1", "--dim", "3"
        )
        summary = json.loads(stdout)
        assert code == 0 and err == ""
        assert summary["tuning"]["Fstar"] == 1e160 - 0.5
        assert summary["grad_norm_at_x0"] == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("flags, reason", [
        (["--G", "1.0e155"], "G+sigma=1e+155 too large"),
        (["--eps", "1e-217", "--G", "1e-212", "--sigma", "0", "--nu", "1e-212"],
         "eps=1e-217 too small: eps**1.5 underflows"),
    ])
    def test_unrepresentable_tuning_is_one_error_line(self, capsys, flags, reason):
        # the first once overflowed the oracle's gradient norm, the second
        # divided by eps**1.5 = 0
        code, stdout, err = run_cli(
            capsys, "run-o2nc", "--T", "1", "--dim", "1", "--seed", "0", *flags)
        assert_one_error_line(code, err)
        assert f"error: tuning infeasible: {reason}" in err and stdout == ""

    def test_huge_scale_reaches_the_tuner_without_warning(self, capsys):
        code, stdout, err = run_cli(
            capsys, "run-o2nc", "--eps", "1e299", "--c", "1", "--G", "1e300", "--sigma", "0",
            "--Fstar", "1", "--nu", "1e300", "--T", "5",
        )
        assert_one_error_line(code, err)
        assert "error: tuning infeasible: eps=1e+299 too large: eps**1.5 overflows" in err
        assert stdout == ""

    def test_clipfree_nan_term_is_one_error_line_without_output(self, capsys, tmp_path):
        # g_1.u_1 and |u_1|^2 overflow, and the term is inf - inf
        out = tmp_path / "o.csv"
        code, stdout, err = run_cli(capsys, *CLIPFREE_NAN_TERM, "--out", str(out))
        assert_one_error_line(code, err)
        assert err == "error: round 1: the dynamic-regret term is nan (its products overflow)\n"
        assert stdout == "" and not out.exists() and not out.with_suffix(".summary.json").exists()


class TestTuneAdam:
    def test_report_satisfies_resubstitution(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "tune-adam", "--variant", "clipped", "--eps", "0.16", "--c", "1",
            "--G", "0.5", "--sigma", "0.5", "--Fstar", "1", "--nu", "1",
        )
        rep = json.loads(stdout)
        assert code == 0
        assert rep["feasible"] and rep["checks"]["resubstitution"]
        assert rep["beta1"] == pytest.approx(0.9999)

    def test_margin_variant_via_rho(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "tune-adam", "--variant", "clipfree", "--eps", "0.2", "--c", "1",
            "--G", "1", "--sigma", "0.1", "--fstar", "1", "--nu", "0.5",
            "--rho", "0.473",
        )
        rep = json.loads(stdout)
        assert code == 0 and rep["margin"] is not None

    @pytest.mark.parametrize("flags", [[], ["--rho", "0.5"], ["--variant", "clipfree"]])
    def test_tiny_eps_is_an_infeasible_report(self, capsys, flags):
        code, stdout, err = run_cli(
            capsys, "tune-adam", "--eps", "1e-7", "--c", "1", "--G", "1",
            "--sigma", "0.1", "--Fstar", "1", "--nu", "0.5", *flags,
        )
        rep = json.loads(stdout)
        assert code == 0 and err == ""
        assert not rep["feasible"] and rep["reason"].startswith("eps=1e-07 too small")
        assert rep["beta1"] is None and rep["T_min"] is None  # NaN placeholders
        assert rep["checks"]["resubstitution"]

    def test_eps_whose_power_overflows_is_an_infeasible_report(self, capsys):
        code, stdout, err = run_cli(
            capsys, "tune-adam", "--eps", "1e299", "--c", "1", "--G", "1e300",
            "--sigma", "0", "--Fstar", "1", "--nu", "1e300",
        )
        assert code == 0 and err == ""
        assert json.loads(stdout)["reason"] == "eps=1e+299 too large: eps**1.5 overflows"


class TestStrictJson:
    @pytest.mark.parametrize(
        "argv, field",
        [
            (["tune-adam", "--c", "1", "--G", "1", "--sigma", "0.1", "--nu", "0.5",
              "--eps", "0.1"], "T_min"),
            (["run-o2nc", "--T", "5", "--dim", "2", "--seed", "1"], "tuning.T_min"),
        ],
    )
    def test_infinite_field_is_one_error_line(self, capsys, tmp_path, argv, field):
        out = tmp_path / "rep.json"
        code, stdout, err = run_cli(capsys, *argv, "--Fstar", "1e308", "--out", str(out))
        assert_one_error_line(code, err)
        assert err.startswith(f"error: {field}: inf has no JSON form") and stdout == ""
        # tune-adam writes its report to --out; run-o2nc its trace and the summary
        assert not out.exists() and not out.with_suffix(".summary.json").exists()

    @pytest.mark.parametrize("argv", [
        ["tune-adam", "--eps", "0.16", "--c", "1", "--G", "0.5", "--sigma", "0.5",
         "--Fstar", "1", "--nu", "1"],
        ["run-o2nc", "--T", "5", "--dim", "2", "--seed", "1"],
    ])
    def test_unwritable_out_is_one_error_line_without_output(self, capsys, tmp_path, argv):
        code, stdout, err = run_cli(capsys, *argv, "--out", str(tmp_path / "no" / "o.json"))
        assert_one_error_line(code, err)
        assert "No such file or directory" in err and stdout == ""

    def test_none_is_null_and_non_finite_floats_name_their_field(self):
        assert cli._jsonable({"a": [1.0, None], "b": {"c": 2}}) == {
            "a": [1.0, None], "b": {"c": 2}}
        with pytest.raises(ValueError, match=r"^b\.c\[1\]: -inf has no JSON form"):
            cli._jsonable({"a": 1.0, "b": {"c": [0.0, -math.inf]}})
        with pytest.raises(ValueError, match=r"^a\[1\]: nan has no JSON form"):
            cli._jsonable({"a": [1.0, math.nan], "b": {"c": 2}})


class TestVerifyLemmas:
    def test_default_exit_zero_all_passing(self, capsys):
        code, stdout, _ = run_cli(capsys, "verify-lemmas", "--instances", "40", "--seed", "2")
        payload = json.loads(stdout)
        assert code == 0
        assert set(payload["verdicts"]) == set(payload["checks"])
        assert all(payload["checks"].values())

    def test_only_filter(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "verify-lemmas", "--only", "mixability", "--instances", "10"
        )
        assert code == 0
        assert list(json.loads(stdout)["verdicts"]) == ["mixability"]


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


# Stream entries across the whole float range: 0 or +-[1, 1.8) * 10^k, as text.
ENTRY = st.one_of(
    st.just("0"),
    st.builds(
        lambda sign, m, k: f"{sign}{m!r}e{k}",
        st.sampled_from(["", "-"]), st.floats(1.0, 1.8, exclude_max=True),
        st.integers(-308, 308),
    ),
)


# A positive parameter across the whole float range: [1, 1.8) * 10^k, as text.
MAGNITUDE = st.builds(
    lambda m, k: f"{m!r}e{k}", st.floats(1.0, 1.8, exclude_max=True), st.integers(-308, 308)
)
O2NC_PARAMETERS = {
    "eps": MAGNITUDE, "c": MAGNITUDE, "G": MAGNITUDE, "Fstar": MAGNITUDE, "nu": MAGNITUDE,
    "sigma": st.one_of(st.just("0"), MAGNITUDE),
    "rho": st.one_of(st.just("0"), st.floats(0.0, 1.0, exclude_max=True).map(repr),
                     MAGNITUDE.filter(lambda text: float(text) < 1.0)),
}


# A discount in (0, 1), or any positive magnitude
DISCOUNT = st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).map(repr), MAGNITUDE)
LEARNER_FLAGS = {
    "run-vaw": {"beta": DISCOUNT, "lam": MAGNITUDE, "gamma": DISCOUNT},
    "run-aioli": {"beta": DISCOUNT, "lam": MAGNITUDE, "gamma": DISCOUNT,
                  "B": MAGNITUDE, "R": MAGNITUDE},
    "run-ensemble": {"lam": MAGNITUDE, "B": MAGNITUDE, "R": MAGNITUDE,
                     "betas": st.lists(DISCOUNT, min_size=1, max_size=3).map(",".join)},
}


@st.composite
def stream_commands(draw):
    """A stream-reading subcommand with a drawn subset of its learner flags,
    a stream for it and maybe a truth path: d 1-3, T 1-6, labels +-1 for the
    logistic learners and any entry for VAW and the comparators.  The
    truth text is None when not drawn."""
    command = draw(st.sampled_from(list(LEARNER_FLAGS)))
    argv = [command]
    for name, values in LEARNER_FLAGS[command].items():
        if draw(st.booleans()):
            argv += [f"--{name}", draw(values)]
    d, T = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    label = ENTRY if command == "run-vaw" else st.sampled_from(["1.0", "-1.0"])

    def table(first, cells):
        lines = [",".join(["t", *first, *(f"{cells}_{i}" for i in range(d))])]
        for t in range(1, T + 1):
            row = [draw(label) for _ in first] + [draw(ENTRY) for _ in range(d)]
            lines.append(",".join([str(t), *row]))
        return "\n".join(lines) + "\n"

    text = table(["y"], "z")
    return argv, text, table([], "u") if draw(st.booleans()) else None


@st.composite
def tuning_commands(draw):
    """run-o2nc or tune-adam with both variants and, for run-o2nc, every
    objective, dim 1-3 and T 1-4.  tune-adam takes every parameter and
    run-o2nc a drawn subset (the rest keep their defaults); rho is set or not
    on both, and run-o2nc may set --x0-scale too."""
    command = draw(st.sampled_from(["run-o2nc", "tune-adam"]))
    argv = [command, "--variant", draw(st.sampled_from(["clipped", "clipfree"]))]
    names = ["eps", "c", "G", "sigma", "Fstar", "nu"]
    if command == "run-o2nc":
        argv += ["--objective", draw(st.sampled_from(["quadratic", "norm", "maxaffine"])),
                 "--dim", str(draw(st.integers(1, 3))), "--T", str(draw(st.integers(1, 4))),
                 "--seed", str(draw(st.integers(0, 2**32)))]
        names = [n for n in names if draw(st.booleans())]
        if draw(st.booleans()):
            argv += ["--x0-scale", draw(st.one_of(st.just("0"), MAGNITUDE))]
    if draw(st.booleans()):
        names.append("rho")
    for name in names:
        argv += [f"--{name}", draw(O2NC_PARAMETERS[name])]
    return argv


def _holds_null(value) -> bool:
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return any(map(_holds_null, value))
    return value is None


def assert_clean_exit(capsys, argv, out):
    """Exit 1 is one error line and leaves no file behind; exits 0 and 2
    print strict JSON and nothing on stderr, and a stream command's summary
    holds no null (every field of it is computed).  ``out`` None runs
    without ``--out``."""
    written = []
    if out is not None:
        written = [out, out.with_suffix(".summary.json")]
        for path in written:
            path.unlink(missing_ok=True)
        argv = [*argv, "--out", str(out)]
    code, stdout, err = run_cli(capsys, *argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert_one_error_line(code, err)
        assert "optimism root" not in err and stdout == ""
        assert not any(path.exists() for path in written)
    else:
        assert err == ""
        summary = json.loads(stdout, parse_constant=_reject_constant)
        assert not (argv[0] in LEARNER_FLAGS and _holds_null(summary)), stdout


COMPARATOR_OVERFLOW = ("t,y,z_0\n1,1.0,1.0\n2,-1.0,1.0\n3,1.0,0\n",
                       "t,u_0\n1,1.5e200\n2,0\n3,1.0\n")
CLIPFREE_NAN_TERM = ["run-o2nc", "--variant", "clipfree", "--objective", "quadratic",
                     "--dim", "2", "--T", "20", "--seed", "3", "--c", "1e-300", "--G", "1e150",
                     "--sigma", "1e149"]
# A nan the program computes: each once printed null and exited 2.
NAN_BOUND_PATH_FORM = (
    ["run-vaw", "--beta", "0.42609051349199173", "--lam", "1.0774184539075853e-69"],
    "t,y,z_0,z_1,z_2\n1,-1.1105602148957785e94,0,0,0\n2,0,0,0,0\n"
    "3,-1.2254971536289365e152,0,-1.027162703190314e-138,0\n"
    "4,0,1.1459860745231683e-44,-1.5e-211,0\n5,1.4004507985105628e37,0,0,-1.6413599791255813e-20\n",
    "t,u_0,u_1,u_2\n1,0,1.5709321361495299e-158,0\n"
    "2,0,-1.1978561401252854e46,-1.4004687583257254e118\n"
    "3,-1.0387427671990448e21,-1.6188101748581527e-275,0\n4,-1.5426071133405594e166,0,0\n"
    "5,-1.3909803177593545e179,1.332576144794572e230,0\n",
)
NAN_DYNAMIC_BOUND = (
    ["run-aioli", "--beta", "0.33525401782442077", "--lam", "1.4853607129229052e200",
     "--R", "1.4853607129229052e200"],
    "t,y,z_0\n1,1.0,0\n2,-1.0,-1.5820973785000634e65\n",
    "t,u_0\n1,0\n2,0\n",
)
NAN_STATIONARITY_RESIDUAL = (
    ["run-aioli", "--beta", "1e-10"],
    "t,y,z_0\n1,1.0,0\n2,-1.0,-1.2330151128626592e141\n3,1.0,0\n4,1.0,1.5e173\n"
    "5,-1.0,0\n6,1.0,1.5e-299\n",
    None,
)
DELTA_NORM_OVERFLOW = ["run-o2nc", "--variant", "clipped", "--objective", "quadratic",
                       "--dim", "2", "--T", "3", "--seed", "0", "--c", "1e-170", "--G", "3e151"]


TUNE_FLAGS = ["--eps", "0.16", "--c", "1", "--G", "0.5", "--sigma", "0.5", "--Fstar", "1",
              "--nu", "1"]
# One small run of each subcommand; {d} is its directory, where `gen` first
# writes s.csv (regression) and l.csv (logistic), each with its truth path.
SUBCOMMAND_RUNS = {
    "gen": ["gen", "--d", "2", "--T", "20", "--seed", "1", "--out", "{d}/g.csv"],
    "run-vaw": ["run-vaw", "--beta", "0.9", "--stream", "{d}/s.csv", "--out", "{d}/o.csv"],
    "run-aioli": ["run-aioli", "--stream", "{d}/l.csv", "--out", "{d}/o.csv"],
    "run-ensemble": ["run-ensemble", "--betas", "0.5,0.9", "--stream", "{d}/l.csv",
                     "--out", "{d}/o.csv"],
    "run-o2nc": ["run-o2nc", "--T", "5", "--seed", "1", "--out", "{d}/o.csv"],
    "tune-adam": ["tune-adam", *TUNE_FLAGS, "--out", "{d}/rep.json"],
    "verify-lemmas": ["verify-lemmas", "--only", "abel-sum", "--instances", "3", "--seed", "1"],
}
# the files each run writes, in the order it writes them
SUBCOMMAND_FILES = {
    "gen": ["g.csv", "g.truth.csv"], "run-vaw": ["o.csv", "o.summary.json"],
    "run-aioli": ["o.csv", "o.summary.json"], "run-ensemble": ["o.csv", "o.summary.json"],
    "run-o2nc": ["o.csv", "o.summary.json"], "tune-adam": ["rep.json"], "verify-lemmas": [],
}


def subcommand_argv(capsys, tmp_path, command):
    """The argv of ``command``'s small run, its input streams written first."""
    make_stream(capsys, tmp_path, name="s.csv", T=20)
    make_stream(capsys, tmp_path, name="l.csv", kind="logistic-drift", T=20)
    return [a.format(d=tmp_path) for a in SUBCOMMAND_RUNS[command]]


def _run_past_the_clip(monkeypatch):
    run = o2nc.run_o2nc

    def run_past_d(cfg, *args):
        trace = run(cfg, *args)
        trace.delta_norms[0] = 2.0 * cfg.D  # one Delta_t outside the radius D
        return trace

    monkeypatch.setattr(o2nc, "run_o2nc", run_past_d)


def _violated(lemma):
    return lambda *args: lemmas.LemmaVerdict(lemma, 1, 1, -1.0)


# A patch of the library under each subcommand that makes one of its checks
# fail; gen has no check.
FAILING = {
    "run-vaw": lambda mp: mp.setattr(linreg, "dvaw_bounds", lambda *args: (-1e300,) * 3),
    "run-aioli": lambda mp: mp.setattr(logreg, "theorem_dynamic_bound", lambda *args: -1e300),
    "run-ensemble": lambda mp: mp.setattr(lemmas, "check_mixability", _violated("mixability")),
    "run-o2nc": _run_past_the_clip,
    "tune-adam": lambda mp: mp.setattr(adam, "verify_report", lambda rep: ["forced violation"]),
    "verify-lemmas": lambda mp: mp.setitem(lemmas.SUITES, "abel-sum", _violated("abel-sum")),
}


class TestExitCodeContract:
    # main's one rule for all seven: exit 0 when every check holds, else 2;
    # and what a run writes as its summary is what it prints
    @pytest.mark.parametrize("command, fail", [(c, False) for c in SUBCOMMAND_RUNS]
                             + [(c, True) for c in FAILING],
                             ids=[*SUBCOMMAND_RUNS, *(f"{c}-failing" for c in FAILING)])
    def test_exit_is_zero_exactly_when_every_check_holds(self, capsys, tmp_path, monkeypatch,
                                                          command, fail):
        argv = subcommand_argv(capsys, tmp_path, command)
        if fail:
            FAILING[command](monkeypatch)
        code, stdout, err = run_cli(capsys, *argv)
        checks = json.loads(stdout)["checks"]
        assert err == "" and (checks == {}) == (command == "gen")
        assert all(checks.values()) is not fail
        assert code == (2 if fail else 0)
        files = [tmp_path / name for name in SUBCOMMAND_FILES[command]]
        assert all(path.exists() for path in files)
        if files and command != "gen":
            assert files[-1].read_text() == stdout

    # The examples share tmp_path, so assert_clean_exit starts by clearing
    # the outputs of the one before.  A truth path beside the stream takes
    # the runs through the dynamic regret, the bounds and the regret trace.
    @settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=stream_commands())
    # a comparator of 1.5e200: its squared residual and |u_1|^2 overflow
    @example(case=(["run-vaw"], *COMPARATOR_OVERFLOW))
    @example(case=(["run-aioli"], *COMPARATOR_OVERFLOW))
    # B outside the floats: the default lam = 1/B^2, the grid's eta_min and discounts
    @example(case=B_CASES[0])
    @example(case=B_CASES[1])
    @example(case=B_CASES[2])
    @example(case=B_CASES[3])
    @example(case=B_CASES[4])
    @example(case=B_CASES[5])
    @example(case=B_CASES[6])
    @example(case=B_CASES[7])
    # the LU solve of A_2 = 1e-323 gives inf, and inf * 0 once warned in run-vaw
    @example(case=(["run-vaw", "--beta", "5e-324"], "t,y,z_0\n1,1.0e0,1.0e0\n2,0,0\n", None))
    # R**2 in run-aioli's dynamic bound overflows (a Python float ** once raised)
    @example(case=(["run-aioli", "--R", "1.0e155"], "t,y,z_0\n1,1.0,0\n", "t,u_0\n1,0\n"))
    # a nan bound or residual, which must not print as null
    @example(case=NAN_BOUND_PATH_FORM)
    @example(case=NAN_DYNAMIC_BOUND)
    @example(case=NAN_STATIONARITY_RESIDUAL)
    def test_stream_commands_exit_cleanly(self, capsys, tmp_path, case):
        assert_clean_exit(capsys, self._stream_argv(tmp_path, case), tmp_path / "o.csv")

    @staticmethod
    def _stream_argv(tmp_path, case):
        """Write the case's stream (and truth path, or none) to tmp_path and
        return its argv with ``--stream``."""
        argv, text, truth = case
        stream = tmp_path / "s.csv"
        stream.write_text(text)
        stream.with_suffix(".truth.csv").unlink(missing_ok=True)
        if truth is not None:
            stream.with_suffix(".truth.csv").write_text(truth)
        return [*argv, "--stream", str(stream)]

    @pytest.mark.parametrize("case, field", [
        (NAN_BOUND_PATH_FORM, "bound_path_form"),
        (NAN_DYNAMIC_BOUND, "dynamic_bound"),
        (NAN_STATIONARITY_RESIDUAL, "max_stationarity_residual"),
    ], ids=["run-vaw", "run-aioli-bound", "run-aioli-residual"])
    def test_a_computed_nan_names_its_field(self, capsys, tmp_path, case, field):
        out = tmp_path / "o.csv"
        code, stdout, err = run_cli(capsys, *self._stream_argv(tmp_path, case), "--out", str(out))
        assert_one_error_line(code, err)
        assert err == f"error: {field}: nan has no JSON form; the summary is not written\n"
        assert stdout == "" and not out.exists() and not out.with_suffix(".summary.json").exists()

    @settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=tuning_commands(), write=st.booleans())
    # A @ x0 overflows in the max-affine objective; D * a_t overflows in the
    # comparator u_t = -D a_t/|a_t| (the summary's sum of terms is then inf);
    # the squares of a Delta_t of about 2.75e154 overflow in its norm
    @example(argv=["run-o2nc", "--variant", "clipped", "--objective", "maxaffine", "--dim", "1",
                   "--T", "1", "--seed", "0", "--x0-scale", "1.5e308"], write=True)
    @example(argv=["run-o2nc", "--variant", "clipped", "--objective", "quadratic", "--dim", "1",
                   "--T", "1", "--seed", "0", "--c", "1e-170", "--G", "1e152"], write=True)
    @example(argv=DELTA_NORM_OVERFLOW, write=True)
    @example(argv=DELTA_NORM_OVERFLOW, write=False)
    # the clip-free -gamma (1-beta1) m_t overflows before its division, and
    # the dynamic-regret term of round 1 is nan
    @example(argv=CLIPFREE_NAN_TERM, write=True)
    def test_tuning_commands_exit_cleanly(self, capsys, tmp_path, argv, write):
        assert_clean_exit(capsys, argv, tmp_path / "o.csv" if write else None)

    def test_delta_norm_past_the_square_overflow(self, capsys):
        code, stdout, err = run_cli(capsys, *DELTA_NORM_OVERFLOW)
        assert (code, err) == (0, "")
        assert json.loads(stdout)["max_delta_norm"] == pytest.approx(2.75e154, rel=1e-3)


class TestOneWriter:
    # main alone writes and prints: a handler given resolved values returns
    # its summary and its files, in writing order, and leaves stdout, stderr
    # and the directory as they were
    @pytest.mark.parametrize("command", list(SUBCOMMAND_RUNS))
    def test_a_handler_prints_nothing_and_writes_no_file(self, capsys, tmp_path, command):
        argv = subcommand_argv(capsys, tmp_path, command)
        fields, handler, _ = cli.SUBCOMMANDS[command]
        values = cli._resolve_config(fields, cli.build_parser().parse_args(argv))
        before = sorted(tmp_path.iterdir())
        summary, files = handler(values)
        assert capsys.readouterr() == ("", "")
        assert sorted(tmp_path.iterdir()) == before
        assert "checks" in summary
        assert [path for path, _ in files] == [tmp_path / n for n in SUBCOMMAND_FILES[command]]


class TestDeterminism:
    def test_gen_twice_is_byte_identical(self, capsys, tmp_path):
        a = make_stream(capsys, tmp_path, name="a.csv", seed=21)
        b = make_stream(capsys, tmp_path, name="b.csv", seed=21)
        assert a.read_bytes() == b.read_bytes()
        assert a.with_suffix(".truth.csv").read_bytes() == b.with_suffix(".truth.csv").read_bytes()

    def test_o2nc_twice_is_byte_identical(self, capsys, tmp_path):
        outs = []
        logs = []
        for name in ("x.csv", "y.csv"):
            out = tmp_path / name
            code, stdout, _ = run_cli(
                capsys, "run-o2nc", "--dim", "3", "--T", "150", "--seed", "8",
                "--eps", "0.3", "--c", "0.1", "--out", str(out),
            )
            assert code == 0
            outs.append(out.read_bytes())
            logs.append(stdout.replace(name, ""))
        assert outs[0] == outs[1]
        assert logs[0] == logs[1]

    # Exact text of the Adam tuning reports, the o2nc artifacts and the
    # run-vaw, run-aioli and run-ensemble artifacts, written by a reference
    # build and kept in tests/golden: any change to the tuner, the step rule,
    # the driver loop, the VAW or AIOLI learners, the ensemble or their
    # bounds that moves a bit shows up here.
    VAW_GEN = ["--d", "3", "--T", "200", "--seed", "1"]
    VAW_RUN = ["run-vaw", "--beta", "0.9", "--lambda", "1"]
    VAW_PIECEWISE_GEN = ["gen", "--kind", "piecewise-constant-target", *VAW_GEN,
                         "--segments", "4", "--noise", "0.1"]
    LOGISTIC_GEN = ["gen", "--kind", "logistic-drift", "--d", "3", "--T", "200",
                    "--segments", "4", "--noise", "0.2", "--seed", "1"]
    LOGISTIC_600 = ["--kind", "logistic-drift", "--d", "3", "--T", "600", "--segments", "4",
                    "--noise", "0.2", "--seed", "3"]

    @pytest.mark.parametrize(
        "argv, golden",
        [
            (["tune-adam", "--variant", "clipped", *TUNE_FLAGS], "tune-clipped"),
            (["tune-adam", "--variant", "clipped", *TUNE_FLAGS, "--rho", "0.5"],
             "tune-clipped-rho"),
            (["tune-adam", "--variant", "clipfree", *TUNE_FLAGS], "tune-clipfree"),
            (["tune-adam", "--variant", "clipfree", *TUNE_FLAGS, "--rho", "0.5"],
             "tune-clipfree-rho"),
            (["run-o2nc", "--variant", "clipped", "--T", "200", "--seed", "1"],
             "o2nc-clipped"),
            (["run-o2nc", "--variant", "clipfree", "--T", "200", "--seed", "1"],
             "o2nc-clipfree"),
            # (gen, run): gen writes the stream and its truth into tmp_path first
            ((VAW_PIECEWISE_GEN, VAW_RUN), "vaw-piecewise"),
            ((["gen", "--kind", "rotating-target", *VAW_GEN], VAW_RUN), "vaw-rotating"),
            ((LOGISTIC_GEN, ["run-aioli", "--beta", "0.9"]), "aioli-logistic"),
            ((LOGISTIC_GEN, ["run-ensemble", "--grid", "true"]), "ensemble-logistic"),
        ],
        ids=lambda v: v if isinstance(v, str) else None,
    )
    def test_artifacts_match_the_golden_text(self, capsys, tmp_path, argv, golden):
        expected = Path(__file__).parent / "golden"
        if argv[0] == "tune-adam":
            code, stdout, err = run_cli(capsys, *argv)
            assert (code, err) == (0, "")
            assert stdout == (expected / f"{golden}.json").read_text()
            return
        if isinstance(argv, tuple):
            gen, run = argv
            stream = tmp_path / "s.csv"
            assert run_cli(capsys, *gen, "--out", str(stream))[0] == 0
            argv = [*run, "--stream", str(stream)]
        out = tmp_path / "o.csv"
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert (code, err) == (0, "")
        summary = (expected / f"{golden}.summary.json").read_text()
        assert out.read_text() == (expected / f"{golden}.csv").read_text()
        assert out.with_suffix(".summary.json").read_text() == summary
        assert stdout == summary

    # verify-lemmas at its defaults (1000 instances a suite, seed 0): every
    # suite's verdict rule and worst slack, to the bit
    def test_verify_lemmas_matches_the_golden_text(self, capsys, monkeypatch):
        monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
        code, stdout, err = run_cli(capsys, "verify-lemmas")
        assert (code, err) == (0, "")
        assert stdout == (Path(__file__).parent / "golden" / "verify-lemmas.json").read_text()

    # The reader end to end: a `#` comment and a blank line mid-body, CRLF
    # line ends and spaces around the cells of the stream and its truth
    # change no byte of run-vaw's artifacts (paths are not hashed)
    def test_run_vaw_reads_a_messy_golden_stream_to_the_golden_text(self, capsys, tmp_path):
        clean = tmp_path / "s.csv"
        assert run_cli(capsys, *self.VAW_PIECEWISE_GEN, "--out", str(clean))[0] == 0
        messy = tmp_path / "messy.csv"
        for src, dst in ((clean, messy), (clean.with_suffix(".truth.csv"),
                                           messy.with_suffix(".truth.csv"))):
            comment, header, *body = src.read_text().splitlines()
            body = ["  " + " , ".join(row.split(",")) + " " for row in body]
            body[len(body) // 2:len(body) // 2] = ["# a note mid-body", ""]
            dst.write_bytes("\r\n".join([comment, header, *body, ""]).encode())
        out = tmp_path / "o.csv"
        code, stdout, err = run_cli(capsys, *self.VAW_RUN, "--stream", str(messy),
                                    "--out", str(out))
        assert (code, err) == (0, "")
        expected = Path(__file__).parent / "golden"
        assert out.read_text() == (expected / "vaw-piecewise.csv").read_text()
        summary = (expected / "vaw-piecewise.summary.json").read_text()
        assert out.with_suffix(".summary.json").read_text() == summary
        assert stdout == summary

    # run-vaw's P_T^g takes (k+1, d) @ (d, rows) products, which OpenBLAS
    # may split between threads, the logistic learners make a LAPACK
    # solve and Cholesky factorization a round, and run-o2nc (the bench's
    # o2nc-long flags, None for its stream) takes BLAS dots a round and
    # batched ones after; the artifacts must not depend on the thread count
    @pytest.mark.parametrize("gen, run", [
        (["--kind", "rotating-target", "--d", "20", "--T", "800", "--seed", "3"],
         ["run-vaw", "--beta", "0.99"]),
        (LOGISTIC_600, ["run-aioli", "--beta", "0.9"]),
        (LOGISTIC_600, ["run-ensemble", "--grid", "true"]),
        (None, ["run-o2nc", "--T", "2000", "--seed", "1"]),
    ], ids=["run-vaw", "run-aioli", "run-ensemble", "run-o2nc"])
    def test_stream_runs_are_byte_identical_on_one_blas_thread(self, capsys, tmp_path,
                                                               monkeypatch, gen, run):
        if gen is None:
            monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
            run = [*run, *map(str, importlib.import_module("workloads").O2NC_FLAGS)]
        else:
            stream = tmp_path / "s.csv"
            assert run_cli(capsys, "gen", *gen, "--out", str(stream))[0] == 0
            run = [*run, "--stream", str(stream)]
        src = str(Path(cli.__file__).resolve().parents[1])
        base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        artifacts = []
        for threads in (None, "1"):
            env = base if threads is None else dict(base, OPENBLAS_NUM_THREADS=threads)
            out = tmp_path / f"run-{threads}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "driftlearn.cli", *run, "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
            summary = out.with_suffix(".summary.json").read_text()
            artifacts.append((proc.stdout.replace(out.name, ""), summary.replace(out.name, ""),
                              out.read_bytes()))
        assert artifacts[0] == artifacts[1]

    def test_verify_lemmas_twice_identical_stdout(self, capsys):
        _, out1, _ = run_cli(capsys, "verify-lemmas", "--instances", "25", "--seed", "4")
        _, out2, _ = run_cli(capsys, "verify-lemmas", "--instances", "25", "--seed", "4")
        assert out1 == out2

    def test_seed_env_var_supplies_default(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "77")
        out = tmp_path / "env.csv"
        code, stdout, _ = run_cli(capsys, "gen", "--out", str(out))
        assert code == 0
        assert json.loads(stdout)["seed"] == 77


# Every subcommand, small, in one fresh interpreter that then lists the scipy
# modules it has loaded.
NO_SCIPY_SCRIPT = """
import io, sys
from contextlib import redirect_stdout
from driftlearn import cli

d = sys.argv[1]
runs = [
    ["gen", "--d", "3", "--T", "60", "--segments", "2", "--noise", "0.1", "--seed", "1",
     "--out", d + "/s.csv"],
    ["run-vaw", "--beta", "0.95", "--stream", d + "/s.csv", "--out", d + "/v.csv"],
    ["gen", "--kind", "logistic-drift", "--d", "2", "--T", "60", "--segments", "2",
     "--seed", "2", "--out", d + "/l.csv"],
    ["run-aioli", "--stream", d + "/l.csv", "--out", d + "/a.csv"],
    ["run-ensemble", "--stream", d + "/l.csv", "--out", d + "/e.csv"],
    ["run-o2nc", "--T", "50", "--seed", "3", "--out", d + "/o.csv"],
    ["tune-adam", "--eps", "0.16", "--c", "1", "--G", "0.5", "--sigma", "0.5",
     "--Fstar", "1", "--nu", "1"],
    ["verify-lemmas", "--instances", "5", "--seed", "4"],
]
for argv in runs:
    with redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def _child_env() -> dict:
    """This process's environment, with the tested sources first on the path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


class TestNoScipyOnTheImportPath:
    def test_import_and_every_subcommand_load_no_scipy(self, tmp_path):
        env = _child_env()
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, driftlearn.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stdout.strip()) == (0, "[]"), proc.stderr
        proc = subprocess.run(
            [sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert (proc.returncode, proc.stdout.strip()) == (0, "[]"), proc.stderr

    def test_factorization_probe_names_still_resolve(self):
        from scipy.linalg import cho_factor

        from driftlearn import linreg

        assert linreg.cho_factor is cho_factor and logreg.cho_factor is cho_factor
        with pytest.raises(AttributeError, match="no_such_name"):
            linreg.no_such_name  # noqa: B018


# ---------------------------------------------------------------------------
# Cold start: a fresh interpreter loads only the modules its subcommand runs.
# ---------------------------------------------------------------------------

# cli.main on the arguments after the script, in a fresh interpreter, after
# the statements in {setup}; prints the exit code, then the driftlearn modules
# loaded
COLD_RUN = """
import io, sys
from contextlib import redirect_stdout
{setup}
from driftlearn import cli
with redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m.split(".")[0] == "driftlearn"))
"""

BLOCK_LINREG = 'sys.modules["driftlearn.linreg"] = None'
BLOCK_LOGREG = 'sys.modules["driftlearn.logreg"] = None'


def python(cwd, *args) -> subprocess.CompletedProcess:
    """A fresh interpreter run with ``args`` in ``cwd`` on the tested sources."""
    return subprocess.run([sys.executable, *args], cwd=cwd, env=_child_env(),
                          capture_output=True, text=True, timeout=120)


def cold(cwd, *argv, setup=""):
    """Exit code, modules loaded and stderr of one cold ``cli.main(argv)``."""
    proc = python(cwd, "-c", COLD_RUN.format(setup=setup), *map(str, argv))
    assert proc.stdout, proc.stderr
    code, *modules = proc.stdout.split()
    return int(code), modules, proc.stderr


class TestColdStartLoads:
    def test_gen_loads_cli_and_streams_alone(self, tmp_path):
        code, modules, err = cold(tmp_path, "gen", "--d", "3", "--T", "30", "--seed", "1",
                                  "--out", "s.csv")
        assert (code, err) == (0, "")
        assert modules == ["driftlearn", "driftlearn.cli", "driftlearn.streams"]

    O2NC_MODULES = ["driftlearn", "driftlearn.adam", "driftlearn.cli", "driftlearn.o2nc",
                    "driftlearn.streams"]

    def test_o2nc_emit_config_loads_no_library_module(self, tmp_path):
        # the default objective is not checked against o2nc's list
        code, modules, err = cold(tmp_path, "run-o2nc", "--T", "50", "--emit-config", "o.cfg")
        assert (code, err) == (0, "")
        assert modules == ["driftlearn", "driftlearn.cli", "driftlearn.streams"]

    # the README's cold-start table, one row a case
    @pytest.mark.parametrize("argv, loads", [
        (["run-vaw", "--stream", "s.csv"], ["linreg", "regret"]),
        (["run-aioli", "--stream", "l.csv"], ["logreg", "regret"]),
        (["run-ensemble", "--stream", "l.csv"], ["lemmas", "logreg", "regret"]),
        (["tune-adam", "--eps", "0.16", "--c", "1", "--G", "0.5", "--sigma", "0.5",
          "--Fstar", "1", "--nu", "1"], ["adam"]),
        (["verify-lemmas", "--instances", "20"], ["lemmas"]),
    ], ids=["run-vaw", "run-aioli", "run-ensemble", "tune-adam", "verify-lemmas"])
    def test_each_subcommand_loads_what_it_runs(self, capsys, tmp_path, argv, loads):
        make_stream(capsys, tmp_path, name="s.csv")
        make_stream(capsys, tmp_path, name="l.csv", kind="logistic-drift")
        code, modules, err = cold(tmp_path, *argv)
        assert (code, err) == (0, "")
        assert modules == sorted(["driftlearn", "driftlearn.cli", "driftlearn.streams",
                                  *(f"driftlearn.{m}" for m in loads)])

    def test_o2nc_run_loads_no_regret(self, tmp_path):
        # the driver takes its row dots from streams
        code, modules, err = cold(tmp_path, "run-o2nc", "--T", "50", "--out", "o.csv")
        assert (code, err) == (0, "")
        assert modules == self.O2NC_MODULES

    def test_bare_import_loads_no_submodule(self, tmp_path):
        proc = python(tmp_path, "-c", "import sys, driftlearn; "
                      "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'driftlearn'))")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "driftlearn\n", "")

    def test_every_name_resolves(self, tmp_path):
        script = """
import driftlearn, driftlearn.lemmas
assert driftlearn.linreg.__name__ == "driftlearn.linreg"
from driftlearn import *
from driftlearn import o2nc as by_name
assert by_name is o2nc
try:
    driftlearn.no_such_name
except AttributeError as exc:
    print(exc)
print(*(globals()[name].__name__ for name in driftlearn.__all__))
"""
        proc = python(tmp_path, "-c", script)
        assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
        missing, names = proc.stdout.splitlines()
        assert missing == "module 'driftlearn' has no attribute 'no_such_name'"
        assert names.split() == [f"driftlearn.{m}" for m in
                                 ("adam", "lemmas", "linreg", "logreg", "o2nc", "regret",
                                  "streams")]

    def test_module_help_prints_the_parsers_text(self, tmp_path, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal's width
        proc = python(tmp_path, "-m", "driftlearn.cli", "--help")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == cli.build_parser().format_help()
        assert proc.stdout.startswith("usage: driftlearn ")


class TestLibraryImportFailure:
    def test_run_vaw_exits_one_with_one_line(self, capsys, tmp_path):
        make_stream(capsys, tmp_path)
        code, _, err = cold(tmp_path, "run-vaw", "--stream", "s.csv", "--out", "v.csv",
                            setup=BLOCK_LINREG)
        assert code == 1
        assert err.startswith("error: ") and "driftlearn.linreg" in err
        assert err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv", "s.truth.csv"]

    def test_verify_lemmas_runs_without_logreg(self, tmp_path):
        code, _, err = cold(tmp_path, "verify-lemmas", "--instances", "20", setup=BLOCK_LOGREG)
        assert (code, err) == (0, "")

    def test_gen_runs_without_the_learners(self, tmp_path):
        argv = ["gen", "--d", "3", "--T", "40", "--segments", "3", "--noise", "0.1",
                "--seed", "5", "--out", "g.csv"]
        files = []
        for setup in (BLOCK_LINREG, ""):
            (tmp_path / "run").mkdir()
            code, _, err = cold(tmp_path / "run", *argv, setup=setup)
            assert (code, err) == (0, "")
            files.append({p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()})
            (tmp_path / "run").rename(tmp_path / f"run{len(files)}")
        assert sorted(files[0]) == ["g.csv", "g.truth.csv"] and files[0] == files[1]


class TestOutOfMemory:
    # T = 10^18 rounds ask numpy for 6.94 EiB at once, past any 64-bit
    # address space (2^57 bytes at most), so the allocation fails before any
    # round, on any host; 10^15 rounds (7.11 PiB) would fit in one where the
    # kernel overcommits unconditionally
    @pytest.mark.parametrize("argv", [
        ["run-o2nc", "--dim", "10", "--T", str(10**18), "--seed", "1"],
        ["gen", "--d", "3", "--T", str(10**18), "--seed", "1", "--out", "x.csv"],
    ], ids=["run-o2nc", "gen"])
    def test_an_exabyte_run_exits_one_with_one_line(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: out of memory: Unable to allocate 6.94 EiB ")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_an_empty_message_ends_the_line(self, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError()

        monkeypatch.setattr(o2nc, "run_o2nc", exhausted)
        code, out, err = run_cli(capsys, "run-o2nc", "--T", "10", "--seed", "1")
        assert (code, out, err) == (1, "", "error: out of memory\n")


class TestChoiceMessages:
    def test_every_default_is_none_or_one_of_its_choices(self):
        # _resolve_config checks only a value other than the default
        fields = [f for fields, _, _ in cli.SUBCOMMANDS.values() for f in fields if f.choices]
        assert {f.name for f in fields} == {"kind", "variant", "objective", "only"}
        for f in fields:
            assert f.default is None or f.default in f.choices(), f.name

    @pytest.mark.parametrize("argv, line", [
        (["gen", "--kind", "bogus", "--out", "x.csv"],
         "kind: must be one of ('piecewise-constant-target', 'rotating-target', "
         "'logistic-drift'), got 'bogus'"),
        (["run-o2nc", "--objective", "bogus"],
         "objective: must be one of ('quadratic', 'norm', 'maxaffine'), got 'bogus'"),
        (["verify-lemmas", "--only", "bogus"],
         "only: must be one of ('abel-sum', 'ema-self-confident', 'beta-coupling', "
         "'lr-deviation', 'min-self-confident', 'discounted-potential', "
         "'logistic-surrogate', 'mixability', 'self-confident-tuning'), got 'bogus'"),
        (["run-o2nc", "--variant", "bogus"],
         "variant: must be one of ('clipped', 'clipfree'), got 'bogus'"),
        (["tune-adam", "--variant", "clip-free", "--eps", "0.16", "--c", "1", "--G", "0.5",
          "--sigma", "0.5", "--Fstar", "1", "--nu", "1"],
         "variant: must be one of ('clipped', 'clipfree'), got 'clip-free'"),
    ], ids=["kind", "objective", "only", "variant", "tune-adam-variant"])
    def test_a_bad_choice_exits_one_with_one_line(self, capsys, tmp_path, monkeypatch, argv,
                                                  line):
        monkeypatch.chdir(tmp_path)
        assert run_cli(capsys, *argv) == (1, "", f"error: {line}\n")
        assert list(tmp_path.iterdir()) == []


# The first 16 hex digits of the sha256 of each file the benchmark's setup
# writes, at seeds 1 and 2: gen's stream and truth, and run-o2nc's emitted
# config, whose out= line names the run directory as {dir}
BENCH_SETUP_SHA256 = {
    ("vaw-piecewise", 1, "stream.csv"): "de32f88fe3da0f3e",
    ("vaw-piecewise", 1, "stream.truth.csv"): "8ba97c82badc0075",
    ("vaw-piecewise", 2, "stream.csv"): "4326e5eb5f9af70e",
    ("vaw-piecewise", 2, "stream.truth.csv"): "8cd1a8075ec28507",
    ("identity-rotating", 1, "stream.csv"): "09fb753e0e30c855",
    ("identity-rotating", 1, "stream.truth.csv"): "d62514148bfdccbe",
    ("identity-rotating", 2, "stream.csv"): "2e1e34d4933c65b4",
    ("identity-rotating", 2, "stream.truth.csv"): "2aa8145fcf3ec772",
    ("logistic-pool", 1, "stream.csv"): "1711825e9dc15482",
    ("logistic-pool", 1, "stream.truth.csv"): "a6ff2742d2dbca03",
    ("logistic-pool", 2, "stream.csv"): "bc646b2858ea1220",
    ("logistic-pool", 2, "stream.truth.csv"): "cac9aa44d972d27d",
    ("o2nc-long", 1, "o2nc.cfg"): "433b93505560295c",
    ("o2nc-long", 2, "o2nc.cfg"): "a4c46a54fd07fd89",
}


class TestBenchSetupFiles:
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("name", ["vaw-piecewise", "identity-rotating", "logistic-pool",
                                      "o2nc-long"])
    def test_setup_files_keep_their_bytes(self, capsys, tmp_path, monkeypatch, name, seed):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        workload = importlib.import_module("workloads").make_workloads()[name]
        code, _, err = run_cli(capsys, *map(str, workload.setup_args(tmp_path, seed)))
        assert (code, err) == (0, "")
        digests = {f: hashlib.sha256((tmp_path / f).read_text().replace(
                       str(tmp_path), "{dir}").encode()).hexdigest()[:16]
                   for f in workload.inputs}
        assert digests == {f: BENCH_SETUP_SHA256[name, seed, f] for f in workload.inputs}
        if "stream.truth.csv" in workload.inputs:
            text = (tmp_path / "stream.truth.csv").read_text()
            comment = text.partition("\n")[0].removeprefix("# ")
            assert text == oracles.path_csv_rowwise(streams.path_from_csv(text), comment)


def _peak(f) -> int:
    """tracemalloc peak, in bytes, of one call of ``f``."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRunMemory:
    # run-vaw --out holds its stream, its truth path and its trace as
    # arrays, never as text.  So from T = 4,000 to 40,000 its peak grows by
    # no more than the same run's does when its inputs are handed to it in
    # memory, plus the arrays the reader makes of them: the stream's
    # (T, d + 2) parse array, the truth's (T, d + 1) one and its (T, d)
    # path.  The stream's text is about 124 bytes a round here, against the
    # 56 of its array; a reader that held it whole breaks the bound.
    def test_run_vaw_grows_only_by_its_arrays(self, capsys, tmp_path, monkeypatch):
        d = 5

        def peaks(T):
            stream = make_stream(capsys, tmp_path, name=f"s{T}.csv", d=d, T=T, segments=8,
                                 noise=0.1, seed=1)
            argv = ["run-vaw", "--beta", "0.99", "--lambda", "1", "--stream", str(stream),
                    "--out", str(tmp_path / f"o{T}.csv")]
            if T == 4000:
                cli.main(argv)  # the first run imports and builds the parser
            job = _peak(lambda: cli.main(argv))
            inputs = cli._load_stream({"stream": str(stream), "truth": None})
            with monkeypatch.context() as patch:
                patch.setattr(cli, "_load_stream", lambda values: inputs)
                in_memory = _peak(lambda: cli.main(argv))
            capsys.readouterr()
            return job, in_memory

        (job_4, memory_4), (job_40, memory_40) = peaks(4000), peaks(40000)
        arrays = 8 * (40000 - 4000) * (3 * d + 3)
        assert job_40 - job_4 <= memory_40 - memory_4 + arrays

    # run-o2nc --out holds four T-length columns: s_t, |Delta_t|, the regret
    # terms and the gradient norms at the averages.  Delta_t, g_t and
    # grad F(x_t) live one block of K rounds, and so do the iterates and the
    # averages.  Every R rounds the run keeps a checkpoint until the returned
    # round is drawn: an AdamState, two points and a Philox state, 24 d bytes
    # and about 1.4 KB more, of which 1.5 KiB are allowed.  So from T1 to T2
    # rounds its peak grows by at most 32 bytes a round and a checkpoint
    # every R rounds, plus 64 KiB of slack; a run that holds Delta_t, g_t or
    # grad F(x_t) whole grows by 8 d bytes a round more.
    @staticmethod
    def o2nc_growth(capsys, tmp_path, d, T1, T2):
        """The growth of run-o2nc's peak from T1 to T2 rounds at dimension
        d, and the bound above on it."""

        def peak(T):
            argv = ["run-o2nc", "--dim", str(d), "--T", str(T), "--seed", "1", "--eps", "0.3",
                    "--c", "0.1", "--G", "1", "--sigma", "0.1",
                    "--out", str(tmp_path / f"o{T}.csv")]
            if T == T1:
                cli.main(argv)  # the first run imports and builds the parser
            job = _peak(lambda: cli.main(argv))
            capsys.readouterr()
            return job

        R = o2nc._checkpoint_rounds(d, o2nc._block_rounds(d))
        checkpoints = math.ceil(T2 / R) - math.ceil(T1 / R)
        bound = 8 * 4 * (T2 - T1) + (24 * d + 1536) * checkpoints + (1 << 16)
        return peak(T2) - peak(T1), bound

    # at d = 10 a block holds K = 819 rounds, and R = K
    def test_run_o2nc_holds_four_columns_of_rounds(self, capsys, tmp_path):
        growth, bound = self.o2nc_growth(capsys, tmp_path, 10, 4000, 40000)
        assert growth <= bound

    # At d = 4,096 a block holds K = 2 rounds and a checkpoint weighs about
    # 99 KB, 50 KB a round of its block: a checkpoint a block would grow the
    # peak by 45 MB from T = 100 to 1,000.  R = 12,544 rounds, so both runs
    # keep one checkpoint.
    def test_run_o2nc_checkpoints_stay_within_a_column_at_large_d(self, capsys, tmp_path):
        assert o2nc._checkpoint_rounds(4096, o2nc._block_rounds(4096)) == 12544
        growth, bound = self.o2nc_growth(capsys, tmp_path, 4096, 100, 1000)
        assert growth <= bound

    # run-aioli --out holds its inputs' arrays (the stream's (T, d + 2) parse
    # array and the truth's (T, d) path: the truth's (T, d + 1) parse array
    # is dropped once the path is copied out), the five T-length columns of
    # its AioliRun (predictions, losses at play, stability sums, beta^t and
    # residuals), and its ledger's T + 1 powers of beta.  Its peak is in
    # logreg.rescaled_bound_check, which holds five T-length arrays more: its
    # own ledger's powers of beta, one comparator's bounds, the regrets of
    # the comparator before, this one's regrets (scanned in place) and the
    # column the scan builds.  So from T = 4,000 to 40,000 its peak grows by
    # at most 8 (2 d + 13) bytes a round, plus 64 KiB of slack.
    def test_run_aioli_grows_by_its_inputs_columns_and_check(self, capsys, tmp_path):
        d = 3

        def peak(T):
            stream = make_stream(capsys, tmp_path, name=f"s{T}.csv", kind="logistic-drift",
                                 d=d, T=T, segments=4, noise=0.2, seed=1)
            argv = ["run-aioli", "--beta", "0.9", "--B", "1", "--R", "1",
                    "--stream", str(stream), "--out", str(tmp_path / f"o{T}.csv")]
            if T == 4000:
                cli.main(argv)  # the first run imports and builds the parser
            job = _peak(lambda: cli.main(argv))
            capsys.readouterr()
            return job

        arrays = (d + 2) + d + 5 + 1 + 5
        assert peak(40000) - peak(4000) <= 8 * arrays * (40000 - 4000) + (1 << 16)

    # run-ensemble --out holds its inputs' arrays (the stream's (T, d + 2)
    # parse array, the truth's (T, d + 1) one and its (T, d) path) and
    # three T-length columns: the mixture, its losses and the best expert's
    # loss.  The experts' predictions, losses and weights live one chunk of
    # rounds.  So from T = 4,000 to 40,000 its peak grows by at most
    # 8 (3 d + 6) bytes a round, plus 64 KiB of slack; a run that holds any
    # (T, N) array (N = 14 to 18 here) grows by 8 N bytes a round more.
    def test_run_ensemble_holds_no_array_of_experts(self, capsys, tmp_path):
        d = 3

        def peak(T):
            stream = make_stream(capsys, tmp_path, name=f"s{T}.csv", kind="logistic-drift",
                                 d=d, T=T, segments=4, noise=0.2, seed=1)
            argv = ["run-ensemble", "--grid", "true", "--stream", str(stream),
                    "--out", str(tmp_path / f"o{T}.csv")]
            if T == 4000:
                cli.main(argv)  # the first run imports and builds the parser
            job = _peak(lambda: cli.main(argv))
            capsys.readouterr()
            return job

        arrays = (d + 2) + (d + 1) + d + 3
        assert peak(40000) - peak(4000) <= 8 * arrays * (40000 - 4000) + (1 << 16)
