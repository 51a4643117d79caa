import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from driftlearn import cli, logreg, streams


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

    def test_missing_stream_fails_cleanly(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run-vaw", "--stream", str(tmp_path / "nope.csv"))
        assert code == 1


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
        "text",
        [
            "t,y,z_0,z_1\n",                          # header only
            "t,y,z_0,z_1\n1,0.5,0.1\n2,0.5,0.2\n",  # ragged: one feature per row
            "t,y,z_0\n1,0.5,0.1\n3,0.5,0.2\n",      # t skips a round
        ],
        ids=["header-only", "ragged", "t-gap"],
    )
    def test_bad_stream_exits_one(self, capsys, tmp_path, text):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        code, _, err = run_cli(capsys, "run-vaw", "--beta", "0.9", "--stream", str(bad))
        assert_one_error_line(code, err)
        assert str(bad) in err

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
            logreg.logistic_loss(float(data.Z[t] @ path[t]), data.y[t])
            for t in range(data.T)
        )
        assert json.loads(stdout)["dynamic_regret"] == float(run.mix_losses.sum() - comp)

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


class TestExitCodeContract:
    def test_passing_checks_exit_zero(self):
        assert cli._checks_exit({"checks": {"a": True, "b": True}}) == 0
        assert cli._checks_exit({"checks": {}}) == 0

    def test_failed_check_exits_two(self):
        assert cli._checks_exit({"checks": {"a": True, "b": False}}) == 2


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


class TestNoScipyOnTheImportPath:
    def test_import_and_every_subcommand_load_no_scipy(self, tmp_path):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
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
