import json
import math

import pytest

from driftlearn import cli


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
