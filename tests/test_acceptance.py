"""End-to-end acceptance gate.

One test per criterion; each prints a single ``criterion-NN PASS`` line
(visible with ``pytest -s`` or ``-rA``) and enforces its stated tolerance
and runtime budget.  Run via ``pytest tests/test_acceptance.py -v``.
"""

import json
import math
import time

import numpy as np
import pytest

from driftlearn import adam, cli, lemmas, linreg, logreg, o2nc, regret
from driftlearn.streams import ComparatorPath, StreamSpec, bound_holds, gen_stream
import oracles


class Budget:
    def __init__(self, name: str, seconds: float | None):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{self.name} {status} ({elapsed:.2f}s)")
        if exc_type is None and self.seconds is not None:
            assert elapsed < self.seconds, (
                f"{self.name}: runtime {elapsed:.2f}s over budget {self.seconds}s"
            )


def test_criterion_01_conversion_identity_fuzz():
    betas = (0.1, 0.3, 0.5, 0.9, 0.99, 1.0)
    rng = np.random.default_rng(101)
    with Budget("criterion-01 conversion identity (1000 instances)", 5.0):
        for i in range(1000):
            T = int(rng.integers(1, 101))
            d = int(rng.integers(1, 4))
            beta = betas[i % len(betas)]
            Z = rng.standard_normal((T, d))
            y = rng.standard_normal(T)
            play = rng.random(T)
            ledger = regret.RegretLedger(play, beta, Z, y, "squared")
            path = ComparatorPath(rng.standard_normal((T, d)))
            lhs = regret.dynamic_regret(ledger, path)
            gap = regret.d2d_identity_gap(ledger, path)
            assert gap <= 1e-9 * (1.0 + abs(lhs)), (i, beta, T, gap)


def test_criterion_02_static_forecaster_bound():
    rng = np.random.default_rng(102)
    with Budget("criterion-02 undiscounted forecaster bound (200 streams)", 10.0):
        for i in range(200):
            d = int(rng.integers(1, 6))
            T = int(rng.integers(2, 201))
            spec = StreamSpec(
                d=d, T=T, segments=int(rng.integers(1, 4)),
                noise=float(rng.uniform(0.0, 0.5)), seed=int(rng.integers(2**31)),
                B=float(rng.uniform(0.5, 2.0)),
            )
            stream, _ = gen_stream(spec)
            lam = float(rng.uniform(0.2, 2.0))
            run = linreg.run_dvaw(stream, beta=1.0, lam=lam)
            # incremental form of the bound's stability sum (u-independent)
            A = lam * np.eye(d)
            ridge_b = np.zeros(d)
            incs = np.empty(T)
            for t in range(T):
                z, yt = stream.Z[t], stream.y[t]
                A += np.outer(z, z)
                ridge_b += yt * z
                incs[t] = 0.5 * yt**2 * float(z @ np.linalg.solve(A, z))
            stab = np.cumsum(incs)
            comparators = [
                np.zeros(d),
                rng.standard_normal(d),
                np.linalg.solve(A, ridge_b),  # hindsight ridge: tightest case
            ]
            for u in comparators:
                losses_u = 0.5 * (stream.Z @ u - stream.y) ** 2
                prefix = np.cumsum(run.losses_at_play - losses_u)
                bound = 0.5 * lam * float(u @ u) + stab
                assert np.all(bound_holds(prefix, bound)), i
            # the bound from the learner's stability terms against the incremental form
            t_spot = int(rng.integers(1, T + 1))
            lib = oracles.vaw_static_bound(stream, lam, t_spot, comparators[2])
            ref = 0.5 * lam * float(comparators[2] @ comparators[2]) + stab[t_spot - 1]
            assert lib == pytest.approx(ref, rel=1e-9)


def test_criterion_03_discounted_forecaster_dynamic_bound():
    rng = np.random.default_rng(103)
    with Budget("criterion-03 discounted forecaster dynamic bound", 30.0):
        for i in range(50):
            kind = "piecewise-constant-target" if i % 2 else "rotating-target"
            spec = StreamSpec(
                d=int(rng.integers(1, 6)), T=int(rng.integers(30, 151)), kind=kind,
                segments=int(rng.integers(2, 5)), noise=float(rng.uniform(0.0, 0.4)),
                seed=int(rng.integers(2**31)),
            )
            stream, truth = gen_stream(spec)
            for beta in (0.5, 0.9, 0.99):
                run = linreg.run_dvaw(stream, beta=beta, lam=1.0)
                ledger = linreg.vaw_ledger(run)
                dyn = regret.dynamic_regret(ledger, truth)
                for gamma in sorted({beta, 0.5 * (1.0 + beta), 0.999}):
                    if gamma < beta:
                        continue
                    # the path form, the F-difference form and the modular RHS
                    for bound in linreg.dvaw_bounds(run, truth, gamma):
                        assert bound_holds(dyn, bound), (i, beta, gamma)

        # adapting to drift: discounting beats no discounting on a 4-segment stream
        spec = StreamSpec(d=5, T=2000, segments=4, noise=0.1, seed=424242)
        stream, truth = gen_stream(spec)
        regrets = {}
        for beta in (0.5, 0.9, 0.99, 1.0):
            run = linreg.run_dvaw(stream, beta=beta, lam=1.0)
            regrets[beta] = regret.dynamic_regret(linreg.vaw_ledger(run), truth)
        best = min(regrets[b] for b in (0.5, 0.9, 0.99))
        print(f"  4-segment regrets: {regrets}")
        assert best <= 0.8 * regrets[1.0]


def test_criterion_04_discounted_logistic_bounds():
    rng = np.random.default_rng(104)
    with Budget("criterion-04 discounted logistic bounds (100 streams)", 60.0):
        for i in range(100):
            spec = StreamSpec(
                d=3, T=500, kind="logistic-drift", segments=int(rng.integers(1, 5)),
                noise=float(rng.uniform(0.0, 0.5)), seed=int(rng.integers(2**31)),
                R=1.0, B=1.0,
            )
            stream, truth = gen_stream(spec)
            beta = float(rng.uniform(0.6, 0.99))
            run = logreg.run_aioli(stream, beta=beta, lam=1.0, B=1.0, R=1.0)
            assert float(run.residuals.max()) <= 1e-9, i
            ledger = logreg.logistic_ledger(run)
            ball = rng.standard_normal(3)
            comparators = [
                np.zeros(3), truth[0], truth[-1],
                ball / max(1.0, float(np.linalg.norm(ball))),
            ]
            for u in comparators:
                diffs = run.losses_at_play - ledger.loss_eval_batch(u)
                r = 0.0
                for t in range(1, run.T + 1):
                    r = beta * r + float(diffs[t - 1])
                    bound = oracles.aioli_rescaled_bound(run, t, u)
                    assert bound_holds(r, bound), (i, t)
            dyn = regret.dynamic_regret(ledger, truth)
            bound = logreg.theorem_dynamic_bound(run, truth, max(beta, 0.95))
            assert bound_holds(dyn, bound), i


def test_criterion_05_ensemble_meta_regret():
    rng = np.random.default_rng(105)
    with Budget("criterion-05 ensemble meta-regret and mixability", 30.0):
        for i in range(6):
            spec = StreamSpec(
                d=int(rng.integers(1, 4)), T=300, kind="logistic-drift",
                segments=int(rng.integers(1, 4)), noise=float(rng.uniform(0.0, 0.4)),
                seed=int(rng.integers(2**31)), R=1.0, B=1.0,
            )
            stream, _ = gen_stream(spec)
            betas = logreg.build_grid(B=1.0, R=1.0, d=stream.d, T=stream.T)
            run, expert_yhats, weights = oracles.ensemble_rows(
                stream, betas, logreg.default_lam(1.0), B=1.0, R=1.0)
            assert run.meta_regret <= math.log(len(betas)) + 1e-9, i
            for t in range(stream.T):
                assert lemmas.check_mixability(
                    run.yhats[t], expert_yhats[t], weights[t]).passed


def test_criterion_06_update_rule_matches_numeric_argmin():
    rng = np.random.default_rng(106)
    with Budget("criterion-06 update rule vs numeric argmin (500 each)", None):
        for variant in ("clipped", "clip-free"):
            for i in range(500):
                beta1 = float(rng.uniform(0.3, 0.99))
                kw = dict(
                    beta1=beta1, beta2=float(rng.uniform(0.3, 0.999)),
                    gamma=float(10.0 ** rng.uniform(-1, 1)),
                    nu=float(10.0 ** rng.uniform(-2, 0)), variant=variant,
                )
                if variant == "clipped":
                    kw["D"] = float(10.0 ** rng.uniform(-2, 1))
                else:
                    kw["mu"] = 0.0 if rng.random() < 0.25 else float(10.0 ** rng.uniform(-1, 1))
                cfg = adam.AdamConfig(**kw)
                t = int(rng.integers(1, 51))
                grads = rng.standard_normal((t, int(rng.integers(1, 4))))
                state = adam.AdamState.fresh(grads.shape[1])
                for g in grads:
                    state = adam.adam_update(cfg, state, g)
                norm = float(np.linalg.norm(adam.delta_for(cfg, state)))
                resid = oracles.ftrl_equivalence_residual(cfg, grads)
                assert resid <= 1e-8 * (1.0 + norm), (variant, i, resid)


def test_criterion_07_margin_arithmetic_rows():
    with Budget("criterion-07 margin arithmetic rows", None):
        rho = oracles.rho_of(0.9, 0.999)
        assert abs(rho - 0.989) <= 0.005 * 0.989
        assert abs(1 / math.sqrt(1 - rho**2) - 6.9) <= 0.005 * 6.9
        rho = oracles.rho_of(0.9, 0.95)
        assert abs(rho - 0.473) <= 0.005 * 0.473
        assert abs(1 / math.sqrt(1 - rho**2) - 1.13) <= 0.005 * 1.13
        rho = oracles.rho_of(0.95, 0.95)
        assert abs(rho - 0.025) <= 7e-4  # reported to two significant figures
        assert abs(1 / math.sqrt(1 - rho**2) - 1.0) <= 0.005


def test_criterion_08_tuning_calculators_resubstitute():
    rng = np.random.default_rng(108)
    with Budget("criterion-08 tuning calculators (100 inputs x 4)", None):
        for i in range(100):
            eps = float(10.0 ** rng.uniform(-2, 0))
            c = float(10.0 ** rng.uniform(-1, 1))
            G = float(10.0 ** rng.uniform(-0.5, 1))
            sigma = float(G * rng.uniform(0.0, 1.0))
            Fstar = float(10.0 ** rng.uniform(-1, 1))
            nu = float((G + sigma) * rng.uniform(0.05, 1.0))
            rho = float(rng.uniform(0.0, 0.99))
            for rep in (
                adam.tune(variant, eps, c, G, sigma, Fstar, nu, r)
                for variant in adam.VARIANTS for r in (None, rho)
            ):
                assert rep.feasible, (i, rep.reason)
                assert rep.beta2_lo <= rep.beta2 <= rep.beta2_hi < 1.0 or rep.beta2_hi == 1.0
                errs = adam.verify_report(rep)
                assert errs == [], (i, errs)


@pytest.mark.parametrize("variant", ["clipped", "clip-free"])
def test_criterion_09_driver_convergence(variant):
    G, sigma, c, T = 1.0, 0.1, 0.1, 20_000
    objective = o2nc.clamped_quadratic(10, radius=G)
    x0 = np.ones(10) / math.sqrt(10.0)
    g0 = float(np.linalg.norm(objective.grad(x0)))
    eps = 0.3 * g0
    nu = G + sigma
    fstar = objective.value(x0)
    with Budget(f"criterion-09 driver convergence ({variant})", 60.0):
        rep = adam.tune(variant, eps, c, G, sigma, fstar, nu)
        cfg = adam.AdamConfig(
            beta1=rep.beta1, beta2=rep.beta2, gamma=rep.gamma, nu=nu,
            variant=variant, D=rep.D, mu=rep.mu,
        )
        trace, deltas = oracles.run_o2nc_with_deltas(cfg, objective, sigma, T, 909, x0)
        tail = trace.grad_norms_at_xbar[-(T // 10):]
        print(f"  {variant}: grad at start {g0:.3f}, tail mean {tail.mean():.4f}")
        assert tail.mean() < 0.1 * g0
        if variant == "clipped":
            # np.linalg.norm, not the library's norm: an independent referee.
            # The trace keeps |Delta_t| alone, the norms of the run's own rows
            norms = np.linalg.norm(deltas, axis=1)
            assert np.all(norms <= rep.D * (1.0 + 1e-12))
            assert np.array_equal(trace.delta_norms, [adam._norm(row) for row in deltas])


def test_criterion_10_lemma_suites():
    with Budget("criterion-10 lemma fuzz suites (9 x 1000)", 60.0):
        verdicts = lemmas.run_all(instances=1000, seed=1010)
        assert len(verdicts) == 9
        for name, v in verdicts.items():
            print(f"  {name}: instances={v.instances} violations={v.violations} "
                  f"worst_slack={v.worst_slack:.3e}")
            assert v.instances >= 1000
            assert v.violations == 0, name
            assert np.isfinite(v.worst_slack)


def test_criterion_11_cli_determinism(tmp_path, capsys):
    def run(args):
        code = cli.main(args)
        out = capsys.readouterr().out
        assert code == 0, args
        return out

    with Budget("criterion-11 CLI determinism", None):
        for rep_dir in ("one", "two"):
            base = tmp_path / rep_dir
            base.mkdir()
            run(["gen", "--d", "2", "--T", "50", "--segments", "2", "--noise", "0.1",
                 "--seed", "17", "--out", str(base / "s.csv")])
            run(["gen", "--kind", "logistic-drift", "--d", "2", "--T", "50",
                 "--segments", "2", "--noise", "0.2", "--seed", "18",
                 "--out", str(base / "lg.csv")])
            run(["run-vaw", "--beta", "0.9", "--stream", str(base / "s.csv"),
                 "--out", str(base / "vaw.csv")])
            run(["run-aioli", "--beta", "0.9", "--stream", str(base / "lg.csv"),
                 "--out", str(base / "aioli.csv")])
            run(["run-ensemble", "--stream", str(base / "lg.csv"),
                 "--out", str(base / "ens.csv")])
            run(["run-o2nc", "--dim", "3", "--T", "200", "--seed", "19",
                 "--eps", "0.3", "--c", "0.1", "--out", str(base / "o2nc.csv")])
            run(["tune-adam", "--variant", "clipfree", "--eps", "0.2", "--c", "1",
                 "--G", "1", "--sigma", "0.1", "--Fstar", "1", "--nu", "0.5",
                 "--out", str(base / "tune.json")])
            run(["verify-lemmas", "--instances", "40", "--seed", "20"])
        one, two = tmp_path / "one", tmp_path / "two"
        names = sorted(p.name for p in one.iterdir())
        assert names == sorted(p.name for p in two.iterdir())
        for name in names:
            assert (one / name).read_bytes() == (two / name).read_bytes(), name
