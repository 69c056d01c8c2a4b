"""End-to-end acceptance checks for the benchmark study.

Every test prints one `[PASS]`/`[FAIL]` line naming the criterion and
the measured margins (run pytest with `-s` to see the lines on a green
run). The two Monte Carlo fixtures dominate the runtime; expect a few
minutes on a single core.
"""

import os

import numpy as np
import pytest
import scipy.optimize

from shadowpse import cli
from shadowpse.baselines import cca_estimate, oracle_estimate, sri_estimate
from shadowpse.estimator import fit_mu_chain
from shadowpse.gamma_solver import (
    GammaOptions,
    _GammaProblem,
    fit_gamma,
    weak_norm_sq,
)
from shadowpse.inference import fit_omegas, fit_representer
from shadowpse.series_regression import (
    RunFits,
    SampleDesigns,
    orthonormal_span,
    predict_many,
    project_residual_orthogonality,
)
from shadowpse.sieve_basis import SieveOptions, build_spec_bundle, design_matrix
from shadowpse.simulation import (
    TRUTH_SEED,
    DgpConfig,
    generate,
    run_monte_carlo,
)

from support import one_mediator_dataset, rng_for, seq

MASTER_SEED = 20260814
ESTIMANDS = ("nde", "nie_1", "nie_2", "te")

ORACLE_BIAS = {"nde": -0.003, "nie_1": 0.001, "nie_2": 0.007, "te": 0.005}
ORACLE_SE = {"nde": 0.075, "nie_1": 0.137, "nie_2": 0.149, "te": 0.170}
SRI_SE = {"nde": 0.105, "nie_1": 0.178, "nie_2": 0.177, "te": 0.195}


def check(ok, label, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def mc_main():
    return run_monte_carlo(DgpConfig(n=1000), reps=1000,
                           methods=["oracle", "sri"],
                           master_seed=MASTER_SEED, workers=os.cpu_count())


@pytest.fixture(scope="module")
def mc_large():
    return run_monte_carlo(DgpConfig(n=2000), reps=150,
                           methods=["cca", "mi"],
                           master_seed=MASTER_SEED, workers=os.cpu_count())


def test_criterion_1_oracle_calibration(mc_main):
    cells = {e: mc_main.cells[("oracle", e)] for e in ESTIMANDS}
    dev = max(abs(cells[e].bias - ORACLE_BIAS[e]) for e in ESTIMANDS)
    ratios = [cells[e].se / ORACLE_SE[e] for e in ESTIMANDS]
    cps = [cells[e].cp for e in ESTIMANDS]
    ok = (dev <= 0.02
          and all(0.8 <= r <= 1.2 for r in ratios)
          and all(0.93 <= c <= 0.97 for c in cps))
    check(ok, "criterion 1 (oracle calibration, n=1000 x 1000 reps)",
          f"max|bias-target|={dev:.4f} (tol 0.02), "
          f"se/target in [{min(ratios):.3f},{max(ratios):.3f}] (need [0.8,1.2]), "
          f"cp in [{min(cps):.3f},{max(cps):.3f}] (need [0.93,0.97]), "
          f"reps_used={cells['te'].reps_used}")


def test_criterion_2_sri_calibration(mc_main):
    cells = {e: mc_main.cells[("sri", e)] for e in ESTIMANDS}
    bias = max(abs(cells[e].bias) for e in ESTIMANDS)
    ratios = [cells[e].se / SRI_SE[e] for e in ESTIMANDS]
    cps = [cells[e].cp for e in ESTIMANDS]
    used = min(cells[e].reps_used for e in ESTIMANDS)
    ok = (bias <= 0.05
          and all(0.75 <= r <= 1.25 for r in ratios)
          and all(0.92 <= c <= 0.985 for c in cps)
          and used >= 500)
    check(ok, "criterion 2 (shadow estimator calibration, n=1000)",
          f"max|bias|={bias:.4f} (tol 0.05), "
          f"se/target in [{min(ratios):.3f},{max(ratios):.3f}] (need [0.75,1.25]), "
          f"cp in [{min(cps):.3f},{max(cps):.3f}] (need [0.92,0.985]), "
          f"reps_used={used} (need >=500)")


def test_criterion_3_naive_baselines_break(mc_large):
    cca_te = mc_large.cells[("cca", "te")]
    mi_nde = mc_large.cells[("mi", "nde")]
    ok = (-0.80 <= cca_te.bias <= -0.60
          and mi_nde.bias <= -0.03
          and cca_te.cp <= 0.20)
    check(ok, "criterion 3 (baseline failure, n=2000 x 150 reps)",
          f"cca te bias={cca_te.bias:.4f} (need [-0.80,-0.60]), "
          f"mi nde bias={mi_nde.bias:.4f} (need <=-0.03), "
          f"cca te cp={cca_te.cp:.3f} (need <=0.20)")


def test_criterion_4_missingness_rate():
    full, obs = generate(DgpConfig(n=10 ** 6, seed=TRUTH_SEED))
    frac = float((obs.r == 0).mean())
    ok = abs(frac - 0.437) <= 0.01
    check(ok, "criterion 4 (missingness rate, n=1e6)",
          f"miss_frac={frac:.5f} (need 0.437 +/- 0.01)")


def test_criterion_5a_chain_residual_orthogonality():
    worst_mu = 0.0
    worst_omega = 0.0
    for i in range(50):
        full, obs = generate(DgpConfig(n=250, seed=seq(8, i)))
        designs = SampleDesigns(obs, build_spec_bundle(obs))
        model, _ = fit_gamma(designs, GammaOptions())
        profile = (0, 1, 1) if i % 2 else (1, 0, 1)
        run = RunFits(designs, model.values(designs))
        fits = fit_mu_chain(run, profile)
        cc = obs.complete_mask
        growth = 1.0 + run.odds_cc
        resp = obs.y[cc]
        for k in (3, 2, 1):
            w = np.where(obs.a[cc] == profile[k - 1], growth, 0.0)
            worst_mu = max(worst_mu, project_residual_orthogonality(
                fits.mu[k - 1], obs.mu_points(k), resp, w))
            resp = predict_many(fits.mu[k - 1], obs.mu_points(k))
        omegas = fit_omegas(run, profile)
        worst_omega = max(worst_omega, omegas.moment_residual_sup)
    ok = worst_mu <= 1e-6 and worst_omega <= 1e-6
    check(ok, "criterion 5a (normal-equation orthogonality, 50 instances)",
          f"worst mu residual={worst_mu:.2e}, "
          f"worst omega moment residual={worst_omega:.2e} (tol 1e-6)")


def test_criterion_5b_criterion_gradient():
    full, obs = generate(DgpConfig(n=300, seed=seq(11)))
    bundle = build_spec_bundle(obs, SieveOptions(degree=1, include_interactions=False))
    prob = _GammaProblem(SampleDesigns(obs, bundle))
    rng = rng_for(11, 1)
    h = 1e-6
    worst = 0.0
    for _ in range(20):
        pi = 0.3 * rng.standard_normal(bundle.q.dim)
        _, grad = prob.value_and_grad(pi, 10.0)
        fd = np.zeros_like(pi)
        for j in range(len(pi)):
            e = np.zeros_like(pi)
            e[j] = h
            up = prob.value_and_grad(pi + e, 10.0)[0]
            dn = prob.value_and_grad(pi - e, 10.0)[0]
            fd[j] = (up - dn) / (2.0 * h)
        rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
        worst = max(worst, rel)
    ok = worst <= 1e-5
    check(ok, "criterion 5b (analytic gradient vs finite differences)",
          f"worst relative error={worst:.2e} (tol 1e-5) over 20 points")


def test_criterion_5c_mcar_recovers_constant_odds():
    rng = rng_for(2)
    n = 5000
    x = rng.random(n)
    z = x + 0.3 * rng.standard_normal(n)
    a = (rng.random(n) < 0.5).astype(int)
    m1 = x + rng.standard_normal(n)
    y = m1 + a + rng.standard_normal(n)
    r = (rng.random(n) < 0.7).astype(int)
    ds = one_mediator_dataset(n, x, a, m1, y, r=r, z=z)
    bundle = build_spec_bundle(ds, SieveOptions(degree=1, include_interactions=False))
    model, report = fit_gamma(SampleDesigns(ds, bundle), GammaOptions())
    vals = model.values_at(ds.regressor_points())
    frac = float(np.mean(np.abs(vals - 3.0 / 7.0) <= 0.05))
    ok = report.converged and frac >= 0.9
    check(ok, "criterion 5c (MCAR data gives near-constant odds)",
          f"fraction within 0.05 of 3/7: {frac:.3f} (need >=0.9)")


def test_criterion_5d_effects_telescope(obs2000):
    res = sri_estimate(obs2000)
    parts = res.estimands
    resid = abs(parts["nde"].psi_hat + parts["nie_1"].psi_hat
                + parts["nie_2"].psi_hat - parts["te"].psi_hat)
    ok = resid <= 1e-12
    check(ok, "criterion 5d (total effect telescopes over paths)",
          f"|nde+nie_1+nie_2-te|={resid:.2e} (tol 1e-12)")


def test_criterion_5e_full_data_reduction(comp2000):
    results = {
        "oracle": oracle_estimate(comp2000),
        "sri": sri_estimate(comp2000),
        "cca": cca_estimate(comp2000),
    }
    base = results["oracle"]
    worst = 0.0
    for res in results.values():
        for est in ESTIMANDS:
            worst = max(
                worst,
                abs(res.estimands[est].psi_hat - base.estimands[est].psi_hat),
                abs(res.estimands[est].se - base.estimands[est].se))
    ok = worst <= 1e-10
    check(ok, "criterion 5e (all methods coincide on complete data)",
          f"max point/se discrepancy={worst:.2e} (tol 1e-10)")


def test_criterion_5f_representer_closed_form():
    full, obs = generate(DgpConfig(n=40, seed=seq(9)))
    mask = np.zeros(obs.n, dtype=bool)
    mask[:20] = True
    ds = obs.subset(mask)
    bundle = build_spec_bundle(ds, SieveOptions(degree=1, include_interactions=False))
    phi = ds.y[ds.complete_mask]
    rho, value = fit_representer(SampleDesigns(ds, bundle), phi)

    eps = rho.diagnostics.gram_diag_ridge
    smat = design_matrix(bundle.q, ds.regressor_points())
    span = orthonormal_span(design_matrix(bundle.p, ds.conditioning_points()))
    gmat = span[ds.complete_mask].T @ smat
    rhs = smat.T @ phi
    hess = gmat.T @ gmat + eps * np.eye(bundle.q.dim)
    res = scipy.optimize.minimize(
        lambda c: 0.5 * c @ hess @ c - rhs @ c,
        np.zeros(bundle.q.dim),
        jac=lambda c: hess @ c - rhs,
        hess=lambda c: hess,
        method="trust-exact",
        options={"gtol": 1e-13},
    )
    diff = float(np.max(np.abs(res.x - rho.coef)))
    ok = diff <= 1e-6 and value <= 0.0
    check(ok, "criterion 5f (representer matches brute-force minimiser)",
          f"max coefficient difference={diff:.2e} (tol 1e-6)")


def test_criterion_5g_weak_norm_shrinks():
    from shadowpse.simulation import true_gamma_values

    meds = {}
    for n in (1000, 4000):
        vals = []
        for i in range(50):
            full, obs = generate(DgpConfig(n=n, seed=seq(4, n, i)))
            designs = SampleDesigns(obs, build_spec_bundle(obs))
            model, _ = fit_gamma(designs, GammaOptions())
            truth = true_gamma_values(full, DgpConfig(n=n))[obs.complete_mask]
            vals.append(weak_norm_sq(model.values(designs), truth, designs))
        meds[n] = float(np.median(vals))
    ok = meds[4000] < meds[1000]
    check(ok, "criterion 5g (projected odds error shrinks with n)",
          f"median weak norm: n=1000 {meds[1000]:.4f} > n=4000 {meds[4000]:.4f}")


def test_criterion_6_simulation_reproducibility(tmp_path):
    args = ["simulate", "--n", "250", "--reps", "2", "--methods", "cca",
            "--seed", "11", "--big-n", "20000"]
    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    rc1 = cli.main(args + ["--out", str(d1)])
    rc2 = cli.main(args + ["--out", str(d2)])
    same_table = ((d1 / "mc_table.csv").read_bytes()
                  == (d2 / "mc_table.csv").read_bytes())
    same_summary = ((d1 / "mc_summary.json").read_bytes()
                    == (d2 / "mc_summary.json").read_bytes())
    ok = rc1 == 0 and rc2 == 0 and same_table and same_summary
    check(ok, "criterion 6 (repeated runs are byte-identical)",
          f"mc_table.csv identical={same_table}, "
          f"mc_summary.json identical={same_summary}")
