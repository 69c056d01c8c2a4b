import numpy as np
import pytest

from shadowpse.baselines import sri_estimate
from shadowpse.errors import ConfigError, EmptyArm
from shadowpse.estimator import (
    estimate_psi,
    fit_mu_chain,
    named_estimand,
    validate_profile,
)
from shadowpse.gamma_solver import GammaOptions, fit_gamma
from shadowpse.series_regression import (
    RunFits,
    SampleDesigns,
    project_residual_orthogonality,
)
from shadowpse.sieve_basis import SieveOptions, build_spec_bundle, design_matrix
from shadowpse.simulation import DgpConfig, generate, true_gamma_values

from support import TRUE_PSI, one_mediator_dataset, rng_for, seq, tile_dataset


def test_named_estimand_profiles():
    assert named_estimand("te", 2) == ((1, 1, 1), (0, 0, 0))
    assert named_estimand("nde", 2) == ((0, 0, 1), (0, 0, 0))
    assert named_estimand("nie_1", 2) == ((1, 1, 1), (0, 1, 1))
    assert named_estimand("nie_2", 2) == ((0, 1, 1), (0, 0, 1))
    assert named_estimand("te", 1) == ((1, 1), (0, 0))
    with pytest.raises(ConfigError):
        named_estimand("nie_3", 2)
    with pytest.raises(ConfigError):
        named_estimand("bogus", 2)


def test_validate_profile():
    assert validate_profile([1, 0, 1], 2) == (1, 0, 1)
    with pytest.raises(ConfigError):
        validate_profile((1, 0), 2)
    with pytest.raises(ConfigError):
        validate_profile((1, 2, 0), 2)


def test_constant_outcome_and_constant_odds_scaling():
    rng = rng_for(37)
    n = 200
    x = rng.random(n)
    a = (rng.random(n) < 0.5).astype(int)
    m1 = x + rng.standard_normal(n)
    ds = one_mediator_dataset(n, x, a, m1, np.full(n, 3.25))
    designs = SampleDesigns(ds, build_spec_bundle(ds, SieveOptions(degree=2)))
    run = RunFits(designs, np.zeros(n))
    assert abs(estimate_psi(run, fit_mu_chain(run, (1, 0))) - 3.25) <= 1e-12
    run_c = RunFits(designs, np.full(n, 0.4))
    assert abs(estimate_psi(run_c, fit_mu_chain(run_c, (1, 0))) - 1.4 * 3.25) <= 1e-12


def test_linear_chain_equals_per_arm_least_squares(comp600):
    designs = SampleDesigns(comp600, build_spec_bundle(
        comp600, SieveOptions(mu_degree=1, mu_interactions=False)))
    profile = (1, 0, 1)
    run = RunFits(designs, np.zeros(comp600.n))
    fits = fit_mu_chain(run, profile)
    resp = comp600.y.copy()
    for k in (3, 2, 1):
        pts = comp600.mu_points(k)
        arm = comp600.a == profile[k - 1]
        design = np.column_stack([np.ones(int(arm.sum())), pts[arm]])
        coef, *_ = np.linalg.lstsq(design, resp[arm], rcond=None)
        direct = np.column_stack([np.ones(len(pts)), pts]) @ coef
        mine = design_matrix(designs.bundle.u[k - 1], pts) @ fits.mu[k - 1]
        np.testing.assert_allclose(mine, direct, atol=1e-10)
        resp = mine
    assert abs(estimate_psi(run, fits) - direct.mean()) <= 1e-10


def test_chain_orthogonality_under_estimated_odds():
    worst = 0.0
    for i in range(8):
        full, obs = generate(DgpConfig(n=250, seed=seq(8, i)))
        designs = SampleDesigns(obs, build_spec_bundle(obs))
        model, _ = fit_gamma(designs, GammaOptions())
        odds = model.values(designs)
        profile = (0, 1, 1) if i % 2 else (1, 0, 1)
        fits = fit_mu_chain(RunFits(designs, odds), profile)
        cc = obs.complete_mask
        growth = 1.0 + odds
        resp = obs.y[cc]
        for k in (3, 2, 1):
            w = np.where(obs.a[cc] == profile[k - 1], growth, 0.0)
            spec = designs.bundle.u[k - 1]
            worst = max(worst, project_residual_orthogonality(
                spec, fits.mu[k - 1], obs.mu_points(k), resp, w))
            resp = design_matrix(spec, obs.mu_points(k)) @ fits.mu[k - 1]
    assert worst <= 1e-6


def test_psi_recovers_truth_with_known_odds():
    points = []
    for i in range(200):
        full, obs = generate(DgpConfig(n=2000, seed=seq(6, i)))
        designs = SampleDesigns(obs, build_spec_bundle(obs))
        run = RunFits(designs, true_gamma_values(full, DgpConfig(n=2000))[obs.complete_mask])
        points.append(estimate_psi(run, fit_mu_chain(run, (1, 1, 1))))
    assert abs(float(np.mean(points)) - TRUE_PSI["111"]) <= 0.05


def psi_contrast(run, pa, pb):
    return estimate_psi(run, fit_mu_chain(run, pa)) - estimate_psi(run, fit_mu_chain(run, pb))


def test_contrast_zero_for_equal_profiles(obs600):
    res = sri_estimate(obs600, [((1, 1, 1), (1, 1, 1))])
    rep = res.estimands["psi_111_vs_111"]
    assert rep.psi_hat == 0.0
    assert rep.se == 0.0
    assert list(res.profiles) == [(1, 1, 1)]


def test_duplication_invariance(obs600):
    designs = SampleDesigns(obs600, build_spec_bundle(obs600))
    model, _ = fit_gamma(designs, GammaOptions())
    gv = model.values(designs)
    single = psi_contrast(RunFits(designs, gv), (1, 1, 1), (0, 0, 0))
    doubled_ds = tile_dataset(obs600, 2)
    doubled_designs = SampleDesigns(doubled_ds, build_spec_bundle(doubled_ds))
    doubled = psi_contrast(RunFits(doubled_designs, np.tile(gv, 2)), (1, 1, 1), (0, 0, 0))
    assert abs(single - doubled) <= 1e-10


def test_empty_arm_raises():
    rng = rng_for(313)
    n = 60
    x = rng.random(n)
    m1 = x + rng.standard_normal(n)
    y = m1 + rng.standard_normal(n)
    ds = one_mediator_dataset(n, x, np.zeros(n, dtype=int), m1, y)
    designs = SampleDesigns(ds, build_spec_bundle(ds, SieveOptions(degree=1)))
    with pytest.raises(EmptyArm):
        fit_mu_chain(RunFits(designs, np.zeros(n)), (1, 1))
