import numpy as np
import pytest

from shadowpse.errors import DimensionMismatch, EmptyArm, LengthMismatch
from shadowpse.estimator import (
    estimate_psi,
    fit_mu_chain,
    gamma_values_for,
    named_estimand,
    validate_profile,
)
from shadowpse.gamma_solver import GammaOptions, fit_gamma
from shadowpse.inference import analyze_contrast
from shadowpse.series_regression import (
    SampleDesigns,
    predict_many,
    project_residual_orthogonality,
)
from shadowpse.sieve_basis import SieveOptions, build_spec_bundle
from shadowpse.simulation import DgpConfig, generate, true_gamma_values

from support import TRUE_PSI, one_mediator_dataset, rng_for, seq, tile_dataset


def test_named_estimand_profiles():
    assert named_estimand("te", 2) == ((1, 1, 1), (0, 0, 0))
    assert named_estimand("nde", 2) == ((0, 0, 1), (0, 0, 0))
    assert named_estimand("nie_1", 2) == ((1, 1, 1), (0, 1, 1))
    assert named_estimand("nie_2", 2) == ((0, 1, 1), (0, 0, 1))
    assert named_estimand("te", 1) == ((1, 1), (0, 0))
    with pytest.raises(DimensionMismatch):
        named_estimand("nie_3", 2)
    with pytest.raises(DimensionMismatch):
        named_estimand("bogus", 2)


def test_validate_profile():
    assert validate_profile([1, 0, 1], 2) == (1, 0, 1)
    with pytest.raises(DimensionMismatch):
        validate_profile((1, 0), 2)
    with pytest.raises(DimensionMismatch):
        validate_profile((1, 2, 0), 2)


def test_gamma_values_for_accepts_model_or_vector(obs600, gamma2000):
    designs = SampleDesigns(obs600, build_spec_bundle(obs600))
    vec = np.linspace(0.0, 1.0, obs600.n)
    np.testing.assert_array_equal(gamma_values_for(designs, vec), vec)
    with pytest.raises((DimensionMismatch, LengthMismatch)):
        gamma_values_for(designs, np.zeros(10))


def test_constant_outcome_and_constant_odds_scaling():
    rng = rng_for(37)
    n = 200
    x = rng.random(n)
    a = (rng.random(n) < 0.5).astype(int)
    m1 = x + rng.standard_normal(n)
    ds = one_mediator_dataset(n, x, a, m1, np.full(n, 3.25))
    designs = SampleDesigns(ds, build_spec_bundle(ds, SieveOptions(degree=2)))
    fits = fit_mu_chain(ds, np.zeros(n), (1, 0), designs)
    assert abs(estimate_psi(ds, fits, designs).psi_hat - 3.25) <= 1e-12
    fits_c = fit_mu_chain(ds, np.full(n, 0.4), (1, 0), designs)
    assert abs(estimate_psi(ds, fits_c, designs).psi_hat - 1.4 * 3.25) <= 1e-12


def test_linear_chain_equals_per_arm_least_squares(comp600):
    designs = SampleDesigns(comp600, build_spec_bundle(
        comp600, SieveOptions(mu_degree=1, mu_interactions=False)))
    profile = (1, 0, 1)
    fits = fit_mu_chain(comp600, np.zeros(comp600.n), profile, designs)
    resp = comp600.y.copy()
    for k in (3, 2, 1):
        pts = comp600.mu_points(k)
        arm = comp600.a == profile[k - 1]
        design = np.column_stack([np.ones(int(arm.sum())), pts[arm]])
        coef, *_ = np.linalg.lstsq(design, resp[arm], rcond=None)
        direct = np.column_stack([np.ones(len(pts)), pts]) @ coef
        mine = predict_many(fits.mu[k - 1], pts)
        np.testing.assert_allclose(mine, direct, atol=1e-10)
        resp = mine
    est = estimate_psi(comp600, fits, designs)
    assert est.psi_hat == est.per_unit_plugin.mean()
    assert abs(est.psi_hat - direct.mean()) <= 1e-10


def test_chain_orthogonality_under_estimated_odds():
    worst = 0.0
    for i in range(8):
        full, obs = generate(DgpConfig(n=250, seed=seq(8, i)))
        designs = SampleDesigns(obs, build_spec_bundle(obs))
        model, _ = fit_gamma(obs, designs, GammaOptions())
        profile = (0, 1, 1) if i % 2 else (1, 0, 1)
        fits = fit_mu_chain(obs, model, profile, designs)
        cc = obs.complete_mask
        growth = 1.0 + model.values(designs)[cc]
        resp = obs.y[cc]
        for k in (3, 2, 1):
            w = np.where(obs.a[cc] == profile[k - 1], growth, 0.0)
            worst = max(worst, project_residual_orthogonality(
                fits.mu[k - 1], obs.mu_points(k), resp, w))
            resp = predict_many(fits.mu[k - 1], obs.mu_points(k))
    assert worst <= 1e-6


def test_psi_recovers_truth_with_known_odds():
    points = []
    for i in range(200):
        full, obs = generate(DgpConfig(n=2000, seed=seq(6, i)))
        designs = SampleDesigns(obs, build_spec_bundle(obs))
        gamma = np.where(obs.r == 0, 0.0,
                         true_gamma_values(full, DgpConfig(n=2000)))
        fits = fit_mu_chain(obs, gamma, (1, 1, 1), designs)
        points.append(estimate_psi(obs, fits, designs).psi_hat)
    assert abs(float(np.mean(points)) - TRUE_PSI["111"]) <= 0.05


def psi_contrast(ds, gamma, designs, pa, pb):
    return (estimate_psi(ds, fit_mu_chain(ds, gamma, pa, designs), designs).psi_hat
            - estimate_psi(ds, fit_mu_chain(ds, gamma, pb, designs), designs).psi_hat)


def test_contrast_zero_for_equal_profiles(obs600, gamma2000):
    designs = SampleDesigns(obs600, build_spec_bundle(obs600))
    model, _ = fit_gamma(obs600, designs, GammaOptions())
    cache = {}
    res = analyze_contrast(obs600, model, (1, 1, 1), (1, 1, 1), designs, cache=cache)
    assert res.report.psi_hat == 0.0
    assert len(cache) == 1


def test_contrast_cache_and_total_effect_telescoping(obs2000, bundle2000, gamma2000):
    model, _ = gamma2000
    designs = SampleDesigns(obs2000, bundle2000)
    cache = {}
    parts = {}
    for name in ("nde", "nie_1", "nie_2", "te"):
        pa, pb = named_estimand(name, 2)
        parts[name] = analyze_contrast(obs2000, model, pa, pb, designs,
                                       cache=cache).report.psi_hat
    assert len(cache) == 4  # four distinct profiles across the contrasts
    resid = parts["nde"] + parts["nie_1"] + parts["nie_2"] - parts["te"]
    assert abs(resid) <= 1e-12


def test_duplication_invariance(obs600):
    designs = SampleDesigns(obs600, build_spec_bundle(obs600))
    model, _ = fit_gamma(obs600, designs, GammaOptions())
    gv = model.values(designs)
    single = psi_contrast(obs600, gv, designs, (1, 1, 1), (0, 0, 0))
    doubled_ds = tile_dataset(obs600, 2)
    doubled_designs = SampleDesigns(doubled_ds, build_spec_bundle(doubled_ds))
    doubled = psi_contrast(doubled_ds, np.tile(gv, 2), doubled_designs,
                           (1, 1, 1), (0, 0, 0))
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
        fit_mu_chain(ds, np.zeros(n), (1, 1), designs)
