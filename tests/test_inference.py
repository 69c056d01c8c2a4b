import numpy as np
import pytest
import scipy.optimize

from shadowpse.errors import DimensionMismatch, LengthMismatch
from shadowpse.gamma_solver import GammaModel, GammaOptions, fit_gamma
from shadowpse.inference import (
    InferenceReport,
    analyze_contrast,
    analyze_profile,
    contrast_variance,
    fit_omegas,
    fit_representer,
    influence_values,
    phi_values,
    variance_and_ci,
    z_critical,
)
from shadowpse.series_regression import SampleDesigns, orthonormal_span, predict_many
from shadowpse.sieve_basis import SieveOptions, build_spec_bundle, design_matrix
from shadowpse.simulation import DgpConfig, generate

from support import one_mediator_dataset, rng_for, seq, tile_dataset


def zero_gamma():
    return GammaModel(spec_q=None, pi=None, linear_cap=10.0, is_zero=True)


def test_z_critical_values():
    assert abs(z_critical(0.95) - 1.959963984540054) <= 1e-9
    assert abs(z_critical(0.90) - 1.6448536269514722) <= 1e-9
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(DimensionMismatch):
            z_critical(bad)


def test_omega_identically_one_pattern(obs2000, bundle2000, gamma2000):
    model, _ = gamma2000
    om = fit_omegas(obs2000, model, (1, 1, 1), SampleDesigns(obs2000, bundle2000))
    assert om.identically_one == [False, True, True]
    assert om.omega[1] is None and om.omega[2] is None
    assert om.moment_residual_sup <= 1e-6
    om_mixed = fit_omegas(obs2000, model, (1, 0, 1), SampleDesigns(obs2000, bundle2000))
    assert om_mixed.identically_one == [False, False, False]
    assert om_mixed.moment_residual_sup <= 1e-6


def test_omega_recovers_inverse_propensity():
    # A independent of X with P(A=1)=1/2, so omega_1 for arm 1 is 2 everywhere
    rng = rng_for(3)
    n = 5000
    x = rng.random(n)
    a = (rng.random(n) < 0.5).astype(int)
    m1 = x + rng.standard_normal(n)
    y = m1 + rng.standard_normal(n)
    ds = one_mediator_dataset(n, x, a, m1, y)
    bundle = build_spec_bundle(ds, SieveOptions(degree=2))
    om = fit_omegas(ds, np.zeros(n), (1, 1), SampleDesigns(ds, bundle))
    vals = predict_many(om.omega[0], ds.mu_points(1))
    assert float(np.mean(np.abs(vals - 2.0) <= 0.1)) >= 0.9
    assert om.moment_residual_sup <= 1e-6


def test_omega_floor_engages_when_arm_support_vanishes():
    rng = rng_for(40, 300, 3)
    n = 300
    x = rng.random(n)
    a = (x < 0.4).astype(int)
    m1 = x + 0.1 * rng.standard_normal(n)
    y = m1 + rng.standard_normal(n)
    ds = one_mediator_dataset(n, x, a, m1, y)
    bundle = build_spec_bundle(ds, SieveOptions(degree=3))
    om = fit_omegas(ds, np.zeros(n), (1, 1), SampleDesigns(ds, bundle))
    assert om.floor_events > 0
    assert om.floor == 1e-3


def phi_at_row(ds, i, fits, omegas):
    """Reference phi of complete record i, evaluated one point at a time."""
    prof = fits.profile
    kk = len(prof) - 1
    x = np.concatenate([ds.x_miss[i], ds.x_obs[i]])
    points = [np.concatenate([x] + [ds.m[j][i] for j in range(k)]) for k in range(kk + 1)]

    def at(reg, k):
        return float(design_matrix(reg.spec, points[k][None])[0] @ reg.coef)

    mu = [at(fits.mu[k], k) for k in range(kk + 1)]
    cum = [at(omegas.cumulative[k], k) for k in range(kk + 1)]
    phi = mu[0]
    for k in range(1, kk + 1):
        if ds.a[i] == prof[k - 1]:
            phi += cum[k - 1] * (mu[k] - mu[k - 1])
    if ds.a[i] == prof[kk]:
        phi += cum[kk] * (ds.y[i] - mu[kk])
    return phi


def test_phi_values_matches_per_record_path(obs600):
    designs = SampleDesigns(obs600, build_spec_bundle(obs600))
    model, _ = fit_gamma(obs600, designs, GammaOptions())
    analysis = analyze_profile(obs600, model, (1, 0, 1), designs)
    for i in np.flatnonzero(obs600.complete_mask)[:25]:
        got = phi_at_row(obs600, i, analysis.fits, analysis.omegas)
        assert abs(got - analysis.phi[i]) <= 1e-10


def test_reweighted_phi_mean_reproduces_psi(obs2000, bundle2000, gamma2000):
    model, _ = gamma2000
    designs = SampleDesigns(obs2000, bundle2000)
    gvals = model.values(designs)
    for profile in ((0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)):
        analysis = analyze_profile(obs2000, model, profile, designs)
        lhs = float(np.mean(obs2000.r * (1.0 + gvals) * analysis.phi))
        assert abs(lhs - analysis.psi.psi_hat) <= 1e-8


def test_representer_zero_target(obs600):
    designs = SampleDesigns(obs600, build_spec_bundle(obs600))
    model, _ = fit_gamma(obs600, designs, GammaOptions())
    rho, value = fit_representer(obs600, model, np.zeros(obs600.n), designs)
    np.testing.assert_allclose(rho.coef, 0.0, atol=1e-12)
    assert value == 0.0


def test_representer_matches_brute_force_minimiser():
    full, obs = generate(DgpConfig(n=40, seed=seq(9)))
    mask = np.zeros(obs.n, dtype=bool)
    mask[:20] = True
    ds = obs.subset(mask)
    bundle = build_spec_bundle(ds, SieveOptions(degree=1, include_interactions=False))
    gamma = np.abs(np.where(ds.r == 0, 0.0, 0.5 + 0.1 * ds.y))
    phi = np.where(ds.r == 1, ds.y, 0.0)
    rho, value = fit_representer(ds, gamma, phi, SampleDesigns(ds, bundle))
    assert value <= 0.0

    # independent reconstruction of the ridged quadratic objective
    eps = rho.diagnostics.gram_diag_ridge
    smat = design_matrix(bundle.q, ds.regressor_points())
    span = orthonormal_span(design_matrix(bundle.p, ds.conditioning_points()))
    gmat = span[ds.complete_mask].T @ smat
    rhs = smat.T @ phi[ds.complete_mask]
    hess = gmat.T @ gmat + eps * np.eye(bundle.q.dim)
    res = scipy.optimize.minimize(
        lambda c: 0.5 * c @ hess @ c - rhs @ c,
        np.zeros(bundle.q.dim),
        jac=lambda c: hess @ c - rhs,
        hess=lambda c: hess,
        method="trust-exact",
        options={"gtol": 1e-13},
    )
    assert float(np.max(np.abs(res.x - rho.coef))) <= 1e-6


def test_influence_complete_data_reduction(comp600):
    designs = SampleDesigns(comp600, build_spec_bundle(comp600))
    analysis = analyze_profile(comp600, zero_gamma(), (1, 1, 1), designs)
    assert analysis.rho is None
    assert abs(float(analysis.if_values.mean())) <= 1e-10
    assert analysis.report.se > 0.0


def test_influence_requires_representer_when_data_incomplete(obs600, gamma2000):
    designs = SampleDesigns(obs600, build_spec_bundle(obs600))
    model, _ = fit_gamma(obs600, designs, GammaOptions())
    phi = np.where(obs600.r == 1, obs600.y, 0.0)
    with pytest.raises(DimensionMismatch):
        influence_values(obs600, model, 0.0, phi, None, designs)


def test_influence_mean_small_under_fitted_odds():
    for i in range(6):
        full, obs = generate(DgpConfig(n=2000, seed=seq(5, i)))
        designs = SampleDesigns(obs, build_spec_bundle(obs))
        model, _ = fit_gamma(obs, designs, GammaOptions())
        analysis = analyze_profile(obs, model, (1, 1, 1), designs)
        ifv = analysis.if_values
        ratio = abs(ifv.mean()) / (ifv.std(ddof=1) / np.sqrt(obs.n))
        assert ratio <= 0.5


def test_variance_and_ci_examples():
    rep = variance_and_ci(2.0, np.zeros(50))
    assert rep.sigma2 == 0.0 and rep.se == 0.0
    assert rep.ci_lo == rep.ci_hi == 2.0

    if_values = np.tile([1.0, -1.0], 200)
    rep = variance_and_ci(1.5, if_values, level=0.95)
    assert rep.sigma2 == 1.0
    assert abs(rep.se - 0.05) <= 1e-15
    z = 1.959963984540054
    assert abs(rep.ci_lo - (1.5 - z * 0.05)) <= 1e-12
    assert abs(rep.ci_hi - (1.5 + z * 0.05)) <= 1e-12
    assert rep.n == 400 and rep.level == 0.95


def test_contrast_variance_properties():
    rng = rng_for(314)
    if_a = rng.standard_normal(300)
    if_b = rng.standard_normal(300)
    same = contrast_variance(0.0, if_a, if_a)
    assert same.se == 0.0
    diff = contrast_variance(0.3, if_a, if_b)
    sa = variance_and_ci(0.0, if_a).se
    sb = variance_and_ci(0.0, if_b).se
    assert diff.se <= sa + sb + 1e-12
    with pytest.raises(LengthMismatch):
        contrast_variance(0.0, if_a, if_b[:-1])


def test_interval_width_halves_under_fourfold_duplication(obs600):
    designs = SampleDesigns(obs600, build_spec_bundle(obs600))
    model, _ = fit_gamma(obs600, designs, GammaOptions())
    gv = model.values(designs)
    base = analyze_profile(obs600, gv, (1, 1, 1), designs)
    big_ds = tile_dataset(obs600, 4)
    big = analyze_profile(big_ds, np.tile(gv, 4), (1, 1, 1),
                          SampleDesigns(big_ds, build_spec_bundle(big_ds)))
    assert abs(big.report.se / base.report.se - 0.5) <= 1e-10
    assert abs(big.report.psi_hat - base.report.psi_hat) <= 1e-10


def test_analyze_contrast_shape_and_cache(obs600):
    designs = SampleDesigns(obs600, build_spec_bundle(obs600))
    model, _ = fit_gamma(obs600, designs, GammaOptions())
    cache = {}
    res = analyze_contrast(obs600, model, (1, 1, 1), (0, 0, 0), designs,
                           cache=cache)
    assert len(cache) == 2
    same = analyze_contrast(obs600, model, (1, 1, 1), (1, 1, 1), designs,
                            cache=cache)
    assert same.report.psi_hat == 0.0
    assert same.report.se == 0.0
    for key in ("profile_a", "profile_b", "psi_a", "psi_b"):
        assert key in res.report.diagnostics
    assert res.report.ci_lo <= res.report.psi_hat <= res.report.ci_hi


def test_report_schema(obs600):
    designs = SampleDesigns(obs600, build_spec_bundle(obs600))
    model, _ = fit_gamma(obs600, designs, GammaOptions())
    analysis = analyze_profile(obs600, model, (0, 1, 1), designs)
    doc = analysis.report.to_dict()
    assert sorted(doc) == ["ci_hi", "ci_lo", "diagnostics", "level", "n",
                           "psi_hat", "se", "sigma2"]
    diag = doc["diagnostics"]
    for key in ("profile", "if_mean", "omega_floor_events",
                "omega_moment_residual_sup", "rho_criterion", "mu_ridge"):
        assert key in diag
    assert isinstance(analysis.report, InferenceReport)
