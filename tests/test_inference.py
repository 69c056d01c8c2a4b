import numpy as np
import pytest
import scipy.optimize

from shadowpse.baselines import sri_estimate
from shadowpse.errors import ConfigError, DimensionMismatch
from shadowpse.gamma_solver import GammaOptions, fit_gamma
from shadowpse import inference
from shadowpse.inference import (
    OMEGA_FLOOR,
    InferenceReport,
    analyze_profiles,
    fit_omegas,
    fit_representer,
    influence_values,
    phi_values,
    variance_and_ci,
    z_critical,
)
from shadowpse.estimator import estimate_psi, fit_mu_chain
from shadowpse.series_regression import (
    RunFits,
    SampleDesigns,
    orthonormal_span,
    representer_ridge,
    ridge_system,
)
from shadowpse.sieve_basis import SieveOptions, build_spec_bundle, design_matrix
from shadowpse.simulation import DgpConfig, generate

from support import one_mediator_dataset, rng_for, seq, tile_dataset


def test_z_critical_values():
    assert abs(z_critical(0.95) - 1.959963984540054) <= 1e-9
    assert abs(z_critical(0.90) - 1.6448536269514722) <= 1e-9
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ConfigError):
            z_critical(bad)


def test_z_critical_names_the_level_as_the_cli_does():
    """One range check serves the library and the CLI's --level."""
    with pytest.raises(ConfigError, match=r"^level must be in \(0, 1\), got 1.5$"):
        z_critical(1.5)


def test_omega_identically_one_pattern(obs2000, bundle2000, gamma2000):
    model, _ = gamma2000
    designs = SampleDesigns(obs2000, bundle2000)
    run = RunFits(designs, model.values(designs))
    om = fit_omegas(run, (1, 1, 1))
    assert [coef is None for coef in om.omega] == [False, True, True]
    assert om.moment_residual_sup <= 1e-6
    om_mixed = fit_omegas(run, (1, 0, 1))
    assert [coef is None for coef in om_mixed.omega] == [False, False, False]
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
    om = fit_omegas(RunFits(SampleDesigns(ds, bundle), np.zeros(n)), (1, 1))
    vals = design_matrix(bundle.u[0], ds.mu_points(1)) @ om.omega[0]
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
    om = fit_omegas(RunFits(SampleDesigns(ds, bundle), np.zeros(n)), (1, 1))
    assert om.floor_events > 0
    assert OMEGA_FLOOR == 1e-3


def phi_at_row(ds, u_specs, i, fits, omegas):
    """Reference phi of complete record i, evaluated one point at a time
    from the fits' coefficients in the mu bases u_specs."""
    prof = fits.profile
    kk = len(prof) - 1
    x = np.concatenate([ds.x_miss[i], ds.x_obs[i]])
    points = [np.concatenate([x] + [ds.m[j][i] for j in range(k)]) for k in range(kk + 1)]

    def at(coef, k):
        return float(design_matrix(u_specs[k], points[k][None])[0] @ coef)

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
    model, _ = fit_gamma(designs, GammaOptions())
    run = RunFits(designs, model.values(designs))
    fits, omegas = fit_mu_chain(run, (1, 0, 1)), fit_omegas(run, (1, 0, 1))
    phi = phi_values(designs, fits, omegas)
    for j, i in enumerate(np.flatnonzero(obs600.complete_mask)[:25]):
        got = phi_at_row(obs600, designs.bundle.u, i, fits, omegas)
        assert abs(got - phi[j]) <= 1e-10


def test_reweighted_phi_mean_reproduces_psi(obs2000, bundle2000, gamma2000):
    model, _ = gamma2000
    designs = SampleDesigns(obs2000, bundle2000)
    gvals = model.values(designs)
    run = RunFits(designs, gvals)
    for profile in ((0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)):
        fits = fit_mu_chain(run, profile)
        phi = phi_values(designs, fits, fit_omegas(run, profile))
        lhs = float(np.sum((1.0 + gvals) * phi)) / obs2000.n
        assert abs(lhs - estimate_psi(run, fits)) <= 1e-8


def test_representer_zero_target(obs600):
    designs = SampleDesigns(obs600, build_spec_bundle(obs600))
    rho, value = fit_representer(designs, np.zeros(designs.n_cc))
    np.testing.assert_allclose(rho, 0.0, atol=1e-12)
    assert value == 0.0


def test_representer_matches_brute_force_minimiser():
    full, obs = generate(DgpConfig(n=40, seed=seq(9)))
    mask = np.zeros(obs.n, dtype=bool)
    mask[:20] = True
    ds = obs.subset(mask)
    bundle = build_spec_bundle(ds, SieveOptions(degree=1, include_interactions=False))
    phi = ds.y[ds.complete_mask]
    designs = SampleDesigns(ds, bundle)
    rho, value = fit_representer(designs, phi)
    assert value <= 0.0

    # independent reconstruction of the ridged quadratic objective
    eps = designs.representer_system.eps
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
    assert float(np.max(np.abs(res.x - rho))) <= 1e-6


def test_influence_complete_data_reduction(comp600, monkeypatch):
    """On complete data under zero odds the representer is never fitted."""
    def no_representer(*args):
        raise AssertionError("representer fitted")

    monkeypatch.setattr(inference, "fit_representer", no_representer)
    designs = SampleDesigns(comp600, build_spec_bundle(comp600))
    (psi_hat,), (if_values,) = analyze_profiles(RunFits(designs, np.zeros(comp600.n)), [(1, 1, 1)])
    assert abs(float(if_values.mean())) <= 1e-10
    assert variance_and_ci(psi_hat, if_values).se > 0.0


def test_influence_requires_representer_when_data_incomplete(obs600, gamma2000):
    designs = SampleDesigns(obs600, build_spec_bundle(obs600))
    model, _ = fit_gamma(designs, GammaOptions())
    with pytest.raises(DimensionMismatch):
        influence_values(RunFits(designs, model.values(designs)), 0.0, designs.y_cc, None)


def test_influence_mean_small_under_fitted_odds():
    for i in range(6):
        full, obs = generate(DgpConfig(n=2000, seed=seq(5, i)))
        designs = SampleDesigns(obs, build_spec_bundle(obs))
        model, _ = fit_gamma(designs, GammaOptions())
        _, (ifv,) = analyze_profiles(RunFits(designs, model.values(designs)), [(1, 1, 1)])
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
    same = variance_and_ci(0.0, if_a - if_a)
    assert same.se == 0.0
    diff = variance_and_ci(0.3, if_a - if_b)
    sa = variance_and_ci(0.0, if_a).se
    sb = variance_and_ci(0.0, if_b).se
    assert diff.se <= sa + sb + 1e-12


def fixed_ridge_report(ds, gvals, ridge: float) -> InferenceReport:
    """The (1, 1, 1) profile's interval as analyze_profiles's values give
    it, with the representer solved at the given relative ridge rather
    than at the rule's ridge for ds.n."""
    designs = SampleDesigns(ds, build_spec_bundle(ds))
    run = RunFits(designs, gvals)
    fits = fit_mu_chain(run, (1, 1, 1))
    psi_hat = estimate_psi(run, fits)
    phi = phi_values(designs, fits, fit_omegas(run, (1, 1, 1)))
    system = ridge_system(designs.p_span_cc.T @ designs.q, ridge)
    rho = system.solve(designs.q.T @ phi)
    return variance_and_ci(psi_hat, influence_values(run, psi_hat, phi, rho))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_se_shrinks_by_root_k_under_k_fold_tiling(k, obs600):
    """At one fixed ridge, tiling the sample k times leaves psi_hat as it
    is and divides the se by sqrt(k). The representer's own ridge depends
    on n, so the property is stated at a ridge held fixed across both."""
    designs = SampleDesigns(obs600, build_spec_bundle(obs600))
    model, _ = fit_gamma(designs, GammaOptions())
    gv = model.values(designs)
    base = fixed_ridge_report(obs600, gv, 1e-2)
    (psi_hat,), (if_values,) = analyze_profiles(RunFits(designs, gv), [(1, 1, 1)])
    assert base.se == variance_and_ci(psi_hat, if_values).se
    big = fixed_ridge_report(tile_dataset(obs600, k), np.tile(gv, k), 1e-2)
    assert abs(big.se / base.se - 1.0 / np.sqrt(k)) <= 1e-10
    assert abs(big.psi_hat - base.psi_hat) <= 1e-10


def test_representer_ridge_rule():
    """1e-2 up to n = 1000, then 1e-2 (1000 / n)^2."""
    assert representer_ridge(600) == 1e-2
    assert representer_ridge(1000) == 1e-2
    assert representer_ridge(2400) == pytest.approx(1e-2 / 5.76, rel=1e-15)


def test_report_schema(obs600):
    """Each estimand's report holds its interval and names the contrast's
    two profiles and their psi values."""
    rep = sri_estimate(obs600, ["nie_2"]).estimands["nie_2"]
    assert isinstance(rep, InferenceReport)
    doc = rep.to_dict()
    assert sorted(doc) == ["ci_hi", "ci_lo", "diagnostics", "level", "n",
                           "psi_hat", "se", "sigma2"]
    assert sorted(doc["diagnostics"]) == ["profile_a", "profile_b", "psi_a", "psi_b"]
