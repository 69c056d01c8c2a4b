from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize

from shadowpse.data_model import Dataset, DatasetDims
from shadowpse.errors import ConfigError, DegenerateTarget, EstimationError, LengthMismatch
from shadowpse import gamma_solver
from shadowpse.gamma_solver import (
    POLISH_GTOL,
    GammaOptions,
    _GammaProblem,
    _descend,
    _intercept_start,
    fit_gamma,
    weak_norm_sq,
)
from shadowpse.series_regression import SampleDesigns
from shadowpse.sieve_basis import (
    BasisSpec,
    SieveOptions,
    SpecBundle,
    Standardizer,
    build_spec_bundle,
)
from shadowpse.simulation import DgpConfig, generate, true_gamma_values

from support import one_mediator_dataset, rng_for, seq


def intercept_only_spec(dim):
    return BasisSpec(degrees=(0,) * dim, include_interactions=True,
                     standardizer=Standardizer.identity(dim))


def four_record_toy():
    r = np.array([1, 1, 0, 1])
    return one_mediator_dataset(
        4, np.array([0.5, 0.5, 0.5, 0.5]), np.array([0, 1, 0, 1]),
        np.array([0.1, 0.2, 0.3, 0.4]), np.array([1.0, 2.0, 3.0, 4.0]), r=r)


def mcar_dataset():
    """P(R=1)=0.7 independent of everything; true odds are constant 3/7."""
    rng = rng_for(2)
    n = 5000
    x = rng.random(n)
    z = x + 0.3 * rng.standard_normal(n)
    a = (rng.random(n) < 0.5).astype(int)
    m1 = x + rng.standard_normal(n)
    y = m1 + a + rng.standard_normal(n)
    r = (rng.random(n) < 0.7).astype(int)
    return one_mediator_dataset(n, x, a, m1, y, r=r, z=z)


def criterion_qn(pi, designs, cap=10.0) -> float:
    """Q_n at one coefficient vector."""
    return _GammaProblem(designs).value_and_grad(np.asarray(pi, dtype=float), cap)[0]


def test_constant_ratio_zeroes_intercept_only_criterion():
    ds = four_record_toy()
    spec = intercept_only_spec(4)
    # invert the soft clamp so gamma is the constant n0/n1 = 1/3 exactly
    pi = np.array([10.0 * np.arctanh(np.log(1.0 / 3.0) / 10.0)])
    assert criterion_qn(pi, SampleDesigns(ds, SpecBundle(p=spec, q=spec, u=()))) <= 1e-12


def test_toy_criterion_matches_hand_arithmetic():
    ds = four_record_toy()
    spec = intercept_only_spec(4)
    pi = np.array([0.3])
    g = float(np.exp(10.0 * np.tanh(0.03)))
    hand = ((3.0 * g - 1.0) / 4.0) ** 2
    designs = SampleDesigns(ds, SpecBundle(p=spec, q=spec, u=()))
    assert abs(criterion_qn(pi, designs) - hand) <= 1e-12


def test_complete_data_returns_zero_model(comp600):
    designs = SampleDesigns(comp600, build_spec_bundle(comp600))
    model, report = fit_gamma(designs, GammaOptions())
    assert model.is_zero
    assert report.q_n == 0.0
    assert report.converged
    np.testing.assert_array_equal(model.values(designs), np.zeros(comp600.n))
    # so the moment R gamma - 1 + R, and with it Q_n, is zero at every record
    assert not (model.values(designs) * comp600.r - (1.0 - comp600.r)).any()


def test_all_missing_is_degenerate():
    ds = four_record_toy()
    bundle = build_spec_bundle(ds)
    allm = ds.subset(ds.r == 0)
    with pytest.raises(DegenerateTarget):
        fit_gamma(SampleDesigns(allm, bundle), GammaOptions())


def test_projection_basis_must_dominate_odds_basis(obs600, obs2000):
    bundle2 = build_spec_bundle(obs600, SieveOptions(degree=2))
    bundle1 = build_spec_bundle(obs600, SieveOptions(degree=1))
    with pytest.raises(ConfigError):
        fit_gamma(SampleDesigns(obs600, SpecBundle(p=bundle1.p, q=bundle2.q, u=bundle1.u)),
                  GammaOptions())
    # a binary shadow variable is capped at power one in p, while q keeps
    # x_miss at degree 3: the default bundle has too few moments
    z = (obs2000.z > np.median(obs2000.z)).astype(float)
    binary_z = replace(obs2000, z=z)
    bundle = build_spec_bundle(binary_z)
    with pytest.raises(ConfigError, match="dim 37 < odds basis dim 39") as err:
        fit_gamma(SampleDesigns(binary_z, bundle), GammaOptions())
    assert f"p degrees {bundle.p.degrees}, q degrees {bundle.q.degrees}" in str(err.value)
    assert "completeness" in str(err.value)


def test_mcar_recovers_constant_odds():
    ds = mcar_dataset()
    bundle = build_spec_bundle(ds, SieveOptions(degree=1, include_interactions=False))
    model, report = fit_gamma(SampleDesigns(ds, bundle), GammaOptions())
    assert report.converged
    vals = model.values_at(ds.regressor_points())
    frac = float(np.mean(np.abs(vals - 3.0 / 7.0) <= 0.05))
    assert frac >= 0.9


def test_benchmark_fit_stationary_and_dominant(obs2000, bundle2000, gamma2000):
    model, report = gamma2000
    assert report.grad_norm <= 1e-5
    assert report.converged
    zero = np.zeros(bundle2000.q.dim)
    designs = SampleDesigns(obs2000, bundle2000)
    assert report.q_n <= criterion_qn(zero, designs) + 1e-12
    assert 0.0 <= report.clamp_frac <= 1.0
    # fitted odds stay inside the soft-clamp range
    vals = model.values_at(obs2000.regressor_points())
    assert np.all(vals >= np.exp(-10.0) - 1e-12)
    assert np.all(vals <= np.exp(10.0) + 1e-8)


def test_fit_dominates_every_start():
    for i in range(3):
        full, obs = generate(DgpConfig(n=1500, seed=seq(31, i)))
        bundle = build_spec_bundle(obs)
        designs = SampleDesigns(obs, bundle)
        model, report = fit_gamma(designs, GammaOptions())
        starts = [np.zeros(bundle.q.dim), _intercept_start(obs, bundle.q, 10.0)]
        for start in starts:
            assert start is not None
            qn_start = criterion_qn(start, designs)
            assert report.q_n <= qn_start + 1e-12


@pytest.mark.parametrize("restarts", [0, 2])
def test_fit_runs_one_descent_plus_restarts(monkeypatch, obs2000, bundle2000, restarts):
    calls = []
    lsq = gamma_solver.scipy.optimize.least_squares

    def counting(*args, **kwargs):
        calls.append(1)
        return lsq(*args, **kwargs)

    monkeypatch.setattr(gamma_solver.scipy.optimize, "least_squares", counting)
    _, report = fit_gamma(SampleDesigns(obs2000, bundle2000),
                          GammaOptions(restarts=restarts, seed=4))
    assert len(calls) == 1 + restarts
    assert report.n_starts == 1 + restarts


def test_single_descent_matches_best_of_every_start():
    opts = GammaOptions()
    for i in range(5):
        full, obs = generate(DgpConfig(n=1000, seed=seq(32, i)))
        bundle = build_spec_bundle(obs)
        designs = SampleDesigns(obs, bundle)
        model, report = fit_gamma(designs, opts)
        prob = _GammaProblem(designs)
        pi0 = _intercept_start(obs, bundle.q, opts.linear_cap)
        starts = [np.zeros(bundle.q.dim), pi0]
        best = min((_descend(prob, x0, pi0, opts) for x0 in starts), key=lambda d: d.obj)
        lam = opts.penalty / obs.n
        obj = report.q_n + lam * float((model.pi - pi0) @ (model.pi - pi0))
        assert abs(obj - best.obj) <= 1e-12 * best.obj
        np.testing.assert_allclose(model.pi, best.pi, rtol=0.0, atol=1e-6)


def test_intercept_descent_misses_the_lower_basin_in_one_small_draw():
    """Over the Monte Carlo harness's 100 draws at n = 250 (master seed
    ENTROPY, reps 0-99), the descent from the intercept start ends at a
    higher objective than the descent from zero, both anchored at the
    intercept start, in rep 51 alone: the basin count of the single
    descent fit_gamma makes, which a change to its start or its descent
    would move."""
    opts = GammaOptions()
    worse = []
    for i in range(100):
        _, obs = generate(DgpConfig(n=250), rng=rng_for(i))
        bundle = build_spec_bundle(obs)
        prob = _GammaProblem(SampleDesigns(obs, bundle))
        pi0 = _intercept_start(obs, bundle.q, opts.linear_cap)
        from_intercept = _descend(prob, pi0, pi0, opts).obj
        from_zero = _descend(prob, np.zeros(bundle.q.dim), pi0, opts).obj
        if from_intercept > from_zero * (1.0 + 1e-10):
            worse.append(i)
    assert worse == [51]


def trf_descent(prob, x0, pi0, opts):
    """Reference descent: scipy's trust-region reflective solver on the
    same stacked residual, with an exact trust-region subproblem."""
    cap, sqrt_n = opts.linear_cap, np.sqrt(prob.n)
    sqrt_lam = np.sqrt(opts.penalty / prob.n)
    res = scipy.optimize.least_squares(
        lambda p: np.concatenate([prob.residual(p, cap) / sqrt_n, sqrt_lam * (p - pi0)]),
        x0,
        jac=lambda p: np.vstack([prob.residual_jac(p, cap) / sqrt_n,
                                 sqrt_lam * np.eye(len(p))]),
        method="trf", tr_solver="exact", xtol=1e-14, ftol=1e-14, gtol=1e-14,
        max_nfev=opts.max_iter,
    )
    return res.x


def penalised_objective(prob, pi, pi0, opts):
    """Q_n + penalty/n * ||pi - pi0||^2, the objective the descent minimises."""
    qn = prob.value_and_grad(pi, opts.linear_cap)[0]
    return qn + opts.penalty / prob.n * float((pi - pi0) @ (pi - pi0))


def test_descent_agrees_with_trust_region_reference():
    opts = GammaOptions()
    for i in range(10):
        full, obs = generate(DgpConfig(n=1000, seed=seq(33, i)))
        bundle = build_spec_bundle(obs)
        prob = _GammaProblem(SampleDesigns(obs, bundle))
        pi0 = _intercept_start(obs, bundle.q, opts.linear_cap)
        got = _descend(prob, pi0, pi0, opts)
        want = trf_descent(prob, pi0, pi0, opts)
        assert np.max(np.abs(got.pi - want)) <= 1e-5
        assert abs(got.obj - penalised_objective(prob, want, pi0, opts)) <= 1e-8


def test_zero_penalty_on_rank_deficient_conditioning_span():
    """z duplicating an x_obs column leaves the conditioning span fewer
    columns than the odds basis; with no penalty the moment rows alone
    are fewer than the unknowns."""
    full, obs = generate(DgpConfig(n=1000, seed=seq(34)))
    ds = obs.subset(np.ones(obs.n, dtype=bool))
    ds.z = ds.x_obs[:, :1].copy()
    designs = SampleDesigns(ds, build_spec_bundle(ds))
    assert designs.p_span.shape[1] < designs.bundle.q.dim
    try:
        _, report = fit_gamma(designs, GammaOptions(penalty=0.0))
    except EstimationError:
        return
    assert np.isfinite(report.q_n)
    assert any("rank-deficient" in msg for msg in report.messages)


def test_gradient_matches_finite_differences():
    full, obs = generate(DgpConfig(n=300, seed=seq(11)))
    bundle = build_spec_bundle(obs, SieveOptions(degree=1, include_interactions=False))
    prob = _GammaProblem(SampleDesigns(obs, bundle))
    rng = rng_for(11, 1)
    h = 1e-6
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
        assert rel <= 1e-5


def test_hessian_matches_finite_differences_of_gradient():
    """A small cap makes the tanh curvature term -2 th / cap matter."""
    full, obs = generate(DgpConfig(n=300, seed=seq(12)))
    bundle = build_spec_bundle(obs, SieveOptions(degree=1, include_interactions=False))
    designs = SampleDesigns(obs, bundle)
    prob = _GammaProblem(designs)
    rng = rng_for(12, 1)
    cap, h = 2.0, 1e-6
    for _ in range(10):
        pi = 0.5 * rng.standard_normal(bundle.q.dim)
        hess = prob.hessian(pi, cap)
        fd = np.zeros_like(hess)
        for j in range(len(pi)):
            e = np.zeros_like(pi)
            e[j] = h
            up = prob.value_and_grad(pi + e, cap)[1]
            dn = prob.value_and_grad(pi - e, cap)[1]
            fd[:, j] = (up - dn) / (2.0 * h)
        assert np.max(np.abs(np.tanh(designs.q @ pi / cap))) > 0.5
        np.testing.assert_allclose(hess, hess.T, rtol=0.0, atol=1e-14)
        rel = np.linalg.norm(hess - fd) / np.linalg.norm(fd)
        assert rel <= 1e-6


def test_polish_reaches_its_gradient_tolerance():
    full, obs = generate(DgpConfig(n=1000, seed=seq(13)))
    designs = SampleDesigns(obs, build_spec_bundle(obs))
    _, report = fit_gamma(designs, GammaOptions())
    assert report.grad_norm <= POLISH_GTOL
    assert report.polish_steps >= 1
    assert not any("Newton polish" in msg for msg in report.messages)


@pytest.mark.parametrize("patch, reason", [
    (lambda mp: mp.setattr(gamma_solver, "POLISH_MAX_STEPS", 0), "step limit 0 reached"),
    (lambda mp: mp.setattr(_GammaProblem, "hessian", lambda self, pi, cap: -np.eye(len(pi))),
     "Hessian not positive definite"),
])
def test_polish_that_stops_early_says_why(monkeypatch, obs600, patch, reason):
    designs = SampleDesigns(obs600, build_spec_bundle(obs600))
    patch(monkeypatch)
    _, report = fit_gamma(designs, GammaOptions())
    assert report.polish_steps == 0
    assert report.grad_norm > POLISH_GTOL
    assert [msg for msg in report.messages if "Newton polish" in msg] == [
        f"Newton polish stopped at gradient norm {report.grad_norm:.3e}, above 1e-11: {reason}"]


def test_criterion_invariant_to_projection_reparametrisation(obs2000, bundle2000):
    ident_p = replace(bundle2000.p, standardizer=Standardizer.identity(bundle2000.p.input_dim))
    pi = 0.05 * rng_for(38).standard_normal(bundle2000.q.dim)
    q_std = criterion_qn(pi, SampleDesigns(obs2000, bundle2000))
    q_raw = criterion_qn(pi, SampleDesigns(
        obs2000, SpecBundle(p=ident_p, q=bundle2000.q, u=bundle2000.u)))
    assert abs(q_std - q_raw) <= 1e-8 * max(q_std, 1e-12)


def test_weak_norm_properties(obs600):
    designs = SampleDesigns(obs600, build_spec_bundle(obs600))
    rng = rng_for(312)
    cc = obs600.complete_mask
    g = rng.random(obs600.n)[cc]
    assert weak_norm_sq(g, g, designs) == 0.0
    g2 = rng.random(obs600.n)[cc]
    diff = g - g2
    assert weak_norm_sq(g, g2, designs) <= float(np.sum(diff ** 2)) / obs600.n + 1e-12
    with pytest.raises(LengthMismatch):
        weak_norm_sq(g[:-1], g2, designs)


def test_weak_norm_shrinks_with_sample_size():
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
    assert meds[4000] < meds[1000]


def test_restarts_are_deterministic(obs600):
    designs = SampleDesigns(obs600, build_spec_bundle(obs600))
    opts = GammaOptions(restarts=2, seed=4)
    m1, r1 = fit_gamma(designs, opts)
    m2, r2 = fit_gamma(designs, opts)
    np.testing.assert_array_equal(m1.pi, m2.pi)
    assert r1.n_starts == r2.n_starts == 3
    assert r1.best_start == r2.best_start


def test_zero_penalty_path_runs(obs600):
    designs = SampleDesigns(obs600, build_spec_bundle(
        obs600, SieveOptions(degree=1, include_interactions=False)))
    model, report = fit_gamma(designs, GammaOptions(penalty=0.0))
    assert report.q_n >= 0.0
    assert np.isfinite(model.values(designs)).all()


def test_model_values_are_the_complete_cases_odds(obs600):
    """GammaModel.values holds one positive entry per complete case: the
    model evaluated at their regressor points."""
    designs = SampleDesigns(obs600, build_spec_bundle(obs600))
    model, _ = fit_gamma(designs, GammaOptions())
    vals = model.values(designs)
    assert vals.shape == (designs.n_cc,) and designs.n_cc < obs600.n
    assert np.all(vals > 0.0)
    np.testing.assert_array_equal(vals, model.values_at(obs600.regressor_points()))
