import numpy as np
import pytest

from shadowpse.data_model import Dataset, DatasetDims
from shadowpse.errors import ConfigError, DegenerateTarget, LengthMismatch
from shadowpse import gamma_solver
from shadowpse.gamma_solver import (
    GammaOptions,
    _GammaProblem,
    _descend,
    _intercept_start,
    _logistic_warm_start,
    criterion_for_model,
    criterion_qn,
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
    return BasisSpec(degree=0, input_dim=dim,
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


def test_constant_ratio_zeroes_intercept_only_criterion():
    ds = four_record_toy()
    spec = intercept_only_spec(4)
    # invert the soft clamp so gamma is the constant n0/n1 = 1/3 exactly
    pi = np.array([10.0 * np.arctanh(np.log(1.0 / 3.0) / 10.0)])
    assert criterion_qn(pi, ds, SampleDesigns(ds, SpecBundle(p=spec, q=spec, u=()))) <= 1e-12


def test_toy_criterion_matches_hand_arithmetic():
    ds = four_record_toy()
    spec = intercept_only_spec(4)
    pi = np.array([0.3])
    g = float(np.exp(10.0 * np.tanh(0.03)))
    hand = ((3.0 * g - 1.0) / 4.0) ** 2
    designs = SampleDesigns(ds, SpecBundle(p=spec, q=spec, u=()))
    assert abs(criterion_qn(pi, ds, designs) - hand) <= 1e-12


def test_complete_data_returns_zero_model(comp600):
    designs = SampleDesigns(comp600, build_spec_bundle(comp600))
    model, report = fit_gamma(comp600, designs, GammaOptions())
    assert model.is_zero
    assert report.q_n == 0.0
    assert report.converged
    np.testing.assert_array_equal(model.values(designs), np.zeros(comp600.n))
    assert criterion_for_model(model, comp600, designs) == 0.0


def test_all_missing_is_degenerate():
    ds = four_record_toy()
    bundle = build_spec_bundle(ds)
    allm = ds.subset(ds.r == 0)
    with pytest.raises(DegenerateTarget):
        fit_gamma(allm, SampleDesigns(allm, bundle), GammaOptions())


def test_projection_basis_must_dominate_odds_basis(obs600):
    bundle2 = build_spec_bundle(obs600, SieveOptions(degree=2))
    bundle1 = build_spec_bundle(obs600, SieveOptions(degree=1))
    with pytest.raises(ConfigError):
        fit_gamma(obs600, SampleDesigns(obs600, SpecBundle(p=bundle1.p, q=bundle2.q, u=bundle1.u)),
                  GammaOptions())


def test_mcar_recovers_constant_odds():
    ds = mcar_dataset()
    bundle = build_spec_bundle(ds, SieveOptions(degree=1, include_interactions=False))
    model, report = fit_gamma(ds, SampleDesigns(ds, bundle), GammaOptions())
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
    assert report.q_n <= criterion_qn(zero, obs2000, designs) + 1e-12
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
        model, report = fit_gamma(obs, designs, GammaOptions())
        prob = _GammaProblem(designs)
        starts = [np.zeros(bundle.q.dim),
                  _intercept_start(prob, obs, bundle.q, 10.0),
                  _logistic_warm_start(prob, obs, bundle.q)]
        for start in starts:
            assert start is not None
            qn_start = criterion_qn(start, obs, designs)
            assert report.q_n <= qn_start + 1e-12


@pytest.mark.parametrize("restarts", [0, 2])
def test_fit_runs_one_descent_plus_restarts(monkeypatch, obs2000, bundle2000, restarts):
    calls = []
    lsq = gamma_solver.scipy.optimize.least_squares

    def counting(*args, **kwargs):
        calls.append(1)
        return lsq(*args, **kwargs)

    monkeypatch.setattr(gamma_solver.scipy.optimize, "least_squares", counting)
    _, report = fit_gamma(obs2000, SampleDesigns(obs2000, bundle2000),
                          GammaOptions(restarts=restarts, seed=4))
    assert len(calls) == 1 + restarts
    assert report.n_starts == 3 + restarts


def test_single_descent_matches_best_of_every_start():
    opts = GammaOptions()
    for i in range(5):
        full, obs = generate(DgpConfig(n=1000, seed=seq(32, i)))
        bundle = build_spec_bundle(obs)
        designs = SampleDesigns(obs, bundle)
        model, report = fit_gamma(obs, designs, opts)
        prob = _GammaProblem(designs)
        pi0 = _intercept_start(prob, obs, bundle.q, opts.linear_cap)
        starts = [np.zeros(bundle.q.dim), pi0, _logistic_warm_start(prob, obs, bundle.q)]
        best = min((_descend(prob, x0, pi0, opts) for x0 in starts), key=lambda d: d.obj)
        lam = opts.penalty / obs.n
        obj = report.q_n + lam * float((model.pi - pi0) @ (model.pi - pi0))
        assert abs(obj - best.obj) <= 1e-12 * best.obj
        np.testing.assert_allclose(model.pi, best.pi, rtol=0.0, atol=1e-6)


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


def test_criterion_invariant_to_projection_reparametrisation(obs2000, bundle2000):
    ident_p = BasisSpec(
        degree=bundle2000.p.degree,
        input_dim=bundle2000.p.input_dim,
        standardizer=Standardizer.identity(bundle2000.p.input_dim),
        include_interactions=True, binary=bundle2000.p.binary)
    pi = 0.05 * rng_for(38).standard_normal(bundle2000.q.dim)
    q_std = criterion_qn(pi, obs2000, SampleDesigns(obs2000, bundle2000))
    q_raw = criterion_qn(pi, obs2000, SampleDesigns(
        obs2000, SpecBundle(p=ident_p, q=bundle2000.q, u=bundle2000.u)))
    assert abs(q_std - q_raw) <= 1e-8 * max(q_std, 1e-12)


def test_weak_norm_properties(obs600):
    designs = SampleDesigns(obs600, build_spec_bundle(obs600))
    rng = rng_for(312)
    g = rng.random(obs600.n)
    assert weak_norm_sq(g, g, obs600, designs) == 0.0
    g2 = rng.random(obs600.n)
    diff = obs600.r * (g - g2)
    assert weak_norm_sq(g, g2, obs600, designs) <= float(np.mean(diff ** 2)) + 1e-12
    with pytest.raises(LengthMismatch):
        weak_norm_sq(g[:-1], g2, obs600, designs)


def test_weak_norm_shrinks_with_sample_size():
    meds = {}
    for n in (1000, 4000):
        vals = []
        for i in range(50):
            full, obs = generate(DgpConfig(n=n, seed=seq(4, n, i)))
            designs = SampleDesigns(obs, build_spec_bundle(obs))
            model, _ = fit_gamma(obs, designs, GammaOptions())
            truth = true_gamma_values(full, DgpConfig(n=n))
            vals.append(weak_norm_sq(model.values(designs), truth, obs, designs))
        meds[n] = float(np.median(vals))
    assert meds[4000] < meds[1000]


def test_restarts_are_deterministic(obs600):
    designs = SampleDesigns(obs600, build_spec_bundle(obs600))
    opts = GammaOptions(restarts=2, seed=4)
    m1, r1 = fit_gamma(obs600, designs, opts)
    m2, r2 = fit_gamma(obs600, designs, opts)
    np.testing.assert_array_equal(m1.pi, m2.pi)
    assert r1.n_starts == r2.n_starts == 5
    assert r1.best_start == r2.best_start


def test_zero_penalty_path_runs(obs600):
    designs = SampleDesigns(obs600, build_spec_bundle(
        obs600, SieveOptions(degree=1, include_interactions=False)))
    model, report = fit_gamma(obs600, designs, GammaOptions(penalty=0.0))
    assert report.q_n >= 0.0
    assert np.isfinite(model.values(designs)).all()


def test_model_values_zero_on_missing_rows(obs600, gamma2000):
    designs = SampleDesigns(obs600, build_spec_bundle(obs600))
    model, _ = fit_gamma(obs600, designs, GammaOptions())
    vals = model.values(designs)
    np.testing.assert_array_equal(vals[obs600.r == 0], 0.0)
    assert np.all(vals[obs600.r == 1] > 0.0)
