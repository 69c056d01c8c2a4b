from dataclasses import replace

import numpy as np
import pytest

from shadowpse import baselines, cli
from shadowpse.baselines import (
    MethodOptions,
    MethodResult,
    cca_estimate,
    mi_estimate,
    oracle_estimate,
    resolve_estimands,
    run_method,
    sri_estimate,
)
from shadowpse.data_model import write_csv, write_descriptor
from shadowpse.errors import (
    ConfigError,
    EmptyResult,
    InsufficientCompleteCases,
    MissingTrueX,
)
from shadowpse.sieve_basis import SieveOptions, build_spec_bundle
from shadowpse.simulation import DgpConfig, run_monte_carlo, true_effects
from support import one_mediator_dataset, rng_for

ESTIMAND_NAMES = ["nde", "nie_1", "nie_2", "te"]


def test_resolve_estimands():
    mapping = resolve_estimands(2, None)
    assert list(mapping) == ESTIMAND_NAMES
    assert mapping["te"] == ((1, 1, 1), (0, 0, 0))
    pair = resolve_estimands(2, [((1, 0, 1), (0, 0, 0))])
    assert pair == {"psi_101_vs_000": ((1, 0, 1), (0, 0, 0))}
    with pytest.raises(ConfigError):
        resolve_estimands(2, ["bogus"])


def test_full_data_reduction_all_methods_agree(comp2000):
    results = {
        "oracle": oracle_estimate(comp2000),
        "sri": sri_estimate(comp2000),
        "cca": cca_estimate(comp2000),
        "mi": mi_estimate(comp2000, options=MethodOptions(mi_m=3), seed=5),
    }
    base = results["oracle"]
    for name, res in results.items():
        assert isinstance(res, MethodResult)
        assert res.method == name
        for est in ESTIMAND_NAMES:
            assert abs(res.estimands[est].psi_hat
                       - base.estimands[est].psi_hat) <= 1e-10
            assert abs(res.estimands[est].se - base.estimands[est].se) <= 1e-10


def test_sri_reports_gamma_diagnostics(obs600):
    res = sri_estimate(obs600)
    assert sorted(res.extras) == ["gamma_converged", "gamma_grad_norm", "gamma_messages",
                                  "gamma_n_iter", "gamma_polish_steps", "gamma_q_n"]
    assert res.extras["gamma_q_n"] >= 0.0
    assert set(res.profiles) == {(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)}
    for est in ESTIMAND_NAMES:
        rep = res.estimands[est]
        assert rep.ci_lo <= rep.psi_hat <= rep.ci_hi


def test_estimand_subset_and_explicit_pair(obs600):
    res = cca_estimate(obs600, estimands=["te", ((1, 0, 1), (0, 0, 0))])
    assert sorted(res.estimands) == ["psi_101_vs_000", "te"]


def test_constant_outcome_gives_zero_contrasts():
    rng = rng_for(315)
    n = 250
    x = rng.random(n)
    a = (rng.random(n) < 0.5).astype(int)
    m1 = x + rng.standard_normal(n)
    ds = one_mediator_dataset(n, x, a, m1, np.full(n, -1.75))
    res = cca_estimate(ds, options=MethodOptions(sieve=SieveOptions(degree=2)))
    for est in ("nde", "nie_1", "te"):
        assert abs(res.estimands[est].psi_hat) <= 1e-10
    for psi in res.profiles.values():
        assert abs(psi - (-1.75)) <= 1e-10


def test_contrast_report_shape(obs600):
    res = sri_estimate(obs600, [((1, 1, 1), (0, 0, 0))])
    rep = res.estimands["psi_111_vs_000"]
    assert rep.diagnostics == {
        "profile_a": [1, 1, 1], "profile_b": [0, 0, 0],
        "psi_a": res.profiles[(1, 1, 1)], "psi_b": res.profiles[(0, 0, 0)],
    }
    assert rep.psi_hat == res.profiles[(1, 1, 1)] - res.profiles[(0, 0, 0)]
    assert rep.ci_lo <= rep.psi_hat <= rep.ci_hi


def test_each_profile_analysed_once(monkeypatch, obs600):
    """One analysis of the distinct profiles, in the order the contrasts
    name them."""
    calls = []
    original = baselines.analyze_profiles

    def counting(run, profiles):
        calls.append(list(profiles))
        return original(run, profiles)

    monkeypatch.setattr(baselines, "analyze_profiles", counting)
    res = sri_estimate(obs600)
    assert calls == [[(0, 0, 1), (0, 0, 0), (1, 1, 1), (0, 1, 1)]]
    assert list(res.profiles) == calls[0]
    parts = {name: rep.psi_hat for name, rep in res.estimands.items()}
    assert abs(parts["nde"] + parts["nie_1"] + parts["nie_2"] - parts["te"]) <= 1e-12


def test_oracle_requires_true_covariates(obs600):
    with pytest.raises(MissingTrueX):
        oracle_estimate(obs600)


def test_cca_needs_complete_cases():
    ds = one_mediator_dataset(
        4, np.array([0.1, 0.2, 0.3, 0.4]), np.array([0, 1, 0, 1]),
        np.array([1.0, 2.0, 3.0, 4.0]), np.array([0.5, 1.5, 2.5, 3.5]),
        r=np.zeros(4, dtype=int))
    with pytest.raises(EmptyResult):
        cca_estimate(ds)


def test_mi_guards(obs600):
    # five complete cases cannot support the eight-column imputer design
    keep = np.zeros(obs600.n, dtype=bool)
    keep[np.where(obs600.r == 1)[0][:5]] = True
    keep[np.where(obs600.r == 0)[0][:3]] = True
    with pytest.raises(InsufficientCompleteCases):
        mi_estimate(obs600.subset(keep), options=MethodOptions(mi_m=3))


@pytest.mark.parametrize("build, key", [
    (lambda: MethodOptions(level=1.0), "level"),
    (lambda: MethodOptions(level=float("nan")), "level"),
    (lambda: MethodOptions(mi_m=1), "mi_m"),
    (lambda: SieveOptions(degree=-1), "degree"),
    (lambda: SieveOptions(mu_degree=-1), "mu_degree"),
], ids=["level-1", "level-nan", "mi_m", "degree", "mu_degree"])
def test_each_estimator_option_is_range_checked_by_its_record(build, key):
    with pytest.raises(ConfigError, match=f"^{key} must be"):
        build()


def test_mi_seed_determinism(obs600):
    m4 = MethodOptions(mi_m=4)
    a = mi_estimate(obs600, options=m4, seed=11)
    b = mi_estimate(obs600, options=m4, seed=11)
    c = mi_estimate(obs600, options=m4, seed=12)
    for est in ESTIMAND_NAMES:
        assert a.estimands[est].psi_hat == b.estimands[est].psi_hat
        assert a.estimands[est].se == b.estimands[est].se
    assert any(a.estimands[e].psi_hat != c.estimands[e].psi_hat
               for e in ESTIMAND_NAMES)


# mi_estimate(obs600, options=MethodOptions(mi_m=4), seed=11) with each
# imputation run through the pipeline on its own: (psi_hat, se, within,
# between) per estimand
MI_OBS600_M4_SEED11 = {
    "nde": (0.4375849309918354, 0.11332780791949519, 0.010927643412435798, 0.001532438908321758),
    "nie_1": (-0.9337069725436392, 0.18719408735945353, 0.033537435217880815,
              0.0012033528995663261),
    "nie_2": (0.2922084536432674, 0.18956304262042845, 0.03442082470083065,
              0.0012106579413469689),
    "te": (-0.20391358790853642, 0.2260403216564123, 0.04885777948328625,
           0.0017891580249984704),
}


@pytest.mark.parametrize("size, batches", [(1, [1, 1, 1, 1]), (3, [3, 1]), (4, [4])])
def test_mi_batches_keep_the_pooled_figures_and_the_imputation_stream(
        size, batches, obs600, monkeypatch):
    """However its imputations are batched, mi pools the same psi_hat,
    se, within and between, within 1e-12 relative of those of one
    imputation at a time, so neither the batching nor the order of the
    imputation draws can drift."""
    width = build_spec_bundle(obs600).u[-1].dim
    monkeypatch.setattr(baselines, "_BATCH_BYTES", 8 * obs600.n * width * size)
    seen = []
    pipeline = baselines._run_pipeline

    def recording(*args, x_miss=None, **kwargs):
        seen.append(len(x_miss))
        return pipeline(*args, x_miss=x_miss, **kwargs)

    monkeypatch.setattr(baselines, "_run_pipeline", recording)
    res = mi_estimate(obs600, options=MethodOptions(mi_m=4), seed=11)
    assert seen == batches
    for name, want in MI_OBS600_M4_SEED11.items():
        rep = res.estimands[name]
        got = (rep.psi_hat, rep.se, rep.diagnostics["within"], rep.diagnostics["between"])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_mi_matches_each_completed_dataset_run_alone(obs2000, monkeypatch):
    """At the benchmark's shape (n = 2000, m = 20), mi's one chain spec,
    fitted on the first completed dataset, pools what Rubin's rules give
    over each completed dataset run alone under its own spec: the chain
    fits depend on the spec only through its span."""
    m, fills = 20, []
    pipeline = baselines._run_pipeline

    def recording(ds, *args, x_miss=None, **kwargs):
        fills.extend(replace(ds, x_miss=fill) for fill in x_miss)
        return pipeline(ds, *args, x_miss=x_miss, **kwargs)

    monkeypatch.setattr(baselines, "_run_pipeline", recording)
    res = mi_estimate(obs2000, options=MethodOptions(mi_m=m), seed=5)
    assert len(fills) == m
    alone = [pipeline(ds, resolve_estimands(ds.k, None), MethodOptions(), "mi")
             for ds in fills]
    for name, rep in res.estimands.items():
        pts = np.array([run.estimands[name].psi_hat for run in alone])
        within = np.mean([run.estimands[name].se ** 2 for run in alone])
        between = pts.var(ddof=1)
        se = np.sqrt(within + (1 + 1 / m) * between)
        np.testing.assert_allclose([rep.psi_hat, rep.se], [pts.mean(), se], rtol=1e-12, atol=0)
        np.testing.assert_allclose(rep.diagnostics["between"], between, rtol=1e-10, atol=0)


def test_mi_without_missing_covariate_columns_pools_equal_complete_fits(obs600):
    """With no x_miss column there is nothing to fill: every imputation
    is the observed data with r set to one, so mi pools m equal fits,
    each the oracle's, with no between-imputation variance."""
    ds = replace(obs600, x_miss=np.zeros((obs600.n, 0)), columns={})
    res, oracle = mi_estimate(ds, options=MethodOptions(mi_m=3), seed=1), oracle_estimate(ds)
    for name, rep in res.estimands.items():
        assert rep.diagnostics["between"] == 0.0
        want = oracle.estimands[name]
        np.testing.assert_allclose([rep.psi_hat, rep.diagnostics["within"]],
                                   [want.psi_hat, want.se ** 2], rtol=1e-12, atol=0)


def test_mi_moves_point_estimates_off_complete_cases(obs2000):
    res = mi_estimate(obs2000, options=MethodOptions(mi_m=5), seed=3)
    cca = cca_estimate(obs2000)
    for est in ESTIMAND_NAMES:
        assert res.estimands[est].se > 0.0
        assert np.isfinite(res.estimands[est].se)
    # imputation must move the point estimates away from complete cases only
    assert any(abs(res.estimands[e].psi_hat - cca.estimands[e].psi_hat) > 1e-6
               for e in ESTIMAND_NAMES)


def test_run_method_rejects_unknown_name(obs600):
    with pytest.raises(ConfigError):
        run_method("sir", obs600)


@pytest.mark.parametrize("method", ["sri", "oracle", "cca", "mi"])
def test_bad_level_is_a_config_error_before_any_fit(method, monkeypatch, full2000, obs600):
    """A confidence level outside (0, 1) raises ConfigError (exit 2)
    before any basis is built or any odds fitted."""
    built = []
    for name in ("build_spec_bundle", "fit_gamma"):
        original = getattr(baselines, name)

        def counting(*args, _original=original, _name=name, **kwargs):
            built.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(baselines, name, counting)
    with pytest.raises(ConfigError):
        run_method(method, full2000 if method == "oracle" else obs600,
                   options=MethodOptions(level=1.5))
    assert built == []


def test_dispatch_calls_estimators_through_module_names(monkeypatch, obs600, tmp_path):
    # Wrappers bound to the module attributes must see every call made by
    # the CLI and by the Monte Carlo harness (the benchmark relies on it).
    calls = []

    def recording(name):
        original = getattr(baselines, name)

        def wrapper(*args, **kwargs):
            res = original(*args, **kwargs)
            calls.append((name, res.method))
            return res
        return wrapper

    for name in ("sri_estimate", "cca_estimate"):
        monkeypatch.setattr(baselines, name, recording(name))

    data, desc = tmp_path / "obs.csv", tmp_path / "obs.json"
    write_csv(obs600, str(data))
    write_descriptor(obs600, str(desc))
    for method in ("sri", "cca"):
        rc = cli.main(["estimate", "--method", method, "--data", str(data),
                       "--descriptor", str(desc), "--estimand", "te",
                       "--out", str(tmp_path / f"{method}.json")])
        assert rc == 0
    assert calls == [("sri_estimate", "sri"), ("cca_estimate", "cca")]

    calls.clear()
    truth = true_effects(DgpConfig(n=600), big_n=2000, seed=7)
    res = run_monte_carlo(DgpConfig(n=600), reps=1, methods=["sri", "cca"],
                          estimands=["te"], master_seed=4, truth=truth)
    assert res.failures == {"sri": [], "cca": []}
    assert calls == [("sri_estimate", "sri"), ("cca_estimate", "cca")]


def test_mi_leaves_the_observed_arrays_unchanged(obs600):
    """The completed datasets share the observed columns they do not fill."""
    def arrays(ds):
        return [ds.r, ds.z, ds.x_miss, ds.x_obs, ds.a, *ds.m, ds.y]

    before = [arr.copy() for arr in arrays(obs600)]
    mi_estimate(obs600, options=MethodOptions(mi_m=2), seed=3)
    for was, now in zip(before, arrays(obs600)):
        np.testing.assert_array_equal(now, was)
