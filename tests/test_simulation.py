import csv
import os

import numpy as np
import pytest

from shadowpse.baselines import MethodOptions
from shadowpse.errors import ConfigError
from shadowpse.simulation import (
    TRUTH_SEED,
    DgpConfig,
    generate,
    run_monte_carlo,
    true_effects,
    true_gamma_values,
)

from support import (
    E_SIN_PHI_NORMAL,
    TRUE_CONTRAST_MCSE,
    TRUE_CONTRASTS,
    TRUE_PSI,
    seq,
)


@pytest.fixture(scope="module")
def truth_table():
    return true_effects(DgpConfig(n=1000), big_n=10 ** 6, seed=TRUTH_SEED)


@pytest.fixture(scope="module")
def cheap_truth():
    return true_effects(DgpConfig(n=250), big_n=20000, seed=7)


def profile_key(profile):
    return "".join(str(a) for a in profile)


def analytic_psi(config, profile):
    """Counterfactual mean by quadrature.

    Every structural equation is additive in the covariates and linear
    in the upstream mediators, so substituting conditional means is
    exact and the only integral left is over (x1, x2) ~ U(0,1)^2 and
    the binary x3.
    """
    from shadowpse.simulation import _m1_mean, _m2_mean, _y_mean

    nodes, weights = np.polynomial.legendre.leggauss(48)
    u = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    x1, x2 = np.meshgrid(u, u, indexing="ij")
    grid_w = np.outer(w, w)
    a1, a2, a3 = profile
    total = 0.0
    for x3 in (0.0, 1.0):
        m1b = _m1_mean(config.m1, a1, x1, x2, x3)
        m2b = _m2_mean(config.m2, a2, x1, x2, x3, m1b)
        yb = _y_mean(config.y, a3, x1, x2, x3, m1b, m2b)
        total += 0.5 * float(np.sum(grid_w * yb))
    return total


def test_generation_is_seed_deterministic():
    a_full, a_obs = generate(DgpConfig(n=400, seed=seq(401)))
    b_full, b_obs = generate(DgpConfig(n=400, seed=seq(401)))
    np.testing.assert_array_equal(a_full.y, b_full.y)
    np.testing.assert_array_equal(a_obs.r, b_obs.r)
    assert np.array_equal(a_obs.x_miss, b_obs.x_miss, equal_nan=True)


def test_alpha_one_makes_shadow_equal_covariate():
    full, obs = generate(DgpConfig(n=500, alpha=1.0, seed=seq(402)))
    np.testing.assert_array_equal(full.x_miss[:, 0], full.z[:, 0])


def test_shadow_covariate_grade_correlation():
    full, obs = generate(DgpConfig(n=100000, seed=seq(34)))
    corr = float(np.corrcoef(full.x_miss[:, 0], full.z[:, 0])[0, 1])
    # Pearson correlation of the two uniform grades of a bivariate
    # normal with correlation alpha is (6/pi) asin(alpha/2)
    target = (6.0 / np.pi) * np.arcsin(0.6 / 2.0)
    assert abs(corr - target) <= 0.02


def test_missingness_rate_near_benchmark_level():
    full, obs = generate(DgpConfig(n=100000, seed=seq(42)))
    frac = float((obs.r == 0).mean())
    assert abs(frac - 0.437) <= 0.02


def test_true_gamma_values_structural_identity():
    config = DgpConfig(n=3000, seed=seq(403))
    full, obs = generate(config)
    gamma = true_gamma_values(full, config)
    assert gamma.shape == (3000,)
    assert np.all(gamma > 0.0)
    # odds match the missingness model: P(R=0)/(P(R=1)) averaged moments
    p_miss = float((full.r == 0).mean())
    implied = float(np.mean(1.0 / (1.0 + gamma)))
    assert abs(implied - (1.0 - p_miss)) <= 0.03


def test_null_configuration_has_exactly_zero_effects():
    config = DgpConfig(n=100).without_treatment_effects()
    table = true_effects(config, big_n=2000, seed=3)
    for value in table.contrasts.values():
        assert value == 0.0
    psi = list(table.psi.values())
    assert max(psi) == min(psi)


def test_frozen_truth_reproduced(truth_table):
    table = truth_table
    assert table.big_n == 10 ** 6 and table.seed == TRUTH_SEED
    for name, value in TRUE_CONTRASTS.items():
        assert abs(table.contrasts[name] - value) <= 1e-10
    assert table.contrasts["nie_1"] == -1.0
    for name, value in TRUE_CONTRAST_MCSE.items():
        assert abs(table.contrast_mcse[name] - value) <= 1e-12
    assert table.contrast_mcse["nie_1"] <= 1e-9
    for profile, value in table.psi.items():
        assert abs(value - TRUE_PSI[profile_key(profile)]) <= 1e-10
    assert max(table.psi_mcse.values()) <= 0.005
    resid = (table.contrasts["nde"] + table.contrasts["nie_1"]
             + table.contrasts["nie_2"] - table.contrasts["te"])
    assert abs(resid) <= 1e-12


def test_truth_matches_independent_quadrature_route(truth_table):
    config = DgpConfig(n=1000)
    assert abs((1.0 - np.cos(1.0)) - E_SIN_PHI_NORMAL) <= 1e-15
    for profile, value in truth_table.psi.items():
        exact = analytic_psi(config, profile)
        assert abs(value - exact) <= 4.0 * truth_table.psi_mcse[profile]
    for name in ("nde", "nie_1", "nie_2", "te"):
        from shadowpse.estimator import named_estimand

        pa, pb = named_estimand(name, 2)
        exact = analytic_psi(config, pa) - analytic_psi(config, pb)
        tol = 4.0 * max(truth_table.contrast_mcse[name], 1e-12)
        assert abs(truth_table.contrasts[name] - exact) <= tol


def test_truth_table_dict_schema(cheap_truth):
    doc = cheap_truth.to_dict()
    assert sorted(doc) == ["big_n", "contrast_mcse", "contrasts", "psi",
                           "psi_mcse", "seed"]
    assert sorted(doc["psi"]) == sorted(
        profile_key(p) for p in cheap_truth.psi)
    assert doc["big_n"] == 20000


def test_settings_defaults():
    settings = MethodOptions()
    assert settings.sieve.degree == 3
    assert settings.sieve.include_interactions
    assert settings.sieve.mu_degree == 2
    assert not settings.sieve.mu_interactions
    assert settings.level == 0.95
    assert settings.mi_m == 20


def test_monte_carlo_determinism(cheap_truth):
    kwargs = dict(reps=2, methods=["cca"], master_seed=11, truth=cheap_truth)
    a = run_monte_carlo(DgpConfig(n=250), **kwargs)
    b = run_monte_carlo(DgpConfig(n=250), **kwargs)
    assert a.to_json_dict() == b.to_json_dict()
    for key in a.raw:
        np.testing.assert_array_equal(a.raw[key], b.raw[key])


def test_worker_count_leaves_result_unchanged(cheap_truth, monkeypatch):
    """Two spawned workers give the serial result, and the BLAS thread
    variables they start under are restored afterwards."""
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    before = {name: os.environ.get(name)
              for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    kwargs = dict(reps=4, methods=["sri", "cca"], master_seed=23, truth=cheap_truth)
    serial = run_monte_carlo(DgpConfig(n=250), workers=1, **kwargs)
    pooled = run_monte_carlo(DgpConfig(n=250), workers=2, **kwargs)
    assert pooled.cells == serial.cells
    assert pooled.raw.keys() == serial.raw.keys()
    for key in serial.raw:
        assert pooled.raw[key].tobytes() == serial.raw[key].tobytes()
    assert pooled.to_json_dict() == serial.to_json_dict()
    assert {name: os.environ.get(name) for name in before} == before


def test_single_replication(cheap_truth):
    res = run_monte_carlo(DgpConfig(n=250), reps=1, methods=["cca"],
                          master_seed=3, truth=cheap_truth)
    cell = res.cells[("cca", "te")]
    assert cell.reps_used == 1 and cell.n_fail == 0
    assert np.isfinite(cell.bias)
    assert np.isnan(cell.se)
    assert cell.cp in (0.0, 1.0)


def test_failed_replications_are_excluded_and_reported(cheap_truth):
    res = run_monte_carlo(DgpConfig(n=8), reps=3, methods=["mi"],
                          master_seed=77, truth=cheap_truth)
    cell = res.cells[("mi", "te")]
    assert cell.n_fail == 3 and cell.reps_used == 0
    assert np.isnan(cell.bias)
    assert set(res.to_json_dict()["cells"]["mi"]["te"].values()) == {None, 0, 3}
    assert len(res.failures["mi"]) == 3
    assert res.failures["mi"][0].startswith("rep 0: InsufficientCompleteCases")


def test_result_csv_layout(tmp_path, cheap_truth):
    res = run_monte_carlo(DgpConfig(n=250), reps=2, methods=["cca"],
                          master_seed=11, truth=cheap_truth)
    path = tmp_path / "table.csv"
    res.to_csv(str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["method", "metric", "nde", "nie_1", "nie_2", "te"]
    assert [r[:2] for r in rows[1:]] == [["cca", "bias"], ["cca", "se"],
                                         ["cca", "cp"]]
    for j, est in enumerate(("nde", "nie_1", "nie_2", "te"), start=2):
        assert float(rows[1][j]) == res.cells[("cca", est)].bias
    doc = res.to_json_dict()
    assert doc["settings"]["master_seed"] == 11
    assert doc["cells"]["cca"]["te"]["reps_used"] == 2


@pytest.mark.parametrize("kwargs", [
    dict(methods=["sir"]),
    dict(methods=["cca"], estimands=["te", "nie_3"]),
])
def test_monte_carlo_checks_inputs_before_replicating(cheap_truth, monkeypatch, kwargs):
    from shadowpse import simulation

    def no_replication(args):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(simulation, "_one_rep", no_replication)
    with pytest.raises(ConfigError):
        run_monte_carlo(DgpConfig(n=250), reps=2, truth=cheap_truth, **kwargs)


@pytest.mark.parametrize("alpha", [2.0, -1.5, float("nan"), float("inf")])
def test_alpha_outside_minus_one_to_one_is_refused(alpha):
    """alpha is the correlation of the normal draws behind z and x1."""
    with pytest.raises(ConfigError, match="alpha"):
        DgpConfig(alpha=alpha)
    assert DgpConfig(alpha=-1.0).alpha == -1.0
