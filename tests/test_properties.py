"""Property tests: invariants checked over generated inputs."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from shadowpse.baselines import cca_estimate, mi_estimate, oracle_estimate, sri_estimate
from shadowpse.data_model import Dataset, DatasetDims, read_csv, write_csv, write_descriptor
from shadowpse.errors import EmptyArm, EmptyResult, InsufficientCompleteCases
from shadowpse.simulation import DgpConfig, generate

from support import one_mediator_dataset, rng_for, seq

EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
            1.7976931348623157e308]
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False, width=64),
                   st.sampled_from(EXTREMES))


@st.composite
def datasets(draw):
    """A dataset of random finite float64 blocks, x_miss NaN where r = 0."""
    n = draw(st.integers(1, 25))
    dims = DatasetDims(z=draw(st.integers(1, 2)), x_miss=draw(st.integers(1, 2)),
                       x_obs=draw(st.integers(0, 2)),
                       m=tuple(draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))))
    width = dims.z + dims.x + sum(dims.m) + 1
    cells = draw(arrays(np.float64, (n, width), elements=FINITE))
    r = draw(arrays(np.int64, n, elements=st.integers(0, 1)))
    a = draw(arrays(np.int64, n, elements=st.integers(0, 1)))
    z, x_miss, x_obs, *m, y = np.split(
        cells, np.cumsum([dims.z, dims.x_miss, dims.x_obs, *dims.m]), axis=1)
    x_miss[r == 0] = np.nan
    return Dataset(r=r, z=z, x_miss=x_miss, x_obs=x_obs, a=a, m=tuple(m), y=y[:, 0],
                   dims=dims)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(ds=datasets())
def test_csv_round_trip_keeps_every_bit(ds, tmp_path_factory):
    """read_csv(write_csv(ds)) gives back the same bits in every column,
    subnormals, signed zeros and the largest doubles included."""
    folder = tmp_path_factory.getbasetemp()
    data, desc = folder / "prop.csv", folder / "prop.json"
    write_csv(ds, str(data))
    write_descriptor(ds, str(desc))
    back = read_csv(str(data), str(desc))
    assert back.dims == ds.dims
    pairs = [(back.r, ds.r), (back.a, ds.a), (back.y, ds.y), (back.z, ds.z),
             (back.x_miss, ds.x_miss), (back.x_obs, ds.x_obs), *zip(back.m, ds.m)]
    for got, want in pairs:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


# How far a row permutation or an affine rescale may move psi_hat and
# se. cca solves only linear systems, so the drift is rounding (at most
# 4e-14 measured). sri also descends on the odds criterion; its Newton
# polish stops at a gradient norm of 1e-11 after quadratic steps, which
# pins the end point to rounding as well (at most 1.5e-14 measured over
# 20 draws at n = 600).
PERMUTATION_DRIFT = {"cca": 1e-10, "sri": 1e-10}


def assert_same_estimates(obs, other):
    """sri and cca give psi_hat and se on other within PERMUTATION_DRIFT
    of those on obs."""
    for estimate in (sri_estimate, cca_estimate):
        want, got = estimate(obs), estimate(other)
        tol = PERMUTATION_DRIFT[want.method]
        assert got.estimands.keys() == want.estimands.keys()
        for name, rep in want.estimands.items():
            assert abs(got.estimands[name].psi_hat - rep.psi_hat) <= tol, (want.method, name)
            assert abs(got.estimands[name].se - rep.se) <= tol, (want.method, name)


@pytest.mark.parametrize("draw", range(5))
def test_row_permutation_leaves_estimates_unchanged(draw):
    """sri and cca give the same psi_hat and se on a sample and on the
    same records in another order: the estimators are functions of the
    empirical distribution, not of the row order."""
    _, obs = generate(DgpConfig(n=600, seed=seq(2, draw)))
    assert_same_estimates(obs, obs.subset(rng_for(3, draw).permutation(obs.n)))


@pytest.mark.parametrize("draw", range(5))
def test_affine_rescale_leaves_estimates_unchanged(draw):
    """An affine map of a continuous covariate, sign flips included,
    leaves sri's and cca's psi_hat and se unchanged: every sieve basis
    standardizes its coordinates, and a power basis in a*u + b spans the
    same functions as one in u. NaN x_miss cells stay NaN."""
    _, obs = generate(DgpConfig(n=600, seed=seq(2, draw)))
    x_obs = obs.x_obs.copy()
    x_obs[:, 0] = 3.7 * x_obs[:, 0] - 1.2
    rescaled = replace(obs, z=0.25 * obs.z + 5.0, x_miss=-2.0 * obs.x_miss + 0.5, x_obs=x_obs)
    assert_same_estimates(obs, rescaled)


def mnar_one_mediator_dataset(n: int) -> Dataset:
    """K = 1 draw whose x is missing more often the larger it is, with a
    noisy copy of x as the shadow variable."""
    rng = rng_for(41)
    x = rng.random(n)
    z = x + 0.3 * rng.standard_normal(n)
    a = (rng.random(n) < 0.5).astype(int)
    m1 = x + a + rng.standard_normal(n)
    y = m1 + a + x + rng.standard_normal(n)
    r = (rng.random(n) < 0.9 - 0.5 * x).astype(int)
    return one_mediator_dataset(n, x, a, m1, y, r=r, z=z)


def test_total_effect_is_the_sum_of_its_paths(full2000, obs600):
    """te = nde + nie_1 + ... + nie_K for every method, at K = 2 and at
    K = 1: the contrasts telescope from psi(1,..,1) down to psi(0,..,0)."""
    full600 = full2000.subset(np.arange(full2000.n) < 600)
    k1 = mnar_one_mediator_dataset(800)
    results = [sri_estimate(obs600), cca_estimate(obs600), mi_estimate(obs600),
               oracle_estimate(full600), sri_estimate(k1), cca_estimate(k1), mi_estimate(k1)]
    assert results[4].extras["gamma_converged"]
    for res in results:
        est = {name: rep.psi_hat for name, rep in res.estimands.items()}
        paths = sum(value for name, value in est.items() if name != "te")
        assert abs(est["te"] - paths) <= 1e-12, res.method


def degenerate_draw(case: str) -> tuple[Dataset, Dataset]:
    """(full, observed) n = 300 draw made degenerate in one way; the full
    data changes with the observed data wherever the oracle would see it."""
    full, obs = generate(DgpConfig(n=300, seed=seq(27, 1)))
    if case == "empty complete-case arm":  # a = 1 only where x_miss is missing
        a = np.where(obs.complete_mask, 0, 1)
        return replace(full, a=a), replace(obs, a=a)
    if case == "all missing":
        return full, replace(obs, r=np.zeros_like(obs.r), x_miss=np.full_like(obs.x_miss, np.nan))
    if case == "none missing":
        return full, replace(obs, r=np.ones_like(obs.r), x_miss=full.x_miss)
    if case == "constant x_obs column":
        x_obs = obs.x_obs.copy()
        x_obs[:, 0] = 0.5
        return replace(full, x_obs=x_obs), replace(obs, x_obs=x_obs)
    if case == "n below the basis dimension":
        keep = np.arange(obs.n) < 25
        return full.subset(keep), obs.subset(keep)
    if case == "z duplicates x_obs[:, 0]":
        z = obs.x_obs[:, :1].copy()
        return replace(full, z=z), replace(obs, z=z)
    assert case == "constant y"
    y = np.full(obs.n, 1.5)
    return replace(full, y=y), replace(obs, y=y)


# The calls on degenerate draws that end in a typed error, and its class;
# every other call returns finite estimates.
DEGENERATE_ERRORS = {
    ("empty complete-case arm", "sri"): EmptyArm,
    ("empty complete-case arm", "cca"): EmptyArm,
    ("all missing", "sri"): EmptyResult,
    ("all missing", "cca"): EmptyResult,
    ("all missing", "mi"): InsufficientCompleteCases,
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", [
    "empty complete-case arm", "all missing", "none missing", "constant x_obs column",
    "n below the basis dimension", "z duplicates x_obs[:, 0]", "constant y"])
def test_degenerate_inputs_give_finite_estimates_or_a_typed_error(case):
    """sri, cca, mi (m = 3) and the oracle each return finite psi_hat and
    se, or raise the EstimationError that DEGENERATE_ERRORS names, on a
    degenerate draw; no warning is raised on the way."""
    full, obs = degenerate_draw(case)
    runs = {"sri": lambda: sri_estimate(obs), "cca": lambda: cca_estimate(obs),
            "mi": lambda: mi_estimate(obs, m=3, seed=5), "oracle": lambda: oracle_estimate(full)}
    for method, run in runs.items():
        error = DEGENERATE_ERRORS.get((case, method))
        if error is not None:
            with pytest.raises(error):
                run()
            continue
        got = [(rep.psi_hat, rep.se) for rep in run().estimands.values()]
        assert got and np.isfinite(got).all(), (method, got)
