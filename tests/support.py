"""Shared helpers and frozen reference values for the test suite.

The Monte-Carlo truth constants below were produced by
``true_effects(DgpConfig(n=1000), big_n=10**6, seed=TRUTH_SEED)`` and
cross-checked against an independent closed-form route (the benchmark
structural equations are additive in the covariates and linear in the
mediators, so every counterfactual mean reduces to moments of U(0,1),
Bernoulli(1/2) and one one-dimensional Gaussian quadrature).  The two
routes agree within four Monte-Carlo standard errors on every contrast;
``test_simulation.py`` re-derives the closed form and re-checks this.
"""

from dataclasses import replace

import numpy as np

from shadowpse.data_model import Dataset

ENTROPY = 20260814


def seq(*key):
    """Deterministic SeedSequence for a test-local RNG stream."""
    return np.random.SeedSequence(entropy=ENTROPY, spawn_key=key)


def rng_for(*key):
    return np.random.Generator(np.random.Philox(seq(*key)))


def tile_dataset(ds: Dataset, k: int) -> Dataset:
    """Stack k copies of every record."""
    return Dataset(
        r=np.tile(ds.r, k),
        z=np.tile(ds.z, (k, 1)),
        x_miss=np.tile(ds.x_miss, (k, 1)),
        x_obs=np.tile(ds.x_obs, (k, 1)),
        a=np.tile(ds.a, k),
        m=tuple(np.tile(mm, (k, 1)) for mm in ds.m),
        y=np.tile(ds.y, k),
    )


def three_mediators(ds: Dataset) -> Dataset:
    """ds with m_2 widened to two columns and a third, two-column mediator
    appended; the new columns are the same seeded normal draw for every
    dataset of the same n."""
    extra = rng_for(42, ds.n).standard_normal((ds.n, 3))
    m1, m2 = ds.m
    return replace(ds, m=(m1, np.hstack([m2, extra[:, :1]]), extra[:, 1:]), columns={})


def one_mediator_dataset(n, x, a, m1, y, r=None, z=None) -> Dataset:
    """K=1 dataset with a scalar missing covariate and no x_obs block."""
    if r is None:
        r = np.ones(n, dtype=int)
    if z is None:
        z = x
    x_miss = np.where(np.asarray(r) == 1, x, np.nan)
    return Dataset(r=r, z=z, x_miss=x_miss, x_obs=np.empty((n, 0)), a=a, m=(m1,), y=y)


# Frozen Monte-Carlo truth of the benchmark generator (big_n=1e6, truth seed).
TRUE_CONTRASTS = {
    "nde": 0.4578251644645214,
    "nie_1": -1.0,
    "nie_2": 0.4197216833293592,
    "te": -0.12245315220611937,
}
TRUE_CONTRAST_MCSE = {
    "nde": 0.0008049266978886419,
    "nie_2": 0.0013368075288647423,
    "te": 0.0009777488796620193,
}
TRUE_PSI = {
    "000": 4.088894006173995,
    "001": 4.546719170638514,
    "010": 4.403685268671015,
    "011": 4.9664408539678755,
    "100": 3.3388940061739967,
    "101": 4.046719170638517,
    "110": 3.2786852686710146,
    "111": 3.966440853967877,
}

# E[sin(Phi(W))] for standard normal W, by quadrature (used by the
# closed-form truth route).
E_SIN_PHI_NORMAL = 0.4596976941318603
