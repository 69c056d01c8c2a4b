"""Point estimation of counterfactual means under a treatment profile.

A profile (a_1, ..., a_{K+1}) assigns one treatment level per mediator
plus one for the outcome equation. The plug-in estimator is

    psi_hat = (1/n) sum_i R_i (1 + gamma_hat_i) mu_1_hat(X_i)

where mu_{K+1}, ..., mu_1 is the backward regression chain: mu_{K+1}
fits Y on (x, m_1..m_K) with weights 1{A = a_{K+1}} R (1 + gamma_hat),
and each mu_k fits the previous fit's predictions on (x, m_1..m_{k-1})
with weights 1{A = a_k} R (1 + gamma_hat). The (1 + gamma_hat) factor
reweights complete cases back to the full population.

Each stage takes the run's RunFits: the sample's designs, which carry
the dataset, bound to the odds values gamma_hat, one per complete case,
which the pipeline (baselines) works out once per run. Only complete
cases enter the sum, so psi_hat averages their reweighted predictions
over all n records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DimensionMismatch
from .series_regression import RunFits, _frozen

TreatmentProfile = tuple[int, ...]


def validate_profile(profile: Sequence[int], k: int) -> TreatmentProfile:
    prof = tuple(int(a) for a in profile)
    if len(prof) != k + 1:
        raise ConfigError(f"profile {prof} has length {len(prof)}, need K+1={k + 1}")
    if any(a not in (0, 1) for a in prof):
        raise ConfigError(f"profile entries must be 0/1, got {prof}")
    return prof


def named_estimand(name: str, k: int) -> tuple[TreatmentProfile, TreatmentProfile]:
    """Profiles (A, B) whose contrast psi_A - psi_B is the named effect.

    te      total effect
    nde     direct effect bypassing every mediator
    nie_j   effect through mediator j (j = 1..K)
    """
    if name == "te":
        return (1,) * (k + 1), (0,) * (k + 1)
    if name == "nde":
        return (0,) * k + (1,), (0,) * (k + 1)
    if name.startswith("nie_"):
        try:
            j = int(name.split("_", 1)[1])
        except ValueError:
            j = -1
        if 1 <= j <= k:
            return (0,) * (j - 1) + (1,) * (k + 2 - j), (0,) * j + (1,) * (k + 1 - j)
    raise ConfigError(f"unknown estimand {name!r} for K={k}")


@dataclass
class NuisanceFits:
    """Backward chain mu_1..mu_{K+1} for one profile.

    mu[k-1] is mu_k's coefficient vector in the basis bundle.u[k-1] and
    values[k-1] its fitted values on the complete cases, both read-only.
    """

    profile: TreatmentProfile
    mu: list[np.ndarray]
    values: list[np.ndarray]


def fit_mu_chain(run: RunFits, profile: Sequence[int]) -> NuisanceFits:
    """Fit the K+1 weighted regressions, outcome level first; each mu_k
    is shared through run.memo with every profile of the same suffix,
    and each is solved against run.arm_lstsq(k, a_k), the one small
    weighted system per (k, a_k) that the omega_k fits on that arm read
    too; its fitted values come from the run's one outcome-chain span."""
    designs = run.designs
    ds = designs.ds
    prof = validate_profile(profile, ds.k)
    if len(designs.bundle.u) != ds.k + 1:
        raise DimensionMismatch(f"need {ds.k + 1} mu bases, got {len(designs.bundle.u)}")

    mu: list[np.ndarray] = [None] * (ds.k + 1)  # type: ignore[list-item]
    values: list[np.ndarray] = [None] * (ds.k + 1)  # type: ignore[list-item]
    response = designs.y_cc
    for k in range(ds.k + 1, 0, -1):
        key = ("mu", k, prof[k - 1:])
        if key not in run.memo:
            system = run.arm_lstsq(k, prof[k - 1])
            coef = system.solve(response)
            # next level regresses mu_k evaluated at (x, m_1..m_{k-1})
            run.memo[key] = (_frozen(coef), _frozen(system.fitted(coef)))
        mu[k - 1], values[k - 1] = run.memo[key]
        response = values[k - 1]
    return NuisanceFits(profile=prof, mu=mu, values=values)


def estimate_psi(run: RunFits, fits: NuisanceFits) -> float:
    """Average the reweighted mu_1 predictions over the whole sample;
    fits is a chain fitted under run's odds; a batch gives one per slice."""
    plugin = (1.0 + run.odds_cc) * fits.values[0]
    psi = plugin.sum(axis=-1) / run.designs.ds.n
    return psi if psi.ndim else float(psi)
