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

from .errors import ConfigError
from .series_regression import RunFits, _frozen, _mv, _t, tall

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
    values[k-1] its fitted values on the complete cases, a row of the
    stack the chains of one call share; all are read-only.
    """

    profile: TreatmentProfile
    mu: list[np.ndarray]
    values: list[np.ndarray]


def fit_mu_chains(run: RunFits, profiles: Sequence[Sequence[int]]) -> list[NuisanceFits]:
    """Fit the K+1 weighted regressions of each profile's chain, level by
    level from the outcome down, each distinct fit once.

    mu_k depends on its profile only through the suffix (a_k..a_{K+1}),
    so the four default profiles of a K = 2 run make 9 fits where fitting
    each profile alone makes 12. Each is solved against run.arm_lstsq(k,
    a_k), which the omega_k fits on that arm read too, in the coordinates
    of the chain span S: the outcome level's right-hand side is S' W_a y
    from run.arm_moments, and each lower level fits the level above's
    fitted values S f from S' W_a S f = G_a f, with no pass over the
    rows. One tall product evaluates every fit on the complete cases.
    """
    designs = run.designs
    top = designs.ds.k + 1
    profiles = [validate_profile(prof, designs.ds.k) for prof in profiles]
    # each fit's key: its level and the profile suffix it depends on, outcome level first
    keys = list(dict.fromkeys((k, prof[k - 1:]) for k in range(top, 0, -1) for prof in profiles))
    coef, coords = {}, {}
    for k, suffix in keys:
        system = run.arm_lstsq(k, suffix[0])
        rhs = (run.arm_moments[..., suffix[0], 0, :] if k == top
               else _mv(run.arm(suffix[0])[1], coords[k + 1, suffix[1:]]))
        coef[k, suffix] = _frozen(system.solve_coordinates(rhs))
        coords[k, suffix] = system.coordinates(coef[k, suffix])
    values = _frozen(tall(np.stack(list(coords.values()), axis=-2), _t(designs.chain[-1].span)))
    row = {key: j for j, key in enumerate(coords)}
    return [NuisanceFits(
        profile=prof,
        mu=[coef[k, prof[k - 1:]] for k in range(1, top + 1)],
        values=[values[..., row[k, prof[k - 1:]], :] for k in range(1, top + 1)],
    ) for prof in profiles]


def fit_mu_chain(run: RunFits, profile: Sequence[int]) -> NuisanceFits:
    """The mu chain of one profile: fit_mu_chains of that profile alone."""
    return fit_mu_chains(run, [profile])[0]


def estimate_psi(run: RunFits, fits: NuisanceFits) -> float:
    """Average the reweighted mu_1 predictions over the whole sample;
    fits is a chain fitted under run's odds; a batch gives one per slice."""
    plugin = (1.0 + run.odds_cc) * fits.values[0]
    psi = plugin.sum(axis=-1) / run.designs.ds.n
    return psi if psi.ndim else float(psi)
