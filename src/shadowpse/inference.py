"""Influence-function based variance estimation and confidence intervals.

The influence function for one profile is

    IF_i = R_i (1 + gamma_i) phi_i - psi_hat
           - Ehat{ R rho | W_i } (R_i gamma_i - 1 + R_i)

with phi the augmented outcome built from the mu chain and the
treatment-density ratios omega_k, and rho a representer fitted over the
linear span of the odds-function basis. Incomplete records contribute
through the formula literally: the first term vanishes with R_i = 0 and
the last factor becomes -1, so their covariates are never touched.
phi is a complete-case vector and the influence values come in the
designs' row order, complete cases first; their only readers, the
contrast differences and the variance, do not depend on the order.

Recovering rho is ill-posed: at the default sieve 8-9 of the 39 Gram
eigenvalues lie below 1e-2 of their mean at every n, so a fixed relative
ridge would damp the same directions at every n, and its bias would not
shrink while the se does. The ridge is therefore representer_ridge(n),
1e-2 up to n = 1000 and 1e-2 (1000 / n)^2 above (Chen & Pouzo 2012).

Density-ratio fits, like the odds function, pose a conditional moment
restriction; because omega enters the moment linearly inside a linear
projection, each fit reduces to one small linear solve.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from statistics import NormalDist
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DimensionMismatch, NonFiniteInput
from .estimator import (
    NuisanceFits,
    TreatmentProfile,
    estimate_psi,
    fit_mu_chains,
    validate_profile,
)
from .series_regression import RunFits, SampleDesigns, _frozen, _mv, _t, tall

OMEGA_FLOOR = 1e-3


def z_critical(level: float) -> float:
    """Two-sided normal critical value, e.g. 1.959964 at level 0.95."""
    if not 0.0 < level < 1.0:
        raise ConfigError(f"level must be in (0, 1), got {level}")
    return NormalDist().inv_cdf(0.5 + level / 2.0)


@dataclass
class OmegaFits:
    """Treatment-density ratios omega_1..omega_{K+1} for one profile.

    omega[k-1] is omega_k's coefficient vector in the basis bundle.u[k-1],
    or None at levels where a_k = a_{k-1}: there omega_k is exactly one
    by construction, and no fit is stored or consulted.
    Raw evaluations are floored at OMEGA_FLOOR: the ratios are positive by
    definition but sieve fits can dip negative in sparse regions.
    cumulative[k-1] holds the coefficients of the floored product
    omega_1..omega_k pushed back onto the k-th mu basis, so the phi
    augmentation terms stay orthogonal to the fitted chain and the
    reweighted mean of phi reproduces psi_hat exactly; cumulative_values[k-1]
    are its fitted values on the complete cases. All are read-only.
    moment_residual_sup is the largest 2-norm, over the profile's omega
    fits, of the moment residual's coordinates in the orthonormal basis
    of its level: a bound on the residual's sup over the rows.
    """

    profile: TreatmentProfile
    omega: list[Optional[np.ndarray]]
    cumulative: list[np.ndarray]
    cumulative_values: list[np.ndarray]
    floor_events: int
    moment_residual_sup: float


def fit_omega_levels(run: RunFits, profiles: Sequence[Sequence[int]]) -> list[OmegaFits]:
    """Fit each profile's omega_k from its conditional moment restriction
    and push the cumulative products back onto the mu bases, level by
    level, each distinct fit once.

    omega_1 solves E[(1+gamma)(1{A=a_1} w(X) - 1) | R=1, X] = 0 and, for
    k >= 2, omega_k solves the same with target 1{A=a_{k-1}} and
    conditioning (X, M_1..M_{k-1}); both are projected onto the span of
    the k-th mu basis over complete cases, giving a small linear system
    whose matrix is that of the mu_k fits on arm a_k, run.arm_lstsq(k,
    a_k). Where a_k = a_{k-1} omega_k is one and is not fitted. A fit's
    right-hand side is the target's coordinates S' (1 + gamma) t in the
    chain span S, which run.arm_moments holds for every target, and one
    tall product evaluates every fit. The floored products
    omega_1..omega_k, one per distinct prefix (a_1..a_k), are formed row
    by row; one tall product projects them all, and one evaluates their
    least-squares fits through designs.chain[k-1]. Each stack goes once
    the next one is made. Floor events count per profile.
    """
    designs = run.designs
    levels = range(1, designs.ds.k + 2)
    profiles = [validate_profile(prof, designs.ds.k) for prof in profiles]
    span = designs.chain[-1].span

    # omega_k's key: k and (a_{k-1}, a_k), or (a_1,) at level 1; its target
    # is 1{A = a_{k-1}}, or ones (-1) at level 1
    def omega_key(prof, k):
        return (k, prof[max(k - 2, 0):k]) if k == 1 or prof[k - 1] != prof[k - 2] else None

    keys = sorted({omega_key(prof, k) for prof in profiles for k in levels} - {None})
    # the target's coordinates S' (1 + gamma) t: S' W_t 1 for t = 1{A = a_{k-1}},
    # and S' (W_0 + W_1) 1 for ones
    moments = run.arm_moments[..., 1, :]
    omega, resid, coords = {}, {}, {}
    for k, sub in keys:
        system = run.arm_lstsq(k, sub[-1])
        target = moments[..., sub[0], :] if k > 1 else moments.sum(axis=-2)
        rhs = _mv(_t(system.rotation), target)
        omega[k, sub] = _frozen(_mv(system.pinv, rhs))
        gap = _mv(system.reduced, omega[k, sub]) - rhs
        resid[k, sub] = np.sqrt((gap * gap).sum(axis=-1))
        coords[k, sub] = system.coordinates(omega[k, sub])
    raw = dict(zip(keys, np.moveaxis(tall(np.stack(list(coords.values()), axis=-2), _t(span)),
                                     -2, 0)))
    floors = {key: (vals < OMEGA_FLOOR).sum(axis=-1) for key, vals in raw.items()}

    # the floored products, one row per distinct prefix (a_1..a_k), level by level
    prefixes = list(dict.fromkeys(prof[:k] for k in levels for prof in profiles))
    row = {prefix: j for j, prefix in enumerate(prefixes)}
    products = np.empty(span.shape[:-2] + (len(prefixes), designs.n_cc))
    for prefix in prefixes:
        key, out = omega_key(prefix, len(prefix)), products[..., row[prefix], :]
        below = products[..., row[prefix[:-1]], :] if len(prefix) > 1 else 1.0
        if key is None:
            out[...] = below
        else:
            np.multiply(below, np.maximum(raw[key], OMEGA_FLOOR), out=out)
    del raw
    projected = tall(products, span)
    del products
    cumulative, coords = {}, {}
    for prefix in prefixes:
        lstsq = designs.chain[len(prefix) - 1]
        cumulative[prefix] = _frozen(lstsq.solve_coordinates(projected[..., row[prefix], :]))
        coords[prefix] = lstsq.coordinates(cumulative[prefix])
    values = _frozen(tall(np.stack(list(coords.values()), axis=-2), _t(span)))

    fits = []
    for prof in profiles:
        own = [omega_key(prof, k) for k in levels]
        fitted = [key for key in own if key is not None]
        fits.append(OmegaFits(
            profile=prof,
            omega=[None if key is None else omega[key] for key in own],
            cumulative=[cumulative[prof[:k]] for k in levels],
            cumulative_values=[values[..., row[prof[:k]], :] for k in levels],
            floor_events=sum(floors[key] for key in fitted),
            moment_residual_sup=np.max([resid[key] for key in fitted], axis=0),
        ))
    return fits


def fit_omegas(run: RunFits, profile: Sequence[int]) -> OmegaFits:
    """The omega fits of one profile: fit_omega_levels of that profile alone."""
    return fit_omega_levels(run, [profile])[0]


def phi_values(designs: SampleDesigns, fits: NuisanceFits, omegas: OmegaFits) -> np.ndarray:
    """Augmented outcome phi on the complete cases, in row order.

    phi = mu_1(x)
        + sum_k 1{a=a_k} prod_{j<=k} omega_j (mu_{k+1} - mu_k)
        + 1{a=a_{K+1}} prod_{j<=K+1} omega_j (y - mu_{K+1})

    with the floored products re-projected onto the mu bases.
    """
    prof, a = fits.profile, designs.a_cc
    mu_vals, cum_vals = fits.values, omegas.cumulative_values
    kk = len(prof) - 1
    phi = mu_vals[0].copy()
    for k in range(1, kk + 1):
        phi += (a == prof[k - 1]) * cum_vals[k - 1] * (mu_vals[k] - mu_vals[k - 1])
    phi += (a == prof[kk]) * cum_vals[kk] * (designs.y_cc - mu_vals[kk])
    return phi


def fit_representer(designs: SampleDesigns, phi: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimise (1/2n)||Ehat{R rho | W}|| ^2 - (1/n) sum R phi rho.

    rho ranges over the linear span of the odds basis, so the first-order
    condition is a convex quadratic, ill-posed as the module docstring
    says. Its Tikhonov ridge is representer_ridge(n) times the mean Gram
    eigenvalue (at least one), so it shrinks with n above n = 1000 and
    its bias falls faster than the se. Returns rho's coefficients in the
    odds basis designs.bundle.q and the criterion value, at most zero
    (zero is feasible). Only the right-hand side depends on phi: the
    factored system is the run's designs.representer_system, and its
    rank (that of the projected odds design) and eps are the fit's.
    A stack (P, n_cc) of phi vectors takes one tall product q' phi and
    one solve, and gives P columns of coefficients and P values.
    """
    system = designs.representer_system
    rhs = tall(designs.q.T, phi.T)
    coef = system.solve(rhs)
    proj = system.design @ coef
    value = (0.5 * (proj * proj).sum(axis=0) - (rhs * coef).sum(axis=0)) / designs.ds.n
    return coef, value if value.ndim else float(value)


def influence_values(
    run: RunFits,
    psi_hat: float,
    phi: np.ndarray,
    rho: Optional[np.ndarray],
) -> np.ndarray:
    """Per-record influence values in row order, complete cases first;
    mean near zero by construction. rho is the representer's coefficient
    vector in the odds basis, as fit_representer returns it. A stack of
    P profiles' psi_hat (..., P), phi (..., P, n_cc) and rho columns
    (dim q, P) gives their values (..., P, n), from one tall product.

    rho=None is the complete-data shortcut: with odds identically zero
    and no incomplete records the correction factor R gamma - 1 + R is
    exactly zero, so the representer term drops out.
    """
    designs = run.designs
    n, n_cc = designs.ds.n, designs.n_cc
    values = np.zeros(phi.shape[:-1] + (n,))
    values[..., :n_cc] = (1.0 + run.odds_cc) * phi
    values -= np.asarray(psi_hat)[..., None]
    if rho is None:
        if n_cc < n or run.odds_cc.any():
            raise DimensionMismatch("representer required when R gamma - 1 + R is not identically zero")
        return values
    erho = tall((designs.representer_system.design @ rho).T, designs.p_span.T)
    erho[..., :n_cc] *= run.odds_cc
    values[..., :n_cc] -= erho[..., :n_cc]
    values[..., n_cc:] += erho[..., n_cc:]
    return values


@dataclass
class InferenceReport:
    """Point estimate with influence-function variance and normal CI."""

    psi_hat: float
    sigma2: float
    se: float
    ci_lo: float
    ci_hi: float
    level: float
    n: int
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def variance_and_ci(
    psi_hat: float,
    if_values: np.ndarray,
    level: float = 0.95,
    diagnostics: Optional[dict] = None,
) -> InferenceReport:
    """sigma2 = (1/n) sum IF_i^2; CI = psi_hat -+ z sigma / sqrt(n).
    Raises NonFiniteInput when sigma2 is not finite (an overflow). A batch
    (b, n) of influence values gives a report of arrays of b figures."""
    ifv = np.asarray(if_values, dtype=float)
    n = ifv.shape[-1]
    sigma2 = (ifv[..., None, :] @ ifv[..., None])[..., 0, 0] / n
    if not np.isfinite(sigma2).all():
        raise NonFiniteInput(f"influence-function variance is not finite: {sigma2}")
    se = np.sqrt(sigma2 / n)
    if ifv.ndim == 1:
        sigma2, se = float(sigma2), float(se)
    z = z_critical(level)
    return InferenceReport(
        psi_hat=psi_hat, sigma2=sigma2, se=se,
        ci_lo=psi_hat - z * se, ci_hi=psi_hat + z * se,
        level=level, n=n, diagnostics=diagnostics or {},
    )


# ---- profile driver ----------------------------------------------------


def analyze_profiles(run: RunFits, profiles: Sequence[Sequence[int]]) -> tuple[list, np.ndarray]:
    """psi_hat and the influence values of each profile, all on the run's
    designs under its odds values, stage by stage: the mu chains, the
    omegas and their cumulative products, phi, the representer and the
    influence values, each stage for every profile at once.

    Returns psi_hat per profile (a float, or one per slice of a batch)
    and the influence values (..., P, n), one row per profile. The fits'
    stacks go once phi has read them. With no incomplete records and
    zero odds the factor R odds - 1 + R is identically zero, so the
    representer is neither fitted nor read.
    """
    designs = run.designs
    chains = fit_mu_chains(run, profiles)
    psi = [estimate_psi(run, fits) for fits in chains]
    omegas = fit_omega_levels(run, profiles)
    phi = np.empty(chains[0].values[0].shape[:-1] + (len(chains), designs.n_cc))
    for j, (fits, omega) in enumerate(zip(chains, omegas)):
        phi[..., j, :] = phi_values(designs, fits, omega)
    del chains, omegas
    if designs.n_cc == designs.ds.n and not run.odds_cc.any():
        rho = None
    else:
        rho, _ = fit_representer(designs, phi)
    return psi, influence_values(run, np.stack(psi, axis=-1), phi, rho)
