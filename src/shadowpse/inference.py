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

from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DimensionMismatch, LengthMismatch, NonFiniteInput
from .estimator import (
    NuisanceFits,
    TreatmentProfile,
    estimate_psi,
    fit_mu_chain,
    validate_profile,
)
from .series_regression import FitDiagnostics, RunFits, SampleDesigns, SeriesRegressor

OMEGA_FLOOR = 1e-3


def z_critical(level: float) -> float:
    """Two-sided normal critical value, e.g. 1.959964 at level 0.95."""
    if not 0.0 < level < 1.0:
        raise ConfigError(f"confidence level must be in (0,1), got {level}")
    return NormalDist().inv_cdf(0.5 + level / 2.0)


@dataclass
class OmegaFits:
    """Treatment-density ratios omega_1..omega_{K+1} for one profile.

    omega[k-1] is None at levels where a_k = a_{k-1}: there omega_k is
    exactly one by construction, and no fit is stored or consulted.
    Raw evaluations are floored at OMEGA_FLOOR: the ratios are positive by
    definition but sieve fits can dip negative in sparse regions.
    cumulative[k-1] stores the floored product omega_1..omega_k pushed
    back onto the k-th mu basis, so the phi augmentation terms stay
    orthogonal to the fitted chain and the reweighted mean of phi
    reproduces psi_hat exactly; cumulative_values[k-1] are its fitted
    values on the complete cases.
    """

    profile: TreatmentProfile
    omega: list[Optional[SeriesRegressor]]
    cumulative: list[SeriesRegressor]
    cumulative_values: list[np.ndarray]
    floor_events: int
    moment_residual_sup: float


def _fit_omega(
    run: RunFits, k: int, arm_level: int, target: np.ndarray,
) -> tuple[SeriesRegressor, float, np.ndarray]:
    """omega_k, its moment residual sup and its raw values on the
    complete cases.

    The moment system span' diag(1{A = a_k} (1 + gamma)) u(k) c =
    span' ((1 + gamma) target) has the matrix of the mu_k fits on arm
    a_k, so it is solved against their run.arm_lstsq(k, a_k).
    """
    system = run.arm_lstsq(k, arm_level)
    rhs = system.span.T @ ((1.0 + run.odds_cc) * target)
    coef = system.pinv @ rhs
    resid = system.reduced @ coef - rhs
    resid_sup = float(np.max(np.abs(system.span @ resid))) if resid.size else 0.0
    reg = system.regressor(run.designs.bundle.u[k - 1], coef)
    return reg, resid_sup, run.designs.u(k) @ coef


def fit_omegas(run: RunFits, profile: Sequence[int]) -> OmegaFits:
    """Fit each omega_k from its conditional moment restriction.

    omega_1 solves E[(1+gamma)(1{A=a_1} w(X) - 1) | R=1, X] = 0 and, for
    k >= 2, omega_k solves the same with target 1{A=a_{k-1}} and
    conditioning (X, M_1..M_{k-1}); both are projected onto the span of
    the k-th mu basis over complete cases, giving a small linear system
    whose matrix is that of the mu_k fits on arm a_k.

    The omega and cumulative fits are shared through run.memo with
    every profile of the same levels; floor events count per profile.
    The cumulative fits are unweighted least squares on the k-th mu
    basis, solved through designs.u_lstsq(k).
    """
    designs, memo = run.designs, run.memo
    ds = designs.ds
    prof = validate_profile(profile, ds.k)
    a_cc = designs.a_cc

    omega: list[Optional[SeriesRegressor]] = []
    raw_vals: list[np.ndarray] = []
    resid_sup = 0.0
    for k in range(1, ds.k + 2):
        if k >= 2 and prof[k - 1] == prof[k - 2]:
            omega.append(None)
            raw_vals.append(np.ones(designs.n_cc))
            continue
        key = ("omega", k, prof[k - 2:k] if k >= 2 else prof[:1])
        if key not in memo:
            target = np.ones(len(a_cc)) if k == 1 else (a_cc == prof[k - 2]).astype(float)
            memo[key] = _fit_omega(run, k, prof[k - 1], target)
        reg, sup, vals = memo[key]
        resid_sup = max(resid_sup, sup)
        omega.append(reg)
        raw_vals.append(vals)

    # cumulative products, floored then pushed back into the k-th basis span
    floor_events = 0
    cumulative: list[SeriesRegressor] = []
    cumulative_values: list[np.ndarray] = []
    running = np.ones(designs.n_cc)
    for k in range(1, ds.k + 2):
        vals = raw_vals[k - 1]
        if omega[k - 1] is not None:
            floor_events += int((vals < OMEGA_FLOOR).sum())
            vals = np.maximum(vals, OMEGA_FLOOR)
        key = ("cumulative", k, prof[:k])
        if key not in memo:
            product = running * vals
            lstsq = designs.u_lstsq(k)
            reg = lstsq.regressor(designs.bundle.u[k - 1], lstsq.solve(product))
            memo[key] = (reg, product, designs.u(k) @ reg.coef)
        reg, running, fitted = memo[key]
        cumulative.append(reg)
        cumulative_values.append(fitted)
    return OmegaFits(
        profile=prof,
        omega=omega,
        cumulative=cumulative,
        cumulative_values=cumulative_values,
        floor_events=floor_events,
        moment_residual_sup=resid_sup,
    )


def phi_values(designs: SampleDesigns, fits: NuisanceFits, omegas: OmegaFits) -> np.ndarray:
    """Augmented outcome phi on the complete cases, in row order.

    phi = mu_1(x)
        + sum_k 1{a=a_k} prod_{j<=k} omega_j (mu_{k+1} - mu_k)
        + 1{a=a_{K+1}} prod_{j<=K+1} omega_j (y - mu_{K+1})

    with the floored products re-projected onto the mu bases.
    """
    if fits.profile != omegas.profile:
        raise DimensionMismatch("mu chain and omega fits target different profiles")
    prof, a = fits.profile, designs.a_cc
    mu_vals, cum_vals = fits.values, omegas.cumulative_values
    kk = len(prof) - 1
    phi = mu_vals[0].copy()
    for k in range(1, kk + 1):
        phi += (a == prof[k - 1]) * cum_vals[k - 1] * (mu_vals[k] - mu_vals[k - 1])
    phi += (a == prof[kk]) * cum_vals[kk] * (designs.y_cc - mu_vals[kk])
    return phi


def fit_representer(designs: SampleDesigns, phi: np.ndarray) -> tuple[SeriesRegressor, float]:
    """Minimise (1/2n)||Ehat{R rho | W}|| ^2 - (1/n) sum R phi rho.

    rho ranges over the linear span of the odds basis, so the first-order
    condition is a convex quadratic, ill-posed as the module docstring
    says. Its Tikhonov ridge is representer_ridge(n) times the mean Gram
    eigenvalue (at least one), so it shrinks with n above n = 1000 and
    its bias falls faster than the se. The returned criterion value is
    at most zero (zero is feasible). The recorded rank is that of the
    projected odds design, whose Gram matrix the system solves. Only
    the right-hand side depends on phi: the factored system is the
    run's designs.representer_system, shared by every profile.
    """
    ds = designs.ds
    if np.shape(phi) != (designs.n_cc,):
        raise LengthMismatch("phi must have one entry per complete case")
    spec_q = designs.bundle.q
    system = designs.representer_system
    rhs = designs.q.T @ phi
    coef = system.solve(rhs)
    proj = system.design @ coef
    value = 0.5 * float(proj @ proj) / ds.n - float(rhs @ coef) / ds.n
    diag = FitDiagnostics(n_used=designs.n_cc, dim=spec_q.dim, rank=system.rank,
                          gram_diag_ridge=system.eps)
    return SeriesRegressor(spec=spec_q, coef=coef, diagnostics=diag), value


def influence_values(
    run: RunFits,
    psi_hat: float,
    phi: np.ndarray,
    rho: Optional[SeriesRegressor],
) -> np.ndarray:
    """Per-record influence values in row order, complete cases first;
    mean near zero by construction.

    rho=None is the complete-data shortcut: with odds identically zero
    and no incomplete records the correction factor R gamma - 1 + R is
    exactly zero, so the representer term drops out.
    """
    designs = run.designs
    n, n_cc = designs.ds.n, designs.n_cc
    term1 = np.zeros(n)
    term1[:n_cc] = (1.0 + run.odds_cc) * phi
    if rho is None:
        if n_cc < n or run.odds_cc.any():
            raise DimensionMismatch("representer required when R gamma - 1 + R is not identically zero")
        return term1 - psi_hat
    t = np.concatenate([run.odds_cc, np.full(n - n_cc, -1.0)])
    erho = designs.p_span @ (designs.p_span_cc.T @ (designs.q @ rho.coef))
    return term1 - psi_hat - erho * t


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
        return {
            "psi_hat": self.psi_hat,
            "sigma2": self.sigma2,
            "se": self.se,
            "ci_lo": self.ci_lo,
            "ci_hi": self.ci_hi,
            "level": self.level,
            "n": self.n,
            "diagnostics": self.diagnostics,
        }


def variance_and_ci(
    psi_hat: float,
    if_values: np.ndarray,
    level: float = 0.95,
    diagnostics: Optional[dict] = None,
) -> InferenceReport:
    """sigma2 = (1/n) sum IF_i^2; CI = psi_hat -+ z sigma / sqrt(n).
    Raises NonFiniteInput when sigma2 is not finite (an overflow)."""
    ifv = np.asarray(if_values, dtype=float)
    n = len(ifv)
    sigma2 = float(ifv @ ifv) / n
    if not np.isfinite(sigma2):
        raise NonFiniteInput(f"influence-function variance is not finite: {sigma2}")
    se = float(np.sqrt(sigma2 / n))
    z = z_critical(level)
    return InferenceReport(
        psi_hat=psi_hat, sigma2=sigma2, se=se,
        ci_lo=psi_hat - z * se, ci_hi=psi_hat + z * se,
        level=level, n=n, diagnostics=diagnostics or {},
    )


# ---- profile driver ----------------------------------------------------


@dataclass
class ProfileAnalysis:
    psi_hat: float
    fits: NuisanceFits
    omegas: OmegaFits
    phi: np.ndarray
    rho: Optional[SeriesRegressor]
    if_values: np.ndarray


def analyze_profile(run: RunFits, profile: Sequence[int]) -> ProfileAnalysis:
    """Full single-profile pipeline: chain, omegas, phi, representer, IF,
    all on the run's designs under its odds values.

    With no incomplete records and zero odds the factor R odds - 1 + R
    is identically zero, so the representer is neither fitted nor read.
    """
    designs = run.designs
    prof = validate_profile(profile, designs.ds.k)
    fits = fit_mu_chain(run, prof)
    psi_hat = estimate_psi(run, fits)
    omegas = fit_omegas(run, prof)
    phi = phi_values(designs, fits, omegas)

    if designs.n_cc == designs.ds.n and not run.odds_cc.any():
        rho = None
    else:
        rho, _ = fit_representer(designs, phi)
    return ProfileAnalysis(
        psi_hat=psi_hat, fits=fits, omegas=omegas, phi=phi, rho=rho,
        if_values=influence_values(run, psi_hat, phi, rho),
    )
