"""Finite-dimensional sieve bases shared by every downstream fit.

A power basis over standardized coordinates u = (x - center) / scale:
intercept, per-coordinate monomials u_j^e for e = 1..degree, then all
pairwise products u_i * u_j (i < j) when interactions are on.

Binary coordinates are never raised above power one; the duplicate
higher powers are dropped rather than kept as collinear columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .data_model import Dataset, complete_cases
from .errors import DimensionMismatch, NonFiniteInput

@dataclass(frozen=True)
class Standardizer:
    """Per-coordinate affine map u = (x - center) / scale."""

    center: tuple[float, ...]
    scale: tuple[float, ...]

    def apply(self, points: np.ndarray) -> np.ndarray:
        c = np.asarray(self.center)
        s = np.asarray(self.scale)
        return (points - c) / s

    @staticmethod
    def identity(dim: int) -> "Standardizer":
        return Standardizer(center=(0.0,) * dim, scale=(1.0,) * dim)


def fit_standardizer(points: np.ndarray) -> Standardizer:
    """Center/scale by mean and population standard deviation.

    Zero-variance coordinates get scale 1 so constants pass through
    unchanged instead of dividing by zero.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if not np.isfinite(pts).all():
        raise NonFiniteInput("fit_standardizer: non-finite input")
    center = pts.mean(axis=0)
    scale = pts.std(axis=0)  # population sd, denominator n
    scale = np.where(scale == 0.0, 1.0, scale)
    return Standardizer(center=tuple(center.tolist()), scale=tuple(scale.tolist()))


def detect_binary(points: np.ndarray) -> tuple[bool, ...]:
    """A coordinate is binary when all its observed values lie in {0, 1}."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    out = []
    for j in range(pts.shape[1]):
        col = pts[:, j]
        out.append(bool(np.isin(col[np.isfinite(col)], (0.0, 1.0)).all()))
    return tuple(out)


@dataclass(frozen=True)
class BasisSpec:
    """Immutable description of one sieve basis.

    binary marks coordinates capped at power one; it defaults to no caps.
    """

    degree: int
    input_dim: int
    standardizer: Standardizer
    include_intercept: bool = True
    include_interactions: bool = True
    binary: tuple[bool, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise DimensionMismatch("degree must be >= 0")
        if len(self.standardizer.center) != self.input_dim:
            raise DimensionMismatch("standardizer dimension does not match input_dim")
        if self.binary == ():
            object.__setattr__(self, "binary", (False,) * self.input_dim)
        if len(self.binary) != self.input_dim:
            raise DimensionMismatch("binary mask dimension does not match input_dim")

    def _coord_degrees(self) -> list[int]:
        return [
            min(self.degree, 1) if b else self.degree
            for b in self.binary
        ]

    @property
    def dim(self) -> int:
        d = 1 if self.include_intercept else 0
        d += sum(self._coord_degrees())
        if self.include_interactions and self.degree >= 1:
            d += len(list(combinations(range(self.input_dim), 2)))
        return d


def design_matrix(spec: BasisSpec, points: np.ndarray) -> np.ndarray:
    """Evaluate the basis at each row of points; returns (n, spec.dim)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[1] != spec.input_dim:
        raise DimensionMismatch(
            f"points have {pts.shape[1]} coordinates, spec expects {spec.input_dim}"
        )
    if not np.isfinite(pts).all():
        raise NonFiniteInput("design_matrix: non-finite input point")
    u = spec.standardizer.apply(pts)
    n = u.shape[0]
    degs = spec._coord_degrees()

    cols = []
    if spec.include_intercept:
        cols.append(np.ones(n))
    for j in range(spec.input_dim):
        uj = u[:, j]
        p = uj.copy()
        for _ in range(degs[j]):
            cols.append(p)
            p = p * uj
    if spec.include_interactions and spec.degree >= 1:
        for i, j in combinations(range(spec.input_dim), 2):
            cols.append(u[:, i] * u[:, j])
    return np.column_stack(cols) if cols else np.empty((n, 0))


def column_coordinates(spec: BasisSpec) -> list[tuple[int, ...]]:
    """Input coordinates each basis column depends on, in column order."""
    degs = spec._coord_degrees()
    out: list[tuple[int, ...]] = []
    if spec.include_intercept:
        out.append(())
    for j in range(spec.input_dim):
        out.extend((j,) for _ in range(degs[j]))
    if spec.include_interactions and spec.degree >= 1:
        out.extend(combinations(range(spec.input_dim), 2))
    return out


def spec_for(
    points: np.ndarray,
    degree: int,
    include_interactions: bool = True,
) -> BasisSpec:
    """Fit a standardizer on points and build the matching BasisSpec.

    Binary coordinates are detected from the data so indicator columns
    are never raised above power one.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    return BasisSpec(
        degree=degree,
        input_dim=pts.shape[1],
        standardizer=fit_standardizer(pts),
        include_interactions=include_interactions,
        binary=detect_binary(pts),
    )


@dataclass(frozen=True)
class SieveOptions:
    """Sieve sizes of one estimation run.

    degree and include_interactions size the conditioning and odds bases
    (p, q); mu_degree and mu_interactions size the outcome-chain bases (u).
    """

    degree: int = 3
    include_interactions: bool = True
    mu_degree: int = 2
    mu_interactions: bool = False


@dataclass(frozen=True)
class SpecBundle:
    """All bases one estimation run needs.

    p: conditioning basis over (z, x_obs, a, m_1..m_K, y), every record.
    q: odds-function basis over (x, a, m_1..m_K, y), complete cases.
    u: one basis per k = 1..K+1 over (x, m_1..m_{k-1}), complete cases.
    """

    p: BasisSpec
    q: BasisSpec
    u: tuple[BasisSpec, ...]


def build_spec_bundle(ds: Dataset, sieve: SieveOptions = SieveOptions()) -> SpecBundle:
    """Standardizers are fit on the sample each basis will see.

    The conditioning basis sees every record; the q and u bases involve
    x_miss so their centers and scales come from complete cases.

    The outcome-chain bases (u) default to a coarser sieve than the
    conditioning and odds bases: the backward regression chain is fit by
    reweighted least squares whose plugin bias grows with the basis
    dimension, so richer u bases buy little and cost a visible
    finite-sample bias in the composed estimates.
    """
    cc = complete_cases(ds)
    p = spec_for(ds.conditioning_points(), sieve.degree, sieve.include_interactions)
    q = spec_for(cc.regressor_points(), sieve.degree, sieve.include_interactions)
    u = tuple(
        spec_for(cc.mu_points(k), sieve.mu_degree, sieve.mu_interactions)
        for k in range(1, ds.k + 2)
    )
    return SpecBundle(p=p, q=q, u=u)
