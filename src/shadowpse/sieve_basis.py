"""Finite-dimensional sieve bases shared by every downstream fit.

A power basis over standardized coordinates u = (x - center) / scale,
with one highest power per coordinate: intercept, monomials u_j^e for
e = 1..degrees[j], then the pairwise products u_i * u_j (i < j) of the
coordinates of degree at least one when interactions are on.

spec_for caps binary coordinates at power one, so an indicator's equal
higher powers never enter as collinear columns.

A series fit depends on its basis only through the column span, and
the span of this basis is the same for any center and any scale > 0.
So one spec, fitted on one sample, serves samples that differ only in
their leading (x_miss) coordinates: filled_design evaluates it at a
stack of them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import combinations

import numpy as np

from .data_model import Dataset
from .errors import DimensionMismatch, EmptyResult, NonFiniteInput

# rows per block when a tall array is filled, overwritten or summed over
SPAN_BLOCK_ROWS = 2048

@dataclass(frozen=True)
class Standardizer:
    """Per-coordinate affine map u = (x - center) / scale."""

    center: tuple[float, ...]
    scale: tuple[float, ...]

    def apply(self, points: np.ndarray) -> np.ndarray:
        return (points - np.asarray(self.center)) / np.asarray(self.scale)

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
    """A coordinate is binary when all its observed (finite) values lie in
    {0, 1}."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    flags = (pts == 0.0) | (pts == 1.0) | ~np.isfinite(pts)
    return tuple(flags.all(axis=0).tolist())


@dataclass(frozen=True)
class BasisSpec:
    """Immutable description of one sieve basis.

    degrees[j] is the highest power of input coordinate j; a coordinate
    of degree 0 adds no column and no interaction.
    """

    degrees: tuple[int, ...]
    standardizer: Standardizer
    include_interactions: bool

    def __post_init__(self) -> None:
        if any(d < 0 for d in self.degrees):
            raise DimensionMismatch("degrees must be >= 0")
        if len(self.standardizer.center) != self.input_dim:
            raise DimensionMismatch("standardizer dimension does not match degrees")

    @property
    def input_dim(self) -> int:
        return len(self.degrees)

    def _pairs(self) -> list[tuple[int, int]]:
        """The coordinate pairs of the interaction columns, in column order."""
        if not self.include_interactions:
            return []
        return list(combinations([j for j, d in enumerate(self.degrees) if d >= 1], 2))

    @property
    def dim(self) -> int:
        return 1 + sum(self.degrees) + len(self._pairs())


def row_blocks(n: int) -> list[slice]:
    """Near-equal blocks of at most SPAN_BLOCK_ROWS of n rows, none a lone row."""
    count = max(-(-n // SPAN_BLOCK_ROWS), 1)
    bounds = [n * i // count for i in range(count + 1)]
    return [slice(start, stop) for start, stop in zip(bounds, bounds[1:])]


def design_matrix(spec: BasisSpec, points: np.ndarray) -> np.ndarray:
    """Evaluate the basis at each row of points (n, d) or (b, n, d); returns (..., n, spec.dim).

    The columns are written into one preallocated array in column order,
    one row block at a time so a block stays in cache: the intercept,
    then per coordinate u, then each higher power as the previous power
    times u, then the pair products. The caller owns the array, so a
    span may be built over it in place.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[-1] != spec.input_dim:
        raise DimensionMismatch(
            f"points have {pts.shape[-1]} coordinates, spec expects {spec.input_dim}"
        )
    if not np.isfinite(pts).all():
        raise NonFiniteInput("design_matrix: non-finite input point")

    out = np.empty(pts.shape[:-1] + (spec.dim,))
    for rows in row_blocks(pts.shape[-2]):
        out[..., rows, 0] = 1.0
        _write_columns(out[..., rows, :], spec, spec.standardizer.apply(pts[..., rows, :]),
                       spec.input_dim)
    return out


def _write_columns(out: np.ndarray, spec: BasisSpec, u: np.ndarray, width: int) -> None:
    """Write into the design rows out the columns of spec that involve one
    of its leading width coordinates, whose standardized values u holds:
    their powers, and the pair products with one of them as a factor. A
    pair's factor from a later coordinate is read from that coordinate's
    first-power column of out, which holds the same values as its u."""
    first, col = [], 1
    for j, degree in enumerate(spec.degrees):
        first.append(col)
        if degree and j < width:
            out[..., col] = u[..., j]
            for c in range(col + 1, col + degree):
                np.multiply(out[..., c - 1], u[..., j], out=out[..., c])
        col += degree
    for i, j in spec._pairs():
        if i < width:
            other = u[..., j] if j < width else out[..., first[j]]
            np.multiply(u[..., i], other, out=out[..., col])
        col += 1


def filled_design(spec: BasisSpec, points: np.ndarray, x_miss: np.ndarray) -> np.ndarray:
    """The design of spec at the b samples that equal points (n, d) but
    for their leading w coordinates, taken from x_miss (b, n, w);
    returns (b, n, spec.dim).

    design_matrix of spec at points is written into every slice once.
    Then only the columns that involve a filled coordinate, its powers
    and the pair products it enters, are written again from each
    slice's fills. Every entry is the product of the same factors as in
    design_matrix, so slice i equals design_matrix(spec, its points)
    bit for bit.
    """
    fills = np.asarray(x_miss, dtype=float)
    width = fills.shape[-1]
    if fills.ndim != 3 or fills.shape[1] != len(points) or width > spec.input_dim:
        raise DimensionMismatch(f"fills of shape {fills.shape} do not lead points of shape "
                                f"{np.shape(points)}")
    if not np.isfinite(fills).all():
        raise NonFiniteInput("filled_design: non-finite fill")
    template = design_matrix(spec, points)
    out = np.empty(fills.shape[:1] + template.shape)
    out[...] = template
    lead = _leading(spec, width).standardizer
    for rows in row_blocks(len(points)):
        _write_columns(out[..., rows, :], spec, lead.apply(fills[..., rows, :]), width)
    return out


def spec_for(
    points: np.ndarray,
    degree: int,
    include_interactions: bool,
) -> BasisSpec:
    """Fit a standardizer on points and build the matching BasisSpec.

    Every coordinate gets degree, except that binary coordinates, detected
    from the data, are capped at power one.
    """
    return BasisSpec(
        degrees=tuple(min(degree, 1) if b else degree for b in detect_binary(points)),
        standardizer=fit_standardizer(points),
        include_interactions=include_interactions,
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


class _SampleSpecBundle(SpecBundle):
    """The bundle build_spec_bundle fits on one sample: u at once, p and
    q on first read, so a run that reads neither never fits them."""

    def __init__(self, ds: Dataset, sieve: SieveOptions, u: tuple[BasisSpec, ...]):
        object.__setattr__(self, "u", u)
        self._ds, self._sieve = ds, sieve

    @cached_property
    def p(self) -> BasisSpec:
        sieve = self._sieve
        return spec_for(self._ds.conditioning_points(), sieve.degree, sieve.include_interactions)

    @cached_property
    def q(self) -> BasisSpec:
        sieve = self._sieve
        return spec_for(self._ds.regressor_points(), sieve.degree, sieve.include_interactions)


def _leading(spec: BasisSpec, dim: int) -> BasisSpec:
    """spec restricted to its first dim input coordinates."""
    std = spec.standardizer
    return replace(spec, degrees=spec.degrees[:dim],
                   standardizer=Standardizer(center=std.center[:dim], scale=std.scale[:dim]))


def nested_columns(top: BasisSpec, spec: BasisSpec) -> np.ndarray:
    """The indices of spec's design columns among top's, for spec equal
    to top restricted to its leading coordinates: such a design is an
    exact column subset of top's on the same points. The intercept and
    powers come first, so without interactions the indices are a prefix."""
    if _leading(top, spec.input_dim) != spec:
        raise DimensionMismatch("spec is not top restricted to its leading coordinates")
    pairs = [1 + sum(top.degrees) + top._pairs().index(p) for p in spec._pairs()]
    return np.array([*range(1 + sum(spec.degrees)), *pairs])


def build_spec_bundle(ds: Dataset, sieve: SieveOptions = SieveOptions()) -> SpecBundle:
    """Standardizers are fit on the sample each basis will see.

    The conditioning basis sees every record; the q and u bases involve
    x_miss so their centers and scales come from complete cases. The
    conditioning and odds bases are fitted when first read: the zero-odds
    runs of oracle, cca and mi never read them. The outcome-chain points
    of level k are the leading columns of those of level K+1, so one fit
    on the level K+1 points gives every u_k its centers, scales and
    degrees, and each u_k design is a column subset of u_{K+1}'s
    (nested_columns).

    The outcome-chain bases (u) default to a coarser sieve than the
    conditioning and odds bases: the backward regression chain is fit by
    reweighted least squares whose plugin bias grows with the basis
    dimension, so richer u bases buy little and cost a visible
    finite-sample bias in the composed estimates.
    """
    if not ds.complete_mask.any():
        raise EmptyResult("no complete cases")
    # the point matrices hold the complete-case rows
    points = ds.mu_points(ds.k + 1)
    chain = spec_for(points, sieve.mu_degree, sieve.mu_interactions)
    u = tuple(_leading(chain, ds.dims.x + sum(ds.dims.m[:k - 1])) for k in range(1, ds.k + 2))
    return _SampleSpecBundle(ds, sieve, u)
