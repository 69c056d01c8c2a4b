"""Weighted series least squares and linear projection utilities.

fit_series solves the weighted normal equations on a prebuilt design
through an orthogonal decomposition of the weighted design; if that is
numerically singular a ridge eps * I is added to the Gram matrix,
escalating tenfold from 1e-10, and anything past 1e-2 raises
UnsolvableSystem. It is factor_series, which takes the SVD of the
weighted design, then solve_series, which solves one response against
it, so fits that share a design and weights factor it once.

orthonormal_span returns an orthonormal basis of a design's column
space from two passes over its Gram matrix (CholeskyQR2); projections
built from it are exactly idempotent and invariant to invertible
reparameterisations of the columns, which the odds-function criterion
and the influence-function pieces rely on.
span_least_squares solves unweighted least squares on a design through
that span, so a design whose span is built needs no second large
factorisation. A LAPACK failure in any of these raises UnsolvableSystem.

SampleDesigns is where the sample designs of one pipeline run are
built: the conditioning span, the odds design, each outcome-chain
design, its span and the least squares through that span, the odds
values and the representer's factored normal equations. Each is built
on first use and at most once, then read by every stage and every
profile. It also holds the run's nuisance fits under the current odds,
so profiles that share a fit make it once, and each weighted outcome-
chain design is factored once per (level k, arm a_k).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Type

import numpy as np
import scipy.linalg

from .data_model import Dataset
from .errors import (
    AllZeroWeights,
    DimensionMismatch,
    LengthMismatch,
    NonFiniteInput,
    UnsolvableSystem,
)
from .sieve_basis import BasisSpec, SpecBundle, design_matrix

RIDGE_START = 1e-10
RIDGE_CAP = 1e-2
# design singular values below s_max * this are treated as zero
SINGULAR_RTOL = 1e-10
# Gram eigenvalues at or below the largest times this are treated as zero
# by orthonormal_span: a singular-value ratio of about 3e-7
SPAN_EIG_RTOL = 1e-13


@contextmanager
def lapack_errors(what: str):
    """Re-raise a LAPACK failure inside the block as UnsolvableSystem."""
    try:
        yield
    except np.linalg.LinAlgError as exc:
        raise UnsolvableSystem(f"{what}: {exc}") from exc


@dataclass
class FitDiagnostics:
    n_used: int
    dim: int
    rank: int
    gram_diag_ridge: float  # 0.0 when the plain solve succeeded


@dataclass
class SeriesRegressor:
    spec: BasisSpec
    coef: np.ndarray
    diagnostics: FitDiagnostics


def ridge_solve(
    gram: np.ndarray,
    rhs: np.ndarray,
    error: Type[Exception] = UnsolvableSystem,
    start: float = RIDGE_START,
    cap: float = RIDGE_CAP,
    factors: Optional[dict] = None,
) -> tuple[np.ndarray, float]:
    """Solve (gram + eps I) x = rhs, escalating eps tenfold until it works.

    factors, when given, keeps the Cholesky factor of gram + eps I under
    eps, so repeated solves against one gram factor each eps once.
    """
    eps = start
    dim = gram.shape[0]
    cap = max(cap, start)
    if factors is None:
        factors = {}
    while eps <= cap * (1 + 1e-12):
        try:
            if eps not in factors:
                factors[eps] = scipy.linalg.cho_factor(gram + eps * np.eye(dim), lower=True)
            x = scipy.linalg.cho_solve(factors[eps], rhs)
        except (scipy.linalg.LinAlgError, ValueError):
            eps *= 10.0
            continue
        if np.isfinite(x).all():
            return x, eps
        eps *= 10.0
    raise error(f"system stayed singular up to ridge {cap}")


@dataclass
class RidgeSystem:
    """The ridged normal equations of one design, for many right-hand sides.

    gram is design' design and start the first ridge eps, the given
    ridge times the mean Gram eigenvalue (at least one); rank is the
    design's numerical rank. solve() escalates eps as ridge_solve does
    and factors each eps once over every solve.
    """

    design: np.ndarray
    gram: np.ndarray
    start: float
    rank: int
    factors: dict = field(default_factory=dict)

    def solve(self, rhs: np.ndarray, error: Type[Exception]) -> tuple[np.ndarray, float]:
        return ridge_solve(self.gram, rhs, error=error, start=self.start, factors=self.factors)


def ridge_system(design: np.ndarray, ridge: float) -> RidgeSystem:
    """The RidgeSystem of design with Tikhonov ridge scaled by its Gram."""
    gram = design.T @ design
    scale = float(np.trace(gram)) / max(gram.shape[0], 1)
    with lapack_errors("rank of a ridged design"):
        rank = int(np.linalg.matrix_rank(design))
    return RidgeSystem(design=design, gram=gram, start=ridge * max(scale, 1.0), rank=rank)


def _check_responses(n: int, responses: np.ndarray) -> np.ndarray:
    v = np.asarray(responses, dtype=float)
    if v.ndim != 1:
        raise LengthMismatch("responses must be 1-d")
    if len(v) != n:
        raise LengthMismatch(f"{n} input rows but {len(v)} responses")
    if not np.isfinite(v).all():
        raise NonFiniteInput("fit_series: non-finite input")
    return v


def _check_design(
    inputs: np.ndarray, weights: Optional[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    pts = np.asarray(inputs, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if weights is None:
        w = np.ones(pts.shape[0])
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (pts.shape[0],):
            raise LengthMismatch("weights misaligned with the design rows")
    if not np.isfinite(pts).all() or not np.isfinite(w).all():
        raise NonFiniteInput("fit_series: non-finite input")
    if (w < 0).any():
        raise NonFiniteInput("fit_series: negative weight")
    return pts, w


def _check_inputs(
    inputs: np.ndarray, responses: np.ndarray, weights: Optional[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    pts, w = _check_design(inputs, weights)
    return pts, _check_responses(pts.shape[0], responses), w


@dataclass
class WeightedDesign:
    """The economy SVD u diag(s) vt of sqrt(w) * basis over the rows
    with w > 0, with the numerical rank, ready for any number of
    responses on the same rows and weights."""

    spec: BasisSpec
    basis: np.ndarray
    keep: np.ndarray
    sw: np.ndarray
    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray
    rank: int


def factor_series(
    spec: BasisSpec, basis: np.ndarray, weights: Optional[np.ndarray] = None
) -> WeightedDesign:
    """Factor the weighted design of a fit of basis, a design of spec.

    Zero-weight rows are dropped before the factorisation."""
    basis, w = _check_design(basis, weights)
    if basis.shape[1] != spec.dim:
        raise DimensionMismatch(f"design has {basis.shape[1]} columns, spec has {spec.dim}")
    if w.sum() <= 0.0:
        raise AllZeroWeights("fit_series: all weights are zero")
    keep = w > 0.0
    sw = np.sqrt(w[keep])
    # economy SVD gives rank and a stable exact solve in one pass
    with lapack_errors("weighted series design"):
        u_mat, s, vt = np.linalg.svd(basis[keep] * sw[:, None], full_matrices=False)
    smax = s[0] if len(s) else 0.0
    rank = int((s > smax * SINGULAR_RTOL).sum()) if smax > 0 else 0
    return WeightedDesign(spec=spec, basis=basis, keep=keep, sw=sw, u=u_mat, s=s, vt=vt,
                          rank=rank)


def solve_series(
    design: WeightedDesign, responses: np.ndarray, ridge: Optional[float] = None
) -> SeriesRegressor:
    """Weighted least squares of responses on a factored design.

    Passing ridge forces the penalised path with that starting eps; the
    default solves exactly when the design has full column rank.
    """
    v = _check_responses(len(design.keep), responses)[design.keep]
    vw = v * design.sw
    dim = design.spec.dim
    if ridge is None and design.rank == dim:
        coef = design.vt.T @ ((design.u.T @ vw) / design.s)
        eps = 0.0
    else:
        bw = design.basis[design.keep] * design.sw[:, None]
        coef, eps = ridge_solve(bw.T @ bw, bw.T @ vw,
                                start=ridge if ridge is not None else RIDGE_START)
    diag = FitDiagnostics(n_used=len(v), dim=dim, rank=design.rank, gram_diag_ridge=eps)
    return SeriesRegressor(spec=design.spec, coef=coef, diagnostics=diag)


def fit_series(
    spec: BasisSpec,
    basis: np.ndarray,
    responses: np.ndarray,
    weights: Optional[np.ndarray] = None,
    ridge: Optional[float] = None,
) -> SeriesRegressor:
    """Weighted least squares of responses on basis, a design of spec:
    factor_series, then solve_series.

    Zero-weight rows are dropped before the solve. Passing ridge forces
    the penalised path with that starting eps; the default attempts an
    exact solve first.
    """
    return solve_series(factor_series(spec, basis, weights), responses, ridge)


def predict_many(reg: SeriesRegressor, points: np.ndarray) -> np.ndarray:
    return design_matrix(reg.spec, points) @ reg.coef


def project_residual_orthogonality(
    reg: SeriesRegressor,
    inputs: np.ndarray,
    responses: np.ndarray,
    weights: Optional[np.ndarray] = None,
) -> float:
    """max_j |(1/n) sum_i w_i (v_i - fit_i) basis_ij| over the fit sample.

    Zero for an unridged solve up to floating point; ridged solves are
    allowed to drift by the penalty times the coefficient size.
    """
    pts, v, w = _check_inputs(inputs, responses, weights)
    basis = design_matrix(reg.spec, pts)
    resid = (v - basis @ reg.coef) * w
    return float(np.max(np.abs(basis.T @ resid)) / max(len(v), 1))


def _gram_pass(m: np.ndarray) -> np.ndarray:
    """m V diag(w)^(-1/2) over the eigenpairs (w, V) of m' m whose
    eigenvalue lies above SPAN_EIG_RTOL times the largest."""
    gram = m.T @ m
    if not np.isfinite(gram).all():
        raise UnsolvableSystem("orthonormal span: non-finite design")
    with lapack_errors("orthonormal span"):
        w, v = np.linalg.eigh(gram)
    keep = w > max(w[-1], 0.0) * SPAN_EIG_RTOL
    return m @ (v[:, keep] / np.sqrt(w[keep]))


def orthonormal_span(matrix: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span, from two Gram passes.

    CholeskyQR2 in eigenvector form: the first pass maps the matrix
    through the eigenvectors of its Gram matrix, scaled by the inverse
    root eigenvalues, and drops the directions whose eigenvalue is at
    most SPAN_EIG_RTOL times the largest; the second pass repeats it on
    that result, which restores orthonormality to rounding level for a
    well-conditioned matrix. The rank is the number of columns kept.
    """
    m = np.asarray(matrix, dtype=float)
    if m.size == 0:
        return np.zeros((m.shape[0], 0))
    first = _gram_pass(m)
    if first.shape[1] == 0:
        return first
    return _gram_pass(first)


def project_onto(span: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Orthogonal projection of values onto the span (hat-matrix action)."""
    if span.shape[1] == 0:
        return np.zeros_like(values, dtype=float)
    return span @ (span.T @ values)


@dataclass
class SpanLeastSquares:
    """Minimum-norm least squares on a design through an orthonormal
    basis `span` of its column space.

    The design is span @ reduced, with reduced = span' design small, so
    min ||design c - v|| is solved by c = pinv(reduced) @ (span' v); the
    pseudo-inverse drops singular values at or below np.linalg.lstsq's
    default cutoff eps * max(design rows, columns) * s_max, and rank
    counts the rest, as lstsq's rank does.
    """

    span: np.ndarray
    pinv: np.ndarray
    rank: int

    def solve(self, values: np.ndarray) -> np.ndarray:
        return self.pinv @ (self.span.T @ values)


def span_least_squares(span: np.ndarray, design: np.ndarray) -> SpanLeastSquares:
    """The SpanLeastSquares of design, given an orthonormal basis of its span."""
    reduced = span.T @ design
    with lapack_errors("reduced least-squares design"):
        u_mat, s, vt = np.linalg.svd(reduced, full_matrices=False)
    cutoff = np.finfo(float).eps * max(design.shape) * (s[0] if s.size else 0.0)
    rank = int((s > cutoff).sum())
    pinv = (vt[:rank].T / s[:rank]) @ u_mat[:, :rank].T
    return SpanLeastSquares(span=span, pinv=_frozen(pinv), rank=rank)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class SampleDesigns:
    """The designs of one (dataset, bundle) pair, each built at most once.

    One pipeline run builds one of these and hands it to every stage in
    place of the basis specs. Each design is built on first use, so a
    run that fits no odds and no representer never factors the
    conditioning design. The arrays are read-only, since every profile
    of the run reads the same ones. Rows are complete cases except for
    the conditioning span, which covers every record.

    fits(odds) is the memo of the nuisance fits made under one vector
    of odds values, shared by every profile of the run. A profile
    (a_1..a_{K+1}) reads mu_k under ("mu", k, (a_k..a_{K+1})), the
    non-identity omega_k under ("omega", k, (a_{k-1}, a_k)), with
    ("omega", 1, (a_1,)) for omega_1, and the cumulative omega product
    up to level k under ("cumulative", floor, k, (a_1..a_k)), so the
    four default profiles of a K = 2 run make 9 mu, 4 omega and 9
    cumulative fits where fitting each profile alone makes 12, 6 and 12.
    Every mu_k fit on arm a_k solves against the factor of the weighted
    design of u(k), held under ("factor", k, a_k): 6 factorisations for
    those 9 fits. The mu and cumulative entries keep the fitted values on
    the complete cases with the fit, so no profile computes them again.

    u_lstsq(k) solves the cumulative fits through u_span(k), reusing the
    span in place of a fresh least-squares factorisation of u(k).

    representer_system(ridge) holds the representer's ridged normal
    equations, which depend on the designs alone: one Gram matrix, rank
    and Cholesky factor per run, solved against each profile's
    right-hand side.
    """

    def __init__(self, ds: Dataset, bundle: SpecBundle):
        self.ds = ds
        self.bundle = bundle
        self._u: dict[int, np.ndarray] = {}
        self._u_span: dict[int, np.ndarray] = {}
        self._u_lstsq: dict[int, SpanLeastSquares] = {}
        self._odds_model = None
        self._odds: Optional[np.ndarray] = None
        self._fits_odds: Optional[np.ndarray] = None
        self._fits: dict = {}
        self._representer: dict[float, RidgeSystem] = {}

    def check(self, ds: Dataset) -> None:
        """Raise unless these designs were built from ds."""
        if ds is not self.ds:
            raise DimensionMismatch("designs were built for another dataset")

    @cached_property
    def p_span(self) -> np.ndarray:
        """Orthonormal basis of the conditioning design's column span."""
        pmat = design_matrix(self.bundle.p, self.ds.conditioning_points())
        return _frozen(orthonormal_span(pmat))

    @cached_property
    def p_span_cc(self) -> np.ndarray:
        """The complete-case rows of p_span."""
        return _frozen(self.p_span[self.ds.complete_mask])

    @cached_property
    def q(self) -> np.ndarray:
        """The odds design."""
        return _frozen(design_matrix(self.bundle.q, self.ds.regressor_points()))

    def u(self, k: int) -> np.ndarray:
        """The design of the k-th outcome-chain basis, k = 1..K+1."""
        if k not in self._u:
            self._u[k] = _frozen(design_matrix(self.bundle.u[k - 1], self.ds.mu_points(k)))
        return self._u[k]

    def u_span(self, k: int) -> np.ndarray:
        """Orthonormal basis of the column span of u(k)."""
        if k not in self._u_span:
            self._u_span[k] = _frozen(orthonormal_span(self.u(k)))
        return self._u_span[k]

    def u_lstsq(self, k: int) -> SpanLeastSquares:
        """Least squares on u(k) through u_span(k), which already spans
        u(k): one small pseudo-inverse per run, then each fit is two thin
        products."""
        if k not in self._u_lstsq:
            self._u_lstsq[k] = span_least_squares(self.u_span(k), self.u(k))
        return self._u_lstsq[k]

    def odds_values(self, model) -> np.ndarray:
        """model.values(self), evaluated once for the last model asked for."""
        if model is not self._odds_model:
            self._odds = _frozen(model.values(self))
            self._odds_model = model
        return self._odds

    def representer_system(self, ridge: float) -> RidgeSystem:
        """The representer's normal equations under ridge, built once.

        Its design is the projected odds design p_span_cc' q, which no
        odds values or profile enter, so every profile of the run solves
        against the same Gram matrix, ridge start, rank and Cholesky
        factor and pays only for its right-hand side.
        """
        if ridge not in self._representer:
            self._representer[ridge] = ridge_system(_frozen(self.p_span_cc.T @ self.q), ridge)
        return self._representer[ridge]

    def fits(self, odds: np.ndarray) -> dict:
        """The memo of nuisance fits made under the odds values `odds`.

        A call with other odds values than the last starts an empty
        memo, so no fit is read under odds it was not made with.
        """
        same = odds is self._fits_odds or (
            self._fits_odds is not None
            and np.array_equal(odds, self._fits_odds, equal_nan=True)
        )
        if not same:
            self._fits = {}
            self._fits_odds = odds if not odds.flags.writeable else _frozen(odds.copy())
        return self._fits
