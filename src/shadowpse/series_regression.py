"""Weighted series least squares and linear projection utilities.

fit_series solves the weighted normal equations on a prebuilt design
through an orthogonal decomposition of the weighted design; if that is
numerically singular a ridge eps * I is added to the Gram matrix,
escalating tenfold from 1e-10, and anything past 1e-2 raises
UnsolvableSystem.

orthonormal_span returns an orthonormal basis of a design's column
space; projections built from it are exactly idempotent and invariant
to invertible reparameterisations of the columns, which the odds-
function criterion and the influence-function pieces rely on.

SampleDesigns is where the sample designs of one pipeline run are
built: the conditioning span, the odds design, each outcome-chain
design and its span, the odds values and the representer's factored
normal equations. Each is built on first use and at most once, then
read by every stage and every profile. It also holds the run's nuisance
fits under the current odds, so profiles that share a fit make it once.
"""

from __future__ import annotations

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
    return RidgeSystem(
        design=design, gram=gram, start=ridge * max(scale, 1.0),
        rank=int(np.linalg.matrix_rank(design)),
    )


def _check_inputs(
    inputs: np.ndarray, responses: np.ndarray, weights: Optional[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    pts = np.asarray(inputs, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    v = np.asarray(responses, dtype=float)
    if v.ndim != 1:
        raise LengthMismatch("responses must be 1-d")
    if len(v) != pts.shape[0]:
        raise LengthMismatch(f"{pts.shape[0]} input rows but {len(v)} responses")
    if weights is None:
        w = np.ones(len(v))
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != v.shape:
            raise LengthMismatch("weights misaligned with responses")
    if not np.isfinite(pts).all() or not np.isfinite(v).all() or not np.isfinite(w).all():
        raise NonFiniteInput("fit_series: non-finite input")
    if (w < 0).any():
        raise NonFiniteInput("fit_series: negative weight")
    return pts, v, w


def fit_series(
    spec: BasisSpec,
    basis: np.ndarray,
    responses: np.ndarray,
    weights: Optional[np.ndarray] = None,
    ridge: Optional[float] = None,
) -> SeriesRegressor:
    """Weighted least squares of responses on basis, a design of spec.

    Zero-weight rows are dropped before the solve. Passing ridge forces
    the penalised path with that starting eps; the default attempts an
    exact solve first.
    """
    basis, v, w = _check_inputs(basis, responses, weights)
    if basis.shape[1] != spec.dim:
        raise DimensionMismatch(f"design has {basis.shape[1]} columns, spec has {spec.dim}")
    if w.sum() <= 0.0:
        raise AllZeroWeights("fit_series: all weights are zero")
    keep = w > 0.0
    basis, v, w = basis[keep], v[keep], w[keep]

    sw = np.sqrt(w)
    bw = basis * sw[:, None]
    vw = v * sw
    dim = spec.dim

    # economy SVD gives rank and a stable exact solve in one pass
    u_mat, s, vt = np.linalg.svd(bw, full_matrices=False)
    smax = s[0] if len(s) else 0.0
    rank = int((s > smax * SINGULAR_RTOL).sum()) if smax > 0 else 0

    if ridge is None and rank == dim:
        coef = vt.T @ ((u_mat.T @ vw) / s)
        eps = 0.0
    else:
        gram = bw.T @ bw
        rhs = bw.T @ vw
        coef, eps = ridge_solve(gram, rhs, start=ridge if ridge is not None else RIDGE_START)
    diag = FitDiagnostics(n_used=len(v), dim=dim, rank=rank, gram_diag_ridge=eps)
    return SeriesRegressor(spec=spec, coef=coef, diagnostics=diag)


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


def orthonormal_span(matrix: np.ndarray, rtol: float = 1e-12) -> np.ndarray:
    """Orthonormal basis of the column span, rank-truncated by SVD."""
    m = np.asarray(matrix, dtype=float)
    if m.size == 0:
        return np.zeros((m.shape[0], 0))
    u_mat, s, _ = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((m.shape[0], 0))
    rank = int((s > s[0] * rtol).sum())
    return u_mat[:, :rank]


def project_onto(span: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Orthogonal projection of values onto the span (hat-matrix action)."""
    if span.shape[1] == 0:
        return np.zeros_like(values, dtype=float)
    return span @ (span.T @ values)


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
