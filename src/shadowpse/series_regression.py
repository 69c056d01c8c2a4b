"""Series least squares through orthonormal spans, and projections.

orthonormal_span returns an orthonormal basis of a design's column
space from two passes over its Gram matrix (CholeskyQR2); projections
built from it are exactly idempotent and invariant to invertible
reparameterisations of the columns, which the odds-function criterion
and the influence-function pieces rely on. Both passes overwrite one
buffer in row blocks: a copy of the argument, or for the conditioning
span of SampleDesigns the design matrix itself.
span_least_squares solves weighted least squares on a design through
that span: the normal equations reduce to a system with one row per
span column, so a design whose span is built needs no second large
factorisation, and each right-hand side costs two thin products.
RidgeSystem holds ridged normal equations (gram + eps I) x = rhs with
one Cholesky factor, made once and read by every right-hand side. A
LAPACK failure in any of these raises UnsolvableSystem.

SampleDesigns builds the sample designs of one pipeline run, each at
most once and in one row order with the complete cases first. RunFits
binds them to the run's odds values, once, and holds the nuisance fits
made under those odds.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.linalg

from .data_model import Dataset
from .errors import (
    DimensionMismatch,
    EmptyArm,
    LengthMismatch,
    NonFiniteInput,
    UnsolvableSystem,
)
from .sieve_basis import BasisSpec, SpecBundle, design_matrix, row_blocks

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
    gram_diag_ridge: float  # 0.0 for a solve with no ridge


@dataclass
class SeriesRegressor:
    spec: BasisSpec
    coef: np.ndarray
    diagnostics: FitDiagnostics


@dataclass
class RidgeSystem:
    """The ridged normal equations of one design, for many right-hand sides.

    gram is design' design and eps the Tikhonov ridge, the given ridge
    times the mean Gram eigenvalue (at least one); rank is the design's
    numerical rank and factor the Cholesky factor of gram + eps I.
    """

    design: np.ndarray
    gram: np.ndarray
    eps: float
    rank: int
    factor: tuple

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """x with (gram + eps I) x = rhs; raises if x is not finite, as for a non-finite rhs."""
        with lapack_errors("ridged solve"):
            x = scipy.linalg.cho_solve(self.factor, rhs, check_finite=False)
        if not np.isfinite(x).all():
            raise UnsolvableSystem(f"ridged solve at eps {self.eps}: non-finite solution")
        return x


def ridge_system(design: np.ndarray, ridge: float) -> RidgeSystem:
    """The RidgeSystem of design with Tikhonov ridge scaled by its Gram."""
    gram = design.T @ design
    if not np.isfinite(gram).all():
        raise UnsolvableSystem("ridged system: non-finite design")
    eps = ridge * max(float(np.trace(gram)) / max(gram.shape[0], 1), 1.0)
    with lapack_errors(f"ridged system at eps {eps}"):
        rank = int(np.linalg.matrix_rank(design))
        factor = scipy.linalg.cho_factor(gram + eps * np.eye(gram.shape[0]), lower=True)
    return RidgeSystem(design=design, gram=gram, eps=eps, rank=rank, factor=factor)


def representer_ridge(n: int) -> float:
    """The representer's relative ridge at sample size n: 1e-2 up to
    n = 1000, then 1e-2 (1000 / n)^2 (the inference module says why)."""
    return 1e-2 * min(1.0, (1000 / n) ** 2)


def predict_many(reg: SeriesRegressor, points: np.ndarray) -> np.ndarray:
    return design_matrix(reg.spec, points) @ reg.coef


def project_residual_orthogonality(
    reg: SeriesRegressor,
    inputs: np.ndarray,
    responses: np.ndarray,
    weights: Optional[np.ndarray] = None,
) -> float:
    """max_j |(1/n) sum_i w_i (v_i - fit_i) basis_ij| over the fit sample.

    Zero up to floating point for a weighted least squares fit, as every
    mu and omega fit is: no series regression is ridged any more.
    """
    basis = design_matrix(reg.spec, inputs)
    v = np.asarray(responses, dtype=float)
    w = np.ones(len(basis)) if weights is None else np.asarray(weights, dtype=float)
    if v.shape != (len(basis),) or w.shape != (len(basis),):
        raise LengthMismatch("responses and weights must align with the input rows")
    if not (np.isfinite(v).all() and np.isfinite(w).all()):
        raise NonFiniteInput("project_residual_orthogonality: non-finite input")
    resid = (v - basis @ reg.coef) * w
    return float(np.max(np.abs(basis.T @ resid)) / max(len(v), 1))


def _gram_map(m: np.ndarray) -> np.ndarray:
    """V diag(w)^(-1/2) over the eigenpairs (w, V) of m' m whose
    eigenvalue lies above SPAN_EIG_RTOL times the largest."""
    gram = m.T @ m
    if not np.isfinite(gram).all():
        raise UnsolvableSystem("orthonormal span: non-finite design")
    with lapack_errors("orthonormal span"):
        w, v = np.linalg.eigh(gram)
    keep = w > max(w[-1], 0.0) * SPAN_EIG_RTOL
    return v[:, keep] / np.sqrt(w[keep])


def _span_in_place(m: np.ndarray) -> np.ndarray:
    """orthonormal_span(m), written over m itself.

    Each pass overwrites m in row blocks, m[rows] = m[rows] @ T, so the
    matrix, the first pass and the span never coexist; each row is the
    same sum as in m @ T. A pass that drops columns moves the kept ones
    to a fresh array, laid out as m @ T would be.
    """
    if m.size == 0:
        return np.zeros((m.shape[0], 0))
    blocks = row_blocks(len(m))
    for _ in range(2):
        t = _gram_map(m)
        k = t.shape[1]
        for rows in blocks:
            m[rows, :k] = m[rows] @ t
        if k < m.shape[1]:
            m = np.ascontiguousarray(m[:, :k])
        if k == 0:
            break
    return m


def orthonormal_span(matrix: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span, from two Gram passes.

    CholeskyQR2 in eigenvector form: the first pass maps the matrix
    through the eigenvectors of its Gram matrix, scaled by the inverse
    root eigenvalues, and drops the directions whose eigenvalue is at
    most SPAN_EIG_RTOL times the largest; the second pass repeats it on
    that result, which restores orthonormality to rounding level for a
    well-conditioned matrix. The rank is the number of columns kept.
    Both passes run on one copy of matrix, which is left as it was.
    """
    return _span_in_place(np.array(matrix, dtype=float))


@dataclass
class SpanLeastSquares:
    """Weighted minimum-norm least squares on a design through an
    orthonormal basis `span` of its column space.

    The design is span @ R with R = span' design of full row rank, so
    the normal equations design' W (design c - v) = 0 hold exactly when
    span' W (design c - v) = 0, with W = diag(weights) (the identity
    when weights is None). That system's matrix, reduced = span' W
    design, has one row per span column; c = pinv(reduced) @ span' W v
    is the minimum-norm solution. The pseudo-inverse drops singular
    values at or below np.linalg.lstsq's default cutoff
    eps * max(design rows, columns) * s_max, and rank counts the rest,
    as lstsq's rank does.
    """

    span: np.ndarray
    weights: Optional[np.ndarray]
    reduced: np.ndarray
    pinv: np.ndarray
    rank: int

    def solve(self, values: np.ndarray) -> np.ndarray:
        weighted = values if self.weights is None else self.weights * values
        return self.pinv @ (self.span.T @ weighted)

    def regressor(self, spec: BasisSpec, coef: np.ndarray) -> SeriesRegressor:
        """The fit with coefficients coef, over the rows of positive weight."""
        n_used = len(self.span) if self.weights is None else int(np.count_nonzero(self.weights))
        diag = FitDiagnostics(n_used=n_used, dim=spec.dim, rank=self.rank, gram_diag_ridge=0.0)
        return SeriesRegressor(spec=spec, coef=coef, diagnostics=diag)


def span_least_squares(
    span: np.ndarray, design: np.ndarray, weights: Optional[np.ndarray] = None
) -> SpanLeastSquares:
    """The SpanLeastSquares of design, given an orthonormal basis of its
    span and nonnegative row weights (None for unit weights)."""
    weighted_span = span.T if weights is None else span.T * weights
    reduced = weighted_span @ design
    with lapack_errors("reduced least-squares design"):
        u_mat, s, vt = np.linalg.svd(reduced, full_matrices=False)
    cutoff = np.finfo(float).eps * max(design.shape) * (s[0] if s.size else 0.0)
    rank = int((s > cutoff).sum())
    pinv = (vt[:rank].T / s[:rank]) @ u_mat[:, :rank].T
    return SpanLeastSquares(span=span, weights=weights, reduced=_frozen(reduced),
                            pinv=_frozen(pinv), rank=rank)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class SampleDesigns:
    """The designs of one (dataset, bundle) pair, each built at most once.

    One pipeline run builds one of these and hands it, inside its
    RunFits, to every stage in place of the dataset and the basis specs.
    Each design is built on first use, so a run that fits no odds and no
    representer never factors the conditioning design; the arrays are
    read-only, since every profile of the run reads them. Nothing here
    depends on the odds.

    Rows come in one stable order, complete cases first: the odds and
    outcome-chain designs hold the complete cases in dataset order, and
    the conditioning span (31 MB at n = 1e5, built over its design's
    buffer) every record, those first. So p_span_cc is a leading view of
    p_span, and y_cc and a_cc are gathered here once. Every per-record
    vector of a run keeps this order: the odds values and phi hold the
    complete cases, and the influence values the complete cases first.
    With no incomplete record the order is the identity, and nothing is
    gathered.

    u_lstsq(k) is the unweighted least squares on u(k) that the
    cumulative omega fits solve against; the weighted ones are the run's
    (RunFits.arm_lstsq). No fit factors a matrix with a row per complete
    case.

    representer_system holds the representer's normal equations under
    the ridge representer_ridge(n) that the sample size sets, factored
    once per run and solved against each profile's right-hand side.
    """

    def __init__(self, ds: Dataset, bundle: SpecBundle):
        self.ds = ds
        self.bundle = bundle
        self.n_cc = int(np.count_nonzero(ds.complete_mask))
        # the records in row order, or None for the identity order
        self._order = None if self.n_cc == ds.n else np.argsort(~ds.complete_mask, kind="stable")
        self.y_cc, self.a_cc = self._complete(ds.y), self._complete(ds.a)
        self._u: dict[int, np.ndarray] = {}
        self._u_span: dict[int, np.ndarray] = {}
        self._u_lstsq: dict[int, SpanLeastSquares] = {}

    def _complete(self, values: np.ndarray) -> np.ndarray:
        """The complete-case entries of a per-record vector, read-only."""
        return _frozen(values.view() if self._order is None else values[self._order[:self.n_cc]])

    @cached_property
    def p_span(self) -> np.ndarray:
        """Orthonormal basis of the conditioning design's column span, in
        row order, built over the design's own buffer."""
        points = self.ds.conditioning_points()
        points = points if self._order is None else points[self._order]
        return _frozen(_span_in_place(design_matrix(self.bundle.p, points)))

    @property
    def p_span_cc(self) -> np.ndarray:
        """The complete-case rows of p_span: its leading block, a view."""
        return self.p_span[:self.n_cc]

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

    @cached_property
    def representer_system(self) -> RidgeSystem:
        """The representer's normal equations under representer_ridge(n).

        Its design, the projected odds design p_span_cc' q, involves no
        odds values or profile, so every profile of the run solves
        against one Gram matrix, ridge eps, rank and Cholesky factor.
        """
        return ridge_system(_frozen(self.p_span_cc.T @ self.q), representer_ridge(self.ds.n))


class RunFits:
    """One pipeline run: its designs, its odds values and the nuisance
    fits made under them.

    The run works out its odds values once, one per complete case in
    the designs' row order, and binds them here: the vector is frozen,
    so every fit in memo was made under it. Every stage that reads the
    odds takes this object.

    memo is shared by every profile of the run. A profile
    (a_1..a_{K+1}) reads mu_k under ("mu", k, (a_k..a_{K+1})), the
    non-identity omega_k under ("omega", k, (a_{k-1}, a_k)), with
    ("omega", 1, (a_1,)) for omega_1, and the cumulative omega product
    up to level k under ("cumulative", k, (a_1..a_k)), so the four
    default profiles of a K = 2 run make 9 mu, 4 omega and 9 cumulative
    fits where fitting each profile alone makes 12, 6 and 12. The mu and
    cumulative entries keep the fitted values on the complete cases with
    the fit, so no profile computes them again.

    arm_lstsq(k, a_k) is the weighted least squares on u(k) with weights
    1{A = a_k} (1 + odds), solved through u_span(k) and held in memo
    under ("system", k, a_k). Every mu_k and omega_k fit on arm a_k
    solves against it: 6 systems for the 9 mu and 4 omega fits above.
    """

    def __init__(self, designs: SampleDesigns, odds_cc: np.ndarray):
        if np.shape(odds_cc) != (designs.n_cc,):
            raise DimensionMismatch("odds values must have one entry per complete case")
        self.designs = designs
        self.odds_cc = _frozen(np.asarray(odds_cc, dtype=float))
        self.memo: dict = {}

    def arm_lstsq(self, k: int, level: int) -> SpanLeastSquares:
        """Least squares on u(k) over the complete cases with a = level,
        weighted by 1 + odds, through u_span(k): one small system per
        (k, level), held in memo."""
        key = ("system", k, level)
        if key not in self.memo:
            designs = self.designs
            arm = designs.a_cc == level
            if not arm.any():
                raise EmptyArm(f"no complete cases with a={level} at level {k}")
            weights = _frozen(np.where(arm, 1.0 + self.odds_cc, 0.0))
            self.memo[key] = span_least_squares(designs.u_span(k), designs.u(k), weights)
        return self.memo[key]
