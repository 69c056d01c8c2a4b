"""Series least squares through orthonormal spans, and projections.

orthonormal_span returns an orthonormal basis of a design's column
space from two passes over its Gram matrix (CholeskyQR2); projections
built from it are exactly idempotent and invariant to invertible
reparameterisations of the columns, which the odds-function criterion
and the influence-function pieces rely on. Both passes overwrite one
buffer in row blocks: a copy of the argument, or for the conditioning
and outcome-chain spans of SampleDesigns the design matrix itself.
span_least_squares solves least squares on a design S R held in the
span S of a wider design: the normal equations reduce to a system with
one row per column of R's own span, so every outcome-chain level reads
the top level's one span, and a fit takes its right-hand side and gives
its fitted values as coordinates in that span; tall is the one product
with a row per complete case or record that the analysis stages make.
RidgeSystem holds ridged normal equations (gram + eps I) x = rhs with
one Cholesky factor, made once and read by every right-hand side. A
LAPACK failure in any of these raises UnsolvableSystem.

SampleDesigns builds the sample designs of one pipeline run, each at
most once and in one row order with the complete cases first. RunFits
binds them to the run's odds values, once, and holds the arm-weighted
systems made under those odds.

The spans and SpanLeastSquares take stacks along a leading batch axis
too: given b samples that differ only in their x_miss fills (mi's
imputations), the chain design under one spec and its span are
stacked, a slice of lower rank masking its dropped directions with
zeros. The conditioning span, odds design and representer stay
single; the batched zero-odds runs on complete data never read them.
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
from .sieve_basis import (
    BasisSpec,
    SpecBundle,
    design_matrix,
    filled_design,
    nested_columns,
    row_blocks,
)

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
class RidgeSystem:
    """The ridged normal equations of one design, for many right-hand sides.

    eps is the Tikhonov ridge, the given ridge times the mean eigenvalue
    of gram = design' design (at least one); rank is the design's
    numerical rank and factor the Cholesky factor of gram + eps I.
    """

    design: np.ndarray
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
    return RidgeSystem(design=design, eps=eps, rank=rank, factor=factor)


def representer_ridge(n: int) -> float:
    """The representer's relative ridge at sample size n: 1e-2 up to
    n = 1000, then 1e-2 (1000 / n)^2 (the inference module says why)."""
    return 1e-2 * min(1.0, (1000 / n) ** 2)


def project_residual_orthogonality(
    spec: BasisSpec,
    coef: np.ndarray,
    inputs: np.ndarray,
    responses: np.ndarray,
    weights: Optional[np.ndarray] = None,
) -> float:
    """max_j |(1/n) sum_i w_i (v_i - basis_i' coef) basis_ij| over the fit sample.

    Zero up to floating point for a weighted least squares fit, as every
    mu and omega fit is: no series regression is ridged any more.
    """
    basis = design_matrix(spec, inputs)
    v = np.asarray(responses, dtype=float)
    w = np.ones(len(basis)) if weights is None else np.asarray(weights, dtype=float)
    if v.shape != (len(basis),) or w.shape != (len(basis),):
        raise LengthMismatch("responses and weights must align with the input rows")
    if not (np.isfinite(v).all() and np.isfinite(w).all()):
        raise NonFiniteInput("project_residual_orthogonality: non-finite input")
    resid = (v - basis @ coef) * w
    return float(np.max(np.abs(basis.T @ resid)) / max(len(v), 1))


def tall(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left @ right, where one factor has a row per complete case or per
    record: every pass of the analysis stages over the sample is one call
    here, a product with one column per distinct fit of the stage."""
    return left @ right


def _t(a: np.ndarray) -> np.ndarray:
    """a with its last two axes swapped: the transpose of each slice."""
    return a.swapaxes(-1, -2)


def _mv(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x for vectors x, slice by slice over any leading axes."""
    return a @ x if x.ndim == 1 else (a @ x[..., None])[..., 0]


def _gram_map(gram: np.ndarray) -> np.ndarray:
    """V diag(w)^(-1/2) over the eigenpairs (w, V) of the Gram matrix
    gram whose eigenvalue lies above SPAN_EIG_RTOL times the largest; in
    a stack, a slice's dropped directions that others keep get scale 0."""
    if not np.isfinite(gram).all():
        raise UnsolvableSystem("orthonormal span: non-finite design")
    with lapack_errors("orthonormal span"):
        w, v = np.linalg.eigh(gram)
    keep = w > w[..., -1:] * SPAN_EIG_RTOL  # a largest w <= 0 keeps none
    # indexed by a mask, not sliced, so each map is column-major: products round by layout
    kept = np.logical_or.reduce(keep.reshape(-1, keep.shape[-1]))
    return v[..., kept] / np.sqrt(np.where(keep, w, np.inf)[..., kept])[..., None, :]


def _span_in_place(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """orthonormal_span(m), written over m itself, and R = span' m.

    Each pass overwrites m in row blocks, m[rows] = m[rows] @ T, so the
    matrix, the first pass and the span never coexist; each row is the
    same sum as in m @ T. A pass that drops columns moves the kept ones
    to a fresh array, laid out as m @ T would be. With span = m T_1 T_2,
    R = T_2' T_1' (m' m) comes from the first pass's Gram matrix, so m
    need not outlive its span.
    """
    if m.size == 0:
        return np.zeros(m.shape[:-1] + (0,)), np.zeros(m.shape[:-2] + (0, m.shape[-1]))
    blocks = row_blocks(m.shape[-2])
    coupling = gram = _t(m) @ m
    for second in (False, True):
        t = _gram_map(gram)
        k = t.shape[-1]
        for rows in blocks:
            m[..., rows, :k] = m[..., rows, :] @ t
        if k < m.shape[-1]:
            m = np.ascontiguousarray(m[..., :k])
        coupling = _t(t) @ coupling
        if k == 0 or second:
            break
        gram = _t(m) @ m
    return m, coupling


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
    return _span_in_place(np.array(matrix, dtype=float))[0]


@dataclass
class SpanLeastSquares:
    """Weighted minimum-norm least squares on a design U_k = S R_k held in
    the orthonormal span S of a wider design U = S R.

    R = S' U, and U_k's columns are a subset of U's, so R_k = R[:, cols_k]
    (coupling). With M_k = orthonormal_span(R_k) (rotation), S M_k is an
    orthonormal basis of U_k's span, so the normal equations
    U_k' W (U_k c - v) = 0 hold exactly when M_k' S' W (S R_k c - v) = 0,
    W = diag(weights) (the identity when weights is None). That system's
    matrix, reduced = M_k' (S' W S) R_k, needs only gram = S' W S;
    c = pinv(reduced) @ M_k' S' W v is the minimum-norm solution. The
    pseudo-inverse drops singular values at or below np.linalg.lstsq's
    cutoff eps * max(U_k rows, columns) * s_max, and rank counts the
    rest, as lstsq's rank does. A fit is just its coefficient vector c;
    its rank is this system's.

    A fit lives in the coordinates of the span S: it reads its right-hand
    side only as S' W v (solve_coordinates), and its fitted vector S (R_k c)
    only through R_k c (coordinates). When v is itself a fitted vector
    S f, S' W v = gram f takes no pass over the rows, so the stages pass
    over them only to project the vectors they start from and to evaluate
    the fits they end with, one tall product each for all their fits.
    Over a stack rank has one entry per slice, and the values may be shared.
    """

    span: np.ndarray
    coupling: np.ndarray
    rotation: np.ndarray
    weights: Optional[np.ndarray] = None
    gram: Optional[np.ndarray] = None

    def __post_init__(self):
        self.reduced = _frozen(_t(self.rotation) @ (
            self.coupling if self.gram is None else self.gram @ self.coupling))
        with lapack_errors("reduced least-squares design"):
            u_mat, s, vt = np.linalg.svd(self.reduced, full_matrices=False)
        cutoff = np.finfo(float).eps * max(self.span.shape[-2], self.coupling.shape[-1])
        keep = s > cutoff * s[..., :1]
        self.rank = keep.sum(axis=-1)
        self.pinv = _frozen((_t(vt) / np.where(keep, s, np.inf)[..., None, :]) @ _t(u_mat))

    def solve_coordinates(self, coords: np.ndarray) -> np.ndarray:
        """c = pinv M_k' coords, the fit whose right-hand side v has the
        coordinates coords = S' W v in the span."""
        return _mv(self.pinv, _mv(_t(self.rotation), coords))

    def coordinates(self, coef: np.ndarray) -> np.ndarray:
        """R_k coef: the coordinates in the span of the fitted vector U_k coef."""
        return _mv(self.coupling, coef)

    def solve(self, values: np.ndarray) -> np.ndarray:
        """The fit of one vector of values, one per row."""
        weighted = values if self.weights is None else self.weights * values
        return self.solve_coordinates(tall(_t(self.span), weighted[..., None])[..., 0])

    def fitted(self, coef: np.ndarray) -> np.ndarray:
        """U_k coef, as S (R_k coef)."""
        return tall(self.span, self.coordinates(coef)[..., None])[..., 0]

    def weighted(self, weights: np.ndarray, gram: np.ndarray) -> "SpanLeastSquares":
        """The same design under row weights, with gram = S' diag(weights) S."""
        return SpanLeastSquares(self.span, self.coupling, self.rotation, weights, gram)


def span_least_squares(span: np.ndarray, coupling: np.ndarray) -> SpanLeastSquares:
    """The unweighted SpanLeastSquares of the design span @ coupling."""
    return SpanLeastSquares(span, coupling, orthonormal_span(coupling))


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

    Each outcome-chain design is a column subset of level K+1's U
    (sieve_basis.nested_columns), so only U is built, and its span S
    over its buffer: chain[k-1], the unweighted least squares of level
    k, reads S and R = S' U. No fit factors a matrix with a row per
    complete case.

    representer_system holds the representer's normal equations under
    the ridge representer_ridge(n) that the sample size sets, factored
    once per run and solved against each profile's right-hand side.

    x_miss, a stack (b, n, w) of fills of complete ds's x_miss block,
    makes the chain design a stack of b samples that share every other
    column with ds: ds's level K+1 design is written into each slice
    once, and only the columns that involve x_miss are written again per
    slice (sieve_basis.filled_design), under the bundle's one spec.
    """

    def __init__(self, ds: Dataset, bundle: SpecBundle, x_miss: Optional[np.ndarray] = None):
        self.ds = ds
        self.bundle = bundle
        self._x_miss = x_miss
        self.n_cc = int(np.count_nonzero(ds.complete_mask))
        # the records in row order, or None for the identity order
        self._order = None if self.n_cc == ds.n else np.argsort(~ds.complete_mask, kind="stable")
        self.y_cc, self.a_cc = self._complete(ds.y), self._complete(ds.a)

    def _complete(self, values: np.ndarray) -> np.ndarray:
        """The complete-case entries of a per-record vector, read-only."""
        return _frozen(values.view() if self._order is None else values[self._order[:self.n_cc]])

    @cached_property
    def p_span(self) -> np.ndarray:
        """Orthonormal basis of the conditioning design's column span, in
        row order, built over the design's own buffer."""
        points = self.ds.conditioning_points()
        points = points if self._order is None else points[self._order]
        return _frozen(_span_in_place(design_matrix(self.bundle.p, points))[0])

    @property
    def p_span_cc(self) -> np.ndarray:
        """The complete-case rows of p_span: its leading block, a view."""
        return self.p_span[:self.n_cc]

    @cached_property
    def q(self) -> np.ndarray:
        """The odds design."""
        return _frozen(design_matrix(self.bundle.q, self.ds.regressor_points()))

    @cached_property
    def chain(self) -> tuple[SpanLeastSquares, ...]:
        """chain[k-1]: the unweighted least squares on the level-k
        outcome-chain design, k = 1..K+1, each through the one span of
        the level K+1 design."""
        top, points = self.bundle.u[-1], self.ds.mu_points(self.ds.k + 1)
        design = (design_matrix(top, points) if self._x_miss is None
                  else filled_design(top, points, self._x_miss))
        span, coupling = _span_in_place(design)
        return tuple(span_least_squares(_frozen(span), _frozen(coupling[..., nested_columns(top, u)]))
                     for u in self.bundle.u)

    @cached_property
    def representer_system(self) -> RidgeSystem:
        """The representer's normal equations under representer_ridge(n).

        Its design, the projected odds design p_span_cc' q, involves no
        odds values or profile, so every profile of the run solves
        against one Gram matrix, ridge eps, rank and Cholesky factor.
        """
        return ridge_system(_frozen(self.p_span_cc.T @ self.q), representer_ridge(self.ds.n))


class RunFits:
    """One pipeline run: its designs, its odds values and the weighted
    systems made under them.

    The run works out its odds values once, one per complete case in
    the designs' row order, and binds them here: the vector is frozen,
    so every system here was made under it. Every stage that reads the
    odds takes this object.

    arm(a) holds arm a's weights 1{A = a} (1 + odds) and weighted Gram
    matrix G_a = S' W_a S of the chain span S, made on first use, one
    tall product each. arm_lstsq(k, a) is the least squares on level k
    under those weights, which every mu_k and omega_k fit on arm a
    solves against; the mu chain's lower levels take their right-hand
    sides as G_a f, f the coordinates of the level above's fit.
    arm_moments holds, per arm, the coordinates S' W_a y and S' W_a 1
    that the mu chain and the omega fits start from, from one more tall
    product. The run holds these small arrays, and no vector of n rows
    beyond the odds and the arm weights.
    Under a stacked chain span every system and Gram matrix is stacked
    too; the odds values and arm weights are shared.
    """

    def __init__(self, designs: SampleDesigns, odds_cc: np.ndarray):
        if np.shape(odds_cc) != (designs.n_cc,):
            raise DimensionMismatch("odds values must have one entry per complete case")
        self.designs = designs
        self.odds_cc = _frozen(np.asarray(odds_cc, dtype=float))
        # row a: the weights 1{A = a} (1 + odds) of arm a
        self.weights = _frozen(np.where(designs.a_cc == np.arange(2)[:, None], 1.0 + self.odds_cc, 0.0))
        self._grams: dict = {}
        self._systems: dict = {}

    def arm(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """(weights, gram) of the complete cases with a = level; raises
        EmptyArm when there are none."""
        if level not in self._grams:
            if not (self.designs.a_cc == level).any():
                raise EmptyArm(f"no complete cases with a={level}")
            span = self.designs.chain[-1].span
            self._grams[level] = _frozen(tall(_t(span) * self.weights[level], span))
        return self.weights[level], self._grams[level]

    @cached_property
    def arm_moments(self) -> np.ndarray:
        """arm_moments[..., a, 0, :] = S' W_a y and arm_moments[..., a, 1, :]
        = S' W_a 1, zero for an arm with no complete case."""
        starts = np.stack([self.weights * self.designs.y_cc, self.weights], axis=1)
        coords = tall(starts.reshape(4, -1), self.designs.chain[-1].span)
        return _frozen(coords.reshape(coords.shape[:-2] + (2, 2, -1)))

    def arm_lstsq(self, k: int, level: int) -> SpanLeastSquares:
        """Least squares on level k over the complete cases with a = level,
        weighted by 1 + odds: one small system per (k, level)."""
        if (k, level) not in self._systems:
            self._systems[k, level] = self.designs.chain[k - 1].weighted(*self.arm(level))
        return self._systems[k, level]
