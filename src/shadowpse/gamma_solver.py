"""Sieve estimation of the missingness odds function.

gamma(x, a, m, y) = f(R=0 | x, a, m, y) / f(R=1 | x, a, m, y) is the
odds of being incomplete given the full record. It is identified by the
shadow-variable restriction

    E{ R * gamma - (1 - R) | conditioning variables } = 0,

where the conditioning variables (z, x_obs, a, m, y) are observed for
every record. The estimator minimises the sample criterion

    Q_n(pi) = (1/n) sum_i [ Ehat{ R gamma_pi - 1 + R | W_i } ]^2

over the exponential sieve gamma_pi = exp(cap * tanh(q(.)' pi / cap)),
with Ehat the series projection onto the conditioning basis. The tanh
soft clamp keeps evaluations inside (exp(-cap), exp(cap)) while staying
smooth, so the analytic gradient and Hessian are exact everywhere.

fit_gamma descends once, from the marginal-ratio intercept start that
also anchors the ridge, plus any requested restarts. Each descent is
Levenberg-Marquardt to a loose tolerance, then Newton steps on the
exact Hessian of the penalised objective until its gradient norm is
below POLISH_GTOL: the criterion keeps a non-zero residual at its
minimum, so Levenberg-Marquardt alone converges only linearly, while
the Newton polish converges quadratically and pins the end point.
Projections are applied through an orthonormal basis of the
conditioning design's column span, built once per pipeline run by
SampleDesigns (series_regression) with the complete cases as its
leading rows; the criterion reads those rows in place, in row blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.optimize

from .data_model import Dataset
from .errors import (
    ConfigError,
    DegenerateTarget,
    DimensionMismatch,
    LengthMismatch,
    UnsolvableSystem,
)
from .sieve_basis import BasisSpec, design_matrix, row_blocks
from .series_regression import SampleDesigns, lapack_errors

# Levenberg-Marquardt stops once the objective's relative decrease falls
# below LM_FTOL; the Newton polish then runs until the gradient norm of
# the penalised objective is at most POLISH_GTOL, or POLISH_MAX_STEPS.
LM_FTOL = 1e-6
POLISH_GTOL = 1e-11
POLISH_MAX_STEPS = 20


@dataclass(frozen=True)
class GammaOptions:
    """Solver options.

    penalty is the scale c of an n-vanishing ridge c/n * ||pi - pi0||^2
    added to Q_n, with pi0 the marginal-ratio intercept start. The
    criterion is a projected moment system, so its exact roots at small
    n can interpolate the moments with wildly oscillating odds; the
    ridge vanishes faster than any sieve approximation rate and keeps
    the fit anchored to the constant-odds solution when the data carry
    little information. penalty=0 recovers the raw criterion.
    """

    max_iter: int = 500
    grad_tol: float = 1e-6
    linear_cap: float = 10.0
    restarts: int = 0
    seed: int = 0
    penalty: float = 1.0


@dataclass
class GammaModel:
    """Fitted odds function; is_zero encodes gamma identically zero.

    The zero model is the exact minimiser when the sample has no
    incomplete records (then every complete case gets weight 1 + 0).
    """

    spec_q: Optional[BasisSpec]
    pi: Optional[np.ndarray]
    linear_cap: float
    is_zero: bool = False

    def _on_design(self, qmat: np.ndarray) -> np.ndarray:
        c = self.linear_cap
        return np.exp(c * np.tanh((qmat @ self.pi) / c))

    def values_at(self, points: np.ndarray) -> np.ndarray:
        if self.is_zero:
            return np.zeros(np.asarray(points).shape[0])
        return self._on_design(design_matrix(self.spec_q, points))

    def values(self, designs: SampleDesigns) -> np.ndarray:
        """gamma on the complete cases, in the designs' row order.

        Incomplete records have no evaluable covariates, and the
        estimator reads the odds only where r = 1. The model must use
        the designs' odds basis.
        """
        if self.is_zero:
            return np.zeros(designs.n_cc)
        if self.spec_q != designs.bundle.q:
            raise DimensionMismatch("odds model and designs use different odds bases")
        return self._on_design(designs.q)


@dataclass
class GammaFitReport:
    """How the odds fit went.

    n_starts counts the descents: the one from the intercept start plus
    options.restarts perturbed ones. best_start is the index of the
    winning descent, n_iter its Levenberg-Marquardt nfev and
    polish_steps the exact-Hessian Newton steps it kept after that; q_n
    is the raw criterion at the winner and grad_norm the penalised
    objective's gradient norm there. A polish that stops above
    POLISH_GTOL says why in messages.
    """

    q_n: float
    grad_norm: float
    n_iter: int
    converged: bool
    n_starts: int
    best_start: int
    clamp_frac: float
    polish_steps: int
    messages: list[str] = field(default_factory=list)


class _GammaProblem:
    """Prebuilt matrices for repeated criterion evaluations on one sample.

    The moment vector S' t (t = gamma at r = 1, -1 at r = 0) is
    S_cc' gamma + c: S_cc is the conditioning span's leading block and
    c = -S_miss' 1. Jacobian and Hessian sum over row blocks. The last
    point evaluated is kept, as the Jacobian and the Hessian are asked
    for where the residual or the gradient was just taken.
    """

    def __init__(self, designs: SampleDesigns):
        self.n = designs.ds.n
        self.qmat = designs.q
        self.span_cc = designs.p_span_cc
        self.offset = -designs.p_span[designs.n_cc:].sum(axis=0)
        self.rank_deficit = designs.bundle.p.dim - designs.p_span.shape[1]
        self.blocks = row_blocks(designs.n_cc)
        self._last: Optional[tuple] = None

    def _moments(self, pi: np.ndarray, cap: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """gamma and tanh on the complete cases, and the moment vector S' t."""
        last = self._last
        if last is None or last[0] != cap or not np.array_equal(last[1], pi):
            th = np.tanh((self.qmat @ pi) / cap)
            gam = np.exp(cap * th)
            last = self._last = (cap, pi.copy(), gam, th, self.span_cc.T @ gam + self.offset)
        return last[2:]

    def residual(self, pi: np.ndarray, cap: float) -> np.ndarray:
        """Projected moment vector; Q_n is its squared length over n."""
        return self._moments(pi, cap)[2]

    def residual_jac(self, pi: np.ndarray, cap: float) -> np.ndarray:
        gam, th, _ = self._moments(pi, cap)
        d = gam * (1.0 - th * th)
        jac = np.zeros((self.span_cc.shape[1], self.qmat.shape[1]))
        for rows in self.blocks:
            jac += (self.span_cc[rows].T * d[rows]) @ self.qmat[rows]
        return jac

    def value_and_grad(self, pi: np.ndarray, cap: float) -> tuple[float, np.ndarray]:
        gam, th, w = self._moments(pi, cap)
        qn = float(w @ w) / self.n
        grad = (2.0 / self.n) * (self.qmat.T @ (gam * (1.0 - th * th) * (self.span_cc @ w)))
        return qn, grad

    def hessian(self, pi: np.ndarray, cap: float) -> np.ndarray:
        """Exact Hessian of Q_n: (2/n) (J'J + Q' diag((S_cc R) g'') Q).

        R = S' t is the moment vector and J = S_cc' diag(g') Q its
        Jacobian; with s = 1 - th^2 the derivatives of gamma in the
        linear index are g' = gamma s and g'' = gamma s (s - 2 th / cap).
        One pass over the row blocks sums J and the curvature term.
        """
        gam, th, w = self._moments(pi, cap)
        s = 1.0 - th * th
        d1 = gam * s
        d2 = d1 * (s - 2.0 * th / cap)
        dim = self.qmat.shape[1]
        jac = np.zeros((self.span_cc.shape[1], dim))
        curvature = np.zeros((dim, dim))
        for rows in self.blocks:
            span, qmat = self.span_cc[rows], self.qmat[rows]
            jac += (span.T * d1[rows]) @ qmat
            curvature += (qmat.T * ((span @ w) * d2[rows])) @ qmat
        return (2.0 / self.n) * (jac.T @ jac + curvature)


def _intercept_start(ds: Dataset, spec_q: BasisSpec, cap: float) -> Optional[np.ndarray]:
    """Constant-odds start matching the marginal missing/complete ratio."""
    n0 = float((ds.r == 0).sum())
    n1 = float((ds.r == 1).sum())
    target = np.log(n0 / n1)
    if abs(target) >= cap:
        return None
    # invert the soft clamp so the start hits the ratio exactly; the
    # intercept is column 0 and identically one
    pi = np.zeros(spec_q.dim)
    pi[0] = cap * np.arctanh(target / cap)
    return pi


@dataclass
class _Descent:
    """One descent: penalised objective, raw Q_n, the objective's
    gradient norm, Levenberg-Marquardt nfev, the Newton steps kept and
    the end point. polish_stop says why the polish ended above
    POLISH_GTOL, and is None when it reached it."""

    obj: float
    qn: float
    grad_norm: float
    nfev: int
    polish_steps: int
    pi: np.ndarray
    polish_stop: Optional[str]


def _descend(prob: _GammaProblem, x0: np.ndarray, pi0: np.ndarray,
             options: GammaOptions) -> _Descent:
    """Levenberg-Marquardt, then an exact-Hessian Newton polish, from x0.

    The first phase is MINPACK lmder on the stacked residual, Gauss-Newton
    on the projected moment vector with the penalty rows sqrt(lam)
    (pi - pi0) always stacked under the moment rows (zero rows when
    penalty=0, so the residual has at least as many rows as unknowns
    even when the conditioning span is rank-deficient). It runs to
    LM_FTOL only: the penalised criterion keeps a non-zero residual at
    its minimum, so the second-order term Gauss-Newton drops does not
    vanish there and the descent converges linearly.
    The second phase takes Newton steps on the exact Hessian plus
    2 lam I until the gradient norm is at most POLISH_GTOL, or for
    POLISH_MAX_STEPS steps. A step is kept when the objective falls, or
    when it stays within 8 ulps of it and the gradient norm falls: near
    the optimum the objective moves below its own rounding. A Hessian
    that is not positive definite, or a step that is not kept, ends the
    polish at the current point.
    """
    cap = options.linear_cap
    sqrt_n = np.sqrt(prob.n)
    lam = options.penalty / prob.n
    sqrt_lam = np.sqrt(lam)
    eye = np.eye(len(x0))
    penalty_jac = sqrt_lam * eye

    def residual(p: np.ndarray) -> np.ndarray:
        return np.concatenate([prob.residual(p, cap) / sqrt_n, sqrt_lam * (p - pi0)])

    def jacobian(p: np.ndarray) -> np.ndarray:
        return np.vstack([prob.residual_jac(p, cap) / sqrt_n, penalty_jac])

    def objective(p: np.ndarray) -> tuple[float, float, np.ndarray, float]:
        qn, grad = prob.value_and_grad(p, cap)
        d = p - pi0
        grad = grad + 2.0 * lam * d
        return qn + lam * float(d @ d), qn, grad, float(np.sqrt(grad @ grad))

    res = scipy.optimize.least_squares(
        residual,
        x0,
        jac=jacobian,
        method="lm",
        xtol=1e-14,
        ftol=LM_FTOL,
        gtol=1e-14,
        max_nfev=options.max_iter,
    )
    pi = res.x
    obj, qn, grad, gnorm = objective(pi)
    steps, stop = 0, None
    while gnorm > POLISH_GTOL:
        if steps == POLISH_MAX_STEPS:
            stop = f"step limit {POLISH_MAX_STEPS} reached"
            break
        try:
            with lapack_errors("odds Newton step"):
                step = scipy.linalg.solve(prob.hessian(pi, cap) + 2.0 * lam * eye, grad,
                                          assume_a="pos")
        except UnsolvableSystem:
            stop = "Hessian not positive definite"
            break
        trial = pi - step
        t_obj, t_qn, t_grad, t_gnorm = objective(trial)
        ulps = 8.0 * np.finfo(float).eps * abs(obj)
        if not (t_obj < obj or (t_obj <= obj + ulps and t_gnorm < gnorm)):
            stop = "Newton step did not lower the objective"
            break
        pi, obj, qn, grad, gnorm = trial, t_obj, t_qn, t_grad, t_gnorm
        steps += 1
    return _Descent(obj, qn, gnorm, int(res.nfev), steps, pi, stop)


def fit_gamma(
    designs: SampleDesigns,
    options: GammaOptions = GammaOptions(),
) -> tuple[GammaModel, GammaFitReport]:
    """Minimise Q_n plus the n-vanishing ridge by one descent from pi0.

    The descent (Levenberg-Marquardt, then the exact-Hessian Newton
    polish; see _descend) starts from the penalty anchor pi0, the
    marginal-ratio intercept start, or from zero when the marginal
    ratio lies beyond the soft clamp.
    options.restarts random perturbations of that descent's end point
    each descend again; the winner has the lowest objective, then the
    lowest gradient norm, then the first index. The report counts the
    first descent plus the restarts, best_start indexes into them (0 is
    the descent from pi0), n_iter is the winning descent's
    Levenberg-Marquardt nfev and polish_steps its Newton steps. The
    reported q_n is always the raw criterion; grad_norm refers to the
    objective actually minimised.
    """
    ds = designs.ds
    spec_q, spec_p = designs.bundle.q, designs.bundle.p
    if spec_p.dim < spec_q.dim:
        raise ConfigError(
            f"conditioning basis dim {spec_p.dim} < odds basis dim {spec_q.dim} "
            f"(p degrees {spec_p.degrees}, q degrees {spec_q.degrees}); the projected criterion "
            "would be underdetermined: a shadow variable capped at low degree gives too "
            "few moments to identify odds this rich in x_miss (completeness fails)"
        )
    if designs.n_cc == 0:
        raise DegenerateTarget("no complete cases: odds function is not estimable")
    cap = options.linear_cap
    if designs.n_cc == ds.n:
        report = GammaFitReport(q_n=0.0, grad_norm=0.0, n_iter=0, converged=True, n_starts=0,
                                best_start=-1, clamp_frac=0.0, polish_steps=0,
                                messages=["no incomplete records; gamma is identically zero"])
        return GammaModel(spec_q=None, pi=None, linear_cap=cap, is_zero=True), report

    prob = _GammaProblem(designs)
    messages = []
    if prob.rank_deficit > 0:
        messages.append(f"conditioning design rank-deficient by {prob.rank_deficit}")

    pi0 = _intercept_start(ds, spec_q, cap)
    if pi0 is None:
        pi0 = np.zeros(spec_q.dim)
    results = [_descend(prob, pi0, pi0, options)]
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(options.seed)))
    for _ in range(options.restarts):
        x0 = results[0].pi + 0.5 * rng.standard_normal(spec_q.dim)
        results.append(_descend(prob, x0, pi0, options))

    best = min(range(len(results)), key=lambda i: (results[i].obj, results[i].grad_norm, i))
    win = results[best]
    _, th, _ = prob._moments(win.pi, cap)
    clamp_frac = float(np.mean(np.abs(th) > 0.9))
    if clamp_frac > 0:
        messages.append(f"soft clamp active on {clamp_frac:.1%} of complete cases")
    if win.polish_stop is not None:
        messages.append(f"Newton polish stopped at gradient norm {win.grad_norm:.3e}, "
                        f"above {POLISH_GTOL:.0e}: {win.polish_stop}")
    converged = win.grad_norm <= options.grad_tol
    if not converged:
        messages.append(f"gradient norm {win.grad_norm:.3e} above tolerance {options.grad_tol:.1e}")
    model = GammaModel(spec_q=spec_q, pi=win.pi, linear_cap=cap, is_zero=False)
    report = GammaFitReport(
        q_n=win.qn, grad_norm=win.grad_norm, n_iter=win.nfev, converged=converged,
        n_starts=len(results), best_start=best, clamp_frac=clamp_frac,
        polish_steps=win.polish_steps, messages=messages,
    )
    return model, report


def weak_norm_sq(values_a: np.ndarray, values_b: np.ndarray, designs: SampleDesigns) -> float:
    """Squared weak norm (1/n) || Ehat{ R (g_a - g_b) | W } ||^2.

    values_* are evaluations on the complete cases, in the designs' row
    order, as GammaModel.values gives them. The weak norm is the natural
    convergence metric for the odds function: it only sees differences
    through the conditioning projection.
    """
    va = np.asarray(values_a, dtype=float)
    vb = np.asarray(values_b, dtype=float)
    if va.shape != (designs.n_cc,) or vb.shape != (designs.n_cc,):
        raise LengthMismatch("weak_norm_sq: values must have one entry per complete case")
    proj = designs.p_span @ (designs.p_span_cc.T @ (va - vb))
    return float(proj @ proj) / designs.ds.n
