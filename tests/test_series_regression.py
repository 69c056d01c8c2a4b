import numpy as np
import pytest

from shadowpse.errors import LengthMismatch, NonFiniteInput, UnsolvableSystem
from shadowpse.series_regression import (
    SpanLeastSquares,
    _span_in_place,
    orthonormal_span,
    project_residual_orthogonality,
    ridge_system,
    span_least_squares,
)
from shadowpse.sieve_basis import (
    BasisSpec,
    Standardizer,
    build_spec_bundle,
    design_matrix,
    spec_for,
)
from shadowpse.simulation import DgpConfig, generate

from support import rng_for, seq


def project(span, values):
    """Orthogonal projection of values onto the span's columns."""
    return span @ (span.T @ values)


def identity_spec(degree, dim=1):
    return BasisSpec(degrees=(degree,) * dim, include_interactions=True,
                     standardizer=Standardizer.identity(dim))


def span_fit(basis, values, weights=None) -> tuple[np.ndarray, SpanLeastSquares]:
    """Weighted least squares of values on basis, solved through its span
    S and R = S' basis as SampleDesigns solves the top outcome-chain
    level, checked against np.linalg.lstsq on the sqrt(w)-weighted
    design: the same minimum-norm coefficients to 1e-10 relative, the
    same rank, and fitted values S (R c) equal to basis @ c. Returns the
    coefficients and the system, which holds the rank."""
    span, coupling = _span_in_place(np.array(basis, dtype=float))
    system = span_least_squares(span, coupling)
    if weights is not None:
        system = system.weighted(weights, (span.T * weights) @ span)
    got = system.solve(values)
    sw = np.ones(len(basis)) if weights is None else np.sqrt(weights)
    coef, _, rank, _ = np.linalg.lstsq(basis * sw[:, None], values * sw, rcond=None)
    assert np.max(np.abs(got - coef)) <= 1e-10 * max(np.max(np.abs(coef)), 1.0)
    assert system.rank == rank
    fitted = basis @ got
    scale = max(np.max(np.abs(fitted)), 1.0)
    assert np.max(np.abs(system.fitted(got) - fitted)) <= 1e-10 * scale
    return got, system


def test_hand_solved_least_squares():
    # x = [0, 1, 2], v = [1, 2, 5]: normal equations [[3,3],[3,5]] c = [8,12]
    spec = identity_spec(1)
    coef, system = span_fit(design_matrix(spec, np.array([0.0, 1.0, 2.0])),
                            np.array([1.0, 2.0, 5.0]))
    np.testing.assert_allclose(coef, [2.0 / 3.0, 2.0], rtol=0, atol=1e-12)
    assert system.rank == 2


def test_exact_interpolation():
    rng = rng_for(301)
    x = np.array([0.0, 0.4, 1.1, 2.3])
    v = rng.standard_normal(4)
    spec = identity_spec(3)
    coef, _ = span_fit(design_matrix(spec, x), v)
    np.testing.assert_allclose(design_matrix(spec, x) @ coef, v, atol=1e-8)


def test_constant_response_recovers_intercept_only():
    rng = rng_for(302)
    x = rng.random(10)
    spec = spec_for(x, degree=2, include_interactions=False)
    coef, _ = span_fit(design_matrix(spec, x), np.full(10, 4.5))
    np.testing.assert_allclose(coef, [4.5, 0.0, 0.0], atol=1e-10)


def test_in_span_response_recovered_exactly():
    rng = rng_for(303)
    spec = spec_for(rng.random((30, 2)), degree=2, include_interactions=True)
    pts = rng.random((30, 2))
    c0 = rng.standard_normal(spec.dim)
    v = design_matrix(spec, pts) @ c0
    coef, _ = span_fit(design_matrix(spec, pts), v)
    np.testing.assert_allclose(coef, c0, atol=1e-8)


def test_zero_weights_equal_row_deletion():
    rng = rng_for(305)
    pts = rng.random(20)
    v = rng.standard_normal(20)
    w = np.ones(20)
    w[10:] = 0.0
    spec = spec_for(pts[:10], degree=2, include_interactions=False)
    full, _ = span_fit(design_matrix(spec, pts), v, weights=w)
    half, _ = span_fit(design_matrix(spec, pts[:10]), v[:10])
    np.testing.assert_allclose(full, half, atol=1e-12)


def test_weight_rescaling_invariance():
    rng = rng_for(306)
    pts = rng.random(25)
    v = rng.standard_normal(25)
    w = 0.5 + rng.random(25)
    spec = spec_for(pts, degree=2, include_interactions=False)
    a, _ = span_fit(design_matrix(spec, pts), v, weights=w)
    b, _ = span_fit(design_matrix(spec, pts), v, weights=3.0 * w)
    np.testing.assert_allclose(a, b, atol=1e-10)


def test_orthogonality_of_unridged_fit():
    rng = rng_for(307)
    pts = rng.random((60, 2))
    v = rng.standard_normal(60)
    w = 0.5 + rng.random(60)
    spec = spec_for(pts, degree=3, include_interactions=True)
    coef, _ = span_fit(design_matrix(spec, pts), v, weights=w)
    assert project_residual_orthogonality(spec, coef, pts, v, w) <= 1e-8


def test_collinear_design_solves_at_its_real_rank():
    rng = rng_for(308)
    x = rng.random(40)
    pts = np.column_stack([x, x])  # identical coordinates: rank-deficient design
    v = rng.standard_normal(40)
    w = np.where(rng.random(40) < 0.7, 0.5 + rng.random(40), 0.0)
    spec = spec_for(pts, degree=2, include_interactions=True)
    basis = design_matrix(spec, pts)
    coef, system = span_fit(basis, v, weights=w)
    assert system.rank == np.linalg.matrix_rank(basis) < spec.dim
    assert project_residual_orthogonality(spec, coef, pts, v, w) <= 1e-10


def test_input_guards():
    spec = identity_spec(1)
    x = np.array([0.0, 1.0, 2.0])
    coef, _ = span_fit(design_matrix(spec, x), x)
    with pytest.raises(NonFiniteInput):
        project_residual_orthogonality(spec, coef, x, np.array([1.0, np.nan, 2.0]))
    with pytest.raises(LengthMismatch):
        project_residual_orthogonality(spec, coef, x, np.array([1.0, 2.0]))
    with pytest.raises(LengthMismatch):
        project_residual_orthogonality(spec, coef, x, x, weights=np.ones(5))


def test_ridge_system_identity_and_failure():
    """An identity design solves exactly up to its recorded eps; a NaN
    design, a failed Cholesky factor and a non-finite solution each
    raise UnsolvableSystem."""
    system = ridge_system(np.eye(3), 1e-9)
    assert system.eps == 1e-9  # ridge times max(mean Gram eigenvalue 1, 1)
    assert system.rank == 3
    sol = system.solve(np.array([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(sol, [1.0, 2.0, 3.0], atol=1e-8)
    assert ridge_system(np.full((3, 3), 4.0), 0.5).eps == 0.5 * 48.0
    with pytest.raises(UnsolvableSystem):
        ridge_system(np.full((2, 2), np.nan), 1e-2)
    with pytest.raises(UnsolvableSystem, match="ridged system"):
        ridge_system(np.eye(3), -2.0)  # gram + eps I = -I has no Cholesky factor
    with pytest.raises(UnsolvableSystem):
        system.solve(np.array([1.0, np.inf, 3.0]))


def test_orthonormal_span_projection_invariance():
    rng = rng_for(309)
    mat = rng.standard_normal((50, 6))
    t_mat = rng.standard_normal((6, 6)) + 6.0 * np.eye(6)  # invertible
    v = rng.standard_normal(50)
    p1 = project(orthonormal_span(mat), v)
    p2 = project(orthonormal_span(mat @ t_mat), v)
    np.testing.assert_allclose(p1, p2, atol=1e-8)
    span = orthonormal_span(mat)
    np.testing.assert_allclose(span.T @ span, np.eye(span.shape[1]), atol=1e-10)


def test_orthonormal_span_rank_truncation():
    rng = rng_for(310)
    base = rng.standard_normal((30, 3))
    mat = np.column_stack([base, base[:, 0] + base[:, 1]])
    span = orthonormal_span(mat)
    assert span.shape == (30, 3)


def test_projection_idempotence():
    rng = rng_for(311)
    span = orthonormal_span(rng.standard_normal((40, 5)))
    v = rng.standard_normal(40)
    once = project(span, v)
    np.testing.assert_allclose(project(span, once), once, atol=1e-10)


def svd_span(mat, rtol=1e-12):
    """Reference span: left singular vectors above rtol times the largest."""
    u_mat, s, _ = np.linalg.svd(mat, full_matrices=False)
    return u_mat[:, :int((s > s[0] * rtol).sum())]


def conditioning_design_1000():
    full, obs = generate(DgpConfig(n=1000, seed=seq(313)))
    return design_matrix(build_spec_bundle(obs).p, obs.conditioning_points())


def quadratic_design_2000():
    pts = rng_for(314).standard_normal((2000, 5))
    return design_matrix(spec_for(pts, degree=2, include_interactions=False), pts)


@pytest.mark.parametrize("make, shape", [
    (conditioning_design_1000, (1000, 39)),
    (quadratic_design_2000, (2000, 11)),
], ids=["1000x39", "2000x11"])
def test_orthonormal_span_matches_svd_span(make, shape):
    mat = make()
    assert mat.shape == shape
    span, ref = orthonormal_span(mat), svd_span(mat)
    assert span.shape == ref.shape
    assert np.abs(span.T @ span - np.eye(span.shape[1])).max() <= 1e-12
    vals = rng_for(315).standard_normal((shape[0], 20))
    np.testing.assert_allclose(span @ (span.T @ vals), ref @ (ref.T @ vals),
                               rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("make", [conditioning_design_1000, quadratic_design_2000,
                                  lambda: np.column_stack([quadratic_design_2000()] * 2)],
                         ids=["1000x39", "2000x11", "rank-deficient"])
def test_orthonormal_span_leaves_its_argument_unchanged(make):
    mat = make()
    assert mat.flags.writeable
    before = mat.copy()
    span = orthonormal_span(mat)
    assert not np.shares_memory(span, mat)
    assert mat.tobytes() == before.tobytes()


def test_orthonormal_span_degenerate_matrices():
    base = rng_for(316).standard_normal((40, 4))
    duplicated = orthonormal_span(np.column_stack([base, base[:, :2], base]))
    assert duplicated.shape == (40, 4)
    np.testing.assert_allclose(duplicated.T @ duplicated, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(project(duplicated, base), base, atol=1e-12)
    assert orthonormal_span(np.zeros((40, 3))).shape == (40, 0)
    assert orthonormal_span(np.zeros((40, 0))).shape == (40, 0)
    assert orthonormal_span(np.zeros((0, 3))).shape == (0, 0)
    bad = base.copy()
    bad[3, 1] = np.nan
    with pytest.raises(UnsolvableSystem):
        orthonormal_span(bad)


def test_stacked_spans_and_systems_match_each_slice():
    """A stack of designs in which one slice duplicates a column, and
    another has two columns proportional on the weighted rows only, gives
    slice by slice the span, rank and least-squares solutions of that
    slice alone, to 1e-12 relative: masking a slice's dropped directions
    (zero columns, zero reciprocals) reproduces dropping them."""
    rng = rng_for(3101)
    stack = rng.standard_normal((3, 300, 6))
    stack[1, :, 4] = stack[1, :, 1]
    values = rng.standard_normal((3, 300))
    weights = rng.random(300) * (rng.random(300) < 0.7)
    stack[2, weights > 0, 2] = 3.0 * stack[2, weights > 0, 0]
    cols = np.array([0, 1, 2, 4])  # a level holding both dependent pairs

    def close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    span, coupling = _span_in_place(stack.copy())
    level = span_least_squares(span, coupling[..., cols])
    weighted = level.weighted(weights, (np.swapaxes(span, -1, -2) * weights) @ span)
    assert span.shape == (3, 300, 6) and list(level.rank) == [4, 3, 4]
    assert list(weighted.rank) == [4, 3, 3]
    stacked = orthonormal_span(stack)
    for i in range(3):
        alone, coupling_i = _span_in_place(stack[i].copy())
        assert np.count_nonzero(np.abs(span[i]).max(axis=0)) == alone.shape[1]
        close(project(span[i], values[i]), project(alone, values[i]))
        close(span[i] @ coupling[i], stack[i])
        close(project(stacked[i], values[i]), project(alone, values[i]))
        one = span_least_squares(alone, coupling_i[:, cols])
        one_w = one.weighted(weights, (alone.T * weights) @ alone)
        for system, single in ((level, one), (weighted, one_w)):
            assert system.rank[i] == single.rank
            coef = single.solve(values[i])
            close(system.solve(values)[i], coef)
            close(system.solve(values[0])[i], single.solve(values[0]))
            close(system.fitted(system.solve(values))[i], single.fitted(coef))
