import numpy as np
import pytest

from shadowpse.sieve_basis import (
    BasisSpec,
    SieveOptions,
    Standardizer,
    build_spec_bundle,
    column_coordinates,
    design_matrix,
    detect_binary,
    fit_standardizer,
    spec_for,
)
from shadowpse.simulation import DgpConfig, generate

from support import rng_for, seq


def identity_spec(degree, dim, **kw):
    return BasisSpec(degree=degree, input_dim=dim,
                     standardizer=Standardizer.identity(dim), **kw)


def at_point(spec, point):
    return design_matrix(spec, np.asarray(point, dtype=float)[None])[0]


def test_power_single_coordinate_values():
    spec = identity_spec(3, 1)
    np.testing.assert_allclose(at_point(spec, [2.0]),
                               [1.0, 2.0, 4.0, 8.0], rtol=0, atol=0)


def test_power_degree_zero_is_intercept():
    spec = identity_spec(0, 3)
    np.testing.assert_array_equal(at_point(spec, [4.0, 5.0, 6.0]), [1.0])


def test_pairwise_interaction_values():
    spec = identity_spec(1, 2)
    np.testing.assert_array_equal(at_point(spec, [3.0, 5.0]),
                                  [1.0, 3.0, 5.0, 15.0])
    assert column_coordinates(spec) == [(), (0,), (1,), (0, 1)]


def test_binary_coordinate_capped_at_power_one():
    spec = identity_spec(2, 2, binary=(False, True))
    assert column_coordinates(spec) == [(), (0,), (0,), (1,), (0, 1)]
    row = at_point(spec, [3.0, 1.0])
    np.testing.assert_array_equal(row, [1.0, 3.0, 9.0, 1.0, 3.0])


def test_dim_matches_design_and_coordinates():
    rng = rng_for(201)
    for dim in (1, 2, 3):
        for degree in (0, 1, 2, 3, 4):
            for inter in (True, False):
                spec = identity_spec(degree, dim, include_interactions=inter)
                pts = rng.random((7, dim))
                mat = design_matrix(spec, pts)
                assert mat.shape == (7, spec.dim)
                assert len(column_coordinates(spec)) == spec.dim


def test_power_dim_formula():
    # continuous coordinates contribute `degree` monomials each, binary one,
    # plus intercept and optional pairwise interaction columns
    spec = identity_spec(3, 3)
    assert spec.dim == 1 + 3 * 3 + 3
    spec = identity_spec(3, 3, include_interactions=False)
    assert spec.dim == 1 + 3 * 3
    spec = identity_spec(3, 3, binary=(False, True, False))
    assert spec.dim == 1 + 3 + 1 + 3 + 3


def test_design_matrix_rows_are_pointwise():
    rng = rng_for(202)
    pts = rng.random((5, 3))
    spec = spec_for(pts, degree=3)
    mat = design_matrix(spec, pts)
    for i in range(5):
        np.testing.assert_array_equal(at_point(spec, pts[i]), mat[i])


def test_standardization_affine_identity():
    rng = rng_for(203)
    pts = 2.0 + 3.0 * rng.random((40, 2))
    spec = spec_for(pts, degree=3)
    std = spec.standardizer
    manual = (pts - std.center) / std.scale
    ident = BasisSpec(degree=spec.degree, input_dim=spec.input_dim,
                      standardizer=Standardizer.identity(2), binary=spec.binary)
    np.testing.assert_array_equal(design_matrix(spec, pts), design_matrix(ident, manual))


def test_design_matrix_does_not_mutate_points():
    rng = rng_for(204)
    pts = rng.random((10, 2))
    before = pts.copy()
    spec = spec_for(pts, degree=2)
    design_matrix(spec, pts)
    np.testing.assert_array_equal(pts, before)


def test_fit_standardizer_values():
    std = fit_standardizer(np.array([[0.0], [1.0]]))
    np.testing.assert_allclose(std.center, [0.5])
    np.testing.assert_allclose(std.scale, [0.5])
    std = fit_standardizer(np.array([[0.0], [1 / 3], [2 / 3], [1.0]]))
    np.testing.assert_allclose(std.scale, [np.sqrt(5.0) / 6.0], rtol=1e-12)
    std = fit_standardizer(np.full((4, 1), 2.5))
    np.testing.assert_allclose(std.center, [2.5])
    np.testing.assert_allclose(std.scale, [1.0])


def test_detect_binary():
    cols = np.column_stack([
        np.array([0.0, 1.0, 1.0, 0.0]),
        np.array([0.0, 1.0, 2.0, 0.0]),
        np.array([0.3, 0.7, 0.2, 0.9]),
    ])
    assert tuple(detect_binary(cols)) == (True, False, False)


def test_spec_for_detects_binary_and_standardizes():
    rng = rng_for(205)
    pts = np.column_stack([rng.random(50), (rng.random(50) < 0.5).astype(float)])
    spec = spec_for(pts, degree=3)
    assert tuple(spec.binary) == (False, True)
    # binary column contributes exactly one monomial
    assert spec.dim == 1 + 3 + 1 + 1


def test_bundle_default_dimensions(obs2000, bundle2000):
    assert bundle2000.q.dim == 39
    assert bundle2000.p.dim == 39
    assert [u.dim for u in bundle2000.u] == [6, 8, 10]
    assert bundle2000.q.input_dim == 7
    assert bundle2000.p.input_dim == 7
    assert [u.input_dim for u in bundle2000.u] == [3, 4, 5]


def test_bundle_outcome_chain_knobs(obs2000):
    b = build_spec_bundle(obs2000, SieveOptions(mu_degree=3, mu_interactions=True))
    for k, spec in enumerate(b.u, start=1):
        direct = spec_for(obs2000.mu_points(k), 3, True)
        assert spec.dim == direct.dim
        assert spec.degree == 3
        assert spec.include_interactions
    coarse = build_spec_bundle(obs2000)
    assert all(u.degree == 2 and not u.include_interactions for u in coarse.u)
    assert coarse.q.degree == 3 and coarse.q.include_interactions


def test_bundle_degree_knob(obs2000):
    b = build_spec_bundle(obs2000, SieveOptions(degree=2, include_interactions=False))
    assert b.q.degree == 2 and not b.q.include_interactions
    assert b.p.degree == 2 and not b.p.include_interactions


def test_spec_guards():
    from shadowpse.errors import DimensionMismatch, NonFiniteInput

    with pytest.raises(DimensionMismatch):
        identity_spec(-1, 2)
    with pytest.raises(DimensionMismatch):
        BasisSpec(degree=2, input_dim=2,
                  standardizer=Standardizer.identity(3))
    spec = identity_spec(2, 2)
    with pytest.raises(DimensionMismatch):
        design_matrix(spec, np.zeros((3, 4)))
    with pytest.raises(NonFiniteInput):
        design_matrix(spec, np.array([[1.0, np.nan]]))
