from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from shadowpse.data_model import Dataset
from shadowpse.errors import DimensionMismatch, NonFiniteInput
from shadowpse.sieve_basis import (
    SPAN_BLOCK_ROWS,
    BasisSpec,
    SieveOptions,
    Standardizer,
    build_spec_bundle,
    design_matrix,
    detect_binary,
    filled_design,
    fit_standardizer,
    nested_columns,
    spec_for,
)
from shadowpse.simulation import DgpConfig, generate

from support import rng_for, seq


def identity_spec(degrees, include_interactions=True):
    return BasisSpec(degrees=tuple(degrees), include_interactions=include_interactions,
                     standardizer=Standardizer.identity(len(degrees)))


def at_point(spec, point):
    return design_matrix(spec, np.asarray(point, dtype=float)[None])[0]


def test_power_single_coordinate_values():
    spec = identity_spec((3,))
    np.testing.assert_allclose(at_point(spec, [2.0]),
                               [1.0, 2.0, 4.0, 8.0], rtol=0, atol=0)


def test_power_degree_zero_is_intercept():
    spec = identity_spec((0, 0, 0))
    np.testing.assert_array_equal(at_point(spec, [4.0, 5.0, 6.0]), [1.0])


def test_pairwise_interaction_values():
    spec = identity_spec((1, 1))
    np.testing.assert_array_equal(at_point(spec, [3.0, 5.0]),
                                  [1.0, 3.0, 5.0, 15.0])


def test_binary_coordinate_capped_at_power_one():
    spec = identity_spec((2, 1))
    row = at_point(spec, [3.0, 1.0])
    np.testing.assert_array_equal(row, [1.0, 3.0, 9.0, 1.0, 3.0])
    # a degree-0 coordinate adds no column and no interaction
    row = at_point(identity_spec((2, 0, 1)), [3.0, 5.0, 7.0])
    np.testing.assert_array_equal(row, [1.0, 3.0, 9.0, 7.0, 21.0])


def test_dim_matches_design_and_coordinates():
    rng = rng_for(201)
    for dim in (1, 2, 3):
        uniform = [(degree,) * dim for degree in (0, 1, 2, 3, 4)]
        for degrees in uniform + list(product(range(3), repeat=dim)):
            for inter in (True, False):
                spec = identity_spec(degrees, include_interactions=inter)
                pts = rng.random((7, dim))
                mat = design_matrix(spec, pts)
                assert mat.shape == (7, spec.dim)
                assert spec.input_dim == dim
    assert identity_spec((2, 0, 1)).dim == 5


def test_power_dim_formula():
    # each coordinate contributes its degree in monomials, plus intercept
    # and optional pairwise interaction columns
    spec = identity_spec((3, 3, 3))
    assert spec.dim == 1 + 3 * 3 + 3
    spec = identity_spec((3, 3, 3), include_interactions=False)
    assert spec.dim == 1 + 3 * 3
    spec = identity_spec((3, 1, 3))
    assert spec.dim == 1 + 3 + 1 + 3 + 3


def test_design_matrix_rows_are_pointwise():
    rng = rng_for(202)
    pts = rng.random((5, 3))
    spec = spec_for(pts, degree=3, include_interactions=True)
    mat = design_matrix(spec, pts)
    for i in range(5):
        np.testing.assert_array_equal(at_point(spec, pts[i]), mat[i])


def test_standardization_affine_identity():
    rng = rng_for(203)
    pts = 2.0 + 3.0 * rng.random((40, 2))
    spec = spec_for(pts, degree=3, include_interactions=True)
    std = spec.standardizer
    manual = (pts - std.center) / std.scale
    ident = replace(spec, standardizer=Standardizer.identity(2))
    np.testing.assert_array_equal(design_matrix(spec, pts), design_matrix(ident, manual))


def test_design_matrix_does_not_mutate_points():
    rng = rng_for(204)
    pts = rng.random((10, 2))
    before = pts.copy()
    spec = spec_for(pts, degree=2, include_interactions=True)
    design_matrix(spec, pts)
    np.testing.assert_array_equal(pts, before)


def column_stack_design(spec, points):
    """design_matrix as a list of columns joined by np.column_stack: the
    intercept, per coordinate u then each power as the previous one
    times u, then the pair products."""
    u = spec.standardizer.apply(np.asarray(points, dtype=float).reshape(len(points), -1))
    cols = [np.ones(len(u))]
    for j, degree in enumerate(spec.degrees):
        power = u[:, j].copy()
        for _ in range(degree):
            cols.append(power)
            power = power * u[:, j]
    cols.extend(u[:, i] * u[:, j] for i, j in spec._pairs())
    return np.column_stack(cols)


@pytest.mark.parametrize("rows", [1, 2, 301, SPAN_BLOCK_ROWS - 1, SPAN_BLOCK_ROWS,
                                  SPAN_BLOCK_ROWS + 1, 2 * SPAN_BLOCK_ROWS + 7])
@pytest.mark.parametrize("inter", [True, False])
@pytest.mark.parametrize("degrees", [(3,), (0,), (3, 0, 2), (0, 0), (3, 1, 1, 3),
                                     (4, 1, 0, 2, 3)])
def test_design_matrix_equals_column_stack_reference(degrees, inter, rows):
    """Byte for byte, on standardized points with binary coordinates
    capped at power one by spec_for and on degrees that include 0, at
    row counts that fill one block, a block and a row, and several
    blocks."""
    pts = rng_for(206, len(degrees), rows).standard_normal((rows, len(degrees)))
    pts[:, [d == 1 for d in degrees]] = pts[:, [d == 1 for d in degrees]] > 0
    spec = spec_for(pts, degree=max(degrees), include_interactions=inter)
    spec = replace(spec, degrees=tuple(min(d, c) for d, c in zip(degrees, spec.degrees)))
    got, want = design_matrix(spec, pts), column_stack_design(spec, pts)
    assert got.shape == want.shape == (rows, spec.dim)
    assert got.dtype == want.dtype and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


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


def per_column_binary(points):
    """detect_binary's definition, one column at a time."""
    pts = np.asarray(points, dtype=float)
    pts = pts[:, None] if pts.ndim == 1 else pts
    return tuple(bool(np.isin(col[np.isfinite(col)], (0.0, 1.0)).all()) for col in pts.T)


@pytest.mark.parametrize("points", [
    np.array([[0.0, np.nan, 1.0, np.inf, -0.0, np.nan],
              [1.0, 1.0, 0.5, 0.0, 1.0, np.nan],
              [-0.0, np.nan, 1.0, -np.inf, 0.0, np.nan],
              [0.0, 0.0, 1.0, 1.0, 2.0, np.nan]]),
    np.array([0.0, 1.0, np.nan, -0.0]),
    np.array([0.0, 1.0, 0.3]),
    np.zeros((0, 3)),
    np.zeros((5, 0)),
], ids=["special values", "one column", "not binary", "no rows", "no columns"])
def test_detect_binary_equals_the_per_column_definition(points):
    """One pass over every coordinate gives, per coordinate, whether all
    its finite values lie in {0, 1}: NaN and +-inf are not observed
    values, -0.0 is 0 and an all-NaN column is binary."""
    assert detect_binary(points) == per_column_binary(points)


def test_spec_for_detects_binary_and_standardizes():
    rng = rng_for(205)
    pts = np.column_stack([rng.random(50), (rng.random(50) < 0.5).astype(float)])
    spec = spec_for(pts, degree=3, include_interactions=True)
    assert spec.degrees == (3, 1)
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
        assert spec.degrees == direct.degrees and max(spec.degrees) == 3
        assert spec.include_interactions
    coarse = build_spec_bundle(obs2000)
    assert all(max(u.degrees) == 2 and not u.include_interactions for u in coarse.u)
    assert max(coarse.q.degrees) == 3 and coarse.q.include_interactions


@pytest.mark.parametrize("x_miss, x_obs", [(1, 2), (1, 0), (0, 1), (0, 0)])
@pytest.mark.parametrize("sieve", [SieveOptions(), SieveOptions(mu_degree=3, mu_interactions=True)])
def test_outcome_chain_specs_equal_per_level_fits(x_miss, x_obs, sieve, obs600):
    """Each u_k sliced from the one level K+1 fit equals spec_for on the
    level k points, degrees bit for bit and standardizer to rounding:
    numpy sums a lone column pairwise but the columns of a wider block
    row by row, so a one-coordinate level's mean and sd may differ from
    its own fit's in the last bits. Every other level matches exactly."""
    ds = Dataset(r=obs600.r, z=obs600.z, x_miss=obs600.x_miss[:, :x_miss],
                 x_obs=obs600.x_obs[:, :x_obs], a=obs600.a, m=obs600.m, y=obs600.y)
    bundle = build_spec_bundle(ds, sieve)
    for k, spec in enumerate(bundle.u, start=1):
        own = spec_for(ds.mu_points(k), sieve.mu_degree, sieve.mu_interactions)
        if spec.input_dim != 1:
            assert spec == own
            continue
        assert (spec.degrees, spec.include_interactions) == (own.degrees, own.include_interactions)
        for got, want in ((spec.standardizer.center, own.standardizer.center),
                          (spec.standardizer.scale, own.standardizer.scale)):
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


@pytest.mark.parametrize("sieve", [SieveOptions(), SieveOptions(mu_degree=3, mu_interactions=True)])
def test_nested_columns_pick_each_level_design_out_of_the_top_one(sieve, obs600):
    """Every u_k design is the level K+1 design's nested_columns, bit for
    bit: a prefix without interactions, a subset with them. A spec that is
    not the top one cut to its leading coordinates is refused."""
    bundle = build_spec_bundle(obs600, sieve)
    top = design_matrix(bundle.u[-1], obs600.mu_points(obs600.k + 1))
    for k, spec in enumerate(bundle.u, start=1):
        cols = nested_columns(bundle.u[-1], spec)
        assert top[:, cols].tobytes() == design_matrix(spec, obs600.mu_points(k)).tobytes()
        assert (list(cols) == list(range(spec.dim))) == (k == obs600.k + 1 or not sieve.mu_interactions)
    with pytest.raises(DimensionMismatch):
        nested_columns(bundle.u[-1], replace(bundle.u[0], include_interactions=not sieve.mu_interactions))


def test_bundle_degree_knob(obs2000):
    b = build_spec_bundle(obs2000, SieveOptions(degree=2, include_interactions=False))
    assert max(b.q.degrees) == 2 and not b.q.include_interactions
    assert max(b.p.degrees) == 2 and not b.p.include_interactions


def test_spec_guards():
    from shadowpse.errors import DimensionMismatch, NonFiniteInput

    with pytest.raises(DimensionMismatch):
        identity_spec((-1, -1))
    with pytest.raises(DimensionMismatch):
        identity_spec((2, -1))
    with pytest.raises(DimensionMismatch):
        BasisSpec(degrees=(2, 2), include_interactions=True,
                  standardizer=Standardizer.identity(3))
    spec = identity_spec((2, 2))
    with pytest.raises(DimensionMismatch):
        design_matrix(spec, np.zeros((3, 4)))
    with pytest.raises(NonFiniteInput):
        design_matrix(spec, np.array([[1.0, np.nan]]))


def fill_stack(ds, b, key: int):
    """b completed copies of ds's x_miss block, each with its own normal
    draws on the incomplete records."""
    stack = np.repeat(ds.x_miss[None], b, axis=0)
    miss = ds.r == 0
    stack[:, miss] = rng_for(207, key).standard_normal((b, int(miss.sum()), ds.dims.x_miss))
    return stack


def widened(ds):
    """ds with a second x_miss column, missing where the first is."""
    extra = np.where(ds.r[:, None] == 1, np.sin(3 * ds.x_miss) + ds.z, np.nan)
    return replace(ds, x_miss=np.hstack([ds.x_miss, extra]), columns={})


RICH = SieveOptions(mu_degree=3, mu_interactions=True)


@pytest.mark.parametrize("key, case, sieve", [
    (1, "observed", SieveOptions()), (2, "observed", RICH), (3, "x_miss of width 2", RICH),
    (4, "x_miss of width 0", SieveOptions()), (5, "no missing record", RICH)],
    ids=["default sieve", "cubic with interactions", "x_miss of width 2",
         "x_miss of width 0", "no missing record"])
def test_stacked_chain_spec_and_design_equal_each_slice_alone(key, case, sieve, obs600, comp600):
    """One chain spec, fitted on the first completed sample, has the
    degrees and interactions each sample's own fit gives, so it spans
    the same space at that sample's points, whatever the centers and
    scales. The filled design, which writes the shared columns once,
    equals bit for bit design_matrix of that spec at each sample."""
    ds = {"observed": obs600, "x_miss of width 2": widened(obs600),
          "x_miss of width 0": replace(obs600, x_miss=np.zeros((obs600.n, 0)), columns={}),
          "no missing record": comp600}[case]
    stack = fill_stack(ds, 3, key)
    template = replace(ds, x_miss=stack[0], r=np.ones(ds.n, dtype=int))
    spec = build_spec_bundle(template, sieve).u[-1]
    design = filled_design(spec, template.mu_points(template.k + 1), stack)
    assert design.shape == (3, ds.n, spec.dim)
    for i in range(3):
        own = replace(template, x_miss=stack[i])
        own_spec = build_spec_bundle(own, sieve).u[-1]
        assert (own_spec.degrees, own_spec._pairs()) == (spec.degrees, spec._pairs())
        assert design[i].tobytes() == design_matrix(spec, own.mu_points(own.k + 1)).tobytes()


def test_filled_design_refuses_fills_that_do_not_fit(obs600):
    """Fills must be a stack with one row per point, no wider than the
    spec, and finite."""
    stack = fill_stack(obs600, 2, 6)
    template = replace(obs600, x_miss=stack[0], r=np.ones(obs600.n, dtype=int))
    spec = build_spec_bundle(template, SieveOptions()).u[-1]
    points = template.mu_points(template.k + 1)
    for bad in (stack[:, 1:], stack[0], np.zeros((2, len(points), spec.input_dim + 1))):
        with pytest.raises(DimensionMismatch):
            filled_design(spec, points, bad)
    stack[1, 4, 0] = np.nan
    with pytest.raises(NonFiniteInput):
        filled_design(spec, points, stack)
