"""One SampleDesigns per pipeline run: each design is built once and
shared across stages and profiles without changing any result."""

import hashlib
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from shadowpse import baselines, inference, series_regression, sieve_basis
from shadowpse.baselines import MethodOptions, cca_estimate, mi_estimate, sri_estimate
from shadowpse.data_model import Dataset, complete_cases
from shadowpse.errors import DimensionMismatch
from shadowpse.estimator import fit_mu_chains, named_estimand
from shadowpse.gamma_solver import GammaModel, fit_gamma
from shadowpse.inference import analyze_profiles, fit_omega_levels, fit_omegas, fit_representer
from shadowpse.series_regression import RunFits, SampleDesigns
from shadowpse.sieve_basis import SieveOptions, build_spec_bundle

from support import rng_for

DEFAULT_PROFILES = [(1, 1, 1), (0, 0, 0), (0, 0, 1), (0, 1, 1)]


def record_calls(monkeypatch, original, record) -> list:
    """Append record(args, kwargs) for every call of original, under every
    module-level name in the package that binds it."""
    seen = []

    def counting(*args, **kwargs):
        seen.append(record(args, kwargs))
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if mod is not None and name.startswith("shadowpse"):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counting)
    return seen


def count_spans(monkeypatch) -> list:
    """Record (shape, content digest) of every matrix a span is built
    over: orthonormal_span and the conditioning span both pass through
    _span_in_place, and the digest is taken before it writes."""
    def digest(args, kwargs):
        matrix = np.ascontiguousarray(args[0])
        return matrix.shape, hashlib.sha256(matrix.tobytes()).hexdigest()

    return record_calls(monkeypatch, series_regression._span_in_place, digest)


def count_odds_evaluations(monkeypatch) -> list:
    original = GammaModel.values
    calls = []

    def counting(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(GammaModel, "values", counting)
    return calls


def test_sri_factors_each_design_once(monkeypatch, obs2000, bundle2000):
    """One tall span per design: the conditioning design over every
    record and the level K+1 outcome-chain design over the complete
    cases; every lower level's basis is derived from the latter's."""
    spans = count_spans(monkeypatch)
    odds = count_odds_evaluations(monkeypatch)
    sri_estimate(obs2000)

    conditioning = [s for s in spans if s[0] == (obs2000.n, bundle2000.p.dim)]
    assert len(conditioning) == 1
    n_cc = int(obs2000.complete_mask.sum())
    assert [shape for shape, _ in spans if shape[0] == n_cc] == [(n_cc, bundle2000.u[-1].dim)]
    assert len(odds) == 1


def test_cca_never_factors_the_conditioning_design(monkeypatch, obs2000):
    cc = complete_cases(obs2000)
    bundle = build_spec_bundle(cc)
    spans = count_spans(monkeypatch)
    cca_estimate(obs2000)
    assert [shape for shape, _ in spans if shape[0] == cc.n] == [(cc.n, bundle.u[-1].dim)]
    assert not [s for s in spans if s[0][1] == bundle.p.dim]


def test_shared_designs_match_fresh_designs_bit_for_bit(obs2000, bundle2000, gamma2000):
    model, _ = gamma2000
    profiles = sorted({prof for name in ("nde", "nie_1", "nie_2", "te")
                       for prof in named_estimand(name, 2)})
    assert len(profiles) == 4
    designs = SampleDesigns(obs2000, bundle2000)
    odds = model.values(designs)
    shared = RunFits(designs, odds)
    for prof in profiles:
        a = analyze_profiles(shared, [prof])
        b = analyze_profiles(RunFits(SampleDesigns(obs2000, bundle2000), odds), [prof])
        assert a[0] == b[0]
        assert a[1].tobytes() == b[1].tobytes()


def test_designs_must_match_the_dataset(obs600, obs2000, bundle2000):
    """Odds values with one entry per complete case of another dataset
    are refused by the run they are bound to, before any stage reads
    them."""
    n_cc = int(obs600.complete_mask.sum())
    with pytest.raises(DimensionMismatch):
        RunFits(SampleDesigns(obs2000, bundle2000), np.zeros(n_cc))
    with pytest.raises(DimensionMismatch):
        RunFits(SampleDesigns(obs2000, bundle2000), np.zeros(obs2000.n))


def constant_x_miss(ds: Dataset) -> Dataset:
    """ds with the observed x_miss set to a constant, which zeroes every
    outcome-chain and odds basis column built from it; the conditioning
    basis does not see x_miss and keeps its full rank."""
    out = ds.subset(np.ones(ds.n, dtype=bool))
    out.x_miss = np.where(ds.complete_mask[:, None], 0.5, np.nan)
    return out


def fresh_u(designs: SampleDesigns, k: int) -> np.ndarray:
    """The level-k outcome-chain design, built on its own."""
    return sieve_basis.design_matrix(designs.bundle.u[k - 1], designs.ds.mu_points(k))


def whole_matrix_span(mat: np.ndarray) -> np.ndarray:
    """CholeskyQR2 as two whole-matrix products m @ T, each T from the
    eigenpairs of m' m above SPAN_EIG_RTOL times the largest."""
    m = mat
    for _ in range(2):
        w, v = np.linalg.eigh(m.T @ m)
        keep = w > max(w[-1], 0.0) * series_regression.SPAN_EIG_RTOL
        m = m @ (v[:, keep] / np.sqrt(w[keep]))
    return m


@pytest.mark.parametrize("n, deficient", [(2000, False), (20000, False), (20000, True)])
def test_conditioning_span_built_in_place_matches_fresh_spans(n, deficient, obs2000, obs20000):
    """p_span, built over its design's buffer in row blocks with the
    complete cases first, is byte-equal to orthonormal_span of a fresh
    design in that row order and to whole-matrix products; p_span_cc is
    its leading block, a read-only view holding the complete cases' rows."""
    ds = obs2000 if n == 2000 else obs20000
    if deficient:  # a constant z zeroes every p column built from it
        ds = ds.subset(np.ones(ds.n, dtype=bool))
        ds.z = np.full_like(ds.z, 0.3)
    designs = SampleDesigns(ds, build_spec_bundle(ds))
    order = np.argsort(ds.r == 0, kind="stable")
    design = sieve_basis.design_matrix(designs.bundle.p, ds.conditioning_points()[order])
    span = designs.p_span
    assert (n > sieve_basis.SPAN_BLOCK_ROWS) == (n == 20000)
    assert (span.shape[1] < design.shape[1]) == deficient
    for want in (series_regression.orthonormal_span(design), whole_matrix_span(design)):
        assert span.shape == want.shape
        assert span.tobytes() == want.tobytes()
    span_cc = designs.p_span_cc
    assert span_cc.tobytes() == span[ds.r[order] == 1].tobytes()
    assert np.shares_memory(span_cc, span)
    assert not span_cc.flags.writeable


def test_second_sri_estimate_peaks_under_three_and_a_half_designs(obs20000):
    """tracemalloc's peak over a repeated sri_estimate, which counts every
    numpy array, stays at most 3.5 conditioning designs of n x p.dim
    doubles: the span is built over its design, and no copy of its
    complete-case rows outlives its reader."""
    p_dim = build_spec_bundle(obs20000).p.dim
    sri_estimate(obs20000)
    tracemalloc.start()
    try:
        sri_estimate(obs20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * obs20000.n * p_dim * 8


def test_second_cca_estimate_peaks_under_eight_chain_designs(obs20000):
    """tracemalloc's peak over a repeated cca_estimate stays under 8 level
    K+1 outcome-chain designs of n_cc x dim doubles: the run keeps one
    span of that design, built over its buffer, and no per-level design
    or span."""
    dim = build_spec_bundle(obs20000).u[-1].dim
    n_cc = int(obs20000.complete_mask.sum())
    cca_estimate(obs20000)
    tracemalloc.start()
    try:
        cca_estimate(obs20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n_cc * dim * 8


def test_odds_fit_reads_the_conditioning_span_in_place(obs20000):
    """With the designs built, the tracemalloc peak of fit_gamma stays
    under half the bytes of p_span_cc: the fit reads the complete-case
    rows as a view, and sums its Jacobian and Hessian products over row
    blocks, so it makes no array of a row per complete case and a column
    per basis function."""
    designs = SampleDesigns(obs20000, build_spec_bundle(obs20000))
    span_cc = designs.p_span_cc
    assert designs.q.shape[0] == len(span_cc)
    tracemalloc.start()
    try:
        fit_gamma(designs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < span_cc.nbytes / 2


def test_fit_ranks_are_real_on_rank_deficient_designs(obs600):
    ds = constant_x_miss(obs600)
    designs = SampleDesigns(ds, build_spec_bundle(ds))
    gamma = 0.5 + 0.1 * np.tanh(designs.y_cc)

    omegas = fit_omegas(RunFits(designs, gamma), (0, 1, 1))
    for k, coef in enumerate(omegas.cumulative, start=1):
        rank = np.linalg.matrix_rank(fresh_u(designs, k))
        assert rank < designs.bundle.u[k - 1].dim == coef.size
        assert designs.chain[k - 1].rank == rank

    rho, _ = fit_representer(designs, designs.y_cc)
    rank = np.linalg.matrix_rank(designs.p_span_cc.T @ designs.q)
    assert rank < designs.bundle.q.dim == rho.size
    assert designs.representer_system.rank == rank


def reshaped(ds: Dataset, x_miss: int, x_obs: int, m: tuple) -> Dataset:
    """ds with its x_miss, x_obs and mediator blocks cut or widened to the
    given widths; a widened block gets seeded normal columns, and an
    added x_miss column is missing where x_miss is. The columns get the
    default names of the new widths."""
    rng = rng_for(2801, x_miss, x_obs, *m)

    def block(cols: np.ndarray, width: int, missing: bool = False) -> np.ndarray:
        extra = rng.standard_normal((ds.n, max(width - cols.shape[1], 0)))
        if missing:
            extra[~ds.complete_mask] = np.nan
        return np.hstack([cols[:, :width], extra])

    return replace(ds, x_miss=block(ds.x_miss, x_miss, True), x_obs=block(ds.x_obs, x_obs),
                   m=tuple(block(mk, width) for mk, width in zip(ds.m, m)), columns={})


@pytest.mark.parametrize("case", ["default", "interactions", "one-coordinate x",
                                  "vector blocks", "constant x_miss"])
def test_level_spans_derived_from_the_top_span_match_fresh_spans(case, obs600):
    """Each level's basis S M_k, derived from the one span S of the level
    K+1 outcome-chain design, projects like orthonormal_span of the
    level's own fresh design, within 1e-12, has its rank (matrix_rank of
    the fresh design), and S (R_k c) is the fresh design times c."""
    ds, sieve = obs600, SieveOptions()
    if case == "interactions":  # a lower level's columns are a subset, not a prefix
        sieve = SieveOptions(mu_degree=3, mu_interactions=True)
    elif case == "one-coordinate x":
        ds = reshaped(obs600, 1, 0, obs600.dims.m)
    elif case == "vector blocks":
        ds = reshaped(obs600, 2, obs600.dims.x_obs, (2, 1))
    elif case == "constant x_miss":
        ds = constant_x_miss(obs600)
    designs = SampleDesigns(ds, build_spec_bundle(ds, sieve))
    values = rng_for(2802).standard_normal((designs.n_cc, 3))
    prefixes = []
    for k, level in enumerate(designs.chain, start=1):
        fresh = fresh_u(designs, k)
        rank = np.linalg.matrix_rank(fresh)
        want = series_regression.orthonormal_span(fresh)
        basis = level.span @ level.rotation
        assert basis.shape == want.shape == (designs.n_cc, rank)
        assert level.rank == rank
        got, expected = basis @ (basis.T @ values), want @ (want.T @ values)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
        fitted = fresh @ rng_for(2803, k).standard_normal(fresh.shape[1])
        coef = np.linalg.lstsq(fresh, fitted, rcond=None)[0]
        assert np.max(np.abs(level.fitted(coef) - fitted)) <= 1e-12 * np.max(np.abs(fitted))
        cols = sieve_basis.nested_columns(designs.bundle.u[-1], designs.bundle.u[k - 1])
        prefixes.append(list(cols) == list(range(len(cols))))
    assert all(prefixes) == (case != "interactions")
    if case == "constant x_miss":
        assert all(level.rank < level.coupling.shape[1] for level in designs.chain)


@pytest.mark.parametrize("estimate", [sri_estimate, cca_estimate])
def test_each_nuisance_is_fitted_once_per_run(estimate, monkeypatch, obs2000):
    """The default estimands read four profiles; their mu chains share 9
    distinct fits and their omegas 4, all solved against 6 weighted
    systems (one per level and arm) made from 2 weighted Gram matrices
    of the chain span (one per arm), and their 9 cumulative products
    against the 3 unweighted ones (one per level). Every fit is solved
    from the coordinates of its right-hand side in the span, and no SVD
    or least-squares solve runs on a matrix with a row per complete case."""
    levels = record_calls(monkeypatch, series_regression.span_least_squares, lambda a, kw: None)
    weighted = series_regression.SpanLeastSquares.weighted
    grams = []

    def counting_weighted(self, weights, gram):
        grams.append(id(gram))
        return weighted(self, weights, gram)

    monkeypatch.setattr(series_regression.SpanLeastSquares, "weighted", counting_weighted)
    solve = series_regression.SpanLeastSquares.solve_coordinates
    solves = []

    def counting_solve(self, coords):
        solves.append(self.weights is not None)
        return solve(self, coords)

    monkeypatch.setattr(series_regression.SpanLeastSquares, "solve_coordinates", counting_solve)
    fit_levels = inference.fit_omega_levels
    omegas = []

    def recording(run, profiles):
        omegas.extend(fit_levels(run, profiles))
        return omegas

    monkeypatch.setattr(inference, "fit_omega_levels", recording)
    rows = []
    for name in ("svd", "lstsq"):
        original = getattr(np.linalg, name)

        def counting(matrix, *args, _original=original, **kwargs):
            rows.append(np.shape(matrix)[0])
            return _original(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    res = estimate(obs2000)
    assert sorted(res.profiles) == sorted(DEFAULT_PROFILES)
    n_cc = int(obs2000.complete_mask.sum())
    fitted = {id(coef) for om in omegas for coef in om.omega if coef is not None}
    assert (len(grams), len(set(grams)), solves.count(True), len(fitted)) == (6, 2, 9, 4)
    assert (len(levels), solves.count(False)) == (3, 9)
    assert rows and n_cc not in rows


def test_one_tall_product_per_stage_pass(monkeypatch, obs2000):
    """A default sri run passes over the sample in 9 tall products: the
    two arms' Gram matrices; one projection that starts both the mu
    chain (S' W_a y) and the omega fits (S' W_a 1); every mu fit's
    values; the omega values; the cumulative products' projection and
    their fits' values; q' phi; and the representer term of the
    influence values. Fitting the four profiles one at a time, each fit
    with its own products, took 56."""
    shapes = record_calls(monkeypatch, series_regression.tall,
                          lambda a, kw: (np.shape(a[0]), np.shape(a[1])))
    sri_estimate(obs2000)
    assert len(shapes) == 9
    n_cc = int(obs2000.complete_mask.sum())
    assert all(obs2000.n in left + right or n_cc in left + right for left, right in shapes)


@pytest.mark.parametrize("method", ["cca", "mi"])
def test_zero_odds_runs_fit_only_the_outcome_chain_bases(method, monkeypatch, obs600):
    """One spec_for per call, on the level K+1 outcome-chain points: the
    conditioning and odds bases are never fitted. mi fits its one bundle
    on the first completed dataset and uses it for every imputation,
    however many batches it runs (here two, of one imputation each)."""
    widths = record_calls(monkeypatch, sieve_basis.spec_for,
                          lambda a, kw: np.shape(a[0] if a else kw["points"])[-1])
    if method == "cca":
        cca_estimate(obs600)
    else:
        monkeypatch.setattr(baselines, "_BATCH_BYTES", 1)
        mi_estimate(obs600, options=MethodOptions(mi_m=2), seed=3)
    assert widths == [obs600.mu_points(obs600.k + 1).shape[1]]


def analysis_bytes(run: RunFits) -> bytes:
    """Every array and figure of the default profiles' analysis, as bytes."""
    psi, if_values = analyze_profiles(run, DEFAULT_PROFILES)
    arrays = [if_values, np.array(psi)]
    for fits in fit_mu_chains(run, DEFAULT_PROFILES):
        arrays += fits.mu
    for omegas in fit_omega_levels(run, DEFAULT_PROFILES):
        arrays += omegas.cumulative + [coef for coef in omegas.omega if coef is not None]
    return b"".join(np.ascontiguousarray(arr).tobytes() for arr in arrays)


@pytest.mark.parametrize("odds", ["zero then model", "array then array",
                                  "one array changed in place"])
def test_fits_never_outlive_their_odds(odds, obs2000, bundle2000, gamma2000):
    """Runs under two odds in turn on one SampleDesigns give what a fresh
    SampleDesigns per run gives, byte for byte: the designs hold nothing
    made under the odds. A run freezes its odds, so they cannot change
    under its fits."""
    shared = SampleDesigns(obs2000, bundle2000)
    flat = np.full(shared.n_cc, 0.5)
    tilted = 0.5 + 0.1 * np.tanh(shared.y_cc)
    if odds == "zero then model":
        pair = (np.zeros(shared.n_cc), gamma2000[0].values(shared))
    elif odds == "array then array":
        pair = (flat, tilted)
    else:
        pair = (flat.copy(),) * 2
    for values in pair:
        run = RunFits(shared, values)
        fresh = RunFits(SampleDesigns(obs2000, bundle2000), values)
        assert analysis_bytes(run) == analysis_bytes(fresh)
        if odds == "one array changed in place":
            with pytest.raises(ValueError):
                values[:] = tilted


def test_shared_fits_are_read_only(obs2000, bundle2000, gamma2000):
    """Every coefficient and fitted array the profiles' fits hold is
    read-only, and the profiles share each distinct fit: no profile can
    write into the fits another profile reads. The four default profiles
    hold 9 distinct mu fits, 4 omega fits and 9 cumulative fits, each
    fitted array a row of its stage's one stack."""
    designs = SampleDesigns(obs2000, bundle2000)
    run = RunFits(designs, gamma2000[0].values(designs))
    chains = fit_mu_chains(run, DEFAULT_PROFILES)
    omegas = fit_omega_levels(run, DEFAULT_PROFILES)
    arrays = {"mu": {}, "mu values": {}, "omega": {}, "cumulative": {}, "cumulative values": {}}
    for fits, om in zip(chains, omegas):
        for kind, held in (("mu", fits.mu), ("mu values", fits.values),
                           ("omega", [c for c in om.omega if c is not None]),
                           ("cumulative", om.cumulative),
                           ("cumulative values", om.cumulative_values)):
            # a coefficient array is shared as one object, a row of values by its address
            arrays[kind].update((arr.ctypes.data if "values" in kind else id(arr), arr)
                                for arr in held)
    assert {kind: len(held) for kind, held in arrays.items()} == {
        "mu": 9, "mu values": 9, "omega": 4, "cumulative": 9, "cumulative values": 9}
    for kind in ("mu values", "cumulative values"):
        assert len({id(arr.base) for arr in arrays[kind].values()}) == 1
    assert not any(arr.flags.writeable for held in arrays.values() for arr in held.values())


def fresh_representer(designs: SampleDesigns, phi: np.ndarray):
    """One profile's representer solved on its own, at the ridge the rule
    gives for the dataset's n: coefficients, criterion value and rank of
    the projected odds design."""
    n = designs.ds.n
    gmat = designs.p_span_cc.T @ designs.q
    rhs = designs.q.T @ phi
    gram = gmat.T @ gmat
    ridge = series_regression.representer_ridge(n)
    eps = ridge * max(float(np.trace(gram)) / gram.shape[0], 1.0)
    factor = scipy.linalg.cho_factor(gram + eps * np.eye(gram.shape[0]), lower=True)
    coef = scipy.linalg.cho_solve(factor, rhs)
    proj = gmat @ coef
    value = 0.5 * float(proj @ proj) / n - float(rhs @ coef) / n
    return coef, value, int(np.linalg.matrix_rank(gmat))


def test_representer_system_is_factored_once_per_run(monkeypatch, obs2000):
    """The four default profiles solve against one factored representer
    system, in one solve with a column per profile, and each column
    equals a fresh per-profile solve within 1e-12 relative."""
    builds = record_calls(monkeypatch, series_regression.ridge_system, lambda a, kw: None)
    cho_factor = scipy.linalg.cho_factor
    factored = []

    def counting_factor(matrix, *args, **kwargs):
        factored.append(np.shape(matrix))
        return cho_factor(matrix, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cho_factor", counting_factor)
    fit = inference.fit_representer
    solved = []

    def recording(designs, phi, *args, **kwargs):
        out = fit(designs, phi, *args, **kwargs)
        solved.append((phi, designs, out))
        return out

    monkeypatch.setattr(inference, "fit_representer", recording)
    sri_estimate(obs2000)
    (phi, designs, (rho, value)), = solved
    dim_q = designs.bundle.q.dim
    assert phi.shape == (len(DEFAULT_PROFILES), designs.n_cc)
    assert rho.shape == (dim_q, len(DEFAULT_PROFILES)) and value.shape == (len(DEFAULT_PROFILES),)
    assert len(builds) == 1
    assert factored.count((dim_q, dim_q)) == 1
    for j, phi_j in enumerate(phi):
        coef, want_value, rank = fresh_representer(designs, phi_j)
        assert np.max(np.abs(rho[:, j] - coef)) <= 1e-12 * np.max(np.abs(coef))
        assert abs(value[j] - want_value) <= 1e-12 * abs(want_value)
        assert designs.representer_system.rank == rank


def standalone_chain(designs: SampleDesigns, odds: np.ndarray, prof) -> list:
    """The mu_k coefficients and ranks of one profile under complete-case
    odds, each from np.linalg.lstsq on its sqrt(w)-weighted design."""
    ds = designs.ds
    cc = ds.complete_mask
    fits = [None] * (ds.k + 1)
    response = ds.y[cc]
    for k in range(ds.k + 1, 0, -1):
        sw = np.sqrt(np.where(ds.a[cc] == prof[k - 1], 1.0 + odds, 0.0))
        design = fresh_u(designs, k)
        coef, _, rank, _ = np.linalg.lstsq(design * sw[:, None], response * sw, rcond=None)
        fits[k - 1] = (coef, rank)
        response = design @ coef
    return fits


def assert_pure(designs: SampleDesigns, odds: np.ndarray, profiles) -> list:
    """Every shared mu fit of the profiles agrees with np.linalg.lstsq on
    its weighted design to 1e-10 relative, and every cumulative fit with
    np.linalg.lstsq on u(k) to 1e-12 relative; each system the fits are
    solved against has lstsq's rank. Returns the lstsq ranks of the
    cumulative fits."""
    ranks = []
    run = RunFits(designs, odds)
    chains, levels = fit_mu_chains(run, profiles), fit_omega_levels(run, profiles)
    for prof, fits, omegas in zip(profiles, chains, levels):
        want = standalone_chain(designs, odds, prof)
        for k, (got, (coef, rank)) in enumerate(zip(fits.mu, want), start=1):
            assert np.max(np.abs(got - coef)) <= 1e-10 * np.max(np.abs(coef))
            assert run.arm_lstsq(k, prof[k - 1]).rank == rank
        product = np.ones(designs.n_cc)
        for k, got in enumerate(omegas.cumulative, start=1):
            omega, design = omegas.omega[k - 1], fresh_u(designs, k)
            if omega is not None:
                product = product * np.maximum(design @ omega, inference.OMEGA_FLOOR)
            coef, _, rank, _ = np.linalg.lstsq(design, product, rcond=None)
            assert np.max(np.abs(got - coef)) <= 1e-12 * np.max(np.abs(coef))
            assert designs.chain[k - 1].rank == rank
            ranks.append(int(rank))
    return ranks


@pytest.mark.parametrize("method", ["sri", "cca"])
def test_shared_factors_are_pure(method, obs2000, gamma2000):
    """Solving the mu fits and the cumulative fits through the spans
    gives the least-squares fits."""
    ds = obs2000 if method == "sri" else complete_cases(obs2000)
    designs = SampleDesigns(ds, build_spec_bundle(ds))
    odds = gamma2000[0].values(designs) if method == "sri" else np.zeros(designs.n_cc)
    ranks = assert_pure(designs, odds, DEFAULT_PROFILES)
    assert len(ranks) == 3 * len(DEFAULT_PROFILES)


def test_shared_factors_are_pure_on_rank_deficient_designs(obs600):
    ds = constant_x_miss(obs600)
    designs = SampleDesigns(ds, build_spec_bundle(ds))
    ranks = assert_pure(designs, 0.5 + 0.1 * np.tanh(designs.y_cc), DEFAULT_PROFILES)
    dims = [spec.dim for spec in build_spec_bundle(ds).u]
    assert all(rank < dims[i % len(dims)] for i, rank in enumerate(ranks))
