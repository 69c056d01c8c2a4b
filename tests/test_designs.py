"""One SampleDesigns per pipeline run: each design is built once and
shared across stages and profiles without changing any result."""

import hashlib
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.linalg

from shadowpse import inference, series_regression, sieve_basis
from shadowpse.baselines import cca_estimate, mi_estimate, sri_estimate
from shadowpse.data_model import Dataset, complete_cases
from shadowpse.errors import DimensionMismatch
from shadowpse.estimator import named_estimand
from shadowpse.gamma_solver import GammaModel, fit_gamma
from shadowpse.inference import analyze_profile, fit_omegas, fit_representer
from shadowpse.series_regression import RunFits, SampleDesigns
from shadowpse.sieve_basis import build_spec_bundle

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
    spans = count_spans(monkeypatch)
    odds = count_odds_evaluations(monkeypatch)
    sri_estimate(obs2000)

    conditioning = [s for s in spans if s[0] == (obs2000.n, bundle2000.p.dim)]
    assert len(conditioning) == 1
    n_cc = int(obs2000.complete_mask.sum())
    chain = Counter(digest for shape, digest in spans if shape[0] == n_cc)
    assert chain and max(chain.values()) == 1
    assert len(odds) == 1


def test_cca_never_factors_the_conditioning_design(monkeypatch, obs2000):
    cc = complete_cases(obs2000)
    p_dim = build_spec_bundle(cc).p.dim
    spans = count_spans(monkeypatch)
    cca_estimate(obs2000)
    assert spans
    assert not [s for s in spans if s[0][1] == p_dim]


def test_shared_designs_match_fresh_designs_bit_for_bit(obs2000, bundle2000, gamma2000):
    model, _ = gamma2000
    profiles = sorted({prof for name in ("nde", "nie_1", "nie_2", "te")
                       for prof in named_estimand(name, 2)})
    assert len(profiles) == 4
    designs = SampleDesigns(obs2000, bundle2000)
    odds = model.values(designs)
    shared = RunFits(designs, odds)
    for prof in profiles:
        a = analyze_profile(shared, prof)
        b = analyze_profile(RunFits(SampleDesigns(obs2000, bundle2000), odds), prof)
        assert a.psi_hat == b.psi_hat
        assert a.if_values.tobytes() == b.if_values.tobytes()


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
    for k, reg in enumerate(omegas.cumulative, start=1):
        rank = np.linalg.matrix_rank(designs.u(k))
        assert rank < reg.spec.dim
        assert reg.diagnostics.rank == rank

    rho, _ = fit_representer(designs, designs.y_cc)
    rank = np.linalg.matrix_rank(designs.p_span_cc.T @ designs.q)
    assert rank < rho.spec.dim
    assert rho.diagnostics.rank == rank


@pytest.mark.parametrize("estimate", [sri_estimate, cca_estimate])
def test_each_nuisance_is_fitted_once_per_run(estimate, monkeypatch, obs2000):
    """The default estimands read four profiles; their mu chains share 9
    distinct fits and their omegas 4, all solved against 6 weighted span
    systems (one per level and arm), and their 9 cumulative products
    against 3 unweighted ones (one per level). No SVD or least-squares
    solve runs on a matrix with a row per complete case."""
    systems = record_calls(monkeypatch, series_regression.span_least_squares,
                           lambda a, kw: (a[2] if len(a) > 2 else kw.get("weights")) is not None)
    omegas = record_calls(monkeypatch, inference._fit_omega, lambda a, kw: None)
    solve = series_regression.SpanLeastSquares.solve
    solves = []

    def counting_solve(self, values):
        solves.append(self.weights is not None)
        return solve(self, values)

    monkeypatch.setattr(series_regression.SpanLeastSquares, "solve", counting_solve)
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
    assert (systems.count(True), solves.count(True), len(omegas)) == (6, 9, 4)
    assert (systems.count(False), solves.count(False)) == (3, 9)
    assert rows and n_cc not in rows


@pytest.mark.parametrize("method", ["cca", "mi"])
def test_zero_odds_runs_fit_only_the_outcome_chain_bases(method, monkeypatch, obs600):
    """One spec_for per bundle, on the level K+1 outcome-chain points:
    the conditioning and odds bases are never fitted."""
    widths = record_calls(monkeypatch, sieve_basis.spec_for,
                          lambda a, kw: np.shape(a[0] if a else kw["points"])[1])
    if method == "cca":
        cca_estimate(obs600)
        bundles = 1
    else:
        mi_estimate(obs600, m=2, seed=3)
        bundles = 2
    assert widths == [obs600.mu_points(obs600.k + 1).shape[1]] * bundles


def analysis_bytes(analysis) -> bytes:
    """Every array and figure of one profile analysis, as bytes."""
    arrays = [analysis.if_values, analysis.phi]
    arrays += [reg.coef for reg in analysis.fits.mu]
    arrays += [reg.coef for reg in analysis.omegas.cumulative]
    arrays += [reg.coef for reg in analysis.omegas.omega if reg is not None]
    return b"".join(np.ascontiguousarray(arr).tobytes() for arr in arrays) + repr(
        analysis.psi_hat).encode()


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
        for prof in DEFAULT_PROFILES:
            got = analyze_profile(run, prof)
            want = analyze_profile(fresh, prof)
            assert analysis_bytes(got) == analysis_bytes(want)
        if odds == "one array changed in place":
            with pytest.raises(ValueError):
                values[:] = tilted


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
    system, and each solve equals a fresh per-profile one byte for byte."""
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
    dim_q = solved[0][1].bundle.q.dim
    assert len(solved) == len(DEFAULT_PROFILES)
    assert len(builds) == 1
    assert factored.count((dim_q, dim_q)) == 1
    for phi, designs, (rho, value) in solved:
        coef, want_value, rank = fresh_representer(designs, phi)
        assert rho.coef.tobytes() == coef.tobytes()
        assert value == want_value
        assert rho.diagnostics.rank == rank


def standalone_chain(designs: SampleDesigns, odds: np.ndarray, prof) -> list:
    """The mu_k coefficients of one profile under complete-case odds,
    each from np.linalg.lstsq on its sqrt(w)-weighted design."""
    ds = designs.ds
    cc = ds.complete_mask
    coefs = [None] * (ds.k + 1)
    response = ds.y[cc]
    for k in range(ds.k + 1, 0, -1):
        sw = np.sqrt(np.where(ds.a[cc] == prof[k - 1], 1.0 + odds, 0.0))
        coefs[k - 1], _, _, _ = np.linalg.lstsq(designs.u(k) * sw[:, None], response * sw,
                                                rcond=None)
        response = designs.u(k) @ coefs[k - 1]
    return coefs


def assert_pure(designs: SampleDesigns, odds: np.ndarray, profiles) -> list:
    """Every shared mu fit of the profiles agrees with np.linalg.lstsq on
    its weighted design to 1e-10 relative, and every cumulative fit with
    np.linalg.lstsq on u(k) to 1e-12 relative, with lstsq's rank.
    Returns the lstsq ranks of the cumulative fits."""
    ranks = []
    run = RunFits(designs, odds)
    for prof in profiles:
        analysis = analyze_profile(run, prof)
        want = standalone_chain(designs, odds, prof)
        for reg, coef in zip(analysis.fits.mu, want):
            assert np.max(np.abs(reg.coef - coef)) <= 1e-10 * np.max(np.abs(coef))
        omegas = analysis.omegas
        product = np.ones(len(designs.u(1)))
        for k, reg in enumerate(omegas.cumulative, start=1):
            omega = omegas.omega[k - 1]
            if omega is not None:
                product = product * np.maximum(designs.u(k) @ omega.coef, inference.OMEGA_FLOOR)
            coef, _, rank, _ = np.linalg.lstsq(designs.u(k), product, rcond=None)
            assert np.max(np.abs(reg.coef - coef)) <= 1e-12 * np.max(np.abs(coef))
            assert reg.diagnostics.rank == rank
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
