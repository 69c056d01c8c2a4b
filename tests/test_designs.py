"""One SampleDesigns per pipeline run: each design is built once and
shared across stages and profiles without changing any result."""

import hashlib
import sys
from collections import Counter

import numpy as np
import pytest

from shadowpse import series_regression
from shadowpse.baselines import cca_estimate, sri_estimate
from shadowpse.data_model import Dataset, complete_cases
from shadowpse.errors import DimensionMismatch
from shadowpse.estimator import fit_mu_chain, named_estimand
from shadowpse.gamma_solver import GammaModel
from shadowpse.inference import analyze_profile, fit_omegas, fit_representer
from shadowpse.series_regression import SampleDesigns
from shadowpse.sieve_basis import build_spec_bundle


def count_spans(monkeypatch) -> list:
    """Record (shape, content digest) of every orthonormal_span argument,
    under every module-level name in the package that binds it."""
    original = series_regression.orthonormal_span
    seen = []

    def counting(*args, **kwargs):
        matrix = np.ascontiguousarray(kwargs["matrix"] if "matrix" in kwargs else args[0])
        seen.append((matrix.shape, hashlib.sha256(matrix.tobytes()).hexdigest()))
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if mod is not None and name.startswith("shadowpse"):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counting)
    return seen


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
    shared = SampleDesigns(obs2000, bundle2000)
    for prof in profiles:
        a = analyze_profile(obs2000, model, prof, shared)
        b = analyze_profile(obs2000, model, prof, SampleDesigns(obs2000, bundle2000))
        assert a.psi.psi_hat == b.psi.psi_hat
        assert a.if_values.tobytes() == b.if_values.tobytes()
        assert a.report.to_dict() == b.report.to_dict()


def test_designs_must_match_the_dataset(obs600, obs2000, bundle2000):
    with pytest.raises(DimensionMismatch):
        fit_mu_chain(obs600, np.zeros(obs600.n), (1, 1, 1), SampleDesigns(obs2000, bundle2000))


def constant_x_miss(ds: Dataset) -> Dataset:
    """ds with the observed x_miss set to a constant, which zeroes every
    outcome-chain and odds basis column built from it; the conditioning
    basis does not see x_miss and keeps its full rank."""
    out = ds.subset(np.ones(ds.n, dtype=bool))
    out.x_miss = np.where(ds.complete_mask[:, None], 0.5, np.nan)
    return out


def test_fit_ranks_are_real_on_rank_deficient_designs(obs600):
    ds = constant_x_miss(obs600)
    designs = SampleDesigns(ds, build_spec_bundle(ds))
    gamma = np.where(ds.r == 1, 0.5 + 0.1 * np.tanh(ds.y), 0.0)

    omegas = fit_omegas(ds, gamma, (0, 1, 1), designs)
    for k, reg in enumerate(omegas.cumulative, start=1):
        rank = np.linalg.matrix_rank(designs.u(k))
        assert rank < reg.spec.dim
        assert reg.diagnostics.rank == rank

    phi = np.where(ds.r == 1, ds.y, 0.0)
    rho, _ = fit_representer(ds, gamma, phi, designs)
    rank = np.linalg.matrix_rank(designs.p_span_cc.T @ designs.q)
    assert rank < rho.spec.dim
    assert rho.diagnostics.rank == rank
