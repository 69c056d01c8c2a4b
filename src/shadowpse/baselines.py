"""Estimation strategies: the shadow-variable estimator and references.

Every method runs one sieve pipeline and differs only in its odds
function and in the data the pipeline sees:

sri     odds fitted on the observed data
oracle  use the true covariates (simulation only), odds set to zero
cca     drop incomplete records, odds set to zero
mi      multiple imputation with a linear-Gaussian imputer and
        Rubin pooling, odds set to zero on each completed dataset; the
        completed datasets differ only in their x_miss fills, so only
        those go on a leading batch axis, in batches of about
        _BATCH_BYTES of outcome-chain design, and every batch shares the
        first completed dataset's chain specs and other columns

run_method picks a method by name for the CLI and the Monte Carlo
harness.

On fully observed data all four collapse to the same numbers: the odds
fit returns the zero model, complete cases are the whole sample and the
imputer has nothing to fill.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Union

import numpy as np

from .data_model import Dataset, complete_cases
from .errors import ConfigError, InsufficientCompleteCases
from .estimator import TreatmentProfile, named_estimand, validate_profile
from .gamma_solver import GammaOptions, fit_gamma
from .inference import InferenceReport, analyze_profile, variance_and_ci, z_critical
from .series_regression import RunFits, SampleDesigns, _t, lapack_errors
from .sieve_basis import SieveOptions, SpecBundle, build_spec_bundle

EstimandSpec = Union[str, tuple[Sequence[int], Sequence[int]]]

# bytes of outcome-chain design per batch of completed datasets in mi:
# 1.125 MiB, seven imputations at n = 2000 and D = 10
_BATCH_BYTES = 9 << 17


@dataclass
class MethodResult:
    method: str
    estimands: dict[str, InferenceReport]
    profiles: dict[TreatmentProfile, float]
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True)
class MethodOptions:
    """What run_method hands an estimator besides the data, the
    estimands and the seed; each method reads the fields it uses."""

    level: float = 0.95
    sieve: SieveOptions = SieveOptions()
    gamma_options: GammaOptions = GammaOptions()
    mi_m: int = 20


def resolve_estimands(ds_k: int, estimands: Optional[Sequence[EstimandSpec]]) -> dict:
    """Map estimand names (or explicit profile pairs) to profile pairs."""
    if estimands is None:
        estimands = ["nde"] + [f"nie_{j}" for j in range(1, ds_k + 1)] + ["te"]
    out = {}
    for item in estimands:
        if isinstance(item, str):
            out[item] = named_estimand(item, ds_k)
        else:
            pa, pb = item
            key = "psi_" + "".join(map(str, pa)) + "_vs_" + "".join(map(str, pb))
            out[key] = (validate_profile(pa, ds_k), validate_profile(pb, ds_k))
    return out


def _run_pipeline(
    ds: Dataset,
    estimands: dict,
    level: float,
    sieve: SieveOptions,
    method: str,
    gamma_options: Optional[GammaOptions] = None,
    x_miss: Optional[np.ndarray] = None,
    bundle: Optional[SpecBundle] = None,
) -> MethodResult:
    """The sieve pipeline; gamma_options=None sets the odds to zero,
    otherwise the odds are fitted on ds and their report goes to extras.
    A confidence level outside (0, 1) raises ConfigError before any fit.
    x_miss, a stack (b, n, w) of fills of complete ds's x_miss block, runs
    b samples that differ from ds only there, giving b of each figure:
    they share ds's other columns, weights, odds (zero) and specs, and
    stack only the fills' chain columns. bundle, when given, holds specs
    already fitted; else build_spec_bundle(ds, sieve) fits them on ds.

    The odds values are worked out once, one per complete case, and
    bound with the sample's designs in one RunFits, which every stage
    reads and which is dropped when the run returns. Each distinct
    profile is analysed once; a contrast psi_a - psi_b takes the
    difference of its two profiles' influence values."""
    z_critical(level)
    bundle = build_spec_bundle(ds, sieve) if bundle is None else bundle
    designs = SampleDesigns(ds, bundle, x_miss)
    extras = {}
    if gamma_options is None:
        odds_cc = np.zeros(designs.n_cc)
    else:
        gamma, gamma_report = fit_gamma(designs, gamma_options)
        odds_cc = gamma.values(designs)
        extras = {
            "gamma_q_n": gamma_report.q_n,
            "gamma_grad_norm": gamma_report.grad_norm,
            "gamma_converged": gamma_report.converged,
            "gamma_n_iter": gamma_report.n_iter,
            "gamma_polish_steps": gamma_report.polish_steps,
            "gamma_messages": list(gamma_report.messages),
        }
    run = RunFits(designs, odds_cc)
    analyses = {}
    reports = {}
    for name, (pa, pb) in estimands.items():
        for prof in (pa, pb):
            if prof not in analyses:
                analyses[prof] = analyze_profile(run, prof)
        a, b = analyses[pa], analyses[pb]
        diag = {"profile_a": list(pa), "profile_b": list(pb),
                "psi_a": a.psi_hat, "psi_b": b.psi_hat}
        reports[name] = variance_and_ci(a.psi_hat - b.psi_hat, a.if_values - b.if_values, level, diag)
    profiles = {prof: analysis.psi_hat for prof, analysis in analyses.items()}
    return MethodResult(method=method, estimands=reports, profiles=profiles, extras=extras)


def sri_estimate(
    ds: Dataset,
    estimands: Optional[Sequence[EstimandSpec]] = None,
    level: float = 0.95,
    sieve: SieveOptions = SieveOptions(),
    gamma_options: GammaOptions = GammaOptions(),
) -> MethodResult:
    """Shadow-variable sieve estimator on the observed data."""
    wanted = resolve_estimands(ds.k, estimands)
    return _run_pipeline(ds, wanted, level, sieve, "sri", gamma_options)


def oracle_estimate(
    full: Dataset,
    estimands: Optional[Sequence[EstimandSpec]] = None,
    level: float = 0.95,
    sieve: SieveOptions = SieveOptions(),
) -> MethodResult:
    """Estimator with the true covariates: r set to one, odds to zero."""
    ds = full.with_r_set_to_one()
    wanted = resolve_estimands(ds.k, estimands)
    return _run_pipeline(ds, wanted, level, sieve, "oracle")


def cca_estimate(
    ds: Dataset,
    estimands: Optional[Sequence[EstimandSpec]] = None,
    level: float = 0.95,
    sieve: SieveOptions = SieveOptions(),
) -> MethodResult:
    """Complete-case analysis: biased under nonignorable missingness."""
    cc = complete_cases(ds)
    wanted = resolve_estimands(cc.k, estimands)
    return _run_pipeline(cc, wanted, level, sieve, "cca")


def mi_estimate(
    ds: Dataset,
    estimands: Optional[Sequence[EstimandSpec]] = None,
    m: int = MethodOptions.mi_m,
    seed=0,
    level: float = 0.95,
    sieve: SieveOptions = SieveOptions(),
) -> MethodResult:
    """Linear-Gaussian multiple imputation with Rubin pooling.

    Each x_miss coordinate is regressed on (1, z, x_obs, a, m, y) over
    complete cases; every imputation fills conditional means plus
    Gaussian noise at the residual sd, all m drawn at once, imputation
    after imputation. The chain specs are fitted once, on the first
    completed dataset, and serve every imputation: a series fit depends
    on its basis only through the span, which no center or scale moves.
    The zero-odds pipeline runs on the completed data in batches of
    b = max(1, _BATCH_BYTES // (8 n D)) imputations, D the outcome-chain
    design's width. Pooled variance is W + (1 + 1/m) B.
    """
    if m < 2:
        raise ConfigError("multiple imputation needs m >= 2")
    z = z_critical(level)
    wanted = resolve_estimands(ds.k, estimands)
    cc_mask = ds.complete_mask
    design = np.hstack([np.ones((ds.n, 1)), ds.conditioning_points()])
    design_cc = design[cc_mask]
    n_cc, p = design_cc.shape
    if n_cc <= p:
        raise InsufficientCompleteCases(
            f"{n_cc} complete cases cannot support a {p}-column imputer"
        )
    targets = ds.x_miss[cc_mask]
    with lapack_errors("imputer regression"):
        beta, _, _, _ = np.linalg.lstsq(design_cc, targets, rcond=None)
    resid = targets - design_cc @ beta
    resid_sd = np.sqrt((resid ** 2).sum(axis=0) / (n_cc - p))

    rng = np.random.Generator(np.random.Philox(seed))
    miss = ~cc_mask
    noise = rng.standard_normal((m, ds.dims.x_miss, int(miss.sum())))
    means = np.array([design[miss] @ b for b in beta.T]).reshape(noise.shape[1:])
    x_miss = np.repeat(ds.x_miss[None], m, axis=0)
    x_miss[:, miss] = _t(means + resid_sd[:, None] * noise)
    completed = replace(ds, x_miss=x_miss[0], r=np.ones(ds.n, dtype=int))
    bundle = build_spec_bundle(completed, sieve)
    size = max(1, _BATCH_BYTES // (8 * ds.n * bundle.u[-1].dim))
    batches = [_run_pipeline(completed, wanted, level, sieve, "mi", x_miss=x_miss[s],
                             bundle=bundle)
               for s in (slice(i, i + size) for i in range(0, m, size))]

    reports = {}
    for name in wanted:
        pts = np.concatenate([res.estimands[name].psi_hat for res in batches])
        point = float(pts.mean())
        w_bar = float(np.mean(np.concatenate([res.estimands[name].se ** 2 for res in batches])))
        b_var = float(pts.var(ddof=1))
        total = w_bar + (1.0 + 1.0 / m) * b_var
        se = float(np.sqrt(total))
        reports[name] = InferenceReport(
            psi_hat=point, sigma2=total * ds.n, se=se,
            ci_lo=point - z * se, ci_hi=point + z * se,
            level=level, n=ds.n,
            diagnostics={"m": m, "within": w_bar, "between": b_var},
        )
    profiles = {prof: float(np.mean(np.concatenate([res.profiles[prof] for res in batches])))
                for prof in batches[0].profiles}
    return MethodResult(method="mi", estimands=reports, profiles=profiles,
                        extras={"m": m})


METHODS = ("oracle", "sri", "cca", "mi")


def run_method(
    method: str,
    data: Dataset,
    estimands: Optional[Sequence[EstimandSpec]] = None,
    options: MethodOptions = MethodOptions(),
    seed=0,
) -> MethodResult:
    """Run one method by name; the only place a method name is dispatched.

    data is the full dataset for the oracle and the observed one for the
    others; seed drives the imputations of mi. The estimators are looked
    up by module-global name at each call, so a wrapper bound to that
    name sees every call.
    """
    common = dict(level=options.level, sieve=options.sieve)
    if method == "sri":
        return sri_estimate(data, estimands, gamma_options=options.gamma_options, **common)
    if method == "oracle":
        return oracle_estimate(data, estimands, **common)
    if method == "cca":
        return cca_estimate(data, estimands, **common)
    if method == "mi":
        return mi_estimate(data, estimands, m=options.mi_m, seed=seed, **common)
    raise ConfigError(f"unknown method {method!r}; choose from {', '.join(METHODS)}")
