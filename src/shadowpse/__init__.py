"""Path-specific effects with nonignorably missing covariates.

Sieve-based estimation of counterfactual means and mediation contrasts
when a pre-treatment covariate is missing not at random, identified
through a shadow variable. Includes influence-function confidence
intervals, reference methods (oracle, complete-case, multiple
imputation) and a Monte-Carlo benchmark harness.
"""

__version__ = "0.1.0"

from .baselines import (
    MethodOptions,
    MethodResult,
    cca_estimate,
    mi_estimate,
    oracle_estimate,
    run_method,
    sri_estimate,
)
from .data_model import (
    Dataset,
    DatasetDims,
    complete_cases,
    read_csv,
    validate,
    write_csv,
    write_descriptor,
)
from .estimator import (
    NuisanceFits,
    estimate_psi,
    fit_mu_chain,
    named_estimand,
)
from .gamma_solver import (
    GammaFitReport,
    GammaModel,
    GammaOptions,
    fit_gamma,
    weak_norm_sq,
)
from .inference import (
    InferenceReport,
    OmegaFits,
    analyze_profile,
    fit_omegas,
    fit_representer,
    influence_values,
    phi_values,
    variance_and_ci,
)
from .series_regression import (
    RunFits,
    SampleDesigns,
    SeriesRegressor,
    predict_many,
    project_residual_orthogonality,
)
from .sieve_basis import (
    BasisSpec,
    SieveOptions,
    SpecBundle,
    Standardizer,
    build_spec_bundle,
    design_matrix,
    fit_standardizer,
)
from .simulation import (
    DgpConfig,
    McResult,
    TruthTable,
    generate,
    run_monte_carlo,
    true_effects,
    true_gamma_values,
)

__all__ = [name for name in dir() if not name.startswith("_")]
