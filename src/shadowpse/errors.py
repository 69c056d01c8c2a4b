"""Exception hierarchy shared across the package.

Estimator code raises subclasses of EstimationError so callers (CLI,
Monte-Carlo harness) can distinguish recoverable statistical failures
from programming errors. Each class carries the command-line exit code
and message prefix of its category: configuration (2), data (3) or
solver (4).
"""


class EstimationError(Exception):
    """Base class for all estimator-level failures; data errors by default."""

    exit_code = 3
    category = "data error"


class SolverError(EstimationError):
    """A numerical solve failed on otherwise valid data: UnsolvableSystem."""

    exit_code = 4
    category = "solver error"


class DimensionMismatch(EstimationError):
    """A record or array does not match the declared dimensions."""


class EmptyDataset(EstimationError):
    """A dataset with zero records where at least one is required."""


class EmptyResult(EstimationError):
    """An operation produced an empty dataset (e.g. no complete cases)."""


class NonFiniteInput(EstimationError):
    """NaN or infinity in a numeric input, or in a figure to be written
    as JSON, that must be finite."""


class LengthMismatch(EstimationError):
    """Two aligned arrays have different lengths."""


class UnsolvableSystem(SolverError):
    """A LAPACK solve or factorisation failed, or met or gave non-finite values."""


class DegenerateTarget(EstimationError):
    """A target with no information (e.g. no observed records at all)."""


class EmptyArm(EstimationError):
    """No records in a treatment arm required by the requested profile."""


class MissingTrueX(EstimationError):
    """True covariates requested (r set to one) where x_miss is missing."""


class InsufficientCompleteCases(EstimationError):
    """Too few complete cases to fit the requested model."""


class ConfigError(EstimationError):
    """Invalid run configuration."""

    exit_code = 2
    category = "configuration error"
