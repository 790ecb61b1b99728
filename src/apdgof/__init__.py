"""Goodness-of-fit testing of exponential-power nulls against asymmetric
power alternatives, with closed-form asymptotics and a Monte Carlo harness.

The top level re-exports what the demos and the README use; everything else
lives in the submodules ``apd``, ``numerics``, ``score``, ``simulate`` and
``cli``.
"""

from .apd import ApdParams, SepdParams, cdf, from_sepd, pdf, quantile, sample
from .errors import (
    AccuracyError,
    ApdGofError,
    ConfigError,
    DegenerateSampleError,
    DomainError,
)
from .score import (
    LocationScale,
    asymptotic_power,
    fisher_information,
    noncentrality,
    run_test,
    score_covariance,
)
from .simulate import (
    StudyConfig,
    mc_fisher_check,
    quadrature_fisher,
    run_local_alternative_study,
    run_null_study,
)

__version__ = "0.1.0"

__all__ = [
    "ApdGofError",
    "DomainError",
    "AccuracyError",
    "DegenerateSampleError",
    "ConfigError",
    "ApdParams",
    "SepdParams",
    "pdf",
    "cdf",
    "quantile",
    "sample",
    "from_sepd",
    "LocationScale",
    "fisher_information",
    "score_covariance",
    "noncentrality",
    "asymptotic_power",
    "run_test",
    "StudyConfig",
    "run_null_study",
    "run_local_alternative_study",
    "mc_fisher_check",
    "quadrature_fisher",
    "__version__",
]
