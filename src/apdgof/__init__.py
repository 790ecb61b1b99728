"""Goodness-of-fit testing of exponential-power nulls against asymmetric
power alternatives, with closed-form asymptotics and a Monte Carlo harness.

The top level re-exports what the demos and the README use; everything else
lives in the submodules ``apd``, ``numerics``, ``score``, ``simulate`` and
``cli``.  ``import apdgof`` runs ``errors``, ``numerics`` and ``score``
only, all that :func:`run_test` needs.  ``apd`` and ``simulate`` load on
the first use of one of their names (PEP 562), or of the submodule itself.
``apdgof.cli``, and so ``apdgof test``, still imports both at module level:
its subcommands sample and run studies, and the benchmark's per-module
import figures read every submodule from one ``import apdgof.cli``.
"""

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

# Where each lazily loaded name lives: ``run_test`` needs neither module.
_LAZY = {
    **dict.fromkeys(["ApdParams", "SepdParams", "pdf", "cdf", "quantile", "sample", "from_sepd", "apd"], "apd"),
    **dict.fromkeys(
        ["StudyConfig", "run_null_study", "run_local_alternative_study", "mc_fisher_check", "quadrature_fisher", "simulate"],
        "simulate",
    ),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = _LAZY[name]
    # Binds the submodule here.  Unlike importlib.import_module, __import__
    # takes the path that ``-X importtime`` logs, which the benchmark reads.
    __import__(f"{__name__}.{home}")
    if name != home:
        globals()[name] = getattr(globals()[home], name)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
