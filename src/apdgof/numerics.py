"""Special functions and probability kernels used by the rest of the package.

Gamma-family functions, the chi-square distributions and the gamma-variate
sampler are thin, validated wrappers around ``scipy.special`` and numpy's
``Generator.standard_gamma``.  The noncentral chi-square survival function is
implemented here as a Poisson-mixture series, because its exact tail
accuracy is part of this package's contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate as _sp_integrate
from scipy import special as sc

from .errors import AccuracyError, DomainError

__all__ = [
    "QuadratureSpec",
    "log_gamma",
    "digamma",
    "trigamma",
    "reg_lower_inc_gamma",
    "chi2_sf",
    "chi2_quantile",
    "noncentral_chi2_sf",
    "gamma_sample",
    "integrate",
]

# Poisson tail mass left unaccounted for when the mixture series is truncated.
_POISSON_TAIL = 1e-12


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy targets for adaptive quadrature.

    The integrator aims for an absolute error below
    ``max(abs_tol, rel_tol * |result|)`` and gives up (raising
    :class:`AccuracyError`) after ``max_subdivisions`` interval splits.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 200

    def __post_init__(self):
        if not (self.abs_tol > 0 and math.isfinite(self.abs_tol)):
            raise DomainError(f"abs_tol must be positive, got {self.abs_tol}")
        if not (self.rel_tol > 0 and math.isfinite(self.rel_tol)):
            raise DomainError(f"rel_tol must be positive, got {self.rel_tol}")
        if self.max_subdivisions < 1:
            raise DomainError(
                f"max_subdivisions must be >= 1, got {self.max_subdivisions}"
            )


def _check_positive(x: float, name: str) -> float:
    x = float(x)
    if not (math.isfinite(x) and x > 0):
        raise DomainError(f"{name} must be a positive finite real, got {x}")
    return x


def _check_nonneg(x: float, name: str) -> float:
    x = float(x)
    if not (math.isfinite(x) and x >= 0):
        raise DomainError(f"{name} must be a nonnegative finite real, got {x}")
    return x


def _check_df(k: int) -> int:
    if k != int(k) or int(k) < 1:
        raise DomainError(f"degrees of freedom must be a positive integer, got {k}")
    return int(k)


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for ``x > 0``."""
    return float(sc.gammaln(_check_positive(x, "x")))


def digamma(x: float) -> float:
    """Logarithmic derivative of the gamma function for ``x > 0``."""
    return float(sc.digamma(_check_positive(x, "x")))


def trigamma(x: float) -> float:
    """Second logarithmic derivative of the gamma function for ``x > 0``."""
    return float(sc.polygamma(1, _check_positive(x, "x")))


def reg_lower_inc_gamma(a: float, x: float) -> float:
    """Regularized lower incomplete gamma function P(a, x)."""
    return float(sc.gammainc(_check_positive(a, "a"), _check_nonneg(x, "x")))


def chi2_sf(x: float, k: int) -> float:
    """Survival function of the chi-square distribution with ``k`` dof.

    ``k == 2`` uses the closed form ``exp(-x/2)``.
    """
    x = _check_nonneg(x, "x")
    k = _check_df(k)
    if k == 2:
        return math.exp(-0.5 * x)
    return float(sc.gammaincc(0.5 * k, 0.5 * x))


def chi2_quantile(p: float, k: int) -> float:
    """Quantile of the chi-square distribution: ``chi2_sf(q, k) == 1 - p``."""
    p = float(p)
    if not (math.isfinite(p) and 0.0 < p < 1.0):
        raise DomainError(f"p must lie in (0, 1), got {p}")
    k = _check_df(k)
    if k == 2:
        return -2.0 * math.log1p(-p)
    return float(2.0 * sc.gammainccinv(0.5 * k, 1.0 - p))


def noncentral_chi2_sf(x: float, k: int, ncp: float) -> float:
    """Survival function of the noncentral chi-square distribution.

    Evaluates the Poisson mixture
    ``sum_j e^{-ncp/2} (ncp/2)^j / j! * chi2_sf(x, k + 2j)``,
    truncated once the accumulated Poisson weight exceeds
    ``1 - 1e-12``; the result is then within ``1e-10`` of the exact value.
    """
    x = _check_nonneg(x, "x")
    k = _check_df(k)
    ncp = _check_nonneg(ncp, "ncp")
    if ncp == 0.0:
        return chi2_sf(x, k)
    if x == 0.0:
        return 1.0
    half = 0.5 * ncp
    log_half = math.log(half)
    # Log-space weights keep the recursion stable for large ncp, where the
    # leading terms underflow but carry negligible mass anyway.
    log_w = -half
    total = 0.0
    cum_weight = 0.0
    j = 0
    max_terms = int(half + 80.0 * math.sqrt(half + 1.0) + 200.0)
    while cum_weight < 1.0 - _POISSON_TAIL:
        w = math.exp(log_w)
        total += w * float(sc.gammaincc(0.5 * k + j, 0.5 * x))
        cum_weight += w
        j += 1
        log_w += log_half - math.log(j)
        if j > max_terms:
            raise AccuracyError(
                f"noncentral chi-square series did not converge (ncp={ncp})",
                estimate=total,
            )
    return min(max(total, 0.0), 1.0)


def gamma_sample(
    shape: float,
    rng: np.random.Generator,
    size: int | None = None,
) -> float | np.ndarray:
    """Draw from Gamma(shape, scale=1) with numpy's ``Generator.standard_gamma``.

    Valid for every ``shape > 0``.  With ``size=None`` a single float is
    returned, otherwise an array of ``size`` independent draws.
    """
    shape = _check_positive(shape, "shape")
    if size is None:
        return float(rng.standard_gamma(shape))
    n = int(size)
    if n < 0:
        raise DomainError(f"size must be nonnegative, got {size}")
    return rng.standard_gamma(shape, n)


def integrate(
    f: Callable[[float], float],
    domain: tuple[float, float],
    spec: QuadratureSpec | None = None,
) -> float:
    """Adaptive quadrature of ``f`` over ``domain`` (endpoints may be +-inf).

    The integrand must be smooth in the interior of the domain; split at any
    known singular point (e.g. at 0 for ``log|y|`` factors) and sum the parts.
    Raises :class:`AccuracyError` carrying the best estimate when the
    requested accuracy cannot be certified within ``max_subdivisions``.
    """
    spec = spec if spec is not None else QuadratureSpec()
    lo, hi = (float(domain[0]), float(domain[1]))
    if math.isnan(lo) or math.isnan(hi) or not lo < hi:
        raise DomainError(f"invalid integration domain {domain}")
    result = _sp_integrate.quad(
        f,
        lo,
        hi,
        epsabs=spec.abs_tol,
        epsrel=spec.rel_tol,
        limit=spec.max_subdivisions,
        full_output=1,
    )
    if len(result) > 3:  # (value, abserr, info, message[, explanation])
        raise AccuracyError(str(result[3]), estimate=float(result[0]))
    return float(result[0])
