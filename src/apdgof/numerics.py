"""Probability kernels used by the rest of the package.

The central and noncentral chi-square distributions, the gamma-variate
sampler and adaptive quadrature are thin, validated wrappers around
``scipy.special``, numpy's ``Generator.standard_gamma`` and
``scipy.integrate.quad``.  ``scipy.integrate`` (with the ``scipy.optimize``,
``scipy.sparse`` and ``scipy.linalg`` it pulls in) loads on the first call
to :func:`integrate`, so importing this module costs only numpy and
``scipy.special``.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy import special as sc

from .errors import AccuracyError, DomainError

__all__ = [
    "chi2_sf",
    "chi2_quantile",
    "noncentral_chi2_sf",
    "gamma_sample",
    "integrate",
]

# Absolute and relative error target, and subdivision cap, of :func:`integrate`.
_QUAD_TOL = 1e-10
_QUAD_LIMIT = 200


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
    if k % 1 != 0 or k < 1:  # k % 1 is NaN for a NaN or infinite k
        raise DomainError(f"degrees of freedom must be a positive integer, got {k}")
    return int(k)


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

    ``1 - scipy.special.chndtr(x, k, ncp)``, within ``1e-10`` of the exact
    value; ``ncp == 0`` is :func:`chi2_sf`.
    """
    x = _check_nonneg(x, "x")
    k = _check_df(k)
    ncp = _check_nonneg(ncp, "ncp")
    if ncp == 0.0:
        return chi2_sf(x, k)
    return 1.0 - float(sc.chndtr(x, k, ncp))


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


def integrate(f: Callable[[float], float], domain: tuple[float, float]) -> float:
    """Adaptive quadrature of ``f`` over ``domain`` (endpoints may be +-inf).

    Aims for an absolute error below ``max(1e-10, 1e-10 * |result|)``
    within 200 interval splits (``_QUAD_TOL``, ``_QUAD_LIMIT``).  The
    integrand must be smooth in the interior of the domain; split at any
    known singular point (e.g. at 0 for ``log|y|`` factors) and sum the
    parts.  Raises :class:`AccuracyError` carrying the best estimate when
    that accuracy cannot be certified.  ``scipy.integrate`` is imported on
    the first call.
    """
    from scipy import integrate as _sp_integrate

    lo, hi = (float(domain[0]), float(domain[1]))
    if math.isnan(lo) or math.isnan(hi) or not lo < hi:
        raise DomainError(f"invalid integration domain {domain}")
    result = _sp_integrate.quad(
        f, lo, hi, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=_QUAD_LIMIT, full_output=1
    )
    if len(result) > 3:  # (value, abserr, info, message[, explanation])
        raise AccuracyError(str(result[3]), estimate=float(result[0]))
    return float(result[0])
