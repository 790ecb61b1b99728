"""Probability kernels, and the argument rules shared by the rest of the package.

The chi-square(2) law of the test statistic T (central under the null,
noncentral under local alternatives), the gamma-variate sampler and
adaptive quadrature are validated wrappers around closed forms,
``scipy.special.chndtr``, numpy's ``Generator.standard_gamma`` and
``scipy.integrate.quad``.  Importing this module costs only numpy: the
central law is closed-form, ``scipy.special`` loads on the first
noncentral call, and ``scipy.integrate`` (with the ``scipy.optimize``,
``scipy.sparse`` and ``scipy.linalg`` it pulls in) on the first call to
:func:`integrate`.  :func:`_real`, :func:`_reals` and the ``_check_*``
helpers hold the argument rules the other modules share, each written once.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import AccuracyError, DomainError

__all__ = [
    "chi2_sf",
    "chi2_quantile",
    "noncentral_chi2_sf",
    "gamma_sample",
    "integrate",
]

_REALS = (float, int, np.floating, np.integer)
# Absolute and relative error target, and subdivision cap, of :func:`integrate`.
_QUAD_TOL = 1e-10
_QUAD_LIMIT = 200
# Most float64 values one numpy array can hold: its byte count must fit an intp.
_MAX_VALUES = np.iinfo(np.intp).max // 8


def _real(value, name: str, inf: bool = False) -> float:
    """``value`` as a float, if it is a finite Python or numpy int or float (or +-inf, with ``inf``).

    Else :class:`DomainError`: a str, None, complex, array, ``Fraction`` or
    ``Decimal`` is refused, as are NaN and an int beyond the double range.
    """
    if isinstance(value, _REALS):
        try:
            x = float(value)
        except OverflowError:
            raise DomainError(f"{name} must be a finite real, got an int beyond the double range") from None
        if math.isfinite(x) or inf and not math.isnan(x):
            return x
    raise DomainError(f"{name} must be a {'' if inf else 'finite '}real, got {value!r}")


def _reals(values, name: str) -> np.ndarray:
    """``values`` as a float64 array of its own shape, if it holds ints or floats and all are finite.

    A float64 array is returned as it is.  Else :class:`DomainError`: bool,
    complex, str, bytes, object (None, ``Fraction``, ``Decimal``, an int
    beyond int64) and datetime arrays are refused, as are a ragged sequence
    and NaN or +-inf.  A message names the dtype or the first bad entry,
    never the whole array.
    """
    try:
        x = np.asarray(values)
    except ValueError:  # numpy's refusal of a ragged sequence
        raise DomainError(f"{name} must be an array of reals, got a ragged sequence") from None
    if x.dtype.kind not in "iuf":
        raise DomainError(f"{name} must hold ints or floats, got dtype {x.dtype}")
    with np.errstate(over="ignore"):  # a longdouble beyond the double range becomes inf
        x = x.astype(float, copy=False)
    # NaN and +-inf show in the extremes, whose reductions allocate no array of n flags.
    lo, hi = (np.minimum.reduce(x, axis=None), np.maximum.reduce(x, axis=None)) if x.size else (0.0, 0.0)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        k = int(np.isfinite(x).argmin())
        raise DomainError(f"{name} must be finite, got {x.flat[k]} at index {k}")
    return x


def _check_fields(obj, names: tuple[str, ...], positive: tuple[str, ...] = ()) -> None:
    """Store the fields ``names`` of the frozen dataclass ``obj`` as floats.

    Each must pass :func:`_real`, and those in ``positive`` must be above 0.
    """
    for name in names:
        v = getattr(obj, name)
        x = _real(v, name)
        if name in positive and not x > 0.0:
            raise DomainError(f"{name} must be positive, got {v!r}")
        if type(v) is not float:  # skipped for a float: a LocationScale is built per replicate
            object.__setattr__(obj, name, x)


def _shown(value) -> str:
    """``str(value)`` for a message; an int too long for ``str`` is shown by its order of magnitude."""
    try:
        return str(value)
    except ValueError:  # Python's int-to-str digit limit
        return f"an int near {'-' if value < 0 else ''}10**{math.log10(abs(value)):.6g}"


def _check_count(name: str, value, least: int, error: type[Exception]) -> int:
    """``value`` as an int, if it is a Python or numpy real with a whole value ``>= least``; else ``error``."""
    if isinstance(value, np.floating):
        value = float(value)  # a numpy inf % 1 would warn
    real = isinstance(value, _REALS)
    if not (real and value % 1 == 0 and value >= least):  # value % 1 is NaN for a NaN or inf
        raise error(f"{name} must be an integer >= {least}, got {_shown(value) if real else repr(value)}")
    return int(value)


def _check_size(name: str, value) -> int:
    """``value`` as a count of float64 values to allocate, if it is a whole number ``>= 0``.

    Else :class:`DomainError`; a count beyond what numpy can size is the
    :class:`MemoryError` a count it cannot allocate raises.
    """
    n = _check_count(name, value, 0, DomainError)
    if n > _MAX_VALUES:
        raise MemoryError(f"{name} is {_shown(n)}: more float64 values than an array can hold")
    return n


def _power(a: np.ndarray, e: float) -> np.ndarray:
    """``a ** e`` for a float64 array ``a``, written over ``a`` and returned.

    Formed by the kernel the ``**`` operator picks for the exponent, so the
    doubles are the same: ``sqrt`` at 0.5, ``square`` at 2, ``a`` itself at 1
    and ``np.power`` otherwise.  ``np.power(..., out=)`` alone would skip
    the fast paths (twice the time at 0.5).
    """
    if e == 0.5:
        return np.sqrt(a, out=a)
    if e == 2.0:
        return np.square(a, out=a)
    if e == 1.0:
        return a
    return np.power(a, e, out=a)


def chi2_sf(x: float) -> float:
    """Survival function of the chi-square(2) law: ``exp(-x/2)``."""
    if not (x := _real(x, "x")) >= 0.0:
        raise DomainError(f"x must be a nonnegative finite real, got {x}")
    return math.exp(-0.5 * x)


def chi2_quantile(p: float) -> float:
    """Quantile of the chi-square(2) law: ``chi2_sf(-2 log(1 - p)) == 1 - p``."""
    if not 0.0 < (p := _real(p, "p")) < 1.0:
        raise DomainError(f"p must lie in (0, 1), got {p}")
    return -2.0 * math.log1p(-p)


def noncentral_chi2_sf(x: float, ncp: float) -> float:
    """Survival function of the noncentral chi-square(2) law.

    ``1 - scipy.special.chndtr(x, 2, ncp)``, within ``1e-10`` of the exact
    value; ``ncp == 0`` is :func:`chi2_sf`.  ``chndtr`` has no value for a
    large ``ncp`` (NaN from about 1e16 at ``x = 5``), which raises
    :class:`AccuracyError`.  ``scipy.special`` is imported on the first call
    with ``ncp > 0``.
    """
    sf = chi2_sf(x)  # checks x
    if not (ncp := _real(ncp, "ncp")) >= 0.0:
        raise DomainError(f"ncp must be a nonnegative finite real, got {ncp}")
    if ncp == 0.0:
        return sf
    cdf = float(_chi2_cdf(float(x), ncp))
    if math.isnan(cdf):
        raise AccuracyError(f"the noncentral chi-square law has no computed value at x={x}, ncp={ncp}")
    return 1.0 - cdf


def _chi2_cdf(x, ncp: float):
    """CDF of the chi-square(2) law with noncentrality ``ncp``, elementwise over ``x``.

    ``1 - exp(-x/2)`` when ``ncp == 0``, otherwise ``scipy.special.chndtr``
    (imported on the first such call).  Unvalidated: the studies' KS step
    passes whole arrays of statistics.
    """
    if ncp == 0.0:
        return -np.expm1(-0.5 * x)
    from scipy import special as sc

    return sc.chndtr(x, 2.0, ncp)


def gamma_sample(
    shape: float,
    rng: np.random.Generator,
    size: int | None = None,
) -> float | np.ndarray:
    """Draw from Gamma(shape, scale=1) with numpy's ``Generator.standard_gamma``.

    Valid for every ``shape > 0``.  With ``size=None`` a single float is
    returned, otherwise an array of ``size`` independent draws; a ``size``
    that does not fit in memory raises :class:`MemoryError`.
    """
    if not (shape := _real(shape, "shape")) > 0.0:
        raise DomainError(f"shape must be a positive finite real, got {shape}")
    if size is None:
        return float(rng.standard_gamma(shape))
    return rng.standard_gamma(shape, _check_size("size", size))


def integrate(f: Callable[[float], float], domain: tuple[float, float]) -> float:
    """Adaptive quadrature of ``f`` over ``domain`` (endpoints may be +-inf).

    Aims for an absolute error below ``max(1e-10, 1e-10 * |result|)``
    within 200 interval splits (``_QUAD_TOL``, ``_QUAD_LIMIT``).  The
    integrand must be smooth in the interior of the domain; split at any
    known singular point (e.g. at 0 for ``log|y|`` factors) and sum the
    parts.  Raises :class:`AccuracyError` carrying the best estimate when
    that accuracy cannot be certified.  ``scipy.integrate`` is imported on
    the first call.  An endpoint that is not a Python or numpy real, or is
    NaN, raises :class:`DomainError`.
    """
    from scipy import integrate as _sp_integrate

    lo, hi = (_real(domain[k], "an integration endpoint", inf=True) for k in (0, 1))
    if not lo < hi:
        raise DomainError(f"invalid integration domain {domain}")
    result = _sp_integrate.quad(
        f, lo, hi, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=_QUAD_LIMIT, full_output=1
    )
    if len(result) > 3:  # (value, abserr, info, message[, explanation])
        raise AccuracyError(str(result[3]), estimate=float(result[0]))
    return float(result[0])
