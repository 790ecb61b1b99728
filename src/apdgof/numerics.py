"""Probability kernels, and the argument rules shared by the rest of the package.

The chi-square(2) law of the test statistic T (central under the null,
noncentral under local alternatives), the gamma-variate sampler and
adaptive quadrature are validated wrappers around closed forms, numpy's
``Generator.standard_gamma`` and ``scipy.integrate.quad``.  The noncentral
law is the closed-form family of the central one, a Poisson mixture of
Erlang tails: its CDF at ``x`` is ``P(I > J)`` for independent Poisson
``I`` and ``J`` of means ``x/2`` and ``ncp/2``, summed in numpy over the
windows that hold all but 1e-20 of each law while ``ncp`` is below about
143, where every value of it is at most 4e-16 off a 40-digit sum
(:func:`_chi2_cdf`).  Importing this module costs only numpy:
``scipy.special`` loads only for an ``x`` near a larger ``ncp``, whose
value is ``scipy.special.chndtr``'s, and ``scipy.integrate`` (with the
``scipy.optimize``, ``scipy.sparse`` and ``scipy.linalg`` it pulls in) on
the first call to :func:`integrate`.
:func:`_real`, :func:`_reals` and the ``_check_*`` helpers hold the
argument rules the other modules share, each written once.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import AccuracyError, DomainError

__all__ = [
    "chi2_sf",
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
# Poisson mass each summation window of the noncentral law leaves out on either side.
_TAIL = 1e-20
_LOG_TAIL = math.log(1.0 / _TAIL)
# Past 2**53 a Poisson mean has no window of whole doubles.
_MAX_MEAN = 2.0**53
# The Erlang sum's terms b^k / k! end at k = 170, the last k! below the double range.
_ERLANG_MAX_K = 170
# The Erlang sum's cap on x/2: there it is 1 - 1e-127 or closer, for every J window it sums.
_ERLANG_MAX_B = 700.0


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


def chi2_sf(x: float) -> float:
    """Survival function of the chi-square(2) law: ``exp(-x/2)``."""
    if not (x := _real(x, "x")) >= 0.0:
        raise DomainError(f"x must be a nonnegative finite real, got {x}")
    return math.exp(-0.5 * x)


def noncentral_chi2_sf(x: float, ncp: float) -> float:
    """Survival function of the noncentral chi-square(2) law: ``1 - _chi2_cdf(x, ncp)``.

    ``ncp == 0`` is :func:`chi2_sf`.  At most 4e-16 off 40-digit sums on a
    grid of ``ncp`` and ``x`` up to ``1e4``.  An ``ncp`` past ``2**54``, or
    an ``x`` near a large ``ncp`` where ``scipy.special.chndtr`` has no
    value (from about ``x = ncp = 5e10``), raises :class:`AccuracyError`;
    see :func:`_chi2_cdf`.
    """
    sf = chi2_sf(x)  # checks x
    if not (ncp := _real(ncp, "ncp")) >= 0.0:
        raise DomainError(f"ncp must be a nonnegative finite real, got {ncp}")
    if ncp == 0.0:
        return sf
    return 1.0 - float(_chi2_cdf(float(x), ncp))


def _chi2_cdf(x, ncp: float):
    """CDF of the chi-square(2) law with noncentrality ``ncp``, elementwise over ``x``.

    ``1 - exp(-x/2)`` when ``ncp == 0``.  Otherwise the law is a Poisson
    mixture of Erlang tails, ``P(T > x) = sum_j P(J = j) P(Gamma(j + 1) > x/2)``
    with ``J ~ Poisson(ncp/2)``, so that ``CDF(x) = P(I > J)`` for ``I ~
    Poisson(x/2)`` independent of ``J``.  Each law's window
    (:func:`_window`) leaves out at most 1e-20 of its mass on either side:

    - while ``J``'s window ends at ``k <= 170`` (``ncp`` below about 143),
      ``P(T > x) = exp(-b) sum_k P(J >= k) b^k / k!`` at ``b = x/2``, one
      Horner polynomial over the whole of ``x``; ``b`` is capped at 700,
      past which the CDF rounds to 1.  No scipy module is loaded;
    - past it, an ``x`` whose window lies above ``J``'s gives 1 (``x =
      inf`` too), one below gives 0 and a NaN gives NaN; the values whose
      window overlaps ``J``'s take ``scipy.special.chndtr`` (imported on
      the first such call), and one it gives NaN raises
      :class:`AccuracyError`.

    ``ncp/2`` past :data:`_MAX_MEAN` raises :class:`AccuracyError`.  Each
    value depends on its own ``x`` only: an array gives the doubles of one
    call per value.  Unvalidated: the studies' KS step passes whole arrays
    of statistics.
    """
    b = np.multiply(x, 0.5)
    if ncp == 0.0:
        return -np.expm1(-b)
    a = 0.5 * ncp
    if not a <= _MAX_MEAN:
        raise AccuracyError(f"the noncentral chi-square law has no computed value at ncp={ncp}: ncp/2 is past 2**53")
    jlo, jhi = _window(a)
    if jhi <= _ERLANG_MAX_K:  # a <= 71.86 here, and J's window starts at 0 up to a = 94.09
        coef = _erlang_coefficients(a, int(jhi))
        b = np.minimum(b, _ERLANG_MAX_B)
        h = coef[-1]
        for c in coef[-2::-1]:
            h = h * b + c
        return 1.0 - np.minimum(h * np.exp(-b), 1.0)  # a rounding past 1 is no probability
    with np.errstate(invalid="ignore"):  # the window of x = inf is (NaN, inf)
        ilo, ihi = _window(b)
    cdf = np.heaviside(ihi - jlo, 0.0)  # 1 above J's window (x = inf too), 0 below, NaN at a NaN
    overlap = (ilo <= jhi) & (ihi > jlo)
    if not overlap.any():
        return cdf
    from scipy import special as sc

    xs = np.where(overlap, x, 0.0)  # the values apart are not summed: chndtr is 0 at once at x = 0
    near = sc.chndtr(xs, 2.0, ncp)
    if np.isnan(near).any():
        x0 = xs[np.isnan(near)][0]
        raise AccuracyError(f"the noncentral chi-square law has no computed value at x={x0}, ncp={ncp}")
    return np.where(overlap, near, cdf)


def _erlang_coefficients(a: float, jhi: int) -> list[float]:
    """``P(J >= k) / k!`` for ``J ~ Poisson(a)``, ``k = 0, 1, ...`` while ``P(J >= k) >= 1e-20``.

    ``0..jhi`` is ``J``'s window (:func:`_window`), which starts at 0.
    """
    tail = np.cumsum(_poisson_weights(a, jhi)[::-1])[::-1]
    coef = tail / tail[0]  # P(J >= k)
    k = np.count_nonzero(coef >= _TAIL)  # coef falls with k: the terms past it add under 1e-20
    return [c / math.factorial(i) for i, c in enumerate(coef[:k].tolist())]


def _window(mean):
    """Integer bounds ``lo, hi`` (as floats) outside which Poisson(``mean``) holds at most 1e-20 on each side.

    Bernstein's inequality bounds each tail of ``N ~ Poisson(mean)``:
    ``P(N <= mean - d) <= exp(-d^2 / (2 mean))`` and ``P(N >= mean + d) <=
    exp(-d^2 / (2 (mean + d/3)))``, each 1e-20 at the ``d`` solved for here.
    Elementwise over an array ``mean``.
    """
    r = math.sqrt(2.0 * _LOG_TAIL) * np.sqrt(mean)  # not sqrt(2 L mean), which overflows first
    t = _LOG_TAIL / 3.0
    return np.maximum(np.floor(mean - r), 0.0), np.ceil(mean + t + np.hypot(t, r))


def _poisson_weights(mean: float, hi: int) -> np.ndarray:
    """Poisson(``mean``) probabilities of ``0..hi``, up to one common factor.

    Products of the ratios ``P(k + 1) / P(k) = mean / (k + 1)`` outward
    from the mode, which is 1: no term goes through ``exp`` or a log-gamma,
    whose cancellation at a large mean costs digits, and any caller's
    normalisation by the sum makes the window's weights sum to 1.
    """
    m = min(math.floor(mean), hi)  # the mode
    k = np.arange(hi + 1, dtype=float)
    w = np.empty(k.size)
    w[m] = 1.0
    np.divide(mean, k[m + 1 :], out=w[m + 1 :])
    np.divide(k[1 : m + 1], mean, out=w[:m])
    np.multiply.accumulate(w[m:], out=w[m:])
    down = w[m::-1]
    np.multiply.accumulate(down, out=down)
    return w


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
