"""The asymmetric power distribution (APD).

A location-scale family whose standardized density is

    f(y) = delta^(1/t2) / (2^(1/t2) * Gamma(1 + 1/t2))
           * exp(-0.5 * (delta / A(y)) * |y|^t2)

with asymmetry ``theta1`` in (0, 1), tail exponent ``theta2 > 0``,
``delta = 2 a b / (a + b)`` for ``a = theta1^theta2``, ``b = (1-theta1)^theta2``,
and side coefficient ``A(y) = a`` left of the mode, ``b`` right of it.
``theta1`` equals the probability mass left of the mode.  The symmetric case
``theta1 = 1/2`` is the exponential power (generalized normal) family:
``theta2 = 1`` is Laplace and ``theta2 = 2`` is normal.

The family is an equivalent reparametrization of the skewed exponential
power distribution (:class:`SepdParams`, :func:`from_sepd`).

Every function reads a shape's constants from one cached function of
``(theta1, theta2)``: ``log delta^(1/theta2)``, the log of the Gamma term
``2^(1/theta2) Gamma(1 + 1/theta2)``, and the sampler's ``c =
(2/delta)^(1/theta2)``.  None of them forms these itself.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import _check_fields, _check_size, _reals, gamma_sample

_LOG2 = math.log(2.0)
_LOG_MAX = math.log(sys.float_info.max)  # np.exp is finite up to here, inclusive
# Where the incomplete-gamma argument t falls below this, e^-t and the
# higher series terms of P(a, t) are 1 to double precision.
_TINY = 1e-20

__all__ = [
    "ApdParams",
    "SepdParams",
    "log_pdf",
    "pdf",
    "cdf",
    "quantile",
    "sample",
    "from_sepd",
]


@dataclass(frozen=True)
class ApdParams:
    """APD parameter vector (asymmetry, tail exponent, location, scale), stored as floats."""

    theta1: float
    theta2: float
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        _check_fields(self, ("theta1", "theta2", "mu", "sigma"), positive=("theta2", "sigma"))
        if not 0.0 < self.theta1 < 1.0:
            raise DomainError(f"theta1 must lie in (0, 1), got {self.theta1}")


@dataclass(frozen=True)
class SepdParams:
    """Skewed exponential power parameters (skewness, tail, location, scale), stored as floats."""

    gamma: float
    q: float
    m: float = 0.0
    s: float = 1.0

    def __post_init__(self):
        _check_fields(self, ("gamma", "q", "m", "s"), positive=("gamma", "q", "s"))


# Cached: every replicate of a study draws with the same shape pair.
@functools.lru_cache(maxsize=256)
def _shape(theta1: float, theta2: float) -> tuple[float, float, float]:
    """``log delta^(1/theta2)``, ``log(2^(1/theta2) Gamma(1 + 1/theta2))`` and ``c = (2/delta)^(1/theta2)``.

    With ``l1 = -log theta1`` and ``l2 = -log(1 - theta1)``, ``delta = 2 /
    (e^(theta2 l1) + e^(theta2 l2))``; taking the larger log out first keeps
    ``log delta^(1/theta2)`` finite and accurate at every ``theta2``.  The
    Gamma term is inf where ``lgamma`` overflows (``theta2`` below about
    3.9e-306): the density is 0 there.  ``c`` keeps the form every seeded
    draw was made with, ``exp(-(log delta - log 2) / theta2)``, except where
    ``log delta`` is -inf; it is inf where it overflows.
    """
    l1, l2 = -math.log(theta1), -math.log1p(-theta1)
    # Below 1e-300 the last term is |l1 - l2| / 2 to double precision, and
    # theta2 |l1 - l2| could lose digits as a subnormal.
    w = max(theta2, 1e-300)
    log_root = -max(l1, l2) - math.log1p(math.expm1(-w * abs(l1 - l2)) / 2) / w
    inv = 1.0 / theta2
    try:
        log_gamma = inv * _LOG2 + math.lgamma(1.0 + inv)
    except OverflowError:
        log_gamma = math.inf
    log_delta = _LOG2 - float(np.logaddexp(theta2 * l1, theta2 * l2))
    log_c = -(log_delta - _LOG2) / theta2 if log_delta > -math.inf else _LOG2 / theta2 - log_root
    return log_root, log_gamma, float(np.exp(log_c)) if log_c <= _LOG_MAX else math.inf


def _standardized(x, p: ApdParams):
    """``y = (x - mu) / sigma``, ``z = delta^(1/theta2) |y| / A(y)`` and ``z^theta2`` of data ``x``.

    ``y`` and ``z`` are inf where they leave the double range.  There the
    power is ``exp(theta2 log z)``, with ``log z`` formed from logs; at small
    ``theta2`` it is finite, and it is inf only where it overflows itself.
    """
    x = _reals(x, "x")
    t1, t2 = p.theta1, p.theta2
    log_root = _shape(t1, t2)[0]
    with np.errstate(over="ignore", divide="ignore"):
        y = (x - p.mu) / p.sigma
        base = np.where(y < 0, t1, 1.0 - t1)
        z = math.exp(log_root) * np.abs(y) / base
        power = z**t2
        far = np.isinf(z)
        if far.any():
            # |x - mu| = 2 |x/2 - mu/2|; the halves are exact where |y| overflows
            log_z = np.log(np.abs(x / 2 - p.mu / 2)) - np.log(base)
            log_z += _LOG2 + log_root - math.log(p.sigma)
            power = np.where(far, np.exp(t2 * log_z), power)
    return y, z, power


def log_pdf(x, p: ApdParams):
    """Log density at ``x`` (scalar or array)."""
    tail = _standardized(x, p)[2]  # inf far in the tails: log density -inf
    log_root, log_gamma = _shape(p.theta1, p.theta2)[:2]
    out = log_root - log_gamma - 0.5 * tail - math.log(p.sigma)
    return float(out) if out.ndim == 0 else out


def pdf(x, p: ApdParams):
    """Density at ``x`` (scalar or array)."""
    return np.exp(log_pdf(x, p))


def cdf(x, p: ApdParams):
    """Distribution function at ``x`` (scalar or array).

    Piecewise in terms of regularized incomplete gamma functions of
    ``t = 0.5 * (delta / A) * |y|^theta2``; in particular the value at the
    mode ``x = mu`` is exactly ``theta1``.  ``scipy.special`` is imported on
    the first call.
    """
    from scipy import special as sc

    y, z, power = _standardized(x, p)
    t1, t2 = p.theta1, p.theta2
    a = 1.0 / t2
    t = 0.5 * power
    # invalid: where z = inf, at theta2 below about 4e-306, log z minus the
    # Gamma term is inf - inf; there t > 0.5 is not small, so that NaN
    # p_small is discarded below.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # Below _TINY, P(a, t) = t^a / Gamma(1 + a) to double precision, and
        # t^a = z / 2^a stays representable where t underflows (large theta2).
        p_small = np.exp(np.log(z) - _shape(t1, t2)[1])
    lower = np.where(t < _TINY, p_small, sc.gammainc(a, t))
    upper = sc.gammaincc(a, t)
    # The smaller tail as computed, the larger as its complement: scipy's
    # larger tail can pass 1 (gammainc(1e-300, 0.5) is 1 + 2.3e-14).
    p_tail = lower <= upper
    lower, upper = np.where(p_tail, lower, 1.0 - upper), np.where(p_tail, 1.0 - lower, upper)
    out = np.where(y < 0, t1 * upper, t1 + (1.0 - t1) * lower)
    return float(out) if out.ndim == 0 else out


def quantile(u, p: ApdParams):
    """Quantile function, the exact inverse of :func:`cdf` on (0, 1).

    Closed-form inversion of the piecewise incomplete-gamma representation;
    ``quantile(theta1) == mu``.  Raises :class:`DomainError` where the
    quantile overflows.  ``scipy.special`` is imported on the first call.
    """
    from scipy import special as sc

    u = _reals(u, "u")
    if not np.all((u > 0.0) & (u < 1.0)):
        raise DomainError("u must lie in (0, 1)")
    t1, t2 = p.theta1, p.theta2
    log_root, log_gamma = _shape(t1, t2)[:2]
    a = 1.0 / t2
    left = u <= t1
    q_left = np.where(left, u / t1, 1.0)
    q_right = np.where(left, 0.0, (u - t1) / (1.0 - t1))
    t = np.where(
        left,
        sc.gammainccinv(a, q_left),
        sc.gammaincinv(a, q_right),
    )
    with np.errstate(over="ignore", divide="ignore"):
        # The inverse of the small-t branch of cdf: (2t)^a = 2^a Gamma(1 + a) P.
        p_lower = np.where(left, 1.0 - q_left, q_right)
        root_small = np.exp(log_gamma + np.log(p_lower))
        mag = np.where(t < _TINY, root_small, (2.0 * t) ** a) / math.exp(log_root)
        y = np.where(left, -t1 * mag, (1.0 - t1) * mag)
        out = p.mu + p.sigma * y
    if not np.all(np.isfinite(out)):
        raise DomainError(f"quantile overflows for theta2={t2}")
    return float(out) if out.ndim == 0 else out


def sample(p: ApdParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` i.i.d. variates.

    Exact scheme ``Y = c G^(1/theta2) (V - theta1)`` with
    ``G ~ Gamma(1 + 1/theta2)`` from numpy's ``Generator.standard_gamma``,
    ``V ~ U(0, 1)`` and ``c = (2/delta)^(1/theta2)``.  It inverts the
    substitution behind :func:`cdf`: the left side has probability
    ``theta1`` (``V < theta1``), and ``|Y| = (2 A T / delta)^(1/theta2)``
    for the side's coefficient ``A`` and ``T ~ Gamma(1/theta2)``, drawn by
    the exact boost ``T = G U^theta2`` with ``U`` the uniform ``V`` rescaled
    to (0, 1) on its side.  Validated against :func:`cdf` by
    Kolmogorov-Smirnov tests.  Raises :class:`DomainError` when a draw
    overflows (tiny ``theta2``, or before drawing where ``c sigma`` does),
    and :class:`MemoryError` when ``n`` draws do not fit in memory.

    The draws take two arrays of ``n`` floats at most: ``G`` is raised to
    ``1/theta2`` in its own buffer by ``**=``, which picks the kernel ``**``
    does (the same doubles), and ``V - theta1`` is formed in the uniforms'
    buffer, which is released before the finite check.
    """
    n = _check_size("n", n)
    if n == 0:
        return np.empty(0)
    t1, t2 = p.theta1, p.theta2
    scale = p.sigma * _shape(t1, t2)[2]
    if scale == math.inf:
        raise DomainError(f"draws overflow for theta2={t2}")
    # At theta2 >= 1, G^(1/theta2) <= G stays far below 1e3 (numpy's gamma
    # variates of shape <= 2), so no step overflows while c sigma and |mu| are
    # at most 1e300; elsewhere the finite check below raises where one does.
    quiet = t2 < 1.0 or scale > 1e300 or abs(p.mu) > 1e300
    with np.errstate(over="ignore", invalid="ignore") if quiet else contextlib.nullcontext():
        y = gamma_sample(1.0 + 1.0 / t2, rng, size=n)
        y **= 1.0 / t2
        v = rng.random(n)
        v -= t1
        y *= v
        del v
        y *= scale
        y += p.mu
    if not np.isfinite(y).all():
        raise DomainError(f"draws overflow for theta2={t2}")
    return y


def from_sepd(sp: SepdParams) -> ApdParams:
    """Convert skewed-exponential-power parameters to the APD parametrization.

    The two densities agree pointwise: ``pdf(x, from_sepd(sp))`` equals the
    SEPD density at ``x`` for every ``x``.  A ``gamma`` whose ``theta1 =
    1 / (1 + gamma^2)`` rounds to 1 or to 0 (below about 1.05e-8, above
    about 1.34e154) is a :class:`DomainError`.
    """
    try:
        theta1 = 1.0 / (1.0 + sp.gamma**2)
    except OverflowError:  # gamma^2 past the double range
        theta1 = 0.0
    if not 0.0 < theta1 < 1.0:
        raise DomainError(f"the SEPD skewness gamma = {sp.gamma!r} maps to theta1 = {theta1!r}, outside (0, 1)")
    theta2 = sp.q
    sigma = math.exp(_shape(theta1, theta2)[0]) * (sp.gamma + 1.0 / sp.gamma) * sp.s
    return ApdParams(theta1=theta1, theta2=theta2, mu=sp.m, sigma=sigma)
