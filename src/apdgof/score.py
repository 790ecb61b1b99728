"""Modified score test of an exponential-power null against APD alternatives.

The null fixes the shape pair at ``(theta1, theta2) = (1/2, lam)`` for a
user-chosen tail exponent ``lam >= 1`` and leaves location and scale unknown.
The test statistic is the squared norm of the shape-score average evaluated
at the null MLEs of location and scale, normalized by its asymptotic
covariance; under the null it is asymptotically chi-square with 2 degrees of
freedom, and under contiguous alternatives it is noncentral chi-square.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sc

from .errors import DegenerateSampleError, DomainError
from .numerics import chi2_quantile, chi2_sf, noncentral_chi2_sf

__all__ = [
    "LocationScale",
    "TestReport",
    "check_lambda",
    "shape_score",
    "loc_scale_score",
    "stacked_scores",
    "fit_null_mle",
    "modified_score",
    "fisher_information",
    "score_covariance",
    "test_statistic",
    "noncentrality",
    "asymptotic_power",
    "run_test",
]

_ROOT_MAX_ITER = 200


@dataclass(frozen=True)
class LocationScale:
    """A location/scale pair, e.g. the null maximum likelihood estimates."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise DomainError("location and scale must be finite")
        if not self.sigma > 0.0:
            raise DomainError(f"sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class TestReport:
    """Outcome of one goodness-of-fit test."""

    n: int
    lam: float
    loc_scale: LocationScale
    score: np.ndarray
    t_stat: float
    p_value: float
    alpha: float | None = None
    reject: bool | None = None


def check_lambda(lam: float) -> float:
    """Validate the null tail exponent (``lam >= 1``, finite)."""
    lam = float(lam)
    if not (math.isfinite(lam) and lam >= 1.0):
        raise DomainError(f"lam must be a finite real >= 1, got {lam}")
    return lam


def shape_score(y, lam: float):
    """Score components for the shape pair, evaluated at the symmetric null.

    Returns ``(-lam |y|^lam sign(y),
    -(|y|^lam log|y| - (2/lam^2)(log 2 + psi(1 + 1/lam))) / 2)``, stacked on
    the first axis.  The ``|y|^lam log|y|`` factor takes its limit value 0 at
    ``y = 0``.
    """
    lam = check_lambda(lam)
    y = np.asarray(y, dtype=float)
    ay = np.abs(y)
    pw = ay**lam
    with np.errstate(divide="ignore", invalid="ignore"):
        pw_log = np.where(ay > 0.0, pw * np.log(ay), 0.0)
    c1 = -lam * pw * np.sign(y)
    c2 = -0.5 * (pw_log - 2.0 / lam**2 * _nu(lam))
    return np.stack([c1, c2])


def loc_scale_score(y, lam: float):
    """Score components for location and scale (standardized), at the null.

    Returns ``((lam/2) |y|^(lam-1) sign(y), (lam/2) |y|^lam - 1)`` stacked on
    the first axis; ``sign(0) := 0`` keeps the first component zero at
    ``y = 0`` even for ``lam = 1``.
    """
    lam = check_lambda(lam)
    y = np.asarray(y, dtype=float)
    ay = np.abs(y)
    c1 = 0.5 * lam * ay ** (lam - 1.0) * np.sign(y)
    c2 = 0.5 * lam * ay**lam - 1.0
    return np.stack([c1, c2])


def stacked_scores(y, lam: float):
    """All four score components (shape pair, then location/scale)."""
    return np.concatenate([shape_score(y, lam), loc_scale_score(y, lam)])


def _as_clean_data(data) -> tuple[np.ndarray, float, float]:
    """The data as a flat float array, with its minimum and maximum."""
    x = np.asarray(data, dtype=float).ravel()
    if x.size < 2:
        raise DegenerateSampleError(f"need at least 2 observations, got {x.size}")
    # min and max propagate NaN, so both finite means every value is.
    lo, hi = float(x.min()), float(x.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("data must be finite")
    if hi == lo:
        raise DegenerateSampleError("data has zero spread")
    return x, lo, hi


def _residuals(x: np.ndarray, mu: float, lam: float):
    """``d = x - mu``, ``|d|`` and ``|d|^lam``, formed as the location solve forms them."""
    d = x - mu
    ad = np.abs(d)
    if lam == 1.0:
        return d, ad, ad
    if lam == 2.0:
        return d, ad, d * d
    return d, ad, ad ** (lam - 1.0) * ad


def _fit_residuals(x: np.ndarray, lo: float, hi: float, lam: float):
    """Null MLE on ``x`` (extremes ``lo``, ``hi``), with ``d = x - mu``, |d| and |d|^lam.

    Off ``lam`` in {1, 2} the arrays are those of the solve's last pass.
    """
    p = None
    if lam == 1.0:
        mu = float(np.median(x))
    elif lam == 2.0:
        mu = float(np.mean(x))
    else:
        # Full convergence keeps the statistic affine-invariant to ~1e-10
        # even for shifted data.  s' is 0/0 when mu sits on a data point and
        # may overflow for lam near 1; either way the pass bisects.  A step
        # not under half the previous one means Newton cycles or walks the
        # rounding noise of s near the root: doubled, it lands past the root
        # and closes the bracket from the far side.  A step that rounds to mu
        # moves one ulp instead.  Every break leaves the pass's arrays at mu.
        mu = min(max(float(np.mean(x)), lo), hi)
        dx = hi - lo
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for _ in range(_ROOT_MAX_ITER):
                d = x - mu
                ad = np.abs(d)
                p = ad ** (lam - 1.0)
                s = float(np.copysign(p, d).sum())
                if s > 0.0:
                    lo = mu
                elif s < 0.0:
                    hi = mu
                else:
                    break
                ds = (lam - 1.0) * float((p / ad).sum())
                h = s / ds if math.isfinite(ds) and ds > 0.0 else math.nan
                if 2.0 * abs(h) > abs(dx):
                    h *= 2.0
                step = mu + h
                if step == mu:
                    step = math.nextafter(mu, hi if s > 0.0 else lo)
                elif not lo < step < hi:
                    step = 0.5 * (lo + hi)
                if step == lo or step == hi:
                    break
                dx, mu = step - mu, step
            else:
                p = None  # out of passes: the last p belongs to the previous mu
    if p is None:
        d, ad, adl = _residuals(x, mu, lam)
    else:
        adl = p * ad
    sigma = (0.5 * lam * float(adl.sum()) / x.size) ** (1.0 / lam)
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise DegenerateSampleError("fitted scale is not positive")
    return LocationScale(mu=mu, sigma=sigma), d, ad, adl


def fit_null_mle(data, lam: float) -> LocationScale:
    """Maximum likelihood location and scale under the null.

    Location: the median for ``lam = 1`` (midpoint of the two central order
    statistics for even n), the sample mean for ``lam = 2``, otherwise the
    unique root of ``s(mu) = sum |x_i - mu|^(lam-1) sign(x_i - mu) = 0``
    (continuous and decreasing in mu for lam > 1).  The root is kept in a
    bracket that starts as ``[min x, max x]`` and shrinks by the sign of
    ``s``.  Each pass takes the Newton step ``s / s'``, with
    ``s' = (lam-1) sum |x_i - mu|^(lam-2)``, doubled when it is not under
    half the previous step, if it lands strictly inside the bracket, and
    bisects otherwise.  The solve stops when ``s == 0`` or when the bracket
    has closed to adjacent doubles.
    Scale: ``((lam/2) mean(|x_i - mu|^lam))^(1/lam)``; off lam in {1, 2}
    the powers are the solve's last ``|x_i - mu|^(lam-1)`` times
    ``|x_i - mu|``, and :func:`run_test` scores from those same arrays.
    """
    lam = check_lambda(lam)
    return _fit_residuals(*_as_clean_data(data), lam)[0]


def _mean_shape_score(d, ad, adl, sigma: float, lam: float) -> np.ndarray:
    """Mean of :func:`shape_score` over ``y = d / sigma``, given ``|d|`` and ``|d|^lam``.

    Where ``d == 0`` the weight ``|y|^lam`` is 0; lifting ``|y|`` there to the
    least positive double keeps ``|y|^lam log|y|`` at its limit 0.  For a huge
    ``sigma``, ``sigma^-lam`` underflows to 0 as ``|y|^lam`` would, where
    ``sigma^lam`` would overflow.
    """
    w = adl * np.power(sigma, -lam)
    wlog = np.log(np.maximum(ad / sigma, math.ulp(0.0)))
    wlog *= w
    r1 = -lam * float(np.copysign(w, d).sum()) / d.size
    r2 = -0.5 * (float(wlog.sum()) / d.size - 2.0 / lam**2 * _nu(lam))
    return np.array([r1, r2])


def modified_score(data, lam: float, fit: LocationScale) -> np.ndarray:
    """Average shape score of the standardized residuals ``(x - mu) / sigma``.

    ``fit`` should come from :func:`fit_null_mle` on the same data; the
    result is finite even when the fitted location coincides with a data
    point (the ``y = 0`` conventions of :func:`shape_score`).  The residual
    powers are formed as the location solve forms them, and :func:`run_test`
    averages its fit's own residuals with the same code.
    """
    lam = check_lambda(lam)
    x = np.asarray(data, dtype=float).ravel()
    if not fit.sigma > 0.0:
        raise DegenerateSampleError("sigma must be positive")
    return _mean_shape_score(*_residuals(x, fit.mu, lam), fit.sigma, lam)


def fisher_information(lam: float) -> np.ndarray:
    """Closed-form null covariance J of the stacked scores, as a 4x4 matrix.

    Rows and columns run (theta1, theta2, mu, sigma), the order of
    :func:`stacked_scores`.  The entries pairing components of opposite
    parity vanish exactly; the six nonzero ones are gamma/digamma/trigamma
    expressions in ``lam`` with ``beta = 1 + 1/lam`` and
    ``nu = log 2 + psi(beta)``.  :func:`score_covariance` is the Schur
    complement ``J[:2, :2] - J[:2, 2:] J[2:, 2:]^-1 J[2:, :2]`` in closed form.
    """
    lam = check_lambda(lam)
    beta = 1.0 + 1.0 / lam
    nu = _nu(lam)
    g_beta = float(sc.gamma(beta))
    j = np.zeros((4, 4))
    j[0, 0] = 4.0 * (1.0 + lam)
    j[1, 1] = (nu * (2.0 + nu) + beta * float(sc.polygamma(1, beta))) / lam**3
    j[0, 2] = j[2, 0] = -(2.0 ** (1.0 - 1.0 / lam)) * lam / g_beta
    j[1, 3] = j[3, 1] = -(1.0 + nu) / lam
    j[2, 2] = lam * float(sc.gamma(3.0 - beta)) / (2.0 ** (2.0 / lam) * g_beta)
    j[3, 3] = lam
    return j


# Cached: every replicate of a study scores and tests at the same lam.
@functools.lru_cache(maxsize=256)
def _nu(lam: float) -> float:
    return math.log(2.0) + float(sc.digamma(1.0 + 1.0 / lam))


@functools.lru_cache(maxsize=256)
def _score_cov_diag(lam: float) -> tuple[float, float]:
    beta = 1.0 + 1.0 / lam
    s11 = 4.0 * (1.0 + lam) - 4.0 * lam / (
        float(sc.gamma(3.0 - beta)) * float(sc.gamma(beta))
    )
    s22 = (beta * float(sc.polygamma(1, beta)) - 1.0) / lam**3
    return s11, s22


def score_covariance(lam: float) -> np.ndarray:
    """Asymptotic covariance of the root-n-scaled modified score (closed form).

    Diagonal matrix ``diag(4(1 + lam) - 4 lam / (Gamma(3 - beta) Gamma(beta)),
    (beta psi'(beta) - 1) / lam^3)`` with ``beta = 1 + 1/lam``; positive
    definite for every ``lam >= 1``.
    """
    return np.diag(_score_cov_diag(check_lambda(lam)))


def _check_alpha(alpha) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    return alpha


def test_statistic(
    score: np.ndarray,
    n: int,
    lam: float,
    alpha: float | None = None,
    fit: LocationScale | None = None,
) -> TestReport:
    """Quadratic-form statistic and p-value from an averaged score vector.

    ``T = n (r1^2 / S11 + r2^2 / S22)`` with the diagonal covariance from
    :func:`score_covariance`; the p-value is the chi-square(2) survival
    function at ``T``; with ``alpha`` in (0, 1), the report says whether
    ``p < alpha``.
    """
    lam = check_lambda(lam)
    if alpha is not None:
        alpha = _check_alpha(alpha)
    if n % 1 != 0 or n < 2:  # n % 1 is NaN for a NaN or infinite n
        raise DomainError(f"n must be an integer >= 2, got {n}")
    n = int(n)
    r = np.asarray(score, dtype=float).ravel()
    if r.size != 2:
        raise DomainError(f"score must have 2 entries, got {r.size}")
    s11, s22 = _score_cov_diag(lam)
    t = float(n * (r[0] ** 2 / s11 + r[1] ** 2 / s22))
    p = chi2_sf(t)
    reject = None if alpha is None else bool(p < alpha)
    return TestReport(
        n=n,
        lam=lam,
        loc_scale=fit,
        score=r,
        t_stat=t,
        p_value=p,
        alpha=alpha,
        reject=reject,
    )


def noncentrality(delta, lam: float) -> float:
    """Noncentrality ``delta' Sigma delta`` of a finite local shape drift ``delta``."""
    lam = check_lambda(lam)
    d = np.asarray(delta, dtype=float).ravel()
    if d.size != 2 or not np.isfinite(d).all():
        raise DomainError(f"delta must be a finite 2-vector, got {delta}")
    s11, s22 = _score_cov_diag(lam)
    return float(s11 * d[0] ** 2 + s22 * d[1] ** 2)


def asymptotic_power(delta, lam: float, alpha: float) -> float:
    """Limiting rejection probability under the local alternative ``delta``.

    Noncentral chi-square(2) tail beyond the level-``alpha`` critical value,
    with noncentrality :func:`noncentrality`; equals ``alpha`` at
    ``delta = 0``.
    """
    crit = chi2_quantile(1.0 - _check_alpha(alpha))
    return noncentral_chi2_sf(crit, noncentrality(delta, lam))


def run_test(data, lam: float, alpha: float = 0.05) -> TestReport:
    """Fit the null location/scale, then test the shape pair.

    Rejects when the p-value falls below ``alpha`` in (0, 1).  The score is
    :func:`modified_score`, taken from the residuals the location solve left
    at the fit.  The statistic is invariant under positive affine
    transformations of the data.
    """
    lam = check_lambda(lam)
    x, lo, hi = _as_clean_data(data)
    fit, d, ad, adl = _fit_residuals(x, lo, hi, lam)
    r = _mean_shape_score(d, ad, adl, fit.sigma, lam)
    return test_statistic(r, x.size, lam, alpha=alpha, fit=fit)
