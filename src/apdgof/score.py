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

from .errors import DegenerateSampleError, DomainError
from .numerics import (
    _as_float,
    _check_count,
    _check_fields,
    chi2_quantile,
    chi2_sf,
    noncentral_chi2_sf,
)

__all__ = [
    "LocationScale",
    "TestReport",
    "check_lambda",
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
# B_2k / (2k) and B_2k for k = 1..6: the asymptotic series of psi and psi'.
_PSI_TERMS = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760)
_PSI1_TERMS = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730)


@dataclass(frozen=True)
class LocationScale:
    """A location/scale pair, e.g. the null maximum likelihood estimates, stored as floats."""

    mu: float
    sigma: float

    def __post_init__(self):
        _check_fields(self, ("mu", "sigma"), positive=("sigma",))


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
    """Validate the null tail exponent: ``lam >= 1`` with a finite ``lam^3``.

    The closed forms divide by ``lam^3``, which overflows from about 5.6e102.
    """
    lam = _as_float(lam, "lam")
    if not (lam >= 1.0 and math.isfinite(lam * lam * lam)):
        raise DomainError(f"lam must be >= 1 with a finite cube (up to ~5.64e102), got {lam}")
    return lam


def stacked_scores(y, lam: float):
    """Per-observation score of all four components at the symmetric null.

    Rows run (theta1, theta2, mu, sigma), the order of
    :func:`fisher_information`: ``-lam |y|^lam sign(y)``,
    ``-(|y|^lam log|y| - (2/lam^2)(log 2 + psi(1 + 1/lam))) / 2``, then the
    standardized location and scale scores ``(lam/2) |y|^(lam-1) sign(y)``
    and ``(lam/2) |y|^lam - 1``.  At ``y = 0`` the ``|y|^lam log|y|`` factor
    takes its limit value 0 (:func:`_lifted_log`), and ``sign(0) := 0`` keeps
    the location row 0 even for ``lam = 1``.
    """
    lam = check_lambda(lam)
    y = np.asarray(y, dtype=float)
    ay = np.abs(y)
    sgn = np.sign(y)
    pw = ay**lam
    shape = (-lam * pw * sgn, -0.5 * (pw * _lifted_log(ay) - 2.0 / lam**2 * _nu(lam)))
    loc_scale = (0.5 * lam * ay ** (lam - 1.0) * sgn, 0.5 * lam * pw - 1.0)
    return np.stack([*shape, *loc_scale])


def _lifted_log(a, out=None):
    """``log(a)``, ``a >= 0``, with 0 lifted to 5e-324: ``a^lam log(a)`` keeps its limit 0 there."""
    return np.log(np.maximum(a, math.ulp(0.0), out=out), out=out)


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


def _residuals(x: np.ndarray, mu: float, lam: float, d=None, ad=None):
    """``d = x - mu``, ``|d|`` and ``|d|^(lam-1)``: the residual powers of every fit and score.

    ``d`` and ``|d|`` are written into the buffers ``d`` and ``ad`` when given.
    The power is a fresh ``**``: ``np.power(..., out=)`` skips its square-root
    fast path, which halves the time of a pass at lam = 1.5.
    """
    d = np.subtract(x, mu, out=d)
    ad = np.abs(d, out=ad)
    return d, ad, ad ** (lam - 1.0)


def _locate(x: np.ndarray, lo: float, hi: float, lam: float):
    """Null MLE of location on ``x`` (extremes ``lo``, ``hi``), then ``d``, |d|, |d|^(lam-1).

    The arrays are ``d = x - mu`` and its powers at the returned ``mu``.  The
    solve forms ``d`` and ``|d|`` in two buffers it allocates once and writes
    its sums' terms over them; when a pass ends the solve, both are formed
    again in those buffers and the last pass's ``|d|^(lam-1)`` is kept.  Out
    of passes, the power is formed again too; for lam in {1, 2} all three
    come from :func:`_residuals`.  So the solve holds ``x`` plus three arrays.
    """
    d = ad = None
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
        # moves one ulp instead.
        mu = min(max(float(np.mean(x)), lo), hi)
        dx = hi - lo
        d, ad = np.empty_like(x), np.empty_like(x)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for _ in range(_ROOT_MAX_ITER):
                p = None  # the last pass's power goes before this pass forms its own
                d, ad, p = _residuals(x, mu, lam, d, ad)
                s = float(np.copysign(p, d, out=d).sum())
                if s > 0.0:
                    lo = mu
                elif s < 0.0:
                    hi = mu
                else:
                    break
                ds = (lam - 1.0) * float(np.divide(p, ad, out=ad).sum())
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
                p = None  # out of passes: the last power was formed at the previous mu
            if p is not None:
                np.abs(np.subtract(x, mu, out=d), out=ad)
                return mu, d, ad, p
    return (mu, *_residuals(x, mu, lam, d, ad))


def _fit(x: np.ndarray, lo: float, hi: float, lam: float):
    """Null MLE on ``x`` (extremes ``lo``, ``hi``), with ``d = x - mu``, |d| and |d|^lam.

    ``|d|^lam`` is formed in the buffer of :func:`_locate`'s ``|d|^(lam-1)``.
    """
    mu, d, ad, p = _locate(x, lo, hi, lam)
    adl = np.multiply(p, ad, out=p)
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
    Scale: ``((lam/2) mean(|x_i - mu|^lam))^(1/lam)``, the powers taken as
    ``|x_i - mu|^(lam-1)`` (off lam in {1, 2} the solve's last) times
    ``|x_i - mu|``; :func:`run_test` scores from those same arrays.
    """
    lam = check_lambda(lam)
    return _fit(*_as_clean_data(data), lam)[0]


def _mean_shape_score(d, ad, adl, sigma: float, lam: float) -> np.ndarray:
    """Mean shape score (rows 0-1 of :func:`stacked_scores`) at ``y = d / sigma``.

    ``ad`` and ``adl`` are ``|d|`` and ``|d|^lam``.  Where ``d == 0`` the
    weight ``|y|^lam`` is 0, and :func:`_lifted_log` keeps
    ``|y|^lam log|y|`` at its limit 0.  For a huge ``sigma``,
    ``sigma^-lam`` underflows to 0 as ``|y|^lam`` would, where ``sigma^lam``
    would overflow.  Both ``ad`` and ``adl`` are overwritten: ``|y|`` and
    its log are formed in ``ad``'s buffer, the weights in ``adl``'s.
    """
    w = np.multiply(adl, np.power(sigma, -lam), out=adl)
    wlog = np.divide(ad, sigma, out=ad)
    _lifted_log(wlog, out=wlog)
    wlog *= w
    r1 = -lam * float(np.copysign(w, d, out=w).sum()) / d.size
    r2 = -0.5 * (float(wlog.sum()) / d.size - 2.0 / lam**2 * _nu(lam))
    return np.array([r1, r2])


def modified_score(data, lam: float, fit: LocationScale) -> np.ndarray:
    """Average shape score of the standardized residuals ``(x - mu) / sigma``.

    ``fit`` should come from :func:`fit_null_mle` on the same data; the
    result is finite even when the fitted location coincides with a data
    point (the ``y = 0`` conventions of :func:`stacked_scores`).  The residual
    powers are formed as the location solve forms them, and :func:`run_test`
    averages its fit's own residuals with the same code.
    """
    lam = check_lambda(lam)
    d, ad, p = _residuals(np.asarray(data, dtype=float).ravel(), fit.mu, lam)
    return _mean_shape_score(d, ad, np.multiply(p, ad, out=p), fit.sigma, lam)


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
    g_beta = math.gamma(beta)
    j = np.zeros((4, 4))
    j[0, 0] = 4.0 * (1.0 + lam)
    j[1, 1] = (nu * (2.0 + nu) + beta * _trigamma(beta)) / lam**3
    j[0, 2] = j[2, 0] = -(2.0 ** (1.0 - 1.0 / lam)) * lam / g_beta
    j[1, 3] = j[3, 1] = -(1.0 + nu) / lam
    j[2, 2] = lam * math.gamma(3.0 - beta) / (2.0 ** (2.0 / lam) * g_beta)
    j[3, 3] = lam
    return j


def _digamma(x: float) -> float:
    """psi(x) for x > 0; within 2e-15 on the (1, 2] that ``beta`` spans.

    Shifts x up to at least 12 by ``psi(x) = psi(x + 1) - 1/x``, then sums the
    asymptotic series ``log x - 1/(2x) - sum_k B_2k / (2k x^2k)`` through
    ``x^-12`` (the next term is below 1e-16 there).
    """
    parts = []
    while x < 12.0:
        parts.append(-1.0 / x)
        x += 1.0
    z = 1.0 / (x * x)
    tail = sum(c * z**k for k, c in enumerate(_PSI_TERMS, 1))
    return math.fsum([*parts, math.log(x), -0.5 / x, -tail])


def _trigamma(x: float) -> float:
    """psi'(x) for x > 0; within 1e-15 relative on the (1, 2] that ``beta`` spans.

    Shifts x up to at least 12 by ``psi'(x) = psi'(x + 1) + 1/x^2``, then sums
    ``1/x + 1/(2x^2) + sum_k B_2k / x^(2k+1)`` through ``x^-13``.
    """
    parts = []
    while x < 12.0:
        parts.append(1.0 / (x * x))
        x += 1.0
    z = 1.0 / (x * x)
    tail = sum(c * z**k for k, c in enumerate(_PSI1_TERMS, 1))
    return math.fsum([*parts, (1.0 + 0.5 / x + tail) / x])


# Cached: every replicate of a study scores and tests at the same lam.
@functools.lru_cache(maxsize=256)
def _nu(lam: float) -> float:
    return math.log(2.0) + _digamma(1.0 + 1.0 / lam)


def _sinc_defect(lam: float) -> float:
    """``lam^2 (1 - sinc(1/lam))`` with ``sinc(x) = sin(pi x) / (pi x)``, for ``lam >= 1``.

    For ``lam > 2`` the difference cancels, so it is summed as the Taylor
    series ``pi^2 sum_k (-z)^k / (2k + 3)!`` in ``z = (pi / lam)^2``; ten
    terms leave under 1e-19 at ``lam = 2``.
    """
    px = math.pi / lam
    if lam <= 2.0:
        return lam * lam * (1.0 - math.sin(px) / px)
    z = px * px
    term = total = math.pi**2 / 6.0
    for k in range(1, 11):
        term *= -z / ((2 * k + 2) * (2 * k + 3))
        total += term
    return total


@functools.lru_cache(maxsize=256)
def _score_cov_diag(lam: float) -> tuple[float, float]:
    beta = 1.0 + 1.0 / lam
    if lam >= 1.5:
        # 4 lam / (Gamma(3 - beta) Gamma(beta)) = 4 lam^2 sinc(1/lam) / (lam - 1),
        # so the two terms' difference has a closed form, which cancels
        # nothing for large lam; at lam = 1 it is 0/0.
        s11 = 4.0 * (_sinc_defect(lam) - 1.0) / (lam - 1.0)
    else:
        s11 = 4.0 * (1.0 + lam) - 4.0 * lam / (math.gamma(3.0 - beta) * math.gamma(beta))
    s22 = (beta * _trigamma(beta) - 1.0) / lam**3
    return s11, s22


def score_covariance(lam: float) -> np.ndarray:
    """Asymptotic covariance of the root-n-scaled modified score (closed form).

    Diagonal matrix ``diag(4(1 + lam) - 4 lam / (Gamma(3 - beta) Gamma(beta)),
    (beta psi'(beta) - 1) / lam^3)`` with ``beta = 1 + 1/lam``; positive
    definite for every ``lam >= 1``.  From ``lam = 1.5`` the first entry is
    taken through ``Gamma(1 + x) Gamma(2 - x) = (1 - x) / sinc(x)`` at
    ``x = 1/lam``, which keeps it accurate where the two terms above cancel
    (large ``lam``).
    """
    return np.diag(_score_cov_diag(check_lambda(lam)))


def _check_alpha(alpha) -> float:
    alpha = _as_float(alpha, "alpha")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    return alpha


def _check_delta(delta) -> np.ndarray:
    try:
        d = np.asarray(delta, dtype=float).ravel()
    except OverflowError:  # an int beyond the double range
        d = None
    if d is None or d.size != 2 or not np.isfinite(d).all():
        raise DomainError(f"delta must be a finite 2-vector, got {delta}")
    return d


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
    n = _check_count("n", n, 2, DomainError)
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
    d = _check_delta(delta)
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
    fit, d, ad, adl = _fit(x, lo, hi, lam)
    r = _mean_shape_score(d, ad, adl, fit.sigma, lam)
    return test_statistic(r, x.size, lam, alpha=alpha, fit=fit)
