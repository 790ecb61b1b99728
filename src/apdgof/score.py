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
    _check_count,
    _check_fields,
    _real,
    _reals,
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
# Values in a block of a large sample: three float64 blocks fit a 2 MiB per-core L2.
_BLOCK = 2**15
# Values a walk of the lam = 1 median selection compares at a time: a chunk's gather copies at most 32 KiB.
_CHUNK = 2**12
# The floating-point error state every residual x - mu and its signed power is formed in, and the
# location solve runs in: s' is 0/0 on a data point, and a power may overflow; either way the pass bisects.
_RESIDUAL_STATE = {"divide": "ignore", "invalid": "ignore", "over": "ignore"}
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
    loc_scale: LocationScale | None
    score: np.ndarray
    t_stat: float
    p_value: float
    alpha: float | None = None
    reject: bool | None = None


def check_lambda(lam: float) -> float:
    """Validate the null tail exponent: a Python or numpy real ``lam >= 1`` with a finite ``lam^3``.

    The closed forms divide by ``lam^3``, which overflows from about 5.6e102.
    Anything else is a :class:`DomainError`.
    """
    lam = _real(lam, "lam")
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
    y = _reals(y, "y")
    ay = np.abs(y)
    sgn = np.sign(y)
    pw = ay**lam
    shape = (-lam * pw * sgn, -0.5 * (pw * _lifted_log(ay) - 2.0 / lam**2 * _nu(lam)))
    loc_scale = (0.5 * lam * ay ** (lam - 1.0) * sgn, 0.5 * lam * pw - 1.0)
    return np.stack([*shape, *loc_scale])


def _lifted_log(a, out=None):
    """``log(a)``, ``a >= 0``, with 0 lifted to 5e-324: ``a^lam log(a)`` keeps its limit 0 there."""
    return np.log(np.maximum(a, math.ulp(0.0), out=out), out=out)


def _observations(x: np.ndarray) -> np.ndarray:
    """Float data ``x`` as a flat array, if it holds 2 observations or more; else :class:`DegenerateSampleError`."""
    x = x.ravel()
    if x.size < 2:
        raise DegenerateSampleError(f"need at least 2 observations, got {x.size}")
    return x


def _as_clean_data(x: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Finite float data ``x`` as a flat array, with its minimum and maximum."""
    x = _observations(x)
    lo, hi = float(x.min()), float(x.max())
    if hi == lo:
        raise DegenerateSampleError("data has zero spread")
    return x, lo, hi


def _residuals(x: np.ndarray, mu: float, lam: float, d: np.ndarray, p: np.ndarray):
    """``d = x - mu`` and ``p = sign(d) |d|^(lam-1)``: the residual power of every fit and score.

    Both are written into the buffers ``d`` and ``p``, of ``x``'s size.
    ``|d|^lam`` is the product ``p d``: the signs of ``p`` and ``d`` match,
    so it is never negative (``copysign(1, -0) * -0`` is +0).  The power of
    ``|d|`` is formed in place by ``**=``, which picks the kernel ``**``
    does for the exponent (as ``apd.sample`` draws), so the doubles are the
    same.  At exponent 2 the signed power is the one multiply ``|d| d``,
    the same doubles as the square signed as ``d`` (-0, underflow and
    overflow included); at exponent 1 it is a copy of ``d``, which
    ``sign(d) |d|`` is bit for bit, and at exponent 0 it is ``d``'s sign on
    1, as ``|d|^0`` is 1 for every ``d``, inf included.
    """
    d = np.subtract(x, mu, out=d)
    e = lam - 1.0
    if e == 0.0:
        return d, np.copysign(1.0, d, out=p)
    if e == 1.0:
        return d, np.positive(d, out=p)
    p = np.abs(d, out=p)
    if e == 2.0:
        return d, np.multiply(p, d, out=p)
    p **= e
    return d, np.copysign(p, d, out=p)


def _halves(n: int) -> tuple[int, int]:
    """The sizes of the two halves numpy's pairwise sum splits a span of ``n > 128`` values into."""
    h = n // 2 - n // 2 % 8
    return h, n - h


def _largest_leaf(n: int) -> int:
    """The most values a leaf of :func:`_walk` holds, searched over the whole tree: ``n`` for one leaf.

    The left half can be a leaf of exactly :data:`_BLOCK` values while the
    right half splits further: at n = 65,545 the leaves hold 32,768, 16,384
    and 16,393 values.  At n = 1e5 none holds more than 25,000.
    """
    return n if n <= _BLOCK else max(map(_largest_leaf, _halves(n)))


def _buffers(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The two float64 buffers of a fit or a score on ``n`` values, each of :func:`_largest_leaf` values.

    Every fit and score takes its buffers here, but for one exception: a
    sample handed over to a one-leaf fit at lam in {1, 2} is its own ``d``
    (:func:`_locate`).
    """
    m = _largest_leaf(n)
    return np.empty(m), np.empty(m)


def _walk(x: np.ndarray, d: np.ndarray, p: np.ndarray, mu: float, lam: float, sums) -> tuple[float, ...]:
    """The sums ``sums(d, p)`` returns for the residuals of each leaf of ``x``, added up numpy's pairwise tree.

    A leaf ``v`` has its ``d = v - mu`` and signed power ``p``
    (:func:`_residuals`) formed in :data:`_RESIDUAL_STATE`, as every
    residual is, in the first ``v.size`` values of the buffers; ``sums``
    runs in the caller's state.  numpy's float64 ``add.reduce`` splits
    a span of more than 128 values at ``h = n//2 - (n//2) % 8``
    (:func:`_halves`) and adds the sums of its two halves.  ``x`` is split
    the same way down to leaves of at most :data:`_BLOCK` values, and the
    leaf sums are added back up the same tree, so every sum is the double
    ``np.add.reduce`` over all of ``x`` would give; data of at most
    ``_BLOCK`` values are one leaf.
    """
    n = x.size
    if n > _BLOCK:
        h = _halves(n)[0]
        left = _walk(x[:h], d, p, mu, lam, sums)
        return tuple(a + b for a, b in zip(left, _walk(x[h:], d, p, mu, lam, sums)))
    with np.errstate(**_RESIDUAL_STATE):
        d, p = _residuals(x, mu, lam, d[:n], p[:n])
    return sums(d, p)


def _signed_sum(d: np.ndarray, p: np.ndarray) -> tuple[float]:
    """``(s,)``, ``s = sum p`` for the signed power ``p``: the location score at ``mu``."""
    return (float(np.add.reduce(p)),)


def _ratio_sum(d: np.ndarray, p: np.ndarray) -> tuple[float]:
    """``(sum p / d,)``, s' / (lam - 1) at ``mu``: ``p / d``, written over ``d``, is ``|p| / |d|`` bit for bit."""
    return (float(np.add.reduce(np.divide(p, d, out=d))),)


def _slope_sums(d: np.ndarray, p: np.ndarray) -> tuple[float, float]:
    """:func:`_signed_sum` and :func:`_ratio_sum`: the sums of a pass of the location solve past one leaf."""
    return _signed_sum(d, p) + _ratio_sum(d, p)


def _power_sum(d: np.ndarray, p: np.ndarray) -> tuple[float]:
    """``(sum |d|^lam,)``, ``|d|^lam`` the signed power ``p`` times ``d``, formed in ``p``'s buffer."""
    return (float(np.add.reduce(np.multiply(p, d, out=p))),)


def _gather(x: np.ndarray, a: float, b: float, d: np.ndarray) -> tuple[int, int, int]:
    """``(below, within, kept)``: the counts of ``x < a`` and of ``a <= x <= b``, and of the latter copied into ``d``.

    ``x`` is walked in chunks of :data:`_CHUNK` values, each with its two
    masks; a chunk's values in ``[a, b]`` are copied into ``d``, after those
    before them, while they fit, so ``d[:kept]`` holds all of them when
    ``kept == within``.
    """
    below = within = kept = 0
    for i in range(0, x.size, _CHUNK):
        v = x[i : i + _CHUNK]
        lt, le = np.less(v, a), np.less_equal(v, b)
        n_lt = np.count_nonzero(lt)
        c = np.count_nonzero(le) - n_lt
        below, within = below + n_lt, within + c
        if c and kept + c <= d.size:
            d[kept : kept + c] = v[np.not_equal(le, lt, out=le)]
            kept += c
    return below, within, kept


def _median(x: np.ndarray, lo: float, hi: float, d: np.ndarray) -> float:
    """``np.median(x)``'s double for ``x`` past one leaf (extremes ``lo``, ``hi``), selected in the buffer ``d``.

    A bracket ``[lo, hi]`` holds the central ranks ``(n-1)//2`` and ``n//2``.
    While it holds more values than ``d``, a round selects two pivots about
    those ranks from a strided sample of its values, counts the values
    below and between them (:func:`_gather`) and narrows the bracket to the
    part that holds the ranks.  The values of a bracket that fits ``d`` are
    gathered there (a bracket of one value needs none), and the centre is
    ``np.mean`` over the one or two selected, as in ``np.median``: the same
    double and the same overflow warning.  A round that cannot shrink the
    bracket (heavy ties about the centre, an adversarial order) and a zero
    at the centre, whose sign could depend on which zero ``np.median``'s
    partition puts there, take ``np.median``.
    """
    n = x.size
    r0, r1 = (n - 1) // 2, n // 2
    below, within = 0, n  # the values under the bracket and in it
    while True:
        a, b = lo, hi
        if within > d.size:
            # A sample of t values costs about t to partition and leaves about 4 within / sqrt(t) to
            # gather, least at t = (2 within)^(2/3); t is kept large enough that those fit half of d.
            # An odd stride meets every place of a period of 2, 4, 8, ... values.
            t = min(d.size, max(int((2 * within) ** (2 / 3)), (8 * within // d.size) ** 2))
            k = _gather(x[:: -(-within // t) | 1], lo, hi, d)[2]
            if not k:
                return float(np.median(x))
            # Pivots about 4 standard deviations of a sample rank beyond the central ranks' places in the sample.
            g = 2 * math.isqrt(k)
            i0 = max((r0 - below) * k // within - g, 0)
            i1 = min((r1 - below) * k // within + g, k - 1)
            sample = d[:k]
            sample.partition([i0, i1])
            a, b = float(sample[i0]), float(sample[i1])
        na, nw, kept = _gather(x, a, b, d)
        if na <= r0 and r1 < na + nw and (kept == nw or a == b):
            break
        # The bracket's values under a, in [a, b] and above b: keep the parts that hold the ranks.
        top = below + within
        if r1 < na + nw:
            hi, top = (math.nextafter(a, -math.inf), na) if r1 < na else (b, na + nw)
        if r0 >= na:
            lo, below = (a, na) if r0 < na + nw else (math.nextafter(b, math.inf), na + nw)
        if top - below == within:
            return float(np.median(x))
        within = top - below
    if a == b:  # the central values are all a, however many values equal it
        na, kept = r0, r1 - r0 + 1
        d[:kept] = a
    mid = d[:kept]
    mid.partition([r0 - na, r1 - na])
    mid = mid[r0 - na : r1 - na + 1]
    return float(np.mean(mid)) if mid.all() else float(np.median(x))


def _locate(x: np.ndarray, lo: float, hi: float, lam: float, overwrite: bool = False):
    """Null MLE of location on ``x`` (extremes ``lo``, ``hi``), with the two buffers of the fit.

    Returns ``(mu, d, p)``, the two buffers of :func:`_buffers`, allocated
    once for every lam and n.  When ``x`` is one leaf (n <= _BLOCK, every
    study), they hold ``d = x - mu`` and the signed power ``p``
    (:func:`_residuals`) at the returned ``mu``; past one leaf they are
    scratch for the walks (:func:`_walk`) that follow.  Every residual is
    formed in :data:`_RESIDUAL_STATE`, at every lam.  The one exception:
    with ``overwrite`` (a sample handed over, which nothing reads after the
    fit), a one-leaf fit at lam in {1, 2}, which reads ``x`` no more once
    ``mu`` is known, writes ``d`` over ``x`` and allocates only ``p``.
    Every other fit rereads ``x`` on each pass or walk.  Each pass forms
    the residuals at its ``mu`` and takes s and s'; it ends the solve when
    s = 0 or when the sign of s leaves no double strictly inside the
    bracket, where every step would land on an end.  Past one leaf a pass
    walks the leaves once, for both (:func:`_slope_sums`).  On one leaf it
    takes s (:func:`_signed_sum`), and s' (:func:`_ratio_sum`) only if it
    goes on: the closing pass's ``d`` and ``p`` are the buffers the scale
    sums (:func:`_fit`), and the divide writes over ``d``.  Out of passes,
    and for lam in {1, 2}, the residuals are formed at ``mu``.  The lam = 1
    location is ``np.median``'s double: on one leaf ``np.median`` itself,
    past one leaf selected block by block in the buffer ``d``
    (:func:`_median`), with no copy of the n values.
    """
    one = x.size <= _BLOCK
    if lam == 1.0 and not one:
        d, p = _buffers(x.size)
        return _median(x, lo, hi, d), d, p
    # Off lam = 1 the mean, the double np.mean gives, is the location or the start point.
    mu = float(np.median(x)) if lam == 1.0 else float(np.add.reduce(x)) / x.size
    if lam == 1.0 or lam == 2.0:
        if not one:
            return (mu, *_buffers(x.size))
        # After np.median, whose copy of the leaf is gone by then.
        d, p = (x, np.empty(x.size)) if overwrite else _buffers(x.size)
        with np.errstate(**_RESIDUAL_STATE):
            return (mu, *_residuals(x, mu, lam, d, p))
    d, p = _buffers(x.size)
    # Full convergence keeps the statistic affine-invariant to ~1e-10 even
    # for shifted data.  s' may overflow for lam near 1.  A step not under
    # half the previous one means Newton cycles or walks the rounding noise
    # of s near the root: doubled, it lands past the root and closes the
    # bracket from the far side.  A step that rounds to mu moves one ulp
    # instead.
    mu = min(max(mu, lo), hi)
    dx = hi - lo
    with np.errstate(**_RESIDUAL_STATE):
        for _ in range(_ROOT_MAX_ITER):
            if one:
                (s,) = _signed_sum(*_residuals(x, mu, lam, d, p))
            else:
                s, sp = _walk(x, d, p, mu, lam, _slope_sums)
            if s > 0.0:
                lo = mu
            elif s < 0.0:
                hi = mu
            else:
                return mu, d, p
            if not math.nextafter(lo, hi) < hi:  # no double left inside: every step lands on an end
                return mu, d, p
            if one:
                (sp,) = _ratio_sum(d, p)
            ds = (lam - 1.0) * sp
            h = s / ds if 0.0 < ds < math.inf else math.nan
            if 2.0 * abs(h) > abs(dx):
                h *= 2.0
            step = mu + h
            if step == mu:
                step = math.nextafter(mu, hi if s > 0.0 else lo)
            elif not lo < step < hi:
                step = 0.5 * (lo + hi)
            dx, mu = step - mu, step
        if one:  # out of passes: the last power was formed at the previous mu
            _residuals(x, mu, lam, d, p)
    return mu, d, p


def _fit(x: np.ndarray, lo: float, hi: float, lam: float, overwrite: bool = False):
    """Null MLE ``mu``, ``sigma`` on ``x`` (extremes ``lo``, ``hi``), with :func:`_locate`'s two buffers.

    They are :func:`_buffers`' at every lam and n, but for ``overwrite``'s
    exception (:func:`_locate`), and the score reads them next.  The scale
    sums ``|d|^lam`` (:func:`_power_sum`): on one leaf over the residuals
    the solve left, after which the buffers hold ``d = x - mu`` and
    ``|d|^lam``; past one leaf in one more walk (:func:`_walk`), whose
    residuals are formed in :data:`_RESIDUAL_STATE` as the solve's are.  The
    sum is formed outside it, so it warns where it overflows.
    """
    mu, d, p = _locate(x, lo, hi, lam, overwrite)
    if x.size <= _BLOCK:
        (total,) = _power_sum(d, p)
    else:
        (total,) = _walk(x, d, p, mu, lam, _power_sum)
    sigma = (0.5 * lam * total / x.size) ** (1.0 / lam)
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise DegenerateSampleError("fitted scale is not positive")
    return mu, sigma, d, p


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
    the signed ``sign(x_i - mu) |x_i - mu|^(lam-1)`` (off lam in {1, 2} the
    solve's last) times ``x_i - mu``; :func:`run_test` scores from those
    same arrays.  At every lam the fit holds two buffers the size of the
    largest leaf of numpy's pairwise sum, n values up to 32,768.  Past that
    many the data are walked in blocks, those leaves: once a pass of the
    solve, for ``s`` and ``s'`` together, and once for the scale.  Each sum
    is added up the same tree, so it is the double of a sum over the whole
    sample.  The lam = 1 median is ``np.median``'s double; past one block
    it is selected in one of the buffers.  Every residual ``x_i - mu`` and
    its power is formed with numpy's floating-point warnings off, at every
    lam; the scale's sum keeps them, and a scale that is not finite and
    positive raises :class:`DegenerateSampleError`.  ``data`` is never
    written: only a study's replicate hands its draws over to be
    overwritten (:func:`_test`).
    """
    lam = check_lambda(lam)
    mu, sigma = _fit(*_as_clean_data(_reals(data, "data")), lam)[:2]
    return LocationScale(mu=mu, sigma=sigma)


def _shape_sums(d: np.ndarray, adl: np.ndarray, sigma: float, lam: float) -> tuple[float, float]:
    """The sums of ``sign(y) |y|^lam`` and ``|y|^lam log|y|`` at ``y = d / sigma``, for ``adl = |d|^lam``.

    Where ``d == 0`` the weight ``|y|^lam`` is 0, and :func:`_lifted_log`
    keeps ``|y|^lam log|y|`` at its limit 0.  For a huge ``sigma``,
    ``sigma^-lam`` underflows to 0 as ``|y|^lam`` would, where ``sigma^lam``
    would overflow.  Both buffers are overwritten: the weights ``w`` are
    formed in ``adl``'s and signed as ``d`` there for the first sum; then
    ``|y|``, its log and ``w log|y|`` are formed in ``d``'s, ``w`` taken back
    as the absolute value of the signed weights.
    """
    w = np.multiply(adl, np.power(sigma, -lam), out=adl)
    s1 = float(np.add.reduce(np.copysign(w, d, out=w)))
    wlog = np.divide(np.abs(d, out=d), sigma, out=d)
    _lifted_log(wlog, out=wlog)
    wlog *= np.abs(w, out=w)
    return s1, float(np.add.reduce(wlog))


def _mean_shape_score(x, d, p, mu: float, sigma: float, lam: float, fitted: bool = False) -> np.ndarray:
    """Mean shape score (rows 0-1 of :func:`stacked_scores`) at ``y = (x - mu) / sigma``.

    :func:`_shape_sums` of ``d`` and ``|d|^lam = p d``, in the two buffers
    ``d`` and ``p`` (:func:`_walk`).  ``fitted``: ``mu`` and ``sigma`` are
    :func:`_fit`'s on ``x``, and ``d`` and ``p`` its buffers.  On one leaf
    they hold ``x - mu`` and ``|x - mu|^lam``, which are scored as they are;
    past one leaf, or unfitted, the residuals are formed in
    :data:`_RESIDUAL_STATE`, as every residual is, and the sums outside
    it.  Sums that are not finite, e.g. where ``sigma`` is subnormal
    and ``sigma^-lam`` overflows, raise :class:`DomainError`, naming
    ``sigma`` and ``lam``.
    """
    if fitted and x.size <= _BLOCK:
        s1, s2 = _shape_sums(d, p, sigma, lam)
    else:
        s1, s2 = _walk(x, d, p, mu, lam, lambda d, p: _shape_sums(d, np.multiply(p, d, out=p), sigma, lam))
    if not (math.isfinite(s1) and math.isfinite(s2)):
        raise DomainError(f"the shape score is not finite at the scale sigma = {sigma!r} for lam = {lam!r}")
    return np.array([-lam * s1 / x.size, -0.5 * (s2 / x.size - 2.0 / lam**2 * _nu(lam))])


def modified_score(data, lam: float, fit: LocationScale) -> np.ndarray:
    """Average shape score of the standardized residuals ``(x - mu) / sigma``.

    ``fit`` should come from :func:`fit_null_mle` on the same data; the
    result is finite even when the fitted location coincides with a data
    point (the ``y = 0`` conventions of :func:`stacked_scores`).  The residual
    power is the location solve's signed ``sign(d) |d|^(lam-1)``, times
    ``d``, in two buffers the size of the largest leaf of numpy's pairwise
    sum, at most 32,768 values: past that many the data are walked leaf by
    leaf, and each sum is added up the same tree, the double of a sum over
    the whole sample.
    :func:`run_test` averages its fit's own residuals with the same code.
    Data of fewer than 2 observations raise :class:`DegenerateSampleError`,
    as in :func:`fit_null_mle`, and a score that is not finite (a scale so
    small that ``sigma^-lam`` overflows) raises :class:`DomainError`.
    """
    lam = check_lambda(lam)
    if not isinstance(fit, LocationScale):
        raise DomainError(f"fit must be a LocationScale, got {fit!r}")
    x = _observations(_reals(data, "data"))
    return _mean_shape_score(x, *_buffers(x.size), fit.mu, fit.sigma, lam)


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
    j[1, 1] = (nu * (2.0 + nu) + beta * _psi(beta)[1]) / lam**3
    j[0, 2] = j[2, 0] = -(2.0 ** (1.0 - 1.0 / lam)) * lam / g_beta
    j[1, 3] = j[3, 1] = -(1.0 + nu) / lam
    j[2, 2] = lam * math.gamma(3.0 - beta) / (2.0 ** (2.0 / lam) * g_beta)
    j[3, 3] = lam
    return j


def _psi(x: float) -> tuple[float, float]:
    """``(psi(x), psi'(x))`` for x > 0; within 2e-15 and 1e-15 relative on the (1, 2] that ``beta`` spans.

    Shifts x up to at least 12 by ``psi(x) = psi(x + 1) - 1/x`` and
    ``psi'(x) = psi'(x + 1) + 1/x^2``, then sums the asymptotic series
    ``log x - 1/(2x) - sum_k B_2k / (2k x^2k)`` through ``x^-12`` and
    ``1/x + 1/(2x^2) + sum_k B_2k / x^(2k+1)`` through ``x^-13`` (the next
    terms are below 1e-16 there).
    """
    parts, parts1 = [], []
    while x < 12.0:
        parts.append(-1.0 / x)
        parts1.append(1.0 / (x * x))
        x += 1.0
    z = 1.0 / (x * x)
    tail, tail1 = (sum(c * z**k for k, c in enumerate(terms, 1)) for terms in (_PSI_TERMS, _PSI1_TERMS))
    return math.fsum([*parts, math.log(x), -0.5 / x, -tail]), math.fsum([*parts1, (1.0 + 0.5 / x + tail1) / x])


# Cached: every replicate of a study scores and tests at the same lam.
@functools.lru_cache(maxsize=256)
def _nu(lam: float) -> float:
    return math.log(2.0) + _psi(1.0 + 1.0 / lam)[0]


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
    s22 = (beta * _psi(beta)[1] - 1.0) / lam**3
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
    alpha = _real(alpha, "alpha")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    return alpha


def _check_delta(delta) -> np.ndarray:
    """``delta`` as a float array, if it is a tuple, list or 1-d array of two finite reals."""
    if not (isinstance(delta, (tuple, list)) or isinstance(delta, np.ndarray) and delta.ndim == 1):
        delta = (_real(delta, "delta"),)  # a real scalar is one entry
    if len(delta) != 2:
        raise DomainError(f"delta must have 2 entries, got {len(delta)}")
    return np.array([_real(v, "delta") for v in delta])


def test_statistic(score: np.ndarray, n: int, lam: float, alpha: float | None = None) -> TestReport:
    """Quadratic-form statistic and p-value from an averaged score vector.

    ``T = n (r1^2 / S11 + r2^2 / S22)`` with the diagonal covariance from
    :func:`score_covariance`; the p-value is the chi-square(2) survival
    function at ``T``; with ``alpha`` in (0, 1), the report says whether
    ``p < alpha``.  The report's ``loc_scale`` is ``None``: no fit is made.
    """
    lam = check_lambda(lam)
    alpha = None if alpha is None else _check_alpha(alpha)
    n = _check_count("n", n, 2, DomainError)
    r = _reals(score, "score").ravel()
    if r.size != 2:
        raise DomainError(f"score must have 2 entries, got {r.size}")
    with np.errstate(over="ignore"):
        t = _t_stat(r, _real(n, "n"), lam)
    if t == math.inf:
        raise DomainError(f"T overflows for the score {r} at n = {n}")
    return _report(n, lam, None, r, t, chi2_sf(t), alpha)


def _report(n: int, lam: float, fit, r: np.ndarray, t: float, p: float, alpha: float | None) -> TestReport:
    """The :class:`TestReport` of a test; with a checked ``alpha``, ``reject`` is ``p < alpha``."""
    reject = None if alpha is None else bool(p < alpha)
    return TestReport(n=n, lam=lam, loc_scale=fit, score=r, t_stat=t, p_value=p, alpha=alpha, reject=reject)


def _t_stat(r: np.ndarray, n: float, lam: float) -> float:
    """``T = n (r1^2 / S11 + r2^2 / S22)`` of the score ``r`` at a checked ``lam``."""
    s11, s22 = _score_cov_diag(lam)
    return float(n * (r[0] ** 2 / s11 + r[1] ** 2 / s22))


def noncentrality(delta, lam: float) -> float:
    """Noncentrality ``delta' Sigma delta`` of a finite local shape drift ``delta``.

    A drift whose noncentrality overflows the double range is a :class:`DomainError`.
    """
    lam = check_lambda(lam)
    d = _check_delta(delta)
    s11, s22 = _score_cov_diag(lam)
    with np.errstate(over="ignore"):
        ncp = float(s11 * d[0] ** 2 + s22 * d[1] ** 2)
    if not math.isfinite(ncp):
        raise DomainError(f"the noncentrality of delta {delta} overflows")
    return ncp


def asymptotic_power(delta, lam: float, alpha: float) -> float:
    """Limiting rejection probability under the local alternative ``delta``.

    Noncentral chi-square(2) tail beyond the level-``alpha`` critical value
    ``-2 log(alpha)``, with noncentrality :func:`noncentrality`.  At
    ``delta = 0`` it equals ``alpha`` to a relative error of at most
    ``(1 + |log(alpha)|) 2**-52``, the rounding of ``log(alpha)``.
    """
    crit = -2.0 * math.log(_check_alpha(alpha))
    return noncentral_chi2_sf(crit, noncentrality(delta, lam))


def run_test(data, lam: float, alpha: float | None = 0.05) -> TestReport:
    """Fit the null location/scale, then test the shape pair.

    Rejects when the p-value falls below ``alpha`` in (0, 1); with ``alpha``
    ``None`` the report gives no verdict (``alpha`` and ``reject`` are
    ``None``).  The score is :func:`modified_score`, taken from the
    residuals the location solve left at the fit.  The statistic is
    invariant under positive affine transformations of the data.  ``lam``,
    then ``alpha``, then the data are checked, before the fit.
    """
    lam = check_lambda(lam)
    alpha = None if alpha is None else _check_alpha(alpha)
    n, mu, sigma, r, t, p = _test(_reals(data, "data"), lam)
    return _report(n, lam, LocationScale(mu=mu, sigma=sigma), r, t, p, alpha)


def _test(
    x: np.ndarray, lam: float, overwrite: bool = False
) -> tuple[int, float, float, np.ndarray, float, float]:
    """:func:`run_test` at a checked ``lam``, without its report: ``(n, mu, sigma, r, T, p)``.

    ``x`` is finite float data (:func:`_reals`).  A study checks its arguments
    once and calls this on each replicate's draws, which ``apd.sample`` checked.
    ``overwrite`` hands ``x``, a contiguous float64 array, over: at lam in
    {1, 2} a one-leaf fit writes ``x - mu`` over it and scores there
    (:func:`_locate`), so the test holds two arrays of n values, not three.
    Only a study sets it, on draws that nothing reads after; the public
    functions never do.
    """
    x, lo, hi = _as_clean_data(x)
    mu, sigma, d, adl = _fit(x, lo, hi, lam, overwrite)
    r = _mean_shape_score(x, d, adl, mu, sigma, lam, fitted=True)
    t = _t_stat(r, x.size, lam)
    return x.size, mu, sigma, r, t, chi2_sf(t)
