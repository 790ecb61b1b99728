"""Tests for the score vectors, null MLE, covariance formulas and the test.

The closed-form score components are validated against central finite
differences of the log density; the root-solved MLE against a dense grid
scan of its estimating equation and against a plain bisection oracle; the
covariance entries against the quadrature and Monte Carlo cross-checks
exercised in the simulation tests, and against 50-digit mpmath; the
digamma and trigamma helpers against mpmath and ``scipy.special``.  The
test, which scores from the residuals its fit leaves behind, is compared
with the three-step pipeline (fit with its own scale line, elementwise
shape score, statistic).
"""

import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special as sc

from apdgof import apd, simulate
from apdgof.errors import DegenerateSampleError, DomainError
from apdgof.numerics import chi2_sf
from apdgof import score as score_mod
from apdgof.score import (
    LocationScale,
    asymptotic_power,
    fisher_information,
    fit_null_mle,
    modified_score,
    noncentrality,
    run_test,
    score_covariance,
    stacked_scores,
)
from tests import digest

LOG2_PSI2 = 1.1159315156584124  # log 2 + digamma(2), 50-digit reference
LAM_GRID = [1.0, 1.5, 2.0, 3.0]
# The lam = 1 selection corpus of the digest; on its huge samples the scale sum overflows.
MEDIAN_NAMES = list(digest.median_inputs())
HUGE = "1.5e308+laplace*1e306"
# Inputs whose centre lies next to the edge of two blocks of ties, so that no round
# can shrink the bracket, or whose centre is a zero, may take np.median.
MEDIAN_TIES = ("two-valued", "normal-rounded", "signed-zeros")


def run_test_fixed_loc_scale(data, lam, loc_scale, alpha=0.05):
    """Score test with location and scale known rather than estimated.

    Normalizes by the shape block of :func:`fisher_information` instead of the
    modified-score covariance; asymptotically chi-square(2) under the null.
    A Monte Carlo cross-check of the shape block.
    """
    lam = score_mod.check_lambda(lam)
    alpha = score_mod._check_alpha(alpha)
    x, _, _ = score_mod._as_clean_data(data)
    r = modified_score(x, lam, loc_scale)
    j = fisher_information(lam)
    t = float(x.size * (r[0] ** 2 / j[0, 0] + r[1] ** 2 / j[1, 1]))
    p = chi2_sf(t)
    return score_mod.TestReport(
        n=x.size,
        lam=lam,
        loc_scale=loc_scale,
        score=r,
        t_stat=t,
        p_value=p,
        alpha=alpha,
        reject=bool(p < alpha),
    )


def location_score(x, mu, lam):
    """The location estimating equation, summed exactly as the oracle does."""
    return float(np.sum(np.abs(x - mu) ** (lam - 1.0) * np.sign(x - mu)))


def bisection_location(x, lam):
    """Reference root of the location equation: plain bisection on
    ``[min x, max x]`` down to the last representable midpoint."""
    lo, hi = float(x.min()), float(x.max())
    mu = 0.5 * (lo + hi)
    for _ in range(200):
        if mu == lo or mu == hi:
            break
        s = location_score(x, mu, lam)
        if s > 0.0:
            lo = mu
        elif s < 0.0:
            hi = mu
        else:
            break
        mu = 0.5 * (lo + hi)
    return mu


def assert_matches_bisection(x, lam):
    """``fit_null_mle`` agrees with the bisection oracle.

    Both solves stop at a sign change of the computed score between adjacent
    doubles, or at an exact zero of it.  The computed score is non-increasing
    in mu, so its zeros form one run of doubles; that run can be wider than
    2 ulp of mu when |mu| is small against the spread of x, and then any
    point of it is an equally exact root.
    """
    fit = fit_null_mle(x, lam)
    ref = bisection_location(x, lam)
    assert math.isfinite(fit.mu) and x.min() <= fit.mu <= x.max()
    if abs(fit.mu - ref) > 2.0 * np.spacing(abs(ref)):
        assert location_score(x, fit.mu, lam) == 0.0
        assert location_score(x, ref, lam) == 0.0
    ref_sigma = float(np.mean(0.5 * lam * np.abs(x - ref) ** lam)) ** (1.0 / lam)
    assert_allclose(fit.sigma, ref_sigma, rtol=1e-14, atol=0)
    return fit


def reference_fit(x, lam):
    """The null fit as a separate step: the same location solve, then the
    scale from a fresh ``|x - mu|^lam``."""
    lo, hi = float(x.min()), float(x.max())
    if lam == 1.0:
        mu = float(np.median(x))
    elif lam == 2.0:
        mu = float(np.mean(x))
    else:
        mu = min(max(float(np.mean(x)), lo), hi)
        dx = hi - lo
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for _ in range(score_mod._ROOT_MAX_ITER):
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
    return LocationScale(mu, reference_sigma(x, lam, mu))


def reference_sigma(x, lam, mu):
    return float(np.mean(0.5 * lam * np.abs(x - mu) ** lam)) ** (1.0 / lam)


def reference_test(x, lam, fit):
    """Elementwise shape score at ``(x - mu) / sigma``, averaged, then the statistic."""
    r = stacked_scores((x - fit.mu) / fit.sigma, lam)[:2].mean(axis=1)
    return score_mod.test_statistic(r, x.size, lam)


def assert_close_report(rep, ref):
    """Score vector and T to 1e-12, relative with an absolute floor of 1e-12."""
    assert_allclose(rep.score, ref.score, rtol=1e-12, atol=1e-12)
    assert_allclose(rep.t_stat, ref.t_stat, rtol=1e-12, atol=1e-12)


class TestShapeScore:
    def test_at_origin_laplace(self):
        c = stacked_scores(0.0, 1.0)[:2]
        assert c[0] == 0.0
        assert_allclose(c[1], LOG2_PSI2, rtol=0, atol=1e-13)

    def test_at_one_laplace(self):
        c = stacked_scores(1.0, 1.0)[:2]
        assert_allclose(c[0], -1.0, rtol=0, atol=1e-15)
        assert_allclose(c[1], LOG2_PSI2, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("lam", LAM_GRID)
    def test_parity(self, lam):
        y = np.linspace(0.01, 4.0, 37)
        plus = stacked_scores(y, lam)[:2]
        minus = stacked_scores(-y, lam)[:2]
        assert_allclose(minus[0], -plus[0], rtol=0, atol=1e-14)
        assert_allclose(minus[1], plus[1], rtol=0, atol=1e-14)

    def test_limit_convention_is_continuous(self):
        # |y|^lam log|y| -> 0, so values near zero approach the y=0 value
        near = stacked_scores(1e-12, 1.0)[:2]
        at = stacked_scores(0.0, 1.0)[:2]
        assert_allclose(near, at, rtol=0, atol=1e-10)

    def test_vector_shape(self):
        assert stacked_scores(np.zeros(5), 2.0)[:2].shape == (2, 5)
        assert stacked_scores(0.3, 2.0)[:2].shape == (2,)


class TestLocScaleScore:
    def test_examples(self):
        assert_allclose(stacked_scores(1.0, 1.0)[2:], [0.5, -0.5], rtol=0, atol=1e-15)
        assert_allclose(stacked_scores(0.0, 1.0)[2:], [0.0, -1.0], rtol=0, atol=1e-15)
        assert_allclose(stacked_scores(2.0, 2.0)[2:], [2.0, 3.0], rtol=0, atol=1e-15)

    def test_sign_zero_convention_laplace(self):
        # at lam=1 the first component is |y|^0 sign(y); sign(0) := 0 keeps it 0
        assert stacked_scores(0.0, 1.0)[2] == 0.0

    @pytest.mark.parametrize("lam", LAM_GRID)
    def test_parity(self, lam):
        y = np.linspace(0.01, 4.0, 37)
        plus = stacked_scores(y, lam)[2:]
        minus = stacked_scores(-y, lam)[2:]
        assert_allclose(minus[0], -plus[0], rtol=0, atol=1e-14)
        assert_allclose(minus[1], plus[1], rtol=0, atol=1e-14)


class TestScoreDerivativeOracle:
    """The closed forms must be the actual gradients of the log density."""

    H = 1e-6

    @pytest.mark.parametrize("lam", LAM_GRID)
    def test_shape_score_is_shape_gradient(self, lam):
        ys = [-2.5, -1.0, -0.3, 0.4, 1.0, 2.0]
        for y in ys:
            g1 = (
                apd.log_pdf(y, apd.ApdParams(0.5 + self.H, lam))
                - apd.log_pdf(y, apd.ApdParams(0.5 - self.H, lam))
            ) / (2 * self.H)
            g2 = (
                apd.log_pdf(y, apd.ApdParams(0.5, lam + self.H))
                - apd.log_pdf(y, apd.ApdParams(0.5, lam - self.H))
            ) / (2 * self.H)
            assert_allclose(stacked_scores(y, lam)[:2], [g1, g2], rtol=2e-5, atol=2e-5)

    @pytest.mark.parametrize("lam", LAM_GRID)
    def test_loc_scale_score_is_scaled_gradient(self, lam):
        mu, sigma = 0.3, 1.7
        ys = [-2.5, -1.0, -0.3, 0.4, 1.0, 2.0]
        for y in ys:
            x = mu + sigma * y
            g1 = (
                apd.log_pdf(x, apd.ApdParams(0.5, lam, mu + self.H, sigma))
                - apd.log_pdf(x, apd.ApdParams(0.5, lam, mu - self.H, sigma))
            ) / (2 * self.H)
            g2 = (
                apd.log_pdf(x, apd.ApdParams(0.5, lam, mu, sigma + self.H))
                - apd.log_pdf(x, apd.ApdParams(0.5, lam, mu, sigma - self.H))
            ) / (2 * self.H)
            assert_allclose(
                stacked_scores(y, lam)[2:], [sigma * g1, sigma * g2], rtol=2e-5, atol=2e-5
            )


class TestLocationScale:
    def test_numpy_ints_are_stored_as_floats(self):
        fit = LocationScale(np.int64(5), np.int64(2))
        assert (type(fit.mu), type(fit.sigma)) == (float, float)
        assert fit == LocationScale(5.0, 2.0)

    @pytest.mark.parametrize("mu", ["1", None, 1j, np.array([1.0])])
    def test_non_real_is_domain_error(self, mu):
        # a str or None raised a bare TypeError from math.isfinite
        with pytest.raises(DomainError):
            LocationScale(mu, 1)


class TestFitNullMle:
    def test_normal_case(self):
        fit = fit_null_mle([0.0, 2.0], 2.0)
        assert_allclose((fit.mu, fit.sigma), (1.0, 1.0), rtol=0, atol=1e-15)

    def test_laplace_case(self):
        fit = fit_null_mle([1.0, 2.0, 4.0], 1.0)
        assert fit.mu == 2.0
        assert_allclose(fit.sigma, 0.5, rtol=0, atol=1e-15)

    def test_even_n_median_is_midpoint(self):
        fit = fit_null_mle([1.0, 2.0, 4.0, 100.0], 1.0)
        assert fit.mu == 3.0

    def test_root_solve_against_grid_scan(self):
        data = np.array([-1.0, 0.0, 1.0, 4.0])
        lam = 3.0
        fit = fit_null_mle(data, lam)
        grid = np.linspace(data.min(), data.max(), 10**6 + 1)
        s = np.sign(data[:, None] - grid) * np.abs(data[:, None] - grid) ** (lam - 1)
        total = s.sum(axis=0)
        k = int(np.searchsorted(-total, 0.0))  # total is decreasing
        # linear interpolation between the bracketing grid points
        root = grid[k - 1] + total[k - 1] * (grid[k] - grid[k - 1]) / (
            total[k - 1] - total[k]
        )
        assert abs(fit.mu - root) < 1e-6

    @pytest.mark.parametrize("n", [2, 7, 2000])
    @pytest.mark.parametrize("loc,scale", [(0.0, 1.0), (1000.0, 50.0), (0.0, 1e-3)])
    @pytest.mark.parametrize("lam", [1.001, 1.01, 1.1, 1.3, 1.5, 2.5, 3.0, 4.5, 20.0])
    def test_root_solve_matches_bisection(self, lam, loc, scale, n):
        rng = np.random.default_rng([n, round(1000 * lam)])
        data = apd.sample(apd.ApdParams(0.5, lam, loc, scale), n, rng)
        assert_matches_bisection(data, lam)

    @pytest.mark.parametrize(
        "lam,data,mu",
        [
            # the start (the mean) is a data point: s' is 0/0, so it bisects
            (1.5, [-3.0, 0.0, 1.0, 2.0], None),
            # the score is exactly zero at the start
            (1.5, [-1.0, 0.0, 1.0], 0.0),
            # the root is the midpoint
            (3.0, [0.0, 1.0], 0.5),
            # heavy ties
            (1.2, [0.0] * 50 + [1.0] * 3, None),
            # undamped Newton cycles here without closing the bracket
            (
                1.3,
                [
                    1.765142051594806,
                    1.526075041058638,
                    -0.051721419376130735,
                    -2.3536093826300246,
                    0.03414399461174597,
                    -0.38339474726513595,
                    0.07351468995565573,
                ],
                None,
            ),
        ],
    )
    def test_root_solve_safeguards(self, lam, data, mu):
        x = np.array(data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = assert_matches_bisection(x, lam)
        if mu is not None:
            assert fit.mu == mu

    @pytest.mark.parametrize("lam", LAM_GRID + [1.2, 4.5])
    def test_stationarity(self, lam):
        rng = np.random.default_rng(2024)
        data = apd.sample(apd.ApdParams(0.5, lam, 1.0, 2.0), 501, rng)
        fit = fit_null_mle(data, lam)
        z = (data - fit.mu) / fit.sigma
        scores = stacked_scores(z, lam)[2:]
        n = data.size
        assert abs(scores[1].sum()) <= 1e-9 * n
        if lam == 1.0:
            assert abs(np.sign(z).sum()) <= 1.0
        else:
            assert abs(scores[0].sum()) <= 1e-6 * n

    @pytest.mark.parametrize("loc,scale", [(0.0, 1.0), (1000.0, 50.0), (0.0, 1e-3)])
    @pytest.mark.parametrize("lam", [1.0, 2.0])
    def test_closed_form_scale_is_bit_equal(self, lam, loc, scale):
        # the closed-form locations take their powers as |d|^(lam-1) |d|,
        # which is |d| at lam = 1 and d * d at lam = 2, bit for bit
        rng = np.random.default_rng([round(loc), round(1000 * lam), 3])
        x = apd.sample(apd.ApdParams(0.5, lam, loc, scale), 501, rng)
        fit = fit_null_mle(x, lam)
        d = x - fit.mu
        powers = np.abs(d) if lam == 1.0 else d * d
        assert fit.sigma == (0.5 * lam * float(powers.sum()) / x.size) ** (1.0 / lam)

    def test_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            fit_null_mle([1.0], 2.0)
        with pytest.raises(DegenerateSampleError):
            fit_null_mle([3.0, 3.0, 3.0], 1.5)
        with pytest.raises(DomainError):
            fit_null_mle([1.0, math.nan], 2.0)
        with pytest.raises(DomainError):
            fit_null_mle([1.0, 2.0], 0.7)


class TestFitResidualsOracle:
    """``run_test`` scores from the residuals its fit leaves; the reference
    forms them again in each of three separate steps."""

    # 65,545 values (2 _BLOCK + 9) fit and score in three blocks.
    @pytest.mark.parametrize("n", [2, 7, 2000, 65_545])
    @pytest.mark.parametrize("loc,scale", [(0.0, 1.0), (1000.0, 50.0), (0.0, 1e-3)])
    @pytest.mark.parametrize("lam", [1.0, 1.001, 1.5, 2.0, 2.5, 3.0, 4.5, 20.0])
    def test_matches_three_step_pipeline(self, lam, loc, scale, n):
        rng = np.random.default_rng([n, round(1000 * lam), 5])
        x = apd.sample(apd.ApdParams(0.5, lam, loc, scale), n, rng)
        ref_fit = reference_fit(x, lam)
        ref = reference_test(x, lam, ref_fit)
        rep = run_test(x, lam)
        assert rep.loc_scale.mu == ref_fit.mu
        assert_allclose(rep.loc_scale.sigma, ref_fit.sigma, rtol=1e-14, atol=0)
        assert_close_report(rep, ref)
        assert fit_null_mle(x, lam) == rep.loc_scale
        assert_allclose(
            modified_score(x, lam, rep.loc_scale), rep.score, rtol=1e-14, atol=1e-15
        )

    @pytest.mark.parametrize(
        "passes,n",
        [pytest.param(k, n, id=str(k) if n == 50 else f"{k}-{n}") for n in (50, 65_545) for k in (1, 2, 3)],
    )
    def test_solve_out_of_passes_scores_at_its_last_mu(self, monkeypatch, passes, n):
        # the last pass evaluated the mu before the final step, so the
        # residuals are formed again at the final mu (in one block, or by
        # the scale and score walks over three)
        x = apd.sample(apd.ApdParams(0.5, 3.0), n, np.random.default_rng(8))
        converged = fit_null_mle(x, 3.0).mu
        monkeypatch.setattr(score_mod, "_ROOT_MAX_ITER", passes)
        rep = run_test(x, 3.0)
        assert rep.loc_scale.mu != converged
        fit = LocationScale(rep.loc_scale.mu, reference_sigma(x, 3.0, rep.loc_scale.mu))
        assert_allclose(rep.loc_scale.sigma, fit.sigma, rtol=1e-14, atol=0)
        assert_close_report(rep, reference_test(x, 3.0, fit))

    @pytest.mark.parametrize(
        "lam,data",
        [
            (1.0, [-1.0, 0.0, 1.0]),
            (1.0, apd.sample(apd.ApdParams(0.5, 1.0), 101, np.random.default_rng(97))),
            (2.0, [-1.0, 0.0, 1.0]),
            (3.0, [-1.0, 0.0, 1.0]),
        ],
    )
    def test_fitted_location_on_a_data_point(self, monkeypatch, lam, data):
        # a zero residual has weight 0 and log 0: its term is the limit 0,
        # without a NaN or a warning, in a test and in a study replicate
        x = np.array(data)
        monkeypatch.setattr(apd, "sample", lambda params, n, rng: x.copy())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = run_test(x, lam)
            t, p = simulate._replicate_block(apd.ApdParams(0.5, lam), lam, x.size, 3, [0])
        assert np.any(x == rep.loc_scale.mu)
        assert np.all(np.isfinite(rep.score)) and math.isfinite(rep.p_value)
        assert (t.tolist(), p.tolist()) == ([rep.t_stat], [rep.p_value])
        assert_close_report(rep, reference_test(x, lam, reference_fit(x, lam)))


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


class TestSignedResidualPower:
    """The location solve's signed power ``sign(d) |d|^(lam-1)``, formed by :func:`_residuals`."""

    # +-0, the least subnormal, squares that underflow to 0 or to a
    # subnormal, the largest with a finite square (1.34e154 is just below
    # sqrt(max double)) and squares that overflow to +-inf, among ordinary values.
    EDGES = [0.0, -0.0, 5e-324, -5e-324, 1.5e-162, -1.5e-162, 1e-160, -1e-160,
             1.34e154, -1.34e154, 1.35e154, -1.35e154, 0.3, -2.5, 7.0]

    def buffers(self):
        return score_mod._buffers(len(self.EDGES))

    def test_square_is_one_multiply_bit_for_bit(self):
        with np.errstate(over="ignore"):
            d, p = score_mod._residuals(np.array(self.EDGES), 0.0, 3.0, *self.buffers())
            expected = np.copysign(np.square(np.abs(d)), d)
        assert bits(d).tolist() == bits(self.EDGES).tolist()
        assert bits(p).tolist() == bits(expected).tolist()
        assert bits(p[:6]).tolist() == bits([0.0, -0.0] * 3).tolist()
        assert 0.0 < p[6] < 1e-300 and math.isfinite(p[8]) and p[10:12].tolist() == [math.inf, -math.inf]

    @pytest.mark.parametrize("lam", [1.5, 2.5, 3.0, 8.0])
    def test_signed_power_is_the_unsigned_power_signed(self, lam):
        x = np.concatenate([self.EDGES, apd.sample(apd.ApdParams(0.5, 3.0), 2000, np.random.default_rng(4))])
        with np.errstate(under="ignore", over="ignore"):
            d, p = score_mod._residuals(x, 0.1, lam, *score_mod._buffers(x.size))
            expected = np.copysign(np.abs(x - 0.1) ** (lam - 1.0), x - 0.1)
        assert bits(d).tolist() == bits(x - 0.1).tolist()
        assert bits(p).tolist() == bits(expected).tolist()

    @pytest.mark.parametrize("lam", [1.0, 2.0])
    def test_power_times_residual_is_the_lam_power(self, lam):
        # Exponents 0 and 1: p is +-1 signed as d, then d itself; p d is |d|^lam, +0 at -0.
        d, p = score_mod._residuals(np.array(self.EDGES), 0.0, lam, *self.buffers())
        with np.errstate(under="ignore", over="ignore"):
            expected = np.abs(d) ** lam
            adl = p * d
        assert bits(p).tolist() == bits(np.copysign(np.abs(d) ** (lam - 1.0), d)).tolist()
        assert bits(adl).tolist() == bits(expected).tolist()
        assert bits(adl[:2]).tolist() == bits([0.0, 0.0]).tolist()


class TestLeafSums:
    """A large sample is summed in blocks, the leaves of numpy's pairwise sum, added up its tree."""

    B = score_mod._BLOCK

    @pytest.mark.parametrize("n", [B, B + 1, B + 8, 2 * B - 1, 2 * B + 1, 2 * B + 9, 100_000, 300_001])
    def test_tree_sum_is_add_reduce_bit_for_bit(self, n):
        # A numpy whose add.reduce splits elsewhere fails here, before it can
        # move a fitted location by an ulp.
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 8.0, n)
        d, p = score_mod._buffers(n)

        def sums(dv, pv):
            # At mu = 0 and lam = 2 the residuals d are the leaf's values, and p is a copy of them.
            assert dv.size == pv.size <= self.B
            return float(np.add.reduce(dv)), float(np.add.reduce(np.multiply(pv, -3.0, out=pv)))

        walked = score_mod._walk(x, d, p, 0.0, 2.0, sums)
        assert walked == (float(np.add.reduce(x)), float(np.add.reduce(-3.0 * x)))

    @pytest.mark.parametrize("n", [B, B + 1, 2 * B + 9, 100_000, 300_001, 1_000_000])
    def test_buffers_hold_the_largest_leaf(self, n):
        # At 2B + 9 the left half is a leaf of exactly B values and the right
        # half splits into 16,384 and 16,393: a buffer sized by the right
        # half alone is too small for its first leaf.
        sizes = []

        def sums(dv, pv):
            sizes.append(dv.size)
            return ()

        d, p = score_mod._buffers(n)
        score_mod._walk(np.zeros(n), d, p, 0.0, 2.0, sums)
        assert d.size == p.size == max(sizes)


@pytest.fixture(scope="module")
def median_inputs():
    return digest.median_inputs()


class TestMedianSelection:
    """Past one leaf the lam = 1 location is np.median's double, selected block by block in the fit's buffers."""

    @pytest.mark.parametrize("name", [name for name in MEDIAN_NAMES if not name.startswith(HUGE)])
    def test_location_is_np_median_bit_for_bit(self, monkeypatch, median_inputs, name):
        # float.hex: the sign of a zero at the centre counts.
        x = median_inputs[name]
        expected = float(np.median(x)).hex()
        calls = []
        median = np.median
        monkeypatch.setattr(np, "median", lambda *args: calls.append(args) or median(*args))
        assert fit_null_mle(x, 1.0).mu.hex() == expected
        if "1e-310" not in name:  # there sigma is subnormal, so the score is refused (TestNonFiniteScore)
            assert run_test(x, 1.0).loc_scale.mu.hex() == expected
        if not name.startswith(MEDIAN_TIES):
            assert not calls  # selected, with no copy of the n values

    @pytest.mark.parametrize("n", digest.LEAF_SIZES)
    def test_huge_centre_warns_as_np_median_does(self, median_inputs, n):
        # At even n the central mean overflows, with np.median's warning.
        x = median_inputs[f"{HUGE} n={n}"]

        def located(locate):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                mu = locate()
            return mu, [str(w.message) for w in caught]

        expected = located(lambda: float(np.median(x)))
        assert expected[1] == (["overflow encountered in reduce"] if n % 2 == 0 else [])
        assert located(lambda: score_mod._locate(x, float(x.min()), float(x.max()), 1.0)[0]) == expected

    @pytest.fixture
    def small_blocks(self, monkeypatch):
        # Blocks of 2**11 values leave buffers of about 1,500 values at n = 1e5, so the
        # selection takes several rounds.
        monkeypatch.setattr(score_mod, "_BLOCK", 2**11)

    @staticmethod
    def located(monkeypatch, x):
        """``(mu, rounds, np.median calls)`` of ``fit_null_mle(x, 1)``: a round gathers from all of ``x``."""
        rounds, calls = [], []
        gather, median = score_mod._gather, np.median
        monkeypatch.setattr(score_mod, "_gather", lambda v, *args: rounds.append(v.size == x.size) or gather(v, *args))
        monkeypatch.setattr(np, "median", lambda *args: calls.append(args) or median(*args))
        return fit_null_mle(x, 1.0).mu, sum(rounds), len(calls)

    @pytest.mark.parametrize("n, order", [(100_000, None), (1_000_000, None), (100_001, np.sort)])
    def test_several_rounds_select_np_median(self, monkeypatch, small_blocks, n, order):
        x = apd.sample(apd.ApdParams(0.5, 1.0), n, np.random.default_rng(6))
        x = x if order is None else order(x)
        expected = float(np.median(x)).hex()
        mu, rounds, calls = self.located(monkeypatch, x)
        assert (mu.hex(), calls) == (expected, 0)
        assert rounds >= 2

    def test_leaves_smaller_than_a_chunk_select_np_median(self, monkeypatch, small_blocks):
        # Leaves of fewer than _CHUNK / 2 values: a chunk's masks outgrow the buffers, so they are the gather's own.
        monkeypatch.setattr(score_mod, "_BLOCK", 2**9)
        x = apd.sample(apd.ApdParams(0.5, 1.0), 100_000, np.random.default_rng(6))
        expected = float(np.median(x)).hex()
        mu, rounds, calls = self.located(monkeypatch, x)
        assert (mu.hex(), calls) == (expected, 0)
        assert rounds >= 2

    def test_a_sample_with_no_value_in_the_bracket_takes_np_median(self, monkeypatch, small_blocks):
        # Every 7th value is +-1e3: the first round keeps the draws about the centre, and the
        # second round's sample, at stride 7, holds none of them.
        x = apd.sample(apd.ApdParams(0.5, 1.0), 100_000, np.random.default_rng(6))
        x[::7] = np.where(np.arange(x[::7].size) % 2, 1e3, -1e3)
        expected = float(np.median(x)).hex()
        mu, rounds, calls = self.located(monkeypatch, x)
        assert (mu.hex(), rounds, calls) == (expected, 1, 1)


class TestNonFiniteScore:
    """A score whose sums are not finite is refused with a DomainError that names the scale and lam."""

    # At a subnormal sigma (about 1e-310 here), sigma^-lam overflows and the sums are NaN;
    # chi2_sf then refused T as an "x" that the caller never passed.  The fit itself
    # succeeds.  ROADMAP item 2's scaling is the fix that would let these data be tested.
    @pytest.mark.parametrize("n", [2000, 65_545])
    def test_subnormal_scale(self, n):
        x = apd.sample(apd.ApdParams(0.5, 1.0), n, np.random.default_rng(6)) * 1e-310
        fit = fit_null_mle(x, 1.0)
        assert 0.0 < fit.sigma < np.finfo(float).smallest_normal
        for call in (lambda: run_test(x, 1.0), lambda: modified_score(x, 1.0, fit)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(DomainError) as err:
                    call()
            assert str(err.value) == f"the shape score is not finite at the scale sigma = {fit.sigma!r} for lam = 1.0"
            assert "overflow encountered in power" in {str(w.message) for w in caught}


class TestLocateWork:
    """Past one leaf, each pass of the location solve walks the leaves once, for s and s' together."""

    # seed: leaf walks of the solve on 1e5 values at lam = 3 (4 leaves a
    # pass).  Every leaf of a solve walk takes s, then s'; the closing pass
    # too, whose s' goes unused.  The location is reference_fit's, which
    # takes the same steps.
    @pytest.mark.parametrize("seed, walks", [(0, 40), (1, 44), (3, 32)])
    def test_every_solve_leaf_takes_the_slope(self, monkeypatch, seed, walks):
        x = apd.sample(apd.ApdParams(0.5, 3.0), 100_000, np.random.default_rng(seed))
        slopes = []

        def counted(sums, slope):
            def leaf(d, p):
                slopes.append(slope)
                return sums(d, p)

            return leaf

        monkeypatch.setattr(score_mod, "_signed_sum", counted(score_mod._signed_sum, False))
        monkeypatch.setattr(score_mod, "_ratio_sum", counted(score_mod._ratio_sum, True))
        assert fit_null_mle(x, 3.0).mu == reference_fit(x, 3.0).mu
        assert slopes == [False, True] * walks


class TestModifiedScore:
    def test_symmetric_data_kills_first_component(self):
        data = [-1.0, 0.0, 1.0]
        fit = fit_null_mle(data, 1.0)
        r = modified_score(data, 1.0, fit)
        assert r[0] == 0.0

    def test_hand_example(self):
        # data [1, 2, 4], lam=1: residuals (-2, 0, 4)/1 after mu=2, sigma=1/2;
        # exact values are r1 = -2/3 and r2 = 1 - euler_gamma - (2/3) log 2.
        data = [1.0, 2.0, 4.0]
        fit = fit_null_mle(data, 1.0)
        r = modified_score(data, 1.0, fit)
        assert_allclose(r[0], -2.0 / 3.0, rtol=0, atol=1e-15)
        assert_allclose(
            r[1], 1.0 - np.euler_gamma - (2.0 / 3.0) * math.log(2.0), rtol=0, atol=1e-14
        )

    @pytest.mark.parametrize("data", [[], np.empty((0, 3)), [1.5]], ids=["empty", "0x3", "one"])
    def test_fewer_than_two_observations(self, data):
        # The empty data raised a bare ZeroDivisionError from the mean.
        with pytest.raises(DegenerateSampleError, match="^need at least 2 observations, got"):
            modified_score(data, 2.0, LocationScale(0.0, 1.0))

    def test_small_under_null(self):
        # 5-sigma componentwise bound holds in nearly all replicates
        lam, n, reps = 2.0, 4000, 200
        cov = score_covariance(lam)
        bound = 5.0 * np.sqrt(np.diag(cov) / n)
        hits = 0
        for rep in range(reps):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=31, spawn_key=(rep,)))
            data = apd.sample(apd.ApdParams(0.5, lam), n, rng)
            r = modified_score(data, lam, fit_null_mle(data, lam))
            hits += bool(np.all(np.abs(r) < bound))
        assert hits / reps >= 0.99


class TestLambdaDomain:
    LAM_MAX = 5.643803094122361e102  # the largest double with a finite cube

    @pytest.mark.parametrize(
        "call",
        [
            fisher_information,
            score_covariance,
            lambda lam: noncentrality((1.0, 1.0), lam),
            lambda lam: asymptotic_power((1.0, 1.0), lam, 0.05),
        ],
        ids=["fisher_information", "score_covariance", "noncentrality", "asymptotic_power"],
    )
    def test_cube_overflow_is_domain_error(self, call):
        # lam**3 raised a bare OverflowError here
        assert np.all(np.isfinite(call(self.LAM_MAX)))
        with pytest.raises(DomainError):
            call(math.nextafter(self.LAM_MAX, math.inf))
        with pytest.raises(DomainError):
            call(1e103)


class TestFisherBlocks:
    def test_laplace_entries(self):
        j = fisher_information(1.0)
        assert j[0, 0] == 8.0
        assert j[3, 3] == 1.0
        assert_allclose(j[0, 2], -1.0, rtol=0, atol=1e-14)
        assert_allclose(j[2, 2], 0.25, rtol=0, atol=1e-14)

    def test_normal_entries(self):
        j = fisher_information(2.0)
        assert j[0, 0] == 12.0
        assert j[3, 3] == 2.0
        assert_allclose(j[0, 2], -4.0 * math.sqrt(2.0 / math.pi), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("lam", LAM_GRID + [1.1, 2.7, 5.0])
    def test_tail_scale_entry(self, lam):
        j = fisher_information(lam)
        phi = 1.0 + math.log(2.0) + float(sc.digamma(1.0 + 1.0 / lam))
        assert_allclose(j[1, 3], -phi / lam, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("lam", LAM_GRID)
    def test_zero_pattern(self, lam):
        full = fisher_information(lam)
        zero_pairs = [(0, 1), (0, 3), (1, 2), (2, 3)]
        for a, b in zero_pairs:
            assert full[a, b] == 0.0
            assert full[b, a] == 0.0
        assert_allclose(full, full.T, rtol=0, atol=0)

    def test_domain(self):
        with pytest.raises(DomainError):
            fisher_information(0.9)
        with pytest.raises(DomainError):
            fisher_information(math.inf)


def scipy_fisher_information(lam):
    """:func:`fisher_information` with its gamma, digamma and trigamma from scipy.special."""
    beta = 1.0 + 1.0 / lam
    nu = math.log(2.0) + float(sc.digamma(beta))
    g_beta = float(sc.gamma(beta))
    j = np.zeros((4, 4))
    j[0, 0] = 4.0 * (1.0 + lam)
    j[1, 1] = (nu * (2.0 + nu) + beta * float(sc.polygamma(1, beta))) / lam**3
    j[0, 2] = j[2, 0] = -(2.0 ** (1.0 - 1.0 / lam)) * lam / g_beta
    j[1, 3] = j[3, 1] = -(1.0 + nu) / lam
    j[2, 2] = lam * float(sc.gamma(3.0 - beta)) / (2.0 ** (2.0 / lam) * g_beta)
    j[3, 3] = lam
    return j


class TestDigammaTrigamma:
    """The package's psi and psi' at ``beta = 1 + 1/lam``, against mpmath and scipy."""

    BETAS = np.concatenate(
        [np.linspace(1.0, 2.0, 401)[1:], 1.0 + 1.0 / np.geomspace(1.0, 1e8, 200)]
    )

    def test_against_mpmath_on_beta_range(self):
        with mp.workdps(40):
            for beta in map(float, self.BETAS):
                psi = mp.digamma(beta)
                psi1 = mp.polygamma(1, beta)
                assert abs(score_mod._psi(beta)[0] - psi) <= 2e-15
                assert abs(score_mod._psi(beta)[1] - psi1) <= 1e-15 * psi1

    @pytest.mark.parametrize("x", [1e-3, 0.4, 1.0, 2.0, 11.5, 12.0, 77.0, 1e6])
    def test_against_scipy(self, x):
        assert_allclose(score_mod._psi(x)[0], sc.digamma(x), rtol=1e-14, atol=1e-14)
        assert_allclose(score_mod._psi(x)[1], sc.polygamma(1, x), rtol=1e-14, atol=0)

    def test_fisher_information_matches_scipy_special(self):
        for lam in map(float, np.geomspace(1.0, 1e6, 121)):
            j, ref = fisher_information(lam), scipy_fisher_information(lam)
            nonzero = ref != 0.0
            assert_allclose(j[nonzero], ref[nonzero], rtol=1e-14, atol=0, err_msg=str(lam))
            assert (j[~nonzero] == 0.0).all()


class TestScoreCovariance:
    def test_laplace(self):
        cov = score_covariance(1.0)
        assert_allclose(cov[0, 0], 4.0, rtol=0, atol=1e-13)
        assert_allclose(cov[1, 1], math.pi**2 / 3 - 3.0, rtol=0, atol=1e-13)

    def test_normal(self):
        cov = score_covariance(2.0)
        assert_allclose(cov[0, 0], 12.0 - 32.0 / math.pi, rtol=0, atol=1e-13)
        assert_allclose(cov[1, 1], 0.05027541260212737, rtol=0, atol=1e-14)

    def test_matches_block_expression(self):
        for lam in np.linspace(1.0, 5.0, 20):
            closed = score_covariance(lam)
            j = fisher_information(lam)
            schur = j[:2, :2] - j[:2, 2:] @ np.linalg.inv(j[2:, 2:]) @ j[2:, :2]
            assert_allclose(closed, schur, rtol=0, atol=1e-12)

    def test_positive_and_diagonal(self):
        for lam in np.linspace(1.0, 5.0, 17):
            cov = score_covariance(lam)
            assert cov[0, 0] > 0 and cov[1, 1] > 0
            assert cov[0, 1] == 0.0 and cov[1, 0] == 0.0

    def test_against_mpmath_over_the_lambda_range(self):
        # 4(1 + lam) - 4 lam / (Gamma(3 - beta) Gamma(beta)) cancels to ~2.58/lam
        # for large lam: at 50 digits the reference keeps over 30 of them.
        lams = [*np.geomspace(1.0, 1e8, 161), 1.4, np.nextafter(1.5, 0.0), 1.5, 1.75, 2.5]
        with mp.workdps(50):
            for lam in map(float, lams):
                s11, s22 = np.diag(score_covariance(lam))
                lam_mp = mp.mpf(lam)
                beta = 1 + 1 / lam_mp
                ref11 = 4 * (1 + lam_mp) - 4 * lam_mp / (mp.gamma(3 - beta) * mp.gamma(beta))
                ref22 = (beta * mp.polygamma(1, beta) - 1) / lam_mp**3
                assert abs(s11 - ref11) <= 1e-13 * ref11, lam
                assert abs(s22 - ref22) <= 1e-13 * ref22, lam


class TestTestStatistic:
    def test_zero_score(self):
        rep = score_mod.test_statistic(np.zeros(2), 50, 1.0)
        assert rep.t_stat == 0.0
        assert rep.p_value == 1.0

    def test_frozen_example(self):
        rep = score_mod.test_statistic(np.array([0.2, 0.1]), 100, 1.0)
        assert_allclose(rep.t_stat, 4.449844545682932, rtol=0, atol=1e-10)
        assert_allclose(rep.p_value, 0.10807581873466356, rtol=0, atol=1e-12)

    def test_rejection_flag(self):
        rep = score_mod.test_statistic(np.array([1.0, 1.0]), 1000, 1.0, alpha=0.05)
        assert rep.reject is True
        rep = score_mod.test_statistic(np.zeros(2), 1000, 1.0, alpha=0.05)
        assert rep.reject is False

    def test_small_n(self):
        with pytest.raises(DomainError):
            score_mod.test_statistic(np.zeros(2), 1, 1.0)

    @pytest.mark.parametrize("n", [math.nan, math.inf, 50.5])
    def test_non_integer_n(self, n):
        # NaN and inf raised a builtin ValueError / OverflowError from int(n).
        with pytest.raises(DomainError):
            score_mod.test_statistic(np.zeros(2), n, 2.0)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, -1.0, math.nan])
    def test_alpha_outside_unit_interval(self, alpha):
        with pytest.raises(DomainError):
            score_mod.test_statistic(np.zeros(2), 50, 1.0, alpha=alpha)
        with pytest.raises(DomainError):
            run_test([1.0, 2.0, 4.0], 2.0, alpha=alpha)
        with pytest.raises(DomainError):
            run_test_fixed_loc_scale([1.0, 2.0, 4.0], 2.0, LocationScale(0, 1), alpha)

    def test_alpha_is_checked_before_the_data(self, monkeypatch):
        # alpha was checked in the report: after a whole fit of a large sample, and never
        # on data the fit refuses.  The order is the CLI's: lam, then alpha, then the data.
        def no_fit(*args):
            raise AssertionError("the data were fitted")

        monkeypatch.setattr(score_mod, "_fit", no_fit)
        with pytest.raises(DomainError, match="alpha"):
            run_test(np.random.default_rng(0).standard_normal(10**6), 3.0, alpha=1.5)
        with pytest.raises(DomainError, match="alpha") as refused:
            run_test([1.0, 1.0], 2.0, alpha=2.0)
        assert type(refused.value) is DomainError  # not DegenerateSampleError
        with pytest.raises(DomainError, match="alpha"):
            score_mod.test_statistic([0.1], 1, 2.0, alpha=2.0)
        with pytest.raises(DomainError, match="lam"):
            run_test([1.0, 1.0], 0.5, alpha=2.0)

    def test_alpha_none_gives_no_decision(self):
        reports = (score_mod.test_statistic(np.zeros(2), 50, 1.0, alpha=None), run_test([1.0, 2.0, 4.0], 2.0, None))
        for rep in reports:
            assert rep.alpha is None and rep.reject is None

    @pytest.mark.parametrize("score", [[0.1], [0.1, 0.2, 5.0]])
    def test_score_not_a_pair(self, score):
        with pytest.raises(DomainError):
            score_mod.test_statistic(score, 100, 2)

    @pytest.mark.parametrize("score", [[math.nan, 0.0], [0.0, math.nan]])
    def test_nan_score_is_named(self, score):
        # Raised "x must be a nonnegative finite real", chi2_sf's argument.
        with pytest.raises(DomainError, match="^score must be finite"):
            score_mod.test_statistic(score, 10, 2.0)


class TestNoncentralityAndPower:
    def test_zero_direction(self):
        assert noncentrality((0.0, 0.0), 1.0) == 0.0

    def test_unit_directions_laplace(self):
        assert_allclose(noncentrality((1.0, 0.0), 1.0), 4.0, rtol=0, atol=1e-13)
        assert_allclose(
            noncentrality((1.0, 1.0), 1.0), 4.0 + math.pi**2 / 3 - 3.0, rtol=0, atol=1e-13
        )

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.2, 1e-14, 1e-17, 2**-54, 1e-300])
    def test_null_direction_gives_level(self, alpha):
        # The critical value is -2 log(alpha); as the quantile -2 log1p(-(1 - alpha)) it lost
        # alpha's digits from about 1e-14 and was refused from 2**-54, where 1 - alpha rounds to 1.
        power = asymptotic_power((0.0, 0.0), 2.0, alpha)
        assert abs(power - alpha) <= (1.0 + abs(math.log(alpha))) * 2.0**-52 * alpha

    def test_monotone_in_magnitude(self):
        scales = np.linspace(0.0, 4.0, 15)
        vals = [asymptotic_power((0.5 * c, 0.3 * c), 2.0, 0.05) for c in scales]
        assert np.all(np.diff(vals) >= 0)

    def test_frozen_value(self):
        # noncentral chi-square(2) tail at the 5% critical value, ncp = 4
        assert_allclose(
            asymptotic_power((1.0, 0.0), 1.0, 0.05),
            0.4154267925299622,
            rtol=0,
            atol=1e-10,
        )

    def test_alpha_domain(self):
        for alpha in (0.0, 1.0, -0.5):
            with pytest.raises(DomainError):
                asymptotic_power((1.0, 0.0), 1.0, alpha)

    @pytest.mark.parametrize(
        "delta", [(0.5,), (0.5, 0.3, 1.0), (math.nan, 0.3), (0.5, math.inf)]
    )
    def test_delta_not_a_finite_pair(self, delta):
        with pytest.raises(DomainError):
            noncentrality(delta, 2)
        with pytest.raises(DomainError):
            asymptotic_power(delta, 2, 0.05)


class TestRunTest:
    def test_wires_the_pieces_together(self):
        data = [1.0, 2.0, 4.0]
        rep = run_test(data, 1.0, alpha=0.1)
        fit = fit_null_mle(data, 1.0)
        r = modified_score(data, 1.0, fit)
        direct = score_mod.test_statistic(r, 3, 1.0)
        assert rep.t_stat == direct.t_stat
        assert rep.p_value == direct.p_value
        assert rep.loc_scale == fit
        assert rep.reject == (rep.p_value < 0.1)

    def test_degenerate_data(self):
        with pytest.raises(DegenerateSampleError):
            run_test([5.0] * 20, 1.0)

    def test_laplace_odd_n_median_on_data_point(self):
        rng = np.random.default_rng(97)
        data = apd.sample(apd.ApdParams(0.5, 1.0), 101, rng)
        rep = run_test(data, 1.0)
        assert math.isfinite(rep.t_stat) and math.isfinite(rep.p_value)
        assert np.all(np.isfinite(rep.score))

    def test_affine_invariance(self):
        rng = np.random.default_rng(123)
        for _ in range(10):
            lam = float(rng.choice([1.0, 1.4, 2.0, 3.0]))
            data = apd.sample(apd.ApdParams(0.5, lam), 200, rng)
            a = float(np.exp(rng.uniform(-3, 3)))
            b = float(rng.uniform(-50, 50))
            t0 = run_test(data, lam).t_stat
            t1 = run_test(a * data + b, lam).t_stat
            assert abs(t0 - t1) < 1e-10

    @pytest.mark.parametrize(
        "lam,scale",
        [
            pytest.param(
                lam,
                scale,
                marks=pytest.mark.xfail(
                    strict=True,
                    raises=(DegenerateSampleError, RuntimeWarning),
                    reason="|x - mu|^lam over- or underflows, so the fitted scale is "
                    "inf or 0: the residual powers are not yet formed scale-safely "
                    "(ROADMAP item 2)",
                ),
            )
            for lam, scale in [
                (3.0, 1e150),
                (2.0, 1e300),
                (2.0, 1e-300),
                (3.0, 1e-300),
                (1.5, 1e300),
                (1.5, 1e-300),
            ]
        ],
    )
    def test_affine_invariance_at_extreme_scales(self, lam, scale):
        rng = np.random.default_rng(123)
        data = apd.sample(apd.ApdParams(0.5, lam), 200, rng)
        t0 = run_test(data, lam).t_stat
        t1 = run_test(scale * data, lam).t_stat
        assert abs(t0 - t1) < 1e-10

    @pytest.mark.xfail(
        strict=True,
        raises=DegenerateSampleError,
        reason="|x - mu|^lam over- or underflows unless every |x - mu| is about 1, "
        "so the fitted scale is inf or 0 near the top of the lam range (ROADMAP item 2)",
    )
    @pytest.mark.parametrize("data", [[0.0, 1.0, 3.0], [0.0, 0.5, 1.0]])
    def test_largest_lambdas(self, data):
        rep = run_test(data, 5.5e102)
        assert math.isfinite(rep.t_stat) and 0.0 <= rep.p_value <= 1.0

    @pytest.mark.parametrize(
        "data,lam",
        [
            pytest.param(
                data,
                lam,
                id=name,
                marks=pytest.mark.xfail(strict=True, raises=raises, reason=f"{why} (ROADMAP item 2)"),
            )
            for name, data, lam, raises, why in [
                ("linspace-lam-1e6", lambda: np.linspace(0.0, 1.0, 50), 1e6, DegenerateSampleError,
                 "|x - mu|^lam underflows, so the fitted scale is 0"),
                ("normal-65545-times-6e151", lambda: np.random.default_rng(0).standard_normal(65_545) * 6e151,
                 2.0, DegenerateSampleError, "|x - mu|^lam overflows, so the fitted scale is inf"),
                ("normal-200-times-1e-150", lambda: np.random.default_rng(3).normal(size=200) * 1e-150,
                 3.0, DegenerateSampleError, "|x - mu|^lam underflows, so the fitted scale is 0"),
            ] + [
                (f"near-max-lam-{lam:g}", lambda: np.array([1e308, 1.7e308, 1.5e308, 1.2e308]), lam,
                 RuntimeWarning, "the start point's (or the median's central) sum overflows")
                for lam in (1.0, 3.0)
            ]
        ],
    )
    def test_data_past_the_safe_exponent_window(self, data, lam):
        rep = run_test(data(), lam)
        assert math.isfinite(rep.t_stat) and 0.0 <= rep.p_value <= 1.0

    @pytest.mark.parametrize(
        "n",
        [7, 201]
        + [
            pytest.param(
                n,
                marks=pytest.mark.xfail(
                    strict=True,
                    raises=AssertionError,
                    reason="at lam = 1 an even n takes the midpoint of the two central values, but the "
                    "lam -> 1+ root of s(mu) tends to another point between them, so T jumps by "
                    "~0.05 (ROADMAP item 12, awaiting a decision on the lam = 1 location)",
                ),
            )
            for n in (8, 200)
        ],
    )
    def test_t_is_continuous_at_laplace(self, n):
        x = apd.sample(apd.ApdParams(0.5, 1.0), n, np.random.default_rng(5))
        assert abs(run_test(x, 1.0).t_stat - run_test(x, 1.0 + 1e-9).t_stat) <= 1e-6

    @pytest.mark.parametrize("n", [2000, 65_545])
    @pytest.mark.parametrize("lam", [1.0, 2.0, 3.0])
    def test_the_callers_array_is_never_overwritten(self, lam, n):
        # Only a study's replicate hands its draws over to be fitted in place.
        x = apd.sample(apd.ApdParams(0.5, lam, 3.0, 2.0), n, np.random.default_rng(20))
        before = x.tobytes()
        fit = fit_null_mle(x, lam)
        assert x.tobytes() == before
        modified_score(x, lam, fit)
        assert x.tobytes() == before
        run_test(x, lam)
        assert x.tobytes() == before

    @pytest.mark.parametrize("lam", LAM_GRID)
    def test_working_memory_is_three_arrays(self, lam):
        # Beside the data the fit holds d, |d| and one power of |d|; each solve
        # pass added a fourth array for its sum terms before the buffers were
        # reused.  The warm-up keeps first-call allocations out of the peak.
        x = apd.sample(apd.ApdParams(0.5, lam, 3.0, 2.0), 100_000, np.random.default_rng(17))
        before = x.copy()
        run_test(x, lam)
        tracemalloc.start()
        try:
            run_test(x, lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.1 * x.nbytes
        fit = fit_null_mle(x, lam)
        modified_score(x, lam, fit)
        assert x.tobytes() == before.tobytes()  # no buffer is the caller's array

    @pytest.mark.parametrize("lam", LAM_GRID)
    def test_working_memory_is_two_arrays(self, lam):
        # Each pass writes d and the signed power over the same two buffers,
        # and the score forms its weights and logs in them too; a third
        # array held |d| before.
        x = apd.sample(apd.ApdParams(0.5, lam, 3.0, 2.0), 100_000, np.random.default_rng(18))
        fit = fit_null_mle(x, lam)
        calls = {
            "run_test": lambda: run_test(x, lam),
            "fit_null_mle": lambda: fit_null_mle(x, lam),
            "modified_score": lambda: modified_score(x, lam, fit),
        }
        for name, call in calls.items():
            call()
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2.1 * x.nbytes, name

    @pytest.mark.parametrize("lam", [1.0, 1.5, 2.0, 3.0])
    def test_working_memory_does_not_grow_with_n(self, lam):
        # Past _BLOCK values the fit and the score walk the data in blocks,
        # in two buffers of at most _BLOCK values; at lam = 1 the median is
        # selected in those same two buffers.
        x = apd.sample(apd.ApdParams(0.5, lam, 3.0, 2.0), 1_000_000, np.random.default_rng(19))
        bound = 2 * score_mod._BLOCK * x.itemsize + 64 * 1024
        fit = fit_null_mle(x, lam)
        calls = {
            "run_test": lambda: run_test(x, lam),
            "fit_null_mle": lambda: fit_null_mle(x, lam),
            "modified_score": lambda: modified_score(x, lam, fit),
        }
        for name, call in calls.items():
            call()
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound, name

    @pytest.mark.parametrize("lam", [1.0, 1.5, 2.0, 3.0])
    def test_many_blocks_warn_where_one_block_warns(self, lam):
        # Past one block the scale and score walks form the fit's residuals
        # again, in the one error state every residual is formed in.
        def outcome(x):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    out = math.isfinite(run_test(x, lam).t_stat)
                except DegenerateSampleError as exc:
                    out = str(exc)
            return out, {str(w.message) for w in caught}

        x = np.random.default_rng(4).standard_normal(2 * score_mod._BLOCK + 9) * 1e300
        assert outcome(x) == outcome(x[:2000])

    @pytest.mark.parametrize("lam", [1.0, 1.5, 2.0, 3.0])
    def test_residuals_overflow_without_a_warning_at_every_lam(self, lam):
        # On the +-1.7e308 span x - mu overflows (at lam = 2, -1.7e308 less the mean).
        # Every residual is formed in one error state, so no lam warns of it; the
        # scale's sum still overflows, and the fit is refused at every lam alike.
        for call in (run_test, fit_null_mle):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(DegenerateSampleError, match="^fitted scale is not positive$"):
                    call(digest.SPECIAL["span"], lam)
            assert "overflow encountered in subtract" not in {str(w.message) for w in caught}

    def test_fixed_loc_scale_variant(self):
        rng = np.random.default_rng(5)
        data = apd.sample(apd.ApdParams(0.5, 1.5, 1.0, 2.0), 500, rng)
        rep = run_test_fixed_loc_scale(data, 1.5, LocationScale(1.0, 2.0))
        assert rep.t_stat >= 0.0
        assert 0.0 <= rep.p_value <= 1.0

    def test_fixed_loc_scale_null_law(self):
        # with the true location/scale plugged in, the statistic normalized by
        # the shape block is asymptotically chi-square(2)
        from apdgof.simulate import ks_distance

        reps, n, lam = 500, 1000, 1.5
        true = LocationScale(0.0, 1.0)
        t_vals = np.empty(reps)
        for rep in range(reps):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=77, spawn_key=(rep,)))
            data = apd.sample(apd.ApdParams(0.5, lam), n, rng)
            t_vals[rep] = run_test_fixed_loc_scale(data, lam, true).t_stat
        ks = ks_distance(t_vals, lambda v: 1.0 - np.vectorize(chi2_sf)(v))
        assert ks < 1.63 / math.sqrt(reps)
