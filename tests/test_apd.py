"""Tests for the asymmetric power distribution.

Oracles: the symmetric tail-exponent-2 case is the standard normal law
(checked against erf-based closed forms), normalization and mode-mass are
checked by adaptive quadrature, the sampler by Kolmogorov-Smirnov distance
against the package CDF, and the skewed-exponential-power equivalence
against a direct evaluation of that density written out in this file.
"""

import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from apdgof import apd, numerics
from apdgof.apd import (
    ApdParams,
    SepdParams,
    cdf,
    from_sepd,
    log_pdf,
    pdf,
    quantile,
    sample,
)
from apdgof.errors import ApdGofError, DomainError
from tests import digest

STANDARD_NORMAL = ApdParams(0.5, 2.0, 0.0, 1.0)
STANDARD_LAPLACE = ApdParams(0.5, 1.0, 0.0, 1.0)

PARAM_SETS = [
    ApdParams(0.5, 1.0),
    ApdParams(0.5, 2.0),
    ApdParams(0.3, 1.5),
    ApdParams(0.7, 3.0),
]


def sepd_pdf(x, sp: SepdParams):
    """Direct evaluation of the skewed exponential power density."""
    c = 1.0 / (2 ** (1 / sp.q) * math.gamma(1 + 1 / sp.q) * (sp.gamma + 1 / sp.gamma))
    x = np.asarray(x, dtype=float)
    z = (x - sp.m) / sp.s
    expo = np.where(
        x <= sp.m,
        -0.5 * np.abs(sp.gamma * z) ** sp.q,
        -0.5 * np.abs(z / sp.gamma) ** sp.q,
    )
    return c / sp.s * np.exp(expo)


class TestParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(theta1=0.0, theta2=1.0),
            dict(theta1=1.0, theta2=1.0),
            dict(theta1=-0.1, theta2=1.0),
            dict(theta1=0.5, theta2=0.0),
            dict(theta1=0.5, theta2=-2.0),
            dict(theta1=0.5, theta2=1.0, sigma=0.0),
            dict(theta1=0.5, theta2=1.0, sigma=-1.0),
            dict(theta1=0.5, theta2=1.0, mu=math.inf),
            dict(theta1=math.nan, theta2=1.0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(DomainError):
            ApdParams(**kwargs)

    def test_numpy_float_is_stored_as_float(self):
        # only Python ints and floats passed the field check before
        p = ApdParams(np.float32(0.3), 2.0)
        assert type(p.theta1) is float and p.theta1 == float(np.float32(0.3))

    def test_numpy_int_tail_exponent_samples(self):
        x = sample(ApdParams(0.5, np.int64(2)), 50, np.random.default_rng(4))
        assert np.array_equal(x, sample(ApdParams(0.5, 2.0), 50, np.random.default_rng(4)))

    def test_sepd_numpy_float(self):
        assert SepdParams(np.float32(1.0), 2.0) == SepdParams(1.0, 2.0)

    @pytest.mark.parametrize(
        "theta2", ["2", None, 2j, np.complex128(2.0), np.array(2.0), np.array([2.0])]
    )
    def test_non_real_field_is_refused(self, theta2):
        # math.isfinite alone takes a numpy complex (a ComplexWarning) and,
        # before numpy 2.4, a one-element array (a DeprecationWarning)
        with pytest.raises(DomainError):
            ApdParams(0.5, theta2)

    def test_sepd_invalid(self):
        for kwargs in (
            dict(gamma=0.0, q=1.0),
            dict(gamma=1.0, q=-1.0),
            dict(gamma=1.0, q=1.0, s=0.0),
        ):
            with pytest.raises(DomainError):
                SepdParams(**kwargs)


def delta_coeff(theta1, theta2):
    """``2ab/(a+b)`` from the ``log delta^(1/theta2)`` that every apd function reads."""
    return math.exp(apd._shape(theta1, theta2)[0] * theta2)


def mp_cdf_and_log_pdf(xs, p: ApdParams, dps=40):
    """The CDF and the log density at each of ``xs`` from the APD's formulas in ``dps``-digit mpmath."""
    with mp.workdps(dps):
        t1, t2 = mp.mpf(p.theta1), mp.mpf(p.theta2)
        a, b = t1**t2, (1 - t1) ** t2
        delta = 2 * a * b / (a + b)
        log_norm = mp.log(delta / 2) / t2 - mp.loggamma(1 + 1 / t2) - mp.log(mp.mpf(p.sigma))
        cdfs, log_pdfs = [], []
        for x in xs:
            y = (mp.mpf(x) - mp.mpf(p.mu)) / mp.mpf(p.sigma)
            t = delta / (2 * (a if y < 0 else b)) * abs(y) ** t2
            lower = mp.gammainc(1 / t2, 0, t, regularized=True)
            cdfs.append(float(t1 * (1 - lower) if y < 0 else t1 + (1 - t1) * lower))
            log_pdfs.append(float(log_norm - t))
    return cdfs, log_pdfs


class TestDeltaCoeff:
    @pytest.mark.parametrize("t2", [0.5, 1.0, 2.0, 3.7])
    def test_symmetric_collapses(self, t2):
        assert_allclose(delta_coeff(0.5, t2), 2.0**-t2, rtol=0, atol=1e-15)

    def test_symmetric_laplace(self):
        assert delta_coeff(0.5, 1.0) == 0.5

    def test_asymmetric_value(self):
        # 2 * 0.09 * 0.49 / (0.09 + 0.49)
        assert_allclose(delta_coeff(0.3, 2.0), 0.0882 / 0.58, rtol=0, atol=1e-15)

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            t1 = rng.uniform(0.01, 0.99)
            t2 = rng.uniform(0.1, 8.0)
            assert 0.0 < delta_coeff(t1, t2) < 2.0


class TestLogPdf:
    def test_laplace_at_mode(self):
        assert_allclose(log_pdf(0.0, STANDARD_LAPLACE), math.log(0.25), rtol=0, atol=1e-14)

    def test_normal_case(self):
        # theta2=2, symmetric: exactly the standard normal density
        y = np.linspace(-4, 4, 41)
        ref = -0.5 * y**2 - 0.5 * math.log(2 * math.pi)
        assert_allclose(log_pdf(y, STANDARD_NORMAL), ref, rtol=0, atol=1e-13)

    def test_location_scale_identity(self):
        base = ApdParams(0.3, 1.5)
        shifted = ApdParams(0.3, 1.5, mu=2.0, sigma=3.0)
        y = np.linspace(-3, 3, 25)
        assert_allclose(
            log_pdf(2.0 + 3.0 * y, shifted),
            log_pdf(y, base) - math.log(3.0),
            rtol=0,
            atol=1e-13,
        )

    def test_scalar_round_trip(self):
        out = log_pdf(1.2, STANDARD_NORMAL)
        assert isinstance(out, float)

    def test_far_tail_is_minus_inf_without_warning(self):
        # (root_delta |y| / base)^theta2 overflows to inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert log_pdf(1e50, ApdParams(0.5, 7.0)) == -math.inf

    @pytest.mark.parametrize(
        "fn, x, p, expected",
        [
            (log_pdf, 1.0, ApdParams(0.5, 2.0, 0.0, 5e-324), -math.inf),
            (pdf, [1.0, -1.0], ApdParams(0.5, 2.0, 0.0, 5e-324), [0.0, 0.0]),
            (cdf, [1.0, -1.0], ApdParams(0.3, 2.0, 0.0, 5e-324), [1.0, 0.0]),
            (log_pdf, 1e308, ApdParams(0.5, 2.0, -1e308, 1.0), -math.inf),
            (cdf, [1e308, -1e308], ApdParams(0.5, 2.0, -1e308, 1.0), [1.0, 0.5]),
        ],
        ids=["log_pdf-tiny-sigma", "pdf-tiny-sigma", "cdf-tiny-sigma", "log_pdf-far-mu", "cdf-far-mu"],
    )
    def test_limit_without_warning_where_the_standardized_value_overflows(self, fn, x, p, expected):
        # (x - mu) / sigma itself leaves the double range, by the division or by the subtraction
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = fn(x, p)
        assert_allclose(out, expected, rtol=0, atol=0)

    @pytest.mark.parametrize("theta2", [6e-309, 1e-307])
    def test_density_is_zero_where_the_normalizing_gamma_overflows(self, theta2):
        # Gamma(1 + 1/theta2) leaves the double range: math.lgamma raised a bare OverflowError
        p = ApdParams(0.5, theta2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert log_pdf(0.0, p) == -math.inf
            assert_allclose(pdf([-1.0, 0.0, 2.0], p), [0.0, 0.0, 0.0], rtol=0, atol=0)

    def test_density_is_zero_where_the_tail_overflows(self):
        p = ApdParams(0.3, 1e3, 0.3, 1.2)
        x = np.linspace(-6.0, 6.0, 121)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dens = pdf(x, p)
        y = (x - p.mu) / p.sigma
        base = np.where(y < 0, p.theta1, 1.0 - p.theta1)
        z = math.exp(apd._shape(p.theta1, p.theta2)[0]) * np.abs(y) / base
        overflows = p.theta2 * np.log(z) > math.log(np.finfo(float).max)
        assert np.isfinite(dens).all()
        assert overflows.any() and not overflows.all()
        assert (dens[overflows] == 0.0).all()

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            log_pdf(math.inf, STANDARD_NORMAL)
        with pytest.raises(DomainError):
            log_pdf([0.0, math.nan], STANDARD_NORMAL)

    @pytest.mark.parametrize("p", PARAM_SETS)
    def test_normalization(self, p):
        total = numerics.integrate(lambda x: pdf(x, p), (-math.inf, p.mu)) + \
            numerics.integrate(lambda x: pdf(x, p), (p.mu, math.inf))
        assert_allclose(total, 1.0, rtol=0, atol=1e-9)


class TestCdf:
    @pytest.mark.parametrize("p", PARAM_SETS + [ApdParams(0.42, 2.3, -1.0, 0.4)])
    def test_mode_mass(self, p):
        assert_allclose(cdf(p.mu, p), p.theta1, rtol=0, atol=1e-14)

    def test_symmetric_midpoint(self):
        assert_allclose(cdf(0.0, STANDARD_NORMAL), 0.5, rtol=0, atol=1e-15)

    def test_normal_case_against_erf(self):
        y = np.linspace(-5, 5, 81)
        ref = 0.5 * (1.0 + np.vectorize(math.erf)(y / math.sqrt(2)))
        assert_allclose(cdf(y, STANDARD_NORMAL), ref, rtol=0, atol=1e-10)

    def test_upper_quantile_value(self):
        assert_allclose(cdf(1.959964, STANDARD_NORMAL), 0.975, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("p", PARAM_SETS)
    def test_monotone(self, p):
        x = np.linspace(p.mu - 8 * p.sigma, p.mu + 8 * p.sigma, 400)
        v = cdf(x, p)
        assert np.all(np.diff(v) >= 0)
        assert v[0] >= 0.0 and v[-1] <= 1.0

    @pytest.mark.parametrize("p", PARAM_SETS)
    def test_mass_left_of_mode_by_quadrature(self, p):
        left = numerics.integrate(lambda x: pdf(x, p), (-math.inf, p.mu))
        assert_allclose(left, p.theta1, rtol=0, atol=1e-9)


    @pytest.mark.parametrize("theta2", [2.2e-308, 5.5e-309])
    def test_overflowed_z_at_tiny_theta2_without_warning(self, theta2):
        # z = inf, but t = (z^theta2) / 2 is 1/2 to double precision and Gamma(1/theta2)
        # has no mass below it: the value is theta1.  It was 1.0 with "invalid value" from
        # the discarded small-t branch's inf - inf, and NaN once 1/theta2 = inf.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = cdf([1.7e308, -1.7e308], ApdParams(0.18, theta2))
        assert_allclose(out, [0.18, 0.18], rtol=0, atol=0)

    @pytest.mark.parametrize("theta2", [0.0043, 0.0045])
    def test_overflowed_standardized_value_against_mpmath(self, theta2):
        # y = x / sigma = +-1e608 is past the double range but t is not: the CDF
        # was 1.0 and 0.0, and the log density -inf
        p = ApdParams(0.3, theta2, 0.0, 1e-300)
        expected_cdf, expected_log_pdf = mp_cdf_and_log_pdf([1e308, -1e308], p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_allclose(cdf([1e308, -1e308], p), expected_cdf, rtol=1e-9, atol=0)
            assert_allclose(log_pdf([1e308, -1e308], p), expected_log_pdf, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("p", [ApdParams(0.5, 1e300), ApdParams(0.9, 1e300), ApdParams(0.5, 1e300, 0.0, 1e300)],
                             ids=["symmetric", "theta1=0.9", "sigma=1e300"])
    def test_larger_tail_is_the_complement_of_the_smaller(self, p):
        # scipy's gammainc(1e-300, 0.5) is 1 + 2.3e-14: the CDF passed 1 by 1.1e-14.
        # The left tail is about 1e-300, so the oracle keeps 340 digits.
        x = [p.sigma, -p.sigma]
        expected = mp_cdf_and_log_pdf(x, p, dps=340)[0]
        out = cdf(x, p)
        assert ((0.0 <= out) & (out <= 1.0)).all()
        assert_allclose(out, expected, rtol=1e-13, atol=0)


class TestQuantile:
    @pytest.mark.parametrize("p", PARAM_SETS + [ApdParams(0.6, 1.2, 4.0, 0.7)])
    def test_round_trip(self, p):
        u = np.arange(1, 100) / 100.0
        assert_allclose(cdf(quantile(u, p), p), u, rtol=0, atol=1e-8)

    def test_mode_mass_inverse(self):
        p = ApdParams(0.37, 1.8, 1.5, 2.0)
        assert_allclose(quantile(0.37, p), 1.5, rtol=0, atol=1e-12)

    def test_symmetric_median(self):
        p = ApdParams(0.5, 3.0, -2.0, 5.0)
        assert_allclose(quantile(0.5, p), -2.0, rtol=0, atol=1e-12)

    def test_normal_case(self):
        assert_allclose(
            quantile(0.975, STANDARD_NORMAL), 1.959963984540054, rtol=0, atol=1e-9
        )

    def test_domain(self):
        for u in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(DomainError):
                quantile(u, STANDARD_NORMAL)


class TestSample:
    @pytest.mark.parametrize("p", PARAM_SETS)
    def test_ks_against_cdf(self, p):
        rng = np.random.default_rng(314159)
        x = sample(p, 10**5, rng)
        stat = stats.kstest(x, lambda v: cdf(v, p)).statistic
        assert stat < 1.63 / math.sqrt(10**5)

    # Boosted gamma shapes 1 + 1/theta2 from 3 down to ~1.02; distinct seeds.
    @pytest.mark.parametrize("t2", [0.5, 1.0, 2.0067, 3.0, 50.0])
    @pytest.mark.parametrize("t1", [0.3, 0.5, 0.7])
    def test_ks_exact_over_shape_grid(self, t1, t2):
        p = ApdParams(t1, t2, mu=0.5, sigma=1.5)
        rng = np.random.default_rng(np.random.SeedSequence([int(100 * t1), int(1e4 * t2)]))
        x = sample(p, 10**5, rng)
        stat = stats.kstest(x, lambda v: cdf(v, p)).statistic
        assert stat < 1.63 / math.sqrt(10**5)  # the c06 1% critical value

    # One theta2 per kernel ``**`` picks for the exponent 1/theta2: square,
    # identity, sqrt, then np.power at 3 and at the local alternative's
    # 2 + 0.3/sqrt(2000).
    @pytest.mark.parametrize("t2", [0.5, 1.0, 2.0, 3.0, 2.0 + 0.3 / math.sqrt(2000)],
                             ids=["square", "identity", "sqrt", "power-3", "power-local"])
    @pytest.mark.parametrize("t1", [0.3, 0.5])
    def test_draws_are_the_power_formula_bit_for_bit(self, t1, t2):
        # The draws' in-place power must be the doubles of ``**`` on this numpy.
        p = ApdParams(t1, t2, mu=1000.0, sigma=50.0)
        rng = np.random.default_rng(41)
        g = rng.standard_gamma(1.0 + 1.0 / t2, 2000)
        u = rng.random(2000)
        expected = ((g ** (1.0 / t2)) * (u - t1)) * (p.sigma * apd._shape(t1, t2)[2]) + p.mu
        assert sample(p, 2000, np.random.default_rng(41)).tobytes() == expected.tobytes()

    def test_mass_left_of_mode(self):
        p = ApdParams(0.3, 1.5, 1.0, 2.0)
        rng = np.random.default_rng(271828)
        x = sample(p, 10**6, rng)
        frac = np.mean(x < p.mu)
        assert abs(frac - 0.3) < 3 * math.sqrt(0.3 * 0.7 / 10**6)

    def test_symmetric_location(self):
        p = ApdParams(0.5, 1.0, 5.0, 1.0)
        rng = np.random.default_rng(161803)
        x = sample(p, 10**6, rng)
        assert abs(x.mean() - 5.0) < 4 * x.std(ddof=1) / math.sqrt(x.size)

    def test_empty_and_negative(self):
        rng = np.random.default_rng(1)
        assert sample(STANDARD_NORMAL, 0, rng).size == 0
        with pytest.raises(DomainError):
            sample(STANDARD_NORMAL, -1, rng)

    @pytest.mark.parametrize("n", [2.7, math.nan, math.inf])
    def test_count_not_an_integer(self, n):
        with pytest.raises(DomainError):
            sample(STANDARD_NORMAL, n, np.random.default_rng(1))

    # At most two arrays of n floats: the gamma variates, raised in place
    # into the draws, and the uniforms, released before the finite mask.
    # Forming the power and the shifted uniforms as new arrays held three,
    # below numpy's temporary elision (n < 32768).
    @pytest.mark.parametrize("n, bound", [(2000, 2.2), (10**6, 2.15)])
    @pytest.mark.parametrize("t2", [0.5, 1.0, 2.0, 3.0, 2.0067])
    def test_working_memory_is_two_arrays(self, t2, n, bound):
        p = ApdParams(0.3, t2, 1000.0, 50.0)
        rng = np.random.default_rng(23)
        sample(p, n, rng)  # first-call set-up stays out of the peak
        tracemalloc.start()
        try:
            sample(p, n, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * 8 * n


class TestLargeTheta2:
    """theta2 = 1e6, where ``a``, ``b`` and ``delta`` underflow to 0.

    As theta2 grows the law tends to the uniform on
    ``[mu - sigma theta1 / m, mu + sigma (1 - theta1) / m]`` with
    ``m = min(theta1, 1 - theta1)``: ``mu +- sigma`` for ``theta1 = 1/2``,
    ``[mu - sigma, mu + (7/3) sigma]`` for ``theta1 = 0.3`` (density
    ``0.3 / sigma`` on both sides).  Beyond ``1 + 1e-4`` times either bound
    the exact density is ``exp(-exp(100) / 2)``, which is 0 in floating point.
    """

    T2 = 1e6
    TOL = 1e-4

    @pytest.mark.parametrize("t1, lo, hi", [(0.5, -1.0, 1.0), (0.3, -1.0, 7.0 / 3.0)])
    def test_draws_lie_on_limit_support(self, t1, lo, hi):
        p = ApdParams(t1, self.T2, mu=3.0, sigma=2.0)
        y = (sample(p, 10**4, np.random.default_rng(6)) - 3.0) / 2.0
        assert np.all(np.isfinite(y))
        assert lo * (1 + self.TOL) <= y.min() < 0.99 * lo
        assert 0.99 * hi < y.max() <= hi * (1 + self.TOL)
        assert abs(np.mean(y < 0) - t1) < 4 * math.sqrt(t1 * (1 - t1) / y.size)

    @pytest.mark.parametrize("t1, hi", [(0.5, 1.0), (0.3, 7.0 / 3.0)])
    def test_density_and_cdf(self, t1, hi):
        p = ApdParams(t1, self.T2)
        assert_allclose(pdf([-0.5, 0.0, 0.5 * hi], p), t1, rtol=1e-5)
        assert pdf(hi * (1 + self.TOL), p) == 0.0
        assert cdf(0.0, p) == t1
        assert_allclose(cdf([-0.5, 0.5 * hi], p), [0.5 * t1, 0.5 * (1 + t1)], rtol=1e-5)

    @pytest.mark.parametrize("t1", [0.3, 0.5])
    def test_quantile_round_trip(self, t1):
        # The Gamma(1e-6) quantile underflows for every u here.
        p = ApdParams(t1, self.T2, mu=3.0, sigma=2.0)
        u = np.array([1e-6, 0.05, 0.2, t1, 0.6, 0.95, 1.0 - 1e-6])
        assert_allclose(cdf(quantile(u, p), p), u, rtol=1e-9, atol=0)
        assert quantile(t1, p) == 3.0

    @pytest.mark.parametrize("t1", [0.3, 1e-9])
    @pytest.mark.parametrize("t2", [1.5e308, 1.7e308])
    def test_log_delta_past_the_double_range(self, t1, t2):
        # theta2 |log theta1| overflows, so log delta is -inf; delta^(1/theta2) was 0
        # there, the density and the CDF at the mode's side values wrong, and quantile
        # and sample raised DomainError
        p = ApdParams(t1, t2)
        expected_cdf, expected_log_pdf = mp_cdf_and_log_pdf([0.1, -0.1], p)
        u = np.array([1e-6, 0.05, t1, 0.6, 0.95])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_allclose(cdf([0.1, -0.1], p), expected_cdf, rtol=1e-12, atol=0)
            assert_allclose(log_pdf([0.1, -0.1], p), expected_log_pdf, rtol=1e-12, atol=0)
            x = quantile(u, p)
            assert np.isfinite(x).all()
            assert_allclose(cdf(x, p), u, rtol=1e-9, atol=0)
            assert np.isfinite(sample(p, 1000, np.random.default_rng(7))).all()

    @pytest.mark.parametrize("fn, expected", [(log_pdf, [-math.inf, -math.inf]), (cdf, [1.0, 0.0])])
    def test_no_nan_where_both_log_delta_and_y_overflow(self, fn, expected):
        # z was 0 * inf there: NaN, with "invalid value encountered in scalar multiply"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = fn([1e308, -1e308], ApdParams(0.3, 1.7e308, 0.0, 1e-300))
        assert_allclose(out, expected, rtol=0, atol=0)

    def test_unrepresentable_quantities_raise_domain_error(self):
        # With no warning first: sample warned "overflow encountered in power" (G^200,
        # G^1000), "exp" (c at theta2 = 1e-5), "multiply" (c G^100 at theta1 = 1e-300)
        # or "scalar multiply" (sigma c), and quantile "multiply" (sigma y).
        tiny = ApdParams(0.5, 1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in (ApdParams(0.5, 5e-3), tiny, ApdParams(0.5, 1e-5), ApdParams(1e-300, 0.01),
                      ApdParams(0.5, 2.0, 0.0, 1e308)):
                with pytest.raises(DomainError):
                    sample(p, 1000, np.random.default_rng(0))
            with pytest.raises(DomainError):
                quantile(0.9, tiny)
            with pytest.raises(DomainError):
                quantile(0.5, ApdParams(1e-300, 1.0, 0.0, 1e300))


class TestValueAxis:
    """Each function over the digest's grid of shapes, from the ends of the double range in.

    Every call returns values that are not NaN (a log density may be -inf
    where the density is 0; every other value is finite, and a CDF lies in
    [0, 1]) or raises an :class:`ApdGofError`, and it warns nowhere.
    """

    CALLS = {
        "log_pdf": (lambda p: log_pdf(digest.APD_XS, p), lambda v: (v < math.inf).all()),
        "cdf": (lambda p: cdf(digest.APD_XS, p), lambda v: ((0.0 <= v) & (v <= 1.0)).all()),
        "quantile": (lambda p: quantile(digest.APD_US, p), lambda v: np.isfinite(v).all()),
        "sample": (lambda p: sample(p, 10, np.random.default_rng(0)), lambda v: np.isfinite(v).all()),
    }

    @pytest.mark.parametrize("name", CALLS)
    def test_a_valid_value_or_a_typed_error(self, name):
        call, valid = self.CALLS[name]
        failed = []
        for p in digest.APD_SHAPES:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    if not valid(np.asarray(call(p))):
                        failed.append((p, "invalid value"))
                except ApdGofError:
                    pass
                except Exception as exc:  # a warning raised as an error, or a bare exception
                    failed.append((p, repr(exc)))
        assert not failed, "\n".join(f"{p}: {why}" for p, why in failed)


class TestSepdEquivalence:
    def test_symmetric_maps_to_half(self):
        p = from_sepd(SepdParams(1.0, 2.7, 3.0, 0.5))
        assert p.theta1 == 0.5
        assert p.theta2 == 2.7
        assert p.mu == 3.0

    def test_unit_laplace(self):
        p = from_sepd(SepdParams(1.0, 1.0, 0.0, 1.0))
        assert_allclose(
            (p.theta1, p.theta2, p.mu, p.sigma), (0.5, 1.0, 0.0, 1.0), rtol=0, atol=1e-15
        )

    def test_pointwise_example(self):
        sp = SepdParams(2.0, 1.5, 0.0, 1.0)
        p = from_sepd(sp)
        for x in (-1.0, 0.0, 2.0):
            assert_allclose(pdf(x, p), sepd_pdf(x, sp), rtol=0, atol=1e-12)

    def test_pointwise_random_sets(self):
        rng = np.random.default_rng(55)
        for _ in range(5):
            sp = SepdParams(
                gamma=float(rng.uniform(0.4, 2.5)),
                q=float(rng.uniform(0.8, 4.0)),
                m=float(rng.uniform(-3.0, 3.0)),
                s=float(rng.uniform(0.5, 2.0)),
            )
            p = from_sepd(sp)
            x = np.linspace(sp.m - 5 * sp.s, sp.m + 5 * sp.s, 50)
            assert_allclose(pdf(x, p), sepd_pdf(x, sp), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("q", [5e-324, 1e-310, 1e-17, 1e-12, 1e-8, 1e-4])
    def test_scale_at_small_tail_exponents_against_mpmath(self, q):
        # delta^(1/q) came from log delta / q, whose digits cancel as q -> 0: 117% off at
        # 1e-17.  At a subnormal q, q |log(theta1 / (1 - theta1))| is itself short of digits.
        p = from_sepd(SepdParams(1.5, q))
        with mp.workdps(400):
            t1, q_ = mp.mpf(p.theta1), mp.mpf(q)
            a, b = t1**q_, (1 - t1) ** q_
            expected = (2 * a * b / (a + b)) ** (1 / q_) * (mp.mpf(1.5) + 1 / mp.mpf(1.5))
        assert_allclose(p.sigma, float(expected), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("gamma, theta1", [(1e-8, 1.0), (1e-200, 1.0), (1.4e154, 0.0), (1e200, 0.0)])
    def test_extreme_skewness_is_a_domain_error(self, gamma, theta1):
        # 1 + gamma^2 rounded to 1, and log1p(-1) raised "math domain error"; past
        # 1.34e154, gamma**2 raised OverflowError.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as err:
                from_sepd(SepdParams(gamma, 2.0))
        assert str(err.value) == f"the SEPD skewness gamma = {gamma!r} maps to theta1 = {theta1!r}, outside (0, 1)"
