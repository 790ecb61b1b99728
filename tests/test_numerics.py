"""Tests for the probability-kernel layer and the special functions it uses.

High-precision reference values come from mpmath at 50 digits.  The gamma
family is checked through the functions the package calls: ``score``'s own
psi and psi' (both from the one series ``score._psi``), and the
``scipy.special`` log-gamma and incomplete gamma of ``apd.cdf`` and
``apd.quantile``.
The noncentral chi-square survival function, a numpy kernel that sums
Poisson pairs up to ncp ~ 143 and takes ``scipy.special.chndtr``'s value
near a larger ncp (``numerics._chi2_cdf``), is checked against a 40-digit
mpmath sum (:func:`mp_noncentral_sf`), a Poisson-mixture series
(:func:`poisson_series_sf`), ``scipy.special.chndtr``, ``scipy.stats.ncx2``
and a direct Monte Carlo simulation.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special as sc
from scipy import stats

from apdgof import apd, numerics, score, simulate
from apdgof.errors import AccuracyError, DomainError
from apdgof.numerics import (
    chi2_sf,
    gamma_sample,
    integrate,
    noncentral_chi2_sf,
)
from tests import test_acceptance

mp.mp.dps = 50

RECURRENCE_POINTS = [0.1, 0.5, 1.0, 3.7, 10.0]

# The gamma-family functions the package calls: the scipy.special ones of
# apd.cdf and apd.quantile, and score's psi and psi'.
log_gamma = sc.gammaln
reg_lower_inc_gamma = sc.gammainc


def digamma(x):
    return score._psi(x)[0]


def trigamma(x):
    return score._psi(x)[1]


# Poisson tail mass left unaccounted for when the mixture series is truncated.
_POISSON_TAIL = 1e-12


def poisson_series_sf(x, k, ncp):
    """Noncentral chi-square survival function as a Poisson mixture.

    Evaluates ``sum_j e^{-ncp/2} (ncp/2)^j / j! * chi2_sf(x, k + 2j)``,
    truncated once the accumulated Poisson weight exceeds ``1 - 1e-12``; the
    result is then within ``1e-10`` of the exact value.  An oracle for
    :func:`noncentral_chi2_sf`, formed with ``scipy.special.gammaincc``.
    """
    if ncp == 0.0:
        return float(sc.gammaincc(0.5 * k, 0.5 * x))
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
        assert j <= max_terms, f"series did not converge (ncp={ncp})"
    return min(max(total, 0.0), 1.0)


class TestLogGamma:
    def test_exact_integers(self):
        assert log_gamma(1.0) == 0.0
        assert log_gamma(2.0) == 0.0

    def test_half_integer(self):
        # log(sqrt(pi)/2), 50-digit reference
        assert_allclose(log_gamma(1.5), -0.12078223763524522, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("x", [1e-3, 0.02, 0.7, 1.0, 4.5, 123.0, 1e4, 1e6])
    def test_against_mpmath(self, x):
        ref = float(mp.loggamma(mp.mpf(x)))
        assert_allclose(log_gamma(x), ref, rtol=1e-13, atol=1e-300)


class TestDigammaTrigamma:
    def test_euler_mascheroni(self):
        assert_allclose(digamma(1.0), -0.5772156649015329, rtol=0, atol=1e-14)

    def test_half_integer(self):
        assert_allclose(digamma(1.5), 0.03648997397857652, rtol=0, atol=1e-14)
        assert_allclose(trigamma(1.0), math.pi**2 / 6, rtol=0, atol=1e-12)
        assert_allclose(trigamma(1.5), math.pi**2 / 2 - 4, rtol=0, atol=1e-12)

    def test_digamma_shift(self):
        assert_allclose(digamma(2.0), digamma(1.0) + 1.0, rtol=0, atol=1e-13)
        assert_allclose(trigamma(2.0), trigamma(1.0) - 1.0, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("x", RECURRENCE_POINTS)
    def test_recurrences(self, x):
        assert_allclose(digamma(x + 1) - digamma(x), 1 / x, rtol=0, atol=1e-12)
        assert_allclose(trigamma(x + 1) - trigamma(x), -1 / x**2, rtol=0, atol=1e-12)
        assert_allclose(
            log_gamma(x + 1) - log_gamma(x), math.log(x), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("x", [1e-3, 0.4, 2.0, 77.0, 1e6])
    def test_against_mpmath(self, x):
        assert_allclose(digamma(x), float(mp.digamma(mp.mpf(x))), rtol=0, atol=1e-12)
        assert_allclose(
            trigamma(x), float(mp.polygamma(1, mp.mpf(x))), rtol=1e-12, atol=1e-12
        )


class TestRegLowerIncGamma:
    def test_at_zero(self):
        assert reg_lower_inc_gamma(3.2, 0.0) == 0.0

    @pytest.mark.parametrize("x", [0.1, 1.0, 4.0])
    def test_exponential_case(self, x):
        assert_allclose(reg_lower_inc_gamma(1.0, x), -math.expm1(-x), rtol=0, atol=1e-14)

    def test_erf_identity(self):
        assert_allclose(
            reg_lower_inc_gamma(0.5, 1.0), 0.8427007929497149, rtol=0, atol=1e-13
        )

    def test_monotone_in_x(self):
        x = np.linspace(0, 30, 200)
        vals = [reg_lower_inc_gamma(2.7, xi) for xi in x]
        assert np.all(np.diff(vals) >= 0)
        assert all(0.0 <= v <= 1.0 for v in vals)


class TestChi2:
    def test_sf_at_zero(self):
        assert chi2_sf(0.0) == 1.0

    def test_sf_closed_form_two_dof(self):
        x = np.linspace(0.0, 50.0, 501)
        for xi in x:
            assert_allclose(chi2_sf(xi), math.exp(-xi / 2), rtol=0, atol=1e-14)

    def test_sf_level_point(self):
        assert_allclose(chi2_sf(2 * math.log(20)), 0.05, rtol=0, atol=1e-15)

    # k: the degrees of freedom of scipy's chi-square, the oracle.
    @pytest.mark.parametrize("k", [2])
    @pytest.mark.parametrize("p", [0.01, 0.5, 0.95, 0.999])
    def test_quantile_round_trip(self, k, p):
        q = -2.0 * math.log1p(-p)
        assert_allclose(chi2_sf(q), 1 - p, rtol=0, atol=1e-10)
        assert_allclose(stats.chi2.sf(q, k), 1 - p, rtol=0, atol=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            chi2_sf(-1.0)


class TestNoncentralChi2:
    def test_reduces_to_central(self):
        for x in (0.0, 1.3, 7.7):
            assert noncentral_chi2_sf(x, 0.0) == chi2_sf(x)

    def test_at_zero(self):
        assert noncentral_chi2_sf(0.0, 4.0) == 1.0

    @pytest.mark.parametrize("ncp", [0.3, 4.0, 40.0])
    def test_shares_the_study_kernel(self, ncp):
        # The studies' KS step and this function evaluate one CDF.
        for x in np.linspace(0.0, 60.0, 61).tolist():
            assert noncentral_chi2_sf(x, ncp) == 1.0 - float(numerics._chi2_cdf(x, ncp))

    def test_reference_value(self):
        # Independent references for sf(5.9914645..., df=2, ncp=4): scipy's
        # implementation and the Monte Carlo check below both give 0.41543.
        val = noncentral_chi2_sf(5.991464547107982, 4.0)
        assert_allclose(val, 0.4154267925299622, rtol=0, atol=1e-10)

    # k: the degrees of freedom of scipy's ncx2, the oracle.
    @pytest.mark.parametrize("k", [2])
    @pytest.mark.parametrize("ncp", [0.3, 2.0, 9.0, 40.0])
    def test_against_scipy(self, k, ncp):
        for x in (0.5, 3.0, 12.0, 30.0):
            assert_allclose(
                noncentral_chi2_sf(x, ncp),
                stats.ncx2.sf(x, k, ncp),
                rtol=1e-9,
                atol=1e-12,
            )

    def test_against_monte_carlo(self):
        # (Z1 + 2)^2 + Z2^2 is noncentral chi-square with df=2, ncp=4.
        crit = 5.991464547107982
        rng = np.random.default_rng(20260810)
        n = 10**7
        hits = 0
        for _ in range(10):
            z1 = rng.standard_normal(n // 10) + 2.0
            z2 = rng.standard_normal(n // 10)
            hits += int(np.count_nonzero(z1 * z1 + z2 * z2 > crit))
        p_mc = hits / n
        se = math.sqrt(p_mc * (1 - p_mc) / n)
        assert abs(noncentral_chi2_sf(crit, 4.0) - p_mc) < 3 * se

    def test_monotone_in_x_and_ncp(self):
        xs = np.linspace(0.0, 25.0, 60)
        vals = [noncentral_chi2_sf(x, 3.0) for x in xs]
        assert np.all(np.diff(vals) <= 1e-15)
        ncps = np.linspace(0.0, 20.0, 60)
        vals = [noncentral_chi2_sf(5.0, c) for c in ncps]
        assert np.all(np.diff(vals) >= -1e-15)

    def test_large_ncp_stability(self):
        assert_allclose(
            noncentral_chi2_sf(900.0, 800.0),
            stats.ncx2.sf(900.0, 2, 800.0),
            rtol=1e-8,
        )

    # k: the degrees of freedom of the Poisson-mixture oracle.
    @pytest.mark.parametrize("k", [2])
    def test_against_poisson_series(self, k):
        xs = np.concatenate([np.geomspace(0.01, 60.0, 40), [900.0]])
        for ncp in np.geomspace(0.3, 800.0, 25):
            for x in xs:
                ref = poisson_series_sf(x, k, ncp)
                assert abs(noncentral_chi2_sf(x, ncp) - ref) <= 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            noncentral_chi2_sf(-1.0, 1.0)
        with pytest.raises(DomainError):
            noncentral_chi2_sf(1.0, -1.0)


def mp_noncentral_sf(x, ncp):
    """``P(T > x)`` for T noncentral chi-square(2, ``ncp``), to 40 digits, as an mpf.

    The Poisson-weighted sum of regularized upper gammas that
    :func:`poisson_series_sf` forms, ``sum_j P(J = j) Q(1 + j, x/2)`` with
    ``J ~ Poisson(ncp/2)``, in mpmath over ``j`` within 12 standard
    deviations (and 40 below, 60 above) of ``ncp/2``, where the mass left out
    is below 1e-30.  ``Q(1 + j, b)`` steps by its recurrence
    ``Q(j + 2, b) = Q(j + 1, b) + e^-b b^(j+1) / (j+1)!``.
    """
    with mp.workdps(40):
        a, b = mp.mpf(ncp) / 2, mp.mpf(x) / 2
        lo, hi = max(0, int(a - 12 * mp.sqrt(a) - 40)), int(a + 12 * mp.sqrt(a) + 60)
        w = mp.exp(-a + lo * mp.log(a) - mp.loggamma(lo + 1))
        q = mp.gammainc(lo + 1, b, mp.inf, regularized=True)
        step = mp.exp(-b) * b ** (lo + 1) / mp.factorial(lo + 1)
        total = mp.mpf(0)
        for j in range(lo, hi + 1):
            total += w * q
            w *= a / (j + 1)
            q += step
            step *= b / (j + 2)
        return +total


# The grid on which the kernel's error budget is pinned.
KERNEL_NCPS = (1e-3, 0.3, 1.3, 4.0, 40.0, 800.0, 5000.0, 1e4)
KERNEL_XS = (0.0, 1e-3, 0.5, 3.0, 5.99, 12.0, 30.0, 60.0, 900.0, 1e4)


class TestPoissonPairKernel:
    """``numerics._chi2_cdf`` at ``ncp > 0``: ``P(I > J)`` for Poisson ``I`` (mean x/2) and ``J`` (mean ncp/2)."""

    @pytest.mark.filterwarnings("error")
    def test_central_law_is_expm1_bit_for_bit(self):
        # At ncp = 0 the general kernel gives other last bits; the null studies' KS lines read these.
        for x in (0.0, 5e-324, 1e-10, 5.99, 700.0, 1500.0, math.inf):
            assert numerics._chi2_cdf(x, 0.0) == -np.expm1(-x / 2), x

    def test_j_window_starts_at_0_wherever_the_erlang_sum_runs(self):
        # The Erlang sum takes J's probabilities from 0: it runs for means up to
        # 71.86, and the first window that starts above 0 is at 94.09.
        lo, hi = numerics._window(np.linspace(0.0, 200.0, 2_000_001))
        erlang = hi <= numerics._ERLANG_MAX_K
        assert erlang.any() and not erlang.all()
        assert np.all(lo[erlang] == 0.0)

    @pytest.mark.parametrize("ncp", KERNEL_NCPS)
    def test_within_1e_15_of_40_digits(self, ncp):
        # The stated budget is 1e-13; the grid pins the measured 3.3e-16 tighter,
        # so windows that leave 1e-12 of a law's mass out fail it.
        for x in KERNEL_XS:
            ref = mp_noncentral_sf(x, ncp)
            assert abs(noncentral_chi2_sf(x, ncp) - float(ref)) <= 1e-15, (x, ncp)
            # chndtr, the oracle next to it, is as close on this grid.
            assert abs(1.0 - float(sc.chndtr(x, 2.0, ncp)) - float(ref)) <= 1e-15, (x, ncp)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "x, ncp, sf",
        [
            (5.0, 1e12, 1.0),
            (5.0, 1e16, 1.0),
            (5.0, 2.0**54, 1.0),  # ncp/2 = 2**53, the largest Poisson mean summed
            (1e6, 1e3, 0.0),
            (1.7e308, 1e3, 0.0),
            (1e6, 1e15, 1.0),
            (1e12, 1e10, 0.0),
        ],
    )
    def test_separated_windows_give_a_value(self, x, ncp, sf):
        # Windows apart hold every pair I > J or none, as chndtr has it: nothing is summed.
        assert noncentral_chi2_sf(x, ncp) == sf

    @pytest.mark.filterwarnings("error")
    def test_mean_past_2_to_the_53_is_accuracy_error(self):
        with pytest.raises(AccuracyError, match="past 2\\*\\*53"):
            noncentral_chi2_sf(5.0, math.nextafter(2.0**54, math.inf))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x, ncp", [(5e10, 5e10), (1e12, 1e12), (1e13, 1e13)])
    def test_overlap_where_chndtr_has_no_value_is_accuracy_error(self, x, ncp):
        with pytest.raises(AccuracyError, match="no computed value"):
            noncentral_chi2_sf(x, ncp)
        with pytest.raises(AccuracyError, match=f"x={x}"):  # a study's KS step names the statistic
            numerics._chi2_cdf(np.array([1.0, x, 2.0]), ncp)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("ncp", [144.0, 800.0, 1e4, 1e8, 1e10])
    def test_overlaps_past_the_erlang_sum_are_chndtrs(self, ncp):
        # Past J's window end at k = 170 (ncp about 143) an x whose window
        # overlaps J's takes chndtr's value; an x far from ncp gives 0 or 1.
        near = ncp + math.sqrt(ncp) * np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
        assert numerics._chi2_cdf(near, ncp).tolist() == sc.chndtr(near, 2.0, ncp).tolist()
        far = np.array([max(ncp - 60.0 * math.sqrt(ncp), 0.0), ncp + 60.0 * math.sqrt(ncp)])
        assert numerics._chi2_cdf(far, ncp).tolist() == [0.0, 1.0]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("ncp", [100.0, 1000.0])
    def test_infinity_and_nan_either_side_of_the_erlang_sum(self, ncp):
        # Past ncp ~ 143 the window of x = inf was NaN, so inf gave 0 (and NaN
        # gave 0) with an "invalid value" warning; both branches give 1 and NaN.
        cdf = numerics._chi2_cdf(np.array([np.inf, np.nan, 1e308, 2000.0]), ncp)
        assert cdf[0] == 1.0 and math.isnan(cdf[1]) and cdf[2:].tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("ncp", [1e-300, 1e-3, 0.458, 40.0, 143.0, 144.0, 800.0, 1e6])
    def test_array_gives_the_doubles_of_scalar_calls(self, ncp):
        rng = np.random.default_rng(25)
        x = np.concatenate([rng.uniform(0.0, 3.0 * ncp + 60.0, 94), [0.0, 5e-324, 1e-3, 1e4, 1e300, 1.7e308]])
        rng.shuffle(x)
        cdf = numerics._chi2_cdf(x, ncp)
        assert cdf.shape == (100,)
        assert cdf.tolist() == [float(numerics._chi2_cdf(v, ncp)) for v in x.tolist()]
        assert np.all((0.0 <= cdf) & (cdf <= 1.0))

    def test_matches_chndtr_on_study_statistics(self):
        # Statistics of a power study at the c04 setting: ncp 0.458.
        x = np.random.default_rng(4).noncentral_chisquare(2.0, 0.458, 100)
        assert np.max(np.abs(numerics._chi2_cdf(x, 0.458) - sc.chndtr(x, 2.0, 0.458))) <= 1e-15


class TestGammaSample:
    def test_exponential_mean(self):
        rng = np.random.default_rng(7)
        x = gamma_sample(1.0, rng, size=10**6)
        assert abs(x.mean() - 1.0) < 3 * x.std(ddof=1) / math.sqrt(x.size)

    def test_moments_shape_above_one(self):
        rng = np.random.default_rng(8)
        x = gamma_sample(2.5, rng, size=10**6)
        n = x.size
        assert abs(x.mean() - 2.5) < 4 * x.std(ddof=1) / math.sqrt(n)
        v = (x - x.mean()) ** 2
        assert abs(x.var(ddof=1) - 2.5) < 4 * v.std(ddof=1) / math.sqrt(n)

    def test_ks_small_shape(self):
        rng = np.random.default_rng(9)
        x = gamma_sample(0.5, rng, size=10**5)
        stat = stats.kstest(x, lambda v: sc.gammainc(0.5, v)).statistic
        assert stat < 1.63 / math.sqrt(10**5)

    def test_scalar_and_empty(self):
        rng = np.random.default_rng(10)
        v = gamma_sample(3.0, rng)
        assert isinstance(v, float) and v > 0
        assert gamma_sample(3.0, rng, size=0).size == 0

    def test_positive_draws(self):
        rng = np.random.default_rng(11)
        assert np.all(gamma_sample(0.4, rng, size=10**4) >= 0.0)

    def test_domain(self):
        rng = np.random.default_rng(12)
        with pytest.raises(DomainError):
            gamma_sample(0.0, rng)
        with pytest.raises(DomainError):
            gamma_sample(-1.0, rng)

    @pytest.mark.parametrize("size", [-1, 2.7, math.nan, math.inf])
    def test_size_not_a_count(self, size):
        with pytest.raises(DomainError):
            gamma_sample(3.0, np.random.default_rng(13), size=size)


class TestIntegrate:
    def test_exponential(self):
        assert_allclose(integrate(math.exp, (-math.inf, 0.0)), 1.0, rtol=0, atol=1e-10)
        assert_allclose(
            integrate(lambda t: math.exp(-t), (0.0, math.inf)), 1.0, rtol=0, atol=1e-10
        )

    @pytest.mark.parametrize("x", [1.0, 1.5, 2.0, 3.0])
    def test_log_weighted_gamma_identities(self, x):
        # int_0^inf t^(x-1) log(t) e^(-t) dt = Gamma(x) psi(x)
        val = integrate(
            lambda t: t ** (x - 1) * math.log(t) * math.exp(-t), (0.0, math.inf)
        )
        ref = math.exp(log_gamma(x)) * digamma(x)
        assert_allclose(val, ref, rtol=0, atol=1e-9)
        # int_0^inf t^(x-1) log(t)^2 e^(-t) dt = Gamma(x) (psi'(x) + psi(x)^2)
        val2 = integrate(
            lambda t: t ** (x - 1) * math.log(t) ** 2 * math.exp(-t), (0.0, math.inf)
        )
        ref2 = math.exp(log_gamma(x)) * (trigamma(x) + digamma(x) ** 2)
        assert_allclose(val2, ref2, rtol=0, atol=1e-9)

    def test_frozen_values(self):
        # Gamma(2) psi(2) and Gamma(2) (psi'(2) + psi(2)^2), 50-digit references
        val = integrate(lambda t: t * math.log(t) * math.exp(-t), (0.0, math.inf))
        assert_allclose(val, 0.4227843350984671, rtol=0, atol=1e-10)
        val2 = integrate(lambda t: t * math.log(t) ** 2 * math.exp(-t), (0.0, math.inf))
        assert_allclose(val2, 0.8236806608528794, rtol=0, atol=1e-10)

    def test_accuracy_error_carries_estimate(self, monkeypatch):
        monkeypatch.setattr(numerics, "_QUAD_LIMIT", 1)
        with pytest.raises(AccuracyError) as err:
            integrate(lambda t: math.sin(t * t), (0.0, 80.0))
        assert err.value.estimate is not None and math.isfinite(err.value.estimate)

    def test_domain(self):
        with pytest.raises(DomainError):
            integrate(math.exp, (1.0, 1.0))
        with pytest.raises(DomainError):
            integrate(math.exp, (2.0, 1.0))
        with pytest.raises(DomainError):
            integrate(math.exp, (math.nan, 1.0))

    @pytest.mark.parametrize("endpoint", ["a", None, 10**400], ids=["str", "None", "1e400"])
    def test_endpoint_not_a_real(self, endpoint):
        # float() raised a bare ValueError, TypeError or OverflowError
        with pytest.raises(DomainError, match="integration endpoint"):
            integrate(math.exp, (endpoint, 1.0))
        with pytest.raises(DomainError, match="integration endpoint"):
            integrate(math.exp, (0.0, endpoint))

    def test_numpy_infinite_endpoints(self):
        assert_allclose(integrate(math.exp, (-np.inf, np.float32(0.0))), 1.0, rtol=0, atol=1e-10)



HUGE = 10**400  # an int that float() cannot convert: a bare OverflowError before
X = np.arange(10.0)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: score.check_lambda(HUGE), id="check_lambda"),
        pytest.param(lambda: score.run_test(X, HUGE), id="run_test-lam"),
        pytest.param(lambda: score.run_test(X, 2.0, alpha=HUGE), id="run_test-alpha"),
        pytest.param(lambda: score.fisher_information(HUGE), id="fisher_information"),
        pytest.param(lambda: score.noncentrality((HUGE, 0.0), 2.0), id="noncentrality"),
        pytest.param(lambda: score.asymptotic_power((0.5, 0.3), 2.0, HUGE), id="asymptotic_power"),
        pytest.param(lambda: chi2_sf(HUGE), id="chi2_sf"),
        pytest.param(lambda: noncentral_chi2_sf(1.0, HUGE), id="noncentral_chi2_sf"),
        pytest.param(lambda: gamma_sample(HUGE, np.random.default_rng(0)), id="gamma_sample"),
        pytest.param(lambda: apd.ApdParams(0.5, HUGE), id="ApdParams"),
        pytest.param(lambda: score.LocationScale(HUGE, 1.0), id="LocationScale"),
        pytest.param(lambda: test_acceptance.mle_rmse_study(HUGE, 20, 100, 1), id="mle_rmse_study"),
        pytest.param(lambda: simulate.mc_fisher_check(HUGE, 10**5, 1), id="mc_fisher_check"),
    ],
)
def test_int_beyond_double_range_is_domain_error(call):
    with pytest.raises(DomainError):
        call()


HUGER = 10**5000  # an int past Python's 4,300-digit int-to-str limit


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(
            lambda: apd.sample(apd.ApdParams(0.5, 2.0), -HUGER, np.random.default_rng(0)),
            id="sample",
        ),
        pytest.param(lambda: score.test_statistic([0, 0], -HUGER, 2.0), id="test_statistic"),
        pytest.param(lambda: score.noncentrality((HUGER, 0), 2.0), id="noncentrality"),
    ],
)
def test_int_past_the_str_digit_limit_is_domain_error(call):
    # The messages printed the raw int, which raised the builtin ValueError.
    with pytest.raises(DomainError, match="got an int"):
        call()


@pytest.mark.parametrize("n", [HUGE, HUGER], ids=["1e400", "1e5000"])
def test_statistic_of_a_count_beyond_the_double_range_names_n(n):
    # T multiplies by n as a double: float(n) raised a bare OverflowError.
    with pytest.raises(DomainError, match="^n must"):
        score.test_statistic([0.1, 0.0], n, 2.0)


@pytest.mark.filterwarnings("error")
def test_overflowing_statistic_is_domain_error():
    # n r1^2 / S11 overflowed with a RuntimeWarning, then chi2_sf refused an infinite x.
    assert math.isfinite(score.test_statistic([10.0, 0.0], 10**300, 2.0).t_stat)
    with pytest.raises(DomainError, match="T overflows"):
        score.test_statistic([10.0, 0.0], 10**308, 2.0)
    with pytest.raises(DomainError, match="T overflows"):
        score.test_statistic([1e200, 0.0], 10, 2.0)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(
            lambda: apd.sample(apd.ApdParams(0.5, 2.0), 10**30, np.random.default_rng(0)),
            id="sample-1e30",
        ),
        pytest.param(
            lambda: apd.sample(apd.ApdParams(0.5, 2.0), HUGER, np.random.default_rng(0)),
            id="sample-1e5000",
        ),
        pytest.param(
            lambda: gamma_sample(1.0, np.random.default_rng(0), 10**30), id="gamma_sample-1e30"
        ),
        pytest.param(
            lambda: gamma_sample(1.0, np.random.default_rng(0), numerics._MAX_VALUES + 1),
            id="gamma_sample-first-unsizable",
        ),
        pytest.param(
            lambda: simulate.run_null_study(simulate.StudyConfig(lam=2.0, n=10**30, reps=100, seed=1)),
            id="run_null_study-1e30",
        ),
        pytest.param(
            lambda: simulate.run_null_study(simulate.StudyConfig(lam=2.0, n=20, reps=10**30, seed=1)),
            id="run_null_study-reps-1e30",
        ),
        pytest.param(lambda: simulate.mc_fisher_check(2.0, 10**30, 1), id="mc_fisher_check-1e30"),
    ],
)
def test_count_numpy_cannot_size_is_memory_error(call):
    # numpy refuses such a count with a bare ValueError ("Maximum allowed
    # dimension exceeded", or "array is too big"); a count it can size but
    # not allocate, such as 10**15, is already its MemoryError.
    with pytest.raises(MemoryError, match="more float64 values than an array can hold"):
        call()


def test_largest_sizable_count_is_numpy_s_memory_error():
    # 8 EiB less 8 bytes: numpy sizes the array, and the allocation fails before a page is touched.
    with pytest.raises(MemoryError, match="Unable to allocate"):
        gamma_sample(1.0, np.random.default_rng(0), numerics._MAX_VALUES)


class TestNoncentralLawLimits:
    """The noncentral law never returns NaN or warns: it raises a typed error."""

    @pytest.mark.filterwarnings("error")
    def test_overflowing_noncentrality_is_domain_error(self):
        with pytest.raises(DomainError, match="noncentrality"):
            score.asymptotic_power((1e200, 1e200), 2.0, 0.05)
        with pytest.raises(DomainError, match="noncentrality"):
            score.noncentrality((1e200, 1e200), 2.0)

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda: noncentral_chi2_sf(5.0, 1e300), id="noncentral_chi2_sf"),
            pytest.param(lambda: score.asymptotic_power((1e100, 0.0), 2.0, 0.05), id="asymptotic_power"),
        ],
    )
    def test_no_value_from_chndtr_is_accuracy_error(self, call):
        with pytest.raises(AccuracyError):
            call()

    @pytest.mark.parametrize("ncp", [1.0, 1e3, 1e8, 1e12, 1e15])
    def test_values_up_to_1e15_are_chndtr_s(self, ncp):
        for x in (0.0, 5.0, 1e3, 1e6):
            assert noncentral_chi2_sf(x, ncp) == 1.0 - float(sc.chndtr(x, 2.0, ncp))
