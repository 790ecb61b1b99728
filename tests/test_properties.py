"""Property-based invariants that must hold on arbitrary valid inputs."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from apdgof.apd import ApdParams, cdf, log_pdf, quantile
from apdgof.numerics import chi2_quantile, chi2_sf, digamma, log_gamma, trigamma
from apdgof.score import run_test

positive_x = st.floats(min_value=1e-2, max_value=1e3, allow_nan=False)
lam_values = st.floats(min_value=1.0, max_value=6.0, allow_nan=False)
theta1_values = st.floats(min_value=0.05, max_value=0.95, allow_nan=False)


@given(positive_x)
@settings(max_examples=60, deadline=None)
def test_gamma_family_recurrences(x):
    assert_allclose(digamma(x + 1) - digamma(x), 1 / x, rtol=1e-10, atol=1e-12)
    assert_allclose(trigamma(x + 1) - trigamma(x), -1 / x**2, rtol=1e-9, atol=1e-12)
    assert_allclose(log_gamma(x + 1) - log_gamma(x), math.log(x), rtol=1e-10, atol=1e-12)


@given(st.floats(min_value=1e-6, max_value=1 - 1e-6, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_chi2_two_dof_round_trip(p):
    assert_allclose(chi2_sf(chi2_quantile(p, 2), 2), 1 - p, rtol=0, atol=1e-12)


@given(theta1_values, lam_values, st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=60, deadline=None)
def test_quantile_inverts_cdf(theta1, theta2, u):
    p = ApdParams(theta1, theta2, mu=1.0, sigma=2.0)
    assert_allclose(cdf(quantile(u, p), p), u, rtol=0, atol=1e-8)


@given(
    theta1_values,
    lam_values,
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_log_pdf_location_scale_identity(theta1, theta2, y, mu, sigma):
    standard = ApdParams(theta1, theta2)
    shifted = ApdParams(theta1, theta2, mu=mu, sigma=sigma)
    x = mu + sigma * y
    # The rounded x standardises to (x - mu) / sigma, which can be y plus an
    # ulp; the exponent term is ~2000 at theta2 = 6, |y| = 4, where that ulp
    # moves the exact log density by ~1e-11.  Compare at the point x is.
    y_at_x = (x - mu) / sigma
    assert_allclose(
        log_pdf(x, shifted),
        log_pdf(y_at_x, standard) - math.log(sigma),
        rtol=0,
        atol=1e-11,
    )


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
)
@settings(max_examples=30, deadline=None)
def test_affine_invariance_of_statistic(seed, lam, log_a, b):
    from apdgof import apd

    rng = np.random.default_rng(seed)
    data = apd.sample(apd.ApdParams(0.5, lam), 60, rng)
    a = math.exp(log_a)
    t0 = run_test(data, lam).t_stat
    t1 = run_test(a * data + b, lam).t_stat
    assert abs(t0 - t1) < 1e-10
