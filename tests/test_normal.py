"""Special-function layer: values frozen from an mpmath oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplex_orthant import normal

# frozen from mpmath at 40 digits (bisection of ncdf for the quantile)
PDF_AT_1 = 0.24197072451914335
CDF_AT_196 = 0.9750000009035576
QUANTILE_975 = 1.9599639845400542
GORDON_AT_2 = 0.026995483256594026
BIRNBAUM_AT_1 = 0.14954613203526815
BIRNBAUM_AT_2 = 0.022363790575394105
TAIL_AT_1 = 0.15865525393145705
BETA_2_THIRD = 2.25  # quadrature of t (1-t)^(-2/3) on (0, 1)


def test_pdf_values():
    assert normal.std_normal_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-16)
    assert normal.std_normal_pdf(1.0) == pytest.approx(PDF_AT_1, abs=1e-16)
    assert normal.std_normal_pdf(-1.0) == normal.std_normal_pdf(1.0)


def test_cdf_values():
    assert normal.std_normal_cdf(0.0) == 0.5
    assert normal.std_normal_cdf(math.inf) == 1.0
    assert normal.std_normal_cdf(-math.inf) == 0.0
    assert normal.std_normal_cdf(1.959964) == pytest.approx(CDF_AT_196, abs=1e-15)


def test_log_cdf_deep_tail():
    # relative accuracy of log Phi in the far left tail
    import mpmath as mp

    mp.mp.dps = 40
    for x in (-5.0, -10.0, -20.0, -38.0):
        exact = float(mp.log(mp.ncdf(x)))
        assert normal.log_std_normal_cdf(x) == pytest.approx(exact, rel=1e-12)


def test_quantile():
    assert normal.std_normal_quantile(0.5) == 0.0
    assert normal.std_normal_quantile(0.975) == pytest.approx(QUANTILE_975, abs=1e-12)
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            normal.std_normal_quantile(bad)


def test_quantile_oddness():
    ps = np.linspace(0.01, 0.99, 99)
    assert np.allclose(
        normal.std_normal_quantile(ps), -normal.std_normal_quantile(1.0 - ps), atol=1e-12
    )


def test_gordon_upper_mills():
    assert normal.gordon_upper_mills(1.0) == pytest.approx(PDF_AT_1, abs=1e-16)
    assert normal.gordon_upper_mills(2.0) == pytest.approx(GORDON_AT_2, abs=1e-16)
    assert normal.gordon_upper_mills(1.0) > TAIL_AT_1
    with pytest.raises(ValueError):
        normal.gordon_upper_mills(0.0)


def test_birnbaum_lower_mills():
    assert normal.birnbaum_lower_mills(0.0) == pytest.approx(
        normal.std_normal_pdf(0.0), abs=1e-16
    )
    assert normal.birnbaum_lower_mills(0.0) < 0.5
    assert normal.birnbaum_lower_mills(1.0) == pytest.approx(BIRNBAUM_AT_1, abs=1e-15)
    assert normal.birnbaum_lower_mills(2.0) == pytest.approx(BIRNBAUM_AT_2, abs=1e-15)
    with pytest.raises(ValueError):
        normal.birnbaum_lower_mills(-0.5)


def test_mills_bracketing_grid():
    xs = np.linspace(1e-3, 8.0, 1000)
    # Phi(-x), not 1 - Phi(x): the subtraction cancels catastrophically by x ~ 8
    tail = normal.std_normal_cdf(-xs)
    assert np.all(normal.birnbaum_lower_mills(xs) < tail)
    assert np.all(tail < normal.gordon_upper_mills(xs))


def test_gamma_beta():
    assert normal.log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)
    assert normal.log_beta(1.0, 1.0) == pytest.approx(0.0, abs=1e-14)
    assert normal.log_beta(2.0, 1.0 / 3.0) == pytest.approx(math.log(BETA_2_THIRD), rel=1e-12)
    with pytest.raises(ValueError):
        normal.log_gamma(0.0)
    with pytest.raises(ValueError):
        normal.log_beta(-1.0, 2.0)


@given(st.floats(min_value=-8.0, max_value=8.0))
@settings(max_examples=300)
def test_cdf_symmetry(x):
    assert abs(normal.std_normal_cdf(x) + normal.std_normal_cdf(-x) - 1.0) <= 1e-14


@given(st.floats(min_value=-6.0, max_value=6.0))
@settings(max_examples=300)
def test_round_trip_log_domain(x):
    assert normal.std_normal_quantile_from_log(
        normal.log_std_normal_cdf(x)
    ) == pytest.approx(x, abs=1e-10)


@given(st.floats(min_value=-6.0, max_value=5.0))
@settings(max_examples=300)
def test_round_trip_float_domain(x):
    # above x ~ 5.2 the spacing of doubles near p = 1 caps the achievable
    # accuracy at eps/(2 phi(x)) > 1e-10; the log-domain pair covers that range
    assert normal.std_normal_quantile(normal.std_normal_cdf(x)) == pytest.approx(
        x, abs=1e-10
    )


def test_quantile_from_log_domain_errors():
    for bad in (0.0, 0.5, math.nan, -math.inf):
        with pytest.raises(ValueError):
            normal.std_normal_quantile_from_log(bad)


def test_accuracy_against_mpmath_grid():
    import mpmath as mp

    mp.mp.dps = 40
    for x in np.linspace(-8.0, 8.0, 81):
        exact = float(mp.ncdf(float(x)))
        assert abs(normal.std_normal_cdf(float(x)) - exact) <= 1e-15


def test_phi_lin_inequality():
    us = np.linspace(1e-9, 1.0 - 1e-9, 1000)
    profile = normal.pdf_of_quantile(us)
    linear = np.minimum(us, 1.0 - us) * math.sqrt(2.0 / math.pi)
    assert np.all(profile >= linear - 1e-12)
    # equality in the limits: at u -> 0 and at u = 1/2
    assert normal.pdf_of_quantile(0.5) == pytest.approx(math.sqrt(2 / math.pi) * 0.5, rel=1e-14)
    assert normal.pdf_of_quantile(0.0) == 0.0
    assert normal.pdf_of_quantile(1.0) == 0.0


def test_profile_concavity():
    us = np.linspace(1e-6, 1.0 - 1e-6, 2001)
    profile = normal.pdf_of_quantile(us)
    mid = 0.5 * (profile[:-2] + profile[2:])
    assert np.all(profile[1:-1] >= mid - 1e-12)


@pytest.mark.parametrize("s", [0.2, 0.4, 0.6, 0.8, 1.5, 2.0, 4.0, 10.0])
@pytest.mark.parametrize("n", [1, 2, 5, 20, 100, 1000])
def test_beta_asymptotic_sandwich(s, n):
    # n^(1/s) B(n+1, 1/s) increases from B(2, 1/s) at n = 1 to Gamma(1/s), so
    #   n^(-1/s) B(2, 1/s) <= B(n+1, 1/s) <= n^(-1/s) Gamma(1/s)
    # for every s > 0 and n >= 1 (verified against mpmath out to n = 1e6)
    lhs = normal.log_beta(n + 1.0, 1.0 / s)
    upper = -math.log(n) / s + normal.log_gamma(1.0 / s)
    lower = -math.log(n) / s + normal.log_beta(2.0, 1.0 / s)
    assert lower - 1e-12 <= lhs <= upper + 1e-12


@pytest.mark.parametrize("s", [0.3, 2.0, 6.0])
def test_beta_ratio_monotone(s):
    ns = np.arange(1.0, 400.0)
    scaled = np.array(
        [normal.log_beta(n + 1.0, 1.0 / s) + math.log(n) / s for n in ns]
    )
    assert np.all(np.diff(scaled) >= -1e-12)
    assert scaled[-1] <= normal.log_gamma(1.0 / s) + 1e-12
