"""Special-function layer: values frozen from an mpmath oracle."""

import math

import mpmath as mp
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


@pytest.mark.parametrize("x", [1e200, math.inf])
def test_density_and_mills_zero_where_square_overflows(x):
    # x^2 overflows past |x| = 1.3e154; the value is 0, with no overflow
    # warning (which the suite's error::RuntimeWarning filter would raise)
    for fn in (normal.std_normal_pdf, normal.gordon_upper_mills, normal.birnbaum_lower_mills):
        assert fn(x) == 0.0
        assert np.array_equal(fn(np.array([x, 1.0])), [0.0, fn(1.0)])
    assert normal.std_normal_pdf(-x) == 0.0


def log_beta(a, b):
    # the package's log B(a, b), on math.lgamma
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def test_gamma_beta():
    assert math.lgamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)
    assert log_beta(1.0, 1.0) == pytest.approx(0.0, abs=1e-14)
    assert log_beta(2.0, 1.0 / 3.0) == pytest.approx(math.log(BETA_2_THIRD), rel=1e-12)
    with pytest.raises(ValueError):
        math.lgamma(0.0)
    with pytest.raises(ValueError):
        log_beta(-1.0, 2.0)


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
    lhs = log_beta(n + 1.0, 1.0 / s)
    upper = -math.log(n) / s + math.lgamma(1.0 / s)
    lower = -math.log(n) / s + log_beta(2.0, 1.0 / s)
    assert lower - 1e-12 <= lhs <= upper + 1e-12


@pytest.mark.parametrize("s", [0.3, 2.0, 6.0])
def test_beta_ratio_monotone(s):
    ns = np.arange(1.0, 400.0)
    scaled = np.array(
        [log_beta(n + 1.0, 1.0 / s) + math.log(n) / s for n in ns]
    )
    assert np.all(np.diff(scaled) >= -1e-12)
    assert scaled[-1] <= math.lgamma(1.0 / s) + 1e-12


class TestAgainstMpmath:
    """erfcx, log Phi (scalar and array forms) and ndtri_exp (array form)
    against 40-digit mpmath, in ulp of the reference, over the ranges the package
    reaches: the Steck lattice's x and the density table's log-probabilities
    down to -1.40e7 (|t| = 16), whose quantiles put erfcx's argument near 3.7e3.
    """

    ERFCX_ULP = 4
    LOG_NDTR_ULP = 8
    PDF_CDF_RATIO_ULP = 8
    NDTRI_EXP_ULP = 8
    # where q is near 0 its relative error is ill-conditioned; there the
    # bound is absolute
    NDTRI_EXP_ABS = 1e-15

    @staticmethod
    def ulps(value, reference):
        return float(abs(mp.mpf(float(value)) - reference) / math.ulp(float(reference)))

    @staticmethod
    def log_ndtr_ref(x):
        x = mp.mpf(x)
        return mp.log(mp.ncdf(x)) if x <= 0 else mp.log1p(-mp.ncdf(-x))

    @classmethod
    def ndtri_exp_ref(cls, y, start):
        return mp.findroot(lambda q: cls.log_ndtr_ref(q) - mp.mpf(y), mp.mpf(start))

    def test_erfcx(self):
        mp.mp.dps = 40
        rng = np.random.default_rng(7)
        ts = np.concatenate([[0.0, 1e-9, 0.5, 9.999999999999998, 10.0, 4e3],
                             rng.uniform(0.0, 10.0, 300), rng.uniform(10.0, 40.0, 100),
                             np.exp(rng.uniform(math.log(40.0), math.log(4e3), 100))])
        array = normal.erfcx_array(ts)
        worst = 0.0
        for t, from_array in zip(ts.tolist(), array.tolist()):
            ref = mp.exp(mp.mpf(t) ** 2) * mp.erfc(mp.mpf(t))
            worst = max(worst, self.ulps(normal.erfcx(t), ref), self.ulps(from_array, ref))
        assert worst <= self.ERFCX_ULP

    def test_pdf_cdf_ratio(self):
        # above 0, exp(-x^2/2) takes fl(x^2)'s rounding, up to x^2/2 ulp more
        mp.mp.dps = 40
        rng = np.random.default_rng(10)
        xs = np.concatenate([[-1e6, -70.0, -14.2, -14.1, -1e-300, 0.0, 1e-300, 14.1, 37.0],
                             rng.uniform(-70.0, 37.0, 300), rng.uniform(-3.0, 3.0, 100)])
        for x in xs.tolist():
            ref = mp.npdf(x) / mp.ncdf(x)
            bound = self.PDF_CDF_RATIO_ULP + (0.5 * x * x if x > 0.0 else 0.0)
            assert self.ulps(normal.pdf_cdf_ratio(x), ref) <= bound, x

    def test_log_ndtr(self):
        mp.mp.dps = 40
        rng = np.random.default_rng(8)
        xs = np.concatenate([[-70.0, -14.2, -14.1, -1e-300, 0.0, 1e-300, 14.1, 37.6, 40.0],
                             rng.uniform(-70.0, 40.0, 400), rng.uniform(-3.0, 3.0, 200)])
        array = normal.log_ndtr_array(xs)
        worst = 0.0
        for x, from_array in zip(xs.tolist(), array.tolist()):
            ref = self.log_ndtr_ref(x)
            worst = max(worst, self.ulps(normal.log_ndtr(x), ref), self.ulps(from_array, ref))
        assert worst <= self.LOG_NDTR_ULP

    def test_ndtri_exp(self):
        mp.mp.dps = 40
        rng = np.random.default_rng(9)
        ys = np.concatenate([[-1.4e7, -2.0, -1.0, -0.1, -1e-300],
                             -np.exp(rng.uniform(0.0, math.log(1.4e7), 150)),
                             -np.exp(rng.uniform(math.log(1e-300), math.log(0.1), 50)),
                             rng.uniform(-1.0, -0.1, 50)])
        array = normal.ndtri_exp_array(ys)
        worst_ulp = worst_abs = 0.0
        for y, from_array in zip(ys.tolist(), array.tolist()):
            ref = self.ndtri_exp_ref(y, from_array)
            if -1.0 < y < -0.1:
                worst_abs = max(worst_abs, float(abs(from_array - ref)))
            else:
                worst_ulp = max(worst_ulp, self.ulps(from_array, ref))
        assert worst_ulp <= self.NDTRI_EXP_ULP
        assert worst_abs <= self.NDTRI_EXP_ABS

    def test_median_and_infinities(self):
        assert normal.ndtri_exp_array(np.array([math.log(0.5)]))[0] == 0.0
        assert normal.log_ndtr_array(np.array([-math.inf, math.inf])).tolist() == [-math.inf, 0.0]
        assert normal.log_ndtr(-math.inf) == -math.inf
        assert normal.log_ndtr(math.inf) == 0.0
        assert normal.erfcx_array(np.array([math.inf]))[0] == 0.0
        assert normal.erfcx(math.inf) == 0.0


def test_public_shape_contract():
    # a float (0-d array included) gives a float, an array an array of its
    # shape; the cdf pair takes +-inf, and the quantile's median is exact
    for fn in (normal.std_normal_pdf, normal.std_normal_cdf, normal.log_std_normal_cdf,
               normal.std_normal_quantile, normal.std_normal_quantile_from_log,
               normal.gordon_upper_mills, normal.birnbaum_lower_mills, normal.pdf_of_quantile):
        grid = np.array([[0.2, 0.3, 0.4], [0.5, 0.6, 0.7]])
        if fn is normal.std_normal_quantile_from_log:
            grid = np.log(grid)
        x = float(grid[0, 1])
        assert type(fn(x)) is float and type(fn(np.array(x))) is float, fn.__name__
        out = fn(grid)
        assert isinstance(out, np.ndarray) and out.shape == (2, 3), fn.__name__
        assert out[0, 1] == fn(x), fn.__name__
    infinities = np.array([-math.inf, math.inf])
    assert normal.std_normal_cdf(infinities).tolist() == [0.0, 1.0]
    assert normal.log_std_normal_cdf(infinities).tolist() == [-math.inf, 0.0]
    assert normal.log_std_normal_cdf(-1e200) == -math.inf  # x^2 overflows, silently
    assert normal.log_std_normal_cdf(-math.inf) == -math.inf
    assert normal.log_std_normal_cdf(math.inf) == 0.0
    assert normal.std_normal_quantile(0.5) == 0.0
