"""Scalar special functions for the standard normal distribution.

The package's one import of scipy.special.  The functions here are a thin,
strictly-validated layer over it; they accept floats or numpy arrays and
are pure, so they are safe for concurrent use.  The quadrature hot paths in
`orthant` take the raw ufuncs `log_ndtr`, `erfcx` and `ndtri_exp` from here
instead, so no validation runs per node.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sp
from scipy.special import erfcx, log_ndtr, ndtri_exp  # raw ufuncs, for orthant

SQRT_2PI = np.sqrt(2.0 * np.pi)
INV_SQRT_2PI = 1.0 / SQRT_2PI


def std_normal_pdf(x):
    """Density of N(0,1): (2*pi)^(-1/2) exp(-x^2/2)."""
    x = np.asarray(x, dtype=float)
    out = INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return float(out) if out.ndim == 0 else out


def std_normal_cdf(x):
    """P(Z <= x) for Z ~ N(0,1)."""
    x = np.asarray(x, dtype=float)
    out = _sp.ndtr(x)
    return float(out) if out.ndim == 0 else out


def log_std_normal_cdf(x):
    """log P(Z <= x), accurate in the deep left tail where the cdf underflows."""
    x = np.asarray(x, dtype=float)
    out = _sp.log_ndtr(x)
    return float(out) if out.ndim == 0 else out


def std_normal_quantile(p):
    """Inverse of std_normal_cdf on (0,1).

    Raises ValueError outside the open interval; the boundary values have no
    finite preimage.
    """
    p = np.asarray(p, dtype=float)
    if np.any(~np.isfinite(p)) or np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValueError("quantile requires 0 < p < 1")
    out = _sp.ndtri(p)
    return float(out) if out.ndim == 0 else out


def std_normal_quantile_from_log(log_p):
    """Inverse of log_std_normal_cdf for log-probabilities in (-inf, 0).

    Keeping the probability in log form preserves relative accuracy in both
    tails, so this round-trips with log_std_normal_cdf to ~1e-15 across
    |x| <= 6 where the plain float representation of p near 1 cannot.
    """
    log_p = np.asarray(log_p, dtype=float)
    if np.any(np.isnan(log_p)) or np.any(log_p >= 0.0) or np.any(np.isinf(log_p)):
        raise ValueError("quantile requires a finite log-probability < 0")
    out = _sp.ndtri_exp(log_p)
    return float(out) if out.ndim == 0 else out


def gordon_upper_mills(x):
    """Gordon's tail bound phi(x)/x, strictly above 1 - Phi(x) for x > 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("gordon_upper_mills requires x > 0")
    out = std_normal_pdf(x) / x
    return float(out) if np.ndim(out) == 0 else out


def birnbaum_lower_mills(x):
    """Birnbaum's tail bound 2*phi(x)/(sqrt(4+x^2)+x), strictly below 1 - Phi(x)."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("birnbaum_lower_mills requires x >= 0")
    out = 2.0 * std_normal_pdf(x) / (np.sqrt(4.0 + x * x) + x)
    return float(out) if np.ndim(out) == 0 else out


def log_gamma(x):
    """log Gamma(x) for x > 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("log_gamma requires x > 0")
    out = _sp.gammaln(x)
    return float(out) if out.ndim == 0 else out


def log_beta(a, b):
    """log B(a,b) for a, b > 0, computed entirely in the log domain."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(a <= 0.0) or np.any(b <= 0.0):
        raise ValueError("log_beta requires a > 0 and b > 0")
    out = _sp.gammaln(a) + _sp.gammaln(b) - _sp.gammaln(a + b)
    return float(out) if out.ndim == 0 else out


def pdf_of_quantile(u):
    """phi(Phi^{-1}(u)) on (0,1), extended by continuity to 0 at the endpoints.

    This is the concave "Gaussian isoperimetric" profile; it dominates
    min(u, 1-u) * sqrt(2/pi).
    """
    u = np.asarray(u, dtype=float)
    if np.any(u < 0.0) or np.any(u > 1.0):
        raise ValueError("pdf_of_quantile requires u in [0, 1]")
    inner = np.clip(u, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
    out = np.where((u <= 0.0) | (u >= 1.0), 0.0,
                   std_normal_pdf(_sp.ndtri(inner)))
    return float(out) if out.ndim == 0 else out
