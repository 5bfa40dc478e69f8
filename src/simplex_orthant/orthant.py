"""Orthant probabilities f(n, rho) for equicorrelated normal vectors.

Four routes to f(n, rho) = P(X_1 > 0, ..., X_n > 0):

* closed forms for n <= 3 and for rho in {0, 1/2};
* the one-dimensional identity f(n, rho) = E[Phi^n(Z sqrt(s))],
  s = rho/(1-rho), evaluated by recentred Gauss-Hermite quadrature;
* the density-transform integral
  f(n, rho) = (sqrt(2 pi))^(1/s - 1) / sqrt(s) *
              int_0^1 x^n [phi(Phi^{-1}(x))]^(1/s - 1) dx,
  evaluated by endpoint-aware adaptive quadrature;
* Monte Carlo over common-factor draws.

Plus the four two-sided rate bounds with fully explicit proof-level
constants, all of the form  f(n, rho) ~ n^(1 - 1/rho) x constant(rho)
up to log(n) factors.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.special import log_ndtr, roots_hermite
from scipy.special.cython_special import ndtri, ndtri_exp

from . import normal
from .equicorrelated import (
    CHUNK_SIZE,
    EquicorrelatedSpec,
    _chunk_sizes,
    _map_ordered,
    check_domain,
    hit_rate,
    sample_chunk,
)

LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# Steck doubles its Gauss-Hermite rule from STECK_NODES nodes at most
# STECK_DOUBLINGS times (200 -> 6400) until two successive values agree to
# STECK_REL_TOL.  Past 6400 nodes that agreement stops meaning accuracy: at
# 12800 nodes (1e8, 0.995) stops 4.0e-10 off the true value, at 51200
# (1e8, 0.999) stops 5.6e-9 off, so such points raise instead.
STECK_NODES = 200
STECK_DOUBLINGS = 5
STECK_REL_TOL = 1e-10
# density_integral asks quad for a hundredth of Steck's tolerance
DENSITY_EPSREL = 1e-12


class _DeferredIntegrate:
    """Stands in for `scipy.integrate` until `density_integral` first calls quad.

    Importing scipy.integrate (with the scipy.optimize and scipy.sparse.linalg
    it loads) is about a third of a fresh process's import, and only the
    density route needs it.  A plain import statement takes the import lock,
    so threads that make the first call together each get the full module.
    """

    @staticmethod
    def quad(*args, **kwargs):
        from scipy import integrate

        return integrate.quad(*args, **kwargs)


# module attribute so that callers may substitute quad (tests, perfbench)
integrate = _DeferredIntegrate()


@dataclass(frozen=True)
class OrthantEstimate:
    """A value of f(n, rho) with its provenance.

    std_error is zero exactly for the deterministic methods.  count is the
    node count Steck quadrature converged at, or the Monte Carlo trial count;
    for density_integral it is STECK_NODES, which adaptive quad never reads.
    """

    value: float
    std_error: float
    method: str
    count: int

    def __post_init__(self):
        if not (0.0 <= self.value <= 1.0):
            raise ValueError("orthant probability must lie in [0, 1]")
        if self.std_error < 0.0:
            raise ValueError("std_error must be nonnegative")


@dataclass(frozen=True)
class BoundReport:
    """All four rate bounds at one (n, rho), with applicability flags.

    scale is n^(1 - 1/rho), the common normalization of the bounds.  The
    low-rho upper bound only holds past an unspecified threshold n0(rho) and
    is therefore flagged asymptotic: it is reported but never asserted.
    """

    n: int
    rho: float
    scale: float
    lower: Optional[float]
    upper: Optional[float]
    lower_applicable: bool
    upper_applicable: bool
    upper_asymptotic: bool

    def contains(self, value: float) -> Optional[bool]:
        """Whether value lies within the certified bounds; None if none applies.

        The asymptotic low-rho upper bound is never checked.
        """
        if not (self.lower_applicable or self.upper_applicable):
            return None
        return (not self.lower_applicable or self.lower <= value) and (
            not self.upper_applicable or value <= self.upper
        )


def closed_form(n: int, rho: float) -> Optional[OrthantEstimate]:
    """Exact f(n, rho) where a closed form exists, else None.

    Covered: n = 1; independence rho = 0; rho = 1/2 (f = 1/(n+1));
    Sheppard's n = 2 arcsine formula; David's n = 3 formula at equal rho.
    """
    check_domain(n, rho)
    if n == 1:
        value = 0.5
    elif rho == 0.0:
        value = 0.5**n
    elif rho == 0.5:
        value = 1.0 / (n + 1)
    elif n == 2:
        value = 0.25 + math.asin(rho) / (2.0 * math.pi)
    elif n == 3:
        value = trivariate_closed_form(rho, rho, rho)
    else:
        return None
    return OrthantEstimate(value=value, std_error=0.0, method="closed_form", count=0)


def trivariate_closed_form(rho12: float, rho13: float, rho23: float) -> float:
    """David's formula 1/8 + (arcsin r12 + arcsin r13 + arcsin r23)/(4 pi)."""
    corr = np.array(
        [[1.0, rho12, rho13], [rho12, 1.0, rho23], [rho13, rho23, 1.0]]
    )
    if np.linalg.eigvalsh(corr)[0] < -1e-12:
        raise ValueError("correlation matrix is not positive semidefinite")
    return 0.125 + (
        math.asin(rho12) + math.asin(rho13) + math.asin(rho23)
    ) / (4.0 * math.pi)


@lru_cache(maxsize=16)
def _hermite_rule(nodes: int):
    t, w = roots_hermite(nodes)
    with np.errstate(divide="ignore"):
        # far-tail weights underflow to 0; -inf log-weights drop out cleanly
        return t, np.log(w)


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) for a 1-d float array, bit for bit as scipy's logsumexp.

    Same algorithm as scipy 1.17 without its array-API dispatch: the peak
    entries are masked to -inf in place, not dropped, so numpy sums in the
    same pairwise order.
    """
    peak = a.max()
    if not math.isfinite(peak):
        # all -inf gives -inf; +inf and nan pass through, as in scipy
        return peak
    m = np.count_nonzero(a == peak)
    total = np.exp(np.where(a == peak, -np.inf, a) - peak).sum() / m
    return np.log1p(total) + np.log(m) + peak


def _steck_log_peak(n: int, sqrt_s: float):
    """Maximizer and curvature of L(z) = n log Phi(z sqrt(s)) - z^2/2."""
    s = sqrt_s * sqrt_s
    z = 0.0
    for _ in range(200):
        # r = phi/Phi at z*sqrt(s); L' = n sqrt(s) r - z
        r = math.exp(-0.5 * (z * sqrt_s) ** 2 - LOG_SQRT_2PI - log_ndtr(z * sqrt_s))
        grad = n * sqrt_s * r - z
        h = n * s * (-z * sqrt_s * r - r * r) - 1.0
        step = grad / h
        z_new = z - step
        if abs(z_new - z) <= 1e-13 * max(1.0, abs(z)):
            z = z_new
            break
        z = z_new
    else:
        raise ArithmeticError(
            f"steck peak search did not converge in 200 Newton steps "
            f"at (n={n}, sqrt_s={sqrt_s}); last z={z}"
        )
    return z, 1.0 / math.sqrt(-h)


def _steck_fixed_nodes(n: int, rho: float, nodes: int, center: float, sigma: float) -> float:
    """The recentred rule with a given node count, around the peak (center, sigma)."""
    sqrt_s = math.sqrt(rho / (1.0 - rho))
    t, log_w = _hermite_rule(nodes)
    z = center + math.sqrt(2.0) * sigma * t
    log_terms = n * log_ndtr(z * sqrt_s) - 0.5 * z * z + t * t + log_w
    return math.sqrt(2.0) * sigma * math.exp(_logsumexp(log_terms) - LOG_SQRT_2PI)


def steck_quadrature(n: int, rho: float) -> OrthantEstimate:
    """E[Phi^n(Z sqrt(s))] by Gauss-Hermite quadrature recentred at the peak.

    For large n the integrand mass leaves the span of fixed nodes, so the
    rule is centred at the maximizer of n log Phi(z sqrt(s)) - z^2/2 and
    scaled by the local curvature.  Nodes are doubled until two successive
    values agree to STECK_REL_TOL.
    """
    check_domain(n, rho)
    if not (0.0 < rho < 1.0):
        raise ValueError("steck identity requires 0 < rho < 1")
    peak = _steck_log_peak(n, math.sqrt(rho / (1.0 - rho)))
    nodes = STECK_NODES
    value = _steck_fixed_nodes(n, rho, nodes, *peak)
    for _ in range(STECK_DOUBLINGS):
        nodes *= 2
        refined = _steck_fixed_nodes(n, rho, nodes, *peak)
        if abs(refined - value) <= STECK_REL_TOL * max(abs(refined), 1e-300):
            if refined == 0.0:
                raise ArithmeticError(
                    f"steck quadrature underflowed to 0 at (n={n}, rho={rho})"
                )
            return OrthantEstimate(
                value=refined, std_error=0.0, method="steck_quadrature", count=nodes
            )
        value = refined
    raise ArithmeticError(
        f"steck quadrature failed to converge to rel_tol={STECK_REL_TOL} "
        f"at (n={n}, rho={rho})"
    )


def density_integral(n: int, rho: float) -> OrthantEstimate:
    """The [0,1] density-transform integral, split at 1/2.

    For rho > 1/2 the exponent 1/s - 1 lies in (-1, 0) and the integrand has
    an integrable algebraic singularity at x = 1; the substitution
    1 - x = tau^s absorbs it exactly, leaving a bounded integrand.
    """
    check_domain(n, rho)
    if not (0.0 < rho < 1.0):
        raise ValueError("density integral requires 0 < rho < 1")
    s = rho / (1.0 - rho)
    e = 1.0 / s - 1.0
    # (sqrt(2 pi))^(1/s - 1) / sqrt(s)
    log_pref = e * LOG_SQRT_2PI - 0.5 * math.log(s)
    # quad calls the integrands hundreds of times: bind every name they use
    # locally.  The scalar cython ndtri is the ufunc's kernel without its
    # dispatch.  Each expression keeps its evaluation order, so quad sees the
    # same floats and takes the same adaptive path.
    exp, log, log1p = math.exp, math.log, math.log1p
    log_sqrt_2pi, log_s = LOG_SQRT_2PI, math.log(s)
    smallest_normal = sys.float_info.min

    def integrand_plain(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        q = ndtri(x)
        return exp(n * log(x) + e * (-0.5 * q * q - log_sqrt_2pi))

    lower, _ = integrate.quad(
        integrand_plain, 0.0, 0.5, epsabs=1e-300, epsrel=DENSITY_EPSREL, limit=500
    )
    if s > 1.0:

        def integrand_upper(tau):
            if tau <= 0.0:
                return 0.0
            one_minus_x = tau**s
            s_log_tau = s * log(tau)
            if one_minus_x < smallest_normal:
                # tau^s underflows (rho -> 1, small tau): invert in the log
                q = -ndtri_exp(s_log_tau)
            else:
                q = -ndtri(one_minus_x)
            # log of phi(Phi^{-1}(x)) / (1-x); the (1-x)^e factor cancels
            # against the Jacobian s * tau^(s-1)
            log_ratio = -0.5 * q * q - log_sqrt_2pi - s_log_tau
            return exp(n * log1p(-one_minus_x) + e * log_ratio + log_s)

        upper, _ = integrate.quad(
            integrand_upper, 0.0, 0.5 ** (1.0 / s),
            epsabs=1e-300, epsrel=DENSITY_EPSREL, limit=500,
        )
    else:
        upper, _ = integrate.quad(
            integrand_plain, 0.5, 1.0, epsabs=1e-300, epsrel=DENSITY_EPSREL, limit=500
        )
    value = math.exp(log_pref) * (lower + upper)
    if not math.isfinite(value) or value > 1.0:
        raise ArithmeticError(
            f"density integral gave {value!r}, outside [0, 1], at (n={n}, rho={rho})"
        )
    if value == 0.0:
        raise ArithmeticError(
            f"density integral underflowed to 0 at (n={n}, rho={rho}); "
            "quad found no mass near x = 1"
        )
    return OrthantEstimate(
        value=value, std_error=0.0, method="density_integral", count=STECK_NODES
    )


def monte_carlo(
    n: int, rho: float, trials: int, seed: int, threads: int = 1
) -> OrthantEstimate:
    """Fraction of common-factor draws with all coordinates positive.

    Chunked and deterministic per (seed, chunk index); the thread count never
    changes the result, only how chunks are scheduled.
    """
    spec = EquicorrelatedSpec(n=n, rho=rho)
    if rho < 0.0:
        raise ValueError("monte_carlo requires rho >= 0 (sampler constraint)")
    sizes = _chunk_sizes(trials, CHUNK_SIZE)

    def count_hits(chunk):
        draws = sample_chunk(spec, chunk, sizes[chunk], seed)
        return int(np.count_nonzero(np.all(draws > 0.0, axis=1)))

    p_hat, se = hit_rate(sum(_map_ordered(count_hits, len(sizes), threads)), trials)
    return OrthantEstimate(value=p_hat, std_error=se, method="monte_carlo", count=trials)


def bound_high_rho_lower(n: int, rho: float) -> Optional[float]:
    """Explicit lower bound for f(n, rho), rho > 1/2, n >= 2.

    The Markov/Birnbaum/Gordon chain with every constant kept:
    n^(1-1/rho) * 2/sqrt(2 pi) * (1 - 1/(2 sqrt(4 pi log 2)))^2
    / (sqrt(4 + 2(1/rho-1) log n) + sqrt(2(1/rho-1) log n)).
    """
    check_domain(n, rho)
    if rho <= 0.5 or n < 2:
        return None
    ell = (1.0 / rho - 1.0) * math.log(n)
    const = (1.0 - 1.0 / (2.0 * math.sqrt(4.0 * math.pi * math.log(2.0)))) ** 2
    return (
        n ** (1.0 - 1.0 / rho)
        * (2.0 / math.sqrt(2.0 * math.pi))
        * const
        / (math.sqrt(4.0 + 2.0 * ell) + math.sqrt(2.0 * ell))
    )


def bound_high_rho_upper(n: int, rho: float) -> Optional[float]:
    """Upper bound n^(1-1/rho) 2^(1/rho-2) sqrt((1-rho)/rho) (1 + B(2, 1/rho-1))."""
    check_domain(n, rho)
    if rho <= 0.5 or n < 2:
        return None
    log_b = normal.log_beta(2.0, 1.0 / rho - 1.0)
    return (
        n ** (1.0 - 1.0 / rho)
        * 2.0 ** (1.0 / rho - 2.0)
        * math.sqrt((1.0 - rho) / rho)
        * (1.0 + math.exp(log_b))
    )


def low_rho_gate(n: int, rho: float) -> bool:
    """The growth condition n >= (1/rho - 1) log(n) / log(2)."""
    return n >= (1.0 / rho - 1.0) * math.log(n) / math.log(2.0)


def bound_low_rho_lower(n: int, rho: float) -> Optional[float]:
    """Lower bound n^(1-1/rho) 2^(1/rho-2) sqrt((1-rho)/rho) (Gamma(1/rho-1) - 1).

    Valid only under low_rho_gate; returns None otherwise.  May be negative
    for rho close to 1/2 (Gamma(1/rho-1) < 1), which is still a valid bound.
    """
    check_domain(n, rho)
    if rho >= 0.5 or rho <= 0.0 or not low_rho_gate(n, rho):
        return None
    gamma = math.exp(normal.log_gamma(1.0 / rho - 1.0))
    return (
        n ** (1.0 - 1.0 / rho)
        * 2.0 ** (1.0 / rho - 2.0)
        * math.sqrt((1.0 - rho) / rho)
        * (gamma - 1.0)
    )


def bound_low_rho_upper(n: int, rho: float) -> Optional[float]:
    """Asymptotic upper bound n^(1-1/rho) sqrt((1-rho)/rho) [(1/rho-1) log(n)^2]^(1/rho-2).

    Holds only past an unspecified n0(rho); callers must treat the value as
    a trend envelope, not a certified bound.  Computed in the log domain:
    the bracket raised to 1/rho - 2 overflows quickly for small rho.
    """
    check_domain(n, rho)
    if rho >= 0.5 or rho <= 0.0 or n < 2:
        return None
    log_val = (
        (1.0 - 1.0 / rho) * math.log(n)
        + 0.5 * math.log((1.0 - rho) / rho)
        + (1.0 / rho - 2.0) * math.log((1.0 / rho - 1.0) * math.log(n) ** 2)
    )
    return math.exp(log_val)


def scaled_ratio(n: int, rho: float, f: float) -> float:
    """f / n^(1 - 1/rho), evaluated in the log domain."""
    if not (0.0 < f < 1.0):
        raise ValueError("f must lie in (0, 1)")
    if rho == 0.0:
        raise ValueError("scaled_ratio needs rho != 0: the scale n^(1 - 1/rho) is undefined")
    return math.exp(math.log(f) - (1.0 - 1.0 / rho) * math.log(n))


def theorem_bounds(n: int, rho: float) -> BoundReport:
    """All applicable rate bounds at (n, rho) in one report."""
    check_domain(n, rho)
    lower = upper = None
    if rho > 0.5:
        lower, upper = bound_high_rho_lower(n, rho), bound_high_rho_upper(n, rho)
    elif 0.0 < rho < 0.5:
        lower, upper = bound_low_rho_lower(n, rho), bound_low_rho_upper(n, rho)
    return BoundReport(
        n=n, rho=rho, scale=n ** (1.0 - 1.0 / rho) if rho > 0 else math.nan,
        lower=lower, upper=upper,
        lower_applicable=lower is not None,
        upper_applicable=rho > 0.5 and upper is not None,
        upper_asymptotic=rho < 0.5 and upper is not None,
    )


def best_estimate(n: int, rho: float) -> OrthantEstimate:
    """Closed form when one exists, otherwise Steck quadrature."""
    exact = closed_form(n, rho)
    if exact is not None:
        return exact
    if rho <= 0.0:
        raise ValueError(
            f"no closed form and no integral identity for rho={rho} <= 0"
        )
    return steck_quadrature(n, rho)
