"""Orthant probabilities f(n, rho) for equicorrelated normal vectors.

Four routes to f(n, rho) = P(X_1 > 0, ..., X_n > 0):

* closed forms for n <= 3 and for rho in {0, 1/2};
* the one-dimensional identity f(n, rho) = E[Phi^n(Z sqrt(s))],
  s = rho/(1-rho), evaluated in the log domain by a trapezoid rule centred
  at the integrand's peak;
* the density-transform integral
  f(n, rho) = (sqrt(2 pi))^(1/s - 1) / sqrt(s) *
              int_0^1 x^n [phi(Phi^{-1}(x))]^(1/s - 1) dx,
  evaluated in the log domain by a tanh-sinh trapezoid rule on tabulated nodes;
* Monte Carlo over common-factor draws.

Plus the four two-sided rate bounds with fully explicit proof-level
constants, all of the form  f(n, rho) ~ n^(1 - 1/rho) x constant(rho)
up to log(n) factors.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import erfcx, log_ndtr, ndtri_exp

from . import normal
from .equicorrelated import (
    CHUNK_SIZE,
    EquicorrelatedSpec,
    _chunk_sizes,
    _map_ordered,
    check_domain,
    hit_rate,
    sample_blocks,
)

LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# Steck's trapezoid step halves at most this often from the peak's sigma.
# Near rho = 1 the integrand's left flank narrows like 1/sqrt(s); 12
# halvings resolve it up to rho = 0.99999 for 60 n from 2 to 1e8.
STECK_HALVINGS = 12
DENSITY_HALVINGS = 12  # the density rule halves its step from 0.5 down to 0.5/4096


@dataclass(frozen=True)
class OrthantEstimate:
    """A value of f(n, rho) with its provenance.

    std_error is zero exactly for the deterministic methods.  count is the
    node count of the final grid of Steck's rule or the density rule, or
    the Monte Carlo trial count; it is 0 for closed forms.
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


def _steck_log_f(n: int, rho: float) -> tuple[float, int]:
    """log f(n, rho) by Steck's identity, and the node count of the final grid.

    The trapezoid rule in z on exp(L), L(z) = n log Phi(z sqrt(s)) - z^2/2,
    centred at the Newton peak and spanning where L lies within 60 of it.
    exp(L) is analytic, so the rule converges geometrically in its step
    (Trefethen & Weideman, SIAM Review 56(3), 2014).  The step starts at the
    peak's sigma and halves, adding only the new midpoints, until log f moves
    less than 1e-13 relative.
    """
    sqrt_s = math.sqrt(rho / (1.0 - rho))
    center, sigma = _steck_log_peak(n, sqrt_s)

    def log_integrand(z):
        return n * log_ndtr(z * sqrt_s) - 0.5 * z * z

    peak = log_integrand(center)

    def shifted_sum(start, step, count):
        # the Newton peak is the shift: no term overflows, and no max search
        terms = log_integrand(start + step * np.arange(count)) - peak
        return np.exp(terms, out=terms).sum()

    ends = []
    # L is concave, so the first multiple that falls 60 below the peak bounds
    # it; the right tail decays no faster than exp(-z^2/2), whatever sigma is
    for unit in (-sigma, max(sigma, 1.0)):
        for multiple in (8.0, 16.0, 32.0, 64.0):
            if log_integrand(center + multiple * unit) <= peak - 60.0:
                ends.append(center + multiple * unit)
                break
        else:
            raise ArithmeticError(
                f"steck integrand stays within 60 of its peak over 64 x {abs(unit)} "
                f"at (n={n}, rho={rho})"
            )
    lo, hi = ends
    intervals = math.ceil((hi - lo) / sigma)
    step = (hi - lo) / intervals
    total = shifted_sum(lo, step, intervals + 1)
    log_f = peak + math.log(step * total) - LOG_SQRT_2PI
    for _ in range(STECK_HALVINGS):
        total += shifted_sum(lo + 0.5 * step, step, intervals)
        step, intervals = 0.5 * step, 2 * intervals
        previous, log_f = log_f, peak + math.log(step * total) - LOG_SQRT_2PI
        if abs(log_f - previous) < 1e-13 * max(1.0, abs(log_f)):
            return log_f, intervals + 1
    raise ArithmeticError(
        f"steck trapezoid rule did not converge in {STECK_HALVINGS} halvings "
        f"at (n={n}, rho={rho})"
    )


def steck_quadrature(n: int, rho: float) -> OrthantEstimate:
    """E[Phi^n(Z sqrt(s))], s = rho/(1-rho), by a trapezoid rule around its peak.

    count is the rule's final node count; a value below the smallest double raises.
    """
    check_domain(n, rho)
    if not (0.0 < rho < 1.0):
        raise ValueError("steck identity requires 0 < rho < 1")
    log_f, nodes = _steck_log_f(n, rho)
    value = math.exp(log_f)
    if value == 0.0:
        raise ArithmeticError(f"steck quadrature underflowed to 0 at (n={n}, rho={rho})")
    return OrthantEstimate(value=value, std_error=0.0, method="steck_quadrature", count=nodes)


@functools.cache
def _density_table(level: int) -> tuple:
    """(log x, M, m, R) at the nodes t in [-16, 16] that lattice level `level` adds.

    Level 0 holds the multiples of 0.5, level k the odd multiples of 0.5/2^k.
    With x = expit(pi sinh t) and u = min(x, 1-x): m = log u, M = log(phi(q)/u)
    for q = Phi^{-1}(u), taken as log(sqrt(2/pi)/erfcx(-q/sqrt 2)) so that no
    large terms cancel, and R = log max(x, 1-x) + log(pi cosh t).
    """
    first, stride = (1, 2) if level else (0, 1)
    t = np.arange(first, 64 * 2**level + 1, stride) * (0.5 / 2**level) - 16.0
    logit = np.pi * np.abs(np.sinh(t))
    log_max = -np.log1p(np.exp(-logit))
    log_min = log_max - logit
    # one Newton step on log_ndtr(q) = m: ndtri_exp is up to 5e-13 off below m = -1e4
    q = ndtri_exp(log_min)
    q -= (log_ndtr(q) - log_min) * erfcx(-q / math.sqrt(2.0)) * math.sqrt(0.5 * math.pi)
    log_ratio = 0.5 * math.log(2.0 / math.pi) - np.log(erfcx(-q / math.sqrt(2.0)))
    table = np.stack([np.where(t < 0.0, log_min, log_max), log_ratio, log_min,
                      log_max + np.log(np.pi * np.cosh(t))])
    table.flags.writeable = False  # the cache hands these rows to every call
    return tuple(table)


def _density_log_f(n: int, rho: float) -> tuple[float, int]:
    """log f(n, rho) by the density-transform identity, and the final node count.

    The trapezoid rule in t after x = expit(pi sinh t), the double-exponential
    substitution of Takahasi & Mori (Publ. RIMS 9, 1974).  The log integrand
    n log x + e M + m/s + R, e = 1/s - 1, is linear over _density_table's
    columns.  The span ends 60 below the level-0 peak; the step halves from 0.5
    until log f moves less than 1e-13 relative.  Kept apart from _steck_log_f,
    so that the two routes check each other.
    """
    s = rho / (1.0 - rho)
    e, inv_s = 1.0 / s - 1.0, 1.0 / s
    log_pref = e * LOG_SQRT_2PI - 0.5 * math.log(s)  # log of (sqrt(2 pi))^e / sqrt(s)

    def log_integrand(level, start, stop):
        log_x, log_ratio, log_min, rest = _density_table(level)
        return (n * log_x[start:stop] + e * log_ratio[start:stop]
                + inv_s * log_min[start:stop] + rest[start:stop])

    values = log_integrand(0, 0, None)
    shift = float(values.max())
    if not math.isfinite(shift):
        return log_pref + shift, values.size  # density_integral raises on it
    inside = np.flatnonzero(values >= shift - 60.0)
    lo, hi = int(inside[0]) - 1, int(inside[-1]) + 1
    if lo < 0 or hi >= values.size:
        raise ArithmeticError(f"density integrand stays within 60 of its peak at "
                              f"|t| = 16 at (n={n}, rho={rho})")
    step, nodes = 0.5, hi - lo + 1
    total = float(np.exp(values[lo:hi + 1] - shift).sum())
    log_f = log_pref + shift + math.log(step * total)
    for level in range(1, DENSITY_HALVINGS + 1):
        # the odd multiples of the new step strictly between the span's ends
        width = 2 ** (level - 1)
        values = log_integrand(level, width * lo, width * hi)
        top = float(values.max())
        if top > shift:
            total *= math.exp(shift - top)
            shift = top
        total += float(np.exp(values - shift).sum())
        step, nodes = 0.5 * step, nodes + values.size
        previous, log_f = log_f, log_pref + shift + math.log(step * total)
        if abs(log_f - previous) < 1e-13 * max(1.0, abs(log_f)):
            return log_f, nodes
    raise ArithmeticError(f"density trapezoid rule did not converge in "
                          f"{DENSITY_HALVINGS} halvings at (n={n}, rho={rho})")


def density_integral(n: int, rho: float) -> OrthantEstimate:
    """The [0,1] density-transform integral by a tanh-sinh trapezoid rule.

    count is the rule's final node count; a non-finite value, one above 1, or 0 raises.
    """
    check_domain(n, rho)
    if not (0.0 < rho < 1.0):
        raise ValueError("density integral requires 0 < rho < 1")
    log_f, nodes = _density_log_f(n, rho)
    if not log_f <= 0.0:
        raise ArithmeticError(f"density integral gave exp({log_f!r}), outside [0, 1], "
                              f"at (n={n}, rho={rho})")
    value = math.exp(log_f)
    if value == 0.0:
        raise ArithmeticError(f"density integral underflowed to 0 at (n={n}, rho={rho})")
    return OrthantEstimate(value=value, std_error=0.0, method="density_integral", count=nodes)


def monte_carlo(
    n: int, rho: float, trials: int, seed: int, threads: int = 1
) -> OrthantEstimate:
    """Fraction of common-factor draws with all coordinates positive.

    Chunked and deterministic per (seed, chunk index); the thread count never
    changes the result, only how chunks are scheduled.  Each chunk is drawn
    and counted in row blocks, so a run stays within the memory budget at
    any n.
    """
    spec = EquicorrelatedSpec(n=n, rho=rho)
    if rho < 0.0:
        raise ValueError("monte_carlo requires rho >= 0 (sampler constraint)")
    sizes = _chunk_sizes(trials, CHUNK_SIZE)

    def count_hits(chunk):
        return sum(
            int(np.count_nonzero(np.all(draws > 0.0, axis=1)))
            for draws in sample_blocks(spec, chunk, sizes[chunk], seed)
        )

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
