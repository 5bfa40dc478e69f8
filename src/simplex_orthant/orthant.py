"""Orthant probabilities f(n, rho) for equicorrelated normal vectors.

Four routes to f(n, rho) = P(X_1 > 0, ..., X_n > 0):

* closed forms for n <= 3 and for rho in {0, 1/2};
* the one-dimensional identity f(n, rho) = E[Phi^n(Z sqrt(s))],
  s = rho/(1-rho), evaluated in the log domain by a trapezoid rule over the
  integrand's peak, on the points of a lattice in x = z sqrt(s) whose
  log Phi values are cached per level;
* the density-transform integral
  f(n, rho) = (sqrt(2 pi))^(1/s - 1) / sqrt(s) *
              int_0^1 x^n [phi(Phi^{-1}(x))]^(1/s - 1) dx,
  evaluated in the log domain by a tanh-sinh trapezoid rule on a lattice in t;
* Monte Carlo over chain-rule draws, each coordinate given the ones before it.

Plus the four two-sided rate bounds with fully explicit proof-level
constants, all of the form  f(n, rho) ~ n^(1 - 1/rho) x constant(rho)
up to log(n) factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .equicorrelated import (
    CHUNK_SIZE,
    EquicorrelatedSpec,
    _chunk_sizes,
    _map_ordered,
    check_bytes,
    check_domain,
    hit_rate,
    orthant_hits,
)
from .normal import erfcx_array, log_ndtr, log_ndtr_array, ndtri_exp_array, pdf_cdf_ratio

LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# Both trapezoid rules halve their step at most this often: the density rule's
# from 0.5 down to 0.5/4096, Steck's from between sigma/2 and sigma, which resolves
# its left flank, narrowing like 1/sqrt(s), up to rho = 0.99999 for 59 n from 2 to 1e8.
HALVINGS = 12
# the halving each rule's first window reads to (_halvings), set from where
# the rules stop on the benchmark grid (README); no value depends on them
_STECK_BATCH = 2
_DENSITY_BATCH = 6


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
    elif n == 3:  # David's formula; equal rho in check_domain's range is PSD
        value = 0.125 + 3.0 * math.asin(rho) / (4.0 * math.pi)
    else:
        return None
    return OrthantEstimate(value=value, std_error=0.0, method="closed_form", count=0)


def trivariate_closed_form(rho12: float, rho13: float, rho23: float) -> float:
    """David's formula 1/8 + (arcsin r12 + arcsin r13 + arcsin r23)/(4 pi); no route
    calls it, but tests/test_acceptance.py pins it as the independent n = 3 check."""
    corr = np.array(
        [[1.0, rho12, rho13], [rho12, 1.0, rho23], [rho13, rho23, 1.0]]
    )
    if np.linalg.eigvalsh(corr)[0] < -1e-12:
        raise ValueError("correlation matrix is not positive semidefinite")
    return 0.125 + (
        math.asin(rho12) + math.asin(rho13) + math.asin(rho23)
    ) / (4.0 * math.pi)


# the s n past which c = log(s n / sqrt(2 pi)) > 1 in _steck_start
_LARGE_SN = math.e * math.sqrt(2.0 * math.pi)


def _steck_start(n: int, sqrt_s: float) -> float:
    """A z near the root of L'(z) = n sqrt(s) phi/Phi(z sqrt(s)) - z.

    In x = z sqrt(s) the root solves x = s n phi(x)/Phi(x), that is
    log x + x^2/2 + log Phi(x) = c, c = log(s n / sqrt(2 pi)).  Past c = 1
    the start takes three steps x <- sqrt(2 (c - log x)) from x = sqrt(2c),
    leaving out log Phi(x), above -0.103 at the root there.  Below, it is
    the root of the equation linearized at x = 0, where phi/Phi is
    sqrt(2/pi) - 2x/pi.
    """
    sn = sqrt_s * sqrt_s * n
    if sn <= _LARGE_SN:
        return sn * math.sqrt(2.0 / math.pi) / (1.0 + 2.0 / math.pi * sn) / sqrt_s
    c = math.log(sn) - LOG_SQRT_2PI
    x = math.sqrt(2.0 * c)
    for _ in range(3):
        x = math.sqrt(2.0 * (c - math.log(x)))
    return x / sqrt_s


def _steck_log_peak(n: int, sqrt_s: float):
    """Maximizer and curvature of L(z) = n log Phi(z sqrt(s)) - z^2/2.

    Newton's method on L' from _steck_start.  L' is convex and decreasing,
    so it converges from any start; from _steck_start it takes at most 5
    steps on the benchmark grid (3.6 on average, against 10.9 from z = 0).
    """
    s = sqrt_s * sqrt_s
    z = _steck_start(n, sqrt_s)
    for _ in range(200):
        # r = phi/Phi at x = z sqrt(s); L' = n sqrt(s) r - z
        x = z * sqrt_s
        r = pdf_cdf_ratio(x)
        grad = n * sqrt_s * r - z
        h = n * s * (-x * r - r * r) - 1.0
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


# (rows, level) -> (first index, rows(x_j)) at x_j = j 2^-level: the lattice
# both trapezoid rules read, built by _lattice over whole blocks of
# LATTICE_BLOCK indices; the 120 points of the benchmark grid keep 0.34 MB of it
_LATTICE: dict[tuple, tuple[int, np.ndarray]] = {}
LATTICE_BLOCK = 64
LATTICE_CACHE_BYTES = 2**21  # the cap of the whole lattice, both rules together


def _lattice(rows, width: int, level: int, first: int, last: int) -> np.ndarray:
    """rows(x_j), the `width` rows a rule reads, at x_j = j 2^-level, j = first, ..., last.

    A read-only view into the lattice cache.  A level missing part of the
    range is rebuilt over the blocks that cover it and what it held before,
    and kept if the whole cache then holds at most LATTICE_CACHE_BYTES.  Each
    value is a function of j and the level alone, so which calls built the
    cache changes no value.
    """
    key = (rows, level)
    start, held = _LATTICE.get(key, (first, None))
    if held is None or first < start or last >= start + held.shape[1]:
        lo, hi = first, last + 1
        if held is not None:
            lo, hi = min(lo, start), max(hi, start + held.shape[1])
        lo, hi = lo // LATTICE_BLOCK * LATTICE_BLOCK, -(-hi // LATTICE_BLOCK) * LATTICE_BLOCK
        # a snapshot of the entries, as another thread's build may add one meanwhile
        need = 8 * width * (hi - lo) + sum(
            table.nbytes for other, (_, table) in tuple(_LATTICE.items()) if other != key)
        check_bytes(need, f"{rows.__name__.strip('_').removesuffix('_rows')} lattice at "
                          f"level {level} over indices {lo}..{hi - 1}")
        start, held = lo, rows(np.arange(lo, hi) * math.ldexp(1.0, -level))
        held.flags.writeable = False
        if need <= LATTICE_CACHE_BYTES:
            _LATTICE[key] = (start, held)
    return held[:, first - start:last - start + 1]


def _steck_rows(x: np.ndarray) -> np.ndarray:
    """The rows (log Phi(x), x^2/2) at the points x, as one array."""
    return np.stack([log_ndtr_array(x), 0.5 * x * x])


def _halvings(window, shift, slack, log_f, lo, hi, batch, name, n, rho):
    """(log f, final node count): halve the step until log f moves < 1e-13 relative.

    window(h, i, j, stride): a rule's log terms at nodes i, i + stride, ..., j
    after h halvings of its base grid lo..hi, as one fresh array.  Each level
    adds the sum of exp(term - shift) to a total, which log_f(shift, total, h)
    reads.  A level whose largest term passes the shift by more than slack
    first moves the shift up to that term; with slack None the shift bounds
    every term, and no maximum is taken.

    The first window is halving b = min(batch, HALVINGS) whole: the base grid is
    its view [::2^b] and halving h <= b its view [g::2g], g = 2^(b - h), which
    numpy sums as their copies.  When no term of it passes the shift by more
    than slack, it is shifted and exponentiated once, (hi - lo)(2^b - 2^h)
    nodes past a final grid at h < b among them; otherwise its levels go one
    at a time, as the later halvings do.
    """
    batch = min(batch, HALVINGS)
    whole = window(batch, lo << batch, hi << batch, 1)
    # if no term of the window passes the shift by more than slack, no level of it moves it
    once = slack is None or float(np.maximum.reduce(whole)) - shift <= slack
    if once:
        whole -= shift
        np.exp(whole, out=whole)
    total = previous = 0.0
    for h in range(HALVINGS + 1):
        if h <= batch:
            gap = 2 ** (batch - h)
            terms = whole[gap::2 * gap] if h else whole[::gap]
        else:
            terms = window(h, (lo << h) + 1, (hi << h) - 1, 2)
        if h > batch or not once:
            if slack is not None:
                top = float(np.maximum.reduce(terms))
                if top - shift > slack:
                    total *= math.exp(shift - top)
                    shift = top
            terms = np.subtract(terms, shift, out=terms if h > batch else None)
            np.exp(terms, out=terms)
        total += float(np.add.reduce(terms))
        value = log_f(shift, total, h)
        if h and abs(value - previous) < 1e-13 * max(1.0, abs(value)):
            return value, (hi - lo) * 2**h + 1
        previous = value
    raise ArithmeticError(f"{name} trapezoid rule did not converge in {HALVINGS} halvings "
                          f"at (n={n}, rho={rho})")


def _steck_log_f(n: int, rho: float) -> tuple[float, int]:
    """log f(n, rho) by Steck's identity, and the node count of the final grid.

    The trapezoid rule in z on exp(L), L(z) = n log Phi(z sqrt(s)) - z^2/2,
    over the span where L lies within 60 of its Newton peak.  exp(L) is
    analytic, so the rule converges geometrically in its step (Trefethen &
    Weideman, SIAM Review 56(3), 2014).  The nodes are the points
    x_j = j 2^-level of a lattice in x = z sqrt(s), so their log Phi and x^2/2
    come from the lattice cache (_lattice), and the integrand at them is
    n log Phi(x_j) - x_j^2/(2s).  _halvings halves the first level, the
    coarsest whose step is at most the peak's sigma.
    """
    sqrt_s = math.sqrt(rho / (1.0 - rho))
    inv_s = (1.0 - rho) / rho
    center, sigma = _steck_log_peak(n, sqrt_s)

    def log_integrand(z):
        return n * log_ndtr(z * sqrt_s) - 0.5 * z * z

    peak = log_integrand(center)
    ends = []
    # L is concave, so the first multiple that falls 60 below the peak bounds
    # it; the right tail decays no faster than exp(-z^2/2), and the unit 1 is at least
    # sigma: L'' = n s (log Phi)''(z sqrt(s)) - 1 <= -1, as log Phi is concave
    for unit in (-sigma, 1.0):
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
    level = 1 - math.frexp(sigma * sqrt_s)[1]  # the coarsest 2^-level <= sigma sqrt(s)
    first = math.floor(math.ldexp(lo * sqrt_s, level))
    last = math.ceil(math.ldexp(hi * sqrt_s, level))
    step = math.ldexp(1.0, -level) / sqrt_s  # in z

    def window(h, i, j, stride):
        rows = _lattice(_steck_rows, 2, level + h, i, j)  # log Phi(x_j), x_j^2 / 2
        terms = n * rows[0, ::stride]
        terms -= inv_s * rows[1, ::stride]
        return terms

    # the Newton peak is the shift: it bounds every term, so no max search
    return _halvings(window, peak, None,
                     lambda shift, total, h: shift + math.log(math.ldexp(step, -h) * total)
                     - LOG_SQRT_2PI,
                     first, last, _STECK_BATCH, "steck", n, rho)


def _trapezoid_estimate(log_f_of, method: str, n: int, rho: float) -> OrthantEstimate:
    """f(n, rho) from log_f_of(n, rho) = (log f, count); method, in words, labels each error."""
    label = method.replace("_", " ")
    check_domain(n, rho)
    if not (0.0 < rho < 1.0):
        raise ValueError(f"{label} requires 0 < rho < 1")
    log_f, nodes = log_f_of(n, rho)
    if not log_f <= 0.0:
        raise ArithmeticError(f"{label} gave exp({log_f!r}), outside [0, 1], at (n={n}, rho={rho})")
    value = math.exp(log_f)
    if value == 0.0:
        raise ArithmeticError(f"{label} underflowed to 0 at (n={n}, rho={rho})")
    return OrthantEstimate(value=value, std_error=0.0, method=method, count=nodes)


def steck_quadrature(n: int, rho: float) -> OrthantEstimate:
    """E[Phi^n(Z sqrt(s))], s = rho/(1-rho), by a trapezoid rule around its peak.

    count is the rule's final node count; a non-finite value, one above 1, or 0 raises.
    """
    return _trapezoid_estimate(_steck_log_f, "steck_quadrature", n, rho)


# a term may pass the density rule's shift by this much before the shift moves
# to it: the 64 2^12 + 1 nodes of a finest grid then sum below exp(613)
_DENSITY_SLACK = 600.0


def _density_rows(t: np.ndarray) -> np.ndarray:
    """The rows (log x, M, m, R, q^2/2) at the nodes t, as one array.

    With x = expit(pi sinh t) and u = min(x, 1-x): m = log u, q = Phi^{-1}(u),
    M = log(phi(q)/u), taken as log(sqrt(2/pi)/erfcx(-q/sqrt 2)) so that no
    large terms cancel, and R = log max(x, 1-x) + log(pi cosh t).  Each value
    depends on its own t alone.
    """
    logit = np.pi * np.abs(np.sinh(t))
    log_max = -np.log1p(np.exp(-logit))
    log_min = log_max - logit
    q = ndtri_exp_array(log_min)
    log_ratio = 0.5 * math.log(2.0 / math.pi) - np.log(erfcx_array(-q / math.sqrt(2.0)))
    return np.stack([np.where(t < 0.0, log_min, log_max), log_ratio, log_min,
                     log_max + np.log(np.pi * np.cosh(t)), 0.5 * q * q])


def _density_log_f(n: int, rho: float) -> tuple[float, int]:
    """log f(n, rho) by the density-transform identity, and the final node count.

    The trapezoid rule in t after x = expit(pi sinh t), the double-exponential
    substitution of Takahasi & Mori (Publ. RIMS 9, 1974).  The log integrand
    n log x + e M + m/s + R, e = 1/s - 1, is one contraction of a coefficient
    vector with _density_rows.  Where e > 0 it is n log x + m + R - e q^2/2:
    e log phi(q) + e log sqrt(2 pi) = -e q^2/2 leaves no terms of size e that
    cancel.  The span ends 60 below the level-0 peak, which is the shift
    until a node passes it by more than _DENSITY_SLACK; _halvings halves the
    step from 0.5.  Halving h reads its nodes t_j = j 2^-(h + 1), j = -32 2^h,
    ..., 32 2^h, from the lattice cache (_lattice).  Kept apart from
    _steck_log_f, so that the two routes check each other.
    """
    s = rho / (1.0 - rho)
    e = 1.0 / s - 1.0
    if e > 0.0:
        coefficients = np.array([n, 0.0, 1.0, 1.0, -e])
        log_pref = -0.5 * math.log(s)
    else:  # here m and -e q^2/2 would cancel as u -> 0, and e M + m/s does not
        coefficients = np.array([n, e, 1.0 / s, 1.0, 0.0])
        log_pref = e * LOG_SQRT_2PI - 0.5 * math.log(s)  # log of (sqrt(2 pi))^e / sqrt(s)

    def window(h, i, j, stride):
        rows = _lattice(_density_rows, 5, h + 1, i, j)
        return np.einsum("i,ij->j", coefficients, rows[:, ::stride])

    values = window(0, -32, 32, 1)
    shift = float(values.max())
    if not math.isfinite(shift):
        return log_pref + shift, values.size  # _trapezoid_estimate raises on it
    inside = np.flatnonzero(values >= shift - 60.0) - 32
    lo, hi = int(inside[0]) - 1, int(inside[-1]) + 1
    if lo < -32 or hi > 32:
        raise ArithmeticError(f"density integrand stays within 60 of its peak at "
                              f"|t| = 16 at (n={n}, rho={rho})")
    return _halvings(window, shift, _DENSITY_SLACK,
                     lambda shift, total, h: log_pref + shift
                     + math.log(math.ldexp(0.5, -h) * total),
                     lo, hi, _DENSITY_BATCH, "density", n, rho)


def density_integral(n: int, rho: float) -> OrthantEstimate:
    """The [0,1] density-transform integral by a tanh-sinh trapezoid rule.

    count is the rule's final node count; a non-finite value, one above 1, or 0 raises.
    """
    return _trapezoid_estimate(_density_log_f, "density_integral", n, rho)


def monte_carlo(
    n: int, rho: float, trials: int, seed: int, threads: int = 1
) -> OrthantEstimate:
    """Fraction of equicorrelated normal draws with all coordinates positive.

    Each coordinate is drawn from its law given the ones before it.  Chunked
    and deterministic per (seed, chunk index); the thread count never
    changes the result, only how chunks are scheduled.  Each chunk
    (equicorrelated.orthant_hits) takes its rows with X_1 > 0 as one
    Binomial(size, 1/2) count with half-normal X_1, and draws a row's next
    coordinate only while the row is still in the orthant, so a run at n
    draws the same first j coordinates as a run at j, and holds
    O(CHUNK_SIZE) memory at any n.
    """
    spec = EquicorrelatedSpec(n=n, rho=rho)
    sizes = _chunk_sizes(trials, CHUNK_SIZE)
    hits = _map_ordered(lambda c: orthant_hits(spec, c, sizes[c], seed), len(sizes), threads)
    p_hat, se = hit_rate(sum(hits), trials)
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
    b = 1.0 / rho - 1.0
    log_b = math.lgamma(b) - math.lgamma(2.0 + b)  # log B(2, b), as lgamma(2) = 0
    return (
        n ** (1.0 - 1.0 / rho)
        * 2.0 ** (1.0 / rho - 2.0)
        * math.sqrt((1.0 - rho) / rho)
        * (1.0 + math.exp(log_b))
    )


def _exp(x: float) -> float:
    """exp(x), or inf where it passes the largest double, in place of OverflowError."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


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
    gamma = _exp(math.lgamma(1.0 / rho - 1.0))
    if gamma == math.inf:  # past 1/rho - 1 = 171.6: the whole product in logs
        return math.exp((1.0 - 1.0 / rho) * math.log(n) + (1.0 / rho - 2.0) * math.log(2.0)
                        + 0.5 * math.log((1.0 - rho) / rho) + math.lgamma(1.0 / rho - 1.0))
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
    the bracket raised to 1/rho - 2 overflows quickly for small rho; inf past it.
    """
    check_domain(n, rho)
    if rho >= 0.5 or rho <= 0.0 or n < 2:
        return None
    log_val = (
        (1.0 - 1.0 / rho) * math.log(n)
        + 0.5 * math.log((1.0 - rho) / rho)
        + (1.0 / rho - 2.0) * math.log((1.0 / rho - 1.0) * math.log(n) ** 2)
    )
    return _exp(log_val)


def scaled_ratio(n: int, rho: float, f: float) -> float:
    """f / n^(1 - 1/rho), evaluated in the log domain; inf past the largest double."""
    if not (0.0 < f < 1.0):
        raise ValueError("f must lie in (0, 1)")
    if rho == 0.0:
        raise ValueError("scaled_ratio needs rho != 0: the scale n^(1 - 1/rho) is undefined")
    return _exp(math.log(f) - (1.0 - 1.0 / rho) * math.log(n))


def theorem_bounds(n: int, rho: float) -> BoundReport:
    """All applicable rate bounds at (n, rho) in one report."""
    high = rho > 0.5  # each bound checks (n, rho) and is None outside its range
    lower = (bound_high_rho_lower if high else bound_low_rho_lower)(n, rho)
    upper = (bound_high_rho_upper if high else bound_low_rho_upper)(n, rho)
    return BoundReport(n=n, rho=rho, scale=n ** (1.0 - 1.0 / rho) if rho > 0 else math.nan,
                       lower=lower, upper=upper, lower_applicable=lower is not None,
                       upper_applicable=high and upper is not None,
                       upper_asymptotic=not high and upper is not None)


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
