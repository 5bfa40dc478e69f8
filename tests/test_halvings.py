"""The batched halving driver against a frozen copy of the level-by-level rules.

_steck_log_f and _density_log_f read each call's trapezoid levels from one
window and a few single-level reads; the rules below read one level at a
time, as both did before the driver, from nodes they compute themselves.
Every value, node count and error message must come out byte for byte the
same, at any batch depth.
"""

import functools
import math

import numpy as np
import pytest

from simplex_orthant import orthant
from simplex_orthant.normal import erfcx_array, log_ndtr, log_ndtr_array, ndtri_exp_array

LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
HALVINGS = 12
SLACK = 600.0

# the 120 (n, rho) points of the benchmark's orthant_grid workload
GRID = [(n, rho) for n in (2, 3, 5, 10, 30, 100, 10**3, 10**4, 10**5, 10**6, 10**7, 10**8)
        for rho in (0.01, 0.05, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 0.99)]


def random_points(count, seed=20261020):
    """n log-uniform on [2, 1e12], logit(rho) uniform on [-14, 14]."""
    rng = np.random.default_rng(seed)
    n = np.rint(np.exp(rng.uniform(math.log(2.0), math.log(1e12), count))).astype(int)
    rho = 1.0 / (1.0 + np.exp(-rng.uniform(-14.0, 14.0, count)))
    return list(zip(n.tolist(), rho.tolist()))


POINTS = GRID + random_points(300)


def reference_steck_log_f(n, rho):
    """Steck's rule one lattice level at a time (each halving reads its odd points)."""
    sqrt_s = math.sqrt(rho / (1.0 - rho))
    inv_s = (1.0 - rho) / rho
    center, sigma = orthant._steck_log_peak(n, sqrt_s)

    def log_integrand(z):
        return n * log_ndtr(z * sqrt_s) - 0.5 * z * z

    peak = log_integrand(center)

    def shifted_sum(level, first, last, stride):
        x = np.arange(first, last + 1, stride) * math.ldexp(1.0, -level)
        terms = n * log_ndtr_array(x)
        terms -= inv_s * (0.5 * x * x)
        terms -= peak
        return np.exp(terms, out=terms).sum()

    ends = []
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
    level = 1 - math.frexp(sigma * sqrt_s)[1]
    first = math.floor(math.ldexp(lo * sqrt_s, level))
    last = math.ceil(math.ldexp(hi * sqrt_s, level))
    step = math.ldexp(1.0, -level) / sqrt_s
    total = shifted_sum(level, first, last, 1)
    log_f = peak + math.log(step * total) - LOG_SQRT_2PI
    for halving in range(1, HALVINGS + 1):
        width = 2**halving
        total += shifted_sum(level + halving, width * first + 1, width * last - 1, 2)
        step *= 0.5
        previous, log_f = log_f, peak + math.log(step * total) - LOG_SQRT_2PI
        if abs(log_f - previous) < 1e-13 * max(1.0, abs(log_f)):
            return log_f, width * (last - first) + 1
    raise ArithmeticError(
        f"steck trapezoid rule did not converge in {HALVINGS} halvings "
        f"at (n={n}, rho={rho})"
    )


@functools.cache
def density_table(level):
    """(log x, M, m, R, q^2/2) at the nodes in [-16, 16] that level `level` adds."""
    first, stride = (1, 2) if level else (0, 1)
    t = np.arange(first, 64 * 2**level + 1, stride) * (0.5 / 2**level) - 16.0
    logit = np.pi * np.abs(np.sinh(t))
    log_max = -np.log1p(np.exp(-logit))
    log_min = log_max - logit
    q = ndtri_exp_array(log_min)
    log_ratio = 0.5 * math.log(2.0 / math.pi) - np.log(erfcx_array(-q / math.sqrt(2.0)))
    return (np.where(t < 0.0, log_min, log_max), log_ratio, log_min,
            log_max + np.log(np.pi * np.cosh(t)), 0.5 * q * q)


def density_span(n, rho):
    """(log integrand by level, log prefactor, level-0 maximum, lo, hi) of the density rule.

    lo and hi are None where the maximum is not finite.
    """
    s = rho / (1.0 - rho)
    e, inv_s = 1.0 / s - 1.0, 1.0 / s
    log_pref = -0.5 * math.log(s) if e > 0.0 else e * LOG_SQRT_2PI - 0.5 * math.log(s)

    def log_integrand(level, start, stop):
        # the terms in the order in which the contraction adds them
        log_x, log_ratio, log_min, rest, half_q2 = (row[start:stop]
                                                    for row in density_table(level))
        if e > 0.0:
            return n * log_x + log_min + rest - e * half_q2
        return n * log_x + e * log_ratio + inv_s * log_min + rest

    values = log_integrand(0, 0, None)
    shift = float(values.max())
    if not math.isfinite(shift):
        return log_integrand, log_pref, shift, None, None
    inside = np.flatnonzero(values >= shift - 60.0)
    lo, hi = int(inside[0]) - 1, int(inside[-1]) + 1
    if lo < 0 or hi >= values.size:
        raise ArithmeticError(f"density integrand stays within 60 of its peak at "
                              f"|t| = 16 at (n={n}, rho={rho})")
    return log_integrand, log_pref, shift, lo, hi


def reference_density_log_f(n, rho):
    """The density rule one level at a time (each halving reads its odd nodes).

    The level-0 maximum is the shift until a level's largest term passes it
    by more than SLACK; then that term is.
    """
    log_integrand, log_pref, shift, lo, hi = density_span(n, rho)
    if lo is None:
        return log_pref + shift, 65  # the level-0 nodes
    step, nodes = 0.5, hi - lo + 1
    total = float(np.exp(log_integrand(0, lo, hi + 1) - shift).sum())
    log_f = log_pref + shift + math.log(step * total)
    for level in range(1, HALVINGS + 1):
        width = 2 ** (level - 1)
        values = log_integrand(level, width * lo, width * hi)
        top = float(values.max())
        if top - shift > SLACK:
            total *= math.exp(shift - top)
            shift = top
        total += float(np.exp(values - shift).sum())
        step, nodes = 0.5 * step, nodes + values.size
        previous, log_f = log_f, log_pref + shift + math.log(step * total)
        if abs(log_f - previous) < 1e-13 * max(1.0, abs(log_f)):
            return log_f, nodes
    raise ArithmeticError(f"density trapezoid rule did not converge in "
                          f"{HALVINGS} halvings at (n={n}, rho={rho})")


def passes_slack(n, rho):
    """Whether a node of the density span, to level HALVINGS, passes the level-0 maximum by
    more than SLACK: there the first window's levels go one at a time."""
    try:
        log_integrand, _, shift, lo, hi = density_span(n, rho)
    except ArithmeticError:
        return False
    return lo is not None and any(
        log_integrand(level, 2 ** (level - 1) * lo, 2 ** (level - 1) * hi).max() - shift > SLACK
        for level in range(1, HALVINGS + 1))


def outcome(rule, n, rho):
    """(repr of log f, count) or (exception type, message): the bytes a caller sees."""
    try:
        log_f, count = rule(n, rho)
    except Exception as exc:  # noqa: BLE001 - the type is part of the outcome
        return type(exc).__name__, str(exc)
    return repr(log_f), count


@functools.cache
def reference(rule, points):
    return [outcome(rule, n, rho) for n, rho in points]


RULES = {
    "steck": (reference_steck_log_f, "_steck_log_f", "_STECK_BATCH"),
    "density": (reference_density_log_f, "_density_log_f", "_DENSITY_BATCH"),
}


def mismatches(name, points):
    frozen, attr, _ = RULES[name]
    rule = getattr(orthant, attr)
    expected = reference(frozen, tuple(points))
    return [(n, rho, want, got) for (n, rho), want in zip(points, expected)
            if (got := outcome(rule, n, rho)) != want]


def test_frozen_rules_converge_on_the_grid():
    # the comparison means something only where both rules return values
    for name in RULES:
        counts = [count for _, count in reference(RULES[name][0], tuple(GRID))]
        assert all(isinstance(count, int) for count in counts), name


@pytest.mark.parametrize("name", sorted(RULES))
def test_same_bytes_as_level_by_level(name):
    assert mismatches(name, POINTS) == []


@pytest.mark.parametrize("name", sorted(RULES))
@pytest.mark.parametrize("batch", ["level_by_level", "one_window"])
def test_same_bytes_at_any_batch_depth(name, batch, monkeypatch):
    # 0: the base grid alone, then one halving a read, as before the driver;
    # HALVINGS: every halving in the first window.  That window is 4096 times
    # the base grid, about 0.1 s a Steck call on the grid and hundreds of
    # megabytes near rho = 1, so it runs on every 7th grid point (all ten rho
    # and all twelve n among them).  The density rule's window also runs at
    # the random points where a node passes its shift by more than SLACK,
    # which no grid point does, so that its levels go one at a time
    depth = 0 if batch == "level_by_level" else HALVINGS
    monkeypatch.setattr(orthant, RULES[name][2], depth)
    # a fresh lattice, so that the deep windows' levels do not outlive the test
    monkeypatch.setattr(orthant, "_LATTICE", {})
    points = GRID[::7]
    if name == "density":
        points = points + [point for point in POINTS[len(GRID):] if passes_slack(*point)]
    assert mismatches(name, POINTS if depth == 0 else points) == []
