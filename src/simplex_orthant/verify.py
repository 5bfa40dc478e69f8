"""Runnable invariant suites backing the `verify` CLI command.

Each suite returns a list of check dicts: {"name", "passed", "detail"}.
Their grids and trial counts are fixed and small, so all five run in well
under a second; the acceptance tests run the desk-scale grids.
"""

from __future__ import annotations

import math

import numpy as np

from . import normal, orthant, simplex
from .equicorrelated import (
    CHUNK_SIZE,
    EquicorrelatedSpec,
    chunk_generator,
    covariance_matrix,
    inverse_diag_offdiag,
    inverse_matrix,
)


def _check(name: str, passed: bool, detail: str = "") -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def suite_special_functions() -> list[dict]:
    checks = []
    grid = np.linspace(-8.0, 8.0, 1601)
    sym = np.max(np.abs(normal.std_normal_cdf(grid) + normal.std_normal_cdf(-grid) - 1.0))
    checks.append(_check("cdf_symmetry", sym <= 1e-14, f"max |Phi(x)+Phi(-x)-1| = {sym:.3e}"))

    xs = np.linspace(1e-3, 8.0, 1000)
    tail = normal.std_normal_cdf(-xs)
    ok = np.all(normal.birnbaum_lower_mills(xs) < tail) and np.all(
        tail < normal.gordon_upper_mills(xs)
    )
    checks.append(_check("mills_bracketing", ok, "Birnbaum < 1-Phi < Gordon on (0, 8]"))

    us = np.linspace(1e-6, 1.0 - 1e-6, 1000)
    profile = normal.pdf_of_quantile(us)
    linear = np.minimum(us, 1.0 - us) * math.sqrt(2.0 / math.pi)
    worst = np.min(profile - linear)
    checks.append(_check("phi_lin_lower_bound", worst >= -1e-12, f"min slack {worst:.3e}"))

    mid = 0.5 * (profile[:-2] + profile[2:])
    concave = np.all(profile[1:-1] >= mid - 1e-12)
    checks.append(_check("profile_midpoint_concavity", concave))

    ok = True
    for s in (0.2, 0.4, 0.8, 1.5, 2.0, 4.0, 10.0):
        b = 1.0 / s
        for n in (1, 2, 5, 20, 100, 1000):
            lhs = math.lgamma(n + 1.0) + math.lgamma(b) - math.lgamma(n + 1.0 + b)
            upper = -math.log(n) / s + math.lgamma(b)
            lower = -math.log(n) / s + (math.lgamma(b) - math.lgamma(2.0 + b))  # lgamma(2) = 0
            ok &= lower - 1e-12 <= lhs <= upper + 1e-12
    checks.append(_check("beta_asymptotic_sandwich", ok,
                         "n^(-1/s) B(2,1/s) <= B(n+1,1/s) <= n^(-1/s) Gamma(1/s)"))

    xs = np.linspace(-6.0, 6.0, 601)
    rt = np.max(np.abs(
        normal.std_normal_quantile_from_log(normal.log_std_normal_cdf(xs)) - xs
    ))
    checks.append(_check("quantile_round_trip", rt <= 1e-10, f"max |x' - x| = {rt:.3e}"))
    return checks


def suite_lemma_inverse() -> list[dict]:
    checks = []
    worst = 0.0
    for k in range(2, 9):
        for n in range(2, 41, 3):
            spec = EquicorrelatedSpec(n=n, rho=simplex.rho_n(n, k))
            err = np.max(np.abs(covariance_matrix(spec) @ inverse_matrix(spec) - np.eye(n)))
            worst = max(worst, err)
    checks.append(_check("lemma_inverse_reconstruction", worst <= 1e-10,
                         f"max ||A B - I||_max = {worst:.3e}"))

    ok = True
    for k in range(2, 9):
        n = 10_000
        pair = inverse_diag_offdiag(EquicorrelatedSpec(n=n, rho=simplex.rho_n(n, k)))
        a_ok = abs(pair.alpha - (k + 1)) <= 0.01 * (k + 1)
        b_ok = abs((n - 1) * abs(pair.beta) - (k + 1)) <= 0.01 * (k + 1)
        ok &= a_ok and b_ok
    checks.append(_check("lemma_asymptotics", ok, "alpha and (n-1)|beta| within 1% of k+1"))

    # factored rational forms in (n, k); beta's matches the direct inversion,
    # alpha uses the corrected factorization
    ok = True
    for k in range(2, 9):
        for n in (2, 5, 10, 50, 200):
            pair = inverse_diag_offdiag(EquicorrelatedSpec(n=n, rho=simplex.rho_n(n, k)))
            den = k * n * n * (n + 1)
            alpha_rat = (k * n * n - k + 1) * (k * n + k + n - 1) / den
            beta_rat = -(k * n + k - 1) * (k * n + k + n - 1) / den
            ok &= abs(pair.alpha - alpha_rat) <= 1e-10 * abs(alpha_rat)
            ok &= abs(pair.beta - beta_rat) <= 1e-10 * abs(beta_rat)
    checks.append(_check("lemma_rational_forms", ok))

    ok = True
    for n in (2, 5, 10, 25, 50):
        for rho in (-0.01, 0.0, 0.3, 0.7, 0.95):
            eig = np.sort(np.linalg.eigvalsh(covariance_matrix(EquicorrelatedSpec(n=n, rho=rho))))
            expected = np.sort(np.r_[np.full(n - 1, 1.0 - rho), 1.0 + (n - 1) * rho])
            ok &= np.max(np.abs(eig - expected)) <= 1e-10
    checks.append(_check("eigenvalue_structure", ok))
    return checks


def suite_sampler() -> list[dict]:
    # orthant.monte_carlo, through equicorrelated.orthant_hits, draws every
    # Monte Carlo f(n, rho) the package reports; the SE is the binomial one
    # at best_estimate's value, so a run with no hits still gets a finite z.
    # Two chunks, so threads=2 runs the threaded map and its chunk order
    draws, seed = 2 * CHUNK_SIZE, 20_240_601
    ok = True
    detail = []
    for n, rho in ((2, 0.3), (4, 0.6), (8, 0.9)):
        est = orthant.monte_carlo(n, rho, draws, seed)
        f = orthant.best_estimate(n, rho).value
        z = (est.value - f) / math.sqrt(f * (1.0 - f) / draws)
        same = orthant.monte_carlo(n, rho, draws, seed, threads=2) == est
        ok &= abs(z) <= 3.5 and same
        detail.append(f"(n={n},rho={rho}): {z:+.2f} SE from best_estimate, "
                      f"threads 1 and 2 {'agree' if same else 'differ'}")
    return [_check("monte_carlo_law", ok, "; ".join(detail))]


def suite_orthant() -> list[dict]:
    checks = []
    worst = 0.0
    for rho in np.arange(0.1, 0.95, 0.1):
        for n in (2, 5, 10, 50):
            a = orthant.steck_quadrature(n, float(rho)).value
            b = orthant.density_integral(n, float(rho)).value
            worst = max(worst, abs(a - b) / a)
    checks.append(_check("representation_equivalence", worst <= 1e-8,
                         f"max rel diff {worst:.3e}"))

    worst = 0.0
    for n in (2, 3):
        for rho in np.arange(0.05, 1.0, 0.05):
            exact = orthant.closed_form(n, float(rho)).value
            q = orthant.steck_quadrature(n, float(rho)).value
            worst = max(worst, abs(q - exact))
    checks.append(_check("closed_form_agreement", worst <= 1e-9,
                         f"max abs err {worst:.3e}"))

    ok = True
    for n in (2, 5, 20):
        vals = [orthant.steck_quadrature(n, float(r)).value for r in np.arange(0.05, 1.0, 0.05)]
        ok &= all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))
    checks.append(_check("monotone_in_rho", ok))

    ok = True
    for rho in (0.25, 0.5, 0.75):
        vals = [orthant.steck_quadrature(n, rho).value for n in range(1, 30)]
        ok &= all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    checks.append(_check("monotone_in_n", ok))

    ok = True
    for rho in (0.6, 0.75, 0.9, 0.2, 0.3, 0.4):
        for n in (2, 10, 100, 1000) if rho > 0.5 else (10, 50, 200, 1000):
            f = orthant.steck_quadrature(n, rho).value
            verdict = orthant.theorem_bounds(n, rho).contains(f)
            # the low-rho lower bound applies only past its growth gate
            ok &= verdict is True or (verdict is None and rho < 0.5)
    checks.append(_check("theorem_sandwich", ok))

    ratios = []
    for n in np.unique(np.geomspace(100, 100_000, 12).astype(int)):
        f = orthant.steck_quadrature(int(n), 0.75).value
        ratios.append(orthant.scaled_ratio(int(n), 0.75, f) * math.sqrt(math.log(n)))
    spread = max(ratios) / min(ratios)
    checks.append(_check("rate_tight_up_to_logs", spread <= 10.0,
                         f"ratio band spread {spread:.3f}"))
    return checks


def suite_simplex() -> list[dict]:
    checks = []
    trials = 40_000
    ok = True
    detail = []
    for n, k in ((3, 3), (5, 4)):
        corr = simplex.gradient_correlations(n, k, trials, seed=7_031)
        rho = simplex.rho_n(n, k)
        same = corr[:n, :n][np.triu_indices(n, 1)]
        sigma = (1.0 - rho * rho) / math.sqrt(trials)
        worst = np.max(np.abs(same - rho))
        ok &= worst <= 3.5 * sigma
        # the largest cross-vertex correlation is the shared edge's |r|
        cross = np.abs(corr[:n, n : 2 * n]).max()
        ok &= cross <= abs(simplex.edge_correlations(n, k)[1]) + 3.5 / math.sqrt(trials)
        detail.append(f"(n={n},k={k}): same-vertex dev {worst:.2e}, cross max {cross:.2e}")
    checks.append(_check("gradient_law", ok, "; ".join(detail)))

    # analytic norm of the derivative functional, and the closed-form edge
    # covariance the union samples from, vs the law of the coefficient draws
    ok = True
    worst = 0.0
    for n, k in ((3, 3), (5, 4)):
        design = simplex._design_matrix(n, k)
        var = simplex.coefficient_variances(n, k)
        empirical = float(np.sum(var * design[0] ** 2))
        analytic = simplex.derivative_norm_squared(n, k)
        ok &= abs(empirical - analytic) <= 1e-10 * analytic
        implied = (design * var) @ design.T
        dev = np.max(np.abs(simplex.edge_covariance(n, k) - implied)) / np.max(np.abs(implied))
        worst = max(worst, float(dev))
    checks.append(_check("derivative_norm_formula", ok))
    checks.append(_check("edge_covariance_law", worst <= 1e-12,
                         f"max |C - R var R^T| / max |R var R^T| = {worst:.3e}"))

    # the union's factor of C, one column per unit of rank min(d, n(n+1)); the
    # 1e-12 residual holds at these three, not for every singular (n, k):
    # see _vertex_factor
    ok, detail = True, []
    for n, k in ((3, 3), (4, 4), (8, 2)):  # singular at (3, 3) and (8, 2)
        cov = simplex.edge_covariance(n, k)
        factor, _ = simplex._vertex_factor(cov.copy(), n)
        worst = float(np.max(np.abs(factor @ factor.T - cov)) / np.max(np.abs(cov)))
        ok &= worst <= 1e-12 and factor.shape[1] == min(simplex.coefficient_count(n, k), n * n + n)
        detail.append(f"(n={n},k={k}): {factor.shape[1]} columns, "
                      f"max |L L^T - C| / max |C| = {worst:.1e}")
    checks.append(_check("union_factor", ok, "; ".join(detail)))

    # the vertex-0 derivative law (R var R^T) is the same at a rotated vertex and frame
    rng = chunk_generator(99, 0)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    var = simplex.coefficient_variances(3, 3)
    geom = simplex.build_geometry(3)
    exponents, frame = simplex.multi_index_table(3, 3), simplex.edge_frame(geom, 0).directions
    base = simplex._derivative_rows(exponents, geom.embedded[0], frame)
    rotated = simplex._derivative_rows(exponents, q @ geom.embedded[0], frame @ q.T)
    dev = float(np.max(np.abs((base * var) @ base.T - (rotated * var) @ rotated.T)))
    checks.append(_check("rotation_invariance", dev <= 1e-12,
                         f"max |R var R^T - rotated| = {dev:.3e}"))

    p = simplex.sample_polynomial(4, 5, seed=11)
    rng = chunk_generator(5, 0)
    ok = True
    for _ in range(20):
        x = rng.standard_normal(4)
        t = float(rng.uniform(0.2, 3.0))
        ok &= abs(p(t * x) - t**5 * p(x)) <= 1e-10 * max(1.0, abs(p(x)) * t**5)
    checks.append(_check("homogeneity", ok))

    union_trials = 10_000
    prev, prev_se = -1.0, 0.0
    ok = True
    for n in (2, 4, 6, 8, 10):
        rep = simplex.estimate_union_probability(n, 5, union_trials, seed=31_337)
        ok &= rep.estimate >= prev - 3.0 * math.sqrt(rep.std_error**2 + prev_se**2)
        ok &= rep.estimate >= rep.independence_approx - rep.tv_corrected - 3.0 * rep.std_error
        prev, prev_se = rep.estimate, rep.std_error
    checks.append(_check("union_trend", ok))
    return checks


SUITES = {
    "special_functions": suite_special_functions,
    "lemma_inverse": suite_lemma_inverse,
    "sampler": suite_sampler,
    "orthant": suite_orthant,
    "simplex": suite_simplex,
}


def run_all(only: list[str] | None = None) -> dict:
    selected = only or list(SUITES)
    unknown = set(selected) - set(SUITES)
    if unknown:
        raise ValueError(f"unknown suites: {sorted(unknown)}")
    suites = {name: SUITES[name]() for name in selected}
    failures = [
        f"{suite}:{c['name']}"
        for suite, checks in suites.items()
        for c in checks
        if not c["passed"]
    ]
    return {
        "suites": suites,
        "failures": failures,
        "all_passed": not failures,
    }
