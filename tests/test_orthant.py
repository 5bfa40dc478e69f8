"""Orthant probability routes and rate bounds.

Reference values were frozen from an mpmath oracle (30 digits) that
integrates Phi^n(z sqrt(s)) phi(z) directly with mp.quad, independently of
the implementation under test.
"""

import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from simplex_orthant import equicorrelated, normal, orthant
from simplex_orthant.equicorrelated import ResourceBudgetError
from simplex_orthant.orthant import (
    OrthantEstimate,
    best_estimate,
    bound_high_rho_lower,
    bound_high_rho_upper,
    bound_low_rho_lower,
    bound_low_rho_upper,
    closed_form,
    density_integral,
    low_rho_gate,
    monte_carlo,
    scaled_ratio,
    steck_quadrature,
    theorem_bounds,
    trivariate_closed_form,
)

# mpmath, dps=30: quad of ncdf(z sqrt(s))^n npdf(z) over split intervals
F_ORACLE = {
    (5, 0.3): 0.10453060115009154,
    (10, 0.75): 0.20016751061398332,
    (50, 0.6): 0.042201461310133498,
    (200, 0.9): 0.18213593356971047,
    (7, 0.25): 0.051756879427465094,
    (1000, 0.75): 0.033144760663489749,
}
SHEPPARD_08 = 0.39758361765043327  # 1/4 + arcsin(0.8)/(2 pi)
DAVID_09 = 0.3923252801534703  # 1/8 + 3 arcsin(0.9)/(4 pi)
# f(n, 0.99) from mpmath, dps=40, rho = mpf(0.99) (the binary double): quad of
# npdf(z) ncdf(z sqrt(s))^n over [-inf, c - 64 sig, c - 32 sig, ..., c - sig,
# c, c + r, c + 2r, ..., c + 64r, inf], with (c, sig) from
# orthant._steck_log_peak(n, sqrt(s)) and r = max(sig, 1); the same
# digits come out at dps=50.
RHO_099_REFERENCE = [
    (10**4, 0.3494085374978352400472079),
    (10**6, 0.3125674079175695215999259),
    (10**8, 0.2831657200966272335284421),
]
# f(1e8, rho) closer to rho = 1, by the same recipe at dps=60 (dps=50 agrees)
RHO_NEAR_ONE_1E8_REFERENCE = [
    (0.995, 0.3429127062131143018408957),
    (0.999, 0.4283548315168236257036589),
]
# log f(n, rho) at small rho from mpmath, dps=40, rho = mpf(rho) (the binary
# double): quad of npdf(z) ncdf(z sqrt(s))^n over the 80 unit intervals of
# [-40, 40], past which the tails are below exp(-600) of f; dps=50 agrees to
# 1.1e-39.  Quad over infinite intervals is 3e-12 off at (204, 1.2e-6).
SMALL_RHO_LOG_REFERENCE = [
    (3, 7.6e-5, -2.079296402904737990687873),
    (6, 1.17e-6, -4.158871910720115263131939),
    (204, 1.2e-6, -141.3862090620438686456217),
    (10, 1e-4, -6.928608565839057330716137),
]
# log f(n, rho) for every cell of compute_steck.csv and bounds_grid.csv, by
# the same recipe at dps=60, printed to 40 digits; dps=50 agrees to 5.2e-37
# relative.  rho is the CLI's double, which the printed decimal round-trips.
STECK_REFERENCE = Path(__file__).parent / "data" / "steck_mpmath_reference.csv"


class TestSpecs:
    def test_estimate_validation(self):
        with pytest.raises(ValueError):
            OrthantEstimate(value=1.2, std_error=0.0, method="x", count=0)
        with pytest.raises(ValueError):
            OrthantEstimate(value=0.5, std_error=-1.0, method="x", count=0)


class TestClosedForm:
    def test_known_values(self):
        assert closed_form(2, 0.5).value == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert closed_form(7, 0.5).value == pytest.approx(0.125, rel=1e-15)
        assert closed_form(5, 0.0).value == pytest.approx(1.0 / 32.0, rel=1e-15)
        assert closed_form(2, 0.8).value == pytest.approx(SHEPPARD_08, rel=1e-15)
        assert closed_form(1, 0.3).value == 0.5

    def test_no_closed_form(self):
        assert closed_form(4, 0.3) is None
        assert closed_form(10, 0.99) is None

    def test_deterministic_tagging(self):
        est = closed_form(3, 0.2)
        assert est.std_error == 0.0
        assert est.method == "closed_form"

    def test_domain(self):
        with pytest.raises(ValueError):
            closed_form(0, 0.5)
        with pytest.raises(ValueError):
            closed_form(3, 1.0)
        with pytest.raises(ValueError):
            closed_form(3, -0.6)

    def test_negative_rho_three(self):
        # David's formula still applies for admissible negative rho
        val = closed_form(3, -0.25).value
        assert val == pytest.approx(0.125 + 3 * math.asin(-0.25) / (4 * math.pi))


    def test_three_is_davids_formula_without_eigvalsh(self, monkeypatch):
        # equal rho inside check_domain's range is a PSD correlation, so the
        # n = 3 closed form skips trivariate_closed_form's eigvalsh and gives
        # its value bit for bit
        values = {rho: trivariate_closed_form(rho, rho, rho)
                  for rho in (-0.49, -0.25, 0.05, 0.3, 0.7, 0.99)}

        def no_eigvalsh(*args):
            raise AssertionError("eigvalsh ran")

        monkeypatch.setattr(orthant.np.linalg, "eigvalsh", no_eigvalsh)
        assert all(closed_form(3, rho).value == value for rho, value in values.items())


class TestTrivariate:
    def test_values(self):
        assert trivariate_closed_form(0.0, 0.0, 0.0) == pytest.approx(0.125, rel=1e-15)
        assert trivariate_closed_form(0.5, 0.5, 0.5) == pytest.approx(0.25, rel=1e-15)
        assert trivariate_closed_form(0.9, 0.9, 0.9) == pytest.approx(DAVID_09, rel=1e-15)

    def test_reduces_to_equal_rho(self):
        for rho in (0.1, 0.4, 0.8):
            assert trivariate_closed_form(rho, rho, rho) == pytest.approx(
                closed_form(3, rho).value, rel=1e-15
            )

    def test_rejects_non_psd(self):
        with pytest.raises(ValueError):
            trivariate_closed_form(0.9, 0.9, -0.9)


class TestSteckQuadrature:
    @pytest.mark.parametrize("n,rho", [(2, 0.5), (10, 0.5), (2, 0.8), (3, 0.9)])
    def test_matches_closed_forms(self, n, rho):
        assert steck_quadrature(n, rho).value == pytest.approx(
            closed_form(n, rho).value, abs=1e-9
        )

    @pytest.mark.parametrize("n,rho", sorted(F_ORACLE))
    def test_matches_oracle(self, n, rho):
        assert steck_quadrature(n, rho).value == pytest.approx(
            F_ORACLE[(n, rho)], rel=1e-10
        )

    def test_large_n_recentred(self):
        # mass far outside the fixed node span; recentring must keep accuracy
        est = steck_quadrature(100_000, 0.75)
        assert est.value == pytest.approx(
            scaled_ratio_inverse(100_000, 0.75, est.value), rel=1e-12
        )
        assert 0.0 < est.value < 1e-1

    def test_deterministic(self):
        a = steck_quadrature(37, 0.63)
        b = steck_quadrature(37, 0.63)
        assert a.value == b.value and a.std_error == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            steck_quadrature(5, 0.0)
        with pytest.raises(ValueError):
            steck_quadrature(5, -0.1)
        with pytest.raises(ValueError):
            steck_quadrature(5, 1.0)

    def test_underflow_raises(self):
        # f(1e6, 0.01) is about n^(1 - 1/rho) = 1e-594, below the smallest double
        with pytest.raises(ArithmeticError, match=r"underflow.*n=1000000, rho=0.01"):
            steck_quadrature(10**6, 0.01)

    def test_unconverged_peak_search_raises(self, monkeypatch):
        monkeypatch.setattr(orthant, "pdf_cdf_ratio", lambda x: math.nan)
        with pytest.raises(ArithmeticError, match="peak search did not converge"):
            steck_quadrature(10, 0.5)

    def test_one_peak_search_per_call(self, monkeypatch):
        # the first window takes the exponentials of the base grid and
        # _STECK_BATCH halvings at once, each later read those of one halving's
        # new points: together they cover the finest grid read exactly once,
        # the final grid is span 2^h + 1 nodes, and the nodes past it number at
        # most span (2^batch - 2), below 2^(batch - 1) times the final count
        peaks, sizes = [], []
        peak, exp = orthant._steck_log_peak, np.exp

        def counted_peak(*args):
            peaks.append(args)
            return peak(*args)

        def counted_exp(x, *args, **kwargs):
            sizes.append(np.size(x))
            return exp(x, *args, **kwargs)

        batch = min(orthant._STECK_BATCH, orthant.HALVINGS)
        # (5, 0.3) left the list: the lattice's first step lies between sigma/2
        # and sigma, and there one halving meets the 1e-13 stop
        for n, rho in [(1000, 0.99), (10**4, 0.99), (10**8, 0.4), (5, 0.4)]:
            # a fresh lattice, which the call's levels fit, so the second reads them
            monkeypatch.setattr(orthant, "_LATTICE", {})
            expected = steck_quadrature(n, rho)  # builds the lattice levels
            peaks.clear()
            sizes.clear()
            monkeypatch.setattr(orthant, "_steck_log_peak", counted_peak)
            monkeypatch.setattr(orthant.np, "exp", counted_exp)
            est = steck_quadrature(n, rho)
            monkeypatch.undo()
            assert est == expected and len(peaks) == 1
            span, rest = divmod(sizes[0] - 1, 2**batch)
            finest = batch + len(sizes) - 1
            assert rest == 0 and sizes[1:] == [span * 2 ** (h - 1)
                                               for h in range(batch + 1, finest + 1)]
            assert sum(sizes) == span * 2**finest + 1
            halvings = round(math.log2((est.count - 1) / span))
            assert est.count == span * 2**halvings + 1 and halvings >= 2
            assert finest == max(halvings, batch)
            assert sum(sizes) - est.count <= span * (2**batch - 2)

    def test_unconverged_rule_raises(self, monkeypatch):
        monkeypatch.setattr(orthant, "HALVINGS", 1)
        with pytest.raises(ArithmeticError, match=r"converge.*n=10000, rho=0.99\)"):
            steck_quadrature(10**4, 0.99)

    def test_out_of_range_raises(self, monkeypatch):
        # the guard both rules share: a log f that is not finite or above 0
        for bad in (math.nan, 0.1):
            monkeypatch.setattr(orthant, "_steck_log_f", lambda n, rho: (bad, 1))
            with pytest.raises(ArithmeticError, match=r"outside \[0, 1\].*n=10, rho=0.5"):
                steck_quadrature(10, 0.5)

    @pytest.mark.parametrize("n, reference", RHO_099_REFERENCE)
    def test_rho_near_one_large_n(self, n, reference):
        assert steck_quadrature(n, 0.99).value == pytest.approx(reference, rel=1e-13)

    @pytest.mark.parametrize("rho, reference", RHO_NEAR_ONE_1E8_REFERENCE)
    def test_rho_near_one_n_1e8(self, rho, reference):
        assert steck_quadrature(10**8, rho).value == pytest.approx(reference, rel=1e-13)

    def test_golden_cells_match_mpmath(self):
        # in log f: exp sets a floor near 1e-14 on f's relative error at
        # log f ~ -83, so the measure is |log f - ref| / max(1, |ref|)
        with STECK_REFERENCE.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 64
        worst = max(
            abs(math.log(steck_quadrature(int(r["n"]), float(r["rho"])).value)
                - float(r["log_f"])) / max(1.0, abs(float(r["log_f"])))
            for r in rows
        )
        assert worst <= 1e-15

    def test_rho_near_one_sweep(self):
        # every value Steck returns near rho = 1 is right, or it raises
        for rho in (0.95, 0.98, 0.99, 0.995, 0.999):
            for n in np.unique(np.geomspace(10, 1e8, 40).astype(int)).tolist():
                try:
                    value = steck_quadrature(n, rho).value
                except ArithmeticError:
                    continue
                assert value == pytest.approx(density_integral(n, rho).value, rel=1e-10)


class TestSteckLattice:
    # the 120 (n, rho) points of the benchmark's orthant_grid workload
    GRID = [(n, rho) for n in (2, 3, 5, 10, 30, 100, 10**3, 10**4, 10**5, 10**6, 10**7, 10**8)
            for rho in (0.01, 0.05, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 0.99)]

    @staticmethod
    def lattice_bytes():
        return sum(table.nbytes for _, table in orthant._LATTICE.values())

    @staticmethod
    def steck_spans():
        return {level: (start, start + table.shape[1])
                for (rows, level), (start, table) in orthant._LATTICE.items()
                if rows is orthant._steck_rows}

    def test_grid_lattice_fits_a_mebibyte(self, monkeypatch):
        monkeypatch.setattr(orthant, "_LATTICE", {})
        for route in (steck_quadrature, density_integral):
            for n, rho in self.GRID:
                try:
                    route(n, rho)
                except ArithmeticError:
                    pass
            # Steck's levels, then both rules' together
            assert 0 < self.lattice_bytes() <= 2**20

    def test_values_independent_of_build_order(self, monkeypatch):
        monkeypatch.setattr(orthant, "_LATTICE", {})
        orthant._lattice(orthant._steck_rows, 2, 3, 5, 9)
        orthant._lattice(orthant._steck_rows, 2, 3, -700, -650)
        grown = orthant._lattice(orthant._steck_rows, 2, 3, -700, 900)
        monkeypatch.setattr(orthant, "_LATTICE", {})
        direct = orthant._lattice(orthant._steck_rows, 2, 3, -700, 900)
        assert np.array_equal(grown, direct)
        x = np.arange(-700, 901) / 8.0
        assert np.array_equal(direct[0], normal.log_ndtr_array(x))
        assert np.array_equal(direct[1], 0.5 * x * x)

    def test_cache_capped_after_extreme_calls(self, monkeypatch):
        # near rho = 1 one call builds megabytes of lattice: 17.7 MB stayed
        # after (1e8, 0.999999) and 38.4 MB after (3, 0.999999999) when every
        # build was kept.  The cache stays within LATTICE_CACHE_BYTES, the
        # grid's 8 levels stay cached (each call's first window reads two
        # levels below its base grid's), and no value changes
        monkeypatch.setattr(orthant, "_LATTICE", {})
        grid = {}
        for n, rho in self.GRID:
            try:
                grid[n, rho] = steck_quadrature(n, rho)
            except ArithmeticError:
                pass
        spans = self.steck_spans()
        assert len(spans) == 8
        extreme = steck_quadrature(10**8, 0.999999)
        with pytest.raises(ArithmeticError, match="did not converge"):
            steck_quadrature(3, 0.999999999)
        assert self.lattice_bytes() <= orthant.LATTICE_CACHE_BYTES
        held = self.steck_spans()
        for level, (start, end) in spans.items():
            assert held[level][0] <= start and end <= held[level][1]
        assert all(steck_quadrature(n, rho) == value for (n, rho), value in grid.items())
        monkeypatch.setattr(orthant, "_LATTICE", {})
        assert steck_quadrature(10**8, 0.999999) == extreme

    def test_build_past_budget_raises(self, monkeypatch):
        monkeypatch.setattr(orthant, "_LATTICE", {})
        monkeypatch.setattr(equicorrelated, "MEMORY_BUDGET_BYTES", 1000)
        with pytest.raises(ResourceBudgetError, match=r"steck lattice at level \d+"):
            steck_quadrature(10, 0.5)
        with pytest.raises(ResourceBudgetError, match=r"density lattice at level 1 over"):
            density_integral(10, 0.5)

    def test_growing_cache_during_size_sum(self, monkeypatch):
        # another thread's build may add an entry while a build sums the
        # cache's bytes: here an entry's nbytes adds one
        class Growing:
            @property
            def nbytes(self):
                orthant._LATTICE["added", 0] = (0, np.empty((1, 0)))
                return 0

        expected = steck_quadrature(10, 0.5)
        monkeypatch.setattr(orthant, "_LATTICE", {("growing", 0): (0, Growing())})
        assert steck_quadrature(10, 0.5) == expected


class TestSteckPeak:
    """The Newton search for the maximizer of L(z) = n log Phi(z sqrt(s)) - z^2/2."""

    POINTS = [(2, 1e-9), (2, 0.5), (10, 0.9), (10**8, 0.99), (10**12, 1e-6),
              (10**12, 1.0 - 1e-9)]

    @staticmethod
    def sqrt_s(rho):
        return math.sqrt(rho / (1.0 - rho))  # as _steck_log_f takes it

    @pytest.mark.parametrize("n, rho", POINTS)
    def test_matches_mpmath_root(self, n, rho):
        # L'' <= -1, so the root carries at most phi/Phi's few-ulp error:
        # at most 8 ulp from the root of L' at 40 digits, for this double sqrt(s)
        mp.mp.dps = 40
        sqrt_s = mp.mpf(self.sqrt_s(rho))
        z = orthant._steck_log_peak(n, float(sqrt_s))[0]
        root = mp.findroot(
            lambda t: n * sqrt_s * mp.npdf(t * sqrt_s) / mp.ncdf(t * sqrt_s) - t, mp.mpf(z))
        assert abs(z - root) <= 8 * math.ulp(float(root))

    def test_evaluations_per_call(self, monkeypatch):
        # the start lies near the peak: at most 5 phi/Phi evaluations a call on
        # the benchmark grid (10.9 on average, up to 25, from z = 0)
        calls, ratio = [], orthant.pdf_cdf_ratio

        def counted(x):
            calls.append(x)
            return ratio(x)

        monkeypatch.setattr(orthant, "pdf_cdf_ratio", counted)
        counts = []
        for n, rho in TestSteckLattice.GRID:
            calls.clear()
            orthant._steck_log_peak(n, self.sqrt_s(rho))
            counts.append(len(calls))
        assert sum(counts) / len(counts) <= 5 and max(counts) <= 8

    @pytest.mark.parametrize("offset", [-50.0, 50.0])
    def test_converges_from_far_starts(self, offset, monkeypatch):
        # L' is convex and decreasing, so Newton converges from any start
        points = [(n, self.sqrt_s(rho)) for n, rho in TestSteckLattice.GRID + self.POINTS]
        peaks = {point: orthant._steck_log_peak(*point)[0] for point in points}
        monkeypatch.setattr(orthant, "_steck_start", lambda *point: peaks[point] + offset)
        for point, z in peaks.items():
            assert abs(orthant._steck_log_peak(*point)[0] - z) <= 4 * math.ulp(z), point


def scaled_ratio_inverse(n, rho, f):
    """Identity helper: f recovered from its own scaled ratio."""
    return scaled_ratio(n, rho, f) * n ** (1.0 - 1.0 / rho)


class TestDensityIntegral:
    @pytest.mark.parametrize("n, rho, reference", SMALL_RHO_LOG_REFERENCE)
    def test_small_rho_matches_mpmath(self, n, rho, reference):
        # e = 1/s - 1 is near 1/rho, and the integrand's terms of size e must
        # not cancel node by node; the measure is Steck's golden one
        log_f = math.log(density_integral(n, rho).value)
        assert abs(log_f - reference) / max(1.0, abs(reference)) <= 1e-13

    def test_golden_cells_match_mpmath(self):
        with STECK_REFERENCE.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 64
        worst = max(
            abs(math.log(density_integral(int(r["n"]), float(r["rho"])).value)
                - float(r["log_f"])) / max(1.0, abs(float(r["log_f"])))
            for r in rows
        )
        assert worst <= 1e-15

    def test_closed_form_case(self):
        assert density_integral(2, 0.5).value == pytest.approx(1.0 / 3.0, rel=1e-10)

    @pytest.mark.parametrize("n,rho", sorted(F_ORACLE))
    def test_matches_oracle(self, n, rho):
        assert density_integral(n, rho).value == pytest.approx(
            F_ORACLE[(n, rho)], rel=1e-9
        )

    def test_representation_equivalence_grid(self):
        worst = 0.0
        for rho in np.arange(0.1, 0.95, 0.1):
            for n in (2, 5, 10, 50, 200):
                a = steck_quadrature(n, float(rho)).value
                b = density_integral(n, float(rho)).value
                worst = max(worst, abs(a - b) / a)
        assert worst <= 1e-8

    @pytest.mark.parametrize("n,rho", [(10**6, 0.01)])
    def test_zero_raises(self, n, rho):
        # f(1e6, 0.01) is about 1e-594, below the smallest double
        with pytest.raises(ArithmeticError, match=rf"underflow.*n={n}, rho={rho}"):
            density_integral(n, rho)

    @pytest.mark.parametrize("n", [10**6, 10**7, 10**8])
    def test_rho_half_large_n_exact(self, n):
        # all the mass sits within about 1/n of x = 1
        assert density_integral(n, 0.5).value == pytest.approx(1.0 / (n + 1), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n,rho", [(10**5, 0.4), (10**5, 0.25)])
    def test_matches_steck_at_large_n(self, n, rho):
        assert density_integral(n, rho).value == pytest.approx(
            steck_quadrature(n, rho).value, rel=1e-12, abs=0.0
        )

    def test_endpoint_singularity_regime(self):
        # rho > 1/2 puts an algebraic singularity at x = 1; the substitution
        # must not lose accuracy there
        assert density_integral(3, 0.75).value == pytest.approx(
            steck_quadrature(3, 0.75).value, rel=1e-10
        )

    @pytest.mark.parametrize("n", [2, 3])
    def test_rho_near_one_exact(self, n):
        # at rho = 0.99999 the mass reaches min(x, 1-x) below exp(-1e4), where
        # ndtri_exp alone is up to 5e-13 off
        for rho in (0.99, 0.999, 0.9999, 0.99999):
            assert density_integral(n, rho).value == pytest.approx(
                closed_form(n, rho).value, rel=1e-13
            ), rho

    @pytest.mark.parametrize("n", [5, 10, 100, 1000])
    def test_rho_near_one_matches_steck(self, n):
        assert density_integral(n, 0.99).value == pytest.approx(
            steck_quadrature(n, 0.99).value, rel=1e-12
        )

    @pytest.mark.parametrize("n, reference", RHO_099_REFERENCE)
    def test_rho_near_one_large_n(self, n, reference):
        assert density_integral(n, 0.99).value == pytest.approx(reference, rel=1e-12)

    @pytest.mark.parametrize("bad", [2.0, math.nan, math.inf])
    def test_out_of_range_raises(self, bad, monkeypatch):
        # shift R at every node so that the rule's value at (10, 0.3) is bad
        offset = math.log(bad / density_integral(10, 0.3).value)
        density_rows = orthant._density_rows

        def shifted(t):
            rows = density_rows(t)
            rows[3] += offset  # R
            return rows

        monkeypatch.setattr(orthant, "_LATTICE", {})
        monkeypatch.setattr(orthant, "_density_rows", shifted)
        with pytest.raises(ArithmeticError, match=r"outside \[0, 1\].*n=10, rho=0.3"):
            density_integral(10, 0.3)

    def test_node_table_capped(self, monkeypatch):
        # this call halves 12 times, to lattice level 13, whose nodes over
        # |t| <= 16 would take 8.39 MB; the lattice holds the spans the call
        # reads, within the cap.  Under a smaller cap the levels past it are
        # rebuilt on each call, with the same values
        levels, lattice = [], orthant._lattice

        def spied(rows, width, level, first, last):
            levels.append(level)
            return lattice(rows, width, level, first, last)

        monkeypatch.setattr(orthant, "_LATTICE", {})
        monkeypatch.setattr(orthant, "_lattice", spied)
        value = orthant._density_log_f(445848393, 1.43e-5)
        assert max(levels) == 13
        assert TestSteckLattice.lattice_bytes() <= orthant.LATTICE_CACHE_BYTES
        assert orthant._density_log_f(445848393, 1.43e-5) == value
        monkeypatch.setattr(orthant, "_LATTICE", {})
        monkeypatch.setattr(orthant, "LATTICE_CACHE_BYTES", 10**5)
        for n, rho in TestSteckLattice.GRID[::7]:
            orthant._density_log_f(n, rho)
        assert orthant._density_log_f(445848393, 1.43e-5) == value
        assert TestSteckLattice.lattice_bytes() <= 10**5

    def test_unconverged_rule_raises(self, monkeypatch):
        monkeypatch.setattr(orthant, "HALVINGS", 1)
        with pytest.raises(ArithmeticError, match=r"converge.*n=10000, rho=0.99\)"):
            density_integral(10**4, 0.99)

    def test_span_past_table_raises(self):
        # at rho = 0.999999 the mass near x = 1 reaches past t = 16
        with pytest.raises(ArithmeticError, match=r"\|t\| = 16.*n=2, rho=0.999999"):
            density_integral(2, 0.999999)

    def test_count_is_nodes_evaluated(self, monkeypatch):
        # the first window takes the exponentials of the base grid and
        # _DENSITY_BATCH halvings at once, each later read those of one
        # halving's new nodes: together they cover the finest grid read exactly
        # once, the final grid is span 2^h + 1 nodes, and the nodes past it
        # number at most span (2^batch - 2).  (10^7, 0.05) halves past the batch
        exp, sizes = np.exp, []

        def counted_exp(x, *args, **kwargs):
            sizes.append(np.size(x))
            return exp(x, *args, **kwargs)

        batch = min(orthant._DENSITY_BATCH, orthant.HALVINGS)
        for n, rho in [(2, 0.3), (10**4, 0.99), (10**8, 0.5), (10**7, 0.05)]:
            # a fresh lattice, which the call's levels fit, so the second reads them
            monkeypatch.setattr(orthant, "_LATTICE", {})
            expected = density_integral(n, rho)  # builds the lattice levels
            sizes.clear()
            monkeypatch.setattr(orthant.np, "exp", counted_exp)
            est = density_integral(n, rho)
            monkeypatch.undo()
            assert est == expected
            span, rest = divmod(sizes[0] - 1, 2**batch)
            finest = batch + len(sizes) - 1
            assert rest == 0 and sizes[1:] == [span * 2 ** (h - 1)
                                               for h in range(batch + 1, finest + 1)]
            assert sum(sizes) == span * 2**finest + 1
            halvings = round(math.log2((est.count - 1) / span))
            assert est.count == span * 2**halvings + 1 and halvings >= 2
            assert finest == max(halvings, batch)
            assert sum(sizes) - est.count <= span * (2**batch - 2)


# four threads make a fresh process's first density_integral and
# steck_quadrature calls at once, so all of them build lattice levels while
# the others do; prints each thread's values or error
_FIRST_CALL_CHILD = """
import json, sys, threading
from simplex_orthant import orthant
assert orthant._LATTICE == {}
sys.setswitchinterval(1e-6)
barrier = threading.Barrier(4, timeout=60)
results = [None] * 4

def first_call(i):
    barrier.wait()
    try:
        results[i] = [repr(orthant.density_integral(50, 0.3).value),
                      repr(orthant.steck_quadrature(50, 0.3).value)]
    except Exception as exc:
        results[i] = repr(exc)

threads = [threading.Thread(target=first_call, args=(i,)) for i in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=120)
assert not any(t.is_alive() for t in threads)
print(json.dumps(results))
"""


class TestDensityTables:
    """Each lattice level is built by the first call that reads it."""

    def test_concurrent_first_calls_get_serial_value(self):
        env = dict(os.environ, PYTHONPATH=str(Path(orthant.__file__).parents[1]))
        serial = [repr(density_integral(50, 0.3).value), repr(steck_quadrature(50, 0.3).value)]
        for _ in range(3):
            out = subprocess.run(
                [sys.executable, "-c", _FIRST_CALL_CHILD],
                env=env, check=True, capture_output=True, text=True, timeout=300,
            ).stdout
            assert json.loads(out) == [serial] * 4


class TestMonteCarlo:
    def test_known_values(self):
        est = monte_carlo(2, 0.5, 1_000_000, seed=2024)
        assert abs(est.value - 1.0 / 3.0) <= 0.0015
        assert monte_carlo(1, 0.3, 1_000_000, seed=5).value == pytest.approx(0.5, abs=0.0015)
        assert monte_carlo(3, 0.0, 1_000_000, seed=5).value == pytest.approx(0.125, abs=0.0011)

    def test_oracle_cross_check(self):
        est = monte_carlo(6, 0.25, 2_000_000, seed=77)
        exact = steck_quadrature(6, 0.25).value
        assert abs(est.value - exact) <= 3.5 * est.std_error

    def test_std_error_formula(self):
        est = monte_carlo(2, 0.3, 40_000, seed=1)
        assert est.std_error == pytest.approx(
            math.sqrt(est.value * (1.0 - est.value) / 40_000), rel=1e-12
        )

    def test_thread_invariance(self):
        one = monte_carlo(4, 0.6, 300_000, seed=9, threads=1)
        four = monte_carlo(4, 0.6, 300_000, seed=9, threads=4)
        assert one.value == four.value

    def test_row_blocks_change_no_hit(self, monkeypatch):
        # the early exit draws whole columns of a chunk, never row blocks, so
        # a smaller memory budget changes no hit
        whole = monte_carlo(10, 0.3, 150_000, seed=12)
        monkeypatch.setattr(equicorrelated, "MEMORY_BUDGET_BYTES", 80 * 800)
        assert monte_carlo(10, 0.3, 150_000, seed=12) == whole

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("rho", [0.0, 0.01, 0.5, 0.99])
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 79, 81, 700])
    def test_row_minimum_count_is_exact(self, monkeypatch, n, rho, threads):
        # the hits against the rows with a positive minimum, over three
        # chunks of at most 4000 rows replayed with boolean masks: the first
        # Binomial(size, 1/2) rows get X_1 = |z_1|, each later column is
        # drawn for the rows still positive, -inf fills the rest, and
        # t = -c_j S_{j-1} is kept for every row
        trials, seed, chunk_size = 10_000, 31, 4_000
        monkeypatch.setattr(orthant, "CHUNK_SIZE", chunk_size)
        hits = 0
        for chunk, size in enumerate(equicorrelated._chunk_sizes(trials, chunk_size)):
            rng = equicorrelated.chunk_generator(seed, chunk)
            rows = np.full((size, n), -np.inf)
            t = np.zeros(size)
            alive = np.arange(size) < rng.binomial(size, 0.5)
            for j in range(n):
                sigma = equicorrelated.chain_law(rho, j + 1)[1] if j else 1.0
                step = sigma * rng.standard_normal(np.count_nonzero(alive))
                if not j:
                    step = np.abs(step)
                rows[alive, j] = step - t[alive]
                t[alive] -= equicorrelated.chain_law(rho, j + 2)[0] * step
                alive &= rows[:, j] > 0.0
            hits += int(np.count_nonzero(rows.min(axis=1) > 0.0))
        assert monte_carlo(n, rho, trials, seed, threads=threads).value == hits / trials

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("rho", [-0.1, -0.05, 0.0, 0.01, 0.5, 0.99])
    def test_nested_in_n(self, rho, threads):
        # a run at n draws the same first j columns as a run at j, so its
        # orthant lies inside theirs draw by draw
        values = [monte_carlo(j, rho, 150_000, seed=1601, threads=threads).value
                  for j in range(1, 11)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("rho", [0.0, 0.01, 0.5, 0.99])
    def test_each_depth_near_best_estimate(self, rho):
        for j in range(1, 11):
            est = monte_carlo(j, rho, 150_000, seed=1601, threads=2)
            assert abs(est.value - best_estimate(j, rho).value) <= 4.0 * est.std_error

    def test_deep_orthant(self):
        # f(1000, 1/2) = 1/1001: about 100 hits, from H_1000 = 7.5 normals a row
        est = monte_carlo(1000, 0.5, 100_000, seed=1602)
        assert abs(est.value - 1.0 / 1001.0) <= 4.0 * est.std_error

    # what a chunk holds on a thread: the t of its Binomial(size, 1/2)
    # rows with X_1 > 0, a normal buffer and a mask as long, and the
    # survivors' indices and values (1.72 to 1.74 of these units measured
    # at n = 3, 10 and 700, and 1.75 to 3.4 for two threads).  Each test
    # runs once before it measures, so the modules a process's first draw
    # imports (0.95 units) are not counted
    PER_THREAD = 2.25 * 8 * equicorrelated.CHUNK_SIZE

    def test_peak_memory_cache_sized(self):
        monte_carlo(10, 0.5, 10, seed=8, threads=2)
        tracemalloc.start()
        try:
            monte_carlo(10, 0.5, 200_000, seed=8, threads=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * self.PER_THREAD

    def test_peak_memory_within_budget(self):
        # one 100k-row chunk of n = 700 normals would take 560 MB
        n, trials = 700, 100_000
        assert trials * n * 8 > equicorrelated.MEMORY_BUDGET_BYTES
        monte_carlo(n, 0.5, 10, seed=4)
        tracemalloc.start()
        try:
            monte_carlo(n, 0.5, trials, seed=4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < self.PER_THREAD

    def test_domain(self):
        # rho <= -1/(n-1) leaves no covariance; rho in (-1/(n-1), 0) is drawn
        with pytest.raises(ValueError, match="outside"):
            monte_carlo(3, -0.5, 100, seed=0)
        with pytest.raises(ValueError, match="outside"):
            monte_carlo(2, -1.0, 100, seed=0)
        with pytest.raises(ValueError):
            monte_carlo(3, 0.5, 0, seed=0)

    @pytest.mark.parametrize("n, rho, seed, exact", [
        (2, -0.99, 990, 0.25 + math.asin(-0.99) / (2 * math.pi)),  # Sheppard
        (3, -0.49, 490, 0.125 + 3 * math.asin(-0.49) / (4 * math.pi)),  # David
    ])
    def test_negative_rho_near_the_domain_edge(self, n, rho, seed, exact):
        est = monte_carlo(n, rho, 1_000_000, seed=seed)
        assert abs(est.value - exact) <= 3.5 * est.std_error


class TestHighRhoBounds:
    def test_examples(self):
        f100 = steck_quadrature(100, 0.75).value
        assert 0.0 < bound_high_rho_lower(100, 0.75) <= f100
        assert bound_high_rho_upper(100, 0.75) >= f100
        assert 0.0 < bound_high_rho_lower(2, 0.9) <= closed_form(2, 0.9).value
        assert bound_high_rho_upper(2, 0.55) >= closed_form(2, 0.55).value

    def test_not_applicable(self):
        assert bound_high_rho_lower(10, 0.4) is None
        assert bound_high_rho_upper(10, 0.4) is None
        assert bound_high_rho_lower(1, 0.8) is None

    @pytest.mark.parametrize("rho", [0.6, 0.75, 0.9])
    @pytest.mark.parametrize("n", [2, 10, 100, 1000, 10_000])
    def test_sandwich(self, n, rho):
        f = steck_quadrature(n, rho).value
        assert bound_high_rho_lower(n, rho) <= f <= bound_high_rho_upper(n, rho)

    def test_upper_log_domain_near_one(self):
        # B(2, 1/rho - 1) diverges as rho -> 1; must stay finite, not overflow
        val = bound_high_rho_upper(10, 0.999999)
        assert math.isfinite(val) and val > 0.0


class TestLowRhoBounds:
    def test_gate(self):
        assert not low_rho_gate(3, 0.45) or bound_low_rho_lower(3, 0.45) is not None
        assert low_rho_gate(50, 0.25)
        assert not low_rho_gate(2, 0.05)

    def test_lower_examples(self):
        assert bound_low_rho_lower(50, 0.25) <= density_integral(50, 0.25).value
        assert bound_low_rho_lower(200, 0.4) <= steck_quadrature(200, 0.4).value

    def test_lower_not_applicable(self):
        assert bound_low_rho_lower(2, 0.05) is None
        assert bound_low_rho_lower(10, 0.6) is None

    def test_lower_may_be_negative_near_half(self):
        # Gamma(1/rho - 1) < 1 for rho close to 1/2: a valid but vacuous bound
        val = bound_low_rho_lower(1000, 0.45)
        assert val is not None and val < 0.0

    @pytest.mark.parametrize("rho", [0.2, 0.3, 0.4])
    @pytest.mark.parametrize("n", [10, 50, 200, 1000])
    def test_lower_sandwich(self, n, rho):
        lo = bound_low_rho_lower(n, rho)
        if lo is None:
            assert not low_rho_gate(n, rho)
        else:
            assert lo <= steck_quadrature(n, rho).value

    def test_upper_scaling(self):
        # formula homogeneity: the bracket enters to the power 1/rho - 2
        rho = 0.25
        a = bound_low_rho_upper(100, rho)
        expect = (
            100 ** (1.0 - 1.0 / rho)
            * math.sqrt((1.0 - rho) / rho)
            * ((1.0 / rho - 1.0) * math.log(100) ** 2) ** (1.0 / rho - 2.0)
        )
        assert a == pytest.approx(expect, rel=1e-12)

    def test_upper_empirical_threshold(self):
        # asymptotic bound with unspecified onset n0(rho); recorded smallest
        # n at which it held on a geometric grid to 1e6: n = 2 for each of
        # rho in {0.25, 0.3, 0.4}
        for rho in (0.25, 0.3, 0.4):
            for n in (2, 10, 100, 10_000):
                assert bound_low_rho_upper(n, rho) >= steck_quadrature(n, rho).value

    def test_upper_no_overflow_small_rho(self):
        assert math.isfinite(bound_low_rho_upper(100, 0.05))

    def test_past_double_range(self):
        # the upper bound passes the largest double at these points, and is inf;
        # past 1/rho - 1 = 171.6 Gamma(1/rho - 1) does, and the lower bound is
        # taken in logs, where it underflows to 0 at (1e5, 1e-3), about e^-4901
        assert bound_low_rho_upper(3, 1e-3) == bound_low_rho_upper(2, 1e-13) == math.inf
        for n, rho in [(3, 1e-3), (2, 1e-13), (10**5, 1e-3), (10**4, 0.005), (10**6, 0.003)]:
            theorem_bounds(n, rho)
        assert bound_low_rho_lower(10**5, 1e-3) == 0.0
        for n, rho in [(2300, 1 / 173), (2500, 1 / 180)]:
            with mp.workdps(40):
                b = 1 / mp.mpf(rho) - 1
                exact = mp.mpf(n) ** -b * 2 ** (b - 1) * mp.sqrt(b) * (mp.gamma(b) - 1)
            assert 0.0 < bound_low_rho_lower(n, rho) == pytest.approx(float(exact), rel=1e-11)


class TestScaledRatio:
    def test_exact_value(self):
        assert scaled_ratio(7, 0.5, 0.125) == pytest.approx(7.0 / 8.0, rel=1e-14)

    def test_identity(self):
        f = steck_quadrature(100, 0.75).value
        r = scaled_ratio(100, 0.75, f)
        assert r * 100 ** (1.0 - 1.0 / 0.75) == pytest.approx(f, rel=1e-12)

    def test_in_theorem_band(self):
        f = steck_quadrature(100, 0.75).value
        r = scaled_ratio(100, 0.75, f)
        lo = bound_high_rho_lower(100, 0.75) / 100 ** (1.0 - 1.0 / 0.75)
        hi = bound_high_rho_upper(100, 0.75) / 100 ** (1.0 - 1.0 / 0.75)
        assert lo <= r <= hi

    def test_log_domain_survives_extremes(self):
        assert math.isfinite(scaled_ratio(10**9, 0.9, 1e-300))

    def test_past_double_range_is_inf(self):
        # f / n^(1 - 1/rho) passes 1.8e308 here
        assert scaled_ratio(3, 1e-3, 0.125) == scaled_ratio(2, 1e-13, 0.25) == math.inf

    def test_domain(self):
        with pytest.raises(ValueError):
            scaled_ratio(10, 0.5, 0.0)
        with pytest.raises(ValueError):
            scaled_ratio(10, 0.5, 1.0)

    def test_rho_zero_named(self):
        # n^(1 - 1/rho) is undefined at rho = 0; the error must say so
        with pytest.raises(ValueError, match="rho"):
            scaled_ratio(2, 0.0, 0.25)


class TestRateEnvelope:
    def test_ratio_band_bounded_up_to_logs(self):
        # f(n, rho)/n^(1-1/rho) decays like 1/sqrt(log n); multiplied back it
        # should stay within a fixed band over three decades of n
        for rho in (0.6, 0.75, 0.9):
            vals = []
            for n in np.unique(np.geomspace(100, 100_000, 10).astype(int)):
                f = steck_quadrature(int(n), rho).value
                vals.append(scaled_ratio(int(n), rho, f) * math.sqrt(math.log(n)))
            assert max(vals) / min(vals) <= 10.0


class TestTheoremBounds:
    def test_high_rho_report(self):
        rep = theorem_bounds(100, 0.75)
        assert rep.lower_applicable and rep.upper_applicable
        assert not rep.upper_asymptotic
        assert rep.lower <= rep.upper
        assert rep.scale == pytest.approx(100 ** (1.0 - 1.0 / 0.75))

    def test_low_rho_report(self):
        rep = theorem_bounds(50, 0.25)
        assert rep.lower_applicable
        assert not rep.upper_applicable and rep.upper_asymptotic

    def test_gated_low_rho(self):
        rep = theorem_bounds(2, 0.05)
        assert not rep.lower_applicable and rep.lower is None

    def test_nonpositive_rho(self):
        rep = theorem_bounds(5, 0.0)
        assert not (rep.lower_applicable or rep.upper_applicable)

    @pytest.mark.parametrize("n, rho", [(100, 0.75), (50, 0.25), (2, 0.05), (5, 0.0)])
    def test_domain_checked_once(self, n, rho):
        # each bound checks (n, rho) itself, so one called alone raises
        # outside the domain as the report does
        theorem_bounds(n, rho)
        for bound in (bound_high_rho_lower, bound_high_rho_upper,
                      bound_low_rho_lower, bound_low_rho_upper):
            with pytest.raises(ValueError, match="outside"):
                bound(3, -0.6)
        with pytest.raises(ValueError, match="outside"):
            theorem_bounds(3, -0.6)

    def test_gamma_factors_from_math_lgamma(self):
        # B(2, b) and Gamma(b) from math.lgamma, as log B(a, b)
        # = lgamma(a) + lgamma(b) - lgamma(a + b)
        for n, rho in ((10, 0.6), (1000, 0.9), (10**8, 0.55)):
            b = 1.0 / rho - 1.0
            assert bound_high_rho_upper(n, rho) == (
                n ** (1.0 - 1.0 / rho) * 2.0 ** (1.0 / rho - 2.0) * math.sqrt((1.0 - rho) / rho)
                * (1.0 + math.exp(math.lgamma(2.0) + math.lgamma(b) - math.lgamma(2.0 + b)))
            )
        for n, rho in ((50, 0.25), (10**4, 0.05), (10**8, 0.45)):
            assert bound_low_rho_lower(n, rho) == (
                n ** (1.0 - 1.0 / rho) * 2.0 ** (1.0 / rho - 2.0) * math.sqrt((1.0 - rho) / rho)
                * (math.exp(math.lgamma(1.0 / rho - 1.0)) - 1.0)
            )


class TestBoundContains:
    def test_high_rho_checks_both_sides(self):
        rep = theorem_bounds(100, 0.75)
        f = steck_quadrature(100, 0.75).value
        assert rep.contains(f) is True
        assert rep.contains(0.5 * rep.lower) is False
        assert rep.contains(2.0 * rep.upper) is False

    def test_low_rho_inside_gate_ignores_asymptotic_upper(self):
        rep = theorem_bounds(1000, 0.3)
        assert low_rho_gate(1000, 0.3) and rep.upper_asymptotic
        assert rep.contains(steck_quadrature(1000, 0.3).value) is True
        # above the asymptotic upper bound, which is never asserted
        assert rep.upper < 0.5 and rep.contains(0.5) is True
        assert rep.lower > 0.0 and rep.contains(0.5 * rep.lower) is False

    def test_low_rho_outside_gate(self):
        assert not low_rho_gate(2, 0.05)
        assert theorem_bounds(2, 0.05).contains(0.25) is None

    @pytest.mark.parametrize("n, rho", [(9, 0.5), (5, 0.0), (2, -0.05), (3, -0.3)])
    def test_no_certified_bound(self, n, rho):
        assert theorem_bounds(n, rho).contains(0.1) is None


class TestMonotonicity:
    @pytest.mark.parametrize("n", [2, 5, 20])
    def test_nondecreasing_in_rho(self, n):
        vals = [steck_quadrature(n, float(r)).value for r in np.arange(0.05, 1.0, 0.05)]
        assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("rho", [0.25, 0.5, 0.75])
    def test_nonincreasing_in_n(self, rho):
        vals = [steck_quadrature(n, rho).value for n in range(1, 30)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


class TestBestEstimate:
    def test_closed_form_priority(self):
        assert best_estimate(9, 0.5).method == "closed_form"
        assert best_estimate(9, 0.5).value == pytest.approx(0.1, rel=1e-15)
        assert best_estimate(2, 0.8).method == "closed_form"

    def test_quadrature_fallback(self):
        est = best_estimate(9, 0.3)
        assert est.method == "steck_quadrature"
        assert est.value == pytest.approx(steck_quadrature(9, 0.3).value)

    def test_rejects_uncovered_negative_rho(self):
        with pytest.raises(ValueError):
            best_estimate(9, -0.05)
