"""Simplex geometry, the polynomial ensemble, and the vertex-maximum experiments."""

import ctypes
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplex_orthant import equicorrelated, normal, orthant
from simplex_orthant import simplex as sx
from simplex_orthant.simplex import (
    BombieriPolynomial,
    ResourceBudgetError,
    build_geometry,
    coefficient_count,
    coefficient_variances,
    derivative_inner_product,
    derivative_norm_squared,
    directional_derivative,
    edge_correlations,
    edge_covariance,
    edge_frame,
    epsilon_n,
    estimate_union_probability,
    estimate_vertex_probability,
    gradient_correlations,
    independent_union_approx,
    is_vertex_max,
    multi_index_table,
    rho_n,
    sample_polynomial,
    tv_exact,
    tv_pipeline,
)
from simplex_orthant.equicorrelated import tv_bound_frobenius

INDEP_UNION_7 = 0.65639108419418335  # 1 - (7/8)^8


def dot_product_polynomial(n: int, k: int, u: np.ndarray) -> BombieriPolynomial:
    """<x, u>^k expanded over the dense multi-index table."""
    exponents = multi_index_table(n, k)
    coeffs = coefficient_variances(n, k) * np.prod(
        np.asarray(u, dtype=float)[None, :] ** exponents, axis=1
    )
    return BombieriPolynomial(n=n, k=k, coefficients=coeffs)


def coefficient_matrix(n: int, k: int) -> np.ndarray:
    """Design rows times sigma: B, whose B z are the derivatives of coefficients sigma * z."""
    return sx._design_matrix(n, k) * np.sqrt(coefficient_variances(n, k))


def edge_index(n: int, i: int, l: int) -> int:
    """Row of the edge derivative at vertex i toward vertex l, in `_design_matrix` order."""
    return i * n + l - (l > i)


def exact_edge_covariance(n: int, k: int) -> list:
    """The dual inner product formula in Fractions, over the ambient simplex.

    a_i = e_i - z and v = (e_i - e_l)/sqrt(2), so <v,w> and <v,b><a,w> are
    rational halves of rational dot products.
    """
    def dot(x, y):
        return sum(p * q for p, q in zip(x, y))

    vertices = [[Fraction(int(i == j)) - Fraction(1, n + 1) for j in range(n + 1)]
                for i in range(n + 1)]
    edges = [(i, [int(j == i) - int(j == l) for j in range(n + 1)])
             for i in range(n + 1) for l in range(n + 1) if l != i]
    rows = []
    for i, v in edges:
        row = []
        for j, w in edges:
            ab = dot(vertices[i], vertices[j])
            vb_aw = dot(v, vertices[j]) * dot(vertices[i], w) / 2
            row.append(k * Fraction(dot(v, w), 2) * ab ** (k - 1) + (k * k - k) * vb_aw * ab ** (k - 2))
        rows.append(row)
    return rows


def replay_union(n: int, k: int, trials: int, seed: int) -> tuple[int, int, int]:
    """(union hits, vertex-0 hits, normals drawn) of the union's stated law, replayed.

    Each chunk draws from chunk_generator in the stated order into a
    size x columns array: vertex 0's columns for every row, then vertex v's
    for the rows with no maximum yet.  Every vertex's derivatives are
    computed for all rows, and a row counts at the first vertex where all n
    of them are positive.
    """
    factor, _ = sx._vertex_factor(edge_covariance(n, k), n)
    # the columns that vertices 0..v use
    ends = [np.count_nonzero(np.any(factor[: (v + 1) * n] != 0.0, axis=0)) for v in range(n + 1)]
    union = vertex = normals = 0
    for chunk, size in enumerate(equicorrelated._chunk_sizes(trials, sx.CHUNK_SIZE)):
        rng = equicorrelated.chunk_generator(seed, chunk)
        z = np.zeros((size, factor.shape[1]))
        open_rows = np.ones(size, dtype=bool)
        for v in range(n + 1):
            start = ends[v - 1] if v else 0
            shape = (np.count_nonzero(open_rows), ends[v] - start)
            z[open_rows, start : ends[v]] = rng.standard_normal(shape)
            normals += shape[0] * shape[1]
            derivs = z[:, : ends[v]] @ factor[v * n : (v + 1) * n, : ends[v]].T
            maximum = open_rows & np.all(derivs > 0.0, axis=1)
            union += np.count_nonzero(maximum)
            vertex += np.count_nonzero(maximum) if v == 0 else 0
            open_rows &= ~maximum
    return union, vertex, normals


def copied_factor(n: int, k: int):
    """`_vertex_factor`'s Cholesky, its kept columns copied out and its ends read off the pivots.

    The same blocked pivot-free loop in the same order, so its columns are
    bit-equal to the ones `_vertex_factor` compacts in place.
    """
    m = n * (n + 1)
    a = edge_covariance(n, k)
    tol = sx.FACTOR_TOL * float(a.diagonal().max())
    kept = []
    with sx._one_blas_thread():
        for lo in range(0, m, n):
            hi = lo + n
            panel = a[lo:, lo:hi]
            for j in range(n):
                pivot = panel[j, j]
                if pivot <= tol:
                    panel[:, j] = 0.0
                    continue
                kept.append(lo + j)
                column = panel[j:, j]
                column /= math.sqrt(pivot)
                panel[j + 1 :, j + 1 :] -= np.outer(column[1:], column[1 : n - j])
            panel[np.triu_indices(n, 1)] = 0.0
            a[:lo, lo:hi] = 0.0
            for r in range(hi, m, n):
                a[r : r + n, hi : r + n] -= a[r : r + n, lo:hi] @ a[hi : r + n, lo:hi].T
    factor = a[:, kept]
    return factor, np.searchsorted((factor != 0.0).argmax(axis=0), np.arange(n, m + 1, n))


def counted_normals(monkeypatch) -> list:
    """The sizes of the normal draws made through simplex.chunk_generator from now on."""
    sizes = []
    original = sx.chunk_generator

    class Counted:
        def __init__(self, rng):
            self.rng = rng

        def standard_normal(self, *args, **kwargs):
            out = self.rng.standard_normal(*args, **kwargs)
            sizes.append(out.size)
            return out

    monkeypatch.setattr(sx, "chunk_generator", lambda seed, chunk: Counted(original(seed, chunk)))
    return sizes


class TestGeometry:
    def test_segment(self):
        geom = build_geometry(1)
        assert np.allclose(geom.vertices, [[0.5, -0.5], [-0.5, 0.5]])
        assert np.allclose(np.sum(geom.vertices**2, axis=1), 0.5)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 20, np.int64(5)])
    def test_invariants(self, n):
        geom = build_geometry(n)
        assert np.allclose(geom.vertices.sum(axis=0), 0.0, atol=1e-12)
        norms = np.sum(geom.embedded**2, axis=1)
        assert np.allclose(norms, n / (n + 1), atol=1e-12)
        gram = geom.embedded @ geom.embedded.T
        cosines = gram / (n / (n + 1))
        off = cosines[~np.eye(n + 1, dtype=bool)]
        assert np.allclose(off, -1.0 / n, atol=1e-12)

    def test_embedding_orthonormal(self):
        geom = build_geometry(6)
        assert np.allclose(geom.embedding @ geom.embedding.T, np.eye(6), atol=1e-12)
        # embedding preserves the ambient inner products exactly
        assert np.allclose(
            geom.embedded @ geom.embedded.T, geom.vertices @ geom.vertices.T, atol=1e-12
        )

    @pytest.mark.parametrize("n", [1, 2, 5, 30])
    def test_helmert_rows_and_embedded_vertices(self, n):
        # row i - 1 is (1, ..., 1, -i, 0, ...) / sqrt(i(i+1)), entry by entry;
        # e_i - z has coordinates embedding[:, i], as the rows are orthogonal to 1
        geom = build_geometry(n)
        for i in range(1, n + 1):
            row = np.zeros(n + 1)
            row[:i], row[i] = 1.0, -float(i)
            assert np.array_equal(geom.embedding[i - 1], row / math.sqrt(i * (i + 1)))
        assert np.array_equal(geom.embedded, geom.embedding.T)
        assert np.max(np.abs(geom.vertices @ geom.embedding.T - geom.embedded)) <= 4 * np.finfo(float).eps

    def test_domain(self):
        with pytest.raises(ValueError):
            build_geometry(0)

    @pytest.mark.parametrize("n", [3.0, np.float64(4), math.inf, math.nan])
    def test_non_integer_n_raises(self, n):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            build_geometry(n)


class TestEdgeFrame:
    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_invariants(self, n):
        geom = build_geometry(n)
        for vertex in range(n + 1):
            frame = edge_frame(geom, vertex)
            assert np.allclose(np.linalg.norm(frame.directions, axis=1), 1.0, atol=1e-12)
            gram = frame.directions @ frame.directions.T
            off = gram[~np.eye(n, dtype=bool)]
            assert np.allclose(off, 0.5, atol=1e-12)
            a = geom.embedded[vertex]
            assert np.allclose(frame.directions @ a, 1.0 / math.sqrt(2.0), atol=1e-12)

    def test_domain(self):
        geom = build_geometry(2)
        with pytest.raises(ValueError):
            edge_frame(geom, 3)
        with pytest.raises(ValueError):
            edge_frame(geom, -1)


class TestDerivativeInnerProduct:
    @pytest.mark.parametrize("n,k", [(2, 2), (3, 3), (5, 5)])
    def test_same_vertex_norm(self, n, k):
        geom = build_geometry(n)
        frame = edge_frame(geom, 0)
        a = geom.embedded[0]
        v = frame.directions[0]
        got = derivative_inner_product(v, a, v, a, k)
        assert got == pytest.approx(derivative_norm_squared(n, k), rel=1e-12)

    def test_orthogonal_base_points_k3(self):
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, 0.0])
        assert derivative_inner_product(b, a, a, b, 3) == 0.0

    def test_orthogonal_base_points_k2(self):
        # the first term vanishes with <a,b>, but k=2 keeps the second one
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        assert derivative_inner_product(b, a, a, b, 2) == pytest.approx(2.0, rel=1e-14)

    def test_symmetry(self):
        rng = np.random.Generator(np.random.Philox(key=3))
        for k in (2, 3, 5):
            v, a, w, b = rng.standard_normal((4, 6))
            assert derivative_inner_product(v, a, w, b, k) == pytest.approx(
                derivative_inner_product(w, b, v, a, k), rel=1e-12
            )

    def test_matches_coefficient_covariance(self):
        # the analytic dual inner product equals the covariance implied by the
        # coefficient ensemble through the design rows
        n, k = 3, 4
        geom = build_geometry(n)
        var = coefficient_variances(n, k)
        exponents = multi_index_table(n, k)
        fa, fb = edge_frame(geom, 0), edge_frame(geom, 1)
        a, b = geom.embedded[0], geom.embedded[1]
        for v in fa.directions[:2]:
            for w in fb.directions[:2]:
                (row_a,) = sx._derivative_rows(exponents, a, v[None, :])
                (row_b,) = sx._derivative_rows(exponents, b, w[None, :])
                assert float(np.sum(var * row_a * row_b)) == pytest.approx(
                    derivative_inner_product(v, a, w, b, k), rel=1e-10
                )

    def test_domain(self):
        with pytest.raises(ValueError):
            derivative_inner_product([1.0], [1.0], [1.0], [1.0], 1)


class TestEdgeCovariance:
    @pytest.mark.parametrize("n,k", [(2, 2), (3, 3), (4, 4), (4, 5), (10, 5)])
    def test_matches_coefficient_law(self, n, k):
        # the closed form is the covariance the coefficient draws induce
        design = sx._design_matrix(n, k)
        implied = (design * coefficient_variances(n, k)) @ design.T
        cov = edge_covariance(n, k)
        assert cov.shape == implied.shape == (n * (n + 1), n * (n + 1))
        assert np.max(np.abs(cov - implied)) <= 1e-12 * np.max(np.abs(implied))

    @pytest.mark.parametrize("n,k", [(1, 3), (2, 2), (3, 3), (4, 4), (4, 5), (10, 5),
                                     (20, 2), (30, 2), (30, 5)])
    def test_factor_reproduces_covariance(self, n, k):
        cov = edge_covariance(n, k)
        factor, ends = sx._vertex_factor(cov.copy(), n)
        # the residual grows with the dropped columns where d < m: 3.1e-12 at
        # (30, 2), a 62nd of the bound
        m = n * (n + 1)
        eps = np.finfo(float).eps
        assert np.max(np.abs(factor @ factor.T - cov)) <= m * m * eps * np.max(np.abs(cov))
        # singular whenever d < m, e.g. rank 10 of 12 at (3, 3)
        assert factor.shape[1] == min(coefficient_count(n, k), m)
        if m * coefficient_count(n, k) <= 4_000_000:  # not the 930 x 278256 design at (30, 5)
            assert factor.shape[1] == np.linalg.matrix_rank(sx._design_matrix(n, k))
        # lower triangular in vertex order: each column is zero above a
        # positive pivot entry, in a later row than the column before's, so
        # vertex v's rows use only the columns kept at vertices 0..v
        pivots = (factor != 0.0).argmax(axis=0)
        assert np.all(np.diff(pivots) > 0)
        assert np.all(factor[pivots, np.arange(factor.shape[1])] > 0.0)
        assert np.all(factor[np.arange(len(factor))[:, None] < pivots] == 0.0)
        assert np.array_equal(ends, np.searchsorted(pivots, np.arange(n, m + 1, n)))
        if factor.shape[1] == len(cov):
            # without pivoting the factor is the Cholesky factor: no basis is chosen
            assert np.max(np.abs(factor - np.linalg.cholesky(cov))) <= 1e-12 * np.max(np.abs(cov))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_in_place_factor_equals_copied(self, n):
        # compacting in place moves the same bits as copying a[:, kept]: 10
        # of 12 columns at (3, 3), 36 of 72 at (8, 2), all at (4, 4)
        for k in range(2, 9):
            with sx._one_blas_thread():  # as the union factors it
                factor, ends = sx._vertex_factor(edge_covariance(n, k), n)
            expected, expected_ends = copied_factor(n, k)
            assert np.array_equal(factor, expected), (n, k)
            assert np.array_equal(ends, expected_ends), (n, k)

    @pytest.mark.parametrize("n, k", [(30, 5), (30, 2)])
    def test_factor_holds_one_array(self, n, k):
        # the factor is a view of the factored covariance, its kept columns
        # moved to the front at (30, 2), where 465 of 930 are dropped; with
        # the edge table, 1.05 (n(n+1))^2 words
        m = n * (n + 1)
        tracemalloc.start()
        try:
            factor, _ = sx._vertex_factor(edge_covariance(n, k), n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert factor.shape == (m, min(coefficient_count(n, k), m))
        assert peak <= 1.15 * 8 * m * m

    @pytest.mark.parametrize("n", range(1, 13))
    def test_design_rank_is_the_lesser_count(self, n):
        # R = D diag(var) D^T has the rank of the scaled design D sqrt(var):
        # min(d, n(n+1)) at every k = 2..8 whose design has at most 4e6 entries,
        # so `tv_exact` may read singularity off the coefficient count
        m = n * (n + 1)
        ks = [k for k in range(2, 9) if m * coefficient_count(n, k) <= 4_000_000]
        assert ks
        for k in ks:
            d = coefficient_count(n, k)
            scaled = sx._design_matrix(n, k) * np.sqrt(coefficient_variances(n, k))
            assert np.linalg.matrix_rank(scaled) == min(d, m), (n, k)
            assert sx._vertex_factor(edge_covariance(n, k), n)[0].shape[1] == min(d, m), (n, k)
            if n >= 2:
                assert (tv_exact(n, k) is None) == (d < m), (n, k)

    def test_vertex_subset_is_a_block(self):
        full = edge_covariance(5, 4)
        # the same-vertex block is equicorrelated with rho_n
        block = full[:5, :5] / derivative_norm_squared(5, 4)
        assert np.allclose(block[~np.eye(5, dtype=bool)], rho_n(5, 4), rtol=1e-13)

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("k", range(2, 9))
    def test_matches_exact_rationals(self, n, k):
        # the formula evaluated in Fractions on the ambient simplex: each entry
        # within 2.3e-16 of the largest
        exact = exact_edge_covariance(n, k)
        cov = edge_covariance(n, k)
        largest = max(abs(x) for row in exact for x in row)
        worst = max(abs(Fraction(float(cov[p, q])) - x)
                    for p, row in enumerate(exact) for q, x in enumerate(row))
        assert worst <= Fraction(2.3e-16) * largest

    @pytest.mark.parametrize("k", range(2, 9))
    def test_takes_the_pattern_values(self, k):
        # one value per overlap class (the same pair, the same vertex, reversed,
        # the same far end, a chain, disjoint): 6 for n >= 3, 5 at n = 2 and 2
        # at n = 1, except where two classes' rationals coincide, at (2, 2)
        # and at n = 1 for even k
        for n in range(1, 31):
            exact = exact_edge_covariance(n, k) if n <= 4 else None
            distinct = len(np.unique(edge_covariance(n, k)))
            if exact is not None:
                assert distinct == len({x for row in exact for x in row}), (n, k)
            expected = {1: 2 - (k % 2 == 0), 2: 5 - (k == 2)}.get(n, 6)
            assert distinct == expected, (n, k)

    @pytest.mark.parametrize("n", [2, 3, 10, 30])
    @pytest.mark.parametrize("k", range(2, 9))
    def test_matches_helmert_geometry(self, n, k):
        # each overlap class against the dual inner product of the embedded
        # vertices and edge frames: edge (i, l) at vertex i toward vertex l
        geom = build_geometry(n)
        cov = edge_covariance(n, k)

        def functional(i, l):
            direction = edge_frame(geom, i).directions[l - (l > i)]
            return direction, geom.embedded[i]

        a, b, c, d = 0, n, 1, 2
        pairs = [((a, b), (a, b)), ((a, b), (a, c)), ((a, b), (b, a)),
                 ((a, b), (c, b)), ((a, b), (b, c)), ((a, b), (c, a))]
        if n >= 3:
            pairs.append(((a, b), (c, d)))
        for p, q in pairs:
            expected = derivative_inner_product(*functional(*p), *functional(*q), k)
            got = cov[edge_index(n, *p), edge_index(n, *q)]
            assert abs(got - expected) <= 1e-14 * derivative_norm_squared(n, k), (p, q)

    def test_one_array_peak(self):
        # the covariance is the one n(n+1)-square array; the edge table is
        # n(n+1) x (n+1)
        n, k = 30, 5
        m = n * (n + 1)
        tracemalloc.start()
        try:
            edge_covariance(n, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.15 * 8 * m * m

    def test_budget_counts_one_array(self, monkeypatch):
        n, k = 6, 4
        m = n * (n + 1)
        need = 8 * m * (m + n + 1)
        monkeypatch.setattr(equicorrelated, "MEMORY_BUDGET_BYTES", need - 1)
        with pytest.raises(ResourceBudgetError, match=f"{m} x {m} edge-covariance array"):
            edge_covariance(n, k)
        monkeypatch.setattr(equicorrelated, "MEMORY_BUDGET_BYTES", need)
        assert edge_covariance(n, k).shape == (m, m)

    def test_wall_is_n_76(self, monkeypatch):
        # n = 75 fits the budget (5700 x 5776 words) and n = 76 does not;
        # the n = 75 figure is read without building anything
        with pytest.raises(ResourceBudgetError, match="5852 x 5852 edge-covariance array"):
            edge_covariance(76, 3)

        class Counted(Exception):
            pass

        def record(need, what):
            raise Counted(need)

        monkeypatch.setattr(sx, "check_bytes", record)
        with pytest.raises(Counted) as counted:
            edge_covariance(75, 3)
        assert counted.value.args[0] == 8 * 5700 * 5776 <= equicorrelated.MEMORY_BUDGET_BYTES

    def test_no_geometry_or_blas_pin(self, monkeypatch):
        expected = edge_covariance(6, 4)

        def refuse(*args):
            raise AssertionError("edge_covariance left the exact inner products")

        for name in ("build_geometry", "edge_frame", "_one_blas_thread"):
            monkeypatch.setattr(sx, name, refuse)
        assert np.array_equal(edge_covariance(6, 4), expected)

    def test_refused_before_geometry(self):
        # the 36006000-square array and the edge table are counted before
        # either is built
        tracemalloc.start()
        try:
            with pytest.raises(ResourceBudgetError,
                               match="36006000 x 36006000 edge-covariance array and 36006000 x 6001 edge table"):
                edge_covariance(6000, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_budget_checked_before_eigh(self, monkeypatch):
        # the union factors its covariance with no eigh, and checks the budget
        # before the covariance is built: at (76, 3) its 5852 x 5852 array
        # does not fit; at (70, 3) it fits with 10 trials, and at (47, 5)
        # with 6000, but not with one 6250-trial chunk's arrays (270 MB)
        def no_eigh(*args):
            raise AssertionError("eigh ran")

        def no_covariance(*args):
            raise AssertionError("the covariance was built")

        monkeypatch.setattr(sx.np.linalg, "eigh", no_eigh)
        assert estimate_union_probability(4, 4, 1000, seed=1).estimate > 0.0
        with pytest.raises(ResourceBudgetError, match=r"budget"):
            edge_covariance(200, 3)
        monkeypatch.setattr(sx, "edge_covariance", no_covariance)
        with pytest.raises(ResourceBudgetError, match=r"5852 x 5852 edge-covariance array, its "
                                                      r"5852 x 77 edge table and one chunk's"):
            estimate_union_probability(76, 3, 1, seed=1)
        with pytest.raises(ResourceBudgetError, match=r"6250 x \(2 x 2256 \+ 48\) arrays"):
            estimate_union_probability(47, 5, 10**6, seed=1)
        for n, k, trials in ((70, 3, 10), (47, 5, 6000)):
            with pytest.raises(AssertionError, match="the covariance was built"):
                estimate_union_probability(n, k, trials, seed=1)

    def test_union_walls(self, monkeypatch):
        # the covariance with its edge table and one chunk's arrays: n = 75
        # fits up to 55 trials, n = 76 at no trial count, and full 6250-trial
        # chunks stop at n = 46 for k = 5; read without building anything
        class Counted(Exception):
            pass

        def record(need, what):
            raise Counted(need)

        monkeypatch.setattr(sx, "check_bytes", record)
        budget = equicorrelated.MEMORY_BUDGET_BYTES
        for n, k, trials, fits in ((75, 3, 10, True), (75, 3, 55, True), (75, 3, 56, False),
                                   (76, 3, 1, False), (46, 5, 10**6, True), (47, 5, 10**6, False)):
            with pytest.raises(Counted) as counted:
                estimate_union_probability(n, k, trials, seed=1)
            assert (counted.value.args[0] <= budget) == fits, (n, k, trials)


class TestRhoEpsilon:
    def test_rho_values(self):
        assert rho_n(2, 2) == pytest.approx(5.0 / 7.0, rel=1e-15)
        assert rho_n(10, 5) == pytest.approx(54.0 / 64.0, rel=1e-15)
        assert rho_n(10, 5) == 0.84375

    def test_rho_range_and_limit(self):
        for k in range(2, 9):
            for n in (1, 2, 10, 1000):
                assert 0.5 < rho_n(n, k) < 1.0
        assert rho_n(10**9, 3) == pytest.approx(0.75, abs=1e-8)

    def test_rho_from_inner_products(self):
        # rho_n is the correlation of two same-vertex edge derivatives
        for n, k in ((2, 2), (4, 3), (7, 5)):
            geom = build_geometry(n)
            frame = edge_frame(geom, 0)
            a = geom.embedded[0]
            cross = derivative_inner_product(
                frame.directions[0], a, frame.directions[1], a, k
            )
            assert cross / derivative_norm_squared(n, k) == pytest.approx(
                rho_n(n, k), rel=1e-12
            )

    def test_epsilon_values(self):
        assert epsilon_n(10, 5) == pytest.approx(4.5556e-4, rel=1e-4)
        assert epsilon_n(10, 5) == pytest.approx(4.1 / 9000.0, rel=1e-14)
        # k = 2 has no n^(k-2) decay
        assert epsilon_n(50, 2) == pytest.approx((1.0 / 3.0) * (1.0 / 50.0 + 1.0))

    def test_epsilon_dominates_non_shared_edges(self):
        # epsilon bounds every cross-vertex correlation except the pair of
        # antipodal directions along the shared edge (see the next test)
        for k in (2, 3, 5):
            for n in (2, 5, 10, 20):
                geom = build_geometry(n)
                norm2 = derivative_norm_squared(n, k)
                eps = epsilon_n(n, k)
                va, vb = 0, 1
                fa, fb = edge_frame(geom, va), edge_frame(geom, vb)
                a, b = geom.embedded[va], geom.embedded[vb]
                ia, ib = vb - 1, va  # shared-edge direction indices
                for i, v in enumerate(fa.directions):
                    for j, w in enumerate(fb.directions):
                        if i == ia and j == ib:
                            continue
                        r = abs(derivative_inner_product(v, a, w, b, k)) / norm2
                        assert r <= eps

    @pytest.mark.parametrize("n", (2, 3, 5, 10, 50, 300))
    @pytest.mark.parametrize("k", range(2, 13))
    def test_shared_edge_exceeds_epsilon_boundedly(self, n, k):
        # the antipodal shared-edge pair has correlation
        # r = n^-(k-2) ((k-1)n + k + 1) / ((k+1)n + k - 1), which exceeds
        # epsilon by a factor falling in n from (2k-1)/k to (2k-1)/(k+1)
        geom = build_geometry(n)
        fa, fb = edge_frame(geom, 0), edge_frame(geom, 1)
        r = abs(
            derivative_inner_product(
                fa.directions[0], geom.embedded[0],
                fb.directions[0], geom.embedded[1], k,
            )
        ) / derivative_norm_squared(n, k)
        exact = n ** -(k - 2) * ((k - 1) * n + k + 1) / ((k + 1) * n + k - 1)
        assert r == pytest.approx(exact, rel=1e-12, abs=0.0)
        if (n, k) == (10, 5):
            assert r == pytest.approx(7.1875e-4, rel=1e-12)
        factor = r / epsilon_n(n, k)
        assert (2 * k - 1) / (k + 1) < factor <= (2 * k - 1) / k * (1 + 1e-12) < 2
        if k <= 5:
            # the 1.75 cap is attained at (2, 5) and fails from (2, 6) on (1.789)
            assert factor <= 1.75 * (1 + 1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            rho_n(0, 2)
        with pytest.raises(ValueError):
            epsilon_n(3, 1)


# every public function of (dimension n, degree k), with its other arguments
DEGREE_ENTRY_POINTS = {
    "rho_n": rho_n,
    "epsilon_n": epsilon_n,
    "coefficient_count": coefficient_count,
    "coefficient_variances": coefficient_variances,
    "derivative_norm_squared": derivative_norm_squared,
    "analytic_vertex_probability": sx.analytic_vertex_probability,
    "edge_covariance": edge_covariance,
    "edge_correlations": edge_correlations,
    "tv_pipeline": tv_pipeline,
    "tv_exact": tv_exact,
    "independent_union_approx": lambda n, k: independent_union_approx(n, k, 0.5),
    "sample_polynomial": lambda n, k: sample_polynomial(n, k, seed=1),
    "estimate_vertex_probability": lambda n, k: estimate_vertex_probability(n, k, 100, 1),
    "estimate_union_probability": lambda n, k: estimate_union_probability(n, k, 100, 1),
    "gradient_correlations": lambda n, k: gradient_correlations(n, k, 100, 1),
}


class TestCheckDegree:
    @pytest.mark.parametrize("n, k", [(2.5, 3), (0, 3), (3, 1), (3, 2.5), (3, 3.0)])
    @pytest.mark.parametrize("name", DEGREE_ENTRY_POINTS)
    def test_bad_degree_raises_value_error(self, name, n, k):
        # rho_n(2.5, 3) returned 0.7917, and a float k escaped math.comb as a TypeError
        with pytest.raises(ValueError, match=rf"got \(n={n!r}, k={k!r}\)"):
            DEGREE_ENTRY_POINTS[name](n, k)

    def test_integer_types_accepted(self):
        assert rho_n(np.int64(3), np.int32(4)) == rho_n(3, 4)
        sx.check_degree(2, 2, least_n=2)
        with pytest.raises(ValueError, match=r"n >= 2"):
            sx.check_degree(1, 2, least_n=2)


def tuple_table(n: int, k: int) -> np.ndarray:
    """The exponent table built from k-tuples and sorted: the reference order."""
    rows = []
    for combo in combinations_with_replacement(range(n), k):
        alpha = [0] * n
        for i in combo:
            alpha[i] += 1
        rows.append(tuple(alpha))
    rows.sort(reverse=True)
    return np.array(rows, dtype=np.int64).reshape(-1, n)


class TestMultiIndexTable:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_tuple_build(self, n):
        for k in range(0, 9):
            table = multi_index_table(n, k)
            assert table.dtype == np.int64
            assert np.array_equal(table, tuple_table(n, k)), (n, k)

    @pytest.mark.parametrize("n, k", [(0, 3), (3, 2.5), (2.5, 3), (3, -1), (3.0, 2)])
    def test_bad_arguments_raise(self, n, k):
        # (0, 3) returned [[3]] and (3, 2.5) fractional exponents
        with pytest.raises(ValueError, match=rf"got \(n={n!r}, k={k!r}\)"):
            multi_index_table(n, k)

    def test_large_degree(self):
        # one tuple per row took minutes here; the direct build takes no sort
        k = 300_000
        table = multi_index_table(2, k)
        assert table.shape == (k + 1, 2)
        assert np.array_equal(table, np.column_stack((np.arange(k, -1, -1), np.arange(k + 1))))


class TestSamplePolynomial:
    def test_variances_2_2(self):
        assert np.allclose(coefficient_variances(2, 2), [1.0, 2.0, 1.0])

    def test_single_coefficient(self):
        p = sample_polynomial(1, 3, seed=0)
        assert p.coefficients.shape == (1,)
        assert np.allclose(coefficient_variances(1, 3), [1.0])

    def test_dimension_count(self):
        assert coefficient_count(4, 5) == math.comb(8, 5)
        assert len(sample_polynomial(3, 4, seed=1).coefficients) == math.comb(6, 4)

    def test_norm_square_mean(self):
        # E ||P||^2 = d; chi-square mean over draws within 3 sigma
        draws = 2000
        d = coefficient_count(3, 4)
        vals = [sample_polynomial(3, 4, seed=s).norm() ** 2 for s in range(draws)]
        assert abs(np.mean(vals) - d) <= 3.0 * math.sqrt(2.0 * d / draws)

    def test_reproducible(self):
        a = sample_polynomial(3, 3, seed=42)
        b = sample_polynomial(3, 3, seed=42)
        assert np.array_equal(a.coefficients, b.coefficients)
        c = sample_polynomial(3, 3, seed=43)
        assert not np.array_equal(a.coefficients, c.coefficients)

    def test_budget(self):
        with pytest.raises(ResourceBudgetError, match=r"d=\d+"):
            sample_polynomial(100, 6, seed=0)

    def test_variance_overflow_raises(self):
        # 1100!/(550!)^2 is past the float range; 1000!/(500!)^2 is not
        with pytest.raises(ArithmeticError, match=r"\(n=2, k=1100\)"):
            sample_polynomial(2, 1100, seed=1)
        assert np.all(np.isfinite(sample_polynomial(2, 1000, seed=1).coefficients))

    def test_budget_counts_exponent_table(self, monkeypatch):
        # at (20, 6) the d = 177100 coefficients take 1.4 MB, but the d x 20
        # exponent table, the tuples it is built from and the variances'
        # temporaries peak at 85 MB; an 8 MB budget must stop the call
        # before any of them is built
        monkeypatch.setattr(equicorrelated, "MEMORY_BUDGET_BYTES", 8 * 2**20)
        assert 8 * coefficient_count(20, 6) < equicorrelated.MEMORY_BUDGET_BYTES
        with pytest.raises(ResourceBudgetError, match=r"d=177100 x n=20"):
            sample_polynomial(20, 6, seed=0)

    def test_variances_peak_at_table_build(self):
        # log k! - sum log alpha_j! indexes the k + 1 log-factorials by the
        # table; gammaln of the d x n table plus one held two more d x n floats
        def peak(build):
            tracemalloc.start()
            try:
                build(20, 6)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        coefficient_variances(2, 2)  # first-call imports
        assert peak(coefficient_variances) <= 1.05 * peak(multi_index_table)

    def test_no_table_outlives_its_call(self):
        # each call peaks at 85-210 MB within the budget; memoised tables
        # held 188 MB after the four
        tracemalloc.start()
        try:
            for n in range(20, 24):
                sample_polynomial(n, 6, seed=1)
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert current < 2**20

    def test_domain(self):
        with pytest.raises(ValueError):
            sample_polynomial(0, 2, seed=0)
        with pytest.raises(ValueError):
            sample_polynomial(3, 1, seed=0)


class TestDirectionalDerivative:
    def test_cubic_one_variable(self):
        p = BombieriPolynomial(n=1, k=3, coefficients=np.array([1.0]))
        assert directional_derivative(p, [2.0], [1.0]) == pytest.approx(12.0)

    def test_x_squared_y(self):
        # x^2 y among the graded-lex exponents (3,0),(2,1),... of n=2, k=3
        table = multi_index_table(2, 3)
        coeffs = np.zeros(len(table))
        coeffs[np.all(table == [2, 1], axis=1)] = 1.0
        p = BombieriPolynomial(n=2, k=3, coefficients=coeffs)
        assert directional_derivative(p, [1.0, 1.0], [1.0, 0.0]) == pytest.approx(2.0)
        assert p([1.0, 1.0]) == pytest.approx(1.0)

    @pytest.mark.parametrize("n,k", [(2, 3), (4, 5)])
    def test_finite_difference(self, n, k):
        rng = np.random.Generator(np.random.Philox(key=17))
        p = sample_polynomial(n, k, seed=23)
        for _ in range(5):
            x = rng.standard_normal(n)
            v = rng.standard_normal(n)
            v /= np.linalg.norm(v)
            h = 1e-5
            fd = (p(x + h * v) - p(x - h * v)) / (2.0 * h)
            exact = directional_derivative(p, x, v)
            assert fd == pytest.approx(exact, rel=1e-6)

    def test_derivative_homogeneity(self):
        p = sample_polynomial(3, 4, seed=8)
        x = np.array([0.3, -0.8, 1.1])
        v = np.array([1.0, 0.0, 0.0])
        assert directional_derivative(p, 2.0 * x, v) == pytest.approx(
            2.0 ** (p.k - 1) * directional_derivative(p, x, v), rel=1e-12
        )

    @pytest.mark.parametrize("n,k", [(3, 3), (4, 5), (10, 5)])
    def test_design_rows_match_single_directions(self, n, k):
        geom = build_geometry(n)
        exponents = multi_index_table(n, k)
        rows = [
            sx._derivative_rows(exponents, geom.embedded[vertex], direction[None, :])[0]
            for vertex in range(n + 1)
            for direction in edge_frame(geom, vertex).directions
        ]
        assert np.array_equal(sx._design_matrix(n, k), rows)

    def test_design_filled_in_place(self):
        # each vertex's rows go straight into the one m x d array: 1.08 of
        # it at (30, 2), where concatenating the vertices' blocks took 2.04
        m, d = 930, coefficient_count(30, 2)
        tracemalloc.start()
        try:
            sx._design_matrix(30, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * m * d

    def test_domain(self):
        p = sample_polynomial(3, 3, seed=0)
        with pytest.raises(ValueError):
            directional_derivative(p, [1.0, 2.0], [1.0, 0.0, 0.0])


class TestHomogeneity:
    @given(st.floats(min_value=0.2, max_value=3.0))
    @settings(max_examples=50, deadline=None)
    def test_scaling(self, t):
        p = sample_polynomial(4, 5, seed=11)
        rng = np.random.Generator(np.random.Philox(key=5))
        x = rng.standard_normal(4)
        assert p(t * x) == pytest.approx(t**5 * p(x), rel=1e-10, abs=1e-10)

    def test_point_of_wrong_dimension_raises(self):
        p = sample_polynomial(4, 5, seed=11)
        for x in ([1.0, 2.0, 3.0], np.ones((1, 4))):
            with pytest.raises(ValueError, match="point must have dimension 4"):
                p(x)


class TestIsVertexMax:
    @pytest.mark.parametrize("n,k", [(2, 3), (4, 4)])
    def test_aligned_power(self, n, k):
        geom = build_geometry(n)
        a = geom.embedded[0]
        p = dot_product_polynomial(n, k, a / np.linalg.norm(a))
        assert is_vertex_max(p, geom, 0)
        neg = BombieriPolynomial(n=n, k=k, coefficients=-p.coefficients)
        assert not is_vertex_max(neg, geom, 0)

    def test_zero_polynomial_not_max(self):
        # derivatives exactly zero count as not outward-pointing
        geom = build_geometry(2)
        p = BombieriPolynomial(n=2, k=2, coefficients=np.zeros(3))
        assert not is_vertex_max(p, geom, 0)

    def test_dimension_mismatch(self):
        geom = build_geometry(3)
        p = sample_polynomial(2, 2, seed=0)
        with pytest.raises(ValueError):
            is_vertex_max(p, geom, 0)

    def test_matches_design_matrix_path(self):
        # the vectorized experiment path and the per-polynomial path agree
        n, k, seed = 3, 3, 909
        geom = build_geometry(n)
        sigma = np.sqrt(coefficient_variances(n, k))
        rng = sx.chunk_generator(seed, 0)
        coeffs = rng.standard_normal((50, len(sigma))) * sigma
        derivs = coeffs @ sx._design_matrix(n, k).T
        for t in range(0, 50, 7):
            p = BombieriPolynomial(n=n, k=k, coefficients=coeffs[t])
            expect = bool(np.all(derivs[t, :n] > 0.0))
            assert is_vertex_max(p, geom, 0) == expect


class TestVertexProbability:
    def test_matches_sheppard(self):
        rep = estimate_vertex_probability(2, 2, 400_000, seed=1201)
        exact = 0.25 + math.asin(5.0 / 7.0) / (2.0 * math.pi)
        assert rep.analytic_f == pytest.approx(exact, rel=1e-12)
        assert abs(rep.estimate - exact) <= 3.0 * rep.std_error

    def test_matches_david(self):
        rep = estimate_vertex_probability(3, 3, 400_000, seed=1202)
        exact = orthant.trivariate_closed_form(11.0 / 14.0, 11.0 / 14.0, 11.0 / 14.0)
        assert rep.analytic_f == pytest.approx(exact, rel=1e-12)
        assert abs(rep.estimate - exact) <= 3.0 * rep.std_error

    def test_matches_quadrature(self):
        rep = estimate_vertex_probability(6, 5, 100_000, seed=1203)
        exact = orthant.steck_quadrature(6, rho_n(6, 5)).value
        assert abs(rep.estimate - exact) <= 3.0 * rep.std_error

    def test_deterministic_and_thread_invariant(self):
        a = estimate_vertex_probability(3, 4, 120_000, seed=55, threads=1)
        b = estimate_vertex_probability(3, 4, 120_000, seed=55, threads=4)
        assert a.estimate == b.estimate

    def test_rotation_invariance(self):
        # the vertex-0 derivative rows change when the vertex and its edge
        # directions are rotated, but their covariance R var R^T, which fixes
        # the vertex-max law, does not
        rng = np.random.Generator(np.random.Philox(key=77))
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        var = coefficient_variances(3, 3)
        geom, exponents = build_geometry(3), multi_index_table(3, 3)
        frame = edge_frame(geom, 0).directions
        base = sx._derivative_rows(exponents, geom.embedded[0], frame)
        rotated = sx._derivative_rows(exponents, q @ geom.embedded[0], frame @ q.T)
        assert np.max(np.abs(base - rotated)) > 0.1
        cov, cov_rotated = (base * var) @ base.T, (rotated * var) @ rotated.T
        assert np.max(np.abs(cov - cov_rotated)) <= 1e-12
        assert np.array_equal(base, sx._design_matrix(3, 3)[:3])

    def test_domain(self):
        with pytest.raises(ValueError):
            estimate_vertex_probability(3, 3, 0, seed=0)


class TestUnionProbability:
    def test_segment_even_degree(self):
        # n=1, k even: both endpoint conditions reduce to c > 0, union = 1/2
        rep = estimate_union_probability(1, 2, 200_000, seed=3)
        assert abs(rep.estimate - 0.5) <= 3.5 * rep.std_error

    def test_segment_odd_degree(self):
        # n=1, k odd: the two endpoint conditions partition on sign(c), union = 1
        rep = estimate_union_probability(1, 3, 50_000, seed=3)
        assert rep.estimate == 1.0

    def test_near_independence(self):
        rep = estimate_union_probability(4, 5, 100_000, seed=404)
        slack = rep.std_error * 3.0 + rep.tv_corrected
        assert abs(rep.estimate - rep.independence_approx) <= slack

    def test_union_dominates_vertex(self):
        union = estimate_union_probability(4, 5, 60_000, seed=7)
        vertex = estimate_vertex_probability(4, 5, 60_000, seed=7)
        assert union.estimate >= vertex.estimate

    @pytest.mark.parametrize("threads", [1, 2])
    def test_vertex_fields_match_vertex_estimator(self, threads):
        # twenty union chunks; the union counts vertex 0 from its own first
        # block of normals, while the vertex estimator samples vertex 0's
        # equicorrelated block on its own streams
        n, k, trials, seed = 4, 5, 120_000, 7
        union = estimate_union_probability(n, k, trials, seed=seed, threads=threads)
        vertex = estimate_vertex_probability(n, k, trials, seed=seed, threads=threads)
        _, hits, _ = replay_union(n, k, trials, seed)
        assert union.vertex_estimate == hits / trials
        combined = math.hypot(union.vertex_std_error, vertex.std_error)
        assert abs(union.vertex_estimate - vertex.estimate) <= 4.0 * combined
        assert union == estimate_union_probability(n, k, trials, seed=seed, threads=1)
        assert vertex == estimate_vertex_probability(n, k, trials, seed=seed, threads=1)
        assert union.estimate >= union.vertex_estimate

    def test_row_blocks_change_no_draw(self, monkeypatch):
        # a union chunk is its own row block, CHUNK_SIZE trials drawn in the
        # stated order, so neither the thread count nor a budget that still
        # fits (2.3 MB at (4, 5)) changes a draw
        n, k, seed = 4, 5, 7
        whole = estimate_union_probability(n, k, 120_000, seed=seed, threads=1)
        assert estimate_union_probability(n, k, 120_000, seed=seed, threads=2) == whole
        monkeypatch.setattr(equicorrelated, "MEMORY_BUDGET_BYTES", 3 * 2**20)
        assert estimate_union_probability(n, k, 120_000, seed=seed, threads=2) == whole

    def test_one_normal_rows_change_no_byte(self, monkeypatch):
        # at n = 1 the factor is 2 x 1 at any k: vertex 1 adds no column, so
        # each trial draws one normal; at even k both vertices are maxima
        # exactly when the one coefficient is positive
        n, k, seed, trials = 1, 600, 7, 50_000
        assert sx._vertex_factor(edge_covariance(n, k), n)[0].shape == (2, 1)
        sizes = counted_normals(monkeypatch)
        rep = estimate_union_probability(n, k, trials, seed=seed, threads=2)
        union, vertex, normals = replay_union(n, k, trials, seed)
        assert sum(sizes) == normals == trials
        assert rep.estimate == rep.vertex_estimate == union / trials == vertex / trials

    def test_peak_memory_cache_sized(self, monkeypatch):
        # 50k trials at (10, 5): tracemalloc peaks at 1.7 MiB on one thread
        # and 3.7 MiB on two, within the figure the budget counts (the
        # covariance with its edge table, and a chunk's arrays for each chunk
        # in flight: 11.1 MiB a chunk)
        n, k, trials, seed = 10, 5, 50_000, 3
        m = n * (n + 1)
        fixed, chunk = 8 * m * (m + n + 1), 8 * sx.CHUNK_SIZE * (2 * m + n + 1)
        monkeypatch.setattr(equicorrelated, "MEMORY_BUDGET_BYTES", fixed + chunk - 1)
        with pytest.raises(ResourceBudgetError):
            estimate_union_probability(n, k, trials, seed=seed)
        monkeypatch.setattr(equicorrelated, "MEMORY_BUDGET_BYTES", fixed + 2 * chunk)
        estimate_union_probability(n, k, 1_000, seed=seed, threads=2)  # first-call imports
        for threads in (1, 2):
            tracemalloc.start()
            try:
                estimate_union_probability(n, k, trials, seed=seed, threads=threads)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= min(fixed + threads * chunk, threads * 2.5 * 2**20)

    def test_chunks_in_flight_fit_the_budget(self, monkeypatch):
        # a budget that holds the covariance and one chunk runs the chunks one
        # at a time at any thread count, with the same draws; one that holds
        # two runs two at once
        n, k, trials, seed = 4, 4, 30_000, 5
        m = n * (n + 1)
        fixed, chunk = 8 * m * (m + n + 1), 8 * sx.CHUNK_SIZE * (2 * m + n + 1)
        whole = estimate_union_probability(n, k, trials, seed=seed, threads=1)
        original, in_flight = sx._map_ordered, []

        def recorded(fn, n_chunks, threads):
            in_flight.append(threads)
            return original(fn, n_chunks, threads)

        monkeypatch.setattr(sx, "_map_ordered", recorded)
        for held, threads, expected in ((1, 2, 1), (1, 8, 1), (2, 8, 2), (9, 8, 5)):
            monkeypatch.setattr(equicorrelated, "MEMORY_BUDGET_BYTES", fixed + held * chunk)
            assert estimate_union_probability(n, k, trials, seed=seed, threads=threads) == whole
            assert in_flight.pop() == expected, (held, threads)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("n, k", [(1, 3), (2, 5), (3, 3), (4, 4), (8, 2)])
    def test_row_minimum_counts_are_exact(self, n, k, threads, monkeypatch):
        # the counts and the normals drawn against a replay of the stated
        # draw order: a vertex counts when all n of its edge derivatives are
        # positive; (8, 2) has a singular covariance (d = 36 < 72 derivatives)
        trials, seed = 60_000, 11
        sizes = counted_normals(monkeypatch)
        rep = estimate_union_probability(n, k, trials, seed=seed, threads=threads)
        union, vertex, normals = replay_union(n, k, trials, seed)
        assert (rep.estimate, rep.vertex_estimate) == (union / trials, vertex / trials)
        assert sum(sizes) == normals < trials * n * (n + 1)

    def test_matches_coefficient_space_reference(self):
        # the derivative-space sampler against edge derivatives of drawn
        # polynomials, through the design matrix, on another seed
        n, k, trials = 4, 5, 100_000
        union = estimate_union_probability(n, k, trials, seed=45)

        matrix = coefficient_matrix(n, k)
        hits = 0
        for chunk, size in enumerate(equicorrelated._chunk_sizes(trials, 50_000)):
            z = equicorrelated.chunk_generator(4545, chunk).standard_normal((size, matrix.shape[1]))
            positive = (z @ matrix.T).reshape(size, n + 1, n) > 0.0
            hits += np.count_nonzero(np.any(np.all(positive, axis=2), axis=1))
        ref = hits / trials
        ref_se = math.sqrt(ref * (1.0 - ref) / trials)
        assert abs(union.estimate - ref) <= 4.0 * math.hypot(union.std_error, ref_se)

    @pytest.mark.parametrize(
        "n, k, per_trial", [(3, 5, 6.78), (4, 4, 10.57), (10, 5, 37.0)]
    )
    def test_draws_stop_at_first_maximum(self, n, k, per_trial, monkeypatch):
        # a trial draws normals only until its first maximal vertex: on
        # average 6.8 of 12 at (3, 5), 10.6 of 20 at (4, 4) and 37 of 110 at
        # (10, 5), as 1e5 to 2e5 trials at another seed read
        sizes = counted_normals(monkeypatch)
        estimate_union_probability(n, k, 50_000, seed=2301)
        assert sum(sizes) / 50_000 == pytest.approx(per_trial, rel=0.02)

    @pytest.mark.parametrize(
        "n, k, exact, seed",
        [(2, 5, 0.812625, 2311), (3, 5, 0.847610, 2312), (4, 4, 0.860212, 2313)],
    )
    def test_matches_inclusion_exclusion(self, n, k, exact, seed):
        # the inclusion-exclusion values of ROADMAP item 12 (Genz's quadrature
        # of the vertex orthant probabilities); the seeds were fixed before
        # the first run
        rep = estimate_union_probability(n, k, 200_000, seed=seed, threads=2)
        assert abs(rep.estimate - exact) <= 3.0 * rep.std_error

    def test_matches_union_reference_at_10_5(self):
        # the benchmark's UNION_REFERENCE, 0.963789 +- 0.000187 from 1e6
        # trials of the eigh-factor union, and the vertex count against the
        # analytic f; the seed was fixed before the first run
        rep = estimate_union_probability(10, 5, 10**6, seed=2321, threads=2)
        assert abs(rep.estimate - 0.963789) <= 3.0 * math.hypot(rep.std_error, 0.000187)
        assert abs(rep.vertex_estimate - rep.analytic_f) <= 3.0 * rep.vertex_std_error

    def test_trend_k5(self):
        prev, prev_se = -1.0, 0.0
        for n in (2, 4, 6, 8, 10):
            rep = estimate_union_probability(n, 5, 30_000, seed=31_337)
            band = 3.0 * math.sqrt(rep.std_error**2 + prev_se**2)
            assert rep.estimate >= prev - band
            prev, prev_se = rep.estimate, rep.std_error

    def test_domain(self):
        with pytest.raises(ValueError):
            estimate_union_probability(2, 5, 0, seed=0)

    def test_bad_seed_or_threads_fail_before_any_array(self, monkeypatch):
        # both calls check their seed and threads before the covariance,
        # factor or design is built (0.3-0.7 s at these sizes)
        def refuse(*args):
            raise AssertionError("an array was built before the arguments were checked")

        for name in ("edge_covariance", "_vertex_factor", "_design_matrix"):
            monkeypatch.setattr(sx, name, refuse)
        for seed, threads, match in ((-1, 1, "seed must be"), (0, 0, "threads must be positive")):
            with pytest.raises(ValueError, match=match):
                estimate_union_probability(40, 5, 6250, seed=seed, threads=threads)
            with pytest.raises(ValueError, match=match):
                gradient_correlations(20, 4, 20_000, seed=seed, threads=threads)


class TestGradientCorrelations:
    @pytest.mark.parametrize("k", [0, 1])
    def test_domain(self, k):
        with pytest.raises(ValueError, match=r"k >= 2"):
            gradient_correlations(3, k, 1000, seed=1)

    def test_no_lapack_on_a_result_path(self, monkeypatch):
        # where d > m the coefficient Gram B B^T is factored by the union's
        # `_vertex_factor`, within 1e-15 of the correlations through LAPACK's
        # Cholesky factor; neither they nor the union call numpy.linalg.cholesky
        trials, seed = 20_000, 3
        expected = {}
        with sx._one_blas_thread():
            for n, k in ((2, 6), (4, 5), (10, 5)):
                scaled = coefficient_matrix(n, k)
                bartlett = sx._bartlett_factor(sx.chunk_generator(seed, 0), len(scaled), trials - 1)
                g = np.linalg.cholesky(scaled @ scaled.T) @ bartlett
                scatter = g @ g.T
                scale = np.sqrt(np.diag(scatter))
                expected[n, k] = scatter / np.outer(scale, scale)
        union = estimate_union_probability(4, 4, 20_000, seed=5)

        def no_lapack(*args, **kwargs):
            raise AssertionError("numpy.linalg.cholesky was called")

        monkeypatch.setattr(np.linalg, "cholesky", no_lapack)
        for (n, k), lapack in expected.items():
            corr = gradient_correlations(n, k, trials, seed=seed)
            assert np.max(np.abs(corr - lapack)) <= 1e-15, (n, k)
        assert estimate_union_probability(4, 4, 20_000, seed=5) == union

    def test_wide_rows_run_in_bounded_memory(self):
        # at (30, 2) a 50k-row chunk of its 930 derivatives took 372 MB and was
        # refused; the Wishart draw peaks at 13.3 MiB: the 930 x 930 scatter
        # and its scale, after the 930 x 465 design, the 465-square Bartlett
        # factor and the 930 x 465 G
        gradient_correlations(3, 3, 1_000, seed=1)  # first-call imports
        tracemalloc.start()
        try:
            corr = gradient_correlations(30, 2, 50_000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert corr.shape == (930, 930) and np.allclose(np.diag(corr), 1.0)
        assert peak <= 26 * 2**20

    def test_scatter_arrays_checked_before_any_draw(self, monkeypatch):
        # at (30, 2) the 930 x 465 design, the 465-square Bartlett factor, the
        # 930 x 465 G and two 930 x 930 arrays take 22.5 MB at any trial
        # count and thread count: a 24 MiB budget runs them and 16 MiB does
        # not, though the design alone (3.5 MB) would fit
        def no_draws(*args):
            raise AssertionError("a chunk was drawn")

        def no_design(*args):
            raise AssertionError("the design was built")

        monkeypatch.setattr(sx, "chunk_generator", no_draws)
        monkeypatch.setattr(equicorrelated, "MEMORY_BUDGET_BYTES", 24 * 2**20)
        with pytest.raises(AssertionError, match="a chunk was drawn"):
            gradient_correlations(30, 2, 50_000, seed=1)
        monkeypatch.setattr(equicorrelated, "MEMORY_BUDGET_BYTES", 16 * 2**20)
        monkeypatch.setattr(sx, "_design_matrix", no_design)
        for trials, threads in ((50_000, 1), (10**9, 2)):
            with pytest.raises(
                ResourceBudgetError, match=r"930 x d=465 design and 930 x 930 scatter arrays"
            ):
                gradient_correlations(30, 2, trials, seed=1, threads=threads)

    @pytest.mark.parametrize("trials", [1, 0, -5])
    def test_fewer_than_two_trials_raise(self, trials):
        # one draw has no centred scatter: its correlation would be 0 / 0
        with pytest.raises(ValueError, match="trials must be at least 2"):
            gradient_correlations(3, 3, trials, seed=1)

    def test_structure(self):
        n, k, trials = 3, 3, 150_000
        corr = gradient_correlations(n, k, trials, seed=7_031)
        assert corr.shape == ((n + 1) * n, (n + 1) * n)
        rho = rho_n(n, k)
        same = corr[:n, :n][np.triu_indices(n, 1)]
        sigma = (1.0 - rho * rho) / math.sqrt(trials)
        assert np.max(np.abs(same - rho)) <= 3.5 * sigma
        cross = np.abs(corr[:n, n : 2 * n]).max()
        # shared-edge entries exceed epsilon itself; 1.75 caps the factor
        # for k <= 5, and at (3, 3) it is 1.531
        assert cross <= 1.75 * epsilon_n(n, k) + 3.5 / math.sqrt(trials)

    def test_row_blocks_change_no_byte(self, monkeypatch):
        # gradient_correlations draws one Wishart factor and no row blocks of
        # coefficients, so neither the thread count nor a budget that still
        # fits changes a byte
        n, k, seed, trials = 4, 5, 7, 120_000
        whole = gradient_correlations(n, k, trials, seed=seed, threads=1)
        assert np.array_equal(gradient_correlations(n, k, trials, seed=seed, threads=2), whole)
        monkeypatch.setattr(equicorrelated, "MEMORY_BUDGET_BYTES", 2**16)
        assert np.array_equal(gradient_correlations(n, k, trials, seed=seed, threads=2), whole)

    @pytest.mark.parametrize("n, k", [(2, 3), (3, 3), (2, 6), (4, 5)])
    def test_matches_scatter_algebra(self, n, k, monkeypatch):
        # with the Wishart draw set to nu I, the output is the correlation of
        # nu B B^T: the closed form's, from the design rows (d <= m at (2, 3)
        # and (3, 3), d > m at (2, 6) and (4, 5))
        design, var = sx._design_matrix(n, k), coefficient_variances(n, k)
        cov = (design * var) @ design.T
        scale = np.sqrt(np.diag(cov))
        exact = cov / np.outer(scale, scale)
        monkeypatch.setattr(
            sx, "_bartlett_factor", lambda rng, size, dof: math.sqrt(dof) * np.eye(size)
        )
        for threads in (1, 2):
            corr = gradient_correlations(n, k, 100, seed=1, threads=threads)
            assert np.max(np.abs(corr - exact)) <= 1e-13

    @pytest.mark.parametrize("n, k, trials", [(3, 3, 200_000), (4, 5, 100_000)])
    def test_matches_whole_chunk_reference(self, n, k, trials, monkeypatch):
        # the moments of whole-chunk derivative arrays of scaled coefficients,
        # as they were summed before the Wishart draw, against the output with
        # those coefficients' scatter in place of the Bartlett factor: its
        # Cholesky factor where d <= m (F = B), else that of Q S Q^T, with
        # Q = F^-1 B for the Cholesky factor F of B B^T
        design = sx._design_matrix(n, k)
        sigma = np.sqrt(coefficient_variances(n, k))
        total = cross = z_total = z_cross = 0.0
        with sx._one_blas_thread():
            for chunk, size in enumerate(equicorrelated._chunk_sizes(trials, sx.CHUNK_SIZE)):
                z = sx.chunk_generator(1, chunk).standard_normal((size, len(sigma)))
                z_total = z_total + z.sum(axis=0)
                z_cross = z_cross + z.T @ z
                derivs = (z * sigma) @ design.T
                total = total + derivs.sum(axis=0)
                cross = cross + derivs.T @ derivs
            scatter = z_cross - np.outer(z_total, z_total) / trials
            if len(sigma) > len(design):
                scaled = design * sigma
                q = np.linalg.solve(np.linalg.cholesky(scaled @ scaled.T), scaled)
                scatter = q @ scatter @ q.T
            lower = np.linalg.cholesky(scatter)
        mean = total / trials
        cov = cross / trials - np.outer(mean, mean)
        scale = np.sqrt(np.diag(cov))
        reference = cov / np.outer(scale, scale)
        monkeypatch.setattr(sx, "_bartlett_factor", lambda rng, size, dof: lower)
        corr = gradient_correlations(n, k, trials, seed=1)
        assert np.max(np.abs(corr - reference)) <= 1e-12

    @pytest.mark.parametrize("n, k, trials", [(3, 3, 20), (2, 6, 20), (3, 3, 5)])
    def test_law_matches_explicit_coefficient_draws(self, n, k, trials):
        # the law of each correlation over 2000 seeds against the estimator on
        # 2000 explicit trials x d coefficient draws: d < m, d > m, and
        # trials - 1 below min(d, m); two-sample KS per entry, Bonferroni at
        # a 0.1% familywise false-alarm rate
        from scipy.stats import ks_2samp

        runs = 2000
        matrix = coefficient_matrix(n, k)
        m, d = matrix.shape
        z = np.random.default_rng(19_019).standard_normal((runs, trials, d))
        derivs = (z - z.mean(axis=1, keepdims=True)) @ matrix.T
        scatter = np.swapaxes(derivs, 1, 2) @ derivs
        scale = np.sqrt(np.diagonal(scatter, axis1=1, axis2=2))
        explicit = scatter / (scale[:, :, None] * scale[:, None, :])
        drawn = np.array([gradient_correlations(n, k, trials, seed=s) for s in range(runs)])
        upper = np.triu_indices(m, 1)
        pvalues = [
            ks_2samp(drawn[:, i, j], explicit[:, i, j]).pvalue for i, j in zip(*upper)
        ]
        assert min(pvalues) > 0.001 / len(pvalues)

    def test_peak_memory_block_sized(self):
        # 50k trials at (10, 5): the 110 x 2002 design and its build, the
        # 110-square Gram (its own factor), the Bartlett factor and the
        # scatter peak at 2.3 MiB (3.5 with the design's blocks concatenated
        # and a LAPACK factor), at any trial count; 512-row blocks of coefficient draws
        # took 10.1 MiB, and the whole-chunk derivative array 59.3 MiB
        gradient_correlations(3, 3, 1_000, seed=1)  # first-call imports
        tracemalloc.start()
        try:
            gradient_correlations(10, 5, 50_000, seed=1, threads=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2**20

    def test_familywise_band_rejects_miswired_design(self):
        # criterion 7's band at (10, 5) and 1e5 trials, r_max + z_M/sqrt(trials)
        # over the M = 5500 cross-vertex entries, must reject the exact law of
        # a design that evaluates vertex 1's edge derivatives at vertex 0's point
        n, k, trials = 10, 5, 100_000
        geom = build_geometry(n)
        var = coefficient_variances(n, k)
        design = sx._design_matrix(n, k)
        miswired = design.copy()
        miswired[n : 2 * n] = sx._derivative_rows(
            multi_index_table(n, k), geom.embedded[0], edge_frame(geom, 1).directions
        )
        vertex = np.arange(len(design)) // n
        cross = vertex[:, None] < vertex[None, :]

        def cross_vertex_corr(rows):
            cov = (rows * var) @ rows.T
            scale = np.sqrt(np.diag(cov))
            return np.abs(cov / np.outer(scale, scale))[cross]

        m = int(np.count_nonzero(cross))
        r_max = float(np.max(cross_vertex_corr(design)))
        shared_edge = derivative_inner_product(
            edge_frame(geom, 0).directions[0], geom.embedded[0],
            edge_frame(geom, 1).directions[0], geom.embedded[1], k,
        ) / derivative_norm_squared(n, k)
        z_m = normal.std_normal_quantile(1.0 - 0.0027 / (2 * m))
        band = r_max + z_m / math.sqrt(trials)
        assert m == 5500 and z_m >= 5.0
        assert r_max == pytest.approx(abs(shared_edge), rel=1e-9)
        assert np.max(cross_vertex_corr(miswired)) > band


# estimate_union_probability(10, 5, 6000, seed=11) in 2000-trial chunks on 2
# threads, printed; the factor of the 110 x 110 edge covariance and each
# vertex's K <= 110 products would round with the BLAS thread count
_UNION_CHILD = """
from simplex_orthant import simplex
simplex.CHUNK_SIZE = 2000
print(repr(simplex.estimate_union_probability(10, 5, 6000, seed=11, threads=2)))
"""

# gradient_correlations(10, 5, 6000, seed=11) on 2 threads, saved to argv[1];
# K = 2002 makes the rounding of the Gram matrix B B^T depend on how many
# threads BLAS splits it over
_CORRELATIONS_CHILD = """
import sys
import numpy as np
from simplex_orthant import simplex
np.save(sys.argv[1], simplex.gradient_correlations(10, 5, 6000, seed=11, threads=2))
"""


class TestBlasThreadInvariance:
    def test_blas_thread_count_changes_no_byte(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(sx.__file__).parents[1]))
        paths = []
        for blas_threads in ("1", "2"):
            path = tmp_path / f"corr_{blas_threads}.npy"
            subprocess.run(
                [sys.executable, "-c", _CORRELATIONS_CHILD, str(path)],
                env=dict(env, OPENBLAS_NUM_THREADS=blas_threads),
                check=True,
                timeout=300,
            )
            paths.append(path)
        assert np.array_equal(np.load(paths[0]), np.load(paths[1]))

    def test_blas_thread_count_changes_no_union_byte(self):
        env = dict(os.environ, PYTHONPATH=str(Path(sx.__file__).parents[1]))
        reports = [
            subprocess.run(
                [sys.executable, "-c", _UNION_CHILD],
                env=dict(env, OPENBLAS_NUM_THREADS=blas_threads),
                check=True,
                capture_output=True,
                text=True,
                timeout=300,
            ).stdout
            for blas_threads in ("1", "2")
        ]
        assert reports[0].startswith("ExperimentReport(") and reports[0] == reports[1]

    def test_library_thread_count_changes_no_byte(self, monkeypatch):
        monkeypatch.setattr(sx, "CHUNK_SIZE", 2000)
        one, two, four = (
            gradient_correlations(10, 5, 6000, seed=11, threads=t) for t in (1, 2, 4)
        )
        assert np.array_equal(one, two) and np.array_equal(one, four)

    def test_same_results_without_openblas(self, monkeypatch):
        def run():
            return (
                estimate_vertex_probability(3, 3, 120_000, seed=8, threads=2),
                estimate_union_probability(3, 3, 120_000, seed=8, threads=2),
                gradient_correlations(3, 3, 120_000, seed=8, threads=2),
                edge_covariance(20, 4),
            )

        vertex, union, corr, cov = run()
        monkeypatch.setattr(sx, "_openblas", lambda: None)
        vertex_plain, union_plain, corr_plain, cov_plain = run()
        assert vertex == vertex_plain and union == union_plain
        assert np.array_equal(corr, corr_plain) and np.array_equal(cov, cov_plain)

    def test_no_setter_without_its_symbols(self, monkeypatch):
        # None, not an error, where the lookup fails: no RTLD_NOLOAD, or a
        # loaded numpy extension that does not link scipy-openblas
        monkeypatch.delattr(os, "RTLD_NOLOAD", raising=False)
        assert sx._openblas.__wrapped__() is None
        monkeypatch.undo()
        monkeypatch.setattr(ctypes, "CDLL", lambda path, mode: object())
        assert sx._openblas.__wrapped__() is None

    @pytest.mark.parametrize("threads", [0, -3])
    def test_nonpositive_threads_raise(self, threads):
        with pytest.raises(ValueError, match="threads must be positive"):
            estimate_vertex_probability(3, 3, 1000, seed=0, threads=threads)
        with pytest.raises(ValueError, match="threads must be positive"):
            orthant.monte_carlo(3, 0.5, 1000, seed=0, threads=threads)
        with pytest.raises(ValueError, match="threads must be positive"):
            gradient_correlations(3, 3, 1000, seed=0, threads=threads)


class TestIndependentUnionApprox:
    def test_endpoints(self):
        assert independent_union_approx(3, 2, 0.0) == 0.0
        assert independent_union_approx(3, 2, 1.0) == 1.0

    def test_reference_value(self):
        assert independent_union_approx(7, 2, 0.125) == pytest.approx(
            INDEP_UNION_7, rel=1e-15
        )

    def test_stability_for_tiny_f(self):
        f = 1e-17
        assert independent_union_approx(9, 5, f) == pytest.approx(10 * f, rel=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            independent_union_approx(3, 2, 1.5)


class TestBetaSequence:
    def test_exponent_identity(self):
        # n^{-n/(nk+k-1)} = n^{1 - 1/rho_n}
        for n, k in ((10, 5), (100, 3)):
            assert -n / (n * k + k - 1) == pytest.approx(
                1.0 - 1.0 / rho_n(n, k), abs=1e-12
            )


class TestEdgeCorrelations:
    @pytest.mark.parametrize("k", range(2, 9))
    def test_matches_edge_covariance(self, k):
        # D_ij against D_lm by how the ordered pairs overlap: the same pair 1,
        # the same vertex rho_n, the reversed edge r, the same far end t, a
        # chain -t, disjoint 0
        for n in range(1, 31):
            corr = edge_covariance(n, k) / derivative_norm_squared(n, k)
            rho, r, t = edge_correlations(n, k)
            i = np.repeat(np.arange(n + 1), n)
            j = (np.arange(n)[None, :] + (np.arange(n)[None, :] >= np.arange(n + 1)[:, None])).ravel()
            same_i, same_j = i[:, None] == i[None, :], j[:, None] == j[None, :]
            reversed_ = (i[:, None] == j[None, :]) & (j[:, None] == i[None, :])
            chain = (i[:, None] == j[None, :]) ^ (j[:, None] == i[None, :])
            expected = np.select(
                [same_i & same_j, same_i, reversed_, same_j, chain], [1.0, rho, r, t, -t], 0.0
            )
            assert np.max(np.abs(corr - expected)) <= 4.5e-16, (n, k)

    def test_values(self):
        # 1 - rho_n = n / d with d = (k+1)n + k - 1
        assert edge_correlations(10, 5) == (0.84375, -7.1875e-4, 1.5625e-5)
        assert edge_correlations(3, 3) == pytest.approx((11 / 14, -10 / 42, 1 / 42), rel=1e-15)
        assert edge_correlations(8, 2) == pytest.approx((17 / 25, 0.44, -0.04), rel=1e-15)


class TestTvExact:
    def test_reference_values(self):
        assert tv_exact(10, 5) == pytest.approx(0.0625, rel=1e-4)
        assert tv_exact(30, 5) == pytest.approx(0.006776, rel=1e-3)
        assert tv_exact(4, 4) == pytest.approx(1.198, rel=1e-3)
        assert tv_exact(2, 5) == pytest.approx(1.416, rel=1e-3)

    @pytest.mark.parametrize("n,k", [(3, 3), (2, 2), (10, 2), (2, 4)])
    def test_singular_is_none(self, n, k):
        # R is singular when d = C(n+k-1, k) < n(n+1); the bound needs R > 0
        assert coefficient_count(n, k) < n * (n + 1)
        assert tv_exact(n, k) is None

    def test_matches_full_whitening(self):
        # 1.5 ||R0^-1/2 (R - R0) R0^-1/2||_F over all n(n+1) x n(n+1)
        n, k = 5, 4
        corr = edge_covariance(n, k) / derivative_norm_squared(n, k)
        vertex = np.arange(len(corr)) // n
        same = vertex[:, None] == vertex[None, :]
        w, v = np.linalg.eigh(np.where(same, corr, 0.0))
        whiten = (v / np.sqrt(w)) @ v.T
        full = 1.5 * np.linalg.norm(whiten @ np.where(same, 0.0, corr) @ whiten)
        assert tv_exact(n, k) == pytest.approx(full, rel=1e-10)

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    @pytest.mark.parametrize("n", [4, 6, 10, 20])
    def test_below_frobenius_chain_with_exact_cross_max(self, n, k):
        cross = edge_covariance(n, k)[:n, n : 2 * n] / derivative_norm_squared(n, k)
        r_max = float(np.max(np.abs(cross)))
        pair = equicorrelated.inverse_diag_offdiag(
            equicorrelated.EquicorrelatedSpec(n=n, rho=rho_n(n, k))
        )
        chain = tv_bound_frobenius(n, n + 1, r_max, pair)
        exact = tv_exact(n, k)
        assert exact is not None and 0.0 < exact <= chain.corrected

    @pytest.mark.parametrize("k", range(2, 9))
    def test_matches_mpmath(self, k):
        # 50 digits from the explicit blocks: Lemma 1's (alpha, beta) solved,
        # and tr(A B A B) summed entry by entry, with no trace identity; the
        # worst error is 8.2e-16 relative, at (25, 7)
        def reference(n):
            d = (k + 1) * n + k - 1
            rho = mpmath.mpf(n * k + k - 1) / d
            r = mpmath.mpf((-1) ** k * ((k - 1) * n + k + 1)) / (n ** (k - 2) * d)
            t = mpmath.mpf((-1) ** (k - 1)) / (n ** (k - 2) * d)
            alpha, beta = mpmath.lu_solve(
                mpmath.matrix([[1, (n - 1) * rho], [rho, (n - 2) * rho + 1]]), mpmath.matrix([1, 0])
            )
            b = [[r] + [-t] * (n - 1)] + [
                [-t] + [t if i == j else 0 for j in range(1, n)] for i in range(1, n)
            ]
            sums = [mpmath.fsum(row[j] for row in b) for j in range(n)]
            ab = [[(alpha - beta) * b[i][j] + beta * sums[j] for j in range(n)] for i in range(n)]
            squared = mpmath.fsum(ab[i][j] * ab[j][i] for i in range(n) for j in range(n))
            return 1.5 * mpmath.sqrt(n * (n + 1) * squared)

        with mpmath.workdps(50):
            for n in range(2, 61):
                got = tv_exact(n, k)
                if got is not None:
                    exact = reference(n)
                    assert abs(got - exact) <= 1e-15 * exact, (n, k)

    @pytest.mark.parametrize("n, k", [(10**4, 4), (10**6, 5)])
    def test_large_n_builds_no_array(self, monkeypatch, n, k):
        # past the dense path's n = 2048 wall; no numpy call, and the bound
        # tends to 1.5 (k - 1) n^(3 - k)
        monkeypatch.setattr(sx, "np", None)
        monkeypatch.setattr(equicorrelated, "np", None)
        got = tv_exact(n, k)
        assert math.isfinite(got)
        assert got == pytest.approx(1.5 * (k - 1) * n ** (3 - k), rel=1e-3)

    def test_in_union_report(self):
        rep = estimate_union_probability(4, 4, 1000, seed=1)
        assert rep.tv_exact == tv_exact(4, 4)
        assert estimate_union_probability(3, 3, 1000, seed=1).tv_exact is None
        assert estimate_union_probability(1, 3, 1000, seed=1).tv_exact is None


class TestTvPipeline:
    def test_components(self):
        rep = tv_pipeline(10, 5)
        assert rep.epsilon == pytest.approx(4.1 / 9000.0, rel=1e-14)
        assert rep.alpha > 0 > rep.beta
        assert rep.corrected > 0 and rep.paper_literal > 0

    def test_corrected_decay_rate_k5(self):
        # corrected bound ~ n^{(8-2k)/2} = n^{-1} for k = 5: the ratio across
        # a decade of n should fall near 1/10
        a = tv_pipeline(5, 5).corrected
        b = tv_pipeline(50, 5).corrected
        assert 0.05 <= (b / a) / (5.0 / 50.0) <= 2.0

    def test_k2_no_decay(self):
        assert tv_pipeline(50, 2).corrected > tv_pipeline(5, 2).corrected * 0.5
        assert tv_pipeline(50, 2).corrected > 1.0

    def test_envelope_formula(self):
        rep = tv_pipeline(10, 5)
        assert rep.envelope == pytest.approx(36.0 / 10**2, rel=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            tv_pipeline(1, 5)
