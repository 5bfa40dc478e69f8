"""Zero-centered simplex geometry and random homogeneous polynomials.

A k-homogeneous polynomial P(x) = sum_a c_a x^a in n variables carries the
coefficient-weighted norm ||P|| = (sum_a c_a^2 a!/k!)^(1/2) and the centered
Gaussian measure matching it: independent c_a ~ N(0, k!/a!).  Under that
measure every linear functional of P is centered normal with variance equal
to its squared dual norm, and the dual inner product of two directional
derivative functionals has the closed form

    <d/dv(a), d/dw(b)> = k <v,w><a,b>^(k-1) + (k^2-k) <v,b><a,w><a,b>^(k-2).

The simplex is the convex hull of e_1, ..., e_{n+1} in R^{n+1} translated by
its barycenter, identified with R^n through a fixed Helmert-style orthonormal
basis of the hyperplane sum(x) = 0.  A polynomial has a relative maximum at a
vertex iff all n edge directional derivatives there are strictly positive,
which turns vertex-maximum frequencies into orthant probabilities.

The union experiment samples those n(n+1) edge derivatives vertex by
vertex from their closed-form covariance instead of drawing all
C(n+k-1, k) coefficients.  `gradient_correlations` keeps the coefficients' law: it maps
their centred scatter, drawn as one Wishart matrix by Bartlett's
decomposition, through the design rows, so it stays an empirical test of
the closed form.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import orthant
from .equicorrelated import (
    EquicorrelatedSpec,
    ResourceBudgetError,  # re-exported: the error of this module's budget checks
    _chunk_sizes,
    _map_ordered,
    _one_blas_thread,
    check_bytes,
    chunk_generator,
    hit_rate,
    inverse_diag_offdiag,
    tv_bound_frobenius,
)

CHUNK_SIZE = 6_250  # the trials of a union chunk, whose arrays stay cache-sized
FACTOR_TOL = 1e-8  # a pivot at most this share of the largest variance drops its column


@dataclass(frozen=True)
class SimplexGeometry:
    """Vertices of the zero-centered n-simplex and their R^n embedding.

    vertices: (n+1) x (n+1) rows e_i - z in the ambient hyperplane.
    embedding: n x (n+1) orthonormal rows spanning sum(x) = 0.
    embedded: (n+1) x n vertex coordinates in R^n, the embedding's transpose.
    """

    n: int
    vertices: np.ndarray
    embedding: np.ndarray
    embedded: np.ndarray


@dataclass(frozen=True)
class EdgeFrame:
    """Unit directions from one vertex toward the n others, in R^n."""

    vertex: int
    directions: np.ndarray


@dataclass(frozen=True)
class BombieriPolynomial:
    """Dense coefficient table over the graded-lex multi-index order."""

    n: int
    k: int
    coefficients: np.ndarray

    def norm(self) -> float:
        weights = coefficient_variances(self.n, self.k)
        return math.sqrt(float(np.sum(self.coefficients**2 / weights)))

    def __call__(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"point must have dimension {self.n}")
        monomials = np.prod(x[None, :] ** multi_index_table(self.n, self.k), axis=1)
        return float(self.coefficients @ monomials)


@dataclass(frozen=True)
class ExperimentReport:
    """A Monte Carlo estimate with its analytic comparison values."""

    estimate: float
    std_error: float
    trials: int
    seed: int
    analytic_f: float
    vertex_estimate: Optional[float] = None
    vertex_std_error: Optional[float] = None
    independence_approx: Optional[float] = None
    tv_paper_literal: Optional[float] = None
    tv_corrected: Optional[float] = None
    tv_exact: Optional[float] = None
    envelope: Optional[float] = None


@dataclass(frozen=True)
class TvReport:
    """Output of the cross-vertex total-variation pipeline."""

    n: int
    k: int
    epsilon: float
    alpha: float
    beta: float
    paper_literal: float
    corrected: float
    envelope: float


def helmert_basis(n: int) -> np.ndarray:
    """Orthonormal rows (1, ..., 1, -i, 0, ..., 0) / sqrt(i(i+1)), i = 1..n, spanning sum(x) = 0."""
    i = np.arange(1, n + 1)
    basis = np.tri(n, n + 1)
    basis[i - 1, i] = -i
    return basis / np.sqrt(i * (i + 1.0))[:, None]


def build_geometry(n: int) -> SimplexGeometry:
    """Vertices e_i - z of the simplex, at embedding[:, i] in R^n: its rows are orthogonal to 1."""
    if int(n) != n or n < 1:
        raise ValueError("n must be a positive integer")
    embedding = helmert_basis(n)
    return SimplexGeometry(n=n, vertices=np.eye(n + 1) - 1.0 / (n + 1),
                           embedding=embedding, embedded=embedding.T)


def edge_frame(geom: SimplexGeometry, vertex: int) -> EdgeFrame:
    """Unit edge directions v_i = (a - a_i)/sqrt(2) at one vertex; every edge has length sqrt(2)."""
    if not 0 <= vertex <= geom.n:
        raise ValueError(f"vertex index {vertex} out of range 0..{geom.n}")
    others = np.delete(geom.embedded, vertex, axis=0)
    return EdgeFrame(vertex=vertex, directions=(geom.embedded[vertex] - others) / math.sqrt(2.0))


def derivative_inner_product(v, a, w, b, k: int) -> float:
    """Dual inner product of the functionals P -> dP/dv(a) and P -> dP/dw(b)."""
    if k < 2:
        raise ValueError("k must be >= 2")
    v, a, w, b = (np.asarray(u, dtype=float) for u in (v, a, w, b))
    ab = float(a @ b)
    return k * float(v @ w) * ab ** (k - 1) + (k * k - k) * float(v @ b) * float(
        a @ w
    ) * ab ** (k - 2)


def check_degree(n: int, k: int, least_n: int = 1, least_k: int = 2) -> None:
    """Raise ValueError, naming (n, k), unless n >= least_n and k >= least_k are integers."""
    if not (isinstance(n, numbers.Integral) and isinstance(k, numbers.Integral)
            and n >= least_n and k >= least_k):
        raise ValueError(f"need integers n >= {least_n} and k >= {least_k}, "
                         f"got (n={n!r}, k={k!r})")


def rho_n(n: int, k: int) -> float:
    """Correlation (nk + k - 1)/(n(k+1) + k - 1) of same-vertex edge derivatives."""
    check_degree(n, k)
    return (n * k + (k - 1)) / (n * (k + 1) + (k - 1))


def epsilon_n(n: int, k: int) -> float:
    """The bound (1/n^(k-2)) (1/(2k-1)) (1/n + k - 1) on cross-vertex correlations.

    It bounds every cross-vertex correlation but the shared edge's |r|
    (`edge_correlations`), which exceeds it by a factor falling with n from
    (2k-1)/k toward (2k-1)/(k+1), below 2 for every (n, k).
    """
    check_degree(n, k)
    return (1.0 / n ** (k - 2)) * (1.0 / (2 * k - 1)) * (1.0 / n + (k - 1))


def multi_index_table(n: int, k: int) -> np.ndarray:
    """All exponent vectors with |alpha| = k over n variables, graded lex, descending.

    Built one variable at a time from the last.  `lower` holds every vector
    over the last m variables of degree at most k, by ascending degree and
    then descending, so the tails of degree <= s are its first ends[s] rows.
    Those tails with s - |tail| put in front are the degree-s vectors over
    m + 1 variables, in descending order; stacked for s = 0..k they are
    `lower` over m + 1 variables.  The first variable takes degree k only.
    Degrees 0 and 1 are tables too.
    """
    check_degree(n, k, least_k=0)
    lower = np.zeros((1, 0), dtype=np.int64)  # the one vector over no variables
    for _ in range(n - 1):
        degree = lower.sum(axis=1)
        ends = np.searchsorted(degree, np.arange(k + 1), side="right")
        rows = np.arange(ends.sum()) - np.repeat(np.cumsum(ends) - ends, ends)
        lower = np.column_stack((np.repeat(np.arange(k + 1), ends) - degree[rows], lower[rows]))
    return np.column_stack((k - lower.sum(axis=1), lower))


def coefficient_variances(n: int, k: int) -> np.ndarray:
    """Variance k!/alpha! of each coefficient under the polynomial measure."""
    check_degree(n, k)
    log_factorial = np.array([math.lgamma(j + 1.0) for j in range(k + 1)])
    with np.errstate(over="ignore"):
        var = np.exp(math.lgamma(k + 1) - np.sum(log_factorial[multi_index_table(n, k)], axis=1))
    if not np.all(np.isfinite(var)):
        raise ArithmeticError(f"a coefficient variance k!/alpha! overflows at (n={n}, k={k})")
    return var


def coefficient_count(n: int, k: int) -> int:
    check_degree(n, k)
    return math.comb(n + k - 1, k)


def sample_polynomial(n: int, k: int, seed: int) -> BombieriPolynomial:
    """One draw from the Gaussian polynomial ensemble, c_a ~ N(0, k!/a!)."""
    check_degree(n, k)
    d = coefficient_count(n, k)
    # the exponent table's build sets the peak, and coefficient_variances'
    # one d x n float temporary stays below it; tracemalloc reads 53.4, 23.8
    # and 6.1 words a coefficient at (20, 6), (10, 8) and (2, 1000)
    check_bytes(8 * d * (3 * n + 1), f"d={d} x n={n} exponent table for (n={n}, k={k})")
    rng = chunk_generator(seed, 0)
    sigma = np.sqrt(coefficient_variances(n, k))
    return BombieriPolynomial(
        n=n, k=k, coefficients=rng.standard_normal(len(sigma)) * sigma
    )


def directional_derivative(P: BombieriPolynomial, point, direction) -> float:
    """grad P(point) . direction from the monomial expansion."""
    point = np.asarray(point, dtype=float)
    direction = np.asarray(direction, dtype=float)
    if point.shape != (P.n,) or direction.shape != (P.n,):
        raise ValueError(f"point and direction must have dimension {P.n}")
    (row,) = _derivative_rows(multi_index_table(P.n, P.k), point, direction[None, :])
    return float(P.coefficients @ row)


def _derivative_rows(exponents: np.ndarray, point: np.ndarray, directions: np.ndarray):
    """Per-multi-index values of sum_j alpha_j point^(alpha - e_j) v_j, one row per v.

    The powers at `point` are computed once for every direction, and each
    row sums its j terms in ascending order.
    """
    d, n = exponents.shape
    out = np.zeros((len(directions), d))
    for j in range(n):
        alpha_j = exponents[:, j]
        mask = alpha_j > 0
        reduced = exponents[mask]  # a copy: boolean indexing
        reduced[:, j] -= 1
        weighted = alpha_j[mask] * np.prod(point[None, :] ** reduced, axis=1)
        out[:, mask] += weighted * directions[:, j, None]
    return out


def _design_rows(geom: SimplexGeometry, k: int, vertices) -> np.ndarray:
    """Derivative-functional rows for each edge direction at the given vertices.

    Row order: the first vertex's edges 0..n-1, then the next vertex's, ...
    """
    exponents = multi_index_table(geom.n, k)
    return np.concatenate([
        _derivative_rows(exponents, geom.embedded[vertex], edge_frame(geom, vertex).directions)
        for vertex in vertices
    ])


def _design_matrix(n: int, k: int) -> np.ndarray:
    """Rows of derivative functionals for every (vertex, edge direction) pair.

    Multiplying a coefficient vector by this matrix evaluates all (n+1)*n
    unnormalized edge derivatives at once.  The n(n+1) x d table is checked
    against the memory budget before any row is built.
    """
    m, d = n * (n + 1), coefficient_count(n, k)
    check_bytes(8 * m * d, f"{m} x d={d} coefficient table for (n={n}, k={k})")
    return _design_rows(build_geometry(n), k, range(n + 1))


def edge_covariance(n: int, k: int) -> np.ndarray:
    """Covariance of the edge derivatives at every vertex, from exact inner products.

    Row p = i n + j is the edge at vertex i toward its j-th other vertex l, as
    in `_design_rows`.  Entry ((a, v), (b, w)) is the dual inner product
    k <v,w><a,b>^(k-1) + (k^2-k) <v,b><a,w><a,b>^(k-2).  With E the 0/+-1 table
    of rows e_i - e_l, 2 <v_p, v_q> = (E E^T)_pq, sqrt(2) <v_p, a_j> = E_pj and
    <a_i, a_j> = [i = j] - 1/(n+1): the first term is E E^T scaled blockwise,
    the second nonzero only on a vertex's own block and on reversed edges.
    Each scale is a correctly rounded integer ratio; at most six values occur.
    """
    check_degree(n, k)
    n, k, c = int(n), int(k), int(n) + 1  # Python ints keep the ratios exact
    size = n * c
    check_bytes(8 * size * (size + c), f"{size} x {size} edge-covariance array and "
                f"{size} x {c} edge table for (n={n}, k={k})")
    rows = np.arange(size)
    vertex, far = rows // n, rows % n
    far += far >= vertex
    edges = np.zeros((size, c))
    edges[rows, vertex], edges[rows, far] = 1.0, -1.0
    cov = edges @ edges.T  # 2 <v_p, v_q>: small integers, so every sum is exact
    # k <a_i, a_j>^(k-1) / 2 on block (i, j); then the second term, k(k-1)/2
    # times <a_i, a_j>^(k-2), on each vertex's block and on reversed edges
    scale = np.full((c, c), k * (-1) ** (k - 1) / (2 * c ** (k - 1)))
    np.fill_diagonal(scale, k * n ** (k - 1) / (2 * c ** (k - 1)))
    cov.reshape(c, n, c, n)[...] *= scale[:, None, :, None]
    for lo in range(0, size, n):
        cov[lo : lo + n, lo : lo + n] += k * (k - 1) * n ** (k - 2) / (2 * c ** (k - 2))
    cov[rows, far * n + vertex - (vertex > far)] += k * (k - 1) * (-1) ** k / (2 * c ** (k - 2))
    return cov


def edge_correlations(n: int, k: int) -> tuple[float, float, float]:
    """The edge derivatives' correlations (rho_n, r, t), in closed form.

    D_ij, the derivative at vertex i along (a_i - a_j)/||a_i - a_j||, has
    correlation rho_n with D_il, r with the reversed edge D_ji, t with D_lj
    (the same far end), -t with D_jl and D_li (a chain), and 0 with a
    disjoint pair.  With d = (k+1)n + k - 1, 1 - rho_n = n/d,
    r = (-1)^k ((k-1)n + k + 1) / (n^(k-2) d) and t = (-1)^(k-1) / (n^(k-2) d),
    each a correctly rounded integer ratio.
    """
    rho, n, k = rho_n(n, k), int(n), int(k)  # rho_n checks (n, k); Python ints stay exact
    sign, scale = (-1) ** k, n ** (k - 2) * ((k + 1) * n + k - 1)
    return rho, sign * ((k - 1) * n + k + 1) / scale, -sign / scale


def _vertex_factor(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(L, ends): L L^T = edge_covariance(n, k), L lower block-triangular in vertex order.

    A pivot-free Cholesky, one vertex's n columns at a time, in place in the
    covariance.  It drops each column whose pivot is at most FACTOR_TOL
    times the largest variance, so L is unique (no basis is chosen) and has
    one column per unit of rank, min(d, n(n+1)) for d = C(n+k-1, k), also
    where the covariance is singular (10 of 12 at (3, 3)).  For n <= 12 and
    k = 2..8 the kept pivots exceed 0.11 of that variance, the dropped 3e-13.
    The kept columns then move to the front of that array, so L is a view of
    it, and ends[v] counts the columns of vertices 0..v, all that v's rows use.
    The residual max |L L^T - C| / max |C| is a few eps where d >= n(n+1)
    (1.7e-15 at (30, 5)).  Where d < n(n+1) each dropped column leaves its
    Schur residue, so it grows with n: 3.0e-14 at (8, 2), 2.8e-13 at
    (12, 2), 9.1e-13 at (20, 2), 3.1e-12 at (30, 2), all under (n(n+1))^2 eps.
    """
    m = n * (n + 1)
    a = edge_covariance(n, k)
    tol = FACTOR_TOL * float(a.diagonal().max())
    kept = []
    with _one_blas_thread():
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
            # the later vertices' lower blocks, one vertex's rows at a time
            for r in range(hi, m, n):
                a[r : r + n, hi : r + n] -= a[r : r + n, lo:hi] @ a[hi : r + n, lo:hi].T
    kept = np.array(kept)
    for p in np.flatnonzero(kept != np.arange(len(kept))):  # after a dropped pivot
        a[:, p] = a[:, kept[p]]
    return a[:, : len(kept)], np.searchsorted(kept, np.arange(n, m + 1, n))


def derivative_norm_squared(n: int, k: int) -> float:
    """||d/dv_i(a)||^2 = k ||a||^(2k-4) (||a||^2 + (k-1)/2), ||a||^2 = n/(n+1), exactly rounded."""
    check_degree(n, k)
    n, k = int(n), int(k)
    return k * n ** (k - 2) * ((k + 1) * n + k - 1) / (2 * (n + 1) ** (k - 1))


def is_vertex_max(P: BombieriPolynomial, geom: SimplexGeometry, vertex: int) -> bool:
    """True iff all edge directional derivatives at the vertex are > 0.

    A derivative exactly at zero counts as not outward-pointing; the event
    has probability zero under the ensemble.
    """
    if P.n != geom.n:
        raise ValueError("polynomial and geometry dimensions differ")
    frame = edge_frame(geom, vertex)
    point = geom.embedded[vertex]
    return all(
        directional_derivative(P, point, direction) > 0.0
        for direction in frame.directions
    )


def _union_hits(factor: np.ndarray, ends, n: int, seed: int, chunk: int, size: int):
    """(union hits, vertex-0 hits) of the `size` trials of union chunk `chunk`.

    The law: chunk_generator(seed, chunk) draws vertex 0's new normals for
    every row (ends[0] a row, row by row); then, for v = 1..n, vertex v's
    ends[v] - ends[v-1] new normals for each row that has no maximum yet,
    in row order.  A row's derivatives at vertex v are its first ends[v]
    normals times the factor's rows of v, a maximum when their least is
    positive.  A row counts for the union at its first maximal vertex, and
    vertex 0's count comes from the first block.
    """
    rng = chunk_generator(seed, chunk)
    z = rng.standard_normal((size, ends[0]))
    hits = []
    for v in range(n + 1):
        if v:
            # the rows still without a maximum keep their normals and draw vertex v's
            z = z[~vertex_max]
            if not len(z):
                break
            z = np.concatenate((z, rng.standard_normal((len(z), ends[v] - ends[v - 1]))), axis=1)
        vertex_max = (factor[v * n : (v + 1) * n, : ends[v]] @ z.T).min(axis=0) > 0.0
        hits.append(int(np.count_nonzero(vertex_max)))
    return sum(hits), hits[0]


def analytic_vertex_probability(n: int, k: int) -> float:
    """f(n, rho_n) by closed form when available, else Steck quadrature."""
    return orthant.best_estimate(n, rho_n(n, k)).value


def estimate_vertex_probability(
    n: int, k: int, trials: int, seed: int, threads: int = 1
) -> ExperimentReport:
    """Empirical frequency of a relative maximum at vertex 0.

    Vertex 0's n edge derivatives are equicorrelated with rho_n, so this is
    the orthant Monte Carlo at (n, rho_n).
    """
    est = orthant.monte_carlo(n, rho_n(n, k), trials, seed, threads=threads)
    return ExperimentReport(
        estimate=est.value,
        std_error=est.std_error,
        trials=trials,
        seed=seed,
        analytic_f=analytic_vertex_probability(n, k),
    )


def estimate_union_probability(
    n: int, k: int, trials: int, seed: int, threads: int = 1
) -> ExperimentReport:
    """Empirical probability of a relative maximum at some vertex, and at vertex 0.

    Chunks of CHUNK_SIZE trials draw each trial's edge derivatives vertex by
    vertex from `_vertex_factor`, up to its first maximal vertex, by the law
    `_union_hits` states.  At most `threads` chunks run at once, fewer where
    the memory budget holds fewer, so `threads` changes no draw and not
    whether a call fits.
    """
    check_degree(n, k)
    m, w = n * (n + 1), min(coefficient_count(n, k), n * (n + 1))
    sizes = _chunk_sizes(trials, CHUNK_SIZE)
    # the covariance with its edge table, then for each chunk in flight its normals
    # twice (while copied or widened) and its derivatives: as many as the budget holds
    fixed, chunk = 8 * m * (m + n + 1), 8 * sizes[0] * (2 * w + n + 1)
    spare = check_bytes(fixed + chunk, f"{m} x {m} edge-covariance array, its {m} x {n + 1} edge "
                        f"table and one chunk's {sizes[0]} x (2 x {w} + {n + 1}) arrays "
                        f"for (n={n}, k={k})")
    factor, ends = _vertex_factor(n, k)
    parts = _map_ordered(lambda c: _union_hits(factor, ends, n, seed, c, sizes[c]),
                         len(sizes), min(threads, len(sizes), 1 + spare // chunk))
    union_hits, vertex_hits = (sum(counts) for counts in zip(*parts))
    p_hat, se = hit_rate(union_hits, trials)
    vertex_hat, vertex_se = hit_rate(vertex_hits, trials)
    f = analytic_vertex_probability(n, k)
    # the cross-vertex dependence pipeline needs at least two off-diagonal
    # blocks; for the segment (n = 1) only the independence numbers apply
    tv = tv_pipeline(n, k) if n >= 2 else None
    return ExperimentReport(
        estimate=p_hat, std_error=se, trials=trials, seed=seed, analytic_f=f,
        vertex_estimate=vertex_hat, vertex_std_error=vertex_se,
        independence_approx=independent_union_approx(n, k, f),
        tv_paper_literal=tv.paper_literal if tv else None,
        tv_corrected=tv.corrected if tv else None,
        tv_exact=tv_exact(n, k) if tv else None, envelope=tv.envelope if tv else None,
    )


def gradient_correlations(
    n: int, k: int, trials: int, seed: int, threads: int = 1
) -> np.ndarray:
    """Empirical correlation matrix of all (n+1)*n edge derivatives over `trials` draws.

    The draws are of polynomial coefficients, not of edge derivatives, so it
    tests the closed-form law that the union experiment samples from.  With
    B the design rows scaled by the coefficient standard deviations, the
    derivatives of coefficients sigma * z_t are B z_t, and their centred
    scatter is B S B^T with S that of the z_t: a Wishart_d(trials - 1, I)
    matrix.  So one Bartlett factor from chunk_generator(seed, 0) stands in
    for the trials x d normals.  Where d > m = n(n+1), B = F Q with F the
    Cholesky factor of B B^T and Q's rows orthonormal, and Q S Q^T is
    Wishart_m(trials - 1, I): the factor is min(d, m) square at most,
    whatever `trials` is.  `threads` must be positive but changes neither
    the result nor the cost.
    """
    check_degree(n, k)
    if trials < 2:
        raise ValueError("trials must be at least 2 for a correlation")
    if threads < 1:
        raise ValueError("threads must be positive")
    m, d = n * (n + 1), coefficient_count(n, k)
    w = min(d, m)
    cols = min(w, trials - 1)
    # B, where d > m its Gram matrix and their factor, the Bartlett factor,
    # G = F L, and the scatter with its scale
    arrays = m * d + (2 * m * m if d > m else 0) + w * cols + m * cols + 2 * m * m
    check_bytes(8 * arrays, f"{m} x d={d} design and {m} x {m} scatter arrays for (n={n}, k={k})")
    design = _design_matrix(n, k)
    design *= np.sqrt(coefficient_variances(n, k))
    with _one_blas_thread():
        factor = design if d <= m else np.linalg.cholesky(design @ design.T)
        del design
        g = factor @ _bartlett_factor(chunk_generator(seed, 0), w, trials - 1)
        del factor
        scatter = g @ g.T
    del g
    scale = np.sqrt(np.diag(scatter))
    scatter /= np.outer(scale, scale)
    return scatter


def _bartlett_factor(rng: np.random.Generator, size: int, dof: int) -> np.ndarray:
    """A size x min(size, dof) lower-trapezoidal L with L L^T ~ Wishart_size(dof, I).

    Bartlett's decomposition: independent L_ii = sqrt(chi^2(dof - i)) and
    L_ij ~ N(0, 1) below the diagonal, the chi-squares drawn first.  Where
    dof < size, L is the lower trapezoid of the LQ factor of a size x dof
    normal matrix, so L L^T is the singular Wishart matrix of dof draws.
    """
    cols = min(size, dof)
    factor = np.zeros((size, cols))
    factor[np.diag_indices(cols)] = np.sqrt(rng.chisquare(dof - np.arange(cols)))
    rows, columns = np.tril_indices(size, -1, cols)
    factor[rows, columns] = rng.standard_normal(len(rows))
    return factor


def independent_union_approx(n: int, k: int, f: float) -> float:
    """1 - (1 - f)^(n+1), evaluated via log1p/expm1 for stability."""
    check_degree(n, k)
    if not (0.0 <= f <= 1.0):
        raise ValueError("f must lie in [0, 1]")
    if f == 1.0:
        return 1.0
    return -math.expm1((n + 1) * math.log1p(-f))


def tv_pipeline(n: int, k: int) -> TvReport:
    """Cross-vertex dependence bound: epsilon, Lemma inverse, Frobenius chain.

    It feeds ``epsilon_n`` to ``tv_bound_frobenius`` as the entrywise bound on
    the cross-vertex blocks, although the shared-edge entries exceed it;
    ``tv_exact`` evaluates the same bound on the exact blocks.
    """
    check_degree(n, k, least_n=2)
    eps = epsilon_n(n, k)
    pair = inverse_diag_offdiag(EquicorrelatedSpec(n=n, rho=rho_n(n, k)))
    tv = tv_bound_frobenius(n, n + 1, eps, pair)
    return TvReport(n=n, k=k, epsilon=eps, alpha=pair.alpha, beta=pair.beta,
                    paper_literal=tv.paper_literal, corrected=tv.corrected,
                    envelope=(k + 1) ** 2 / n ** (2 * k - 8))


def tv_exact(n: int, k: int) -> Optional[float]:
    """Devroye-Mehrabian-Reddad bound 1.5 ||R0^-1/2 (R - R0) R0^-1/2||_F, in closed form.

    R is the correlation matrix of all n(n+1) edge derivatives and R0 its
    block diagonal, whose blocks have Lemma 1's inverse A = (alpha - beta) I
    + beta J.  Each of the n(n+1) cross-vertex blocks is, shared edge first,
    B = [[r, -t 1^T], [-t 1, t I]] (`edge_correlations`), so the squared
    whitened norm is tr(A B A B) = (alpha - beta)^2 (r^2 + 3(n-1) t^2)
    + beta (2 alpha - beta) (r - (n-1) t)^2.  None where R is singular, as
    the bound needs R positive definite: R = D diag(var) D^T for the
    n(n+1) x d design D, of rank min(d, n(n+1)) (checked for n <= 12 and
    k = 2..8), so exactly where d < n(n+1).
    """
    check_degree(n, k, least_n=2)
    if coefficient_count(n, k) < n * (n + 1):
        return None
    rho, r, t = edge_correlations(n, k)
    pair = inverse_diag_offdiag(EquicorrelatedSpec(n=n, rho=rho))
    squared = ((pair.alpha - pair.beta) ** 2 * (r * r + 3 * (n - 1) * t * t)
               + pair.beta * (2 * pair.alpha - pair.beta) * (r - (n - 1) * t) ** 2)
    return 1.5 * math.sqrt(n * (n + 1) * squared)
