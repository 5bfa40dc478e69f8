"""Equicorrelated covariance algebra, Monte Carlo chunks, and the TV-distance bound.

The covariance matrix A has unit diagonal and a single off-diagonal value
rho.  Its inverse shares the same structure; the (alpha, beta) pair solving

    alpha + (n-1) rho beta = 1
    rho alpha + ((n-2) rho + 1) beta = 0

is returned in closed form.  The orthant Monte Carlo draws X ~ N(0, A) by
the chain rule, each coordinate from its law given the ones before it
(`chain_law`), exact for every rho in the domain.  It takes the rows with
X_1 > 0 as one Binomial(size, 1/2) count with half-normal X_1, and draws
coordinate j only for the rows still in the orthant (`orthant_hits`).  The
chunk streams and chunk map here serve it and the simplex union alike.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

CHUNK_SIZE = 100_000
# the memory a run may take
MEMORY_BUDGET_BYTES = 256 * 2**20


class ResourceBudgetError(Exception):
    """Raised when an array a call would build exceeds the memory budget."""


def check_bytes(need: int, what: str) -> int:
    """The bytes the budget leaves beside `need`; ResourceBudgetError, naming `what`, past it."""
    if need > MEMORY_BUDGET_BYTES:
        raise ResourceBudgetError(
            f"{what} ({need} bytes) would not fit the {MEMORY_BUDGET_BYTES}-byte budget"
        )
    return MEMORY_BUDGET_BYTES - need


@dataclass(frozen=True)
class EquicorrelatedSpec:
    """Dimension n and common correlation rho; validated on construction."""

    n: int
    rho: float

    def __post_init__(self):
        check_domain(self.n, self.rho)


def check_domain(n: int, rho: float) -> None:
    """Raise unless n is a positive integer and -1/(n-1) < rho < 1."""
    if not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"dimension n must be a positive integer, got {n!r}")
    lo = -1.0 / (n - 1) if n > 1 else -math.inf
    if not (lo < rho < 1.0):
        raise ValueError(
            f"rho={rho} outside ({lo}, 1) for n={n}; A would not be positive definite"
        )


@dataclass(frozen=True)
class InverseDiagonalPair:
    """Diagonal and off-diagonal entries of the inverse covariance."""

    alpha: float
    beta: float


class TvBound(NamedTuple):
    """Both readings of the Devroye-Mehrabian-Reddad Frobenius bound."""

    paper_literal: float
    corrected: float


def covariance_matrix(spec: EquicorrelatedSpec) -> np.ndarray:
    """Dense n x n matrix with ones on the diagonal and rho elsewhere."""
    n = spec.n
    a = np.full((n, n), spec.rho)
    np.fill_diagonal(a, 1.0)
    return a


def inverse_diag_offdiag(spec: EquicorrelatedSpec) -> InverseDiagonalPair:
    """Closed-form (alpha, beta) with A^{-1} = beta * J + (alpha - beta) * I."""
    n, rho = spec.n, spec.rho
    if n == 1:
        return InverseDiagonalPair(alpha=1.0, beta=0.0)
    # (n-2) rho + 1 - (n-1) rho^2 factored, so that its terms do not cancel
    den = (1.0 - rho) * (1.0 + (n - 1) * rho)
    if den == 0.0:
        raise ValueError("singular covariance: denominator vanished")
    return InverseDiagonalPair(alpha=((n - 2) * rho + 1.0) / den, beta=-rho / den)


def inverse_matrix(spec: EquicorrelatedSpec) -> np.ndarray:
    """Dense inverse built from the closed-form pair."""
    pair = inverse_diag_offdiag(spec)
    b = np.full((spec.n, spec.n), pair.beta)
    np.fill_diagonal(b, pair.alpha)
    return b


def chunk_generator(seed: int, chunk: int) -> np.random.Generator:
    """Deterministic RNG for one chunk of a run.

    Chunk c draws from SFC64 seeded by child c of SeedSequence(seed), the
    stream SeedSequence(seed).spawn(c + 1)[c] gives, so a run is a pure
    function of (seed, chunk index) and chunks may be produced concurrently
    and concatenated in chunk order.  The seed is a non-negative integer.
    """
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(chunk,))))


def _chunk_sizes(trials: int, chunk_size: int) -> list[int]:
    """Sizes of the chunks a run of `trials` draws splits into, in chunk order."""
    if trials < 1:
        raise ValueError("trials must be positive")
    n_chunks = (trials + chunk_size - 1) // chunk_size
    return [min(chunk_size, trials - c * chunk_size) for c in range(n_chunks)]


# one executor per thread count, kept for the process: threads made per map
# raced the last map's exits, and each racer's new glibc arena stayed resident
_POOLS = {}
os.register_at_fork(after_in_child=_POOLS.clear)  # a child has none of their threads


def _map_ordered(fn, n_chunks: int, threads: int) -> list:
    """[fn(0), ..., fn(n_chunks - 1)], evaluated on up to `threads` threads."""
    if threads < 1:
        raise ValueError("threads must be positive")
    if threads == 1 or n_chunks <= 1:
        return [fn(c) for c in range(n_chunks)]
    from concurrent.futures import ThreadPoolExecutor

    pool = _POOLS.get(threads) or _POOLS.setdefault(threads, ThreadPoolExecutor(threads))
    return list(pool.map(fn, range(n_chunks)))


def hit_rate(hits: int, trials: int) -> tuple[float, float]:
    """Binomial estimate hits/trials and its standard error."""
    p_hat = hits / trials
    return p_hat, math.sqrt(p_hat * (1.0 - p_hat) / trials)


def chain_law(rho: float, j: int) -> tuple[float, float]:
    """(c_j, sigma_j): X_j given X_1..X_{j-1} is N(c_j S_{j-1}, sigma_j^2), for j >= 2.

    S_{j-1} = X_1 + ... + X_{j-1}.  Every earlier coordinate has the same
    weight c_j = rho / (1 + (j-2) rho), and sigma_j^2 =
    (1-rho)(1 + (j-1) rho) / (1 + (j-2) rho) is the Schur complement of the
    equicorrelated matrix.  Both depend on j and rho alone, not on n.
    """
    d = 1.0 + (j - 2) * rho
    return rho / d, math.sqrt((1.0 - rho) * (1.0 + (j - 1) * rho) / d)


def orthant_hits(spec: EquicorrelatedSpec, chunk: int, size: int, seed: int) -> int:
    """How many of a chunk's `size` draws of N(0, A) have every coordinate positive.

    The draws come from chunk_generator(seed, chunk) by the chain rule.
    X_1 > 0 with probability 1/2, and given that X_1 is half-normal, so the
    chunk first draws the number of rows with X_1 > 0 as K = Binomial(size,
    1/2) and their X_1 = |z_1| from K normals; the other rows have left the
    orthant.  Then, for j = 2..n in turn, it draws one normal z_j for each
    row whose first j - 1 coordinates are positive, in row order, and
    X_j = c_j S_{j-1} + sigma_j z_j with (c_j, sigma_j) = chain_law(rho, j).
    Each open row keeps t_j = -c_j S_{j-1} in place: t_2 = fl(-rho |z_1|)
    and t_{j+1} = fl(t_j - fl(c_{j+1} fl(sigma_j z_j))), and passes
    coordinate j when fl(sigma_j z_j) > t_j, that is when fl(sigma_j z_j) -
    t_j > 0.  So the count is the number of rows with all n coordinates
    positive, Binomial(size, f(n, rho)) up to that rounding.  A row costs
    1/2 + sum_{1<=j<n} f(j, rho) normals, no Phi is used, and a chunk holds
    O(K) memory at any n.
    """
    rng = chunk_generator(seed, chunk)
    t = np.abs(rng.standard_normal(rng.binomial(size, 0.5)))
    t *= -spec.rho  # c_2 = rho
    z, keep = np.empty(len(t)), np.empty(len(t), dtype=bool)
    for j in range(2, spec.n + 1):
        if not len(t):
            break
        x = rng.standard_normal(out=z[: len(t)])
        x *= chain_law(spec.rho, j)[1]
        passed = np.greater(x, t, out=keep[: len(t)])
        if j < spec.n:
            x *= chain_law(spec.rho, j + 1)[0]
            t -= x
        t = np.extract(passed, t)
    return len(t)


def tv_bound_frobenius(n: int, m: int, epsilon: float, inv: InverseDiagonalPair) -> TvBound:
    """Bound on TV(G_eps, G_0) from an entrywise bound epsilon on the cross blocks.

    Each entry of a nonzero block of Sigma_eps Sigma_0^{-1} - I is bounded by
    epsilon * (|alpha| + (n-1)|beta|).  ``paper_literal`` is the displayed
    chain (3/2)(m^2-m) n^2 eps^2 (|alpha|+(n-1)|beta|)^2 read verbatim;
    ``corrected`` reads that display as the squared Frobenius norm and takes
    the square root before applying the 3/2 factor.
    """
    if n < 1 or m < 2:
        raise ValueError("need block dimension n >= 1 and m >= 2 blocks")
    if epsilon < 0.0:
        raise ValueError("epsilon must be nonnegative")
    row_l1 = abs(inv.alpha) + (n - 1) * abs(inv.beta)
    literal = 1.5 * (m * m - m) * n * n * epsilon * epsilon * row_l1 * row_l1
    corrected = 1.5 * math.sqrt(m * m - m) * n * epsilon * row_l1
    return TvBound(paper_literal=literal, corrected=corrected)
