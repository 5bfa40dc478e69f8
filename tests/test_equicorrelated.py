import math
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplex_orthant import equicorrelated
from simplex_orthant.equicorrelated import (
    EquicorrelatedSpec,
    chain_law,
    chunk_generator,
    covariance_matrix,
    inverse_diag_offdiag,
    inverse_matrix,
    orthant_hits,
    tv_bound_frobenius,
)
from simplex_orthant.orthant import best_estimate, monte_carlo
from simplex_orthant.simplex import rho_n


class TestSpecValidation:
    def test_accepts_valid(self):
        EquicorrelatedSpec(n=3, rho=-0.45)
        EquicorrelatedSpec(n=2, rho=0.99)
        EquicorrelatedSpec(n=1, rho=-5.0)  # 1x1 matrix is always [1]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            EquicorrelatedSpec(n=3, rho=-0.6)
        with pytest.raises(ValueError):
            EquicorrelatedSpec(n=2, rho=1.0)
        with pytest.raises(ValueError):
            EquicorrelatedSpec(n=0, rho=0.5)


class TestCovariance:
    def test_small_examples(self):
        a = covariance_matrix(EquicorrelatedSpec(n=2, rho=0.5))
        assert np.array_equal(a, [[1.0, 0.5], [0.5, 1.0]])
        assert np.array_equal(covariance_matrix(EquicorrelatedSpec(n=3, rho=0.0)), np.eye(3))

    def test_positive_definite(self):
        for n, rho in ((5, -0.2), (10, 0.95), (3, -0.49)):
            eig = np.linalg.eigvalsh(covariance_matrix(EquicorrelatedSpec(n=n, rho=rho)))
            assert eig[0] > 0

    @pytest.mark.parametrize("n", [2, 5, 25, 50])
    @pytest.mark.parametrize("rho", [-0.01, 0.0, 0.3, 0.7, 0.95])
    def test_eigenvalue_structure(self, n, rho):
        eig = np.sort(np.linalg.eigvalsh(covariance_matrix(EquicorrelatedSpec(n=n, rho=rho))))
        expected = np.sort(np.r_[np.full(n - 1, 1.0 - rho), 1.0 + (n - 1) * rho])
        assert np.allclose(eig, expected, atol=1e-10)


class TestInverse:
    def test_two_by_two(self):
        pair = inverse_diag_offdiag(EquicorrelatedSpec(n=2, rho=0.5))
        assert pair.alpha == pytest.approx(4.0 / 3.0, rel=1e-14)
        assert pair.beta == pytest.approx(-2.0 / 3.0, rel=1e-14)

    def test_identity_when_uncorrelated(self):
        pair = inverse_diag_offdiag(EquicorrelatedSpec(n=7, rho=0.0))
        assert (pair.alpha, pair.beta) == (1.0, 0.0)

    def test_three_by_three(self):
        pair = inverse_diag_offdiag(EquicorrelatedSpec(n=3, rho=0.5))
        assert pair.alpha == pytest.approx(1.5, rel=1e-13)
        assert pair.beta == pytest.approx(-0.5, rel=1e-13)

    @given(
        st.integers(min_value=2, max_value=60),
        st.floats(min_value=-0.4, max_value=0.98),
    )
    @settings(max_examples=100, deadline=None)
    def test_reconstruction(self, n, rho):
        if rho <= -1.0 / (n - 1):
            return
        spec = EquicorrelatedSpec(n=n, rho=rho)
        product = covariance_matrix(spec) @ inverse_matrix(spec)
        assert np.max(np.abs(product - np.eye(n))) <= 1e-10

    def test_defining_equations(self):
        for n, k in ((5, 2), (20, 4), (100, 7)):
            rho = rho_n(n, k)
            pair = inverse_diag_offdiag(EquicorrelatedSpec(n=n, rho=rho))
            assert pair.alpha + (n - 1) * rho * pair.beta == pytest.approx(1.0, abs=1e-12)
            assert rho * pair.alpha + ((n - 2) * rho + 1) * pair.beta == pytest.approx(
                0.0, abs=1e-12
            )

    @pytest.mark.parametrize("k", range(2, 9))
    def test_asymptotics_at_rho_n(self, k):
        n = 10_000
        pair = inverse_diag_offdiag(EquicorrelatedSpec(n=n, rho=rho_n(n, k)))
        assert pair.alpha == pytest.approx(k + 1, rel=0.01)
        assert (n - 1) * abs(pair.beta) == pytest.approx(k + 1, rel=0.01)

    @pytest.mark.parametrize("k", range(2, 9))
    @pytest.mark.parametrize("n", [2, 5, 10, 50, 200])
    def test_rational_forms_at_rho_n(self, n, k):
        # factored closed forms in (n, k); beta's numerator expands to the
        # quadratic n^2(k^2+k) + n(2k^2-k-1) + (k-1)^2 over -kn^2(n+1)
        pair = inverse_diag_offdiag(EquicorrelatedSpec(n=n, rho=rho_n(n, k)))
        den = k * n * n * (n + 1)
        alpha_rat = (k * n * n - k + 1) * (k * n + k + n - 1) / den
        beta_rat = -(k * n + k - 1) * (k * n + k + n - 1) / den
        beta_quadratic = (n * n * (k * k + k) + n * (2 * k * k - k - 1) + (k - 1) ** 2) / (
            -(k * n**3 + k * n * n)
        )
        assert pair.alpha == pytest.approx(alpha_rat, rel=1e-10)
        assert pair.beta == pytest.approx(beta_rat, rel=1e-10)
        assert pair.beta == pytest.approx(beta_quadratic, rel=1e-10)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_exact_at_rounded_rho_n(self, k):
        # against the Fractions of the rounded rho_n: the factored denominator
        # (1 - rho)(1 + (n-1) rho) does not cancel, so alpha and beta lie
        # within 2.5e-16 relative (the expanded (n-2) rho + 1 - (n-1) rho^2
        # was 1.65e-15 off)
        for n in range(2, 61):
            rho = rho_n(n, k)
            r = Fraction(rho)
            den = (1 - r) * (1 + (n - 1) * r)
            pair = inverse_diag_offdiag(EquicorrelatedSpec(n=n, rho=rho))
            for got, exact in ((pair.alpha, ((n - 2) * r + 1) / den), (pair.beta, -r / den)):
                assert abs(Fraction(got) - exact) <= Fraction(2.5e-16) * abs(exact), (n, k)


class TestSampler:
    """The chain-rule draw through orthant_hits, the sampler behind monte_carlo."""

    def test_rejects_negative_rho(self):
        # only past the domain's edge -1/(n-1), where A is not positive definite
        with pytest.raises(ValueError, match="outside"):
            monte_carlo(3, -0.5, 10, seed=0)
        with pytest.raises(ValueError, match="outside"):
            monte_carlo(11, -0.1, 10, seed=0)

    def test_independent_case(self):
        # rho = 0: the signs are independent, f(2, 0) = 1/4
        est = monte_carlo(2, 0.0, 1_000_000, seed=42)
        assert abs(est.value - 0.25) <= 3.5 * est.std_error

    def test_strong_correlation(self):
        # Sheppard: f(2, rho) = 1/4 + asin(rho)/(2 pi) recovers rho from the hits
        est = monte_carlo(2, 0.8, 1_000_000, seed=42)
        slope = 2.0 * math.pi * math.sqrt(1.0 - 0.8**2)  # d rho / d f at rho = 0.8
        rho_hat = math.sin(2.0 * math.pi * (est.value - 0.25))
        assert abs(rho_hat - 0.8) <= 3.5 * slope * est.std_error
        est = monte_carlo(5, 0.8, 1_000_000, seed=42)
        assert abs(est.value - best_estimate(5, 0.8).value) <= 3.5 * est.std_error

    def test_orthant_frequency_rho_half(self):
        # f(3, 1/2) = 1/4
        assert abs(monte_carlo(3, 0.5, 1_000_000, seed=42).value - 0.25) <= 0.0013

    def test_marginals_standard_normal(self):
        # n = 1: X_1 is N(0, 1) at any rho, positive with probability 1/2
        for rho in (0.0, 0.6, 0.99):
            est = monte_carlo(1, rho, 500_000, seed=9)
            assert abs(est.value - 0.5) <= 3.5 * est.std_error

    def test_chunked_determinism(self):
        spec = EquicorrelatedSpec(n=3, rho=0.4)
        a = monte_carlo(3, 0.4, 250_000, seed=7)
        assert monte_carlo(3, 0.4, 250_000, seed=7) == a
        hits = [orthant_hits(spec, c, size, seed=7)
                for c, size in enumerate((100_000, 100_000, 50_000))]
        assert a.value == sum(hits) / 250_000
        # chunks are independent of how many trials follow them
        assert monte_carlo(3, 0.4, 100_000, seed=7).value == hits[0] / 100_000

    def test_chunk_is_chain_rule_formula(self):
        # K ~ Binomial(1000, 1/2) rows with X_1 = |z_1| > 0, then
        # X_j = c_j S_{j-1} + sigma_j z_j for the rows still positive, S_{j-1}
        # the row's running sum
        spec = EquicorrelatedSpec(n=10, rho=0.3)
        rng = chunk_generator(5, 2)
        s = np.abs(rng.standard_normal(rng.binomial(1000, 0.5)))
        for j in range(2, 11):
            c, sigma = chain_law(0.3, j)
            x = c * s + sigma * rng.standard_normal(len(s))
            s = (s + x)[x > 0.0]
        assert orthant_hits(spec, 2, 1000, seed=5) == len(s) > 0

    @pytest.mark.parametrize("rho", [0.0, 0.01, 0.3, 0.5, 0.9, 0.99])
    def test_chain_law_is_conditional_law(self, rho):
        # X_j given X_1..X_{j-1}: weights A11^{-1} a12, all equal to c_j, and
        # variance 1 - a12 . weights = sigma_j^2, from the covariance matrix
        for n in range(2, 13):
            a = covariance_matrix(EquicorrelatedSpec(n=n, rho=rho))
            weights = np.linalg.solve(a[:-1, :-1], a[:-1, -1])
            c, sigma = chain_law(rho, n)
            assert np.allclose(weights, c, rtol=1e-13, atol=1e-13)
            assert sigma**2 == pytest.approx(1.0 - a[:-1, -1] @ weights, rel=1e-13, abs=1e-13)

    def test_first_count_is_binomial_draw(self):
        # n = 1: the hit count is the chunk generator's first draw,
        # Binomial(size, 1/2), at any rho
        for seed, chunk, size in ((41, 3, 20_000), (90, 0, 100_000), (7, 12, 1)):
            count = chunk_generator(seed, chunk).binomial(size, 0.5)
            for rho in (-0.9, 0.0, 0.4, 0.99):
                assert orthant_hits(EquicorrelatedSpec(n=1, rho=rho), chunk, size, seed) == count

    @pytest.mark.parametrize("n, rho", [(1, 0.5), (3, 0.4), (10, 0.0), (10, 0.99), (700, 0.5)])
    def test_normals_per_chunk(self, monkeypatch, n, rho):
        # the n = 1 hit count for X_1, then one for each row open after
        # coordinate j = 1..n-1, which is a run at j's hit count
        size, seed = 20_000, 41
        open_rows = [orthant_hits(EquicorrelatedSpec(n=j, rho=rho), 3, size, seed)
                     for j in range(1, n)]
        first = orthant_hits(EquicorrelatedSpec(n=1, rho=rho), 3, size, seed)
        sizes = []
        original = equicorrelated.chunk_generator

        class Counted:
            def __init__(self, rng):
                self.rng = rng

            def binomial(self, *args, **kwargs):
                return self.rng.binomial(*args, **kwargs)

            def standard_normal(self, *args, **kwargs):
                out = self.rng.standard_normal(*args, **kwargs)
                sizes.append(out.size)
                return out

        monkeypatch.setattr(equicorrelated, "chunk_generator",
                            lambda seed, chunk: Counted(original(seed, chunk)))
        orthant_hits(EquicorrelatedSpec(n=n, rho=rho), 3, size, seed)
        assert sum(sizes) == first + sum(open_rows)

    def test_distinct_chunks_differ(self):
        g0 = chunk_generator(3, 0).standard_normal(4)
        g1 = chunk_generator(3, 1).standard_normal(4)
        assert not np.array_equal(g0, g1)
        spec = EquicorrelatedSpec(n=2, rho=0.5)
        assert orthant_hits(spec, 0, 100_000, seed=3) != orthant_hits(spec, 1, 100_000, seed=3)


class TestChunkStreams:
    @pytest.mark.parametrize("seed, chunk", [(0, 0), (90, 0), (90, 3), (7, 12), (2**62 - 5, 1)])
    def test_chunk_is_spawned_sfc64_child(self, seed, chunk):
        # chunk c of seed s is SFC64 on child c of SeedSequence(s)
        child = np.random.SeedSequence(seed).spawn(chunk + 1)[chunk]
        expected = np.random.Generator(np.random.SFC64(child))
        rng = chunk_generator(seed, chunk)
        assert isinstance(rng.bit_generator, np.random.SFC64)
        raw = rng.bit_generator.random_raw(16)
        assert np.array_equal(raw, expected.bit_generator.random_raw(16))
        assert np.array_equal(rng.standard_normal(1000), expected.standard_normal(1000))

    def test_neighbouring_streams_uncorrelated(self):
        # the first 1e5 normals of the next chunk and of the next seed; for
        # independent streams each sample correlation has sd 1/sqrt(1e5)
        size, seed = 100_000, 90
        streams = ((seed, 0), (seed, 1), (seed + 1, 0))
        draws = [chunk_generator(s, c).standard_normal(size) for s, c in streams]
        corr = np.corrcoef(draws)[np.triu_indices(3, 1)]
        assert np.max(np.abs(corr)) < 5.0 / math.sqrt(size)

    @pytest.mark.parametrize("seed", [-1, -(2**70), 1.5, 3.0, "3", None])
    def test_invalid_seed_raises(self, seed):
        with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed!r}"):
            chunk_generator(seed, 0)


@pytest.fixture
def openblas_at_two():
    """OpenBLAS's (get, set) pair, set to 2 threads and restored afterwards."""
    blas = equicorrelated._openblas()
    if blas is None:
        pytest.skip("numpy does not use a scipy-openblas build")
    get, set_ = blas
    before = get()
    set_(2)
    try:
        yield get
    finally:
        set_(before)


class TestChunkMap:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_one_blas_thread_inside_restored_after(self, openblas_at_two, threads):
        seen = equicorrelated._map_ordered(lambda c: openblas_at_two(), 4, threads)
        assert seen == [1, 1, 1, 1]
        assert openblas_at_two() == 2

    @pytest.mark.parametrize("threads", [1, 2])
    def test_restored_when_a_chunk_raises(self, openblas_at_two, threads):
        def chunk(c):
            if c == 2:
                raise RuntimeError("chunk failed")
            return c

        with pytest.raises(RuntimeError, match="chunk failed"):
            equicorrelated._map_ordered(chunk, 4, threads)
        assert openblas_at_two() == 2

    def test_threads_outlive_the_map(self):
        # a map's threads stay for the next map on as many threads, so no
        # thread starts while the last map's are still exiting
        used = set(equicorrelated._map_ordered(lambda c: threading.get_ident(), 8, 2))
        alive = {t.ident for t in threading.enumerate()}
        assert threading.get_ident() not in used and used <= alive
        again = equicorrelated._map_ordered(lambda c: threading.get_ident(), 8, 2)
        assert set(again) <= alive

    def test_overlapping_maps_in_two_threads(self, openblas_at_two):
        # map b starts inside map a and ends after it: a's exit must neither
        # restore the count under b nor leave b to restore a's setting
        a_in, b_in, a_done = threading.Event(), threading.Event(), threading.Event()
        results = {}

        def chunk_a(c):
            a_in.set()
            b_in.wait(10)
            return openblas_at_two()

        def chunk_b(c):
            b_in.set()
            a_done.wait(10)
            return openblas_at_two()

        def run_a():
            results["a"] = equicorrelated._map_ordered(chunk_a, 1, 1)
            a_done.set()

        def run_b():
            results["b"] = equicorrelated._map_ordered(chunk_b, 1, 1)

        thread_a = threading.Thread(target=run_a)
        thread_a.start()
        a_in.wait(10)
        thread_b = threading.Thread(target=run_b)
        thread_b.start()
        thread_a.join(10)
        thread_b.join(10)
        assert not thread_a.is_alive() and not thread_b.is_alive()
        assert results == {"a": [1], "b": [1]}
        assert openblas_at_two() == 2

    @pytest.mark.parametrize("threads", [0, -3])
    def test_nonpositive_threads_raise(self, threads):
        with pytest.raises(ValueError, match="threads must be positive"):
            equicorrelated._map_ordered(lambda c: c, 2, threads)


class TestTvBound:
    def test_zero_epsilon(self):
        pair = inverse_diag_offdiag(EquicorrelatedSpec(n=4, rho=0.6))
        tv = tv_bound_frobenius(4, 5, 0.0, pair)
        assert tv.paper_literal == 0.0 and tv.corrected == 0.0

    def test_homogeneity_in_epsilon(self):
        pair = inverse_diag_offdiag(EquicorrelatedSpec(n=4, rho=0.6))
        one = tv_bound_frobenius(4, 5, 1e-3, pair)
        two = tv_bound_frobenius(4, 5, 2e-3, pair)
        assert two.corrected == pytest.approx(2.0 * one.corrected, rel=1e-14)
        assert two.paper_literal == pytest.approx(4.0 * one.paper_literal, rel=1e-14)
        # the corrected reading is the sqrt of the literal chain / (3/2)
        for tv in (one, two):
            assert tv.corrected == pytest.approx(
                1.5 * math.sqrt(tv.paper_literal / 1.5), rel=1e-12
            )

    def test_entry_bound_row_sum(self):
        # every entry of M B is bounded by eps * (|alpha| + (n-1)|beta|)
        rng = np.random.Generator(np.random.Philox(key=1))
        n, eps = 6, 0.01
        spec = EquicorrelatedSpec(n=n, rho=0.7)
        pair = inverse_diag_offdiag(spec)
        bound = eps * (abs(pair.alpha) + (n - 1) * abs(pair.beta))
        for _ in range(20):
            block = rng.uniform(-eps, eps, size=(n, n))
            entries = np.abs(block @ inverse_matrix(spec))
            assert entries.max() <= bound + 1e-15

    def test_domain(self):
        pair = inverse_diag_offdiag(EquicorrelatedSpec(n=2, rho=0.5))
        with pytest.raises(ValueError):
            tv_bound_frobenius(2, 1, 0.1, pair)
        with pytest.raises(ValueError, match="epsilon must be nonnegative"):
            tv_bound_frobenius(2, 2, -1.0, pair)
