"""Tests for the incremental gradient simulator, bound, and generators."""

import dataclasses
import functools
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings, strategies as st

from sagm import igm, seedseq, symsum
from sagm.linalg import hermitian_spectrum

import oracles


def unit_circle_family(n=5):
    angles = 2 * np.pi * np.arange(n) / n
    return igm.VectorFamily.from_vectors(np.stack([np.cos(angles), np.sin(angles)], axis=1))


def random_family(rng, n, m, complex_=True):
    v = rng.standard_normal((n, m))
    if complex_:
        v = v + 1j * rng.standard_normal((n, m))
    return igm.VectorFamily.from_vectors(v)


def library_streams(cfg):
    """The trials' streams as the library seeds them, from the words that
    its blocks derive (``seedseq.spawned_seed_words``)."""
    return map(igm._stream, seedseq.spawned_seed_words(cfg.seed, range(cfg.trials)))


def force_workers(monkeypatch, workers):
    """Make monte_carlo_mse run its blocks in min(workers, blocks) processes,
    in this one when that is 1."""
    monkeypatch.setattr("sagm.workers.pool_cpus", lambda: workers)


def run_with_rows(fam, cfg):
    """monte_carlo_mse's stats and the (trials, k + 1) squared errors of each
    of its blocks, which the blocks send back beside their moments."""
    rows, moments, merge = [], igm._moments, igm._merge_moments

    def merge_rows(blocks):
        rows.extend(block[3] for block in blocks)
        return merge([block[:3] for block in blocks])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(igm, "_moments", lambda block_rows: moments(block_rows) + (block_rows,))
        mp.setattr(igm, "_merge_moments", merge_rows)
        stats = igm.monte_carlo_mse(fam, cfg)
    return stats, rows


# The bound within which the merged block moments of a (N, columns) table of
# non-negative entries match numpy's mean and std(ddof=1) / sqrt(N) of it.
# Per column let S = sum (x - mean)^2, Q = sum x^2 >= N mean^2 and
# L = 1 + ln N, and let each rounding err by at most u = 2.2e-16 relative
# (twice the unit roundoff, which covers the second-order terms).
# - Mean.  numpy adds the rows in order and divides: N u mean.  A block's
#   mean errs by its size times u, and each of the at most N - 1 merges
#   rounds a weighted mean of non-negative means 4 times: (N + 4 N) u mean.
#   The two differ by at most 6 N u mean.
# - Sum of squared deviations.  A two-pass sum, numpy's or a block's, errs
#   by (N + 2) u S plus N e^2 <= N^2 u^2 Q from its mean's error e; the
#   merges' additions by (2 N + 5) u S.  A merge adds
#   delta^2 count size / total, and delta takes the errors e of its two
#   means; summed over the merges, by Cauchy-Schwarz, that shifts the sum by
#   at most 2 sqrt(S D) + D, with D = sum (count size / total) e^2 <=
#   54 N^2 L u^2 Q, because sum size / total <= L.  Altogether the two sums
#   differ by at most E = (4 N + 9) u S + 15 N u sqrt(L S Q) + 56 N^2 L u^2 Q.
# - Stderr sqrt(S / (N (N - 1))).  It moves by at most
#   min(sqrt(E), E / sqrt(S)) / sqrt(N (N - 1)), plus 4 u of itself from its
#   last roundings.  One trial has stderr 0 exactly.
MERGE_U = 2.2e-16


def assert_within_merge_bound(mean, stderr, table, ref_mean, ref_stderr):
    """``mean`` and ``stderr`` lie within the merge bound of ``ref_mean`` and
    ``ref_stderr``, numpy's for the non-negative (N, columns) ``table``."""
    n = len(table)
    assert np.all(np.abs(mean - ref_mean) <= 6 * n * MERGE_U * ref_mean)
    if n == 1:
        assert np.array_equal(stderr, np.zeros(table.shape[1]))
        return
    s = np.sum((table - ref_mean) ** 2, axis=0)
    q = np.sum(table * table, axis=0)
    log = 1 + math.log(n)
    e = ((4 * n + 9) * MERGE_U * s + 15 * n * MERGE_U * np.sqrt(log * s * q)
         + 56 * n * n * log * MERGE_U ** 2 * q)
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = np.fmin(np.sqrt(e), e / np.sqrt(s))  # sqrt(e) where s = 0
    tol = shift / math.sqrt(n * (n - 1)) + 4 * MERGE_U * ref_stderr
    assert np.all(np.abs(stderr - ref_stderr) <= tol)


# --------------------------------------------------------------------------
# VectorFamily


class TestVectorFamily:
    def test_mu_matches_recomputation(self):
        rng = np.random.default_rng(0)
        fam = random_family(rng, 6, 3)
        assert fam.mu == pytest.approx(max(np.linalg.norm(a) ** 2 for a in fam.vectors))

    def test_isotropy_certificate(self):
        fam = igm.gen_spherical_design("cross_polytope", 4)
        assert fam.isotropic
        second = (fam.vectors.conj()[:, None, :] * fam.vectors[:, :, None]).mean(axis=0)
        assert np.linalg.norm(second - fam.sigma * np.eye(4), 2) <= 1e-12

    def test_trace_inequality_for_isotropic_families(self):
        # m * sigma is the mean squared norm, so it cannot exceed mu
        for fam in (
            igm.gen_spherical_design("simplex", 3),
            igm.gen_spherical_design("icosahedron"),
            igm.gen_group_orbit(3, rng=np.random.default_rng(1)),
        ):
            assert fam.m * fam.sigma <= fam.mu + 1e-12

    @pytest.mark.parametrize("shape", [(3,), (1, 0), (2, 0), (0, 3)])
    def test_shape_guard(self, shape):
        with pytest.raises(ValueError) as exc:
            igm.VectorFamily.from_vectors(np.zeros(shape))
        assert f"got shape {shape}" in str(exc.value)

    def test_second_moment_builds_no_outer_product_stack(self):
        # the (n, m, m) stack of a a* for the 201 x 200 simplex is 124 MiB
        vectors = igm.gen_spherical_design("simplex", 200).vectors
        tracemalloc.start()
        try:
            igm.VectorFamily.from_vectors(vectors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


# --------------------------------------------------------------------------
# Config validation


class TestIgmConfig:
    def test_wo_requires_k_at_most_n(self):
        cfg = igm.IgmConfig(gamma=0.1, rho=0.0, k=9, policy="without_replacement", seed=0)
        with pytest.raises(ValueError, match="block_repeat"):
            cfg.validate(5)

    def test_block_repeat_pool(self):
        cfg = igm.IgmConfig(gamma=0.1, rho=0.0, k=9, policy="block_repeat", block_mult=2, seed=0)
        cfg.validate(5)
        with pytest.raises(ValueError, match="pool"):
            igm.IgmConfig(gamma=0.1, rho=0.0, k=11, policy="block_repeat", block_mult=2, seed=0).validate(5)

    def test_basic_guards(self):
        with pytest.raises(ValueError):
            igm.IgmConfig(gamma=-1.0, rho=0.0, k=1, seed=0).validate(3)
        with pytest.raises(ValueError):
            igm.IgmConfig(gamma=0.1, rho=0.0, k=0, seed=0).validate(3)
        with pytest.raises(ValueError):
            igm.IgmConfig(gamma=0.1, rho=0.0, k=1, policy="bogus", seed=0).validate(3)

    @pytest.mark.parametrize("field, value", [
        ("seed", 1.5), ("seed", -1), ("seed", True),
        ("trials", "30"), ("trials", 0), ("trials", 2**32),
        ("k", 2.5), ("block_mult", 0),
        ("gamma", "0.1"), ("gamma", float("nan")), ("rho", None), ("rho", float("inf")),
    ])
    def test_types_and_ranges(self, field, value):
        cfg = igm.IgmConfig(gamma=0.1, rho=0.0, k=1, seed=0)
        setattr(cfg, field, value)
        with pytest.raises(ValueError, match=field):
            cfg.validate(3)

    def test_seed_has_no_library_default(self):
        # the CLI's fixed seed is the one default
        with pytest.raises(TypeError, match="seed"):
            igm.IgmConfig(gamma=0.1, k=1)

    def test_accepts_numpy_scalars_and_large_seeds(self):
        igm.IgmConfig(gamma=np.float64(0.1), rho=0, k=np.int64(2), trials=2**32 - 1,
                      seed=2**200).validate(3)


# --------------------------------------------------------------------------
# Recursion


class TestIgmRun:
    def test_gamma_zero_is_constant(self):
        fam = unit_circle_family()
        cfg = igm.IgmConfig(gamma=0.0, rho=1.0, k=5, trials=1, seed=1)
        traj = oracles.igm_run(fam, cfg, np.random.default_rng(1))
        assert np.array_equal(traj, np.zeros((6, 2)))

    def test_fixed_point(self):
        fam = unit_circle_family()
        x_star = np.array([1.0, -2.0], dtype=complex)
        cfg = igm.IgmConfig(gamma=0.3, rho=0.0, k=5, x_star=x_star, x_0=x_star.copy(), seed=0)
        traj = oracles.igm_run(fam, cfg, np.random.default_rng(2))
        assert np.allclose(traj, x_star, atol=1e-14)

    def test_scalar_closed_form(self):
        mu = 2.5
        fam = igm.VectorFamily.from_vectors(np.array([[math.sqrt(mu)]]))
        gamma = 0.2
        cfg = igm.IgmConfig(gamma=gamma, rho=0.0, k=6, policy="with_replacement",
                            x_star=np.array([3.0]), x_0=np.array([0.5]), seed=0)
        traj = oracles.igm_run(fam, cfg, np.random.default_rng(3))
        for k, x in enumerate(traj):
            expected = 3.0 + (1 - gamma * mu) ** k * (0.5 - 3.0)
            assert x[0].real == pytest.approx(expected, abs=1e-13)


class TestErrorExpansion:
    def test_k_one_exact(self):
        fam = unit_circle_family()
        cfg = igm.IgmConfig(gamma=0.4, rho=0.7, k=1, seed=5)
        assert oracles.error_expansion_check(fam, cfg, [2]) <= 1e-14

    def test_random_k_five(self):
        rng = np.random.default_rng(6)
        fam = random_family(rng, 6, 3)
        cfg = igm.IgmConfig(gamma=0.1, rho=0.5, k=5, seed=6)
        idx = rng.integers(0, 6, size=5)
        assert oracles.error_expansion_check(fam, cfg, idx) <= 1e-10

    def test_noiseless(self):
        rng = np.random.default_rng(7)
        fam = random_family(rng, 4, 2, complex_=False)
        cfg = igm.IgmConfig(gamma=0.2, rho=0.0, k=4, seed=7)
        assert oracles.error_expansion_check(fam, cfg, [0, 1, 2, 3]) <= 1e-12


# --------------------------------------------------------------------------
# Constants


class TestPhi:
    def test_values(self):
        assert igm.phi(0.0, 1.0, 4.0) == 1.0
        gamma, d = 0.3, 4.0
        assert igm.phi(gamma, 1.0, d) == pytest.approx(1 - 2 * gamma + gamma**2 * d)
        mu = 5.0
        assert igm.phi(1.0 / mu, 1.0, mu) == pytest.approx(1 - 1 / mu)


class TestCkl:
    def test_trivial_and_direct(self):
        assert oracles.c_kl(7, 3, 0) == pytest.approx(1.0)
        assert oracles.c_kl(4, 2, 1) == pytest.approx(16.0 / 12.0)

    def test_symmetry(self):
        for n in range(2, 21):
            for k in range(1, n + 1):
                for l in range(k + 1):
                    assert oracles.c_kl(n, k, l) == pytest.approx(oracles.c_kl(n, k, k - l), rel=1e-12)

    def test_estimate_bounds(self):
        # exact value lies in [1, exp(l(k-l)/(n-k))]
        for n in range(2, 31):
            for k in range(1, n // 2 + 1):
                for l in range(k + 1):
                    val = oracles.c_kl(n, k, l)
                    assert val >= 1.0 - 1e-12
                    assert val <= oracles.c_kl_estimate(n, k, l) * (1 + 1e-9)

    def test_guards(self):
        with pytest.raises(ValueError):
            oracles.c_kl(3, 4, 0)
        with pytest.raises(ValueError):
            oracles.c_kl(5, 3, 4)
        with pytest.raises(ValueError):
            oracles.c_kl_estimate(5, 5, 2)


# --------------------------------------------------------------------------
# Sampling policies


class TestDrawIndices:
    @staticmethod
    def draw(kind, m, **fields):
        """The index rows that the trial blocks draw for the design (kind, m)."""
        fam = igm.gen_spherical_design(kind, m)
        cfg = igm.IgmConfig(gamma=0.1, **fields)
        return igm._draw_block(fam, cfg, range(cfg.trials))[1]

    def test_wo_no_repeats(self):
        idx = self.draw("simplex", 6, k=5, trials=100, seed=8)  # n = 7
        assert all(len(set(row.tolist())) == 5 for row in idx)

    def test_wo_uniform_over_ordered_subsets(self):
        # chi-square on all ordered 3-subsets of {0..4}
        n, k, draws = 5, 3, 100_000
        idx = self.draw("simplex", n - 1, k=k, trials=draws, seed=9)
        counts = {}
        for row in map(tuple, idx.tolist()):
            counts[row] = counts.get(row, 0) + 1
        cells = math.perm(n, k)
        assert len(counts) == cells
        observed = np.array(list(counts.values()))
        _, p = scipy.stats.chisquare(observed)
        assert p > 0.001

    def test_block_repeat_counts(self):
        idx = self.draw("simplex", 2, k=6, policy="block_repeat", block_mult=2, trials=20, seed=10)
        assert all(sorted(row.tolist()) == [0, 0, 1, 1, 2, 2] for row in idx)


# --------------------------------------------------------------------------
# Bound


class TestBoundRhs:
    def test_zero_when_no_noise_and_at_fixed_point(self):
        fam = igm.gen_group_orbit(4, rng=np.random.default_rng(12))
        x = np.ones(4, dtype=complex)
        cfg = igm.IgmConfig(gamma=0.1, rho=0.0, k=4, x_star=x, x_0=x.copy(), seed=0)
        assert igm.bound_rhs(fam, cfg, 4) == pytest.approx(0.0, abs=1e-15)

    def test_named_domain_errors(self):
        fam = igm.gen_group_orbit(4, rng=np.random.default_rng(13))  # sigma 1, mu 4, n 16
        with pytest.raises(igm.BoundDomainError, match="phi"):
            igm.bound_rhs(fam, igm.IgmConfig(gamma=0.6, rho=0.1, k=2, seed=0), 2)  # phi > 1
        with pytest.raises(igm.BoundDomainError, match="geometric"):
            igm.bound_rhs(fam, igm.IgmConfig(gamma=0.02, rho=0.1, k=15, seed=0), 15)
        with pytest.raises(igm.BoundDomainError, match="k <= n-1"):
            igm.bound_rhs(fam, igm.IgmConfig(gamma=0.1, rho=0.1, k=16, seed=0), 16)

    def test_gamma_domain_for_orbit(self):
        # sigma = 1, mu = d: phi < 1 exactly on gamma in (0, 2/d)
        d = 4
        for gamma in (0.05, 0.25, 0.45):
            assert 0 < igm.phi(gamma, 1.0, d) < 1
        assert igm.phi(2.0 / d, 1.0, d) == pytest.approx(1.0)
        assert igm.phi(0.0, 1.0, d) == 1.0

    def test_initial_term_decreases_when_growth_dominated(self):
        # the phi^k eta term shrinks along k as long as the quadratic
        # k(k-1)/(2n) factor stays dominated, which holds here (n = 64)
        fam = igm.gen_group_orbit(8, rng=np.random.default_rng(14))
        cfg = igm.IgmConfig(gamma=0.125, rho=0.0, k=8, seed=0)
        values = [igm.bound_rhs(fam, cfg, k) for k in range(1, 9)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


# --------------------------------------------------------------------------
# Monte Carlo


class TestMonteCarlo:
    def test_gamma_zero_flat(self):
        fam = unit_circle_family()
        cfg = igm.IgmConfig(gamma=0.0, rho=1.0, k=4, trials=10, seed=15)
        stats = igm.monte_carlo_mse(fam, cfg)
        assert np.allclose(stats.mean_mse, stats.bound[0])
        assert np.allclose(stats.stderr, 0.0)

    def test_single_trial_has_zero_stderr(self):
        fam = unit_circle_family()
        cfg = igm.IgmConfig(gamma=0.1, rho=0.5, k=3, trials=1, seed=15)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = igm.monte_carlo_mse(fam, cfg)
        assert np.array_equal(stats.stderr, np.zeros(4))

    def test_scalar_closed_form(self):
        mu = 2.0
        fam = igm.VectorFamily.from_vectors(np.array([[math.sqrt(mu)]]))
        gamma = 0.1
        cfg = igm.IgmConfig(gamma=gamma, rho=0.0, k=8, policy="with_replacement",
                            trials=3, seed=16, x_star=np.array([2.0]), x_0=np.array([0.0]))
        stats = igm.monte_carlo_mse(fam, cfg)
        eta = 4.0
        expected = (1 - gamma * mu) ** (2 * np.arange(9)) * eta
        assert np.abs(stats.mean_mse - expected).max() <= 1e-12

    # 1e-12 relative per cell: the step loop and igm_run add and multiply in
    # different orders; the worst cell measured was 5.1e-16 relative over
    # these cases, 5.2e-15 over 300 trials of the d = 8 orbit at k = 32
    @pytest.mark.parametrize("rho", [0.0, 0.3])
    @pytest.mark.parametrize("policy, block_mult", [
        ("with_replacement", 1), ("without_replacement", 1), ("block_repeat", 2),
    ])
    @pytest.mark.parametrize("k", [1, 6])  # up to n
    @pytest.mark.parametrize("complex_", [False, True])
    def test_matches_igm_run_trial_by_trial(self, complex_, k, policy, block_mult, rho):
        rng = np.random.default_rng(17)
        fam = random_family(rng, 6, 3, complex_=complex_)
        cfg = igm.IgmConfig(gamma=0.1, rho=rho, k=k, policy=policy, block_mult=block_mult,
                            trials=4, seed=18)
        sq_err = np.concatenate(run_with_rows(fam, cfg)[1])
        x_star, _ = cfg.resolve_points(fam.m)
        for row, sub in zip(sq_err, library_streams(cfg)):
            traj = oracles.igm_run(fam, cfg, sub)
            expected = np.sum(np.abs(traj - x_star) ** 2, axis=1)
            assert np.all(np.abs(row - expected) <= 1e-12 * expected)

    def test_bound_attached_where_valid(self):
        fam = igm.gen_group_orbit(4, rng=np.random.default_rng(19))
        cfg = igm.IgmConfig(gamma=0.1, rho=0.05, k=8, trials=200, seed=20)
        stats = igm.monte_carlo_mse(fam, cfg)
        assert np.all(np.isfinite(stats.bound[1:]))
        assert stats.bound_note == []
        assert 0 < igm.phi(cfg.gamma, fam.sigma, fam.mu) < 1

    def test_memory_does_not_grow_with_trials_times_n(self, monkeypatch):
        # at the d = 16 orbit (n = 256) the (trials, n) complex noise of all
        # 20 000 trials is 78 MiB alone, and drawing every trial at once
        # peaked at 157.6 MiB; blocks of 1024 trials peak at 11.2 MiB.  The
        # bound is half of that one array, with room for blocks up to 2048.
        # tracemalloc sees this process only, so the blocks run here; of
        # them it keeps only their moments, 20 x 2 x 5 floats
        force_workers(monkeypatch, 1)
        fam = igm.gen_group_orbit(16, rng=np.random.default_rng(0))
        cfg = igm.IgmConfig(gamma=0.05, rho=0.1, k=4, trials=20_000, seed=0)
        tracemalloc.start()
        try:
            igm.monte_carlo_mse(fam, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20

    def test_memory_does_not_grow_with_trials(self, monkeypatch):
        # each block derives its own trials' seed words, so a run holds one
        # block's words, however many trials it has; deriving every
        # trial's words up front took the peak from 0.35 MiB at 2048 trials
        # to 4.63 MiB at 32 768.  The blocks run here, where tracemalloc
        # sees them
        force_workers(monkeypatch, 1)
        fam = igm.gen_spherical_design("simplex", 3)
        peaks = []
        for trials in (2048, 32_768):
            cfg = igm.IgmConfig(gamma=0.1, rho=0.1, k=2, trials=trials, seed=0)
            tracemalloc.start()
            try:
                igm.monte_carlo_mse(fam, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 256 * 2**10

    def test_wr_and_wo_both_within_envelope(self):
        fam = igm.gen_group_orbit(4, rng=np.random.default_rng(21))
        for policy in ("without_replacement", "with_replacement"):
            cfg = igm.IgmConfig(gamma=0.1, rho=0.05, k=8, policy=policy, trials=500, seed=22)
            stats = igm.monte_carlo_mse(fam, cfg)
            valid = np.isfinite(stats.bound)
            assert np.all(stats.mean_mse[valid] <= stats.bound[valid] + 3 * stats.stderr[valid])


class TestMergeMoments:
    # N = 1-3000 rows of non-negative entries spread over up to 40 decades,
    # cut into consecutive blocks of one size (1 included) or at up to 40
    # random places
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 3000), columns=st.integers(1, 4), decades=st.integers(0, 40),
           seed=st.integers(0, 2**32 - 1), split=st.sampled_from(["size", "places"]),
           size=st.integers(1, 3000), places=st.lists(st.integers(1, 2999), max_size=40))
    @example(n=1, columns=2, decades=0, seed=0, split="size", size=1, places=[])
    @example(n=3000, columns=3, decades=10, seed=1, split="size", size=1, places=[])
    def test_merge_matches_numpy_within_bound(self, n, columns, decades, seed, split, size, places):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-decades / 2, decades / 2, (n, columns))
        table = rng.standard_normal((n, columns)) ** 2 * scale
        cuts = range(size, n, size) if split == "size" else sorted({c for c in places if c < n})
        edges = [0, *cuts, n]
        blocks = [igm._moments(table[a:b]) for a, b in zip(edges, edges[1:])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean, stderr = igm._merge_moments(blocks)
        ref_stderr = table.std(axis=0, ddof=1) / np.sqrt(n) if n > 1 else None
        assert_within_merge_bound(mean, stderr, table, table.mean(axis=0), ref_stderr)


class TestRealStep:
    @pytest.mark.parametrize("kind, m, k", [("simplex", 3, 4), ("cross_polytope", 8, 16),
                                            ("icosahedron", 3, 12)])
    def test_real_families_step_in_float64_with_the_complex_bits(self, monkeypatch, kind, m, k):
        fam = igm.gen_spherical_design(kind, m)
        cfg = igm.IgmConfig(gamma=0.2, rho=0.3, k=k, trials=50, seed=31,
                            x_0=np.linspace(-1.0, 2.0, fam.m))
        z, idx = igm._draw_block(fam, cfg, range(cfg.trials))
        w = igm._noise(z, cfg.rho, fam.is_complex)
        dtypes = []
        original = igm._squared_norms
        monkeypatch.setattr(igm, "_squared_norms", lambda e: dtypes.append(e.dtype) or original(e))
        real = igm._step_errors(fam, cfg, w, idx)
        # the same family and noise, stepped in complex arithmetic
        as_complex = dataclasses.replace(fam, is_complex=True)
        stepped = igm._step_errors(as_complex, cfg, w.astype(complex), idx)
        assert np.array_equal(real, stepped)
        assert set(dtypes[:k + 1]) == {np.dtype(float)}
        assert set(dtypes[k + 1:]) == {np.dtype(complex)}

    def test_complex_points_keep_complex_arithmetic(self):
        fam = igm.gen_spherical_design("simplex", 3)
        cfg = igm.IgmConfig(gamma=0.1, rho=0.3, k=4, trials=4, seed=32,
                            x_star=np.array([1.0, 1j, -1.0]))
        sq_err = np.concatenate(run_with_rows(fam, cfg)[1])
        x_star, _ = cfg.resolve_points(fam.m)
        for row, sub in zip(sq_err, library_streams(cfg)):
            expected = np.sum(np.abs(oracles.igm_run(fam, cfg, sub) - x_star) ** 2, axis=1)
            assert np.all(np.abs(row - expected) <= 1e-12 * expected)


class TestStepOperatorMeans:
    """The noiseless error after k steps is ||S_{i_k}...S_{i_1} e_0||^2 with
    S_j = I - gamma a_j a_j*, so its mean is e_0* E_k(S) e_0 with E_k the
    symmetrized mean of ``symsum``: reshuffling beats sampling with
    replacement for every e_0 exactly when E_wr,k(S) - E_wo,k(S) >= 0."""

    FAMILIES = {
        "simplex": lambda: igm.gen_spherical_design("simplex", 3),
        "cross_polytope": lambda: igm.gen_spherical_design("cross_polytope", 3),
        "icosahedron": lambda: igm.gen_spherical_design("icosahedron"),
        "group_orbit": lambda: igm.gen_group_orbit(3, rng=np.random.default_rng(5)),
    }

    @staticmethod
    def gaps(fam, gamma=0.3):
        """Extreme eigenvalues of E_wr,k(S) - E_wo,k(S) for k = 2..min(n, 5)."""
        a = fam.vectors
        steps = symsum.OperatorFamily(np.eye(fam.m) - gamma * a[:, :, None] * a.conj()[:, None, :])
        ends = []
        for k in range(2, min(fam.n, 5) + 1):
            eigs, _ = hermitian_spectrum(symsum.e_wr(steps, k) - symsum.e_wo(steps, k))
            ends.append((eigs[0], eigs[-1]))
        return ends

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_design_gap_is_a_positive_scalar(self, family):
        # gamma ||a_j||^2 <= 0.9 puts each S_j's eigenvalues in [0.1, 1], so
        # both means average products of norm at most 1 and round at a few
        # k * m units of 2.2e-16; the largest spread measured is 3.2e-15,
        # and 1e-13 is still 5e4 times below the smallest gap (5.3e-3)
        for low, high in self.gaps(self.FAMILIES[family]()):
            assert high - low <= 1e-13
            assert low > 0

    def test_simplex_gaps(self):
        lows = [low for low, _ in self.gaps(self.FAMILIES["simplex"]())]
        assert lows == pytest.approx([0.0192666667, 0.050864, 0.08826638], rel=1e-8)


# --------------------------------------------------------------------------
# Trial streams


class TestTrialStreams:
    @pytest.mark.parametrize("seed", [0, 12345, 2**32, 2**128 + 7])
    def test_streams_are_the_spawned_children(self, seed):
        cfg = igm.IgmConfig(gamma=0.1, rho=0.0, k=1, trials=5, seed=seed)
        igm.check_trial_streams(cfg)  # the spot check passes
        children = np.random.default_rng(seed).spawn(cfg.trials)
        for rng, child in zip(library_streams(cfg), children):
            assert rng.bit_generator.state == child.bit_generator.state
            assert np.array_equal(rng.standard_normal(9), child.standard_normal(9))

    def test_spot_check_raises_on_a_wrong_seed_word(self, monkeypatch):
        original = seedseq.spawned_seed_words

        def corrupted(seed, children):
            words = original(seed, children)
            words[-1, 3] ^= 1
            return words

        monkeypatch.setattr(seedseq, "spawned_seed_words", corrupted)
        cfg = igm.IgmConfig(gamma=0.1, rho=0.0, k=1, trials=3, seed=1)
        with pytest.raises(RuntimeError, match="trial 2"):
            igm.check_trial_streams(cfg)

    # the last 1, 7 or 40 of 40 trials, drawn as one block: a change to the
    # step loop's rounding cannot hide a change to the draws
    @pytest.mark.parametrize("block", [1, 7, 40])
    @pytest.mark.parametrize("policy, k, block_mult", [
        ("with_replacement", 6, 1), ("without_replacement", 4, 1), ("block_repeat", 7, 2),
    ])
    @pytest.mark.parametrize("family", ["simplex", "group_orbit"])
    def test_block_draws_equal_spawn_oracle(self, family, policy, k, block_mult, block):
        if family == "simplex":
            fam = igm.gen_spherical_design("simplex", 3)  # real, n = 4
        else:
            fam = igm.gen_group_orbit(3, rng=np.random.default_rng(26))  # complex, n = 9
        cfg = igm.IgmConfig(gamma=0.1, rho=0.3, k=k, policy=policy, block_mult=block_mult,
                            trials=40, seed=12345)
        z, idx = igm._draw_block(fam, cfg, range(cfg.trials - block, cfg.trials))
        assert len(z) == len(idx) == block
        for t, child in enumerate(oracles.trial_streams(cfg)[-block:]):
            normals = [child.standard_normal(fam.n) for _ in range(2 if fam.is_complex else 1)]
            assert np.array_equal(z[t], np.concatenate(normals))
            assert np.array_equal(idx[t], oracles.draw_indices(policy, fam.n, k, child, block_mult))
        w = [oracles.draw_noise(fam.n, cfg.rho, fam.is_complex, child)
             for child in oracles.trial_streams(cfg)[-block:]]
        assert np.array_equal(igm._noise(z, cfg.rho, fam.is_complex), w)

    def test_lone_trial_block_keeps_the_row_sums(self, monkeypatch):
        # numpy sums m >= 8 entries of a lone column in another order than
        # the columns of a wider array; a block of one trial keeps the order
        fam = random_family(np.random.default_rng(27), 12, 9)
        cfg = igm.IgmConfig(gamma=0.05, rho=0.3, k=8, trials=3, seed=28)
        (whole,) = run_with_rows(fam, cfg)[1]
        monkeypatch.setattr(igm, "TRIAL_BLOCK", 1)
        lone = run_with_rows(fam, cfg)[1]
        assert [len(rows) for rows in lone] == [1, 1, 1]
        assert np.array_equal(np.concatenate(lone), whole)

    # blocks of 1 trial, of 7 (5 full blocks and a partial one of 5), and
    # one block of all 40 trials; 1, 2 or 3 workers (one at most per block)
    GRID = [
        pytest.param(family, policy, k, block_mult, seed, block,
                     id=f"{family}-{policy}-{seed}-{block}")
        for family in ("simplex", "group_orbit")
        for policy, k, block_mult in (("with_replacement", 6, 1), ("without_replacement", 4, 1),
                                      ("block_repeat", 7, 2))
        for seed in (0, 12345, 2**32, 2**128 + 7)
        for block in (1, 7, 40)
    ]

    @staticmethod
    def grid_config(family, policy, k, block_mult, seed):
        if family == "simplex":
            fam = igm.gen_spherical_design("simplex", 3)  # real, n = 4
        else:
            fam = igm.gen_group_orbit(3, rng=np.random.default_rng(26))  # complex, n = 9
        return fam, igm.IgmConfig(gamma=0.1, rho=0.3, k=k, policy=policy, block_mult=block_mult,
                                  trials=40, seed=seed)

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def grid_run(family, policy, k, block_mult, seed, block, workers):
        """run_with_rows over blocks of ``block`` trials in ``workers`` workers;
        each grid case runs once for the three tests that read it."""
        fam, cfg = TestTrialStreams.grid_config(family, policy, k, block_mult, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(igm, "TRIAL_BLOCK", block)
            mp.setattr("sagm.workers.pool_cpus", lambda: workers)
            return run_with_rows(fam, cfg)

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def grid_oracle(family, policy, k, block_mult, seed):
        """The spawn oracle's rows and numpy's (mean, stderr) of them; the
        oracle draws no blocks, so one pass serves every block and worker
        count of a case."""
        fam, cfg = TestTrialStreams.grid_config(family, policy, k, block_mult, seed)
        return (oracles.squared_errors(fam, cfg),) + oracles.monte_carlo_mse(fam, cfg)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("family, policy, k, block_mult, seed, block", GRID)
    def test_block_rows_equal_spawn_oracle(self, family, policy, k, block_mult, seed, block, workers):
        _, rows = self.grid_run(family, policy, k, block_mult, seed, block, workers)
        assert [len(r) for r in rows] == [min(block, 40 - start) for start in range(0, 40, block)]
        expected, _, _ = self.grid_oracle(family, policy, k, block_mult, seed)
        assert np.array_equal(np.concatenate(rows), expected)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("family, policy, k, block_mult, seed, block", GRID)
    def test_monte_carlo_within_merge_bound_of_numpy(self, family, policy, k, block_mult, seed,
                                                      block, workers):
        stats, _ = self.grid_run(family, policy, k, block_mult, seed, block, workers)
        expected, mean, stderr = self.grid_oracle(family, policy, k, block_mult, seed)
        assert_within_merge_bound(stats.mean_mse, stats.stderr, expected, mean, stderr)
        if block >= 40:  # one block: numpy's bits
            assert np.array_equal(stats.mean_mse, mean)
            assert np.array_equal(stats.stderr, stderr)

    @pytest.mark.parametrize("family, policy, k, block_mult, seed, block", GRID)
    def test_monte_carlo_bits_do_not_depend_on_workers(self, family, policy, k, block_mult, seed,
                                                        block):
        serial = self.grid_run(family, policy, k, block_mult, seed, block, 1)[0]
        for workers in (2, 3):
            pooled = self.grid_run(family, policy, k, block_mult, seed, block, workers)[0]
            assert np.array_equal(pooled.mean_mse, serial.mean_mse)
            assert np.array_equal(pooled.stderr, serial.stderr)

    def test_blocks_run_in_forked_workers(self, monkeypatch, tmp_path):
        # each block call appends its process id to a file that outlives the
        # workers; the spot check still runs once, in this process
        pids, checks = tmp_path / "pids", []
        original_block, original_check = igm._trial_block, igm.check_trial_streams

        def logged_block(*args):
            with open(pids, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return original_block(*args)

        monkeypatch.setattr(igm, "_trial_block", logged_block)
        monkeypatch.setattr(igm, "check_trial_streams", lambda cfg: checks.append(os.getpid())
                            or original_check(cfg))
        monkeypatch.setattr(igm, "TRIAL_BLOCK", 8)
        force_workers(monkeypatch, 2)
        fam = igm.gen_spherical_design("simplex", 3)
        cfg = igm.IgmConfig(gamma=0.1, rho=0.3, k=3, trials=40, seed=1)
        igm.monte_carlo_mse(fam, cfg)
        logged = [int(pid) for pid in pids.read_text().split()]
        assert len(logged) == 5
        assert os.getpid() not in logged and 1 <= len(set(logged)) <= 2
        assert checks == [os.getpid()]


# --------------------------------------------------------------------------
# Generators


class TestGenerators:
    def test_orbit_d2(self):
        fam = igm.gen_group_orbit(2, rng=np.random.default_rng(23))
        assert fam.n == 4 and fam.m == 2
        second = (fam.vectors.conj()[:, None, :] * fam.vectors[:, :, None]).mean(axis=0)
        assert np.linalg.norm(second - np.eye(2), 2) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_orbit_constants(self, d):
        fam = igm.gen_group_orbit(d, rng=np.random.default_rng(24))
        assert fam.sigma == pytest.approx(1.0, abs=1e-12)
        assert fam.mu == pytest.approx(d, abs=1e-10)
        assert fam.isotropy_residual <= 1e-10

    def test_projector_variant(self):
        d = 3
        fam = igm.gen_group_orbit(d, variant="projector", rng=np.random.default_rng(25))
        assert fam.sigma == pytest.approx(d, abs=1e-10)
        assert fam.mu == pytest.approx(d * d, abs=1e-9)
        assert fam.isotropy_residual <= 1e-9

    def test_orbit_guards(self):
        with pytest.raises(ValueError):
            igm.gen_group_orbit(1, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            igm.gen_group_orbit(3, variant="bogus", rng=np.random.default_rng(0))
        with pytest.raises(TypeError, match="rng"):  # no hidden default stream
            igm.gen_group_orbit(3)

    def test_weyl_unitarity(self):
        for d in (2, 3, 5):
            ws = list(igm.weyl_displacements(d))
            assert len(ws) == d * d and all(w.shape == (d, d) for w in ws)
            for w in ws:
                assert np.allclose(w.conj().T @ w, np.eye(d), atol=1e-12)

    def test_cross_polytope(self):
        fam = igm.gen_spherical_design("cross_polytope", 3)
        assert fam.n == 6
        assert fam.sigma == pytest.approx(1.0 / 3.0)
        second = (fam.vectors.conj()[:, None, :] * fam.vectors[:, :, None]).mean(axis=0)
        assert np.allclose(second, np.eye(3) / 3.0, atol=1e-15)

    def test_cross_polytope_needs_two_dimensions(self):
        with pytest.raises(ValueError, match="m >= 2"):
            igm.gen_spherical_design("cross_polytope", 1)

    def test_simplex(self):
        fam = igm.gen_spherical_design("simplex", 2)
        assert fam.n == 3
        norms = np.linalg.norm(fam.vectors, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)
        gram = (fam.vectors @ fam.vectors.conj().T).real
        off = gram[~np.eye(3, dtype=bool)]
        assert np.allclose(off, -0.5, atol=1e-12)  # 120 degrees apart
        assert fam.sigma == pytest.approx(0.5, abs=1e-12)

    def test_icosahedron(self):
        fam = igm.gen_spherical_design("icosahedron")
        assert fam.n == 12 and fam.m == 3
        assert np.allclose(np.linalg.norm(fam.vectors, axis=1), 1.0, atol=1e-12)
        assert fam.sigma == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert fam.isotropy_residual <= 1e-12

    def test_design_guards(self):
        with pytest.raises(ValueError):
            igm.gen_spherical_design("simplex", 1)
        with pytest.raises(ValueError):
            igm.gen_spherical_design("icosahedron", 4)
        with pytest.raises(ValueError):
            igm.gen_spherical_design("dodecahedron", 3)
