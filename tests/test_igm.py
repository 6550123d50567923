"""Tests for the incremental gradient simulator, bound, and generators."""

import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.stats

from sagm import igm, seedseq, workers

import oracles


def unit_circle_family(n=5):
    angles = 2 * np.pi * np.arange(n) / n
    return igm.VectorFamily.from_vectors(np.stack([np.cos(angles), np.sin(angles)], axis=1))


def random_family(rng, n, m, complex_=True):
    v = rng.standard_normal((n, m))
    if complex_:
        v = v + 1j * rng.standard_normal((n, m))
    return igm.VectorFamily.from_vectors(v)


def force_workers(monkeypatch, workers):
    """Make monte_carlo_mse run its blocks in min(workers, blocks) processes,
    in this one when that is 1, at any trial count."""
    monkeypatch.setattr(igm, "POOL_MIN_TRIALS", 0)
    monkeypatch.setattr("sagm.workers.pool_cpus", lambda: workers)


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

    def test_shape_guard(self):
        with pytest.raises(ValueError):
            igm.VectorFamily.from_vectors(np.zeros(3))

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
        assert igm.error_expansion_check(fam, cfg, [2]) <= 1e-14

    def test_random_k_five(self):
        rng = np.random.default_rng(6)
        fam = random_family(rng, 6, 3)
        cfg = igm.IgmConfig(gamma=0.1, rho=0.5, k=5, seed=6)
        idx = rng.integers(0, 6, size=5)
        assert igm.error_expansion_check(fam, cfg, idx) <= 1e-10

    def test_noiseless(self):
        rng = np.random.default_rng(7)
        fam = random_family(rng, 4, 2, complex_=False)
        cfg = igm.IgmConfig(gamma=0.2, rho=0.0, k=4, seed=7)
        assert igm.error_expansion_check(fam, cfg, [0, 1, 2, 3]) <= 1e-12


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
    def test_wo_no_repeats(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            idx = igm._index_draw("without_replacement", 7, 5, 1)(rng)
            assert len(set(idx.tolist())) == 5

    def test_wo_uniform_over_ordered_subsets(self):
        # chi-square on all ordered 3-subsets of {0..4}
        n, k, draws = 5, 3, 100_000
        rng = np.random.default_rng(9)
        counts = {}
        for _ in range(draws):
            idx = tuple(igm._index_draw("without_replacement", n, k, 1)(rng).tolist())
            counts[idx] = counts.get(idx, 0) + 1
        cells = math.perm(n, k)
        assert len(counts) == cells
        observed = np.array(list(counts.values()))
        _, p = scipy.stats.chisquare(observed)
        assert p > 0.001

    def test_block_repeat_counts(self):
        rng = np.random.default_rng(10)
        idx = igm._index_draw("block_repeat", 3, 6, 2)(rng)
        assert sorted(idx.tolist()) == [0, 0, 1, 1, 2, 2]


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

    def test_matches_igm_run_trial_by_trial(self):
        rng = np.random.default_rng(17)
        fam = random_family(rng, 6, 3)
        cfg = igm.IgmConfig(gamma=0.1, rho=0.3, k=5, trials=4, seed=18)
        stats = igm.monte_carlo_mse(fam, cfg)
        x_star, _ = cfg.resolve_points(fam.m)
        per_trial = []
        for sub in map(igm._stream, igm.trial_seed_words(cfg)):
            traj = oracles.igm_run(fam, cfg, sub)
            per_trial.append(np.sum(np.abs(traj - x_star) ** 2, axis=1))
        assert np.abs(np.mean(per_trial, axis=0) - stats.mean_mse).max() <= 1e-12

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
        # peaked at 157.6 MiB; blocks of 1024 trials peak at 14.1 MiB.  The
        # bound is half of that one array, with room for blocks up to 2048.
        # tracemalloc sees this process only, so the blocks run here
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

    def test_wr_and_wo_both_within_envelope(self):
        fam = igm.gen_group_orbit(4, rng=np.random.default_rng(21))
        for policy in ("without_replacement", "with_replacement"):
            cfg = igm.IgmConfig(gamma=0.1, rho=0.05, k=8, policy=policy, trials=500, seed=22)
            stats = igm.monte_carlo_mse(fam, cfg)
            valid = np.isfinite(stats.bound)
            assert np.all(stats.mean_mse[valid] <= stats.bound[valid] + 3 * stats.stderr[valid])


# --------------------------------------------------------------------------
# Trial streams


class TestTrialStreams:
    @pytest.mark.parametrize("seed", [0, 12345, 2**32, 2**128 + 7])
    def test_streams_are_the_spawned_children(self, seed):
        cfg = igm.IgmConfig(gamma=0.1, rho=0.0, k=1, trials=5, seed=seed)
        children = np.random.default_rng(seed).spawn(cfg.trials)
        for rng, child in zip(map(igm._stream, igm.trial_seed_words(cfg)), children):
            assert rng.bit_generator.state == child.bit_generator.state
            assert np.array_equal(rng.standard_normal(9), child.standard_normal(9))

    def test_spot_check_raises_on_a_wrong_seed_word(self, monkeypatch):
        original = seedseq.spawned_seed_words

        def corrupted(seed, count):
            words = original(seed, count)
            words[-1, 3] ^= 1
            return words

        monkeypatch.setattr(seedseq, "spawned_seed_words", corrupted)
        cfg = igm.IgmConfig(gamma=0.1, rho=0.0, k=1, trials=3, seed=1)
        with pytest.raises(RuntimeError, match="trial 2"):
            igm.trial_seed_words(cfg)

    # blocks of 1 trial, of 7 (5 full blocks and a partial one of 5), and
    # one block of all 40 trials; 1, 2 or 3 workers (one at most per block)
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("block", [1, 7, 40])
    @pytest.mark.parametrize("seed", [0, 12345, 2**32, 2**128 + 7])
    @pytest.mark.parametrize("policy, k, block_mult", [
        ("with_replacement", 6, 1), ("without_replacement", 4, 1), ("block_repeat", 7, 2),
    ])
    @pytest.mark.parametrize("family", ["simplex", "group_orbit"])
    def test_monte_carlo_equals_spawn_oracle(self, monkeypatch, family, policy, k, block_mult, seed,
                                             block, workers):
        monkeypatch.setattr(igm, "TRIAL_BLOCK", block)
        force_workers(monkeypatch, workers)
        if family == "simplex":
            fam = igm.gen_spherical_design("simplex", 3)  # real, n = 4
        else:
            fam = igm.gen_group_orbit(3, rng=np.random.default_rng(26))  # complex, n = 9
        cfg = igm.IgmConfig(gamma=0.1, rho=0.3, k=k, policy=policy, block_mult=block_mult,
                            trials=40, seed=seed)
        stats = igm.monte_carlo_mse(fam, cfg)
        mean, stderr = oracles.monte_carlo_mse(fam, cfg)
        assert np.array_equal(stats.mean_mse, mean)
        assert np.array_equal(stats.stderr, stderr)

    def test_workers_take_the_callers_floating_point_errors(self):
        # an item that overflows raises in its forked worker as it would here
        def overflow(item):
            return np.float64(1e300) * item

        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="overflow"):
                workers.fork_map(overflow, [1.0, 1e300], 2)
        with np.errstate(over="ignore"):
            assert workers.fork_map(overflow, [1.0, 1e300], 2)[1] == np.inf
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_blocks_run_in_forked_workers(self, monkeypatch, tmp_path):
        # each block call appends its process id to a file that outlives the
        # workers; the spot check still runs once, in this process
        pids, checks = tmp_path / "pids", []
        original_block, original_words = igm._trial_block, igm.trial_seed_words

        def logged_block(*args):
            with open(pids, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return original_block(*args)

        monkeypatch.setattr(igm, "_trial_block", logged_block)
        monkeypatch.setattr(igm, "trial_seed_words", lambda cfg: checks.append(os.getpid())
                            or original_words(cfg))
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
            ws = igm.weyl_displacements(d)
            assert ws.shape == (d * d, d, d)
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
