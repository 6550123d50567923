"""Tests for the random-matrix surrogate of the order counterexample."""

import itertools

import numpy as np
import pytest

from sagm import freeprobe
from sagm.linalg import normalized_trace


def family(dim=16, n=3, t=1.2, seed=0, **kw):
    return freeprobe.make_free_family(dim, n, t, np.random.default_rng(seed), **kw)


class TestConstruction:
    def test_moments_exact(self):
        fam = family()
        assert abs(normalized_trace(fam.a)) <= 1e-13
        assert normalized_trace(fam.a @ fam.a).real == pytest.approx(1.0, abs=1e-13)
        assert np.abs(fam.a - fam.a.conj().T).max() <= 1e-12

    def test_unitaries_near_traceless(self):
        fam = family(dim=32, n=4)
        assert fam.max_u_trace <= freeprobe.trace_tolerance(32)
        for u in fam.us:
            assert np.allclose(u.conj().T @ u, np.eye(32), atol=1e-12)

    def test_unitarity_certificate_branches(self, monkeypatch):
        fam = family(dim=8)
        spectral_calls = []
        original = freeprobe.spectral_norm
        monkeypatch.setattr(freeprobe, "spectral_norm",
                            lambda m: spectral_calls.append(1) or original(m))
        fam.validate()  # Haar rounding defects pass on Frobenius alone
        assert spectral_calls == []
        u0 = fam.us[0].copy()
        # u* u - I = diag(+-9e-13): spectral defect 9.0e-13 passes, although
        # its Frobenius defect 2.5e-12 needs the spectral fallback
        fam.us[0] = u0 * np.sqrt(1.0 + 9e-13 * np.array([1, -1] * 4))
        fam.validate()
        assert len(spectral_calls) == 1
        fam.us[0] = u0 * np.sqrt(1.0 + 2e-12)
        with pytest.raises(AssertionError, match="unitary"):
            fam.validate()

    def test_ajs_are_a_times_u(self):
        fam = family()
        assert np.allclose(fam.ajs, fam.a @ fam.us, atol=1e-14)

    def test_t_guard(self):
        with pytest.raises(ValueError):
            family(t=1.5)
        for t in (1.5, 0.0, -1.0):  # also before the dim = 1 escape hatch
            with pytest.raises(ValueError, match="sqrt"):
                freeprobe.make_free_family(1, 3, t, np.random.default_rng(0))

    def test_n_guard(self):
        with pytest.raises(ValueError):
            family(n=1)

    def test_degenerate_flag(self):
        assert family(t=1.0).degenerate
        assert not family(t=1.2).degenerate

    def test_dim_one_escape_hatch(self):
        fam = freeprobe.make_free_family(1, 3, 1.2, np.random.default_rng(0))
        assert fam.degenerate
        wo, wr = fam.means
        assert wo[0, 0] == pytest.approx(1.0)
        assert wr[0, 0] == pytest.approx(1.0)

    def test_rejection_cap_raises(self):
        with pytest.raises(RuntimeError, match="Haar"):
            family(dim=8, tau_tol=1e-12)

    def test_trace_tolerance_shape(self):
        assert freeprobe.trace_tolerance(4) == pytest.approx(0.75)
        assert freeprobe.trace_tolerance(10_000) == pytest.approx(1e-3)


class TestMeans:
    # Independent oracles in the counterexample ordering
    # a_{j1} a_{j2} a_{j3} a_{j3}* a_{j2}* a_{j1}*: direct enumeration of the
    # distinct triples, and nesting from the innermost factor outward.

    @staticmethod
    def enumerated_wo(fam):
        out = np.zeros((fam.dim, fam.dim), dtype=complex)
        for j1, j2, j3 in itertools.permutations(range(fam.n), 3):
            p = fam.ajs[j1] @ fam.ajs[j2] @ fam.ajs[j3]
            out += p @ p.conj().T
        return out / (fam.n * (fam.n - 1) * (fam.n - 2))

    @staticmethod
    def nested_wr(fam):
        ajh = fam.ajs.conj().transpose(0, 2, 1)
        x = np.mean(fam.ajs @ ajh, axis=0)
        for _ in range(2):
            x = np.mean(fam.ajs @ x @ ajh, axis=0)
        return x

    def test_wr_mean_matches_nested_recursion(self):
        fam = family()
        assert np.allclose(fam.means[1], self.nested_wr(fam), atol=1e-12)

    def test_wo_mean_matches_enumeration(self):
        for n in (3, 4):
            fam = family(n=n)
            assert np.allclose(fam.means[0], self.enumerated_wo(fam), atol=1e-12)

    def test_means_are_cached(self):
        fam = family()
        assert fam.means is fam.means

    def test_wo_mean_needs_three(self):
        with pytest.raises(ValueError):
            family(n=2).means

    def test_means_hermitian_psd(self):
        fam = family()
        for mat in fam.means:
            assert np.abs(mat - mat.conj().T).max() <= 1e-10
            assert np.linalg.eigvalsh((mat + mat.conj().T) / 2)[0] >= -1e-12


class TestIdentityAndViolation:
    def test_difference_identity_any_unitaries(self):
        # exact algebra: must hold at every dimension and n, freeness or not
        for seed in range(5):
            for n in (3, 4):
                assert freeprobe.difference_identity_residual(family(n=n, seed=seed)) <= 1e-12

    def test_degenerate_case_no_violation(self):
        # t = 1 makes a^2 = I, the difference vanishes identically
        fam = family(dim=32, t=1.0)
        assert abs(freeprobe.order_violation(fam)) <= 1e-10
        assert freeprobe.trace_gap(fam) <= 1e-10

    def test_violation_at_moderate_dim(self):
        fam = family(dim=64, t=1.2, seed=3)
        assert freeprobe.order_violation(fam) < 0

    def test_trace_gap_small(self):
        assert freeprobe.trace_gap(family(dim=64, seed=4)) <= 1e-2


def test_mixed_moment_residual_improves_with_dimension():
    # freeness surrogate quality: the tau-factorization residual of
    # tau(a u a u*) shrinks as dimension grows (median over 20 seeds)
    medians = []
    for dim in (16, 64, 256):
        vals = [
            freeprobe.mixed_moment_residual(family(dim=dim, seed=s))
            for s in range(20)
        ]
        medians.append(np.median(vals))
    assert medians[0] > medians[1] > medians[2]
