"""Tests for the random-matrix surrogate of the order counterexample."""

import tracemalloc

import numpy as np
import pytest

from sagm import freeprobe
from sagm.linalg import Verdict, normalized_trace

import oracles


def family(dim=16, n=3, t=1.2, seed=0):
    return freeprobe.make_free_family(dim, n, t, np.random.default_rng(seed))


def family_and_unitaries(dim=16, n=3, t=1.2, seed=0):
    """``family(...)`` and the n unitaries u_j that it was built from, in
    order, recorded as they are drawn: the family keeps only a_j = a u_j."""
    drawn, original = [], freeprobe._traceless_haar
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(freeprobe, "_traceless_haar",
                      lambda *args: drawn.append(original(*args)) or drawn[-1])
        fam = family(dim, n, t, seed)
    return fam, drawn


def mixed_moment_residual(dim, seed):
    """|tau(a u a u*) - tau(a)^2| for u = u_1: residual against the
    tau-factorized free value, shrinking as dimension grows."""
    fam, (u, *_) = family_and_unitaries(dim=dim, seed=seed)
    val = normalized_trace(fam.a @ u @ fam.a @ u.conj().T)
    free_val = normalized_trace(fam.a) ** 2
    return abs(val - free_val)


class TestConstruction:
    def test_moments_exact(self):
        fam = family()
        assert abs(normalized_trace(fam.a)) <= 1e-13
        assert normalized_trace(fam.a @ fam.a).real == pytest.approx(1.0, abs=1e-13)
        assert np.abs(fam.a - fam.a.conj().T).max() <= 1e-12

    def test_unitaries_near_traceless(self):
        _, us = family_and_unitaries(dim=32, n=4)
        assert len(us) == 4
        assert max(abs(normalized_trace(u)) for u in us) <= freeprobe.trace_tolerance(32)
        for u in us:
            assert np.allclose(u.conj().T @ u, np.eye(32), atol=1e-12)

    def test_unitarity_certificate_branches(self, monkeypatch):
        _, (u0, *_) = family_and_unitaries(dim=8)
        spectral_calls = []
        original = freeprobe.spectral_norm
        monkeypatch.setattr(freeprobe, "spectral_norm",
                            lambda m: spectral_calls.append(1) or original(m))
        freeprobe.check_unitary(u0)  # Haar rounding defects pass on Frobenius alone
        assert spectral_calls == []
        # u* u - I = diag(+-9e-13): spectral defect 9.0e-13 passes, although
        # its Frobenius defect 2.5e-12 needs the spectral fallback
        freeprobe.check_unitary(u0 * np.sqrt(1.0 + 9e-13 * np.array([1, -1] * 4)))
        assert len(spectral_calls) == 1
        with pytest.raises(AssertionError, match="unitary"):
            freeprobe.check_unitary(u0 * np.sqrt(1.0 + 2e-12))

    def test_each_unitary_is_certified(self, monkeypatch):
        # every drawn u is checked, in draw order
        checked, original = [], freeprobe.check_unitary
        monkeypatch.setattr(freeprobe, "check_unitary", lambda u: checked.append(u) or original(u))
        _, us = family_and_unitaries(n=4)
        assert len(checked) == 4 and all(c is u for c, u in zip(checked, us))

    def test_ajs_are_a_times_u(self):
        # one product per unitary, with the bits of the stacked a @ us
        fam, us = family_and_unitaries()
        assert np.array_equal(fam.ajs, fam.a @ np.stack(us))

    def test_t_guard(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("a unitary was drawn before t was checked")

        monkeypatch.setattr(freeprobe, "haar_unitary", no_draws)
        for t in (1.5, 0.0, -1.0):
            with pytest.raises(ValueError, match="sqrt"):
                family(t=t)

    def test_n_guard(self):
        with pytest.raises(ValueError):
            family(n=1)

    def test_rejection_cap_raises(self, monkeypatch):
        monkeypatch.setattr(freeprobe, "trace_tolerance", lambda dim: 1e-12)
        with pytest.raises(RuntimeError, match="Haar"):
            family(dim=8)

    def test_trace_tolerance_shape(self):
        assert freeprobe.trace_tolerance(4) == pytest.approx(0.75)
        assert freeprobe.trace_tolerance(10_000) == pytest.approx(1e-3)


class TestMeans:
    # The counterexample ordering a_{j1} a_{j2} a_{j3} a_{j3}* a_{j2}* a_{j1}*
    # is the enumerated mean of the adjoint family {a_j*}.

    @staticmethod
    def adjoints(fam):
        return fam.ajs.conj().transpose(0, 2, 1)

    def test_wr_mean_matches_enumeration(self):
        fam = family()
        assert np.allclose(freeprobe.means(fam)[1], oracles.e_wr(self.adjoints(fam), 3), atol=1e-12)

    def test_wo_mean_matches_enumeration(self):
        for n in (3, 4):
            fam = family(n=n)
            assert np.allclose(freeprobe.means(fam)[0], oracles.e_wo(self.adjoints(fam), 3), atol=1e-12)

    def test_wo_mean_needs_three(self):
        # make_free_family rejects n = 2 itself, so cut a valid family down
        fam = family()
        two = freeprobe.FreeFamily(dim=fam.dim, n=2, a=fam.a, ajs=fam.ajs[:2])
        with pytest.raises(ValueError, match="exceeds family size n = 2"):
            freeprobe.means(two)

    def test_means_hermitian_psd(self):
        fam = family()
        for mat in freeprobe.means(fam):
            assert np.abs(mat - mat.conj().T).max() <= 1e-10
            assert np.linalg.eigvalsh((mat + mat.conj().T) / 2)[0] >= -1e-12


class TestIdentityAndViolation:
    def test_difference_identity_any_unitaries(self):
        # exact algebra: must hold at every dimension and n, freeness or not
        for seed in range(5):
            for n in (3, 4):
                fam = family(n=n, seed=seed)
                assert freeprobe.difference_identity_residual(fam, *freeprobe.means(fam)) <= 1e-12

    def test_degenerate_case_no_violation(self):
        # t = 1 makes a^2 = I, the difference vanishes identically
        wo, wr = freeprobe.means(family(dim=32, t=1.0))
        assert abs(freeprobe.order_violation(wo, wr)) <= 1e-10
        assert freeprobe.trace_gap(wo, wr) <= 1e-10

    def test_violation_at_moderate_dim(self):
        assert freeprobe.order_violation(*freeprobe.means(family(dim=64, t=1.2, seed=3))) < 0

    def test_measure_reads_one_pair_of_means(self):
        fam = family(n=4, seed=2)
        wo, wr = freeprobe.means(fam)
        assert freeprobe.measure(fam) == {
            "identity": Verdict(freeprobe.difference_identity_residual(fam, wo, wr), 0.0,
                                freeprobe.IDENTITY_TOL),
            "lambda_min": freeprobe.order_violation(wo, wr),
            "trace_gap": freeprobe.trace_gap(wo, wr),
        }

    def test_trace_gap_small(self):
        assert freeprobe.trace_gap(*freeprobe.means(family(dim=64, seed=4))) <= 1e-2


def test_mixed_moment_residual_improves_with_dimension():
    # freeness surrogate quality: the tau-factorization residual of
    # tau(a u a u*) shrinks as dimension grows (median over 20 seeds)
    medians = []
    for dim in (16, 64, 256):
        vals = [mixed_moment_residual(dim, s) for s in range(20)]
        medians.append(np.median(vals))
    assert medians[0] > medians[1] > medians[2]


def test_worker_memory_budget():
    # The tracemalloc peak of two seeds at dim 64, in dim x dim complex
    # matrices, reads 16.05: e_wr steps in groups of two 64 KiB products
    # next to the family (a and three a_j), its adjoint and E_wo (8), and
    # building a family peaks at 11.1.  With the products of all n operators
    # stacked, as in e_wr's and the identity's stacked oracles, and each
    # family kept until the next was built, it read 25.1.  Any further live
    # matrix at the peak reads >= 17.05.
    freeprobe.measure_seeds(8, 3, 1.2, 0, range(1))  # first-call allocations
    tracemalloc.start()
    try:
        freeprobe.measure_seeds(64, 3, 1.2, 0, range(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (16 * 64**2) < 17
