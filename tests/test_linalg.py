"""Unit tests for the dense matrix helpers."""

import tracemalloc

import numpy as np
import pytest

from sagm import linalg


def random_complex(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


class TestSpectralNorm:
    def test_matches_svd_small(self):
        rng = np.random.default_rng(0)
        for dim in (1, 2, 5, 17, 32):
            m = random_complex(rng, dim)
            expected = np.linalg.norm(m, 2)
            assert abs(linalg.spectral_norm(m) - expected) <= 1e-10 * max(1.0, expected)

    def test_matches_svd_large(self):
        # Random matrices above dim 32, and a near-degenerate top pair
        # (sigma_1 = 1, sigma_2 = 1 - 1e-9) on which an iterative method
        # converges slowly; Haar-conjugated so no basis is special.
        rng = np.random.default_rng(1)
        cases = [random_complex(rng, dim) for dim in (33, 64, 100, 256)]
        for dim in (33, 128, 256):
            sigma = np.concatenate([[1.0, 1.0 - 1e-9], rng.uniform(0.0, 0.9, dim - 2)])
            u, v = linalg.haar_unitary(dim, rng), linalg.haar_unitary(dim, rng)
            cases.append((u * sigma) @ v.conj().T)
        for m in cases:
            expected = np.linalg.norm(m, 2)
            assert abs(linalg.spectral_norm(m) - expected) <= 1e-12 * expected

    def test_zero_matrix(self):
        assert linalg.spectral_norm(np.zeros((40, 40))) == 0.0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            linalg.spectral_norm(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        m = np.eye(3, dtype=complex)
        m[0, 0] = np.nan
        with pytest.raises(ValueError):
            linalg.spectral_norm(m)


class TestHermitianSpectrum:
    def test_matches_eigvalsh(self):
        rng = np.random.default_rng(2)
        m = random_complex(rng, 6)
        h = (m + m.conj().T) / 2
        eigs, skew = linalg.hermitian_spectrum(h)
        assert eigs[0] == pytest.approx(np.linalg.eigvalsh(h)[0], abs=1e-12)
        assert np.allclose(eigs, np.linalg.eigvalsh(h), rtol=0, atol=1e-12)
        assert skew == 0.0

    def test_skew_part_norm(self):
        rng = np.random.default_rng(5)
        m = random_complex(rng, 5)
        h = (m + m.conj().T) / 2
        k = 1e-11 * (m - m.conj().T)  # skew, inside the asymmetry guard
        eigs, skew = linalg.hermitian_spectrum(h + k)
        # rounding of h + k at entries of size 1 limits the match
        assert skew == pytest.approx(np.linalg.norm(k), rel=0, abs=1e-14)
        assert np.allclose(eigs, np.linalg.eigvalsh(h), rtol=0, atol=1e-12)

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="asymmetry residual"):
            linalg.hermitian_spectrum(m)


def test_stacks_match_one_call_per_matrix():
    # a stack of matrices gets the bits each matrix gets alone, and the skew
    # part's norm is np.linalg.norm's, bit for bit
    rng = np.random.default_rng(7)
    for dim in (1, 3, 8):
        ms = np.stack([random_complex(rng, dim) for _ in range(4)])
        assert linalg.spectral_norm(ms).tolist() == [linalg.spectral_norm(m) for m in ms]
        h = (ms + ms.conj().swapaxes(-1, -2)) / 2 + 1e-12 * (ms - ms.conj().swapaxes(-1, -2))
        eigs, skew = linalg.hermitian_spectrum(h)
        singles = [linalg.hermitian_spectrum(m) for m in h]
        assert np.array_equal(eigs, np.stack([e for e, _ in singles]))
        assert skew.tolist() == [s for _, s in singles]
        assert skew.tolist() == [float(np.linalg.norm(m - m.conj().T)) / 2.0 for m in h]


def test_normalized_trace():
    m = np.diag([1.0, 2.0, 3.0]).astype(complex)
    assert linalg.normalized_trace(m) == pytest.approx(2.0)


class TestHaarUnitary:
    def test_unitary(self):
        rng = np.random.default_rng(3)
        for dim in (1, 2, 8, 32):
            u = linalg.haar_unitary(dim, rng)
            assert np.allclose(u.conj().T @ u, np.eye(dim), atol=1e-12)

    def test_dim_one_is_unit_modulus_scalar(self):
        u = linalg.haar_unitary(1, np.random.default_rng(4))
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-14

    def test_deterministic_given_seed(self):
        a = linalg.haar_unitary(5, np.random.default_rng(7))
        b = linalg.haar_unitary(5, np.random.default_rng(7))
        assert np.array_equal(a, b)


@pytest.mark.parametrize("shape", [(2, 4, 4), (32, 2, 4, 4), (2, 256, 256), (5, 2, 3, 3)])
def test_complex_gaussians_keep_the_expression_bits(shape):
    # built in place, with the bits of the three-temporary expression,
    # compared as the float64 words of the real and imaginary parts
    g = np.random.default_rng(sum(shape)).standard_normal(shape)
    want = (g[..., 0, :, :] + 1j * g[..., 1, :, :]) / np.sqrt(2.0)
    got = linalg.complex_gaussians(g)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.float64), want.view(np.float64))


def test_complex_gaussians_allocate_only_the_result():
    # tracemalloc peak above the normals, in dim x dim complex matrices: the
    # result alone reads 1.01 at dim 64; the expression's temporaries read 3.02
    g = np.random.default_rng(5).standard_normal((2, 64, 64))
    tracemalloc.start()
    try:
        z = linalg.complex_gaussians(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / z.nbytes < 1.5


class TestHermitianWithMoments:
    def test_exact_moments(self):
        for t in (0.5, 1.0, 1.2, np.sqrt(2.0)):
            a = np.diag(linalg.hermitian_with_moments(8, t))
            assert linalg.normalized_trace(a) == pytest.approx(0.0, abs=1e-15)
            assert linalg.normalized_trace(a @ a).real == pytest.approx(1.0, abs=1e-14)

    def test_dim_must_divide_four(self):
        with pytest.raises(ValueError):
            linalg.hermitian_with_moments(6, 1.2)

    def test_t_domain(self):
        with pytest.raises(ValueError):
            linalg.hermitian_with_moments(8, 1.5)
        with pytest.raises(ValueError):
            linalg.hermitian_with_moments(8, 0.0)


def test_verdict_passes_up_to_rhs_plus_slack():
    # a Python bool for one family, elementwise over a stack
    assert linalg.Verdict(1.5, 1.0, 0.5).passed is True
    assert linalg.Verdict(float(np.nextafter(1.5, np.inf)), 1.0, 0.5).passed is False
    stack = linalg.Verdict(np.array([0.5, 2.0, 3.0]), np.array([1.0, 1.0, 1.5]), 1.0)
    assert stack.passed.tolist() == [True, True, False]
