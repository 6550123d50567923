"""Dense complex matrix helpers: norms, spectra, traces, random sampling.

All matrices are square numpy arrays of dtype complex128.  There is one
spectral norm, ``spectral_norm``, and one guarded spectrum of a matrix that
should be Hermitian, ``hermitian_spectrum``, both computed by LAPACK at
every size.  Both take one matrix or a stack of matrices of one shape,
(..., k, k), and give a matrix of a stack the same bits as alone.
Randomness always comes from an explicit ``numpy.random.Generator``; nothing
in here touches global RNG state.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

# the largest asymmetry of a computed mean in tier-1 is 1.6e-15: only a wrong mean fails
HERMITIAN_TOL = 1e-10


def as_matrices(m) -> np.ndarray:
    """``m`` as complex128 of shape (..., k, k): one square matrix, or a stack
    of them."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1] or m.shape[-1] < 1:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


def one_or_stack(values):
    """``values`` as a Python scalar where it holds the one value of a single
    matrix or family (a 0-d array), else as the array over the stack."""
    values = np.asarray(values)
    return values.item() if values.ndim == 0 else values


def first_flagged(flags, values):
    """The entry of ``values`` at the first set entry of ``flags``, in stack
    order, or None where none is set.  An error about a stack names that
    entry, as a loop over the stack would."""
    hits = np.asarray(values)[np.asarray(flags)]
    return hits[0] if hits.size else None


def spectral_norm(m):
    """Largest singular value of ``m``: the square root of the top eigenvalue
    of M*M from a full Hermitian eigendecomposition (LAPACK ``eigvalsh``).
    A float for one matrix, an array over the stack for a stack.

    Deterministic at every size, with no iteration that could stop short and
    underestimate a norm that feeds a bound check.
    """
    m = as_matrices(m)
    top = np.linalg.eigvalsh(m.conj().swapaxes(-1, -2) @ m)[..., -1]
    return one_or_stack(np.sqrt(np.maximum(top, 0.0)))


def hermitian_spectrum(m) -> Tuple[np.ndarray, float]:
    """(ascending eigenvalues of the Hermitian part (M + M*)/2, Frobenius
    norm of the skew part (M - M*)/2), each over the stack for a stack.

    Raises if the input deviates from Hermitian by more than 1e-10 in any
    entry; the message names the residual of the first matrix that does.
    """
    m = as_matrices(m)
    skew = m - m.conj().swapaxes(-1, -2)
    residual = np.max(np.abs(skew), axis=(-2, -1))
    worst = first_flagged(residual > HERMITIAN_TOL, residual)
    if worst is not None:
        raise ValueError(f"matrix is not Hermitian: asymmetry residual {worst:.3e}")
    # ||skew||_F as np.linalg.norm takes it of one matrix, by two real dot
    # products of its entries, here as vector-vector matmuls per matrix
    flat = skew.reshape(skew.shape[:-2] + (1, -1))
    squares = flat.real @ flat.real.swapaxes(-1, -2) + flat.imag @ flat.imag.swapaxes(-1, -2)
    return (np.linalg.eigvalsh((m + m.conj().swapaxes(-1, -2)) / 2.0),
            one_or_stack(np.sqrt(squares[..., 0, 0]) / 2.0))


def normalized_trace(m) -> complex:
    """(1/dim) * trace of one matrix."""
    m = as_matrices(m)
    if m.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return complex(np.trace(m)) / m.shape[0]


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary from ``unitaries_from_gaussians``."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return unitaries_from_gaussians(rng.standard_normal((2, dim, dim)))


def complex_gaussians(g: np.ndarray) -> np.ndarray:
    """The standard complex Gaussians (g[..., 0, :, :] + i g[..., 1, :, :]) / sqrt(2)
    from real standard normals g of shape (..., 2, k, k), built in place in
    one complex array: the bits of that expression, without its three
    temporaries of the result's size."""
    z = np.empty(g.shape[:-3] + g.shape[-2:], dtype=complex)
    z.real = g[..., 0, :, :]
    z.imag = g[..., 1, :, :]
    z /= np.sqrt(2.0)
    return z


def unitaries_from_gaussians(g: np.ndarray) -> np.ndarray:
    """Haar unitaries from real standard normals g of shape (..., 2, dim, dim):
    QR of ``complex_gaussians(g)`` with the R diagonal phase folded back into
    Q, one per leading index.

    One stacked draw and QR give the same bits as drawing and factoring each
    unitary in turn, because the generator fills the stack in that order."""
    # z is held until the return: freed right after the QR, it lowered the
    # peak by one matrix, but each dim-256 draw faulted 256 more pages in
    z = complex_gaussians(g)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def hermitian_with_moments(dim: int, t: float) -> np.ndarray:
    """The real spectrum, as a vector of length dim, of a Hermitian a with
    eigenvalues {+t, -t, +s, -s} in equal multiplicity, where
    s = sqrt(2 - t^2), so the normalized trace of a is 0 and of a^2 is 1
    exactly.  At t = 1, s = 1 too and a^2 = I."""
    if dim < 1 or dim % 4 != 0:
        raise ValueError(f"dim must be a positive multiple of 4, got {dim}")
    if not 0 < t <= np.sqrt(2.0):
        raise ValueError(f"t must satisfy 0 < t <= sqrt(2), got {t}")
    s = np.sqrt(max(2.0 - t * t, 0.0))
    q = dim // 4
    return np.concatenate([np.full(q, t), np.full(q, -t), np.full(q, s), np.full(q, -s)])
