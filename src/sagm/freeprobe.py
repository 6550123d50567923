"""Finite-dimensional random-matrix surrogate of the order-inequality
counterexample.

The counterexample lives in a free product von Neumann algebra; here the
freeness is approximated by independent Haar unitaries at large dimension.
The difference identity between the two degree-3 means is exact algebra
(it only needs a_j a_j* = a^2), so it must hold at any dimension; only the
trace statements are asymptotic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from . import symsum
from .linalg import haar_unitary, hermitian_with_moments, min_eig_hermitian, normalized_trace, spectral_norm

_REJECTION_CAP = 10_000


@dataclass
class FreeFamily:
    """Hermitian a with tau(a) = 0, tau(a^2) = 1, plus unitaries u_j and the
    derived a_j = a u_j."""

    dim: int
    n: int
    t: float
    a: np.ndarray
    us: np.ndarray  # (n, dim, dim)
    ajs: np.ndarray  # (n, dim, dim)
    degenerate: bool  # t = 1, i.e. a^2 = I
    max_u_trace: float  # largest |tau(u_j)| actually accepted

    def validate(self) -> None:
        if np.max(np.abs(self.a - self.a.conj().T)) > 1e-10:
            raise AssertionError("a is not Hermitian")
        if abs(normalized_trace(self.a)) > 1e-12:
            raise AssertionError("tau(a) != 0")
        if abs(normalized_trace(self.a @ self.a) - 1.0) > 1e-12:
            raise AssertionError("tau(a^2) != 1")
        eye = np.eye(self.dim)
        for u in self.us:
            x = u.conj().T @ u - eye
            # ||X||_2 <= ||X||_F, so a Frobenius norm within 1e-12 already
            # certifies the bound; only the others need the spectral norm.
            if np.linalg.norm(x) > 1e-12 and spectral_norm(x) > 1e-12:
                raise AssertionError("u is not unitary to 1e-12")

    @cached_property
    def means(self) -> Tuple[np.ndarray, np.ndarray]:
        """Degree-3 (E_wo, E_wr) in the ordering a_{j1} a_{j2} a_{j3} a_{j3}* ...,
        i.e. symsum's means of the adjoint family {a_j*}; needs n >= 3."""
        adjoint = symsum.OperatorFamily(self.ajs.conj().transpose(0, 2, 1))
        return symsum.e_wo(adjoint, 3), symsum.e_wr(adjoint, 3)


def trace_tolerance(dim: int) -> float:
    """Rejection threshold for |tau(u)|.

    A Haar trace has typical size 1/dim, so a fixed absolute cutoff is
    unreachable at small dimension; 3/dim accepts almost every draw at any
    size while staying far below the O(1) effect sizes probed here, and the
    floor keeps very large dimensions at the 1e-3 cutoff.
    """
    return max(1e-3, 3.0 / dim)


def _traceless_haar(dim: int, rng: np.random.Generator, tol: float) -> np.ndarray:
    best_tau = np.inf
    for _ in range(_REJECTION_CAP):
        u = haar_unitary(dim, rng)
        tau = abs(normalized_trace(u))
        if tau <= tol:
            return u
        best_tau = min(best_tau, tau)
    raise RuntimeError(
        f"no Haar unitary with |tau(u)| <= {tol:.1e} in {_REJECTION_CAP} draws "
        f"(best {best_tau:.3e})"
    )


def make_free_family(
    dim: int,
    n: int,
    t: float,
    rng: np.random.Generator,
    tau_tol: Optional[float] = None,
) -> FreeFamily:
    """Build a = (Haar-conjugated {±t, ±s} diagonal) and n independent Haar
    unitaries with near-zero trace; a_j = a u_j.

    dim = 1 is allowed as a documented degenerate escape hatch (a = 1,
    u_j = 1) for the scalar sanity checks.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not 0 < t <= np.sqrt(2.0):
        raise ValueError(f"t must satisfy 0 < t <= sqrt(2) (s real), got {t}")
    if dim == 1:
        ones = np.ones((1, 1), dtype=complex)
        us = np.stack([ones] * n)
        return FreeFamily(dim=1, n=n, t=1.0, a=ones, us=us, ajs=us.copy(),
                          degenerate=True, max_u_trace=1.0)
    diag = hermitian_with_moments(dim, t)  # validates dim % 4
    v = haar_unitary(dim, rng)
    a = v @ diag @ v.conj().T
    a = (a + a.conj().T) / 2.0  # scrub rounding asymmetry
    tol = trace_tolerance(dim) if tau_tol is None else tau_tol
    us = np.stack([_traceless_haar(dim, rng, tol) for _ in range(n)])
    ajs = a @ us
    fam = FreeFamily(
        dim=dim,
        n=n,
        t=t,
        a=a,
        us=us,
        ajs=ajs,
        degenerate=bool(np.isclose(t, 1.0)),
        max_u_trace=max(abs(normalized_trace(u)) for u in us),
    )
    fam.validate()
    return fam


def difference_identity_residual(fam: FreeFamily) -> float:
    """Residual of the exact expansion of E_wo - E_wr in terms of (1 - a^2).

    E_wo - E_wr = [1/n^2 - 1/(n(n-1))] sum_{j,k} a_j a_k (1-a^2) a_k* a_j*
                 + 1/(n(n-1)) sum_j a_j^2 (1-a^2) (a_j*)^2

    This only uses a_j a_j* = a^2, so it holds for any unitaries; freeness is
    not required and the residual must vanish to rounding.
    """
    wo, wr = fam.means  # raises for n < 3, where the identity is not stated
    n = fam.n
    core = np.eye(fam.dim, dtype=complex) - fam.a @ fam.a
    ajh = fam.ajs.conj().transpose(0, 2, 1)
    wrapped = fam.ajs @ core @ ajh  # a_j (1 - a^2) a_j*, stacked over j
    double = np.sum(fam.ajs @ np.sum(wrapped, axis=0) @ ajh, axis=0)
    single = np.sum(fam.ajs @ wrapped @ ajh, axis=0)
    rhs = (1.0 / n**2 - 1.0 / (n * (n - 1))) * double + single / (n * (n - 1))
    return spectral_norm((wo - wr) - rhs)


def order_violation(fam: FreeFamily) -> float:
    """lambda_min(E_wr - E_wo); strictly negative certifies that the
    without-replacement mean is not dominated by the with-replacement one."""
    wo, wr = fam.means
    return min_eig_hermitian(wr - wo)


def trace_gap(fam: FreeFamily) -> float:
    """|tau(E_wr) - tau(E_wo)|; tends to 0 with dimension while the order
    violation persists (equal traces, unequal operators)."""
    wo, wr = fam.means
    return abs(normalized_trace(wr) - normalized_trace(wo))


def mixed_moment_residual(fam: FreeFamily) -> float:
    """|tau(a u a u*) - tau(a)^2| for u = u_1: residual against the
    tau-factorized free value, shrinking as dimension grows."""
    u = fam.us[0]
    val = normalized_trace(fam.a @ u @ fam.a @ u.conj().T)
    free_val = normalized_trace(fam.a) ** 2
    return abs(val - free_val)
