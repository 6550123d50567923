"""Finite-dimensional random-matrix surrogate of the order-inequality
counterexample.

The counterexample lives in a free product von Neumann algebra; here the
freeness is approximated by independent Haar unitaries at large dimension.
The difference identity between the two degree-3 means is exact algebra
(it only needs a_j a_j* = a^2), so it must hold at any dimension; only the
trace statements are asymptotic.

Seed s of a CLI run draws its family from default_rng([seed, s]), so the
CLI may split its seeds into consecutive shares, one per forked worker
process (``workers.fork_map``), that ``measure_seeds`` measures with the
same results.  The work is BLAS-3 (QR, GEMM, eigvalsh), so it does so only
where the workers' BLAS threads fit on the CPUs (``workers.blas_workers``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from . import symsum
from .linalg import haar_unitary, hermitian_spectrum, hermitian_with_moments, normalized_trace, spectral_norm

_REJECTION_CAP = 10_000


@dataclass
class FreeFamily:
    """Hermitian a with tau(a) = 0, tau(a^2) = 1, plus unitaries u_j and the
    derived a_j = a u_j."""

    dim: int
    n: int
    a: np.ndarray
    us: np.ndarray  # (n, dim, dim)
    ajs: np.ndarray  # (n, dim, dim)

    def validate(self) -> None:
        # tier-1 reaches 0 (a is scrubbed), 8.9e-16 (trace moments), 3.1e-15 (unitarity, dim 256)
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


def check_parameters(dim: int, n: int, t: float) -> None:
    """Raise ValueError unless ``make_free_family(dim, n, t, rng)`` can run:
    n >= 3 here, since the degree-3 means, the difference identity and the
    order check all need three operators; dim (a positive multiple of 4)
    and 0 < t <= sqrt(2) by ``hermitian_with_moments``."""
    if n < 3:
        raise ValueError(f"n must be >= 3 (the degree-3 means need three operators), got {n}")
    hermitian_with_moments(dim, t)


def make_free_family(dim: int, n: int, t: float, rng: np.random.Generator) -> FreeFamily:
    """Build a = v diag(spectrum) v* with v Haar and the {±t, ±s} spectrum
    of ``hermitian_with_moments``, and n independent Haar unitaries with
    near-zero trace; a_j = a u_j.

    Every parameter is checked (``check_parameters``) before anything is
    drawn.  t = 1 gives the degenerate case a^2 = I.
    """
    check_parameters(dim, n, t)
    spectrum = hermitian_with_moments(dim, t)
    v = haar_unitary(dim, rng)
    a = (v * spectrum) @ v.conj().T  # scales v's columns: v @ diag(spectrum)
    a = (a + a.conj().T) / 2.0  # scrub rounding asymmetry
    tol = trace_tolerance(dim)
    us = np.stack([_traceless_haar(dim, rng, tol) for _ in range(n)])
    fam = FreeFamily(dim=dim, n=n, a=a, us=us, ajs=a @ us)
    fam.validate()
    return fam


def means(fam: FreeFamily) -> Tuple[np.ndarray, np.ndarray]:
    """Degree-3 (E_wo, E_wr) in the ordering a_{j1} a_{j2} a_{j3} a_{j3}* ...,
    i.e. symsum's means of the adjoint family {a_j*}; needs n >= 3."""
    adjoint = symsum.OperatorFamily(fam.ajs.conj().transpose(0, 2, 1))
    return symsum.e_wo(adjoint, 3), symsum.e_wr(adjoint, 3)


def measure(fam: FreeFamily) -> Dict[str, float]:
    """The counterexample's three measurements of one family, keyed by the
    CLI's column names, from one pair of degree-3 means."""
    wo, wr = means(fam)
    return {
        "identity_residual": difference_identity_residual(fam, wo, wr),
        "lambda_min": order_violation(wo, wr),
        "trace_gap": trace_gap(wo, wr),
    }


def measure_seeds(dim: int, n: int, t: float, seed: int, seeds: range) -> List[Dict[str, float]]:
    """``measure`` of the family of each seed s in ``seeds`` of a CLI run
    with ``seed``, ``make_free_family(dim, n, t, default_rng([seed, s]))``,
    in order.  Each seed's stream is its own, so any split of the seeds
    over processes gives the same rows.

    Each family is dropped only once the next one is built.  glibc then
    reuses its heap from seed to seed.  Dropping the family first let it
    return ~15 MiB to the OS after every seed and fault them back in as
    fresh pages: at dim 256 over 4 seeds, 48k page faults against 24k and
    5-13 % more time, with one BLAS thread or two."""
    rows = []
    for s in seeds:
        fam = make_free_family(dim, n, t, np.random.default_rng([seed, s]))
        # one call per row, so no seed's means outlive its row
        rows.append(measure(fam))
    return rows


def difference_identity_residual(fam: FreeFamily, wo: np.ndarray, wr: np.ndarray) -> float:
    """Residual of the exact expansion of E_wo - E_wr in terms of (1 - a^2),
    for the family's degree-3 means (wo, wr) = ``means(fam)``.

    E_wo - E_wr = [1/n^2 - 1/(n(n-1))] sum_{j,k} a_j a_k (1-a^2) a_k* a_j*
                 + 1/(n(n-1)) sum_j a_j^2 (1-a^2) (a_j*)^2

    This only uses a_j a_j* = a^2, so it holds for any unitaries; freeness is
    not required and the residual must vanish to rounding.  With
    w_j = a_j (1-a^2) a_j* and W = sum_j w_j, the right side is one sum
    sum_j a_j (alpha W + beta w_j) a_j*, alpha and beta the two coefficients.
    """
    n = fam.n
    alpha, beta = 1.0 / n**2 - 1.0 / (n * (n - 1)), 1.0 / (n * (n - 1))
    core = np.eye(fam.dim, dtype=complex) - fam.a @ fam.a
    ajh = fam.ajs.conj().transpose(0, 2, 1)
    wrapped = fam.ajs @ core @ ajh  # w_j, stacked over j
    rhs = np.sum(fam.ajs @ (alpha * np.sum(wrapped, axis=0) + beta * wrapped) @ ajh, axis=0)
    return spectral_norm((wo - wr) - rhs)


def order_violation(wo: np.ndarray, wr: np.ndarray) -> float:
    """lambda_min(E_wr - E_wo); strictly negative certifies that the
    without-replacement mean is not dominated by the with-replacement one."""
    return float(hermitian_spectrum(wr - wo)[0][0])


def trace_gap(wo: np.ndarray, wr: np.ndarray) -> float:
    """|tau(E_wr) - tau(E_wo)|; tends to 0 with dimension while the order
    violation persists (equal traces, unequal operators)."""
    return abs(normalized_trace(wr) - normalized_trace(wo))
