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

A worker's memory bounds the dimension it can reach, so no step stacks its
n per-operator products: the unitaries are certified and multiplied in one
at a time, ``symsum.e_wr`` steps one operator at a time above dim 64, the
identity's right side is summed one operator at a time, and each family
lives only for its own row.  At n = 3 a worker then holds at most
14.0 dim x dim complex matrices at once at dim 256 and 16.05 at dim 64
(tracemalloc), against 23.0 and 25.1 when these steps stacked their
products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from . import symsum
from .linalg import (Verdict, haar_unitary, hermitian_spectrum, hermitian_with_moments,
                     normalized_trace, spectral_norm)

_REJECTION_CAP = 10_000
# the identity is exact algebra, so its residual is rounding alone
IDENTITY_TOL = 1e-9


@dataclass
class FreeFamily:
    """Hermitian a with tau(a) = 0, tau(a^2) = 1, and a_j = a u_j for n
    Haar unitaries u_j.  The u_j themselves are not kept: each is certified
    (``check_unitary``) before it is multiplied in and dropped."""

    dim: int
    n: int
    a: np.ndarray
    ajs: np.ndarray  # (n, dim, dim)

    def validate(self) -> None:
        # tier-1 reaches 0 (a is scrubbed) and 8.9e-16 (trace moments)
        if np.max(np.abs(self.a - self.a.conj().T)) > 1e-10:
            raise AssertionError("a is not Hermitian")
        if abs(normalized_trace(self.a)) > 1e-12:
            raise AssertionError("tau(a) != 0")
        if abs(normalized_trace(self.a @ self.a) - 1.0) > 1e-12:
            raise AssertionError("tau(a^2) != 1")


def check_unitary(u: np.ndarray) -> None:
    """Raise unless ||u* u - I|| <= 1e-12; tier-1 reaches 3.1e-15 at dim 256."""
    x = u.conj().T @ u - np.eye(u.shape[0])
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
    near-zero trace; a_j = a u_j.  The unitaries are drawn, certified and
    multiplied in one at a time, so no stack of them is built.

    Every parameter is checked (``check_parameters``) before anything is
    drawn.  t = 1 gives the degenerate case a^2 = I.
    """
    check_parameters(dim, n, t)
    spectrum = hermitian_with_moments(dim, t)
    v = haar_unitary(dim, rng)
    a = (v * spectrum) @ v.conj().T  # scales v's columns: v @ diag(spectrum)
    a = (a + a.conj().T) / 2.0  # scrub rounding asymmetry
    tol = trace_tolerance(dim)
    ajs = []
    for _ in range(n):
        u = _traceless_haar(dim, rng, tol)
        check_unitary(u)
        ajs.append(a @ u)  # u is dropped here, once certified
    ajs = np.stack(ajs)  # rebound, so the list is freed before validate runs
    fam = FreeFamily(dim=dim, n=n, a=a, ajs=ajs)
    fam.validate()
    return fam


def means(fam: FreeFamily) -> Tuple[np.ndarray, np.ndarray]:
    """Degree-3 (E_wo, E_wr) in the ordering a_{j1} a_{j2} a_{j3} a_{j3}* ...,
    i.e. symsum's means of the adjoint family {a_j*}; needs n >= 3."""
    adjoint = symsum.OperatorFamily(fam.ajs.conj().transpose(0, 2, 1))
    return symsum.e_wo(adjoint, 3), symsum.e_wr(adjoint, 3)


def measure(fam: FreeFamily) -> Dict[str, object]:
    """The counterexample's three measurements of one family, from one pair
    of degree-3 means: the difference identity's verdict, ``Verdict(residual,
    0, IDENTITY_TOL)``, and the CLI's lambda_min and trace_gap columns."""
    wo, wr = means(fam)
    return {
        "identity": Verdict(difference_identity_residual(fam, wo, wr), 0.0, IDENTITY_TOL),
        "lambda_min": order_violation(wo, wr),
        "trace_gap": trace_gap(wo, wr),
    }


def measure_seeds(dim: int, n: int, t: float, seed: int, seeds: range) -> List[Dict[str, object]]:
    """``measure`` of the family of each seed s in ``seeds`` of a CLI run
    with ``seed``, ``make_free_family(dim, n, t, default_rng([seed, s]))``,
    in order.  Each seed's stream is its own, so any split of the seeds
    over processes gives the same rows.

    Each family lives only for its own row.  Keeping it until the next one
    was built, so that glibc reused its heap, no longer pays: at dim 256
    over 4 seeds, dropping it first took 1.0 MiB off the peak RSS at 1.05
    against 1.08 s CPU and 23.6k against 24.1k minor faults with one BLAS
    thread in two workers, and 3.0 MiB at 1.70 against 1.72 s and 18.6k
    against 16.5k faults with two BLAS threads in one process (medians of
    8 and 12 runs).  While the means and the identity stacked their
    products, dropping it first made 48k faults against 24k and took 5-13 %
    more time."""
    # one call per row, so no seed's family or means outlive its row
    return [measure(make_free_family(dim, n, t, np.random.default_rng([seed, s])))
            for s in seeds]


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
    rhs = _identity_rhs(fam)  # built before wo - wr, which is then not live
    return spectral_norm((wo - wr) - rhs)


def _identity_rhs(fam: FreeFamily) -> np.ndarray:
    """The identity's right side, sum_j a_j (alpha W + beta w_j) a_j*.  Both
    sums run one operator at a time, in j order, so at most the n w_j are
    live at once, never a stack of n products."""
    n = fam.n
    alpha, beta = 1.0 / n**2 - 1.0 / (n * (n - 1)), 1.0 / (n * (n - 1))
    core = np.eye(fam.dim, dtype=complex) - fam.a @ fam.a
    wrapped = [aj @ core @ aj.conj().T for aj in fam.ajs]
    # the builtin sum adds in order onto 0, as np.sum over a stack does, so
    # both sums keep the stacked bits; each w_j is dropped once it is used
    aw = alpha * sum(wrapped)
    return sum(aj @ (aw + beta * wrapped.pop(0)) @ aj.conj().T for aj in fam.ajs)


def order_violation(wo: np.ndarray, wr: np.ndarray) -> float:
    """lambda_min(E_wr - E_wo); strictly negative certifies that the
    without-replacement mean is not dominated by the with-replacement one."""
    return float(hermitian_spectrum(wr - wo)[0][0])


def trace_gap(wo: np.ndarray, wr: np.ndarray) -> float:
    """|tau(E_wr) - tau(E_wo)|; tends to 0 with dimension while the order
    violation persists (equal traces, unequal operators)."""
    return abs(normalized_trace(wr) - normalized_trace(wo))
