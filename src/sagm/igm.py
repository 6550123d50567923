"""Incremental gradient method for noisy least squares, the convergence bound
evaluator, and the isotropic test-vector generators (group orbits, spherical
designs).

Model: y_i = a_i* x_star + w_i with w_i i.i.d. mean-zero noise of variance
rho^2, drawn once per trial (fixed noisy dataset, not fresh per visit).
The iteration is x <- x - gamma a_i (a_i* x - y_i) with indices drawn with
replacement, without replacement (permutation prefix), or from an enlarged
pool of repeated copies.

Monte Carlo trial t draws from the t-th child of
default_rng(seed).spawn(trials): its noise normals first, then its indices.
The children's seed words are derived for all trials in one vectorised pass
from numpy's own pool (``seedseq``), numpy's PCG64 seeds itself from them,
and each run spot-checks the first and last trial's stream against numpy
before drawing (``trial_seed_words``).  The trials are drawn and stepped
TRIAL_BLOCK at a time, so a run's memory is O(trials * (k + 1)) for the
per-trial errors plus one block per process, whatever n is.  From
POOL_MIN_TRIALS trials on, the blocks run in forked worker processes, one
per CPU of the process's affinity mask and at most one per block, which
write each block's rows into memory shared with the caller.  The results
do not depend on the block size or the worker count.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import seedseq, workers
from .linalg import spectral_norm

POLICIES = ("with_replacement", "without_replacement", "block_repeat")

# A family is certified isotropic when ||(1/n) sum a a* - sigma I|| is at
# most this.  The designs and orbits the lab generates (simplices and
# cross-polytopes up to m = 400, the icosahedron, both orbit variants up to
# d = 16) have residuals below 5e-14, so the tolerance only absorbs rounding.
ISOTROPY_TOL = 1e-10

# Trials that monte_carlo_mse draws and steps at once.  A block of a complex
# family holds 2n normals and n complex noise values per trial: 8 MiB for
# 1024 trials at n = 256, where tracemalloc sees a 14.1 MiB peak for 20 000
# trials (157.6 MiB drawing all trials at once).  With one BLAS thread on a
# 2-core x86 box, the CLI on 30 000 trials of the d = 8 orbit (n = 64,
# k = 32) peaked at 55.8, 57.4, 61.7 and 68.7 MiB RSS with blocks of 512,
# 1024, 2048 and 4096 (105.9 MiB unblocked); in-process times were within
# noise of each other from 512 to 4096, and ~10 % slower at 256, where the
# step loop's per-block calls start to count.
TRIAL_BLOCK = 1024

# Trials from which monte_carlo_mse runs its blocks in forked workers.
# In-process time of cli.main, medians of 11 fresh CLI processes per point,
# one BLAS thread, 2-core x86 box, serial against two workers, at 2048 /
# 4096 / 6144 trials: the m = 3 simplex at k = 3 (the cheapest trial
# measured) 26 / 42 / 44 ms against 31 / 43 / 44 ms; the m = 2 simplex at
# k = 1 with replacement 37 / 59 / 70 against 38 / 51 / 58 ms; the d = 8
# orbit at k = 32 60 / 94 / 114 against 52 / 71 / 80 ms.  So from 6144
# trials on no measured family is slower with the pool.
POOL_MIN_TRIALS = 6144


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


class BoundDomainError(ValueError):
    """A validity precondition of the convergence bound fails."""


@dataclass
class VectorFamily:
    """Test vectors a_1..a_n with isotropy certificate (1/n) sum a a* = sigma I.

    ``isotropic`` holds iff ``isotropy_residual`` <= ``ISOTROPY_TOL``."""

    vectors: np.ndarray  # (n, m) complex
    sigma: float
    mu: float
    isotropy_residual: float
    isotropic: bool
    is_complex: bool

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def m(self) -> int:
        return self.vectors.shape[1]

    @staticmethod
    def from_vectors(vectors) -> "VectorFamily":
        v = np.asarray(vectors, dtype=complex)
        if v.ndim != 2:
            raise ValueError(f"expected an (n, m) array, got shape {v.shape}")
        n, m = v.shape
        # (1/n) sum a a*, one outer product at a time and in order: no (n, m, m)
        # stack, and the same sums as its mean (a single GEMM would reorder them)
        second_moment = np.zeros((m, m), dtype=complex)
        for a in v:
            second_moment += a.conj()[None, :] * a[:, None]
        second_moment /= n
        sigma = float(np.real(np.trace(second_moment))) / m
        residual = spectral_norm(second_moment - sigma * np.eye(m))
        mu = float(np.max(np.sum(np.abs(v) ** 2, axis=1)))
        return VectorFamily(
            vectors=v,
            sigma=sigma,
            mu=mu,
            isotropy_residual=residual,
            isotropic=residual <= ISOTROPY_TOL,
            is_complex=bool(np.any(np.abs(v.imag) > 0)),
        )


@dataclass(kw_only=True)
class IgmConfig:
    """One IGM run.  The CLI's JSON config holds these fields by name, plus a
    ``generator`` block; the CLI supplies the seed when the config omits it.
    ``x_star`` and ``x_0`` may be any array-like of length m;
    ``resolve_points`` converts them."""

    gamma: float
    rho: float = 0.0
    k: int
    policy: str = "without_replacement"
    block_mult: int = 1
    trials: int = 1
    seed: int
    x_star: Optional[np.ndarray] = None
    x_0: Optional[np.ndarray] = None

    def validate(self, n: int) -> None:
        for name in ("gamma", "rho"):
            value = getattr(self, name)
            if not (_is_real(value) and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        for name in ("k", "trials", "block_mult"):
            value = getattr(self, name)
            if not (_is_int(value) and value >= 1):
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if self.trials >= 2**32:
            raise ValueError(f"trials must be < 2**32 (one spawn-key word), got {self.trials}")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {self.policy!r}")
        if self.policy != "block_repeat" and self.block_mult != 1:
            raise ValueError(f"block_mult applies only to block_repeat, got block_mult="
                             f"{self.block_mult} with policy {self.policy!r}")
        if self.policy == "without_replacement" and self.k > n:
            raise ValueError(
                f"without_replacement requires k <= n (k={self.k}, n={n}); "
                "use block_repeat to enlarge the pool"
            )
        if self.policy == "block_repeat" and self.k > n * self.block_mult:
            raise ValueError(f"block_repeat pool too small: k={self.k} > n*mult={n * self.block_mult}")

    def resolve_points(self, m: int) -> Tuple[np.ndarray, np.ndarray]:
        x_star = np.ones(m, dtype=complex) if self.x_star is None else np.asarray(self.x_star, dtype=complex)
        x_0 = np.zeros(m, dtype=complex) if self.x_0 is None else np.asarray(self.x_0, dtype=complex)
        if x_star.shape != (m,) or x_0.shape != (m,):
            raise ValueError("x_star / x_0 must be m-vectors")
        return x_star, x_0


@dataclass
class IgmStats:
    mean_mse: np.ndarray
    stderr: np.ndarray
    bound: np.ndarray  # NaN where the bound preconditions fail
    bound_note: List[str]


def phi(gamma: float, sigma: float, mu: float) -> float:
    """Contraction factor 1 - 2 gamma sigma + gamma^2 sigma mu."""
    return 1.0 - 2.0 * gamma * sigma + gamma * gamma * sigma * mu


def _index_draw(policy: str, n: int, k: int, block_mult: int) -> Callable[[np.random.Generator], np.ndarray]:
    """The per-trial index draw of a sampling policy, for a config that
    ``IgmConfig.validate`` has accepted.  Without replacement takes the
    first k entries of a full Fisher-Yates shuffle of 0..n-1 (uniform over
    ordered k-subsets); block_repeat shuffles a pool of block_mult copies.
    The shuffle runs in place on one reused row, so the returned view is
    valid until the next call."""
    if policy == "with_replacement":
        return lambda rng: rng.integers(0, n, size=k)
    source = np.arange(n) if policy == "without_replacement" else np.repeat(np.arange(n), block_mult)
    row = np.empty_like(source)

    def draw(rng: np.random.Generator) -> np.ndarray:
        row[:] = source
        rng.shuffle(row)  # bit-identical to rng.permutation(source)
        return row[:k]

    return draw


def _noise(z: np.ndarray, rho: float, is_complex: bool) -> np.ndarray:
    """Noise w (..., n) from standard normals z: rho z for a real family;
    rho (z_re + i z_im) / sqrt(2) for a complex one, whose z is (..., 2n)
    with the n real parts first."""
    if is_complex:
        n = z.shape[-1] // 2
        return rho * (z[..., :n] + 1j * z[..., n:]) / np.sqrt(2.0)
    return (rho * z).astype(complex)


def trial_seed_words(cfg: IgmConfig) -> np.ndarray:
    """(trials, 4) uint64 array whose row t seeds trial t's stream.

    Trial t draws from the t-th child of default_rng(cfg.seed).spawn(trials),
    that is SeedSequence(seed, spawn_key=(t,)).  The children's seed words
    are derived in one vectorised pass, and each stream is numpy's PCG64
    seeded from its trial's words (``_stream``).  Before the words are
    returned, the PCG64 states of the first and the last trial are checked
    against PCG64 seeded by numpy's own SeedSequence; a mismatch raises
    RuntimeError.
    """
    words = seedseq.spawned_seed_words(cfg.seed, cfg.trials)
    for t in {0, cfg.trials - 1}:
        expected = np.random.PCG64(np.random.SeedSequence(cfg.seed, spawn_key=(t,))).state
        if np.random.PCG64(seedseq.SeedWords(words[t])).state != expected:
            raise RuntimeError(f"derived stream of trial {t} differs from numpy's "
                               f"SeedSequence(seed, spawn_key=({t},))")
    return words


def _stream(words: np.ndarray) -> np.random.Generator:
    """The stream of the trial whose row of ``trial_seed_words`` is ``words``."""
    return np.random.Generator(np.random.PCG64(seedseq.SeedWords(words)))


def error_expansion_check(
    vecs: VectorFamily,
    cfg: IgmConfig,
    index_sequence: Sequence[int],
) -> float:
    """Residual between the direct recursion and its expanded form
    prod(I - gamma a a*)(x0 - x*) + sum_l [prod_{j>l}(I - gamma a a*)] gamma a_l w_l
    for a fixed index sequence and the noise drawn from default_rng(cfg.seed)."""
    x_star, x0 = cfg.resolve_points(vecs.m)
    idx = np.asarray(index_sequence, dtype=int)
    z = np.random.default_rng(cfg.seed).standard_normal(2 * vecs.n if vecs.is_complex else vecs.n)
    noise = _noise(z, cfg.rho, vecs.is_complex)
    y = vecs.vectors.conj() @ x_star + noise

    x = x0.copy()
    for i in idx:
        a = vecs.vectors[i]
        x = x - cfg.gamma * a * (np.vdot(a, x) - y[i])
    direct = x - x_star

    m = vecs.m
    steps = [np.eye(m, dtype=complex) - cfg.gamma * np.outer(vecs.vectors[i], vecs.vectors[i].conj())
             for i in idx]
    expanded = x0 - x_star
    for s in steps:
        expanded = s @ expanded
    for l, i in enumerate(idx):
        term = cfg.gamma * noise[i] * vecs.vectors[i]
        for s in steps[l + 1:]:
            term = s @ term
        expanded = expanded + term
    return float(np.linalg.norm(direct - expanded))


def bound_rhs(vecs: VectorFamily, cfg: IgmConfig, k: int) -> float:
    """Convergence-bound right-hand side at step k.

    phi^k (1 + k(k-1)(1+C1)/(2n)) eta
      + rho^2 gamma^2 mu (1/(1 - phi e^{1/(n-k)}) + C2 phi e^{1/(n-k)} + 1)

    with C1 = sup ||I - gamma a a*||^2 / phi and C2 the integral-bound
    constant (a^2 - 2a + 2)/(-a)^3, a = 1/(n-k) + ln phi.  Raises
    BoundDomainError naming whichever validity condition fails.
    """
    n = vecs.n
    if not 1 <= k <= n - 1:
        raise BoundDomainError(f"bound needs 1 <= k <= n-1, got k={k}, n={n}")
    phi_val = phi(cfg.gamma, vecs.sigma, vecs.mu)
    if not 0.0 < phi_val < 1.0:
        raise BoundDomainError(f"phi = {phi_val:.6g} is outside (0, 1)")
    growth = phi_val * math.exp(1.0 / (n - k))
    a = 1.0 / (n - k) + math.log(phi_val)
    # growth = e^a, so both fail together; testing each guards rounding at 1
    if growth >= 1.0 or a >= 0.0:
        raise BoundDomainError(f"phi * exp(1/(n-k)) = {growth:.6g} >= 1: geometric series diverges")
    c2 = (a * a - 2.0 * a + 2.0) / (-a) ** 3
    norms_sq = np.sum(np.abs(vecs.vectors) ** 2, axis=1)
    c1 = float(np.max(np.maximum(1.0, np.abs(1.0 - cfg.gamma * norms_sq)) ** 2)) / phi_val
    x_star, x0 = cfg.resolve_points(vecs.m)
    eta = float(np.linalg.norm(x0 - x_star) ** 2)
    init_term = phi_val**k * (1.0 + k * (k - 1) * (1.0 + c1) / (2.0 * n)) * eta
    noise_term = cfg.rho**2 * cfg.gamma**2 * vecs.mu * (1.0 / (1.0 - growth) + c2 * growth + 1.0)
    return init_term + noise_term


def _trial_block(vecs: VectorFamily, cfg: IgmConfig, words: np.ndarray) -> np.ndarray:
    """(len(words), k + 1) squared errors ||x_s - x_star||^2, s = 0..k, of
    the trials whose rows of ``trial_seed_words`` are ``words``.  Each trial
    draws its noise normals and then its indices from its own stream, and
    the block steps all its trials at once, reproducing trial by trial the
    one-trajectory loop that ``tests/oracles.py`` keeps as the oracle."""
    x_star, x0 = cfg.resolve_points(vecs.m)
    ax_star = vecs.vectors.conj() @ x_star  # (n,)
    draw = _index_draw(cfg.policy, vecs.n, cfg.k, cfg.block_mult)
    size = len(words)
    z = np.empty((size, 2 * vecs.n if vecs.is_complex else vecs.n))
    idx = np.empty((size, cfg.k), dtype=int)
    for row_z, row_idx, row_words in zip(z, idx, words):
        rng = _stream(row_words)
        rng.standard_normal(out=row_z)  # bit-identical to two calls of n each
        row_idx[:] = draw(rng)
    w = _noise(z, cfg.rho, vecs.is_complex)
    rows = np.arange(size)
    err = np.empty((size, cfg.k + 1))
    x = np.broadcast_to(x0, (size, vecs.m)).copy()
    err[:, 0] = np.sum(np.abs(x - x_star) ** 2, axis=1)
    for s in range(cfg.k):
        sel = idx[:, s]
        a = vecs.vectors[sel]  # (size, m)
        y = ax_star[sel] + w[rows, sel]
        proj = np.sum(a.conj() * x, axis=1)
        x = x - cfg.gamma * a * (proj - y)[:, None]
        err[:, s + 1] = np.sum(np.abs(x - x_star) ** 2, axis=1)
    return err


def _squared_errors(vecs: VectorFamily, cfg: IgmConfig) -> np.ndarray:
    """(trials, k + 1) squared errors of every trial, TRIAL_BLOCK trials per
    ``_trial_block`` call, each block writing its own rows: in this process
    below POOL_MIN_TRIALS trials, else in min(CPUs, blocks) forked workers
    (``workers.fork_map``) that write into pages shared with this process.
    The step loop makes no BLAS-3 calls, so the BLAS thread count does not
    limit the workers, as it does counterexample's."""
    words = trial_seed_words(cfg)
    starts = range(0, cfg.trials, TRIAL_BLOCK)
    processes = 1 if cfg.trials < POOL_MIN_TRIALS else min(workers.pool_cpus(), len(starts))
    shape = (cfg.trials, cfg.k + 1)
    if processes == 1:
        sq_err = np.empty(shape)
    else:
        import mmap  # imported here, so that importing the CLI does not pay for it

        sq_err = np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape))).reshape(shape)

    def run(start: int) -> None:
        rows = _trial_block(vecs, cfg, words[start:start + TRIAL_BLOCK])
        sq_err[start:start + len(rows)] = rows

    workers.fork_map(run, starts, processes)
    return sq_err


def monte_carlo_mse(vecs: VectorFamily, cfg: IgmConfig) -> IgmStats:
    """Per-step sample mean and standard error of ||x_k - x_star||^2 over
    cfg.trials independent trials, with the bound curve attached wherever its
    preconditions hold.

    Trial t draws from the t-th child of default_rng(cfg.seed).spawn(trials),
    derived in one pass and spot-checked against numpy (``trial_seed_words``)
    before any trial runs, so the result equals a loop over spawned
    Generators bit for bit.  The trials run TRIAL_BLOCK at a time
    (``_trial_block``), so the memory is O(trials * (k + 1)) for the
    per-trial errors plus one block per process.  From POOL_MIN_TRIALS
    trials on, the blocks run in min(CPUs, blocks) forked worker processes,
    which set the caller's floating-point error handling and write their
    rows into memory shared with this process; below it, or with one CPU or
    no fork, they run in this process.  Each block's rows depend only on its
    trials, so the result does not depend on the block size or the worker
    count.  A block's exception re-raises here; a worker that dies or sends
    nothing raises a RuntimeError.  Every worker has been reaped by the time
    this returns or raises.
    """
    cfg.validate(vecs.n)
    x_star, x0 = cfg.resolve_points(vecs.m)
    sq_err = _squared_errors(vecs, cfg)
    mean = sq_err.mean(axis=0)
    if cfg.trials > 1:
        stderr = sq_err.std(axis=0, ddof=1) / np.sqrt(cfg.trials)
    else:
        stderr = np.zeros(cfg.k + 1)

    bound = np.full(cfg.k + 1, np.nan)
    notes: List[str] = []
    bound[0] = float(np.linalg.norm(x0 - x_star) ** 2)
    for step in range(1, cfg.k + 1):
        try:
            bound[step] = bound_rhs(vecs, cfg, step)
        except BoundDomainError as exc:
            notes.append(f"k={step}: {exc}")
    return IgmStats(mean_mse=mean, stderr=stderr, bound=bound, bound_note=notes)


# --------------------------------------------------------------------------
# Test-vector generators

def weyl_displacements(d: int) -> np.ndarray:
    """The d^2 Heisenberg-Weyl unitaries X^p Z^q on C^d."""
    omega = np.exp(2j * np.pi / d)
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    clock = np.diag(omega ** np.arange(d))
    out = np.empty((d * d, d, d), dtype=complex)
    xp = np.eye(d, dtype=complex)
    for p in range(d):
        zq = np.eye(d, dtype=complex)
        for q in range(d):
            out[p * d + q] = xp @ zq
            zq = zq @ clock
        xp = xp @ shift
    return out


def gen_group_orbit(d: int, variant: str = "rank_one_frame", *, rng: np.random.Generator) -> VectorFamily:
    """Heisenberg-Weyl orbit {W_{p,q} h : 0 <= p, q < d} of a fiducial with
    ||h|| = sqrt(d) drawn from ``rng``; n = d^2 vectors in C^d.

    rank_one_frame gives sigma = 1, mu = d; projector scales each orbit
    vector by sqrt(d) (the rank-one reading of the second orbit example),
    giving sigma = d, mu = d^2.
    """
    if not (_is_int(d) and d >= 2):
        raise ValueError(f"d must be an integer >= 2, got {d!r}")
    if variant not in ("rank_one_frame", "projector"):
        raise ValueError(f"unknown variant {variant!r}")
    h = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    h *= np.sqrt(d) / np.linalg.norm(h)
    vectors = weyl_displacements(d) @ h
    if variant == "projector":
        vectors = np.sqrt(d) * vectors
    return VectorFamily.from_vectors(vectors)


def _simplex_vertices(m: int) -> np.ndarray:
    """m+1 unit vectors in R^m with pairwise inner product -1/m."""
    mp1 = m + 1
    ones = np.ones((mp1, 1))
    q_full, _ = np.linalg.qr(np.hstack([ones, np.eye(mp1)[:, :m]]))
    basis = q_full[:, 1:]  # orthonormal basis of the hyperplane 1^perp
    centered = np.eye(mp1) - np.full((mp1, mp1), 1.0 / mp1)
    verts = centered @ basis  # rows are the projected vertices
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    return verts


def gen_spherical_design(kind: str, m: Optional[int] = None) -> VectorFamily:
    """Point sets whose second moment is exactly I/m: regular simplex
    (m+1 points), cross-polytope (2m points), icosahedron (12 points, m=3)."""
    if kind == "cross_polytope":
        if m is None or m < 2:
            raise ValueError("cross_polytope needs m >= 2")
        vectors = np.vstack([np.eye(m), -np.eye(m)])
    elif kind == "simplex":
        if m is None or m < 2:
            raise ValueError("simplex needs m >= 2")
        vectors = _simplex_vertices(m)
    elif kind == "icosahedron":
        if m not in (None, 3):
            raise ValueError("icosahedron lives in dimension 3")
        g = (1.0 + np.sqrt(5.0)) / 2.0
        base = []
        for s1 in (1.0, -1.0):
            for s2 in (1.0, -1.0):
                base.append([0.0, s1, s2 * g])
                base.append([s1, s2 * g, 0.0])
                base.append([s2 * g, 0.0, s1])
        vectors = np.array(base) / np.sqrt(1.0 + g * g)
    else:
        raise ValueError(f"unknown design kind {kind!r}")
    return VectorFamily.from_vectors(vectors)
