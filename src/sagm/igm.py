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
Each trial block derives the seed words of its own trials where it runs,
in one vectorised pass from numpy's own pool (``seedseq``), and numpy's
PCG64 seeds itself from them; the words of child t depend on t alone.
Before any block, each run spot-checks the first and last trial's stream
against numpy once, in the calling process (``trial_seed_words``).  The
trials are drawn and stepped TRIAL_BLOCK at a time, whatever n is.  A block
draws trial by trial (``_draw_block``), then steps the errors e = x - x_star
of all its trials at once, e <- e - gamma a_i (a_i* e - w_i), held as an
(m, trials) array, real for a real family and real points
(``_step_errors``); this recursion needs no y.  Each block returns only the
moments of its squared errors: their count, column means and column sums of
squared deviations (``_moments``), which the caller merges in block order
(``_merge_moments``).  So a run's memory is one block per process plus
O(blocks * (k + 1)), seed words included.  The blocks run in forked worker
processes, one per CPU of the process's affinity mask and at most one per
block, each on a consecutive share of the blocks, and send their moments
back through ``workers.fork_map``.  The results are bit-identical for every
worker count.  They are numpy's mean and std(ddof=1) of the per-trial
errors up to rounding, and bit for bit with one block (at most TRIAL_BLOCK
trials); numpy's sums down all the rows round more than the merge
(``_merge_moments``).  A run reads no isotropy certificate, which a family
computes only on first read (``VectorFamily``), so it makes no eigensolve.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

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
# 1024 trials at n = 256, where tracemalloc sees an 11.2 MiB peak for 20 000
# trials (157.6 MiB drawing all trials at once).  With one BLAS thread on a
# 2-core x86 box, the CLI on 30 000 trials of the d = 8 orbit (n = 64,
# k = 32) peaked at 37.4, 37.5, 37.4 and 42.8 MiB RSS (the process and its
# workers) with blocks of 512, 1024, 2048 and 4096 (153.7 MiB in one
# block): up to 2048 the calling process, which holds no block, sets the
# peak, and at 4096 a worker's block does.  In-process times were within
# noise of each other from 512 to 4096, and ~10 % slower at 256, where the
# step loop's per-block calls start to count.
TRIAL_BLOCK = 1024


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


class BoundDomainError(ValueError):
    """A validity precondition of the convergence bound fails."""


def _second_moment(v: np.ndarray) -> np.ndarray:
    """(1/n) sum a a* of the rows a of the (n, m) array v, one outer product
    at a time and in order: no (n, m, m) stack, and the same sums as its
    mean (a single GEMM would reorder them)."""
    second_moment = np.zeros((v.shape[1],) * 2, dtype=complex)
    for a in v:
        second_moment += a.conj()[None, :] * a[:, None]
    second_moment /= len(v)
    return second_moment


@dataclass
class VectorFamily:
    """Test vectors a_1..a_n with isotropy certificate (1/n) sum a a* = sigma I.

    ``isotropy_residual``, ||(1/n) sum a a* - sigma I||, is computed on
    first read and kept; it costs a Hermitian eigensolve, and only
    ``designs`` and the tests read it, so an igm run makes none.
    ``isotropic`` holds iff ``isotropy_residual`` <= ``ISOTROPY_TOL``."""

    vectors: np.ndarray  # (n, m) complex
    sigma: float
    mu: float
    is_complex: bool

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def m(self) -> int:
        return self.vectors.shape[1]

    @functools.cached_property
    def isotropy_residual(self) -> float:
        return spectral_norm(_second_moment(self.vectors) - self.sigma * np.eye(self.m))

    @property
    def isotropic(self) -> bool:
        return self.isotropy_residual <= ISOTROPY_TOL

    @staticmethod
    def from_vectors(vectors) -> "VectorFamily":
        v = np.asarray(vectors, dtype=complex)
        if v.ndim != 2 or min(v.shape) < 1:
            raise ValueError(f"expected an (n, m) array with n, m >= 1, got shape {v.shape}")
        return VectorFamily(
            vectors=v,
            sigma=float(np.real(np.trace(_second_moment(v)))) / v.shape[1],
            mu=float(np.max(np.sum(np.abs(v) ** 2, axis=1))),
            is_complex=bool(np.any(np.abs(v.imag) > 0)),
        )


@dataclass(kw_only=True)
class IgmConfig:
    """One IGM run.  The CLI's JSON config holds these fields by name, plus a
    ``generator`` block; the CLI supplies the seed when the config omits it.
    ``check_fields`` checks every field that needs no family, and
    ``validate(n)`` adds the bounds of k by n.  ``x_star`` and ``x_0`` may
    be any array-like of length m; ``resolve_points`` converts them and
    rejects a non-finite entry."""

    gamma: float
    rho: float = 0.0
    k: int
    policy: str = "without_replacement"
    block_mult: int = 1
    trials: int = 1
    seed: int
    x_star: Optional[np.ndarray] = None
    x_0: Optional[np.ndarray] = None

    def check_fields(self) -> None:
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

    def validate(self, n: int) -> None:
        self.check_fields()
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
        for name, point in (("x_star", x_star), ("x_0", x_0)):
            if not np.all(np.isfinite(point)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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


def _noise(z: np.ndarray, rho: float, is_complex: bool) -> np.ndarray:
    """Noise w (..., n) from standard normals z: the real rho z for a real
    family; rho (z_re + i z_im) / sqrt(2) for a complex one, whose z is
    (..., 2n) with the n real parts first."""
    if is_complex:
        n = z.shape[-1] // 2
        return rho * (z[..., :n] + 1j * z[..., n:]) / np.sqrt(2.0)
    return rho * z


def trial_seed_words(cfg: IgmConfig) -> None:
    """Spot-check the seed words of trials 0 and trials - 1 against numpy.

    Trial t draws from the t-th child of default_rng(cfg.seed).spawn(trials),
    that is SeedSequence(seed, spawn_key=(t,)).  Each trial block derives
    its own trials' seed words where it runs (``_draw_block``), in one
    vectorised pass, and each stream is numpy's PCG64 seeded from its
    trial's words (``_stream``).  This check derives the first and the last
    trial's words in one call and compares the PCG64 states they seed with
    PCG64 seeded by numpy's own SeedSequence; a mismatch raises
    RuntimeError.  A run makes it once, in the calling process, before any
    block.
    """
    trials = range(0, cfg.trials, max(cfg.trials - 1, 1))
    for t, words in zip(trials, seedseq.spawned_seed_words(cfg.seed, trials)):
        expected = np.random.PCG64(np.random.SeedSequence(cfg.seed, spawn_key=(t,))).state
        if np.random.PCG64(seedseq.SeedWords(words)).state != expected:
            raise RuntimeError(f"derived stream of trial {t} differs from numpy's "
                               f"SeedSequence(seed, spawn_key=({t},))")


def _stream(words: np.ndarray) -> np.random.Generator:
    """The stream of the trial whose row of ``seedseq.spawned_seed_words`` is
    ``words``."""
    return np.random.Generator(np.random.PCG64(seedseq.SeedWords(words)))


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


def _draw_block(vecs: VectorFamily, cfg: IgmConfig, trials: range) -> Tuple[np.ndarray, np.ndarray]:
    """(z, idx) of the trials ``trials``: row i of z holds the i-th trial's
    noise normals (``_noise``), row i of idx its k indices.  The block
    derives its trials' seed words here (``seedseq.spawned_seed_words``),
    and each trial draws its normals and then its indices from its own
    stream.  With replacement draws k integers in [0, n); without
    replacement takes the first k entries of a Fisher-Yates shuffle of
    0..n-1 (uniform over ordered k-subsets), block_repeat of a pool of
    block_mult copies of 0..n-1.  Each trial shuffles its own row of one
    tiled pool in place, bit-identical to rng.permutation of the pool."""
    n, size = vecs.n, len(trials)
    words = seedseq.spawned_seed_words(cfg.seed, trials)
    z = np.empty((size, 2 * n if vecs.is_complex else n))
    replace = cfg.policy == "with_replacement"
    if replace:
        idx = np.empty((size, cfg.k), dtype=int)
    else:
        pool = np.tile(np.repeat(np.arange(n), cfg.block_mult), (size, 1))
        idx = pool[:, :cfg.k]
    for t in range(size):
        rng = _stream(words[t])
        rng.standard_normal(out=z[t])  # bit-identical to two calls of n each
        if replace:
            idx[t] = rng.integers(0, n, size=cfg.k)
        else:
            rng.shuffle(pool[t])
    return z, idx


def _step_errors(vecs: VectorFamily, cfg: IgmConfig, w: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """(trials, k + 1) squared errors ||x_s - x_star||^2, s = 0..k, of the
    trials whose noise rows are ``w`` (trials, n) and index rows ``idx``
    (trials, k).  It steps the error e = x - x_star of all trials at once,
    e <- e - gamma a_i (a_i* e - w_i), as an (m, trials) array: each step
    gathers each trial's conj(a_i) and gamma a_i as columns of two (m, n)
    arrays and sums over their m rows.  The arrays are float64 when the
    family, x_0 and x_star are real (then w is real too), else complex;
    the real arithmetic gives the complex one's squared errors bit for
    bit, at about half its cost.  A trial's row depends on its own w and
    idx alone."""
    size = len(idx)
    if size == 1:
        # numpy sums the m >= 8 entries of a lone column pairwise but the
        # columns of a wider array row by row; a copy keeps the row order
        return _step_errors(vecs, cfg, np.repeat(w, 2, axis=0), np.repeat(idx, 2, axis=0))[:1]
    x_star, x0 = cfg.resolve_points(vecs.m)
    real = not (vecs.is_complex or np.any(x_star.imag) or np.any(x0.imag))
    part = np.real if real else np.asarray  # the real part is exact for a real step
    conj_vt = np.ascontiguousarray(part(vecs.vectors.conj().T))  # (m, n)
    gamma_vt = np.ascontiguousarray(part(cfg.gamma * vecs.vectors.T))
    steps = np.ascontiguousarray(idx.T)  # (k, trials)
    w_steps = np.ascontiguousarray(part(np.take_along_axis(w, idx, 1).T))  # w_{i_s} per step and trial
    e = np.repeat(part(x0 - x_star)[:, None], size, axis=1)  # (m, trials)
    err = np.empty((size, cfg.k + 1))
    err[:, 0] = _squared_norms(e)
    for s in range(cfg.k):
        a = conj_vt.take(steps[s], axis=1)  # (m, trials): a_i* of each trial
        a *= e
        residual = a.sum(axis=0)
        residual -= w_steps[s]
        a = gamma_vt.take(steps[s], axis=1)
        a *= residual
        e -= a
        err[:, s + 1] = _squared_norms(e)
    return err


def _squared_norms(e: np.ndarray) -> np.ndarray:
    """Squared norms of the columns of e, summed row by row."""
    if np.iscomplexobj(e):
        return np.sum(e.real ** 2 + e.imag ** 2, axis=0)
    return np.sum(e ** 2, axis=0)


def _trial_block(vecs: VectorFamily, cfg: IgmConfig,
                 trials: range) -> Tuple[int, np.ndarray, np.ndarray]:
    """``_moments`` of the (len(trials), k + 1) squared errors of the trials
    ``trials``: their draws (``_draw_block``), stepped all at once
    (``_step_errors``)."""
    z, idx = _draw_block(vecs, cfg, trials)
    return _moments(_step_errors(vecs, cfg, _noise(z, cfg.rho, vecs.is_complex), idx))


def _moments(rows: np.ndarray) -> Tuple[int, np.ndarray, np.ndarray]:
    """(trials, column means, column sums of squared deviations from them)
    of a block's (trials, k + 1) rows, summed as numpy's mean(axis=0) and
    std(axis=0, ddof=1) sum them, so one block gives numpy's bits."""
    mean = rows.mean(axis=0)
    dev = rows - mean
    return len(rows), mean, np.sum(dev * dev, axis=0)


def _merge_moments(blocks: Sequence[tuple]) -> Tuple[np.ndarray, np.ndarray]:
    """Column means and standard errors std(ddof=1) / sqrt(trials), 0 for one
    trial, of the trials whose ``_moments`` are ``blocks``, merged in block
    order by the pairwise update of Chan, Golub and LeVeque ("Algorithms for
    computing the sample variance", Am. Stat. 1983).  The mean is updated
    as a weighted mean of non-negative means, so each merge adds at most
    four roundings to its relative error, however the blocks are split.  On
    30 000 trials of the d = 8 orbit the merged means and standard errors
    were within 2.7 units of 2.2e-16 of the exact ones, numpy's mean and
    std(ddof=1), which sum down all the rows, within 54."""
    count, mean, m2 = blocks[0]
    for size, block_mean, block_m2 in blocks[1:]:
        total = count + size
        delta = block_mean - mean
        mean = (count * mean + size * block_mean) / total
        m2 = m2 + block_m2 + delta * delta * (count * size / total)
        count = total
    if count == 1:
        return mean, np.zeros_like(mean)
    return mean, np.sqrt(m2 / (count - 1)) / np.sqrt(count)


def monte_carlo_mse(vecs: VectorFamily, cfg: IgmConfig) -> IgmStats:
    """Per-step sample mean and standard error of ||x_k - x_star||^2 over
    cfg.trials independent trials, with the bound curve attached wherever its
    preconditions hold.

    Trial t draws from the t-th child of default_rng(cfg.seed).spawn(trials),
    so every trial's draws equal those of a loop over spawned Generators
    bit for bit; the first and last trial's streams are spot-checked
    against numpy here, before any trial runs (``trial_seed_words``).  The
    trials run TRIAL_BLOCK at a time (``_trial_block``), each block deriving
    its own trials' seed words, stepping the errors e = x - x_star of its
    trials as one (m, trials) array and returning only their moments, so
    the memory is one block per process plus O(blocks * (k + 1)), whatever
    the number of trials.
    The blocks run in min(CPUs, blocks) forked worker processes
    (``workers.fork_map``), one consecutive share of the blocks each, which
    set the caller's floating-point error handling and send their blocks'
    moments back; with one block, one CPU or no fork, they run in this
    process.  The step loop makes no BLAS-3 calls, so the BLAS thread count
    does not limit the workers.  The moments are merged here in block order
    (``_merge_moments``), so the result is bit-identical for every worker
    count, and numpy's mean and std(ddof=1) of the per-trial errors up to
    rounding; with one block it is numpy's bit for bit.  A block's
    exception re-raises here; a worker that dies or sends nothing raises a
    RuntimeError.  Every worker has been reaped by the time this returns or
    raises.
    """
    cfg.validate(vecs.n)
    x_star, x0 = cfg.resolve_points(vecs.m)
    trial_seed_words(cfg)

    def run(share: range) -> list:
        return [_trial_block(vecs, cfg, range(start, min(start + TRIAL_BLOCK, cfg.trials)))
                for start in share]

    mean, stderr = _merge_moments(workers.fork_map(run, range(0, cfg.trials, TRIAL_BLOCK),
                                                   workers.pool_cpus()))

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

def weyl_displacements(d: int) -> Iterator[np.ndarray]:
    """The d^2 Heisenberg-Weyl unitaries X^p Z^q on C^d, p major, one at a
    time."""
    omega = np.exp(2j * np.pi / d)
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    clock = np.diag(omega ** np.arange(d))
    xp = np.eye(d, dtype=complex)
    for p in range(d):
        zq = np.eye(d, dtype=complex)
        for q in range(d):
            yield xp @ zq
            zq = zq @ clock
        xp = xp @ shift


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
    # one displacement at a time: the orbit is the one array of d^3 entries
    vectors = np.empty((d * d, d), dtype=complex)
    for row, displacement in zip(vectors, weyl_displacements(d)):
        row[:] = displacement @ h
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
