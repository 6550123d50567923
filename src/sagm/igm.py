"""Incremental gradient method for noisy least squares, the convergence bound
evaluator, and the isotropic test-vector generators (group orbits, spherical
designs).

Model: y_i = a_i* x_star + w_i with w_i i.i.d. mean-zero noise of variance
rho^2, drawn once per trial (fixed noisy dataset, not fresh per visit).
The iteration is x <- x - gamma a_i (a_i* x - y_i) with indices drawn with
replacement, without replacement (permutation prefix), or from an enlarged
pool of repeated copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .linalg import spectral_norm

POLICIES = ("with_replacement", "without_replacement", "block_repeat")


class BoundDomainError(ValueError):
    """A validity precondition of the convergence bound fails."""


@dataclass
class VectorFamily:
    """Test vectors a_1..a_n with isotropy certificate (1/n) sum a a* = sigma I."""

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
    def from_vectors(vectors, isotropy_tol: float = 1e-8) -> "VectorFamily":
        v = np.asarray(vectors, dtype=complex)
        if v.ndim != 2:
            raise ValueError(f"expected an (n, m) array, got shape {v.shape}")
        n, m = v.shape
        second_moment = (v.conj()[:, None, :] * v[:, :, None]).mean(axis=0)  # (1/n) sum a a*
        sigma = float(np.real(np.trace(second_moment))) / m
        residual = spectral_norm(second_moment - sigma * np.eye(m))
        mu = float(np.max(np.sum(np.abs(v) ** 2, axis=1)))
        return VectorFamily(
            vectors=v,
            sigma=sigma,
            mu=mu,
            isotropy_residual=residual,
            isotropic=residual <= isotropy_tol,
            is_complex=bool(np.any(np.abs(v.imag) > 0)),
        )


@dataclass
class IgmConfig:
    gamma: float
    rho: float
    k: int
    policy: str = "without_replacement"
    block_mult: int = 1
    trials: int = 1
    seed: int = 0
    x_star: Optional[np.ndarray] = None
    x_0: Optional[np.ndarray] = None

    def validate(self, n: int) -> None:
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {self.policy!r}")
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
    ks: np.ndarray  # 0..K
    mean_mse: np.ndarray
    stderr: np.ndarray
    bound: np.ndarray  # NaN where the bound preconditions fail
    bound_note: List[str]
    phi: float
    c1: float
    c2: np.ndarray  # per-step integral-bound constant, NaN where invalid
    eta: float
    policy: str
    trials: int


def phi(gamma: float, sigma: float, mu: float) -> float:
    """Contraction factor 1 - 2 gamma sigma + gamma^2 sigma mu."""
    return 1.0 - 2.0 * gamma * sigma + gamma * gamma * sigma * mu


def c_kl(n: int, k: int, l: int) -> float:
    """Falling-factorial ratio perm(n,l) perm(n,k-l) / perm(n,k), log-space."""
    if k > n:
        raise ValueError(f"k must be <= n, got k={k}, n={n}")
    if not 0 <= l <= k:
        raise ValueError(f"l must be in [0, k], got l={l}, k={k}")
    log = (
        math.lgamma(n + 1) - math.lgamma(n - l + 1)
        + math.lgamma(n + 1) - math.lgamma(n - (k - l) + 1)
        - (math.lgamma(n + 1) - math.lgamma(n - k + 1))
    )
    return math.exp(log)


def c_kl_estimate(n: int, k: int, l: int) -> float:
    """The companion upper estimate exp(l(k-l)/(n-k))."""
    if k >= n:
        raise ValueError("estimate needs k < n")
    return math.exp(l * (k - l) / (n - k))


def draw_noise(n: int, rho: float, is_complex: bool, rng: np.random.Generator) -> np.ndarray:
    if is_complex:
        return rho * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
    return (rho * rng.standard_normal(n)).astype(complex)


def draw_indices(policy: str, n: int, k: int, rng: np.random.Generator, block_mult: int = 1) -> np.ndarray:
    """Index sequence per sampling policy.  Without replacement takes the
    first k entries of a full Fisher-Yates permutation (uniform over ordered
    k-subsets); block_repeat permutes a pool of block_mult copies."""
    if policy == "with_replacement":
        return rng.integers(0, n, size=k)
    if policy == "without_replacement":
        if k > n:
            raise ValueError(f"without_replacement requires k <= n (k={k}, n={n})")
        return rng.permutation(n)[:k]
    if policy == "block_repeat":
        pool = np.repeat(np.arange(n), block_mult)
        if k > len(pool):
            raise ValueError(f"pool of {len(pool)} too small for k={k}")
        return rng.permutation(pool)[:k]
    raise ValueError(f"unknown policy {policy!r}")


def trial_streams(cfg: IgmConfig) -> List[np.random.Generator]:
    """One independent RNG substream per trial, derived from (seed, trial)."""
    return np.random.default_rng(cfg.seed).spawn(cfg.trials)


def igm_run(vecs: VectorFamily, cfg: IgmConfig, rng: np.random.Generator) -> np.ndarray:
    """One trajectory x_0 .. x_k as a (k+1, m) array.

    Noise is drawn first (one w_i per data index), then the index sequence,
    so a single rng reproduces exactly one Monte Carlo trial.
    """
    cfg.validate(vecs.n)
    x_star, x0 = cfg.resolve_points(vecs.m)
    w = draw_noise(vecs.n, cfg.rho, vecs.is_complex, rng)
    idx = draw_indices(cfg.policy, vecs.n, cfg.k, rng, cfg.block_mult)
    y = vecs.vectors.conj() @ x_star + w
    traj = np.empty((cfg.k + 1, vecs.m), dtype=complex)
    traj[0] = x0
    x = x0.copy()
    for s, i in enumerate(idx, start=1):
        a = vecs.vectors[i]
        x = x - cfg.gamma * a * (np.vdot(a, x) - y[i])
        traj[s] = x
    return traj


def error_expansion_check(
    vecs: VectorFamily,
    cfg: IgmConfig,
    index_sequence: Sequence[int],
    noise: Optional[np.ndarray] = None,
) -> float:
    """Residual between the direct recursion and its expanded form
    prod(I - gamma a a*)(x0 - x*) + sum_l [prod_{j>l}(I - gamma a a*)] gamma a_l w_l
    for a fixed index sequence and noise realization."""
    x_star, x0 = cfg.resolve_points(vecs.m)
    idx = np.asarray(index_sequence, dtype=int)
    if noise is None:
        noise = draw_noise(vecs.n, cfg.rho, vecs.is_complex, np.random.default_rng(cfg.seed))
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


def _c1(vecs: VectorFamily, gamma: float, phi_val: float) -> float:
    norms_sq = np.sum(np.abs(vecs.vectors) ** 2, axis=1)
    sup_a_sq = float(np.max(np.maximum(1.0, np.abs(1.0 - gamma * norms_sq)) ** 2))
    return sup_a_sq / phi_val


def _integral_constant(n: int, k: int, phi_val: float) -> Tuple[float, float]:
    """(a, C2) with a = 1/(n-k) + ln phi and C2 = (a^2 - 2a + 2)/(-a)^3, the
    integral-bound constant; C2 is NaN where a >= 0 (bound invalid)."""
    a = 1.0 / (n - k) + math.log(phi_val)
    return a, (a * a - 2.0 * a + 2.0) / (-a) ** 3 if a < 0.0 else float("nan")


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
    if growth >= 1.0:
        raise BoundDomainError(
            f"phi * exp(1/(n-k)) = {growth:.6g} >= 1: geometric series diverges"
        )
    a, c2 = _integral_constant(n, k, phi_val)
    if a >= 0.0:
        raise BoundDomainError(f"a = 1/(n-k) + ln(phi) = {a:.6g} >= 0: integral bound invalid")
    c1 = _c1(vecs, cfg.gamma, phi_val)
    x_star, x0 = cfg.resolve_points(vecs.m)
    eta = float(np.linalg.norm(x0 - x_star) ** 2)
    init_term = phi_val**k * (1.0 + k * (k - 1) * (1.0 + c1) / (2.0 * n)) * eta
    noise_term = cfg.rho**2 * cfg.gamma**2 * vecs.mu * (1.0 / (1.0 - growth) + c2 * growth + 1.0)
    return init_term + noise_term


def monte_carlo_mse(vecs: VectorFamily, cfg: IgmConfig) -> IgmStats:
    """Per-step sample mean and standard error of ||x_k - x_star||^2 over
    cfg.trials independent trials, with the bound curve attached wherever its
    preconditions hold.

    Trials use substreams derived from (seed, trial index); the dynamics are
    vectorized across trials but reproduce igm_run trial by trial.
    """
    cfg.validate(vecs.n)
    x_star, x0 = cfg.resolve_points(vecs.m)
    streams = trial_streams(cfg)
    w = np.empty((cfg.trials, vecs.n), dtype=complex)
    idx = np.empty((cfg.trials, cfg.k), dtype=int)
    for t, sub in enumerate(streams):
        w[t] = draw_noise(vecs.n, cfg.rho, vecs.is_complex, sub)
        idx[t] = draw_indices(cfg.policy, vecs.n, cfg.k, sub, cfg.block_mult)

    ax_star = vecs.vectors.conj() @ x_star  # (n,)
    rows = np.arange(cfg.trials)
    x = np.broadcast_to(x0, (cfg.trials, vecs.m)).copy()
    sq_err = np.empty((cfg.trials, cfg.k + 1))
    sq_err[:, 0] = np.sum(np.abs(x - x_star) ** 2, axis=1)
    for s in range(cfg.k):
        sel = idx[:, s]
        a = vecs.vectors[sel]  # (trials, m)
        y = ax_star[sel] + w[rows, sel]
        proj = np.sum(a.conj() * x, axis=1)
        x = x - cfg.gamma * a * (proj - y)[:, None]
        sq_err[:, s + 1] = np.sum(np.abs(x - x_star) ** 2, axis=1)

    mean = sq_err.mean(axis=0)
    if cfg.trials > 1:
        stderr = sq_err.std(axis=0, ddof=1) / np.sqrt(cfg.trials)
    else:
        stderr = np.zeros(cfg.k + 1)

    phi_val = phi(cfg.gamma, vecs.sigma, vecs.mu)
    eta = float(np.linalg.norm(x0 - x_star) ** 2)
    bound = np.full(cfg.k + 1, np.nan)
    c2 = np.full(cfg.k + 1, np.nan)
    notes: List[str] = []
    bound[0] = eta
    for step in range(1, cfg.k + 1):
        try:
            bound[step] = bound_rhs(vecs, cfg, step)
            c2[step] = _integral_constant(vecs.n, step, phi_val)[1]
        except BoundDomainError as exc:
            notes.append(f"k={step}: {exc}")
    c1 = _c1(vecs, cfg.gamma, phi_val) if 0 < phi_val else float("nan")
    return IgmStats(
        ks=np.arange(cfg.k + 1),
        mean_mse=mean,
        stderr=stderr,
        bound=bound,
        bound_note=notes,
        phi=phi_val,
        c1=c1,
        c2=c2,
        eta=eta,
        policy=cfg.policy,
        trials=cfg.trials,
    )


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


def gen_group_orbit(d: int, variant: str = "rank_one_frame", rng: Optional[np.random.Generator] = None) -> VectorFamily:
    """Heisenberg-Weyl orbit {W_{p,q} h : 0 <= p, q < d} of a fiducial with
    ||h|| = sqrt(d); n = d^2 vectors in C^d.

    rank_one_frame gives sigma = 1, mu = d; projector scales each orbit
    vector by sqrt(d) (the rank-one reading of the second orbit example),
    giving sigma = d, mu = d^2.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if variant not in ("rank_one_frame", "projector"):
        raise ValueError(f"unknown variant {variant!r}")
    if rng is None:
        rng = np.random.default_rng(0)
    h = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    h *= np.sqrt(d) / np.linalg.norm(h)
    vectors = weyl_displacements(d) @ h
    if variant == "projector":
        vectors = np.sqrt(d) * vectors
    return VectorFamily.from_vectors(vectors, isotropy_tol=1e-10)


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
    return VectorFamily.from_vectors(vectors, isotropy_tol=1e-12)
