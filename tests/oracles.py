"""Independent oracles for the library's fast paths.

``e_wo`` and ``e_wr`` average the two symmetrized means over their index
tuples one by one; ``e_wo_2_sum`` is n(n-1) E_wo,2 in closed form from the
Gram matrices, with no Mobius inversion and no enumeration, so it runs at
any n.  The partition-sum oracles sum over the tuples with a given kernel, independently of the Mobius walk in ``sagm.symsum`` that
they check; ``tuples_with_kernel`` enumerates those tuples (n capped at
12), next to the tuple kernel, the refinement order and the Bell numbers
that the tests of the walk read.  The bound-check oracles take the spectral norm
of I - E_wo, the smallest eigenvalue of each shifted copy of E_wo and a
spectral norm per Gram matrix A_j* A_j, where the library reads one
shared spectrum.  ``folding_residual`` checks the telescoping identity
behind the folded sums on one tuple of matrices.  The IGM Monte Carlo
oracle draws every trial from numpy's own ``spawn`` children, one
Generator per trial, as the contract of ``sagm.igm.check_trial_streams``
states (each library block derives its own trials' seed words, and the
check compares the first and last trial's with numpy's), and steps them
with the library's step function; ``igm_run`` steps the trajectory of one
such trial one drawn index at a time, and ``error_expansion_check``
compares one trajectory's recursion with its expansion into step
products and noise terms.  ``side_operators`` gives the operators that a
family side is normalized and checked as: the bound checks take one (left)
convention, so a right side is passed as its adjoint family.  ``c_kl`` is the
falling-factorial ratio of the paper's lemma on without-replacement
sampling, with its upper estimate.
"""

import math
from itertools import permutations, product

import numpy as np

from sagm import igm
from sagm.linalg import spectral_norm
from sagm.partitions import Partition

MAX_ALPHABET = 12  # n cap for exhaustive tuple generation


def one_block(d):
    """The single-block partition (the lattice's 1-dot)."""
    return Partition.from_blocks(d, [tuple(range(1, d + 1))])


def bell_number(d):
    row = [1]
    for _ in range(d):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def kernel_of_tuple(tup):
    """Partition of positions induced by value equality: p, q share a block
    iff tup[p-1] == tup[q-1]."""
    if len(tup) == 0:
        raise ValueError("tuple must be nonempty")
    blocks = {}
    for pos, val in enumerate(tup, start=1):
        blocks.setdefault(val, []).append(pos)
    return Partition.from_blocks(len(tup), blocks.values())


def tuples_with_kernel(n, sigma):
    """All tuples in {1..n}^d whose kernel is exactly ``sigma``, lexicographic.

    Empty iterator when n < nu(sigma).  Count is the falling factorial
    n (n-1) ... (n - nu + 1).
    """
    if n < 1 or n > MAX_ALPHABET:
        raise ValueError(f"n must be in [1, {MAX_ALPHABET}], got {n}")
    pos_to_block = {}
    for i, b in enumerate(sigma.blocks):
        for p in b:
            pos_to_block[p] = i
    # The tuple is determined by one distinct value per block; lexicographic
    # tuple order equals lexicographic order of the per-block value sequence
    # because blocks are ordered by first occurrence.
    for values in permutations(range(1, n + 1), sigma.nu):
        yield tuple(values[pos_to_block[p]] for p in range(1, sigma.d + 1))


def count_tuples_with_kernel(n, sigma):
    return math.perm(n, sigma.nu) if n >= sigma.nu else 0


def refinement_leq(sigma, pi):
    """sigma <= pi in the convention where the larger partition is the finer
    one: true iff every block of ``pi`` is contained in some block of
    ``sigma`` (pi refines sigma).  Under this order the all-singletons
    partition is the top element and the one-block partition is the bottom.
    """
    if sigma.d != pi.d:
        raise ValueError(f"ground-set mismatch: {sigma.d} != {pi.d}")
    containing = {}
    for b in sigma.blocks:
        bs = set(b)
        for e in b:
            containing[e] = bs
    return all(set(b) <= containing[b[0]] for b in pi.blocks)


def _mean_over(ops, tuples):
    """Mean over ``tuples`` of A_{j1}* ... A_{jd}* A_{jd} ... A_{j1}."""
    m = ops.shape[1]
    total = np.zeros((m, m), dtype=complex)
    count = 0
    for tup in tuples:
        x = np.eye(m, dtype=complex)
        for j in reversed(tup):
            x = ops[j].conj().T @ x @ ops[j]
        total += x
        count += 1
    return total / count


def e_wo(ops, d):
    """The without-replacement mean of the (n, m, m) stack ``ops``: the
    mean over the ordered d-tuples of distinct indices."""
    return _mean_over(ops, permutations(range(len(ops)), d))


def e_wr(ops, d):
    """The with-replacement mean: the mean over all n^d index tuples."""
    return _mean_over(ops, product(range(len(ops)), repeat=d))


def partition_sum(fam, sigma):
    """[sigma]: sum over tuples with kernel sigma of
    A_{ij}* ... A_{i1}* A_{i1} ... A_{ij} (innermost factor at position 1)."""
    out = np.zeros((fam.m, fam.m), dtype=complex)
    for tup in tuples_with_kernel(fam.n, sigma):
        x = np.eye(fam.m, dtype=complex)
        for p in tup:
            a = fam.ops[p - 1]
            x = a.conj().T @ x @ a
        out += x
    return out


def folded_sum(fam, sigma):
    """[[sigma]]: the partition sum with a (1 - A*A) inserted at position 1."""
    eye = np.eye(fam.m, dtype=complex)
    direct = np.zeros((fam.m, fam.m), dtype=complex)
    for tup in tuples_with_kernel(fam.n, sigma):
        a1 = fam.ops[tup[0] - 1]
        x = eye - a1.conj().T @ a1
        for p in tup[1:]:
            a = fam.ops[p - 1]
            x = a.conj().T @ x @ a
        direct += x
    return direct


def folding_residual(mats):
    """Residual of the telescoping identity
    I - A_d*...A_1* A_1...A_d = sum_j A_d*...A_{j+1}* (I - A_j*A_j) A_{j+1}...A_d
    for a single tuple of matrices."""
    mats = [np.asarray(a, dtype=complex) for a in mats]
    m = mats[0].shape[0]
    eye = np.eye(m, dtype=complex)
    prod = eye
    for a in mats:
        prod = prod @ a  # builds A_1 A_2 ... A_d, so prod*prod nests A_1 innermost
    lhs = eye - prod.conj().T @ prod
    rhs = np.zeros_like(lhs)
    for j in range(len(mats)):
        x = eye - mats[j].conj().T @ mats[j]
        for a in mats[j + 1 :]:
            x = a.conj().T @ x @ a
        rhs += x
    return spectral_norm(lhs - rhs)


def sup_gram_norm(fam):
    """C = max_j ||A_j* A_j||, one spectral norm per operator."""
    return max(spectral_norm(a.conj().T @ a) for a in fam.ops)


def _min_eig_hermitian(m):
    return float(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0])


def theorem_lhs(mean):
    """||I - E_wo||."""
    return spectral_norm(np.eye(mean.shape[0]) - mean)


def sandwich_margins(mean, eps):
    """(lambda_min(E_wo - (1-eps) I), lambda_min((1+eps) I - E_wo)), each of
    the Hermitian symmetrization of its own shifted copy."""
    eye = np.eye(mean.shape[0])
    return _min_eig_hermitian(mean - (1.0 - eps) * eye), _min_eig_hermitian((1.0 + eps) * eye - mean)


def trial_streams(cfg):
    """Trial t's Generator: the t-th child of default_rng(seed).spawn(trials)."""
    return np.random.default_rng(cfg.seed).spawn(cfg.trials)


def draw_noise(n, rho, is_complex, rng):
    if is_complex:
        return rho * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
    return (rho * rng.standard_normal(n)).astype(complex)


def draw_indices(policy, n, k, rng, block_mult=1):
    if policy == "with_replacement":
        return rng.integers(0, n, size=k)
    if policy == "without_replacement":
        return rng.permutation(n)[:k]
    if policy == "block_repeat":
        return rng.permutation(np.repeat(np.arange(n), block_mult))[:k]
    raise ValueError(f"unknown policy {policy!r}")


def squared_errors(vecs, cfg):
    """(trials, k + 1) squared errors ||x_s - x_star||^2: each trial draws its
    noise and then its indices from its own spawned Generator, and the
    library's step function (``sagm.igm._step_errors``) steps all trials at
    once.  So the oracle checks the library's draws, blocks and pooling
    (``igm_run`` checks the step arithmetic)."""
    w = np.empty((cfg.trials, vecs.n), dtype=complex)
    idx = np.empty((cfg.trials, cfg.k), dtype=int)
    for t, sub in enumerate(trial_streams(cfg)):
        w[t] = draw_noise(vecs.n, cfg.rho, vecs.is_complex, sub)
        idx[t] = draw_indices(cfg.policy, vecs.n, cfg.k, sub, cfg.block_mult)
    return igm._step_errors(vecs, cfg, w, idx)


def monte_carlo_mse(vecs, cfg):
    """(mean, stderr) of ``squared_errors`` per step: numpy's mean and
    std(ddof=1) / sqrt(trials), 0 for one trial."""
    sq_err = squared_errors(vecs, cfg)
    stderr = sq_err.std(axis=0, ddof=1) / np.sqrt(cfg.trials) if cfg.trials > 1 else np.zeros(cfg.k + 1)
    return sq_err.mean(axis=0), stderr


def igm_run(vecs, cfg, rng):
    """One trajectory x_0 .. x_k as a (k+1, m) array, stepped point by point.

    Noise is drawn first (one w_i per data index), then the index sequence,
    in the order of each trial of ``sagm.igm.monte_carlo_mse``, so a single
    rng reproduces exactly one Monte Carlo trial.
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


def error_expansion_check(vecs, cfg, index_sequence):
    """Residual between the direct recursion and its expanded form
    prod(I - gamma a a*)(x0 - x*) + sum_l [prod_{j>l}(I - gamma a a*)] gamma a_l w_l
    for a fixed index sequence and the noise drawn from default_rng(cfg.seed)."""
    x_star, x0 = cfg.resolve_points(vecs.m)
    idx = np.asarray(index_sequence, dtype=int)
    z = np.random.default_rng(cfg.seed).standard_normal(2 * vecs.n if vecs.is_complex else vecs.n)
    noise = igm._noise(z, cfg.rho, vecs.is_complex)
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


def c_kl(n, k, l):
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


def c_kl_estimate(n, k, l):
    """The companion upper estimate exp(l(k-l)/(n-k))."""
    if k >= n:
        raise ValueError("estimate needs k < n")
    return math.exp(l * (k - l) / (n - k))


def e_wo_2_sum(ops):
    """n(n-1) E_wo,2 of the (n, m, m) stack ``ops`` without Mobius
    inversion: sum_{j != k} A_j* G_k A_j = sum_j A_j* (S - G_j) A_j, with
    G_j = A_j* A_j and S = sum_k G_k.  It holds for any family, normalized
    or not."""
    adjoints = ops.conj().transpose(0, 2, 1)
    gram = adjoints @ ops
    return np.sum(adjoints @ (gram.sum(axis=0) - gram) @ ops, axis=0)


def side_operators(ops, side):
    """The left-normalizable operators of a family side of shape
    (..., n, m, m): ``ops`` for a left side, the adjoints {A_j*} for a right
    side, whose left normalization is the right-handed reading
    (1/n) sum B_j B_j* = I of ``ops``."""
    return ops if side == "left" else ops.conj().swapaxes(-1, -2)
