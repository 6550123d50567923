"""Symmetrized with/without-replacement operator means and the norm bounds.

The without-replacement mean is exact for any family size.  Its sum over
distinct index tuples runs by one of three strategies.  Two are Mobius
inversion over the partition lattice: a signed combination of "collapsed"
sums (positions forced equal along the blocks of a partition), each a
middle-out walk that keeps only the open block indices as array axes.  Each
partition's walk is a word of (step, factor) letters whose factors multiply
to its Mobius weight; the words of one sum are compiled once into a minimal
weighted DAG (``_mobius_dag``) that shares equal prefixes and equal
suffixes, and one walk over it computes every shared step once.  The walk
runs in one of two state spaces: stacks of m x m matrices wrapped by
sandwich products, or row vectors in C^{m^2} stepped by GEMMs with the
superoperators T_j = conj(A_j) kron A_j, which need n m^4 memory.  The
third is an enumeration of the distinct tuples.  A rule on n, m and d
picks one (``_strategy``): the superoperator walk at m <= 6, and at m <= 8
from d = 3 on, where per-call overhead outweighs its m^4 work; enumeration
at n <= 4, which has at most 24 tuples; the sandwich walk otherwise.  At
d = 1 the mean is the mean Gram matrix and nothing is walked.  A
partition-restricted sum [sigma] is the same walk over the DAG keyed by
sigma, whose words are the coarsenings of sigma: the distinct-tuple sum is
[sigma] at the all-singletons sigma.  It always walks in the sandwich
state, at any n.  Tuple enumeration lives in the tests, as the independent
oracle.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from . import workers
from .linalg import hermitian_spectrum, spectral_norm, unitaries_from_gaussians
from .partitions import Partition, enumerate_partitions, singletons

# certified residuals reach 1.7e-14 in tier-1; one step at condition 1.1e6 leaves 1.7e-10
NORMALIZATION_TOL = 1e-10
# rounding of a bound met with equality (d = 1): tier-1's largest passing excess is 1.7e-14
PASS_SLACK = 1e-9
MAX_DEGREE = 6
# deviation_experiment runs its (degree, trial) pairs in forked workers
# (workers.blas_workers of them) once trials * sum(2**d over the degrees)
# reaches this; a trial's time roughly doubles per degree from d = 3 on.
# In-process time of cli.main, medians of 11 fresh CLI processes per point,
# one BLAS thread, 2-core x86 box, serial against two workers, at
# (n, m, degrees, trials): (8, 2, 2, 120 / 240 / 360 / 480) 44 / 74 / 103 /
# 176 ms against 50 / 69 / 86 / 131 ms; (16, 2, 2, 90 / 150 / 240) 40 / 62 /
# 82 against 43 / 53 / 70; (32, 4, 2, 60 / 90) 52 / 57 against 51 / 58;
# (64, 4, 3, 30) 40 against 51; (16, 4, 2-4, 30) 65 against 64;
# (32, 4, 2-5, 30) 222 against 174.  So the pool won or tied at every
# measured point from 600 on (600, 840, 960, ...), and tied or lost at 480
# and below, where n = 64 at d = 3 lost at 240.
DEVIATION_POOL_MIN_WORK = 768


class OperatorFamily:
    """Ordered family A_1..A_n of m x m complex matrices.

    ``gram`` is the stack G_j = A_j* A_j, built on first use only (the
    dim-256 adjoint families of ``freeprobe`` never need it).
    ``normalized`` certifies ||mean_j G_j - I|| <= 1e-10 (the left-handed
    convention; see ``normalize_family`` for the right-handed reading).
    ``sup_gram_norm`` is C = sup_k ||G_k||.  The stack and both norms are
    computed once, from the read-only ``ops``; no mean or spectrum is kept.
    """

    def __init__(self, ops):
        stack = np.array(ops, dtype=complex)  # a private copy, kept read-only
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
            raise ValueError(f"expected n matrices of common square shape, got {stack.shape}")
        if not np.all(np.isfinite(stack)):
            raise ValueError("family has non-finite entries")
        stack.setflags(write=False)
        self.ops = stack
        self.n, self.m, _ = stack.shape

    @functools.cached_property
    def gram(self) -> np.ndarray:
        stack = self.ops.conj().transpose(0, 2, 1) @ self.ops
        stack.setflags(write=False)
        return stack

    @property
    def mean_gram(self) -> np.ndarray:
        return np.mean(self.gram, axis=0)

    @functools.cached_property
    def normalization_residual(self) -> float:
        return spectral_norm(self.mean_gram - np.eye(self.m))

    @property
    def normalized(self) -> bool:
        return self.normalization_residual <= NORMALIZATION_TOL

    @functools.cached_property
    def sup_gram_norm(self) -> float:
        # ||G_k|| is the top eigenvalue of the PSD G_k itself, one stacked
        # eigensolve.  Its rounding could underestimate C, but a smaller C
        # only shrinks epsilon, which makes every bound check stricter.
        return max(float(np.linalg.eigvalsh(self.gram)[:, -1].max()), 0.0)

    def adjoint(self) -> "OperatorFamily":
        return OperatorFamily(self.ops.conj().transpose(0, 2, 1))


@dataclass
class SymReport:
    """Outcome of one bound check.  passed iff lhs <= rhs + 1e-9 max(1, rhs)."""

    d: int
    lhs: float
    rhs: float
    epsilon: float
    passed: bool


def normalize_family(ops, side: str = "left") -> OperatorFamily:
    """Rescale a family so the normalization hypothesis holds exactly.

    side="left": returns {A_j M^{-1/2}} with M = (1/n) sum A_j* A_j, so the
    left certificate (1/n) sum B_j* B_j = I holds.  side="right" normalizes
    the right-handed reading (1/n) sum B_j B_j* = I and returns the adjoint
    family, which again carries the left certificate; use it to run every
    bound suite under the opposite adjoint convention.  A badly conditioned
    M can leave the first step's rounding above ``NORMALIZATION_TOL``; the
    same step applied once more to its output removes it.
    """
    fam = OperatorFamily(ops)
    if side == "right":
        fam = fam.adjoint()
    elif side != "left":
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    out = _normalizing_step(fam)
    if not out.normalized:
        out = _normalizing_step(out)
    if not out.normalized:
        raise ValueError(
            f"normalization failed: residual {out.normalization_residual:.3e}"
        )
    return out


def _normalizing_step(fam: OperatorFamily) -> OperatorFamily:
    """{A_j M^{-1/2}} with M = (1/n) sum A_j* A_j."""
    eigvals, eigvecs = np.linalg.eigh(fam.mean_gram)
    # M^{-1/2} would scale by over 1e4; the smallest eigenvalue tier-1 accepts is 1.4e-5
    if eigvals[0] <= 1e-8:
        raise ValueError(
            f"mean Gram matrix is singular (min eigenvalue {eigvals[0]:.3e}); "
            "family cannot be normalized"
        )
    inv_sqrt = (eigvecs * (1.0 / np.sqrt(eigvals))) @ eigvecs.conj().T
    return OperatorFamily(fam.ops @ inv_sqrt)


# Kinds of step in a collapsed-sum walk: the block of the current position
# is a singleton (wrapped and summed out at once), opens there, or is open.
_SINGLE, _OPEN, _CONTINUE = 0, 1, 2

# A step is (kind, axis, close): a continue step first moves its block's
# axis from ``axis`` to the front, and ``close`` marks the last position of
# a block, whose axis is summed out after the step.
_Step = Tuple[int, int, bool]
_Letter = Tuple[_Step, int]
# An edge of the compiled walk: (step, Mobius factor, successor node).
_Edge = Tuple[_Step, int, int]


def _word(pi: Partition, sigma: Partition) -> Tuple[_Letter, ...]:
    """The collapsed-sum walk of pi, a coarsening of sigma, as (step, factor)
    letters.

    The steps build the sum from the innermost factor (position 1) outward,
    keeping one array axis per open block of pi.  The factor is -j when the
    step brings the (j+1)-th block of sigma into its block of pi and 1
    otherwise, so the product along the word is the Mobius weight
    mu(sigma, pi) = prod_B (-1)^(k_B - 1) (k_B - 1)!, where k_B counts the
    blocks of sigma merged into the block B of pi.
    """
    pos_to_block = {p: i for i, b in enumerate(pi.blocks) for p in b}
    sigma_starts = {b[0] for b in sigma.blocks}
    remaining = [len(b) for b in pi.blocks]
    merged = [0] * pi.nu  # blocks of sigma reached so far in each block of pi
    open_blocks: List[int] = []  # index 0 is the leading array axis
    letters = []
    for p in range(1, pi.d + 1):
        b = pos_to_block[p]
        remaining[b] -= 1
        if b in open_blocks:
            axis = open_blocks.index(b)
            open_blocks.pop(axis)
            if remaining[b]:
                open_blocks.insert(0, b)
            step = (_CONTINUE, axis, not remaining[b])
        elif remaining[b]:
            open_blocks.insert(0, b)
            step = (_OPEN, 0, False)
        else:
            step = (_SINGLE, 0, False)
        factor = 1
        if p in sigma_starts:
            factor = -merged[b] if merged[b] else 1
            merged[b] += 1
        letters.append((step, factor))
    return tuple(letters)


@functools.lru_cache(maxsize=None)
def _mobius_dag(sigma: Partition) -> Tuple[Tuple[_Edge, ...], ...]:
    """The words of every coarsening of sigma as a minimal weighted DAG: the
    out-edges of each node.  The coarsenings are the partitions of sigma's
    blocks, merged.

    The nodes are the distinct sets of remaining suffixes (the Brzozowski
    derivatives of the word set), which merges shared prefixes and equal
    weighted suffixes at once: the minimal acyclic automaton of the words.
    Node 0 holds all words.  Every word has length d, so numbering the
    nodes breadth-first puts every edge from one level to the next and the
    sink (the empty suffix) last.  The steps of any prefix fix which blocks
    of sigma each open block holds, so a step leaves a node with one factor
    and one successor: no two edges of a node share a step.
    """
    coarsenings = (
        Partition.from_blocks(
            sigma.d, [sum((sigma.blocks[i - 1] for i in merge), ()) for merge in merges.blocks]
        )
        for merges in enumerate_partitions(sigma.nu)
    )
    suffix_sets = [frozenset(_word(pi, sigma) for pi in coarsenings)]
    index = {suffix_sets[0]: 0}
    nodes = []
    for words in suffix_sets:  # grows as successors are found
        by_letter: dict = {}
        for word in words:
            if word:
                by_letter.setdefault(word[0], set()).add(word[1:])
        edges = []
        for (step, factor), rest in sorted(by_letter.items()):
            rest = frozenset(rest)
            if rest not in index:
                index[rest] = len(suffix_sets)
                suffix_sets.append(rest)
            edges.append((step, factor, index[rest]))
        nodes.append(tuple(edges))
    return tuple(nodes)


@functools.lru_cache(maxsize=None)
def _distinct_dag(d: int) -> Tuple[Tuple[_Edge, ...], ...]:
    """The DAG of the distinct-tuple sum of degree d, [singletons(d)], cached
    per degree so that ``e_wo`` builds no Partition per call."""
    return _mobius_dag(singletons(d))


class _Sandwich:
    """Walk state as a stack of m x m matrices X, one per tuple of open
    indices; a step is the sandwich X -> A_j* X A_j."""

    def __init__(self, ops: np.ndarray):
        self.a = ops
        self.ah = ops.conj().transpose(0, 2, 1)
        self.start = np.eye(ops.shape[1], dtype=complex)

    def open(self, x: np.ndarray) -> np.ndarray:
        """x (*open, m, m) -> A_j* x A_j with a fresh j-axis in front."""
        pad = (slice(None),) + (None,) * (x.ndim - 2)
        return self.ah[pad] @ x[None] @ self.a[pad]

    def single(self, x: np.ndarray) -> np.ndarray:
        return self.open(x).sum(axis=0)

    def cont(self, x: np.ndarray) -> np.ndarray:
        """x (n, *open, m, m) -> A_j* x A_j elementwise along the leading j-axis."""
        pad = (slice(None),) + (None,) * (x.ndim - 3)
        return self.ah[pad] @ x @ self.a[pad]

    def matrix(self, x: np.ndarray) -> np.ndarray:
        return x


class _Superoperator:
    """Walk state as row vectors x = vec(X) in C^{m^2}, one per tuple of open
    indices (row-major vec).  The sandwich X -> A_j* X A_j is x -> x T_j with
    T_j = conj(A_j) kron A_j, the transpose of A_j* kron A_j^T, so a step
    over all open tuples is one GEMM per j, or one with sum_j T_j for a
    singleton.  The (n, m^2, m^2) stack of T_j costs n m^4 memory."""

    def __init__(self, ops: np.ndarray):
        n, m, _ = ops.shape
        self.m, self.mm = m, m * m
        kron = ops.conj()[:, :, None, :, None] * ops[:, None, :, None, :]
        self.t = kron.reshape(n, self.mm, self.mm)
        self.t_sum = self.t.sum(axis=0)
        self.start = np.eye(m, dtype=complex).reshape(self.mm)

    def open(self, x: np.ndarray) -> np.ndarray:
        return (x.reshape(1, -1, self.mm) @ self.t).reshape(self.t.shape[:1] + x.shape)

    def single(self, x: np.ndarray) -> np.ndarray:
        return x @ self.t_sum

    def cont(self, x: np.ndarray) -> np.ndarray:
        return (x.reshape(x.shape[0], -1, self.mm) @ self.t).reshape(x.shape)

    def matrix(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(self.m, self.m)


def _apply(rep, step: _Step, x):
    """One step of a collapsed-sum walk on the state x, in ``rep``'s state
    space."""
    kind, axis, close = step
    if kind == _SINGLE:
        return rep.single(x)
    if kind == _OPEN:
        return rep.open(x)
    if axis:
        x = np.moveaxis(x, axis, 0)
    x = rep.cont(x)
    return x.sum(axis=0) if close else x


def _mobius_sum(rep, dag: Tuple[Tuple[_Edge, ...], ...]) -> np.ndarray:
    """A partition sum [sigma] by Mobius inversion on the partition lattice:
    the collapsed sums of every coarsening of sigma, weighted, in one walk
    over ``dag = _mobius_dag(sigma)``.  Each edge runs its step once on its
    node's state and adds factor * result into the successor's state; a
    node's state is dropped once consumed.  Step results are fresh arrays,
    so the scaling and the adding happen in place."""
    states = [rep.start] + [None] * (len(dag) - 1)
    for i, edges in enumerate(dag):
        x, states[i] = states[i], None
        for step, factor, j in edges:
            y = _apply(rep, step, x)
            if factor != 1:
                y *= factor
            if states[j] is None:
                states[j] = y
            else:
                states[j] += y
    return rep.matrix(x)


def _sandwich_sum(ops: np.ndarray, d: int) -> np.ndarray:
    return _mobius_sum(_Sandwich(ops), _distinct_dag(d))


def _superoperator_sum(ops: np.ndarray, d: int) -> np.ndarray:
    return _mobius_sum(_Superoperator(ops), _distinct_dag(d))


def _enumerated_sum(ops: np.ndarray, d: int) -> np.ndarray:
    """Distinct-tuple sum of P*P, P = A_{td} ... A_{t1}.  For each head
    (t1..t_{d-1}), H = A_{t(d-1)} ... A_{t1} is one left fold, and all
    unused last indices j go at once as Q = [A_j H] stacked, with
    sum_j Q_j* Q_j = Q* Q."""
    n, m, _ = ops.shape
    total = np.zeros((m, m), dtype=complex)
    for head in itertools.permutations(range(n), d - 1):
        q = ops[[j for j in range(n) if j not in head]]
        if head:
            h = ops[head[0]]
            for t in head[1:]:
                h = ops[t] @ h
            q = q @ h
        q = q.reshape(-1, m)
        total += q.conj().T @ q
    return total


def _strategy(n: int, m: int, d: int) -> Callable[[np.ndarray, int], np.ndarray]:
    """The distinct-tuple sum to run at (n, m, d); the rule reads m and d,
    then n."""
    # At m <= 6 one m^4 GEMM per j beats two m^3 GEMMs per matrix, because
    # the per-GEMM overhead outweighs the m^4 - 2 m^3 extra multiply-adds.
    # At m = 7-8 it still wins from d = 3 on, where the walk has more steps
    # to share: best of 9, one BLAS thread, against the enumeration or
    # sandwich walk below, it took 0.11-0.97 of their time at 49 of 54
    # (n, m, d) with n = 3..32 and d = 3..5 (0.63 at (4, 7, 3), 0.81 at
    # (16, 8, 4), 0.22 at (32, 8, 5)) and 1.06-1.58x as long at the other
    # five (1.58 at (3, 8, 3)); at d = 2 it took 1.2-4.4x as long.
    # Past that, n <= 4 leaves at most perm(4, 4) = 24 tuples to enumerate
    # against the walk's n^d collapsed terms (53 ms against 224 ms for the
    # sandwich walk at (3, 256, 3), one BLAS thread), and the sandwich walk
    # is the one strategy that still runs at large n and large m.
    if m <= 6 or (m <= 8 and d >= 3):
        return _superoperator_sum
    if n <= 4:
        return _enumerated_sum
    return _sandwich_sum


def _check_degree(d: int) -> None:
    if not 1 <= d <= MAX_DEGREE:
        raise ValueError(f"degree d must be in [1, {MAX_DEGREE}], got {d}")


def e_wo(fam: OperatorFamily, d: int) -> np.ndarray:
    """Without-replacement mean ((n-d)!/n!) sum over distinct tuples of
    A_{j1}* ... A_{jd}* A_{jd} ... A_{j1}, as a new array."""
    _check_degree(d)
    if d > fam.n:
        raise ValueError(f"d = {d} exceeds family size n = {fam.n}: no distinct tuples")
    if d == 1:
        return fam.mean_gram  # (1/n) sum_j A_j* A_j: nothing to walk
    scale = math.factorial(fam.n - d) / math.factorial(fam.n)
    return scale * _strategy(fam.n, fam.m, d)(fam.ops, d)


def e_wr(fam: OperatorFamily, d: int) -> np.ndarray:
    """With-replacement mean n^{-d} sum over all tuples of
    A_{j1}* ... A_{jd}* A_{jd} ... A_{j1}."""
    _check_degree(d)
    oph = fam.ops.conj().transpose(0, 2, 1)
    x = np.eye(fam.m, dtype=complex)
    for _ in range(d):
        x = np.mean(oph @ x @ fam.ops, axis=0)
    return x


def partition_sum(fam: OperatorFamily, sigma: Partition) -> np.ndarray:
    """[sigma]: sum over tuples with kernel sigma of
    A_{ij}* ... A_{i1}* A_{i1} ... A_{ij} (innermost factor at position 1),
    one walk over ``_mobius_dag(sigma)`` in the sandwich state.  With
    n < nu(sigma) no tuple has kernel sigma, so the sum is an exact zero
    rather than the walk's cancellation noise."""
    if fam.n < sigma.nu:
        return np.zeros((fam.m, fam.m), dtype=complex)
    return _mobius_sum(_Sandwich(fam.ops), _mobius_dag(sigma))


def bound_partition_sum(fam: OperatorFamily, sigma: Partition) -> float:
    """The partition-sum norm bound n^nu * C^(|sigma| - nu) with
    C = sup_k ||A_k* A_k||; requires the normalized-family hypothesis."""
    _require_normalized(fam)
    c = fam.sup_gram_norm
    return fam.n ** sigma.nu * c ** (sigma.d - sigma.nu)


def folded_sum(fam: OperatorFamily, sigma: Partition) -> np.ndarray:
    """[[sigma]]: the partition sum with a (1 - A*A) inserted at position 1,
    which must not be a singleton of sigma.  Evaluated as [gamma] - [sigma],
    gamma = sigma with element 1 deleted."""
    if (1,) in sigma.blocks:
        raise ValueError("position 1 must not be a singleton of sigma")
    return partition_sum(fam, sigma.delete_min()) - partition_sum(fam, sigma)


def folding_residual(mats: Sequence[np.ndarray]) -> float:
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


def _require_normalized(fam: OperatorFamily) -> None:
    if not fam.normalized:
        raise ValueError(
            "the bounds require a normalized family "
            f"(residual {fam.normalization_residual:.3e})"
        )


def theorem_epsilon(fam: OperatorFamily, d: int) -> float:
    return (1.0 + fam.sup_gram_norm) / fam.n * d * (d - 1) / 2.0


def check_bounds(fam: OperatorFamily, d: int) -> Dict[str, SymReport]:
    """Both bound checks of E_wo(fam, d), keyed "theorem_bound" and
    "sandwich", from one spectrum of its Hermitian part H and one epsilon.
    They need a normalized family and 1 <= d <= min(n, MAX_DEGREE), which
    ``e_wo`` enforces.

    theorem_bound: ||I - E_wo|| against eps = (1+C)/n * d(d-1)/2.  The lhs is
    ||I - H|| + ||S||_F for E_wo = H + S (S the skew part), never below
    ||I - E_wo||, so reading the spectrum of H cannot understate it.
    sandwich: (1-eps) I <= E_wo <= (1+eps) I by the extreme eigenvalues of H.
    """
    _require_normalized(fam)
    eigs, skew = hermitian_spectrum(e_wo(fam, d))
    eps = theorem_epsilon(fam, d)
    lhs = float(max(1.0 - eigs[0], eigs[-1] - 1.0)) + skew
    worst = float(max((1.0 - eps) - eigs[0], eigs[-1] - (1.0 + eps), 0.0))
    return {
        "theorem_bound": SymReport(d=d, lhs=lhs, rhs=eps, epsilon=eps,
                                   passed=lhs <= eps + PASS_SLACK * max(1.0, eps)),
        "sandwich": SymReport(d=d, lhs=worst, rhs=0.0, epsilon=eps, passed=worst <= PASS_SLACK),
    }


# --------------------------------------------------------------------------
# Deviation experiment (the O(d*eps) scaling of the random-family version)

FamilySampler = Callable[[int, np.random.Generator], np.ndarray]


def perturbed_isometry_sampler(m: int, strength: float) -> FamilySampler:
    """A = U (I + eps H) / sqrt(1 + eps^2) with U Haar and H GUE normalized so
    E(H^2) = I, giving E(A*A) = I exactly.  At strength 0 the family is the
    Haar factors U themselves, bit for bit: exact isometries, the
    zero-deviation baseline.

    Each operator consumes four m x m standard-normal blocks in the order
    (U real, U imaginary, G real, G imaginary); the family is drawn as one
    (n, 4, m, m) block, so it equals drawing the operators one at a time.
    A strength whose 1 + strength^2 is not finite (inf, nan, or large enough
    to overflow) raises ValueError: its scale would be 0 or nan, and so
    does an m below 1."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not math.isfinite(1.0 + strength * strength):
        raise ValueError(f"strength must have a finite 1 + strength^2, got {strength!r}")
    scale = 1.0 / np.sqrt(1.0 + strength * strength)

    def draw(n: int, rng: np.random.Generator) -> np.ndarray:
        z = rng.standard_normal((n, 4, m, m))
        u = unitaries_from_gaussians(z[:, :2])
        g = (z[:, 2] + 1j * z[:, 3]) / np.sqrt(2.0)
        h = (g + g.conj().transpose(0, 2, 1)) / np.sqrt(2.0 * m)
        return scale * (u @ (np.eye(m) + strength * h))

    return draw


@dataclass
class DeviationReport:
    d: int
    epsilon_hat: float
    epsilon_hat_stderr: float
    delta_wo: float
    delta_wo_stderr: float
    ratio: float
    predicted_delta_scale: float = field(init=False)
    predicted_ratio_scale: float = field(init=False)

    def __post_init__(self):
        self.predicted_delta_scale = self.d * self.epsilon_hat
        self.predicted_ratio_scale = 1.0 + self.d * self.epsilon_hat


def _p_mean(values: np.ndarray, p: int) -> Tuple[float, float]:
    """(E v^p)^(1/p) with a delta-method standard error, over at least two values."""
    powers = values ** p
    mean_p = float(np.mean(powers))
    se_p = float(np.std(powers, ddof=1) / np.sqrt(len(powers)))
    root = mean_p ** (1.0 / p) if mean_p > 0 else 0.0
    se = se_p / (p * mean_p ** ((p - 1) / p)) if mean_p > 0 else se_p
    return root, se


def deviation_experiment(
    sampler: FamilySampler,
    n: int,
    degrees: Sequence[int],
    p: int,
    trials: int,
    seed: int,
) -> List[DeviationReport]:
    """Monte Carlo estimate of the deviation quantities for i.i.d. families,
    one report per degree.

    epsilon_hat = (E ||sum A*A - nI||^p)^(1/p) / n, delta_wo the p-th-moment
    deviation of E_wo,d around its sample mean, and the without/with
    replacement norm ratio.  The Bochner-type norm is realized as a plain
    p-th-moment Monte Carlo estimate; p and the trial count are explicit.
    Every degree is checked, and none may repeat, before any family is
    drawn; degree d draws its trials from
    ``default_rng([seed, d]).spawn(trials)``.  The (degree, trial) pairs run
    in ``workers.blas_workers`` forked processes once trials * sum(2**d)
    reaches DEVIATION_POOL_MIN_WORK, else in this one; each degree's trials
    are reduced in order, so the reports do not depend on the processes.
    """
    if trials < 30:
        raise ValueError(f"trials must be >= 30 for a meaningful estimate, got {trials}")
    if p not in (1, 2, 4):
        raise ValueError(f"p must be one of 1, 2, 4, got {p}")
    for i, d in enumerate(degrees):
        _check_degree(d)
        if d > n // 4:
            raise ValueError(f"d must satisfy d <= n/4 (d << n), got d={d}, n={n}")
        if d in degrees[:i]:
            raise ValueError(f"degree {d} is repeated; each degree is one report")
    items = [(d, stream) for d in degrees
             for stream in np.random.default_rng([seed, d]).spawn(trials)]
    work = trials * sum(2**d for d in degrees)
    processes = 1 if work < DEVIATION_POOL_MIN_WORK else workers.blas_workers(len(items))
    measured = workers.fork_map(lambda item: _deviation_trial(sampler, n, *item), items,
                                processes)
    return [_deviation_at(n, d, p, measured[i * trials:(i + 1) * trials])
            for i, d in enumerate(degrees)]


def _deviation_trial(sampler: FamilySampler, n: int, d: int,
                     stream: np.random.Generator) -> Tuple[float, np.ndarray, float, float]:
    """One trial's ||sum_j G_j - nI||, E_wo,d, ||E_wo,d|| and ||E_wr,d||."""
    fam = OperatorFamily(sampler(n, stream))
    wo = e_wo(fam, d)
    return (spectral_norm(np.sum(fam.gram, axis=0) - n * np.eye(fam.m)), wo, spectral_norm(wo),
            spectral_norm(e_wr(fam, d)))


def _deviation_at(n: int, d: int, p: int,
                  measured: List[Tuple[float, np.ndarray, float, float]]) -> DeviationReport:
    sum_devs, wo_mats, wo_norms, wr_norms = (np.array(column) for column in zip(*measured))
    eps_hat, eps_se = _p_mean(sum_devs, p)
    eps_hat, eps_se = eps_hat / n, eps_se / n
    mean_wo = np.mean(wo_mats, axis=0)
    centered = np.array([spectral_norm(w - mean_wo) for w in wo_mats])
    delta_wo, delta_se = _p_mean(centered, p)
    wo_p, _ = _p_mean(wo_norms, p)
    wr_p, _ = _p_mean(wr_norms, p)
    return DeviationReport(d=d, epsilon_hat=eps_hat, epsilon_hat_stderr=eps_se,
                           delta_wo=delta_wo, delta_wo_stderr=delta_se, ratio=wo_p / wr_p)
