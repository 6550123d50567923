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
sandwich products, or real row vectors in R^{m^2} stepped by real GEMMs.
Every state is Hermitian, X = S + iK with S symmetric and K antisymmetric,
and is held as the real Y = S + K; the sandwich then acts on vec(Y) as
y -> y M_j with M_j = Re T_j + P Im T_j, where T_j = conj(A_j) kron A_j
is the sandwich on vec(X) and P swaps the rows (a, b) and (b, a).  The
float64 stack of M_j takes 8 n m^4 bytes.  The third strategy is an
enumeration of the distinct tuples.  A rule on n, m and d picks one
(``_strategy``): the superoperator walk at m <= 4, at m <= 8 from d = 3 on
and at m <= 10 from d = 4 on, where per-call overhead and the steps it
shares outweigh its m^4 work; enumeration at n <= 4, which has at most 24
tuples; the sandwich walk otherwise.  At d = 1 the mean is the mean Gram
matrix and nothing is walked.  A
partition-restricted sum [sigma] is the same walk over the DAG keyed by
sigma, whose words are the coarsenings of sigma: the distinct-tuple sum is
[sigma] at the all-singletons sigma.  It always walks in the sandwich
state, at any n.  The enumeration strategy used at n <= 4 is
``_enumerated_sum``; the tests keep a separate tuple enumeration as the
independent oracle.

The family layer and the engine take one family, operators of shape
(n, m, m), or a stack of families of one shape, (..., n, m, m), through the
same code: a stack is normalized, walked, solved and checked in one call
per step, where one family would make the same call with no leading axes.
Every GEMM and eigensolve of a stack multiplies or factors the matrices
that the family alone would, so each family of a stack gets the bits it
gets alone, and an error names the first family in stack order that fails.
The bound sweeps normalize each (n, m) of their families as one stack and
check each degree of it as a sub-stack (``OperatorFamily.families``), and
the deviation experiment measures each degree of a worker's trials as
stacks of families: its draw, Gram sum, ``e_wr`` and norms run once per
stack, and only its ``e_wo`` walks run one family at a time.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np
# numpy loads numpy.random on first use.  Every run of a CLI subcommand draws
# from it, so it is loaded with this module, as part of start-up.
import numpy.random

from . import workers
from .linalg import (complex_gaussians, first_flagged, hermitian_spectrum, one_or_stack,
                     spectral_norm, unitaries_from_gaussians)
from .partitions import Partition, enumerate_partitions, singletons

# certified residuals reach 1.7e-14 in tier-1; one step at condition 1.1e6 leaves 1.7e-10
NORMALIZATION_TOL = 1e-10
# rounding of a bound met with equality (d = 1): tier-1's largest passing excess is 1.7e-14
PASS_SLACK = 1e-9
MAX_DEGREE = 6
# Bytes of a group of operators, for two users.  First, e_wr's products per
# group and family.  Best of 40, one BLAS thread: at d = 3, groups of
# 64-150 KiB were fastest at m = 24-96 (0.66 ms against 0.86 for one
# operator per group and 0.79 for all 16 at m = 32) and one operator per
# group at m = 256 (42 against 46 ms); at (n, m, d) = (32, 4, 5) the whole
# stack was (0.13 against 0.29 ms in groups of 8).  At m = 1 numpy adds a
# stack pairwise rather than in order, so a split group would move bits;
# this size splits none of fewer than 8192 operators.  Second, the
# deviation experiment's operators per stack of trials (at least one
# trial): 16 trials at (n, m) = (32, 4), one at (64, 16).  With a worker's
# whole share of a degree as one stack instead, peak RSS (one BLAS thread,
# two workers) rose from 41.3 to 44.2 MiB on deviation --trials 500 and
# from 37.4 to 80.1 MiB on --n 64 --m 16 --d-list 2 --trials 60.
WR_GROUP_BYTES = 1 << 17


class OperatorFamily:
    """Ordered family A_1..A_n of m x m complex matrices, ``ops`` of shape
    (n, m, m), or a stack of such families of one shape, (..., n, m, m).

    ``gram`` is the stack G_j = A_j* A_j, built on first use only (the
    dim-256 adjoint families of ``freeprobe`` never need it).
    ``normalized`` certifies ||mean_j G_j - I|| <= 1e-10 for every family
    (the left-handed convention; see ``normalize_family`` for the
    right-handed reading).  ``sup_gram_norm`` is C = sup_k ||G_k||.  The
    norms are per family: a float for one family, an array of the stack's
    shape for a stack.  The Gram stack and both norms are computed once,
    from the read-only ``ops``; no mean or spectrum is kept.
    """

    def __init__(self, ops):
        stack = np.array(ops, dtype=complex)  # a private copy, kept read-only
        if stack.ndim < 3 or stack.shape[-2] != stack.shape[-1]:
            raise ValueError(f"expected n matrices of common square shape, got {stack.shape}")
        if not np.all(np.isfinite(stack)):
            raise ValueError("family has non-finite entries")
        stack.setflags(write=False)
        self.ops = stack
        self.n, self.m = stack.shape[-3:-1]

    @functools.cached_property
    def gram(self) -> np.ndarray:
        stack = self.ops.conj().swapaxes(-1, -2) @ self.ops
        stack.setflags(write=False)
        return stack

    @property
    def mean_gram(self) -> np.ndarray:
        return np.mean(self.gram, axis=-3)

    @functools.cached_property
    def normalization_residual(self):
        return spectral_norm(self.mean_gram - np.eye(self.m))

    @property
    def normalized(self) -> bool:
        return bool(np.all(self.normalization_residual <= NORMALIZATION_TOL))

    @functools.cached_property
    def sup_gram_norm(self):
        # ||G_k|| is the top eigenvalue of the PSD G_k itself, one stacked
        # eigensolve.  Its rounding could underestimate C, but a smaller C
        # only shrinks epsilon, which makes every bound check stricter.
        top = np.linalg.eigvalsh(self.gram)[..., -1].max(axis=-1)
        return one_or_stack(np.maximum(top, 0.0))

    def families(self, index: slice) -> "OperatorFamily":
        """The families ``index`` of a stack with one leading axis: views of
        its operators and of the Gram stack and norms it has computed, so
        that nothing is copied or computed twice."""
        sub = object.__new__(OperatorFamily)
        sub.ops, sub.n, sub.m = self.ops[index], self.n, self.m
        for name in ("gram", "normalization_residual", "sup_gram_norm"):
            if name in self.__dict__:
                sub.__dict__[name] = self.__dict__[name][index]
        return sub


@dataclass
class SymReport:
    """Outcome of one bound check.  passed iff lhs <= rhs + 1e-9 max(1, rhs).
    For a stack of families every field but d is an array over the stack."""

    d: int
    lhs: float
    rhs: float
    epsilon: float
    passed: bool


def normalize_family(ops) -> OperatorFamily:
    """Rescale a family so the normalization hypothesis holds exactly.

    Returns {A_j M^{-1/2}} with M = (1/n) sum A_j* A_j, so the left
    certificate (1/n) sum B_j* B_j = I holds.  This is the one convention:
    to check a family under the right-handed reading (1/n) sum B_j B_j* = I,
    pass its adjoint operators {A_j*}; the adjoint of the result then
    carries the right-handed certificate.  A badly conditioned
    M can leave the first step's rounding above ``NORMALIZATION_TOL``; the
    same step applied once more to its output removes it.  A stack of
    families is normalized family by family, each as it would be alone:
    the second step goes to the families that need it and to no other, and
    an error names the first family in stack order that fails.
    """
    out = _normalizing_step(OperatorFamily(ops))
    redo = np.asarray(out.normalization_residual > NORMALIZATION_TOL)
    if redo.any():
        ops = out.ops.copy()
        ops[redo] = _normalizing_step(OperatorFamily(ops[redo])).ops
        out = OperatorFamily(ops)
    failed = _first_unnormalized(out)
    if failed is not None:
        raise ValueError(f"normalization failed: residual {failed:.3e}")
    return out


def _normalizing_step(fam: OperatorFamily) -> OperatorFamily:
    """{A_j M^{-1/2}} with M = (1/n) sum A_j* A_j, for each family."""
    eigvals, eigvecs = np.linalg.eigh(fam.mean_gram)
    # M^{-1/2} would scale by over 1e4; the smallest eigenvalue tier-1 accepts is 1.4e-5
    low = first_flagged(eigvals[..., 0] <= 1e-8, eigvals[..., 0])
    if low is not None:
        raise ValueError(
            f"mean Gram matrix is singular (min eigenvalue {low:.3e}); "
            "family cannot be normalized"
        )
    inv_sqrt = (eigvecs * (1.0 / np.sqrt(eigvals))[..., None, :]) @ eigvecs.conj().swapaxes(-1, -2)
    return OperatorFamily(fam.ops @ inv_sqrt[..., None, :, :])


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


# Both walk states keep the open-index axes in front and a stack's family
# axes right before the state of one family, so that every step sums and
# moves open axes alone.  Each GEMM multiplies the matrices one family
# alone would, so a family of a stack gets the same bits as alone.


class _Sandwich:
    """Walk state as a stack of m x m matrices X, one per tuple of open
    indices and family; a step is the sandwich X -> A_j* X A_j."""

    def __init__(self, ops: np.ndarray):
        self.families = ops.shape[:-3]
        self.a = np.moveaxis(ops, -3, 0)  # (n, *families, m, m)
        self.ah = self.a.conj().swapaxes(-1, -2)
        m = ops.shape[-1]
        self.start = np.broadcast_to(np.eye(m, dtype=complex), self.families + (m, m))

    def open(self, x: np.ndarray) -> np.ndarray:
        """x (*open, *families, m, m) -> A_j* x A_j with a fresh j-axis in front."""
        pad = (slice(None),) + (None,) * (x.ndim - 2 - len(self.families))
        return self.ah[pad] @ x[None] @ self.a[pad]

    def single(self, x: np.ndarray) -> np.ndarray:
        return self.open(x).sum(axis=0)

    def cont(self, x: np.ndarray) -> np.ndarray:
        """x (n, *open, *families, m, m) -> A_j* x A_j elementwise along the
        leading j-axis."""
        pad = (slice(None),) + (None,) * (x.ndim - 3 - len(self.families))
        return self.ah[pad] @ x @ self.a[pad]

    def matrix(self, x: np.ndarray) -> np.ndarray:
        return x


class _Superoperator:
    """Walk state as real row vectors y = vec(Y) in R^{m^2}, one per tuple of
    open indices and family (row-major vec), for the Hermitian X = S + iK
    (S real symmetric, K real antisymmetric) held as Y = S + K.  Every state
    is Hermitian: the walk starts at I, each step X -> A_j* X A_j keeps X
    Hermitian, and the Mobius factors are integers.

    In vec(X) the step is x -> x T_j with T_j = conj(A_j) kron A_j.  Taking
    real parts and the symmetric and antisymmetric parts of vec(X) T_j gives
    y -> y M_j with M_j = Re T_j + P Im T_j, where P swaps row (a, b) with
    row (b, a): row (a, b) of M_j adds row (b, a) of Im T_j.  A step over
    all open tuples of a family is one real GEMM per j, or one with
    sum_j M_j for a singleton.  The (n, m^2, m^2) float64 stack of M_j costs
    8 n m^4 bytes per family."""

    def __init__(self, ops: np.ndarray):
        n, m = ops.shape[-3:-1]
        self.m, self.mm = m, m * m
        self.families = ops.shape[:-3]
        # T_j as (..., n, a, b, c, d) = conj(A_j)[a, c] A_j[b, d]; P swaps a, b
        kron = ops.conj()[..., :, None, :, None] * ops[..., None, :, None, :]
        step = kron.real + kron.imag.swapaxes(-4, -3)
        # (n, k, m^2, m^2) with the k = prod(families) families flattened
        self.t = step.reshape(-1, n, self.mm, self.mm).swapaxes(0, 1)
        self.t_sum = self.t.sum(axis=0)
        self.start = np.broadcast_to(np.eye(m).reshape(self.mm), self.families + (self.mm,))

    def _gemm(self, x: np.ndarray, rows: Tuple[int, ...], t: np.ndarray) -> np.ndarray:
        """Each family's rows of x (*open, *families, m^2), with the open axes
        reshaped to ``rows``, times that family's matrix in ``t`` (one per j
        in front, or T_sum): GEMMs of (rows[-1], m^2) by (m^2, m^2)."""
        y = x.reshape(rows + (self.t.shape[1], self.mm)).swapaxes(-3, -2) @ t
        return y.swapaxes(-3, -2)

    def open(self, x: np.ndarray) -> np.ndarray:
        y = self._gemm(x, (1, -1), self.t)
        return y.reshape(self.t.shape[:1] + x.shape)

    def single(self, x: np.ndarray) -> np.ndarray:
        # as x @ T_sum for one family: a matmul over its last open axis, or
        # a vector-matrix product when no axis is open
        return self._gemm(x, x.shape[:x.ndim - 1 - len(self.families)] or (1,),
                          self.t_sum).reshape(x.shape)

    def cont(self, x: np.ndarray) -> np.ndarray:
        return self._gemm(x, (x.shape[0], -1), self.t).reshape(x.shape)

    def matrix(self, y: np.ndarray) -> np.ndarray:
        """X = (Y + Y^T)/2 + i (Y - Y^T)/2, Hermitian bit for bit."""
        y = y.reshape(self.families + (self.m, self.m))
        yt = y.swapaxes(-1, -2)
        x = np.empty(y.shape, dtype=complex)
        x.real, x.imag = 0.5 * (y + yt), 0.5 * (y - yt)
        return x


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
    """Distinct-tuple sum of P*P, P = A_{td} ... A_{t1}, for each family.
    For each head (t1..t_{d-1}), H = A_{t(d-1)} ... A_{t1} is one left fold,
    and all unused last indices j go at once as Q = [A_j H] stacked, with
    sum_j Q_j* Q_j = Q* Q."""
    n, m = ops.shape[-3:-1]
    total = np.zeros(ops.shape[:-3] + (m, m), dtype=complex)
    for head in itertools.permutations(range(n), d - 1):
        q = ops[..., [j for j in range(n) if j not in head], :, :]
        if head:
            h = ops[..., head[0], :, :]
            for t in head[1:]:
                h = ops[..., t, :, :] @ h
            q = q @ h[..., None, :, :]
        q = q.reshape(ops.shape[:-3] + (-1, m))
        total += q.conj().swapaxes(-1, -2) @ q
    return total


def _strategy(n: int, m: int, d: int) -> Callable[[np.ndarray, int], np.ndarray]:
    """The distinct-tuple sum to run at (n, m, d); the rule reads m and d,
    then n."""
    # The superoperator walk's real m^4 GEMMs beat the m^3 products of the
    # sandwich walk (or enumeration at n <= 4) up to an m that grows with d,
    # where the walk has more steps to share.  Best of 9, one BLAS thread,
    # one family, n = 3..32, it took: at d = 2, 0.39-1.03 of their time at
    # m <= 4 and n >= 4 (1.23-1.37 at n = 3), 0.92-1.56 at m = 5 and
    # 1.20-1.80 at m = 6; at d = 3, 0.15-0.82 at m = 5-7 and n >= 4,
    # 0.68-1.11 at m = 8 (1.01-1.73 at n = 3) and 0.95-2.27 at m = 9; from
    # d = 4 on, 0.02-0.89 at m = 5-9, 0.12-1.14 at m = 10 (1.14 at
    # (4, 10, 4)) and 1.15-1.55 at m = 11 with n <= 6.
    # Past that, n <= 4 leaves at most perm(4, 4) = 24 tuples to enumerate
    # against the walk's n^d collapsed terms (53 ms against 224 ms for the
    # sandwich walk at (3, 256, 3), one BLAS thread), and the sandwich walk
    # is the one strategy that still runs at large n and large m.
    if m <= (4 if d <= 2 else 8 if d == 3 else 10):
        return _superoperator_sum
    if n <= 4:
        return _enumerated_sum
    return _sandwich_sum


def _check_degree(d: int) -> None:
    if not 1 <= d <= MAX_DEGREE:
        raise ValueError(f"degree d must be in [1, {MAX_DEGREE}], got {d}")


def e_wo(fam: OperatorFamily, d: int) -> np.ndarray:
    """Without-replacement mean ((n-d)!/n!) sum over distinct tuples of
    A_{j1}* ... A_{jd}* A_{jd} ... A_{j1}, as a new array: (m, m), or
    (..., m, m) for a stack of families, one walk for the whole stack."""
    _check_degree(d)
    if d > fam.n:
        raise ValueError(f"d = {d} exceeds family size n = {fam.n}: no distinct tuples")
    if d == 1:
        return fam.mean_gram  # (1/n) sum_j A_j* A_j: nothing to walk
    scale = math.factorial(fam.n - d) / math.factorial(fam.n)
    return scale * _strategy(fam.n, fam.m, d)(fam.ops, d)


def e_wr(fam: OperatorFamily, d: int) -> np.ndarray:
    """With-replacement mean n^{-d} sum over all tuples of
    A_{j1}* ... A_{jd}* A_{jd} ... A_{j1}, for each family: d steps
    x -> mean_j A_j* x A_j from the identity.

    Each step multiplies the operators in consecutive groups whose products
    fit ``WR_GROUP_BYTES`` per family, and adds each group's products onto
    the running sum in operator order.  That is the order in which
    ``np.mean`` over the stack of all n products adds them at m >= 2, so
    every group size gives the same bits, while large operators are never
    held as a stack of all n products.
    A stack of families takes one family's group size, so each family is
    grouped as it would be alone."""
    _check_degree(d)
    ops = fam.ops
    size = max(1, WR_GROUP_BYTES // (ops.itemsize * fam.m * fam.m))
    x = None
    for _ in range(d):
        total = None
        for lo in range(0, fam.n, size):
            group = ops[..., lo:lo + size, :, :]
            gh = group.conj().swapaxes(-1, -2)
            # the first step, from the identity, is the mean Gram matrix;
            # computed here rather than through fam.gram, which would keep
            # the Gram stack
            prods = gh @ group if x is None else gh @ x[..., None, :, :] @ group
            if total is None:
                total = np.add.reduce(prods, axis=-3)
            else:
                for k in range(prods.shape[-3]):
                    total += prods[..., k, :, :]
        x = total / fam.n
    return x


def partition_sum(fam: OperatorFamily, sigma: Partition) -> np.ndarray:
    """[sigma]: sum over tuples with kernel sigma of
    A_{ij}* ... A_{i1}* A_{i1} ... A_{ij} (innermost factor at position 1),
    one walk over ``_mobius_dag(sigma)`` in the sandwich state.  With
    n < nu(sigma) no tuple has kernel sigma, so the sum is an exact zero
    rather than the walk's cancellation noise."""
    if fam.n < sigma.nu:
        return np.zeros(fam.ops.shape[:-3] + (fam.m, fam.m), dtype=complex)
    return _mobius_sum(_Sandwich(fam.ops), _mobius_dag(sigma))


def bound_partition_sum(fam: OperatorFamily, sigma: Partition):
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


def _first_unnormalized(fam: OperatorFamily):
    """The residual of the first family that fails the normalization
    certificate, in stack order, or None."""
    residual = fam.normalization_residual
    return first_flagged(np.asarray(residual) > NORMALIZATION_TOL, residual)


def _require_normalized(fam: OperatorFamily) -> None:
    failed = _first_unnormalized(fam)
    if failed is not None:
        raise ValueError(f"the bounds require a normalized family (residual {failed:.3e})")


def theorem_epsilon(fam: OperatorFamily, d: int):
    return (1.0 + fam.sup_gram_norm) / fam.n * d * (d - 1) / 2.0


def check_bounds(fam: OperatorFamily, d: int) -> Dict[str, SymReport]:
    """Both bound checks of E_wo(fam, d), keyed "theorem_bound" and
    "sandwich", from one spectrum of its Hermitian part H and one epsilon.
    They need a normalized family and 1 <= d <= min(n, MAX_DEGREE), which
    ``e_wo`` enforces.

    theorem_bound: ||I - E_wo|| against eps = (1+C)/n * d(d-1)/2.  The lhs is
    ||I - H|| + ||S||_F for E_wo = H + S (S the skew part), never below
    ||I - E_wo||, so reading the spectrum of H cannot understate it.  On
    the superoperator walk S is 0 by construction, not by rounding: that
    walk returns an exactly Hermitian E_wo.
    sandwich: (1-eps) I <= E_wo <= (1+eps) I by the extreme eigenvalues of H.
    For a stack of families both reports hold arrays over the stack, from
    one walk and one stacked spectrum.
    """
    _require_normalized(fam)
    eigs, skew = hermitian_spectrum(e_wo(fam, d))
    low, high = eigs[..., 0], eigs[..., -1]
    eps = np.asarray(theorem_epsilon(fam, d))
    lhs = np.maximum(1.0 - low, high - 1.0) + skew
    worst = np.maximum(np.maximum((1.0 - eps) - low, high - (1.0 + eps)), 0.0)
    theorem = (lhs, eps, eps, lhs <= eps + PASS_SLACK * np.maximum(1.0, eps))
    sandwich = (worst, np.zeros_like(worst), eps, worst <= PASS_SLACK)
    return {
        "theorem_bound": SymReport(d, *map(one_or_stack, theorem)),
        "sandwich": SymReport(d, *map(one_or_stack, sandwich)),
    }


# --------------------------------------------------------------------------
# Deviation experiment (the O(d*eps) scaling of the random-family version)

def _perturbed_isometries(streams: Sequence[np.random.Generator], n: int, m: int,
                          strength: float) -> np.ndarray:
    """One family of n operators A = U (I + eps H) / sqrt(1 + eps^2) per
    stream, as a (len(streams), n, m, m) stack, with U Haar and H GUE
    normalized so E(H^2) = I, giving E(A*A) = I exactly.  At strength 0 each
    family is the Haar factors U themselves, bit for bit: exact isometries,
    the zero-deviation baseline.

    Each stream fills its own (n, 4, m, m) block of standard normals, so a
    stream's family does not depend on the others in the stack; each
    operator takes four m x m blocks in the order (U real, U imaginary,
    G real, G imaginary).  Every QR and product runs once for the stack and
    factors or multiplies the matrices one family alone would."""
    z = np.empty((len(streams), n, 4, m, m))
    for stream, block in zip(streams, z):
        stream.standard_normal(out=block)
    u = unitaries_from_gaussians(z[:, :, :2])
    g = complex_gaussians(z[:, :, 2:])
    h = (g + g.conj().swapaxes(-1, -2)) / np.sqrt(2.0 * m)
    scale = 1.0 / np.sqrt(1.0 + strength * strength)
    return scale * (u @ (np.eye(m) + strength * h))


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
    n: int,
    m: int,
    strength: float,
    degrees: Sequence[int],
    p: int,
    trials: int,
    seed: int,
) -> List[DeviationReport]:
    """Monte Carlo estimate of the deviation quantities for i.i.d. families
    of n perturbed m x m isometries (``_perturbed_isometries`` at
    ``strength``), one report per degree.

    epsilon_hat = (E ||sum A*A - nI||^p)^(1/p) / n, delta_wo the p-th-moment
    deviation of E_wo,d around its sample mean, and the without/with
    replacement norm ratio.  The Bochner-type norm is realized as a plain
    p-th-moment Monte Carlo estimate; p and the trial count are explicit.
    m, the strength and every degree are checked, and no degree may repeat,
    before any family is drawn; degree d draws its trials from
    ``default_rng([seed, d]).spawn(trials)``.  The (degree, trial) pairs,
    trial by trial with every degree in each, run in ``workers.blas_workers``
    forked processes, each on a consecutive share of them.  A worker
    measures its share one degree at a time, in stacks of trials (see
    ``_deviation_share``); only the E_wo,d walk runs trial by trial.  Each
    degree's trials are reduced in order, so the reports do not depend on
    the processes or the stacks.  A strength whose 1 + strength^2 is not
    finite (inf, nan, or large enough to overflow) raises ValueError: its
    scale would be 0 or nan, and so does an m below 1.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not math.isfinite(1.0 + strength * strength):
        raise ValueError(f"strength must have a finite 1 + strength^2, got {strength!r}")
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
    # trial-major, so that each worker's consecutive share holds every degree
    streams = {d: np.random.default_rng([seed, d]).spawn(trials) for d in degrees}
    items = [(d, streams[d][t]) for t in range(trials) for d in degrees]
    measured = workers.fork_map(lambda share: _deviation_share(n, m, strength, share), items,
                                workers.blas_workers())
    return [_deviation_at(n, d, p, measured[i::len(degrees)]) for i, d in enumerate(degrees)]


def _deviation_share(n: int, m: int, strength: float,
                     share: Sequence[Tuple[int, np.random.Generator]]) -> List[tuple]:
    """Each (degree, stream) item's measurements, in share order.  The items
    of one degree are measured in share order as stacks of consecutive
    trials, each stack holding at most ``WR_GROUP_BYTES`` of operators (at
    least one trial)."""
    size = max(1, WR_GROUP_BYTES // (np.dtype(complex).itemsize * n * m * m))
    measured: List[tuple] = [None] * len(share)
    for d in dict.fromkeys(d for d, _ in share):
        at = [i for i, (e, _) in enumerate(share) if e == d]
        for lo in range(0, len(at), size):
            stack = at[lo:lo + size]
            rows = _deviation_stack(n, m, strength, d, [share[i][1] for i in stack])
            for i, row in zip(stack, rows):
                measured[i] = row
    return measured


def _deviation_stack(n: int, m: int, strength: float, d: int,
                     streams: Sequence[np.random.Generator]
                     ) -> List[Tuple[float, np.ndarray, float, float]]:
    """Each trial's ||sum_j G_j - nI||, E_wo,d, ||E_wo,d|| and ||E_wr,d||,
    for one family per stream.  The draw, the Gram sum, E_wr,d and the three
    norms run once for the stack, which gives each trial the bits it gets
    alone; the E_wo,d walk runs trial by trial, where it is faster than with
    a family axis."""
    fam = OperatorFamily(_perturbed_isometries(streams, n, m, strength))
    wo = np.stack([e_wo(OperatorFamily(ops), d) for ops in fam.ops])
    sum_devs = spectral_norm(np.sum(fam.gram, axis=-3) - n * np.eye(m))
    return list(zip(sum_devs, wo, spectral_norm(wo), spectral_norm(e_wr(fam, d))))


def _deviation_at(n: int, d: int, p: int,
                  measured: List[Tuple[float, np.ndarray, float, float]]) -> DeviationReport:
    sum_devs, wo_mats, wo_norms, wr_norms = (np.array(column) for column in zip(*measured))
    eps_hat, eps_se = _p_mean(sum_devs, p)
    eps_hat, eps_se = eps_hat / n, eps_se / n
    mean_wo = np.mean(wo_mats, axis=0)
    delta_wo, delta_se = _p_mean(spectral_norm(wo_mats - mean_wo), p)
    wo_p, _ = _p_mean(wo_norms, p)
    wr_p, _ = _p_mean(wr_norms, p)
    return DeviationReport(d=d, epsilon_hat=eps_hat, epsilon_hat_stderr=eps_se,
                           delta_wo=delta_wo, delta_wo_stderr=delta_se, ratio=wo_p / wr_p)
