"""Set partitions of {1..d}: enumeration, tuple kernels, refinement order.

Blocks are kept canonical (each block sorted, blocks ordered by minimum
element) so partitions are hashable and comparisons are structural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Iterator, Sequence, Tuple

MAX_GROUND_SET = 8  # Bell-number growth guard for enumeration paths
MAX_ALPHABET = 12  # n cap for exhaustive tuple generation


@dataclass(frozen=True)
class Partition:
    """A set partition of {1..d} into disjoint nonempty blocks."""

    d: int
    blocks: Tuple[Tuple[int, ...], ...]

    @staticmethod
    def from_blocks(d: int, blocks) -> "Partition":
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
        seen = [e for b in canon for e in b]
        if any(len(b) == 0 for b in canon):
            raise ValueError("empty block")
        if sorted(seen) != list(range(1, d + 1)):
            raise ValueError(f"blocks {canon} do not partition {{1..{d}}}")
        return Partition(d=d, blocks=canon)

    @property
    def nu(self) -> int:
        """Number of blocks."""
        return len(self.blocks)

    def block_of(self, element: int) -> int:
        for i, b in enumerate(self.blocks):
            if element in b:
                return i
        raise KeyError(element)

    def delete_min(self) -> "Partition":
        """Remove element 1 and relabel 2..d down to 1..d-1."""
        if self.d < 2:
            raise ValueError("cannot delete from a 1-element ground set")
        blocks = []
        for b in self.blocks:
            nb = tuple(e - 1 for e in b if e != 1)
            if nb:
                blocks.append(nb)
        return Partition.from_blocks(self.d - 1, blocks)


def singletons(d: int) -> Partition:
    """The all-singletons partition (the lattice's 0-dot)."""
    return Partition.from_blocks(d, [(i,) for i in range(1, d + 1)])


def one_block(d: int) -> Partition:
    """The single-block partition (the lattice's 1-dot)."""
    return Partition.from_blocks(d, [tuple(range(1, d + 1))])


def bell_number(d: int) -> int:
    row = [1]
    for _ in range(d):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def enumerate_partitions(d: int) -> list:
    """All set partitions of {1..d}, canonical, via restricted growth strings."""
    if not 1 <= d <= MAX_GROUND_SET:
        raise ValueError(f"d must be in [1, {MAX_GROUND_SET}], got {d}")
    out = []

    def grow(rgs, maxval):
        if len(rgs) == d:
            blocks = {}
            for pos, label in enumerate(rgs, start=1):
                blocks.setdefault(label, []).append(pos)
            out.append(Partition.from_blocks(d, blocks.values()))
            return
        for label in range(maxval + 2):
            grow(rgs + [label], max(maxval, label))

    grow([0], 0)
    return out


def kernel_of_tuple(tup: Sequence) -> Partition:
    """Partition of positions induced by value equality: p, q share a block
    iff tup[p-1] == tup[q-1]."""
    if len(tup) == 0:
        raise ValueError("tuple must be nonempty")
    blocks = {}
    for pos, val in enumerate(tup, start=1):
        blocks.setdefault(val, []).append(pos)
    return Partition.from_blocks(len(tup), blocks.values())


def tuples_with_kernel(n: int, sigma: Partition) -> Iterator[Tuple[int, ...]]:
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


def count_tuples_with_kernel(n: int, sigma: Partition) -> int:
    return math.perm(n, sigma.nu) if n >= sigma.nu else 0


def refinement_leq(sigma: Partition, pi: Partition) -> bool:
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
