"""Set partitions of {1..d} and their restricted-growth-string enumeration.

Blocks are kept canonical (each block sorted, blocks ordered by minimum
element) so partitions are hashable and comparisons are structural.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

MAX_GROUND_SET = 8  # Bell-number growth guard for enumeration paths


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
