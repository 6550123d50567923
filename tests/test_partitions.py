"""Unit and property tests for the set partitions and the tuple-kernel and
refinement-order oracles built on them."""

import itertools
import math

import pytest
from hypothesis import given, strategies as st

from sagm.partitions import Partition, enumerate_partitions, singletons

from oracles import (
    bell_number,
    count_tuples_with_kernel,
    kernel_of_tuple,
    one_block,
    refinement_leq,
    tuples_with_kernel,
)

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]


def test_bell_numbers():
    for d, expected in enumerate(BELL):
        assert bell_number(d) == expected


def test_enumeration_counts_and_uniqueness():
    for d in range(1, 8):
        parts = enumerate_partitions(d)
        assert len(parts) == BELL[d]
        assert len(set(parts)) == len(parts)
        for sigma in parts:
            assert sorted(e for b in sigma.blocks for e in b) == list(range(1, d + 1))


def test_enumeration_guard():
    with pytest.raises(ValueError):
        enumerate_partitions(0)
    with pytest.raises(ValueError):
        enumerate_partitions(9)


def test_canonical_form():
    p = Partition.from_blocks(4, [(3, 1), (4, 2)])
    assert p.blocks == ((1, 3), (2, 4))
    with pytest.raises(ValueError):
        Partition.from_blocks(3, [(1, 2)])
    with pytest.raises(ValueError):
        Partition.from_blocks(2, [(1,), (1, 2)])


def test_kernel_examples():
    assert kernel_of_tuple((7, 7, 9)).blocks == ((1, 2), (3,))
    assert kernel_of_tuple(("a", "b", "a", "c")).blocks == ((1, 3), (2,), (4,))
    assert kernel_of_tuple((5,)) == singletons(1)
    with pytest.raises(ValueError):
        kernel_of_tuple(())


@given(st.lists(st.integers(0, 4), min_size=1, max_size=7))
def test_kernel_respects_equality_pattern(values):
    sigma = kernel_of_tuple(values)
    block_of = {e: i for i, b in enumerate(sigma.blocks) for e in b}
    for p, q in itertools.combinations(range(1, len(values) + 1), 2):
        same_block = block_of[p] == block_of[q]
        assert same_block == (values[p - 1] == values[q - 1])


def test_tuples_with_kernel_exact_and_lexicographic():
    for d in (1, 2, 3):
        for sigma in enumerate_partitions(d):
            for n in (2, 3, 4):
                tups = list(tuples_with_kernel(n, sigma))
                assert tups == sorted(tups)
                assert len(tups) == count_tuples_with_kernel(n, sigma)
                assert len(tups) == (math.perm(n, sigma.nu) if n >= sigma.nu else 0)
                for t in tups:
                    assert kernel_of_tuple(t) == sigma


def test_tuples_with_kernel_partition_the_cube():
    n, d = 3, 3
    seen = []
    for sigma in enumerate_partitions(d):
        seen.extend(tuples_with_kernel(n, sigma))
    assert sorted(seen) == sorted(itertools.product(range(1, n + 1), repeat=d))


def test_delete_min():
    sigma = Partition.from_blocks(3, [(1, 2), (3,)])
    assert sigma.delete_min() == Partition.from_blocks(2, [(1,), (2,)])
    assert one_block(4).delete_min() == one_block(3)
    with pytest.raises(ValueError):
        singletons(1).delete_min()


class TestRefinementOrder:
    """Convention: sigma <= pi iff pi refines sigma, so one_block is the
    bottom element and the all-singletons partition is the top."""

    def test_extremes(self):
        for d in (2, 3, 4):
            for sigma in enumerate_partitions(d):
                assert refinement_leq(one_block(d), sigma)
                assert refinement_leq(sigma, singletons(d))

    def test_partial_order_axioms_on_p4(self):
        parts = enumerate_partitions(4)
        for a in parts:
            assert refinement_leq(a, a)
        for a, b in itertools.permutations(parts, 2):
            if refinement_leq(a, b) and refinement_leq(b, a):
                assert a == b
        for a, b, c in itertools.product(parts, repeat=3):
            if refinement_leq(a, b) and refinement_leq(b, c):
                assert refinement_leq(a, c)

    def test_ground_set_mismatch(self):
        with pytest.raises(ValueError):
            refinement_leq(singletons(2), singletons(3))
