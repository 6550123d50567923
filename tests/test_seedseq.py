"""The one-pass derivation of numpy's spawned SeedSequence words, and PCG64
seeded from them."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sagm import seedseq


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**160 - 1), t=st.integers(0, 4999))
# seeds of fewer than four words are zero-padded to the pool; longer ones
# mix their extra words in after the pool
@example(seed=0, t=0)
@example(seed=12345, t=4999)
@example(seed=2**96 - 1, t=7)
@example(seed=2**128 + 7, t=1)
@example(seed=2**160 - 1, t=4096)
def test_seed_words_match_seed_sequence(seed, t):
    expected = np.random.SeedSequence(seed, spawn_key=(t,)).generate_state(4, np.uint64)
    assert np.array_equal(seedseq.spawned_seed_words(seed, range(t + 1))[t], expected)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**160 - 1), t=st.integers(0, 99))
def test_seed_words_seed_pcg64_as_the_child(seed, t):
    words = seedseq.spawned_seed_words(seed, range(t + 1))[t]
    expected = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(t,))).state
    assert np.random.PCG64(seedseq.SeedWords(words)).state == expected


@pytest.mark.parametrize("words", [np.arange(8, dtype=np.uint64)[::2], np.arange(0, 8, 2, dtype=np.uint32)],
                         ids=["strided", "uint32"])
def test_seed_words_refuse_strided_or_narrow_words(words):
    # PCG64 reads the words as raw memory, so a strided view or a narrower
    # dtype must not reach it as is
    with pytest.raises(ValueError, match="C-contiguous"):
        np.random.PCG64(seedseq.SeedWords(words))


@pytest.mark.parametrize("bit_generator, count", [(np.random.PCG64, 2), (np.random.MT19937, 4)])
def test_seed_words_refuse_another_state_size(bit_generator, count):
    with pytest.raises(ValueError, match="seed words"):
        bit_generator(seedseq.SeedWords(np.arange(count, dtype=np.uint64)))


def test_rows_are_independent_of_count():
    # child t's words depend on t alone, not on how many children are derived
    assert np.array_equal(seedseq.spawned_seed_words(7, range(3)),
                          seedseq.spawned_seed_words(7, range(1000))[:3])


# [0, stop) is derived whole up to this stop; beyond it, up to the 2**32
# children that one spawn-key word holds, its rows are numpy's own words
WHOLE_STOP = 8192


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**160 - 1),
       stop=st.one_of(st.integers(1, WHOLE_STOP), st.integers(WHOLE_STOP + 1, 2**32)),
       size=st.integers(1, 64))
@example(seed=0, stop=1, size=1)
@example(seed=12345, stop=WHOLE_STOP, size=64)
@example(seed=0, stop=2**32, size=3)
@example(seed=2**128 + 7, stop=2**32, size=64)
def test_block_words_are_rows_of_the_whole_derivation(seed, stop, size):
    start = max(stop - size, 0)
    block = seedseq.spawned_seed_words(seed, range(start, stop))
    assert block.shape == (stop - start, 4) and block.dtype == np.uint64
    expected = np.array([np.random.SeedSequence(seed, spawn_key=(t,)).generate_state(4, np.uint64)
                         for t in range(start, stop)])
    assert np.array_equal(block, expected)
    if stop <= WHOLE_STOP:
        assert np.array_equal(block, seedseq.spawned_seed_words(seed, range(stop))[start:])
