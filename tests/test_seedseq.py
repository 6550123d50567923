"""The one-pass mirror of numpy's spawned SeedSequences and PCG64 seeding."""

import numpy as np
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
    assert np.array_equal(seedseq.spawned_seed_words(seed, t + 1)[t], expected)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**160 - 1), t=st.integers(0, 99))
def test_pcg64_state_matches_pcg64(seed, t):
    expected = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(t,))).state["state"]
    words = seedseq.spawned_seed_words(seed, t + 1)[t].tolist()
    assert seedseq.pcg64_state(words) == (expected["state"], expected["inc"])


def test_rows_are_independent_of_count():
    # child t's words depend on t alone, not on how many children are derived
    assert np.array_equal(seedseq.spawned_seed_words(7, 3), seedseq.spawned_seed_words(7, 1000)[:3])
