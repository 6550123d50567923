"""numpy's spawned seed streams, derived for many children in one pass.

``default_rng(seed).spawn(count)`` builds one SeedSequence per child; child t
is SeedSequence(seed, spawn_key=(t,)).  Its entropy is the seed's 32-bit
words, zero-padded to the pool size (which leaves the pool as it is),
followed by the one word t.  So everything up to mixing in that last word is
SeedSequence(seed)'s own pool, shared by all children.  ``spawned_seed_words``
takes that pool from numpy and hashes the word t into it for a range of
children at once, with numpy uint32 arithmetic that wraps like the C code,
then applies generate_state; only these two steps mirror numpy's SeedSequence
(numpy/random/bit_generator.pyx).  ``SeedWords`` hands one child's words to
a bit generator, which seeds itself from them exactly as from the child.
"""

from __future__ import annotations

import numpy as np

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # hashing entropy into the pool
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # generate_state
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash(value: np.ndarray, const: int, mult: int) -> np.ndarray:
    """SeedSequence's hashmix step on a uint32 array, row i hashed with the
    hash constant const * mult**i."""
    consts = np.array([const * pow(mult, i, 1 << 32) & _MASK32 for i in range(len(value) + 1)],
                      dtype=np.uint32)[:, None]
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ value >> 16


def spawned_seed_words(seed: int, children: range) -> np.ndarray:
    """(len(children), 4) uint64 array whose row i is
    SeedSequence(seed, spawn_key=(t,)).generate_state(4, np.uint64) for the
    i-th child t of ``children``, a range within [0, 2**32), for a
    non-negative int seed.  Child t's words depend on seed and t alone, so
    any range of children gives the rows of the whole derivation."""
    seed_words = (max(int(seed).bit_length(), 1) + 31) // 32
    # hashing the seed into the pool took 4 + 12 steps, plus 4 per word
    # beyond the pool size
    const = _INIT_A * pow(_MULT_A, 16 + 4 * max(seed_words - _POOL_SIZE, 0), 1 << 32) & _MASK32
    pool = np.random.SeedSequence(seed).pool[:, None]
    t = np.arange(children.start, children.stop, children.step, dtype=np.uint32)
    t = np.broadcast_to(t, (_POOL_SIZE, len(t)))
    mixed = _MIX_MULT_L * pool - _MIX_MULT_R * _hash(t, const, _MULT_A)  # (pool, children)
    mixed ^= mixed >> 16
    # generate_state: 8 uint32 words cycling over the pool, paired little-endian
    words = _hash(mixed[np.arange(8) % _POOL_SIZE], _INIT_B, _MULT_B).astype(np.uint64)
    return np.ascontiguousarray((words[0::2] | words[1::2] << 32).T)


class SeedWords(np.random.bit_generator.ISeedSequence):
    """Seed words as a bit generator's seed: PCG64(SeedWords(row)), for a
    row of ``spawned_seed_words``, is PCG64 seeded by that row's child.
    PCG64 reads the words as raw memory, so ``words`` must be a C-contiguous
    uint64 array of the count asked for; any other array is refused, not
    copied, so that a caller converts its words once for many streams."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        words = self.words
        if words.shape != (n_words,) or words.dtype != dtype or not words.flags.c_contiguous:
            raise ValueError(f"have {words.shape} seed words of {words.dtype}, asked for "
                             f"{n_words} C-contiguous words of {np.dtype(dtype)}")
        return words
