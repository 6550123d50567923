"""numpy's spawned seed streams, derived for many children in one pass.

``default_rng(seed).spawn(count)`` builds one SeedSequence and one PCG64 per
child; child t is SeedSequence(seed, spawn_key=(t,)).  Its entropy is the
seed's 32-bit words, zero-padded to the pool size because a spawn key is
present, followed by the one word t, so everything up to mixing in that last
word is shared by all children.  ``spawned_seed_words`` hashes the shared
part once in Python and the last word for all children with numpy uint32
arithmetic, which wraps like the C code.  ``pcg64_state`` then applies
PCG64's seeding.  The constants and steps mirror numpy's SeedSequence
(numpy/random/bit_generator.pyx) and ``pcg64_set_seed``
(numpy/random/src/pcg64/pcg64.c).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # hashing entropy into the pool
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # generate_state
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash(value, const, mult):
    """SeedSequence's hashmix step on an int or a uint32 array: the hashed
    value and the next hash constant."""
    value = value ^ const
    const = const * mult & _MASK32
    value = value * const & _MASK32
    return value ^ value >> 16, const


def _mix(x, y):
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return r ^ r >> 16


def _hash_constants(const: int, mult: int, count: int) -> np.ndarray:
    """The next ``count`` hash constants from ``const``, as a uint32 column."""
    out = []
    for _ in range(count):
        out.append(const)
        const = const * mult & _MASK32
    return np.array(out, dtype=np.uint32)[:, None]


def spawned_seed_words(seed: int, count: int) -> np.ndarray:
    """(count, 4) uint64 array whose row t is
    SeedSequence(seed, spawn_key=(t,)).generate_state(4, np.uint64), for a
    non-negative int seed and count <= 2**32."""
    seed = int(seed)
    entropy = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy += [0] * (_POOL_SIZE - len(entropy))
    pool, const = [], _INIT_A
    for word in entropy[:_POOL_SIZE]:
        hashed, const = _hash(word, const, _MULT_A)
        pool.append(hashed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed, const = _hash(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], hashed)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            hashed, const = _hash(word, const, _MULT_A)
            pool[dst] = _mix(pool[dst], hashed)
    t = np.arange(count, dtype=np.uint32)
    hashed, _ = _hash(t, _hash_constants(const, _MULT_A, _POOL_SIZE), _MULT_A)
    pool = _mix(np.array(pool, dtype=np.uint32)[:, None], hashed)  # (pool, count)
    # generate_state: 8 uint32 words cycling over the pool, paired little-endian
    words, _ = _hash(pool[np.arange(8) % _POOL_SIZE], _hash_constants(_INIT_B, _MULT_B, 8), _MULT_B)
    words = words.astype(np.uint64)
    return np.ascontiguousarray((words[0::2] | words[1::2] << 32).T)


def pcg64_state(words: Sequence[int]) -> Tuple[int, int]:
    """PCG64's (state, inc) seeded with words (state hi, lo, inc hi, lo):
    pcg64_set_seed's two steps of the 128-bit LCG from state 0."""
    inc = ((words[2] << 64 | words[3]) << 1 | 1) & _MASK128
    state = ((inc + (words[0] << 64 | words[1])) * _PCG64_MULT + inc) & _MASK128
    return state, inc
