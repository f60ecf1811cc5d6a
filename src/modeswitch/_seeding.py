"""Per-episode generators built from SeedSequence words computed for many
episodes at once.

``Generator(PCG64(SeedSequence(entropy=master_seed, spawn_key=(i,))))`` spends
most of its time hashing the seed sequence, one episode at a time.  Here the
same hash runs over a whole range of episode indices in numpy ``uint32``
arithmetic, and each generator is seeded from its precomputed words, so its
stream is exactly the one :func:`modeswitch.simulate.episode_rng` returns.
"""

from __future__ import annotations

import operator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# numpy's SeedSequence hash constants (pool of four 32-bit words).
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def _uint32_words(value: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative integer, as SeedSequence
    splits its entropy (zero is one word)."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


class _HashMix:
    """SeedSequence's ``hashmix`` with its running multiplier, on uint32 arrays."""

    def __init__(self, const: int, mult: int):
        self.const = const
        self.mult = mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self.const)
        self.const = self.const * self.mult & _MASK32
        value = value * np.uint32(self.const)
        return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def seed_words(master_seed: int, indices: np.ndarray) -> np.ndarray:
    """Row ``k`` is ``SeedSequence(entropy=master_seed, spawn_key=(indices[k],))
    .generate_state(4, np.uint64)``, the words PCG64 seeds from.

    SeedSequence's hash runs once over all indices in wrapping uint32 array
    arithmetic.  Its multipliers depend only on how many words were hashed,
    so indices are grouped by their word count (one below 2**32, two up to
    2**64).  The master seed's words are padded to the pool size, as
    SeedSequence does whenever a spawn key is given.
    """
    run = _uint32_words(operator.index(master_seed))
    run += [0] * (_POOL_SIZE - len(run))
    indices = np.asarray(indices, dtype=np.uint64)
    out = np.empty((indices.size, 4), dtype=np.uint64)
    wide = indices > _MASK32
    for group, n_words in ((~wide, 1), (wide, 2)):
        if not group.any():
            continue
        keys = indices[group]
        entropy = [np.full(1, word, dtype=np.uint32) for word in run] + [
            (keys >> np.uint64(32 * j) & np.uint64(_MASK32)).astype(np.uint32)
            for j in range(n_words)
        ]
        hashmix = _HashMix(_INIT_A, _MULT_A)
        pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    pool[dst] = _mix(pool[dst], hashmix(pool[src]))
        for word in entropy[_POOL_SIZE:]:
            for dst in range(_POOL_SIZE):
                pool[dst] = _mix(pool[dst], hashmix(word))
        hashout = _HashMix(_INIT_B, _MULT_B)
        state = [hashout(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
        out[group] = np.stack(
            [state[2 * j] | state[2 * j + 1] << np.uint64(32) for j in range(4)], axis=1
        )
    return out


class _PresetWords(ISeedSequence):
    """Seed source that hands PCG64 one row of :func:`seed_words`."""

    __slots__ = ("words", "row")

    def __init__(self, words: np.ndarray, row: int):
        self.words = words
        self.row = row

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != self.words.shape[1] or dtype != np.uint64:
            raise ValueError("preset seed words hold generate_state(4, np.uint64) only")
        return self.words[self.row]


def episode_generators(master_seed: int, lo: int, hi: int) -> list[np.random.Generator]:
    """The generators :func:`modeswitch.simulate.episode_rng` returns for
    indices [lo, hi), in the same states, without a SeedSequence per episode."""
    words = seed_words(master_seed, np.arange(lo, hi, dtype=np.uint64))
    return [np.random.Generator(np.random.PCG64(_PresetWords(words, i))) for i in range(hi - lo)]
