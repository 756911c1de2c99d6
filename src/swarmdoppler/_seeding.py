"""numpy's SeedSequence spawn chain for a range of realizations at once.

Realization ``k`` of an ensemble draws from PCG64 seeded by
``SeedSequence(master_seed, spawn_key=(k,))``.  Building one SeedSequence
per realization costs about 20 microseconds of interpreter work, which holds the lock
the other pool threads need.  :func:`generators` computes the words PCG64
takes from it, ``generate_state(4, uint64)``, for every ``k`` of a range in
one pass of uint32 array operations.  numpy keeps SeedSequence's output
stable across versions (NEP 19), and the tests hold these generators to
numpy's own chain.  The simulator imports this module when it first draws a
block, so importing the package does not import ``numpy.random``.
"""
from __future__ import annotations

import functools

import numpy as np

# SeedSequence's hash constants
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hash_constants(init: int, mult: int, count: int) -> list:
    """``init * mult**i`` mod 2**32 for ``i < count``: a SeedSequence's
    running hash constant, which does not depend on the words it hashes."""
    return [init * pow(mult, i, 1 << 32) & _MASK32 for i in range(count)]


# the entropy mix's constants: hash i xors with _HASH_A[i] and multiplies by
# _HASH_A[i + 1].  Hashes 0-15 take the seed's four pool words, 16-19 and
# 20-23 a spawn key's low and high 32 bits
_HASH_A = np.array(_hash_constants(_INIT_A, _MULT_A, 25), dtype=np.uint32)
# the output hash of generate_state(4, uint64): word i xors with _HASH_B[i]
# and multiplies by _HASH_B[i + 1]
_HASH_B = np.array(_hash_constants(_INIT_B, _MULT_B, 9), dtype=np.uint32)


def _hashmix(value: np.ndarray, i) -> np.ndarray:
    """SeedSequence's ``hashmix`` of the uint32 ``value`` as the entropy
    mix's ``i``-th hash (``i`` an int or an index array)."""
    value = (value ^ _HASH_A[i]) * _HASH_A[i + 1]
    return value ^ value >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's ``mix`` of uint32 arrays."""
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ result >> 16


@functools.lru_cache(maxsize=16)
def _seed_pool(master_seed: int) -> np.ndarray:
    """The pool of ``SeedSequence(master_seed, spawn_key=(k,))``, for a seed
    below 2**128, once its seed words are mixed and before its spawn key
    is: the same for every ``k``."""
    words = np.array([master_seed >> 32 * i & _MASK32 for i in range(4)], dtype=np.uint32)
    pool = _hashmix(words, np.arange(4))
    i = 4
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst:dst + 1] = _mix(pool[dst:dst + 1], _hashmix(pool[src:src + 1], i))
                i += 1
    pool.setflags(write=False)
    return pool


class _StateWords(np.random.bit_generator.ISeedSequence):
    """The ``generate_state(4, uint64)`` words of one SeedSequence, which is
    all PCG64 asks of its seed."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("only the PCG64 seed words, 4 uint64, are held")
        return self.words


def generators(master_seed: int, start: int, stop: int) -> list:
    """PCG64 generators of ``SeedSequence(master_seed, spawn_key=(k,))`` for
    ``k`` in ``[start, stop)``.

    The seed's share of the entropy mix comes from :func:`_seed_pool`; only
    the mix of the spawn key, one 32-bit word below 2**32 and two from
    there, and the output hash depend on ``k``.
    """
    keys = np.arange(start, stop, dtype=np.uint64)[:, None]
    pool = _mix(_seed_pool(master_seed),
                _hashmix((keys & _MASK32).astype(np.uint32), np.arange(16, 20)))
    if stop > 1 << 32:
        high = _mix(pool, _hashmix((keys >> 32).astype(np.uint32), np.arange(20, 24)))
        pool = np.where(keys >= 1 << 32, high, pool)
    state = pool[:, [0, 1, 2, 3, 0, 1, 2, 3]] ^ _HASH_B[:8]
    state *= _HASH_B[1:]
    state ^= state >> 16
    # numpy's little-endian reading of word pairs, whatever the host order
    words = np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64)
    # what default_rng builds from a seed sequence, without its dispatch
    return [np.random.Generator(np.random.PCG64(_StateWords(row))) for row in words]
