"""Deterministic RNG substreams derived from a single root seed.

Every stochastic quantity in the toolkit (measurement order, power
fluctuation, photocounts, monitor counts, mask displacements) draws from
its own substream, keyed by the root seed, a purpose tag, and the
repetition / combination indices it belongs to.  Results are therefore
independent of execution order and of how work is split across threads.

Two entry points give the same streams:

* :func:`substream` builds one ``Generator`` from
  ``numpy.random.SeedSequence([seed, *path])``;
* :func:`substreams` yields one ``Generator`` per row of broadcast path
  arrays.  It hashes all rows at once with a vectorized copy of
  ``SeedSequence``'s entropy mix and ``generate_state(4, uint64)``,
  which reproduces numpy's words bit for bit (about 200 bytes of
  temporaries per row), and seeds each ``PCG64`` from its precomputed
  words as the generators are drawn.  Stream ``i`` is identical to
  ``substream(seed, *row_i)``; only the setup cost differs (a few us per
  stream instead of about 20 us, plus a fixed cost of a few hundred us
  per call, so it pays off from a few dozen streams on).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# Purpose tags. Stable values: changing them changes every seeded result.
TAG_ORDER = 1
TAG_POWER = 2
TAG_COUNTS = 3
TAG_MONITOR = 4
TAG_DISPLACEMENT = 5
TAG_HIERARCHY = 6

# numpy.random.SeedSequence hash constants (bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator for the substream identified by ``(seed, *path)``.

    ``path`` elements must be non-negative integers (tag, repetition,
    combination index, ...).
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0 (got {seed})")
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, path)]))


def substreams(seed: int, *path) -> Iterator[np.random.Generator]:
    """Generators for ``substream(seed, *row)``, one per row of ``path``.

    ``path`` elements are integers or integer arrays in ``[0, 2**32)``;
    they broadcast against each other, and rows follow the C order of
    the broadcast shape.  Generators are built lazily, one per ``next``.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0 (got {seed})")
    cols = [np.asarray(p) for p in path]
    for col in cols:
        if col.dtype.kind not in "iu" or (
            col.size and (col.min() < 0 or col.max() > _MASK32)
        ):
            raise ValueError("substream path values must be integers in [0, 2**32)")
    cols = [c.astype(np.uint32).ravel() for c in np.broadcast_arrays(*cols)]
    n = cols[0].size if cols else 1
    return _generators(_pcg64_seed_words(_int_words(int(seed)), cols, n))


def _generators(words: np.ndarray) -> Iterator[np.random.Generator]:
    for row in words:
        yield np.random.Generator(np.random.PCG64(_SeedWords(row)))


class _SeedWords(ISeedSequence):
    """Seed sequence that hands ``PCG64`` its precomputed state words."""

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
            raise ValueError("precomputed seed words only serve (4, uint64)")
        return self._words


def _int_words(n: int) -> list[int]:
    """32-bit words of ``n``, least significant first, as numpy splits it."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _pcg64_seed_words(seed_words: list[int], cols: list[np.ndarray], n: int) -> np.ndarray:
    """``SeedSequence([*seed_words, *row]).generate_state(4, uint64)`` per row.

    ``cols`` holds one uint32 array of ``n`` rows per path position;
    returns a C-ordered (n, 4) uint64 array.
    """
    entropy = [np.full(n, w, dtype=np.uint32) for w in seed_words] + cols
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> _XSHIFT)

    zeros = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zeros) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for extra in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(extra))

    # generate_state(4, uint64): eight uint32 words cycling over the pool,
    # paired little-endian into four uint64 words
    hash_const = _INIT_B
    state = []
    for i_dst in range(8):
        value = pool[i_dst % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        state.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    return np.stack(
        [lo | (hi << np.uint64(32)) for lo, hi in zip(state[0::2], state[1::2])], axis=1
    )
