"""Deterministic RNG substreams derived from a single root seed.

Every stochastic quantity in the toolkit (measurement order, power
fluctuation, photocounts, monitor counts, mask displacements) draws from
its own substream, keyed by the root seed, a purpose tag, and the
repetition / combination indices it belongs to.  Results are therefore
independent of execution order and of how work is split across threads.

Three entry points give the same streams:

* :func:`substream` builds one ``Generator`` from
  ``numpy.random.SeedSequence([seed, *path])``;
* :func:`substreams` yields one ``Generator`` per row of broadcast path
  arrays.  It hashes all rows at once with a vectorized copy of
  ``SeedSequence``'s entropy mix and ``generate_state(4, uint64)``,
  which reproduces numpy's words bit for bit, and seeds each ``PCG64``
  from its words as the generators are drawn: a few us per stream
  instead of about 20 us, plus a few hundred us per call;
* :func:`first_poisson` gives the first ``poisson(lam)`` draw of every
  row as an array, without a ``Generator`` for most rows.  It extends
  the copy by ``PCG64``'s seeding and first outputs (integer only) and
  by the fast-accept branch of numpy's PTRS sampler, which uses only
  ``+ - * / sqrt floor``.  Those are correctly rounded both in numpy's
  array operations and in its C sampler, as long as that C is not built
  with fused multiply-adds; x86-64 wheels are built for ``X86_V2``,
  which has no FMA.  Every other draw is numpy's own.
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

# numpy's PCG64 (pcg64.h): the 128-bit LCG multiplier, in 64-bit halves
_PCG_MULT_HI = np.uint64(0x2360ED051FC65DA4)
_PCG_MULT_LO = np.uint64(0x4385DF649FCCF645)


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
    return map(_generator, _path_words(seed, path))


def first_poisson(seed: int, lam, *path) -> np.ndarray:
    """``substream(seed, *row).poisson(lam_row)`` for every row, bit for bit.

    ``lam`` broadcasts against the ``path`` arrays of :func:`substreams`;
    returns int64 draws in the broadcast shape.  Rows that the squeeze
    test of PTRS does not accept at once (``lam < 10``, the log-gamma
    test, invalid ``lam``) call numpy's sampler, with numpy's errors.
    """
    lam, *path = np.broadcast_arrays(np.asarray(lam, dtype=float), *map(np.asarray, path))
    shape, lam = lam.shape, lam.ravel()
    words = _path_words(seed, path)
    # next_double, then the first (U, V) pair of random_poisson_ptrs,
    # with numpy's constants and operation order
    U, V = (_pcg64_raw(words, 2) >> 11).T * (1.0 / 9007199254740992.0)
    U -= 0.5
    us = 0.5 - np.abs(U)
    with np.errstate(all="ignore"):
        b = 0.931 + 2.53 * np.sqrt(lam)
        a = -0.059 + 0.02483 * b
        vr = 0.9277 - 3.6224 / (b - 2)
        k = np.floor((2 * a / us + b) * U + lam + 0.43)
    fast = (lam >= 10) & (lam <= 2.0**52) & (us >= 0.07) & (V <= vr)
    draws = np.where(fast, k, 0.0).astype(np.int64)
    slow = np.flatnonzero(~fast & (lam != 0))
    draws[slow] = [_generator(w).poisson(m) for w, m in zip(words[slow], lam[slow].tolist())]
    return draws.reshape(shape)


def _path_words(seed: int, path) -> np.ndarray:
    """Checked (n, 4) uint64 ``PCG64`` words of each broadcast ``path`` row."""
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
    return _pcg64_seed_words(_int_words(int(seed)), cols, n)


def _generator(words: np.ndarray) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_SeedWords(words)))


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


def _pcg64_raw(words: np.ndarray, k: int) -> np.ndarray:
    """(n, k) first ``random_raw()`` outputs of ``PCG64`` seeded with each
    row of ``words``.  As numpy's ``pcg64_set_seed`` on (hi, lo) uint64
    pairs: ``inc = (w2:w3 << 1) | 1``, ``state = inc + w0:w1``, one step;
    each output is one step, then XSL-RR."""
    w0, w1, w2, w3 = words.T
    inc_hi, inc_lo = (w2 << 1) | (w3 >> 63), (w3 << 1) | 1
    lo = inc_lo + w1
    hi = inc_hi + w0 + (lo < w1)
    out = np.empty((len(words), k), dtype=np.uint64)
    for j in range(-1, k):
        # state = state * multiplier + inc (mod 2**128)
        hi, lo = hi * _PCG_MULT_LO + lo * _PCG_MULT_HI + _mulhi64(lo), lo * _PCG_MULT_LO
        lo += inc_lo
        hi += inc_hi + (lo < inc_lo)
        if j >= 0:
            x, rot = hi ^ lo, hi >> 58
            out[:, j] = (x >> rot) | (x << ((64 - rot) & 63))
    return out


def _mulhi64(a: np.ndarray) -> np.ndarray:
    """High halves of the 128-bit products ``a * _PCG_MULT_LO``."""
    a_hi, a_lo = a >> 32, a & _MASK32
    b_hi, b_lo = divmod(int(_PCG_MULT_LO), 2**32)
    cross_a, cross_b = a_lo * b_hi, a_hi * b_lo
    mid = (a_lo * b_lo >> 32) + (cross_a & _MASK32) + (cross_b & _MASK32)
    return a_hi * b_hi + (cross_a >> 32) + (cross_b >> 32) + (mid >> 32)
