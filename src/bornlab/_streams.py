"""Deterministic RNG substreams derived from a single root seed.

Every stochastic quantity in the toolkit (measurement order, power
fluctuation, photocounts, monitor counts, mask displacements) draws from
its own substream, keyed by the root seed, a purpose tag, and the
repetition / combination indices it belongs to.  Results are therefore
independent of execution order and of how work is split across threads.

:func:`substream` builds one ``Generator`` from
``numpy.random.SeedSequence([seed, *path])``.  Three entry points give
the first draw of that stream for every row of broadcast path arrays, as
arrays and bit for bit, without a ``Generator`` for most rows:

* :func:`first_poisson` gives ``poisson(lam)``;
* :func:`first_normal` gives ``standard_normal()``;
* :func:`first_permutation` gives ``permutation(n)``.

They hash all rows at once with a vectorized copy of ``SeedSequence``'s
entropy mix and ``generate_state(4, uint64)``, which reproduces numpy's
words bit for bit, then compute ``PCG64``'s seeding and first raw
outputs (integer only).  On those outputs they run numpy's samplers
where the arrays can decide them: the whole PTRS Poisson loop, round by
round on prefetched outputs; the first layer test of the ziggurat; and
``Generator.shuffle``'s Fisher-Yates with masked rejection.  Every other
row seeds a ``PCG64`` from its words and draws through numpy's own
sampler, with numpy's errors.

Besides integer operations, the fast branches use only
``+ - * / sqrt floor``; the ziggurat's is a single multiply.  Those are
correctly rounded both in numpy's array operations and in its C
samplers, as long as that C does not fuse a multiply into an add;
x86-64 wheels are built for ``X86_V2``, which has no FMA, and a single
multiply cannot be fused.  PTRS's log test also takes logs, which
numpy's array ``log`` need not round as the sampler's libm does: a row
is decided there only when the test's two sides differ by more than a
margin of a few ulps of their terms, and numpy draws the rows inside
it.  numpy's ziggurat tables are not importable: :func:`_ziggurat` reads
them from numpy's own sampler once per process, on first use.
"""

from __future__ import annotations

import functools

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
_PCG_MULT = int(_PCG_MULT_HI) << 64 | int(_PCG_MULT_LO)

# numpy's ziggurat splits a raw output r into the layer r & 0xff, the
# sign bit 8 and the magnitude (r >> 9) & _RABS_MASK
_RABS_MASK = 2**52 - 1

#: (U, V) rounds of numpy's PTRS Poisson loop that first_poisson takes,
#: from prefetched raw outputs, for a row its first round does not accept
_POISSON_ROUNDS = 4

#: Ulps of the summed term magnitudes by which the two sides of PTRS's
#: log test must differ for first_poisson to decide a row on arrays
_LOG_ULPS = 64

# random_loggam's series coefficients, highest order last (distributions.c)
_LOGGAM_A = (8.333333333333333e-02, -2.777777777777778e-03, 7.936507936507937e-04,
             -5.952380952380952e-04, 8.417508417508418e-04, -1.917526917526918e-03,
             6.410256410256410e-03, -2.955065359477124e-02, 1.796443723688307e-01,
             -1.39243221690590e+00)
_LG2PI = 1.8378770664093453    # log(2 pi), as random_loggam rounds it

#: Raw outputs prefetched per row by first_permutation: 16 halves, where
#: permutation(8) needs 8.4 on average
_PERMUTATION_RAW = 8


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator for the substream identified by ``(seed, *path)``.

    ``path`` elements must be non-negative integers (tag, repetition,
    combination index, ...).
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0 (got {seed})")
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, path)]))


def first_poisson(seed: int, lam, *path) -> np.ndarray:
    """``substream(seed, *row).poisson(lam_row)`` for every row, bit for bit.

    ``path`` elements are integers or integer arrays in ``[0, 2**32)``
    that broadcast against each other and against ``lam``; rows follow
    the C order of the broadcast shape.  Returns int64 draws in that
    shape.  For ``10 <= lam <= 2**52`` it runs numpy's PTRS loop
    (``random_poisson_ptrs``) on arrays, one ``(U, V)`` round at a time:
    :func:`_ptrs_round` accepts a row's candidate, sends the row to the
    next round, or leaves it undecided.  A row that the first round does
    not accept takes its further rounds from ``2 * _POISSON_ROUNDS``
    prefetched raw outputs.  Undecided rows, rows that use up those
    rounds, ``lam < 10`` and invalid ``lam`` call numpy's sampler, with
    numpy's errors.
    """
    lam, *path = np.broadcast_arrays(np.asarray(lam, dtype=float), *map(np.asarray, path))
    shape, lam = lam.shape, lam.ravel()
    words = _path_words(seed, path)
    draws = np.zeros(lam.size, dtype=np.int64)
    ptrs = (lam >= 10) & (lam <= 2.0**52)
    slow = [np.flatnonzero(~ptrs & (lam != 0))]
    rows = np.flatnonzero(ptrs)
    raw = _pcg64_raw(words[rows], 2)
    for r in range(_POISSON_ROUNDS):
        if r == 1:    # the rows the first round left: prefetch all their rounds
            raw = _pcg64_raw(words[rows], 2 * _POISSON_ROUNDS)
        k, accept, reject = _ptrs_round(lam[rows], raw[:, 2 * r], raw[:, 2 * r + 1])
        draws[rows[accept]] = k[accept]
        slow.append(rows[~accept & ~reject])
        rows, raw = rows[reject], raw[reject]
    slow = np.sort(np.concatenate([*slow, rows]))
    draws[slow] = [_generator(w).poisson(m) for w, m in zip(words[slow], lam[slow].tolist())]
    return draws.reshape(shape)


def _ptrs_round(lam: np.ndarray, raw_u: np.ndarray, raw_v: np.ndarray):
    """One round of ``random_poisson_ptrs`` on arrays, with numpy's
    constants and operation order: the candidate ``k`` (float), and
    whether numpy returns it or takes a next round.  Rows with neither
    are left to numpy.

    The fast test and the ``continue`` rule use only ``+ - * / sqrt
    floor``; :func:`_log_test` decides the other rows or leaves them
    undecided.  A candidate at ``2**53`` or above is left to numpy, as
    the sampler's cast of it to an integer is not exact.
    """
    # next_double, as numpy's PCG64 gives it
    U = (raw_u >> 11) * (1.0 / 9007199254740992.0) - 0.5
    V = (raw_v >> 11) * (1.0 / 9007199254740992.0)
    us = 0.5 - np.abs(U)
    with np.errstate(all="ignore"):
        b = 0.931 + 2.53 * np.sqrt(lam)
        a = -0.059 + 0.02483 * b
        vr = 0.9277 - 3.6224 / (b - 2)
        k = np.floor((2 * a / us + b) * U + lam + 0.43)
    accept = (us >= 0.07) & (V <= vr)
    reject = ~accept & ((k < 0) | ((us < 0.013) & (V > us)))
    test = np.flatnonzero(~accept & ~reject & (k < 2.0**53))
    side, margin = _log_test(lam[test], a[test], b[test], us[test], V[test], k[test])
    accept[test] = side > margin
    reject[test] = side < -margin
    return k, accept, reject


def _log_test(lam, a, b, us, V, k) -> tuple[np.ndarray, np.ndarray]:
    """PTRS's log test as ``side > 0`` (return ``k``) or ``side < 0``
    (next round), and the margin by which ``side`` must pass 0 to decide.

    ``side`` is ``(-lam + k*log(lam) - loggam(k+1)) - (log(V) +
    log(1.1239 + 1.1328/(b - 3.4)) - log(a/(us*us) + b))``.  numpy's
    array ``log`` need not round as the sampler's libm ``log`` does, so
    the margin is ``_LOG_ULPS`` ulps of the summed magnitudes of the
    terms, which bounds a few ulps of difference in each log and the
    roundings that carry them to either side.
    """
    with np.errstate(divide="ignore", invalid="ignore"):    # log(V = 0) is -inf
        lhs = (np.log(V), np.log(1.1239 + 1.1328 / (b - 3.4)), np.log(a / (us * us) + b))
        gam, gam_size = _loggam(k + 1)
        k_log = k * np.log(lam)
        side = (-lam + k_log - gam) - (lhs[0] + lhs[1] - lhs[2])
        margin = _LOG_ULPS * 2.0**-52 * (np.abs(lhs[0]) + np.abs(lhs[1]) + np.abs(lhs[2])
                                         + lam + np.abs(k_log) + gam_size)
    return side, margin


def _loggam(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``random_loggam(x)`` (distributions.c) for whole numbers ``x >= 1``,
    with numpy's coefficients and operation order, and the summed
    magnitudes of its terms."""
    n = np.where(x < 7.0, 7.0 - x, 0.0)
    x0 = x + n
    x2 = (1.0 / x0) * (1.0 / x0)
    gl0 = np.full_like(x0, _LOGGAM_A[9])
    for coef in _LOGGAM_A[8::-1]:
        gl0 = gl0 * x2 + coef
    terms = (gl0 / x0, 0.5 * _LG2PI, (x0 - 0.5) * np.log(x0))
    gl = terms[0] + terms[1] + terms[2] - x0
    size = np.abs(terms[0]) + terms[1] + np.abs(terms[2]) + x0
    for j in range(1, 7):    # gl -= log(x0 - 1); x0 -= 1, n times
        low = np.log(x0 - j)
        np.subtract(gl, low, out=gl, where=n >= j)
        np.add(size, low, out=size, where=n >= j)
    return np.where((x == 1.0) | (x == 2.0), 0.0, gl), size


def first_normal(seed: int, *path) -> np.ndarray:
    """``substream(seed, *row).standard_normal()`` for every row, bit for bit.

    ``path`` as for :func:`first_poisson`; returns float64 draws in the
    broadcast shape.  Rows that the first test of numpy's ziggurat does
    not accept (layers 0 and 1, and about 1% of the others) call numpy's
    sampler.
    """
    shape = np.broadcast_shapes(*map(np.shape, path))
    words = _path_words(seed, path)
    # random_standard_normal (distributions.c) on the first raw output
    r = _pcg64_raw(words, 1)[:, 0]
    wi, ki = _ziggurat()
    layer = (r & 0xFF).astype(np.intp)
    rabs = (r >> 9) & _RABS_MASK
    draws = rabs.astype(float) * wi[layer]
    np.negative(draws, out=draws, where=(r & 0x100) != 0)
    slow = np.flatnonzero(rabs >= ki[layer])
    draws[slow] = [_generator(w).standard_normal() for w in words[slow]]
    return draws.reshape(shape)


def first_permutation(seed: int, n: int, *path) -> np.ndarray:
    """``substream(seed, *row).permutation(n)`` for every row, bit for bit.

    ``path`` as for :func:`first_poisson`; returns int64 permutations of
    ``range(n)`` in the broadcast shape plus ``(n,)``.  ``permutation(n)``
    shuffles ``arange(n)`` by Fisher-Yates: from the last position ``i``
    down to 1, it swaps position ``i`` with ``random_interval(i)``, which
    masks 32-bit halves of the raw outputs (low half first) to the bit
    length of ``i`` until one is at most ``i``.  Rows that need more
    halves than the ``_PERMUTATION_RAW`` prefetched outputs hold call
    numpy.
    """
    shape = np.broadcast_shapes(*map(np.shape, path))
    words = _path_words(seed, path)
    raw = _pcg64_raw(words, _PERMUTATION_RAW)
    halves = np.stack([raw & _MASK32, raw >> 32], axis=2)
    halves = halves.reshape(len(raw), 2 * _PERMUTATION_RAW)
    rows = np.arange(len(words))
    perm = np.tile(np.arange(n), (len(rows), 1))
    used = np.zeros(len(rows), dtype=np.intp)
    spent = np.zeros(len(rows), dtype=bool)
    j = np.zeros(len(rows), dtype=np.intp)
    for i in range(n - 1, 0, -1):
        mask = (1 << i.bit_length()) - 1
        todo = rows[~spent]
        while todo.size:
            out = used[todo] == halves.shape[1]
            spent[todo[out]] = True
            todo = todo[~out]
            j[todo] = halves[todo, used[todo]] & mask
            used[todo] += 1
            todo = todo[j[todo] > i]
        np.minimum(j, i, out=j)  # a spent row's last draw may lie past the end
        perm[rows, i], perm[rows, j] = perm[rows, j], perm[rows, i]
    for i in np.flatnonzero(spent):
        perm[i] = _generator(words[i]).permutation(n)
    return perm.reshape(*shape, n)


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


@functools.cache
def _ziggurat() -> tuple[np.ndarray, np.ndarray]:
    """numpy's ziggurat ``wi_double`` and, per layer, a lower bound on its
    ``ki_double`` (0 sends every row of the layer to numpy).

    A ``PCG64`` state whose next step lands on ``r`` (high half 0) next
    outputs ``r`` itself, so numpy's ``standard_normal()`` gives the draw
    of any raw output: ``wi[i]`` is the draw with ``rabs = 1``.  For
    layers ``i >= 2``, ``ki[i]`` is ``est = floor(wi[i-1] / wi[i] * 2**52)``
    or ``est + 1``.  A bound ``k`` holds when the draw at ``rabs = k - 1``
    uses no second raw output, which means numpy accepted it at once; the
    first of ``est + 1`` and ``est`` that holds is kept.
    """
    inc = 1
    bits = np.random.PCG64(0)
    gen = np.random.Generator(bits)
    mult_inv = pow(_PCG_MULT, -1, 2**128)

    def draw(r: int) -> tuple[float, bool]:
        bits.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                      "state": {"state": (r - inc) * mult_inv % 2**128, "inc": inc}}
        x = gen.standard_normal()
        return x, bits.state["state"]["state"] == r

    wi = np.array([draw(1 << 9 | i)[0] for i in range(256)])
    ki = np.zeros(256, dtype=np.uint64)
    for i in range(2, 256):
        est = min(int(wi[i - 1] / wi[i] * 2.0**52), 2**52 - 1)
        ki[i] = next((k for k in (est + 1, est) if draw((k - 1) << 9 | i)[1]), 0)
    wi.setflags(write=False)
    ki.setflags(write=False)
    return wi, ki


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
