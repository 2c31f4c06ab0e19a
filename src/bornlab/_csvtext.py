"""CSV text of a block of numpy columns, byte for byte the text of
``'%.17g' % v`` for each float cell, ``'%d' % v`` for each integer or
flag cell and ``str`` for each string cell.

Floats: CPython formats ``%.17g`` through correctly rounded dtoa (the
condition ``sys.float_repr_style == 'short'`` marks), one cell at a time
and off its floating-point fast path, since 17 digits need more than
double precision.  Here each finite, nonzero ``x`` with ``1e-280 <= |x|
<= 1e280`` takes the same route on whole arrays: with ``e10 =
floor(log10|x|)``, the scaled value ``V = |x| * 10**(16 - e10)`` is
formed as a double-double, ``10**k`` being ``H + L`` (``H`` correctly
rounded, ``L`` the correctly rounded remainder) and ``|x| * H`` an exact
Dekker product (Veltkamp splits by ``2**27 + 1``, which the domain keeps
from overflowing), so that ``V``, below ``2**57``, is off by at most
about ``2**-47``.  Where ``V`` lies outside ``[10**16, 10**17)`` (``log10``
was off by one near a power of ten), ``e10`` moves by one and ``V`` is
formed again; the test is on ``V`` unrounded, since rounding
``9.99...96e16`` up to ``10**17`` would drop its last digit.  ``V``
rounds to the 17-digit integer of the digits, and a carry to ``10**17``
moves ``e10``.  A cell whose fraction of ``V`` lies within ``2**-30`` of
one half (an exact tie, which dtoa rounds half-even, or a value too close
to call), a cell outside the domain (subnormals included) and a
non-finite cell are written by ``'%.17g' %`` itself.  Zeros are ``0``
and ``-0``.  The digits are laid out by ``%g``'s rules: fixed notation
for ``-4 <= e10 < 17``, else ``d.ddde±XX``, trailing zeros and a bare
``.`` dropped, the sign from the sign bit.

Every cell is a row of slots, each a character its text can hold at a
fixed place, and a mask of the slots it does hold.  A float cell's row is
a constant row with its 17 digits written into two fields (the integer
part's and the fraction's) and its exponent's text; its mask depends
only on its sign, its exponent's layout and its count of significant
digits, so it is one row of a table.  An integer cell's row is taken
four bytes at a time from a table of units (each integer below 10**4 as
four digits, a sign, a ``,``), and its mask is one row of a table by its
sign and width.  A block is one byte matrix of its cells' rows, each
cell ending in its ``,`` (a row's last in ``\\n``), and its text the
masked bytes in row order."""

from __future__ import annotations

import functools
import itertools
import types

import numpy as np

#: The fast path's domain of ``|x|``: its Veltkamp splits cannot overflow.
_LOW, _HIGH = 1e-280, 1e280
#: ``e10`` of the domain, with one step of margin each way.
_E_MIN, _E_MAX = -282, 282
#: A scaled value this close to a half integer is left to ``%``.
_TIE = 2.0 ** -30
_SPLIT = 2.0 ** 27 + 1

#: The units after the 10**4 four-digit ones: an integer's sign and ",".
_MINUS, _COMMA = 10_000, 10_001

# the 46 slots of a float cell: sign, the "0" of fixed notation below 1,
# the digits of the integer part, ".", the zeros after "0.", the digits of
# the fraction (each digit field holds all 17 digits, masked to its part),
# "e+000", ","
_FLOAT_ROW = np.frombuffer(b"-0" + b"0" * 17 + b".000" + b"0" * 17 + b"e+000,", np.uint8)
_INT, _FRAC, _EXP = 2, 23, 40    # the slots of each field's first character
#: Exponent layouts of the float masks: ``e10`` of -4..16 (fixed
#: notation), then exponent notation with two and with three digits.
_LAYOUTS = 23


def _power(k: int) -> tuple[float, float, float, float]:
    """``10**k`` as ``H + L``: ``H``, its Veltkamp halves, and ``L``."""
    if k >= 0:
        exact_num, exact_den = 10 ** k, 1
    else:
        exact_num, exact_den = 1, 10 ** -k
    h = exact_num / exact_den        # int true division rounds correctly
    num, den = h.as_integer_ratio()
    c = h * _SPLIT
    hi = c - (c - h)
    return h, hi, h - hi, (exact_num * den - num * exact_den) / (exact_den * den)


def _float_masks():
    """The slot mask of each (sign, exponent layout, significant digits)."""
    sign, layout, digits = np.indices((2, _LAYOUTS, 17)).reshape(3, -1)
    fixed, e10 = layout < 21, layout - 4
    # digits before the ".": the integer part, one, or none (0.000ddd)
    lead = np.where(fixed, np.maximum(e10 + 1, 0), 1)
    kept = np.maximum(digits + 1, lead)
    place = np.arange(17)
    mask = np.zeros((sign.size, _FLOAT_ROW.size), bool)
    mask[:, 0] = sign
    mask[:, 1] = fixed & (e10 < 0)
    mask[:, _INT:_INT + 17] = place < lead[:, None]
    mask[:, _FRAC - 4] = kept > lead
    mask[:, _FRAC - 3:_FRAC] = fixed[:, None] & (np.arange(3) < -e10[:, None] - 1)
    mask[:, _FRAC:_FRAC + 17] = (place >= lead[:, None]) & (place < kept[:, None])
    mask[:, _EXP:_EXP + 5] = ~fixed[:, None] & [True, True, False, True, True]
    mask[:, _EXP + 2] = layout == 22
    mask[:, -1] = True
    return mask


@functools.cache
def _tables():
    """Tables built at first use: ``powers``, the rows ``H``, its two
    halves and ``L`` of ``10**(16 - e10)`` for ``e10`` in ``_E_MIN..
    _E_MAX``; the ``units``; the ``float_masks`` and each ``e10``'s base
    index into them; the ``exps`` text of each ``e10``; the ``trailing``
    zeros of each four-digit unit; and ``10**1 .. 10**19`` in uint64."""
    e10 = np.arange(_E_MIN, _E_MAX + 1)
    quad = np.arange(10_000)
    text = ((quad[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8).tobytes()
            + b"   -   ,")
    layout = np.where((e10 >= -4) & (e10 < 17), e10 + 4, np.where(np.abs(e10) < 100, 21, 22))
    return types.SimpleNamespace(
        powers=np.array([_power(16 - e) for e in e10.tolist()]).T.copy(),
        units=np.frombuffer(text, np.uint32),
        float_masks=_float_masks(),
        mask_base=layout * 17 - 1,
        exps=np.frombuffer(b"".join(b"e%+04d" % e for e in e10.tolist()),
                           np.uint8).reshape(-1, 5),
        trailing=sum(quad % 10 ** j == 0 for j in (1, 2, 3)) + (quad == 0),
        tens=np.array([10 ** j for j in range(1, 20)], np.uint64))


def _scaled(a, e10, powers):
    """``a * 10**(16 - e10)`` as ``p + t``: ``p = a * H`` rounded, ``t``
    its exact error (Dekker) plus ``a * L``."""
    h, hh, hl, low = (row.take(e10 - _E_MIN) for row in powers)
    p = a * h
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    err = ((ah * hh - p) + ah * hl + al * hh) + al * hl
    return p, err + a * low


def _float_digits(x):
    """The 17 significant digits of each cell of ``x`` (float64) that the
    fast path decides, as an int64 ``N`` in ``[10**16, 10**17)`` (0 for a
    zero) and its exponent ``e10``, and which cells it leaves to ``%``."""
    powers = _tables().powers
    a = np.abs(x)
    fast = (a >= _LOW) & (a <= _HIGH)
    a = np.where(fast, a, 1.0)
    e10 = np.floor(np.log10(a)).astype(np.int64)
    p, t = _scaled(a, e10, powers)
    # log10 may be off by one next to a power of ten: test V unrounded
    low, high = (p - 1e16) + t < 0, (p - 1e17) + t >= 0
    redo = low | high
    if redo.any():
        e10 += high
        e10 -= low
        p[redo], t[redo] = _scaled(a[redo], e10[redo], powers)
    whole = np.floor(p)
    r = (p - whole) + t
    carry = np.floor(r)
    frac = r - carry
    n = whole.astype(np.int64) + carry.astype(np.int64) + (frac > 0.5)
    top = n == 10 ** 17
    n[top] = 10 ** 16
    e10 += top
    zero = x == 0
    n[zero] = 0
    e10[zero] = 0
    return n, e10, ~(fast | zero) | (fast & (np.abs(frac - 0.5) < _TIE))


def _digit_words(n, words, columns, units):
    """Write each four-digit group of ``n``, least significant first, as
    its four ASCII digits into ``words[:, columns]`` (the last column
    takes what is left), and return the least significant group."""
    groups = []
    for _ in columns[1:]:
        q = n // 10_000
        groups.append(n - q * 10_000)
        n = q
    for column, group in zip(columns, groups + [n]):
        words[:, column] = units.take(group)
    return (groups or [n])[0]


def float_slots(x):
    """The slot rows of the float64 cells ``x``: (m, 46) uint8 characters
    and bool mask, each row ending in ``,``, and which cells ``'%.17g' %``
    wrote."""
    tables = _tables()
    n, e10, fallback = _float_digits(x)
    words = np.empty((x.size, 5), np.uint32)
    last = _digit_words(n, words, [4, 3, 2, 1, 0], tables.units)
    digits = words.view(np.uint8)[:, 3:]
    # significant digits: 17 less the trailing zeros (a zero keeps one)
    count = 17 - tables.trailing.take(last)
    ends = np.flatnonzero(last == 0)
    if ends.size:
        nonzero = digits[ends] != ord("0")
        nonzero[:, 0] = True
        count[ends] = 17 - np.argmax(nonzero[:, ::-1], axis=1)
    mask = tables.float_masks.take(
        np.signbit(x) * (_LAYOUTS * 17) + tables.mask_base.take(e10 - _E_MIN) + count, axis=0)
    chars = np.empty(mask.shape, np.uint8)
    chars[:] = _FLOAT_ROW
    chars[:, _INT:_INT + 17] = digits
    chars[:, _FRAC:_FRAC + 17] = digits
    chars[:, _EXP:_EXP + 5] = tables.exps.take(e10 - _E_MIN, axis=0)
    if fallback.any():
        texts = ["%.17g" % v for v in x[fallback].tolist()]
        width = max(map(len, texts))
        chars[fallback, :width] = np.array(texts, f"S{width}").view(np.uint8).reshape(-1, width)
        mask[fallback, :-1] = False
        mask[fallback, :width] = np.arange(width) < np.array(list(map(len, texts)))[:, None]
    return chars, mask, fallback


def _float_columns(cols):
    """Slot rows of the cells of float columns, row by row."""
    return float_slots(np.stack(cols, axis=1, dtype=np.float64).reshape(-1))[:2]


def _int_slots(cols):
    """Slot rows of the cells of integer or flag columns, row by row:
    sign, the four-digit groups the longest cell needs, ``,``."""
    tables = _tables()
    signed = np.array([col.dtype != np.uint64 for col in cols])
    x = np.stack([col.astype(np.int64) if s else col.view(np.int64)
                  for col, s in zip(cols, signed)], axis=1)
    neg = ((x < 0) & signed).reshape(-1)
    # np.abs wraps -(2**63) to itself, whose uint64 view is its magnitude
    mag = np.where(signed, np.abs(x), x).view(np.uint64).reshape(-1)
    width = np.searchsorted(tables.tens, mag, side="right") + 1
    most = int(width.max())
    groups = -(-most // 4)
    words = np.empty((mag.size, groups + 2), np.uint32)
    words[:, 0], words[:, -1] = tables.units[[_MINUS, _COMMA]]
    _digit_words(mag, words, list(range(groups, 0, -1)), tables.units)
    # the mask of each (sign, width)
    masks = np.zeros((2, most + 1, 4 * groups + 8), bool)
    masks[1, :, 3] = masks[:, :, -1] = True
    masks[:, :, 4:-4] = np.arange(4 * groups, 0, -1) <= np.arange(most + 1)[:, None]
    return (words.view(np.uint8),
            masks.reshape(-1, masks.shape[-1]).take(neg * (most + 1) + width, axis=0))


def _str_slots(col):
    """Slot rows of string cells: their UTF-8 bytes, padded to the longest,
    then ``,``.  Each distinct string is encoded once and spread by index,
    and cells are cut by their lengths, so a U+0000 inside a string stays."""
    distinct, index = np.unique(col, return_inverse=True)
    texts = [s.encode() for s in distinct.tolist()]
    width = max(map(len, texts))
    table = np.frombuffer(b"".join(t.ljust(width) + b"," for t in texts),
                          np.uint8).reshape(len(texts), width + 1)
    mask = np.arange(width + 1) < np.array(list(map(len, texts)))[:, None]
    mask[:, -1] = True
    return table.take(index, axis=0), mask.take(index, axis=0)


def _constant_slots(col):
    """The slot row of a column whose cells are all the same, bit for
    bit: its first cell's text by ``%``, then ``,``."""
    value = col[:1].tolist()[0]
    kind = col.dtype.kind
    text = value if kind == "U" else ("%.17g" if kind == "f" else "%d") % value
    row = np.frombuffer(text.encode() + b",", np.uint8)
    return (np.broadcast_to(row, (col.size, row.size)),
            np.ones((col.size, row.size), bool))


def block_bytes(cols, constant) -> bytes:
    """The CSV text of one block of rows, from its numpy columns: float
    (up to 64-bit), integer, flag or string columns, each cell written as
    ``%`` writes it.  A column flagged in ``constant`` (its cells all the
    same, bit for bit) is written by ``%`` once; the other float columns
    are encoded together, and so are the other integer and flag columns."""
    n = len(cols[0])
    parts = [None] * len(cols)
    members = {_float_columns: [], _int_slots: []}
    for i, col in enumerate(cols):
        if constant[i]:
            parts[i] = _constant_slots(col)
        elif col.dtype.kind == "U":
            parts[i] = _str_slots(col)
        else:
            members[_float_columns if col.dtype.kind == "f" else _int_slots].append(i)
    for encode, index in members.items():
        if index:
            chars, mask = (part.reshape(n, -1) for part in encode([cols[i] for i in index]))
            width = chars.shape[1] // len(index)
            # one part for each run of adjacent columns
            for _, run in itertools.groupby(enumerate(index), lambda ji: ji[1] - ji[0]):
                run = list(run)
                cut = slice(run[0][0] * width, (run[-1][0] + 1) * width)
                parts[run[0][1]] = chars[:, cut], mask[:, cut]
    chars, mask = (np.concatenate(part, axis=1)
                   for part in zip(*(part for part in parts if part is not None)))
    chars[:, -1] = ord("\n")
    return chars[mask].tobytes()
