"""The vectorized CSV encoder against ``%``: float cells against
``'%.17g' % v`` over raw 64-bit patterns and an edge list (with the cells
each fallback branch sends to ``%``), integer cells against ``'%d' % v``,
string cells against their UTF-8 bytes, and which blocks the writer
hands the encoder."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornlab import _csvtext, cli


def _float_texts(x):
    """Each cell's text from ``float_slots``, and which cells took ``%``."""
    chars, mask, fallback = _csvtext.float_slots(np.asarray(x, dtype=np.float64))
    return [bytes(row[keep]).decode()[:-1] for row, keep in zip(chars, mask)], fallback


def test_float_repr_style_is_short():
    # CPython's %.17g is correctly rounded only with its own dtoa
    assert sys.float_repr_style == "short"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_float_cells_match_percent_over_raw_bit_patterns(bits):
    x = np.array(bits, dtype=np.uint64).view(np.float64)
    texts, _fallback = _float_texts(x)
    assert texts == ["%.17g" % v for v in x.tolist()]


def _neighbours(v):
    return [np.nextafter(v, -math.inf), v, np.nextafter(v, math.inf)]


#: (value, takes the fallback) by branch; every other cell is decided by
#: the fast path, whose domain is 1e-280 <= |x| <= 1e280.
EDGE_FLOATS = {
    # the double 1e-280 is 9.9999999999999996e-281: log10 puts it a decade high
    "domain-low": list(zip(_neighbours(1e-280), (True, False, False))),
    "domain-high": list(zip(_neighbours(1e280), (False, False, True))),
    "out-of-domain": [(v, True) for v in (
        5e-324, -5e-324, 2.2250738585072014e-308,
        2.225073858507201e-308, 1e300, -1e300, 1.7976931348623157e308)],
    # exact ties of the 17th digit: dtoa rounds them half-even
    "tie": [(v, True) for v in (
        2.0**-25, -(2.0**-25), 2.0**50 + 0.25, 2.0**50 + 0.75, 2.0**49 + 0.125,
        np.nextafter(1e15, 0))],
    "non-finite": [(v, True) for v in (math.nan, math.inf, -math.inf)],
    "fast": [(v, False) for v in (
        0.0, -0.0, 0.1, -1 / 3, 1e-4, 9.9999999999999991e-5, 1e-5, 1e16, 1e17,
        9.9999999999999984e16, 123456789012345678.0, 1e100, 1e-100, 5e-5, -123.456,
        2.0**-24, 0.30000000000000004, 1.5, 1e22, 1e23,
        *(v for k in (-99, -5, -1, 0, 14, 16, 99, 100) for v in _neighbours(10.0**k)))],
}


@pytest.mark.parametrize("branch", sorted(EDGE_FLOATS))
def test_edge_floats_match_percent_and_take_their_branch(branch):
    values, expected = zip(*EDGE_FLOATS[branch])
    values = np.array(values, dtype=np.float64)
    for x in (values, -values):
        texts, fallback = _float_texts(x)
        assert texts == ["%.17g" % v for v in x.tolist()]
        assert fallback.tolist() == list(expected)


def test_powers_of_ten_and_their_neighbours_match_percent():
    exact = np.array([float(f"1e{k}") for k in range(-300, 301)])
    x = np.concatenate([exact, np.nextafter(exact, 0), np.nextafter(exact, math.inf),
                        2.0 ** np.arange(-1074, 1024), 5 * 2.0 ** np.arange(-1000, 1000)])
    texts, _fallback = _float_texts(np.concatenate([x, -x]))
    assert texts == ["%.17g" % v for v in np.concatenate([x, -x]).tolist()]


#: (dtype, cells) of integer and flag columns
EDGE_INTS = {
    "int64": (np.int64, [-(2**63), 2**63 - 1, 0, -1, 7, 10**17, -(10**17), 9999, 10000]),
    "uint64": (np.uint64, [12345678901234567890, 2**64 - 1, 0, 1, 10**19, 99999]),
    "int8": (np.int8, [-128, 127, 0, -5]),
    "uint32": (np.uint32, [2**32 - 1, 0, 10]),
    "bool": (bool, [True, False, True]),
}


@pytest.mark.parametrize("case", sorted(EDGE_INTS))
def test_integer_cells_match_percent(case):
    dtype, cells = EDGE_INTS[case]
    col = np.array(cells, dtype=dtype)
    text = _csvtext.block_bytes([col, col[::-1].copy()], [False, False]).decode()
    assert text == "".join(f"{a:d},{b:d}\n" for a, b in zip(col.tolist(), col[::-1].tolist()))


@pytest.mark.parametrize("cells", [
    ["plain", "100%d", "", "a\x00b", "%"],                  # ASCII, with U+0000 inside
    ["Åλ日本", "plain", "a\x00b", "", "🎉"],                # not ASCII
    ['quote " back\\slash\n{x}', ": nan,", "nan", "x"],
], ids=["ascii", "utf8", "quotes"])
def test_string_cells_are_their_utf8_bytes(cells):
    col = np.array(cells)
    flags = np.arange(len(cells)) % 2 == 0
    text = _csvtext.block_bytes([col, flags], [False, False]).decode()
    assert text == "".join(f"{s},{int(f)}\n" for s, f in zip(col.tolist(), flags.tolist()))


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.float16, np.int64, np.int8,
                                   np.uint64, np.uint32, bool, np.str_])
def test_csv_blocks_of_every_dtype_take_the_encoder(dtype, monkeypatch):
    # a "*_defined" name does not change the path; JSON never loads the encoder
    encoded = []
    block_bytes = _csvtext.block_bytes
    monkeypatch.setattr(_csvtext, "block_bytes",
                        lambda cols, constant: encoded.append(cols) or block_bytes(cols, constant))
    col = np.array([1, 0, 1, 1]).astype(dtype)
    header, cols = ("x", "x_defined"), [col, col[::-1].copy()]
    cli._block_text("csv", header, cols)
    assert len(encoded) == 1 and encoded[0] is cols
    cli._block_text("json", header, cols)
    assert len(encoded) == 1
