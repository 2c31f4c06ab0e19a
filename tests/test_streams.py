import numpy as np
import pytest

from bornlab import _streams
from bornlab._streams import substream, substreams

EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 5)


def reference(seed, row):
    return np.random.default_rng(np.random.SeedSequence([seed, *row]))


def assert_same_stream(gen, seed, row):
    ref = reference(seed, row)
    assert gen.bit_generator.state == ref.bit_generator.state
    assert gen.poisson(3.5) == ref.poisson(3.5)
    assert gen.standard_normal() == ref.standard_normal()
    assert np.array_equal(gen.permutation(8), ref.permutation(8))


@pytest.mark.parametrize("seed", EDGE_SEEDS)
@pytest.mark.parametrize("width", [0, 1, 2, 3, 4, 6])
def test_matches_numpy_seed_sequence(seed, width):
    # path widths below, at and above the 4-word pool, with edge values
    rng = np.random.default_rng(seed % 1000 + 17 * width)
    paths = rng.integers(0, 2**32, size=(width, 7), dtype=np.uint64)
    if width:
        paths[:, 0] = 0
        paths[:, 1] = 2**32 - 1
    gens = list(substreams(seed, *paths))
    rows = [tuple(int(v) for v in col) for col in paths.T] if width else [()]
    assert len(gens) == len(rows)
    for gen, row in zip(gens, rows):
        assert_same_stream(gen, seed, row)


def test_broadcast_rows_follow_c_order():
    reps, combs = np.arange(3)[:, None], np.arange(8)
    gens = list(substreams(7, 3, reps, combs))
    assert len(gens) == 24
    for i, gen in enumerate(gens):
        expected = substream(7, 3, i // 8, i % 8)
        assert gen.bit_generator.state == expected.bit_generator.state


def test_generators_are_built_lazily():
    streams = substreams(0, 3, np.arange(10**4))
    assert iter(streams) is streams
    first = next(streams)
    assert first.bit_generator.state == substream(0, 3, 0).bit_generator.state


def test_empty_path_gives_no_streams():
    assert list(substreams(0, 1, np.arange(0))) == []


@pytest.mark.parametrize("bad", [2**32, np.array([1, 2**32]), -1, np.array([0, -3]),
                                 1.5, np.array([0.0])])
def test_path_values_outside_uint32_raise(bad):
    with pytest.raises(ValueError, match="2\\*\\*32"):
        substreams(0, 1, bad)


def test_negative_seed_raises():
    with pytest.raises(ValueError, match="seed"):
        substreams(-1, 1, np.arange(3))


def test_seed_words_refuse_other_requests():
    words = _streams._SeedWords(np.zeros(4, dtype=np.uint64))
    with pytest.raises(ValueError):
        words.generate_state(4, np.uint32)
    with pytest.raises(ValueError):
        words.generate_state(8, np.uint64)
    assert words.generate_state(4, "u8") is words._words
