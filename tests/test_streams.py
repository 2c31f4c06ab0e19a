import re

import numpy as np
import pytest

from bornlab import _streams
from bornlab._streams import first_poisson, substream, substreams

EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 5)


def reference(seed, row):
    return np.random.default_rng(np.random.SeedSequence([seed, *row]))


def edge_paths(seed, width):
    """Path arrays of 7 rows of ``width`` values, with edge values; widths
    0-6 fall below, at and above the 4-word pool."""
    rng = np.random.default_rng(seed % 1000 + 17 * width)
    paths = rng.integers(0, 2**32, size=(width, 7), dtype=np.uint64)
    if width:
        paths[:, 0] = 0
        paths[:, 1] = 2**32 - 1
    rows = [tuple(int(v) for v in col) for col in paths.T] if width else [()]
    return paths, rows


def assert_same_stream(gen, seed, row):
    ref = reference(seed, row)
    assert gen.bit_generator.state == ref.bit_generator.state
    assert gen.poisson(3.5) == ref.poisson(3.5)
    assert gen.standard_normal() == ref.standard_normal()
    assert np.array_equal(gen.permutation(8), ref.permutation(8))


@pytest.mark.parametrize("seed", EDGE_SEEDS)
@pytest.mark.parametrize("width", [0, 1, 2, 3, 4, 6])
def test_matches_numpy_seed_sequence(seed, width):
    paths, rows = edge_paths(seed, width)
    gens = list(substreams(seed, *paths))
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


@pytest.mark.parametrize("seed", EDGE_SEEDS)
@pytest.mark.parametrize("width", range(7))
def test_pcg64_raw_matches_numpy(seed, width):
    paths, rows = edge_paths(seed, width)
    raw = _streams._pcg64_raw(_streams._path_words(seed, paths), 3)
    assert raw.dtype == np.uint64 and raw.shape == (len(rows), 3)
    for out, row in zip(raw, rows):
        assert np.array_equal(out, reference(seed, row).bit_generator.random_raw(3))


class CountingSeedWords(_streams._SeedWords):
    built = 0

    def __init__(self, words):
        super().__init__(words)
        CountingSeedWords.built += 1


def poisson_fallbacks(monkeypatch, seed, lam, *path):
    """``first_poisson``'s draws and the number of rows it handed to numpy."""
    monkeypatch.setattr(_streams, "_SeedWords", CountingSeedWords)
    CountingSeedWords.built = 0
    draws = first_poisson(seed, lam, *path)
    monkeypatch.undo()
    return draws, CountingSeedWords.built


def test_first_poisson_matches_numpy(monkeypatch):
    # 10^5 streams: numpy's branch points, log-uniform means over the PTRS
    # range, and a mean far above it
    rng = np.random.default_rng(11)
    lam = np.exp(rng.uniform(np.log(10.0), np.log(1e7), size=(12_800, 8)))
    lam[::4, :5] = [0.0, 1e-3, 9.999, 10.0, 10.001]
    lam[1::4, 0] = 1e12
    path = (3, np.arange(lam.shape[0])[:, None], np.arange(8))
    draws, fallbacks = poisson_fallbacks(monkeypatch, 2**32 + 3, lam, *path)
    assert draws.dtype == np.int64 and draws.shape == lam.shape
    expected = [g.poisson(m) for g, m in
                zip(substreams(2**32 + 3, *path), lam.ravel().tolist())]
    assert np.array_equal(draws.ravel(), expected)
    # the squeeze test decides most streams, numpy's sampler the others
    assert 0.1 * lam.size < fallbacks < 0.5 * lam.size


def test_first_poisson_matches_substream_rows():
    lam = np.array([[0.0, 3.0, 10.0, 1e4], [1e-3, 9.999, 10.001, 1e12]])
    draws = first_poisson(5, lam, 4, np.array([[0], [9]]), np.arange(4))
    for (rep, comb), value in np.ndenumerate(draws):
        assert value == substream(5, 4, 9 * rep, comb).poisson(lam[rep, comb])


@pytest.mark.parametrize(("lam", "fallbacks"), [(0.0, 0), (5.0, 64), (2.0**53, 64)])
def test_first_poisson_paths_by_mean(monkeypatch, lam, fallbacks):
    # lam = 0 is always 0; below 10 and above 2**52 numpy draws every stream
    draws, built = poisson_fallbacks(monkeypatch, 0, lam, 3, np.arange(64))
    assert built == fallbacks
    expected = [g.poisson(lam) for g in substreams(0, 3, np.arange(64))]
    assert np.array_equal(draws, expected)


@pytest.mark.parametrize("lam", [np.nan, -1.0, -1e-300, np.inf, 1e19])
def test_first_poisson_invalid_mean_raises_as_numpy(lam):
    with pytest.raises(ValueError) as numpy_error:
        np.random.default_rng(0).poisson(lam)
    means = np.array([20.0, lam, 30.0])
    with pytest.raises(ValueError, match=re.escape(str(numpy_error.value))):
        first_poisson(0, means, 3, np.arange(3))


def test_first_poisson_checks_the_path():
    with pytest.raises(ValueError, match="2\\*\\*32"):
        first_poisson(0, 20.0, 3, np.array([2**32]))
    with pytest.raises(ValueError, match="seed"):
        first_poisson(-1, 20.0, 3)
