import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bornlab import _streams, experiment
from bornlab._streams import (
    TAG_ORDER,
    TAG_POWER,
    first_normal,
    first_permutation,
    first_poisson,
    substream,
)
from bornlab.config import build_objects, load_config
from oracles import substreams

EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 5)
ROOT = Path(__file__).resolve().parent.parent


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
    words = _streams._path_words(seed, paths)
    assert words.dtype == np.uint64 and words.shape == (len(rows), 4)
    for w, row in zip(words, rows):
        seq = np.random.SeedSequence([seed, *row])
        assert np.array_equal(w, seq.generate_state(4, np.uint64))
        assert_same_stream(_streams._generator(w), seed, row)


def test_broadcast_rows_follow_c_order():
    reps, combs = np.arange(3)[:, None], np.arange(8)
    words = _streams._path_words(7, (3, reps, combs))
    assert words.shape == (24, 4)
    for i, w in enumerate(words):
        seq = np.random.SeedSequence([7, 3, i // 8, i % 8])
        assert np.array_equal(w, seq.generate_state(4, np.uint64))
    draws = first_normal(7, 3, reps, combs)
    perms = first_permutation(7, 5, 3, reps, combs)
    assert draws.shape == (3, 8) and perms.shape == (3, 8, 5)
    for (rep, comb), value in np.ndenumerate(draws):
        assert value == substream(7, 3, rep, comb).standard_normal()
        assert np.array_equal(perms[rep, comb], substream(7, 3, rep, comb).permutation(5))


def test_empty_path_gives_no_draws():
    assert first_normal(0, 1, np.arange(0)).shape == (0,)
    assert first_permutation(0, 8, 1, np.arange(0)).shape == (0, 8)
    assert first_poisson(0, 20.0, 1, np.arange(0)).shape == (0,)


def permutation(seed, *path):
    return first_permutation(seed, 8, *path)


@pytest.mark.parametrize("draw", [first_normal, permutation])
@pytest.mark.parametrize("bad", [2**32, np.array([1, 2**32]), -1, np.array([0, -3]),
                                 1.5, np.array([0.0])])
def test_path_values_outside_uint32_raise(draw, bad):
    with pytest.raises(ValueError, match="2\\*\\*32"):
        draw(0, 1, bad)


@pytest.mark.parametrize("draw", [first_normal, permutation])
def test_negative_seed_raises(draw):
    with pytest.raises(ValueError, match="seed"):
        draw(-1, 1, np.arange(3))


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


def count_fallbacks(monkeypatch, draw, *args):
    """``draw(*args)`` and the number of generators it built, one per row
    it handed to numpy."""
    monkeypatch.setattr(_streams, "_SeedWords", CountingSeedWords)
    CountingSeedWords.built = 0
    draws = draw(*args)
    monkeypatch.undo()
    return draws, CountingSeedWords.built


def ptrs_case():
    """Means and path of 10^5 streams: numpy's branch points, log-uniform
    means over the PTRS range, and a mean far above it."""
    rng = np.random.default_rng(11)
    lam = np.exp(rng.uniform(np.log(10.0), np.log(1e7), size=(12_800, 8)))
    lam[::4, :5] = [0.0, 1e-3, 9.999, 10.0, 10.001]
    lam[1::4, 0] = 1e12
    return lam, (3, np.arange(lam.shape[0])[:, None], np.arange(8))


def test_first_poisson_matches_numpy(monkeypatch):
    lam, path = ptrs_case()
    draws, built = count_fallbacks(monkeypatch, first_poisson, 2**32 + 3, lam, *path)
    assert draws.dtype == np.int64 and draws.shape == lam.shape
    expected = [g.poisson(m) for g, m in
                zip(substreams(2**32 + 3, *path), lam.ravel().tolist())]
    assert np.array_equal(draws.ravel(), expected)
    # numpy's sampler draws every nonzero mean below 10 (6,400 streams);
    # of the others, PTRS on arrays decides all but those that use up the
    # prefetched rounds or fall inside the log test's margin
    below_ten = np.count_nonzero((lam > 0) & (lam < 10))
    assert below_ten <= built < below_ten + 0.01 * (lam.size - below_ten)


def test_first_poisson_matches_substream_rows():
    lam = np.array([[0.0, 3.0, 10.0, 1e4], [1e-3, 9.999, 10.001, 1e12]])
    draws = first_poisson(5, lam, 4, np.array([[0], [9]]), np.arange(4))
    for (rep, comb), value in np.ndenumerate(draws):
        assert value == substream(5, 4, 9 * rep, comb).poisson(lam[rep, comb])


@pytest.mark.parametrize(("lam", "fallbacks"), [(0.0, 0), (5.0, 64), (2.0**53, 64)])
def test_first_poisson_paths_by_mean(monkeypatch, lam, fallbacks):
    # lam = 0 is always 0; below 10 and above 2**52 numpy draws every stream
    draws, built = count_fallbacks(monkeypatch, first_poisson, 0, lam, 3, np.arange(64))
    assert built == fallbacks
    expected = [g.poisson(lam) for g in substreams(0, 3, np.arange(64))]
    assert np.array_equal(draws, expected)


def ptrs_rounds(seed, lam, *row):
    """The (U, V) rounds that numpy's PTRS sampler takes for the first
    draw of ``substream(seed, *row)``: half the raw outputs it uses."""
    gen = substream(seed, *row)
    gen.poisson(lam)
    used, bits = gen.bit_generator.state, substream(seed, *row).bit_generator
    for outputs in range(1, 200):
        bits.random_raw()
        if bits.state == used:
            return outputs // 2
    raise AssertionError("more than 100 rounds")


@pytest.mark.parametrize("prefetch", [1, 2, 3, 4, 6])
def test_first_poisson_rows_past_the_first_round(monkeypatch, prefetch):
    # at lam = 10 numpy's PTRS loop takes a second round for about one
    # stream in five; a row decided in round r needs r <= _POISSON_ROUNDS
    lam, streams = 10.0, np.arange(4000)
    rounds = np.array([ptrs_rounds(9, lam, 3, i) for i in streams])
    assert all(np.count_nonzero(rounds == r) >= 10 for r in (2, 3, 4))
    assert np.count_nonzero(rounds > 4) >= 5
    monkeypatch.setattr(_streams, "_POISSON_ROUNDS", prefetch)
    draws, built = count_fallbacks(monkeypatch, first_poisson, 9, lam, 3, streams)
    assert np.array_equal(draws, [g.poisson(lam) for g in substreams(9, 3, streams)])
    # the rows that use up the prefetched rounds, and only those, go to numpy
    assert built == np.count_nonzero(rounds > prefetch)


def test_first_poisson_with_a_huge_log_margin(monkeypatch):
    # a margin no two sides exceed leaves every row that reaches the log
    # test to numpy: more generators, the same draws
    lam = np.exp(np.random.default_rng(5).uniform(np.log(10.0), np.log(1e7), 3000))
    streams = np.arange(lam.size)
    expected = [g.poisson(m) for g, m in zip(substreams(2, 3, streams), lam.tolist())]
    draws, built = count_fallbacks(monkeypatch, first_poisson, 2, lam, 3, streams)
    assert np.array_equal(draws, expected)
    monkeypatch.setattr(_streams, "_LOG_ULPS", 2.0**200)
    wide, wide_built = count_fallbacks(monkeypatch, first_poisson, 2, lam, 3, streams)
    assert np.array_equal(wide, expected)
    assert built < 10 and wide_built > 0.05 * lam.size


def test_log_margin_covers_logs_a_few_ulps_off(monkeypatch):
    # numpy's array log need not round as the sampler's libm log does:
    # with every array log moved 4 ulps up, down, or either way per
    # element, no side of the log test moves by its margin, and the
    # draws of the 10^5-stream case do not change
    lam, path = ptrs_case()
    log_test, tested = _streams._log_test, []

    def recorded(*args):
        tested.append((args, log_test(*args)))
        return tested[-1][1]

    monkeypatch.setattr(_streams, "_log_test", recorded)
    expected = first_poisson(2**32 + 3, lam, *path)
    monkeypatch.undo()
    rng, log = np.random.default_rng(4), np.log
    for ulps in (lambda y: 4, lambda y: -4, lambda y: rng.integers(-4, 5, np.shape(y))):

        def moved(x, ulps=ulps):
            y = log(x)
            with np.errstate(invalid="ignore"):    # log(0) is -inf
                return np.where(np.isfinite(y), y + ulps(y) * np.spacing(np.abs(y)), y)

        monkeypatch.setattr(np, "log", moved)
        try:
            draws = first_poisson(2**32 + 3, lam, *path)
            moved_sides = [log_test(*args)[0] for args, _ in tested]
        finally:
            monkeypatch.undo()
        assert np.array_equal(draws, expected)
        for (_, (side, margin)), moved_side in zip(tested, moved_sides):
            finite = np.isfinite(side)
            assert np.count_nonzero(moved_side[finite] != side[finite]) > 0.5 * finite.sum()
            assert np.all(np.abs(moved_side - side)[finite] < margin[finite])


def test_overnight_run_builds_few_poisson_generators(monkeypatch, tmp_path):
    # the benchmark's overnight-run workload: 2,500 repetitions, counts
    # and monitor counts, 40,000 Poisson draws in all
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import run as perfbench_run
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    cfg_path = tmp_path / "overnight.cfg"
    perfbench_run.write_config(ROOT, perfbench_run.WORKLOADS["overnight-run"], cfg_path)
    cfg = load_config(cfg_path)
    assert cfg.repetitions == 2500 and cfg.monitor_counts > 0
    plate, mask, power, detector = build_objects(cfg)
    draws, poisson_built = [], 0

    def counted(*args):
        nonlocal poisson_built
        start = CountingSeedWords.built
        draws.append(first_poisson(*args))
        poisson_built += CountingSeedWords.built - start
        return draws[-1]

    monkeypatch.setattr(_streams, "_SeedWords", CountingSeedWords)
    monkeypatch.setattr(experiment, "first_poisson", counted)
    experiment.run_experiment(plate, mask, power, detector, detector_u=cfg.detector_u,
                              repetitions=cfg.repetitions, seed=cfg.seed)
    assert sum(d.size for d in draws) == 2 * 8 * 2500
    assert poisson_built <= 50


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


def test_first_normal_matches_numpy(monkeypatch):
    # 102,400 streams over the edge seeds, compared bit for bit, so that a
    # -0.0 or a last-bit difference shows
    path = (TAG_POWER, np.arange(2560)[:, None], np.arange(8))
    built = 0
    for seed in EDGE_SEEDS:
        draws, n = count_fallbacks(monkeypatch, first_normal, seed, *path)
        built += n
        assert draws.dtype == np.float64 and draws.shape == (2560, 8)
        expected = np.array([g.standard_normal() for g in substreams(seed, *path)])
        assert np.array_equal(draws.ravel().view(np.uint64), expected.view(np.uint64))
    # layers 0 and 1 (2 of 256) and the ziggurat's rejections go to numpy
    rows = len(EDGE_SEEDS) * 2560 * 8
    assert 0.01 * rows < built < 0.03 * rows


def test_first_normal_matches_substream_rows():
    draws = first_normal(5, 2, np.array([[0], [9]]), np.arange(4))
    for (rep, comb), value in np.ndenumerate(draws):
        assert value == substream(5, 2, 9 * rep, comb).standard_normal()


def ziggurat_boundaries() -> np.ndarray:
    """Per layer, the least ``rabs`` that numpy's ziggurat does not accept
    from the first raw output, found by bisection on numpy's sampler."""
    bits = np.random.PCG64(0)
    gen = np.random.Generator(bits)
    mult_inv = pow(_streams._PCG_MULT, -1, 2**128)

    def accepted(layer, rabs):
        # the state whose next step is r outputs r; an accepted draw
        # returns without stepping again
        r = rabs << 9 | layer
        bits.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                      "state": {"state": (r - 3) * mult_inv % 2**128, "inc": 3}}
        gen.standard_normal()
        return bits.state["state"]["state"] == r

    bounds = []
    for layer in range(256):
        lo, hi = 0, 2**52
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (mid + 1, hi) if accepted(layer, mid) else (lo, mid)
        bounds.append(lo)
    return np.array(bounds, dtype=np.uint64)


def test_ziggurat_bounds_match_numpy():
    wi, ki = _streams._ziggurat()
    bounds = ziggurat_boundaries()
    assert np.all(ki <= bounds)
    assert np.array_equal(ki[2:], bounds[2:])
    assert not ki[:2].any() and bounds[0] > 0
    assert wi.shape == (256,) and not wi.flags.writeable and not ki.flags.writeable


def test_ziggurat_tables_are_read_on_first_use():
    code = ("from bornlab import _streams, cli\n"
            "assert _streams._ziggurat.cache_info().currsize == 0\n")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": str(ROOT / "src")})


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_first_permutation_matches_numpy(monkeypatch, seed):
    reps = np.arange(2000)
    perms, built = count_fallbacks(monkeypatch, first_permutation, seed, 8, TAG_ORDER, reps)
    assert perms.dtype == np.int64 and perms.shape == (2000, 8)
    for rep, perm in zip(reps, perms):
        assert np.array_equal(perm, substream(seed, TAG_ORDER, rep).permutation(8))
    # 16 prefetched halves cover all but a few permutation(8) rows
    assert built < 0.01 * len(reps)


def test_first_permutation_falls_back_when_the_outputs_run_out(monkeypatch):
    # 8 halves: permutation(8) needs at least 7, so many rows run out
    monkeypatch.setattr(_streams, "_PERMUTATION_RAW", 4)
    perms, built = count_fallbacks(monkeypatch, first_permutation, 3, 8, TAG_ORDER,
                                   np.arange(1000))
    assert 200 < built < 800
    expected = [g.permutation(8) for g in substreams(3, TAG_ORDER, np.arange(1000))]
    assert np.array_equal(perms, expected)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 13, 40])
def test_first_permutation_of_any_length(n):
    perms = first_permutation(2**64 + 5, n, 1, np.arange(300))
    expected = [g.permutation(n) for g in substreams(2**64 + 5, 1, np.arange(300))]
    assert perms.shape == (300, n)
    assert np.array_equal(perms, np.reshape(expected, (300, n)))
