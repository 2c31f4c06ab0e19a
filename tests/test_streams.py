"""Substreams, the properties of numpy's array samplers that
``run_experiment`` relies on, and the statistics of the values it draws
from one generator per purpose and block of repetitions.

The statistical bounds are fixed at 5 standard deviations (for the
chi-square tests, the same tail probability): a correct sampler fails
one of the checks below, at some seed, with a probability of about
1e-5.
"""

import numpy as np
import pytest
from scipy import stats

from bornlab import experiment
from bornlab._streams import substream
from bornlab.experiment import run_experiment
from bornlab.systematics import DetectorModel, PowerModel

EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 5)
SIGMAS = 5.0
TAIL = 2 * stats.norm.sf(SIGMAS)
REPETITIONS = 20_000
SEED = 12


@pytest.mark.parametrize("seed", EDGE_SEEDS)
@pytest.mark.parametrize("width", [0, 1, 2, 3, 4, 6])
def test_substream_matches_numpy_seed_sequence(seed, width):
    # widths 0-6 fall below, at and above SeedSequence's 4-word pool
    rng = np.random.default_rng(seed % 1000 + 17 * width)
    row = [0, 2**32 - 1, *rng.integers(0, 2**32, size=4).tolist()][:width]
    gen = substream(seed, *row)
    ref = np.random.default_rng(np.random.SeedSequence([seed, *row]))
    assert gen.bit_generator.state == ref.bit_generator.state
    assert gen.poisson(3.5) == ref.poisson(3.5)
    assert gen.standard_normal() == ref.standard_normal()
    assert np.array_equal(gen.permutation(8), ref.permutation(8))


def test_negative_seed_raises():
    with pytest.raises(ValueError, match="seed"):
        substream(-1, 1, 0)


@pytest.mark.parametrize("bad", [-1, -2**40])
def test_negative_path_value_raises(bad):
    with pytest.raises(ValueError, match="non-negative"):
        substream(0, 1, bad)


# run_experiment draws a block's (rows, 8) arrays with numpy's array
# samplers and relies on two of their properties, which NEP 19 does not
# promise across numpy versions: an array draw gives the values that one
# draw at a time gives in C order, and so a partial block draws the
# leading rows of a full one.
BLOCK = 512
POISSON_MEANS = ["zero", "tiny", "below-ten", "at-ten", "ptrs", "huge", "mixed"]


def poisson_means(kind, rows=BLOCK):
    """(rows, 8) means: one value per branch of numpy's Poisson sampler
    (0, the multiplication method below 10, PTRS from 10), or, for
    ``mixed``, branch points among log-uniform means up to 1e12."""
    scalar = {"zero": 0.0, "tiny": 1e-3, "below-ten": 5.0, "at-ten": 10.0,
              "ptrs": 1e4, "huge": 1e12}
    if kind in scalar:
        return np.full((rows, 8), scalar[kind])
    lam = np.exp(np.random.default_rng(11).uniform(np.log(1e-3), np.log(1e12), (rows, 8)))
    lam[::3, :5] = [0.0, 1e-3, 9.999, 10.0, 10.001]
    return lam


def array_draw(sampler, seed, rows):
    """The draws of one block's generator for a (rows, 8) block, as
    run_experiment makes them."""
    gen = substream(seed, 3, 0)
    if sampler == "poisson":
        return gen.poisson(poisson_means("mixed", rows))
    if sampler == "normal":
        return gen.standard_normal((rows, 8))
    return gen.permuted(np.tile(np.arange(8), (rows, 1)), axis=1)


@pytest.mark.parametrize("kind", POISSON_MEANS)
def test_poisson_array_draws_follow_c_order(kind):
    lam = poisson_means(kind)
    draws = substream(SEED, 3, 0).poisson(lam)
    one = substream(SEED, 3, 0)
    assert draws.shape == lam.shape
    assert np.array_equal(draws.ravel(), [one.poisson(m) for m in lam.ravel().tolist()])


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_normal_array_draws_follow_c_order(seed):
    draws = array_draw("normal", seed, BLOCK)
    one = substream(seed, 3, 0)
    expected = np.array([one.standard_normal() for _ in range(draws.size)])
    # compared bit for bit, so that a -0.0 or a last-bit difference shows
    assert np.array_equal(draws.ravel().view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_permuted_rows_are_one_permutation_each(seed):
    perms = array_draw("permuted", seed, BLOCK)
    one = substream(seed, 3, 0)
    assert np.array_equal(perms, [one.permutation(8) for _ in range(BLOCK)])


@pytest.mark.parametrize("sampler", ["poisson", "normal", "permuted"])
@pytest.mark.parametrize("rows", [1, 7, BLOCK - 1])
def test_partial_block_draws_the_leading_rows(sampler, rows):
    full = array_draw(sampler, SEED, BLOCK)
    assert np.array_equal(array_draw(sampler, SEED, rows), full[:rows])


def simulate(plate, mask, poisson, **power):
    """``REPETITIONS`` repetitions at the pattern center, dwell time 1 s,
    with 4 dark counts per dwell, so that the all-closed mean is 4."""
    return run_experiment(plate, mask, PowerModel(mean_power=900.0, **power),
                          DetectorModel(dwell_time=1.0, dark_rate=4.0), 0.0,
                          REPETITIONS, seed=SEED, poisson=poisson)


class TestRunDraws:
    def test_poisson_mean_and_variance_per_combination(self, plate, mask):
        # counts with means 4 to 904, monitor counts with mean 50
        run = simulate(plate, mask, True, monitor_counts=50.0)
        expected = simulate(plate, mask, False, monitor_counts=50.0)
        mu, mu_monitor = expected.counts[0], expected.monitor[0]
        assert mu[0] == 4.0 and mu[-1] > 900.0 and np.all(mu_monitor == 50.0)
        for draws, means in ((run.counts, mu), (run.monitor, mu_monitor)):
            for column, lam in zip(draws.T, means):
                assert abs(column.mean() - lam) <= SIGMAS * np.sqrt(lam / REPETITIONS)
                # the variance of a Poisson sample variance is (lam + 2 lam^2) / n
                assert (abs(column.var(ddof=1) - lam)
                        <= SIGMAS * np.sqrt((lam + 2 * lam**2) / REPETITIONS))

    def test_counts_and_monitor_draw_independently(self, plate, mask):
        # dark counts and monitor counts with (nearly) one mean of 50: two
        # purposes on one stream would draw equal values
        run = run_experiment(plate, mask, PowerModel(mean_power=1e-9, monitor_counts=50.0),
                             DetectorModel(dwell_time=1.0, dark_rate=50.0), 0.0,
                             REPETITIONS, seed=SEED)
        counts, monitor = (run.counts - 50.0).ravel(), (run.monitor - 50.0).ravel()
        assert abs(np.corrcoef(counts, monitor)[0, 1]) <= SIGMAS / np.sqrt(counts.size)

    def test_normal_mean_and_variance(self, plate, mask):
        # expected-value monitor counts of 1 are the power factors 1 + 0.1 xi
        run = simulate(plate, mask, False, relative_fluctuation=0.1, monitor_counts=1.0)
        xi = ((run.monitor - 1.0) / 0.1).ravel()
        assert abs(xi.mean()) <= SIGMAS / np.sqrt(xi.size)
        assert abs(xi.var(ddof=1) - 1.0) <= SIGMAS * np.sqrt(2.0 / xi.size)

    def test_each_slot_of_the_shuffles_is_uniform(self, plate, mask):
        run = simulate(plate, mask, False, sequence_order="randomized")
        slots = run.timestamps - 8 * np.arange(REPETITIONS)[:, None]
        bound = stats.chi2.isf(TAIL, 7)
        for slot in range(8):
            observed = np.count_nonzero(slots == slot, axis=0)
            assert observed.sum() == REPETITIONS
            expected = REPETITIONS / 8
            assert np.sum((observed - expected) ** 2 / expected) <= bound

    def test_adjacent_blocks_draw_different_values(self, plate, mask, monkeypatch):
        monkeypatch.setattr(experiment, "_BLOCK_REPETITIONS", 4)
        power = PowerModel(mean_power=1e6, relative_fluctuation=0.1,
                           sequence_order="randomized", monitor_counts=1.0)
        det = DetectorModel(dwell_time=1.0)
        expected = run_experiment(plate, mask, power, det, 0.0, 8, seed=SEED, poisson=False)
        xi = (expected.monitor - 1.0) / 0.1
        assert not np.any(xi[:4] == xi[4:])
        slots = expected.timestamps % 8
        assert not np.array_equal(slots[:4], slots[4:])
        counts = run_experiment(plate, mask, PowerModel(mean_power=1e6), det, 0.0, 8,
                                seed=SEED).counts
        assert not np.array_equal(counts[:4], counts[4:])
