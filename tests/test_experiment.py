import math
import sys
from pathlib import Path

import numpy as np
import pytest

from bornlab import _streams, experiment
from bornlab._streams import substream
from bornlab.config import build_objects, load_config
from bornlab.experiment import (
    RunCounts,
    estimate_rho_series,
    rho_per_repetition,
    run_experiment,
)
from bornlab.interference import sorkin_curves
from bornlab.optics import pattern_set
from bornlab.systematics import DetectorModel, PowerModel, poisson_sigma_curves

from oracles import rho_per_repetition_scalar, run_experiment_scalar

ROOT = Path(__file__).resolve().parent.parent


def dwell_indices(repetitions):
    return np.arange(8 * repetitions).reshape(repetitions, 8)


def counts_with_rho(rhos, n=1000.0, dwell=2.0):
    """One repetition per requested rho; every rate vector has delta = 6n."""
    counts = np.tile([0.0, n, n, n, 4 * n, 4 * n, 4 * n, 9 * n], (len(rhos), 1))
    counts[:, 7] += np.asarray(rhos) * 6 * n
    return RunCounts(counts * dwell, dwell, dwell_indices(len(rhos)))


class TestRunCounts:
    @pytest.mark.parametrize("change, match", [
        ({"counts": np.zeros((0, 8)), "timestamps": np.zeros((0, 8))},
         "at least one repetition"),
        ({"counts": np.zeros((2, 7)), "timestamps": np.zeros((2, 7))},
         r"shape \(repetitions, 8\) \(got \(2, 7\)"),
        ({"timestamps": np.arange(16)}, r"got \(2, 8\) and \(16,\)"),
        ({"monitor": np.ones((2, 3))}, r"monitor counts must have shape \(2, 8\)"),
        ({"counts": [[0.0] * 8, [0.0, 1.0, -1.0] + [0.0] * 5]},
         r"repetition 1, combination B: counts must be finite and >= 0 \(got -1\)"),
        ({"counts": [[0.0] * 7 + [math.nan], [0.0] * 8]},
         r"repetition 0, combination ABC: counts must be .* \(got nan\)"),
        ({"monitor": [[1.0] * 8, [1.0] * 4 + [math.inf] * 4]},
         "repetition 1, combination AB: monitor counts must be finite"),
        ({"dwell_time": 0.0}, r"dwell_time must be > 0 \(got 0.0\)"),
        ({"dwell_time": -2.0}, r"dwell_time must be > 0 \(got -2.0\)"),
    ], ids=["zero-rows", "seven-columns", "timestamps-shape", "monitor-shape",
            "negative-count", "nan-count", "infinite-monitor", "zero-dwell",
            "negative-dwell"])
    def test_validation(self, change, match):
        valid = {"counts": np.zeros((2, 8)), "dwell_time": 1.0, "timestamps": dwell_indices(2)}
        RunCounts(**valid)
        with pytest.raises(ValueError, match=match):
            RunCounts(**{**valid, **change})

    def test_run_rejects_negative_expected_counts(self, plate, mask):
        # a detector driven past its nonlinearity gives negative means
        det = DetectorModel(nonlinearity=0.9, full_scale_rate=1e3)
        with pytest.raises(ValueError, match="repetition 0, combination A: "
                                             "counts must be finite and >= 0"):
            run_experiment(plate, mask, PowerModel(mean_power=1e6), det, 0.0, 3,
                           poisson=False)


class TestRunExperiment:
    def test_end_to_end_null_expected_value_mode(self, plate, mask):
        power = PowerModel(mean_power=80000.0)
        det = DetectorModel()
        run = run_experiment(plate, mask, power, det, detector_u=0.0,
                              repetitions=3, seed=0, poisson=False)
        series = estimate_rho_series(run)
        assert abs(series.mean) < 1e-10
        assert series.sample_std == 0.0

    def test_deterministic_for_fixed_seed(self, plate, mask):
        power = PowerModel(mean_power=5e5, relative_fluctuation=1e-3,
                           sequence_order="randomized")
        det = DetectorModel(dwell_time=1.0)
        a = run_experiment(plate, mask, power, det, 0.0, repetitions=6, seed=9)
        b = run_experiment(plate, mask, power, det, 0.0, repetitions=6, seed=9)
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.timestamps, b.timestamps)

    def test_seed_changes_counts(self, plate, mask):
        power = PowerModel(mean_power=5e5)
        det = DetectorModel(dwell_time=1.0)
        a = run_experiment(plate, mask, power, det, 0.0, repetitions=2, seed=0)
        b = run_experiment(plate, mask, power, det, 0.0, repetitions=2, seed=1)
        assert not np.array_equal(a.counts[0], b.counts[0])

    def test_poisson_counts_are_integers(self, plate, mask):
        power = PowerModel(mean_power=1e5)
        det = DetectorModel(dwell_time=0.5)
        run = run_experiment(plate, mask, power, det, 0.0, repetitions=2, seed=4)
        assert np.array_equal(run.counts, np.round(run.counts))

    def test_dark_rate_leaves_expected_rho_unchanged(self, plate, mask):
        power = PowerModel(mean_power=80000.0)
        det = DetectorModel(dark_rate=500.0)
        run = run_experiment(plate, mask, power, det, detector_u=0.0,
                              repetitions=2, seed=0, poisson=False)
        assert run.counts[0, 0] == pytest.approx(500.0 * det.dwell_time)
        series = estimate_rho_series(run)
        assert abs(series.mean) < 1e-10

    def test_randomized_order_permutes_timestamps(self, plate, mask):
        power = PowerModel(mean_power=1e5, sequence_order="randomized")
        det = DetectorModel(dwell_time=1.0)
        stamps = run_experiment(plate, mask, power, det, 0.0, repetitions=4,
                                seed=2).timestamps
        assert not np.array_equal(stamps[0] - 0, stamps[1] - 8)  # order varies
        for i, row in enumerate(stamps):
            assert sorted(row) == list(range(i * 8, i * 8 + 8))

    def test_null_holds_even_at_envelope_zero(self, plate, mask):
        # at the single-slit envelope zero all eight intensities collapse
        # by ~40 orders of magnitude; the rate ratios stay exact and the
        # expected-value null survives
        power = PowerModel(mean_power=1e5)
        det = DetectorModel(dwell_time=1.0)
        run = run_experiment(plate, mask, power, det, detector_u=1.0 / 30e-6,
                              repetitions=1, seed=0, poisson=False)
        series = estimate_rho_series(run)
        assert abs(series.mean) < 1e-9

    def test_order_randomization_mitigates_drift_bias(self, plate, mask):
        det = DetectorModel(dwell_time=1.0)
        fixed = PowerModel(mean_power=9e5, linear_drift_rate=1e-3,
                           sequence_order="fixed")
        rand = PowerModel(mean_power=9e5, linear_drift_rate=1e-3,
                          sequence_order="randomized")
        n = 10000
        sf = estimate_rho_series(
            run_experiment(plate, mask, fixed, det, 0.0, n, seed=3, poisson=False)
        )
        sr = estimate_rho_series(
            run_experiment(plate, mask, rand, det, 0.0, n, seed=3, poisson=False)
        )
        assert abs(sf.mean) >= 5 * abs(sr.mean)

    def test_monitor_normalization_removes_power_noise(self, plate, mask):
        det = DetectorModel(dwell_time=1.0)
        noisy = PowerModel(mean_power=9e5, relative_fluctuation=0.02)
        monitored = PowerModel(mean_power=9e5, relative_fluctuation=0.02,
                               monitor_counts=1e7)
        n = 150
        s_plain = estimate_rho_series(
            run_experiment(plate, mask, noisy, det, 0.0, n, seed=11)
        )
        run = run_experiment(plate, mask, monitored, det, 0.0, n, seed=11)
        s_mon = estimate_rho_series(run)
        s_ignored = estimate_rho_series(run, use_monitor=False)
        assert s_mon.sample_std < s_plain.sample_std / 3
        assert s_ignored.sample_std == pytest.approx(s_plain.sample_std, rel=0.3)

    def test_repetitions_bound(self, plate, mask):
        with pytest.raises(ValueError, match="repetitions"):
            run_experiment(plate, mask, PowerModel(mean_power=1.0),
                           DetectorModel(), 0.0, repetitions=0, seed=0)

    def test_poisson_mean_above_numpy_limit_rejected(self):
        # numpy draws a mean at its limit and rejects the next float up
        limit = experiment._POISSON_MAX
        draw = experiment._counts(True, 0, np.array([[limit]]), 1, 0, "k")
        assert draw[0, 0] > 0.9 * limit
        above = np.array([[1.0, np.nextafter(limit, math.inf)]])
        with pytest.raises(ValueError, match=r"^k: too large, a Poisson mean of 9.22e\+18 "):
            experiment._counts(True, 0, above, 1, 0, "k")
        # expected-value mode draws nothing, so any finite mean passes
        assert experiment._counts(False, 0, above, 1, 0, "k") is above

    @pytest.mark.parametrize("lam", [np.nan, -1.0, -1e-300, np.inf, 1e19])
    def test_invalid_poisson_mean_raises(self, lam):
        # every invalid mean raises before drawing, naming the keys
        means = np.array([[20.0, lam, 30.0]])
        if lam > experiment._POISSON_MAX:
            match = "^k: too large"
        else:
            match = rf"^k: a Poisson mean must be >= 0 \(got {lam:.3g} counts per dwell\)$"
        with pytest.raises(ValueError, match=match):
            experiment._counts(True, 0, means, 3, 0, "k")


class TestEstimate:
    def test_constant_records(self):
        series = estimate_rho_series(counts_with_rho([0.02] * 5))
        assert series.mean == pytest.approx(0.02, abs=1e-15)
        assert series.sample_std == 0.0
        assert series.sem == 0.0
        assert series.n_defined == 5
        assert series.n_undefined == 0

    def test_two_repetitions_hand_arithmetic(self):
        series = estimate_rho_series(counts_with_rho([0.01, 0.03]))
        assert series.mean == pytest.approx(0.02, abs=1e-15)
        assert series.sample_std == pytest.approx(math.sqrt(2) * 0.01, rel=1e-12)
        assert series.sem == pytest.approx(0.01, rel=1e-12)

    def test_sem_definition(self, plate, mask):
        power = PowerModel(mean_power=9e5)
        det = DetectorModel(dwell_time=1.0)
        series = estimate_rho_series(
            run_experiment(plate, mask, power, det, 0.0, 50, seed=1)
        )
        assert series.sem == series.sample_std / math.sqrt(series.n_defined)

    def test_undefined_repetitions_excluded(self):
        two = counts_with_rho([0.01, 0.03])
        flat = np.full(8, 100.0)  # delta = 0: undefined
        series = estimate_rho_series(
            RunCounts(np.vstack([two.counts, flat]), two.dwell_time, dwell_indices(3)))
        assert series.n_defined == 2
        assert series.n_undefined == 1
        assert math.isnan(series.rho[2])
        assert series.mean == pytest.approx(0.02, abs=1e-15)

    def test_all_undefined_raises(self):
        flat = RunCounts(np.full((1, 8), 100.0), 1.0, dwell_indices(1))
        with pytest.raises(ValueError, match="undefined in every repetition"):
            estimate_rho_series(flat)

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            RunCounts(np.empty((0, 8)), 1.0, dwell_indices(0))

    def test_dead_time_correction_opt_in(self, plate, mask):
        tau = 50e-9
        power = PowerModel(mean_power=80000.0)
        det = DetectorModel(dead_time=tau)
        run = run_experiment(plate, mask, power, det, detector_u=0.0,
                              repetitions=2, seed=0, poisson=False)
        biased = estimate_rho_series(run)
        corrected = estimate_rho_series(run, dead_time_correction=tau)
        assert abs(biased.mean) > 1e-4          # dead-time bias visible
        assert abs(corrected.mean) < 1e-10      # inverted away

    def test_poisson_std_matches_prediction(self, plate, mask):
        power = PowerModel(mean_power=9e5)
        det = DetectorModel(dwell_time=1.0)
        run = run_experiment(plate, mask, power, det, 0.0, 200, seed=1)
        series = estimate_rho_series(run)
        expected = run_experiment(plate, mask, power, det, 0.0, 1, seed=1,
                                  poisson=False)
        cv = expected.counts.T  # (8, 1)
        pred = poisson_sigma_curves(cv, sorkin_curves(cv))[0]
        assert series.sample_std == pytest.approx(pred, rel=0.10)
        assert abs(series.mean) <= 3 * series.sem


def count_substreams(monkeypatch):
    """The (tag, block) paths of the generators run_experiment builds from
    now on, in a list that fills as it builds them."""
    built = []

    def counted(seed, *path):
        built.append(path)
        return substream(seed, *path)

    monkeypatch.setattr(experiment, "substream", counted)
    return built


def scalar_run(plate, mask, power, det, u, repetitions, seed, poisson=True):
    base = power.mean_power * pattern_set(plate, mask, np.array([u]), normalize=True)[:, 0]
    return run_experiment_scalar(base, power, det, repetitions, seed, poisson,
                                 block=experiment._BLOCK_REPETITIONS)


class TestAgainstScalarLoop:
    @pytest.mark.parametrize("order", ["fixed", "randomized"])
    @pytest.mark.parametrize("poisson", [True, False])
    @pytest.mark.parametrize("fluctuation", [0.0, 1e-3])
    @pytest.mark.parametrize("monitor", [0.0, 1e6])
    @pytest.mark.parametrize("block", [1, 7, 512])
    def test_bitwise_equal(self, plate, mask, monkeypatch, order, poisson,
                           fluctuation, monitor, block):
        # blocks of 1 and 7 put block edges inside the run
        monkeypatch.setattr(experiment, "_BLOCK_REPETITIONS", block)
        power = PowerModel(mean_power=3e5, relative_fluctuation=fluctuation,
                           linear_drift_rate=2e-3, sequence_order=order,
                           monitor_counts=monitor)
        det = DetectorModel(dead_time=50e-9, nonlinearity=0.02, dark_rate=40.0,
                            dwell_time=2.5)
        seed = 31 + 2 * poisson + 4 * (fluctuation > 0) + 8 * (monitor > 0)
        run = run_experiment(plate, mask, power, det, 500.0, 30, seed=seed,
                             poisson=poisson)
        counts, stamps, mon, clamped = scalar_run(plate, mask, power, det, 500.0,
                                                  30, seed, poisson)
        assert clamped == 0
        assert run.counts.dtype == float and run.timestamps.dtype == int
        assert np.array_equal(run.counts, counts)
        assert np.array_equal(run.timestamps, stamps)
        if monitor:
            assert np.array_equal(run.monitor, mon)
        else:
            assert run.monitor is None

    def test_bitwise_equal_across_default_blocks(self, plate, mask):
        power = PowerModel(mean_power=9e5, relative_fluctuation=1e-3,
                           linear_drift_rate=1e-4, sequence_order="randomized",
                           monitor_counts=1e6)
        det = DetectorModel(dead_time=50e-9)
        n = experiment._BLOCK_REPETITIONS + 3
        run = run_experiment(plate, mask, power, det, 0.0, n, seed=5)
        counts, stamps, mon, _ = scalar_run(plate, mask, power, det, 0.0, n, 5)
        assert np.array_equal(run.counts, counts)
        assert np.array_equal(run.timestamps, stamps)
        assert np.array_equal(run.monitor, mon)

    @pytest.mark.parametrize("poisson", [True, False])
    def test_clamped_power_warns_with_count(self, plate, mask, monkeypatch, poisson):
        monkeypatch.setattr(experiment, "_BLOCK_REPETITIONS", 7)
        power = PowerModel(mean_power=1e5, relative_fluctuation=0.8,
                           linear_drift_rate=-1e-2, sequence_order="randomized")
        det = DetectorModel(dwell_time=1.0)
        counts, _, _, clamped = scalar_run(plate, mask, power, det, 0.0, 25, 8, poisson)
        assert clamped > 5
        with pytest.warns(RuntimeWarning, match=f"clamped to 0 in {clamped} of 200 dwells"):
            run = run_experiment(plate, mask, power, det, 0.0, 25, seed=8,
                                 poisson=poisson)
        assert np.array_equal(run.counts, counts)

    @pytest.mark.parametrize("order", ["fixed", "randomized"])
    @pytest.mark.parametrize("poisson", [True, False])
    @pytest.mark.parametrize("block", [7, 512])
    def test_leading_repetitions_do_not_depend_on_the_length(self, plate, mask,
                                                             monkeypatch, order,
                                                             poisson, block):
        monkeypatch.setattr(experiment, "_BLOCK_REPETITIONS", block)
        power = PowerModel(mean_power=3e5, relative_fluctuation=1e-3,
                           linear_drift_rate=2e-3, sequence_order=order,
                           monitor_counts=1e6)
        det = DetectorModel(dead_time=50e-9, dark_rate=40.0)
        long = run_experiment(plate, mask, power, det, 500.0, 2 * block + 3, seed=6,
                              poisson=poisson)
        for n in sorted({1, block - 1, block, block + 1, 2 * block, 2 * block + 1} - {0}):
            run = run_experiment(plate, mask, power, det, 500.0, n, seed=6,
                                 poisson=poisson)
            assert np.array_equal(run.counts, long.counts[:n])
            assert np.array_equal(run.timestamps, long.timestamps[:n])
            assert np.array_equal(run.monitor, long.monitor[:n])

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5])
    def test_bitwise_equal_at_edge_seeds(self, plate, mask, monkeypatch, seed):
        monkeypatch.setattr(experiment, "_BLOCK_REPETITIONS", 7)
        power = PowerModel(mean_power=3e5, relative_fluctuation=1e-3,
                           sequence_order="randomized", monitor_counts=1e6)
        det = DetectorModel(dead_time=50e-9, dark_rate=40.0)
        run = run_experiment(plate, mask, power, det, 500.0, 16, seed=seed)
        counts, stamps, mon, _ = scalar_run(plate, mask, power, det, 500.0, 16, seed)
        assert np.array_equal(run.counts, counts)
        assert np.array_equal(run.timestamps, stamps)
        assert np.array_equal(run.monitor, mon)

    @pytest.mark.parametrize("tag", ["order", "power", "counts", "monitor"])
    def test_each_block_draws_from_its_own_substream(self, plate, mask, monkeypatch, tag):
        # 12 repetitions in blocks of 5: two full blocks and a partial one
        monkeypatch.setattr(experiment, "_BLOCK_REPETITIONS", 5)
        power = PowerModel(mean_power=3e5, relative_fluctuation=0.1,
                           sequence_order="randomized", monitor_counts=50.0)
        det = DetectorModel(dwell_time=1.0)
        drawn = run_experiment(plate, mask, power, det, 0.0, 12, seed=9)
        means = run_experiment(plate, mask, power, det, 0.0, 12, seed=9, poisson=False)
        for block in range(3):
            rows = slice(5 * block, 5 * block + 5)
            n = len(drawn.counts[rows])
            gen = substream(9, getattr(_streams, f"TAG_{tag.upper()}"), block)
            if tag == "order":
                order = gen.permuted(np.tile(np.arange(8), (n, 1)), axis=1)
                assert np.array_equal(np.argsort(drawn.timestamps[rows], axis=1), order)
            elif tag == "power":
                xi = gen.standard_normal((n, 8))
                assert np.array_equal(means.monitor[rows], 50.0 * (1.0 + 0.1 * xi))
            else:
                run = getattr(drawn, tag)[rows]
                assert np.array_equal(run, gen.poisson(getattr(means, tag)[rows]))

    @pytest.mark.parametrize(("poisson", "options", "tags"), [
        (False, {}, ()),
        (False, {"sequence_order": "randomized"}, ("ORDER",)),
        (False, {"relative_fluctuation": 1e-3}, ("POWER",)),
        (False, {"monitor_counts": 1e6}, ()),
        (True, {}, ("COUNTS",)),
        (True, {"monitor_counts": 1e6}, ("COUNTS", "MONITOR")),
        (True, {"sequence_order": "randomized", "relative_fluctuation": 1e-3,
                "monitor_counts": 1e6}, ("ORDER", "POWER", "COUNTS", "MONITOR")),
    ])
    def test_one_generator_per_drawing_purpose_and_block(self, plate, mask, monkeypatch,
                                                         poisson, options, tags):
        monkeypatch.setattr(experiment, "_BLOCK_REPETITIONS", 7)
        built = count_substreams(monkeypatch)
        run_experiment(plate, mask, PowerModel(mean_power=3e5, **options), DetectorModel(),
                       0.0, 30, seed=3, poisson=poisson)
        expected = [(getattr(_streams, f"TAG_{tag}"), block)
                    for tag in tags for block in range(5)]
        assert sorted(built) == sorted(expected)

    def test_overnight_run_builds_one_generator_per_purpose_and_block(
            self, monkeypatch, tmp_path):
        # the benchmark's overnight-run workload: 2,500 repetitions in 5
        # blocks, all four purposes drawing
        sys.path.insert(0, str(ROOT / "perfbench"))
        try:
            import run as perfbench_run
        finally:
            sys.path.remove(str(ROOT / "perfbench"))
        cfg_path = tmp_path / "overnight.cfg"
        perfbench_run.write_config(ROOT, perfbench_run.WORKLOADS["overnight-run"], cfg_path)
        cfg = load_config(cfg_path)
        plate, mask, power, detector = build_objects(cfg)
        built = count_substreams(monkeypatch)
        run_experiment(plate, mask, power, detector, cfg.detector_u, cfg.repetitions,
                       seed=cfg.seed)
        assert cfg.repetitions == 2500 and experiment._BLOCK_REPETITIONS == 512
        assert sorted(built) == [(tag, block) for tag in range(1, 5) for block in range(5)]

    def test_no_warning_without_clamps(self, plate, mask, recwarn):
        run_experiment(plate, mask, PowerModel(mean_power=1e5, relative_fluctuation=1e-3),
                       DetectorModel(), 0.0, 5, seed=1)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class TestRhoPerRepetition:
    @pytest.mark.parametrize("dead_time_correction", [0.0, 50e-9])
    @pytest.mark.parametrize("use_monitor", [True, False])
    @pytest.mark.parametrize("poisson", [True, False])
    def test_bitwise_equal_to_record_loop(self, plate, mask, dead_time_correction,
                                          use_monitor, poisson):
        # expected-value monitor counts are not integers, so their means
        # depend on the summation order
        power = PowerModel(mean_power=9e5, relative_fluctuation=1e-3,
                           sequence_order="randomized", monitor_counts=1e6)
        det = DetectorModel(dead_time=50e-9)
        run = run_experiment(plate, mask, power, det, 0.0, 60, seed=3, poisson=poisson)
        # flat counts leave the last row undefined; for its constant monitor
        # row mean(c) / c is exactly 1.0
        run = RunCounts(np.vstack([run.counts, np.full(8, 100.0)]), run.dwell_time,
                        dwell_indices(61), np.vstack([run.monitor, np.full(8, 1e6)]))
        rho, defined = rho_per_repetition(run, 1e-9, dead_time_correction, use_monitor)
        ref_rho, ref_defined = rho_per_repetition_scalar(
            run, 1e-9, dead_time_correction, use_monitor)
        assert np.array_equal(defined, ref_defined)
        assert not defined[-1]
        assert np.array_equal(rho, ref_rho, equal_nan=True)

    def test_errors_name_first_failing_repetition(self):
        # rows: "ok" and "hot" (rates above 1/dead_time for 1e-6) are
        # normalized by the exact factor 1.0, "zero" has a zero monitor
        # count, "both" is "hot" with that zero monitor count
        ok, hot = counts_with_rho([0.0]).counts[0], counts_with_rho([0.0], n=1e6).counts[0]
        ones, zero_mon = np.ones(8), np.array([1.0] * 7 + [0.0])
        rows = {"ok": (ok, ones), "zero": (ok, zero_mon), "hot": (hot, ones),
                "both": (hot, zero_mon)}

        def run(*names):
            counts, monitor = zip(*(rows[name] for name in names))
            return RunCounts(np.array(counts), 2.0, dwell_indices(len(names)),
                             np.array(monitor))

        # a zero monitor count leaves its repetition undefined, not failed
        with pytest.warns(RuntimeWarning, match="undefined in 1 of 3 repetitions"):
            rho, defined = rho_per_repetition(run("ok", "zero", "ok"))
        assert defined.tolist() == [True, False, True]
        assert np.isnan(rho[1]) and not np.isnan(rho[[0, 2]]).any()
        with pytest.raises(ValueError, match="repetition 2: measured rate"):
            rho_per_repetition(run("ok", "zero", "hot"), dead_time_correction=1e-6)
        with pytest.raises(ValueError, match="repetition 1: measured rate"):
            rho_per_repetition(run("ok", "hot", "hot"), dead_time_correction=1e-6)
        # a repetition that cannot be normalized is not checked further
        with pytest.warns(RuntimeWarning, match="undefined in 1 of 2 repetitions"):
            rho, defined = rho_per_repetition(run("ok", "both"), dead_time_correction=1e-6)
        assert defined.tolist() == [True, False]
        with pytest.raises(ValueError, match="repetition 2: measured rate"):
            rho_per_repetition(run("ok", "both", "hot"), dead_time_correction=1e-6)
        # a disabled monitor is not checked
        rho, defined = rho_per_repetition(run("ok", "zero"), use_monitor=False)
        assert defined.all()

    @pytest.mark.parametrize("correction", [-1e-9, math.nan])
    def test_bad_dead_time_correction_rejected(self, correction):
        # a NaN correction passes a `< 0` check and would apply no correction
        with pytest.raises(ValueError, match="dead_time_correction must be >= 0"):
            rho_per_repetition(counts_with_rho([0.0]), dead_time_correction=correction)

    def test_overflowing_rates_rejected(self):
        counts = np.vstack([counts_with_rho([0.0]).counts, np.full(8, 1e300)])
        with pytest.raises(ValueError, match="repetition 1: rates must be finite"):
            rho_per_repetition(RunCounts(counts, 1e-10, dwell_indices(2)))
