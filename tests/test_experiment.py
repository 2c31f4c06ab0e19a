import math

import numpy as np
import pytest

from bornlab import experiment
from bornlab.experiment import (
    CountsRecord,
    estimate_rho_series,
    rho_per_repetition,
    run_experiment,
)
from bornlab.interference import ProbabilityVector, sorkin
from bornlab.optics import pattern_set
from bornlab.systematics import DetectorModel, PowerModel, poisson_sigma

from oracles import rho_per_repetition_scalar, run_experiment_scalar


def record_with_rho(rho, repetition=0, n=1000.0, dwell=2.0):
    """Counts whose rate vector has the requested rho (delta = 6n)."""
    counts = np.array([0.0, n, n, n, 4 * n, 4 * n, 4 * n, 9 * n + rho * 6 * n])
    return CountsRecord(
        repetition=repetition,
        counts=counts * dwell,
        dwell_time=dwell,
        timestamps=np.arange(8) + repetition * 8,
    )


class TestCountsRecord:
    def test_validation(self):
        with pytest.raises(ValueError, match="shape"):
            CountsRecord(0, np.zeros(7), 1.0, np.arange(7))
        with pytest.raises(ValueError, match=">= 0"):
            CountsRecord(0, np.array([-1.0] + [0.0] * 7), 1.0, np.arange(8))
        with pytest.raises(ValueError, match="dwell_time"):
            CountsRecord(0, np.zeros(8), 0.0, np.arange(8))
        with pytest.raises(ValueError, match="monitor"):
            CountsRecord(0, np.zeros(8), 1.0, np.arange(8), monitor=np.zeros(3))

    @pytest.mark.parametrize("poisson", [True, False])
    def test_run_records_are_checked_records(self, plate, mask, poisson):
        # run_experiment checks each block once; every record must be what
        # the checking constructor makes of the same rows
        power = PowerModel(mean_power=5e5, relative_fluctuation=1e-3,
                           sequence_order="randomized", monitor_counts=1e6)
        recs = run_experiment(plate, mask, power, DetectorModel(), 0.0, 40, seed=2,
                              poisson=poisson)
        for rec in recs:
            ref = CountsRecord(rec.repetition, rec.counts, rec.dwell_time,
                               rec.timestamps, rec.monitor)
            assert type(rec.repetition) is int
            for name in ("counts", "timestamps", "monitor"):
                got, want = getattr(rec, name), getattr(ref, name)
                assert got.dtype == want.dtype and got.shape == (8,)
                assert got.tobytes() == want.tobytes()

    def test_run_rejects_negative_expected_counts(self, plate, mask):
        # a detector driven past its nonlinearity gives negative means
        det = DetectorModel(nonlinearity=0.9, full_scale_rate=1e3)
        with pytest.raises(ValueError, match="counts must be finite and >= 0"):
            run_experiment(plate, mask, PowerModel(mean_power=1e6), det, 0.0, 3,
                           poisson=False)


class TestRunExperiment:
    def test_end_to_end_null_expected_value_mode(self, plate, mask):
        power = PowerModel(mean_power=80000.0)
        det = DetectorModel()
        recs = run_experiment(plate, mask, power, det, detector_u=0.0,
                              repetitions=3, seed=0, poisson=False)
        series = estimate_rho_series(recs)
        assert abs(series.mean) < 1e-10
        assert series.sample_std == 0.0

    def test_deterministic_for_fixed_seed(self, plate, mask):
        power = PowerModel(mean_power=5e5, relative_fluctuation=1e-3,
                           sequence_order="randomized")
        det = DetectorModel(dwell_time=1.0)
        a = run_experiment(plate, mask, power, det, 0.0, repetitions=6, seed=9)
        b = run_experiment(plate, mask, power, det, 0.0, repetitions=6, seed=9)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.counts, rb.counts)
            assert np.array_equal(ra.timestamps, rb.timestamps)

    def test_seed_changes_counts(self, plate, mask):
        power = PowerModel(mean_power=5e5)
        det = DetectorModel(dwell_time=1.0)
        a = run_experiment(plate, mask, power, det, 0.0, repetitions=2, seed=0)
        b = run_experiment(plate, mask, power, det, 0.0, repetitions=2, seed=1)
        assert not np.array_equal(a[0].counts, b[0].counts)

    def test_poisson_counts_are_integers(self, plate, mask):
        power = PowerModel(mean_power=1e5)
        det = DetectorModel(dwell_time=0.5)
        recs = run_experiment(plate, mask, power, det, 0.0, repetitions=2, seed=4)
        for rec in recs:
            assert np.array_equal(rec.counts, np.round(rec.counts))

    def test_dark_rate_leaves_expected_rho_unchanged(self, plate, mask):
        power = PowerModel(mean_power=80000.0)
        det = DetectorModel(dark_rate=500.0)
        recs = run_experiment(plate, mask, power, det, detector_u=0.0,
                              repetitions=2, seed=0, poisson=False)
        assert recs[0].counts[0] == pytest.approx(500.0 * det.dwell_time)
        series = estimate_rho_series(recs)
        assert abs(series.mean) < 1e-10

    def test_randomized_order_permutes_timestamps(self, plate, mask):
        power = PowerModel(mean_power=1e5, sequence_order="randomized")
        det = DetectorModel(dwell_time=1.0)
        recs = run_experiment(plate, mask, power, det, 0.0, repetitions=4, seed=2)
        stamps = np.stack([r.timestamps for r in recs])
        assert not np.array_equal(stamps[0] - 0, stamps[1] - 8)  # order varies
        for i, rec in enumerate(recs):
            assert sorted(rec.timestamps) == list(range(i * 8, i * 8 + 8))

    def test_null_holds_even_at_envelope_zero(self, plate, mask):
        # at the single-slit envelope zero all eight intensities collapse
        # by ~40 orders of magnitude; the rate ratios stay exact and the
        # expected-value null survives
        power = PowerModel(mean_power=1e5)
        det = DetectorModel(dwell_time=1.0)
        recs = run_experiment(plate, mask, power, det, detector_u=1.0 / 30e-6,
                              repetitions=1, seed=0, poisson=False)
        series = estimate_rho_series(recs)
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
        recs = run_experiment(plate, mask, monitored, det, 0.0, n, seed=11)
        s_mon = estimate_rho_series(recs)
        s_ignored = estimate_rho_series(recs, use_monitor=False)
        assert s_mon.sample_std < s_plain.sample_std / 3
        assert s_ignored.sample_std == pytest.approx(s_plain.sample_std, rel=0.3)

    def test_repetitions_bound(self, plate, mask):
        with pytest.raises(ValueError, match="repetitions"):
            run_experiment(plate, mask, PowerModel(mean_power=1.0),
                           DetectorModel(), 0.0, repetitions=0, seed=0)


class TestEstimate:
    def test_constant_records(self):
        recs = [record_with_rho(0.02, repetition=i) for i in range(5)]
        series = estimate_rho_series(recs)
        assert series.mean == pytest.approx(0.02, abs=1e-15)
        assert series.sample_std == 0.0
        assert series.sem == 0.0
        assert series.n_defined == 5
        assert series.n_undefined == 0

    def test_two_repetitions_hand_arithmetic(self):
        recs = [record_with_rho(0.01, 0), record_with_rho(0.03, 1)]
        series = estimate_rho_series(recs)
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
        flat = CountsRecord(2, np.full(8, 100.0), 1.0, np.arange(16, 24))
        recs = [record_with_rho(0.01, 0), record_with_rho(0.03, 1), flat]
        series = estimate_rho_series(recs)
        assert series.n_defined == 2
        assert series.n_undefined == 1
        assert math.isnan(series.rho[2])
        assert series.mean == pytest.approx(0.02, abs=1e-15)

    def test_all_undefined_raises(self):
        flat = CountsRecord(0, np.full(8, 100.0), 1.0, np.arange(8))
        with pytest.raises(ValueError, match="undefined in every repetition"):
            estimate_rho_series([flat])

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            rho_per_repetition([])

    def test_dead_time_correction_opt_in(self, plate, mask):
        tau = 50e-9
        power = PowerModel(mean_power=80000.0)
        det = DetectorModel(dead_time=tau)
        recs = run_experiment(plate, mask, power, det, detector_u=0.0,
                              repetitions=2, seed=0, poisson=False)
        biased = estimate_rho_series(recs)
        corrected = estimate_rho_series(recs, dead_time_correction=tau)
        assert abs(biased.mean) > 1e-4          # dead-time bias visible
        assert abs(corrected.mean) < 1e-10      # inverted away

    def test_poisson_std_matches_prediction(self, plate, mask):
        power = PowerModel(mean_power=9e5)
        det = DetectorModel(dwell_time=1.0)
        recs = run_experiment(plate, mask, power, det, 0.0, 200, seed=1)
        series = estimate_rho_series(recs)
        expected = run_experiment(plate, mask, power, det, 0.0, 1, seed=1,
                                  poisson=False)
        cv = ProbabilityVector.from_array(expected[0].counts)
        pred = poisson_sigma(cv, sorkin(cv))
        assert series.sample_std == pytest.approx(pred, rel=0.10)
        assert abs(series.mean) <= 3 * series.sem


def scalar_run(plate, mask, power, det, u, repetitions, seed, poisson=True):
    base = power.mean_power * pattern_set(plate, mask, np.array([u]), normalize=True)[:, 0]
    return run_experiment_scalar(base, power, det, repetitions, seed, poisson)


class TestAgainstScalarLoop:
    @pytest.mark.parametrize("order", ["fixed", "randomized"])
    @pytest.mark.parametrize("poisson", [True, False])
    @pytest.mark.parametrize("fluctuation", [0.0, 1e-3])
    @pytest.mark.parametrize("monitor", [0.0, 1e6])
    def test_bitwise_equal(self, plate, mask, monkeypatch, order, poisson,
                           fluctuation, monitor):
        # small blocks, so that block edges fall inside the run
        monkeypatch.setattr(experiment, "_BLOCK_REPETITIONS", 7)
        power = PowerModel(mean_power=3e5, relative_fluctuation=fluctuation,
                           linear_drift_rate=2e-3, sequence_order=order,
                           monitor_counts=monitor)
        det = DetectorModel(dead_time=50e-9, nonlinearity=0.02, dark_rate=40.0,
                            dwell_time=2.5)
        seed = 31 + 2 * poisson + 4 * (fluctuation > 0) + 8 * (monitor > 0)
        recs = run_experiment(plate, mask, power, det, 500.0, 30, seed=seed,
                              poisson=poisson)
        counts, stamps, mon, clamped = scalar_run(plate, mask, power, det, 500.0,
                                                  30, seed, poisson)
        assert clamped == 0
        assert [r.repetition for r in recs] == list(range(30))
        assert np.array_equal(np.array([r.counts for r in recs]), counts)
        assert np.array_equal(np.array([r.timestamps for r in recs]), stamps)
        if monitor:
            assert np.array_equal(np.array([r.monitor for r in recs]), mon)
        else:
            assert all(r.monitor is None for r in recs)

    def test_bitwise_equal_across_default_blocks(self, plate, mask):
        power = PowerModel(mean_power=9e5, relative_fluctuation=1e-3,
                           linear_drift_rate=1e-4, sequence_order="randomized",
                           monitor_counts=1e6)
        det = DetectorModel(dead_time=50e-9)
        n = experiment._BLOCK_REPETITIONS + 3
        recs = run_experiment(plate, mask, power, det, 0.0, n, seed=5)
        counts, stamps, mon, _ = scalar_run(plate, mask, power, det, 0.0, n, 5)
        assert np.array_equal(np.array([r.counts for r in recs]), counts)
        assert np.array_equal(np.array([r.timestamps for r in recs]), stamps)
        assert np.array_equal(np.array([r.monitor for r in recs]), mon)

    @pytest.mark.parametrize("poisson", [True, False])
    def test_clamped_power_warns_with_count(self, plate, mask, monkeypatch, poisson):
        monkeypatch.setattr(experiment, "_BLOCK_REPETITIONS", 7)
        power = PowerModel(mean_power=1e5, relative_fluctuation=0.8,
                           linear_drift_rate=-1e-2, sequence_order="randomized")
        det = DetectorModel(dwell_time=1.0)
        counts, _, _, clamped = scalar_run(plate, mask, power, det, 0.0, 25, 8, poisson)
        assert clamped > 5
        with pytest.warns(RuntimeWarning, match=f"clamped to 0 in {clamped} of 200 dwells"):
            recs = run_experiment(plate, mask, power, det, 0.0, 25, seed=8,
                                  poisson=poisson)
        assert np.array_equal(np.array([r.counts for r in recs]), counts)

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
        recs = run_experiment(plate, mask, power, det, 0.0, 60, seed=3, poisson=poisson)
        recs.append(CountsRecord(60, np.full(8, 100.0), 1.0, np.arange(8)))  # undefined
        rho, defined = rho_per_repetition(recs, 1e-9, dead_time_correction, use_monitor)
        ref_rho, ref_defined = rho_per_repetition_scalar(
            recs, 1e-9, dead_time_correction, use_monitor)
        assert np.array_equal(defined, ref_defined)
        assert not defined[-1]
        assert np.array_equal(rho, ref_rho, equal_nan=True)

    def test_errors_name_first_failing_repetition(self):
        ok = record_with_rho(0.0, repetition=10)
        zero_mon = CountsRecord(11, ok.counts, ok.dwell_time, ok.timestamps,
                                monitor=np.array([1.0] * 7 + [0.0]))
        hot = record_with_rho(0.0, repetition=12, n=1e6)
        # a zero monitor count leaves its repetition undefined, not failed
        with pytest.warns(RuntimeWarning, match="undefined in 1 of 3 repetitions"):
            rho, defined = rho_per_repetition([ok, zero_mon, ok])
        assert defined.tolist() == [True, False, True]
        assert np.isnan(rho[1]) and not np.isnan(rho[[0, 2]]).any()
        with pytest.raises(ValueError, match="repetition 12: measured rate"):
            rho_per_repetition([ok, zero_mon, hot], dead_time_correction=1e-6)
        # a repetition that cannot be normalized is not checked further
        both = CountsRecord(13, hot.counts, hot.dwell_time, hot.timestamps,
                            monitor=zero_mon.monitor)
        with pytest.warns(RuntimeWarning, match="undefined in 1 of 2 repetitions"):
            rho, defined = rho_per_repetition([ok, both], dead_time_correction=1e-6)
        assert defined.tolist() == [True, False]
        with pytest.raises(ValueError, match="repetition 12: measured rate"):
            rho_per_repetition([ok, both, hot], dead_time_correction=1e-6)
        # a disabled monitor is not checked
        rho, defined = rho_per_repetition([ok, zero_mon], use_monitor=False)
        assert defined.all()

    def test_overflowing_rates_rejected(self):
        rec = CountsRecord(4, np.full(8, 1e300), 1e-10, np.arange(8))
        with pytest.raises(ValueError, match="repetition 4: rates must be finite"):
            rho_per_repetition([record_with_rho(0.0), rec])
