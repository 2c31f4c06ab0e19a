import math

import numpy as np
import pytest

from bornlab import systematics
from bornlab._streams import TAG_DISPLACEMENT, substream
from bornlab.interference import (
    BORN,
    COMBINATIONS,
    ProbabilityRule,
    ProbabilityVector,
    SorkinResult,
    sorkin,
    sorkin_curves,
)
from bornlab.optics import (
    BLOCKING,
    OPENING,
    combination_mask_for_plate,
    pattern_set,
    triple_slit_plate,
)
from bornlab.systematics import (
    DetectorModel,
    PowerModel,
    detector_response,
    detector_rho_sweep,
    misalignment_rho_sweep,
    poisson_sigma,
    power_sigma,
    power_sigma_curves,
    uniform_displacement_sampler,
)
from conftest import random_triple
from oracles import mc_poisson_rho_std, mc_power_rho_std


def synthetic_result(delta, rho, signs):
    return SorkinResult(
        epsilon=rho * delta, delta=delta, rho=rho, rho_defined=True,
        i_ab=signs[0] * delta / 3, i_bc=signs[1] * delta / 3,
        i_ca=signs[2] * delta / 3,
        s_ab=signs[0], s_bc=signs[1], s_ca=signs[2],
    )


def near_null_vector(rng, alpha=1e-3, background=0.05):
    """Random vector close to the quadratic null, mixed pair signs."""
    amps = random_triple(rng)
    from bornlab.interference import PathAmplitudes

    return ProbabilityVector.from_rule(
        ProbabilityRule(alpha), PathAmplitudes(amps), background=background
    )


class TestPowerSigma:
    def test_all_equal_unit_vector(self):
        pv = ProbabilityVector.from_array([1.0] * 8)
        res = synthetic_result(delta=1.0, rho=0.0, signs=(1, 1, 1))
        dp = 1e-3
        assert power_sigma(pv, res, dp) == pytest.approx(math.sqrt(8) * dp, rel=1e-12)

    def test_signs_irrelevant_at_zero_rho(self, rng):
        pv = ProbabilityVector.from_array(rng.uniform(0.5, 2.0, 8))
        values = {
            power_sigma(pv, synthetic_result(2.0, 0.0, signs), 1e-2)
            for signs in [(1, 1, 1), (-1, 1, -1), (0, -1, 1), (-1, -1, -1)]
        }
        assert len(values) == 1

    def test_reduces_to_plain_quadrature_at_zero_rho(self, rng):
        for _ in range(20):
            p = rng.uniform(0.0, 3.0, 8)
            pv = ProbabilityVector.from_array(p)
            signs = tuple(rng.choice([-1, 0, 1], 3))
            res = synthetic_result(delta=1.7, rho=0.0, signs=signs)
            want = math.sqrt(np.sum(p**2)) * 5e-3 / 1.7
            assert power_sigma(pv, res, 5e-3) == pytest.approx(want, rel=1e-12)

    def test_undefined_rho_propagates(self):
        pv = ProbabilityVector.from_array([1.0] * 8)
        res = sorkin(pv)  # delta = 0 -> undefined
        assert math.isnan(power_sigma(pv, res, 1e-3))

    def test_matches_monte_carlo(self, rng):
        checked = 0
        seed = 0
        while checked < 4:
            seed += 1
            pv = near_null_vector(rng)
            res = sorkin(pv)
            if not res.rho_defined or abs(res.rho) > 5e-3:
                continue
            if min(abs(res.i_ab), abs(res.i_bc), abs(res.i_ca)) < 0.05 * res.delta:
                continue
            pred = power_sigma(pv, res, 1e-3)
            mc = mc_power_rho_std(pv.array, 1e-3, samples=300000, seed=seed)
            assert pred == pytest.approx(mc, rel=0.02)
            checked += 1

    def test_negative_dp_rejected(self):
        pv = ProbabilityVector.from_array([1.0] * 8)
        with pytest.raises(ValueError, match="dp"):
            power_sigma(pv, synthetic_result(1.0, 0.0, (1, 1, 1)), -0.1)


class TestPoissonSigma:
    def test_all_equal_counts(self):
        n = 1e5
        counts = ProbabilityVector.from_array([n] * 8)
        res = synthetic_result(delta=n, rho=0.0, signs=(1, 1, 1))
        assert poisson_sigma(counts, res) == pytest.approx(math.sqrt(8 / n), rel=1e-12)

    def test_quadrupling_counts_halves_sigma(self):
        n = 4e4
        r1 = synthetic_result(delta=n, rho=0.0, signs=(1, -1, 1))
        r4 = synthetic_result(delta=4 * n, rho=0.0, signs=(1, -1, 1))
        s1 = poisson_sigma(ProbabilityVector.from_array([n] * 8), r1)
        s4 = poisson_sigma(ProbabilityVector.from_array([4 * n] * 8), r4)
        assert s4 == pytest.approx(s1 / 2, rel=1e-12)

    def test_matches_monte_carlo(self, rng):
        checked = 0
        seed = 100
        while checked < 3:
            seed += 1
            pv = near_null_vector(rng)
            scale = 1e5 / pv.pABC
            counts = ProbabilityVector.from_array(np.round(pv.array * scale))
            res = sorkin(counts)
            if not res.rho_defined or abs(res.rho) > 5e-3:
                continue
            noise = math.sqrt(float(np.max(counts.array)))
            if min(abs(res.i_ab), abs(res.i_bc), abs(res.i_ca)) < 30 * noise:
                continue
            pred = poisson_sigma(counts, res)
            mc = mc_poisson_rho_std(counts.array, samples=60000, seed=seed)
            assert pred == pytest.approx(mc, rel=0.03)
            checked += 1


class TestPowerSigmaCurves:
    def test_matches_scalar(self, rng):
        # the same bits for a point whatever the width of its stack
        stack = rng.uniform(0.1, 4.0, size=(8, 40))
        curves = sorkin_curves(stack, guard=1e-9)
        unit = power_sigma_curves(stack, curves, 1.0)
        assert np.count_nonzero(np.isfinite(unit)) >= 10
        for i in range(stack.shape[1]):
            column = stack[:, i:i + 1]
            alone = power_sigma_curves(column, sorkin_curves(column, guard=1e-9), 1.0)
            pv = ProbabilityVector.from_array(stack[:, i])
            scalar = power_sigma(pv, sorkin(pv, guard=1e-9), 1.0)
            assert alone.tobytes() == unit[i:i + 1].tobytes()
            assert np.float64(scalar).tobytes() == unit[i].tobytes()

    def test_negative_bracket_flags_nan(self):
        # |rho| of order 1 with opposing signs drives the bracket negative
        pv = ProbabilityVector.from_array(
            [1.493, 3.36, 0.998, 4.711, 1.826, 0.527, 3.146, 4.636]
        )
        res = sorkin(pv)
        assert res.rho_defined and abs(res.rho) > 0.3
        assert math.isnan(power_sigma(pv, res, 1e-3))


class TestDetectorResponse:
    def test_identity_when_disabled(self):
        m = DetectorModel()
        assert detector_response(m, 12345.6) == 12345.6

    def test_dead_time_deficit_matches_closed_form(self):
        m = DetectorModel(dead_time=50e-9)
        measured = detector_response(m, 80000.0)
        assert measured == pytest.approx(80000.0 / 1.004, rel=1e-12)
        deficit = 1.0 - measured / 80000.0
        assert deficit == pytest.approx(0.004 / 1.004, rel=1e-9)  # 0.398%

    def test_full_scale_nonlinearity_definition(self):
        m = DetectorModel(nonlinearity=0.01, full_scale_rate=5e5)
        assert detector_response(m, 5e5) == pytest.approx(5e5 * 0.99, rel=1e-12)

    def test_dark_rate_adds_before_response(self):
        m = DetectorModel(dark_rate=200.0)
        assert detector_response(m, 0.0) == 200.0
        m2 = DetectorModel(dead_time=1e-6, dark_rate=200.0)
        assert detector_response(m2, 300.0) == pytest.approx(500.0 / (1 + 500.0 * 1e-6))

    def test_monotone_on_full_range(self, rng):
        for _ in range(25):
            m = DetectorModel(
                dead_time=float(rng.uniform(0, 1e-5)),
                nonlinearity=float(rng.uniform(0, 0.5)),
                full_scale_rate=float(rng.uniform(1e4, 1e6)),
                dark_rate=float(rng.uniform(0, 1e3)),
            )
            r = np.linspace(0.0, m.full_scale_rate, 513)
            out = detector_response(m, r)
            assert np.all(np.diff(out) >= 0.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            detector_response(DetectorModel(), -1.0)

    def test_model_validation(self):
        with pytest.raises(ValueError, match="nonlinearity"):
            DetectorModel(nonlinearity=1.0)
        with pytest.raises(ValueError, match="dead_time"):
            DetectorModel(dead_time=-1e-9)
        with pytest.raises(ValueError, match="dwell_time"):
            DetectorModel(dwell_time=0.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("field", ["dead_time", "full_scale_rate", "dark_rate",
                                       "dwell_time"])
    def test_model_needs_finite_values(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            DetectorModel(**{field: value})


class TestDetectorSweep:
    def test_ideal_detector_is_null(self, plate, mask):
        u = np.linspace(-3e4, 3e4, 301)
        sweep = detector_rho_sweep(plate, mask, DetectorModel(), u)
        d = sweep.curves.rho_defined
        assert np.max(np.abs(sweep.curves.rho[d])) < 1e-12

    def test_nonlinearity_band(self, plate, mask):
        u = np.linspace(-3e4, 3e4, 601)
        m = DetectorModel(nonlinearity=0.01, full_scale_rate=80000.0)
        sweep = detector_rho_sweep(plate, mask, m, u, peak_rate=80000.0,
                                   dynamic_range=100.0)
        d = sweep.curves.rho_defined
        max_rho = np.max(np.abs(sweep.curves.rho[d]))
        assert 0.002 <= max_rho <= 0.02

    def test_dead_time_center_value(self, plate, mask):
        u = np.linspace(-3e4, 3e4, 601)
        m = DetectorModel(dead_time=50e-9)
        sweep = detector_rho_sweep(plate, mask, m, u, peak_rate=80000.0,
                                   dynamic_range=100.0)
        center = np.argmin(np.abs(u))
        rho0 = abs(sweep.curves.rho[center])
        assert 0.003 / 2 <= rho0 <= 0.003 * 2

    def test_detected_range_matches_anchors(self, plate, mask):
        u = np.linspace(-3e4, 3e4, 601)
        sweep = detector_rho_sweep(plate, mask, DetectorModel(), u,
                                   peak_rate=50000.0, dynamic_range=100.0)
        assert np.max(sweep.patterns) == pytest.approx(50000.0, rel=1e-12)
        assert np.min(sweep.patterns) == pytest.approx(500.0, rel=1e-12)

    def test_requires_ideal_optics(self):
        leaky = triple_slit_plate(leakage_amplitude=0.1)
        m = combination_mask_for_plate(leaky)
        with pytest.raises(ValueError, match="zero leakage"):
            detector_rho_sweep(leaky, m, DetectorModel(), np.array([0.0]))
        plate = triple_slit_plate()
        displaced = combination_mask_for_plate(plate, displacement=1e-6)
        with pytest.raises(ValueError, match="displacement"):
            detector_rho_sweep(plate, displaced, DetectorModel(), np.array([0.0]))


class TestEndToEndNull:
    def test_everything_off_cancels_at_every_grid_point(self, plate, mask):
        # no fluctuation, no nonlinearity, no dead time, no dark counts,
        # no leakage, no displacement: epsilon vanishes pointwise
        u = np.linspace(-4e4, 4e4, 1001)
        stacked = pattern_set(plate, mask, u)
        curves = sorkin_curves(stacked)
        peak = np.max(stacked[7])
        assert np.max(np.abs(curves.epsilon)) <= 1e-10 * peak

    def test_detector_sweep_never_exceeds_inverse_guard(self, plate, mask):
        guard = 1e-9
        u = np.linspace(-4e4, 4e4, 1001)  # includes envelope zeros
        m = DetectorModel(nonlinearity=0.01, full_scale_rate=80000.0)
        sweep = detector_rho_sweep(plate, mask, m, u, peak_rate=80000.0,
                                   dynamic_range=100.0, guard=guard)
        d = sweep.curves.rho_defined
        assert np.all(np.abs(sweep.curves.rho[d]) <= 1.0 / guard)
        assert np.all(np.isnan(sweep.curves.rho[~d]))


class TestMisalignmentSweep:
    def test_zero_displacement_with_leakage_is_null(self):
        g = math.sqrt(0.05)
        plate = triple_slit_plate(leakage_amplitude=g)
        mask = combination_mask_for_plate(plate, BLOCKING, leakage_amplitude=g)
        u = np.linspace(-3e4, 3e4, 500)
        sweep, disp = misalignment_rho_sweep(
            plate, mask, lambda rng: 0.0, u, seed=0
        )
        assert all(v == 0.0 for v in disp.values())
        d = sweep.curves.rho_defined
        assert np.max(np.abs(sweep.curves.rho[d])) <= 1e-10

    def test_zero_leakage_small_displacements_is_exact_ideal(self, plate):
        mask = combination_mask_for_plate(plate)
        u = np.linspace(-3e4, 3e4, 256)
        sweep, _ = misalignment_rho_sweep(
            plate, mask, uniform_displacement_sampler(0, 10e-6), u, seed=5
        )
        ideal = pattern_set(plate, mask, u)
        assert np.array_equal(sweep.patterns, ideal)

    def test_leaky_displaced_mask_activates(self):
        g = math.sqrt(0.05)
        plate = triple_slit_plate(leakage_amplitude=g)
        mask = combination_mask_for_plate(plate, BLOCKING, leakage_amplitude=g)
        u = np.linspace(-3e4, 3e4, 400)
        sweep, disp = misalignment_rho_sweep(
            plate, mask, uniform_displacement_sampler(0, 10e-6), u, seed=0
        )
        d = sweep.curves.rho_defined
        assert np.max(np.abs(sweep.curves.rho[d])) > 1e-6
        assert all(0.0 <= v <= 10e-6 for v in disp.values())
        # deterministic: same seed reproduces bit for bit
        again, disp2 = misalignment_rho_sweep(
            plate, mask, uniform_displacement_sampler(0, 10e-6), u, seed=0
        )
        assert disp == disp2
        assert np.array_equal(sweep.patterns, again.patterns)
        nz = ~np.isnan(sweep.curves.rho)
        assert np.array_equal(sweep.curves.rho[nz], again.curves.rho[nz])

    def test_no_emitted_rho_exceeds_inverse_guard(self):
        g = math.sqrt(0.05)
        plate = triple_slit_plate(leakage_amplitude=g)
        mask = combination_mask_for_plate(plate, BLOCKING, leakage_amplitude=g)
        guard = 1e-9
        # grid including sinc zeros where delta vanishes
        u = np.linspace(-4e4, 4e4, 1001)
        sweep, _ = misalignment_rho_sweep(
            plate, mask, uniform_displacement_sampler(0, 10e-6), u, seed=3,
            guard=guard,
        )
        d = sweep.curves.rho_defined
        assert np.all(np.abs(sweep.curves.rho[d]) <= 1.0 / guard)
        assert np.all(np.isnan(sweep.curves.rho[~d]))

    def test_sampler_validation(self):
        with pytest.raises(ValueError, match="low <= high"):
            uniform_displacement_sampler(1e-6, 0.0)


class TestDisplacementLayout:
    def test_draw_is_eight_sampler_calls_on_its_own_stream(self):
        # draw s: eight calls, in COMBINATIONS order, on the one generator
        # substream(seed, TAG_DISPLACEMENT, s); no other draw enters
        sampler = uniform_displacement_sampler(0.0, 10e-6)
        seed = 11
        for s in (0, 1, 5):
            rng = substream(seed, TAG_DISPLACEMENT, s)
            want = [sampler(rng) for _ in COMBINATIONS]
            got = systematics._displacement_draw(sampler, seed, s)
            assert list(got) == list(COMBINATIONS)
            assert list(got.values()) == want

    def test_sweep_uses_draw_zero(self):
        plate = triple_slit_plate(leakage_amplitude=math.sqrt(0.05))
        mask = combination_mask_for_plate(plate, BLOCKING, leakage_amplitude=math.sqrt(0.05))
        u = np.linspace(-3e4, 3e4, 41)
        sampler = uniform_displacement_sampler(0.0, 10e-6)
        sweep, used = misalignment_rho_sweep(plate, mask, sampler, u, seed=11)
        assert used == systematics._displacement_draw(sampler, 11, 0)
        want = pattern_set(plate, mask, u, displacements=used)
        assert sweep.patterns.tobytes() == want.tobytes()


class TestModelValidation:
    def test_power_model(self):
        with pytest.raises(ValueError, match="mean_power"):
            PowerModel(mean_power=0.0)
        with pytest.raises(ValueError, match="sequence_order"):
            PowerModel(mean_power=1.0, sequence_order="backwards")
        with pytest.raises(ValueError, match="relative_fluctuation"):
            PowerModel(mean_power=1.0, relative_fluctuation=-0.1)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("field", ["mean_power", "relative_fluctuation",
                                       "monitor_counts"])
    def test_power_model_needs_finite_values(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            PowerModel(**{"mean_power": 1.0, field: value})
