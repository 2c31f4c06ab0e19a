import math

import numpy as np
import pytest

from bornlab import systematics
from bornlab._streams import TAG_DISPLACEMENT, substream
from bornlab.interference import (
    COMBINATIONS,
    ProbabilityRule,
    SorkinCurves,
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
    poisson_sigma_curves,
    power_sigma_curves,
    uniform_displacement_sampler,
)
from conftest import combination_probabilities, random_triple
from oracles import mc_poisson_rho_std, mc_power_rho_std


def synthetic_curves(delta, rho, signs):
    """One-point curves with the given delta, rho and pair signs."""
    values = (signs[0] * delta / 3, signs[1] * delta / 3, signs[2] * delta / 3,
              rho * delta, delta, rho, True)
    return SorkinCurves(*(np.array([v]) for v in values))


def near_null_vector(rng, alpha=1e-3, background=0.05):
    """Random (8, 1) vector close to the quadratic null, mixed pair signs."""
    return combination_probabilities(
        ProbabilityRule(alpha), random_triple(rng), background
    )


def well_separated(curves, min_pair):
    """Whether one-point curves have a defined ``|rho| <= 5e-3`` and every
    pairwise term at least ``min_pair`` in size."""
    pairs = np.abs([curves.i_ab[0], curves.i_bc[0], curves.i_ca[0]])
    return (curves.rho_defined[0] and abs(curves.rho[0]) <= 5e-3
            and pairs.min() >= min_pair)


class TestPowerSigma:
    def test_all_equal_unit_vector(self):
        p = np.ones((8, 1))
        curves = synthetic_curves(delta=1.0, rho=0.0, signs=(1, 1, 1))
        dp = 1e-3
        got = power_sigma_curves(p, curves, dp)[0]
        assert got == pytest.approx(math.sqrt(8) * dp, rel=1e-12)

    def test_signs_irrelevant_at_zero_rho(self, rng):
        p = rng.uniform(0.5, 2.0, (8, 1))
        values = {
            power_sigma_curves(p, synthetic_curves(2.0, 0.0, signs), 1e-2)[0]
            for signs in [(1, 1, 1), (-1, 1, -1), (0, -1, 1), (-1, -1, -1)]
        }
        assert len(values) == 1

    def test_reduces_to_plain_quadrature_at_zero_rho(self, rng):
        for _ in range(20):
            p = rng.uniform(0.0, 3.0, (8, 1))
            signs = tuple(rng.choice([-1, 0, 1], 3))
            curves = synthetic_curves(delta=1.7, rho=0.0, signs=signs)
            want = math.sqrt(np.sum(p**2)) * 5e-3 / 1.7
            got = power_sigma_curves(p, curves, 5e-3)[0]
            assert got == pytest.approx(want, rel=1e-12)

    def test_undefined_rho_propagates(self):
        p = np.ones((8, 1))  # delta = 0 -> undefined
        assert math.isnan(power_sigma_curves(p, sorkin_curves(p), 1e-3)[0])

    def test_matches_monte_carlo(self, rng):
        checked = 0
        seed = 0
        while checked < 4:
            seed += 1
            p = near_null_vector(rng)
            curves = sorkin_curves(p)
            if not well_separated(curves, 0.05 * curves.delta[0]):
                continue
            pred = power_sigma_curves(p, curves, 1e-3)[0]
            mc = mc_power_rho_std(p[:, 0], 1e-3, samples=300000, seed=seed)
            assert pred == pytest.approx(mc, rel=0.02)
            checked += 1

    def test_negative_dp_rejected(self):
        with pytest.raises(ValueError, match="dp"):
            power_sigma_curves(np.ones((8, 1)), synthetic_curves(1.0, 0.0, (1, 1, 1)), -0.1)

    def test_nan_dp_rejected(self):
        # a NaN dp passes a `dp < 0` check and would give NaN everywhere
        with pytest.raises(ValueError, match="dp"):
            power_sigma_curves(np.ones((8, 1)), synthetic_curves(1.0, 0.0, (1, 1, 1)),
                               math.nan)


class TestPoissonSigma:
    def test_all_equal_counts(self):
        n = 1e5
        curves = synthetic_curves(delta=n, rho=0.0, signs=(1, 1, 1))
        got = poisson_sigma_curves(np.full((8, 1), n), curves)[0]
        assert got == pytest.approx(math.sqrt(8 / n), rel=1e-12)

    def test_quadrupling_counts_halves_sigma(self):
        n = 4e4
        r1 = synthetic_curves(delta=n, rho=0.0, signs=(1, -1, 1))
        r4 = synthetic_curves(delta=4 * n, rho=0.0, signs=(1, -1, 1))
        s1 = poisson_sigma_curves(np.full((8, 1), n), r1)[0]
        s4 = poisson_sigma_curves(np.full((8, 1), 4 * n), r4)[0]
        assert s4 == pytest.approx(s1 / 2, rel=1e-12)

    def test_matches_monte_carlo(self, rng):
        checked = 0
        seed = 100
        while checked < 3:
            seed += 1
            p = near_null_vector(rng)
            counts = np.round(p * (1e5 / p[7, 0]))
            curves = sorkin_curves(counts)
            if not well_separated(curves, 30 * math.sqrt(counts.max())):
                continue
            pred = poisson_sigma_curves(counts, curves)[0]
            mc = mc_poisson_rho_std(counts[:, 0], samples=60000, seed=seed)
            assert pred == pytest.approx(mc, rel=0.03)
            checked += 1


#: Power and Poisson sigmas of three vectors, frozen from the scalar
#: ``power_sigma`` and ``poisson_sigma`` that the curve functions
#: replaced: near-null vectors of the cubic rule (alpha 1e-3 and 2e-2,
#: amplitudes (1, 0.9+0.1j, 1.1-0.05j) and (1, -0.6+0.5j, 0.3-0.9j),
#: backgrounds 0.05 and 0.02) with pair signs (+1, +1, +1) and
#: (-1, -1, +1), and an all-equal vector, whose rho is undefined.  The
#: counts are each vector times 1e5.  Columns: power sigma at dp = 1e-3
#: and dp = 1, then the Poisson sigma of the counts.
FROZEN_SIGMAS = {
    "same_signs": (
        [0.05, 1.051, 0.8707425415813274, 1.2638351271299488, 3.676887519727739,
         4.060507501171753, 4.471768876115966, 9.079511250781215],
        [5000.0, 105100.0, 87074.25415813274, 126383.51271299488, 367688.75197277387,
         406050.75011717534, 447176.8876115966, 907951.1250781214],
        (0.0019472591641397391, 1.947259164139739, 0.0026162516717206812),
    ),
    "mixed_signs": (
        [0.02, 1.04, 0.6395285046046061, 0.9370762993649093, 0.43525056187469496,
         0.2725, 2.5990569415042093, 0.6804809350727881],
        [2000.0, 104000.0, 63952.850460460606, 93707.62993649094, 43525.0561874695,
         27250.000000000004, 259905.69415042092, 68048.09350727881],
        (0.000993563454589383, 0.9935634545893831, 0.0025823360663216224),
    ),
    "undefined": ([2.5] * 8, [250000.0] * 8, (math.nan, math.nan, math.nan)),
}


class TestFrozenSigmas:
    @staticmethod
    def sigmas(p, counts):
        curves, count_curves = sorkin_curves(p), sorkin_curves(counts)
        return np.array([power_sigma_curves(p, curves, 1e-3),
                         power_sigma_curves(p, curves, 1.0),
                         poisson_sigma_curves(counts, count_curves)])

    @pytest.mark.parametrize("name", sorted(FROZEN_SIGMAS))
    def test_one_point_reproduces_the_scalar_bits(self, name):
        p, counts, want = FROZEN_SIGMAS[name]
        got = self.sigmas(np.array(p)[:, None], np.array(counts)[:, None])
        assert got[:, 0].tobytes() == np.array(want).tobytes()

    def test_stacked_vectors_reproduce_the_scalar_bits(self):
        names = sorted(FROZEN_SIGMAS)
        p, counts = (np.array([FROZEN_SIGMAS[n][i] for n in names]).T for i in (0, 1))
        want = np.array([FROZEN_SIGMAS[n][2] for n in names]).T
        assert self.sigmas(p, counts).tobytes() == want.tobytes()

    def test_pair_signs_as_stated(self):
        for name, signs in (("same_signs", (1, 1, 1)), ("mixed_signs", (-1, -1, 1))):
            curves = sorkin_curves(np.array(FROZEN_SIGMAS[name][0])[:, None])
            assert np.sign([curves.i_ab, curves.i_bc, curves.i_ca])[:, 0].tolist() == list(signs)
        assert not sorkin_curves(np.full((8, 1), 2.5)).rho_defined[0]


class TestPowerSigmaCurves:
    @pytest.mark.parametrize("poisson", [False, True])
    def test_one_column_has_its_bits_in_the_stack(self, rng, poisson):
        # the same bits for a point whatever the width of its stack
        def sigma(p, curves):
            if poisson:
                return poisson_sigma_curves(p, curves)
            return power_sigma_curves(p, curves, 1.0)

        stack = rng.uniform(0.1, 4.0, size=(8, 40))
        unit = sigma(stack, sorkin_curves(stack, guard=1e-9))
        assert np.count_nonzero(np.isfinite(unit)) >= 10
        for i in range(stack.shape[1]):
            column = stack[:, i:i + 1]
            alone = sigma(column, sorkin_curves(column, guard=1e-9))
            assert alone.tobytes() == unit[i:i + 1].tobytes()

    def test_negative_bracket_flags_nan(self):
        # |rho| of order 1 with opposing signs drives the bracket negative
        p = np.array([[1.493, 3.36, 0.998, 4.711, 1.826, 0.527, 3.146, 4.636]]).T
        curves = sorkin_curves(p)
        assert curves.rho_defined[0] and abs(curves.rho[0]) > 0.3
        assert math.isnan(power_sigma_curves(p, curves, 1e-3)[0])


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
