import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from bornlab.interference import COMBINATIONS, sorkin_curves
from bornlab.optics import (
    BLOCKING,
    OPENING,
    CombinationAperture,
    CombinationMask,
    SlitPlate,
    build_combination_aperture,
    combination_mask_for_plate,
    far_field_amplitude,
    pattern_set,
    triple_slit_plate,
)
from oracles import build_combination_aperture_scan, single_slit_energy_quadrature

W = 30e-6
D = 100e-6


class TestGeometryValidation:
    def test_overlapping_slits_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            SlitPlate(((0.0, 50e-6), (20e-6, 50e-6)))

    def test_slit_beyond_plate_rejected(self):
        with pytest.raises(ValueError, match="beyond the plate"):
            SlitPlate(((1.9e-3, 300e-6),), plate_half_width=2e-3)

    def test_leakage_amplitude_bounds(self):
        with pytest.raises(ValueError, match="leakage amplitude"):
            triple_slit_plate(leakage_amplitude=1.5)

    def test_mask_scheme_validation(self, plate):
        with pytest.raises(ValueError, match="scheme"):
            CombinationMask("diagonal", {"ABC": ()})

    def test_mask_unknown_combination(self):
        with pytest.raises(ValueError, match="unknown combination"):
            CombinationMask(OPENING, {"AD": ()})

    def test_aperture_transmission_bound(self):
        with pytest.raises(ValueError, match="exceed 1"):
            CombinationAperture(np.array([0.0, 1.0]), np.array([1.5]), "A")

    def test_missing_feature_row(self, plate):
        mask = CombinationMask(OPENING, {"ABC": ((0.0, 100e-6),)})
        with pytest.raises(ValueError, match="no feature row"):
            build_combination_aperture(plate, mask, "AB")

    @pytest.mark.parametrize("edges, values", [
        ([0.0, 1e-4], [math.nan]),
        ([0.0, 1e-4, 2e-4], [0.5, -math.inf]),
        ([0.0, math.inf], [1.0]),
        ([-math.inf, 0.0], [0.5]),
        ([0.0, math.nan, 2e-4], [1.0, 1.0]),
        ([0.0, 1e-4, 2e-4], [math.inf, 0.5]),
    ])
    def test_aperture_non_finite_rejected(self, edges, values):
        with pytest.raises(ValueError, match="edges and values must be finite"):
            CombinationAperture(np.array(edges), np.array(values), "A")

    @pytest.mark.parametrize("half", [math.inf, math.nan])
    def test_plate_half_width_must_be_finite(self, half):
        with pytest.raises(ValueError, match=r"plate_half_width must be finite and > 0 \(got"):
            triple_slit_plate(plate_half_width=half)


class TestApertureConstruction:
    def test_ideal_all_open(self, plate, mask):
        ap = build_combination_aperture(plate, mask, "ABC")
        for c in (-D, 0.0, D):
            assert ap.transmission(c) == 1.0
            assert ap.transmission(c + W / 2 - 1e-9) == 1.0
        for x in (-50e-6, 50e-6, -1e-3, 1.5e-3, -D - 40e-6):
            assert ap.transmission(x) == 0.0
        assert ap.transmission(plate.plate_half_width + 1e-6) == 0.0

    def test_ideal_single_combination(self, plate, mask):
        ap = build_combination_aperture(plate, mask, "B")
        assert ap.transmission(0.0) == 1.0
        assert ap.transmission(-D) == 0.0
        assert ap.transmission(D) == 0.0

    def test_all_closed_is_opaque(self, plate, mask):
        ap = build_combination_aperture(plate, mask, "0")
        x = np.linspace(-1.5e-3, 1.5e-3, 401)
        assert np.all(ap.transmission(x) == 0.0)

    def test_leakage_pointwise_product(self):
        # plate and mask both leak g; opening scheme, combination AB
        g = 0.2
        plate = triple_slit_plate(leakage_amplitude=g)
        mask = combination_mask_for_plate(plate, OPENING, leakage_amplitude=g)
        ap = build_combination_aperture(plate, mask, "AB")
        assert ap.transmission(-D) == 1.0          # open slit A
        assert ap.transmission(0.0) == 1.0         # open slit B
        assert ap.transmission(D) == pytest.approx(g)  # slit C under mask leakage
        # plate-opaque region inside the opening over slit A
        assert ap.transmission(-D + 40e-6) == pytest.approx(g)
        # both layers opaque
        assert ap.transmission(1e-3) == pytest.approx(g * g)

    def test_displacement_within_margin_keeps_ideal_aperture(self, plate):
        # (opening - slit)/2 = 35 um margin; 10 um displacement is safe
        ideal = combination_mask_for_plate(plate, OPENING)
        moved = combination_mask_for_plate(plate, OPENING, displacement=10e-6)
        for combo in COMBINATIONS:
            a = build_combination_aperture(plate, ideal, combo)
            b = build_combination_aperture(plate, moved, combo)
            assert np.array_equal(a.edges, b.edges)
            assert np.array_equal(a.values, b.values)

    def test_blocking_scheme_covers_closed_slits(self, plate):
        mask = combination_mask_for_plate(plate, BLOCKING, leakage_amplitude=0.1)
        ap = build_combination_aperture(plate, mask, "AB")
        assert ap.transmission(-D) == 1.0
        assert ap.transmission(0.0) == 1.0
        assert ap.transmission(D) == pytest.approx(0.1)


#: Lattice step of the exact geometries below: a power of two, so that
#: every center, width and edge on the lattice is exact in float64.
STEP = 2.0 ** -14


def lattice_row(rng, first, last, least, most):
    """``least`` to ``most`` non-overlapping (center, width) features with
    edges on the lattice points ``first..last``; neighbours may touch, and
    so may the first feature and point ``first``."""
    feats, pos = [], first + int(rng.integers(0, 3))
    for _ in range(int(rng.integers(least, most + 1))):
        width = int(rng.integers(1, 6))
        if pos + width > last:
            break
        feats.append(((pos + width / 2) * STEP, width * STEP))
        pos += width + int(rng.integers(0, 3))
    return tuple(feats)


def lattice_geometry(rng):
    """A plate of up to four slits on the lattice and a mask whose rows
    are empty, reach past the plate, or repeat some slits exactly."""
    slits = ()
    while not slits:
        slits = lattice_row(rng, -32, 32, 1, 4)
    plate = SlitPlate(slits, 32 * STEP, float(rng.choice([0.0, 0.3])))
    rows = {}
    for combo in COMBINATIONS:
        kind = rng.integers(3)
        if kind == 0:
            row = lattice_row(rng, -48, 48, 0, 4)
        elif kind == 1:
            row = tuple(s for s in slits if rng.random() < 0.5)
        else:
            row = ()
        rows[combo] = tuple(row[i] for i in rng.permutation(len(row)))
    mask = CombinationMask(str(rng.choice([OPENING, BLOCKING])), rows,
                           float(rng.choice([0.0, 0.2])), int(rng.integers(-3, 4)) * STEP)
    return plate, mask


def uniform_geometry(rng):
    """Three slits and masks of random extent with no lattice."""
    separation = float(rng.uniform(70e-6, 200e-6))
    plate = triple_slit_plate(float(rng.uniform(5e-6, 60e-6)), separation,
                              float(rng.uniform(3e-4, 3e-3)), float(rng.uniform(0.0, 0.5)))
    mask = combination_mask_for_plate(plate, str(rng.choice([OPENING, BLOCKING])),
                                      float(rng.uniform(10e-6, separation)),
                                      float(rng.uniform(0.0, 0.5)))
    return plate, mask


class TestApertureBuilderAgainstScan:
    """``build_combination_aperture`` looks values up by bisection; the
    edges and values must be the bytes of the scanning builder in
    ``oracles``."""

    @staticmethod
    def assert_same_aperture(plate, mask, combo, shift):
        got = build_combination_aperture(plate, mask, combo, shift)
        want = build_combination_aperture_scan(plate, mask, combo, shift)
        assert got.combination == want.combination
        for name in ("edges", "values"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_lattice_geometries(self, rng):
        # exact edges: features on slit edges, touching slits and
        # features, empty and unordered rows, rows past the plate,
        # negative shifts, and shifts of a few ulps, which leave cut
        # intervals whose midpoint rounds onto an edge
        for _ in range(150):
            plate, mask = lattice_geometry(rng)
            for combo in COMBINATIONS:
                shift = rng.choice([None, 0.0, int(rng.integers(-40, 41)) * STEP,
                                    int(rng.integers(-3, 4)) * 2.0 ** -61,
                                    float(rng.uniform(-3e-3, 3e-3))])
                self.assert_same_aperture(plate, mask, combo, shift)

    def test_uniform_geometries(self, rng):
        for _ in range(60):
            plate, mask = uniform_geometry(rng)
            for combo in COMBINATIONS:
                shift = float(rng.normal(0.0, 20e-6)) if rng.random() < 0.8 else None
                self.assert_same_aperture(plate, mask, combo, shift)

    @pytest.mark.parametrize("scheme", [OPENING, BLOCKING])
    def test_edges_one_ulp_apart(self, scheme):
        # cut intervals one ulp wide, whose midpoint rounds onto one end:
        # a feature next to the lattice slits, and lattice features next
        # to a slit off the lattice
        w = 16 * STEP
        on_lattice = ((1.5 * w, w), (-2.5 * w, w))
        for edge in (w, 2 * w, -3 * w, -2 * w):
            for side in (-np.inf, np.inf):
                near = float(np.nextafter(edge, side))
                for width in (w / 2, 3 * w):
                    for center in (near + width / 2, near - width / 2):
                        off_lattice = ((center, width),)
                        for slits, row in ((on_lattice, off_lattice), (off_lattice, on_lattice)):
                            plate = SlitPlate(slits, 16 * w, 0.3)
                            mask = CombinationMask(scheme, {"A": row}, 0.2)
                            for shift in (None, -math.ulp(center), math.ulp(center)):
                                self.assert_same_aperture(plate, mask, "A", shift)

    def test_missing_row_raises_like_the_scan(self, plate):
        mask = CombinationMask(OPENING, {"ABC": ()})
        for builder in (build_combination_aperture, build_combination_aperture_scan):
            with pytest.raises(ValueError, match="no feature row for combination 'AB'"):
                builder(plate, mask, "AB")


class TestFarField:
    def test_dc_amplitude_is_slit_width(self, plate, mask):
        ap = build_combination_aperture(plate, mask, "A")
        assert far_field_amplitude(ap, 0.0) == pytest.approx(W, rel=1e-12)

    def test_first_zero_at_inverse_width(self, plate, mask):
        ap = build_combination_aperture(plate, mask, "A")
        assert abs(far_field_amplitude(ap, 1.0 / W)) < 1e-18

    def test_three_slits_triple_amplitude_at_dc(self, plate, mask):
        one = build_combination_aperture(plate, mask, "B")
        all3 = build_combination_aperture(plate, mask, "ABC")
        a1 = far_field_amplitude(one, 0.0)
        a3 = far_field_amplitude(all3, 0.0)
        assert a3 == pytest.approx(3 * a1, rel=1e-12)
        assert abs(a3) ** 2 == pytest.approx(9 * abs(a1) ** 2, rel=1e-12)

    def test_grating_maxima_at_multiples_of_inverse_separation(self, plate, mask):
        ap = build_combination_aperture(plate, mask, "ABC")
        for m in (1, 2):
            u = m / D
            # all three slit phases realign: |A| = 3 w |sinc(pi w u)|
            expected = 3 * W * abs(math.sin(math.pi * W * u) / (math.pi * W * u))
            assert abs(far_field_amplitude(ap, u)) == pytest.approx(expected, rel=1e-10)

    def test_superposition_zero_leakage(self, plate, mask):
        u = np.linspace(-4e4, 4e4, 257)
        singles = {
            lab: far_field_amplitude(build_combination_aperture(plate, mask, lab), u)
            for lab in "ABC"
        }
        for combo in ("AB", "BC", "CA", "ABC"):
            got = far_field_amplitude(
                build_combination_aperture(plate, mask, combo), u
            )
            want = sum(singles[lab] for lab in combo)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-18)

    def test_scalar_and_array_agree(self, plate, mask):
        ap = build_combination_aperture(plate, mask, "ABC")
        u = np.array([0.0, 1234.5, -8.7e3])
        arr = far_field_amplitude(ap, u)
        for i, ui in enumerate(u):
            assert far_field_amplitude(ap, float(ui)) == arr[i]

    def test_energy_conservation_single_slit(self, plate, mask):
        ap = build_combination_aperture(plate, mask, "A")
        total = single_slit_energy_quadrature(
            lambda u: far_field_amplitude(ap, u), W, lobes=200
        )
        assert total == pytest.approx(W, rel=1e-6)


class TestPatternSet:
    def test_symmetric_plate_gives_even_curves(self, plate, mask):
        u = np.linspace(-4e4, 4e4, 501)  # odd count: includes 0, symmetric
        curves = pattern_set(plate, mask, u)
        for row in curves:
            np.testing.assert_allclose(row, row[::-1], rtol=1e-12, atol=1e-30)

    def test_all_closed_curve_vanishes_without_leakage(self, plate, mask):
        u = np.linspace(-4e4, 4e4, 101)
        curves = pattern_set(plate, mask, u)
        assert np.all(curves[COMBINATIONS.index("0")] == 0.0)

    def test_normalized_peak_is_one(self, plate, mask):
        u = np.linspace(-4e4, 4e4, 101)
        curves = pattern_set(plate, mask, u)
        assert np.max(curves[COMBINATIONS.index("ABC")]) == 1.0

    def test_leakage_only_null(self):
        # common leakage, identical alignment: pointwise epsilon cancels
        g = math.sqrt(0.05)
        for scheme in (OPENING, BLOCKING):
            plate = triple_slit_plate(leakage_amplitude=g)
            mask = combination_mask_for_plate(plate, scheme, leakage_amplitude=g)
            u = np.linspace(-3e4, 3e4, 1000)
            stacked = pattern_set(plate, mask, u)
            curves = sorkin_curves(stacked)
            peak = np.max(stacked[7])
            assert np.max(np.abs(curves.epsilon)) <= 1e-10 * peak

    @seed(20240811)
    @settings(max_examples=150, deadline=None)
    @given(
        slit_width=st.floats(5e-6, 60e-6),
        gap=st.floats(1e-6, 340e-6),
        feature_fraction=st.floats(0.01, 0.99),
        scheme=st.sampled_from([OPENING, BLOCKING]),
        plate_leakage=st.floats(0.0, 0.2),
        mask_leakage=st.floats(0.0, 0.2),
        shift=st.floats(-1.0, 1.0),
        background=st.floats(0.0, 10.0),
    )
    def test_common_leakage_and_displacement_null_property(
            self, slit_width, gap, feature_fraction, scheme, plate_leakage,
            mask_leakage, shift, background):
        # every aperture is the common background transmission plus the
        # same per-slit terms, so epsilon cancels up to rounding at the
        # scale of the largest curve; a uniform background cancels too
        separation = slit_width + gap
        feature_width = feature_fraction * separation
        # only lit geometries: behind an opening mask without leakage (or
        # so little that the curves would underflow), the displacement is
        # at most half the shift at which an opening leaves its slit
        reach = 100e-6
        if scheme == OPENING and max(plate_leakage, mask_leakage) < 1e-12:
            reach = min(reach, (feature_width + slit_width) / 4)
        plate = triple_slit_plate(slit_width, separation,
                                  leakage_amplitude=math.sqrt(plate_leakage))
        mask = combination_mask_for_plate(
            plate, scheme, feature_width,
            leakage_amplitude=math.sqrt(mask_leakage), displacement=shift * reach)
        u = np.linspace(-3e4, 3e4, 201)
        stacked = pattern_set(plate, mask, u)
        for curves in (stacked, stacked + background):
            epsilon = sorkin_curves(curves).epsilon
            assert np.max(np.abs(epsilon)) <= 64 * np.finfo(float).eps * np.max(curves)

    def test_dark_geometry_cannot_be_normalized(self):
        # an opaque opening mask whose every all-open opening, displaced by
        # 50 um, misses every slit: no light to normalize by
        plate = triple_slit_plate(W, D)
        mask = combination_mask_for_plate(plate, OPENING, 20e-6, displacement=50e-6)
        with pytest.raises(ValueError, match="all-open curve vanishes"):
            pattern_set(plate, mask, np.linspace(-3e4, 3e4, 201))

    def test_geometry_safety_null(self, plate):
        # zero leakage, displacement under the 35 um margin: exact ideal
        u = np.linspace(-4e4, 4e4, 400)
        ideal = pattern_set(plate, combination_mask_for_plate(plate), u)
        moved = pattern_set(plate, combination_mask_for_plate(plate, displacement=34e-6), u)
        assert np.array_equal(ideal, moved)
        # identical patterns give bitwise-identical statistics: the
        # displaced rho equals the ideal null up to float cancellation
        curves = sorkin_curves(moved)
        ideal_curves = sorkin_curves(ideal)
        assert np.array_equal(
            curves.rho[curves.rho_defined], ideal_curves.rho[ideal_curves.rho_defined]
        )
        assert np.max(np.abs(curves.rho[curves.rho_defined])) <= 1e-12

    @pytest.mark.parametrize("u", [[], [math.inf, 1.0], [1.0, -math.inf], [math.nan]])
    def test_empty_or_non_finite_grid_rejected(self, plate, mask, u):
        aperture = build_combination_aperture(plate, mask, "ABC")
        with pytest.raises(ValueError, match="non-empty and finite"):
            pattern_set(plate, mask, np.array(u))
        with pytest.raises(ValueError, match="non-empty and finite"):
            far_field_amplitude(aperture, np.array(u))
        if len(u) == 1:
            with pytest.raises(ValueError, match="non-empty and finite"):
                far_field_amplitude(aperture, u[0])
