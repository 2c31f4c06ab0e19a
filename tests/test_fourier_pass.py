"""The one-pass Fourier transform against the interval-by-interval sum.

``optics`` evaluates all apertures of a call in one pass, with shared
sinc and phase rows per block of ``u``; these tests require the exact
bits of the reference loop in ``oracles``, not closeness.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornlab import optics
from bornlab.interference import COMBINATIONS
from bornlab.optics import (
    BLOCKING,
    OPENING,
    CombinationAperture,
    build_combination_aperture,
    combination_mask_for_plate,
    far_field_amplitude,
    pattern_set,
    triple_slit_plate,
)
from conftest import evaluated_points
from oracles import far_field_amplitude_loop, pattern_set_loop

BLOCK = optics._BLOCK
#: Block sizes of the Fourier pass, each of which must give the loop's
#: bits: one point per block, a prime, the default, and one block for
#: most grids below.
BLOCK_SIZES = [1, 7, 128, 4096]


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_same_curves(got, want):
    """``pattern_set`` curves against other curves or the oracle's dict."""
    if isinstance(want, dict):
        assert list(want) == list(COMBINATIONS)
        want = np.stack([want[combo] for combo in COMBINATIONS])
    assert_same_bits(got, want)


def random_aperture(rng, n):
    edges = np.sort(rng.uniform(-2e-3, 2e-3, n + 1))
    values = rng.uniform(-1, 1, n)
    return CombinationAperture(edges, values, "ABC")


def leaky_plate():
    return triple_slit_plate(leakage_amplitude=0.2)


#: Plate and mask leakage amplitudes: the opaque geometry has zero-valued
#: intervals, which every Fourier pass leaves out.
GEOMETRIES = {"opaque": (0.0, 0.0), "leaky": (0.2, 0.1)}


def geometry(name, scheme, displacement=0.0):
    plate_leak, mask_leak = GEOMETRIES[name]
    plate = triple_slit_plate(leakage_amplitude=plate_leak)
    mask = combination_mask_for_plate(plate, scheme, leakage_amplitude=mask_leak,
                                      displacement=displacement)
    return plate, mask


def displacements(rng, scale=10e-6):
    return {c: float(rng.uniform(-scale, scale)) for c in COMBINATIONS}


def test_fourier_zero_width_grid_point(rng):
    # u = 0 exercises the sinc branch
    ap = random_aperture(rng, 4)
    out = far_field_amplitude(ap, np.array([0.0]))
    assert out[0] == pytest.approx(np.sum(ap.values * np.diff(ap.edges)), rel=1e-12)


class TestFarFieldAmplitude:
    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_random_intervals(self, rng, n):
        u = np.linspace(-6e4, 6e4, 3 * BLOCK + 17)
        for _ in range(5):
            ap = random_aperture(rng, n)
            assert_same_bits(far_field_amplitude(ap, u), far_field_amplitude_loop(ap, u))

    def test_grid_with_exact_zero(self, rng):
        # u = 0 takes the guarded sinc branch; the grid is asymmetric so
        # that the zero sits inside a block, not at its edge
        u = np.concatenate([np.linspace(-3e4, 0.0, 50), np.linspace(1e3, 4e4, 90)])
        assert np.count_nonzero(u == 0.0) == 1
        ap = random_aperture(rng, 9)
        got = far_field_amplitude(ap, u)
        assert_same_bits(got, far_field_amplitude_loop(ap, u))
        zero = int(np.flatnonzero(u == 0.0)[0])
        assert got[zero] == pytest.approx(np.sum(ap.values * np.diff(ap.edges)), rel=1e-12)

    def test_signed_zero_edges_and_centers(self):
        # intervals symmetric about 0 have center +0.0; -0.0 as an edge
        # and as a grid point must not be confused with +0.0
        edges = np.array([-3e-4, -1e-4, -0.0, 1e-4, 3e-4])
        ap = CombinationAperture(edges, np.array([0.3, 1.0, -0.5, 0.3]), "A")
        sym = CombinationAperture(np.array([-2e-4, 2e-4]), np.array([1.0]), "B")
        u = np.array([-0.0, 0.0, -1e4, 1e4, 5e-324, -5e-324, 2.5e4])
        for aperture in (ap, sym):
            assert_same_bits(far_field_amplitude(aperture, u),
                             far_field_amplitude_loop(aperture, u))

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128, np.clongdouble])
    def test_complex_values_rejected(self, dtype):
        # whatever the imaginary parts: a cast would drop them silently
        edges = np.array([-1e-4, 0.0, 1e-4])
        for values in ([0.5, 0.5j], [complex(0.3, 1e-300), 1.0], [1.0, 0.0],
                       [complex(-0.5, -0.0), 0.0], [complex(0.5, math.nan), 1.0]):
            with pytest.raises(ValueError, match="transmissions must be real"):
                CombinationAperture(edges, np.array(values, dtype=dtype), "A")

    def test_aperture_without_intervals_gives_zeros(self):
        empty = CombinationAperture(np.array([0.0]), np.array([]), "0")
        u = np.linspace(-1e4, 1e4, BLOCK + 3)
        got = far_field_amplitude(empty, u)
        assert_same_bits(got, np.zeros(u.size, dtype=np.complex128))
        assert_same_bits(got, far_field_amplitude_loop(empty, u))

    def test_zero_valued_intervals(self, rng):
        # zero-valued intervals, signed zeros among them, in random and
        # opaque apertures
        zeros = [0.0, -0.0]
        u = np.concatenate([np.linspace(-5e4, 5e4, BLOCK + 9), [0.0, -0.0]])
        for _ in range(20):
            ap = random_aperture(rng, 9)
            values = ap.values.copy()
            hit = rng.random(values.size) < 0.5
            values[hit] = rng.choice(zeros, np.count_nonzero(hit))
            ap = CombinationAperture(ap.edges, values, "AB")
            assert_same_bits(far_field_amplitude(ap, u), far_field_amplitude_loop(ap, u))
        for scheme in (OPENING, BLOCKING):
            plate, mask = geometry("opaque", scheme, displacement=3e-6)
            for combo in COMBINATIONS:
                ap = build_combination_aperture(plate, mask, combo)
                assert_same_bits(far_field_amplitude(ap, u), far_field_amplitude_loop(ap, u))

    @pytest.mark.parametrize("size", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    def test_block_edges(self, rng, size):
        u = np.linspace(-5e4, 4e4, size) if size > 1 else np.array([1234.5])
        ap = random_aperture(rng, 11)
        assert_same_bits(far_field_amplitude(ap, u), far_field_amplitude_loop(ap, u))

    @pytest.mark.parametrize("block", BLOCK_SIZES)
    def test_block_sizes(self, plate, mask, monkeypatch, block):
        ap = build_combination_aperture(plate, mask, "ABC")
        u = np.linspace(-4e4, 4e4, 4096)
        monkeypatch.setattr(optics, "_BLOCK", block)
        assert_same_bits(far_field_amplitude(ap, u), far_field_amplitude_loop(ap, u))


class TestPatternSet:
    @pytest.mark.parametrize("scheme", [OPENING, BLOCKING])
    @pytest.mark.parametrize("name", list(GEOMETRIES))
    def test_displaced_apertures(self, rng, name, scheme):
        plate, mask = geometry(name, scheme)
        u = np.linspace(-3e4, 3e4, 601)
        for _ in range(6):
            shifts = displacements(rng)
            assert_same_curves(pattern_set(plate, mask, u, displacements=shifts),
                               pattern_set_loop(plate, mask, u, displacements=shifts))
            for combo in COMBINATIONS:
                ap = build_combination_aperture(plate, mask, combo, shifts[combo])
                assert_same_bits(far_field_amplitude(ap, u), far_field_amplitude_loop(ap, u))

    @pytest.mark.parametrize("displacement", [0.0, 2e-6])
    @pytest.mark.parametrize("scheme", [OPENING, BLOCKING])
    @pytest.mark.parametrize("name", list(GEOMETRIES))
    def test_undisplaced_and_partly_displaced(self, name, scheme, displacement):
        # the mask centred on the plate, and shifted by a fraction of a slit
        plate, mask = geometry(name, scheme, displacement=displacement)
        u = np.linspace(-3e4, 3e4, 601)
        for shifts in (None, {}, {"AB": -3e-6, "0": 0.0}):
            assert_same_curves(pattern_set(plate, mask, u, displacements=shifts),
                               pattern_set_loop(plate, mask, u, displacements=shifts))

    @pytest.mark.parametrize("size", [1, BLOCK - 1, BLOCK, BLOCK + 1])
    def test_block_edges_with_exact_zero(self, rng, size):
        plate = leaky_plate()
        mask = combination_mask_for_plate(plate, OPENING, leakage_amplitude=0.1)
        u = np.linspace(-2e4, 2e4, size) if size > 1 else np.array([0.0])
        u[size // 2] = 0.0
        shifts = displacements(rng)
        assert_same_curves(pattern_set(plate, mask, u, displacements=shifts),
                           pattern_set_loop(plate, mask, u, displacements=shifts))

    @pytest.mark.parametrize("block", BLOCK_SIZES)
    def test_curves_identical_across_block_sizes(self, rng, monkeypatch, block):
        # a partial last block at sizes 7 and 128, one block at 4096
        plate = leaky_plate()
        mask = combination_mask_for_plate(plate, BLOCKING, leakage_amplitude=0.1)
        u = np.linspace(-4e4, 4e4, 3001)
        shifts = displacements(rng)
        monkeypatch.setattr(optics, "_BLOCK", block)
        assert_same_curves(pattern_set(plate, mask, u, displacements=shifts),
                           pattern_set_loop(plate, mask, u, displacements=shifts))


#: Points in every drawn grid: both zeros, and the smallest subnormal,
#: at which every sinc argument underflows to zero.
SPECIAL_POINTS = [0.0, -0.0, 5e-324]


@st.composite
def lit_geometries(draw):
    """A three-slit plate, a mask of either scheme with per-combination
    displacements, and leakages from none to 20% in intensity; the
    all-open curve is never dark, so every draw can be normalized."""
    slit_width = draw(st.floats(5e-6, 60e-6))
    separation = slit_width + draw(st.floats(1e-6, 340e-6))
    feature_width = draw(st.floats(0.01, 0.99)) * separation
    scheme = draw(st.sampled_from([OPENING, BLOCKING]))
    plate_leakage = draw(st.floats(0.0, 0.2))
    mask_leakage = draw(st.floats(0.0, 0.2))
    # behind an opening mask without leakage (or so little that the
    # curves would underflow), a displacement of at most half the shift
    # at which an opening leaves its slit keeps the all-open row lit
    reach = 100e-6
    if scheme == OPENING and max(plate_leakage, mask_leakage) < 1e-12:
        reach = min(reach, (feature_width + slit_width) / 4)
    plate = triple_slit_plate(slit_width, separation,
                              leakage_amplitude=math.sqrt(plate_leakage))
    mask = combination_mask_for_plate(
        plate, scheme, feature_width, leakage_amplitude=math.sqrt(mask_leakage),
        displacement=draw(st.floats(-1.0, 1.0)) * reach)
    shifts = {c: draw(st.floats(-1.0, 1.0)) * reach for c in COMBINATIONS}
    return plate, mask, shifts


@st.composite
def grids_with_zeros(draw):
    """Up to four blocks of points in any order, some of them mirrored,
    plus ``SPECIAL_POINTS``."""
    points = draw(st.lists(st.floats(-6e4, 6e4), max_size=2 * BLOCK))
    mirrored = draw(st.lists(st.floats(0.0, 6e4), max_size=BLOCK))
    return np.array(draw(st.permutations(
        points + mirrored + [-p for p in mirrored] + SPECIAL_POINTS)))


@settings(max_examples=60, deadline=None)
@given(geometry=lit_geometries(), u=grids_with_zeros())
def test_pattern_set_matches_loop_property(geometry, u):
    plate, mask, shifts = geometry
    assert_same_curves(pattern_set(plate, mask, u, displacements=shifts),
                       pattern_set_loop(plate, mask, u, displacements=shifts))


@st.composite
def mirror_grids(draw):
    """At most 41 points: a non-negative upper half, its negated mirror
    as the lower half, and for an odd size a middle point of either
    zero."""
    half = draw(st.lists(st.floats(0.0, 6e4), max_size=20))
    middle = draw(st.sampled_from([[], [0.0], [-0.0]]) if half else
                  st.sampled_from([[0.0], [-0.0]]))
    return np.array([-p for p in reversed(half)] + middle + half)


@settings(max_examples=40, deadline=None)
@given(geometry=lit_geometries(), u=mirror_grids(), data=st.data())
def test_mirror_rule_matches_loop_property(geometry, u, data):
    # the grid as drawn, a mirror, and with one lower-half point moved by
    # one ulp, which is none; every point must have the loop's bits
    plate, mask, shifts = geometry
    grids = [u]
    if u.size > 1:
        moved = u.copy()
        i = data.draw(st.integers(0, u.size // 2 - 1))
        moved[i] = np.nextafter(moved[i], data.draw(st.sampled_from([-np.inf, np.inf])))
        grids.append(moved)
    for grid in grids:
        assert_same_curves(pattern_set(plate, mask, grid, displacements=shifts),
                           pattern_set_loop(plate, mask, grid, displacements=shifts))


class TestDisplacementKeys:
    def test_unknown_label_rejected(self, plate, mask):
        with pytest.raises(ValueError, match="'ab'"):
            pattern_set(plate, mask, np.array([0.0, 1e3]), displacements={"A": 1e-6, "ab": 0.0})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_displacement_rejected(self, plate, mask, bad):
        with pytest.raises(ValueError, match="displacement must be finite"):
            pattern_set(plate, mask, np.array([0.0, 1e3]), displacements={"BC": bad})


def even_grids():
    """Grids of even curves: mirrors, whose upper half ``pattern_set``
    evaluates, and grids that share ``|u|`` without being a mirror, or
    where no two points share it, which it evaluates as given."""
    rng = np.random.default_rng(7)
    pairs = np.linspace(500.0, 4e4, 150)
    return {
        "mirrored": np.linspace(-3e4, 3e4, 601),
        "partly mirrored": np.linspace(-3e4, 3e4, 25001),
        "signed zeros": np.array([0.0, -0.0, 2e3, -2e3, 0.0, 7.5e3, -0.0, 5e-324, -5e-324]),
        "duplicates": np.repeat(np.linspace(-1e4, 2e4, 3 * BLOCK + 5), 3),
        "unsorted": rng.permutation(np.concatenate([pairs, -pairs[:90], [0.0, 1234.5]])),
        "all positive": np.linspace(250.0, 6e4, 2 * BLOCK + 9),
        "single point": np.array([-1.5e4]),
    }


class TestEvenCurves:
    """``pattern_set`` evaluates the upper half of a mirror grid and
    copies it to the lower half; the bits must stay those of the loop
    evaluated at every point as given."""

    @pytest.mark.parametrize("grid", list(even_grids()))
    @pytest.mark.parametrize("scheme", [OPENING, BLOCKING])
    @pytest.mark.parametrize("name", list(GEOMETRIES))
    def test_matches_loop_at_every_point(self, rng, monkeypatch, name, grid, scheme):
        u = even_grids()[grid]
        plate, mask = geometry(name, scheme)
        shifts = displacements(rng)
        want = pattern_set_loop(plate, mask, u, displacements=shifts)
        for block in BLOCK_SIZES:
            monkeypatch.setattr(optics, "_BLOCK", block)
            assert_same_curves(pattern_set(plate, mask, u, displacements=shifts), want)

    def test_mirrored_grid_is_evaluated_at_half_its_points(self, monkeypatch):
        # the step of this linspace is exactly 100.0
        assert evaluated_points(monkeypatch, np.linspace(-3e4, 3e4, 601)) == 301

    @pytest.mark.parametrize("u", [
        np.linspace(0.0, 6e4, 1000),
        np.linspace(-6e4, -0.0, 1000),
        np.array([-0.0, 1.0]),
        np.array([3.0, -1.0, 2.0]),
        np.array([5.0]),
    ])
    def test_grid_without_shared_magnitudes_is_used_as_given(self, monkeypatch, u):
        assert evaluated_points(monkeypatch, u) == u.size
