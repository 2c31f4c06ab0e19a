"""The one-pass Fourier transform against the interval-by-interval sum.

``optics`` evaluates all apertures of a call in one pass, with shared
sinc and phase rows per block of ``u``; these tests require the exact
bits of the reference loop in ``oracles``, not closeness.
"""

import numpy as np
import pytest

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
    values = rng.uniform(0, 1, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
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
        ap = CombinationAperture(edges, np.array([0.3, 1.0, 0.5j, 0.3]), "A")
        sym = CombinationAperture(np.array([-2e-4, 2e-4]), np.array([1.0 + 0j]), "B")
        u = np.array([-0.0, 0.0, -1e4, 1e4, 5e-324, -5e-324, 2.5e4])
        for aperture in (ap, sym):
            assert_same_bits(far_field_amplitude(aperture, u),
                             far_field_amplitude_loop(aperture, u))

    def test_aperture_without_intervals_gives_zeros(self):
        empty = CombinationAperture(np.array([0.0]), np.array([], dtype=complex), "0")
        u = np.linspace(-1e4, 1e4, BLOCK + 3)
        got = far_field_amplitude(empty, u)
        assert_same_bits(got, np.zeros(u.size, dtype=np.complex128))
        assert_same_bits(got, far_field_amplitude_loop(empty, u))

    def test_zero_valued_intervals(self, rng):
        # zero-valued intervals, signed zeros among them, in random and opaque apertures
        zeros = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
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

    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("scheme", [OPENING, BLOCKING])
    @pytest.mark.parametrize("name", list(GEOMETRIES))
    def test_undisplaced_and_partly_displaced(self, name, scheme, normalize):
        plate, mask = geometry(name, scheme, displacement=2e-6)
        u = np.linspace(-3e4, 3e4, 601)
        for shifts in (None, {}, {"AB": -3e-6, "0": 0.0}):
            assert_same_curves(
                pattern_set(plate, mask, u, normalize=normalize, displacements=shifts),
                pattern_set_loop(plate, mask, u, normalize=normalize, displacements=shifts))

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


class TestDisplacementKeys:
    def test_unknown_label_rejected(self, plate, mask):
        with pytest.raises(ValueError, match="'ab'"):
            pattern_set(plate, mask, np.array([0.0, 1e3]), displacements={"A": 1e-6, "ab": 0.0})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_displacement_rejected(self, plate, mask, bad):
        with pytest.raises(ValueError, match="displacement must be finite"):
            pattern_set(plate, mask, np.array([0.0, 1e3]), displacements={"BC": bad})


def even_grids():
    """Grids on which ``pattern_set`` evaluates each distinct ``|u|`` once,
    plus grids where no two points share ``|u|``."""
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
    """``pattern_set`` evaluates each distinct ``|u|`` once and copies the
    result to ``+u`` and ``-u``; the bits must stay those of the loop
    evaluated at every point as given."""

    @pytest.mark.parametrize("grid", list(even_grids()))
    @pytest.mark.parametrize("scheme", [OPENING, BLOCKING])
    @pytest.mark.parametrize("name", list(GEOMETRIES))
    def test_matches_loop_at_every_point(self, rng, monkeypatch, name, grid, scheme):
        u = even_grids()[grid]
        plate, mask = geometry(name, scheme)
        shifts = displacements(rng)
        want = pattern_set_loop(plate, mask, u, displacements=shifts)
        want_raw = pattern_set_loop(plate, mask, u, normalize=False, displacements=shifts)
        for block in BLOCK_SIZES:
            monkeypatch.setattr(optics, "_BLOCK", block)
            assert_same_curves(pattern_set(plate, mask, u, displacements=shifts), want)
            assert_same_curves(
                pattern_set(plate, mask, u, normalize=False, displacements=shifts), want_raw)

    def test_mirrored_grid_is_evaluated_at_half_its_points(self):
        keys, inverse = optics._distinct_magnitudes(np.linspace(-3e4, 3e4, 601), np.empty((2, 601)))
        assert keys.size == 301 and keys[0] == 0.0 and np.all(np.diff(keys) > 0)
        assert_same_bits(keys[inverse], np.abs(np.linspace(-3e4, 3e4, 601)))

    @pytest.mark.parametrize("u", [
        np.linspace(0.0, 6e4, 1000),
        np.linspace(-6e4, -0.0, 1000),
        np.array([-0.0, 1.0]),
        np.array([3.0, -1.0, 2.0]),
        np.array([5.0]),
    ])
    def test_grid_without_shared_magnitudes_is_used_as_given(self, u):
        assert optics._distinct_magnitudes(u, np.empty((2, u.size))) is None
