"""Two-plate aperture model and far-field diffraction patterns.

The aperture consists of a stationary slit plate and a movable
combination mask pressed against it (contact approximation: amplitude
transmissions multiply pointwise).  The slit plate transmits 1 on its
slits and ``leakage_amplitude`` elsewhere within its finite extent.  The
mask carries one feature row per slit combination:

* ``opening`` scheme -- the mask is opaque (its leakage amplitude)
  except for listed openings, which transmit 1;
* ``blocking`` scheme -- the mask is transparent except for listed
  blockers, which transmit its leakage amplitude.

Leakage is quoted in intensity everywhere in configs; amplitudes are the
square roots and live in the dataclasses below.

The detector sits in the far field, where the field amplitude is the
Fourier transform of the aperture transmission evaluated at the conjugate
coordinate ``u = sin(theta)/lambda`` (cycles per meter).  Transmissions
here are piecewise constant, so the transform is computed analytically as
a sum of displaced sinc terms: an interval of width w centered at c with
value t contributes ``t * w * sinc(pi w u) * exp(-2i pi c u)``.  This is
exact; no FFT gridding enters, which matters for a null test where
discretization error would masquerade as signal.

The transform is evaluated in one pass over all apertures of a call (the
eight of ``pattern_set``, the one of ``far_field_amplitude``).  The
intervals of the apertures share a few distinct widths and centers: the
plate slits recur in every combination.  So the grid is cut into blocks
of ``u``, and per block each distinct width's sinc row and each distinct
``|c|``'s cosine and sine rows are computed once.  Every interval's term
is then formed from those rows with the same operations as the
interval-by-interval sum, and added to its aperture's amplitude in
interval order, starting from zero.  The result has the same bits as
that sum, for any block size.  The intervals whose value is zero (the
opaque gaps of an opaque geometry) are left out: the sum starts from
+0.0 and, under round-to-nearest, never becomes -0.0, so adding a zero
term of either sign leaves its bits as they are.

The arithmetic is planar: transmissions are real, so a term is a real
coefficient ``t * w``, times a real sinc, times the real and the
imaginary plane of the phase, and the amplitude is a pair of float
sums.  The complex product that the interval-by-interval sum forms
(coefficient ``(a, 0)`` times phase ``(p, q)``) has the exact zero
``0 * q`` and ``0 * p`` as its cross products, so its parts round like
``a * p`` and ``a * q``, up to the signs of zeros, which sums from +0.0
cannot see.  With a nonzero imaginary part in both factors the complex
product may round differently (numpy's complex multiply can fuse a
multiply and an add), which is why the transmissions are real.  Two
facts of libm complete the argument, and the tests against the
interval-by-interval loop, which uses numpy's complex ``exp``, check
both on every machine that runs them:

* ``exp(iy)`` has the bits of ``(cos(y), sin(y))``: the loop's phase is
  numpy's complex ``exp``, the kernel's the real ``cos`` and ``sin``;
* ``sin`` is odd and ``cos`` even bit for bit: the phase argument of a
  center ``-c`` is exactly ``-y``, so a center ``c < 0`` shares the rows
  of ``-c`` and negates the sine.

On a mirror grid (its lower half the upper half negated and reversed),
``pattern_set`` evaluates the upper half only.  Every aperture it builds
is real, so each intensity curve is even in ``u``, and the copy to the
lower half has the bits that a direct evaluation at ``-u`` gives:

* ``(pi w) * -u`` is exactly ``-x``, and ``sin`` is odd, so the sinc
  rows at ``-u`` equal those at ``u``;
* the sine rows at ``-u`` are negated and the cosine rows unchanged;
* a term is a real coefficient times these rows, and the sequential sums
  round symmetrically under negation, so the amplitude at ``-u`` is the
  conjugate of the one at ``u`` up to the signs of zeros;
* ``re * re + im * im`` drops the sign of the imaginary part and of zeros.

``far_field_amplitude`` returns complex amplitudes, whose signed zeros
would differ, so it evaluates every point as given.

``pattern_set`` cuts the plate into its pieces once and builds the
intervals of all eight combinations as plain lists for the pass;
``build_combination_aperture`` is the one-combination case of the same
builder.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Mapping, Sequence

import numpy as np

from .interference import COMBINATIONS

#: Mask feature schemes.
OPENING = "opening"
BLOCKING = "blocking"

Feature = tuple[float, float]  # (center, width), meters


def _validate_features(features: Sequence[Feature], what: str, allow_empty: bool):
    feats = tuple((float(c), float(w)) for c, w in features)
    if not feats:
        if not allow_empty:
            raise ValueError(f"{what}: need at least one feature")
        return feats
    for c, w in feats:
        if not (math.isfinite(c) and math.isfinite(w)):
            raise ValueError(f"{what}: center/width must be finite")
        if w <= 0.0:
            raise ValueError(f"{what}: width must be > 0 (got {w})")
    ordered = sorted(feats)
    for (c1, w1), (c2, w2) in zip(ordered[:-1], ordered[1:]):
        if c1 + w1 / 2 > c2 - w2 / 2:
            raise ValueError(
                f"{what}: features at {c1} and {c2} overlap"
            )
    return feats


def _check_amplitude(a: float, what: str) -> float:
    a = float(a)
    if not (0.0 <= a <= 1.0) or not math.isfinite(a):
        raise ValueError(f"{what} must lie in [0, 1] (got {a})")
    return a


@dataclass(frozen=True)
class SlitPlate:
    """Stationary plate: slits in an otherwise (nearly) opaque layer.

    ``leakage_amplitude`` is the amplitude transmission of the nominally
    opaque regions; its square is the intensity leakage fraction.
    """

    slits: tuple[Feature, ...]
    plate_half_width: float = 2e-3
    leakage_amplitude: float = 0.0

    def __post_init__(self):
        object.__setattr__(
            self, "slits", _validate_features(self.slits, "slits", allow_empty=False)
        )
        _check_amplitude(self.leakage_amplitude, "plate leakage amplitude")
        if not 0.0 < self.plate_half_width < math.inf:
            raise ValueError(
                f"plate_half_width must be finite and > 0 (got {self.plate_half_width})"
            )
        for c, w in self.slits:
            if c - w / 2 < -self.plate_half_width or c + w / 2 > self.plate_half_width:
                raise ValueError(
                    f"slit at {c} extends beyond the plate half-width "
                    f"{self.plate_half_width}"
                )


@dataclass(frozen=True)
class CombinationMask:
    """Movable mask with one feature row per combination.

    ``features`` maps a combination label to the (center, width) list of
    its openings (``opening`` scheme) or blockers (``blocking`` scheme).
    ``displacement`` rigidly shifts the whole feature row for the
    measurement it is used in.
    """

    scheme: str
    features: Mapping[str, tuple[Feature, ...]]
    leakage_amplitude: float = 0.0
    displacement: float = 0.0

    def __post_init__(self):
        if self.scheme not in (OPENING, BLOCKING):
            raise ValueError(
                f"scheme must be '{OPENING}' or '{BLOCKING}' (got {self.scheme!r})"
            )
        _check_amplitude(self.leakage_amplitude, "mask leakage amplitude")
        if not math.isfinite(self.displacement):
            raise ValueError("displacement must be finite")
        checked = {}
        for combo, feats in self.features.items():
            if combo not in COMBINATIONS:
                raise ValueError(f"unknown combination label {combo!r}")
            checked[combo] = _validate_features(
                feats, f"mask features for {combo!r}", allow_empty=True
            )
        object.__setattr__(self, "features", checked)


@dataclass(frozen=True, eq=False)
class CombinationAperture:
    """Piecewise-constant real transmission of one combination.

    ``values[i]`` holds on ``[edges[i], edges[i+1])``; the transmission is
    zero outside ``[edges[0], edges[-1]]``.  Transmissions are real: a
    layer that shifts the phase by pi has a negative value.  Complex
    values are accepted when every imaginary part is zero, and are stored
    as their real parts.
    """

    edges: np.ndarray
    values: np.ndarray
    combination: str

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=np.float64)
        values = np.asarray(self.values)
        if values.dtype.kind != "c":
            values = values.astype(np.float64)
        if edges.ndim != 1 or values.ndim != 1 or edges.size != values.size + 1:
            raise ValueError("need n+1 edges for n interval values")
        if not (np.isfinite(edges).all() and np.isfinite(values).all()):
            raise ValueError("edges and values must be finite")
        if values.dtype.kind == "c":
            if np.any(values.imag != 0.0):
                raise ValueError("transmissions must be real (got a nonzero imaginary part)")
            values = np.ascontiguousarray(values.real)
        if not (edges[1:] > edges[:-1]).all():
            raise ValueError("edges must be strictly increasing")
        if values.size and np.abs(values).max() > 1.0 + 1e-12:
            raise ValueError("|transmission| must not exceed 1")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "values", values)

    def transmission(self, x):
        """Transmission at position(s) x."""
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.edges, x, side="right") - 1
        inside = (idx >= 0) & (idx < self.values.size)
        out = np.zeros(x.shape)
        out[inside] = self.values[idx[inside]]
        return out if out.ndim else out[()]


def triple_slit_plate(
    slit_width: float = 30e-6,
    separation: float = 100e-6,
    plate_half_width: float = 2e-3,
    leakage_amplitude: float = 0.0,
) -> SlitPlate:
    """Three equal slits centered on the beam at -d, 0, +d."""
    slits = tuple((c, slit_width) for c in (-separation, 0.0, separation))
    return SlitPlate(slits, plate_half_width, leakage_amplitude)


def combination_mask_for_plate(
    plate: SlitPlate,
    scheme: str = OPENING,
    feature_width: float = 100e-6,
    leakage_amplitude: float = 0.0,
    displacement: float = 0.0,
) -> CombinationMask:
    """Mask with one row per combination, features centered on the slits.

    Path labels A, B, C follow the order of ``plate.slits``.  ``opening``
    rows carry one opening per open slit; ``blocking`` rows carry one
    blocker per closed slit.
    """
    if len(plate.slits) != 3:
        raise ValueError("combination masks are defined for 3-slit plates")
    centers = {lab: c for lab, (c, _w) in zip("ABC", plate.slits)}
    features = {}
    for combo in COMBINATIONS:
        open_labels = set(combo) - {"0"}
        target = open_labels if scheme == OPENING else set("ABC") - open_labels
        features[combo] = tuple(
            (centers[lab], feature_width) for lab in sorted(target)
        )
    return CombinationMask(scheme, features, leakage_amplitude, displacement)


def _combination_pieces(plate: SlitPlate, mask: CombinationMask, shifts):
    """Edges and values, as lists, of the pointwise product of the plate
    and each displaced mask row.

    ``shifts`` holds (combination, displacement) pairs; the plate is cut
    into its pieces once for all of them.  Raises if the mask defines no
    feature row for one of the combinations.
    """
    half = plate.plate_half_width
    g = plate.leakage_amplitude
    plate_edges = [-half]
    for c, width in sorted(plate.slits):
        plate_edges.extend([c - width / 2, c + width / 2])
    plate_edges.append(half)
    plate_cuts = set(plate_edges)
    # x lies on plate piece i - 1 for i = bisect_right(plate_edges, x);
    # i = 0 and i = len(plate_edges) are off the plate
    plate_value = [0.0, *[g, 1.0] * len(plate.slits), g, 0.0]
    if mask.scheme == OPENING:
        base, feat_val = mask.leakage_amplitude, 1.0
    else:
        base, feat_val = 1.0, mask.leakage_amplitude

    pieces = []
    for combination, shift in shifts:
        if combination not in mask.features:
            raise ValueError(
                f"mask defines no feature row for combination {combination!r}"
            )
        feats = [
            (c + shift - w / 2, c + shift + w / 2)
            for c, w in mask.features[combination]
        ]
        cut = sorted(plate_cuts.union(e for ab in feats for e in ab if -half < e < half))
        # x lies under a feature when one starting at or before x ends
        # after x: i = bisect_right(starts, x) features start at or before
        # x, and reach[i] is the furthest end among them
        feats.sort()
        starts = [lo for lo, _hi in feats]
        reach = [-math.inf, *accumulate((hi for _lo, hi in feats), max)]

        edges = [cut[0]]
        values: list[float] = []
        for lo, hi in zip(cut, cut[1:]):
            mid = 0.5 * (lo + hi)
            v = plate_value[bisect_right(plate_edges, mid)] * (
                feat_val if mid < reach[bisect_right(starts, mid)] else base
            )
            if values and v == values[-1]:
                edges[-1] = hi  # coalesce equal neighbors
            else:
                edges.append(hi)
                values.append(v)
        pieces.append((edges, values))
    return pieces


def build_combination_aperture(
    plate: SlitPlate,
    mask: CombinationMask,
    combination: str,
    displacement: float | None = None,
) -> CombinationAperture:
    """Pointwise product of the plate and the (displaced) mask row.

    ``displacement`` replaces the mask's own displacement when given.
    Raises if the mask defines no feature row for the combination.
    """
    shift = mask.displacement if displacement is None else displacement
    [(edges, values)] = _combination_pieces(plate, mask, [(combination, shift)])
    return CombinationAperture(
        np.array(edges, dtype=np.float64), np.array(values, dtype=np.float64), combination
    )


#: Grid points per block of the Fourier pass.  A trig or term row takes
#: 1 kB per block, so the work arrays stay in cache.
_BLOCK = 128


def _fourier_pass(pieces, u: np.ndarray, out: np.ndarray) -> None:
    """Transform every aperture on the contiguous float64 grid ``u``.

    ``pieces`` holds the (edges, values) lists of each aperture.  Row k of
    ``out`` receives the far-field amplitude of aperture k if ``out`` is
    complex, and its squared modulus if ``out`` is float.
    """
    # Per interval: the row of its width among the distinct widths, the
    # row of its |center| among the distinct |center|s (a center c < 0
    # shares the phase row of -c and negates its sine), and its
    # coefficients for the cosine and the sine plane.
    widths: dict[float, int] = {}
    centers: dict[float, int] = {}
    terms = []
    for edges, values in pieces:
        rows = []
        for lo, hi, v in zip(edges, edges[1:], values):
            # a zero term adds a zero to a sum that is never -0.0, which
            # leaves it as it is
            if v != 0.0:
                w = hi - lo
                c = 0.5 * (lo + hi)
                rows.append((widths.setdefault(w, len(widths)),
                             centers.setdefault(abs(c), len(centers)),
                             v * w, -v * w if c < 0.0 else v * w))
        terms.append(rows)
    # Longest aperture first, and the intervals slot-major: slot i holds
    # the i-th interval of every aperture that has one, and those
    # apertures are the first rows of the accumulator.
    n_ap = len(terms)
    order = sorted(range(n_ap), key=lambda k: -len(terms[k]))
    shorter = [-len(terms[k]) for k in order]  # ascending
    rows_in_slot = [bisect_left(shorter, -i) for i in range(-shorter[0])]
    slot_start = list(accumulate(rows_in_slot, initial=0))
    table = [terms[k][i] for i, rows in enumerate(rows_in_slot) for k in order[:rows]]
    w_row, c_row, cos_coef, sin_coef = zip(*table) if table else ((),) * 4
    n_int, n_w, n_c = len(table), len(widths), len(centers)
    # trig rows: sin(x), then the sinc, for the widths; sin(y) and cos(y)
    # for the centers
    scale = np.empty((n_w + n_c, 1))
    scale[:n_w, 0] = np.pi * np.array(list(widths), dtype=np.float64)
    # the phase argument is (-2j * pi * c) * u, whose real part is +-0
    scale[n_w:, 0] = (-2j * np.pi * np.array(list(centers), dtype=np.float64)).imag
    # the trig rows that each interval's two planes take: its sinc twice,
    # then its cosine and its sine
    sinc_rows = np.array([w_row, w_row], dtype=np.intp).T.copy()
    phase_rows = (np.array([c_row, c_row], dtype=np.intp).T + (n_w + n_c, n_w)).copy()
    rank = np.array(order, dtype=np.intp)
    intensity = out.dtype.kind == "f"

    cap = min(_BLOCK, u.size)
    # Rows per point of the work arrays: arguments, trig rows, coefficient
    # times sinc, term planes, accumulator.  They share one allocation,
    # which the allocator hands back on the next call; separate ones of
    # 60-220 kB each were returned to the system and faulted back in on
    # every call.
    shape_rows = [n_w + n_c, n_w + 2 * n_c, 2 * n_int, 2 * n_int, 2 * n_ap]
    work = np.empty(sum(shape_rows) * cap + 2 * n_int * cap)
    offsets = list(accumulate(shape_rows, initial=0))
    # the coefficients repeated along the grid, so that multiplying by
    # them is one contiguous operation
    coef_full = work[offsets[-1] * cap:].reshape(n_int, 2, cap)
    coef_full[...] = np.array([cos_coef, sin_coef], dtype=np.float64).T[:, :, None]

    def views(n):
        """The work arrays of an n-point block, and the slot sums' views."""
        arg, trig, scaled, planes, acc = (
            work[lo * n: hi * n] for lo, hi in zip(offsets, offsets[1:]))
        planes = planes.reshape(n_int, 2, n)
        acc = acc.reshape(n_ap, 2, n)
        slots = [(acc[:k], planes[first:first + k])
                 for k, first in zip(rows_in_slot, slot_start)]
        return (arg.reshape(n_w + n_c, n), trig.reshape(n_w + 2 * n_c, n),
                scaled.reshape(n_int, 2, n), coef_full[:, :, :n], planes, acc, slots)

    full = views(cap)
    for a in range(0, u.size, cap):
        b = min(a + cap, u.size)
        arg, trig, scaled, coef, planes, acc, slots = full if b - a == cap else views(b - a)
        np.multiply(scale, u[a:b], out=arg)
        np.sin(arg, out=trig[: n_w + n_c])
        np.cos(arg[n_w:], out=trig[n_w + n_c:])
        x, sinc = arg[:n_w], trig[:n_w]
        if x.all():
            np.divide(sinc, x, out=sinc)
        else:
            nonzero = x != 0.0
            np.divide(sinc, x, out=sinc, where=nonzero)
            sinc[~nonzero] = 1.0

        # term = (val * w) * sinc * phase, in the reference's order, as
        # its real (cos) and imaginary (sin) planes
        np.take(trig, sinc_rows, axis=0, out=scaled, mode="clip")
        np.multiply(coef, scaled, out=scaled)
        np.take(trig, phase_rows, axis=0, out=planes, mode="clip")
        np.multiply(scaled, planes, out=planes)

        # sequential sums from +0, one slot at a time; a reduction
        # over the interval axis would not give the same bits
        acc.fill(0.0)
        for into, add in slots:
            np.add(into, add, out=into)
        if intensity:
            np.multiply(acc, acc, out=acc)
            out[rank, a:b] = np.add(acc[:, 0], acc[:, 1], out=acc[:, 0])
        else:
            out.real[rank, a:b] = acc[:, 0]
            out.imag[rank, a:b] = acc[:, 1]


def _grid(u) -> np.ndarray:
    """``u`` as a contiguous float64 grid; raises unless it is non-empty
    and finite."""
    u_arr = np.ascontiguousarray(np.atleast_1d(u), dtype=np.float64)
    if u_arr.size == 0 or not np.all(np.isfinite(u_arr)):
        raise ValueError("u grid must be non-empty and finite")
    return u_arr


def far_field_amplitude(aperture: CombinationAperture, u):
    """Far-field amplitude at frequency(ies) ``u`` (cycles/meter).

    Analytic transform of the piecewise-constant transmission; exact up
    to floating-point rounding.  Raises unless ``u`` is non-empty and
    finite.
    """
    u_arr = _grid(u)
    out = np.empty((1, u_arr.size), dtype=np.complex128)
    _fourier_pass([(aperture.edges.tolist(), aperture.values.tolist())], u_arr, out)
    if np.ndim(u) == 0:
        return complex(out[0, 0])
    return out[0]


def pattern_set(
    plate: SlitPlate,
    mask: CombinationMask,
    u_grid,
    normalize: bool = True,
    displacements: Mapping[str, float] | None = None,
) -> np.ndarray:
    """Intensity curves of all eight combinations on a common grid, as
    an (8, n) array whose rows follow ``COMBINATIONS``.

    All curves share one normalization; with ``normalize`` the grid peak
    of the all-open curve is scaled to 1.  ``displacements`` optionally
    overrides the mask displacement per combination (one rigid shift per
    combination measurement); its keys must be combination labels.

    On a mirror grid, whose lower half is its upper half negated and
    reversed, the upper half is evaluated and the even curves are copied
    to the lower half, with the bits of an evaluation there (see the
    module docstring).  Any other grid is evaluated at every point as
    given, so one that shares ``|u|`` without being an exact mirror (an
    inexact ``linspace`` step, unsorted or duplicated points) takes up to
    twice the Fourier work for the same bits.
    """
    u_arr = _grid(u_grid)
    shifts = dict.fromkeys(COMBINATIONS, mask.displacement)
    for label, shift in (displacements or {}).items():
        if label not in shifts:
            raise ValueError(f"displacements: unknown combination label {label!r}")
        shift = float(shift)
        if not math.isfinite(shift):
            raise ValueError("displacement must be finite")
        shifts[label] = shift
    pieces = _combination_pieces(plate, mask, shifts.items())
    stacked = np.empty((len(COMBINATIONS), u_arr.size))
    h = u_arr.size // 2
    if np.array_equal(u_arr[:h], -u_arr[::-1][:h]):
        # a mirror: evaluate the upper half, then copy each row's upper
        # half, reversed, into its lower half; row by row, since numpy
        # would copy one overlapping 2-D assignment through a temporary
        _fourier_pass(pieces, u_arr[h:], stacked[:, h:])
        for row in stacked:
            row[:h] = row[:-h - 1:-1]
    else:
        _fourier_pass(pieces, u_arr, stacked)
    if normalize:
        peak = float(np.max(stacked[COMBINATIONS.index("ABC")]))
        if peak <= 0.0:
            raise ValueError("all-open curve vanishes on the grid; cannot normalize")
        stacked /= peak
    return stacked
