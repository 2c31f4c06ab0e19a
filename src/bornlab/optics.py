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
center's phase row is computed once (widths and centers are told apart
by their float64 bits, so ``-0.0`` and ``0.0`` stay distinct).  Every
interval's term is then formed from those rows with the same operations
as the interval-by-interval sum, and added to its aperture's amplitude
in interval order, starting from zero.  The result has the same bits as
that sum, for any block size.  The intervals
whose value is zero (the opaque gaps of an opaque geometry) are left
out: the sum starts from +0.0 and, under round-to-nearest, never becomes
-0.0, so adding a zero term of either sign leaves its bits as they are.

``pattern_set`` also evaluates each distinct ``|u|`` only once and
copies the intensity to both ``+u`` and ``-u``.  Every aperture it
builds is real, so each intensity curve is even in ``u``, and the copy
has the bits that a direct evaluation at ``-u`` gives:

* ``(pi w) * -u`` is exactly ``-x``, and ``sin`` is odd, so the sinc
  rows at ``-u`` equal those at ``u``;
* ``exp(-iy)`` is ``conj(exp(iy))``, so the phase rows are conjugates;
* a term is a real coefficient times these rows, and the sequential sums
  round symmetrically under negation, so the amplitude at ``-u`` is the
  conjugate of the one at ``u`` up to the signs of zeros;
* ``re * re + im * im`` drops the sign of the imaginary part and of zeros.

This rests on libm's ``sin`` being odd and ``cos`` even bit for bit,
which the tests against the interval-by-interval loop check.
``far_field_amplitude`` returns complex amplitudes, whose signed zeros
would differ, so it evaluates every point as given.
"""

from __future__ import annotations

import math
from bisect import bisect_right
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
        if not self.plate_half_width > 0.0:
            raise ValueError(
                f"plate_half_width must be > 0 (got {self.plate_half_width})"
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
    """Piecewise-constant complex transmission of one combination.

    ``values[i]`` holds on ``[edges[i], edges[i+1])``; the transmission is
    zero outside ``[edges[0], edges[-1]]``.
    """

    edges: np.ndarray
    values: np.ndarray
    combination: str

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.complex128)
        if edges.ndim != 1 or values.ndim != 1 or edges.size != values.size + 1:
            raise ValueError("need n+1 edges for n interval values")
        if not (edges[1:] > edges[:-1]).all():
            raise ValueError("edges must be strictly increasing")
        if values.size and np.abs(values).max() > 1.0 + 1e-12:
            raise ValueError("|transmission| must not exceed 1")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "values", values)

    def transmission(self, x):
        """Complex transmission at position(s) x."""
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.edges, x, side="right") - 1
        inside = (idx >= 0) & (idx < self.values.size)
        out = np.zeros(x.shape, dtype=np.complex128)
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


def _plate_pieces(plate: SlitPlate):
    """Breakpoints and values of the plate transmission on its extent."""
    w = plate.plate_half_width
    edges = [-w]
    values = []
    g = plate.leakage_amplitude
    for c, width in sorted(plate.slits):
        a, b = c - width / 2, c + width / 2
        edges.extend([a, b])
        values.extend([g, 1.0])
    edges.append(w)
    values.append(g)
    return edges, values


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
    if combination not in mask.features:
        raise ValueError(
            f"mask defines no feature row for combination {combination!r}"
        )
    shift = mask.displacement if displacement is None else displacement
    plate_edges, plate_values = _plate_pieces(plate)
    feats = [
        (c + shift - w / 2, c + shift + w / 2)
        for c, w in mask.features[combination]
    ]
    if mask.scheme == OPENING:
        base, feat_val = mask.leakage_amplitude, 1.0
    else:
        base, feat_val = 1.0, mask.leakage_amplitude

    half = plate.plate_half_width
    cut = sorted(
        set(plate_edges) | {e for ab in feats for e in ab if -half < e < half}
    )
    # x lies in plate piece i when plate_edges[i] <= x < plate_edges[i + 1],
    # and under a feature when one starting at or before x ends after x
    feats.sort()
    starts = [lo for lo, _hi in feats]
    reach = list(accumulate((hi for _lo, hi in feats), max))

    def plate_at(x: float) -> float:
        i = bisect_right(plate_edges, x) - 1
        return plate_values[i] if 0 <= i < len(plate_values) else 0.0

    def mask_at(x: float) -> float:
        i = bisect_right(starts, x)
        return feat_val if i and x < reach[i - 1] else base

    edges = [cut[0]]
    values: list[float] = []
    for lo, hi in zip(cut[:-1], cut[1:]):
        mid = 0.5 * (lo + hi)
        v = plate_at(mid) * mask_at(mid)
        if values and v == values[-1]:
            edges[-1] = hi  # coalesce equal neighbors
        else:
            edges.append(hi)
            values.append(v)
    return CombinationAperture(
        np.array(edges), np.array(values, dtype=np.complex128), combination
    )


#: Grid points per block of the Fourier pass.  A table or term row takes
#: 2 kB per block, so the work buffers stay in cache and small enough to
#: be reused from the heap instead of being mapped afresh on each call.
_BLOCK = 128


def _rows(buf: np.ndarray, k: int, n: int) -> np.ndarray:
    """The first ``k * n`` elements of a flat buffer as a contiguous (k, n) array."""
    return buf[: k * n].reshape(k, n)


def _fourier_pass(apertures: Sequence[CombinationAperture], u: np.ndarray,
                  out: np.ndarray) -> None:
    """Transform every aperture on the contiguous float64 grid ``u``.

    Row k of ``out`` receives the far-field amplitude of ``apertures[k]``
    if ``out`` is complex, and its squared modulus if ``out`` is float.
    """
    n_ap = len(apertures)
    sizes = [ap.values.size for ap in apertures]
    owner = np.repeat(np.arange(n_ap), sizes)
    lo = np.concatenate([ap.edges[:-1] for ap in apertures])
    hi = np.concatenate([ap.edges[1:] for ap in apertures])
    val = np.concatenate([ap.values for ap in apertures])
    # a zero term adds a zero to a sum that is never -0.0, which leaves it as it is
    keep = val != 0.0
    owner, lo, hi, val = owner[keep], lo[keep], hi[keep], val[keep]
    # Longest aperture first, and the intervals slot-major: slot i holds
    # the i-th interval of every aperture that has one, and those
    # apertures are the first rows of the accumulator.
    counts = np.bincount(owner, minlength=n_ap)
    order = np.argsort(-counts, kind="stable")
    rank = np.empty(n_ap, dtype=np.intp)
    rank[order] = np.arange(n_ap)
    slot = np.arange(val.size) - (np.cumsum(counts) - counts)[owner]
    perm = np.lexsort((rank[owner], slot))
    lo, hi, val = lo[perm], hi[perm], val[perm]
    rows_in_slot = np.bincount(slot).tolist()
    slot_start = np.cumsum([0] + rows_in_slot).tolist()

    width = hi - lo
    center = 0.5 * (lo + hi)
    coef = (val * width)[:, None]
    widths, w_row = np.unique(width.view(np.uint64), return_inverse=True)
    centers, c_row = np.unique(center.view(np.uint64), return_inverse=True)
    sinc_scale = (np.pi * widths.view(np.float64))[:, None]
    # the phase argument is (-2j * pi * c) * u, whose real part is zero
    phase_scale = (-2j * np.pi * centers.view(np.float64)).imag[:, None]
    n_int, n_w, n_c = val.size, widths.size, centers.size
    intensity = out.dtype.kind == "f"

    cap = min(_BLOCK, u.size)
    x_buf = np.empty(n_w * cap)
    s_buf = np.empty(n_w * cap)
    # complex sinc rows: a complex coefficient times a float row casts
    # the row, and casting once per block gives the same bits
    sinc_buf = np.zeros(n_w * cap, dtype=np.complex128)  # imag stays 0
    phase_buf = np.empty(n_c * cap, dtype=np.complex128)
    term_buf = np.empty(n_int * cap, dtype=np.complex128)
    gather_buf = np.empty(n_int * cap, dtype=np.complex128)
    acc_buf = np.empty(n_ap * cap, dtype=np.complex128)
    sq_buf = np.empty(2 * n_ap * cap)
    for a in range(0, u.size, cap):
        b = min(a + cap, u.size)
        n = b - a
        ub = u[a:b]
        x = np.multiply(sinc_scale, ub, out=_rows(x_buf, n_w, n))
        s = np.sin(x, out=_rows(s_buf, n_w, n))
        nonzero = x != 0.0
        np.divide(s, x, out=s, where=nonzero)
        s[~nonzero] = 1.0
        sinc = _rows(sinc_buf, n_w, n)
        sinc.real = s
        phase = _rows(phase_buf, n_c, n)
        phase.real = 0.0
        np.multiply(phase_scale, ub, out=phase.imag)
        np.exp(phase, out=phase)

        # term = (val * w) * sinc * phase, in the reference's order
        term = _rows(term_buf, n_int, n)
        np.take(sinc, w_row, axis=0, out=term, mode="clip")
        np.multiply(coef, term, out=term)
        gathered = _rows(gather_buf, n_int, n)
        np.take(phase, c_row, axis=0, out=gathered, mode="clip")
        np.multiply(term, gathered, out=term)

        # sequential sums from +0, one slot at a time; a reduction
        # over the interval axis would not give the same bits
        acc = _rows(acc_buf, n_ap, n)
        acc.fill(0.0)
        for rows, first in zip(rows_in_slot, slot_start):
            np.add(acc[:rows], term[first:first + rows], out=acc[:rows])
        if intensity:
            re2, im2 = sq_buf[: 2 * n_ap * n].reshape(2, n_ap, n)
            np.multiply(acc.real, acc.real, out=re2)
            np.multiply(acc.imag, acc.imag, out=im2)
            out[order, a:b] = np.add(re2, im2, out=re2)
        else:
            out[order, a:b] = acc


def _grid(u) -> np.ndarray:
    """``u`` as a contiguous float64 grid; raises unless it is non-empty
    and finite."""
    u_arr = np.ascontiguousarray(np.atleast_1d(u), dtype=np.float64)
    if u_arr.size == 0 or not np.all(np.isfinite(u_arr)):
        raise ValueError("u grid must be non-empty and finite")
    return u_arr


def _distinct_magnitudes(u: np.ndarray, scratch: np.ndarray):
    """The distinct values of ``|u|``, ascending, and the index of each
    point's value among them; None when no two points share ``|u|``.

    ``scratch`` is a (2, u.size) float64 array that may be overwritten.
    A strictly increasing grid that does not change sign is recognized
    without sorting.
    """
    if u.size < 2 or (np.all(u[1:] > u[:-1]) and (u[0] >= 0.0 or u[-1] <= 0.0)):
        return None
    mags = np.abs(u, out=scratch[0])
    ordered = scratch[1]
    ordered[:] = mags
    ordered.sort(kind="stable")  # timsort: |u| of a sorted grid is two runs
    new = np.empty(u.size, dtype=bool)
    new[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    keys = ordered[new]
    if keys.size == u.size:
        return None
    return keys, keys.searchsorted(mags)


def far_field_amplitude(aperture: CombinationAperture, u):
    """Far-field amplitude at frequency(ies) ``u`` (cycles/meter).

    Analytic transform of the piecewise-constant transmission; exact up
    to floating-point rounding.  Raises unless ``u`` is non-empty and
    finite.
    """
    u_arr = _grid(u)
    out = np.empty((1, u_arr.size), dtype=np.complex128)
    _fourier_pass([aperture], u_arr, out)
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

    Each distinct ``|u|`` of the grid is evaluated once; the curves are
    even, and every point gets the bits of an evaluation at that point
    (see the module docstring).  A strictly increasing grid that does not
    change sign is evaluated as given, without sorting.
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
    apertures = [
        build_combination_aperture(plate, mask, combo, shifts[combo])
        for combo in COMBINATIONS
    ]
    stacked = np.empty((len(COMBINATIONS), u_arr.size))
    distinct = _distinct_magnitudes(u_arr, stacked[:2])
    if distinct is None:
        _fourier_pass(apertures, u_arr, stacked)
    else:
        # evaluate each |u| once in the leading columns, then spread every
        # row over the grid; the keys, no longer needed, hold the row meanwhile
        keys, inverse = distinct
        k = keys.size
        _fourier_pass(apertures, keys, stacked[:, :k])
        for row in stacked:
            keys[:] = row[:k]
            np.take(keys, inverse, out=row)
    if normalize:
        peak = float(np.max(stacked[COMBINATIONS.index("ABC")]))
        if peak <= 0.0:
            raise ValueError("all-open curve vanishes on the grid; cannot normalize")
        stacked /= peak
    return stacked
