"""Systematic-error models for the triple-slit null test.

Three mechanisms make an ideally-zero ``rho`` read nonzero:

1. **Source power fluctuation.**  Each of the eight combinations is
   measured in its own dwell interval; a relative power fluctuation
   ``dp`` per dwell propagates into a fluctuation of ``rho``.  With the
   pairwise-term signs ``s_xy`` and ``P_x`` the eight measured powers,

   ``(d_rho)^2 = (1/delta^2) [ P_ABC^2
       + (1 + s_bc rho) P_BC^2 + (1 + s_ca rho) P_CA^2
       + (1 + s_ab rho) P_AB^2
       + (1 + (s_bc + s_ca) rho) P_C^2
       + (1 + (s_bc + s_ab) rho) P_B^2
       + (1 + (s_ca + s_ab) rho) P_A^2
       + (1 + (s_bc + s_ca + s_ab) rho) P_0^2 ] (dp)^2``

   The formula keeps terms to first order in ``rho``; it is exact at
   ``rho = 0`` and the sign-dependent corrections matter only near the
   null, where ``|rho|`` is small.  For photocounting the same structure
   applies with every ``P_x^2`` replaced by the raw count ``P_x`` and
   ``(dp)^2`` by 1 (Poisson variance equals the mean).

2. **Mask leakage combined with misalignment.**  A common leakage level
   with identical alignment leaves the eight amplitudes affine in the
   open-slit indicator, so the quadratic cancellation survives exactly;
   only per-combination displacement errors of a leaky layer break it.

3. **Detector dead time and nonlinearity.**  A non-paralyzable dead time
   ``R -> R / (1 + R tau)`` and a quadratic soft saturation
   ``R -> R (1 - beta R / R_full)`` undercount the bright combinations
   relative to the dim ones, which violates the quadratic identity at
   the detected-rate level.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ._streams import TAG_DISPLACEMENT, substream
from .interference import (
    DEFAULT_GUARD,
    COMBINATIONS,
    SorkinCurves,
    sorkin_curves,
)
from .optics import CombinationMask, SlitPlate, pattern_set

_SEQUENCE_ORDERS = ("fixed", "randomized")


@dataclass(frozen=True)
class PowerModel:
    """Source power statistics over one combination dwell.

    ``relative_fluctuation`` is the rms relative power variation averaged
    over one dwell; ``linear_drift_rate`` is the relative mean-power
    change per repetition (one repetition = eight dwells).
    ``sequence_order`` chooses whether the eight combinations are
    measured in the fixed canonical order or reshuffled every repetition,
    which converts a drift-induced bias into noise.
    ``monitor_counts``, when positive, enables a reference-arm power
    monitor with that expected count level per dwell.
    """

    mean_power: float
    relative_fluctuation: float = 0.0
    linear_drift_rate: float = 0.0
    sequence_order: str = "fixed"
    monitor_counts: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.mean_power < math.inf:
            raise ValueError(f"mean_power must be finite and > 0 (got {self.mean_power})")
        if not 0.0 <= self.relative_fluctuation < math.inf:
            raise ValueError("relative_fluctuation must be finite and >= 0")
        if not math.isfinite(self.linear_drift_rate):
            raise ValueError("linear_drift_rate must be finite")
        if self.sequence_order not in _SEQUENCE_ORDERS:
            raise ValueError(
                f"sequence_order must be one of {_SEQUENCE_ORDERS} "
                f"(got {self.sequence_order!r})"
            )
        if not 0.0 <= self.monitor_counts < math.inf:
            raise ValueError("monitor_counts must be finite and >= 0")


@dataclass(frozen=True)
class DetectorModel:
    """Counting-detector imperfections.

    ``dead_time`` is the non-paralyzable blind interval after each count;
    ``nonlinearity`` the fractional undercount at ``full_scale_rate``;
    ``dark_rate`` adds to every combination before the response;
    ``dwell_time`` is the integration time per combination.
    """

    dead_time: float = 0.0
    nonlinearity: float = 0.0
    full_scale_rate: float = 1e6
    dark_rate: float = 0.0
    dwell_time: float = 37.5

    def __post_init__(self):
        if not 0.0 <= self.dead_time < math.inf:
            raise ValueError(f"dead_time must be finite and >= 0 (got {self.dead_time})")
        if not 0.0 <= self.nonlinearity < 1.0:
            raise ValueError(
                f"nonlinearity must lie in [0, 1) (got {self.nonlinearity})"
            )
        if not 0.0 < self.full_scale_rate < math.inf:
            raise ValueError("full_scale_rate must be finite and > 0")
        if not 0.0 <= self.dark_rate < math.inf:
            raise ValueError("dark_rate must be finite and >= 0")
        if not 0.0 < self.dwell_time < math.inf:
            raise ValueError(f"dwell_time must be finite and > 0 (got {self.dwell_time})")


#: Whether the sign ``s_xy`` (columns AB, BC, CA) enters the weight
#: ``1 + (sum of the signs) * rho`` of a combination (rows) in the
#: bracket of the module docstring: when ``I_xy = p_xy - p_x - p_y + p_0``
#: holds the combination's probability.
_SIGN_TERMS = np.array([[combo in (xy, xy[0], xy[1], "0") for xy in ("AB", "BC", "CA")]
                        for combo in COMBINATIONS], dtype=float)


def _rho_sigma(p: np.ndarray, stats: SorkinCurves, dp: float,
               squared: bool) -> np.ndarray:
    """``sqrt(bracket) * dp / delta`` at every point of the (8, n) values
    ``p``; the bracket sums ``w * p * p`` (``squared``) or ``w * p`` over
    the eight rows one after another, from row 0.  NaN wherever ``rho``
    is undefined or the bracket is negative (|rho| too large for the
    first-order sign terms to make sense).
    """
    if not dp >= 0.0:
        raise ValueError(f"dp must be >= 0 (got {dp})")
    signs = np.sign([stats.i_ab, stats.i_bc, stats.i_ca])
    rho = np.where(stats.rho_defined, stats.rho, 0.0)
    terms = (1.0 + (_SIGN_TERMS @ signs) * rho) * p
    if squared:
        terms *= p
    # a reduction over the rows would pairwise-sum a single column
    bracket = functools.reduce(np.add, terms)
    out = np.full(rho.shape, np.nan)
    ok = stats.rho_defined & (bracket >= 0.0)
    np.divide(np.sqrt(bracket, where=ok, out=np.zeros_like(bracket)) * dp,
              stats.delta, out=out, where=ok)
    return out


def power_sigma_curves(
    patterns: np.ndarray, curves: SorkinCurves, dp: float = 1.0
) -> np.ndarray:
    """Fluctuation of ``rho`` from a relative power fluctuation ``dp`` at
    every point of stacked curves (shape (8, n)).

    Returns NaN wherever ``rho`` is undefined.  ``dp = 1`` gives the pure
    propagation factor (fluctuation of ``rho`` per unit relative power
    fluctuation).
    """
    return _rho_sigma(np.asarray(patterns, dtype=float), curves, dp, squared=True)


def poisson_sigma_curves(counts: np.ndarray, curves: SorkinCurves) -> np.ndarray:
    """Fluctuation of ``rho`` from Poisson counting noise at every point
    of stacked raw photocounts per dwell (shape (8, n), not rates): the
    power formula with each squared power replaced by the count itself,
    its Poisson variance.  NaN wherever ``rho`` is undefined.
    """
    return _rho_sigma(np.asarray(counts, dtype=float), curves, 1.0, squared=False)


def detector_response(model: DetectorModel, true_rate):
    """Measured count rate for a true incident rate (cps).

    Dark counts add first, then the non-paralyzable dead time, then the
    quadratic soft saturation; each stage disables individually
    (``tau = 0``, ``beta = 0``).  Accepts scalars or arrays.
    """
    r = np.asarray(true_rate, dtype=float)
    if np.any(r < 0.0):
        raise ValueError("true_rate must be >= 0")
    out = r + model.dark_rate
    if model.dead_time > 0.0:
        out = out / (1.0 + out * model.dead_time)
    if model.nonlinearity > 0.0:
        out = out * (1.0 - model.nonlinearity * out / model.full_scale_rate)
    if np.ndim(true_rate) == 0:
        return float(out)
    return out


class RhoSweep(NamedTuple):
    """One systematic sweep over a detector-coordinate grid."""

    u: np.ndarray
    patterns: np.ndarray  # (8, n) post-systematic curves, canonical order
    curves: SorkinCurves


def detector_rho_sweep(
    plate: SlitPlate,
    mask: CombinationMask,
    model: DetectorModel,
    u_grid,
    peak_rate: float = 80000.0,
    dynamic_range: float = 100.0,
    guard: float = DEFAULT_GUARD,
) -> RhoSweep:
    """Apparent ``rho(u)`` caused by the detector alone.

    The optics must be ideal (zero leakage, zero displacement) so that
    the detector is the only systematic.  The ideal curves are scaled so
    the all-open peak maps to ``peak_rate`` and a uniform background
    floor pins the detected max/min ratio to ``dynamic_range``; the
    detector response is then applied pointwise and the statistics are
    recomputed from the measured rates.
    """
    if plate.leakage_amplitude != 0.0 or mask.leakage_amplitude != 0.0:
        raise ValueError("detector sweep requires zero leakage (ideal optics)")
    if mask.displacement != 0.0:
        raise ValueError("detector sweep requires zero mask displacement")
    if not peak_rate > 0.0:
        raise ValueError(f"peak_rate must be > 0 (got {peak_rate})")
    if not dynamic_range > 1.0:
        raise ValueError(f"dynamic_range must be > 1 (got {dynamic_range})")
    u_arr = np.atleast_1d(np.asarray(u_grid, dtype=float))
    ideal = pattern_set(plate, mask, u_arr, normalize=True)
    floor = peak_rate / dynamic_range
    rates = (peak_rate - floor) * ideal + floor
    measured = detector_response(model, rates)
    return RhoSweep(u_arr, measured, sorkin_curves(measured, guard))


DisplacementSampler = Callable[[np.random.Generator], float]


def uniform_displacement_sampler(low: float = 0.0, high: float = 10e-6) -> DisplacementSampler:
    """Rigid mask displacement drawn uniformly from [low, high] (meters)."""
    if not (math.isfinite(low) and math.isfinite(high)) or high < low:
        raise ValueError(f"need finite low <= high (got {low}, {high})")

    def sample(rng: np.random.Generator) -> float:
        return float(rng.uniform(low, high))

    return sample


def _displacement_draw(sampler: DisplacementSampler, seed: int, draw: int) -> dict[str, float]:
    """Displacements of draw ``draw`` by combination label: ``sampler``
    called eight times, in ``COMBINATIONS`` order, on the one generator
    ``substream(seed, TAG_DISPLACEMENT, draw)``."""
    rng = substream(seed, TAG_DISPLACEMENT, draw)
    return {combo: sampler(rng) for combo in COMBINATIONS}


def misalignment_rho_sweep(
    plate: SlitPlate,
    mask: CombinationMask,
    sampler: DisplacementSampler,
    u_grid,
    seed: int = 0,
    guard: float = DEFAULT_GUARD,
) -> tuple[RhoSweep, dict[str, float]]:
    """Apparent ``rho(u)`` from per-combination mask misalignment.

    One rigid displacement per combination is drawn from ``sampler``:
    draw 0 of :func:`_displacement_draw`, on one substream of ``seed``,
    so the curve is reproducible bit for bit for a fixed seed.  Returns
    the sweep and the displacements actually used.
    """
    displacements = _displacement_draw(sampler, seed, 0)
    u_arr = np.atleast_1d(np.asarray(u_grid, dtype=float))
    stacked = pattern_set(plate, mask, u_arr, normalize=True, displacements=displacements)
    return RhoSweep(u_arr, stacked, sorkin_curves(stacked, guard)), displacements
