"""Virtual triple-slit runs: sequenced dwells, drifting power, photocounts.

One repetition measures the eight combinations one after another at a
fixed detector coordinate.  The source power carries an optional linear
drift (per repetition, applied at dwell granularity) and an independent
relative fluctuation per dwell; the detector applies dark counts, dead
time and nonlinearity; counts are Poisson-distributed or, in
expected-value mode, kept at their means for deterministic end-to-end
null checks.

All randomness is drawn from substreams of a single root seed, one per
purpose and block of repetitions, so identical seeds give identical
count streams no matter how the work is scheduled, and the first
repetitions of a run do not depend on how many follow.  A run is one
:class:`RunCounts`: (repetitions, 8) arrays of counts, timestamps and
optional monitor counts, checked once, whose row ``i`` is repetition
``i``.  A repetition
with a zero monitor count (a dwell whose power factor was clamped to 0)
has no ``rho``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._streams import TAG_COUNTS, TAG_MONITOR, TAG_ORDER, TAG_POWER, substream
from .interference import (
    COMBINATIONS,
    DEFAULT_GUARD,
    sorkin_curves,
)
from .optics import CombinationMask, SlitPlate, pattern_set
from .systematics import DetectorModel, PowerModel, detector_response


@dataclass(frozen=True, eq=False)
class RunCounts:
    """Counts of a run: row ``i`` of each (repetitions, 8) array is
    repetition ``i``, in canonical combination order.

    ``counts`` are integer-valued in Poisson mode and expected values in
    expected-value mode.  ``timestamps`` holds the global dwell index at
    which each combination was measured (order may be randomized).
    ``monitor`` carries reference-arm counts per dwell when the power
    monitor is enabled, else None.  Every dwell lasts ``dwell_time``.
    """

    counts: np.ndarray
    dwell_time: float
    timestamps: np.ndarray
    monitor: np.ndarray | None = None

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=float)
        stamps = np.asarray(self.timestamps, dtype=int)
        if counts.ndim != 2 or counts.shape[1:] != (8,) or stamps.shape != counts.shape:
            raise ValueError("counts and timestamps must have shape (repetitions, 8) "
                             f"(got {counts.shape} and {stamps.shape})")
        if not len(counts):
            raise ValueError("need at least one repetition")
        if not self.dwell_time > 0.0:
            raise ValueError(f"dwell_time must be > 0 (got {self.dwell_time})")
        _check_counts("counts", counts)
        if self.monitor is not None:
            monitor = np.asarray(self.monitor, dtype=float)
            if monitor.shape != counts.shape:
                raise ValueError(f"monitor counts must have shape {counts.shape} "
                                 f"(got {monitor.shape})")
            _check_counts("monitor counts", monitor)
            object.__setattr__(self, "monitor", monitor)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "timestamps", stamps)


def _check_counts(name: str, counts: np.ndarray) -> None:
    """Raise naming the first repetition and combination whose count is
    negative or not finite."""
    bad = ~np.isfinite(counts) | (counts < 0.0)
    if bad.any():
        i, k = np.unravel_index(np.argmax(bad), bad.shape)
        raise ValueError(f"repetition {i}, combination {COMBINATIONS[k]}: "
                         f"{name} must be finite and >= 0 (got {counts[i, k]:g})")


@dataclass(frozen=True, eq=False)
class RhoSeries:
    """Per-repetition ``rho`` values and their aggregates.

    ``rho`` is NaN where undefined; aggregates cover defined entries
    only, with ``sem = sample_std / sqrt(n_defined)``.
    """

    rho: np.ndarray
    defined: np.ndarray
    mean: float
    sample_std: float
    sem: float
    n_defined: int
    n_undefined: int

    @classmethod
    def aggregate(cls, rho: np.ndarray, defined: np.ndarray) -> "RhoSeries":
        """Aggregates of per-repetition values, as from
        :func:`rho_per_repetition`; raises if no ``rho`` is defined."""
        n_def = int(np.count_nonzero(defined))
        if n_def == 0:
            raise ValueError("rho is undefined in every repetition")
        vals = rho[defined]
        std = float(np.std(vals, ddof=1)) if n_def > 1 else 0.0
        return cls(
            rho=rho,
            defined=defined,
            mean=float(np.mean(vals)),
            sample_std=std,
            sem=std / math.sqrt(n_def),
            n_defined=n_def,
            n_undefined=rho.size - n_def,
        )


#: Repetitions per block: each block draws from its own generators and is
#: simulated in one pass of array arithmetic, which bounds the memory of
#: the temporaries.  Stable value, like the purpose tags: changing it
#: changes every run that draws.
_BLOCK_REPETITIONS = 512


def run_experiment(
    plate: SlitPlate,
    mask: CombinationMask,
    power: PowerModel,
    detector: DetectorModel,
    detector_u: float,
    repetitions: int,
    seed: int = 0,
    poisson: bool = True,
) -> RunCounts:
    """Simulate ``repetitions`` sequential eight-combination measurements.

    ``power.mean_power`` sets the expected all-open incident count rate
    at the detector coordinate ``detector_u``; the other combinations
    scale by their ideal intensity ratios.  Deterministic for a fixed
    seed.

    Repetitions are simulated in blocks of ``_BLOCK_REPETITIONS``.  Each
    purpose draws a block's values from its own generator,
    ``substream(seed, tag, rep // _BLOCK_REPETITIONS)``, with numpy's
    array samplers, which fill the block's (rows, 8) arrays in C order:
    repetition by repetition, and combination by combination within one.
    When randomized, repetition ``rep`` measures the combinations in the
    order of its row of ``permuted`` rows of ``arange(8)`` (``TAG_ORDER``),
    else canonically.  The dwell in slot ``s`` has the global index
    ``t = 8 * rep + s`` and the power factor
    ``(1 + drift * t / 8) * (1 + fluctuation * xi)``, where ``xi`` is the
    ``standard_normal`` draw of ``(rep, comb)`` (``TAG_POWER``).  Negative
    factors are clamped to 0 with a ``RuntimeWarning`` that gives their
    number.  Counts and monitor counts are ``poisson`` draws
    (``TAG_COUNTS`` / ``TAG_MONITOR``).  A shorter block draws the
    leading rows of a full one, so repetition ``rep`` gets the same
    values in a run of any length.  A Poisson mean above numpy's limit
    (about 9.2e18) raises ``ValueError`` before it is drawn.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1 (got {repetitions})")
    curves = pattern_set(plate, mask, np.array([detector_u]), normalize=True)
    base_rates = power.mean_power * curves[:, 0]

    shape = (repetitions, 8)
    counts, stamps = np.empty(shape), np.empty(shape, dtype=int)
    monitor = np.empty(shape) if power.monitor_counts > 0.0 else None
    n_clamped = 0
    for block in range(math.ceil(repetitions / _BLOCK_REPETITIONS)):
        n_clamped += _simulate_rows(block, seed, base_rates, power, detector, poisson,
                                    counts, stamps, monitor)
    run = RunCounts(counts, detector.dwell_time, stamps, monitor)
    if n_clamped:
        warnings.warn(
            f"power factor clamped to 0 in {n_clamped} of {8 * repetitions} dwells",
            RuntimeWarning,
            stacklevel=2,
        )
    return run


def _simulate_rows(block: int, seed: int, base_rates: np.ndarray, power: PowerModel,
                   detector: DetectorModel, poisson: bool, counts: np.ndarray,
                   stamps: np.ndarray, monitor: np.ndarray | None) -> int:
    """Fill the rows of block ``block`` (repetitions) of the
    (repetitions, 8) arrays ``counts``, ``stamps`` and ``monitor`` (or
    None), indexed by combination; returns the number of clamped power
    factors."""
    rows = slice(block * _BLOCK_REPETITIONS, (block + 1) * _BLOCK_REPETITIONS)
    reps = np.arange(*rows.indices(len(counts)))
    combs = np.arange(8)
    order = np.tile(combs, (reps.size, 1))
    if power.sequence_order == "randomized":
        order = substream(seed, TAG_ORDER, block).permuted(order, axis=1)
    # stamps[rep, comb]: global dwell index at which comb was measured
    np.put_along_axis(stamps[rows], order, 8 * reps[:, None] + combs, axis=1)

    factor = 1.0 + power.linear_drift_rate * (stamps[rows] / 8.0)
    if power.relative_fluctuation > 0.0:
        xi = substream(seed, TAG_POWER, block).standard_normal(order.shape)
        factor *= 1.0 + power.relative_fluctuation * xi
    clamped = factor < 0.0
    n_clamped = np.count_nonzero(clamped)
    # as max(factor, 0.0); np.maximum would also turn a -0.0 into +0.0
    factor[clamped] = 0.0
    mu = detector_response(detector, factor * base_rates) * detector.dwell_time
    drift = "power_drift or power_fluctuation"
    counts[rows] = _counts(poisson, seed, mu, TAG_COUNTS, block,
                           f"mean_power, dark_rate, dwell_time, nonlinearity, "
                           f"full_scale_rate, {drift}")
    if monitor is not None:
        monitor[rows] = _counts(poisson, seed, factor * power.monitor_counts,
                                TAG_MONITOR, block, f"monitor_counts, {drift}")
    return n_clamped


#: The largest mean numpy's Poisson sampler accepts.
_POISSON_MAX = np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10


def _counts(poisson: bool, seed: int, mean: np.ndarray, tag: int, block: int, keys: str):
    """Poisson draws of ``mean`` from ``substream(seed, tag, block)``, or
    ``mean`` itself in expected-value mode.  A mean that is negative, NaN
    or above numpy's limit raises before any draw, naming ``keys``, the
    config keys that set it."""
    if not poisson:
        return mean
    if np.any(invalid := ~(mean >= 0.0)):  # NaN fails >= too
        raise ValueError(f"{keys}: a Poisson mean must be >= 0 "
                         f"(got {mean[invalid][0]:.3g} counts per dwell)")
    if np.any(too_large := mean > _POISSON_MAX):
        raise ValueError(f"{keys}: too large, a Poisson mean of "
                         f"{mean[too_large].max():.3g} counts per dwell is above "
                         f"numpy's limit of {_POISSON_MAX:.3g}")
    return substream(seed, tag, block).poisson(mean)


def rho_per_repetition(
    run: RunCounts,
    guard: float = DEFAULT_GUARD,
    dead_time_correction: float = 0.0,
    use_monitor: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """``rho`` and its defined flag for every repetition.

    Counts convert to rates by plain division; when present and enabled,
    reference-arm monitor counts normalize away per-dwell power
    variation.  ``dead_time_correction`` optionally inverts a
    non-paralyzable dead time of that length on the measured rates
    (off by default, so simulated dead-time bias stays visible).
    All repetitions go through one :func:`sorkin_curves` call, which
    agrees bitwise with :func:`sorkin` on each of them.  A repetition
    with a zero monitor count cannot be normalized: its ``rho`` is
    undefined, and a ``RuntimeWarning`` gives the number of such
    repetitions.  A check that fails (a rate at or above the dead-time
    limit, or a non-finite rate) raises ``ValueError`` naming the first
    failing repetition.
    """
    if not dead_time_correction >= 0.0:
        raise ValueError("dead_time_correction must be >= 0")
    n = len(run.counts)
    zero_monitor = np.zeros(n, dtype=bool)
    saturated = np.zeros(n, dtype=bool)
    # failing repetitions are reported below, before any of their values is used
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        rates = run.counts / run.dwell_time
        if use_monitor and (mon := run.monitor) is not None:
            zero_monitor = np.any(mon <= 0.0, axis=1)
            rates *= np.mean(mon, axis=1, keepdims=True) / mon
            # all-zero rates have delta = 0 below the guard: rho is undefined
            rates[zero_monitor] = 0.0
        if dead_time_correction > 0.0:
            occupancy = dead_time_correction * rates
            saturated = np.any(occupancy >= 1.0, axis=1)
            rates /= np.subtract(1.0, occupancy, out=occupancy)
    checks = (
        (saturated, "measured rate at or above 1/dead_time; correction impossible"),
        (~np.all(np.isfinite(rates), axis=1), "rates must be finite"),
    )
    failed = np.logical_or.reduce([mask for mask, _ in checks])
    if failed.any():
        i = int(np.argmax(failed))
        why = next(msg for mask, msg in checks if mask[i])
        raise ValueError(f"repetition {i}: {why}")
    if n_zero := np.count_nonzero(zero_monitor):
        warnings.warn(f"zero monitor counts leave rho undefined in {n_zero} of "
                      f"{n} repetitions", RuntimeWarning, stacklevel=2)
    curves = sorkin_curves(rates.T, guard)
    return curves.rho, curves.rho_defined


def estimate_rho_series(
    run: RunCounts,
    guard: float = DEFAULT_GUARD,
    dead_time_correction: float = 0.0,
    use_monitor: bool = True,
) -> RhoSeries:
    """Aggregate per-repetition ``rho`` into mean / spread / SEM.

    Undefined repetitions are excluded from the aggregates and counted
    separately; raises if no repetition has a defined ``rho``.
    """
    return RhoSeries.aggregate(*rho_per_repetition(
        run, guard, dead_time_correction, use_monitor
    ))
