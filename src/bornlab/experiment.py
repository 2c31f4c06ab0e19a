"""Virtual triple-slit runs: sequenced dwells, drifting power, photocounts.

One repetition measures the eight combinations one after another at a
fixed detector coordinate.  The source power carries an optional linear
drift (per repetition, applied at dwell granularity) and an independent
relative fluctuation per dwell; the detector applies dark counts, dead
time and nonlinearity; counts are Poisson-distributed or, in
expected-value mode, kept at their means for deterministic end-to-end
null checks.

All randomness is drawn from per-repetition, per-combination substreams
of a single root seed, so identical seeds give identical count streams
no matter how the work is scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._streams import TAG_COUNTS, TAG_MONITOR, TAG_ORDER, TAG_POWER, substream
from .interference import (
    COMBINATIONS,
    DEFAULT_GUARD,
    ProbabilityVector,
    sorkin,
)
from .optics import CombinationMask, SlitPlate, pattern_set, stack_patterns
from .systematics import DetectorModel, PowerModel, detector_response


@dataclass(frozen=True, eq=False)
class CountsRecord:
    """Counts of one repetition, canonical combination order.

    ``counts`` are integer-valued in Poisson mode and expected values in
    expected-value mode.  ``timestamps`` holds the global dwell index at
    which each combination was measured (order may be randomized).
    ``monitor`` carries reference-arm counts per dwell when the power
    monitor is enabled, else None.
    """

    repetition: int
    counts: np.ndarray
    dwell_time: float
    timestamps: np.ndarray
    monitor: np.ndarray | None = None

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=float)
        stamps = np.asarray(self.timestamps, dtype=int)
        if counts.shape != (8,) or stamps.shape != (8,):
            raise ValueError("counts and timestamps must have shape (8,)")
        if np.any(~np.isfinite(counts)) or np.any(counts < 0.0):
            raise ValueError("counts must be finite and >= 0")
        if not self.dwell_time > 0.0:
            raise ValueError(f"dwell_time must be > 0 (got {self.dwell_time})")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "timestamps", stamps)
        if self.monitor is not None:
            mon = np.asarray(self.monitor, dtype=float)
            if mon.shape != (8,) or np.any(~np.isfinite(mon)) or np.any(mon < 0.0):
                raise ValueError("monitor counts must be shape (8,), finite, >= 0")
            object.__setattr__(self, "monitor", mon)


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


def run_experiment(
    plate: SlitPlate,
    mask: CombinationMask,
    power: PowerModel,
    detector: DetectorModel,
    detector_u: float,
    repetitions: int,
    seed: int = 0,
    poisson: bool = True,
) -> list[CountsRecord]:
    """Simulate ``repetitions`` sequential eight-combination measurements.

    ``power.mean_power`` sets the expected all-open incident count rate
    at the detector coordinate ``detector_u``; the other combinations
    scale by their ideal intensity ratios.  Deterministic for a fixed
    seed.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1 (got {repetitions})")
    curves = pattern_set(plate, mask, np.array([detector_u]), normalize=True)
    base_rates = power.mean_power * stack_patterns(curves)[:, 0]

    dwell = detector.dwell_time
    randomized = power.sequence_order == "randomized"
    records = []
    for rep in range(repetitions):
        if randomized:
            order = substream(seed, TAG_ORDER, rep).permutation(8)
        else:
            order = np.arange(8)
        counts = np.empty(8)
        stamps = np.empty(8, dtype=int)
        monitor = np.empty(8) if power.monitor_counts > 0.0 else None
        for slot, comb_idx in enumerate(order):
            t = rep * 8 + slot
            factor = 1.0 + power.linear_drift_rate * (t / 8.0)
            if power.relative_fluctuation > 0.0:
                xi = substream(seed, TAG_POWER, rep, comb_idx).standard_normal()
                factor *= 1.0 + power.relative_fluctuation * xi
            factor = max(factor, 0.0)
            rate = detector_response(detector, factor * base_rates[comb_idx])
            mu = rate * dwell
            if poisson:
                counts[comb_idx] = substream(seed, TAG_COUNTS, rep, comb_idx).poisson(mu)
            else:
                counts[comb_idx] = mu
            stamps[comb_idx] = t
            if monitor is not None:
                mu_mon = factor * power.monitor_counts
                if poisson:
                    monitor[comb_idx] = substream(
                        seed, TAG_MONITOR, rep, comb_idx
                    ).poisson(mu_mon)
                else:
                    monitor[comb_idx] = mu_mon
        records.append(
            CountsRecord(
                repetition=rep,
                counts=counts,
                dwell_time=dwell,
                timestamps=stamps,
                monitor=monitor,
            )
        )
    return records


def rho_per_repetition(
    records: Sequence[CountsRecord],
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
    """
    if dead_time_correction < 0.0:
        raise ValueError("dead_time_correction must be >= 0")
    if not records:
        raise ValueError("need at least one repetition")
    rho = np.empty(len(records))
    defined = np.empty(len(records), dtype=bool)
    for i, rec in enumerate(records):
        rates = rec.counts / rec.dwell_time
        if use_monitor and rec.monitor is not None:
            if np.any(rec.monitor <= 0.0):
                raise ValueError(
                    f"repetition {rec.repetition}: zero monitor counts cannot "
                    "normalize rates"
                )
            rates = rates * (np.mean(rec.monitor) / rec.monitor)
        if dead_time_correction > 0.0:
            occupancy = dead_time_correction * rates
            if np.any(occupancy >= 1.0):
                raise ValueError(
                    f"repetition {rec.repetition}: measured rate at or above "
                    "1/dead_time; correction impossible"
                )
            rates = rates / (1.0 - occupancy)
        res = sorkin(ProbabilityVector.from_array(rates), guard)
        rho[i] = res.rho
        defined[i] = res.rho_defined
    return rho, defined


def estimate_rho_series(
    records: Sequence[CountsRecord],
    guard: float = DEFAULT_GUARD,
    dead_time_correction: float = 0.0,
    use_monitor: bool = True,
) -> RhoSeries:
    """Aggregate per-repetition ``rho`` into mean / spread / SEM.

    Undefined repetitions are excluded from the aggregates and counted
    separately; raises if no repetition has a defined ``rho``.
    """
    return RhoSeries.aggregate(*rho_per_repetition(
        records, guard, dead_time_correction, use_monitor
    ))
