"""Plain-text run configuration: ``key = value`` lines, strict schema.

Unknown keys are rejected when a file is parsed.  Every ``RunConfig``,
whether parsed, built directly or made by ``dataclasses.replace``, is
checked where it is built: every value is range-checked with a
diagnostic naming the key (every float must be finite), then the
cross-field physical constraints (slit overlap, plate extent, mask
feature overlap), each also naming a key.  A config holds only the
inputs of a result: the output directory is the CLI's ``--out``.

Leakage values are intensity fractions (as transmission measurements
report them); the optics layer works with their square roots as
amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, Callable, get_type_hints

from .interference import DEFAULT_GUARD
from .optics import (
    BLOCKING,
    OPENING,
    CombinationMask,
    SlitPlate,
    combination_mask_for_plate,
    triple_slit_plate,
)
from .systematics import SEQUENCE_ORDERS, DetectorModel, PowerModel


class ConfigError(ValueError):
    """Invalid configuration text or values."""


@dataclass(frozen=True)
class RunConfig:
    """All knobs of a run; defaults reproduce the reference geometry
    (30 um slits, 100 um separation, 100 um openings)."""

    # optics geometry
    slit_width: float = 30e-6
    slit_separation: float = 100e-6
    plate_half_width: float = 2e-3
    plate_leakage: float = 0.0        # intensity fraction
    mask_scheme: str = OPENING
    opening_width: float = 100e-6
    mask_leakage: float = 0.0         # intensity fraction
    mask_displacement: float = 0.0    # meters, static (patterns command)
    # detector-coordinate grid / position
    u_min: float = -40000.0
    u_max: float = 40000.0
    u_points: int = 1001
    detector_u: float = 0.0
    # probability rule: |psi|**2 + alpha * |psi|**3; 0 is Born's rule
    alpha: float = 0.0
    # source power
    mean_power: float = 80000.0       # cps, all-open rate at detector_u
    power_fluctuation: float = 0.0    # relative, per dwell
    power_drift: float = 0.0          # relative, per repetition
    sequence_order: str = "fixed"     # fixed | randomized
    monitor_counts: float = 0.0       # reference-arm counts per dwell; 0 = off
    # detector
    dead_time: float = 0.0            # seconds
    nonlinearity: float = 0.0         # fraction at full scale
    full_scale_rate: float = 1e6      # cps
    dark_rate: float = 0.0            # cps
    dwell_time: float = 37.5          # seconds per combination
    # detector sweep anchors
    peak_rate: float = 80000.0        # cps mapped to the all-open peak
    dynamic_range: float = 100.0      # detected max/min ratio
    # mask sweep displacement sampler, uniform on [low, high]
    displacement_low: float = 0.0
    displacement_high: float = 10e-6
    # experiment
    repetitions: int = 100
    poisson: bool = True
    # shared
    seed: int = 0
    guard: float = DEFAULT_GUARD

    def __post_init__(self):
        for f in fields(self):
            _validate_value(f.name, getattr(self, f.name))
        _cross_validate(self)


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean (got {raw!r})")


_PARSERS: dict[type, Callable[[str], Any]] = {
    float: float,
    int: int,
    bool: _parse_bool,
    str: str,
}

_CHOICES = {
    "mask_scheme": (OPENING, BLOCKING),
    "sequence_order": SEQUENCE_ORDERS,
}

_RANGE_CHECKS: dict[str, tuple[Callable[[Any], bool], str]] = {
    "slit_width": (lambda v: v > 0, "must be > 0"),
    "slit_separation": (lambda v: v > 0, "must be > 0"),
    "plate_half_width": (lambda v: v > 0, "must be > 0"),
    "plate_leakage": (lambda v: 0 <= v <= 1, "must lie in [0, 1]"),
    "opening_width": (lambda v: v > 0, "must be > 0"),
    "mask_leakage": (lambda v: 0 <= v <= 1, "must lie in [0, 1]"),
    "u_points": (lambda v: v >= 1, "must be >= 1"),
    "alpha": (lambda v: v >= 0, "must be >= 0"),
    "mean_power": (lambda v: v > 0, "must be > 0"),
    "power_fluctuation": (lambda v: v >= 0, "must be >= 0"),
    "monitor_counts": (lambda v: v >= 0, "must be >= 0"),
    "dead_time": (lambda v: v >= 0, "must be >= 0"),
    "nonlinearity": (lambda v: 0 <= v < 1, "must lie in [0, 1)"),
    "full_scale_rate": (lambda v: v > 0, "must be > 0"),
    "dark_rate": (lambda v: v >= 0, "must be >= 0"),
    "dwell_time": (lambda v: v > 0, "must be > 0"),
    "peak_rate": (lambda v: v > 0, "must be > 0"),
    "dynamic_range": (lambda v: v > 1, "must be > 1"),
    "repetitions": (lambda v: v >= 1, "must be >= 1"),
    "seed": (lambda v: v >= 0, "must be >= 0"),
    "guard": (lambda v: v > 0, "must be > 0"),
}

_FIELD_TYPES = get_type_hints(RunConfig)


def _validate_value(key: str, value: Any) -> None:
    if key in _CHOICES and value not in _CHOICES[key]:
        raise ConfigError(
            f"{key}: must be one of {', '.join(_CHOICES[key])} (got {value!r})"
        )
    if key in _RANGE_CHECKS:
        ok, constraint = _RANGE_CHECKS[key]
        if not ok(value):
            raise ConfigError(f"{key}: {constraint} (got {value})")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{key}: must be finite (got {value})")


def _cross_validate(cfg: RunConfig) -> None:
    if cfg.u_max <= cfg.u_min:
        raise ConfigError(
            f"u_max: must exceed u_min (got u_min={cfg.u_min}, u_max={cfg.u_max})"
        )
    if cfg.displacement_high < cfg.displacement_low:
        raise ConfigError(
            "displacement_high: must be >= displacement_low "
            f"(got {cfg.displacement_high} < {cfg.displacement_low})"
        )
    if cfg.slit_separation <= cfg.slit_width:
        raise ConfigError(
            "slit_separation: must exceed slit_width for non-overlapping slits "
            f"(got {cfg.slit_separation} <= {cfg.slit_width})"
        )
    # the models' own float comparisons (plate extent, mask features at
    # -d, 0, d), so that build_objects accepts every config that passes
    if cfg.slit_separation + cfg.slit_width / 2 > cfg.plate_half_width:
        raise ConfigError("plate_half_width: must be >= slit_separation + slit_width / 2 "
                          f"(got {cfg.plate_half_width})")
    if cfg.opening_width / 2 > cfg.slit_separation - cfg.opening_width / 2:
        raise ConfigError("opening_width: must be <= slit_separation, or mask features "
                          f"overlap (got {cfg.opening_width} > {cfg.slit_separation})")


def parse_config(text: str) -> RunConfig:
    """Parse ``key = value`` text into a RunConfig, which checks its values.

    ``#`` starts a comment; blank lines are ignored; every key is
    optional and unknown keys are rejected.
    """
    values: dict[str, Any] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value' (got {raw_line!r})")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not raw:
            raise ConfigError(f"line {lineno}: missing value for key {key!r}")
        try:
            values[key] = _PARSERS[_FIELD_TYPES[key]](raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from None
    return RunConfig(**values)


def load_config(path) -> RunConfig:
    """The RunConfig of a config file, read as UTF-8 after an optional
    byte-order mark; a file that cannot be read or decoded raises
    ``ConfigError`` naming it."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read config: {path}: {exc}") from None
    return parse_config(text)


def build_objects(
    cfg: RunConfig,
) -> tuple[SlitPlate, CombinationMask, PowerModel, DetectorModel]:
    """Model objects for a validated config (leakage converted to amplitude)."""
    plate = triple_slit_plate(
        slit_width=cfg.slit_width,
        separation=cfg.slit_separation,
        plate_half_width=cfg.plate_half_width,
        leakage_amplitude=math.sqrt(cfg.plate_leakage),
    )
    mask = combination_mask_for_plate(
        plate,
        scheme=cfg.mask_scheme,
        feature_width=cfg.opening_width,
        leakage_amplitude=math.sqrt(cfg.mask_leakage),
        displacement=cfg.mask_displacement,
    )
    power = PowerModel(
        mean_power=cfg.mean_power,
        relative_fluctuation=cfg.power_fluctuation,
        linear_drift_rate=cfg.power_drift,
        sequence_order=cfg.sequence_order,
        monitor_counts=cfg.monitor_counts,
    )
    detector = DetectorModel(
        dead_time=cfg.dead_time,
        nonlinearity=cfg.nonlinearity,
        full_scale_rate=cfg.full_scale_rate,
        dark_rate=cfg.dark_rate,
        dwell_time=cfg.dwell_time,
    )
    return plate, mask, power, detector
