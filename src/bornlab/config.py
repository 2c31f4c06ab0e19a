"""Plain-text run configuration: ``key = value`` lines, strict schema.

Unknown keys are rejected, every value is range-checked with a
diagnostic naming the key (every float must be finite), and cross-field
physical constraints (slit overlap, plate extent) are validated at parse
time.

Leakage values are intensity fractions (as transmission measurements
report them); the optics layer works with their square roots as
amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, Callable

from .interference import BORN, ProbabilityRule
from .optics import (
    BLOCKING,
    OPENING,
    CombinationMask,
    SlitPlate,
    combination_mask_for_plate,
    triple_slit_plate,
)
from .systematics import DetectorModel, PowerModel


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
    # probability rule
    rule: str = "born"                # born | cubic
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
    guard: float = 1e-9
    out_dir: str = "."


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
    "rule": ("born", "cubic"),
    "sequence_order": ("fixed", "randomized"),
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

_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_TYPE_OBJECTS = {"float": float, "int": int, "bool": bool, "str": str}


def _field_type(name: str) -> type:
    t = _FIELD_TYPES[name]
    return _TYPE_OBJECTS[t] if isinstance(t, str) else t


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
    if cfg.alpha != 0 and cfg.rule != "cubic":
        raise ConfigError(
            f"alpha: only rule = cubic uses it (got alpha = {cfg.alpha}, "
            f"rule = {cfg.rule})"
        )
    if cfg.slit_separation <= cfg.slit_width:
        raise ConfigError(
            "slit_separation: must exceed slit_width for non-overlapping slits "
            f"(got {cfg.slit_separation} <= {cfg.slit_width})"
        )
    # construct every model object once so all physical bounds are
    # enforced here, with the offending key in the diagnostic
    try:
        build_objects(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_config(text: str) -> RunConfig:
    """Parse ``key = value`` text into a validated RunConfig.

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
            value = _PARSERS[_field_type(key)](raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from None
        _validate_value(key, value)
        values[key] = value
    cfg = RunConfig(**values)
    _cross_validate(cfg)
    return cfg


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


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


def probability_rule(cfg: RunConfig) -> ProbabilityRule:
    if cfg.rule == "born":
        return BORN
    return ProbabilityRule(alpha=cfg.alpha)
