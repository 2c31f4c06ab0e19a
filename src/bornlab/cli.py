"""Command-line front end emitting deterministic CSV/JSON artifacts.

Commands map one-to-one onto the toolkit's figure-class computations:

* ``patterns``        eight diffraction curves + pointwise statistics
* ``sorkin``          statistics of one measured counts file
* ``run``             virtual repeated experiment, counts + rho series
* ``sweep-power``     power-fluctuation propagation across the pattern
* ``sweep-mask``      leakage + misalignment sweep (seeded)
* ``sweep-detector``  dead-time / nonlinearity sweep
* ``hierarchy``       sum-rule audit over random amplitude sets

Artifacts are byte-identical for identical (command, config, seed):
CSV floats carry 17 significant digits and JSON floats the shortest repr
that round-trips, and the manifest carries no timestamps or machine
identifiers.  A command's files replace the previous ones only once all
of them are written.

Every table is handed to the writer as a ``_Columns`` table of numpy
columns and encoded straight from them, a block of rows at a time, with
``_BLOCK_CELLS`` cells to a block: each column's format comes from its
dtype, the block's cells are taken with ``tolist()`` and fill the row
template, repeated once per row, with one ``%`` call, and a column
constant within a block is written once, into the template.  (Any
other iterable of rows is taken as object columns, each column's format
chosen from the types of its cells.)  The writer's memory does not grow
with the table, and the bytes do not depend on the block size.  When a
sweep table's second half mirrors its first (the same cells, bit for
bit, with ``position_u`` negated), only the first half is encoded, and
each mirror row's text is read back from the file with its minus sign
removed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import re
import sys
from itertools import islice
from pathlib import Path

import numpy as np

from . import __version__
from ._streams import TAG_HIERARCHY, substream
from .config import (
    ConfigError,
    RunConfig,
    build_objects,
    load_config,
    probability_rule,
)
from .experiment import RhoSeries, RunCounts, rho_per_repetition, run_experiment
from .interference import (
    COMBINATIONS,
    ProbabilityVector,
    SorkinResult,
    interference_terms,
    sorkin_curves,
)
from .optics import pattern_set
from .systematics import (
    RhoSweep,
    detector_rho_sweep,
    misalignment_rho_sweep,
    power_sigma_curves,
    uniform_displacement_sampler,
)

COMMANDS = (
    "patterns",
    "sorkin",
    "run",
    "sweep-power",
    "sweep-mask",
    "sweep-detector",
    "hierarchy",
)

#: Fixed column order of every sweep table; extra per-command columns
#: append after ``rho_defined``.
SWEEP_COLUMNS = (
    "position_u",
    "p0", "pA", "pB", "pC", "pAB", "pBC", "pCA", "pABC",
    "iAB", "iBC", "iCA",
    "epsilon", "delta", "rho", "rho_defined",
)

COUNTS_COLUMNS = ("combination", "counts", "dwell_s")


def _fmt(x) -> str:
    return f"{float(x):.17g}"


#: A JSON row template writes non-finite floats as ``repr`` does; tables
#: carry ``null`` for NaN and ``Infinity``/``-Infinity`` as ``json.dumps``
#: writes them.  A value ends at ``,`` plus newline or at a newline, and a
#: newline never occurs inside an encoded key or string, so the pattern
#: matches values only, in one row or in a block of rows joined.
_JSON_NONFINITE = re.compile(r": (?:nan|-?inf)(?=,?\n)")
_JSON_NONFINITE_TEXT = {": nan": ": null", ": inf": ": Infinity",
                        ": -inf": ": -Infinity"}


def _json_nonfinite(match) -> str:
    return _JSON_NONFINITE_TEXT[match[0]]


def _json_flag(value) -> str:
    return "true" if value else "false"


#: ``json.dumps`` of string cells; a table repeats few distinct strings.
_json_string = functools.lru_cache(maxsize=1024)(json.dumps)


def _cell_spec(fmt: str, name: str, kind: type):
    """``%`` spec and converter (or None) of one cell, chosen by the
    column name and the cell's type.

    CSV: strings as they are, flags and integers in decimal, floats with
    17 significant digits.  JSON: strings through ``json.dumps``, flags
    as ``true``/``false``, integers in decimal, floats as ``json`` writes
    them, except that NaN becomes ``null``.
    """
    if issubclass(kind, str):
        return "%s", (_json_string if fmt == "json" else None)
    if name.endswith("_defined") and fmt == "json":
        return "%s", _json_flag
    if name.endswith("_defined") or issubclass(kind, int):
        return "%d", None
    return ("%.17g" if fmt == "csv" else "%s"), None


#: Cell types whose equal values always encode to the same text.
_FOLDABLE = (bool, int, float, str)


def _column_fill(fmt: str, name: str, cells, kinds: set):
    """The ``%`` spec of one column of a block and the cells that fill it,
    from the set ``kinds`` of its cell types.  A column whose types need
    different specs is given as text, each cell by its own spec.

    A column whose cells all encode to the same text is given as that
    text, ``%``-escaped, and no cells: it is written once, into the row
    template.  The test is exact: one cell type, the first cell equal to
    the last and to every other.  Float zeros are never folded (``0.0 ==
    -0.0``, but their texts differ), and NaN cells never compare equal.
    """
    fields = {_cell_spec(fmt, name, kind) for kind in kinds}
    if len(fields) > 1:
        texts = []
        for value in cells:
            spec, conv = _cell_spec(fmt, name, type(value))
            texts.append(spec % (conv(value) if conv else value))
        return "%s", texts
    (spec, conv), = fields
    first = cells[0]
    if (len(kinds) == 1 and type(first) in _FOLDABLE and first == cells[-1]
            and (first != 0 or type(first) is not float)
            and cells.count(first) == len(cells)):
        return (spec % (conv(first) if conv else first)).replace("%", "%%"), None
    return spec, (map(conv, cells) if conv else cells)


def _encoded_block(fmt: str, header, columns, kinds, n: int) -> str:
    """The text of a block of ``n`` rows (JSON objects joined by ``,``)
    from one ``%`` call on the row template repeated once per row.
    ``columns`` holds the block's cells column by column, in ``header``
    order, and ``kinds`` the set of each column's cell types.  A column
    constant within the block is part of the template (see
    :func:`_column_fill`); only the other columns fill it."""
    specs, fills = zip(*map(functools.partial(_column_fill, fmt), header, columns, kinds))
    if fmt == "csv":
        order, template = range(len(specs)), ",".join(specs) + "\n"
    else:
        # one object of json.dumps(rows, indent=2, sort_keys=True), led by
        # the newline after "[" or ","; a repeated key keeps its last value
        index = {name: i for i, name in enumerate(header)}
        order = [index[name] for name in sorted(index)]
        template = "\n  {\n" + ",\n".join(
            f"    {json.dumps(header[i]).replace('%', '%%')}: {specs[i]}"
            for i in order) + "\n  }"
    # interleave the other columns into row order by strided slice assignment
    order = [i for i in order if fills[i] is not None]
    cells = [None] * (n * len(order))
    for j, i in enumerate(order):
        cells[j::len(order)] = fills[i]
    return ("," if fmt == "json" else "").join([template] * n) % tuple(cells)


#: Cells encoded at a time: a table of ``width`` columns is written in
#: blocks of ``_BLOCK_CELLS // width`` rows (see :func:`_block_rows`).
_BLOCK_CELLS = 6144


def _block_rows(width: int) -> int:
    """Rows in each block of a table of ``width`` columns (at least one)."""
    return max(1, _BLOCK_CELLS // width)


#: The text of one row, without a JSON array's ``[``/``,`` separator.
_ROW_TEXT = {"csv": re.compile(r".*\n"),
             "json": re.compile(r"\n  \{\n(?:    .*\n)*  \}")}

#: The Python type of the cells that ``tolist()`` gives, by dtype kind.
_KIND_TYPES = {"b": bool, "i": int, "u": int, "f": float, "U": str}


def _block_text(fmt: str, header, cols) -> str:
    """The text of one block of rows given as numpy columns.

    Each column's spec comes from its dtype (an object column's from its
    cell types).  A JSON block goes through the non-finite rewrite only
    if a float or object column of it holds a value that is not finite.
    """
    cells = [col.tolist() for col in cols]
    kinds = [{_KIND_TYPES[col.dtype.kind]} if col.dtype.kind in _KIND_TYPES
             else set(map(type, c)) for col, c in zip(cols, cells)]
    text = _encoded_block(fmt, header, cells, kinds, len(cells[0]))
    if fmt == "json" and any(
            col.dtype.kind not in _KIND_TYPES
            or col.dtype.kind == "f" and not np.isfinite(col).all() for col in cols):
        text = _JSON_NONFINITE.sub(_json_nonfinite, text)
    return text


def _object_blocks(rows, size: int):
    """The blocks of ``size`` rows of an iterable of rows, as object columns."""
    rows = iter(rows)
    while block := list(islice(rows, size)):
        yield [np.fromiter(col, object, len(block)) for col in zip(*block)]


def _write_table(path: Path, header, table, fmt: str) -> None:
    """Stream ``table`` to ``path`` as CSV or as a JSON array of objects.

    ``table`` is a :class:`_Columns`, or any iterable of rows (sequences
    of Python scalars in ``header`` order), which is taken as object
    columns.  It is encoded a block of :func:`_block_rows` rows at a time
    by :func:`_block_text`.  The last ``table.mirror`` rows are not
    encoded: once the others are written, the blocks that hold their
    mirror rows are read back from the file, last first, and each row's
    text is written again in reverse order, without the minus sign of its
    first cell.
    """
    size = _block_rows(len(header))
    if isinstance(table, _Columns):
        mirror, stop = table.mirror, table.rows - table.mirror
        blocks = (table.block(start, min(start + size, stop))
                  for start in range(0, stop, size))
    else:
        mirror, blocks = 0, _object_blocks(table, size)
    sep = "," if fmt == "json" else ""
    with open(path, "w+b") as fh:
        fh.write((",".join(header) + "\n").encode() if fmt == "csv" else b"[")
        starts = []    # the offset of each block's first row, then of the end
        for cols in blocks:
            lead = sep if starts else ""
            starts.append(fh.tell() + len(lead))
            fh.write((lead + _block_text(fmt, header, cols)).encode())
        starts.append(fh.tell())
        sign = "-" if fmt == "csv" else json.dumps(header[0]) + ": -"
        for k in range((mirror - 1) // size, -1, -1):
            fh.seek(starts[k])
            texts = _ROW_TEXT[fmt].findall(fh.read(starts[k + 1] - starts[k]).decode())
            fh.seek(0, os.SEEK_END)
            fh.write("".join(sep + text.replace(sign, sign[:-1], 1)
                             for text in texts[mirror - 1 - k * size::-1]).encode())
        if fmt == "json":
            fh.write(b"\n]\n" if len(starts) > 1 else b"]\n")


class _Columns:
    """A table of ``rows`` rows given as numpy columns: ``block(start,
    stop)`` returns the columns of rows ``start:stop``, in header order.
    Its last ``mirror`` rows are its first ``mirror`` rows in reverse
    order, bit for bit, with the (negative) first column negated.

    It also iterates as its ``rows`` rows of Python scalars, taken from
    the columns a block at a time, only so that a wrapper that re-yields
    the rows of a table (perfbench's ``counted_write_table``) takes it;
    such rows are then written as plain rows, without the mirror.
    """

    def __init__(self, rows: int, block, mirror: int = 0):
        self.rows, self.block, self.mirror = rows, block, mirror

    def __iter__(self):
        size = _block_rows(len(self.block(0, 0)))
        for start in range(0, self.rows, size):
            yield from zip(*(col.tolist() for col in self.block(start, start + size)))


def _column_table(columns, mirror: int = 0) -> _Columns:
    """The table of equal-length numpy ``columns``."""
    return _Columns(len(columns[0]),
                    lambda start, stop: [col[start:stop] for col in columns], mirror)


def _bits(col: np.ndarray) -> np.ndarray:
    return col.view(f"u{col.itemsize}")


def _sweep_table(sweep: RhoSweep, extras: dict[str, np.ndarray]) -> _Columns:
    """The table of a sweep.  Its second half mirrors its first (``mirror
    = n // 2``) when row ``n-1-i`` is row ``i`` with ``u < 0`` negated and
    every other cell the same bit for bit."""
    c = sweep.curves
    u = sweep.u
    columns = (u, *sweep.patterns, c.i_ab, c.i_bc, c.i_ca,
               c.epsilon, c.delta, c.rho, c.rho_defined, *extras.values())
    h = u.size // 2
    mirrored = (np.all(u[:h] < 0) and np.array_equal(u[:h], -u[::-1][:h])
                and all(np.array_equal(_bits(col[:h]), _bits(col[::-1][:h]))
                        for col in columns[1:]))
    return _column_table(columns, h if mirrored else 0)


def _write_sweep(path: Path, sweep: RhoSweep, fmt: str,
                 extras: dict[str, np.ndarray] | None = None) -> dict:
    extras = extras or {}
    header = SWEEP_COLUMNS + tuple(extras)
    _write_table(path, header, _sweep_table(sweep, extras), fmt)
    defined = sweep.curves.rho_defined
    n_def = int(np.count_nonzero(defined))
    summary = {
        "points": int(sweep.u.size),
        "rho_defined_points": n_def,
        "max_abs_epsilon": float(np.max(np.abs(sweep.curves.epsilon))),
        "max_abs_rho": (
            float(np.max(np.abs(sweep.curves.rho[defined]))) if n_def else None
        ),
    }
    return summary


def _u_grid(cfg: RunConfig) -> np.ndarray:
    """``linspace(u_min, u_max, u_points)``; a grid symmetric about 0 is
    made an exact mirror (its lower half the negated upper half, its
    middle point 0), so that ``pattern_set`` evaluates each ``|u|`` once."""
    u = np.linspace(cfg.u_min, cfg.u_max, cfg.u_points)
    if cfg.u_min == -cfg.u_max and u.size > 1:
        half = u.size // 2
        u[:half] = -u[:-half - 1:-1]
        if u.size % 2:
            u[half] = 0.0
    return u


class _OutputSet:
    """The files of one command, written under temporary names in the
    output directory and renamed into place together by :meth:`commit`,
    so a failed command leaves the previous set as it was."""

    def __init__(self, out: Path):
        self.out = out
        self.names: list[str] = []

    def _staged(self, name: str) -> Path:
        return self.out / f".{name}.tmp"

    def path(self, name: str) -> Path:
        """Where to write output ``name`` until the set is committed."""
        self.names.append(name)
        return self._staged(name)

    def commit(self) -> None:
        """Rename the staged files into place.  Raises ``OSError`` before
        the first rename if a target exists and is not a regular file."""
        for target in (self.out / name for name in self.names):
            if target.exists() and not target.is_file():
                raise OSError(f"{target} exists and is not a regular file")
        for name in self.names:
            os.replace(self._staged(name), self.out / name)

    def discard(self) -> None:
        """Remove every staged file not committed; never raises, so the
        error that stopped the command is the one reported."""
        for name in self.names:
            with contextlib.suppress(OSError):
                self._staged(name).unlink(missing_ok=True)


def _manifest(path: Path, command: str, cfg: RunConfig, summary: dict,
              outputs: list[str]) -> None:
    payload = {
        "command": command,
        "config": dataclasses.asdict(cfg),
        "seed": cfg.seed,
        "versions": {"bornlab": __version__, "numpy": np.__version__},
        "summary": summary,
        "outputs": outputs,
    }
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False,
                   default=str) + "\n",
        encoding="utf-8",
    )


def _clean(obj):
    """Replace NaN by None so the manifest stays strict JSON."""
    if isinstance(obj, float) and math.isnan(obj):
        return None
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    return obj


def cmd_patterns(cfg: RunConfig, tables: _OutputSet, fmt: str) -> dict:
    plate, mask, _power, _detector = build_objects(cfg)
    u = _u_grid(cfg)
    stacked = pattern_set(plate, mask, u, normalize=True)
    sweep = RhoSweep(u, stacked, sorkin_curves(stacked, cfg.guard))
    return _write_sweep(tables.path(f"patterns.{fmt}"), sweep, fmt)


def cmd_sweep_power(cfg: RunConfig, tables: _OutputSet, fmt: str) -> dict:
    plate, mask, power, _detector = build_objects(cfg)
    u = _u_grid(cfg)
    stacked = pattern_set(plate, mask, u, normalize=True)
    curves = sorkin_curves(stacked, cfg.guard)
    unit = power_sigma_curves(stacked, curves, 1.0)
    sweep = RhoSweep(u, stacked, curves)
    extras = {
        "delta_rho_unit": unit,
        "delta_rho": unit * power.relative_fluctuation,
    }
    summary = _write_sweep(tables.path(f"power_sweep.{fmt}"), sweep, fmt, extras)
    defined = curves.rho_defined
    summary["max_delta_rho_unit"] = (
        float(np.max(unit[defined])) if np.any(defined) else None
    )
    return summary


def cmd_sweep_mask(cfg: RunConfig, tables: _OutputSet, fmt: str) -> dict:
    plate, mask, _power, _detector = build_objects(cfg)
    sampler = uniform_displacement_sampler(
        cfg.displacement_low, cfg.displacement_high
    )
    sweep, displacements = misalignment_rho_sweep(
        plate, mask, sampler, _u_grid(cfg), seed=cfg.seed, guard=cfg.guard
    )
    summary = _write_sweep(tables.path(f"mask_sweep.{fmt}"), sweep, fmt)
    summary["displacements"] = {k: displacements[k] for k in COMBINATIONS}
    return summary


def cmd_sweep_detector(cfg: RunConfig, tables: _OutputSet, fmt: str) -> dict:
    plate, mask, _power, detector = build_objects(cfg)
    u = _u_grid(cfg)
    sweep = detector_rho_sweep(
        plate, mask, detector, u,
        peak_rate=cfg.peak_rate, dynamic_range=cfg.dynamic_range, guard=cfg.guard,
    )
    summary = _write_sweep(tables.path(f"detector_sweep.{fmt}"), sweep, fmt)
    center = int(np.argmin(np.abs(u)))
    if sweep.curves.rho_defined[center]:
        summary["rho_at_center"] = float(sweep.curves.rho[center])
    else:
        summary["rho_at_center"] = None
    return summary


def cmd_run(cfg: RunConfig, tables: _OutputSet, fmt: str) -> dict:
    plate, mask, power, detector = build_objects(cfg)
    run = run_experiment(
        plate, mask, power, detector,
        detector_u=cfg.detector_u, repetitions=cfg.repetitions,
        seed=cfg.seed, poisson=cfg.poisson,
    )
    header = ("repetition", "combination", "counts", "dwell_s",
              "timestamp_index", "monitor_counts")
    _write_table(tables.path(f"run_counts.{fmt}"), header,
                 _count_table(run, cfg.poisson), fmt)

    rho, defined = rho_per_repetition(run, cfg.guard)
    _write_table(
        tables.path(f"run_rho.{fmt}"),
        ("repetition", "rho", "rho_defined"),
        _column_table((np.arange(cfg.repetitions), rho, defined)),
        fmt,
    )
    summary: dict = {
        "repetitions": cfg.repetitions,
        "rho_defined_repetitions": int(np.count_nonzero(defined)),
    }
    try:
        series = RhoSeries.aggregate(rho, defined)
        summary.update(
            mean_rho=series.mean,
            sample_std=series.sample_std,
            sem=series.sem,
            n_undefined=series.n_undefined,
        )
    except ValueError:
        print("warning: rho undefined in every repetition", file=sys.stderr)
        summary.update(mean_rho=None, sample_std=None, sem=None,
                       n_undefined=cfg.repetitions)
    return summary


def _count_table(run: RunCounts, poisson: bool) -> _Columns:
    """The ``run_counts`` table, one row per dwell, with its columns
    sliced out of the run's arrays a block of rows at a time."""
    # Poisson counts are whole numbers and are written as integers
    count_type = np.int64 if poisson else np.float64
    labels = np.array(COMBINATIONS)
    counts, stamps = run.counts.reshape(-1), run.timestamps.reshape(-1)
    monitor = None if run.monitor is None else run.monitor.reshape(-1)

    def block(start, stop):
        dwell = np.arange(start, min(stop, counts.size))
        return (dwell // 8, labels[dwell % 8], counts[start:stop].astype(count_type),
                np.full(dwell.size, run.dwell_time), stamps[start:stop],
                np.full(dwell.size, math.nan) if monitor is None
                else monitor[start:stop].astype(count_type))

    return _Columns(counts.size, block)


def read_counts_file(path) -> ProbabilityVector:
    """Counts file -> rate vector (one row per combination)."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].split(",") != list(COUNTS_COLUMNS):
        raise ConfigError(
            f"counts file must start with header {','.join(COUNTS_COLUMNS)}"
        )
    rates: dict[str, float] = {}
    for ln in lines[1:]:
        parts = [p.strip() for p in ln.split(",")]
        if len(parts) != 3:
            raise ConfigError(f"counts row must have 3 fields (got {ln!r})")
        combo, counts_raw, dwell_raw = parts
        if combo not in COMBINATIONS:
            raise ConfigError(f"unknown combination label {combo!r}")
        if combo in rates:
            raise ConfigError(f"duplicate combination {combo!r}")
        values = []
        for name, raw in (("counts", counts_raw), ("dwell_s", dwell_raw)):
            try:
                values.append(float(raw))
            except ValueError:
                raise ConfigError(
                    f"{combo}: {name} must be a number (got {raw!r})") from None
        counts, dwell = values
        if counts < 0:
            raise ConfigError(f"{combo}: counts must be >= 0 (got {counts})")
        if not dwell > 0:
            raise ConfigError(f"{combo}: dwell_s must be > 0 (got {dwell})")
        for name, value in (("counts", counts), ("dwell_s", dwell)):
            if not math.isfinite(value):
                raise ConfigError(f"{combo}: {name} must be finite (got {value})")
        rates[combo] = counts / dwell
    missing = [c for c in COMBINATIONS if c not in rates]
    if missing:
        raise ConfigError(f"counts file missing combinations: {', '.join(missing)}")
    return ProbabilityVector.from_array([rates[c] for c in COMBINATIONS])


def cmd_sorkin(cfg: RunConfig, tables: _OutputSet, fmt: str, counts_path) -> dict:
    stacked = read_counts_file(counts_path).array.reshape(8, 1)
    curves = sorkin_curves(stacked, cfg.guard)
    res = SorkinResult.from_curves(curves)
    sweep = RhoSweep(np.array([math.nan]), stacked, curves)
    _write_sweep(tables.path(f"sorkin.{fmt}"), sweep, fmt)
    if not res.rho_defined:
        print("warning: rho undefined (delta below guard)", file=sys.stderr)
    print(
        f"epsilon = {_fmt(res.epsilon)}  delta = {_fmt(res.delta)}  rho = "
        + (_fmt(res.rho) if res.rho_defined else "undefined")
    )
    summary = {
        "epsilon": res.epsilon,
        "delta": res.delta,
        "rho": res.rho if res.rho_defined else None,
        "rho_defined": res.rho_defined,
        "signs": {"AB": res.s_ab, "BC": res.s_bc, "CA": res.s_ca},
    }
    return summary


def _order_k_max(rule, rng, k: int, samples: int) -> tuple[float, float]:
    """Max |order-k term| and max of it relative to the largest subset
    probability (at least 1) over random amplitude draws."""
    amps = rng.standard_normal((samples, k)) + 1j * rng.standard_normal((samples, k))
    total, probs = interference_terms(rule, amps)
    scale = np.max(probs, axis=1, initial=1.0)
    rel = np.abs(total) / scale
    return float(np.max(np.abs(total))), float(np.max(rel))


def cmd_hierarchy(cfg: RunConfig, tables: _OutputSet, fmt: str) -> dict:
    rule = probability_rule(cfg)
    rng = substream(cfg.seed, TAG_HIERARCHY)
    tol = 1e-12
    orders = {}
    for k, samples in ((3, 10000), (4, 2000), (5, 2000)):
        max_abs, max_rel = _order_k_max(rule, rng, k, samples)
        null_ok = max_rel <= tol
        orders[str(k)] = {
            "samples": samples,
            "max_abs": max_abs,
            "max_abs_relative": max_rel,
            "tolerance_relative": tol,
            "null_satisfied": null_ok,
        }
        print(
            f"order-{k} sum rule over {samples} random draws: "
            f"max |I_{k}| = {max_rel:.3e} x scale "
            f"({'<=' if null_ok else '>'} {tol:.0e} x scale)"
        )
    # order-2 reference point: equal unit amplitudes interfere maximally
    pair = 4.0 - 1.0 - 1.0
    print(f"order-2 term for equal unit amplitudes = {_fmt(pair)} (nonzero)")
    payload = {
        "rule": cfg.rule,
        "alpha": cfg.alpha,
        "order_2_equal_amplitudes": pair,
        "orders": orders,
    }
    tables.path("hierarchy.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return payload


def dispatch(command: str, cfg: RunConfig, out_dir=None, fmt: str = "csv",
             counts_path=None) -> int:
    """Run one command; writes artifacts + manifest, returns exit status.

    The artifacts and then the manifest replace the previous ones only
    once all of them are written; on failure the output directory keeps
    its previous contents.
    """
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    tables = _OutputSet(out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        if command == "patterns":
            summary = cmd_patterns(cfg, tables, fmt)
        elif command == "sorkin":
            if counts_path is None:
                raise ConfigError("sorkin requires a counts file")
            summary = cmd_sorkin(cfg, tables, fmt, counts_path)
        elif command == "run":
            summary = cmd_run(cfg, tables, fmt)
        elif command == "sweep-power":
            summary = cmd_sweep_power(cfg, tables, fmt)
        elif command == "sweep-mask":
            summary = cmd_sweep_mask(cfg, tables, fmt)
        elif command == "sweep-detector":
            summary = cmd_sweep_detector(cfg, tables, fmt)
        elif command == "hierarchy":
            summary = cmd_hierarchy(cfg, tables, fmt)
        else:
            print(f"error: unknown command {command!r}", file=sys.stderr)
            return 2
        outputs = list(tables.names)
        _manifest(tables.path("manifest.json"), command, cfg, _clean(summary),
                  outputs)
        tables.commit()
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: i/o failure: {exc}", file=sys.stderr)
        return 2
    finally:
        tables.discard()
    for name in outputs:
        print(f"wrote {out / name}")
    return 0


def _add_common_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # registered on the main parser and again on every subparser so the
    # flags work on either side of the command; SUPPRESS keeps a
    # subparser from clobbering values parsed before the command
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--config", metavar="PATH", default=d,
                        help="key = value config file")
    parser.add_argument("--seed", type=int, default=d,
                        help="override the config seed")
    parser.add_argument("--out", metavar="DIR", default=d,
                        help="output directory")
    parser.add_argument("--format", choices=("csv", "json"),
                        default=argparse.SUPPRESS if suppress else "csv",
                        help="artifact table format (hierarchy always writes JSON)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bornlab",
        description="Triple-slit interference null-test toolkit",
    )
    _add_common_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        _add_common_flags(p, suppress=True)
        if name == "sorkin":
            p.add_argument("counts", help="counts file (combination,counts,dwell_s)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError(f"seed: must be >= 0 (got {args.seed})")
            cfg = dataclasses.replace(cfg, seed=args.seed)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    return dispatch(
        args.command, cfg, out_dir=args.out, fmt=args.format,
        counts_path=getattr(args, "counts", None),
    )


def entry() -> None:
    raise SystemExit(main())
