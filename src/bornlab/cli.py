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
``_BLOCK_CELLS`` cells to a block; plain rows, from a wrapper that
re-yields a table's rows, are converted back to columns a block at a
time.  A column is bool, integer, float of at most 64 bits or str, and
its dtype alone sets the text of its cells:

=======  ===============  ==========================================
dtype    CSV              JSON
=======  ===============  ==========================================
bool     ``1``, ``0``     ``true``, ``false``
integer  decimal          decimal
float    ``'%.17g' %``    ``repr``; NaN ``null``, inf ``Infinity``
str      the string       ``json.dumps``
=======  ===============  ==========================================

Any other column raises ``TypeError`` naming it.  A column whose cells
in a block are all the same, bit for bit, is written once for the block,
in either format.  A CSV block is built by ``_csvtext`` as one byte
matrix: each float cell gets the digits of ``'%.17g' %``, correctly
rounded on whole arrays at once, and a cell that path cannot decide (a
tie at the 17th digit, ``|x|`` outside ``[1e-280, 1e280]``, zero aside,
or not finite) is written by ``'%.17g' %`` itself.  A JSON block fills a
row template, one object repeated once per row, with one ``%`` call.
The writer's memory does not grow with the table, and the bytes do not
depend on the block size.  When a sweep table's second half mirrors its
first (the same cells, bit for bit, with ``position_u`` negated), only
the first half is encoded, and each mirror row's text is read back from
the file with its minus sign removed.  README "Output" gives the
writer's timings.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
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
from .config import ConfigError, RunConfig, build_objects, load_config
from .experiment import RhoSeries, RunCounts, rho_per_repetition, run_experiment
from .interference import COMBINATIONS, ProbabilityRule, interference_terms, sorkin_curves
from .optics import pattern_set
from .systematics import (
    RhoSweep,
    detector_rho_sweep,
    misalignment_rho_sweep,
    power_sigma_curves,
    uniform_displacement_sampler,
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
_JSON_NONFINITE = re.compile(rb": (?:nan|-?inf)(?=,?\n)")
_JSON_NONFINITE_TEXT = {b": nan": b": null", b": inf": b": Infinity",
                        b": -inf": b": -Infinity"}


def _json_nonfinite(match) -> bytes:
    return _JSON_NONFINITE_TEXT[match[0]]


def _json_cells(col: np.ndarray):
    """The bytes ``%`` spec of a column's JSON cells and the values that
    fill it, by dtype kind: strings as their ``json.dumps`` text, which
    is ASCII (once for each distinct string), flags as ``true``/``false``,
    integers in decimal, floats as ``repr`` writes them (``%r``)."""
    kind = col.dtype.kind
    if kind == "U":
        cells = col.tolist()
        texts = {s: json.dumps(s).encode() for s in set(cells)}
        return b"%s", list(map(texts.__getitem__, cells))
    if kind == "b":
        return b"%s", np.where(col, b"true", b"false").tolist()
    return (b"%d" if kind in "iu" else b"%r"), col.tolist()


def _json_block(header, cols, constant) -> bytes:
    """The JSON text of a block of rows (objects joined by ``,``), as
    bytes, from one ``%`` call on the row template repeated once per
    row.  The template is one object of ``json.dumps(rows, indent=2,
    sort_keys=True)``, led by the newline after ``[`` or ``,``; a
    repeated key keeps its last value.  A column flagged in ``constant``
    is written once, into the template; only the other columns fill it."""
    index = {name: i for i, name in enumerate(header)}
    fields, fills = [], []
    for name in sorted(index):
        i = index[name]
        spec, cells = _json_cells(cols[i][:1] if constant[i] else cols[i])
        if constant[i]:
            spec = (spec % cells[0]).replace(b"%", b"%%")
        else:
            fills.append(cells)
        fields.append(b"    %s: %s" % (json.dumps(name).encode().replace(b"%", b"%%"), spec))
    template = b"\n  {\n" + b",\n".join(fields) + b"\n  }"
    # interleave the other columns into row order by strided slice assignment
    n = len(cols[0])
    cells = [None] * (n * len(fills))
    for j, fill in enumerate(fills):
        cells[j::len(fills)] = fill
    text = b",".join([template] * n) % tuple(cells)
    if any(col.dtype.kind == "f" and not np.isfinite(col).all() for col in cols):
        text = _JSON_NONFINITE.sub(_json_nonfinite, text)
    return text


#: Cells encoded at a time: a table of ``width`` columns is written in
#: blocks of ``_BLOCK_CELLS // width`` rows (see :func:`_block_rows`).
_BLOCK_CELLS = 6144


def _block_rows(width: int) -> int:
    """Rows in each block of a table of ``width`` columns (at least one)."""
    return max(1, _BLOCK_CELLS // width)


#: The text of one row, without a JSON array's ``[``/``,`` separator.
_ROW_TEXT = {"csv": re.compile(r".*\n"),
             "json": re.compile(r"\n  \{\n(?:    .*\n)*  \}")}


def _column_type_error(name: str) -> TypeError:
    return TypeError(f"table column {name!r} is not all bool, int, float or str "
                     "(numbers of at most 64 bits)")


def _constant(col: np.ndarray) -> bool:
    """Whether the cells of a block's column are all the same, bit for bit
    (so ``0.0`` and ``-0.0`` differ, and NaNs of one bit pattern do not)."""
    same = col if col.dtype.kind == "U" else col.view(f"u{col.itemsize}")
    return bool((same == same[0]).all())


def _block_text(fmt: str, header, cols) -> bytes:
    """The text of one block of rows given as numpy columns, UTF-8 encoded:
    CSV by :func:`_csvtext.block_bytes`, JSON by :func:`_json_block`, each
    column constant within the block written once.  Raises ``TypeError``
    naming a column that is not bool, integer, float of at most 64 bits
    or str."""
    for name, col in zip(header, cols):
        if not (col.dtype.kind in "biuU" or col.dtype.kind == "f" and col.itemsize <= 8):
            raise _column_type_error(name)
    constant = [_constant(col) for col in cols]
    if fmt == "json":
        return _json_block(header, cols, constant)
    # imported here, so that a command writing no CSV never loads it
    from . import _csvtext
    return _csvtext.block_bytes(cols, constant)


#: The dtype of a plain-row column, by the one Python type of its cells.
_CELL_DTYPES = {bool: np.bool_, int: np.int64, float: np.float64, str: np.str_}


def _row_column(name: str, cells) -> np.ndarray:
    """The numpy column of one column's cells in a block of plain rows.
    Raises ``TypeError`` naming the column unless its cells are all of
    one type of ``_CELL_DTYPES`` (``bool`` is not ``int``), each int
    fits in int64 and no str ends in U+0000, which numpy's str dtype
    drops; ``np.array`` alone would promote mixed cells."""
    kinds = set(map(type, cells))
    if len(kinds) == 1 and (dtype := _CELL_DTYPES.get(kinds.pop())):
        if dtype is not np.str_ or not any(c.endswith("\x00") for c in cells):
            with contextlib.suppress(OverflowError):
                return np.array(cells, dtype)
    raise _column_type_error(name)


def _row_blocks(header, rows, size: int):
    """The blocks of ``size`` rows of an iterable of plain rows, as numpy
    columns."""
    rows = iter(rows)
    while block := list(islice(rows, size)):
        yield [_row_column(name, cells) for name, cells in zip(header, zip(*block))]


def _write_table(path: Path, header, table, fmt: str) -> None:
    """Stream ``table`` to ``path`` as CSV or as a JSON array of objects.

    ``table`` is a :class:`_Columns`, or any iterable of plain rows
    (sequences of bool, int, float or str cells in ``header`` order),
    which is converted to numpy columns a block at a time (see
    :func:`_row_column`).  It is encoded a block of :func:`_block_rows`
    rows at a time by :func:`_block_text`.  The last ``table.mirror``
    rows are not encoded: once the others are written, the blocks that
    hold their mirror rows are read back from the file, last first, and
    each row's text is written again in reverse order, without the minus
    sign of its first cell.
    """
    size = _block_rows(len(header))
    if isinstance(table, _Columns):
        mirror, stop = table.mirror, table.rows - table.mirror
        blocks = (table.block(start, min(start + size, stop))
                  for start in range(0, stop, size))
    else:
        mirror, blocks = 0, _row_blocks(header, table, size)
    sep = "," if fmt == "json" else ""
    with open(path, "w+b") as fh:
        fh.write((",".join(header) + "\n").encode() if fmt == "csv" else b"[")
        starts = []    # the offset of each block's first row, then of the end
        for cols in blocks:
            lead = sep if starts else ""
            starts.append(fh.tell() + len(lead))
            fh.write(lead.encode() + _block_text(fmt, header, cols))
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
    stop)`` returns the columns of rows ``start:stop``, in header order,
    each bool, integer, float of at most 64 bits or str.  Its last
    ``mirror`` rows are its first ``mirror`` rows in reverse order, bit
    for bit, with the (negative) first column negated.

    It also iterates as its ``rows`` rows of Python scalars, taken from
    the columns a block at a time, only so that a wrapper that re-yields
    the rows of a table (perfbench's ``counted_write_table``) takes it;
    such rows are then written as plain rows, converted back to columns
    of the same text, without the mirror.
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
    middle point 0), so that ``pattern_set`` evaluates only its upper half."""
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


def cmd_patterns(cfg: RunConfig, tables: _OutputSet, fmt: str, counts_path) -> dict:
    plate, mask, _power, _detector = build_objects(cfg)
    u = _u_grid(cfg)
    stacked = pattern_set(plate, mask, u, normalize=True)
    sweep = RhoSweep(u, stacked, sorkin_curves(stacked, cfg.guard))
    return _write_sweep(tables.path(f"patterns.{fmt}"), sweep, fmt)


def cmd_sweep_power(cfg: RunConfig, tables: _OutputSet, fmt: str, counts_path) -> dict:
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


def cmd_sweep_mask(cfg: RunConfig, tables: _OutputSet, fmt: str, counts_path) -> dict:
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


def cmd_sweep_detector(cfg: RunConfig, tables: _OutputSet, fmt: str, counts_path) -> dict:
    nonzero = [key for key in ("plate_leakage", "mask_leakage", "mask_displacement")
               if getattr(cfg, key) != 0.0]
    if nonzero:
        raise ConfigError("detector sweep requires zero leakage and zero mask "
                          f"displacement (ideal optics); nonzero: {', '.join(nonzero)}")
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


def cmd_run(cfg: RunConfig, tables: _OutputSet, fmt: str, counts_path) -> dict:
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


def read_counts_file(path) -> np.ndarray:
    """Counts file -> (8, 1) rates ``counts / dwell_s``, one row per
    combination in ``COMBINATIONS`` order."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read counts file {path}: {exc}") from None
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
        counts += 0.0    # a count of -0 is stored as +0
        if counts < 0:
            raise ConfigError(f"{combo}: counts must be >= 0 (got {counts})")
        if not dwell > 0:
            raise ConfigError(f"{combo}: dwell_s must be > 0 (got {dwell})")
        rate = counts / dwell
        for name, value in (("counts", counts), ("dwell_s", dwell),
                            ("counts / dwell_s", rate)):
            if not math.isfinite(value):
                raise ConfigError(f"{combo}: {name} must be finite (got {value})")
        rates[combo] = rate
    missing = [c for c in COMBINATIONS if c not in rates]
    if missing:
        raise ConfigError(f"counts file missing combinations: {', '.join(missing)}")
    return np.array([[rates[c]] for c in COMBINATIONS])


def cmd_sorkin(cfg: RunConfig, tables: _OutputSet, fmt: str, counts_path) -> dict:
    if counts_path is None:
        raise ConfigError("sorkin requires a counts file")
    rates = read_counts_file(counts_path)
    curves = sorkin_curves(rates, cfg.guard)
    _write_sweep(tables.path(f"sorkin.{fmt}"),
                 RhoSweep(np.array([math.nan]), rates, curves), fmt)
    epsilon, delta, rho = (float(c[0]) for c in curves[3:6])
    defined = bool(curves.rho_defined[0])
    if not defined:
        print("warning: rho undefined (delta below guard)", file=sys.stderr)
    print(f"epsilon = {_fmt(epsilon)}  delta = {_fmt(delta)}  rho = "
          + (_fmt(rho) if defined else "undefined"))
    return {
        "epsilon": epsilon,
        "delta": delta,
        "rho": rho if defined else None,
        "rho_defined": defined,
        "signs": {xy: int(np.sign(c[0])) for xy, c in zip(("AB", "BC", "CA"), curves)},
    }


def _order_k_max(rule, rng, k: int, samples: int) -> tuple[float, float]:
    """Max |order-k term| and max of it relative to the largest subset
    probability (at least 1) over random amplitude draws."""
    amps = rng.standard_normal((samples, k)) + 1j * rng.standard_normal((samples, k))
    total, probs = interference_terms(rule, amps)
    scale = np.max(probs, axis=1, initial=1.0)
    rel = np.abs(total) / scale
    return float(np.max(np.abs(total))), float(np.max(rel))


def cmd_hierarchy(cfg: RunConfig, tables: _OutputSet, fmt: str, counts_path) -> dict:
    rule = ProbabilityRule(cfg.alpha)
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
        "rule": "cubic" if cfg.alpha else "born",
        "alpha": cfg.alpha,
        "order_2_equal_amplitudes": pair,
        "orders": orders,
    }
    tables.path("hierarchy.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return payload


#: Every command by name.  A command takes the config, the output set it
#: writes its tables into, the table format and the counts file (None
#: unless given; only ``sorkin`` reads one), and returns the manifest's
#: summary.
COMMANDS = {
    "patterns": cmd_patterns,
    "sorkin": cmd_sorkin,
    "run": cmd_run,
    "sweep-power": cmd_sweep_power,
    "sweep-mask": cmd_sweep_mask,
    "sweep-detector": cmd_sweep_detector,
    "hierarchy": cmd_hierarchy,
}


def dispatch(command: str, cfg: RunConfig, out_dir=".", fmt: str = "csv",
             counts_path=None) -> int:
    """Run one command; writes artifacts + manifest, returns exit status.

    The artifacts and then the manifest replace the previous ones only
    once all of them are written; on failure the output directory keeps
    its previous contents.
    """
    if command not in COMMANDS:
        print(f"error: unknown command {command!r}", file=sys.stderr)
        return 2
    out = Path(out_dir)
    tables = _OutputSet(out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        summary = COMMANDS[command](cfg, tables, fmt, counts_path)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bornlab",
        description="Triple-slit interference null-test toolkit",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("counts", nargs="?",
                        help="counts file (combination,counts,dwell_s); sorkin only")
    parser.add_argument("--config", metavar="PATH", help="key = value config file")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", metavar="DIR", default=".", help="output directory")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="artifact table format (hierarchy always writes JSON)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # intermixed, so that flags may also follow the command or its file
    args = parser.parse_intermixed_args(argv)
    if (args.command == "sorkin") != (args.counts is not None):
        parser.error("sorkin requires a counts file" if args.command == "sorkin"
                     else f"{args.command} takes no counts file")
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return dispatch(args.command, cfg, out_dir=args.out, fmt=args.format,
                    counts_path=args.counts)


def entry() -> None:
    raise SystemExit(main())
