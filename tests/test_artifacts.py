"""Artifact bytes: pinned hashes of the bundled configs' outputs, also
with numpy's CPU dispatch held at its baseline, the table writer against
the per-cell encoders it replaced, tables encoded from numpy columns
against the same rows, the cell types the writer takes, columns constant
within a block (written once), ``run``'s tables against their
repetition-by-repetition rows and against a wrapper that re-yields them,
mirrored sweep tables against every row encoded, and the writer's bytes
across block sizes."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as _umath

import bornlab
from bornlab import cli
from bornlab.cli import (
    SWEEP_COLUMNS, _block_rows, _column_table, _write_sweep, _write_table, main,
)
from bornlab.experiment import RunCounts
from bornlab.interference import sorkin_curves
from bornlab.systematics import RhoSweep
from oracles import count_rows

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads(
    (ROOT / "tests" / "data" / "artifact_sha256.json").read_text(encoding="utf-8")
)


def _manifest_bytes(data: bytes) -> bytes:
    """Manifest with the package and numpy version strings blanked, so the
    hash pins the layout, config echo and summary but not the versions."""
    text = data.decode("utf-8")
    for key, version in (("bornlab", bornlab.__version__), ("numpy", np.__version__)):
        line = f'"{key}": "{version}"'
        assert text.count(line) == 1
        text = text.replace(line, f'"{key}": ""')
    return text.encode("utf-8")


def _config_path(name: str) -> Path:
    """A bundled config, or else a test config under ``tests/data``."""
    bundled = ROOT / "configs" / f"{name}.cfg"
    return bundled if bundled.exists() else ROOT / "tests" / "data" / f"{name}.cfg"


def _case_argv(case: str, out: Path) -> list:
    """The command line of a pinned case, writing to ``out``."""
    config, command, fmt = case.split()
    argv = ["--config", str(_config_path(config)),
            "--out", str(out), "--format", fmt, command]
    if command == "sorkin":
        argv.append(str(ROOT / "tests" / "data" / "sorkin_counts.csv"))
    return argv


def _hashes(out: Path) -> dict:
    """The hash of each file in ``out``, as ``artifact_sha256.json`` pins it."""
    got = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            data = _manifest_bytes(data)
        got[path.name] = hashlib.sha256(data).hexdigest()
    return got


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: c.replace(" ", "-"))
def test_bundled_config_artifacts_match_pinned_hashes(case, tmp_path):
    assert main(_case_argv(case, tmp_path / "out")) == 0
    assert _hashes(tmp_path / "out") == GOLDEN[case]


# -- the pinned hashes with numpy's CPU dispatch held at its baseline: the
# -- bytes must not depend on which SIMD kernels numpy picks on a machine

#: The dispatch targets above numpy's baseline that this CPU has, so that
#: numpy runs their kernels unless ``NPY_DISABLE_CPU_FEATURES`` names them.
DISPATCHED = [f for f in _umath.__cpu_dispatch__ if _umath.__cpu_features__.get(f)]


def test_pinned_hashes_hold_with_cpu_dispatch_disabled(tmp_path):
    if not DISPATCHED:
        pytest.skip("numpy finds no CPU dispatch target above its baseline here")
    # every pinned case, in one process: about 1 s in all
    cases = sorted(GOLDEN)
    outs = [tmp_path / case.replace(" ", "-") for case in cases]
    code = ("import importlib, json, sys\n"
            "from bornlab.cli import main\n"
            "found = importlib.import_module(sys.argv[1]).__cpu_features__\n"
            "assert not any(found[f] for f in sys.argv[2].split()), 'not disabled'\n"
            "sys.exit(max(main(argv) for argv in json.loads(sys.argv[3])))\n")
    argvs = json.dumps([_case_argv(case, out) for case, out in zip(cases, outs)])
    src = str(Path(bornlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "NPY_DISABLE_CPU_FEATURES": " ".join(DISPATCHED)}
    proc = subprocess.run([sys.executable, "-c", code, _umath.__name__, " ".join(DISPATCHED),
                           argvs], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    for case, out in zip(cases, outs):
        assert _hashes(out) == GOLDEN[case], case


# -- the per-cell encoders the writer had before its row templates,
# -- kept as the reference; a flag is told by its type


def _oracle_cell(name, value):
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _oracle_json_value(name, value):
    if name == "combination":
        return value
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    v = float(value)
    return None if math.isnan(v) else v


def _oracle_table(header, rows, fmt):
    if fmt == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(
                v if isinstance(v, str) else _oracle_cell(name, v)
                for name, v in zip(header, row)
            ))
        return "\n".join(lines) + "\n"
    payload = [
        {name: (v if isinstance(v, str) else _oracle_json_value(name, v))
         for name, v in zip(header, row)}
        for row in rows
    ]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# -- edge tables: typed columns, and the same table as plain rows, through
# -- the CSV encoder and the JSON row template against the per-cell
# -- encoders, at several block sizes; "%" and "{" in keys (a JSON key is
# -- part of the "%" template) and "%" in string cells

EDGE_COLUMN_HEADER = ("value", "count", "big", "label", "x_defined", "n_defined",
                      "50%_level", "{brace}", "step")


def _edge_columns(n=300):
    """Float, integer, flag and string columns cycling through edge cells
    (non-finite, signed zeros, subnormal, out of the encoder's domain,
    ties, -(2**63), uint64 beyond int64, "%", non-ASCII text, U+0000 inside
    a string) among random cells; ``50%_level`` is float32 and ``{brace}``
    int8; ``step`` is constant over its first 150 rows, then alternates
    signed zeros, then is NaN."""
    rng = np.random.default_rng(n)

    def cycled(edges, random):
        col = np.resize(np.array(edges, dtype=random.dtype), n)
        col[::3] = random[::3]
        return col

    step = np.full(n, 2.5)
    step[150:225] = [0.0, -0.0] * 37 + [0.0]
    step[225:] = math.nan
    columns = (
        cycled([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e300,
                1e-280, 2.0**-25, 0.1, -1 / 3, 1e16, 1e17, 999999999999999.875],
               rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)),
        cycled([-(2**63), 2**63 - 1, 0, -1, 10**17, 12345], rng.integers(-10**6, 10**6, n)),
        cycled([12345678901234567890, 2**64 - 1, 0, 10**19],
               rng.integers(0, 2**64 - 1, n, dtype=np.uint64, endpoint=True)),
        np.resize(np.array(["plain", "100%d", "%", "Åλ日本", "a\x00b", "", "%%", "%s%d",
                            'quote " back\\slash\n{x}', "%(value)s", ": nan,"]), n),
        rng.random(n) < 0.5,
        rng.integers(0, 2, n),
        rng.standard_normal(n).astype(np.float32),
        rng.integers(-128, 128, n).astype(np.int8),
        step,
    )
    return EDGE_COLUMN_HEADER, columns


def _edge_table(source, n=300):
    """The edge table's header, its rows, and the table in the form
    ``source`` names: numpy columns, or plain rows.  Plain rows hold no
    ``big`` column, since a plain int cell must fit in int64."""
    header, columns = _edge_columns(n)
    if source == "rows":
        keep = [i for i, name in enumerate(header) if name != "big"]
        header, columns = tuple(header[i] for i in keep), [columns[i] for i in keep]
    rows = list(zip(*(col.tolist() for col in columns)))
    return header, rows, _column_table(columns) if source == "columns" else iter(rows)


@pytest.mark.parametrize("block_rows", [None, 1, 3, 128])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("source", ["columns", "rows"])
def test_edge_table_matches_per_cell_encoders(source, fmt, block_rows, monkeypatch,
                                              tmp_path):
    header, rows, table = _edge_table(source)
    if block_rows is not None:
        monkeypatch.setattr(cli, "_BLOCK_CELLS", block_rows * len(header))
    path = tmp_path / f"table.{fmt}"
    _write_table(path, header, table, fmt)
    assert path.read_bytes() == _oracle_table(header, rows, fmt).encode("utf-8")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("source", ["columns", "rows"])
def test_zero_row_table_matches_per_cell_encoders(source, fmt, tmp_path):
    header, columns = _edge_columns()
    table = _column_table([col[:0] for col in columns]) if source == "columns" else iter([])
    path = tmp_path / f"table.{fmt}"
    _write_table(path, header, table, fmt)
    assert path.read_bytes() == _oracle_table(header, [], fmt).encode("utf-8")


# -- the writer takes bool, int, float and str cells: plain rows are
# -- converted to columns without promotion, and a column of any other
# -- type raises, naming it

BAD_CELLS = {
    "int-and-float": [1, 2.5],
    "bool-and-int": [True, 2],
    "int-beyond-int64": [10**20],
    "none": [None],
    "str-ending-in-nul": ["a", "a\x00"],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(BAD_CELLS))
def test_plain_rows_of_mixed_or_unsupported_cells_raise(case, fmt, tmp_path):
    rows = [(0.5, cell) for cell in BAD_CELLS[case]]
    with pytest.raises(TypeError, match="table column 'bad'"):
        _write_table(tmp_path / f"table.{fmt}", ("ok", "bad"), iter(rows), fmt)


#: Column dtypes the writer refuses; long double only where it is wider
#: than float64 (not on every platform).
BAD_DTYPES = [object, np.complex128] + [np.longdouble] * (np.dtype(np.longdouble).itemsize > 8)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("dtype", BAD_DTYPES)
def test_columns_of_unsupported_dtype_raise(dtype, fmt, tmp_path):
    columns = (np.arange(3.0), np.arange(3).astype(dtype))
    with pytest.raises(TypeError, match="table column 'bad'"):
        _write_table(tmp_path / f"table.{fmt}", ("ok", "bad"), _column_table(columns), fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_only_csv_commands_load_the_csv_encoder(fmt, tmp_path):
    # in a fresh process, since any CSV write in this one has loaded it
    cfg = tmp_path / "run.cfg"
    cfg.write_text("repetitions = 4\n", encoding="utf-8")
    code = ("import sys; from bornlab.cli import main; "
            f"assert main(['--config', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}, "
            f"'--format', {fmt!r}, 'run']) == 0; "
            "print('bornlab._csvtext' in sys.modules)")
    src = str(Path(bornlab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.splitlines()[-1] == str(fmt == "csv")


# -- numpy columns are encoded, or converted to rows, a block at a time

#: Rows in a block of the 3-column table of ``_columns``.
_BLOCK = _block_rows(3)


def _columns(n):
    """Columns of int, float (NaN included) and flag cells."""
    rng = np.random.default_rng(n)
    rho = rng.standard_normal(n)
    rho[::3] = math.nan
    header = ("repetition", "rho", "rho_defined")
    return header, (np.arange(n), rho, ~np.isnan(rho))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
def test_blocked_rows_match_unblocked_rows(n, fmt, tmp_path):
    header, columns = _columns(n)
    blocked, whole = tmp_path / f"blocked.{fmt}", tmp_path / f"whole.{fmt}"
    wrapped = tmp_path / f"wrapped.{fmt}"
    _write_table(blocked, header, _column_table(columns), fmt)
    _write_table(whole, header, zip(*(col.tolist() for col in columns)), fmt)
    _write_table(wrapped, header, (row for row in _column_table(columns)), fmt)
    assert blocked.read_bytes() == whole.read_bytes() == wrapped.read_bytes()


# -- a column whose cells in a block are all the same, bit for bit, is
# -- written once, in CSV and in JSON

#: Rows in a block of the 11-column table of ``_constant_table``.
_CONSTANT_BLOCK = _block_rows(11)


def _constant_table(n):
    """``n`` rows: columns constant over every row (NaN included), then
    two that must not collapse to one text: zeros of both signs (+0.0
    first and last), and a column constant in the first
    ``_CONSTANT_BLOCK`` rows whose next block differs from its first and
    last cell in one inner row."""
    zeros = np.zeros(n)
    zeros[1:-1:5] = -0.0
    step = np.full(n, 2.5)
    step[_CONSTANT_BLOCK + 64] = 3.5
    columns = {
        "low": np.full(n, -(2**63)),
        "x_defined": np.ones(n, dtype=bool),
        "y_defined": np.zeros(n, dtype=bool),
        "50%_level": np.full(n, "%(value)s"),
        "label": np.full(n, "100%"),
        "dwell_s": np.full(n, 37.5),
        "up": np.full(n, math.inf),
        "down": np.full(n, -math.inf),
        "zero": zeros,
        "nan": np.full(n, math.nan),
        "step": step,
    }
    return tuple(columns), tuple(columns.values())


def test_only_bit_identical_columns_fold():
    header, columns = _constant_table(2 * _CONSTANT_BLOCK)
    for start, kept in ((0, {"zero"}), (_CONSTANT_BLOCK, {"zero", "step"})):
        folded = {name for name, col in zip(header, columns)
                  if cli._constant(col[start:start + _CONSTANT_BLOCK])}
        assert folded == set(header) - kept


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("source", ["columns", "rows"])
def test_constant_columns_match_per_cell_encoders(source, fmt, tmp_path):
    # blocks of _CONSTANT_BLOCK rows, from columns and from rows alike
    header, columns = _constant_table(2 * _CONSTANT_BLOCK + 1)
    rows = list(zip(*(col.tolist() for col in columns)))
    path = tmp_path / f"table.{fmt}"
    _write_table(path, header, _column_table(columns) if source == "columns"
                 else iter(rows), fmt)
    assert path.read_bytes() == _oracle_table(header, rows, fmt).encode("utf-8")


def _sweep(n):
    rng = np.random.default_rng(0)
    patterns = rng.uniform(0.1, 1.0, (8, n))
    return RhoSweep(np.linspace(-3e4, 3e4, n), patterns, sorkin_curves(patterns, 1e-9))


def _mirrored_sweep(n):
    """A sweep on a mirror grid built as ``_u_grid`` builds one (odd grids
    have a +0.0 middle point) with curves even in ``u``; every fifth point
    of the first half has eight equal values, so ``rho`` is NaN there."""
    h = n // 2
    u = np.linspace(-3e4, 3e4, n)
    u[:h] = -u[:-h - 1:-1]
    if n % 2:
        u[h] = 0.0
    half = np.random.default_rng(n).uniform(0.1, 1.0, (8, n - h))
    half[:, ::5] = 0.5
    patterns = np.concatenate([half, half[:, :h][:, ::-1]], axis=1)
    return RhoSweep(u, patterns, sorkin_curves(patterns, 1e-9))


def test_sweep_writer_memory_does_not_grow_with_the_grid(tmp_path):
    # converting all 16 columns of 30,000 points to lists at once peaks
    # near 15 MB; one block of rows takes under 1 MB, and a mirrored
    # sweep reads back a few rows at a time instead of keeping their text
    for sweep in (_sweep(30_000), _mirrored_sweep(30_000)):
        tracemalloc.start()
        try:
            _write_sweep(tmp_path / "sweep.csv", sweep, "csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6


# -- run's tables are encoded from their columns: their bytes must be
# -- those of the repetition-by-repetition rows, and of the same table
# -- passed on as plain rows, as a wrapper that re-yields them does


def _run_tables(tmp_path, monkeypatch, fmt, poisson, monitor, undefined=False):
    """Run ``main`` on a 20-repetition config in blocks of 42 cells (7 rows
    of ``run_counts``, 14 of ``run_rho``); the run,
    and each table it wrote: file name, header and the rows argument.
    With ``undefined``, every third repetition's ``rho`` is made NaN."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "repetitions = 20\ndwell_time = 37.5\nmean_power = 80000\n"
        "dead_time = 50e-9\npower_drift = 1e-4\npower_fluctuation = 1e-3\n"
        f"sequence_order = randomized\nmonitor_counts = {monitor}\n"
        f"poisson = {str(poisson).lower()}\ndetector_u = 500\n",
        encoding="utf-8",
    )
    run_experiment, rho_per_repetition = cli.run_experiment, cli.rho_per_repetition
    write_table, runs, tables = cli._write_table, [], []

    def recorded_run(*args, **kwargs):
        runs.append(run_experiment(*args, **kwargs))
        return runs[-1]

    def rho_with_nan(*args, **kwargs):
        rho, defined = rho_per_repetition(*args, **kwargs)
        if undefined:
            rho[::3], defined[::3] = math.nan, False
        return rho, defined

    def recorded_write(path, header, rows, fmt):
        tables.append((Path(path).name.strip(".").removesuffix(".tmp"), header, rows))
        write_table(path, header, rows, fmt)

    monkeypatch.setattr(cli, "run_experiment", recorded_run)
    monkeypatch.setattr(cli, "rho_per_repetition", rho_with_nan)
    monkeypatch.setattr(cli, "_write_table", recorded_write)
    monkeypatch.setattr(cli, "_BLOCK_CELLS", 42)    # 20 repetitions: 160 rows
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--format", fmt, "run"]) == 0
    monkeypatch.undo()
    run, = runs
    assert (run.monitor is None) == (monitor == 0.0)
    return out, run, tables


def _assert_same_bytes_as_rows(tmp_path, out, fmt, name, header, table, rows):
    """The table's file holds the bytes of ``rows`` and of the table read
    row by row through a generator."""
    assert isinstance(table, cli._Columns)
    written = (out / name).read_bytes()
    for i, source in enumerate((rows, (row for row in table))):
        path = tmp_path / f"rows{i}.{fmt}"
        _write_table(path, header, source, fmt)
        assert path.read_bytes() == written


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("poisson", [True, False], ids=["poisson", "expected"])
@pytest.mark.parametrize("monitor", [1e6, 0.0], ids=["monitor", "no-monitor"])
def test_count_rows_match_record_loop(fmt, poisson, monitor, monkeypatch, tmp_path):
    out, run, tables = _run_tables(tmp_path, monkeypatch, fmt, poisson, monitor)
    name, header, table = tables[0]
    assert name == f"run_counts.{fmt}"
    _assert_same_bytes_as_rows(tmp_path, out, fmt, name, header, table,
                               count_rows(run, poisson))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("undefined", [False, True], ids=["defined", "nan-rho"])
def test_rho_rows_match_repetition_loop(fmt, undefined, monkeypatch, tmp_path):
    out, _run, tables = _run_tables(tmp_path, monkeypatch, fmt, True, 1e6, undefined)
    name, header, table = tables[1]
    assert name == f"run_rho.{fmt}"
    rows = list(table)
    assert [row[0] for row in rows] == list(range(20))
    assert sum(math.isnan(row[1]) for row in rows) == (7 if undefined else 0)
    _assert_same_bytes_as_rows(tmp_path, out, fmt, name, header, table, rows)
    # NaN rho is written as null (JSON) or nan (CSV)
    assert (out / name).read_bytes() == _oracle_table(header, rows, fmt).encode()


def test_count_table_memory_does_not_grow_with_the_run(tmp_path):
    # 20,000 repetitions: 160,000 rows, whose columns as lists would take
    # tens of MB; the writer holds one block of slices and lists at a time
    reps = 20_000
    counts = np.arange(8 * reps, dtype=float).reshape(reps, 8)
    run = RunCounts(counts, 37.5, np.arange(8 * reps).reshape(reps, 8), counts + 0.5)
    tracemalloc.start()
    try:
        _write_table(tmp_path / "counts.json", ("repetition", "combination", "counts",
                     "dwell_s", "timestamp_index", "monitor_counts"),
                     cli._count_table(run, True), "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6


# -- a mirrored sweep encodes each row pair once: its bytes must be those
# -- of every row encoded

#: Rows in a block of a sweep table without extra columns.
_SWEEP_BLOCK = _block_rows(len(SWEEP_COLUMNS))


def _power_extras(sweep):
    c = sweep.curves
    unit = np.where(c.rho_defined, c.delta * 0.25, math.nan)
    return {"delta_rho_unit": unit, "delta_rho": unit * 0.01}


def _mirrored_rows_written(monkeypatch, path, sweep, fmt, extras):
    """Write ``sweep`` through ``_write_sweep``; the ``mirror`` of the
    table it handed to the writer, which ``_sweep_table`` built."""
    write_table, tables = cli._write_table, []

    def recorded(path, header, table, fmt):
        tables.append(table)
        write_table(path, header, table, fmt)

    monkeypatch.setattr(cli, "_write_table", recorded)
    _write_sweep(path, sweep, fmt, extras)
    monkeypatch.undo()
    table, = tables
    assert table.rows == sweep.u.size
    assert table.mirror == cli._sweep_table(sweep, extras).mirror
    return table.mirror


def _assert_matches_plain_writer(monkeypatch, tmp_path, sweep, fmt, extras):
    mirrored, plain = tmp_path / f"mirrored.{fmt}", tmp_path / f"plain.{fmt}"
    n_mirrored = _mirrored_rows_written(monkeypatch, mirrored, sweep, fmt, extras)
    _write_table(plain, SWEEP_COLUMNS + tuple(extras),
                 _column_table((sweep.u, *sweep.patterns, *sweep.curves,
                               *extras.values())), fmt)
    assert mirrored.read_bytes() == plain.read_bytes()
    return n_mirrored


@pytest.mark.parametrize("power", [False, True], ids=["sweep", "power"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n", [2, 3, 257, 2 * _SWEEP_BLOCK + 1, 2 * _SWEEP_BLOCK + 2])
def test_mirrored_sweep_matches_plain_writer(n, fmt, power, monkeypatch, tmp_path):
    sweep = _mirrored_sweep(n)
    assert np.isnan(sweep.curves.rho[0])
    if n % 2:
        assert math.copysign(1.0, sweep.u[n // 2]) == 1.0
    extras = _power_extras(sweep) if power else {}
    assert _assert_matches_plain_writer(
        monkeypatch, tmp_path, sweep, fmt, extras) == n // 2


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n", [2, 3, 2 * _SWEEP_BLOCK + 1])
def test_mirrored_sweep_rows_from_a_generator_match_its_columns(n, fmt, tmp_path):
    # a wrapper that re-yields a table's rows (perfbench's traced writer)
    # hands the writer every row of a mirrored sweep, and no mirror
    table = cli._sweep_table(_mirrored_sweep(n), {})
    assert table.mirror == n // 2
    columns, rows = tmp_path / f"columns.{fmt}", tmp_path / f"rows.{fmt}"
    _write_table(columns, SWEEP_COLUMNS, table, fmt)
    _write_table(rows, SWEEP_COLUMNS, (row for row in table), fmt)
    assert rows.read_bytes() == columns.read_bytes()


def _nudged(column):
    def nudge(sweep, extras):
        values = extras[column] if column in extras else (
            sweep.patterns[SWEEP_COLUMNS.index(column) - 1] if column[0] == "p"
            else getattr(sweep.curves, column))
        values[-2] = np.nextafter(values[-2], math.inf)
    return nudge


def _signed_zero(sweep, extras):
    sweep.curves.epsilon[0], sweep.curves.epsilon[-1] = 0.0, -0.0


def _shifted_grid(sweep, extras):
    sweep.u[:] = np.linspace(-3e4, 2e4, sweep.u.size)


FALLBACKS = {
    "pABC-one-ulp-off": _nudged("pABC"),
    "delta-one-ulp-off": _nudged("delta"),
    "extra-column-one-ulp-off": _nudged("delta_rho"),
    "signed-zero-epsilon": _signed_zero,
    "grid-not-mirrored": _shifted_grid,
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(FALLBACKS))
def test_unmirrored_sweep_falls_back_to_plain_writer(case, fmt, monkeypatch, tmp_path):
    sweep = _mirrored_sweep(2 * _SWEEP_BLOCK + 1)
    extras = _power_extras(sweep)
    FALLBACKS[case](sweep, extras)
    assert _assert_matches_plain_writer(monkeypatch, tmp_path, sweep, fmt, extras) == 0


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_one_point_nan_grid_takes_plain_writer(fmt, monkeypatch, tmp_path):
    patterns = np.linspace(0.1, 0.8, 8).reshape(8, 1)
    sweep = RhoSweep(np.array([math.nan]), patterns, sorkin_curves(patterns, 1e-9))
    assert _assert_matches_plain_writer(monkeypatch, tmp_path, sweep, fmt, {}) == 0


# -- the bytes of a mirrored sweep must not depend on the block size


def _write_mirrored_sweep(n):
    return len(SWEEP_COLUMNS), lambda path, fmt: _write_sweep(
        path, _mirrored_sweep(n), fmt, {})


#: Each case: its header width, and a function writing it to a path.
BLOCK_INPUTS = {
    # 151 encoded rows, then 150 mirror rows: with 3 or 128 rows a block,
    # the last encoded block holds mirrored rows and the middle row
    "mirrored-sweep": _write_mirrored_sweep(301),
    # 384 encoded rows: the first half ends on a block edge with 1, 3 and
    # 128 rows a block, and at the default block size
    "mirrored-sweep-block-edge": _write_mirrored_sweep(768),
}


@pytest.mark.parametrize("block_rows", [1, 3, 128])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(BLOCK_INPUTS))
def test_writer_bytes_do_not_depend_on_block_size(case, fmt, block_rows, monkeypatch,
                                                  tmp_path):
    width, write = BLOCK_INPUTS[case]
    unpatched, patched = tmp_path / f"unpatched.{fmt}", tmp_path / f"patched.{fmt}"
    write(unpatched, fmt)
    monkeypatch.setattr(cli, "_BLOCK_CELLS", block_rows * width)
    write(patched, fmt)
    assert patched.read_bytes() == unpatched.read_bytes()
