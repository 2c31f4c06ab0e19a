"""Artifact bytes: pinned hashes of the bundled configs' outputs, the
table writer against the per-cell encoders it replaced, and the blocked
conversion of numpy columns to rows."""

import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import bornlab
from bornlab.cli import _ROW_BLOCK, _column_rows, _write_sweep, _write_table, main
from bornlab.interference import sorkin_curves
from bornlab.systematics import RhoSweep

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


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: c.replace(" ", "-"))
def test_bundled_config_artifacts_match_pinned_hashes(case, tmp_path):
    config, command, fmt = case.split()
    out = tmp_path / "out"
    argv = ["--config", str(_config_path(config)),
            "--out", str(out), "--format", fmt, command]
    if command == "sorkin":
        argv.append(str(ROOT / "tests" / "data" / "sorkin_counts.csv"))
    assert main(argv) == 0
    got = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            data = _manifest_bytes(data)
        got[path.name] = hashlib.sha256(data).hexdigest()
    assert got == GOLDEN[case]


# -- the per-cell encoders the writer had before its row templates,
# -- kept verbatim as the reference


def _oracle_cell(name, value):
    if name.endswith("_defined"):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _oracle_json_value(name, value):
    if name == "combination":
        return value
    if name.endswith("_defined"):
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


EDGE_HEADER = ("value", "count", "label", "mixed", "x_defined", "{brace}")
EDGE_ROWS = [
    (math.nan, 0, "plain", 1, True, 0.5),
    (math.inf, 10**20, "Åλ日本", 2, False, -0.0),
    (-math.inf, -(2**63), 'quote " back\\slash\n{x}', 3.5, 1, 1e300),
    (-0.0, True, "nan", 4.25, 0, 5e-324),
    (5e-324, False, ": nan,", -7, True, math.nan),
    (1.7976931348623157e308, 12345678901234567890, "", 2**53 + 1, False, 0.1),
]

TABLES = {
    "edge-values": (EDGE_HEADER, EDGE_ROWS),
    "zero-rows": (EDGE_HEADER, []),
    "int-and-float-column": (
        ("rho", "rho_defined"), [(0.25, True), (3, False), (math.nan, False)]),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("table", sorted(TABLES))
def test_writer_matches_per_cell_encoders(table, fmt, tmp_path):
    header, rows = TABLES[table]
    path = tmp_path / f"table.{fmt}"
    _write_table(path, header, iter(rows), fmt)
    assert path.read_bytes() == _oracle_table(header, rows, fmt).encode("utf-8")


# -- numpy columns are converted to rows a block at a time


def _columns(n):
    """Columns of int, float (NaN included), mixed int/float and flag cells."""
    rng = np.random.default_rng(n)
    rho = rng.standard_normal(n)
    rho[::3] = math.nan
    mixed = np.array([i if i % 2 else i + 0.5 for i in range(n)], dtype=object)
    header = ("repetition", "rho", "mixed", "rho_defined")
    return header, (np.arange(n), rho, mixed, ~np.isnan(rho))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "n", [1, _ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1, 2 * _ROW_BLOCK + 1])
def test_blocked_rows_match_unblocked_rows(n, fmt, tmp_path):
    header, columns = _columns(n)
    blocked, whole = tmp_path / f"blocked.{fmt}", tmp_path / f"whole.{fmt}"
    _write_table(blocked, header, _column_rows(columns), fmt)
    _write_table(whole, header, zip(*(col.tolist() for col in columns)), fmt)
    assert blocked.read_bytes() == whole.read_bytes()


def _sweep(n):
    rng = np.random.default_rng(0)
    patterns = rng.uniform(0.1, 1.0, (8, n))
    return RhoSweep(np.linspace(-3e4, 3e4, n), patterns, sorkin_curves(patterns, 1e-9))


def test_sweep_writer_memory_does_not_grow_with_the_grid(tmp_path):
    # converting all 16 columns of 30,000 points to lists at once peaks
    # near 15 MB; one block of rows takes under 1 MB
    sweep = _sweep(30_000)
    tracemalloc.start()
    try:
        _write_sweep(tmp_path / "sweep.csv", sweep, "csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6
