"""The benchmark's output checks pass real outputs and flag corrupted ones.

Each test runs one small benchmark child (the same code path as a
measured run, on a shrunken config), checks its outputs, then corrupts
them and checks again.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

import checks
import run

ROOT = Path(__file__).resolve().parent.parent

SMALL = {
    "mask-sweep": {"u_points": "401"},
    "overnight-run": {"repetitions": "20", "power_fluctuation": "1e-3",
                      "monitor_counts": "1e6", "sequence_order": "randomized"},
    "misalignment-mc": {},
}


def small_child(tmp_path: Path, name: str, monkeypatch) -> run.Child:
    workload = {**run.WORKLOADS[name], "overrides": SMALL[name]}
    if name == "misalignment-mc":
        workload["seeds"] = 3
    monkeypatch.setitem(run.WORKLOADS, name, workload)
    cfg_path = tmp_path / "workload.cfg"
    run.write_config(ROOT, workload, cfg_path)
    child = run.Child(ROOT, tmp_path, run.child_spec(
        ROOT, tmp_path, cfg_path, name, 7, "test", traced=False,
        cpu=min(os.sched_getaffinity(0))))
    child.run(120.0)
    assert child.ok, child.stderr_tail()
    return child


def flagged(name: str, child: run.Child) -> list[str]:
    checker = run.Checker(run.WORKLOADS[name])
    failed = checker.failed(child)
    assert bool(failed) == bool(checker.problems)
    return checker.problems


def rewrite_csv_cell(path: Path, row: int, column: str, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    k = checks.SWEEP_COLUMNS.index(column)
    cells = lines[row + 1].split(",")
    cells[k] = edit(cells[k])
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_sweep_checks_flag_corrupted_csv(tmp_path, monkeypatch):
    child = small_child(tmp_path, "mask-sweep", monkeypatch)
    assert flagged("mask-sweep", child) == []
    csv = Path(child.spec["out"]) / "mask_sweep.csv"
    clean = csv.read_text(encoding="utf-8")
    sampled = round(checks.ORACLE_SHARES[3] * 400)
    # epsilon is a cancelling sum, so its own rounding is far above 1e-9 of it
    for row, column, change in ((sampled, "pAB", 1e-9), (sampled + 1, "pB", 1e-9),
                                (sampled, "rho", 1e-9), (sampled, "epsilon", 1e-6)):
        csv.write_text(clean, encoding="utf-8")
        rewrite_csv_cell(csv, row, column, lambda v: repr(float(v) * (1 + change)))
        assert flagged("mask-sweep", child), (row, column)


def test_sweep_checks_accept_last_ulp_kernel_change(tmp_path, monkeypatch):
    """Patterns one ulp off, statistics recomputed from them, still pass."""
    child = small_child(tmp_path, "mask-sweep", monkeypatch)
    csv = Path(child.spec["out"]) / "mask_sweep.csv"
    header, *rows = csv.read_text(encoding="utf-8").splitlines()
    table = np.array([[float(v) for v in r.split(",")] for r in rows])
    p = np.nextafter(table[:, 1:9], np.inf)
    p[:, 7] /= np.max(p[:, 7])
    p0, pa, pb, pc, pab, pbc, pca, pabc = p.T
    i_ab, i_bc, i_ca = pab - pa - pb + p0, pbc - pb - pc + p0, pca - pc - pa + p0
    eps = pabc - pab - pbc - pca + pa + pb + pc - p0
    delta = np.abs(i_ab) + np.abs(i_bc) + np.abs(i_ca)
    defined = delta >= 1e-9
    rho = np.where(defined, eps / np.where(defined, delta, 1.0), np.nan)
    out = [header]
    for k in range(len(rows)):
        values = [table[k, 0], *p[k], i_ab[k], i_bc[k], i_ca[k], eps[k], delta[k], rho[k]]
        out.append(",".join(f"{v:.17g}" for v in values) + f",{int(defined[k])}")
    csv.write_text("\n".join(out) + "\n", encoding="utf-8")
    assert flagged("mask-sweep", child) == []


@pytest.mark.parametrize("edit", [
    lambda row: {**row, "counts": row["counts"] + 1},
    lambda row: {**row, "counts": row["counts"] + 0.5},
    lambda row: {**row, "counts": -row["counts"]},
    lambda row: {**row, "timestamp_index": row["timestamp_index"] + 8},
], ids=["count-plus-one", "fractional-count", "negative-count", "timestamp"])
def test_run_checks_flag_corrupted_counts(tmp_path, monkeypatch, edit):
    child = small_child(tmp_path, "overnight-run", monkeypatch)
    assert flagged("overnight-run", child) == []
    path = Path(child.spec["out"]) / "run_counts.json"
    rows = json.loads(path.read_text(encoding="utf-8"))
    rows[37] = edit(rows[37])
    path.write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    assert flagged("overnight-run", child)


@pytest.mark.parametrize("key, edit", [
    ("control_max_abs_eps", lambda v: v + 1e-6),
    ("displacements", lambda v: v + np.eye(*v.shape) * 1e-5),
    ("max_abs_rho", lambda v: v * (1 + 1e-9)),
    ("sample_patterns", lambda v: v * np.where(np.arange(v.size).reshape(v.shape) == 5,
                                               1 + 1e-9, 1.0)),
], ids=["control", "displacement", "max-rho", "pattern"])
def test_misalignment_checks_flag_corrupted_results(tmp_path, monkeypatch, key, edit):
    child = small_child(tmp_path, "misalignment-mc", monkeypatch)
    assert flagged("misalignment-mc", child) == []
    path = Path(child.spec["mc_path"])
    with np.load(path) as z:
        data = {k: z[k] for k in z.files}
    data[key] = edit(data[key])
    np.savez(path, **data)
    assert flagged("misalignment-mc", child)
