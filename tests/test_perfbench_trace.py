"""Traced benchmark children: the spans they record and the bytes they write.

Traced children wrap the layer functions they find by attribute, so a
renamed function would leave its span out of every trace.  This runs one
traced overnight-run child, the same code path as a measured run, on a
20-repetition config and reads its trace.  A traced mask-sweep child
hands the table writer a generator of rows in place of the sweep's
mirrored table, so it must write the same bytes as an untraced child.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402  (perfbench/run.py)


def test_traced_overnight_run_records_experiment_spans(tmp_path, monkeypatch):
    workload = run.WORKLOADS["overnight-run"]
    workload = {**workload, "overrides": {**workload["overrides"], "repetitions": "20"}}
    monkeypatch.setitem(run.WORKLOADS, "overnight-run", workload)
    cfg_path = tmp_path / "workload.cfg"
    run.write_config(ROOT, workload, cfg_path)
    child = run.Child(ROOT, tmp_path, run.child_spec(
        ROOT, tmp_path, cfg_path, "overnight-run", 7, "traced", traced=True,
        cpu=min(os.sched_getaffinity(0))))
    child.run(120.0)
    assert child.ok, child.stderr_tail()
    _self_s, calls, _counters = run.layer_values(child.spec["trace_path"])
    assert calls.get("experiment.run_experiment") == 1
    assert calls.get("experiment.rho_per_repetition") == 1


def test_traced_mask_sweep_writes_the_untraced_bytes(tmp_path, monkeypatch):
    # 301 points on a symmetric grid: a mirrored sweep table
    workload = run.WORKLOADS["mask-sweep"]
    workload = {**workload, "overrides": {**workload["overrides"], "u_points": "301"}}
    monkeypatch.setitem(run.WORKLOADS, "mask-sweep", workload)
    cfg_path = tmp_path / "workload.cfg"
    run.write_config(ROOT, workload, cfg_path)

    def child(traced):
        child = run.Child(ROOT, tmp_path, run.child_spec(
            ROOT, tmp_path, cfg_path, "mask-sweep", 7, f"traced-{traced}", traced=traced,
            cpu=min(os.sched_getaffinity(0))))
        child.run(120.0)
        assert child.ok, child.stderr_tail()
        return child

    traced, untraced = child(True), child(False)
    _self_s, calls, counters = run.layer_values(traced.spec["trace_path"])
    assert calls.get("cli.write_table") == 1
    assert counters.get("cli.rows_written") == 301
    assert ((Path(traced.spec["out"]) / "mask_sweep.csv").read_bytes()
            == (Path(untraced.spec["out"]) / "mask_sweep.csv").read_bytes())
