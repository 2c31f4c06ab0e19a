"""A traced benchmark child records the spans of the ``experiment`` layer.

Traced children wrap the layer functions they find by attribute, so a
renamed function would leave its span out of every trace.  This runs one
traced overnight-run child, the same code path as a measured run, on a
20-repetition config and reads its trace.
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
