"""The bornlab benchmark: one workload, measured for a fixed time.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload mask-sweep --seed 1 --seconds 30 --trace 0

The driver writes the workload's config (a bundled config plus fixed
overrides) under a temporary directory in the checkout, then launches
one child Python process at a time (``child.py``), each performing one
operation on ``src/bornlab`` with ``BORNLAB_THREADS`` and
``BORNLAB_BACKEND`` unset, until ``--seconds`` have passed.  After each
child exits the driver checks its outputs with ``checks.py`` and deletes
them.  The last line of standard output is one JSON object: with
``--trace 0`` the end-to-end metrics of ``BENCHMARK.json``, with
``--trace 1`` its per-layer metrics, which come from children that wrap
the layer functions with span recorders, alternating with untraced
children so that the tracing overhead is measured too.  The line before
it records the machine facts and any problems found.

Workloads (the seed is the CLI ``--seed``, or the first of the
Monte Carlo seeds):

* ``mask-sweep``: ``sweep-mask --format csv`` on the leaky mask config
  with 25001 grid points; the CSV writer dominates, the Fourier kernel
  runs in few large calls.  An item is a grid point.
* ``overnight-run``: ``run --format json`` with 2500 randomized
  repetitions, power fluctuation and a monitor arm; random substreams
  dominate.  An item is a repetition.
* ``misalignment-mc``: ``misalignment_rho_sweep`` over 250 seeds on the
  601-point leaky mask grid, no artifact; the Fourier kernel runs in
  many small calls.  An item is one seed at one grid point.

Each operation takes one to two seconds on a 2-core x86 VM, so that a
run holds 15 to 40 of them.  On that machine the speed of a fixed loop
switches between states about 1.5x apart, for seconds to minutes at a
time, so per-operation times are bimodal.  ``wall_s`` is therefore the
mean over the run's operations and ``items_per_s`` the run's items over
its total work time: a median jumps between the two modes as their
shares change, the mean moves smoothly.  ``setup_s`` and
``peak_rss_mb`` are medians.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
#: Every run must end within this many seconds of its start.
RUN_LIMIT_S = 170.0
#: Fewest children of each kind (traced, untraced) a run measures.
MIN_CHILDREN = 2

WORKLOADS = {
    "mask-sweep": {
        "config": "configs/leaky_mask_sweep.cfg",
        "overrides": {"u_points": "25001"},
        "command": "sweep-mask", "format": "csv",
    },
    "overnight-run": {
        "config": "configs/overnight_run.cfg",
        "overrides": {"repetitions": "2500", "power_fluctuation": "1e-3",
                      "monitor_counts": "1e6", "sequence_order": "randomized"},
        "command": "run", "format": "json",
    },
    "misalignment-mc": {
        "config": "configs/leaky_mask_sweep.cfg",
        "overrides": {},
        "seeds": 250,
    },
}


class SetupError(Exception):
    """The checkout cannot run the benchmark; no result is printed."""


def write_config(root: Path, workload: dict, path: Path) -> None:
    """The bundled config with the workload's overrides applied."""
    todo = dict(workload["overrides"])
    lines = []
    for line in (root / workload["config"]).read_text(encoding="utf-8").splitlines():
        key = line.split("#", 1)[0].partition("=")[0].strip()
        if key in todo:
            line = f"{key} = {todo.pop(key)}"
        lines.append(line)
    lines += [f"{k} = {v}" for k, v in todo.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def git_commit(root: Path) -> str | None:
    """HEAD commit read from ``.git``, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


class Child:
    """One child process: its spec, exit status, wall time and peak RSS."""

    def __init__(self, root: Path, tmp: Path, spec: dict):
        self.spec = spec
        self.root = root
        self.tmp = tmp
        self.exit = None
        self.wall_s = None
        self.maxrss_kb = None
        self.result = None

    def run(self, limit_s: float) -> None:
        run_id = self.spec["run_id"]
        spec_path = self.tmp / f"{run_id}.json"
        spec_path.write_text(json.dumps(self.spec), encoding="utf-8")
        env = {k: v for k, v in os.environ.items()
               if k not in ("BORNLAB_THREADS", "BORNLAB_BACKEND")}
        env["PYTHONPATH"] = str(self.root / "src")
        self.stderr_path = self.tmp / f"{run_id}.err"
        with open(self.stderr_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(spec_path)],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
                env=env, cwd=self.root)
            lock = threading.Lock()
            exited = False

            def kill() -> None:
                with lock:
                    if not exited:
                        proc.kill()

            timer = threading.Timer(max(limit_s, 1.0), kill)
            timer.start()
            try:
                # wait without reaping, so the timer never signals a reaped pid
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
                self.wall_s = time.perf_counter() - t0
                with lock:
                    exited = True
                # os.wait4 gives this child's own peak RSS; RUSAGE_CHILDREN
                # would keep the maximum over every child reaped so far.
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                timer.join()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        self.exit = proc.returncode
        self.maxrss_kb = usage.ru_maxrss
        try:
            self.result = json.loads(Path(self.spec["result_path"]).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.result = None

    def stderr_tail(self) -> str:
        text = self.stderr_path.read_text(encoding="utf-8", errors="replace")
        return " | ".join(text.strip().splitlines()[-3:])

    @property
    def ok(self) -> bool:
        return self.exit == 0 and self.result is not None and self.result.get("exit", 0) == 0


def digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Checker:
    """Checks each child's outputs; the first good output is checked in
    full, later ones must match it (same inputs, same seed)."""

    def __init__(self, workload: dict):
        self.workload = workload
        self.reference = None
        self.problems: list[str] = []

    def operations(self) -> int:
        return self.workload["seeds"] + 1 if "seeds" in self.workload else 1

    def failed(self, child: Child) -> int:
        """Failed operations of one child; problems are recorded."""
        if not child.ok:
            self.problems.append(f"{child.spec['run_id']}: exit {child.exit}, "
                                 f"result exit {(child.result or {}).get('exit')}: "
                                 f"{child.stderr_tail()}")
            return self.operations()
        if "seeds" in self.workload:
            return self._failed_mc(child)
        out = Path(child.spec["out"])
        found = digest(out)
        if found == self.reference:
            return 0
        if self.reference is not None:
            self.problems.append(f"{child.spec['run_id']}: artifacts differ from the first run's")
            return 1
        cfg = child.result["config"]
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        problems = self._config_problems(cfg)
        if ({**manifest["config"], "seed": None} != {**cfg, "seed": None}
                or manifest["seed"] != child.spec["seed"]):
            problems.append("manifest config or seed differs from the inputs")
        if self.workload["command"] == "sweep-mask":
            problems += checks.check_sweep_csv(
                out / "mask_sweep.csv", cfg, manifest["summary"]["displacements"])
        else:
            problems += checks.check_run_json(out, cfg, manifest["summary"])
        self.problems += [f"{child.spec['run_id']}: {p}" for p in problems]
        if problems:
            return 1
        self.reference = found
        return 0

    def _config_problems(self, cfg: dict) -> list[str]:
        """Overrides the parsed config does not carry."""
        return [f"config {key} = {cfg[key]!r}, the input says {raw}"
                for key, raw in self.workload["overrides"].items()
                if str(cfg[key]) != raw and not (
                    isinstance(cfg[key], (int, float)) and cfg[key] == float(raw))]

    def _failed_mc(self, child: Child) -> int:
        with np.load(child.spec["mc_path"]) as z:
            data = {k: z[k] for k in z.files}
        cfg = child.result["config"]
        failed, problems = checks.check_misalignment_mc(cfg, data)
        problems = child.result["failed"] + self._config_problems(cfg) + problems
        failed += len(child.result["failed"])
        seeds = (data["max_abs_rho"], data["displacements"])
        if self.reference is None:
            if not problems:
                self.reference = seeds
        elif not all(np.array_equal(a, b) for a, b in zip(seeds, self.reference)):
            problems.append("per-seed results differ from the first run's")
            failed += 1
        self.problems += [f"{child.spec['run_id']}: {p}" for p in problems]
        return failed


def child_spec(root: Path, tmp: Path, cfg_path: Path, workload: str | None,
               seed: int, run_id: str, traced: bool, cpu: int) -> dict:
    """Inputs of one child; ``workload`` None only imports the package."""
    wl = WORKLOADS.get(workload, {})
    return {"run_id": run_id, "workload": workload, "root": str(root), "cpu": cpu,
            "config": str(cfg_path), "seed": seed, "trace": traced,
            "command": wl.get("command"), "format": wl.get("format"),
            "out": str(tmp / f"{run_id}.out"), "seeds": wl.get("seeds"),
            "mc_path": str(tmp / f"{run_id}.mc.npz"),
            "trace_path": str(tmp / f"{run_id}.trace.npz"),
            "result_path": str(tmp / f"{run_id}.result.json")}


def layer_values(trace_path: str) -> tuple[dict, dict, dict]:
    """Self time (s) and calls per span name, and the counters."""
    with np.load(trace_path) as z:
        dur = (z["end"] - z["start"]).astype(np.float64)
        parent, name, names = z["parent"], z["name"], [str(n) for n in z["names"]]
        counters = json.loads(str(z["counters"]))
    inner = parent >= 0
    covered = np.bincount(parent[inner], weights=dur[inner], minlength=dur.size)
    self_ns = np.bincount(name, weights=dur - covered, minlength=len(names))
    calls = np.bincount(name, minlength=len(names))
    return ({n: float(v) * 1e-9 for n, v in zip(names, self_ns)},
            {n: int(c) for n, c in zip(names, calls)}, counters)


def per_layer_value(metric: str, self_s: dict, calls: dict, counters: dict) -> float:
    """Resolve a per-layer metric name against one traced child."""
    if metric == "optics.ns_per_interval_point":
        points = counters.get("optics.interval_points", 0)
        return self_s.get("optics.far_field_amplitude", 0.0) * 1e9 / points if points else 0.0
    if metric.endswith(".calls"):
        return calls.get(metric[:-6], 0)
    if metric.endswith("substreams"):
        return calls.get(metric[:-1], 0)
    if metric.endswith("_s"):
        return self_s.get(metric[:-2], 0.0)
    return counters.get(metric, 0)


def measure(args, root: Path, tmp: Path) -> tuple[dict, dict]:
    workload = WORKLOADS[args.workload]
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    cfg_path = tmp / "workload.cfg"
    write_config(root, workload, cfg_path)
    start = time.perf_counter()

    # Children take the allowed CPUs in turn, two at a time so that a
    # traced child runs where the untraced one before it ran: each CPU's
    # speed drifts on its own, and a run should average over them.
    cpus = sorted(os.sched_getaffinity(0))

    def spec(index: int, traced: bool, name):
        return child_spec(root, tmp, cfg_path, name, args.seed,
                          f"{args.workload}-{args.seed}-{index}", traced,
                          cpus[index // 2 % len(cpus)])

    warm = Child(root, tmp, spec(-1, False, None))
    warm.run(60.0)
    if not warm.ok:
        raise SetupError(f"the package does not import from {root / 'src'}: "
                         f"{warm.stderr_tail()}")
    facts = {"nproc": os.cpu_count(), "affinity": len(cpus),
             **warm.result["facts"], "git_commit": git_commit(root)}

    checker = Checker(workload)
    children: list[Child] = []
    attempted = failed = 0
    t_measure = time.perf_counter()
    index = 0
    while True:
        traced = bool(args.trace) and index % 2 == 1
        child = Child(root, tmp, spec(index, traced, args.workload))
        child.run(RUN_LIMIT_S - (time.perf_counter() - start))
        children.append(child)
        attempted += checker.operations()
        failed += checker.failed(child)
        shutil.rmtree(child.spec["out"], ignore_errors=True)
        for key in ("mc_path", "result_path"):
            Path(child.spec[key]).unlink(missing_ok=True)
        index += 1
        kinds = (False, True) if args.trace else (False,)
        counts = [sum(c.spec["trace"] == k for c in children) for k in kinds]
        elapsed = time.perf_counter() - t_measure
        longest = max(c.wall_s for c in children)
        if time.perf_counter() - start + 2 * longest > RUN_LIMIT_S:
            break
        if min(counts) >= MIN_CHILDREN and elapsed >= args.seconds:
            break

    good = [c for c in children if c.ok and not c.spec["trace"]]
    if not good:
        raise RuntimeError("no child completed: " + "; ".join(checker.problems[:3]))
    metrics = {}
    if not args.trace:
        cfg = good[0].result["config"]
        items = (workload["seeds"] * cfg["u_points"] if "seeds" in workload
                 else cfg["u_points"] if workload["command"] == "sweep-mask"
                 else cfg["repetitions"])
        values = {
            "wall_s": statistics.fmean(c.wall_s for c in good),
            "setup_s": statistics.median(c.result["setup_s"] for c in good),
            "items_per_s": items * len(good) / sum(c.result["work_s"] for c in good),
            "peak_rss_mb": statistics.median(c.maxrss_kb / 1024.0 for c in good),
            "success_rate": (attempted - failed) / attempted,
        }
        for m in bench["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    else:
        traced = [c for c in children if c.ok and c.spec["trace"]]
        if not traced:
            raise RuntimeError("no traced child completed")
        layers = [layer_values(c.spec["trace_path"]) for c in traced]
        overhead = (statistics.fmean(c.wall_s for c in traced)
                    - statistics.fmean(c.wall_s for c in good))
        for m in bench["per_layer"]:
            name = m["name"]
            if name == "trace.overhead_s":
                value = overhead
            else:
                per_child = [per_layer_value(name, *lv) for lv in layers]
                value = statistics.fmean(per_child)
                if m["unit"] in ("count", "B"):
                    value = per_child[0]
                    if len(set(per_child)) != 1:
                        checker.problems.append(f"count {name} differs between runs: {per_child}")
                        failed += 1
            metrics[name] = {"value": value, "unit": m["unit"]}
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "children": len(children), "machine": facts, "problems": checker.problems,
            "wall_s": [round(c.wall_s, 4) for c in children],
            "work_s": [round(c.result["work_s"], 4) for c in children if c.ok],
            "traced": [c.spec["trace"] for c in children]}
    result = {"correct": failed == 0 and not checker.problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    root = Path.cwd()
    needed = [root / "src" / "bornlab" / "__init__.py", root / "BENCHMARK.json",
              root / WORKLOADS[args.workload]["config"]]
    missing = [str(p.relative_to(root)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: run from a bornlab checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    scratch = root / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        info, result = measure(args, root, tmp)
    except (SetupError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    for problem in info["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
