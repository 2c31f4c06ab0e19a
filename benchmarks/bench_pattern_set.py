"""Time and peak memory of one large ``pattern_set`` call, or of one
whole CLI sweep on a scaled copy of a bundled config.

Pattern mode (the default) evaluates the eight curves of the leaky
geometry of ``configs/leaky_mask_sweep.cfg`` (blocking mask, 5% intensity
leakage on both plates, per-combination displacements drawn from
U[0, 10 um] with seed 0) on a grid of ``--points`` points, either the
exact mirror that the CLI builds for ``u_min = -3e4``, ``u_max = 3e4``
and ``points + 1`` points, whose upper half ``pattern_set`` evaluates,
or all-positive, ``linspace(0, 6e4, points)``.

Sweep mode (``--sweep COMMAND``) copies ``--config`` with ``u_points``
set to ``--points`` (``repetitions`` for ``--sweep run``; with
``write_config`` of ``perfbench/run.py``), then runs ``bornlab COMMAND``
on it in this process, writing CSV into a temporary directory; it
reports the sha256 of every file written but the manifest, and the
number of substream generators one command built (counted by wrapping
``_streams.substream`` in every module that calls it, in one extra,
untimed run).

Either mode prints one JSON line: the best wall time of ``--repeats``
runs, the peak RSS of the process, and the machine facts.  Run one grid
or sweep per process, so that the peak belongs to it:

    PYTHONPATH=src python benchmarks/bench_pattern_set.py --grid mirrored
    PYTHONPATH=src python benchmarks/bench_pattern_set.py --sweep sweep-mask \\
        --config configs/leaky_mask_sweep.cfg --points 1000001 --repeats 1
    PYTHONPATH=src python benchmarks/bench_pattern_set.py --sweep run \\
        --config configs/overnight_run.cfg --points 10000
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from bornlab import _streams
from bornlab.cli import _u_grid
from bornlab.cli import main as cli_main
from bornlab.config import RunConfig
from bornlab.interference import COMBINATIONS
from bornlab.optics import BLOCKING, combination_mask_for_plate, pattern_set, triple_slit_plate

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from run import write_config  # noqa: E402

GRIDS = {
    "mirrored": lambda n: _u_grid(RunConfig(u_min=-3e4, u_max=3e4, u_points=n + 1)),
    "positive": lambda n: np.linspace(0.0, 6e4, n),
}


def bench_pattern_set(args) -> dict:
    leak = math.sqrt(0.05)
    plate = triple_slit_plate(leakage_amplitude=leak)
    mask = combination_mask_for_plate(plate, BLOCKING, leakage_amplitude=leak)
    rng = np.random.default_rng(0)
    shifts = {c: float(rng.uniform(0.0, 10e-6)) for c in COMBINATIONS}
    u = GRIDS[args.grid](args.points)
    best = math.inf
    for _ in range(args.repeats):
        t0 = time.perf_counter()
        curves = pattern_set(plate, mask, u, displacements=shifts)
        best = min(best, time.perf_counter() - t0)
        del curves
    return {"grid": args.grid, "points": u.size, "best_s": round(best, 4)}


def bench_sweep(args) -> dict:
    best = math.inf
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "scaled.cfg"
        scaled = "repetitions" if args.sweep == "run" else "u_points"
        write_config(ROOT, {"config": args.config,
                            "overrides": {scaled: str(args.points)}}, cfg)
        out = Path(tmp) / "out"

        def run() -> None:
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli_main(["--config", str(cfg), "--out", str(out), args.sweep])
            if status != 0:
                raise SystemExit(f"bornlab {args.sweep} exited with status {status}")

        # count the generators in an untimed run, so the timed runs build
        # theirs without the counting wrapper
        substream, built = _streams.substream, 0

        def counted(*args):
            nonlocal built
            built += 1
            return substream(*args)

        callers = [m for name, m in sys.modules.items()
                   if name.startswith("bornlab.") and m is not _streams
                   and getattr(m, "substream", None) is substream]
        for module in callers:
            module.substream = counted
        try:
            run()
        finally:
            for module in callers:
                module.substream = substream
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            run()
            best = min(best, time.perf_counter() - t0)
        sha256 = {}
        for path in sorted(out.iterdir()):
            if path.name != "manifest.json":
                with open(path, "rb") as fh:  # read in chunks: a table can be large
                    sha256[path.name] = hashlib.file_digest(fh, "sha256").hexdigest()
    return {"sweep": args.sweep, "config": args.config, "points": args.points,
            "best_s": round(best, 4), "generators": built,
            "sha256": sha256}


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--grid", choices=sorted(GRIDS), default="mirrored")
    parser.add_argument("--sweep", metavar="COMMAND",
                        help="run this CLI command instead of one pattern_set call")
    parser.add_argument("--config", default="configs/leaky_mask_sweep.cfg")
    parser.add_argument("--points", type=int, default=10**6)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    result = bench_sweep(args) if args.sweep else bench_pattern_set(args)
    print(json.dumps({
        **result,
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "nproc": os.cpu_count(), "numpy": np.__version__,
        "python": platform.python_version(),
    }))


if __name__ == "__main__":
    main()
