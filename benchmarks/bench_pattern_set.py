"""Time and peak memory of one large ``pattern_set`` call.

Evaluates the eight curves of the leaky geometry of
``configs/leaky_mask_sweep.cfg`` (blocking mask, 5% intensity leakage on
both plates, per-combination displacements drawn from U[0, 10 um] with
seed 0) on a grid of ``--points`` points, either mirrored,
``linspace(-3e4, 3e4, points + 1)``, or all-positive,
``linspace(0, 6e4, points)``.  Prints one JSON line: the best wall time
of ``--repeats`` calls, the peak RSS of the process, and the machine
facts.  Run one grid per process, so that the peak belongs to that grid:

    PYTHONPATH=src python benchmarks/bench_pattern_set.py --grid mirrored
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import time

import numpy as np

from bornlab.interference import COMBINATIONS
from bornlab.optics import BLOCKING, combination_mask_for_plate, pattern_set, triple_slit_plate

GRIDS = {
    "mirrored": lambda n: np.linspace(-3e4, 3e4, n + 1),
    "positive": lambda n: np.linspace(0.0, 6e4, n),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid", choices=sorted(GRIDS), default="mirrored")
    parser.add_argument("--points", type=int, default=10**6)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

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
    print(json.dumps({
        "grid": args.grid, "points": u.size, "best_s": round(best, 4),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "nproc": os.cpu_count(), "numpy": np.__version__,
        "python": platform.python_version(),
        "BORNLAB_THREADS": os.environ.get("BORNLAB_THREADS"),
    }))


if __name__ == "__main__":
    main()
