"""Benchmark the hot kernels.

Times the far-field Fourier pass (one ``pattern_set`` call: the eight
apertures of the leaky blocking mask) and the pointwise interference
statistics kernel of every available backend on sweep-sized workloads,
checks that the statistics backends agree bitwise, and prints a table.

Run:  python benchmarks/bench_backends.py [--points N] [--repeats R]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from bornlab._backend import available_backends
from bornlab.interference import COMBINATIONS
from bornlab.optics import (
    build_combination_aperture,
    combination_mask_for_plate,
    pattern_set,
    triple_slit_plate,
)


def time_call(fn, *args, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=200_000,
                        help="grid points per kernel call")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing repeats (best is reported)")
    args = parser.parse_args()

    plate = triple_slit_plate(leakage_amplitude=0.1)
    mask = combination_mask_for_plate(plate, "blocking", leakage_amplitude=0.1)
    intervals = sum(build_combination_aperture(plate, mask, c).values.size
                    for c in COMBINATIONS)
    u = np.linspace(-5e4, 5e4, args.points)

    rng = np.random.default_rng(0)
    stack = np.ascontiguousarray(rng.uniform(0.0, 2.0, size=(8, args.points)))

    backends = available_backends()
    print(f"fourier workload: 8 apertures, {intervals} intervals x {args.points} grid points")
    if "numba" not in backends:
        print("numba not importable; benchmarking the numpy statistics kernel only")

    rows = [("fourier", "numpy",
             time_call(pattern_set, plate, mask, u, False, repeats=args.repeats))]
    stats_out = {}
    for name, stats in backends.items():
        stats(stack[:, :64], 1e-9)  # warm up / jit compile
        rows.append(("stats", name, time_call(stats, stack, 1e-9, repeats=args.repeats)))
        stats_out[name] = stats(stack, 1e-9)

    if "numba" in backends:
        for a, b in zip(stats_out["numba"], stats_out["numpy"]):
            af, bf = np.asarray(a, float), np.asarray(b, float)
            mismatch = ~((af == bf) | (np.isnan(af) & np.isnan(bf)))
            assert not mismatch.any(), "stats backends disagree"
        print("backend agreement: stats bitwise")

    print(f"\n{'kernel':<22}{'backend':<10}{'best time':>12}")
    for kernel, name, t in rows:
        print(f"{kernel:<22}{name:<10}{t * 1e3:>10.2f} ms")


if __name__ == "__main__":
    main()
