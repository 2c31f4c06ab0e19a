"""Grid-evaluation parallelism capped by the BORNLAB_THREADS env var.

Work is split into contiguous index slices and each slice is filled
independently, in threads: the numpy calls that do the work release the
interpreter lock.  Per-point arithmetic never depends on the slice
layout (the Fourier pass of ``optics`` cuts each slice into blocks of
``u`` and computes every point on its own), so results are
byte-identical for any worker count.
"""

from __future__ import annotations

import os
from typing import Callable

THREADS_ENV = "BORNLAB_THREADS"


def worker_count() -> int:
    """Worker cap from BORNLAB_THREADS; defaults to 1 (serial)."""
    raw = os.environ.get(THREADS_ENV, "").strip()
    if not raw:
        return 1
    try:
        n = int(raw)
    except ValueError as exc:
        raise ValueError(f"{THREADS_ENV} must be an integer (got {raw!r})") from exc
    return max(1, n)


def map_slices(fill: Callable[[int, int], None], n: int, min_chunk: int = 512) -> None:
    """Run ``fill(lo, hi)`` over a partition of ``range(n)``.

    ``fill`` must write only to the ``[lo, hi)`` slice of its outputs.
    """
    workers = min(worker_count(), max(1, n // min_chunk))
    if workers <= 1:
        fill(0, n)
        return
    # imported here: it costs every serial caller's import a few ms
    from concurrent.futures import ThreadPoolExecutor

    bounds = [round(i * n / workers) for i in range(workers + 1)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(fill, lo, hi)
            for lo, hi in zip(bounds[:-1], bounds[1:])
            if hi > lo
        ]
        for fut in futures:
            fut.result()
