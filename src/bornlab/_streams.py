"""Deterministic RNG substreams derived from a single root seed.

Every stochastic quantity in the toolkit (measurement order, power
fluctuation, photocounts, monitor counts, mask displacements) draws from
its own substream, keyed by the root seed, a purpose tag, and the
indices it belongs to (a block of repetitions, a displacement draw).
Results are therefore independent of execution order.
"""

from __future__ import annotations

import numpy as np

# Purpose tags. Stable values: changing them changes every seeded result.
TAG_ORDER = 1
TAG_POWER = 2
TAG_COUNTS = 3
TAG_MONITOR = 4
TAG_DISPLACEMENT = 5
TAG_HIERARCHY = 6


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator for the substream identified by ``(seed, *path)``.

    ``path`` elements must be non-negative integers (tag, block of
    repetitions, displacement draw, ...).
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0 (got {seed})")
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, path)]))
