"""Deterministic random-stream derivation.

Every stochastic routine in the package derives its generators from an
explicit 64-bit master seed plus a short integer path, e.g. one stream
per simulation run.  Streams depend only on (master_seed, *path), never
on scheduling, worker count, or wall clock, so any run can be replayed
bit-for-bit.
"""
from __future__ import annotations

import numpy as np

from .errors import DataError


def derive_rng(master_seed: int, *path: int) -> np.random.Generator:
    """Return the generator for stream ``(master_seed, *path)``.

    The same arguments always yield the same stream; distinct paths give
    statistically independent streams.
    """
    seed = int(master_seed)
    if not 0 <= seed < 2**64:
        raise DataError(f"master seed must be a 64-bit unsigned integer, got {master_seed!r}")
    entropy = [seed]
    for part in path:
        part = int(part)
        if part < 0:
            raise DataError(f"stream path entries must be non-negative, got {part}")
        entropy.append(part)
    return np.random.default_rng(np.random.SeedSequence(entropy))
