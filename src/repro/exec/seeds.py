"""Seed derivation for sibling runs.

When a sweep varies *only* the seed (replication across seeds), sibling
runs must never share RNG state.  Ad-hoc ``seed + i`` arithmetic does
not guarantee that — adjacent integer seeds can produce correlated streams for some
generators, and two sweeps with overlapping ranges silently reuse runs.

The scheme used everywhere in this repo instead derives child seeds with
:class:`numpy.random.SeedSequence`: spawning ``n`` children of the base
seed hashes ``(base, child_index)`` through SeedSequence's entropy
mixer, giving streams that are independent by construction and stable —
``spawn_seeds(base, n)`` is a prefix of ``spawn_seeds(base, m)`` for
``n <= m``, so growing a sweep never changes the runs already done.

The prefix property is property-tested in ``tests/test_exec.py``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["spawn_seeds"]


def spawn_seeds(base_seed: int, n: int) -> Tuple[int, ...]:
    """``n`` independent child seeds derived from ``base_seed``.

    Children are 32-bit ints (safe for every consumer down to legacy
    ``RandomState``-style APIs) and deterministic in ``(base_seed, n)``;
    the first ``k`` children are identical for any ``n >= k``.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    root = np.random.SeedSequence(int(base_seed))
    return tuple(
        int(child.generate_state(1, dtype=np.uint32)[0])
        for child in root.spawn(n)
    )
