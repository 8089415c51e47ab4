"""Deterministic random-stream derivation for reproducible experiments.

All randomness in the toolkit flows through Philox generators derived from a
64-bit master seed plus a path of labels, so that independent streams (per
input sample, per run, per pass) are stable across runs and independent of
execution order.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np

_MASK64 = (1 << 64) - 1


def _component(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & _MASK64
    return _label_hash(str(part))


@lru_cache(maxsize=4096)
def _label_hash(label: str) -> int:
    """A string label's 64-bit word; labels recur on every run, so each is hashed once."""
    digest = hashlib.blake2s(label.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def derive_rng(seed: int, *path) -> np.random.Generator:
    """Philox generator for the stream named by (seed, *path).

    Identical arguments always yield an identical stream; distinct paths give
    statistically independent streams off the same master seed.
    """
    ss = np.random.SeedSequence(
        entropy=int(seed) & _MASK64,
        spawn_key=tuple(_component(p) for p in path),
    )
    return np.random.Generator(np.random.Philox(ss))
