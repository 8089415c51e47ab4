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
_MASK32 = (1 << 32) - 1
_POOL_WORDS = 4  # SeedSequence's default pool size


def _component(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & _MASK64
    return _label_hash(str(part))


@lru_cache(maxsize=4096)
def _label_hash(label: str) -> int:
    """A string label's 64-bit word; labels recur on every run, so each is hashed once."""
    digest = hashlib.blake2s(label.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _words(value: int) -> list[int]:
    """A 64-bit value as ``SeedSequence`` splits an int: its little-endian uint32
    words, one word for values below 2**32 (zero included)."""
    return [value & _MASK32, value >> 32] if value >> 32 else [value]


def derive_rng(seed: int, *path) -> np.random.Generator:
    """Philox generator for the stream named by (seed, *path).

    Identical arguments always yield an identical stream; distinct paths give
    statistically independent streams off the same master seed.

    The stream is that of ``SeedSequence(entropy=seed & MASK64,
    spawn_key=path components)``. That form converts each int to uint32 words
    in Python; here the words are assembled the way ``SeedSequence`` assembles
    them (the seed's words, zero-padded to its pool size of four when a path
    follows, then each component's words) and passed as one uint32 array,
    which gives the same entropy pool.
    """
    words = _words(int(seed) & _MASK64)
    if path:
        words += [0] * (_POOL_WORDS - len(words))
        for part in path:
            words += _words(_component(part))
    ss = np.random.SeedSequence(np.array(words, dtype=np.uint32))
    return np.random.Generator(np.random.Philox(ss))


def stream_seed(seed: int, *path) -> int:
    """An integer seed drawn from the stream named by (seed, *path): the top 63
    bits of its first raw word, which is what ``integers(2**63)`` draws from it."""
    return derive_rng(seed, *path).bit_generator.random_raw() >> 1
