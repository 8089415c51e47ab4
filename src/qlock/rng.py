"""Deterministic random-stream derivation for reproducible experiments.

All randomness in the toolkit flows through Philox generators derived from a
64-bit master seed plus a path of labels, so that independent streams (per
input sample, per shot, per pass) are stable across runs and independent of
execution order.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

# numpy's SeedSequence: pool size, hashmix and mix constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _component(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & _MASK64
    digest = hashlib.blake2s(str(part).encode("utf-8"), digest_size=8).digest()
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


def _words(value: int) -> list[int]:
    """A non-negative int as ``SeedSequence`` reads it: 32-bit words, least significant first."""
    words = [value & _MASK32]
    while value >> 32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hash_constants(const: int, mult: int):
    """The running hash constant of successive hashmix steps: (before, after) each step."""
    while True:
        after = const * mult & _MASK32
        yield const, after
        const = after


def _hashmix(value: np.ndarray, constants) -> np.ndarray:
    before, after = next(constants)
    value = (value ^ before) * after  # uint32 arrays wrap, as the C code does
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> 16)


def philox_keys(seed: int, *path, count: int, start: int = 0) -> np.ndarray:
    """The Philox keys of ``derive_rng(seed, *path, i)`` for ``start <= i < start + count``.

    Returns a ``(count, 2)`` uint64 array, row ``i - start`` holding stream
    ``i``'s key; a Philox with that key, counter 0 and an empty buffer yields
    that stream. It runs ``SeedSequence``'s entropy mixing and
    ``generate_state(2, uint64)`` over uint32 arrays, one element per ``i``:
    the seed and ``path`` words are the same for every ``i``, and ``i`` is one
    word, so ``i`` must stay below ``2**32``. ``derive_rng`` remains the
    definition of a stream; the tests hold this function to it exactly.
    """
    if count < 0 or start < 0 or start + count > 2**32:
        raise ValueError("philox_keys indices must lie in [0, 2**32)")
    run = _words(int(seed) & _MASK64)
    # with a spawn key, SeedSequence pads the run entropy with zeros to the pool size
    words = run + [0] * (_POOL_SIZE - len(run)) + [w for p in path for w in _words(_component(p))]
    entropy = [np.full(count, w, dtype=np.uint32) for w in words]
    entropy.append(np.arange(start, start + count, dtype=np.uint32))
    constants = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hashmix(word, constants) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], constants))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, constants))
    constants = _hash_constants(_INIT_B, _MULT_B)
    state = np.stack([_hashmix(word, constants) for word in pool], axis=1)
    # as generate_state does: each pair of words, read little-endian, is one uint64
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
