"""Dense statevector simulation with seeded shot sampling.

Qubit ordering is little-endian throughout: qubit 0 is the least-significant
bit of a basis index, and outcome strings print the highest measured qubit
first (qubit 0 rightmost). Distributions serialize as
``{"shots": N, "bits": b, "counts": {...}}`` with those outcome strings.

Every simulation runs one kernel: ``_program`` resolves a circuit's gates once
into (matrix, qubits) pairs, and ``_evolve`` applies them to a state tensor,
optionally carrying a trailing batch axis of independent states. ``_evolve``
allocates two state-sized buffers per call and none per gate: each gate
copies the state into ``gather`` with its own axes in front (a ``transpose``
whose permutation is resolved once per (qubits, qubit count, rank)), and one
``np.matmul(..., out=)`` writes ``result``, which is left in that axis order;
the state is then ``result`` seen through the inverse ``transpose``, and only
the next gather, or the end of the run, copies it into natural order. Each
matmul operand holds the same values, in the same rows and columns, as
``np.moveaxis(...).reshape(k, -1)``, so each amplitude is the same sum of the
same k products, and results are bit-identical to moving axes there and back
per gate (the oracle tests in ``tests/test_simulator.py`` hold them to it).
A noisy batch's Pauli insertions are written into ``result`` in place, the
same way, right after their gate's matmul.
The norm check after every gate reads the contiguous ``result``: one
``np.vdot`` for a statevector; for a batch, each column's sum of squared
magnitudes, computed in ``gather``, which is free until the next gate's copy.
Circuits beyond ``_STATE_QUBIT_LIMIT`` qubits, and noisy runs beyond
``_NOISY_SHOT_LIMIT`` shots, are refused before anything is allocated.

Noise, when enabled, is a parametric depolarizing model unravelled as quantum
trajectories: after each gate, with probability ``p1`` (single-qubit gates)
or ``p2`` (multi-qubit gates), a Pauli drawn uniformly from {X, Y, Z} is
applied to each of the gate's qubits. Each shot keeps its own stream, derived
from the run seed, so serial and parallel execution agree. The keys of all
shots' streams come from one vectorized pass (``rng.philox_keys``, chunked),
and one reused generator reads each stream from its key. The draws never
depend on the state, so each shot's error pattern and sampling uniform are
drawn first: an error-free shot is read from one block draw of its uniforms,
and a shot that errs is replayed from its key, one draw at a time. Each
distinct pattern (most shots share the error-free one) is then simulated
once, as one column of a batch, and every shot samples from its pattern's
state. Streams, draws and counts are those of simulating each shot on its
own. Both kinds of run end the same way: a vector over basis indices
(noiseless probabilities, or noisy shot counts) is summed over the
unmeasured qubits, and each remaining index prints as its outcome string.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuit import Circuit, Gate
from .rng import derive_rng, philox_keys

_NORM_TOL = 1e-10
_UNITARY_QUBIT_LIMIT = 10
_STATE_QUBIT_LIMIT = 26  # 2**26 amplitudes: 1 GiB per statevector
# a noisy run keeps per-shot state (uniforms, pattern ids, the shots grouped by pattern,
# one pattern's gathered uniforms and picks), measured with tracemalloc at ~40 bytes
# a shot over 2**20 shots: at up to 128 bytes, 2**23 shots stay within 1 GiB
_NOISY_SHOT_LIMIT = 2**23
_BATCH_AMPLITUDES = 2**18  # amplitudes one batch of noisy trajectories may hold
_BLOCK_DRAWS = 2**18  # uniforms one chunk of noisy shots may hold


@dataclass(frozen=True)
class NoiseConfig:
    enabled: bool = False
    p1: float = 0.001
    p2: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.p1 <= 1.0 or not 0.0 <= self.p2 <= 1.0:
            raise ValueError("depolarizing probabilities must lie in [0, 1]")


@dataclass(frozen=True)
class Distribution:
    counts: dict[str, int]
    shots: int
    bits: int

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError("shots must be positive")
        if sum(self.counts.values()) != self.shots:
            raise ValueError("counts do not sum to shot count")
        for key in self.counts:
            if len(key) != self.bits or set(key) - {"0", "1"}:
                raise ValueError(f"malformed outcome key {key!r}")

    def to_json(self) -> str:
        return json.dumps(
            {"shots": self.shots, "bits": self.bits, "counts": dict(sorted(self.counts.items()))},
            indent=2,
        ) + "\n"


# --- gate matrices -------------------------------------------------------------

_SQ2 = 1.0 / math.sqrt(2.0)


def _phase(angle: float) -> np.ndarray:
    return np.array([[1, 0], [0, np.exp(1j * angle)]], dtype=complex)


def _rz(angle: float) -> np.ndarray:
    return np.array(
        [[np.exp(-0.5j * angle), 0], [0, np.exp(0.5j * angle)]], dtype=complex
    )


def _u3(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array(
        [
            [c, -np.exp(1j * lam) * s],
            [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
        ],
        dtype=complex,
    )


def _controlled(u: np.ndarray) -> np.ndarray:
    """Control on the first (most-significant) qubit of the block."""
    k = u.shape[0]
    out = np.eye(2 * k, dtype=complex)
    out[k:, k:] = u
    return out


# the matrix of every gate kind without parameters
_FIXED = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "h": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "s": _phase(math.pi / 2),
    "sdg": _phase(-math.pi / 2),
    "t": _phase(math.pi / 4),
    "tdg": _phase(-math.pi / 4),
}
_FIXED.update({f"c{kind}": _controlled(_FIXED[kind]) for kind in ("x", "y", "z", "h")})
_FIXED["ccx"] = _controlled(_FIXED["cx"])
_PAULI_LIST = (_FIXED["x"], _FIXED["y"], _FIXED["z"])


def gate_matrix(gate: Gate) -> np.ndarray:
    """Unitary of a gate on its own qubits, first listed qubit most significant."""
    if gate.kind == "rz":
        return _rz(gate.params[0])
    if gate.kind == "p":
        return _phase(gate.params[0])
    if gate.kind == "u3":
        return _u3(*gate.params)
    return _FIXED[gate.kind]


# --- statevector evolution -----------------------------------------------------

def zero_state(num_qubits: int) -> np.ndarray:
    state = np.zeros(2**num_qubits, dtype=complex)
    state[0] = 1.0
    return state


@lru_cache(maxsize=None)
def _permutations(qubits: tuple[int, ...], n: int, ndim: int) -> tuple[tuple[int, ...], ...]:
    """Axis order bringing ``qubits`` to the front, as ``np.moveaxis`` would, and its inverse."""
    axes = tuple(n - 1 - q for q in qubits)
    order = axes + tuple(i for i in range(ndim) if i not in axes)
    return order, tuple(sorted(range(ndim), key=order.__getitem__))


Program = list[tuple[np.ndarray, tuple[int, ...]]]


def _program(circuit: Circuit) -> Program:
    """Resolve each gate once to (matrix, qubits); barriers and measurements drop out.

    Qubit indices need no check here: ``Circuit`` keeps them in range. Circuits
    whose state would exceed ``2**_STATE_QUBIT_LIMIT`` amplitudes are refused
    before anything is allocated.
    """
    n = circuit.num_qubits
    if n > _STATE_QUBIT_LIMIT:
        raise ValueError(
            f"{n}-qubit circuit too large to simulate (at most {_STATE_QUBIT_LIMIT} qubits)"
        )
    return [(gate_matrix(op), op.qubits) for op in circuit.ops if isinstance(op, Gate)]


def _evolve(tensor: np.ndarray, program: Program, n: int, errors=None) -> np.ndarray:
    """Apply ``program`` to a state tensor, checking norm preservation after every gate.

    ``tensor`` is shaped ``(2,) * n``, or ``(2,) * n + (columns,)`` for a batch
    of states; the result comes back flat, ``(2**n,)`` or ``(2**n, columns)``.
    ``errors`` maps a program index to the ``(column, qubit, pauli)`` insertions
    that follow that gate, each in its own column only and written into
    ``result`` in place, through a view with the qubit's axis in front.
    ``tensor`` itself is never written. The batch axis is never moved, so
    ``gather`` and ``result`` keep ``tensor``'s shape whatever the gate's axis order.
    A batch's norm check computes its squared magnitudes in ``gather``.
    """
    shape = tensor.shape
    batched = len(shape) > n
    gather = np.empty(shape, dtype=complex)
    result = np.empty(shape, dtype=complex)
    rows = (-1, shape[-1]) if batched else (-1,)
    errors = errors or {}
    for index, (mat, qubits) in enumerate(program):
        order, inverse = _permutations(qubits, n, len(shape))
        k = mat.shape[0]
        np.copyto(gather, tensor.transpose(order))
        np.matmul(mat, gather.reshape(k, -1), out=result.reshape(k, -1))
        tensor = result.transpose(inverse)
        for column, q, pauli in errors.get(index, ()):
            wire = tensor[..., column].transpose(_permutations((q,), n, n)[0])
            wire[...] = (pauli @ wire.reshape(2, -1)).reshape(wire.shape)
        checked = result.reshape(rows)
        # the checks are written so that a NaN norm counts as drift
        if batched:
            # a column norm's operations, in gather: no state-sized temporary per gate
            sq = gather.reshape(rows)
            np.conjugate(checked, out=sq)
            np.multiply(sq, checked, out=sq)
            norms = np.sqrt(sq.real.sum(axis=0))
            drifted = ~(np.abs(norms - 1.0) <= _NORM_TOL)
            if drifted.any():
                raise ArithmeticError(f"statevector norm drifted to {norms[drifted][0]}")
        else:
            # plain statevectors keep the flat norm: a batch axis of one is slower
            norm = math.sqrt(np.vdot(checked, checked).real)
            if not abs(norm - 1.0) <= _NORM_TOL:
                raise ArithmeticError(f"statevector norm drifted to {norm}")
    return tensor.reshape(2**n, -1) if batched else tensor.reshape(-1)


def _initial_state(n: int, initial: np.ndarray | None) -> np.ndarray:
    state = zero_state(n) if initial is None else np.asarray(initial, dtype=complex)
    if state.size != 2**n:
        raise ValueError("initial state has wrong dimension")
    return state


def statevector(circuit: Circuit, initial: np.ndarray | None = None) -> np.ndarray:
    """Noiseless evolution through all gates; barriers and measurements skipped."""
    program = _program(circuit)
    n = circuit.num_qubits
    return _evolve(_initial_state(n, initial).reshape((2,) * n), program, n)


def _draw_errors(program: Program, rates: list[float], rng) -> tuple:
    """One shot's error pattern: (program index, qubit, Pauli index) triples.

    The draws depend on the error rates only, never on the state: one uniform
    per gate (keeping paired runs on common random numbers), then one
    ``integers(3)`` per qubit of a gate that errs.
    """
    pattern = []
    for index, p in enumerate(rates):
        if rng.random() < p:
            pattern.extend((index, q, int(rng.integers(3))) for q in program[index][1])
    return tuple(pattern)


def _sample_noisy(
    circuit: Circuit, shots: int, initial, noise: NoiseConfig, seed: int
) -> np.ndarray:
    """Shots per basis index under depolarizing noise.

    Every shot draws its error pattern and its sampling uniform from its own
    stream, ``derive_rng(seed, "traj", noise.seed, shot)``, first; each
    distinct pattern is then simulated once, as one column of a batch, and
    sampled for every shot that drew it. One generator reads every stream: it
    is set to each shot's key from ``philox_keys`` and draws the shot's
    ``len(rates) + 1`` uniforms as one block. If no gate's uniform falls below
    its rate, the shot drew no error and the last uniform is its sampling
    uniform; otherwise the shot is drawn again through ``_draw_errors``, since
    an error's ``integers(3)`` draws sit between the uniforms. Shots are drawn
    in chunks of at most ``_BLOCK_DRAWS`` uniforms (one shot at least).
    """
    program = _program(circuit)
    n = circuit.num_qubits
    state = _initial_state(n, initial)
    rates = [noise.p1 if len(qubits) == 1 else noise.p2 for _, qubits in program]
    thresholds = np.array(rates)
    bitgen = np.random.Philox(0)  # a fixed seed: every shot's key replaces it
    rng = np.random.Generator(bitgen)
    fresh = bitgen.state  # counter 0 and an empty buffer: where every stream starts

    def stream(key: np.ndarray) -> np.random.Generator:
        fresh["state"]["key"] = key
        bitgen.state = fresh
        return rng

    patterns: dict[tuple, int] = {}  # pattern -> id, in first-shot order
    ids = np.empty(shots, dtype=np.int32)  # each shot's pattern id
    uniforms = np.empty(shots)
    per_chunk = max(1, _BLOCK_DRAWS // (len(rates) + 1))
    block = np.empty((min(per_chunk, shots), len(rates) + 1))
    for first in range(0, shots, per_chunk):
        keys = philox_keys(seed, "traj", noise.seed, count=min(per_chunk, shots - first), start=first)
        draws = block[: len(keys)]
        for key, row in zip(keys, draws):
            stream(key).random(out=row)
        chunk_ids = ids[first : first + len(keys)]
        chunk_uniforms = uniforms[first : first + len(keys)]
        chunk_uniforms[:] = draws[:, -1]
        erring = (draws[:, :-1] < thresholds).any(axis=1)
        claims = erring.copy()
        claims[erring.argmin()] = True  # the chunk's first error-free shot, if any
        for offset in np.flatnonzero(claims):
            pattern = ()
            if erring[offset]:
                replay = stream(keys[offset])
                pattern = _draw_errors(program, rates, replay)
                chunk_uniforms[offset] = replay.random()
            chunk_ids[offset] = patterns.setdefault(pattern, len(patterns))
        if () in patterns:
            chunk_ids[~erring] = patterns[()]
    # pattern i's shots are order[bounds[i]:bounds[i + 1]]
    order = np.argsort(ids)
    bounds = np.concatenate(([0], np.cumsum(np.bincount(ids))))
    counts = np.zeros(2**n, dtype=np.int64)
    distinct = list(patterns)
    width = max(1, _BATCH_AMPLITUDES >> n)
    for start in range(0, len(distinct), width):
        chunk = distinct[start : start + width]
        errors: dict[int, list] = {}
        for column, pattern in enumerate(chunk):
            for index, q, pauli in pattern:
                errors.setdefault(index, []).append((column, q, _PAULI_LIST[pauli]))
        batch = np.repeat(state.reshape(-1, 1), len(chunk), axis=1)
        flat = _evolve(batch.reshape((2,) * n + (len(chunk),)), program, n, errors)
        for column in range(len(chunk)):
            probs = np.abs(flat[:, column]) ** 2
            cumulative = np.cumsum(probs / probs.sum())
            members = order[bounds[start + column] : bounds[start + column + 1]]
            picked = np.searchsorted(cumulative, uniforms[members], side="right")
            counts += np.bincount(np.minimum(picked, probs.size - 1), minlength=counts.size)
    return counts


def _marginal(weights: np.ndarray, measured: tuple[int, ...], n: int) -> np.ndarray:
    """Sum a per-basis-index vector over the unmeasured qubits; the axes left run from
    the highest measured qubit down, so each flat index prints as its outcome string."""
    tensor = weights.reshape((2,) * n)
    drop = tuple(n - 1 - q for q in range(n) if q not in measured)
    if drop:
        tensor = tensor.sum(axis=drop)
    return tensor.reshape(-1)


def run(
    circuit: Circuit,
    shots: int,
    initial: np.ndarray | None = None,
    noise: NoiseConfig | None = None,
    seed: int = 0,
) -> Distribution:
    """Simulate and sample ``shots`` outcomes over the measured qubits.

    Qubits without measurements are traced out; if the circuit has no measure
    operations at all, every qubit is measured implicitly.
    """
    if shots < 1:
        raise ValueError("shots must be positive")
    if noise is not None and noise.enabled and shots > _NOISY_SHOT_LIMIT:
        raise ValueError(f"{shots} shots too many for a noisy run (at most {_NOISY_SHOT_LIMIT})")
    measured = circuit.measured_qubits()
    n = circuit.num_qubits
    if noise is None or not noise.enabled:
        state = statevector(circuit, initial)
        probs = _marginal(np.abs(state) ** 2, measured, n)
        sampled = derive_rng(seed, "sample").multinomial(shots, probs / probs.sum())
    else:
        sampled = _marginal(_sample_noisy(circuit, shots, initial, noise, seed), measured, n)
    b = len(measured)
    counts = {format(i, f"0{b}b"): int(count) for i, count in enumerate(sampled) if count}
    return Distribution(counts=counts, shots=shots, bits=b)


def unitary_of(circuit: Circuit) -> np.ndarray:
    """Full unitary as the ordered product of gate unitaries.

    Measurements are stripped, barriers ignored; circuits beyond 10 qubits are
    rejected to bound memory. Each column keeps the kernel's norm check.
    """
    n = circuit.num_qubits
    if n > _UNITARY_QUBIT_LIMIT:
        raise ValueError(f"unitary_of supports at most {_UNITARY_QUBIT_LIMIT} qubits")
    dim = 2**n
    # each column of the identity is one basis state, evolved as a batch
    return _evolve(np.eye(dim, dtype=complex).reshape((2,) * n + (dim,)), _program(circuit), n)
