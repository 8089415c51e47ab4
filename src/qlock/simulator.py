"""Dense statevector simulation with seeded shot sampling.

Qubit ordering is little-endian throughout: qubit 0 is the least-significant
bit of a basis index, and outcome strings print the highest measured qubit
first (qubit 0 rightmost). Distributions serialize as
``{"shots": N, "bits": b, "counts": {...}}`` with those outcome strings.

Every simulation runs one kernel: ``_program`` resolves a circuit's gates once
into (matrix, qubits) pairs, and ``_evolve`` applies them to a state tensor,
optionally carrying a trailing batch axis of independent states. Each gate is
one matmul between two ``transpose`` views whose axis permutations are
resolved once per (qubits, qubit count, rank), followed by a norm check: one
``np.vdot`` for a statevector, ``np.linalg.norm`` per column for a batch.
Circuits beyond ``_STATE_QUBIT_LIMIT`` qubits are refused before anything is
allocated.

Noise, when enabled, is a parametric depolarizing model unravelled as quantum
trajectories: after each gate, with probability ``p1`` (single-qubit gates)
or ``p2`` (multi-qubit gates), a Pauli drawn uniformly from {X, Y, Z} is
applied to each of the gate's qubits. Trajectory streams are derived per shot
from the run seed, so serial and parallel execution agree. The draws never
depend on the state, so each shot's error pattern and sampling uniform are
drawn first; each distinct pattern (most shots share the error-free one) is
then simulated once, as one column of a batch, and every shot samples from
its pattern's state. Streams, draws and counts are those of simulating each
shot on its own.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuit import Circuit, Gate
from .rng import derive_rng

_NORM_TOL = 1e-10
_UNITARY_QUBIT_LIMIT = 10
_STATE_QUBIT_LIMIT = 26  # 2**26 amplitudes: 1 GiB per statevector
_BATCH_AMPLITUDES = 2**18  # amplitudes one batch of noisy trajectories may hold


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
_H = np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)
_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_PAULI_LIST = (_PAULI["x"], _PAULI["y"], _PAULI["z"])


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


@lru_cache(maxsize=None)
def _fixed_matrix(kind: str) -> np.ndarray:
    if kind in _PAULI:
        return _PAULI[kind]
    if kind == "h":
        return _H
    if kind == "s":
        return _phase(math.pi / 2)
    if kind == "sdg":
        return _phase(-math.pi / 2)
    if kind == "t":
        return _phase(math.pi / 4)
    if kind == "tdg":
        return _phase(-math.pi / 4)
    if kind in ("cx", "cy", "cz", "ch"):
        return _controlled(_fixed_matrix(kind[1:]))
    if kind == "ccx":
        return _controlled(_controlled(_PAULI["x"]))
    raise KeyError(kind)


def gate_matrix(gate: Gate) -> np.ndarray:
    """Unitary of a gate on its own qubits, first listed qubit most significant."""
    if gate.kind == "rz":
        return _rz(gate.params[0])
    if gate.kind == "p":
        return _phase(gate.params[0])
    if gate.kind == "u3":
        return _u3(*gate.params)
    return _fixed_matrix(gate.kind)


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


def _apply_matrix(tensor: np.ndarray, mat: np.ndarray, qubits: tuple[int, ...], n: int):
    """Apply ``mat`` to the given qubits of a state (or stacked-state) tensor.

    ``tensor`` has n leading axes of size 2 (axis i holds qubit n-1-i, keeping
    qubit 0 least significant) plus optional trailing axes. The axis
    permutations are resolved once per ``(qubits, n, ndim)`` and applied as
    ``transpose`` views.
    """
    order, inverse = _permutations(qubits, n, tensor.ndim)
    moved = tensor.transpose(order)
    out = mat @ moved.reshape(mat.shape[0], -1)
    return out.reshape(moved.shape).transpose(inverse)


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
    that follow that gate, each in its own column only.
    """
    shape = tensor.shape
    batched = len(shape) > n
    flat = tensor.reshape(2**n, -1) if batched else tensor.reshape(-1)
    errors = errors or {}
    for index, (mat, qubits) in enumerate(program):
        flat = _apply_matrix(tensor, mat, qubits, n).reshape(flat.shape)
        for column, q, pauli in errors.get(index, ()):
            state = flat[:, column].reshape((2,) * n)
            flat[:, column] = _apply_matrix(state, pauli, (q,), n).reshape(-1)
        # the checks are written so that a NaN norm counts as drift
        if batched:
            norms = np.linalg.norm(flat, axis=0)
            drifted = ~(np.abs(norms - 1.0) <= _NORM_TOL)
            if drifted.any():
                raise ArithmeticError(f"statevector norm drifted to {norms[drifted][0]}")
        else:
            # plain statevectors keep the flat norm: a batch axis of one is slower
            norm = math.sqrt(np.vdot(flat, flat).real)
            if not abs(norm - 1.0) <= _NORM_TOL:
                raise ArithmeticError(f"statevector norm drifted to {norm}")
        tensor = flat.reshape(shape)
    return flat


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
) -> list[int]:
    """Basis index of each shot under depolarizing noise.

    Every shot draws its error pattern and its sampling uniform from its own
    stream first; each distinct pattern is then simulated once, as one column
    of a batch, and sampled for every shot that drew it.
    """
    program = _program(circuit)
    n = circuit.num_qubits
    state = _initial_state(n, initial)
    rates = [noise.p1 if len(qubits) == 1 else noise.p2 for _, qubits in program]
    patterns: dict[tuple, list[int]] = {}
    uniforms = np.empty(shots)
    for shot in range(shots):
        rng = derive_rng(seed, "traj", noise.seed, shot)
        patterns.setdefault(_draw_errors(program, rates, rng), []).append(shot)
        uniforms[shot] = rng.random()
    outcomes = np.empty(shots, dtype=np.int64)
    distinct = list(patterns.items())
    width = max(1, _BATCH_AMPLITUDES >> n)
    for start in range(0, len(distinct), width):
        chunk = distinct[start : start + width]
        errors: dict[int, list] = {}
        for column, (pattern, _) in enumerate(chunk):
            for index, q, pauli in pattern:
                errors.setdefault(index, []).append((column, q, _PAULI_LIST[pauli]))
        batch = np.repeat(state.reshape(-1, 1), len(chunk), axis=1)
        flat = _evolve(batch.reshape((2,) * n + (len(chunk),)), program, n, errors)
        for column, (_, members) in enumerate(chunk):
            probs = np.abs(flat[:, column]) ** 2
            cumulative = np.cumsum(probs / probs.sum())
            picked = np.searchsorted(cumulative, uniforms[members], side="right")
            outcomes[members] = np.minimum(picked, probs.size - 1)
    return outcomes.tolist()


def _outcome_key(index: int, measured: tuple[int, ...]) -> str:
    return "".join(str((index >> q) & 1) for q in sorted(measured, reverse=True))


def _marginal_probs(state: np.ndarray, measured: tuple[int, ...], n: int) -> np.ndarray:
    """Probabilities over measured qubits (ascending order = bit significance)."""
    probs = np.abs(state) ** 2
    tensor = probs.reshape((2,) * n)
    drop = tuple(n - 1 - q for q in range(n) if q not in measured)
    if drop:
        tensor = tensor.sum(axis=drop)
    flat = tensor.reshape(-1)
    return flat / flat.sum()


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
    measured = circuit.measured_qubits()
    b = len(measured)
    counts: dict[str, int] = {}
    if noise is None or not noise.enabled:
        state = statevector(circuit, initial)
        # marginal axes run from the highest measured qubit down, so the flat
        # index prints directly as the little-endian outcome string
        probs = _marginal_probs(state, measured, circuit.num_qubits)
        rng = derive_rng(seed, "sample")
        sampled = rng.multinomial(shots, probs)
        for flat_index, count in enumerate(sampled):
            if count:
                counts[format(flat_index, f"0{b}b")] = int(count)
    else:
        for index in _sample_noisy(circuit, shots, initial, noise, seed):
            key = _outcome_key(index, measured)
            counts[key] = counts.get(key, 0) + 1
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
