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
The batch columns are input states (``statevector`` takes ``(2**n,
columns)``, and ``evaluate`` evolves an arm's inputs that way,
``batch_columns`` at a time), basis states (``unitary_of``) or the error
patterns of a noisy run. A batch of input states evolves stacked, one matmul
per column, so each column is also bit-identical to that state evolved alone.
A noisy batch's Pauli insertions are written into ``result`` in place, the
same way, right after their gate's matmul.
The norm check after every gate reads the contiguous ``result``: one
``np.vdot`` for a statevector, one ``np.vecdot`` per column for a batch.
Circuits beyond ``_STATE_QUBIT_LIMIT`` qubits, and noisy runs beyond
``_NOISY_SHOT_LIMIT`` shots, are refused before anything is allocated.

Noise, when enabled, is a parametric depolarizing model unravelled as quantum
trajectories: after each gate, with probability ``p1`` (single-qubit gates)
or ``p2`` (multi-qubit gates), a Pauli drawn uniformly from {X, Y, Z} is
applied to each of the gate's qubits. The draws never depend on the state,
so a run draws every shot's error pattern first: one stream per run fills a
(shots, gates) block of uniforms, one per gate of each shot, and a uniform
below its gate's rate both marks the error and picks its Paulis. Each
distinct pattern (most shots share the error-free one) is then simulated
once, as one column of a batch. Every run ends the same way: each group of
shots (a noiseless run's one state, or a noisy run's patterns, the
error-free one first) has its probabilities summed over the unmeasured
qubits and draws its shots with one multinomial from the run's sampling
stream, and each remaining index prints as its outcome string. A noisy run
that draws no error therefore gives the noiseless counts.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuit import IMPLICIT_PHASE_ANGLE, Circuit, Gate
from .rng import derive_rng

_NORM_TOL = 1e-10
_UNITARY_QUBIT_LIMIT = 10
_STATE_QUBIT_LIMIT = 26  # 2**26 amplitudes: 1 GiB per statevector
# a noisy run keeps no per-shot arrays, only one chunk of draws and a shot count per
# distinct error pattern. tracemalloc peaks of a 1-gate run over 2**20 shots: 2.3 bytes
# a shot at p1 = 0.001, 12 at p1 = 0.5, so repeated patterns keep 2**23 shots within
# 128 MB; where nearly every shot draws its own pattern (20 gates at p = 0.3) each
# pattern costs ~1.2 KB, which this limit does not bound below 10 GB
_NOISY_SHOT_LIMIT = 2**23
# amplitudes one batch may hold, its columns input states or noisy error patterns
# (``batch_columns``). Measured on a 2-core x86 host, numpy 2.4.6, process time, median
# of 5-7: a stacked batch of input states over its columns' separate statevectors, 2
# columns 0.84-0.96 at 4-10 qubits, 0.95 (0.81-1.12) on the 11-qubit locked 10q/4000
# synthetic arm, 1.03 at 15 qubits, 4 columns 0.48-0.76 at 4-10 qubits; noisy runs on
# locked circuits under this cap over 2**18, 0.64-0.93 at 9-15 qubits, 1.00-1.04 at
# 100 shots of the bundled circuits (one batch either way), 0.48-1.11 at 1000 shots.
# So 2**11: 2 columns at 10 qubits, 4 at 9, 64 at 5, one at 11 and up
_BATCH_AMPLITUDES = 2**11
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
}
_FIXED.update({kind: _phase(angle) for kind, angle in IMPLICIT_PHASE_ANGLE.items()})
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
def _permutations(
    qubits: tuple[int, ...], n: int, ndim: int, stacked: bool = False
) -> tuple[tuple[int, ...], ...]:
    """Axis order bringing ``qubits`` to the front, as ``np.moveaxis`` would, and its
    inverse; ``stacked`` puts a batch's axis (axis ``n``) in front of them."""
    front = ((n,) if stacked else ()) + tuple(n - 1 - q for q in qubits)
    order = front + tuple(i for i in range(ndim) if i not in front)
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


def _evolve(
    tensor: np.ndarray, program: Program, n: int, errors=None, stacked: bool = False
) -> np.ndarray:
    """Apply ``program`` to a state tensor, checking norm preservation after every gate.

    ``tensor`` is shaped ``(2,) * n``, or ``(2,) * n + (columns,)`` for a batch
    of states; the result comes back flat, ``(2**n,)`` or ``(2**n, columns)``.
    ``errors`` maps a program index to the ``(column, qubit, pauli)`` insertions
    that follow that gate, each in its own column only and written into
    ``result`` in place, through a view with the qubit's axis in front.
    ``tensor`` itself is never written.

    A batch's gate is one matmul over all its columns, the batch axis kept
    last. With ``stacked``, the buffers hold the batch axis in front instead,
    and each gate is a stack of per-column matmuls: for each stack item numpy
    makes the BLAS call a lone statevector makes, with the same shape and
    strides on the same values, so each column comes out bit-identical to
    that column evolved alone, whatever kernel the BLAS picks for that shape.
    One wide matmul does not promise that: OpenBLAS computes 1- and 2-column
    products with other kernels than wide ones, which differ in the last bit.
    Only a BLAS whose results depend on where its operands sit in memory (MKL
    may, outside its reproducibility mode) could still tell the two apart.
    """
    shape = tensor.shape
    batched = len(shape) > n
    columns = shape[-1] if batched else 1
    # a stacked batch's buffers hold one contiguous state per column
    buffer = (columns,) + (2,) * n if stacked else shape
    gather = np.empty(buffer, dtype=complex)
    result = np.empty(buffer, dtype=complex)
    stack = (columns,) if stacked else ()
    errors = errors or {}
    for index, (mat, qubits) in enumerate(program):
        order, inverse = _permutations(qubits, n, len(shape), stacked)
        k = mat.shape[0]
        np.copyto(gather, tensor.transpose(order))
        np.matmul(mat, gather.reshape(stack + (k, -1)), out=result.reshape(stack + (k, -1)))
        tensor = result.transpose(inverse)
        for column, q, pauli in errors.get(index, ()):
            wire = tensor[..., column].transpose(_permutations((q,), n, n)[0])
            wire[...] = (pauli @ wire.reshape(2, -1)).reshape(wire.shape)
        # the checks are written so that a NaN norm counts as drift
        if batched:
            # one conjugated dot product per column, in the layout the matmul wrote:
            # no state-sized temporary per gate
            checked = result.reshape(columns, -1) if stacked else result.reshape(-1, columns).T
            norms = np.sqrt(np.vecdot(checked, checked).real)
            drifted = ~(np.abs(norms - 1.0) <= _NORM_TOL)
            if drifted.any():
                raise ArithmeticError(f"statevector norm drifted to {norms[drifted][0]}")
        else:
            # plain statevectors keep the flat norm: a batch axis of one is slower
            checked = result.reshape(-1)
            norm = math.sqrt(np.vdot(checked, checked).real)
            if not abs(norm - 1.0) <= _NORM_TOL:
                raise ArithmeticError(f"statevector norm drifted to {norm}")
    return tensor.reshape(2**n, -1) if batched else tensor.reshape(-1)


def _initial_state(n: int, initial: np.ndarray | None) -> np.ndarray:
    """One state, ``(2**n,)``, or a batch of states, ``(2**n, columns)``."""
    state = zero_state(n) if initial is None else np.asarray(initial, dtype=complex)
    if state.ndim not in (1, 2) or state.shape[0] != 2**n or not state.size:
        raise ValueError(
            f"initial state has wrong dimension: shape {state.shape}, "
            f"expected ({2**n},) or ({2**n}, columns) for {n} qubits"
        )
    return state


def statevector(circuit: Circuit, initial: np.ndarray | None = None) -> np.ndarray:
    """Noiseless evolution through all gates; barriers and measurements skipped.

    ``initial`` may hold a batch of states, one per column, ``(2**n, columns)``;
    they evolve as one ``_evolve`` batch, and the result has the same shape.
    """
    program = _program(circuit)
    n = circuit.num_qubits
    state = _initial_state(n, initial)
    # a batch of one evolves as a plain statevector: a batch axis of one is slower
    columns = state.shape[1:] if state.ndim == 2 and state.shape[1] > 1 else ()
    tensor = state.reshape((2,) * n + columns)
    return _evolve(tensor, program, n, stacked=bool(columns)).reshape(state.shape)


def batch_columns(num_qubits: int) -> int:
    """How many ``num_qubits``-qubit states one batch holds: at most
    ``_BATCH_AMPLITUDES`` amplitudes, one state at least."""
    return max(1, _BATCH_AMPLITUDES >> num_qubits)


def _error_patterns(program: Program, noise: NoiseConfig, draws: np.ndarray) -> Iterator[tuple]:
    """The error patterns of the shots in ``draws`` that err, one row of gate uniforms per shot.

    Gate ``g`` errs when its uniform ``u`` falls below its rate; ``u / rate``
    is then itself uniform, so the Paulis on the gate's ``k`` qubits are the
    base-3 digits of the pick ``int(u / rate * 3**k)``, its first listed qubit
    taking the least significant one (0, 1, 2: X, Y, Z). The pick stays below
    ``3**k``: ``u < rate`` keeps the rounded quotient at most ``1 - 2**-53``,
    and that times a number that is no power of two rounds below it. A pattern
    is the shot's (gate, pick) pairs in gate order.
    """
    rates = np.array([noise.p1 if len(qubits) == 1 else noise.p2 for _, qubits in program])
    sizes = np.array([3 ** len(qubits) for _, qubits in program])
    rows, gates = np.nonzero(draws < rates)
    picks = (draws[rows, gates] / rates[gates] * sizes[gates]).astype(np.int64)
    bounds = np.flatnonzero(np.diff(rows, prepend=-1)).tolist() + [len(rows)]
    gates, picks = gates.tolist(), picks.tolist()
    return (tuple(zip(gates[a:b], picks[a:b])) for a, b in zip(bounds, bounds[1:]))


def _insertions(program: Program, patterns: list[tuple]) -> dict[int, list]:
    """``_evolve``'s ``errors`` for a batch holding pattern ``i`` in column ``i``."""
    errors: dict[int, list] = {}
    for column, pattern in enumerate(patterns):
        for index, pick in pattern:
            for q in program[index][1]:
                pick, pauli = divmod(pick, 3)
                errors.setdefault(index, []).append((column, q, _PAULI_LIST[pauli]))
    return errors


def _sample_noisy(
    circuit: Circuit, shots: int, initial, noise: NoiseConfig, seed: int
) -> Iterator[tuple[np.ndarray, int]]:
    """(probabilities over basis indices, shots) for each error pattern a noisy run draws.

    One stream, ``derive_rng(seed, "traj", noise.seed)``, fills a ``(shots,
    gates)`` block of uniforms row by row, in chunks of at most
    ``_BLOCK_DRAWS`` uniforms (one shot at least), so chunking never changes a
    draw; ``_error_patterns`` reads each shot's row. Each distinct pattern, the
    error-free one first (simulated even if every shot errs) and the rest in
    first-occurrence order, is simulated once, as one column of a batch, and
    ``run`` draws its shots with one multinomial, as it draws a noiseless run's.
    """
    program = _program(circuit)
    n = circuit.num_qubits
    state = _initial_state(n, initial)
    rng = derive_rng(seed, "traj", noise.seed)
    patterns = {(): 0}  # pattern -> shots that drew it; the error-free count is set last
    per_chunk = max(1, _BLOCK_DRAWS // max(1, len(program)))
    block = np.empty((min(per_chunk, shots), len(program)))
    for first in range(0, shots, per_chunk):
        for pattern in _error_patterns(program, noise, rng.random(out=block[: shots - first])):
            patterns[pattern] = patterns.get(pattern, 0) + 1
    patterns[()] = shots - sum(patterns.values())
    distinct = list(patterns)
    width = batch_columns(n)
    for start in range(0, len(distinct), width):
        chunk = distinct[start : start + width]
        batch = np.repeat(state.reshape(-1, 1), len(chunk), axis=1)
        flat = _evolve(batch.reshape((2,) * n + (len(chunk),)), program, n, _insertions(program, chunk))
        for column, pattern in enumerate(chunk):
            yield np.abs(flat[:, column]) ** 2, patterns[pattern]


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
    if initial is not None and np.ndim(initial) != 1:
        raise ValueError(f"run samples one state: initial must be 1-D, got shape {np.shape(initial)}")
    if noise is not None and noise.enabled and shots > _NOISY_SHOT_LIMIT:
        raise ValueError(f"{shots} shots too many for a noisy run (at most {_NOISY_SHOT_LIMIT})")
    measured = circuit.measured_qubits()
    n = circuit.num_qubits
    if noise is None or not noise.enabled:
        state = statevector(circuit, initial)
        groups = [(np.abs(state) ** 2, shots)]
    else:
        groups = _sample_noisy(circuit, shots, initial, noise, seed)
    rng = derive_rng(seed, "sample")
    sampled = 0
    for weights, count in groups:
        probs = _marginal(weights, measured, n)
        sampled = sampled + rng.multinomial(count, probs / probs.sum())
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
