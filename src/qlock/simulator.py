"""Dense statevector simulation with seeded shot sampling.

Qubit ordering is little-endian throughout: qubit 0 is the least-significant
bit of a basis index, and outcome strings print the highest measured qubit
first (qubit 0 rightmost). A ``Distribution`` counts outcomes by index; the
indices become outcome strings only when read (``counts``) or written
(``to_json``: ``{"shots": N, "bits": b, "counts": {...}}``).

Every simulation runs one kernel: ``_program`` resolves a circuit's gates once
into (matrix, qubits) pairs, and ``_evolve`` applies them to a state tensor,
optionally carrying a trailing batch axis of independent states. ``_evolve``
allocates two state-sized buffers per call and none per gate (none at all for
an empty program): each gate copies the state into ``gather`` with its own
axes in front (a ``transpose`` whose permutation is resolved once per
(qubits, qubit count, rank)), and one ``np.matmul(..., out=)`` writes
``result``, which is left in that axis order; the state is then ``result``
seen through the inverse ``transpose``, and only the next gather, or the end
of the run (into ``gather``, which is returned), copies it into natural
order. Each matmul operand holds the same values, in the same rows and
columns, as ``np.moveaxis(...).reshape(k, -1)``, so each amplitude is the
same sum of the same k products, and for a given program the results are
bit-identical to moving axes there and back per matrix (the oracle tests in
``tests/test_simulator.py`` hold them to it).
A batch's columns are input states (``statevector`` takes ``(2**n,
columns)``, and ``evaluate`` evolves an arm's inputs that way,
``batch_columns`` at a time) or basis states (``unitary_of``). Every batch
evolves one way: its buffers hold the batch axis in front, and each gate is
one matmul per column, so each column is bit-identical to that state evolved
alone through the same program.
The norm check after every matrix reads the contiguous ``result``: one
``np.vdot`` for a statevector, one ``np.vecdot`` per column for a batch, and
the trace for a density tensor. Circuits beyond ``_STATE_QUBIT_LIMIT``
qubits, and noisy runs beyond half of it, are refused before anything is
allocated.

Every noiseless program is fused (``compile_program``), for a lone state, a
batch and a unitary alike. ``_fuse`` groups the gates into blocks of at most
``_FUSE_QUBITS`` qubits (barriers do not stop a block). ``_compose`` builds
the matrices of closed blocks of one width ``m`` together, ``_COMPOSE_GROUP``
at a time: each gate is embedded as a ``2**m``-square matrix by one rule
(``_embed``: the gates on the same wires are scattered into their entries in
one assignment, whatever their width), step ``s`` of every block at least
that long is one stacked matmul, and one column-norm check covers the group.
A fused program applies one matrix per block; its amplitudes differ from the
gate-by-gate ones in the last bits only (the fusion tests bound the drift by
1e-12, and each block's matrix by 1e-14 from composing it gate by gate).
Noisy programs are not fused.

The key program (``compile_key_program``) gives every candidate key of one
``unlocking.KeyTemplate`` its fused program without building or fusing the
candidate's circuit, which differs from the template's only at its key
slots. The template's circuit, each slot holding a gate, goes through
``_fuse`` once, each slot in its gate's place; a slot's other options are no
gate or another gate on its qubits, so every candidate's program has the
template's blocks. ``_fuse`` composes the blocks without slots as
``compile_program`` does and hands back the others. In those, each run of
fixed gates between slots is composed once, and each gate that stands alone,
an option or a run of one gate, is embedded once per (matrix, wires in the
block). A candidate's block is then the product of its runs and the options
its bits pick: one gather and a few stacked matmuls per width of such blocks
(``_chain``), so the work per candidate grows with the blocks that hold
slots, not with gates. These products group a candidate's gates otherwise
than ``compile_program`` of its restored circuit, so the two agree to the
last bits only (``tests/test_key_template.py`` bounds each block by 1e-12).
A noisy sweep runs each candidate's restored circuit.

Noise, when enabled, is a parametric depolarizing channel after each gate:
with probability ``p1`` (single-qubit gates) or ``p2`` (multi-qubit gates), a
Pauli drawn uniformly from {X, Y, Z} hits each of the gate's qubits. A noisy
run evolves the exact density matrix rho = psi psi^dagger of its ``n`` qubits
as a ``2n``-qubit tensor through the same kernel: tensor qubit ``n + q`` holds
qubit ``q``'s row bit and tensor qubit ``q`` its column bit, so the flat index
is ``row * 2**n + col``, and each gate with its channel is one
``4**k``-square superoperator (``_superoperator``) on tensor qubits
``(n + q..., q...)``. Every run ends the same way: the probabilities (a
state's squared amplitudes, or the density matrix's diagonal) are summed over
the unmeasured qubits, the shots are drawn with one multinomial from the
run's sampling stream, and each index drawn keeps its count, unformatted.
Noise with ``p1 = p2 = 0`` runs noiseless, so it gives the noiseless
counts; a noisy run's memory does not depend on its shot count.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import groupby, product
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .circuit import IMPLICIT_PHASE_ANGLE, Circuit, Gate
from .rng import derive_rng

if TYPE_CHECKING:
    from .unlocking import KeyTemplate

_NORM_TOL = 1e-10
_UNITARY_QUBIT_LIMIT = 10
_STATE_QUBIT_LIMIT = 26  # 2**26 amplitudes: 1 GiB per statevector, or per density tensor of 13 qubits
# amplitudes one batch of noiseless input states may hold (``batch_columns``): a batch of
# 2 columns took 0.84-0.96 of its columns' separate time at 4-10 qubits, and 0.81-1.12 on
# the 11-qubit locked 10q/4000 arm (CHANGES.md; not retuned since fusion). So 2**11: 2
# columns at 10 qubits, 4 at 9, 64 at 5, one at 11 and up
_BATCH_AMPLITUDES = 2**11
# the widest block _fuse builds: 4 was ~5% faster on synthetic_pipeline than 3, but its
# blocks hold 4 KB and peak_rss_mb rose (53.2-54.0 against 50.6-50.8 MB; CHANGES.md)
_FUSE_QUBITS = 3
# closed blocks of one width that _compose builds together, and the most gate matrices
# it embeds at once (512 KB at 3 qubits): at 32, compiling the locked 10q/4000 arm peaks
# below composing each block alone as it closes (2.24 against 2.27 MB; CHANGES.md)
_COMPOSE_GROUP = 32
_COMPOSE_WINDOW = 2**9


@dataclass(frozen=True)
class NoiseConfig:
    """The depolarizing channel a noisy run applies: ``p1`` after each one-qubit
    gate, ``p2`` after each multi-qubit gate, when ``enabled``.

    ``seed`` feeds no draw: a noisy run evolves its exact density matrix and
    samples from ``run``'s own ``seed``. The field stays only because the
    benchmark's workloads still pass ``seed=``.
    """

    enabled: bool = False
    p1: float = 0.001
    p2: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.p1 <= 1.0 or not 0.0 <= self.p2 <= 1.0:
            raise ValueError("depolarizing probabilities must lie in [0, 1]")

    @property
    def active(self) -> bool:
        """Whether a run under this config is noisy: enabled with a nonzero rate."""
        return self.enabled and bool(self.p1 or self.p2)


@dataclass(frozen=True, init=False)
class Distribution:
    """Shot counts by outcome index (``by_index``: each outcome string read as
    a binary number, in the order given). The constructor takes and checks
    outcome strings; ``counts`` prints them back.
    """

    by_index: dict[int, int]
    shots: int
    bits: int

    def __init__(self, counts: dict[str, int], shots: int, bits: int):
        if shots < 1:
            raise ValueError("shots must be positive")
        total, malformed, by_index = 0, None, {}
        for key, count in counts.items():
            total += count
            if malformed is None:
                if len(key) != bits or key.strip("01"):
                    malformed = key
                else:
                    by_index[int(key or "0", 2)] = count
        if total != shots:
            raise ValueError("counts do not sum to shot count")
        if malformed is not None:
            raise ValueError(f"malformed outcome key {malformed!r}")
        self._fill(by_index, shots, bits)

    def _fill(self, by_index: dict[int, int], shots: int, bits: int) -> None:
        object.__setattr__(self, "by_index", by_index)
        object.__setattr__(self, "shots", shots)
        object.__setattr__(self, "bits", bits)

    @classmethod
    def _sampled(cls, by_index: dict[int, int], shots: int, bits: int) -> Distribution:
        """``run``'s result, whose indices fit ``bits`` by construction."""
        if sum(by_index.values()) != shots:
            raise ValueError("counts do not sum to shot count")
        dist = object.__new__(cls)
        dist._fill(by_index, shots, bits)
        return dist

    @property
    def counts(self) -> dict[str, int]:
        """The counts by outcome string, highest measured qubit first."""
        if not self.bits:
            return {"": count for count in self.by_index.values()}
        spec = f"0{self.bits}b"
        return {format(i, spec): count for i, count in self.by_index.items()}

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
def _permutations(qubits: tuple[int, ...], n: int, ndim: int) -> tuple[tuple[int, ...], ...]:
    """Axis order bringing ``qubits`` to the front, as ``np.moveaxis`` would, and its
    inverse; a batch's axis (axis ``n``, when ``ndim > n``) goes in front of them."""
    front = ((n,) if ndim > n else ()) + tuple(n - 1 - q for q in qubits)
    order = front + tuple(i for i in range(ndim) if i not in front)
    return order, tuple(sorted(range(ndim), key=order.__getitem__))


Program = list[tuple[np.ndarray, tuple[int, ...]]]


def _refuse_too_wide(n: int, noisy: bool = False) -> None:
    """Refuse, before anything is allocated, an ``n``-qubit state (a noisy run's
    density tensor holds ``4**n`` amplitudes) above ``2**_STATE_QUBIT_LIMIT`` amplitudes."""
    limit = _STATE_QUBIT_LIMIT // 2 if noisy else _STATE_QUBIT_LIMIT
    if n > limit:
        kind = "simulate with noise" if noisy else "simulate"
        raise ValueError(f"{n}-qubit circuit too large to {kind} (at most {limit} qubits)")


def _program(circuit: Circuit, fused: bool = False, noise: NoiseConfig | None = None) -> Program:
    """Resolve each gate once to (matrix, qubits); barriers and measurements drop out.

    With ``fused``, the gates go through ``_fuse`` one at a time, so each
    gate's matrix lives only until its block is built. With ``noise``, each
    gate is its ``_superoperator`` on the density tensor's qubits. Qubit
    indices need no check here: ``Circuit`` keeps them in range. Circuits
    too wide to simulate are refused first (``_refuse_too_wide``).
    """
    n = circuit.num_qubits
    _refuse_too_wide(n, noise is not None)
    if not any(isinstance(op, Gate) for op in circuit.ops):
        return []  # measurements alone, as each noiseless sample of ``evaluate`` runs: nothing to fuse
    gates = ((gate_matrix(op), op.qubits) for op in circuit.ops if isinstance(op, Gate))
    if noise is not None:
        return [
            (_superoperator(u.tobytes(), len(q), noise.p1 if len(q) == 1 else noise.p2), tuple(n + b for b in q) + q)
            for u, q in gates
        ]
    return _fuse(gates) if fused else list(gates)


@lru_cache(maxsize=None)
def _depolarizer(k: int) -> np.ndarray:
    """``T_k``, the superoperator of a uniform Pauli from {X, Y, Z} on each of ``k``
    qubits: the mean of ``P (x) conj(P)`` over the ``3**k`` Pauli products ``P``,
    row bits before column bits; never written."""
    paulis = (reduce(np.kron, combination) for combination in product(_PAULI_LIST, repeat=k))
    depolarizer = sum(np.kron(p, p.conj()) for p in paulis) / 3**k
    depolarizer.flags.writeable = False
    return depolarizer


@lru_cache(maxsize=2**10)
def _superoperator(matrix: bytes, k: int, rate: float) -> np.ndarray:
    """A ``k``-qubit gate, given by its matrix's bytes, followed by its depolarizing
    channel of ``rate``, as one ``4**k``-square matrix on the row bits, then the
    column bits, of its qubits: ``(1 - rate) U (x) conj(U) + rate T_k (U (x) conj(U))``;
    never written."""
    u = np.frombuffer(matrix, dtype=complex).reshape(2**k, 2**k)
    unitary = np.kron(u, u.conj())
    superoperator = (1.0 - rate) * unitary + rate * (_depolarizer(k) @ unitary)
    superoperator.flags.writeable = False
    return superoperator


class _Block:
    """A block of ``_fuse``: its qubits and its gates in program order."""

    __slots__ = ("qubits", "gates")

    def __init__(self, qubits: set[int], gates: Program):
        self.qubits, self.gates = qubits, gates


def _fuse(program: Iterable[tuple[object, tuple[int, ...]]], k: int = _FUSE_QUBITS) -> list:
    """Group ``program``'s gates into blocks of at most ``k`` qubits, one matrix each.

    Each qubit has at most one open block. A gate joins the open blocks on
    its qubits, merged into one, when their qubits and its own number at most
    ``k``. Otherwise it joins the one of them it fits with that holds the most
    gates, the others close, and if it fits with none it opens a block of its
    own. A one-qubit gate always fits its qubit's open block, so it joins it
    or opens one. Blocks take their place in the program as they close, the
    ones still open at the end last, so every qubit sees its gates in program
    order. A closed block waits in its place until ``_COMPOSE_GROUP`` blocks
    of its width have closed, and ``_compose`` builds their matrices
    together; the blocks still waiting at the end are composed last. Only
    each gate's qubits (``gate[1]``) decide its block, so
    ``compile_key_program`` passes each key slot without a matrix, in its
    gate's place, and each block holding a slot comes back as its ``_Block``.
    """
    fused: list = []
    waiting: dict[int, list[int]] = {}  # block width -> places of blocks not yet composed
    open_blocks: dict[int, _Block] = {}

    def compose(places: list[int]) -> None:
        for place, pair in zip(places, _compose([fused[i] for i in places])):
            fused[place] = pair
        places.clear()

    def close(block: _Block) -> None:
        fused.append(block)
        if not all(isinstance(matrix, np.ndarray) for matrix, _ in block.gates):
            return  # a key slot's block stays a _Block
        places = waiting.setdefault(len(block.qubits), [])
        places.append(len(fused) - 1)
        if len(places) >= _COMPOSE_GROUP:
            compose(places)

    for gate in program:
        if len(gate[1]) == 1:
            q = gate[1][0]
            if q in open_blocks:
                open_blocks[q].gates.append(gate)
            else:
                open_blocks[q] = _Block({q}, [gate])
            continue
        touched: list[_Block] = []
        for q in gate[1]:
            b = open_blocks.get(q)
            if b is not None and b not in touched:
                touched.append(b)
        qubits = set(gate[1]).union(*[b.qubits for b in touched])
        if len(qubits) > k:
            fits = [b for b in touched if len(b.qubits.union(gate[1])) <= k]
            keep = max(fits, key=lambda b: len(b.gates), default=None)
            for b in touched:
                if b is not keep:
                    close(b)
                    for q in b.qubits:
                        del open_blocks[q]
            touched = [keep] if keep else []
            qubits = set(gate[1]).union(*[b.qubits for b in touched])
        block = touched[0] if touched else _Block(qubits, [])
        for b in touched[1:]:
            block.gates += b.gates
        block.qubits = qubits
        block.gates.append(gate)
        for q in qubits:
            open_blocks[q] = block
    for b in dict.fromkeys(open_blocks.values()):
        close(b)
    for places in waiting.values():
        if places:
            compose(places)
    return fused


def _wires(qubits: set[int]) -> tuple[tuple[int, ...], dict[int, int]]:
    """A block's qubits, the highest first, and each qubit's little-endian wire in the block."""
    order = tuple(sorted(qubits, reverse=True))
    return order, {q: len(order) - 1 - w for w, q in enumerate(order)}


@lru_cache(maxsize=None)
def _entries(m: int, wires: tuple[int, ...]) -> np.ndarray:
    """Flat entries, ``(2**k, 2**k, 2**(m-k))``, of a ``2**m``-square matrix that a
    ``k``-qubit gate on ``wires`` (its first qubit's wire first) fills: entry
    ``(a, b, i)`` is at the row whose bits on ``wires`` spell ``a``, and the column
    whose bits there spell ``b``, both with the ``i``-th setting of the other bits."""
    k = len(wires)
    rest = np.array([i for i in range(2**m) if not any(i >> w & 1 for w in wires)])
    spelled = np.array([sum((a >> (k - 1 - j) & 1) << w for j, w in enumerate(wires)) for a in range(2**k)])
    rows = spelled[:, None] + rest
    entries = rows[:, None, :] * 2**m + rows[None, :, :]
    entries.flags.writeable = False
    return entries


def _embed(gates: list[tuple[tuple[np.ndarray, tuple[int, ...]], dict[int, int]]], m: int) -> np.ndarray:
    """``gates``, each a (matrix, qubits) pair and its ``m``-qubit block's map from
    qubits to the block's own wires, as an array ``(len(gates), 2**m, 2**m)``.

    The gates on the same wires, in the same order, are scattered into their
    entries (``_entries``) in one vectorised assignment, whatever their width.
    """
    d = 2**m
    embedded = np.zeros((len(gates), d, d), dtype=complex)
    groups: dict[tuple[int, ...], list[int]] = {}  # wires -> indices of the gates on them
    for i, ((_, qubits), local) in enumerate(gates):
        groups.setdefault(tuple(map(local.__getitem__, qubits)), []).append(i)
    flat = embedded.reshape(len(gates), d * d)
    for wires, indices in groups.items():
        matrices = np.array([gates[i][0][0] for i in indices])
        flat[np.array(indices)[:, None, None, None], _entries(m, wires)] = matrices[..., None]
    return embedded


def _compose(blocks: list[_Block]) -> Program:
    """Each block's (matrix, qubits), its qubits listed from the highest down; every
    one of ``blocks`` spans the same number ``m`` of qubits.

    A block of one gate is that gate. The others are composed together, step
    by step: step ``s`` multiplies the ``s``-th gate of every block at least
    ``s + 1`` gates long onto that block's product so far. The blocks are
    taken longest first, so step ``s``'s gates, embedded as ``2**m``-square
    matrices (``_embed``), and the products they meet are contiguous slices,
    and a step is one stacked ``np.matmul``. The gates are embedded a window
    of steps at a time, at most ``_COMPOSE_WINDOW`` matrices. One column-norm
    check covers every block.
    """
    program = [block.gates[0] for block in blocks]
    multi = sorted((i for i, b in enumerate(blocks) if len(b.gates) > 1), key=lambda i: -len(blocks[i].gates))
    if not multi:
        return program
    m = len(blocks[multi[0]].qubits)
    orders, local = zip(*(_wires(blocks[i].qubits) for i in multi))
    gates = [blocks[i].gates for i in multi]
    sizes, active = [], len(gates)  # blocks that take part in each step
    for step in range(len(gates[0])):
        while len(gates[active - 1]) <= step:
            active -= 1
        sizes.append(active)
    layout = [(gates[j][step], local[j]) for step, active in enumerate(sizes) for j in range(active)]
    matrices = np.empty((len(multi), 2**m, 2**m), dtype=complex)  # each block's product so far
    per_window = max(1, _COMPOSE_WINDOW // len(multi))  # a step embeds len(multi) matrices at most
    start = 0  # the window's first gate in ``layout``
    for first in range(0, len(sizes), per_window):
        window = sizes[first : first + per_window]
        embedded = _embed(layout[start : start + sum(window)], m)
        offset = 0
        for step, active in enumerate(window, first):
            step_gates = embedded[offset : offset + active]
            if step:
                # in place: numpy copies the products before the matmul overwrites them
                np.matmul(step_gates, matrices[:active], out=matrices[:active])
            else:
                matrices[:active] = step_gates
            offset += active
        start += offset
        del embedded, step_gates  # before the next window's gates are embedded
    norms = np.sqrt(np.vecdot(matrices, matrices, axis=-2).real)
    drifted = ~(np.abs(norms - 1.0) <= _NORM_TOL)
    if drifted.any():
        raise ArithmeticError(f"statevector norm drifted to {norms[drifted][0]}")
    for j, i in enumerate(multi):
        program[i] = (matrices[j], orders[j])
    return program


def _evolve(tensor: np.ndarray, program: Program, n: int, density: bool = False) -> np.ndarray:
    """Apply ``program`` to a state tensor, checking norm preservation after every gate.

    ``tensor`` is shaped ``(2,) * n``, or ``(2,) * n + (columns,)`` for a batch
    of states; the result comes back flat, ``(2**n,)`` or ``(2**n, columns)``.
    With ``density``, ``tensor`` is a density matrix of ``n // 2`` qubits (row
    bits above column bits), and the check reads its trace instead of a norm.
    ``tensor`` itself is never written; an empty program returns it
    flattened, allocating nothing.

    A batch's buffers hold its axis in front, one contiguous state per
    column, and each gate is a stack of per-column matmuls: for each stack
    item numpy makes the BLAS call a lone statevector makes, with the same
    shape and strides on the same values, so each column comes out
    bit-identical to that column evolved alone, whatever kernel the BLAS
    picks for that shape. One wide matmul over all columns would not promise
    that: OpenBLAS computes 1- and 2-column products with other kernels than
    wide ones, which differ in the last bit. Only a BLAS whose results depend
    on where its operands sit in memory (MKL may, outside its
    reproducibility mode) could still tell the two apart.
    """
    shape = tensor.shape
    batched = len(shape) > n
    if not program:
        return tensor.reshape(2**n, -1) if batched else tensor.reshape(-1)
    stack = shape[n:]  # (columns,) for a batch
    gather = np.empty(stack + shape[:n], dtype=complex)
    result = np.empty(stack + shape[:n], dtype=complex)
    # the trace sums the entries whose row and column axes match: a view, no copy
    diagonal = 2 * "".join(map(chr, range(97, 97 + n // 2))) + "->" if density else ""
    for mat, qubits in program:
        order, inverse = _permutations(qubits, n, len(shape))
        k = mat.shape[0]
        np.copyto(gather, tensor.transpose(order))
        np.matmul(mat, gather.reshape(stack + (k, -1)), out=result.reshape(stack + (k, -1)))
        tensor = result.transpose(inverse)
        # the checks are written so that a NaN norm counts as drift
        if density:
            trace = np.einsum(diagonal, tensor).real
            if not abs(trace - 1.0) <= _NORM_TOL:
                raise ArithmeticError(f"statevector norm drifted to {trace}")
        elif batched:
            # one conjugated dot product per column: no state-sized temporary per gate
            checked = result.reshape(stack + (-1,))
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
    # the state goes into natural order in ``gather``, which no gate reads any more
    if batched:
        np.copyto(gather, np.moveaxis(tensor, -1, 0))
        return gather.reshape(stack[0], 2**n).T
    np.copyto(gather, tensor)
    return gather.reshape(-1)


def _initial_state(n: int, initial: np.ndarray | None) -> np.ndarray:
    """One state, ``(2**n,)``, or a batch of states, ``(2**n, columns)``."""
    state = zero_state(n) if initial is None else np.asarray(initial, dtype=complex)
    if state.ndim not in (1, 2) or state.shape[0] != 2**n or not state.size:
        raise ValueError(
            f"initial state has wrong dimension: shape {state.shape}, "
            f"expected ({2**n},) or ({2**n}, columns) for {n} qubits"
        )
    return state


def compile_program(circuit: Circuit) -> Program:
    """``circuit``'s noiseless program: its gates fused into blocks of at most
    ``_FUSE_QUBITS`` qubits, one (matrix, qubits) pair each, for one state or a
    batch alike."""
    return _program(circuit, fused=True)


def statevector(
    circuit: Circuit, initial: np.ndarray | None = None, program: Program | None = None
) -> np.ndarray:
    """Noiseless evolution through all gates; barriers and measurements skipped.

    ``initial`` may hold a batch of states, one per column, ``(2**n, columns)``;
    they evolve as one ``_evolve`` batch, and the result has the same shape.
    ``program`` is the circuit's ``compile_program``, for a caller that evolves
    it more than once. Every state, alone or in a batch, evolves through that
    one program, so each column is bit-identical to that state evolved alone.
    """
    if program is None:
        program = compile_program(circuit)
    n = circuit.num_qubits
    state = _initial_state(n, initial)
    if not program:
        return state.copy()
    # a batch of one evolves as a plain statevector: a batch axis of one is slower
    columns = state.shape[1:] if state.ndim == 2 and state.shape[1] > 1 else ()
    tensor = state.reshape((2,) * n + columns)
    return _evolve(tensor, program, n).reshape(state.shape)


def batch_columns(num_qubits: int) -> int:
    """How many ``num_qubits``-qubit states one batch holds: at most
    ``_BATCH_AMPLITUDES`` amplitudes, one state at least."""
    return max(1, _BATCH_AMPLITUDES >> num_qubits)


def _density_diagonal(circuit: Circuit, initial: np.ndarray | None, noise: NoiseConfig) -> np.ndarray:
    """The diagonal of ``circuit``'s final density matrix under ``noise``, from the pure
    state ``initial``: its outcome probabilities over basis indices."""
    program = _program(circuit, noise=noise)
    n = circuit.num_qubits
    state = _initial_state(n, initial)
    rho = np.outer(state, state.conj()).reshape((2,) * (2 * n))
    diagonal = _evolve(rho, program, 2 * n, density=True).reshape(2**n, 2**n).diagonal().real
    # rounding can leave an exact zero a hair below it, which a multinomial refuses
    return np.maximum(diagonal, 0.0)


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
    operations at all, every qubit is measured implicitly. A noisy run with
    any nonzero rate evolves the exact density matrix; its shots are one
    multinomial, as a noiseless run's are. A noiseless circuit without gates
    samples ``initial`` as it is. The result keeps each drawn outcome's
    index; its outcome string is built only when read or written.
    """
    if shots < 1:
        raise ValueError("shots must be positive")
    if initial is not None and np.ndim(initial) != 1:
        raise ValueError(f"run samples one state: initial must be 1-D, got shape {np.shape(initial)}")
    measured = circuit.measured_qubits()
    n = circuit.num_qubits
    if noise is not None and noise.active:
        weights = _density_diagonal(circuit, initial, noise)
    else:
        state = statevector(circuit, initial)  # refuses a circuit too wide before numpy is called
        weights = np.abs(state) ** 2
    probs = _marginal(weights, measured, n)
    sampled = derive_rng(seed, "sample").multinomial(shots, probs / probs.sum())
    hits = np.flatnonzero(sampled)
    return Distribution._sampled(dict(zip(hits.tolist(), sampled[hits].tolist())), shots, len(measured))


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
    return _evolve(np.eye(dim, dtype=complex).reshape((2,) * n + (dim,)), compile_program(circuit), n)


# --- key programs --------------------------------------------------------------

def _chain(factors: np.ndarray) -> np.ndarray:
    """The product of each row of ``factors``, ``(rows, F, d, d)`` in the order the
    factors apply, as ``(rows, d, d)``: neighbours are multiplied pairwise, one
    stacked matmul per level, an odd row end carried to the next level."""
    while factors.shape[1] > 1:
        even = factors.shape[1] // 2 * 2
        paired = np.matmul(factors[:, 1:even:2], factors[:, 0:even:2])
        factors = np.concatenate((paired, factors[:, even:]), axis=1) if even < factors.shape[1] else paired
    return factors[:, 0]


class _KeyedBlocks(NamedTuple):
    """Blocks of one width ``m`` that hold key slots, in a ``KeyProgram``.

    Row ``b`` of ``factors`` lists block ``b``'s factors in the order they
    apply, as rows of ``table``: row 0 is the identity (an absent option, and
    the padding of shorter rows), the others its composed runs and its lone
    gates, embedded. Slot ``s`` fills the flat place ``slots[s]`` of
    ``factors``: it reads the candidate's bits at ``bits[s]`` as a number
    ``v`` and puts row ``picks[s, v]`` of ``table`` there.
    """

    places: list[int]  # each block's place in the program
    orders: list[tuple[int, ...]]  # each block's qubits, the highest first
    table: np.ndarray  # (rows, 2**m, 2**m), shared by every _KeyedBlocks of width m
    factors: np.ndarray  # (blocks, F) rows of ``table``
    slots: np.ndarray  # (slots,) flat places in ``factors``
    bits: np.ndarray  # (slots, span) places in the candidate's bits, right-aligned, padded with a zero bit
    picks: np.ndarray  # (slots, 2**span) a row of ``table`` per option value


class KeyProgram(NamedTuple):
    """The noiseless programs of every candidate key of a ``KeyTemplate``
    (``compile_key_program``): ``program(bits)`` is the fused program of
    ``template.restored(bits)``, block for block the template's."""

    fixed: Program  # the template's program; the places of blocks with slots hold None
    keyed: list[_KeyedBlocks]  # the blocks with slots, at most ``_COMPOSE_WINDOW`` factors each
    key_bits: int
    weights: np.ndarray  # each bit's weight in a slot's option value

    def program(self, bits: str) -> Program:
        """The fused program of candidate ``bits``: one gather and a few stacked
        matmuls per ``_KeyedBlocks`` multiply out its blocks with slots."""
        if len(bits) != self.key_bits or set(bits) - {"0", "1"}:
            raise ValueError(f"candidate must be {self.key_bits} bits of 0/1, got {bits!r}")
        digits = np.frombuffer(bits.encode() + b"0", dtype=np.uint8) - ord("0")
        program = list(self.fixed)
        for group in self.keyed:
            factors = group.factors.copy()
            picked = digits[group.bits] @ self.weights  # each slot's option value
            factors.flat[group.slots] = group.picks[np.arange(len(picked)), picked]
            for place, order, matrix in zip(group.places, group.orders, _chain(group.table[factors])):
                program[place] = (matrix, order)
        return program


def compile_key_program(template: KeyTemplate) -> KeyProgram:
    """``template``'s ``KeyProgram``, built once for any number of candidates."""
    circuit = template.circuit
    _refuse_too_wide(circuit.num_qubits)
    slot_at = {slot.index: slot for slot in template.slots}  # place in ``circuit.ops`` -> slot
    span = max((slot.span for slot in template.slots), default=1)
    fixed = _fuse(
        (slot_at[i] if i in slot_at else gate_matrix(op), op.qubits)
        for i, op in enumerate(circuit.ops) if isinstance(op, Gate)
    )
    keyed: dict[int, list[tuple[int, _Block]]] = {}  # width -> each block with slots, and its place
    for place, block in enumerate(fixed):
        if isinstance(block, _Block):
            keyed.setdefault(len(block.qubits), []).append((place, block))
            fixed[place] = None
    groups = [group for m, entries in keyed.items() for group in _keyed_blocks(m, entries, span, template.key_bits)]
    return KeyProgram(fixed, groups, template.key_bits, 2 ** np.arange(span - 1, -1, -1))


def _keyed_blocks(m: int, entries: list[tuple[int, _Block]], span: int, key_bits: int) -> list[_KeyedBlocks]:
    """``entries``, the blocks of width ``m`` with slots, each with its place, as
    ``_KeyedBlocks`` over one table. They are taken longest first, as many at a
    time as ``_COMPOSE_WINDOW`` factor matrices hold, so a candidate's gather
    never holds more."""
    sources: list = []  # each row of the table after the identity: a run's _Block, or one gate to embed
    rows: dict[tuple, int] = {}  # (matrix bytes, wires) -> its row of the table
    options: dict[tuple, int] = {}  # an option's (kind, params, wires) -> its row of the table

    def embed(gate: tuple[np.ndarray, tuple[int, ...]], local: dict[int, int]) -> int:
        key = (gate[0].tobytes(), tuple(map(local.__getitem__, gate[1])))
        if key not in rows:
            sources.append((gate, local))
            rows[key] = len(sources)
        return rows[key]

    def option(gate: Gate, local: dict[int, int]) -> int:
        key = (gate.kind, gate.params, tuple(map(local.__getitem__, gate.qubits)))
        if key not in options:
            options[key] = embed((gate_matrix(gate), gate.qubits), local)
        return options[key]

    blocks = []  # each block's place, qubits, row of the table per factor, and slots
    for place, block in entries:
        order, local = _wires(block.qubits)
        row, slots = [], []  # each slot: its column in ``row``, its bits and its options' rows
        for fixed, run in groupby(block.gates, lambda gate: isinstance(gate[0], np.ndarray)):
            run = list(run)  # fixed gates, or slots standing in their gates' places
            if fixed and len(run) > 1:
                sources.append(_Block(block.qubits, run))
                row.append(len(sources))
            elif fixed:
                row.append(embed(run[0], local))
            else:
                for slot, _ in run:
                    bits = [key_bits] * (span - slot.span) + list(range(slot.offset, slot.offset + slot.span))
                    picks = slot.options + (None,) * (2**span - len(slot.options))
                    slots.append((len(row), bits, [0 if gate is None else option(gate, local) for gate in picks]))
                    row.append(0)
        blocks.append((place, order, row, slots))
    table = np.empty((1 + len(sources), 2**m, 2**m), dtype=complex)
    table[0] = np.eye(2**m)
    runs = [i for i, source in enumerate(sources) if isinstance(source, _Block)]
    if runs:
        table[1 + np.array(runs)] = [matrix for matrix, _ in _compose([sources[i] for i in runs])]
    alone = [i for i, source in enumerate(sources) if not isinstance(source, _Block)]
    if alone:
        table[1 + np.array(alone)] = _embed([sources[i] for i in alone], m)
    blocks.sort(key=lambda block: -len(block[2]))
    out, first = [], 0
    while first < len(blocks):
        width = len(blocks[first][2])
        chunk = blocks[first : first + max(1, _COMPOSE_WINDOW // width)]
        first += len(chunk)
        factors = np.zeros((len(chunk), width), dtype=np.intp)
        slots = []
        for b, (_, _, row, block_slots) in enumerate(chunk):
            factors[b, : len(row)] = row
            slots += [(b * width + column, bits, picks) for column, bits, picks in block_slots]
        places, orders, _, _ = zip(*chunk)
        indices = (np.array(column, dtype=np.intp) for column in zip(*slots))  # slots, bits, picks
        out.append(_KeyedBlocks(list(places), list(orders), table, factors, *indices))
    return out
