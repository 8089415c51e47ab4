"""Circuit intermediate representation shared by all passes.

Gates over integer qubit indices, barriers, and terminal measurements; greedy
layering into phase / non-phase layers; depth and gate-count metrics; and
forward light-cone analysis used to rank obfuscation sites.

Conventions fixed here and relied on everywhere else:

- the gate alphabet is closed: single-qubit {x, y, z, h, s, t, sdg, tdg, rz,
  p, u3}, two-qubit {cx, cy, cz, ch}, three-qubit {ccx};
- the phase family is exactly {rz, p, s, t, sdg, tdg}; ``z`` counts as
  non-phase even though it is diagonal;
- barriers and measurements contribute zero depth and zero gate count;
  barriers synchronize the qubits they span;
- measurements are terminal: no gate may follow a measurement on the same
  qubit.
"""

from __future__ import annotations

import math
from collections.abc import Collection
from dataclasses import dataclass

# kind -> (number of qubits, number of parameters)
GATE_SPECS: dict[str, tuple[int, int]] = {
    "x": (1, 0),
    "y": (1, 0),
    "z": (1, 0),
    "h": (1, 0),
    "s": (1, 0),
    "t": (1, 0),
    "sdg": (1, 0),
    "tdg": (1, 0),
    "rz": (1, 1),
    "p": (1, 1),
    "u3": (1, 3),
    "cx": (2, 0),
    "cy": (2, 0),
    "cz": (2, 0),
    "ch": (2, 0),
    "ccx": (3, 0),
}

PHASE_KINDS = frozenset({"rz", "p", "s", "t", "sdg", "tdg"})

# fixed-angle phase gates, expressed on the same angle scale as p/rz
IMPLICIT_PHASE_ANGLE = {
    "s": math.pi / 2,
    "t": math.pi / 4,
    "sdg": -math.pi / 2,
    "tdg": -math.pi / 4,
}


def phase_angle_of(gate: "Gate") -> float:
    """Rotation angle of a phase gate (explicit parameter or implied by kind)."""
    if gate.kind in ("rz", "p"):
        return gate.params[0]
    return IMPLICIT_PHASE_ANGLE[gate.kind]


@dataclass(frozen=True)
class Gate:
    kind: str
    params: tuple[float, ...]
    qubits: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in GATE_SPECS:
            raise ValueError(f"unsupported gate kind {self.kind!r}")
        nq, np_ = GATE_SPECS[self.kind]
        if len(self.qubits) != nq:
            raise ValueError(f"{self.kind} expects {nq} qubit(s), got {len(self.qubits)}")
        if len(self.params) != np_:
            raise ValueError(f"{self.kind} expects {np_} parameter(s), got {len(self.params)}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"{self.kind} operands must be distinct: {self.qubits}")

    @property
    def is_phase(self) -> bool:
        return self.kind in PHASE_KINDS


@dataclass(frozen=True)
class Barrier:
    qubits: tuple[int, ...]


@dataclass(frozen=True)
class Measure:
    qubit: int
    clbit: int


Op = Gate | Barrier | Measure


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    num_clbits: int
    ops: tuple[Op, ...]
    qubit_labels: tuple[str, ...] = ()
    clbit_labels: tuple[str, ...] = ()

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        if self.num_clbits < 0:
            raise ValueError("negative classical bit count")
        if not self.qubit_labels:
            object.__setattr__(
                self, "qubit_labels", tuple(f"q[{i}]" for i in range(self.num_qubits))
            )
        if not self.clbit_labels:
            object.__setattr__(
                self, "clbit_labels", tuple(f"c[{i}]" for i in range(self.num_clbits))
            )
        if len(self.qubit_labels) != self.num_qubits:
            raise ValueError("qubit label count does not match qubit count")
        if len(self.clbit_labels) != self.num_clbits:
            raise ValueError("classical label count does not match bit count")
        n = self.num_qubits
        in_range: set[tuple[int, ...]] = set()  # qubit tuples already checked
        measured: set[int] = set()
        for op in self.ops:
            if isinstance(op, (Gate, Barrier)):
                is_gate = isinstance(op, Gate)
                if op.qubits in in_range and not (is_gate and measured):
                    continue
                # range, then measurement, qubit by qubit: the first error wins
                for q in op.qubits:
                    if not 0 <= q < n:
                        self._check_qubit(q)
                    if is_gate and q in measured:
                        raise ValueError(f"gate {op.kind} on qubit {q} after measurement")
                in_range.add(op.qubits)
            elif isinstance(op, Measure):
                self._check_qubit(op.qubit)
                if not 0 <= op.clbit < self.num_clbits:
                    raise ValueError(f"classical bit {op.clbit} out of range")
                measured.add(op.qubit)
            else:
                raise TypeError(f"unknown op {op!r}")

    def _check_qubit(self, q: int) -> None:
        if not 0 <= q < self.num_qubits:
            raise ValueError(f"qubit index {q} out of range for {self.num_qubits} qubits")

    def gates(self) -> tuple[Gate, ...]:
        return tuple(op for op in self.ops if isinstance(op, Gate))

    def measured_qubits(self) -> tuple[int, ...]:
        """Qubits with a measurement, ascending; all qubits if none measured."""
        qs = sorted({op.qubit for op in self.ops if isinstance(op, Measure)})
        if not qs:
            return tuple(range(self.num_qubits))
        return tuple(qs)


@dataclass(frozen=True)
class Layer:
    kind: str  # "phase" | "nonphase"
    gates: tuple[Gate, ...]

    def __post_init__(self):
        if self.kind not in ("phase", "nonphase"):
            raise ValueError(f"bad layer kind {self.kind!r}")
        seen: set[int] = set()
        for g in self.gates:
            if (g.kind in PHASE_KINDS) != (self.kind == "phase"):
                raise ValueError(f"{g.kind} gate in {self.kind} layer")
            for q in g.qubits:
                if q in seen:
                    raise ValueError(f"layer gates overlap on qubit {q}")
                seen.add(q)

    def touched(self) -> frozenset[int]:
        return frozenset(q for g in self.gates for q in g.qubits)


@dataclass(frozen=True)
class LayeredCircuit:
    num_qubits: int
    num_clbits: int
    layers: tuple[Layer, ...]
    measurements: tuple[Measure, ...]
    qubit_labels: tuple[str, ...]
    clbit_labels: tuple[str, ...]


def layerize(circuit: Circuit) -> LayeredCircuit:
    """Greedy left-to-right packing into kind-homogeneous layers.

    Each gate joins the latest layer of matching kind it can reach without
    crossing a barrier or any layer touching one of its qubits; commutation is
    never assumed, so per-qubit gate order is preserved exactly.
    """
    layers: list[tuple[str, list[Gate]]] = []
    frontier = [-1] * circuit.num_qubits  # last layer index touching each qubit
    barrier_floor = -1
    measurements: list[Measure] = []
    for op in circuit.ops:
        if isinstance(op, Measure):
            measurements.append(op)
            continue
        if isinstance(op, Barrier):
            barrier_floor = len(layers) - 1
            continue
        kind = "phase" if op.is_phase else "nonphase"
        floor = max([barrier_floor] + [frontier[q] for q in op.qubits])
        target = None
        for j in range(len(layers) - 1, floor, -1):
            if layers[j][0] == kind:
                target = j
                break
        if target is None:
            layers.append((kind, []))
            target = len(layers) - 1
        layers[target][1].append(op)
        for q in op.qubits:
            frontier[q] = target
    return LayeredCircuit(
        num_qubits=circuit.num_qubits,
        num_clbits=circuit.num_clbits,
        layers=tuple(Layer(kind, tuple(gates)) for kind, gates in layers),
        measurements=tuple(measurements),
        qubit_labels=circuit.qubit_labels,
        clbit_labels=circuit.clbit_labels,
    )


def flatten(layered: LayeredCircuit) -> Circuit:
    """Rebuild a circuit from layers, materializing boundaries as barriers."""
    ops: list[Op] = []
    all_qubits = tuple(range(layered.num_qubits))
    for i, layer in enumerate(layered.layers):
        if i > 0:
            ops.append(Barrier(all_qubits))
        ops.extend(layer.gates)
    if layered.measurements:
        if layered.layers:
            ops.append(Barrier(all_qubits))
        ops.extend(layered.measurements)
    return Circuit(
        num_qubits=layered.num_qubits,
        num_clbits=layered.num_clbits,
        ops=tuple(ops),
        qubit_labels=layered.qubit_labels,
        clbit_labels=layered.clbit_labels,
    )


def metrics(circuit: Circuit) -> tuple[int, int]:
    """(depth, gate_count).

    Depth is the longest qubit-wise dependency chain over gates alone;
    barriers synchronize the qubits they span at zero cost and measurements
    count nothing.
    """
    depth = [0] * circuit.num_qubits
    count = 0
    for op in circuit.ops:
        if isinstance(op, Gate):
            d = max(depth[q] for q in op.qubits) + 1
            for q in op.qubits:
                depth[q] = d
            count += 1
        elif isinstance(op, Barrier) and op.qubits:
            d = max(depth[q] for q in op.qubits)
            for q in op.qubits:
                depth[q] = d
    return (max(depth) if depth else 0, count)


def light_cone_rank(layered: LayeredCircuit, outputs: Collection[int]) -> tuple[tuple[int, ...], ...]:
    """Forward light-cone scores: ``rank[b][q]`` counts the ``outputs``
    reachable from wire ``q`` at the boundary before layer ``b`` (``b`` may
    equal the layer count). Scores never increase along a wire.

    One score serves every site at its own boundary: sweeping backward, each
    gate of layer ``b`` sets all its qubits' reach to the union of their reach
    at ``b + 1``, so the gate scores ``rank[b][q]`` for any of its qubits, and
    a qubit the layer leaves free keeps its reach on both sides of it.
    """
    reach = [1 << q if q in outputs else 0 for q in range(layered.num_qubits)]  # output bitmasks
    rank = [tuple(r.bit_count() for r in reach)]
    for layer in reversed(layered.layers):
        for g in layer.gates:
            union = 0
            for q in g.qubits:
                union |= reach[q]
            for q in g.qubits:
                reach[q] = union
        rank.append(tuple(r.bit_count() for r in reach))
    rank.reverse()
    return tuple(rank)
