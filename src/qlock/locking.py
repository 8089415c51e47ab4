"""Key-based circuit locking: logic sites on an ancilla qubit, phase sites on
randomized rotation angles.

Logic locking adds one ancilla qubit ``qk`` (emitted as its own register so it
stays identifiable in files). Every logic site becomes a key section on the
ancilla: a Hadamard followed by exactly one gate controlled by ``qk`` — the
controlled form of an existing gate (key bit 1) or an inserted dummy (key bit
0). Sections are serialized in layer-major, qubit-minor site order, one per
key bit.

Phase locking rewrites each selected phase gate as ``rz`` with a fresh uniform
angle, recording the true angle as kappa = angle / (pi/4) in three key bits;
empty phase slots gain a dummy ``rz`` with kappa 0. Dummy phase gates occupy
their own phase blocks at the boundary before a layer, so circuits without any
phase gates still accept phase keys.

Where a site may go is stated once. A logic site is a gate with a controlled
form, or a qubit that a non-phase layer leaves free; a phase site is a phase
gate whose angle lies on the pi/4 grid, or any qubit at the boundary before a
layer.
``select_sites`` and ``dense_plan`` choose among those candidates through one
picker, and ``obfuscate`` refuses a plan with a site outside them.

The locked circuit materializes layer boundaries as barriers. Key-schedule
coordinates address the locked circuit: ``layer`` is the barrier-delimited
block index and ``qubit`` pins the gate inside it, which survives a round
trip through QASM text. The key lists the logic entries, then the phase
entries, each in the order its blocks are written.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

from .circuit import (
    Barrier,
    Circuit,
    Gate,
    LayeredCircuit,
    layerize,
    light_cone_rank,
    metrics,
    phase_angle_of,
)
from .rng import derive_rng

ANCILLA_REGISTER = "qk"

# gates with a controlled form inside the closed alphabet; anything whose
# controlled form would leave it (ccx, ch, cy, cz, u3) is not logic-lockable
CONTROLLED_FORM = {"x": "cx", "y": "cy", "z": "cz", "h": "ch", "cx": "ccx"}
UNCONTROLLED_FORM = {v: k for k, v in CONTROLLED_FORM.items()}

DUMMY_KINDS = ("cx", "cy", "cz", "ch")

KAPPA_STEP = math.pi / 4
_KAPPA_TOL = 1e-9
_ANGLE_GUARD = 1e-6  # randomized angles keep this distance from the kappa grid


class PlanError(ValueError):
    """A requested plan cannot be realized against the circuit."""


class Site(NamedTuple):
    """One obfuscation location in the layered circuit.

    ``gate`` is the existing gate at the site, or None for an empty slot. For
    phase slots, ``layer`` names the boundary the dummy block is inserted at:
    boundary ``i`` sits just before layer ``i``, and none follows the last.
    """

    layer: int
    qubit: int
    gate: Gate | None = None


@dataclass(frozen=True)
class ObfuscationPlan:
    logic_sites: tuple[Site, ...]
    phase_sites: tuple[Site, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "logic_sites", tuple(sorted(self.logic_sites, key=lambda s: (s.layer, s.qubit)))
        )
        object.__setattr__(
            self,
            "phase_sites",
            tuple(sorted(self.phase_sites, key=lambda s: (s.layer, s.gate is not None, s.qubit))),
        )


@dataclass(frozen=True)
class KeyEntry:
    kind: str  # "logic" | "phase"
    layer: int  # barrier-delimited block index in the locked circuit
    qubit: int
    span: int

    def __post_init__(self):
        if self.kind not in ("logic", "phase"):
            raise ValueError(f"bad key entry kind {self.kind!r}")
        if self.span != (1 if self.kind == "logic" else 3):
            raise ValueError(f"{self.kind} entry must span {1 if self.kind == 'logic' else 3} bits")


@dataclass(frozen=True)
class Key:
    bits: str
    schedule: tuple[KeyEntry, ...]

    def __post_init__(self):
        if set(self.bits) - {"0", "1"}:
            raise ValueError("key bits must be a 0/1 string")
        if sum(e.span for e in self.schedule) != len(self.bits):
            raise ValueError("key bit length does not match schedule spans")

    def logic_bits(self) -> tuple[int, ...]:
        out, pos = [], 0
        for entry in self.schedule:
            if entry.kind == "logic":
                out.append(int(self.bits[pos]))
            pos += entry.span
        return tuple(out)

    def phase_assignments(self) -> tuple[tuple[KeyEntry, int], ...]:
        """(entry, kappa decoded from this key's bits, most-significant first)."""
        out, pos = [], 0
        for entry in self.schedule:
            if entry.kind == "phase":
                out.append((entry, int(self.bits[pos : pos + 3], 2)))
            pos += entry.span
        return tuple(out)

    def with_bits(self, bits: str) -> "Key":
        return Key(bits=bits, schedule=self.schedule)


@dataclass(frozen=True)
class ObfuscationRecord:
    locked_circuit: Circuit
    key: Key
    original_metrics: tuple[int, int]
    locked_metrics: tuple[int, int]


def normalize_phase_angle(angle: float) -> int | None:
    """Reduce to [0, 2pi) and snap to the pi/4 grid; None when off-grid."""
    reduced = math.fmod(angle, 2.0 * math.pi)
    if reduced < 0.0:
        reduced += 2.0 * math.pi
    kappa = round(reduced / KAPPA_STEP)
    if abs(reduced - kappa * KAPPA_STEP) > _KAPPA_TOL:
        return None
    return kappa % 8


def _gate_sites(layered: LayeredCircuit, phase: bool) -> list[Site]:
    """The existing gates a plan may lock, layer by layer: phase gates whose
    angle lies on the kappa grid, or gates with a controlled form. A gate site
    sits on its gate's lowest qubit."""
    sites = []
    for i, layer in enumerate(layered.layers):
        for g in layer.gates:
            if phase:
                lockable = g.is_phase and normalize_phase_angle(phase_angle_of(g)) is not None
            else:
                lockable = g.kind in CONTROLLED_FORM
            if lockable:
                sites.append(Site(i, min(g.qubits), g))
    return sites


def _free_qubits(layered: LayeredCircuit, index: int, phase: bool) -> Sequence[int]:
    """The qubits an empty slot may take: every qubit of phase boundary
    ``index``, the one just before layer ``index``, or the qubits non-phase
    layer ``index`` leaves untouched. Nothing for any other index. No phase
    boundary follows the last layer: a dummy rotation there would be diagonal
    right before measurement, and no key value could change an outcome."""
    layers = layered.layers
    if phase:
        return range(layered.num_qubits) if 0 <= index < len(layers) else ()
    if not 0 <= index < len(layers) or layers[index].kind != "nonphase":
        return ()
    touched = layers[index].touched()
    return [q for q in range(layered.num_qubits) if q not in touched]


def _pool(layered: LayeredCircuit, phase: bool) -> list[Site]:
    """Every site of one kind: the lockable gates, then the slots by layer
    (logic) or boundary (phase)."""
    layers = range(len(layered.layers))
    slots = [Site(i, q) for i in layers for q in _free_qubits(layered, i, phase)]
    return _gate_sites(layered, phase) + slots


def _layers_and_rank(circuit: Circuit, strategy: str):
    """The layered circuit, and its light-cone table under ``lightcone``."""
    if strategy not in ("random", "lightcone"):
        raise ValueError(f"unknown strategy {strategy!r}")
    layered = layerize(circuit)
    rank = light_cone_rank(layered, circuit.measured_qubits()) if strategy == "lightcone" else None
    return layered, rank


def _pick(candidates: list[Site], count: int, strategy: str, rng, rank, phase: bool) -> list[Site]:
    """``count`` of ``candidates``: a seeded uniform sample kept in candidate
    order (``random``), or the highest light-cone scores at each site's own
    boundary (``lightcone``; ties go to the earlier layer, then the lower
    qubit)."""
    label = "phase" if phase else "logic"
    if count < 0:
        raise PlanError(f"{label} site count must not be negative, got {count}")
    if count > len(candidates):
        raise PlanError(
            f"requested {count} {label} sites but only {len(candidates)} are available"
        )
    if count == 0:
        return []
    if strategy == "random":
        idx = rng.choice(len(candidates), size=count, replace=False)
        return [candidates[i] for i in sorted(idx)]
    return sorted(candidates, key=lambda s: (-rank[s.layer][s.qubit], s.layer, s.qubit))[:count]


def select_sites(
    circuit: Circuit,
    n_logic: int,
    n_phase: int,
    strategy: str = "lightcone",
    seed: int = 0,
) -> ObfuscationPlan:
    """Choose ``n_logic`` logic and ``n_phase`` phase sites from every
    eligible site: ``random`` samples uniformly without replacement,
    ``lightcone`` takes the top-scoring ones.
    """
    layered, rank = _layers_and_rank(circuit, strategy)
    rng = derive_rng(seed, "select")
    logic = _pick(_pool(layered, False), n_logic, strategy, rng, rank, False)
    phase = _pick(_pool(layered, True), n_phase, strategy, rng, rank, True)
    return ObfuscationPlan(tuple(logic), tuple(phase))


def dense_plan(
    circuit: Circuit,
    strategy: str = "lightcone",
    seed: int = 0,
    logic_cap: int | None = None,
    phase_cap: int | None = None,
) -> ObfuscationPlan:
    """Default plan: every lockable gate plus one empty slot per layer.

    Each non-phase layer with a free qubit gives one logic slot, and each
    layer gives one phase slot at the boundary just before it. The one site
    picker chooses each slot's qubit among that layer's candidates, then cuts
    each whole list to its cap by ranking (lightcone) or a seeded subsample
    (random).
    """
    layered, rank = _layers_and_rank(circuit, strategy)
    rng = derive_rng(seed, "dense")
    logic = _gate_sites(layered, False)
    phase = _gate_sites(layered, True)
    for i in range(len(layered.layers)):
        slots = [Site(i, q) for q in _free_qubits(layered, i, False)]
        if slots:
            logic += _pick(slots, 1, strategy, rng, rank, False)
        slots = [Site(i, q) for q in _free_qubits(layered, i, True)]
        phase += _pick(slots, 1, strategy, rng, rank, True)

    def cap(sites: list[Site], limit: int | None, phase_kind: bool) -> list[Site]:
        # a cap that keeps every site must not reach _pick: a random pick of
        # all sites still draws from rng and would shift the picks after it
        if limit is None or limit >= len(sites):
            return sites
        return _pick(sites, limit, strategy, rng, rank, phase_kind)

    return ObfuscationPlan(tuple(cap(logic, logic_cap, False)), tuple(cap(phase, phase_cap, True)))


def _validate_plan(layered: LayeredCircuit, plan: ObfuscationPlan) -> None:
    """Every site must be one the candidate helpers list, and none may repeat."""
    for phase, sites in ((False, plan.logic_sites), (True, plan.phase_sites)):
        gates = set(_gate_sites(layered, phase))
        for site in sites:
            if site.gate is not None:
                eligible = site in gates
            else:
                eligible = site.qubit in _free_qubits(layered, site.layer, phase)
            if not eligible:
                kind = "phase" if phase else "logic"
                raise PlanError(f"{kind} site {site} is not eligible in this circuit")
        if len(set(sites)) != len(sites):
            raise PlanError("plan sites are not disjoint")


def _random_angle(rng) -> float:
    """Uniform angle in [0, 2pi), kept clear of the kappa grid."""
    while True:
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
        steps = angle / KAPPA_STEP
        if abs(steps - round(steps)) * KAPPA_STEP > _ANGLE_GUARD:
            return angle


def _controlled_gate(gate: Gate, ancilla: int) -> Gate:
    return Gate(CONTROLLED_FORM[gate.kind], gate.params, (ancilla,) + gate.qubits)


def obfuscate(
    circuit: Circuit,
    plan: ObfuscationPlan,
    seed: int = 0,
    dummy_gates: str = "cx",
) -> ObfuscationRecord:
    """Apply a plan: ancilla key sections for logic sites, randomized ``rz``
    angles for phase sites, barriers at every block boundary.

    ``dummy_gates`` picks the inserted dummy's kind: the default ``"cx"``
    makes dummies indistinguishable from converted x gates; ``"random"`` draws
    among the controlled single-qubit non-phase forms.
    """
    layered = layerize(circuit)
    _validate_plan(layered, plan)
    if dummy_gates not in ("cx", "random"):
        raise ValueError(f"dummy_gates must be 'cx' or 'random', got {dummy_gates!r}")
    rng = derive_rng(seed, "obfuscate")
    n = circuit.num_qubits
    ancilla = n if plan.logic_sites else None
    all_qubits = tuple(range(n if ancilla is None else n + 1))

    logic_by_layer: dict[int, list[Site]] = {}
    for site in plan.logic_sites:
        logic_by_layer.setdefault(site.layer, []).append(site)
    phase_slots_by_boundary: dict[int, list[Site]] = {}
    # keyed per layer: an equal gate can recur, unkeyed, in another layer
    keyed_by_layer: dict[int, set[Gate]] = {}
    for site in plan.phase_sites:
        if site.gate is None:
            phase_slots_by_boundary.setdefault(site.layer, []).append(site)
        else:
            keyed_by_layer.setdefault(site.layer, set()).add(site.gate)

    # one op list per barrier-delimited block, so a block's index is its position
    blocks: list[list] = []
    entries: list[tuple[KeyEntry, str]] = []
    for b, layer in enumerate(layered.layers):
        slots = phase_slots_by_boundary.get(b)
        if slots:
            here = len(blocks)
            blocks.append([Gate("rz", (_random_angle(rng),), (s.qubit,)) for s in slots])
            entries += [(KeyEntry("phase", here, s.qubit, 3), "000") for s in slots]
        here = len(blocks)
        block: list = []
        section_sites = logic_by_layer.get(b, ())
        section_gates = {s.gate for s in section_sites if s.gate is not None}
        keyed_phase = keyed_by_layer.get(b, ())
        converted: list[tuple[int, int]] = []  # (qubit, kappa), key bits go qubit-minor
        for g in layer.gates:
            if g in section_gates:
                continue  # re-emitted inside its key section below
            if g in keyed_phase:
                kappa = normalize_phase_angle(phase_angle_of(g))
                assert kappa is not None
                block.append(Gate("rz", (_random_angle(rng),), g.qubits))
                converted.append((g.qubits[0], kappa))
            else:
                block.append(g)
        for qubit, kappa in sorted(converted):
            entries.append((KeyEntry("phase", here, qubit, 3), format(kappa, "03b")))
        for site in section_sites:
            block.append(Gate("h", (), (ancilla,)))
            if site.gate is not None:
                block.append(_controlled_gate(site.gate, ancilla))
            else:
                kind = (
                    "cx" if dummy_gates == "cx" else DUMMY_KINDS[int(rng.integers(len(DUMMY_KINDS)))]
                )
                block.append(Gate(kind, (), (ancilla, site.qubit)))
            entries.append((KeyEntry("logic", here, site.qubit, 1), "1" if site.gate else "0"))
        blocks.append(block)
    if layered.measurements:
        blocks.append(list(layered.measurements))

    ops: list = []
    for block in blocks:
        ops += [Barrier(all_qubits), *block] if ops else block
    labels = circuit.qubit_labels + (() if ancilla is None else (f"{ANCILLA_REGISTER}[0]",))
    locked = Circuit(
        num_qubits=len(all_qubits),
        num_clbits=circuit.num_clbits,
        ops=tuple(ops),
        qubit_labels=labels,
        clbit_labels=circuit.clbit_labels,
    )
    # logic entries first, then phase entries; a stable sort keeps block order in each
    entries.sort(key=lambda pair: pair[0].kind != "logic")
    key = Key(bits="".join(bits for _, bits in entries), schedule=tuple(e for e, _ in entries))
    return ObfuscationRecord(
        locked_circuit=locked,
        key=key,
        original_metrics=metrics(circuit),
        locked_metrics=metrics(locked),
    )


# --- key files -----------------------------------------------------------------

def export_key(key: Key) -> str:
    """``json.dumps(..., indent=2)`` of the key, with its layout written out.

    ``indent`` sends ``json.dumps`` through the pure-Python encoder, about
    ten times slower here; the bytes are the same (kinds need no escaping).
    """
    entries = ",\n".join(
        f'    {{\n      "kind": "{e.kind}",\n      "layer": {e.layer},\n'
        f'      "qubit": {e.qubit},\n      "span": {e.span}\n    }}'
        for e in key.schedule
    )
    schedule = f"[\n{entries}\n  ]" if entries else "[]"
    return f'{{\n  "bits": {json.dumps(key.bits)},\n  "schedule": {schedule}\n}}\n'


def import_key(text: str) -> Key:
    try:
        data = json.loads(text)
        bits = data["bits"]
        raw = data["schedule"]
    except (json.JSONDecodeError, RecursionError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed key file: {exc}") from exc
    if not isinstance(bits, str):
        raise ValueError("malformed key file: bits must be a string")
    if not isinstance(raw, list):
        raise ValueError("malformed key file: schedule must be a list")
    entries: list[KeyEntry] = []
    for item in raw:
        try:
            kind, layer, qubit, span = item["kind"], item["layer"], item["qubit"], item["span"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed key schedule entry: {item!r}") from exc
        # bool is an int subclass, but ``true`` is not an index
        if not (type(layer) is int and type(qubit) is int and type(span) is int
                and layer >= 0 and qubit >= 0 and span >= 0):
            raise ValueError(f"malformed key schedule entry: {item!r}")
        entries.append(KeyEntry(kind, layer, qubit, span))
    return Key(bits=bits, schedule=tuple(entries))
