"""Key application and cleanup for locked circuits.

A locked circuit may come back from an untrusted compiler, so ``_read``
checks every rule of a lock in one pass before a key touches it (the
phase-site rule is ``_phase_places``'s) and raises the first rule broken.

A candidate key (correct or not) is applied in three steps: the ancilla's
Hadamards are removed and Pauli-X toggles inserted so the ancilla carries each
logic bit through its key section; locked rotation angles are reset to
kappa * pi/4 as decoded from the phase bits; and an optional simplification
resolves gates controlled by the now-classical ancilla (|1> -> uncontrolled
form, |0> -> deleted), removes the ancilla, and drops zero-angle phase gates.

Wrong keys follow the same path and always yield a well-formed circuit; the
ancilla stays classical no matter which bits are supplied.

Since only the key-bearing gates depend on the bits, ``key_template`` lists
what any candidate restores, built from the reading: fixed gates, and one
slot per key entry (a logic entry's uncontrolled gate, present iff its bit is
1, or a phase entry's ``rz(kappa * pi/4)``, absent for kappa 0). ``unlock``
restores through it, as the wrong-key sweep does for each candidate.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, replace
from typing import NamedTuple

from .circuit import PHASE_KINDS, Barrier, Circuit, Gate, Measure, phase_angle_of
from .locking import (
    ANCILLA_REGISTER,
    KAPPA_STEP,
    Key,
    KeyEntry,
    UNCONTROLLED_FORM,
    normalize_phase_angle,
)


_ANCILLA_MEASURED = "key ancilla must not be measured"
_PHASE_RULE = "a compiler must keep each phase-site rz as one gate"


@dataclass(frozen=True)
class UnlockResult:
    restored_circuit: Circuit


def find_ancilla(circuit: Circuit) -> int | None:
    """Locate the key ancilla by its register label; it must be the last
    qubit, where ``obfuscate`` puts it."""
    for q, label in enumerate(circuit.qubit_labels):
        if label.startswith(f"{ANCILLA_REGISTER}["):
            if q != circuit.num_qubits - 1:
                raise ValueError(f"key ancilla is qubit {q}, not the last qubit")
            return q
    return None


def measured_data_qubits(circuit: Circuit) -> tuple[int, ...]:
    """The qubits but the key ancilla that ``circuit``'s outcomes read, ascending
    (all of them when none is measured); a measured ancilla is refused."""
    ancilla = find_ancilla(circuit)
    if any(isinstance(op, Measure) and op.qubit == ancilla for op in circuit.ops):
        raise ValueError(_ANCILLA_MEASURED)
    return tuple(q for q in circuit.measured_qubits() if q != ancilla)


def _on_ancilla(op, ancilla: int | None) -> bool:
    """Whether ``op`` is a gate touching the key ancilla: a 1-qubit gate on it
    or a section gate it controls (the ancilla as a target is refused)."""
    if not isinstance(op, Gate) or ancilla is None or ancilla not in op.qubits:
        return False
    if op.qubits[0] != ancilla:
        raise ValueError("key ancilla must be the control of its section gate")
    return True


def _phase_places(circuit: Circuit, sites: Iterable[tuple[int, int]]) -> dict[tuple[int, int], int]:
    """The place in ``circuit.ops`` of the one ``rz`` gate at each phase key
    site, in the order ``sites`` lists them; a site is a (block, qubit) pair
    whose blocks are counted by barriers. A site listed twice, or holding no
    ``rz`` or more than one, is refused."""
    places: dict[tuple[int, int], int | None] = {}
    for site in sites:
        if site in places:
            raise ValueError(f"phase key site {site} is listed twice")
        places[site] = None
    block = 0
    for i, op in enumerate(circuit.ops):
        if isinstance(op, Barrier):
            block += 1
        elif isinstance(op, Gate) and op.kind == "rz" and (site := (block, op.qubits[0])) in places:
            if places[site] is not None:
                raise ValueError(f"phase key site {site} holds more than one rz gate: {_PHASE_RULE}")
            places[site] = i
    for site, place in places.items():
        if place is None:
            raise ValueError(f"phase key site {site} not found (no rz gate there): {_PHASE_RULE}")
    return places


def _read(locked: Circuit, key: Key) -> tuple[int | None, dict[int, int | None]]:
    """Read ``locked`` as a lock under ``key``'s schedule, raising the first
    rule of a lock that it breaks.

    Returns the key ancilla and, for each keyed op's place in ``locked.ops``,
    its key entry's first bit in ``key.bits``: a logic entry's for its key
    section, a phase entry's for its ``rz``, and None for an ancilla ``h``.
    The ancilla is the last qubit and never measured; only ``h`` gates and
    the section gates it controls touch it, one ``h`` per section and one
    section per logic entry, in order, each in the barrier-delimited block
    and on the lowest non-ancilla qubit that its entry names.
    """
    ancilla = find_ancilla(locked)
    logic: list[tuple[int, tuple[int, int]]] = []  # (first bit, site) of each entry
    phase: list[tuple[int, tuple[int, int]]] = []
    offset = 0
    for entry in key.schedule:
        (logic if entry.kind == "logic" else phase).append((offset, (entry.layer, entry.qubit)))
        offset += entry.span
    if logic and ancilla is None:
        raise ValueError("key has logic bits but the circuit has no key ancilla register")
    places: dict[int, int | None] = {}
    found: list[tuple[int, int]] = []  # (block, qubit) of each key section
    hadamards = block = 0
    measured = False
    for i, op in enumerate(locked.ops):
        if isinstance(op, Barrier):
            block += 1
        elif isinstance(op, Measure):
            measured = measured or op.qubit == ancilla
        elif _on_ancilla(op, ancilla):
            if len(op.qubits) == 1:
                if op.kind != "h":
                    raise ValueError(
                        f"unexpected {op.kind} gate on the key ancilla: a compiler must keep "
                        "the ancilla's h gates and the gates it controls as single ops"
                    )
                places[i] = None
                hadamards += 1
                continue
            if len(found) >= len(logic):
                raise ValueError(f"{len(found) + 1} key sections but only {len(logic)} logic bits")
            places[i] = logic[len(found)][0]
            found.append((block, min(op.qubits[1:])))
    if len(found) != len(logic):
        raise ValueError(f"{len(found)} key sections but {len(logic)} logic bits")
    if hadamards != len(found):
        raise ValueError(f"{hadamards} ancilla Hadamards for {len(found)} key sections")
    for i, ((_, want), here) in enumerate(zip(logic, found)):
        if want[0] > block:
            raise ValueError(
                f"logic key entry {i} names (layer, qubit) {want}, but the lock's last block "
                f"is {block}: a compiler must keep the barriers"
            )
        if want != here:
            raise ValueError(
                f"logic key entry {i} names (layer, qubit) {want} but its key section is at {here}"
            )
    rotations = _phase_places(locked, (site for _, site in phase))
    places.update(zip(rotations.values(), (first for first, _ in phase)))
    if measured:
        raise ValueError(_ANCILLA_MEASURED)
    return ancilla, places


def insert_key_toggles(locked: Circuit, key: Key) -> Circuit:
    """Strip the ancilla's Hadamards and toggle it with X gates so that it
    holds |bit_i> during key section i, bit_i being the key's i-th logic bit.

    ``locked`` must keep every rule of a lock (``_read``), its phase sites
    included. The number of inserted X gates is bit_0 plus the count of
    adjacent bit changes.
    """
    ancilla, places = _read(locked, key)
    ops: list = []
    state = "0"
    for i, op in enumerate(locked.ops):
        if i in places and ancilla in op.qubits:
            if (first := places[i]) is None:  # an ancilla h
                continue
            if key.bits[first] != state:
                ops.append(Gate("x", (), (ancilla,)))
                state = key.bits[first]
        ops.append(op)
    return replace(locked, ops=tuple(ops))


def apply_phase_key(locked: Circuit, assignments: Iterable[tuple[KeyEntry, int]]) -> Circuit:
    """Set each addressed locked phase gate's angle to kappa * pi/4.

    Sites address the locked circuit by barrier-delimited block index and
    qubit; each must hold one ``rz`` gate (``_phase_places``).
    """
    assignments = tuple(assignments)
    places = _phase_places(locked, ((entry.layer, entry.qubit) for entry, _ in assignments))
    ops = list(locked.ops)
    for (_, kappa), i in zip(assignments, places.values()):
        if not 0 <= kappa <= 7:
            raise ValueError(f"kappa {kappa} outside 0..7")
        ops[i] = Gate("rz", (kappa * KAPPA_STEP,), ops[i].qubits)
    return replace(locked, ops=tuple(ops))


def _without_ancilla(circuit: Circuit, ancilla: int | None, ops: list) -> Circuit:
    """``circuit`` with ``ops`` and without its ancilla, the last qubit if any."""
    labels = circuit.qubit_labels[:ancilla]  # all of them without an ancilla
    return Circuit(
        num_qubits=len(labels),
        num_clbits=circuit.num_clbits,
        ops=tuple(ops),
        qubit_labels=labels,
        clbit_labels=circuit.clbit_labels,
    )


def _fixed(op, ancilla: int | None):
    """What a restoration keeps of ``op``, a gate off the ancilla, a barrier or
    a measurement: a barrier without the ancilla, or None if that spans no
    qubit; None for a phase gate of angle 0 (mod 2 pi); ``op`` otherwise."""
    if isinstance(op, Barrier):
        span = tuple(q for q in op.qubits if q != ancilla)
        return Barrier(span) if span else None
    if isinstance(op, Gate) and op.kind in PHASE_KINDS and normalize_phase_angle(phase_angle_of(op)) == 0:
        return None
    return op


def simplify(circuit: Circuit, logic_bits: Iterable[int] | None = None) -> Circuit:
    """Resolve key sections against the ancilla's classical state and drop it.

    The ancilla (``find_ancilla``) must be the last qubit, where
    ``obfuscate`` puts it, so no other qubit moves. Requires every remaining
    single-qubit ancilla gate to be an X (a surviving Hadamard means the
    circuit was not toggled first, and simplification is refused). Zero-angle phase gates are removed; barriers
    are retained with the ancilla stripped from their span.
    """
    ancilla = find_ancilla(circuit)
    bits = None if logic_bits is None else [int(b) for b in logic_bits]
    ops: list = []
    state = section = 0
    for op in circuit.ops:
        if not _on_ancilla(op, ancilla):
            if isinstance(op, Measure) and op.qubit == ancilla:
                raise ValueError(_ANCILLA_MEASURED)
            if (kept := _fixed(op, ancilla)) is not None:
                ops.append(kept)
        elif len(op.qubits) > 1:
            if bits is not None and (section >= len(bits) or bits[section] != state):
                raise ValueError("ancilla state disagrees with the supplied logic bits")
            section += 1
            if state == 1:
                ops.append(Gate(UNCONTROLLED_FORM[op.kind], op.params, op.qubits[1:]))
        elif op.kind == "x":
            state ^= 1
        else:
            raise ValueError(f"cannot simplify: ancilla evolution is not classical ({op.kind} present)")
    return _without_ancilla(circuit, ancilla, ops)


def unlock(
    locked: Circuit,
    key: Key,
    candidate_bits: str | None = None,
    keep_ancilla: bool = False,
) -> UnlockResult:
    """Apply a key to a locked circuit.

    ``candidate_bits`` overrides the key's own bits (same length) for
    wrong-key experiments. Unless ``keep_ancilla`` is set, the result is
    what ``key_template`` restores for those bits, the simplified circuit;
    with the locking key it is unitarily equivalent to the original circuit
    up to global phase. With ``keep_ancilla`` set, the result is the
    toggled, phase-keyed lock (``insert_key_toggles``, ``apply_phase_key``).

    ``locked`` may come back from a compiler, which may reorder the gates
    of a barrier-delimited block as their shared qubits allow, and rewrite
    ``cx`` as ``h cz h`` on its target and ``x`` off the ancilla as ``h z h``.
    It must keep the barriers, the ancilla's ``h`` gates and the gates it
    controls as single ops, and each phase-site ``rz`` as one gate; a lock
    that breaks one of these rules is refused with the rule broken, with or
    without ``keep_ancilla``.
    """
    applied = key if candidate_bits is None else key.with_bits(candidate_bits)
    if keep_ancilla:
        toggled = insert_key_toggles(locked, applied)
        return UnlockResult(restored_circuit=apply_phase_key(toggled, applied.phase_assignments()))
    return UnlockResult(restored_circuit=key_template(locked, applied).restored(applied.bits))


class KeySlot(NamedTuple):
    """A gate of a ``KeyTemplate`` that a candidate key picks.

    The candidate's bits ``[offset, offset + span)``, read as a binary
    number, pick one of ``options``, None standing for no gate: a logic
    entry's bit drops (0) or keeps (1) its section's uncontrolled gate, and a
    phase entry's kappa picks ``rz(kappa * pi/4)``, kappa 0 being no gate.
    ``index`` is the slot's place in the template circuit's ops.
    """

    index: int
    offset: int
    span: int
    options: tuple[Gate | None, ...]


class KeyTemplate(NamedTuple):
    """What ``unlock`` restores from one locked circuit for any candidate key.

    ``circuit`` is the restoration under the all-ones candidate, in which
    every slot holds a gate (its last option); every other gate is the same
    for all candidates. ``restored(bits)`` is
    ``unlock(locked, key, candidate_bits=bits).restored_circuit``.
    """

    circuit: Circuit
    slots: tuple[KeySlot, ...]
    key_bits: int

    def restored(self, bits: str) -> Circuit:
        """The circuit candidate ``bits`` restores: each slot's pick in its place."""
        if len(bits) != self.key_bits or set(bits) - {"0", "1"}:
            raise ValueError(f"candidate must be {self.key_bits} bits of 0/1, got {bits!r}")
        ops = list(self.circuit.ops)
        for slot in self.slots:
            ops[slot.index] = slot.options[int(bits[slot.offset : slot.offset + slot.span], 2)]
        return replace(self.circuit, ops=tuple(op for op in ops if op is not None))


def key_template(locked: Circuit, key: Key) -> KeyTemplate:
    """The ``KeyTemplate`` of ``locked`` under ``key``'s schedule, built once
    for any number of candidates.

    It reads the lock (``_read``), so a lock broken for one candidate is
    refused for all: whether a lock is refused never depends on the key's bit
    values. Then, in one pass, each key section becomes a logic slot, each
    phase site's ``rz`` a phase slot, and every other op goes as ``simplify``
    decides: the template restores, for any candidate, what ``simplify``
    restores from ``insert_key_toggles`` and ``apply_phase_key`` under it.
    """
    ancilla, places = _read(locked, key)
    ops: list = []
    slots: list[KeySlot] = []
    options: dict[tuple[int, ...], tuple[Gate | None, ...]] = {}  # a phase slot's, by qubit
    for i, op in enumerate(locked.ops):
        if i not in places:
            if (kept := _fixed(op, ancilla)) is not None:
                ops.append(kept)
            continue
        if (first := places[i]) is None:  # an ancilla h
            continue
        if op.kind == "rz":
            if op.qubits not in options:
                options[op.qubits] = (None, *(Gate("rz", (kappa * KAPPA_STEP,), op.qubits) for kappa in range(1, 8)))
            slots.append(KeySlot(len(ops), first, 3, options[op.qubits]))
        else:  # a key section: its uncontrolled gate when the bit is 1
            gate = Gate(UNCONTROLLED_FORM[op.kind], op.params, op.qubits[1:])
            slots.append(KeySlot(len(ops), first, 1, (None, gate)))
        ops.append(slots[-1].options[-1])
    return KeyTemplate(_without_ancilla(locked, ancilla, ops), tuple(slots), len(key.bits))
