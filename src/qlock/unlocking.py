"""Key application and cleanup for locked circuits.

A candidate key (correct or not) is applied in three steps: the ancilla's
Hadamards are removed and Pauli-X toggles inserted so the ancilla carries each
logic bit through its key section; locked rotation angles are reset to
kappa * pi/4 as decoded from the phase bits; and an optional simplification
resolves gates controlled by the now-classical ancilla (|1> -> uncontrolled
form, |0> -> deleted), removes the ancilla, and drops zero-angle phase gates.

Wrong keys follow the same path and always yield a well-formed circuit; the
ancilla stays classical no matter which bits are supplied.

Since only the key-bearing gates depend on the bits, ``key_template`` runs
those steps once for a lock and lists what any candidate restores: fixed
gates, and one slot per key entry (a logic entry's uncontrolled gate, present
iff its bit is 1, or a phase entry's ``rz(kappa * pi/4)``, absent for kappa
0). ``KeyTemplate.restored(bits)`` equals ``unlock``'s restored circuit for
those bits, so the wrong-key sweep builds each candidate's circuit from one
template instead of unlocking it. ``simplify`` and the template make one
pass over the keyed circuit (``_walk``), which raises their shared errors.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable
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


@dataclass(frozen=True)
class UnlockResult:
    restored_circuit: Circuit


def _check_last(circuit: Circuit, ancilla: int | None) -> None:
    if ancilla not in (None, circuit.num_qubits - 1):
        raise ValueError(f"key ancilla is qubit {ancilla}, not the last qubit")


def find_ancilla(circuit: Circuit) -> int | None:
    """Locate the key ancilla by its register label; it must be the last
    qubit, where ``obfuscate`` puts it."""
    for q, label in enumerate(circuit.qubit_labels):
        if label.startswith(f"{ANCILLA_REGISTER}["):
            _check_last(circuit, q)
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


def insert_key_toggles(locked: Circuit, key: Key, ancilla: int) -> Circuit:
    """Strip the ancilla's Hadamards and toggle it with X gates so that it
    holds |bit_i> during key section i, bit_i being the key's i-th logic bit.

    Section i must sit in the barrier-delimited block and on the lowest
    non-ancilla qubit that the key's i-th logic entry names.

    The number of inserted X gates is bit_0 plus the count of adjacent bit
    changes.
    """
    bits = key.logic_bits()
    ops: list = []
    prev = 0
    section = 0
    removed_h = 0
    block = 0
    found: list[tuple[int, int]] = []  # (block, qubit) of each key section
    for op in locked.ops:
        if isinstance(op, Barrier):
            block += 1
        if _on_ancilla(op, ancilla):
            if len(op.qubits) == 1:
                if op.kind != "h":
                    raise ValueError(
                        f"unexpected {op.kind} gate on the key ancilla: a compiler must keep "
                        "the ancilla's h gates and the gates it controls as single ops"
                    )
                removed_h += 1
                continue
            if section >= len(bits):
                raise ValueError(
                    f"{section + 1} key sections but only {len(bits)} logic bits"
                )
            found.append((block, min(op.qubits[1:])))
            bit = bits[section]
            if bit != prev:
                ops.append(Gate("x", (), (ancilla,)))
                prev = bit
            section += 1
            ops.append(op)
        else:
            ops.append(op)
    if section != len(bits):
        raise ValueError(f"{section} key sections but {len(bits)} logic bits")
    if removed_h != section:
        raise ValueError(f"{removed_h} ancilla Hadamards for {section} key sections")
    sites = [(e.layer, e.qubit) for e in key.schedule if e.kind == "logic"]
    for i, (want, here) in enumerate(zip(sites, found)):
        if want[0] > block:
            raise ValueError(
                f"logic key entry {i} names (layer, qubit) {want}, but the lock's last block "
                f"is {block}: a compiler must keep the barriers"
            )
        if want != here:
            raise ValueError(
                f"logic key entry {i} names (layer, qubit) {want} but its key section is at {here}"
            )
    return replace(locked, ops=tuple(ops))


def apply_phase_key(locked: Circuit, assignments: Iterable[tuple[KeyEntry, int]]) -> Circuit:
    """Set each addressed locked phase gate's angle to kappa * pi/4.

    Sites address the locked circuit by barrier-delimited block index and
    qubit; every assignment must land on an ``rz`` gate.
    """
    targets: dict[tuple[int, int], int] = {}
    for entry, kappa in assignments:
        if not 0 <= kappa <= 7:
            raise ValueError(f"kappa {kappa} outside 0..7")
        site = (entry.layer, entry.qubit)
        if site in targets:
            raise ValueError(f"phase key site {site} is listed twice")
        targets[site] = kappa
    ops: list = []
    block = 0
    found: set[tuple[int, int]] = set()
    for op in locked.ops:
        if isinstance(op, Barrier):
            block += 1
            ops.append(op)
            continue
        if isinstance(op, Gate) and op.kind == "rz" and (block, op.qubits[0]) in targets:
            key = (block, op.qubits[0])
            ops.append(Gate("rz", (targets[key] * KAPPA_STEP,), op.qubits))
            found.add(key)
        else:
            ops.append(op)
    missing = set(targets) - found
    if missing:
        raise ValueError(f"phase key sites not found in locked circuit: {sorted(missing)}")
    return replace(locked, ops=tuple(ops))


def _identity_phase(gate: Gate) -> bool:
    """Whether ``gate`` is a phase gate of angle 0 (mod 2 pi), which ``simplify`` drops."""
    return gate.kind in PHASE_KINDS and normalize_phase_angle(phase_angle_of(gate)) == 0


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


def _walk(
    circuit: Circuit,
    ancilla: int | None,
    logic_bits: Iterable[int] | None = None,
    sites: Collection[tuple[int, int]] = (),
) -> tuple[list, list[int], list[tuple[int, tuple[int, int]]]]:
    """``simplify``'s pass over ``circuit``, raising its errors.

    Returns the ops that stay, in order; the places among them of the key
    sections' gates, each in uncontrolled form because the ancilla holds 1
    there; and the place and site of each ``rz`` gate at one of ``sites``,
    (block, qubit) pairs whose blocks are counted by barriers. Sections
    where the ancilla holds 0, ancilla X gates, zero-angle phase gates and
    barriers left with no qubit are dropped.
    """
    _check_last(circuit, ancilla)
    bits = None if logic_bits is None else [int(b) for b in logic_bits]
    ops: list = []
    sections: list[int] = []
    rotations: list[tuple[int, tuple[int, int]]] = []
    state = 0
    section = 0
    block = 0
    for op in circuit.ops:
        if isinstance(op, Gate):
            if ancilla not in op.qubits:
                if not _identity_phase(op):
                    if sites and op.kind == "rz" and (block, op.qubits[0]) in sites:
                        rotations.append((len(ops), (block, op.qubits[0])))
                    ops.append(op)
            elif _on_ancilla(op, ancilla) and len(op.qubits) > 1:
                if bits is not None and (section >= len(bits) or bits[section] != state):
                    raise ValueError("ancilla state disagrees with the supplied logic bits")
                section += 1
                if state == 1:
                    sections.append(len(ops))
                    ops.append(Gate(UNCONTROLLED_FORM[op.kind], op.params, op.qubits[1:]))
            elif op.kind == "x":
                state ^= 1
            else:
                raise ValueError(f"cannot simplify: ancilla evolution is not classical ({op.kind} present)")
        elif isinstance(op, Barrier):
            block += 1
            span = tuple(q for q in op.qubits if q != ancilla)
            if span:
                ops.append(Barrier(span))
        else:
            if op.qubit == ancilla:
                raise ValueError(_ANCILLA_MEASURED)
            ops.append(op)
    return ops, sections, rotations


def simplify(
    circuit: Circuit, logic_bits: Iterable[int] | None = None, ancilla: int | None = None
) -> Circuit:
    """Resolve key sections against the ancilla's classical state and drop it.

    The ancilla must be the last qubit, where ``obfuscate`` puts it, so no
    other qubit moves. Requires every remaining single-qubit ancilla gate to be
    an X (a surviving Hadamard means the circuit was not toggled first, and
    simplification is refused). Zero-angle phase gates are removed; barriers
    are retained with the ancilla stripped from their span.
    """
    return _without_ancilla(circuit, ancilla, _walk(circuit, ancilla, logic_bits)[0])


def _keyed(locked: Circuit, key: Key, logic_bits: tuple[int, ...]) -> tuple[Circuit, int | None]:
    """``locked`` with ``key``'s ancilla toggles (for its ``logic_bits``) and phase
    key applied, and its ancilla."""
    ancilla = find_ancilla(locked)
    if logic_bits and ancilla is None:
        raise ValueError("key has logic bits but the circuit has no key ancilla register")
    current = locked
    if logic_bits:
        current = insert_key_toggles(current, key, ancilla)
    return apply_phase_key(current, key.phase_assignments()), ancilla


def unlock(
    locked: Circuit,
    key: Key,
    candidate_bits: str | None = None,
    keep_ancilla: bool = False,
) -> UnlockResult:
    """Apply a key to a locked circuit.

    ``candidate_bits`` overrides the key's own bits (same length) for
    wrong-key experiments. Unless ``keep_ancilla`` is set, the result is
    passed through ``simplify``; with the locking key it is then unitarily
    equivalent to the original circuit up to global phase.

    ``locked`` may come back from a compiler, which may reorder the gates
    of a barrier-delimited block as their shared qubits allow, and rewrite
    ``cx`` as ``h cz h`` on its target and ``x`` off the ancilla as ``h z h``.
    It must keep the barriers, the ancilla's ``h`` gates and the gates it
    controls as single ops, and the ``rz`` gates at phase sites; dropped
    barriers and decomposed ancilla gates are refused with the rule broken.
    """
    applied = key if candidate_bits is None else key.with_bits(candidate_bits)
    logic_bits = applied.logic_bits()
    current, ancilla = _keyed(locked, applied, logic_bits)
    if not keep_ancilla:
        current = simplify(current, logic_bits if logic_bits else None, ancilla)
    return UnlockResult(restored_circuit=current)


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
    for all candidates. ``restored(bits)`` equals
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

    It applies the all-ones candidate as ``unlock`` does, then makes
    ``simplify``'s pass (``_walk``) with its checks, so a lock that
    ``unlock`` refuses raises the same error here: whether a lock is refused
    never depends on the key's bit values. In that pass each key section is
    a logic slot, and each ``rz`` at a phase entry's (block, qubit), the
    gates ``apply_phase_key`` sets, a phase slot; every other gate goes as
    ``simplify`` decides.
    """
    ones = key.with_bits("1" * len(key.bits))
    logic_bits = ones.logic_bits()
    keyed, ancilla = _keyed(locked, ones, logic_bits)
    sections: list[int] = []  # each logic entry's bit offset, in section order
    phase: dict[tuple[int, int], int] = {}  # (block, qubit) -> the phase entry's bit offset
    offset = 0
    for entry in key.schedule:
        if entry.kind == "logic":
            sections.append(offset)
        else:
            phase[(entry.layer, entry.qubit)] = offset
        offset += entry.span
    ops, logic, phase_gates = _walk(keyed, ancilla, logic_bits or None, phase)
    # under the all-ones toggles the ancilla holds 1 at every section; a key
    # without logic entries has no offsets, its sections resolved as simplify does
    slots = [KeySlot(i, offset, 1, (None, ops[i])) for i, offset in zip(logic, sections)]
    options: dict[tuple[int, ...], tuple[Gate | None, ...]] = {}  # a phase slot's, by qubit
    for i, site in phase_gates:
        qubits = ops[i].qubits
        if qubits not in options:
            options[qubits] = (None, *(Gate("rz", (kappa * KAPPA_STEP,), qubits) for kappa in range(1, 8)))
        slots.append(KeySlot(i, phase[site], 3, options[qubits]))
    return KeyTemplate(_without_ancilla(keyed, ancilla, ops), tuple(slots), len(key.bits))
