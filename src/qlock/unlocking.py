"""Key application and cleanup for locked circuits.

A candidate key (correct or not) is applied in three steps: the ancilla's
Hadamards are removed and Pauli-X toggles inserted so the ancilla carries each
logic bit through its key section; locked rotation angles are reset to
kappa * pi/4 as decoded from the phase bits; and an optional simplification
resolves gates controlled by the now-classical ancilla (|1> -> uncontrolled
form, |0> -> deleted), removes the ancilla, and drops zero-angle phase gates.

Wrong keys follow the same path and always yield a well-formed circuit; the
ancilla stays classical no matter which bits are supplied.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

from .circuit import Barrier, Circuit, Gate, phase_angle_of
from .locking import (
    ANCILLA_REGISTER,
    KAPPA_STEP,
    Key,
    KeyEntry,
    UNCONTROLLED_FORM,
    normalize_phase_angle,
)


@dataclass(frozen=True)
class UnlockResult:
    restored_circuit: Circuit


def find_ancilla(circuit: Circuit) -> int | None:
    """Locate the key ancilla by its register label."""
    for q, label in enumerate(circuit.qubit_labels):
        if label.startswith(f"{ANCILLA_REGISTER}["):
            return q
    return None


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
                    raise ValueError(f"unexpected {op.kind} gate on the key ancilla")
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
    if ancilla not in (None, circuit.num_qubits - 1):
        raise ValueError(f"key ancilla is qubit {ancilla}, not the last qubit")
    bits = None if logic_bits is None else [int(b) for b in logic_bits]
    ops: list = []
    state = 0
    section = 0
    for op in circuit.ops:
        if _on_ancilla(op, ancilla):
            if len(op.qubits) == 1:
                if op.kind == "x":
                    state ^= 1
                    continue
                raise ValueError(
                    f"cannot simplify: ancilla evolution is not classical ({op.kind} present)"
                )
            if bits is not None and (section >= len(bits) or bits[section] != state):
                raise ValueError("ancilla state disagrees with the supplied logic bits")
            section += 1
            if state == 1:
                ops.append(Gate(UNCONTROLLED_FORM[op.kind], op.params, op.qubits[1:]))
        elif isinstance(op, Gate):
            if not (op.is_phase and normalize_phase_angle(phase_angle_of(op)) == 0):
                ops.append(op)
        elif isinstance(op, Barrier):
            span = tuple(q for q in op.qubits if q != ancilla)
            if span:
                ops.append(Barrier(span))
        else:
            if op.qubit == ancilla:
                raise ValueError("key ancilla must not be measured")
            ops.append(op)
    labels = circuit.qubit_labels[:ancilla]  # all of them without an ancilla
    return Circuit(
        num_qubits=len(labels),
        num_clbits=circuit.num_clbits,
        ops=tuple(ops),
        qubit_labels=labels,
        clbit_labels=circuit.clbit_labels,
    )


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
    """
    applied = key if candidate_bits is None else key.with_bits(candidate_bits)
    logic_bits = applied.logic_bits()
    ancilla = find_ancilla(locked)
    if logic_bits and ancilla is None:
        raise ValueError("key has logic bits but the circuit has no key ancilla register")
    current = locked
    if logic_bits:
        current = insert_key_toggles(current, applied, ancilla)
    current = apply_phase_key(current, applied.phase_assignments())
    if not keep_ancilla:
        current = simplify(current, logic_bits if logic_bits else None, ancilla)
    return UnlockResult(restored_circuit=current)
