import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qlock import benchmarks, equivalent_up_to_global_phase, parse_circuit
from qlock.circuit import Barrier, Circuit, Gate, flatten, layerize, phase_angle_of
from qlock.locking import Key, KeyEntry, ObfuscationPlan, dense_plan, obfuscate, select_sites
from qlock.simulator import run, unitary_of
from qlock.unlocking import apply_phase_key, find_ancilla, insert_key_toggles, simplify, unlock


def _gate(kind, *qubits, params=()):
    return Gate(kind, tuple(params), tuple(qubits))


def _sections(n_bits: int) -> Circuit:
    ops = []
    for _ in range(n_bits):
        ops.append(_gate("h", 1))
        ops.append(_gate("cx", 1, 0))
    return Circuit(2, 0, tuple(ops), qubit_labels=("q[0]", "qk[0]"))


def _logic_key(bits) -> Key:
    """One logic entry per bit, each at block 0 and qubit 0, where ``_sections`` puts them."""
    return Key("".join(map(str, bits)), tuple(KeyEntry("logic", 0, 0, 1) for _ in bits))


def _toggle_count(bits) -> int:
    toggled = insert_key_toggles(_sections(len(bits)), _logic_key(bits), 1)
    return sum(
        1 for op in toggled.ops if isinstance(op, Gate) and op.kind == "x" and op.qubits == (1,)
    )


# --- toggles -----------------------------------------------------------------


def test_toggles_101():
    assert _toggle_count([1, 0, 1]) == 3


def test_toggles_000():
    assert _toggle_count([0, 0, 0]) == 0


def test_toggles_110():
    assert _toggle_count([1, 1, 0]) == 2


@given(st.lists(st.integers(min_value=0, max_value=1), max_size=64))
def test_toggle_count_law(bits):
    expected = 0
    prev = 0
    for bit in bits:
        expected += bit ^ prev
        prev = bit
    assert _toggle_count(bits) == expected


def test_toggles_remove_every_hadamard():
    toggled = insert_key_toggles(_sections(4), _logic_key([1, 0, 1, 1]), 1)
    assert not any(isinstance(op, Gate) and op.kind == "h" for op in toggled.ops)


def test_toggles_bit_count_mismatch():
    with pytest.raises(ValueError, match="logic bits"):
        insert_key_toggles(_sections(3), _logic_key([1, 0]), 1)


def test_toggles_reject_entry_off_its_section():
    moved = Key("10", (KeyEntry("logic", 0, 0, 1), KeyEntry("logic", 1, 0, 1)))
    with pytest.raises(ValueError, match=r"logic key entry 1 names \(layer, qubit\) \(1, 0\)"):
        insert_key_toggles(_sections(2), moved, 1)


def test_toggles_reject_non_hadamard_ancilla_gate():
    circuit = Circuit(2, 0, (_gate("t", 1), _gate("cx", 1, 0)), qubit_labels=("q[0]", "qk[0]"))
    with pytest.raises(ValueError, match="unexpected t gate"):
        insert_key_toggles(circuit, _logic_key([1]), 1)


# --- phase key ---------------------------------------------------------------


def _locked_rz(angle=1.0) -> Circuit:
    return Circuit(1, 0, (_gate("rz", 0, params=(angle,)),))


def _phase_entry():
    from qlock.locking import KeyEntry

    return KeyEntry("phase", 0, 0, 3)


def test_phase_key_001_restores_quarter_pi():
    out = apply_phase_key(_locked_rz(), [(_phase_entry(), 1)])
    assert out.gates()[0].params[0] == 1 * (math.pi / 4)


def test_phase_key_000_zero_angle():
    out = apply_phase_key(_locked_rz(), [(_phase_entry(), 0)])
    assert out.gates()[0].params[0] == 0.0


def test_phase_key_111_seven_quarters():
    out = apply_phase_key(_locked_rz(), [(_phase_entry(), 7)])
    assert out.gates()[0].params[0] == 7 * (math.pi / 4)


def test_phase_key_site_not_found():
    from qlock.locking import KeyEntry

    with pytest.raises(ValueError, match="not found"):
        apply_phase_key(_locked_rz(), [(KeyEntry("phase", 3, 0, 3), 1)])


# --- simplify ----------------------------------------------------------------


def test_simplify_resolves_controlled_x():
    circuit = Circuit(2, 0, (_gate("x", 1), _gate("cx", 1, 0)), qubit_labels=("q[0]", "qk[0]"))
    out = simplify(circuit, [1], 1)
    assert [(op.kind, op.qubits) for op in out.ops] == [("x", (0,))]
    assert out.num_qubits == 1
    reference = Circuit(1, 0, (_gate("x", 0),))
    assert np.allclose(unitary_of(out), unitary_of(reference))


def test_simplify_drops_zero_controlled_dummy():
    circuit = Circuit(2, 0, (_gate("cx", 1, 0),), qubit_labels=("q[0]", "qk[0]"))
    out = simplify(circuit, [0], 1)
    assert out.ops == ()


def test_simplify_removes_zero_angle_phase_gates():
    circuit = Circuit(1, 0, (_gate("rz", 0, params=(0.0,)), _gate("t", 0)))
    out = simplify(circuit)
    assert [op.kind for op in out.ops] == ["t"]


def test_simplify_refuses_live_hadamard():
    circuit = Circuit(2, 0, (_gate("h", 1), _gate("cx", 1, 0)), qubit_labels=("q[0]", "qk[0]"))
    with pytest.raises(ValueError, match="not classical"):
        simplify(circuit, [1], 1)


def test_simplify_refuses_an_ancilla_that_is_not_the_last_qubit():
    circuit = Circuit(2, 0, (_gate("x", 0), _gate("cx", 0, 1)), qubit_labels=("qk[0]", "q[0]"))
    with pytest.raises(ValueError, match="key ancilla is qubit 0, not the last qubit"):
        simplify(circuit, [1], 0)


def test_simplify_keeps_barriers_without_ancilla():
    from qlock.circuit import Barrier

    circuit = Circuit(
        2, 0, (_gate("x", 1), Barrier((0, 1)), _gate("cx", 1, 0)), qubit_labels=("q[0]", "qk[0]")
    )
    out = simplify(circuit, [1], 1)
    barriers = [op for op in out.ops if isinstance(op, Barrier)]
    assert barriers == [Barrier((0,))]


# --- unlock ------------------------------------------------------------------


def test_unlock_correct_key_restores_x():
    circuit = parse_circuit("qreg q[1]; x q[0];")
    record = obfuscate(circuit, select_sites(circuit, 1, 0, seed=6), seed=6)
    result = unlock(record.locked_circuit, record.key)
    assert result.restored_circuit.num_qubits == 1  # simplified: ancilla removed
    assert equivalent_up_to_global_phase(result.restored_circuit, circuit, 1e-9)


def test_unlock_flipped_bit_breaks_x():
    circuit = parse_circuit("qreg q[1]; x q[0];")
    record = obfuscate(circuit, select_sites(circuit, 1, 0, seed=6), seed=6)
    result = unlock(record.locked_circuit, record.key, candidate_bits="0")
    # the dummy-removal path deletes the real x: identity instead of a flip
    assert np.allclose(unitary_of(result.restored_circuit), np.eye(2))
    assert not equivalent_up_to_global_phase(result.restored_circuit, circuit, 1e-6)


def test_unlock_empty_plan_is_identity_transform():
    circuit = parse_circuit("qreg q[2]; h q[0]; cx q[0],q[1];")
    record = obfuscate(circuit, ObfuscationPlan((), ()))
    result = unlock(record.locked_circuit, record.key)
    assert equivalent_up_to_global_phase(result.restored_circuit, circuit, 1e-9)


def test_unlock_key_length_mismatch():
    circuit = parse_circuit("qreg q[1]; x q[0];")
    record = obfuscate(circuit, select_sites(circuit, 1, 0, seed=6), seed=6)
    with pytest.raises(ValueError, match="length"):
        unlock(record.locked_circuit, record.key, candidate_bits="01")


def test_unlock_without_simplify_keeps_ancilla():
    circuit = parse_circuit("qreg q[1]; x q[0];")
    record = obfuscate(circuit, select_sites(circuit, 1, 0, seed=6), seed=6)
    result = unlock(record.locked_circuit, record.key, keep_ancilla=True)
    assert result.restored_circuit.num_qubits == 2
    assert find_ancilla(result.restored_circuit) == 1


def test_unlock_correct_key_round_trip_benchmarks(bench_circuits):
    rng = np.random.default_rng(31)
    for circuit in bench_circuits.values():
        for _ in range(3):
            seed = int(rng.integers(2**32))
            record = obfuscate(circuit, dense_plan(circuit, seed=seed), seed=seed)
            restored = unlock(record.locked_circuit, record.key).restored_circuit
            assert equivalent_up_to_global_phase(restored, flatten(layerize(circuit)), 1e-9)


def _canonical_multiset(circuit: Circuit) -> Counter:
    out: Counter = Counter()
    for gate in circuit.gates():
        if gate.is_phase:
            angle = math.fmod(phase_angle_of(gate), 2 * math.pi)
            if angle < 0:
                angle += 2 * math.pi
            out[("phase", gate.qubits, round(angle, 9))] += 1
        else:
            out[(gate.kind, gate.qubits, tuple(gate.params))] += 1
    return out


def test_gate_multiset_restored(bench_circuits):
    for circuit in bench_circuits.values():
        record = obfuscate(circuit, dense_plan(circuit, seed=9), seed=9)
        restored = unlock(record.locked_circuit, record.key).restored_circuit
        # equal multisets leave no room for a surviving dummy gate
        assert _canonical_multiset(restored) == _canonical_multiset(circuit)
        assert restored.qubit_labels == circuit.qubit_labels  # ancilla removed


def test_wrong_keys_always_well_formed(bench_circuits):
    circuit = bench_circuits["wstate_n3"]
    record = obfuscate(circuit, dense_plan(circuit, seed=13), seed=13)
    rng = np.random.default_rng(99)
    for _ in range(50):
        bits = "".join(str(int(b)) for b in rng.integers(0, 2, size=len(record.key.bits)))
        restored = unlock(record.locked_circuit, record.key, candidate_bits=bits).restored_circuit
        dist = run(restored, 20, seed=1)
        assert sum(dist.counts.values()) == 20


def test_single_logic_bit_flip_changes_unitary(bench_circuits):
    circuit = bench_circuits["fredkin_n3"]
    record = obfuscate(circuit, dense_plan(circuit, seed=21), seed=21)
    bits = record.key.bits
    n_logic = len(record.key.logic_bits())
    reference = flatten(layerize(circuit))
    for i in range(n_logic):
        flipped = bits[:i] + ("1" if bits[i] == "0" else "0") + bits[i + 1 :]
        restored = unlock(record.locked_circuit, record.key, candidate_bits=flipped).restored_circuit
        assert not equivalent_up_to_global_phase(restored, reference, 1e-6)


def test_unlock_from_emitted_files(bench_circuits):
    # unlocking works from the emitted text alone, by structure
    from qlock import emit_circuit, parse_circuit as reparse
    from qlock.locking import export_key, import_key

    circuit = bench_circuits["adder_n4"]
    record = obfuscate(circuit, dense_plan(circuit, seed=2), seed=2)
    locked = reparse(emit_circuit(record.locked_circuit))
    key = import_key(export_key(record.key))
    restored = unlock(locked, key).restored_circuit
    assert equivalent_up_to_global_phase(restored, flatten(layerize(circuit)), 1e-9)


# --- the compiler contract -----------------------------------------------------


def _compiled(locked: Circuit, random, reorder: bool, rewrite: bool) -> Circuit:
    """``locked`` as a compiler may return it: each block's ``cx`` gates as
    ``h cz h`` on their targets and its ``x`` gates off the ancilla as
    ``h z h`` (each with probability 1/2, when ``rewrite``), then the block's
    ops in a random order that keeps every qubit's own order (when
    ``reorder``); barriers stay where they are."""
    ancilla = find_ancilla(locked)
    ops: list = []
    block: list = []

    def close_block():
        while block:
            # an op is ready when no op before it in the block shares a qubit with it
            busy: set[int] = set()
            ready = []
            for j, op in enumerate(block):
                qubits = set(op.qubits) if isinstance(op, Gate) else {op.qubit}
                if not qubits & busy:
                    ready.append(j)
                busy |= qubits
            ops.append(block.pop(random.choice(ready) if reorder else 0))

    for op in locked.ops:
        if isinstance(op, Barrier):
            close_block()
            ops.append(op)
        elif rewrite and isinstance(op, Gate) and op.kind == "cx" and random.random() < 0.5:
            target = op.qubits[1:]
            block += [_gate("h", *target), _gate("cz", *op.qubits), _gate("h", *target)]
        elif rewrite and isinstance(op, Gate) and op.kind == "x" and op.qubits != (ancilla,) and random.random() < 0.5:
            block += [_gate("h", *op.qubits), _gate("z", *op.qubits), _gate("h", *op.qubits)]
        else:
            block.append(op)
    close_block()
    return replace(locked, ops=tuple(ops))


@given(
    name=st.sampled_from(benchmarks.NAMES),
    seed=st.integers(0, 2**32 - 1),
    changes=st.sampled_from([(True, False), (False, True), (True, True)]),
    random=st.randoms(use_true_random=False),
)
def test_unlock_survives_the_changes_a_compiler_may_make(bench_circuits, name, seed, changes, random):
    circuit = bench_circuits[name]
    record = obfuscate(circuit, dense_plan(circuit, seed=seed), seed=seed)
    compiled = _compiled(record.locked_circuit, random, *changes)
    assert equivalent_up_to_global_phase(compiled, record.locked_circuit, 1e-9)
    restored = unlock(compiled, record.key).restored_circuit
    assert equivalent_up_to_global_phase(restored, flatten(layerize(circuit)), 1e-9)
