"""The key template against ``unlock``: one template for every candidate key
must restore, simulate and refuse what one ``unlock`` per candidate does, and
its key program must compile each candidate's blocks as the restored circuit
multiplies out."""

import gc
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlock import Circuit, Gate, benchmarks, parse_circuit, simulator
from qlock.circuit import GATE_SPECS
from qlock.evaluation import _layer_states, random_input_layer, with_input_layer
from qlock.locking import ObfuscationPlan, dense_plan, export_key, import_key, obfuscate, select_sites
from qlock.qasm import emit_circuit
from qlock.qasm import QasmError
from qlock.simulator import compile_key_program, compile_program, statevector, unitary_of
from qlock.unlocking import KeyTemplate, key_template, simplify, unlock

from conftest import fuzz_key, fuzz_qasm


def _records():
    """(name, record): the four bundled dense locks, ``select_sites`` locks with
    only logic or only phase entries, and an empty key."""
    out = []
    for i, name in enumerate(benchmarks.NAMES):
        circuit = parse_circuit(benchmarks.load(name))
        out.append((name, obfuscate(circuit, dense_plan(circuit, seed=i), seed=i)))
    adder = parse_circuit(benchmarks.load("adder_n4"))
    for label, plan in (
        ("logic only", select_sites(adder, 3, 0, strategy="random", seed=1)),
        ("phase only", select_sites(adder, 0, 3, strategy="random", seed=1)),
        ("empty key", ObfuscationPlan((), ())),
    ):
        out.append((label, obfuscate(adder, plan, seed=2)))
    return out


@pytest.fixture(scope="module", params=_records(), ids=lambda pair: pair[0])
def record(request):
    return request.param[1]


def _candidates(record, count, seed):
    """The key's own bits, all zeros, all ones, and ``count`` random candidates."""
    rng = np.random.default_rng(seed)
    n = len(record.key.bits)
    drawn = ["".join(map(str, rng.integers(2, size=n).tolist())) for _ in range(count)]
    return list(dict.fromkeys([record.key.bits, "0" * n, "1" * n, *drawn]))


def _stepwise(locked, key, bits):
    """What ``bits`` restore step by step: toggles and phase key applied
    (``unlock`` keeping the ancilla), then ``simplify``; ``unlock`` itself
    restores through the template."""
    return simplify(unlock(locked, key, bits, keep_ancilla=True).restored_circuit)


def _unlocked(record, bits):
    return _stepwise(record.locked_circuit, record.key, bits)


def test_template_restores_what_unlock_restores(record):
    template = key_template(record.locked_circuit, record.key)
    assert template.circuit == _unlocked(record, "1" * len(record.key.bits))
    for bits in _candidates(record, 40, seed=3):
        assert template.restored(bits) == _unlocked(record, bits)


def test_template_refuses_a_candidate_of_another_length(record):
    template = key_template(record.locked_circuit, record.key)
    with pytest.raises(ValueError, match="candidate must be"):
        template.restored(record.key.bits + "0")


def _oracle(record, candidates, layers):
    """Each (input, candidate) column as its own ``unlock`` and ``statevector``."""
    restored = [_unlocked(record, bits) for bits in candidates]
    return [
        [statevector(with_input_layer(circuit, layer)) for circuit in restored] for layer in layers
    ]


def _template_columns(record, candidates, layers):
    """Every (input, candidate) column as the sweep evolves it: each candidate's
    program, from one key program of the template, evolves all inputs as one batch."""
    template = key_template(record.locked_circuit, record.key)
    keys = compile_key_program(template)
    states = _layer_states(layers, template.circuit.num_qubits)
    out = {}
    for c, bits in enumerate(candidates):
        evolved = statevector(template.circuit, states, keys.program(bits))
        out.update(((i, c), state) for i, state in enumerate(evolved.T))
    return out


def test_template_columns_hold_to_unlock(record):
    candidates = _candidates(record, 8, seed=4)
    n = key_template(record.locked_circuit, record.key).circuit.num_qubits
    layers = [random_input_layer(n, seed) for seed in range(3)]
    want = _oracle(record, candidates, layers)
    for (i, c), state in _template_columns(record, candidates, layers).items():
        assert np.max(np.abs(state - want[i][c])) <= 1e-12


def test_template_columns_hold_to_unlock_on_a_wide_circuit(wide_record):
    _, record = wide_record
    candidates = _candidates(record, 3, seed=5)
    layers = [random_input_layer(12, seed) for seed in range(2)]
    want = _oracle(record, candidates, layers)
    for (i, c), state in _template_columns(record, candidates, layers).items():
        assert np.max(np.abs(state - want[i][c])) <= 1e-12


def _applied(template, program):
    """The unitary ``program`` applies on ``template``'s qubits: the product of
    its blocks, one basis state per column."""
    dim = 2**template.circuit.num_qubits
    return statevector(template.circuit, np.eye(dim, dtype=complex), program)


def test_key_program_blocks_hold_to_the_restored_circuit(record):
    template = key_template(record.locked_circuit, record.key)
    keys = compile_key_program(template)
    blocks = len(compile_program(template.circuit))
    for bits in _candidates(record, 40, seed=6):
        program = keys.program(bits)
        assert len(program) == blocks
        assert np.max(np.abs(_applied(template, program) - unitary_of(template.restored(bits)))) <= 1e-12


def test_key_program_holds_to_unlock_on_flipped_and_random_keys(record):
    # criterion 8's candidates: the key with each one bit flipped, and random keys
    template = key_template(record.locked_circuit, record.key)
    keys = compile_key_program(template)
    bits = record.key.bits
    flipped = [bits[:i] + "10"[int(bits[i])] + bits[i + 1 :] for i in range(len(bits))]
    for candidate in flipped + _candidates(record, 20, seed=7):
        want = unitary_of(_unlocked(record, candidate))
        assert np.max(np.abs(_applied(template, keys.program(candidate)) - want)) <= 1e-12


def test_key_program_refuses_a_candidate_of_another_length(record):
    keys = compile_key_program(key_template(record.locked_circuit, record.key))
    bits = record.key.bits
    for bad in (bits + "0", "2" + bits[1:]):
        with pytest.raises(ValueError, match="candidate must be"):
            keys.program(bad)


def test_key_program_refuses_a_template_too_wide_to_simulate():
    template = KeyTemplate(Circuit(27, 0, (Gate("h", (), (0,)),)), (), 0)
    with pytest.raises(ValueError, match="27-qubit circuit too large to simulate"):
        compile_key_program(template)


@pytest.mark.parametrize("window", [1, 40, 100])
def test_key_program_in_small_gathers_on_a_wide_circuit(wide_record, monkeypatch, window):
    # blocks with slots gathered a few at a time, or one at a time when a block
    # alone holds more factors than the window, give the same products
    monkeypatch.setattr(simulator, "_COMPOSE_WINDOW", window)
    _, record = wide_record
    keys = compile_key_program(key_template(record.locked_circuit, record.key))
    assert all(group.factors.size <= window or len(group.places) == 1 for group in keys.keyed)
    candidates = _candidates(record, 2, seed=8)
    layers = [random_input_layer(12, seed=9)]
    want = _oracle(record, candidates, layers)
    for (i, c), state in _template_columns(record, candidates, layers).items():
        assert np.max(np.abs(state - want[i][c])) <= 1e-12


def test_key_program_bytes_on_a_wide_circuit(wide_record):
    # the tables, index arrays and fixed blocks of one key program hold less
    # than one statevector of the locked circuit
    _, record = wide_record
    template = key_template(record.locked_circuit, record.key)
    keys = compile_key_program(template)
    assert len(keys.program(record.key.bits)) == len(compile_program(template.circuit))
    arrays = [pair[0] for pair in keys.fixed if pair is not None]
    arrays += [array for group in keys.keyed for array in group[2:]]
    held = sum(array.nbytes for array in {id(array): array for array in arrays}.values())
    assert held < 16 * 2**record.locked_circuit.num_qubits


def _blocks_without_slots_match_compile_program(record):
    template = key_template(record.locked_circuit, record.key)
    fixed = compile_key_program(template).fixed
    want = compile_program(template.circuit)
    assert len(fixed) == len(want)
    for got, (matrix, qubits) in zip(fixed, want):
        if got is not None:
            assert got[0].tobytes() == matrix.tobytes() and got[1] == qubits
    return sum(got is not None for got in fixed)


def test_key_program_blocks_without_slots_are_compile_programs(record):
    # the one fusion pass composes them as compile_program composes the
    # template's circuit, to the same bytes
    _blocks_without_slots_match_compile_program(record)


def test_key_program_blocks_without_slots_are_compile_programs_on_a_wide_circuit(wide_record):
    assert _blocks_without_slots_match_compile_program(wide_record[1]) > 0


def _generated_lock(n, count, seed):
    """A dense lock of ``count`` gates on ``n`` qubits, in equal shares of the
    alphabet, angles on the pi/4 grid so every phase gate is lockable."""
    rng = np.random.default_rng(seed)
    kinds = sorted(GATE_SPECS)
    gates = []
    for i in range(count):
        kind = kinds[i % len(kinds)]
        arity, n_params = GATE_SPECS[kind]
        qubits = tuple(int(q) for q in rng.choice(n, arity, replace=False))
        gates.append(Gate(kind, tuple(float(a) for a in rng.integers(0, 8, n_params) * np.pi / 4), qubits))
    circuit = Circuit(n, 0, tuple(gates))
    return obfuscate(circuit, dense_plan(circuit, seed=seed), seed=seed)


def test_key_program_compile_peak_stays_near_compile_programs():
    # the template's gates stream through one _fuse pass, which composes the
    # blocks without slots as they close, as compile_program does: 1.5x
    # compile_program's peak on this lock, where a second pass that listed every
    # gate matrix first and held every block until the end peaked at 2.4x
    # (tracemalloc, Python 3.11, numpy 2.4). The collector stays off around the
    # compiles, as in the simulator's compose memory test
    record = _generated_lock(8, 1000, seed=1)
    template = key_template(record.locked_circuit, record.key)
    peaks = []
    gc.collect()
    gc.disable()
    try:
        for compile_once in (lambda: compile_key_program(template), lambda: compile_program(template.circuit)):
            compile_once()
            tracemalloc.start()
            try:
                compile_once()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    finally:
        gc.enable()
    assert len(template.slots) > 500
    assert peaks[0] <= 2 * peaks[1], peaks


def _outcome(action):
    """What ``action`` returns, or the message of the ``ValueError`` it raises:
    how ``unlock`` refuses a malformed lock (the CLI's exit 3)."""
    try:
        return action()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=200)
@given(data=st.data())
def test_template_refuses_what_unlock_refuses(fuzz_lock, data):
    # the hand-edited locks of the CLI fuzz test: the template must raise
    # exactly what the step-by-step restoration raises, and restore what it
    # restores otherwise
    _, lines, key = fuzz_lock
    key = json.loads(json.dumps(key))
    if data.draw(st.booleans()):
        fuzz_key(data, key)
    try:
        locked = parse_circuit("\n".join(fuzz_qasm(data, lines)) + "\n")
        parsed = import_key(json.dumps(key))
    except (QasmError, ValueError):
        return  # refused before any key is applied
    want = _outcome(lambda: _stepwise(locked, parsed, None))
    template = _outcome(lambda: key_template(locked, parsed))
    if isinstance(want, str):
        assert template == want
        return
    assert template.restored(parsed.bits) == want
    bits = data.draw(st.text("01", min_size=len(parsed.bits), max_size=len(parsed.bits)))
    assert template.restored(bits) == _stepwise(locked, parsed, bits)


def test_template_refuses_an_ancilla_declared_first():
    # a hand-written lock with its qk register before q, its key's qubits moved
    # to match: unlock and the template refuse it with one message
    circuit = parse_circuit(benchmarks.load("adder_n4"))
    record = obfuscate(circuit, dense_plan(circuit, seed=0), seed=0)
    lines = emit_circuit(record.locked_circuit).splitlines()
    ancilla = next(line for line in lines if line.startswith("qreg qk"))
    lines.remove(ancilla)
    lines.insert(next(i for i, line in enumerate(lines) if line.startswith("qreg")), ancilla)
    locked = parse_circuit("\n".join(lines) + "\n")
    key = json.loads(export_key(record.key))
    for entry in key["schedule"]:
        entry["qubit"] += 1
    key = import_key(json.dumps(key))
    want = "key ancilla is qubit 0, not the last qubit"
    assert _outcome(lambda: unlock(locked, key)) == want
    assert _outcome(lambda: key_template(locked, key)) == want
