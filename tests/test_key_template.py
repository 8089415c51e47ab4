"""The key template against ``unlock``: one template for every candidate key
must restore, simulate and refuse what one ``unlock`` per candidate does."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlock import benchmarks, parse_circuit
from qlock.evaluation import _layer_states, random_input_layer, with_input_layer
from qlock.locking import ObfuscationPlan, dense_plan, export_key, import_key, obfuscate, select_sites
from qlock.qasm import emit_circuit
from qlock.qasm import QasmError
from qlock.simulator import compile_program, statevector
from qlock.unlocking import key_template, unlock

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


def _unlocked(record, bits):
    return unlock(record.locked_circuit, record.key, candidate_bits=bits).restored_circuit


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
    ``restored`` circuit, compiled once for all inputs, evolves them as one batch."""
    template = key_template(record.locked_circuit, record.key)
    states = _layer_states(layers, template.circuit.num_qubits)
    out = {}
    for c, bits in enumerate(candidates):
        circuit = template.restored(bits)
        evolved = statevector(circuit, states, compile_program(circuit))
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
    # exactly what unlock raises, and restore what it restores otherwise
    _, lines, key = fuzz_lock
    key = json.loads(json.dumps(key))
    if data.draw(st.booleans()):
        fuzz_key(data, key)
    try:
        locked = parse_circuit("\n".join(fuzz_qasm(data, lines)) + "\n")
        parsed = import_key(json.dumps(key))
    except (QasmError, ValueError):
        return  # refused before any key is applied
    want = _outcome(lambda: unlock(locked, parsed).restored_circuit)
    template = _outcome(lambda: key_template(locked, parsed))
    if isinstance(want, str):
        assert template == want
        return
    assert template.restored(parsed.bits) == want
    bits = data.draw(st.text("01", min_size=len(parsed.bits), max_size=len(parsed.bits)))
    assert template.restored(bits) == unlock(locked, parsed, candidate_bits=bits).restored_circuit


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
