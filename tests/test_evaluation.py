import csv
import io
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qlock import benchmarks, evaluation, parse_circuit, simulator
from qlock.circuit import Circuit, Gate
from qlock.evaluation import (
    EvalConfig,
    equivalent_up_to_global_phase,
    evaluate,
    mode_circuits,
    random_input_layer,
    report_json,
    report_row,
    rows_to_csv,
    tvd,
    with_input_layer,
    wrong_key_sweep,
)
from qlock.locking import ObfuscationPlan, dense_plan, obfuscate
from qlock.rng import derive_rng
from qlock.simulator import Distribution, NoiseConfig, statevector
from qlock.simulator import run as simulate
from qlock.unlocking import unlock


def _dist(counts, shots, bits=1):
    return Distribution(counts=counts, shots=shots, bits=bits)


# --- tvd ----------------------------------------------------------------------


def test_tvd_identical_distributions():
    d = _dist({"0": 60, "1": 40}, 100)
    assert tvd(d, d) == 0.0


def test_tvd_disjoint_support():
    assert tvd(_dist({"0": 100}, 100), _dist({"1": 100}, 100)) == 1.0


def test_tvd_partial_overlap():
    a = _dist({"0": 95, "1": 5}, 100)
    b = _dist({"0": 50, "1": 50}, 100)
    assert tvd(a, b) == 0.45


def test_tvd_shot_mismatch():
    with pytest.raises(ValueError, match="shot counts differ"):
        tvd(_dist({"0": 10}, 10), _dist({"0": 20}, 20))


def test_tvd_width_mismatch():
    with pytest.raises(ValueError, match="widths differ"):
        tvd(_dist({"0": 10}, 10), _dist({"00": 10}, 10, bits=2))


@st.composite
def distribution_triples(draw):
    bits = draw(st.integers(min_value=1, max_value=3))
    shots = draw(st.integers(min_value=1, max_value=60))
    keys = [format(i, f"0{bits}b") for i in range(2**bits)]

    def one():
        weights = draw(
            st.lists(st.integers(0, 10), min_size=len(keys), max_size=len(keys)).filter(
                lambda w: sum(w) > 0
            )
        )
        total = sum(weights)
        counts = {}
        rem = shots
        for key, w in zip(keys, weights):
            c = (w * shots) // total
            counts[key] = c
            rem -= c
        counts[keys[0]] += rem
        return Distribution(counts={k: v for k, v in counts.items() if v}, shots=shots, bits=bits)

    return one(), one(), one()


@given(distribution_triples())
def test_tvd_metric_properties(triple):
    a, b, c = triple
    assert 0.0 <= tvd(a, b) <= 1.0
    assert tvd(a, b) == tvd(b, a)
    assert (tvd(a, b) == 0.0) == (a.counts == b.counts)
    assert tvd(a, c) <= tvd(a, b) + tvd(b, c) + 1e-12


# --- input sampling -----------------------------------------------------------


def test_input_layer_deterministic():
    assert random_input_layer(4, seed=5) == random_input_layer(4, seed=5)
    assert random_input_layer(4, seed=5) != random_input_layer(4, seed=6)


def test_input_layer_one_u3_per_qubit():
    layer = random_input_layer(3, seed=0)
    assert [g.kind for g in layer] == ["u3", "u3", "u3"]
    assert [g.qubits for g in layer] == [(0,), (1,), (2,)]


def test_input_layer_zero_theta_is_identity():
    from qlock.simulator import gate_matrix

    mat = gate_matrix(Gate("u3", (0.0, 0.0, 0.0), (0,)))
    assert np.allclose(mat, np.eye(2))


def test_input_layer_haar_theta_moment():
    thetas = [g.params[0] for g in random_input_layer(10_000, seed=123)]
    assert abs(np.mean(np.cos(thetas))) < 0.02  # Haar: cos(theta) uniform on [-1, 1]


# --- equivalence oracle --------------------------------------------------------


def test_equivalence_reflexive():
    c = parse_circuit("qreg q[1]; h q[0]; t q[0];")
    assert equivalent_up_to_global_phase(c, c)


def test_equivalence_rz_vs_p():
    a = parse_circuit("qreg q[1]; rz(pi/2) q[0];")
    b = parse_circuit("qreg q[1]; p(pi/2) q[0];")
    assert equivalent_up_to_global_phase(a, b, 1e-9)


def test_equivalence_x_vs_z_false():
    a = parse_circuit("qreg q[1]; x q[0];")
    b = parse_circuit("qreg q[1]; z q[0];")
    assert not equivalent_up_to_global_phase(a, b)


def test_equivalence_dimension_mismatch():
    a = parse_circuit("qreg q[1]; x q[0];")
    b = parse_circuit("qreg q[2]; x q[0];")
    with pytest.raises(ValueError, match="dimension mismatch"):
        equivalent_up_to_global_phase(a, b)


# --- evaluate -----------------------------------------------------------------


@pytest.fixture(scope="module")
def wstate_record():
    circuit = parse_circuit(
        "qreg q[3]; creg c[3]; u3(1.9106332362490186,0,0) q[0]; ch q[0],q[1]; cx q[1],q[2]; "
        "cx q[0],q[1]; x q[0]; measure q[0] -> c[0]; measure q[1] -> c[1]; measure q[2] -> c[2];"
    )
    return circuit, obfuscate(circuit, dense_plan(circuit, seed=3), seed=3)


def test_evaluate_restored_beats_combined(wstate_record):
    circuit, record = wstate_record
    report = evaluate(circuit, record, EvalConfig(n_inputs=5, shots=100, seed=4))
    assert report.mean["restored"] < report.mean["combined"]
    assert all(0.0 <= v <= 1.0 for vals in report.per_input.values() for v in vals)


def test_evaluate_reproducible(wstate_record):
    circuit, record = wstate_record
    config = EvalConfig(n_inputs=3, shots=50, seed=11)
    a = evaluate(circuit, record, config)
    b = evaluate(circuit, record, config)
    assert a.per_input == b.per_input


def test_evaluate_paired_restored_near_zero(wstate_record):
    circuit, record = wstate_record
    report = evaluate(
        circuit, record, EvalConfig(n_inputs=5, shots=100, seed=4, sampling="paired",
                                    modes=("restored",))
    )
    assert report.mean["restored"] < 0.02  # common random numbers cancel shot noise


def test_evaluate_rejects_inexpressible_mode():
    circuit = parse_circuit("qreg q[1]; x q[0];")
    record = obfuscate(circuit, ObfuscationPlan((), ()))
    with pytest.raises(ValueError, match="phase_only"):
        mode_circuits(record, ("phase_only",))
    with pytest.raises(ValueError, match="logic_only"):
        mode_circuits(record, ("logic_only",))


def test_mode_circuits_shapes(wstate_record):
    _, record = wstate_record
    circuits = mode_circuits(record, ("logic_only", "phase_only", "combined", "restored"))
    assert circuits["combined"] is record.locked_circuit
    assert circuits["restored"].num_qubits == record.locked_circuit.num_qubits - 1
    assert circuits["phase_only"].num_qubits == record.locked_circuit.num_qubits - 1
    # logic_only keeps the superposed ancilla but restores true angles
    assert circuits["logic_only"].num_qubits == record.locked_circuit.num_qubits


def test_evaluate_zero_plan_restored_matches_combined():
    circuit = parse_circuit("qreg q[2]; creg c[2]; h q[0]; cx q[0],q[1]; measure q[0] -> c[0]; measure q[1] -> c[1];")
    record = obfuscate(circuit, ObfuscationPlan((), ()))
    config = EvalConfig(n_inputs=4, shots=200, seed=2, modes=("combined", "restored"))
    report = evaluate(circuit, record, config)
    assert abs(report.mean["restored"] - report.mean["combined"]) < 0.1


def test_noise_config_attached_to_report(wstate_record, monkeypatch):
    # TVDs are multiples of 1/shots, so they can coincide with and without
    # noise; the runs themselves show whether the noise config reaches them
    circuit, record = wstate_record
    runs = {False: [], True: []}

    def recording(*args, noise, **kwargs):
        runs[noise.enabled].append(simulate(*args, noise=noise, **kwargs))
        return runs[noise.enabled][-1]

    monkeypatch.setattr(evaluation, "run", recording)
    for enabled in (False, True):
        evaluate(
            circuit,
            record,
            EvalConfig(
                n_inputs=2, shots=50, seed=7, noise=NoiseConfig(enabled=enabled, seed=7),
                modes=("restored",),
            ),
        )
    assert len(runs[False]) == len(runs[True]) == 4
    assert runs[False] != runs[True]


def test_wrong_key_sweep_histogram(wstate_record):
    circuit, record = wstate_record
    config = EvalConfig(n_inputs=2, shots=50, seed=5)
    sweep = wrong_key_sweep(circuit, record, config, n_keys=8)
    assert sweep["n_keys"] == 8
    assert len(sweep["tvds"]) == 8
    assert sum(sweep["histogram"].values()) == 8
    assert wrong_key_sweep(circuit, record, config, n_keys=0) is None


# --- reporting ----------------------------------------------------------------


def test_report_row_key_bit_columns(wstate_record):
    circuit, record = wstate_record
    plan = dense_plan(circuit, seed=3)  # the fixture's plan
    report = evaluate(circuit, record, EvalConfig(n_inputs=2, shots=50, seed=1))
    row = report_row("Wstate", record, report)
    assert row["logic_key_bits"] == len(plan.logic_sites)
    assert row["phase_key_bits"] == 3 * len(plan.phase_sites)
    assert row["gates_obf"] > row["gates"]
    assert set(k for k in row if k.startswith("tvd_")) == {
        "tvd_logic_only",
        "tvd_phase_only",
        "tvd_combined",
        "tvd_restored",
    }


def test_report_zero_plan_key_bits_zero():
    circuit = parse_circuit("qreg q[1]; x q[0];")
    record = obfuscate(circuit, ObfuscationPlan((), ()))
    report = evaluate(circuit, record, EvalConfig(n_inputs=2, shots=20, seed=3, modes=("restored",)))
    row = report_row("tiny", record, report)
    assert row["logic_key_bits"] == 0 and row["phase_key_bits"] == 0


def test_csv_round_trip(wstate_record):
    circuit, record = wstate_record
    report = evaluate(circuit, record, EvalConfig(n_inputs=2, shots=50, seed=1))
    row = report_row("Wstate", record, report)
    (parsed,) = csv.DictReader(io.StringIO(rows_to_csv([row])))
    assert parsed == {k: str(v) for k, v in row.items()}
    assert list(parsed) == list(row)


def test_report_json_contains_rows(wstate_record):
    import json

    circuit, record = wstate_record
    report = evaluate(circuit, record, EvalConfig(n_inputs=2, shots=50, seed=1))
    row = report_row("Wstate", record, report)
    payload = json.loads(report_json([row], {"seed": 1}))
    assert payload["rows"] == [row]
    assert payload["seed"] == 1


def test_with_input_layer_prepends():
    circuit = parse_circuit("qreg q[1]; x q[0];")
    layer = random_input_layer(1, seed=0)
    prepended = with_input_layer(circuit, layer)
    assert prepended.ops[0].kind == "u3"
    assert prepended.ops[-1].kind == "x"


# --- the batched evaluation loop against the per-input path ---------------------


def _per_input_tvds(original, arms, config):
    """``_tvds`` rebuilt one input and one arm at a time: random_input_layer ->
    with_input_layer -> run -> tvd."""
    out = {arm: [] for arm in arms}
    for i in range(config.n_inputs):
        layer_seed = int(derive_rng(config.seed, "eval-input", i).integers(2**63))
        layer = random_input_layer(original.num_qubits, layer_seed)

        def sample(circuit, arm):
            seed = evaluation._arm_seed(config.seed, i, arm, config.sampling)
            return simulate(with_input_layer(circuit, layer), config.shots, noise=config.noise, seed=seed)

        reference = sample(original, "reference")
        for arm, circuit in arms.items():
            out[arm].append(tvd(reference, sample(circuit, arm)))
    return out


def _assert_evaluate_matches_per_input_path(original, record, config, wrong_keys):
    arms = mode_circuits(record, config.modes)
    sweep = {
        arm: unlock(record.locked_circuit, record.key, candidate_bits=bits).restored_circuit
        for arm, bits in evaluation._wrong_key_arms(record, config, wrong_keys).items()
    }
    want = _per_input_tvds(original, arms | sweep, config)
    report = evaluate(original, record, config, wrong_keys)
    assert report.per_input == {m: tuple(want[m]) for m in config.modes}
    if wrong_keys:
        assert report.wrong_key_sweep["tvds"] == [sum(want[k]) / len(want[k]) for k in sweep]


@pytest.fixture(scope="module")
def bundled_records():
    out = []
    for i, name in enumerate(benchmarks.NAMES):
        original = parse_circuit(benchmarks.load(name))
        out.append((original, obfuscate(original, dense_plan(original, seed=i), seed=i)))
    return out


def _recording_statevector(monkeypatch):
    """Patch ``evaluation.statevector`` to record each batch's column count."""
    columns = []

    def recording(circuit, initial=None, program=None):
        columns.append(None if initial is None else initial.shape[1])
        return statevector(circuit, initial, program)

    monkeypatch.setattr(evaluation, "statevector", recording)
    return columns


def _widths(total, width):
    """How ``total`` columns split into chunks of at most ``width``."""
    return [min(width, total - first) for first in range(0, total, width)]


@pytest.mark.parametrize("sampling", ["independent", "paired"])
@pytest.mark.parametrize("amplitudes", [None, 2**7])
def test_evaluate_matches_per_input_path(bundled_records, monkeypatch, sampling, amplitudes):
    # 2**7 amplitudes cut 13 inputs into chunks of 8 + 5 (4-qubit arms) or
    # 4 + 4 + 4 + 1 (5-qubit arms); the default holds all 13 in one chunk.
    # The reference, the mode arms and then the sweep's 3 keys, one arm each,
    # all take the same chunks
    if amplitudes is not None:
        monkeypatch.setattr(simulator, "_BATCH_AMPLITUDES", amplitudes)
    config = EvalConfig(n_inputs=13, shots=40, seed=6, sampling=sampling)
    for original, record in bundled_records:
        columns = _recording_statevector(monkeypatch)
        _assert_evaluate_matches_per_input_path(original, record, config, wrong_keys=3)
        per_chunk = 13 if amplitudes is None else amplitudes >> record.locked_circuit.num_qubits
        assert columns == _widths(13, per_chunk) * (1 + len(config.modes) + 3)


def test_evaluate_matches_per_input_path_under_noise(bundled_records):
    noise = NoiseConfig(enabled=True, p1=0.05, p2=0.1, seed=2)
    config = EvalConfig(n_inputs=3, shots=40, seed=2, noise=noise)
    for original, record in bundled_records:
        _assert_evaluate_matches_per_input_path(original, record, config, wrong_keys=2)


def test_evaluate_matches_per_input_path_on_wide_circuit(wide_record, monkeypatch):
    # 13 qubits with the ancilla: every chunk is a single input
    original, record = wide_record
    columns = _recording_statevector(monkeypatch)
    config = EvalConfig(n_inputs=3, shots=30, seed=1)
    _assert_evaluate_matches_per_input_path(original, record, config, wrong_keys=1)
    assert {c for c in columns if c is not None} == {1}


def test_evaluate_memory_does_not_grow_with_inputs(wide_record):
    original, record = wide_record
    state_bytes = 16 * 2**record.locked_circuit.num_qubits
    config = EvalConfig(shots=30, seed=1, modes=("combined", "restored"))
    evaluate(original, record, replace(config, n_inputs=1))  # fills caches
    peaks = {}
    for n_inputs in (2, 16):
        tracemalloc.start()
        try:
            evaluate(original, record, replace(config, n_inputs=n_inputs))
            peaks[n_inputs] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # the chunk's two layer states, gather, result and the evolved copy, and a
    # little more; one more input held at once would add at least 1.5 states
    assert peaks[16] - peaks[2] < state_bytes / 2
    assert peaks[16] < 6 * state_bytes


def test_sweep_memory_holds_one_key_at_a_time(wide_record):
    # each key's restored circuit and program are built as its arm runs and
    # let go before the next: more keys add their bits and TVDs, never another
    # state held at once. Compiling one key's program here peaks up to ~67 KB
    # above another's (the keys' blocks differ), so the bound is one state
    original, record = wide_record
    state_bytes = 16 * 2**original.num_qubits
    config = EvalConfig(n_inputs=2, shots=30, seed=1, modes=())
    evaluate(original, record, config, wrong_keys=16)  # fills caches; its first 2 keys are those of 2
    peaks = {}
    for wrong_keys in (2, 16):
        tracemalloc.start()
        try:
            evaluate(original, record, config, wrong_keys=wrong_keys)
            peaks[wrong_keys] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[16] - peaks[2] < state_bytes


# --- the batched loop's pieces ----------------------------------------------------


@given(st.integers(0, 2**64 - 1), st.integers(0, 300), st.integers(1, 4))
def test_wrong_keys_draw_the_per_bit_loops_bits(seed, key_len, n_keys):
    # each key's bits come from one integers(2, size=key_len) call; they must be
    # the bits of one integers(2) call per bit, key after key
    rng = derive_rng(seed, "wrong-keys")
    want = ["".join(str(int(rng.integers(2))) for _ in range(key_len)) for _ in range(n_keys)]
    record = SimpleNamespace(locked_circuit=None, key=SimpleNamespace(bits="0" * key_len))
    arms = evaluation._wrong_key_arms(record, EvalConfig(seed=seed), n_keys)
    assert arms == {f"wrong-key-{k}": bits for k, bits in enumerate(want)}


def test_layer_states_hold_to_the_layer_statevector():
    for n in range(1, 9):
        layers = [random_input_layer(n, seed) for seed in range(4)]
        for width in (n, n + 1):
            states = evaluation._layer_states(layers, width)
            for column, layer in enumerate(layers):
                want = statevector(Circuit(width, 0, layer))
                assert np.max(np.abs(states[:, column] - want)) <= 1e-15


def test_each_arm_is_compiled_once(wide_record, monkeypatch):
    # 13 qubits: each of the 3 inputs is a chunk of its own, and each arm's
    # program serves all of them
    original, record = wide_record
    compiled = []
    compile_program = evaluation.compile_program

    def recording(circuit):
        compiled.append(circuit.num_qubits)
        return compile_program(circuit)

    monkeypatch.setattr(evaluation, "compile_program", recording)
    columns = _recording_statevector(monkeypatch)
    evaluate(original, record, EvalConfig(n_inputs=3, shots=30, seed=1, modes=("combined", "restored")))
    assert compiled == [12, 13, 12]
    assert columns == [1] * 9
