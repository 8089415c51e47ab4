import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from qlock import benchmarks, locking, simulator
from qlock.circuit import GATE_SPECS, Barrier, Circuit, Gate, Measure
from qlock.evaluation import random_input_layer, with_input_layer
from qlock.rng import derive_rng
from qlock.simulator import (
    Distribution,
    NoiseConfig,
    gate_matrix,
    run,
    statevector,
    unitary_of,
    zero_state,
)

from qlock.qasm import parse_circuit

from conftest import NoNumpy, random_circuit


def _gate(kind, *qubits, params=()):
    return Gate(kind, tuple(params), tuple(qubits))


def test_x_flips_zero():
    state = statevector(Circuit(1, 0, (_gate("x", 0),)))
    assert np.allclose(state, [0, 1])


def test_h_makes_plus():
    state = statevector(Circuit(1, 0, (_gate("h", 0),)))
    assert np.allclose(state, [1 / math.sqrt(2), 1 / math.sqrt(2)])


def test_p_vs_rz_global_phase():
    plus = statevector(Circuit(1, 0, (_gate("h", 0),)))
    a = statevector(Circuit(1, 0, (_gate("p", 0, params=(math.pi / 2,)),)), plus)
    b = statevector(Circuit(1, 0, (_gate("rz", 0, params=(math.pi / 2,)),)), plus)
    ratio = a / b
    assert np.allclose(ratio, ratio[0])
    assert np.isclose(ratio[0], np.exp(1j * math.pi / 4))


def test_s_t_are_phase_gates():
    assert np.allclose(gate_matrix(_gate("s", 0)), np.diag([1, 1j]))
    assert np.allclose(gate_matrix(_gate("t", 0)), np.diag([1, np.exp(1j * math.pi / 4)]))
    assert np.allclose(gate_matrix(_gate("sdg", 0)), np.diag([1, -1j]))


def test_u3_matrix_unitary_and_ry_like():
    theta = 1.234
    mat = gate_matrix(_gate("u3", 0, params=(theta, 0.0, 0.0)))
    assert np.allclose(mat @ mat.conj().T, np.eye(2), atol=1e-12)
    assert np.allclose(
        mat,
        [[math.cos(theta / 2), -math.sin(theta / 2)], [math.sin(theta / 2), math.cos(theta / 2)]],
    )


def test_ccx_truth_table():
    mat = gate_matrix(_gate("ccx", 0, 1, 2))
    expect = np.eye(8)
    expect[[6, 7]] = expect[[7, 6]]
    assert np.allclose(mat, expect)


def test_controlled_h_only_fires_on_one():
    state = statevector(Circuit(2, 0, (_gate("ch", 0, 1),)))  # control qubit 0 is |0>
    assert np.allclose(state, zero_state(2))
    state = statevector(Circuit(2, 0, (_gate("x", 0), _gate("ch", 0, 1))))
    # amplitudes on |01> (index 1) and |11> (index 3): qubit 0 is the low bit
    assert np.allclose(state[[1, 3]], [1 / math.sqrt(2), 1 / math.sqrt(2)])


def test_little_endian_indexing():
    state = statevector(Circuit(2, 0, (_gate("x", 1),)))
    assert np.argmax(np.abs(state)) == 2  # qubit 1 contributes bit value 2


def test_norm_preserved_random_circuits():
    rng = np.random.default_rng(3)
    for _ in range(30):
        circuit = random_circuit(rng, measured=False)
        state = statevector(circuit)
        assert abs(np.linalg.norm(state) - 1.0) < 1e-10


def test_unitary_of_empty_is_identity():
    assert np.allclose(unitary_of(Circuit(1, 0, ())), np.eye(2))


def test_unitary_of_x():
    assert np.allclose(unitary_of(Circuit(1, 0, (_gate("x", 0),))), [[0, 1], [1, 0]])


def test_unitary_of_hh_identity():
    circuit = Circuit(1, 0, (_gate("h", 0), _gate("h", 0)))
    assert np.max(np.abs(unitary_of(circuit) - np.eye(2))) < 1e-12


def test_unitary_of_is_unitary_random():
    rng = np.random.default_rng(5)
    for _ in range(25):
        circuit = random_circuit(rng, measured=False)
        u = unitary_of(circuit)
        assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) < 1e-10


def test_unitary_qubit_limit():
    with pytest.raises(ValueError, match="at most 10"):
        unitary_of(Circuit(11, 0, ()))


def test_run_h_balanced():
    circuit = Circuit(1, 1, (_gate("h", 0), Measure(0, 0)))
    dist = run(circuit, 1024, seed=9)
    assert set(dist.counts) <= {"0", "1"}
    for key in ("0", "1"):
        assert abs(dist.counts.get(key, 0) - 512) <= 80  # 5 sigma for Bernoulli(1/2)


def test_run_x_deterministic():
    circuit = Circuit(1, 1, (_gate("x", 0), Measure(0, 0)))
    assert run(circuit, 100, seed=1).counts == {"1": 100}


def test_run_bell_support():
    circuit = Circuit(2, 2, (_gate("h", 0), _gate("cx", 0, 1), Measure(0, 0), Measure(1, 1)))
    dist = run(circuit, 1024, seed=2)
    assert set(dist.counts) <= {"00", "11"}
    assert sum(dist.counts.values()) == 1024


def test_run_identical_seeds_identical_counts():
    circuit = Circuit(2, 2, (_gate("h", 0), _gate("cx", 0, 1), Measure(0, 0), Measure(1, 1)))
    a = run(circuit, 500, seed=42)
    b = run(circuit, 500, seed=42)
    assert a == b
    noisy = NoiseConfig(enabled=True, seed=4)
    assert run(circuit, 50, noise=noisy, seed=42) == run(circuit, 50, noise=noisy, seed=42)


def test_run_marginalizes_unmeasured_qubits():
    # only qubit 1 measured; qubit 0 in superposition gets traced out
    circuit = Circuit(2, 1, (_gate("h", 0), _gate("x", 1), Measure(1, 0)))
    dist = run(circuit, 200, seed=0)
    assert dist.bits == 1
    assert dist.counts == {"1": 200}


def test_run_zero_shots_rejected():
    with pytest.raises(ValueError, match="shots must be positive"):
        run(Circuit(1, 0, ()), 0)


def test_run_custom_initial_state():
    one = np.array([0.0, 1.0], dtype=complex)
    dist = run(Circuit(1, 0, ()), 50, initial=one, seed=0)
    assert dist.counts == {"1": 50}


def test_outcome_strings_little_endian():
    # qubit 1 set, qubit 0 clear: string prints high qubit first -> "10"
    circuit = Circuit(2, 2, (_gate("x", 1), Measure(0, 0), Measure(1, 1)))
    assert run(circuit, 10, seed=0).counts == {"10": 10}


def test_sampling_soundness_chi_square():
    circuit = Circuit(2, 2, (_gate("h", 0), _gate("cx", 0, 1), Measure(0, 0), Measure(1, 1)))
    dist = run(circuit, 100_000, seed=77)
    observed = [dist.counts.get("00", 0), dist.counts.get("11", 0)]
    result = stats.chisquare(observed, f_exp=[50_000, 50_000])
    assert result.pvalue > 0.001


def test_noise_changes_outcomes_but_preserves_shape():
    circuit = Circuit(1, 1, (_gate("x", 0), Measure(0, 0)))
    noisy = run(circuit, 2000, noise=NoiseConfig(enabled=True, p1=0.25, seed=1), seed=5)
    assert sum(noisy.counts.values()) == 2000
    assert noisy.counts.get("0", 0) > 0  # depolarizing flips show up


def test_noise_disabled_matches_pure():
    circuit = Circuit(1, 1, (_gate("h", 0), Measure(0, 0)))
    a = run(circuit, 300, noise=NoiseConfig(enabled=False), seed=8)
    b = run(circuit, 300, seed=8)
    assert a == b


def test_noise_probability_validation():
    with pytest.raises(ValueError, match="probabilities"):
        NoiseConfig(p1=1.5)


def test_distribution_json_round_trip():
    dist = Distribution(counts={"01": 30, "10": 70}, shots=100, bits=2)
    assert Distribution(**json.loads(dist.to_json())) == dist


def test_distribution_validation():
    with pytest.raises(ValueError, match="sum"):
        Distribution(counts={"0": 1}, shots=2, bits=1)
    with pytest.raises(ValueError, match="malformed outcome"):
        Distribution(counts={"2": 2}, shots=2, bits=1)


def test_barriers_ignored_by_simulation():
    a = Circuit(2, 0, (_gate("h", 0), Barrier((0, 1)), _gate("cx", 0, 1)))
    b = Circuit(2, 0, (_gate("h", 0), _gate("cx", 0, 1)))
    assert np.allclose(statevector(a), statevector(b))


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_nan_norm_counts_as_drift():
    circuit = Circuit(1, 0, (_gate("rz", 0, params=(math.inf,)),))
    with pytest.raises(ArithmeticError, match="drifted to nan"):
        statevector(circuit)
    with pytest.raises(ArithmeticError, match="drifted to nan"):
        run(circuit, 5, noise=NoiseConfig(enabled=True, seed=1))


def test_state_size_guard_refuses_before_allocating(monkeypatch):
    monkeypatch.setattr(simulator, "np", NoNumpy())
    big = Circuit(40, 1, (_gate("h", 0), Measure(0, 0)))
    with pytest.raises(ValueError, match="too large to simulate"):
        statevector(big)
    with pytest.raises(ValueError, match="too large to simulate"):
        run(big, 10)
    with pytest.raises(ValueError, match="too large to simulate"):
        run(big, 10, noise=NoiseConfig(enabled=True))


# --- noisy run against the per-shot trajectory loop it replaced ---------------

def _trajectory(circuit, initial, noise, rng):
    n = circuit.num_qubits
    state = zero_state(n) if initial is None else np.asarray(initial, dtype=complex)
    paulis = ("x", "y", "z")
    for op in circuit.ops:
        if not isinstance(op, Gate):
            continue
        state = statevector(Circuit(n, 0, (op,)), state)
        p = noise.p1 if len(op.qubits) == 1 else noise.p2
        if rng.random() < p:
            for q in op.qubits:
                kind = paulis[rng.integers(3)]
                state = statevector(Circuit(n, 0, (Gate(kind, (), (q,)),)), state)
    return state


def _per_shot_run(circuit, shots, noise, seed, initial=None):
    measured = circuit.measured_qubits()
    counts: dict[str, int] = {}
    for shot in range(shots):
        rng = derive_rng(seed, "traj", noise.seed, shot)
        state = _trajectory(circuit, initial, noise, rng)
        probs = np.abs(state) ** 2
        cumulative = np.cumsum(probs / probs.sum())
        index = min(int(np.searchsorted(cumulative, rng.random(), side="right")), probs.size - 1)
        key = "".join(str((index >> q) & 1) for q in sorted(measured, reverse=True))
        counts[key] = counts.get(key, 0) + 1
    return Distribution(counts=counts, shots=shots, bits=len(measured))


@pytest.fixture(scope="module")
def noisy_cases():
    """Every bundled circuit, original and locked, bare and behind a Haar input layer."""
    cases = []
    for i, name in enumerate(benchmarks.NAMES):
        original = parse_circuit(benchmarks.load(name))
        plan = locking.dense_plan(original, seed=i)
        locked = locking.obfuscate(original, plan, seed=i).locked_circuit
        layer = random_input_layer(original.num_qubits, seed=i)
        for circuit in (original, locked):
            cases.append(circuit)
            cases.append(with_input_layer(circuit, layer))
    return cases


_NOISE_SETTINGS = [NoiseConfig(enabled=True, seed=3), NoiseConfig(enabled=True, p1=0.3, p2=0.3, seed=3)]

# (noise, run seed or None for each case's index, _BLOCK_DRAWS or None to keep it)
_PER_SHOT_CASES = {
    "default": (_NOISE_SETTINGS[0], None, None),
    "p0.3": (_NOISE_SETTINGS[1], None, None),
    "no-errors": (NoiseConfig(enabled=True, p1=0.0, p2=0.0, seed=3), None, None),
    "all-replayed": (NoiseConfig(enabled=True, p1=1.0, p2=1.0, seed=3), None, None),
    "two-word-noise-seed": (NoiseConfig(enabled=True, p1=0.3, p2=0.3, seed=2**32 + 3), None, None),
    "max-run-seed": (_NOISE_SETTINGS[1], 2**64 - 1, None),
    "chunked-draws": (_NOISE_SETTINGS[1], None, 40),
}


@pytest.mark.parametrize("noise, run_seed, block_draws", _PER_SHOT_CASES.values(), ids=_PER_SHOT_CASES)
def test_noisy_run_matches_per_shot_trajectories(noisy_cases, monkeypatch, noise, run_seed, block_draws):
    chunks = []
    if block_draws is not None:
        keys = simulator.philox_keys
        monkeypatch.setattr(simulator, "_BLOCK_DRAWS", block_draws)
        monkeypatch.setattr(
            simulator, "philox_keys", lambda *a, **kw: chunks.append(kw["count"]) or keys(*a, **kw)
        )
    for index, circuit in enumerate(noisy_cases):
        seed = index if run_seed is None else run_seed
        chunks.clear()
        assert run(circuit, 30, noise=noise, seed=seed) == _per_shot_run(circuit, 30, noise, seed)
        if block_draws is not None:  # 30 shots span several chunks, the last one short
            assert len(chunks) > 1 and sum(chunks) == 30


def test_noisy_run_initial_state_matches_per_shot_trajectories():
    circuit = Circuit(2, 0, (_gate("h", 0), _gate("cx", 0, 1), _gate("t", 1)))
    initial = np.array([0.6, 0.0, 0.8j, 0.0])
    noise = NoiseConfig(enabled=True, p1=0.3, p2=0.3, seed=2)
    assert run(circuit, 60, initial=initial, noise=noise, seed=5) == _per_shot_run(
        circuit, 60, noise, 5, initial
    )


def test_noisy_run_chunked_batches_match(noisy_cases, monkeypatch):
    calls = []
    evolve = simulator._evolve

    def counting(*args, **kwargs):
        calls.append(args[0].shape[-1])
        return evolve(*args, **kwargs)

    monkeypatch.setattr(simulator, "_BATCH_AMPLITUDES", 32)
    monkeypatch.setattr(simulator, "_evolve", counting)
    noise = _NOISE_SETTINGS[1]
    for seed, circuit in enumerate(noisy_cases[:4]):
        calls.clear()
        got = run(circuit, 30, noise=noise, seed=seed)
        assert len(calls) > 1 and max(calls) <= max(1, 32 >> circuit.num_qubits)
        assert got == _per_shot_run(circuit, 30, noise, seed)


# --- the kernel against the moveaxis + linalg.norm loop it replaced ----------

def _oracle_apply_matrix(tensor, mat, qubits, n):
    k = len(qubits)
    axes = [n - 1 - q for q in qubits]
    moved = np.moveaxis(tensor, axes, range(k))
    shape = moved.shape
    out = mat @ moved.reshape(2**k, -1)
    return np.moveaxis(out.reshape(shape), range(k), axes)


def _oracle_evolve(tensor, program, n, errors=None):
    shape = tensor.shape
    batched = len(shape) > n
    flat = tensor.reshape(2**n, -1) if batched else tensor.reshape(-1)
    errors = errors or {}
    for index, (mat, qubits) in enumerate(program):
        flat = _oracle_apply_matrix(tensor, mat, qubits, n).reshape(flat.shape)
        for column, q, pauli in errors.get(index, ()):
            state = flat[:, column].reshape((2,) * n)
            flat[:, column] = _oracle_apply_matrix(state, pauli, (q,), n).reshape(-1)
        if batched:
            norms = np.linalg.norm(flat, axis=0)
            drifted = ~(np.abs(norms - 1.0) <= 1e-10)
            if drifted.any():
                raise ArithmeticError(f"statevector norm drifted to {norms[drifted][0]}")
        else:
            norm = np.linalg.norm(flat)
            if not abs(norm - 1.0) <= 1e-10:
                raise ArithmeticError(f"statevector norm drifted to {norm}")
        tensor = flat.reshape(shape)
    return flat


def _simulate(circuit, noise, shots):
    # unitaries stop at 10 qubits; wider circuits compare states and counts
    unitary = unitary_of(circuit) if circuit.num_qubits <= simulator._UNITARY_QUBIT_LIMIT else None
    return statevector(circuit), unitary, run(circuit, shots, noise=noise, seed=2)


def _assert_matches_oracle(circuit, monkeypatch, noise, shots=30):
    """Bit-identical statevector and unitary, equal noisy counts, against the oracle kernel."""
    state, unitary, counts = _simulate(circuit, noise, shots)
    with monkeypatch.context() as patched:
        patched.setattr(simulator, "_evolve", _oracle_evolve)
        want_state, want_unitary, want_counts = _simulate(circuit, noise, shots)
    assert np.array_equal(state, want_state)
    assert np.array_equal(unitary, want_unitary)  # None == None beyond 10 qubits
    assert counts == want_counts


def test_kernel_bit_identical_to_moveaxis_loop(noisy_cases, monkeypatch):
    for circuit in noisy_cases:
        _assert_matches_oracle(circuit, monkeypatch, _NOISE_SETTINGS[1])


def test_kernel_bit_identical_on_descending_non_adjacent_qubits(monkeypatch):
    gates = (
        _gate("h", 0), _gate("u3", 4, params=(0.3, 1.1, 2.9)), _gate("cx", 3, 0),
        _gate("ccx", 0, 4, 2), _gate("ch", 4, 1), _gate("cy", 2, 0), _gate("rz", 3, params=(0.7,)),
    )
    _assert_matches_oracle(Circuit(5, 0, gates), monkeypatch, _NOISE_SETTINGS[1])


def _wide_circuit(n, seed):
    """Every qubit in superposition, then gates on the first, last and
    non-adjacent qubits in several operand orders, ``ccx`` included, then
    random gates."""
    rng = np.random.default_rng(seed)
    last, mid = n - 1, n // 2
    gates = [_gate("h", q) for q in range(n)] + [
        _gate("u3", 0, params=(0.3, 1.1, 2.9)), _gate("u3", last, params=(2.2, 0.4, 1.7)),
        _gate("cx", 0, last), _gate("cy", last, 0), _gate("ch", mid, 1), _gate("cz", 2, last - 1),
        _gate("ccx", 0, last, mid), _gate("ccx", last, mid, 0), _gate("ccx", 1, last - 2, 3),
        _gate("rz", mid, params=(0.7,)), _gate("t", last), _gate("sdg", 0),
    ]
    kinds = sorted(GATE_SPECS)
    for _ in range(24):
        kind = kinds[rng.integers(len(kinds))]
        nq, n_params = GATE_SPECS[kind]
        qubits = tuple(int(q) for q in rng.choice(n, nq, replace=False))
        gates.append(_gate(kind, *qubits, params=tuple(rng.uniform(-7.0, 7.0, n_params))))
    return Circuit(n, 0, tuple(gates))


@pytest.mark.parametrize("n", [11, 15])
def test_kernel_bit_identical_on_wide_states(n, monkeypatch):
    # p = 0.3 puts error insertions in most columns of the noisy batches,
    # which hold 2**18 >> n columns each
    noise = NoiseConfig(enabled=True, p1=0.3, p2=0.3, seed=4)
    _assert_matches_oracle(_wide_circuit(n, seed=n), monkeypatch, noise, shots=12)


def test_evolve_leaves_its_input_unchanged():
    n = 5
    circuit = _wide_circuit(n, seed=3)
    program = simulator._program(circuit)
    errors = {0: [(0, 1, simulator._PAULI_LIST[1])], 5: [(2, 4, simulator._PAULI_LIST[0])]}
    rng = np.random.default_rng(8)
    for shape in [(2,) * n, (2,) * n + (3,)]:
        tensor = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        tensor /= np.linalg.norm(tensor.reshape(2**n, -1), axis=0)
        before = tensor.copy()
        simulator._evolve(tensor, program, n, errors if len(shape) > n else None)
        assert np.array_equal(tensor, before)


def test_noisy_evolve_allocates_no_state_per_gate():
    # gather, result and the natural-order copy returned at the end: 3x the batch;
    # an insertion allocates only its own column's operand and product
    n, columns = 12, 4
    program = simulator._program(_wide_circuit(n, seed=5))
    errors = {
        index: [(index % columns, qubits[0], simulator._PAULI_LIST[index % 3])]
        for index, (_, qubits) in enumerate(program)
    }
    tensor = np.zeros((2,) * n + (columns,), dtype=complex)
    tensor[(0,) * n] = 1.0
    simulator._evolve(tensor, program, n, errors)  # fills the permutation cache
    tracemalloc.start()
    try:
        simulator._evolve(tensor, program, n, errors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.25 * tensor.nbytes


def test_batch_norm_check_allocates_no_state_per_gate():
    # every gate acts on qubit 11, axis 0, so the result comes back in natural
    # order without a copy: gather and result, 2x the batch; a state-sized
    # temporary per norm check would make it 3x
    n, columns = 12, 4
    kinds = ("h", "x", "y", "z", "s", "t") * 2
    program = simulator._program(Circuit(n, 0, tuple(_gate(kind, 11) for kind in kinds)))
    tensor = np.zeros((2,) * n + (columns,), dtype=complex)
    tensor[(0,) * n] = 1.0
    simulator._evolve(tensor, program, n)  # fills the permutation cache
    tracemalloc.start()
    try:
        simulator._evolve(tensor, program, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * tensor.nbytes


def test_statevector_results_do_not_share_memory():
    circuit = _wide_circuit(7, seed=2)
    first, second = statevector(circuit), statevector(circuit)
    assert np.array_equal(first, second) and not np.shares_memory(first, second)
    initial = statevector(circuit)
    assert not np.shares_memory(statevector(circuit, initial), initial)


_ANGLES = st.floats(min_value=-7.0, max_value=7.0, allow_nan=False)


@st.composite
def _circuits(draw):
    """1-6 qubits, every gate kind, operands in any order on any qubits."""
    n = draw(st.integers(1, 6))
    kinds = sorted(k for k, (nq, _) in GATE_SPECS.items() if nq <= n)
    ops = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=12)):
        nq, n_params = GATE_SPECS[kind]
        qubits = tuple(draw(st.permutations(range(n)))[:nq])
        params = tuple(draw(st.lists(_ANGLES, min_size=n_params, max_size=n_params)))
        ops.append(Gate(kind, params, qubits))
    return Circuit(n, 0, tuple(ops))


@given(_circuits())
def test_kernel_bit_identical_property(circuit):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_matches_oracle(circuit, monkeypatch, NoiseConfig(enabled=True, p1=0.2, p2=0.2, seed=1), shots=10)


# --- the norm check on every path ------------------------------------------------

def test_norm_check_catches_non_unitary_gate_on_every_path(monkeypatch):
    exact = simulator.gate_matrix
    monkeypatch.setattr(
        simulator, "gate_matrix", lambda gate: 1.5 * exact(gate) if gate.kind == "t" else exact(gate)
    )
    circuit = Circuit(3, 0, (_gate("h", 0), _gate("cx", 0, 2), _gate("t", 2), _gate("h", 1)))
    for simulate in (
        statevector,
        unitary_of,
        lambda c: run(c, 20, noise=NoiseConfig(enabled=True, p1=0.3, p2=0.3, seed=1)),
    ):
        with pytest.raises(ArithmeticError, match="statevector norm drifted"):
            simulate(circuit)


def test_norm_check_is_per_column(monkeypatch):
    # Z errors scale by 1 + 3e-10, above the 1e-10 tolerance in their own
    # column but below it in any norm pooled over the batch's columns
    circuit = Circuit(2, 0, (_gate("h", 0), _gate("cx", 0, 1), _gate("t", 1)))
    noise = NoiseConfig(enabled=True, p1=0.1, p2=0.1, seed=12)
    program = simulator._program(circuit)
    patterns = {
        simulator._draw_errors(program, [0.1] * 3, derive_rng(0, "traj", noise.seed, shot))
        for shot in range(20)
    }
    with_z = [p for p in patterns if any(pauli == 2 for _, _, pauli in p)]
    assert len(patterns) >= 4 and len(with_z) == 1  # one drifting column in the batch
    run(circuit, 20, noise=noise, seed=0)
    x, y, z = simulator._PAULI_LIST
    monkeypatch.setattr(simulator, "_PAULI_LIST", (x, y, (1 + 3e-10) * z))
    with pytest.raises(ArithmeticError, match="norm drifted"):
        run(circuit, 20, noise=noise, seed=0)
