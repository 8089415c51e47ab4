import functools
import gc
import itertools
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
from qlock.simulator import (
    Distribution,
    NoiseConfig,
    compile_program,
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
    # inside a block of four gates, the block's column-norm check sees it
    def block(angle):
        return Circuit(2, 0, (_gate("h", 0), _gate("cx", 0, 1), _gate("rz", 1, params=(angle,)), _gate("h", 1)))

    assert len(compile_program(block(0.5))) == 1
    with pytest.raises(ArithmeticError, match="drifted to nan"):
        compile_program(block(math.inf))


def test_state_size_guard_refuses_before_allocating(monkeypatch):
    monkeypatch.setattr(simulator, "np", NoNumpy())
    big = Circuit(40, 1, (_gate("h", 0), Measure(0, 0)))
    with pytest.raises(ValueError, match="too large to simulate"):
        statevector(big)
    with pytest.raises(ValueError, match="too large to simulate"):
        run(big, 10)
    with pytest.raises(ValueError, match="too large to simulate"):
        run(big, 10, noise=NoiseConfig(enabled=True))
    # a density tensor holds 4**n amplitudes: noisy runs stop at 13 qubits
    fourteen = Circuit(14, 1, (_gate("h", 0), Measure(0, 0)))
    with pytest.raises(ValueError, match="14-qubit circuit too large to simulate with noise \\(at most 13 qubits\\)"):
        run(fourteen, 10, noise=NoiseConfig(enabled=True))


# --- noisy run against a naive Kraus sum and a per-shot loop -----------------------

def _full(matrix, qubits, n):
    """``matrix`` on ``qubits`` (first listed most significant) as a ``2**n``-square
    operator, built by indexing alone, without the kernel."""
    index = np.arange(2**n)
    sub = sum(((index >> q) & 1) << (len(qubits) - 1 - place) for place, q in enumerate(qubits))
    rest = index & ~sum(1 << q for q in qubits)
    return matrix[sub[:, None], sub[None, :]] * (rest[:, None] == rest[None, :])


def _kraus_diagonal(circuit, noise, initial=None):
    """The final density matrix's diagonal by a naive Kraus sum: after each gate
    ``U``, ``(1 - p) U rho U^dagger`` plus ``p / 3**k`` times ``(P U) rho (P U)^dagger``
    for each of the ``3**k`` Pauli combinations ``P`` on the gate's ``k`` qubits."""
    n = circuit.num_qubits
    state = zero_state(n) if initial is None else np.asarray(initial, dtype=complex)
    rho = np.outer(state, state.conj())
    paulis = [[_full(m, (q,), n) for m in simulator._PAULI_LIST] for q in range(n)]
    for gate in circuit.gates():
        k = len(gate.qubits)
        rate = noise.p1 if k == 1 else noise.p2
        u = _full(gate_matrix(gate), gate.qubits, n)
        rho = u @ rho @ u.conj().T
        mixed = (1 - rate) * rho
        for combination in itertools.product(*(paulis[q] for q in gate.qubits)):
            pauli = functools.reduce(np.matmul, combination)
            mixed += rate / 3**k * (pauli @ rho @ pauli.conj().T)
        rho = mixed
    return rho.diagonal().real


def _run_weights(monkeypatch, circuit, noise, initial=None):
    """The per-basis-index probabilities ``run`` samples from."""
    weights = []
    marginal = simulator._marginal

    def recording(w, *args):
        weights.append(w)
        return marginal(w, *args)

    with monkeypatch.context() as patched:
        patched.setattr(simulator, "_marginal", recording)
        run(circuit, 10, initial=initial, noise=noise, seed=1)
    (got,) = weights
    return got


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


_NOISE_SETTINGS = [NoiseConfig(enabled=True), NoiseConfig(enabled=True, p1=0.3, p2=0.3)]


@pytest.mark.parametrize("noise", [*_NOISE_SETTINGS, NoiseConfig(enabled=True, p1=1.0, p2=1.0)], ids=["default", "p0.3", "p1"])
def test_noisy_run_weights_match_a_kraus_sum(noisy_cases, monkeypatch, noise):
    for circuit in noisy_cases:
        got = _run_weights(monkeypatch, circuit, noise)
        assert np.max(np.abs(got - _kraus_diagonal(circuit, noise))) <= 1e-12


def test_noisy_run_weights_from_an_initial_state_match_a_kraus_sum(noisy_cases, monkeypatch):
    rng = np.random.default_rng(6)
    for circuit in noisy_cases[::2]:  # every circuit without an input layer
        n = circuit.num_qubits
        initial = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        initial /= np.linalg.norm(initial)
        got = _run_weights(monkeypatch, circuit, _NOISE_SETTINGS[1], initial)
        assert np.max(np.abs(got - _kraus_diagonal(circuit, _NOISE_SETTINGS[1], initial))) <= 1e-12


def _trajectory(circuit, initial, noise, row):
    """One shot's final state, one plain gate at a time, reading its row of
    uniforms: a gate whose uniform ``u`` falls below its rate is followed by
    the Paulis that ``int(u / rate * 3**k)``'s base-3 digits pick."""
    n = circuit.num_qubits
    state = zero_state(n) if initial is None else np.asarray(initial, dtype=complex)
    for op, u in zip(circuit.gates(), row):
        state = statevector(Circuit(n, 0, (op,)), state)
        rate = noise.p1 if len(op.qubits) == 1 else noise.p2
        if u < rate:
            pick = int(u / rate * 3 ** len(op.qubits))
            for place, q in enumerate(op.qubits):
                kind = "xyz"[pick // 3**place % 3]
                state = statevector(Circuit(n, 0, (Gate(kind, (), (q,)),)), state)
    return state


# (noise, run seed) of each contingency test against per-shot trajectories
_PER_SHOT_CASES = {
    "default": (_NOISE_SETTINGS[0], 5),
    "p0.3": (_NOISE_SETTINGS[1], 5),
    "no-errors": (NoiseConfig(enabled=True, p1=0.0, p2=0.0), 5),
    "all-replayed": (NoiseConfig(enabled=True, p1=1.0, p2=1.0), 5),
    "max-run-seed": (_NOISE_SETTINGS[1], 2**64 - 1),
}


@pytest.mark.parametrize("noise, seed", _PER_SHOT_CASES.values(), ids=_PER_SHOT_CASES)
def test_noisy_run_matches_per_shot_trajectories(noise, seed):
    # many shots of the exact density matrix against outcomes sampled one
    # trajectory at a time, as one contingency table over the outcomes either
    # saw. Without noise the circuit always gives 011; X and Y errors flip
    # bits, and Z errors on qubit 1 between its two h gates do too
    gates = (
        _gate("x", 0), _gate("h", 1), _gate("cx", 0, 2), _gate("cz", 2, 1),
        _gate("h", 1), _gate("ccx", 0, 1, 2),
    )
    circuit = Circuit(3, 3, gates + tuple(Measure(q, q) for q in range(3)))
    rng = np.random.default_rng(11)
    sampled = []
    for row in rng.random((2000, len(gates))):
        probs = np.abs(_trajectory(circuit, None, noise, row)) ** 2
        sampled.append(rng.choice(8, p=probs / probs.sum()))
    dist = run(circuit, 200_000, noise=noise, seed=seed)
    table = np.array([np.bincount(sampled, minlength=8), [dist.counts.get(format(i, "03b"), 0) for i in range(8)]])
    assert stats.chi2_contingency(table[:, table.sum(axis=0) > 0]).pvalue > 0.001


def test_noisy_run_without_errors_equals_noiseless_run(noisy_cases):
    noise = NoiseConfig(enabled=True, p1=0.0, p2=0.0, seed=3)
    for index, circuit in enumerate(noisy_cases):
        for seed in (index, index + 100, 2**64 - 1):
            assert run(circuit, 50, noise=noise, seed=seed) == run(circuit, 50, seed=seed)


def test_noisy_run_samples_a_diagonal_rounded_below_zero():
    # qubit 0 ends in |0>, and with p1 = 0 rounding leaves its |1> entries a
    # hair below zero (-5.6e-17 on x86 OpenBLAS), which a multinomial refuses
    u3 = _gate("u3", 1, params=(5.323866356879086, 5 * math.pi / 4, 3 * math.pi / 2))
    gates = (_gate("h", 0), u3, _gate("h", 0), _gate("z", 0))
    dist = run(Circuit(2, 0, gates), 100, noise=NoiseConfig(enabled=True, p1=0.0, p2=1e-3), seed=0)
    assert all(outcome[-1] == "0" for outcome in dist.counts)


def test_noisy_run_memory_does_not_depend_on_shots():
    # a density matrix holds no per-shot state: 2**30 shots peak where 2**10 do
    circuit = _generated_circuit(3, 20, seed=1)
    noise = _NOISE_SETTINGS[1]
    run(circuit, 2**10, noise=noise)  # fills the caches
    peaks = []
    for shots in (2**10, 2**30):
        tracemalloc.start()
        try:
            dist = run(circuit, shots, noise=noise, seed=2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert sum(dist.counts.values()) == shots
    assert peaks[0] == peaks[1]


def test_batch_columns_do_not_depend_on_their_position(noisy_cases):
    # each batch column must come out the same wherever it sits, and as when
    # evolved alone, through the program evaluate() compiles for the batch
    for circuit in noisy_cases[::2]:  # every circuit without an input layer
        n = circuit.num_qubits
        states = np.stack([statevector(Circuit(n, 0, random_input_layer(n, seed))) for seed in range(6)], axis=1)
        program = compile_program(circuit)
        batch = statevector(circuit, states, program)
        permuted = np.random.default_rng(n).permutation(6)
        shuffled = statevector(circuit, states[:, permuted], program)
        for column in range(6):
            assert np.array_equal(batch[:, column], statevector(circuit, states[:, column], program))
        for column, source in enumerate(permuted):
            assert np.array_equal(shuffled[:, column], batch[:, source])


# --- the kernel against the moveaxis + linalg.norm loop it replaced ----------

def _oracle_apply_matrix(tensor, mat, qubits, n):
    k = len(qubits)
    axes = [n - 1 - q for q in qubits]
    moved = np.moveaxis(tensor, axes, range(k))
    shape = moved.shape
    out = mat @ moved.reshape(2**k, -1)
    return np.moveaxis(out.reshape(shape), range(k), axes)


def _oracle_evolve(tensor, program, n, density=False):
    """The moveaxis loop; a batch is its columns, each evolved alone, and a
    density tensor is checked by its trace."""
    if tensor.ndim > n:
        flat = tensor.reshape(2**n, -1)
        lone = [_oracle_evolve(flat[:, c].reshape((2,) * n), program, n) for c in range(flat.shape[1])]
        return np.stack(lone, axis=1)
    flat = tensor.reshape(-1)
    for mat, qubits in program:
        flat = _oracle_apply_matrix(tensor, mat, qubits, n).reshape(-1)
        if density:
            trace = np.trace(flat.reshape(2 ** (n // 2), -1)).real
            if not abs(trace - 1.0) <= 1e-10:
                raise ArithmeticError(f"statevector norm drifted to {trace}")
        else:
            norm = np.linalg.norm(flat)
            if not abs(norm - 1.0) <= 1e-10:
                raise ArithmeticError(f"statevector norm drifted to {norm}")
        tensor = flat.reshape(tensor.shape)
    return flat


def _simulate(circuit, noise, shots, initial):
    # unitaries stop at 10 qubits; wider circuits compare states and counts
    unitary = unitary_of(circuit) if circuit.num_qubits <= simulator._UNITARY_QUBIT_LIMIT else None
    return statevector(circuit, initial), unitary, run(circuit, shots, noise=noise, seed=2)


def _assert_matches_oracle(circuit, monkeypatch, noise, shots=30, initial=None):
    """Bit-identical statevector (from ``initial``, one state or a batch) and
    unitary, equal counts (noisy ones unless ``noise`` is None), against the
    oracle kernel."""
    state, unitary, counts = _simulate(circuit, noise, shots, initial)
    with monkeypatch.context() as patched:
        patched.setattr(simulator, "_evolve", _oracle_evolve)
        want_state, want_unitary, want_counts = _simulate(circuit, noise, shots, initial)
    assert np.array_equal(state, want_state)
    assert np.array_equal(unitary, want_unitary)  # None == None beyond 10 qubits
    assert counts == want_counts


def test_kernel_bit_identical_to_moveaxis_loop(noisy_cases, monkeypatch):
    for circuit in noisy_cases:
        _assert_matches_oracle(circuit, monkeypatch, _NOISE_SETTINGS[1])


def test_kernel_bit_identical_on_batched_inputs(noisy_cases, monkeypatch):
    # a batch of Haar input states, as evaluate() evolves them
    for circuit in noisy_cases[::2]:  # every circuit without an input layer
        n = circuit.num_qubits
        layers = [random_input_layer(n, seed) for seed in range(5)]
        states = np.stack([statevector(Circuit(n, 0, layer)) for layer in layers], axis=1)
        _assert_matches_oracle(circuit, monkeypatch, _NOISE_SETTINGS[1], initial=states)


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
    # noiseless only: the density tensors of the narrow cases cover noisy runs
    _assert_matches_oracle(_wide_circuit(n, seed=n), monkeypatch, None, shots=12)


def test_evolve_leaves_its_input_unchanged():
    n = 5
    circuit = _wide_circuit(n, seed=3)
    rng = np.random.default_rng(8)
    for shape in [(2,) * n, (2,) * n + (3,)]:
        tensor = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        tensor /= np.linalg.norm(tensor.reshape(2**n, -1), axis=0)
        before = tensor.copy()
        simulator._evolve(tensor, simulator._program(circuit), n)
        assert np.array_equal(tensor, before)
    square = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    rho = square @ square.conj().T
    rho = (rho / np.trace(rho)).reshape((2,) * (2 * n))
    before = rho.copy()
    simulator._evolve(rho, simulator._program(circuit, noise=_NOISE_SETTINGS[1]), 2 * n, density=True)
    assert np.array_equal(rho, before)


def test_noisy_evolve_allocates_no_state_per_gate():
    # a density tensor of 7 qubits: gather and result, 2x the tensor; a
    # state-sized temporary per gate or per trace check would make it 3x
    n = 7
    program = simulator._program(_wide_circuit(n, seed=5), noise=_NOISE_SETTINGS[1])
    tensor = np.zeros((2,) * (2 * n), dtype=complex)
    tensor[(0,) * (2 * n)] = 1.0
    simulator._evolve(tensor, program, 2 * n, density=True)  # fills the permutation cache
    tracemalloc.start()
    try:
        simulator._evolve(tensor, program, 2 * n, density=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * tensor.nbytes


def test_batch_norm_check_allocates_no_state_per_gate():
    # gather and result, 2x the batch; a state-sized temporary per norm
    # check, or per copy back into natural order, would make it 3x
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
def _circuits(draw, max_qubits=6, max_gates=12):
    """1 to ``max_qubits`` qubits, every gate kind, operands in any order on any qubits."""
    n = draw(st.integers(1, max_qubits))
    kinds = sorted(k for k, (nq, _) in GATE_SPECS.items() if nq <= n)
    ops = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=max_gates)):
        nq, n_params = GATE_SPECS[kind]
        qubits = tuple(draw(st.permutations(range(n)))[:nq])
        params = tuple(draw(st.lists(_ANGLES, min_size=n_params, max_size=n_params)))
        ops.append(Gate(kind, params, qubits))
    return Circuit(n, 0, tuple(ops))


@given(_circuits())
def test_kernel_bit_identical_property(circuit):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_matches_oracle(circuit, monkeypatch, NoiseConfig(enabled=True, p1=0.2, p2=0.2, seed=1), shots=10)


@given(_circuits(max_qubits=8), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_batch_columns_match_single_statevectors(circuit, columns, seed):
    # every column count up to 40 meets the matmul's edge blocks at every width
    n = circuit.num_qubits
    rng = np.random.default_rng(seed)
    states = rng.normal(size=(2**n, columns)) + 1j * rng.normal(size=(2**n, columns))
    states /= np.linalg.norm(states, axis=0)
    batch = statevector(circuit, states)
    assert batch.shape == states.shape
    for column in range(columns):
        assert np.array_equal(batch[:, column], statevector(circuit, states[:, column]))


@pytest.mark.parametrize("shape", [(4, 2), (8, 0), (2, 2, 2), (8, 1, 1), ()])
def test_statevector_refuses_malformed_initial(shape):
    circuit = Circuit(3, 0, (_gate("h", 0),))
    with pytest.raises(ValueError, match="initial state has wrong dimension") as info:
        statevector(circuit, np.ones(shape, dtype=complex))
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("noise", [None, NoiseConfig(enabled=True)])
def test_run_refuses_a_batch_of_initial_states(noise):
    batch = np.eye(4, 2, dtype=complex)
    with pytest.raises(ValueError, match="run samples one state") as info:
        run(Circuit(2, 0, (_gate("h", 0),)), 10, initial=batch, noise=noise)
    assert "\n" not in str(info.value)


# --- the norm check on every path ------------------------------------------------

def test_norm_check_catches_non_unitary_gate_on_every_path(monkeypatch):
    exact = simulator.gate_matrix
    monkeypatch.setattr(
        simulator, "gate_matrix", lambda gate: 1.5 * exact(gate) if gate.kind == "t" else exact(gate)
    )
    circuit = Circuit(3, 0, (_gate("h", 0), _gate("cx", 0, 2), _gate("t", 2), _gate("h", 1)))
    for simulate in (
        statevector,
        lambda c: statevector(c, np.eye(8, 3, dtype=complex)),
        unitary_of,
        lambda c: run(c, 20, noise=NoiseConfig(enabled=True, p1=0.3, p2=0.3, seed=1)),
    ):
        with pytest.raises(ArithmeticError, match="statevector norm drifted"):
            simulate(circuit)


def test_norm_check_is_per_column(monkeypatch):
    # a t that scales |1> by 1 + 3e-10 drifts only the batch column whose
    # qubit 0 is set: above the 1e-10 tolerance in its own column, below it
    # in any norm pooled over the batch's four columns
    circuit = Circuit(2, 0, (_gate("h", 1), _gate("t", 0)))
    batch = np.eye(4, dtype=complex)[:, [0, 2, 1, 0]]
    statevector(circuit, batch)
    exact = simulator.gate_matrix
    monkeypatch.setattr(
        simulator, "gate_matrix", lambda gate: np.diag([1.0, 1 + 3e-10]) @ exact(gate) if gate.kind == "t" else exact(gate)
    )
    with pytest.raises(ArithmeticError, match="norm drifted"):
        statevector(circuit, batch)


def test_norm_check_catches_non_unitary_gate_in_a_fused_block(monkeypatch):
    exact = simulator.gate_matrix
    monkeypatch.setattr(
        simulator, "gate_matrix", lambda gate: 1.5 * exact(gate) if gate.kind == "t" else exact(gate)
    )
    gates = (_gate("h", 0), _gate("cx", 0, 2), _gate("t", 2), _gate("h", 1))
    narrow = Circuit(3, 0, gates)
    for simulate in (
        lambda: statevector(narrow, program=compile_program(narrow)),
        lambda: statevector(narrow, np.eye(8, 3, dtype=complex), compile_program(narrow)),
        lambda: statevector(narrow),
        lambda: run(narrow, 10),
    ):
        with pytest.raises(ArithmeticError, match="statevector norm drifted"):
            simulate()


def test_block_norm_check_reads_every_basis_state(monkeypatch):
    # a t that scales |1> only leaves |0...0> at norm 1, so no state check
    # sees it; the block holding it fails its check on the columns with qubit 0 set
    exact = simulator.gate_matrix
    monkeypatch.setattr(
        simulator, "gate_matrix", lambda gate: np.diag([1.0, 1.5]) @ exact(gate) if gate.kind == "t" else exact(gate)
    )
    circuit = Circuit(12, 0, (_gate("t", 0), _gate("cx", 0, 1), _gate("x", 2)))
    statevector(circuit, program=simulator._program(circuit))
    with pytest.raises(ArithmeticError, match="statevector norm drifted to 1.5"):
        statevector(circuit)


# --- gate fusion -------------------------------------------------------------------


@given(_circuits(max_qubits=9, max_gates=40), st.sampled_from([3, 4, 5]))
def test_fused_program_matches_the_gate_by_gate_kernel(circuit, k):
    n = circuit.num_qubits
    program = simulator._program(circuit)
    fused = simulator._fuse(program, k)
    assert len(fused) <= len(program)
    assert all(len(qubits) <= k for _, qubits in fused)
    rng = np.random.default_rng(n)
    state = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    state /= np.linalg.norm(state)
    tensor = state.reshape((2,) * n)
    drift = simulator._evolve(tensor, fused, n) - simulator._evolve(tensor, program, n)
    assert np.max(np.abs(drift), initial=0.0) <= 1e-12
    if n <= simulator._UNITARY_QUBIT_LIMIT:
        eye = np.eye(2**n, dtype=complex).reshape((2,) * n + (2**n,))
        assert np.max(np.abs(unitary_of(circuit) - simulator._evolve(eye, program, n))) <= 1e-12


def _placed(matrix, wires, m):
    """``matrix`` on ``wires`` of ``m`` qubits, built as ``kron(matrix, identity)``
    on the wires in the order ``wires``, then the others from the highest down,
    with rows and columns permuted into natural little-endian order."""
    k = len(wires)
    order = list(wires) + [w for w in reversed(range(m)) if w not in wires]
    kron = np.kron(matrix, np.eye(2 ** (m - k)))
    index = [sum((x >> w & 1) << (m - 1 - j) for j, w in enumerate(order)) for x in range(2**m)]
    return kron[np.ix_(index, index)]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_embed_places_every_gate_exactly(m):
    # every wire tuple and every gate kind of that arity, in one call; the
    # block's qubits are not its wires, so the map from one to the other counts
    rng = np.random.default_rng(m)
    gates = []
    for kind, (nq, n_params) in sorted(GATE_SPECS.items()):
        for wires in itertools.permutations(range(m), nq):
            gate = _gate(kind, *(20 - w for w in wires), params=tuple(rng.uniform(-7.0, 7.0, n_params)))
            gates.append(((gate_matrix(gate), gate.qubits), {20 - w: w for w in range(m)}))
    embedded = simulator._embed(gates, m)
    assert embedded.shape == (len(gates), 2**m, 2**m)
    for ((matrix, qubits), local), got in zip(gates, embedded):
        assert np.array_equal(got, _placed(matrix, tuple(map(local.__getitem__, qubits)), m))


def _reference_fuse(program, k, compose=None):
    """Fusion by the general rule alone, each block composed as it closes by one
    ``_oracle_apply_matrix`` per gate on the identity: the reference for the
    blocks ``_fuse`` forms and the matrices ``_compose`` builds together.
    ``compose`` replaces the per-gate composer."""
    compose = compose or _reference_compose
    fused, open_blocks = [], {}
    for gate in program:
        touched = []
        for q in gate[1]:
            b = open_blocks.get(q)
            if b is not None and b not in touched:
                touched.append(b)
        qubits = set(gate[1]).union(*[b.qubits for b in touched])
        if len(qubits) > k:
            fits = [b for b in touched if len(b.qubits.union(gate[1])) <= k]
            keep = max(fits, key=lambda b: len(b.gates), default=None)
            for b in touched:
                if b is not keep:
                    fused.append(compose(b))
                    for q in b.qubits:
                        del open_blocks[q]
            touched = [keep] if keep else []
            qubits = set(gate[1]).union(*[b.qubits for b in touched])
        block = touched[0] if touched else simulator._Block(qubits, [])
        for b in touched[1:]:
            block.gates += b.gates
        block.qubits = qubits
        block.gates.append(gate)
        for q in qubits:
            open_blocks[q] = block
    fused.extend(compose(b) for b in dict.fromkeys(open_blocks.values()))
    return fused


def _reference_compose(block):
    if len(block.gates) == 1:
        return block.gates[0]
    order = tuple(sorted(block.qubits, reverse=True))
    m = len(order)
    local = {q: m - 1 - i for i, q in enumerate(order)}
    tensor = np.eye(2**m, dtype=complex).reshape((2,) * m + (2**m,))
    for mat, qubits in block.gates:
        tensor = _oracle_apply_matrix(tensor, mat, tuple(map(local.__getitem__, qubits)), m)
    return tensor.reshape(2**m, 2**m), order


@given(_circuits(max_qubits=9, max_gates=40), st.sampled_from([3, 4, 5]))
def test_composed_blocks_match_the_per_gate_composer(circuit, k):
    program = simulator._program(circuit)
    fused, reference = simulator._fuse(program, k), _reference_fuse(program, k)
    assert [qubits for _, qubits in fused] == [qubits for _, qubits in reference]
    for (matrix, _), (expected, _) in zip(fused, reference):
        assert np.max(np.abs(matrix - expected)) <= 1e-14


@given(_circuits(max_qubits=9, max_gates=40), st.sampled_from([3, 4, 5]))
def test_fusion_keeps_each_qubits_gate_order(circuit, k):
    # with blocks left uncomposed, every gate lands in exactly one block, no
    # block spans more than k qubits, each qubit meets its gates in program
    # order, reading the blocks in emitted order, and the one-qubit fast path
    # forms the blocks the general rule forms
    program = simulator._program(circuit)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(simulator, "_compose", lambda blocks: blocks)
        blocks = simulator._fuse(program, k)
    reference = _reference_fuse(program, k, compose=lambda block: block)
    assert all(len(block.qubits) <= k for block in blocks)
    assert all(set(q for gate in block.gates for q in gate[1]) == block.qubits for block in blocks)
    emitted = [gate for block in blocks for gate in block.gates]
    assert sorted(map(id, emitted)) == sorted(map(id, program))
    for q in range(circuit.num_qubits):
        assert [id(g) for g in emitted if q in g[1]] == [id(g) for g in program if q in g[1]]
    assert [[id(g) for g in b.gates] for b in blocks] == [[id(g) for g in b.gates] for b in reference]


def test_one_qubit_gates_join_their_qubits_open_block(monkeypatch):
    # t on 0 joins h's block, x on 2 opens one, z on 1 joins the cx block, and
    # the cx on 1, 2 merges the blocks on 0, 1 and 2; s on 3 opens one, the
    # ccx on 3, 0, 1 does not fit the block on 0, 1, 2, which closes, and
    # joins 3's block, and y on 3 follows it there
    gates = [_gate("h", 0), _gate("t", 0), _gate("x", 2), _gate("cx", 0, 1), _gate("z", 1),
             _gate("cx", 1, 2), _gate("s", 3), _gate("ccx", 3, 0, 1), _gate("y", 3)]
    program = simulator._program(Circuit(4, 0, tuple(gates)))
    index = {id(gate): i for i, gate in enumerate(program)}
    monkeypatch.setattr(simulator, "_compose", lambda blocks: blocks)
    structure = [
        [(b.qubits, [index[id(g)] for g in b.gates]) for b in blocks]
        for blocks in (simulator._fuse(program, 3), _reference_fuse(program, 3, compose=lambda block: block))
    ]
    assert structure[0] == structure[1] == [({0, 1, 2}, [0, 1, 3, 4, 2, 5]), ({0, 1, 3}, [6, 7, 8])]


def _generated_circuit(n, count, seed):
    """``count`` gates in equal shares of the alphabet, angles on the pi/4 grid."""
    rng = np.random.default_rng(seed)
    kinds = sorted(GATE_SPECS)
    ops = []
    for _ in range(count):
        kind = kinds[rng.integers(len(kinds))]
        nq, n_params = GATE_SPECS[kind]
        qubits = tuple(int(q) for q in rng.choice(n, nq, replace=False))
        ops.append(Gate(kind, tuple(float(a) for a in rng.integers(0, 8, n_params) * np.pi / 4), qubits))
    return Circuit(n, 0, tuple(ops))


@pytest.mark.parametrize("group, window", [(1, 2**20), (1, 1), (3, 7), (2**20, 1), (32, 2**9)])
def test_group_and_window_sizes_do_not_change_the_program(group, window, monkeypatch):
    # one long 3-qubit block, many short ones of every width, and one-gate
    # blocks, against one group holding every block in one window
    rng = np.random.default_rng(2)
    long = Circuit(3, 0, tuple(
        _gate("u3", q, params=tuple(rng.uniform(-7, 7, 3))) if i % 3 else _gate("cx", q, (q + 1) % 3)
        for i, q in enumerate(rng.integers(0, 3, 300).tolist())
    ))
    circuits = [long, _wide_circuit(11, seed=3), _generated_circuit(9, 600, seed=4)]
    monkeypatch.setattr(simulator, "_COMPOSE_GROUP", 2**20)
    monkeypatch.setattr(simulator, "_COMPOSE_WINDOW", 2**20)
    whole = [compile_program(c) for c in circuits]
    monkeypatch.setattr(simulator, "_COMPOSE_GROUP", group)
    monkeypatch.setattr(simulator, "_COMPOSE_WINDOW", window)
    for circuit, expected in zip(circuits, whole):
        program = compile_program(circuit)
        assert [qubits for _, qubits in program] == [qubits for _, qubits in expected]
        assert all(np.array_equal(a, b) for (a, _), (b, _) in zip(program, expected))


def test_compose_memory_peak_stays_below_the_per_gate_composers():
    # composing blocks together holds a group's embedded gates at once; the
    # per-gate composer, which built each block alone as it closed, peaked at
    # 2,067,152 bytes here (tracemalloc, Python 3.11, numpy 2.4)
    # a full collection empties CPython's free lists, so objects taken from
    # them afterwards are allocated, and traced, anew: one during the traced
    # compile raised its peak by 20-55 KB. Collect once, then keep the
    # collector off while the untraced compile fills the caches and the free
    # lists and the traced one runs
    circuit = _generated_circuit(11, 9000, seed=0)
    gc.collect()
    gc.disable()
    try:
        compile_program(circuit)
        tracemalloc.start()
        try:
            program = compile_program(circuit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    finally:
        gc.enable()
    assert len(program) == 1873 and peak <= 2_067_152


def test_fusion_blocks_cross_barriers():
    gates = (_gate("h", 0), Barrier((0, 1)), _gate("cx", 0, 1), Barrier((0, 1)), _gate("t", 1))
    (block,) = compile_program(Circuit(2, 0, gates))
    assert block[1] == (1, 0)
    assert np.max(np.abs(block[0] - unitary_of(Circuit(2, 0, gates)))) <= 1e-15


def test_a_lone_state_evolves_through_the_batchs_fused_program():
    # a lone 3-qubit state is fused, its program is the batch's bit for bit,
    # and it comes out as its column of the batch
    circuit = _generated_circuit(3, 40, seed=1)
    program = compile_program(circuit)
    batch_program = simulator._fuse(simulator._program(circuit))
    assert len(program) < len(circuit.gates())
    assert [qubits for _, qubits in program] == [qubits for _, qubits in batch_program]
    assert all(np.array_equal(a, b) for (a, _), (b, _) in zip(program, batch_program))
    states = np.eye(8, 3, dtype=complex)
    batch = statevector(circuit, states, batch_program)
    for column in range(3):
        assert np.array_equal(statevector(circuit, states[:, column]), batch[:, column])


def test_evolve_allocates_nothing_for_an_empty_program():
    tensor = np.zeros((2,) * 12, dtype=complex)
    tensor[(0,) * 12] = 1.0
    tracemalloc.start()
    try:
        out = simulator._evolve(tensor, [], 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < tensor.nbytes / 8 and np.shares_memory(out, tensor)
    assert not np.shares_memory(statevector(Circuit(12, 0, ()), tensor.reshape(-1)), tensor)
