"""End-to-end acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and prints
one PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see
them). Experiments are seeded and deterministic.
"""

import functools
import math
import time

import numpy as np

from qlock import benchmarks
from qlock.circuit import Circuit, Gate, flatten, layerize
from qlock.cli import main
from qlock.evaluation import EvalConfig, evaluate, tvd, unitaries_equivalent
from qlock.locking import Key, KeyEntry, dense_plan, obfuscate, select_sites
from qlock.qasm import emit_circuit, parse_circuit
from qlock.rng import derive_rng
from qlock.simulator import Distribution, NoiseConfig, unitary_of
from qlock.unlocking import insert_key_toggles, unlock

from conftest import random_qasm_source


def criterion(number: int, name: str):
    def wrap(func):
        @functools.wraps(func)
        def inner(*args, **kwargs):
            try:
                result = func(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:2d} {name}: FAIL")
                raise
            print(f"ACCEPTANCE {number:2d} {name}: PASS")
            return result

        return inner

    return wrap


def _random_plan(circuit: Circuit, rng: np.random.Generator):
    """A feasible random plan with at least one site of each kind."""
    from qlock.locking import _pool

    layered = layerize(circuit)
    max_logic = len(_pool(layered, False))
    max_phase = len(_pool(layered, True))
    n_logic = int(rng.integers(1, min(max_logic, 20) + 1))
    n_phase = int(rng.integers(1, min(max_phase, 20) + 1))
    strategy = ("random", "lightcone")[int(rng.integers(2))]
    return select_sites(circuit, n_logic, n_phase, strategy=strategy, seed=int(rng.integers(2**32)))


@criterion(1, "correct-key restoration")
def test_criterion_1_correct_key_restoration(bench_circuits):
    start = time.monotonic()
    for name, circuit in bench_circuits.items():
        reference = unitary_of(flatten(layerize(circuit)))
        rng = derive_rng(0, "acceptance-1", name)
        for _ in range(20):
            plan = _random_plan(circuit, rng)
            record = obfuscate(circuit, plan, seed=int(rng.integers(2**32)))
            restored = unlock(record.locked_circuit, record.key).restored_circuit
            assert unitaries_equivalent(unitary_of(restored), reference, 1e-9), name
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"restoration sweep took {elapsed:.1f}s"


@criterion(2, "noiseless and noisy restored TVD")
def test_criterion_2_restored_tvd(bench_circuits):
    for name, circuit in bench_circuits.items():
        b = len(circuit.measured_qubits())
        bound = 2.0 * math.sqrt(2**b / 200.0)
        record = obfuscate(circuit, dense_plan(circuit, seed=0), seed=0)
        noiseless = evaluate(
            circuit, record, EvalConfig(n_inputs=10, shots=100, seed=0, modes=("restored",))
        )
        assert noiseless.mean["restored"] <= bound, (name, noiseless.mean["restored"], bound)
        # depolarizing proxy at defaults; paired streams isolate the noise
        # residual from the shot-noise floor
        noisy = evaluate(
            circuit,
            record,
            EvalConfig(
                n_inputs=10,
                shots=100,
                seed=0,
                noise=NoiseConfig(enabled=True, seed=0),
                modes=("restored",),
                sampling="paired",
            ),
        )
        assert noisy.mean["restored"] < 0.15, (name, noisy.mean["restored"])


@criterion(3, "locked-circuit corruption")
def test_criterion_3_locked_corruption(bench_circuits):
    floors = {"adder_n4": 0.5, "basis_change_n3": 0.3, "fredkin_n3": 0.5, "wstate_n3": 0.3}
    repetitions = 10
    for name, circuit in bench_circuits.items():
        combined = []
        for seed in range(repetitions):
            record = obfuscate(circuit, dense_plan(circuit, seed=seed), seed=seed)
            report = evaluate(
                circuit,
                record,
                EvalConfig(n_inputs=10, shots=100, seed=seed, modes=("combined", "restored")),
            )
            assert report.mean["restored"] < report.mean["combined"], (name, seed)
            combined.append(report.mean["combined"])
        grand_mean = sum(combined) / len(combined)
        assert grand_mean >= 0.3, (name, grand_mean)
        assert grand_mean >= floors[name], (name, grand_mean, floors[name])


@criterion(4, "key accounting and size monotonicity")
def test_criterion_4_key_accounting(bench_circuits):
    for name, circuit in bench_circuits.items():
        rng = derive_rng(0, "acceptance-4", name)
        plans = [_random_plan(circuit, rng) for _ in range(10)]
        plans += [dense_plan(circuit, seed=s) for s in range(3)]
        for plan in plans:
            record = obfuscate(circuit, plan, seed=int(rng.integers(2**32)))
            logic_bits = sum(e.span for e in record.key.schedule if e.kind == "logic")
            phase_bits = sum(e.span for e in record.key.schedule if e.kind == "phase")
            assert logic_bits == len(plan.logic_sites)
            assert phase_bits == 3 * len(plan.phase_sites)
            assert len(record.key.bits) == logic_bits + phase_bits
            d0, g0 = record.original_metrics
            d1, g1 = record.locked_metrics
            if plan.logic_sites or plan.phase_sites:
                assert g1 > g0, name
                assert d1 >= d0, name


@criterion(5, "TVD unit correctness and metric laws")
def test_criterion_5_tvd_metric(bench_circuits):
    def dist(counts, shots, bits=1):
        return Distribution(counts=counts, shots=shots, bits=bits)

    a = dist({"0": 100}, 100)
    same = dist({"0": 100}, 100)
    other = dist({"1": 100}, 100)
    assert tvd(a, same) == 0.0
    assert tvd(a, other) == 1.0
    assert tvd(dist({"0": 95, "1": 5}, 100), dist({"0": 50, "1": 50}, 100)) == 0.45

    rng = derive_rng(0, "acceptance-5")
    for _ in range(1000):
        bits = int(rng.integers(1, 4))
        shots = int(rng.integers(1, 200))
        keys = [format(i, f"0{bits}b") for i in range(2**bits)]

        def sample():
            raw = rng.multinomial(shots, np.ones(len(keys)) / len(keys))
            return dist({k: int(v) for k, v in zip(keys, raw) if v}, shots, bits)

        x, y, z = sample(), sample(), sample()
        assert 0.0 <= tvd(x, y) <= 1.0
        assert tvd(x, y) == tvd(y, x)
        assert (tvd(x, y) == 0.0) == (x.counts == y.counts)
        assert tvd(x, z) <= tvd(x, y) + tvd(y, z) + 1e-12


@criterion(6, "toggle-count law")
def test_criterion_6_toggle_count():
    rng = derive_rng(0, "acceptance-6")
    for _ in range(1000):
        n = int(rng.integers(0, 65))
        bits = [int(b) for b in rng.integers(0, 2, size=n)]
        ops = []
        for _ in range(n):
            ops.append(Gate("h", (), (1,)))
            ops.append(Gate("cx", (), (1, 0)))
        locked = Circuit(2, 0, tuple(ops), qubit_labels=("q[0]", "qk[0]"))
        key = Key("".join(map(str, bits)), (KeyEntry("logic", 0, 0, 1),) * n)
        toggled = insert_key_toggles(locked, key, 1)
        inserted = sum(
            1 for op in toggled.ops if isinstance(op, Gate) and op.kind == "x" and op.qubits == (1,)
        )
        expected = (bits[0] if bits else 0) + sum(
            bits[i] ^ bits[i - 1] for i in range(1, len(bits))
        )
        assert inserted == expected


@criterion(7, "kappa round trip")
def test_criterion_7_kappa_round_trip():
    from qlock.locking import KeyEntry, normalize_phase_angle
    from qlock.unlocking import apply_phase_key

    for kappa in range(8):
        assert normalize_phase_angle(kappa * (math.pi / 4)) == kappa
        locked = Circuit(1, 0, (Gate("rz", (2.345,), (0,)),))
        out = apply_phase_key(locked, [(KeyEntry("phase", 0, 0, 3), kappa)])
        assert out.gates()[0].params[0] == kappa * (math.pi / 4)


@criterion(8, "wrong-key sensitivity")
def test_criterion_8_wrong_key_sensitivity(bench_circuits):
    for name, circuit in bench_circuits.items():
        record = obfuscate(circuit, dense_plan(circuit, seed=0), seed=0)
        reference = unitary_of(flatten(layerize(circuit)))
        bits = record.key.bits
        n_logic = len(record.key.logic_bits())
        for i in range(n_logic):
            flipped = bits[:i] + ("1" if bits[i] == "0" else "0") + bits[i + 1 :]
            restored = unlock(
                record.locked_circuit, record.key, candidate_bits=flipped
            ).restored_circuit
            assert not unitaries_equivalent(unitary_of(restored), reference, 1e-6), (name, i)
        rng = derive_rng(0, "acceptance-8", name)
        equivalent = 0
        trials = 1000
        for _ in range(trials):
            candidate = "".join(str(int(b)) for b in rng.integers(0, 2, size=len(bits)))
            if candidate == bits:
                continue
            restored = unlock(
                record.locked_circuit, record.key, candidate_bits=candidate
            ).restored_circuit
            if unitaries_equivalent(unitary_of(restored), reference, 1e-6):
                equivalent += 1
        assert equivalent < 0.01 * trials, (name, equivalent)


@criterion(9, "parser round trip")
def test_criterion_9_parser_round_trip(bench_circuits):
    for name in benchmarks.NAMES:
        circuit = parse_circuit(benchmarks.load(name))
        assert parse_circuit(emit_circuit(circuit)) == circuit, name
    rng = np.random.default_rng(1009)
    for _ in range(500):
        circuit = parse_circuit(random_qasm_source(rng))
        assert parse_circuit(emit_circuit(circuit)) == circuit


@criterion(10, "CLI determinism")
def test_criterion_10_cli_determinism(tmp_path, bench_circuits):
    source = tmp_path / "adder_n4.qasm"
    source.write_text(benchmarks.load("adder_n4"), encoding="utf-8")

    def run_twice(args_for):
        outputs = []
        for tag in ("a", "b"):
            paths = args_for(tag)
            assert main(paths[0]) == 0
            outputs.append([p.read_bytes() for p in paths[1]])
        assert outputs[0] == outputs[1]

    def obf(tag):
        locked = tmp_path / f"locked_{tag}.qasm"
        key = tmp_path / f"key_{tag}.json"
        return (
            ["obfuscate", str(source), "-o", str(locked), "--key", str(key), "--seed", "7"],
            [locked, key],
        )

    run_twice(obf)
    locked, key = tmp_path / "locked_a.qasm", tmp_path / "key_a.json"

    def deobf(tag):
        restored = tmp_path / f"restored_{tag}.qasm"
        return (["deobfuscate", str(locked), str(key), "-o", str(restored)], [restored])

    def sim(tag):
        counts = tmp_path / f"counts_{tag}.json"
        return (
            ["simulate", str(source), "-o", str(counts), "--shots", "128", "--seed", "7"],
            [counts],
        )

    def evalcmd(tag):
        report = tmp_path / f"report_{tag}.json"
        csv = tmp_path / f"report_{tag}.csv"
        return (
            [
                "evaluate", str(source), str(locked), str(key),
                "-o", str(report), "--csv", str(csv),
                "--inputs", "3", "--shots", "40", "--seed", "7",
            ],
            [report, csv],
        )

    def stats(tag):
        out = tmp_path / f"stats_{tag}.json"
        return (["stats", str(source), "-o", str(out)], [out])

    def repro(tag):
        out_dir = tmp_path / f"repro_{tag}"
        return (
            ["repro", "--out-dir", str(out_dir), "--seed", "7", "--inputs", "2", "--shots", "20"],
            [out_dir / "report.json", out_dir / "report.csv"],
        )

    for maker in (deobf, sim, evalcmd, stats, repro):
        run_twice(maker)
