import hashlib
import json
from pathlib import Path

import pytest

from qlock import benchmarks, equivalent_up_to_global_phase, parse_circuit, simulator
from qlock.circuit import flatten, layerize, metrics
from qlock.cli import main

from conftest import NoNumpy


@pytest.fixture()
def adder_path(tmp_path) -> Path:
    path = tmp_path / "adder_n4.qasm"
    path.write_text(benchmarks.load("adder_n4"), encoding="utf-8")
    return path


def _obfuscate(tmp_path, adder_path, *extra) -> tuple[Path, Path]:
    locked = tmp_path / "locked.qasm"
    key = tmp_path / "key.json"
    code = main(
        ["obfuscate", str(adder_path), "-o", str(locked), "--key", str(key), "--seed", "5", *extra]
    )
    assert code == 0
    return locked, key


def test_obfuscate_adds_ancilla_register(tmp_path, adder_path, capsys):
    locked, key = _obfuscate(tmp_path, adder_path)
    text = locked.read_text()
    assert "qreg qk[1];" in text
    assert key.exists()
    out = capsys.readouterr().out
    assert "key bits:" in out


def test_obfuscate_zero_sites_identity(tmp_path, adder_path):
    locked, key = _obfuscate(tmp_path, adder_path, "--logic-sites", "0", "--phase-sites", "0")
    circuit = parse_circuit(locked.read_text())
    original = parse_circuit(adder_path.read_text())
    assert circuit == flatten(layerize(original))
    assert json.loads(key.read_text()) == {"bits": "", "schedule": []}


def test_obfuscate_missing_input_exit_2(tmp_path):
    code = main(
        ["obfuscate", str(tmp_path / "nope.qasm"), "-o", str(tmp_path / "x"), "--key", str(tmp_path / "k")]
    )
    assert code == 2


def test_obfuscate_infeasible_plan_exit_3(tmp_path, adder_path):
    code = main(
        [
            "obfuscate", str(adder_path),
            "-o", str(tmp_path / "x.qasm"), "--key", str(tmp_path / "k.json"),
            "--logic-sites", "10000",
        ]
    )
    assert code == 3


def test_deobfuscate_correct_key_equivalent(tmp_path, adder_path):
    locked, key = _obfuscate(tmp_path, adder_path)
    restored = tmp_path / "restored.qasm"
    assert main(["deobfuscate", str(locked), str(key), "-o", str(restored)]) == 0
    original = parse_circuit(adder_path.read_text())
    assert equivalent_up_to_global_phase(
        parse_circuit(restored.read_text()), flatten(layerize(original)), 1e-9
    )


def test_deobfuscate_wrong_key_not_equivalent(tmp_path, adder_path):
    locked, key = _obfuscate(tmp_path, adder_path)
    bits = json.loads(key.read_text())["bits"]
    restored = tmp_path / "wrong.qasm"
    code = main(
        ["deobfuscate", str(locked), str(key), "-o", str(restored), "--key-bits", "0" * len(bits)]
    )
    assert code == 0
    original = parse_circuit(adder_path.read_text())
    assert not equivalent_up_to_global_phase(
        parse_circuit(restored.read_text()), flatten(layerize(original)), 1e-6
    )


def test_deobfuscate_no_simplify_keeps_ancilla(tmp_path, adder_path):
    locked, key = _obfuscate(tmp_path, adder_path)
    kept = tmp_path / "kept.qasm"
    assert main(["deobfuscate", str(locked), str(key), "-o", str(kept), "--no-simplify"]) == 0
    assert "qreg qk[1];" in kept.read_text()


def test_deobfuscate_key_length_mismatch_exit_3(tmp_path, adder_path):
    locked, key = _obfuscate(tmp_path, adder_path)
    code = main(
        ["deobfuscate", str(locked), str(key), "-o", str(tmp_path / "y.qasm"), "--key-bits", "01"]
    )
    assert code == 3


@pytest.mark.parametrize(
    "schedule",
    [
        5,
        [{"kind": "logic", "layer": True, "qubit": 0, "span": 1}],
        [{"kind": "logic", "layer": 0, "qubit": True, "span": 1}],
        [{"kind": "logic", "layer": 0, "qubit": 0, "span": True}],
    ],
)
def test_deobfuscate_malformed_schedule_exit_3(tmp_path, adder_path, capsys, schedule):
    locked, _ = _obfuscate(tmp_path, adder_path)
    key = tmp_path / "bad_key.json"
    key.write_text(json.dumps({"bits": "1", "schedule": schedule}))
    code = main(["deobfuscate", str(locked), str(key), "-o", str(tmp_path / "y.qasm")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: malformed key") and err.count("\n") == 1


def test_simulate_non_finite_parameter_exit_2(tmp_path, capsys):
    source = tmp_path / "inf.qasm"
    source.write_text("qreg q[1]; rz(1e400) q[0];")
    code = main(["simulate", str(source), "-o", str(tmp_path / "c.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "not finite" in err and err.count("\n") == 1


@pytest.mark.parametrize("noise", [[], ["--noise"]])
def test_simulate_too_many_qubits_exit_3_without_allocating(tmp_path, capsys, monkeypatch, noise):
    monkeypatch.setattr(simulator, "np", NoNumpy())
    source = tmp_path / "big.qasm"
    source.write_text("qreg q[40]; creg c[1]; h q[0]; measure q[0] -> c[0];")
    code = main(["simulate", str(source), "-o", str(tmp_path / "c.json"), *noise])
    assert code == 3
    err = capsys.readouterr().err
    assert "too large to simulate" in err and err.count("\n") == 1


def test_simulate_bell_support(tmp_path):
    bell = tmp_path / "bell.qasm"
    bell.write_text(
        "qreg q[2]; creg c[2]; h q[0]; cx q[0],q[1]; measure q[0] -> c[0]; measure q[1] -> c[1];"
    )
    out = tmp_path / "counts.json"
    assert main(["simulate", str(bell), "-o", str(out), "--shots", "512", "--seed", "3"]) == 0
    counts = json.loads(out.read_text())["counts"]
    assert set(counts) <= {"00", "11"}


def test_simulate_deterministic_bytes(tmp_path, adder_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["simulate", str(adder_path), "-o", str(out), "--shots", "256", "--seed", "9"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_zero_shots_exit_3(tmp_path, adder_path):
    code = main(["simulate", str(adder_path), "-o", str(tmp_path / "c.json"), "--shots", "0"])
    assert code == 3


def test_stats_matches_metrics(tmp_path, adder_path, capsys):
    assert main(["stats", str(adder_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    circuit = parse_circuit(adder_path.read_text())
    depth, gates = metrics(circuit)
    assert payload == {
        "depth": depth,
        "gate_count": gates,
        "num_clbits": circuit.num_clbits,
        "num_qubits": circuit.num_qubits,
    }


def test_evaluate_writes_report_and_csv(tmp_path, adder_path):
    locked, key = _obfuscate(tmp_path, adder_path)
    report, csv_path = tmp_path / "report.json", tmp_path / "report.csv"
    code = main(
        [
            "evaluate", str(adder_path), str(locked), str(key),
            "-o", str(report), "--csv", str(csv_path),
            "--inputs", "3", "--shots", "50", "--seed", "5",
        ]
    )
    assert code == 0
    payload = json.loads(report.read_text())
    (row,) = payload["rows"]
    assert row["tvd_restored"] < row["tvd_combined"]
    header = csv_path.read_text().splitlines()[0]
    assert header.startswith("circuit,depth,depth_obf,gates,gates_obf,logic_key_bits,phase_key_bits")


def test_evaluate_single_mode_column(tmp_path, adder_path):
    locked, key = _obfuscate(tmp_path, adder_path)
    report = tmp_path / "r.json"
    code = main(
        [
            "evaluate", str(adder_path), str(locked), str(key),
            "-o", str(report), "--inputs", "2", "--shots", "20", "--seed", "1",
            "--modes", "restored",
        ]
    )
    assert code == 0
    (row,) = json.loads(report.read_text())["rows"]
    tvd_cols = [k for k in row if k.startswith("tvd_")]
    assert tvd_cols == ["tvd_restored"]


def test_evaluate_wrong_key_sweep(tmp_path, adder_path):
    locked, key = _obfuscate(tmp_path, adder_path)
    report = tmp_path / "r.json"
    code = main(
        [
            "evaluate", str(adder_path), str(locked), str(key),
            "-o", str(report), "--inputs", "2", "--shots", "20", "--seed", "1",
            "--wrong-key-sweep", "5",
        ]
    )
    assert code == 0
    sweep = json.loads(report.read_text())["wrong_key_sweep"]
    assert sweep["n_keys"] == 5 and sum(sweep["histogram"].values()) == 5


def test_evaluate_deterministic_bytes(tmp_path, adder_path):
    locked, key = _obfuscate(tmp_path, adder_path)
    a, b = tmp_path / "ra.json", tmp_path / "rb.json"
    for out in (a, b):
        code = main(
            [
                "evaluate", str(adder_path), str(locked), str(key),
                "-o", str(out), "--inputs", "2", "--shots", "30", "--seed", "4",
            ]
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_pipeline_closure_restored_simulates(tmp_path, adder_path):
    locked, key = _obfuscate(tmp_path, adder_path)
    restored = tmp_path / "restored.qasm"
    counts = tmp_path / "counts.json"
    assert main(["deobfuscate", str(locked), str(key), "-o", str(restored)]) == 0
    assert main(["simulate", str(restored), "-o", str(counts), "--shots", "64"]) == 0
    assert sum(json.loads(counts.read_text())["counts"].values()) == 64


def test_evaluate_noise_report_golden(tmp_path, adder_path):
    """Report bytes of a noisy evaluate, fixed before noisy runs were batched."""
    locked, key = _obfuscate(tmp_path, adder_path)
    out = tmp_path / "report.json"
    code = main(
        [
            "evaluate", str(adder_path), str(locked), str(key),
            "-o", str(out), "--noise", "--inputs", "1", "--seed", "4",
        ]
    )
    assert code == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "ffab5ad0d68bd0512c0bf2a0fdfe057d26d1e3c47472ea5ec8ccf3c6cfd069f2"


def test_env_var_default_seed(tmp_path, adder_path, monkeypatch):
    out_env = tmp_path / "env.json"
    out_flag = tmp_path / "flag.json"
    monkeypatch.setenv("QLOCK_SEED", "123")
    assert main(["simulate", str(adder_path), "-o", str(out_env), "--shots", "64"]) == 0
    monkeypatch.delenv("QLOCK_SEED")
    assert main(
        ["simulate", str(adder_path), "-o", str(out_flag), "--shots", "64", "--seed", "123"]
    ) == 0
    assert out_env.read_bytes() == out_flag.read_bytes()


def test_repro_smoke(tmp_path):
    out = tmp_path / "repro"
    code = main(["repro", "--out-dir", str(out), "--seed", "0", "--inputs", "2", "--shots", "20"])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert {row["circuit"] for row in report["rows"]} == {
        "Adder", "Basis Change", "Fredkin", "Wstate",
    }
    for row in report["rows"]:
        assert row["tvd_restored"] < row["tvd_combined"]
    assert (out / "report.csv").exists()
    for name in benchmarks.NAMES:
        assert (out / f"{name}.locked.qasm").exists()
        assert (out / f"{name}.key.json").exists()
        assert (out / f"{name}.restored.qasm").exists()
