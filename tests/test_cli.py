import contextlib
import hashlib
import io
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qlock import benchmarks, cli, equivalent_up_to_global_phase, locking, parse_circuit, simulator, unlocking
from qlock import circuit as qlock_circuit
from qlock.circuit import flatten, layerize, metrics
from qlock.cli import main

from conftest import NoNumpy, fuzz_key, fuzz_qasm


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


_BAD_ENTRY = "error: malformed key schedule entry: "


@pytest.mark.parametrize(
    "bits, schedule, message",
    [
        pytest.param("1", 5, "error: malformed key file: schedule must be a list", id="5"),
        pytest.param(
            "1", [{"kind": "logic", "layer": True, "qubit": 0, "span": 1}], _BAD_ENTRY, id="schedule1"
        ),
        pytest.param(
            "1", [{"kind": "logic", "layer": 0, "qubit": True, "span": 1}], _BAD_ENTRY, id="schedule2"
        ),
        pytest.param(
            "1", [{"kind": "logic", "layer": 0, "qubit": 0, "span": True}], _BAD_ENTRY, id="schedule3"
        ),
        pytest.param(
            "1", [{"kind": "both", "layer": 0, "qubit": 0, "span": 1}],
            "error: bad key entry kind 'both'", id="unknown-kind",
        ),
        pytest.param(
            "11", [{"kind": "phase", "layer": 0, "qubit": 0, "span": 2}],
            "error: phase entry must span 3 bits", id="phase-span-2",
        ),
        pytest.param(5, [], "error: malformed key file: bits must be a string", id="bits-not-string"),
        pytest.param("1", [{"kind": "logic", "layer": 0, "span": 1}], _BAD_ENTRY, id="entry-without-qubit"),
    ],
)
def test_deobfuscate_malformed_schedule_exit_3(tmp_path, adder_path, capsys, bits, schedule, message):
    locked, _ = _obfuscate(tmp_path, adder_path)
    key = tmp_path / "bad_key.json"
    key.write_text(json.dumps({"bits": bits, "schedule": schedule}))
    code = main(["deobfuscate", str(locked), str(key), "-o", str(tmp_path / "y.qasm")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1


def test_deobfuscate_deeply_nested_key_exit_3(tmp_path, adder_path, capsys):
    locked, _ = _obfuscate(tmp_path, adder_path)
    key = tmp_path / "deep_key.json"
    key.write_text("[" * 100_000 + "]" * 100_000)  # json.dumps of this would recurse too
    code = main(["deobfuscate", str(locked), str(key), "-o", str(tmp_path / "y.qasm")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: malformed key file: ") and err.count("\n") == 1


def _move_first_logic_entry(key: dict) -> None:
    logic = next(e for e in key["schedule"] if e["kind"] == "logic")
    logic.update(layer=999, qubit=77)


def _duplicate_phase_entry(key: dict) -> None:
    phase = next(e for e in key["schedule"] if e["kind"] == "phase")
    key["schedule"].append(dict(phase))
    key["bits"] += "101"


# hand edits of a locked file or its key that unlocking refuses
_BROKEN_LOCKS = {
    "ancilla_as_target": (
        lambda text: re.sub(r"^(\w+) qk\[0\],(q\[\d+\])", r"\1 \2,qk[0]", text, count=1, flags=re.M),
        None,
        "must be the control",
    ),
    "section_gate_deleted": (
        lambda text: re.sub(r"^\w+ qk\[0\],.*\n", "", text, count=1, flags=re.M),
        None,
        "key sections but",
    ),
    "hadamard_deleted": (lambda text: text.replace("h qk[0];\n", "", 1), None, "ancilla Hadamards"),
    "ancilla_measured": (
        lambda text: text + "measure qk[0] -> c[0];\n", None, "must not be measured"
    ),
    "ancilla_renamed": (lambda text: text.replace("qk", "qz"), None, "no key ancilla"),
    "phase_entry_repeated": (None, _duplicate_phase_entry, "listed twice"),
    "logic_entry_moved": (None, _move_first_logic_entry, "logic key entry 0 names (layer, qubit) (999, 77)"),
}


@pytest.mark.parametrize("edit_locked, edit_key, message", _BROKEN_LOCKS.values(), ids=_BROKEN_LOCKS)
def test_deobfuscate_broken_lock_exit_3(tmp_path, adder_path, capsys, edit_locked, edit_key, message):
    locked, key = _obfuscate(tmp_path, adder_path)
    if edit_locked is not None:
        text = locked.read_text()
        locked.write_text(edit_locked(text))
        assert locked.read_text() != text
    if edit_key is not None:
        data = json.loads(key.read_text())
        edit_key(data)
        key.write_text(json.dumps(data))
    capsys.readouterr()
    code = main(["deobfuscate", str(locked), str(key), "-o", str(tmp_path / "y.qasm")])
    assert code == 3
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1
    assert not (tmp_path / "y.qasm").exists()


@pytest.mark.parametrize(
    "source, message",
    [
        pytest.param("OPENQASM;", "line 1, col 9: expected version number after OPENQASM", id="no-version"),
        pytest.param("qreg q[0];", "register size must be positive", id="empty-register"),
        pytest.param("qreg q[1]; rz(1/0) q[0];", "division by zero in angle expression", id="zero-division"),
    ],
)
def test_stats_malformed_qasm_exit_2(tmp_path, capsys, source, message):
    path = tmp_path / "bad.qasm"
    path.write_text(source)
    assert main(["stats", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_obfuscate_gateless_circuit_has_no_phase_site(tmp_path, capsys):
    # no layer means no boundary before one: no phase slot to lock
    path = tmp_path / "empty.qasm"
    path.write_text("qreg q[2];")
    out = [str(path), "-o", str(tmp_path / "x.qasm"), "--key", str(tmp_path / "k.json")]
    assert main(["obfuscate", *out, "--phase-sites", "1"]) == 3
    err = capsys.readouterr().err
    assert err == "error: requested 1 phase sites but only 0 are available\n"


@settings(max_examples=40)
@given(data=st.data())
def test_deobfuscate_fuzzed_lock_exits_cleanly(fuzz_lock, data):
    # hand-edited locked files and keys end in exit 0, 2 or 3 with at most one
    # stderr line, never in a traceback, through every command that reads them
    directory, lines, key = fuzz_lock
    key = json.loads(json.dumps(key))
    if data.draw(st.booleans()):
        fuzz_key(data, key)
    locked, key_path = directory / "edited.qasm", directory / "edited.json"
    locked.write_text("\n".join(fuzz_qasm(data, lines)) + "\n")
    key_path.write_text(json.dumps(key))
    deobfuscate = ["deobfuscate", str(locked), str(key_path), "-o", str(directory / "out.qasm")]
    evaluate = [
        "evaluate", str(directory / "adder.qasm"), str(locked), str(key_path),
        "-o", str(directory / "report.json"), "--inputs", "1", "--shots", "10",
    ]
    simulate = ["simulate", str(locked), "-o", str(directory / "counts.json"), "--shots", "8"]
    obfuscate = [
        "obfuscate", str(locked), "-o", str(directory / "relocked.qasm"), "--key", str(directory / "rekey.json"),
    ]
    for argv in (
        deobfuscate, [*deobfuscate, "--no-simplify"],
        evaluate, [*evaluate, "--noise"], [*evaluate, "--wrong-key-sweep", "2"],
        ["stats", str(locked)], simulate, [*simulate, "--noise"], obfuscate,
    ):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        assert code in (0, 2, 3)
        assert err.getvalue().count("\n") <= 1


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


def test_simulate_many_noisy_shots(tmp_path):
    # a noisy run samples one multinomial from its density matrix, so any
    # shot count runs, as a noiseless one does
    source = tmp_path / "c.qasm"
    source.write_text("qreg q[1]; creg c[1]; h q[0]; measure q[0] -> c[0];")
    out = tmp_path / "c.json"
    for noise in (["--noise"], []):
        assert main(["simulate", str(source), "-o", str(out), *noise, "--shots", str(10**13)]) == 0
        assert json.loads(out.read_text())["shots"] == 10**13


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


def test_evaluate_single_mode_column(tmp_path, adder_path, capsys):
    locked, key = _obfuscate(tmp_path, adder_path)
    report = tmp_path / "r.json"
    capsys.readouterr()
    outputs = []
    # a repeated mode is evaluated and printed once
    for modes in (["restored"], ["restored", "restored"]):
        code = main(
            [
                "evaluate", str(adder_path), str(locked), str(key),
                "-o", str(report), "--inputs", "2", "--shots", "20", "--seed", "1",
                "--modes", *modes,
            ]
        )
        assert code == 0
        (row,) = json.loads(report.read_text())["rows"]
        tvd_cols = [k for k in row if k.startswith("tvd_")]
        assert tvd_cols == ["tvd_restored"]
        outputs.append((capsys.readouterr().out, report.read_bytes()))
    assert outputs[0][0].count("tvd restored") == 1
    assert outputs[1] == outputs[0]


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


# sha256 of every file a command writes. The noisy report and noisy counts
# were fixed when noisy runs moved to the exact density matrix and one
# multinomial, the noiseless counts before the kernel dropped
# np.moveaxis, the select-lightcone and uncapped dense obfuscate outputs before
# the site rules and picker were merged, the select-random one when the phase
# boundary after the last layer stopped being a candidate, the others before
# evaluate and wrong_key_sweep shared one loop and dense_plan's caps went
# through the shared site picker.
_GOLDEN = [
    pytest.param(
        ["evaluate", "{adder}", "{locked}", "{key}", "-o", "{out}/report.json",
         "--noise", "--inputs", "1", "--seed", "4"],
        {"report.json": "e85edc8dcc4778a8422f60327a83166572d11fd2dcba6803460780b284359d46"},
        id="evaluate-noise",
    ),
    pytest.param(
        ["evaluate", "{adder}", "{locked}", "{key}", "-o", "{out}/report.json",
         "--inputs", "2", "--seed", "1", "--wrong-key-sweep", "5"],
        {"report.json": "6ecd5c704809811e26a2b0ada38243d90784647ea2431df7b8864bf99caf4b84"},
        id="evaluate-wrong-key-sweep",
    ),
    pytest.param(
        ["simulate", "{locked}", "-o", "{out}/counts.json", "--seed", "3"],
        {"counts.json": "733a9e161a19dc3b9cc8a81d19fedac246786938baed90fc7353d025d25dcd83"},
        id="simulate",
    ),
    pytest.param(
        ["simulate", "{locked}", "-o", "{out}/counts.json", "--seed", "3", "--noise"],
        {"counts.json": "3c8da4076bb9861495c8920ee391f838ef19e4f41b9af13881004f5f229e4cf1"},
        id="simulate-noise",
    ),
    pytest.param(
        ["obfuscate", "{adder}", "-o", "{out}/locked.qasm", "--key", "{out}/key.json", "--seed", "5",
         "--dense", "--strategy", "random", "--logic-sites", "2", "--phase-sites", "1"],
        {
            "key.json": "197ec952b669536d23411235a83fc3c471f99d7a3656c0c529b4b212b550f2aa",
            "locked.qasm": "ff4965aa9b1d8cf58c30748edfbd834ecf50641e0213ab1a44c61f7ddd6e1de8",
        },
        id="obfuscate-dense-random-caps",
    ),
    pytest.param(
        ["obfuscate", "{adder}", "-o", "{out}/locked.qasm", "--key", "{out}/key.json", "--seed", "5",
         "--strategy", "random", "--logic-sites", "3", "--phase-sites", "4"],
        {
            "key.json": "5da1485b9a77aff22d34db62c30deb056de4410c1be153e026a7b7a4b5286a68",
            "locked.qasm": "55ff5aef7af4388064e4d433c1315534043e804466802c01a7755a5b821264c7",
        },
        id="obfuscate-select-random",
    ),
    pytest.param(
        ["obfuscate", "{adder}", "-o", "{out}/locked.qasm", "--key", "{out}/key.json", "--seed", "5",
         "--strategy", "lightcone", "--logic-sites", "3", "--phase-sites", "4"],
        {
            "key.json": "be79d9b0b98e3f789a9e482f9ab54be06bf6ffb3d25c3fb83f7fa5d122368c99",
            "locked.qasm": "86d6caa8aa67de600e392aeba63d4b8e39581ef935d45c07bfb8998fe85ec1f4",
        },
        id="obfuscate-select-lightcone",
    ),
    pytest.param(
        ["obfuscate", "{adder}", "-o", "{out}/locked.qasm", "--key", "{out}/key.json", "--seed", "5",
         "--dense", "--strategy", "random", "--dummy-gates", "random"],
        {
            "key.json": "42d70edbbc450ef1fb4cddb01bc5157a1209893a8e7a3a562882fc1ebcfdc5e6",
            "locked.qasm": "f789369157830b7d3993172cea28604e3a17a326034a3eaa1f313cdce960b267",
        },
        id="obfuscate-dense-random-dummies",
    ),
    pytest.param(
        ["repro", "--out-dir", "{out}", "--seed", "0", "--inputs", "2"],
        {
            "adder_n4.key.json": "176674a03ab02aa1894faa620e0768092e4ffe1cba38ecda5c36889e300b5a66",
            "adder_n4.locked.qasm": "05c7779b46facdc5b4fabeed27ce3261d7376da074bef1350a6eca0fa6ea480f",
            "adder_n4.restored.qasm": "decb9691aee05fb659e07144beb0561af58e1258eea085294191ebdcbeffaee8",
            "basis_change_n3.key.json": "30111d2f5c92675a40ffe0ad7580960aaef73998e53503642987c92fbb6f4c5b",
            "basis_change_n3.locked.qasm": "d11329fb87ddafacb1ef0c005cc3e0f126b84ed146f266ce9d44bd07febe2a3a",
            "basis_change_n3.restored.qasm": "b920c9600d01bf579fe3e3b5cb61d008e6c4bd1dbb5123d192573f8563cb1047",
            "fredkin_n3.key.json": "147ebaf9506d31077cb479354ea4012dec9600eaac76d92593fd7fee639e0289",
            "fredkin_n3.locked.qasm": "ddb76a8e5dec211d051a7614a652195469b7ddfaab3da850eabc923e2f98fc7e",
            "fredkin_n3.restored.qasm": "9125aa9927e34850339480f95859cb319a33ba5b5347db8b87e2e957645e4d88",
            "report.csv": "1f8511ae850fc5d7d9333b5d63b32da03acef991931d1c63bd378d13f66688ff",
            "report.json": "b980500c9e1db3f1e4f29034dbd7cc788a2897c67c7262123d981ca55f77a973",
            "wstate_n3.key.json": "103f277314a30c92f2babf7e15647d23b2fbe83c67aef213fc0e0d105da6d709",
            "wstate_n3.locked.qasm": "63e8639bf5334730ef9e08b635cbb05e3311cf512794a7cf0568a2c47fd6aa40",
            "wstate_n3.restored.qasm": "f8a199d17fb824ecd9cf69563f9dfdb3ef9801e745fd9ecd21f179fadda0a268",
        },
        id="repro",
    ),
]


@pytest.mark.parametrize("argv, digests", _GOLDEN)
def test_output_bytes_golden(tmp_path, adder_path, argv, digests):
    locked, key = _obfuscate(tmp_path, adder_path)
    out = tmp_path / "out"
    out.mkdir()
    paths = {"adder": adder_path, "locked": locked, "key": key, "out": out}
    assert main([arg.format(**paths) for arg in argv]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert written == digests


def test_repro_refuses_failed_restoration(tmp_path, monkeypatch, capsys):
    # a broken unlock that skips the phase key leaves randomized angles behind
    monkeypatch.setattr(unlocking, "apply_phase_key", lambda circuit, assignments: circuit)
    code = main(["repro", "--out-dir", str(tmp_path / "repro"), "--inputs", "1", "--shots", "10"])
    assert code == 3
    err = capsys.readouterr().err
    assert "does not restore" in err and err.count("\n") == 1


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


def test_env_var_malformed_seed_is_usage_error(tmp_path, adder_path, monkeypatch, capsys):
    monkeypatch.setenv("QLOCK_SEED", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["simulate", str(adder_path), "-o", str(tmp_path / "c.json"), "--shots", "8"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid int value: 'abc'" in err and err.count("\n") == 1
    assert not (tmp_path / "c.json").exists()
    # an explicit --seed does not read the variable
    assert main(
        ["simulate", str(adder_path), "-o", str(tmp_path / "c.json"), "--shots", "8", "--seed", "1"]
    ) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["obfuscate", "IN", "-o", "l.qasm", "--key", "k.json", "--seed", "abc"],
        ["obfuscate", "IN", "-o", "l.qasm", "--key", "k.json", "--strategy", "bogus"],
        ["obfuscate", "IN", "--key", "k.json"],
        ["bogus", "IN"],
    ],
    ids=["seed", "strategy", "missing_output", "subcommand"],
)
def test_usage_error_is_one_line(tmp_path, adder_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([str(adder_path) if a == "IN" else a for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("qlock") and ": error: " in err and err.count("\n") == 1


def test_stats_huge_register_exits_2(tmp_path, capsys):
    source = tmp_path / "huge.qasm"
    source.write_text("OPENQASM 2.0;\nqreg q[99999999999];\n")
    assert main(["stats", str(source)]) == 2
    err = capsys.readouterr().err
    assert "line 2, col 8" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "statement",
    ["qreg q[" + "1" * 5000 + "];", "qreg q[2];\nx q[" + "1" * 5000 + "];"],
    ids=["size", "index"],
)
def test_stats_huge_integer_literal_exits_2(tmp_path, capsys, statement):
    source = tmp_path / "huge.qasm"
    source.write_text(f"OPENQASM 2.0;\n{statement}\n")
    assert main(["stats", str(source)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line ") and "longer than 4300 digits" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "angle, col",
    [("(" * 10_000 + "1" + ")" * 10_000, 115), ("-(" * 10_000 + "1" + ")" * 10_000, 216)],
    ids=["parentheses", "negated"],
)
def test_stats_deep_angle_nesting_exits_2(tmp_path, capsys, angle, col):
    # the error stands at the 101st "("
    source = tmp_path / "deep.qasm"
    source.write_text(f"qreg q[1]; rz({angle}) q[0];")
    assert main(["stats", str(source)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: line 1, col {col}: angle expression nested deeper than 100 parentheses\n"


def test_nested_angle_expressions_keep_their_values():
    text, value = "0.5", 0.5
    for _ in range(50):
        text, value = f"-({text}*3-pi)/2", -(value * 3 - math.pi) / 2
    for angle, want in [
        (text, value),
        ("(" * 100 + "1.5" + ")" * 100, 1.5),
        ("-" * 10_000 + "1.5", 1.5),
        ("-" * 10_001 + "1.5", -1.5),
    ]:
        assert parse_circuit(f"qreg q[1]; rz({angle}) q[0];").ops[0].params == (want,)


def test_stats_non_utf8_input_exits_2(tmp_path, capsys):
    source = tmp_path / "bad.qasm"
    source.write_bytes(b"OPENQASM 2.0;\r\nqreg q[1];\r\n\xffx q[0];\r\n")
    assert main(["stats", str(source)]) == 2
    assert capsys.readouterr().err == f"error: {source}: not UTF-8 text (byte offset 27)\n"


def test_deobfuscate_non_utf8_key_exits_2(tmp_path, adder_path, capsys):
    locked, key = _obfuscate(tmp_path, adder_path)
    key.write_bytes(key.read_bytes()[:10] + b"\xc3(" + key.read_bytes()[10:])
    capsys.readouterr()
    assert main(["deobfuscate", str(locked), str(key), "-o", str(tmp_path / "y.qasm")]) == 2
    assert capsys.readouterr().err == f"error: {key}: not UTF-8 text (byte offset 10)\n"


@pytest.mark.parametrize("strategy, cones", [("random", 0), ("lightcone", 1)])
def test_obfuscate_layerizes_twice(tmp_path, adder_path, monkeypatch, strategy, cones):
    # once to plan, once to lock; only lightcone builds a light-cone table
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapper

    wrappers = {fn.__name__: counted(fn) for fn in (layerize, qlock_circuit.light_cone_rank)}
    for module in (qlock_circuit, locking, cli):
        for name, wrapper in wrappers.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    _obfuscate(tmp_path, adder_path, "--strategy", strategy)
    assert calls.count("layerize") == 2 and calls.count("light_cone_rank") == cones


@pytest.mark.parametrize("strategy", ["random", "lightcone"])
@pytest.mark.parametrize(
    "counts",
    [["--logic-sites", "-1", "--phase-sites", "1"], ["--dense", "--logic-sites", "-2"]],
    ids=["select", "dense"],
)
def test_obfuscate_negative_site_count_exits_3(tmp_path, adder_path, capsys, strategy, counts):
    locked, key = tmp_path / "locked.qasm", tmp_path / "key.json"
    code = main(
        ["obfuscate", str(adder_path), "-o", str(locked), "--key", str(key), "--strategy", strategy, *counts]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "must not be negative" in err and err.count("\n") == 1
    assert not locked.exists() and not key.exists()


def test_evaluate_negative_wrong_key_sweep_exits_3(tmp_path, adder_path, capsys):
    locked, key = _obfuscate(tmp_path, adder_path)
    report = tmp_path / "r.json"
    code = main(
        ["evaluate", str(adder_path), str(locked), str(key), "-o", str(report), "--wrong-key-sweep", "-3"]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "must not be negative" in err and err.count("\n") == 1
    assert not report.exists()


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
