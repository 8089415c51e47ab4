import contextlib
import io
import json
import re

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from qlock import Circuit, Gate, Measure, parse_circuit
from qlock import benchmarks
from qlock.circuit import GATE_SPECS
from qlock.cli import main
from qlock.locking import dense_plan, obfuscate

hypothesis.settings.register_profile("ci", max_examples=50, deadline=None)
hypothesis.settings.load_profile("ci")


@pytest.fixture(scope="session")
def bench_circuits() -> dict[str, Circuit]:
    return {name: parse_circuit(benchmarks.load(name)) for name in benchmarks.NAMES}


def random_circuit(
    rng: np.random.Generator,
    max_qubits: int = 4,
    max_gates: int = 12,
    measured: bool = True,
    avoid_zero_angles: bool = False,
) -> Circuit:
    """Random circuit over the full alphabet; measurements, if any, terminal."""
    n = int(rng.integers(1, max_qubits + 1))
    ops: list = []
    for _ in range(int(rng.integers(0, max_gates + 1))):
        kinds = [k for k, (nq, _) in GATE_SPECS.items() if nq <= n]
        kind = kinds[int(rng.integers(len(kinds)))]
        nq, np_ = GATE_SPECS[kind]
        qubits = tuple(int(q) for q in rng.choice(n, size=nq, replace=False))
        params = []
        for _ in range(np_):
            if int(rng.integers(2)):
                k = int(rng.integers(1, 8)) if avoid_zero_angles else int(rng.integers(0, 8))
                params.append(k * np.pi / 4)
            else:
                params.append(float(rng.uniform(0.05, 2 * np.pi - 0.05)))
        ops.append(Gate(kind, tuple(params), qubits))
    num_clbits = 0
    if measured and int(rng.integers(2)):
        num_clbits = n
        ops.extend(Measure(q, q) for q in range(n))
    return Circuit(num_qubits=n, num_clbits=num_clbits, ops=tuple(ops))


def random_qasm_source(rng: np.random.Generator) -> str:
    """Random program text within the supported subset."""
    n = int(rng.integers(1, 5))
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n}];", f"creg c[{n}];"]
    for _ in range(int(rng.integers(0, 15))):
        kinds = [k for k, (nq, _) in GATE_SPECS.items() if nq <= n]
        kind = kinds[int(rng.integers(len(kinds)))]
        nq, np_ = GATE_SPECS[kind]
        qubits = rng.choice(n, size=nq, replace=False)
        head = kind
        if np_:
            vals = ",".join(format(float(rng.uniform(-7, 7)), ".17g") for _ in range(np_))
            head += f"({vals})"
        lines.append(f"{head} {','.join(f'q[{int(q)}]' for q in qubits)};")
    if int(rng.integers(2)):
        lines.append("barrier " + ",".join(f"q[{i}]" for i in range(n)) + ";")
    if int(rng.integers(2)):
        lines.extend(f"measure q[{i}] -> c[{i}];" for i in range(n))
    return "\n".join(lines) + "\n"


class NoNumpy:
    """Stand-in for a module's ``np`` that fails on any use: proves a guard
    refused its input before allocating anything."""

    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} reached before the size guard")


@pytest.fixture(scope="module")
def fuzz_lock(tmp_path_factory):
    """The adder's locked QASM lines and parsed key, and a directory to write edits in."""
    directory = tmp_path_factory.mktemp("fuzz")
    adder = directory / "adder.qasm"
    adder.write_text(benchmarks.load("adder_n4"))
    locked, key = directory / "locked.qasm", directory / "key.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["obfuscate", str(adder), "-o", str(locked), "--key", str(key), "--seed", "5"]) == 0
    return directory, locked.read_text().splitlines(), json.loads(key.read_text())


_WRONG_VALUES = (None, "x", 1.5, -1, True, [], {"kind": "logic"}, 2**70)
_GATE_NAMES = ("h", "x", "t", "cx", "ccx", "rz", "u3", "barrier", "measure", "bogus")


def fuzz_key(data, key: dict) -> None:
    """One hand edit of a key file's parsed JSON, drawn from ``data``."""
    entries = key["schedule"]
    edit = data.draw(st.sampled_from(("drop", "retype", "duplicate", "shuffle", "bits")))
    if edit in ("drop", "retype"):
        index = data.draw(st.integers(-1, len(entries) - 1))
        target = key if index < 0 else entries[index]
        field = data.draw(st.sampled_from(sorted(target)))
        if edit == "drop":
            del target[field]
        else:
            target[field] = data.draw(st.sampled_from(_WRONG_VALUES))
    elif edit == "duplicate":
        index = data.draw(st.integers(0, len(entries) - 1))
        entries.insert(data.draw(st.integers(0, len(entries))), dict(entries[index]))
        key["bits"] += data.draw(st.sampled_from(("", "1", "101")))
    elif edit == "shuffle":
        key["schedule"] = data.draw(st.permutations(entries))
    else:
        key["bits"] = data.draw(st.text("01", max_size=len(key["bits"]) + 4) | st.sampled_from(_WRONG_VALUES))


def fuzz_qasm(data, lines: list[str]) -> list[str]:
    """``lines`` of a locked QASM file after at most one hand edit drawn from ``data``."""
    lines = list(lines)
    edit = data.draw(st.sampled_from(("delete", "duplicate", "rename", "retarget", "none")))
    index = data.draw(st.integers(0, len(lines) - 1))
    if edit == "delete":
        del lines[index]
    elif edit == "duplicate":
        lines.insert(index, lines[index])
    elif edit == "rename":
        lines[index] = re.sub(r"^\w+", data.draw(st.sampled_from(_GATE_NAMES)), lines[index])
    elif edit == "retarget":
        found = [i for i, line in enumerate(lines) if "qk[0]" in line]
        index = found[index % len(found)]
        lines[index] = lines[index].replace("qk[0]", data.draw(st.sampled_from(("q[0]", "q[3]", "q[4]"))), 1)
    return lines


@pytest.fixture(scope="session")
def wide_record():
    """A 12-qubit circuit with every qubit measured, locked by a dense plan: 13
    qubits with the ancilla, where every evaluated batch is one column wide."""
    n, seed = 12, 5
    rng = np.random.default_rng(seed)
    gates = [Gate("h", (), (q,)) for q in range(n)]
    for _ in range(3 * n):
        a, b, c = (int(q) for q in rng.choice(n, 3, replace=False))
        angle = float(rng.uniform(0.1, 6.0))
        gates += [Gate("cx", (), (a, b)), Gate("rz", (angle,), (c,)), Gate("t", (), (b,))]
    circuit = Circuit(n, n, tuple(gates) + tuple(Measure(q, q) for q in range(n)))
    return circuit, obfuscate(circuit, dense_plan(circuit, seed=seed), seed=seed)
