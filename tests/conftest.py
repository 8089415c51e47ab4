import hypothesis
import numpy as np
import pytest

from qlock import Circuit, Gate, Measure, parse_circuit
from qlock import benchmarks
from qlock.circuit import GATE_SPECS

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
