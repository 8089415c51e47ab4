"""Workloads of the qlock benchmark: seeded inputs, the CLI commands of one
pass, and the checks on what those commands wrote.

Each workload stages its inputs under ``<dir>/in`` and every command writes
under ``<dir>/out``, so the bytes under ``out`` are the pass's fingerprint.
Commands are grouped: ``evaluate`` (``repro``/``evaluate``) and ``lock``
(``obfuscate`` + ``deobfuscate``), which give the ``evaluate_ref`` and
``lock_roundtrip_ref`` metrics.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qlock import benchmarks, evaluation, qasm
from qlock.circuit import flatten, layerize
from qlock.rng import derive_rng
from qlock.simulator import NoiseConfig, statevector

SHOTS = 100
SWEEP_KEYS = 20
# a bundled round trip takes milliseconds, so its mean time needs more
# tries per pass than the evaluate commands beside it
ROUNDTRIP_REPEATS = 10
OVERLAP_TOL = 1e-9

# the closed gate alphabet of the circuit IR, with each gate's qubit count
ALPHABET = {
    "x": 1, "y": 1, "z": 1, "h": 1, "s": 1, "t": 1, "sdg": 1, "tdg": 1,
    "rz": 1, "p": 1, "u3": 1, "cx": 2, "cy": 2, "cz": 2, "ch": 2, "ccx": 3,
}

# (qubits, gates): gate count scales parse/lock/unlock, width scales the
# statevector (14 qubits locks to 15, where state size dominates per gate)
SYNTHETIC_SIZES = ((8, 1000), (10, 4000), (14, 200))


def synthetic_qasm(seed: int, num_qubits: int, num_gates: int) -> str:
    """Random circuit over the full gate alphabet, measured on every qubit.

    Kinds come in equal shares (shuffled), so work per circuit barely moves
    with the seed; ``rz``/``p`` angles sit on the pi/4 grid so every phase
    gate is lockable. Same arguments, same bytes.
    """
    rng = random.Random(f"qlock-perfbench:{seed}:{num_qubits}:{num_gates}")
    kinds = [list(ALPHABET)[i % len(ALPHABET)] for i in range(num_gates)]
    rng.shuffle(kinds)
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{num_qubits}];", f"creg c[{num_qubits}];"]
    for kind in kinds:
        qubits = rng.sample(range(num_qubits), ALPHABET[kind])
        if kind in ("rz", "p"):
            params = f"({rng.randrange(8)}*pi/4)"
        elif kind == "u3":
            params = "(" + ",".join(repr(rng.uniform(0.0, 2.0 * math.pi)) for _ in range(3)) + ")"
        else:
            params = ""
        lines.append(f"{kind}{params} {','.join(f'q[{q}]' for q in qubits)};")
    lines.extend(f"measure q[{q}] -> c[{q}];" for q in range(num_qubits))
    return "\n".join(lines) + "\n"


class Checks:
    """Output checks: each one attempted, each failure counted and named."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass(frozen=True)
class EvalSpec:
    """One evaluation a command ran, with what its report says it found.

    ``expected`` maps mode to the report's per-input TVDs, or to a one-item
    list holding the mean when the report (``repro``) only keeps means.
    """

    original: Path
    locked: Path
    key: Path
    config: "evaluation.EvalConfig"
    expected: dict[str, list[float]]
    means_only: bool


def fingerprint(out_dir: Path) -> dict[str, str]:
    """sha256 of every file a pass wrote, by path relative to ``out_dir``."""
    return {
        str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


def read_text(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def _check_key(path: Path, checks: Checks) -> None:
    data = json.loads(read_text(path))
    n_logic = sum(1 for e in data["schedule"] if e["kind"] == "logic")
    n_phase = sum(1 for e in data["schedule"] if e["kind"] == "phase")
    checks.check(len(data["bits"]) == n_logic + 3 * n_phase, f"{path.name}: key length")


def _report_tvds(report: dict) -> list[float]:
    values = [v for row in report["rows"] for k, v in row.items() if k.startswith("tvd_")]
    for per_mode in report.get("per_input", {}).values():
        values.extend(per_mode)
    values.extend(report.get("wrong_key_sweep", {}).get("tvds", []))
    return values


def _check_report(path: Path, checks: Checks) -> None:
    values = _report_tvds(json.loads(read_text(path)))
    checks.check(bool(values) and all(0.0 <= v <= 1.0 for v in values), f"{path.name}: TVD outside [0, 1]")


def parse_file(path: Path):
    return qasm.parse_circuit(read_text(path))


class BundledWorkload:
    """The four bundled circuits, each round-tripped through ``obfuscate`` /
    ``deobfuscate``, then evaluated.

    Noiseless: ``qlock repro``, then ``evaluate --wrong-key-sweep`` on each
    circuit ``repro`` locked. Noisy: the shape of ``repro --noise`` (all
    modes, independent sampling, default ``p1``/``p2``) as one ``evaluate
    --noise`` per round-tripped circuit.
    """

    def __init__(self, name: str, noise: bool, inputs: int):
        self.name = name
        self.noise = noise
        self.inputs = inputs
        self.locked_dir = "rt" if noise else "repro"

    def stage(self, d: Path, seed: int) -> None:
        (d / "in").mkdir(parents=True)
        for name in benchmarks.NAMES:
            (d / "in" / f"{name}.qasm").write_text(benchmarks.load(name), encoding="utf-8")

    def commands(self, d: Path, seed: int) -> list[tuple[str, list[str]]]:
        inp, out = d / "in", d / "out"
        cmds = []
        for name in benchmarks.NAMES:
            locked, key = out / "rt" / f"{name}.locked.qasm", out / "rt" / f"{name}.key.json"
            cmds += [
                ("lock", ["obfuscate", str(inp / f"{name}.qasm"), "-o", str(locked),
                          "--key", str(key), "--seed", str(seed)]),
                ("lock", ["deobfuscate", str(locked), str(key),
                          "-o", str(out / "rt" / f"{name}.restored.qasm")]),
            ] * ROUNDTRIP_REPEATS
        common = ["--seed", str(seed), "--inputs", str(self.inputs), "--shots", str(SHOTS)]
        if self.noise:
            extra = ["--noise"]
        else:
            cmds.append(("evaluate", ["repro", "--out-dir", str(out / "repro"), *common]))
            extra = ["--wrong-key-sweep", str(SWEEP_KEYS)]
        for name in benchmarks.NAMES:
            locked = out / self.locked_dir / f"{name}.locked.qasm"
            key = out / self.locked_dir / f"{name}.key.json"
            cmds.append(("evaluate", ["evaluate", str(inp / f"{name}.qasm"), str(locked), str(key),
                                      "-o", str(out / "eval" / f"{name}.json"), *common, *extra]))
        return cmds

    def check_outputs(self, d: Path, seed: int, checks: Checks) -> None:
        """Correct-key restoration is unitary equivalence to the original."""
        out = d / "out"
        for name in benchmarks.NAMES:
            reference = flatten(layerize(parse_file(d / "in" / f"{name}.qasm")))
            for sub in dict.fromkeys(("rt", self.locked_dir)):
                restored = parse_file(out / sub / f"{name}.restored.qasm")
                checks.check(
                    evaluation.equivalent_up_to_global_phase(reference, restored),
                    f"{sub}/{name}: restored circuit not equivalent to the original",
                )
                _check_key(out / sub / f"{name}.key.json", checks)
            _check_report(out / "eval" / f"{name}.json", checks)
        if not self.noise:
            _check_report(out / "repro" / "report.json", checks)

    def evaluations(self, d: Path, seed: int) -> list[EvalSpec]:
        out = d / "out"
        specs = []
        if not self.noise:
            report = json.loads(read_text(out / "repro" / "report.json"))
            for name, row in zip(benchmarks.NAMES, report["rows"]):
                # repro derives one seed per circuit for locking and evaluation
                cseed = int(derive_rng(seed, "repro", name).integers(2**63))
                specs.append(EvalSpec(
                    original=d / "in" / f"{name}.qasm",
                    locked=out / "repro" / f"{name}.locked.qasm",
                    key=out / "repro" / f"{name}.key.json",
                    config=self._config(cseed),
                    expected={m: [row[f"tvd_{m}"]] for m in evaluation.MODES},
                    means_only=True,
                ))
        for name in benchmarks.NAMES:
            rep = json.loads(read_text(out / "eval" / f"{name}.json"))
            specs.append(EvalSpec(
                original=d / "in" / f"{name}.qasm",
                locked=out / self.locked_dir / f"{name}.locked.qasm",
                key=out / self.locked_dir / f"{name}.key.json",
                config=self._config(seed),
                expected=rep["per_input"],
                means_only=False,
            ))
        return specs

    def _config(self, seed: int) -> "evaluation.EvalConfig":
        return evaluation.EvalConfig(
            n_inputs=self.inputs, shots=SHOTS, seed=seed,
            noise=NoiseConfig(enabled=self.noise, seed=seed),
        )


class SyntheticWorkload:
    """``obfuscate`` -> ``deobfuscate`` -> ``evaluate --modes combined
    restored --inputs 2`` on generated circuits of ``SYNTHETIC_SIZES``."""

    name = "synthetic_pipeline"
    modes = ("combined", "restored")
    inputs = 2

    @staticmethod
    def _stem(num_qubits: int, num_gates: int) -> str:
        return f"synth_q{num_qubits}_g{num_gates}"

    def stage(self, d: Path, seed: int) -> None:
        (d / "in").mkdir(parents=True)
        for n, g in SYNTHETIC_SIZES:
            (d / "in" / f"{self._stem(n, g)}.qasm").write_text(synthetic_qasm(seed, n, g), encoding="utf-8")

    def commands(self, d: Path, seed: int) -> list[tuple[str, list[str]]]:
        cmds = []
        for n, g in SYNTHETIC_SIZES:
            stem = self._stem(n, g)
            original, out = d / "in" / f"{stem}.qasm", d / "out"
            locked, key = out / f"{stem}.locked.qasm", out / f"{stem}.key.json"
            cmds.append(("lock", ["obfuscate", str(original), "-o", str(locked), "--key", str(key),
                                  "--seed", str(seed)]))
            cmds.append(("lock", ["deobfuscate", str(locked), str(key),
                                  "-o", str(out / f"{stem}.restored.qasm")]))
            cmds.append(("evaluate", [
                "evaluate", str(original), str(locked), str(key), "-o", str(out / f"{stem}.eval.json"),
                "--modes", *self.modes, "--inputs", str(self.inputs), "--shots", str(SHOTS),
                "--seed", str(seed),
            ]))
        return cmds

    def check_outputs(self, d: Path, seed: int, checks: Checks) -> None:
        """Correct-key restoration is statevector overlap on a Haar input:
        ``unitary_of`` stops at 10 qubits and is too slow at 9k gates."""
        for n, g in SYNTHETIC_SIZES:
            stem = self._stem(n, g)
            original = parse_file(d / "in" / f"{stem}.qasm")
            restored = parse_file(d / "out" / f"{stem}.restored.qasm")
            ok = restored.num_qubits == original.num_qubits
            if ok:
                layer = evaluation.random_input_layer(n, int(derive_rng(seed, "perfbench-overlap", stem).integers(2**63)))
                a = statevector(evaluation.with_input_layer(original, layer))
                b = statevector(evaluation.with_input_layer(restored, layer))
                ok = abs(np.vdot(a, b)) ** 2 >= 1.0 - OVERLAP_TOL
            checks.check(ok, f"{stem}: restored circuit overlap below 1 - {OVERLAP_TOL}")
            _check_key(d / "out" / f"{stem}.key.json", checks)
            _check_report(d / "out" / f"{stem}.eval.json", checks)

    def evaluations(self, d: Path, seed: int) -> list[EvalSpec]:
        specs = []
        for n, g in SYNTHETIC_SIZES:
            stem = self._stem(n, g)
            rep = json.loads(read_text(d / "out" / f"{stem}.eval.json"))
            specs.append(EvalSpec(
                original=d / "in" / f"{stem}.qasm",
                locked=d / "out" / f"{stem}.locked.qasm",
                key=d / "out" / f"{stem}.key.json",
                config=evaluation.EvalConfig(
                    n_inputs=self.inputs, shots=SHOTS, seed=seed, modes=self.modes,
                ),
                expected=rep["per_input"],
                means_only=False,
            ))
        return specs


WORKLOADS = {
    w.name: w
    for w in (
        BundledWorkload("bundled_repro", noise=False, inputs=10),
        BundledWorkload("bundled_noisy", noise=True, inputs=1),
        SyntheticWorkload(),
    )
}

