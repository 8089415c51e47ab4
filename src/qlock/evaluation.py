"""Obfuscation-strength evaluation: TVD between outcome distributions under
sampled input states.

Input sampling prepends an independent Haar-random ``u3`` to every original
qubit (theta = 2*arccos(sqrt(u)), phi and lambda uniform), so results reflect
the whole input space rather than the all-zeros state. For each sampled
input, the original circuit is the golden reference and each requested mode
is compared against it, every arm sampled on the original's measured qubits
(all of them when it measures none), so the key ancilla is never an outcome:

- ``combined``: the locked circuit exactly as compiled (ancilla Hadamards in
  place, randomized angles);
- ``logic_only``: locked circuit with the phase key resolved correctly,
  isolating logic corruption;
- ``phase_only``: logic key resolved correctly, randomized angles kept;
- ``restored``: full correct-key unlock with simplification.

Runs sample independent or paired streams (``EvalConfig.sampling``), and
``tvd`` compares their counts by outcome index, so no outcome string is built.

Noiseless inputs are simulated in chunks, each arm compiled once into a
fused program (see ``_tvds``). A wrong-key sweep unlocks no key: the
record's ``key_template`` gives what ``unlock`` would restore for any key,
and noiseless, each key's program comes from the template's key program
(described in ``simulator``). Both multiply the gates in other groupings
than running every arm behind every input layer on its own
(``with_input_layer``, then ``run``), which moves a count only if a
multinomial draw lands within the last bits of a boundary;
``tests/test_evaluation.py`` checks the counts, and the sweep's TVDs against
one unlock per key, for equality. A noisy sweep runs each key's restored
circuit (``KeyTemplate.restored``).
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .circuit import Barrier, Circuit, Gate, Measure
from .locking import ObfuscationRecord
from .rng import derive_rng, stream_seed
from .simulator import (
    Distribution,
    NoiseConfig,
    Program,
    batch_columns,
    compile_key_program,
    compile_program,
    gate_matrix,
    run,
    statevector,
    unitary_of,
)
from .unlocking import (
    KeyTemplate,
    apply_phase_key,
    find_ancilla,
    insert_key_toggles,
    key_template,
    measured_data_qubits,
    simplify,
    unlock,
)

MODES = ("logic_only", "phase_only", "combined", "restored")


def _arm_seed(seed: int, input_index: int, arm: str, sampling: str) -> int:
    """Sampling stream for one run: per (input, arm) when independent, shared
    across arms per input when paired."""
    if sampling == "paired":
        arm = "common"
    return stream_seed(seed, "eval-arm", input_index, arm)


def tvd(a: Distribution, b: Distribution) -> float:
    """Total variation distance: sum |count_a - count_b| over outcomes / (2N),
    the outcomes compared by index (``Distribution.by_index``)."""
    if a.shots != b.shots:
        raise ValueError(f"shot counts differ: {a.shots} vs {b.shots}")
    if a.bits != b.bits:
        raise ValueError(f"outcome widths differ: {a.bits} vs {b.bits}")
    ca, cb = a.by_index, b.by_index
    total = sum(abs(count - cb.get(k, 0)) for k, count in ca.items())
    total += sum(count for k, count in cb.items() if k not in ca)
    return total / (2.0 * a.shots)


def random_input_layer(num_qubits: int, seed: int = 0) -> tuple[Gate, ...]:
    """One Haar-random single-qubit ``u3`` per qubit, deterministic in seed."""
    rng = derive_rng(seed, "input-layer")
    gates = []
    for q in range(num_qubits):
        theta = 2.0 * math.acos(math.sqrt(float(rng.uniform(0.0, 1.0))))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        lam = float(rng.uniform(0.0, 2.0 * math.pi))
        gates.append(Gate("u3", (theta, phi, lam), (q,)))
    return tuple(gates)


def _layer_states(layers: list[tuple[Gate, ...]], width: int) -> np.ndarray:
    """The state each input layer prepares from |0...0> on ``width`` qubits, one per column.

    A layer's ``u3`` gates act on qubits 0, 1, ... in turn, so its state is
    the product of their matrices' first columns, qubit 0 least significant;
    the qubits above the layer's stay |0>.
    """
    states = np.zeros((2**width, len(layers)), dtype=complex)
    for column, layer in enumerate(layers):
        state = np.ones(1, dtype=complex)
        for gate in layer:
            state = np.multiply.outer(gate_matrix(gate)[:, 0], state).reshape(-1)
        states[: state.size, column] = state
    return states


def with_input_layer(circuit: Circuit, layer: tuple[Gate, ...]) -> Circuit:
    """Prepend input-state gates (indices must fit the circuit) plus a barrier."""
    ops = tuple(layer) + (Barrier(tuple(range(circuit.num_qubits))),) + circuit.ops
    return replace(circuit, ops=ops)


def unitaries_equivalent(ua: np.ndarray, ub: np.ndarray, tol: float = 1e-9) -> bool:
    """Elementwise equality after aligning global phase on the largest entry."""
    if ua.shape != ub.shape:
        raise ValueError(f"dimension mismatch: {ua.shape} vs {ub.shape}")
    idx = int(np.argmax(np.abs(ua)))
    ref = ua.flat[idx]
    other = ub.flat[idx]
    if abs(other) < tol:
        return False
    factor = ref / other
    if abs(abs(factor) - 1.0) > tol:
        return False
    return bool(np.max(np.abs(ua - factor * ub)) <= tol)


def equivalent_up_to_global_phase(a: Circuit, b: Circuit, tol: float = 1e-9) -> bool:
    """True iff the circuits' unitaries differ only by a global phase factor."""
    if a.num_qubits != b.num_qubits:
        raise ValueError(
            f"dimension mismatch: {a.num_qubits} vs {b.num_qubits} qubits"
        )
    return unitaries_equivalent(unitary_of(a), unitary_of(b), tol)


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation protocol: 10 inputs x 100 shots by default.

    ``sampling`` selects the comparison instrument. ``independent`` draws a
    fresh stream per run, like physically separate executions, so every TVD
    carries the protocol's shot-noise floor (roughly sqrt(2^b/(pi*shots)) for
    identical circuits). ``paired`` reuses one stream per input across the
    reference and every mode (common random numbers), canceling shot noise so
    the TVD isolates the circuit-level difference; use it to resolve small
    residuals, e.g. the restored circuit under noise.
    """

    n_inputs: int = 10
    shots: int = 100
    seed: int = 0
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    modes: tuple[str, ...] = MODES
    sampling: str = "independent"

    def __post_init__(self):
        if self.n_inputs < 1 or self.shots < 1:
            raise ValueError("n_inputs and shots must be positive")
        object.__setattr__(self, "modes", tuple(dict.fromkeys(self.modes)))
        for mode in self.modes:
            if mode not in MODES:
                raise ValueError(f"unknown mode {mode!r}")
        if self.sampling not in ("independent", "paired"):
            raise ValueError(f"unknown sampling scheme {self.sampling!r}")


@dataclass(frozen=True)
class TvdReport:
    modes: tuple[str, ...]
    per_input: dict[str, tuple[float, ...]]
    mean: dict[str, float]
    min: dict[str, float]
    max: dict[str, float]
    wrong_key_sweep: dict | None = None


def mode_circuits(record: ObfuscationRecord, modes: tuple[str, ...]) -> dict[str, Circuit]:
    """Build the circuit each mode simulates; raises if the record cannot
    express a requested mode (e.g. phase_only with zero phase sites)."""
    key = record.key
    n_logic = sum(1 for e in key.schedule if e.kind == "logic")
    n_phase = sum(1 for e in key.schedule if e.kind == "phase")
    locked = record.locked_circuit
    out: dict[str, Circuit] = {}
    for mode in modes:
        if mode == "combined":
            out[mode] = locked
        elif mode == "restored":
            out[mode] = unlock(locked, key).restored_circuit
        elif mode == "logic_only":
            if n_logic == 0:
                raise ValueError("record has no logic sites; logic_only mode is undefined")
            out[mode] = apply_phase_key(locked, key.phase_assignments())
        elif mode == "phase_only":
            if n_phase == 0:
                raise ValueError("record has no phase sites; phase_only mode is undefined")
            resolved = locked
            ancilla = find_ancilla(locked)
            bits = key.logic_bits()
            if bits:
                resolved = insert_key_toggles(resolved, key, ancilla)
                resolved = simplify(resolved, bits, ancilla)
            out[mode] = resolved
        else:
            raise ValueError(f"unknown mode {mode!r}")
    return out


def _tvds(
    original: Circuit,
    arms: dict[str, Circuit],
    config: EvalConfig,
    sweep: tuple[KeyTemplate, dict[str, str]] | None = None,
) -> dict[str, list[float]]:
    """Per-input TVD of each named arm, and of each candidate of ``sweep``
    (a key template and named candidate bits), against the original.

    Input ``i`` gets its own Haar layer from the ``"eval-input"`` stream, and
    every run samples from its own ``_arm_seed`` stream, so neither the order
    of runs nor how inputs are chunked can change any count. The arms run one
    after another, the reference first, whose distributions are kept for the
    rest, and the sweep's candidates last, each built only when it runs.
    Noiseless inputs go in chunks of ``batch_columns`` of the widest circuit:
    each arm is compiled once into its fused program (``compile_program``),
    and each candidate's program comes from the template's key program
    (``compile_key_program``, built once); the program evolves each chunk in
    one batched ``statevector``, from each input layer's product state
    (``_layer_states``); ``run`` then samples each column through the
    original's measurements alone, so it evolves nothing. Only
    one arm's program is held at a time. The last chunk's input layers, and
    their states once per circuit width, are kept for the next arm, so a
    single chunk builds them once. Noisy runs (``NoiseConfig.active``) take
    one input at a time through ``with_input_layer`` of the arm's gates and
    the original's measurements, because the layer's gates carry noise too,
    and a noisy candidate runs its ``KeyTemplate.restored`` circuit.
    """
    template, candidates = sweep or (None, {})
    noisy = config.noise.active
    widest = max(c.num_qubits for c in (original, *arms.values(), *([template.circuit] if template else [])))
    chunk = 1 if noisy else batch_columns(widest)
    held: dict = {}  # the last chunk's inputs, their layers and, by circuit width, their states
    outcome = tuple(Measure(q, c) for c, q in enumerate(original.measured_qubits()))

    def layers(inputs: range) -> list[tuple[Gate, ...]]:
        if held.get("inputs") != inputs:
            held.clear()
            held["inputs"] = inputs
            seeds = (stream_seed(config.seed, "eval-input", i) for i in inputs)
            held["layers"] = [random_input_layer(original.num_qubits, seed) for seed in seeds]
        return held["layers"]

    def starts(inputs: range, width: int) -> np.ndarray:
        chunk_layers = layers(inputs)
        if width not in held:
            held[width] = _layer_states(chunk_layers, width)
        return held[width]

    def sample(circuit: Circuit, arm: str, program: Program | None = None) -> Iterator[Distribution]:
        if program is None and not noisy:
            program = compile_program(circuit)
        kept = tuple(op for op in circuit.ops if not isinstance(op, Measure)) if noisy else ()
        measured = Circuit(circuit.num_qubits, len(outcome), kept + outcome)
        for first in range(0, config.n_inputs, chunk):
            inputs = range(first, min(first + chunk, config.n_inputs))
            seeds = [_arm_seed(config.seed, i, arm, config.sampling) for i in inputs]
            if noisy:
                for layer, seed in zip(layers(inputs), seeds):
                    yield run(with_input_layer(measured, layer), config.shots, noise=config.noise, seed=seed)
                continue
            states = statevector(circuit, starts(inputs, circuit.num_qubits), program)
            runs = [
                run(measured, config.shots, initial=state, noise=config.noise, seed=seed)
                for state, seed in zip(states.T, seeds)
            ]
            del states  # let the chunk's states go before the next chunk evolves
            yield from runs

    reference = list(sample(original, "reference"))
    out = {arm: list(map(tvd, reference, sample(circuit, arm))) for arm, circuit in arms.items()}
    if noisy:
        for arm, bits in candidates.items():
            out[arm] = list(map(tvd, reference, sample(template.restored(bits), arm)))
    elif candidates:
        keys = compile_key_program(template)
        for arm, bits in candidates.items():
            out[arm] = list(map(tvd, reference, sample(template.circuit, arm, keys.program(bits))))
    return out


def evaluate(
    original: Circuit, record: ObfuscationRecord, config: EvalConfig, wrong_keys: int = 0
) -> TvdReport:
    """TVD of each requested mode against the original, over sampled inputs.

    With ``wrong_keys`` set, the report also carries a wrong-key sweep: the
    mean TVD of that many uniformly random concrete keys, each as a full
    unlock would restore it, plus a 10-bin histogram of those means. The
    random keys share the mode arms' runs of the reference, so each input's
    reference is simulated once. Every key comes from one ``key_template``
    of the record, equal to what ``unlock`` restores for it, so no key is
    unlocked; noiseless, each key's program comes from the template's key
    program (see ``simulator``), so no key's circuit is compiled either.
    Every arm is scored on the original's measured qubits, and a lock is
    refused before any arm is built if its data qubits (those besides the key
    ancilla), or those it measures, differ from the original's.
    """
    if wrong_keys < 0:
        raise ValueError(f"wrong-key sweep size must not be negative, got {wrong_keys}")
    locked = record.locked_circuit
    data_qubits = locked.num_qubits - (find_ancilla(locked) is not None)
    if data_qubits != original.num_qubits:
        raise ValueError(
            f"the original circuit has {original.num_qubits} qubits "
            f"but the locked circuit has {data_qubits} data qubits"
        )
    measured, locked_measured = original.measured_qubits(), measured_data_qubits(locked)
    if locked_measured != measured:
        raise ValueError(
            f"the original circuit measures qubits {list(measured)} "
            f"but the locked circuit measures data qubits {list(locked_measured)}"
        )
    arms = mode_circuits(record, config.modes)
    candidates = _wrong_key_arms(record, config, wrong_keys)
    sweep = (key_template(locked, record.key), candidates) if candidates else None
    per_input = _tvds(original, arms, config, sweep)
    modes = {m: per_input[m] for m in config.modes}
    summary = _sweep_summary(wrong_keys, [per_input[k] for k in candidates]) if wrong_keys else None
    return TvdReport(
        modes=config.modes,
        per_input={m: tuple(v) for m, v in modes.items()},
        mean={m: sum(v) / len(v) for m, v in modes.items()},
        min={m: min(v) for m, v in modes.items()},
        max={m: max(v) for m, v in modes.items()},
        wrong_key_sweep=summary,
    )


def _wrong_key_arms(record: ObfuscationRecord, config: EvalConfig, n_keys: int) -> dict[str, str]:
    """``n_keys`` uniformly random concrete keys, as bit strings by arm name."""
    rng = derive_rng(config.seed, "wrong-keys")
    key_len = len(record.key.bits)
    return {
        f"wrong-key-{k}": "".join(map(str, rng.integers(2, size=key_len).tolist())) for k in range(n_keys)
    }


def _sweep_summary(n_keys: int, per_key: list[list[float]]) -> dict:
    tvds = [sum(v) / len(v) for v in per_key]
    histogram = {f"{b / 10:.1f}-{(b + 1) / 10:.1f}": 0 for b in range(10)}
    for value in tvds:
        bucket = min(int(value * 10), 9)
        histogram[f"{bucket / 10:.1f}-{(bucket + 1) / 10:.1f}"] += 1
    return {"n_keys": n_keys, "tvds": tvds, "histogram": histogram}


def wrong_key_sweep(
    original: Circuit,
    record: ObfuscationRecord,
    config: EvalConfig,
    n_keys: int,
) -> dict | None:
    """The wrong-key sweep of ``evaluate(..., wrong_keys=n_keys)`` alone; None
    for no keys. The CLI calls ``evaluate``. This function is kept because the
    benchmark's tracer (``perfbench/tracer.py``) wraps it by name; ROADMAP
    item 4 records its removal once the benchmark may change.
    """
    return evaluate(original, record, replace(config, modes=()), n_keys).wrong_key_sweep


# --- reporting -----------------------------------------------------------------

def report_row(circuit_name: str, record: ObfuscationRecord, rep: TvdReport) -> dict:
    depth, gates = record.original_metrics
    depth_obf, gates_obf = record.locked_metrics
    row = {
        "circuit": circuit_name,
        "depth": depth,
        "depth_obf": depth_obf,
        "gates": gates,
        "gates_obf": gates_obf,
        "logic_key_bits": sum(e.span for e in record.key.schedule if e.kind == "logic"),
        "phase_key_bits": sum(e.span for e in record.key.schedule if e.kind == "phase"),
    }
    for mode in rep.modes:
        row[f"tvd_{mode}"] = rep.mean[mode]
    return row


def rows_to_csv(rows: list[dict]) -> str:
    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def report_json(rows: list[dict], extra: dict | None = None) -> str:
    payload: dict = {"rows": rows}
    if extra:
        payload.update(extra)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
