"""Per-layer tracing of qlock from outside the program.

While a ``Tracer`` is installed, the public functions of ``qasm``, ``circuit``,
``locking``, ``unlocking``, ``simulator`` and ``evaluation`` are replaced, in
every qlock module that binds them, by wrappers that time each call. A call
made inside another traced call is a child span: each layer metric is the
self time of its spans (duration minus child spans), so the layers add up to
the time covered by the outermost spans, and ``cli.self_s`` is command wall
minus that covered time. Work counts are derived from arguments and results,
never from timing, so they repeat exactly for the same inputs.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from types import SimpleNamespace

import qlock
from qlock import circuit, cli, evaluation, locking, qasm, simulator, unlocking
from qlock.circuit import Gate
from qlock.rng import derive_rng

from workloads import Checks, EvalSpec, parse_file, read_text

_MODULES = (qlock, cli, qasm, circuit, locking, unlocking, simulator, evaluation)

TIME_METRICS = (
    "qasm.parse_s", "qasm.emit_s",
    "circuit.layerize_s", "circuit.light_cone_s", "circuit.metrics_s",
    "locking.plan_s", "locking.obfuscate_s", "locking.key_io_s",
    "unlocking.unlock_s",
    "simulator.run_s",
    "evaluation.loop_s", "evaluation.mode_circuits_s", "evaluation.input_layers_s", "evaluation.tvd_s",
)
COUNT_METRICS = (
    "qasm.ops_parsed", "qasm.bytes_parsed",
    "locking.key_bits", "locking.locked_gates",
    "unlocking.unlock_calls", "unlocking.restored_gates",
    "simulator.runs", "simulator.gate_apps", "simulator.trajectories",
    "evaluation.comparisons",
)


def _gates(c) -> int:
    return sum(1 for op in c.ops if isinstance(op, Gate))


def _arg(args, kwargs, index, name):
    """A wrapped call's argument, whether passed by position or keyword."""
    return args[index] if len(args) > index else kwargs.get(name)


class Tracer:
    """Spans and counters for one traced pass."""

    def __init__(self, checks: Checks):
        self.checks = checks
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.noisy_run_s = 0.0
        self.covered_s = 0.0  # time inside outermost spans
        self._children: list[float] = []

    def _span(self, fn, metric, after=None):
        def traced(*args, **kwargs):
            self._children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.self_s[metric] += elapsed - self._children.pop()
            if after is not None:
                after(result, elapsed, args, kwargs)
            # bookkeeping in ``after`` is tracer cost: keep it out of the parent's self time
            covered = perf_counter() - start
            if self._children:
                self._children[-1] += covered
            else:
                self.covered_s += covered
            return result

        return traced

    # --- counters, from arguments and results ---------------------------------

    def _after_parse(self, result, elapsed, args, kwargs):
        self.counts["qasm.ops_parsed"] += len(result.ops)
        self.counts["qasm.bytes_parsed"] += len(_arg(args, kwargs, 0, "source").encode("utf-8"))

    def _after_obfuscate(self, record, elapsed, args, kwargs):
        self.counts["locking.key_bits"] += len(record.key.bits)
        self.counts["locking.locked_gates"] += _gates(record.locked_circuit)

    def _after_unlock(self, result, elapsed, args, kwargs):
        self.counts["unlocking.unlock_calls"] += 1
        self.counts["unlocking.restored_gates"] += _gates(result.restored_circuit)

    def _after_run(self, dist, elapsed, args, kwargs):
        shots = _arg(args, kwargs, 1, "shots")
        noise = _arg(args, kwargs, 3, "noise")
        noisy = noise is not None and noise.enabled
        gates = _gates(_arg(args, kwargs, 0, "circuit"))
        self.counts["simulator.runs"] += 1
        self.counts["simulator.gate_apps"] += gates * (shots if noisy else 1)
        if noisy:
            self.counts["simulator.trajectories"] += shots
            self.noisy_run_s += elapsed
        self.checks.check(sum(dist.counts.values()) == shots, "run: counts do not sum to shots")

    def _after_tvd(self, value, elapsed, args, kwargs):
        self.counts["evaluation.comparisons"] += 1
        self.checks.check(0.0 <= value <= 1.0, "tvd outside [0, 1]")

    def _wrappers(self) -> dict:
        spec = [
            (qasm.parse_circuit, "qasm.parse_s", self._after_parse),
            (qasm.emit_circuit, "qasm.emit_s", None),
            (circuit.layerize, "circuit.layerize_s", None),
            (circuit.light_cone_rank, "circuit.light_cone_s", None),
            (circuit.metrics, "circuit.metrics_s", None),
            (locking.dense_plan, "locking.plan_s", None),
            (locking.select_sites, "locking.plan_s", None),
            (locking.obfuscate, "locking.obfuscate_s", self._after_obfuscate),
            (locking.export_key, "locking.key_io_s", None),
            (locking.import_key, "locking.key_io_s", None),
            (unlocking.unlock, "unlocking.unlock_s", self._after_unlock),
            (unlocking.insert_key_toggles, "unlocking.unlock_s", None),
            (unlocking.apply_phase_key, "unlocking.unlock_s", None),
            (unlocking.simplify, "unlocking.unlock_s", None),
            (simulator.run, "simulator.run_s", self._after_run),
            (evaluation.evaluate, "evaluation.loop_s", None),
            (evaluation.wrong_key_sweep, "evaluation.loop_s", None),
            (evaluation.mode_circuits, "evaluation.mode_circuits_s", None),
            (evaluation.random_input_layer, "evaluation.input_layers_s", None),
            (evaluation.with_input_layer, "evaluation.input_layers_s", None),
            (evaluation.tvd, "evaluation.tvd_s", self._after_tvd),
        ]
        return {fn: self._span(fn, metric, after) for fn, metric, after in spec}

    @contextmanager
    def installed(self):
        """Swap the wrappers into every qlock module binding a traced function."""
        wrappers = self._wrappers()
        swapped = []
        for module in _MODULES:
            for name, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    swapped.append((module, name, value))
                    setattr(module, name, wrappers[value])
        try:
            yield self
        finally:
            for module, name, value in swapped:
                setattr(module, name, value)

    def metrics(self, command_wall_s: float) -> dict[str, float]:
        """This pass's per-layer metrics (``self_s`` values plus counts)."""
        out: dict[str, float] = {m: self.self_s[m] for m in TIME_METRICS}
        out.update({m: self.counts[m] for m in COUNT_METRICS})
        out["cli.self_s"] = command_wall_s - self.covered_s
        out["simulator.gate_apps_per_s"] = self.counts["simulator.gate_apps"] / out["simulator.run_s"]
        return out

    def split_run(self) -> dict[str, float]:
        """``simulator.run_s`` split by noise, with the trajectory rate."""
        noisy = self.noisy_run_s
        return {
            "simulator.run_noiseless_s": self.self_s["simulator.run_s"] - noisy,
            "simulator.run_noisy_s": noisy,
            "simulator.trajectories_per_s": self.counts["simulator.trajectories"] / noisy if noisy else 0.0,
        }


def _arm_seed(seed: int, input_index: int, arm: str, sampling: str) -> int:
    """Sampling stream of one run as ``evaluate()`` derives it: per (input,
    arm) when independent, shared across arms per input when paired."""
    if sampling == "paired":
        arm = "common"
    return int(derive_rng(seed, "eval-arm", input_index, arm).integers(2**63))


def decomposed_tvds(spec: EvalSpec, checks: Checks) -> dict[str, list[float]]:
    """``evaluate()`` rebuilt from public calls: mode_circuits ->
    random_input_layer -> with_input_layer -> run -> tvd, per input."""
    cfg = spec.config
    original = parse_file(spec.original)
    # the two fields of an obfuscation record that mode_circuits reads
    record = SimpleNamespace(locked_circuit=parse_file(spec.locked), key=locking.import_key(read_text(spec.key)))
    circuits = evaluation.mode_circuits(record, cfg.modes)
    out: dict[str, list[float]] = {m: [] for m in cfg.modes}
    for i in range(cfg.n_inputs):
        layer_seed = int(derive_rng(cfg.seed, "eval-input", i).integers(2**63))
        layer = evaluation.random_input_layer(original.num_qubits, layer_seed)

        def sample(c, arm):
            dist = simulator.run(
                evaluation.with_input_layer(c, layer), cfg.shots, noise=cfg.noise,
                seed=_arm_seed(cfg.seed, i, arm, cfg.sampling),
            )
            checks.check(sum(dist.counts.values()) == cfg.shots, "run: counts do not sum to shots")
            return dist

        reference = sample(original, "reference")
        for mode in cfg.modes:
            out[mode].append(evaluation.tvd(reference, sample(circuits[mode], mode)))
    return out


def check_fidelity(specs: list[EvalSpec], checks: Checks) -> None:
    """The decomposition must reproduce each report's TVDs exactly."""
    for spec in specs:
        got = decomposed_tvds(spec, checks)
        if spec.means_only:
            got = {m: [sum(v) / len(v)] for m, v in got.items()}
        checks.check(
            got == {m: list(v) for m, v in spec.expected.items()},
            f"{spec.original.name}: decomposed evaluation does not reproduce evaluate() TVDs",
        )
