"""Command-line surface tying the passes into reproducible experiments.

Subcommands: ``obfuscate``, ``deobfuscate``, ``simulate``, ``evaluate``,
``stats``, and ``repro`` (the consolidated benchmark experiment). Every
command is deterministic given its full flag set including ``--seed`` (env
``QLOCK_SEED`` supplies the default), and every output file is a valid input
to the downstream commands.

Exit codes: 0 success, 2 input/parse error, 3 semantic/config error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import benchmarks, evaluation, locking, qasm, unlocking
from .circuit import flatten, layerize, metrics
from .rng import derive_rng
from .simulator import NoiseConfig, run

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SEMANTIC = 3


class InputError(Exception):
    """An input file that is not text qlock can read (exit 2)."""


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text (byte offset {exc.start})") from None


def _write_text(path: str, content: str) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(content, encoding="utf-8", newline="\n")


def _noise_from_args(args) -> NoiseConfig:
    return NoiseConfig(enabled=args.noise, p1=args.p1, p2=args.p2)


def _add_noise_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--noise", action="store_true", help="enable depolarizing noise")
    parser.add_argument("--p1", type=float, default=0.001, help="single-qubit error probability")
    parser.add_argument("--p2", type=float, default=0.01, help="multi-qubit error probability")


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors as one line, ``qlock <cmd>: error: ...``; subparsers inherit it."""

    def error(self, message: str):
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="qlock", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # a string default goes through ``type=int`` like a flag value, so a
    # malformed QLOCK_SEED is a usage error
    seed = os.environ.get("QLOCK_SEED", "0")

    p = sub.add_parser("obfuscate", help="lock a circuit and emit the correct key")
    p.add_argument("input", help="circuit to lock (.qasm)")
    p.add_argument("-o", "--output", required=True, help="locked circuit path (.qasm)")
    p.add_argument("--key", required=True, help="key file path (.json)")
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--logic-sites", type=int, default=None)
    p.add_argument("--phase-sites", type=int, default=None)
    p.add_argument("--dense", action="store_true", help="all eligible gates plus one slot per layer (counts become caps)")
    p.add_argument("--strategy", choices=("random", "lightcone"), default="lightcone")
    p.add_argument("--dummy-gates", choices=("cx", "random"), default="cx")

    p = sub.add_parser("deobfuscate", help="apply a key to a locked circuit")
    p.add_argument("locked", help="locked circuit (.qasm)")
    p.add_argument("key", help="key file (.json)")
    p.add_argument("-o", "--output", required=True, help="restored circuit path (.qasm)")
    p.add_argument("--key-bits", default=None, help="override key bits (wrong-key experiments)")
    p.add_argument("--no-simplify", action="store_true", help="keep the ancilla and key sections")

    p = sub.add_parser("simulate", help="sample measurement outcomes")
    p.add_argument("input", help="circuit to run (.qasm)")
    p.add_argument("-o", "--output", required=True, help="counts path (.json)")
    p.add_argument("--shots", type=int, default=1024)
    p.add_argument("--seed", type=int, default=seed)
    _add_noise_flags(p)

    p = sub.add_parser("evaluate", help="TVD of locked/restored modes vs the original")
    p.add_argument("original", help="original circuit (.qasm)")
    p.add_argument("locked", help="locked circuit (.qasm)")
    p.add_argument("key", help="key file (.json)")
    p.add_argument("-o", "--output", required=True, help="report path (.json)")
    p.add_argument("--csv", default=None, help="also write the report row as CSV")
    p.add_argument("--inputs", type=int, default=10)
    p.add_argument("--shots", type=int, default=100)
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--modes", nargs="+", choices=evaluation.MODES, default=list(evaluation.MODES))
    p.add_argument("--sampling", choices=("independent", "paired"), default="independent",
                   help="fresh stream per run, or common random numbers across arms")
    p.add_argument("--wrong-key-sweep", type=int, default=0, metavar="N",
                   help="additionally evaluate N random concrete keys")
    p.add_argument("--name", default=None, help="circuit name used in the report row")
    _add_noise_flags(p)

    p = sub.add_parser("stats", help="depth and gate count of a circuit")
    p.add_argument("input", help="circuit (.qasm)")
    p.add_argument("-o", "--output", default=None, help="write JSON here instead of stdout")

    p = sub.add_parser("repro", help="run the consolidated benchmark experiment")
    p.add_argument("--out-dir", default="repro_out")
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--inputs", type=int, default=10)
    p.add_argument("--shots", type=int, default=100)
    p.add_argument("--strategy", choices=("random", "lightcone"), default="lightcone")
    _add_noise_flags(p)
    return parser


def _make_plan(circuit, args):
    explicit = args.logic_sites is not None or args.phase_sites is not None
    if args.dense or not explicit:
        return locking.dense_plan(
            circuit,
            strategy=args.strategy,
            seed=args.seed,
            logic_cap=args.logic_sites,
            phase_cap=args.phase_sites,
        )
    return locking.select_sites(
        circuit,
        n_logic=args.logic_sites or 0,
        n_phase=args.phase_sites or 0,
        strategy=args.strategy,
        seed=args.seed,
    )


def _cmd_obfuscate(args) -> int:
    circuit = qasm.parse_circuit(_read_text(args.input))
    plan = _make_plan(circuit, args)
    record = locking.obfuscate(circuit, plan, seed=args.seed, dummy_gates=args.dummy_gates)
    _write_text(args.output, qasm.emit_circuit(record.locked_circuit))
    _write_text(args.key, locking.export_key(record.key))
    d0, g0 = record.original_metrics
    d1, g1 = record.locked_metrics
    n_logic = len(plan.logic_sites)
    n_phase = len(plan.phase_sites)
    print(f"logic sites: {n_logic} ({n_logic} key bits)")
    print(f"phase sites: {n_phase} ({3 * n_phase} key bits)")
    print(f"key bits: {len(record.key.bits)}")
    print(f"depth: {d0} -> {d1}")
    print(f"gates: {g0} -> {g1}")
    return EXIT_OK


def _cmd_deobfuscate(args) -> int:
    locked = qasm.parse_circuit(_read_text(args.locked))
    key = locking.import_key(_read_text(args.key))
    result = unlocking.unlock(
        locked, key, candidate_bits=args.key_bits, keep_ancilla=args.no_simplify
    )
    _write_text(args.output, qasm.emit_circuit(result.restored_circuit))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    circuit = qasm.parse_circuit(_read_text(args.input))
    dist = run(circuit, args.shots, noise=_noise_from_args(args), seed=args.seed)
    _write_text(args.output, dist.to_json())
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    original = qasm.parse_circuit(_read_text(args.original))
    locked = qasm.parse_circuit(_read_text(args.locked))
    key = locking.import_key(_read_text(args.key))
    record = locking.ObfuscationRecord(
        locked_circuit=locked,
        key=key,
        original_metrics=metrics(original),
        locked_metrics=metrics(locked),
    )
    config = evaluation.EvalConfig(
        n_inputs=args.inputs,
        shots=args.shots,
        seed=args.seed,
        noise=_noise_from_args(args),
        modes=tuple(args.modes),
        sampling=args.sampling,
    )
    rep = evaluation.evaluate(original, record, config, wrong_keys=args.wrong_key_sweep)
    name = args.name or Path(args.original).stem
    row = evaluation.report_row(name, record, rep)
    extra = {
        "seed": args.seed,
        "inputs": args.inputs,
        "shots": args.shots,
        "noise": args.noise,
        "sampling": args.sampling,
        "per_input": {m: list(v) for m, v in rep.per_input.items()},
    }
    if rep.wrong_key_sweep is not None:
        extra["wrong_key_sweep"] = rep.wrong_key_sweep
    _write_text(args.output, evaluation.report_json([row], extra))
    if args.csv:
        _write_text(args.csv, evaluation.rows_to_csv([row]))
    for mode in rep.modes:
        print(f"tvd {mode}: mean={rep.mean[mode]:.4f} min={rep.min[mode]:.4f} max={rep.max[mode]:.4f}")
    return EXIT_OK


def _cmd_stats(args) -> int:
    circuit = qasm.parse_circuit(_read_text(args.input))
    depth, gates = metrics(circuit)
    payload = json.dumps(
        {
            "depth": depth,
            "gate_count": gates,
            "num_clbits": circuit.num_clbits,
            "num_qubits": circuit.num_qubits,
        },
        indent=2,
        sort_keys=True,
    ) + "\n"
    if args.output:
        _write_text(args.output, payload)
    else:
        sys.stdout.write(payload)
    return EXIT_OK


def _cmd_repro(args) -> int:
    out = Path(args.out_dir)
    rows = []
    notes = []
    for name in benchmarks.NAMES:
        circuit = qasm.parse_circuit(benchmarks.load(name))
        seed = int(derive_rng(args.seed, "repro", name).integers(2**63))
        plan = locking.dense_plan(circuit, strategy=args.strategy, seed=seed)
        record = locking.obfuscate(circuit, plan, seed=seed)
        _write_text(str(out / f"{name}.locked.qasm"), qasm.emit_circuit(record.locked_circuit))
        _write_text(str(out / f"{name}.key.json"), locking.export_key(record.key))
        restored = unlocking.unlock(record.locked_circuit, record.key).restored_circuit
        if not evaluation.equivalent_up_to_global_phase(restored, flatten(layerize(circuit))):
            raise ValueError(f"{name}: the correct key does not restore the original circuit")
        _write_text(str(out / f"{name}.restored.qasm"), qasm.emit_circuit(restored))
        config = evaluation.EvalConfig(
            n_inputs=args.inputs,
            shots=args.shots,
            seed=seed,
            noise=_noise_from_args(args),
        )
        rep = evaluation.evaluate(circuit, record, config)
        row = evaluation.report_row(benchmarks.DISPLAY[name], record, rep)
        rows.append(row)
        # combining both mechanisms usually corrupts at least as much as
        # either alone, but not always; flag exceptions instead of asserting
        single_max = max(rep.mean["logic_only"], rep.mean["phase_only"])
        if rep.mean["combined"] < single_max:
            notes.append(
                f"{benchmarks.DISPLAY[name]}: combined TVD {rep.mean['combined']:.4f} "
                f"below single-mechanism max {single_max:.4f}"
            )
        tvds = " ".join(f"{m}={rep.mean[m]:.4f}" for m in rep.modes)
        print(f"{benchmarks.DISPLAY[name]}: {tvds}")
    extra = {"seed": args.seed, "notes": notes}
    _write_text(str(out / "report.json"), evaluation.report_json(rows, extra))
    _write_text(str(out / "report.csv"), evaluation.rows_to_csv(rows))
    print(f"report written to {out / 'report.json'} and {out / 'report.csv'}")
    return EXIT_OK


_COMMANDS = {
    "obfuscate": _cmd_obfuscate,
    "deobfuscate": _cmd_deobfuscate,
    "simulate": _cmd_simulate,
    "evaluate": _cmd_evaluate,
    "stats": _cmd_stats,
    "repro": _cmd_repro,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (qasm.QasmError, InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
