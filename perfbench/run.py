"""qlock benchmark: seeded workloads through the user-facing CLI.

    python3 perfbench/run.py --workload bundled_repro --seed 1 --seconds 30 --trace 0

Run from a checkout root holding ``src/qlock``. One process runs one workload:
it stages the inputs generated from ``--seed``, then repeats untraced passes
of the workload's CLI commands (``qlock.cli.main(argv)``, in-process) until
``--seconds`` is spent, and reports each command's mean CPU time, summed per
metric, in units of reference work interleaved with the commands.
``--trace 1`` alternates untraced passes with passes traced per layer (see
``tracer.py``) and reports per-layer medians instead. Every output is checked outside the
timed region; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_PASSES = 3
# reference work per second of command CPU time
REF_SHARE = 0.25
SETUP_SAMPLES = 7
# every workload stays single-threaded
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# one fixed hash seed: four runs of one seed spread by 5% (quartile
# distance over median) with a random hash seed per process, by 2.5% with
# this one, as dict and set layouts stop changing between processes
HASH_SEED = "0"
# CPU time of a fresh interpreter from its start until the CLI and its layers are imported
IMPORT_PROBE = "import time, qlock.cli; print(time.process_time())"


def _import_seconds() -> float:
    """CPU time to start an interpreter and import the CLI and its layers."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip())


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def _line_count(paths) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in paths)


def reference_unit() -> None:
    """Fixed work of the kind the CLI spends its time on: numpy calls on
    16-amplitude states, one gate at a time, where the Python and numpy
    call overhead dominates as in the simulator on small circuits. It runs
    no qlock code, so no change to the program moves it. Of the candidates
    tried (string and dict handling; 2**15-amplitude states; this), it
    tracked the slowdowns of parsing, small- and wide-state simulation on a
    shared host best."""
    import numpy as np

    gate = np.array([[0, 1], [1, 0]], dtype=complex)
    state = np.arange(16, dtype=complex)
    for q in range(300):
        state = np.moveaxis(np.tensordot(gate, state.reshape(2, 2, 2, 2), axes=(1, q % 4)), 0, q % 4).reshape(16)


class Reference:
    """Reference units interleaved with the timed commands, REF_SHARE of
    their CPU time: the yardstick the pass metrics are given in."""

    def __init__(self):
        self.cpu_s = 0.0
        self.units = 0
        self.command_cpu_s = 0.0

    def keep_up(self, command_cpu_s: float) -> None:
        self.command_cpu_s += command_cpu_s
        while self.cpu_s < REF_SHARE * self.command_cpu_s:
            start = process_time()
            reference_unit()
            self.cpu_s += process_time() - start
            self.units += 1

    @property
    def unit_s(self) -> float:
        return self.cpu_s / self.units


class Runner:
    def __init__(self, workload, seed: int, work_dir: Path):
        from workloads import Checks

        self.workload = workload
        self.seed = seed
        self.checks = Checks()
        self.work_dir = work_dir
        self.dir: Path | None = None
        self.setup_samples: list[float] = []
        self.fingerprint: dict[str, str] | None = None

    def setup(self) -> None:
        """Stage the inputs the passes use; this is the first set-up sample."""
        self.dir = self.work_dir / "stage"
        self.setup_samples = [self._set_up(self.dir)]

    def _set_up(self, d: Path) -> float:
        imported = _import_seconds()
        start = process_time()
        self.workload.stage(d, self.seed)
        return imported + process_time() - start

    def _sample_setup(self) -> None:
        d = self.work_dir / "setup-sample"
        self.setup_samples.append(self._set_up(d))
        shutil.rmtree(d)

    def one_pass(self, reference: Reference | None = None) -> list[tuple[str, float, float]]:
        """Run every command once; returns (group, wall, CPU seconds) per
        command. With a ``reference``, its units are interleaved between
        commands, outside their timings."""
        from qlock import cli
        from workloads import fingerprint

        times = []
        gc.collect()  # start every pass from the same collector state
        sink = open(os.devnull, "w")
        try:
            for group, argv in self.workload.commands(self.dir, self.seed):
                saved, sys.stdout = sys.stdout, sink
                start, cpu_start = perf_counter(), process_time()
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                finally:
                    cpu = process_time() - cpu_start
                    elapsed = perf_counter() - start
                    sys.stdout = saved
                times.append((group, elapsed, cpu))
                self.checks.check(code == 0, f"qlock {argv[0]} exited with {code}")
                if reference is not None:
                    reference.keep_up(cpu)
        finally:
            sink.close()
        prints = fingerprint(self.dir / "out")
        if self.fingerprint is None:
            self.fingerprint = prints
        self.checks.check(prints == self.fingerprint, "pass outputs differ from the first pass")
        return times

    def untraced(self, seconds: float) -> tuple[dict[str, float], dict[str, float], list[float], Reference]:
        """Pass metrics in reference units, the same sums in CPU seconds, the
        wall of every pass, and the reference.

        A command's figure is its mean CPU time over the run; a pass metric
        sums the commands it covers (a command listed more than once in a
        pass counts once) and divides by the mean time of a reference unit
        run between the same commands. On a shared host the same work takes
        up to twice as long from one second to the next, in CPU time as in
        wall time, and the share of slow seconds drifts over minutes; the
        reference slows with the commands, so the ratio stays put.
        """
        commands = self.workload.commands(self.dir, self.seed)
        reference = Reference()
        start = perf_counter()
        self.one_pass()  # warm-up: first-call costs are not part of a pass
        passes: list[list[tuple[str, float, float]]] = []
        walls: list[float] = []
        laps: list[float] = []
        while len(passes) < MIN_PASSES or perf_counter() - start + statistics.median(laps) <= seconds:
            lap = perf_counter()
            passes.append(self.one_pass(reference))
            laps.append(perf_counter() - lap)
            walls.append(sum(t for _, t, _ in passes[-1]))
            # set-up samples spread evenly through the run, so that their
            # median spans the host's changing load and not just its start
            if perf_counter() - start >= len(self.setup_samples) * seconds / SETUP_SAMPLES:
                self._sample_setup()
        while len(self.setup_samples) < SETUP_SAMPLES:
            self._sample_setup()
        cpu: dict[tuple[str, ...], tuple[str, list[float]]] = {}
        for i, (group, argv) in enumerate(commands):
            cpu.setdefault(tuple(argv), (group, []))[1].extend(p[i][2] for p in passes)
        means = [(group, statistics.fmean(ts)) for group, ts in cpu.values()]
        seconds_ = {
            "pass": sum(t for _, t in means),
            "evaluate": sum(t for g, t in means if g == "evaluate"),
            "lock_roundtrip": sum(t for g, t in means if g == "lock"),
        }
        in_refs = {f"{k}_ref": v / reference.unit_s for k, v in seconds_.items()}
        return in_refs, {f"{k}_cpu_s": v for k, v in seconds_.items()}, walls, reference

    def traced(self, seconds: float) -> tuple[dict, list[float], list[float], dict]:
        """Alternate untraced and traced passes; per-layer values per traced pass."""
        from tracer import COUNT_METRICS, Tracer

        untraced_walls: list[float] = []
        traced_walls: list[float] = []
        per_layer: dict[str, list[float]] = {}
        split: dict[str, list[float]] = {}
        counts = None
        start = perf_counter()
        while len(traced_walls) < 2 or perf_counter() - start + statistics.median(
            [a + b for a, b in zip(untraced_walls, traced_walls)]
        ) <= seconds:
            untraced_walls.append(sum(t for _, t, _ in self.one_pass()))
            tracer = Tracer(self.checks)
            with tracer.installed():
                wall = sum(t for _, t, _ in self.one_pass())
            traced_walls.append(wall)
            values = tracer.metrics(wall)
            pass_counts = {k: values[k] for k in COUNT_METRICS}
            if counts is None:
                counts = pass_counts
            self.checks.check(pass_counts == counts, "work counters differ between traced passes")
            for k, v in values.items():
                per_layer.setdefault(k, []).append(v)
            for k, v in tracer.split_run().items():
                split.setdefault(k, []).append(v)
        return per_layer, untraced_walls, traced_walls, split


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qlock" / "cli.py").is_file():
        print(f"error: no qlock sources under {SRC}", file=sys.stderr)
        return 2
    env = {"PYTHONHASHSEED": HASH_SEED, **{var: "1" for var in THREAD_VARS}}
    if any(os.environ.get(k) != v for k, v in env.items()):
        # restart this process in place: numpy reads the thread variables
        # when it loads, and the hash seed only takes at interpreter start
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *(argv or sys.argv[1:])],
                  {**os.environ, **env})
    sys.path.insert(0, str(SRC))

    import numpy
    import qlock
    from workloads import WORKLOADS

    if Path(qlock.__file__).resolve().parent != SRC / "qlock":
        print(f"error: qlock imported from {qlock.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    runner = Runner(WORKLOADS[args.workload], args.seed, work_dir)
    try:
        runner.setup()
        if args.trace:
            from tracer import COUNT_METRICS, check_fidelity

            per_layer, untraced_walls, traced_walls, split = runner.traced(args.seconds)
        else:
            timings, cpu_timings, walls, reference = runner.untraced(args.seconds)
        try:
            if args.trace:
                check_fidelity(runner.workload.evaluations(runner.dir, args.seed), runner.checks)
            runner.workload.check_outputs(runner.dir, args.seed, runner.checks)
        except Exception:  # missing or malformed output: a failed check, not a lost result
            traceback.print_exc()
            runner.checks.check(False, "output checks raised")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    checks = runner.checks
    attrs = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "commit": _commit(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "src_qlock_lines": _line_count(sorted((SRC / "qlock").glob("*.py"))),
        "scripts_lines": _line_count(sorted(p for p in (ROOT / "scripts").glob("*") if p.is_file())),
    }
    print("attributes " + json.dumps(attrs, sort_keys=True))
    metrics: dict[str, dict] = {}
    if args.trace:
        for name, values in {**per_layer, **split}.items():
            if name in COUNT_METRICS:
                unit, value, how = "count", values[0], "per pass, checked equal in"
            else:
                unit = "1/s" if name.endswith("_per_s") else "s"
                value, how = statistics.median(values), "median of"
            print(f"metric {name} {value:.6g} {unit} ({how} {len(values)} traced passes)")
            if name in per_layer:
                metrics[name] = {"value": value, "unit": unit}
        overhead = statistics.median(traced_walls) - statistics.median(untraced_walls)
        print(f"tracing overhead {overhead:.6f} s (traced wall {statistics.median(traced_walls):.6f} s "
              f"minus untraced wall {statistics.median(untraced_walls):.6f} s, medians)")
    else:
        for name, value in timings.items():
            print(f"metric {name} {value:.6g} ref (mean CPU time over {len(walls)} passes, "
                  f"in units of {reference.unit_s:.6g} s reference work)")
            metrics[name] = {"value": value, "unit": "ref"}
        for name, value in cpu_timings.items():
            print(f"{name} {value:.6g} s (mean CPU time; not gated)")
        print(f"reference: {reference.units} units, {reference.cpu_s:.6g} s CPU")
        q1, med, q3 = statistics.quantiles(walls, n=4)
        print(f"pass wall: median {med:.6g} s, quartiles {q1:.6g} .. {q3:.6g}")
        q1, med, q3 = statistics.quantiles(runner.setup_samples, n=4)
        print(f"metric setup_s {med:.6g} s (CPU time, median of {len(runner.setup_samples)} set-ups through the run; "
              f"quartiles {q1:.6g} .. {q3:.6g})")
        metrics["setup_s"] = {"value": med, "unit": "s"}
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        print(f"metric peak_rss_mb {peak_mb:.6g} MB (peak resident set of this process)")
        metrics["peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}
    failed = len(checks.failures)
    print(f"metric failed_frac {failed / checks.attempted:.6g} fraction ({failed} of {checks.attempted} checks)")
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    for path, digest in sorted((runner.fingerprint or {}).items()):
        print(f"fingerprint {path} {digest}")
    print(json.dumps({"correct": failed == 0, "attempted": checks.attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
