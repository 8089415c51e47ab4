"""Tests of the benchmark itself: ``python3 -m pytest perfbench`` from the repo root."""

from __future__ import annotations

import pytest

from qlock import parse_circuit
from run import Runner
from tracer import COUNT_METRICS, Tracer
from workloads import ALPHABET, WORKLOADS, synthetic_qasm


def test_synthetic_generator_is_seed_deterministic():
    a = synthetic_qasm(7, 8, 1000)
    assert a.encode() == synthetic_qasm(7, 8, 1000).encode()
    assert a != synthetic_qasm(8, 8, 1000)
    circuit = parse_circuit(a)
    assert {g.kind for g in circuit.gates()} == set(ALPHABET)
    assert len(circuit.gates()) == 1000


def _traced_counts(workload, seed, work_dir):
    runner = Runner(workload, seed, work_dir)
    runner.dir = work_dir / "stage"
    workload.stage(runner.dir, seed)
    tracer = Tracer(runner.checks)
    with tracer.installed():
        wall = sum(t for _, t, _ in runner.one_pass())
    assert runner.checks.failures == []
    metrics = tracer.metrics(wall)
    return {name: metrics[name] for name in COUNT_METRICS}, runner.fingerprint


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_work_counters_and_outputs_repeat_across_runs(name, tmp_path):
    first = _traced_counts(WORKLOADS[name], 3, tmp_path / "a")
    second = _traced_counts(WORKLOADS[name], 3, tmp_path / "b")
    assert first == second
    assert first[0]["simulator.runs"] > 0 and first[0]["qasm.ops_parsed"] > 0
