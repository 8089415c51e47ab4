import json
import math
from collections import Counter

import numpy as np
import pytest

from qlock import parse_circuit
from qlock.circuit import Barrier, Gate
from qlock.locking import (
    Key,
    KeyEntry,
    ObfuscationPlan,
    PlanError,
    Site,
    dense_plan,
    export_key,
    import_key,
    normalize_phase_angle,
    obfuscate,
    select_sites,
)
from qlock.unlocking import find_ancilla


def _gate(kind, *qubits, params=()):
    return Gate(kind, tuple(params), tuple(qubits))


def _section_gates(locked):
    """The gate of each key section: every gate the ancilla controls."""
    ancilla = find_ancilla(locked)
    return [g for g in locked.gates() if len(g.qubits) > 1 and g.qubits[0] == ancilla]


def _keyed_phase_gates(record):
    """The rz gates addressed by the key's phase entries (block, qubit)."""
    sites = {(e.layer, e.qubit) for e in record.key.schedule if e.kind == "phase"}
    block, found = 0, []
    for op in record.locked_circuit.ops:
        if isinstance(op, Barrier):
            block += 1
        elif isinstance(op, Gate) and op.kind == "rz" and (block, op.qubits[0]) in sites:
            found.append(op)
    assert len(found) == len(sites)
    return found


# --- kappa grid ------------------------------------------------------------


def test_normalize_quarter_pi():
    assert normalize_phase_angle(math.pi / 4) == 1


def test_normalize_negative_wraps():
    assert normalize_phase_angle(-math.pi / 2) == 6
    assert normalize_phase_angle(-math.pi / 4) == 7


def test_normalize_off_grid():
    assert normalize_phase_angle(0.3) is None


def test_normalize_all_kappas():
    for kappa in range(8):
        assert normalize_phase_angle(kappa * (math.pi / 4)) == kappa


def test_normalize_two_pi_is_zero():
    assert normalize_phase_angle(2 * math.pi) == 0
    assert normalize_phase_angle(-2 * math.pi) == 0


# --- site selection ----------------------------------------------------------


def test_select_empty_plan():
    circuit = parse_circuit("qreg q[1]; x q[0];")
    plan = select_sites(circuit, 0, 0)
    assert plan.logic_sites == () and plan.phase_sites == ()


def test_select_single_candidate():
    circuit = parse_circuit("qreg q[1]; x q[0];")
    plan = select_sites(circuit, 1, 0, strategy="random", seed=3)
    (site,) = plan.logic_sites
    assert site.gate == _gate("x", 0)
    for planner in (lambda: select_sites(circuit, 1, 0, strategy="bogus"),
                    lambda: select_sites(circuit, 0, 0, strategy="bogus"),
                    lambda: dense_plan(circuit, strategy="bogus")):
        with pytest.raises(ValueError, match="unknown strategy"):
            planner()


def test_select_insufficient_sites():
    circuit = parse_circuit("qreg q[1]; x q[0];")
    with pytest.raises(PlanError, match="only"):
        select_sites(circuit, 5, 0)


def test_lightcone_prefers_wide_cone():
    circuit = parse_circuit(
        "qreg q[2]; creg c[2]; x q[0]; cx q[0],q[1]; measure q[0] -> c[0]; measure q[1] -> c[1];"
    )
    plan = select_sites(circuit, 1, 0, strategy="lightcone")
    (site,) = plan.logic_sites
    assert site.gate == _gate("x", 0)  # cone score 2 beats any later slot


def test_phase_sites_only_on_eligible_gates():
    circuit = parse_circuit("qreg q[1]; rz(0.3) q[0]; t q[0];")
    plan = dense_plan(circuit)
    gates = [s.gate for s in plan.phase_sites if s.gate is not None]
    assert _gate("t", 0) in gates
    assert _gate("rz", 0, params=(0.3,)) not in gates  # off-grid angle is ineligible


def test_plan_sites_disjoint_validation():
    circuit = parse_circuit("qreg q[1]; x q[0];")
    site = Site(0, 0, gate=_gate("x", 0))
    with pytest.raises(PlanError, match="disjoint"):
        obfuscate(circuit, ObfuscationPlan((site, site), ()))


def test_plan_slot_must_be_free():
    circuit = parse_circuit("qreg q[1]; x q[0];")
    with pytest.raises(PlanError, match="not eligible"):
        obfuscate(circuit, ObfuscationPlan((Site(0, 0),), ()))


# layers: 0 non-phase {x q0}, 1 phase {t q1, rz(0.3) q2}, 2 non-phase {ccx},
# 3 non-phase {h q0}; phase boundaries run 0..4
_PLAN_CIRCUIT = "qreg q[3]; x q[0]; t q[1]; rz(0.3) q[2]; ccx q[0],q[1],q[2]; h q[0];"
_X, _T, _RZ = _gate("x", 0), _gate("t", 1), _gate("rz", 2, params=(0.3,))


@pytest.mark.parametrize(
    "logic, phase",
    [
        pytest.param((Site(0, 0),), (), id="occupied-slot"),
        pytest.param((Site(1, 0),), (), id="logic-slot-in-phase-layer"),
        pytest.param((Site(4, 1),), (), id="logic-layer-past-end"),
        pytest.param((Site(-1, 1),), (), id="logic-layer-negative"),
        pytest.param((), (Site(5, 0),), id="phase-boundary-past-end"),
        pytest.param((), (Site(-1, 0),), id="phase-boundary-negative"),
        pytest.param((Site(0, 3),), (), id="logic-qubit-out-of-range"),
        pytest.param((), (Site(0, 3),), id="phase-qubit-out-of-range"),
        pytest.param((Site(3, 0, _X),), (), id="logic-gate-not-in-layer"),
        pytest.param((), (Site(2, 1, _T),), id="phase-gate-not-in-layer"),
        pytest.param((Site(2, 0, _gate("ccx", 0, 1, 2)),), (), id="gate-without-controlled-form"),
        pytest.param((Site(1, 1, _T),), (), id="phase-gate-as-logic-site"),
        pytest.param((), (Site(0, 0, _X),), id="logic-gate-as-phase-site"),
        pytest.param((), (Site(1, 2, _RZ),), id="off-grid-phase-gate"),
        pytest.param((Site(0, 1), Site(0, 1)), (), id="duplicate-logic-slot"),
        pytest.param((Site(0, 0, _X), Site(0, 0, _X)), (), id="duplicate-logic-gate"),
        pytest.param((), (Site(4, 2), Site(4, 2)), id="duplicate-phase-slot"),
        pytest.param((), (Site(1, 1, _T), Site(1, 1, _T)), id="duplicate-phase-gate"),
    ],
)
def test_plan_rejects_ineligible_site(logic, phase):
    circuit = parse_circuit(_PLAN_CIRCUIT)
    with pytest.raises(PlanError):
        obfuscate(circuit, ObfuscationPlan(logic, phase))


def test_plan_gate_site_sits_on_lowest_qubit():
    circuit = parse_circuit("qreg q[2]; cx q[1],q[0];")
    cx = _gate("cx", 1, 0)
    assert dense_plan(circuit).logic_sites[0] == Site(0, 0, cx)
    obfuscate(circuit, ObfuscationPlan((Site(0, 0, cx),), ()))
    with pytest.raises(PlanError, match="not eligible"):
        obfuscate(circuit, ObfuscationPlan((Site(0, 1, cx),), ()))


# --- obfuscation -------------------------------------------------------------


def test_single_logic_site_structure():
    circuit = parse_circuit("qreg q[1]; x q[0];")
    record = obfuscate(circuit, select_sites(circuit, 1, 0, seed=1), seed=1)
    assert record.key.bits == "1"
    assert find_ancilla(record.locked_circuit) == 1
    assert [(op.kind, op.qubits) for op in record.locked_circuit.ops] == [
        ("h", (1,)),
        ("cx", (1, 0)),
    ]


def test_single_phase_site_structure():
    circuit = parse_circuit("qreg q[1]; t q[0];")
    plan = ObfuscationPlan((), (Site(0, 0, gate=_gate("t", 0)),))
    record = obfuscate(circuit, plan, seed=4)
    assert record.key.bits == "001"
    assert find_ancilla(record.locked_circuit) is None  # no logic sites, no ancilla
    (op,) = record.locked_circuit.ops
    assert _keyed_phase_gates(record) == [op] and op.kind == "rz"
    assert normalize_phase_angle(op.params[0]) is None  # angle randomized off-grid


def test_empty_plan_is_layerized_original():
    circuit = parse_circuit("qreg q[2]; h q[0]; t q[0]; cx q[0],q[1];")
    record = obfuscate(circuit, ObfuscationPlan((), ()))
    assert record.key.bits == ""
    assert record.locked_circuit.num_qubits == 2
    gates = record.locked_circuit.gates()
    assert Counter(g.kind for g in gates) == Counter(g.kind for g in circuit.gates())


def test_dummy_logic_slot_bit_zero():
    circuit = parse_circuit("qreg q[2]; x q[0];")
    plan = ObfuscationPlan((Site(0, 1),), ())  # qubit 1 free in the only layer
    record = obfuscate(circuit, plan, seed=0)
    assert record.key.bits == "0"
    dummy = _section_gates(record.locked_circuit)
    assert len(dummy) == 1 and dummy[0].qubits == (2, 1)  # targets the slot qubit


def test_dummy_phase_slot_bits_zero():
    circuit = parse_circuit("qreg q[1]; x q[0];")
    plan = ObfuscationPlan((), (Site(0, 0),))
    record = obfuscate(circuit, plan, seed=0)
    assert record.key.bits == "000"
    dummy = _keyed_phase_gates(record)
    assert len(dummy) == 1 and dummy[0].qubits == (0,)


def test_key_length_accounting_random_plans(bench_circuits):
    rng = np.random.default_rng(17)
    for circuit in bench_circuits.values():
        for _ in range(5):
            plan = dense_plan(
                circuit,
                strategy="random",
                seed=int(rng.integers(2**32)),
                logic_cap=int(rng.integers(1, 8)),
                phase_cap=int(rng.integers(0, 8)),
            )
            record = obfuscate(circuit, plan, seed=int(rng.integers(2**32)))
            assert len(record.key.bits) == len(plan.logic_sites) + 3 * len(plan.phase_sites)


def test_every_hadamard_heads_exactly_one_section(bench_circuits):
    for name, circuit in bench_circuits.items():
        plan = dense_plan(circuit, seed=5)
        record = obfuscate(circuit, plan, seed=5)
        qk = find_ancilla(record.locked_circuit)
        pending_h = 0
        sections = 0
        for op in record.locked_circuit.ops:
            if not isinstance(op, Gate) or qk not in op.qubits:
                continue
            if len(op.qubits) == 1:
                assert op.kind == "h"
                assert pending_h == 0, "two Hadamards without a section gate between"
                pending_h = 1
            else:
                assert op.qubits[0] == qk
                assert pending_h == 1, "section gate without its Hadamard"
                pending_h = 0
                sections += 1
        assert pending_h == 0
        assert sections == len(plan_logic_bits := record.key.logic_bits())
        assert len(plan_logic_bits) == len(plan.logic_sites)


def test_locked_angles_avoid_kappa_grid(bench_circuits):
    circuit = bench_circuits["basis_change_n3"]
    record = obfuscate(circuit, dense_plan(circuit, seed=2), seed=2)
    for gate in _keyed_phase_gates(record):
        steps = gate.params[0] / (math.pi / 4)
        assert abs(steps - round(steps)) * (math.pi / 4) > 1e-6


def test_locked_angle_distribution_independent_of_kappa():
    # lock rz(kappa*pi/4) for every kappa under one seed stream; the emitted
    # angles must not leak kappa
    samples = {}
    for kappa in range(8):
        circuit = parse_circuit(f"qreg q[1]; rz({kappa}*pi/4) q[0];")
        site = Site(0, 0, gate=circuit.gates()[0])
        angles = []
        for rep in range(400):
            record = obfuscate(circuit, ObfuscationPlan((), (site,)), seed=rep)
            angles.append(record.locked_circuit.gates()[0].params[0])
        samples[kappa] = np.array(angles)
    reference = samples[0]
    for kappa in range(1, 8):
        assert np.array_equal(samples[kappa], reference)  # same stream, same draws
    hist, _ = np.histogram(reference, bins=8, range=(0, 2 * math.pi))
    assert hist.min() > 20  # roughly uniform over [0, 2pi)


def test_obfuscation_changes_gate_multiset(bench_circuits):
    for circuit in bench_circuits.values():
        record = obfuscate(circuit, dense_plan(circuit, seed=3), seed=3)
        original = Counter((g.kind, g.qubits) for g in circuit.gates())
        locked = Counter((g.kind, g.qubits) for g in record.locked_circuit.gates())
        assert original != locked


def test_metrics_grow_under_locking(bench_circuits):
    for circuit in bench_circuits.values():
        for seed in range(3):
            record = obfuscate(circuit, dense_plan(circuit, seed=seed), seed=seed)
            d0, g0 = record.original_metrics
            d1, g1 = record.locked_metrics
            assert g1 > g0
            assert d1 >= d0


def test_ancilla_register_label(bench_circuits):
    circuit = bench_circuits["wstate_n3"]
    record = obfuscate(circuit, dense_plan(circuit, seed=1), seed=1)
    assert record.locked_circuit.qubit_labels[-1] == "qk[0]"


def test_dummy_gates_random_option():
    circuit = parse_circuit("qreg q[2]; x q[0];")
    kinds = set()
    for seed in range(30):
        plan = ObfuscationPlan((Site(0, 1),), ())
        record = obfuscate(circuit, plan, seed=seed, dummy_gates="random")
        (dummy,) = _section_gates(record.locked_circuit)
        kinds.add(dummy.kind)
    assert kinds > {"cx"}  # draws beyond the default controlled-x


# --- key files ---------------------------------------------------------------


def test_export_single_logic_key_shape():
    circuit = parse_circuit("qreg q[1]; x q[0];")
    record = obfuscate(circuit, select_sites(circuit, 1, 0, seed=1), seed=1)
    payload = json.loads(export_key(record.key))
    assert payload == {
        "bits": "1",
        "schedule": [{"kind": "logic", "layer": 0, "qubit": 0, "span": 1}],
    }


def test_key_round_trip_randomized(bench_circuits):
    rng = np.random.default_rng(23)
    for circuit in bench_circuits.values():
        for _ in range(5):
            seed = int(rng.integers(2**32))
            record = obfuscate(circuit, dense_plan(circuit, seed=seed), seed=seed)
            assert import_key(export_key(record.key)) == record.key


def test_import_rejects_span_mismatch():
    text = json.dumps(
        {"bits": "10", "schedule": [{"kind": "logic", "layer": 0, "qubit": 0, "span": 1}]}
    )
    with pytest.raises(ValueError, match="does not match schedule"):
        import_key(text)


def test_import_rejects_bad_bits():
    text = json.dumps(
        {"bits": "2", "schedule": [{"kind": "logic", "layer": 0, "qubit": 0, "span": 1}]}
    )
    with pytest.raises(ValueError, match="0/1"):
        import_key(text)


def test_import_rejects_garbage():
    with pytest.raises(ValueError, match="malformed key file"):
        import_key("{not json")
    with pytest.raises(ValueError, match="malformed key file"):
        import_key(json.dumps({"schedule": []}))


def test_key_bit_decoding():
    key = Key(
        bits="10110",
        schedule=(
            KeyEntry("logic", 0, 0, 1),
            KeyEntry("logic", 1, 0, 1),
            KeyEntry("phase", 2, 0, 3),
        ),
    )
    assert key.logic_bits() == (1, 0)
    ((entry, kappa),) = key.phase_assignments()
    assert kappa == 6  # bits 110, most significant first
