import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlock import benchmarks, locking, parse_circuit
from qlock.circuit import Barrier, Circuit, Gate, Measure, layerize, metrics, phase_angle_of
from qlock.locking import (
    ANCILLA_REGISTER,
    DUMMY_KINDS,
    Key,
    KeyEntry,
    ObfuscationPlan,
    ObfuscationRecord,
    PlanError,
    Site,
    dense_plan,
    export_key,
    import_key,
    normalize_phase_angle,
    obfuscate,
    select_sites,
)
from qlock.rng import derive_rng
from qlock.unlocking import find_ancilla

from conftest import _WRONG_VALUES, fuzz_key, random_circuit


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
# 3 non-phase {h q0}; phase boundaries run 0..3, each just before its layer
_PLAN_CIRCUIT = "qreg q[3]; x q[0]; t q[1]; rz(0.3) q[2]; ccx q[0],q[1],q[2]; h q[0];"
_X, _T, _RZ = _gate("x", 0), _gate("t", 1), _gate("rz", 2, params=(0.3,))


@pytest.mark.parametrize(
    "logic, phase",
    [
        pytest.param((Site(0, 0),), (), id="occupied-slot"),
        pytest.param((Site(1, 0),), (), id="logic-slot-in-phase-layer"),
        pytest.param((Site(4, 1),), (), id="logic-layer-past-end"),
        pytest.param((Site(-1, 1),), (), id="logic-layer-negative"),
        pytest.param((), (Site(4, 0),), id="phase-boundary-after-last-layer"),
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
        pytest.param((), (Site(3, 2), Site(3, 2)), id="duplicate-phase-slot"),
        pytest.param((), (Site(1, 1, _T), Site(1, 1, _T)), id="duplicate-phase-gate"),
    ],
)
def test_plan_rejects_ineligible_site(logic, phase):
    circuit = parse_circuit(_PLAN_CIRCUIT)
    with pytest.raises(PlanError):
        obfuscate(circuit, ObfuscationPlan(logic, phase))


def test_select_sites_offers_no_phase_slot_after_the_last_layer():
    # a dummy rz there would sit right before measurement, where no key value
    # could change an outcome (obfuscate refuses it: phase-boundary-after-last-layer)
    after_last = entries = 0
    for name in benchmarks.NAMES:
        circuit = parse_circuit(benchmarks.load(name))
        depth = len(layerize(circuit).layers)
        for strategy in ("random", "lightcone"):
            for seed in range(20):
                for k in (4, 8):
                    plan = select_sites(circuit, 0, k, strategy, seed)
                    after_last += sum(s.layer == depth for s in plan.phase_sites)
                    entries += len(plan.phase_sites)
    assert (after_last, entries) == (0, 1920)  # 74 of 1,920 when that slot was offered


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


# --- differential: obfuscate against its block-by-block writer ---------------


def _oracle_obfuscate(circuit, plan, seed=0, dummy_gates="cx"):
    """``obfuscate`` as written before it kept one block list and one key list:
    a barrier written as each block opens, four parallel key lists. Kept
    as the oracle the rewrite is held to."""
    layered = layerize(circuit)
    locking._validate_plan(layered, plan)
    if dummy_gates not in ("cx", "random"):
        raise ValueError(f"dummy_gates must be 'cx' or 'random', got {dummy_gates!r}")
    rng = derive_rng(seed, "obfuscate")
    n = circuit.num_qubits
    has_logic = bool(plan.logic_sites)
    ancilla = n if has_logic else None
    nq = n + (1 if has_logic else 0)
    all_qubits = tuple(range(nq))

    logic_by_layer = {}
    for site in plan.logic_sites:
        logic_by_layer.setdefault(site.layer, []).append(site)
    phase_slots_by_boundary = {}
    phase_gates_by_layer = {}
    for site in plan.phase_sites:
        if site.gate is None:
            phase_slots_by_boundary.setdefault(site.layer, []).append(site)
        else:
            phase_gates_by_layer.setdefault(site.layer, {})[site.gate] = site

    ops = []
    block = -1
    logic_bits, logic_entries, phase_bits, phase_entries = [], [], [], []

    def open_block():
        nonlocal block
        if ops:
            ops.append(Barrier(all_qubits))
        block += 1
        return block

    for b in range(len(layered.layers) + 1):
        slots = phase_slots_by_boundary.get(b)
        if slots:
            here = open_block()
            for site in slots:
                ops.append(Gate("rz", (locking._random_angle(rng),), (site.qubit,)))
                phase_bits.append("000")
                phase_entries.append(KeyEntry("phase", here, site.qubit, 3))
        if b == len(layered.layers):
            break
        layer = layered.layers[b]
        here = open_block()
        section_sites = logic_by_layer.get(b, ())
        section_gates = {s.gate for s in section_sites if s.gate is not None}
        keyed_phase = phase_gates_by_layer.get(b, {})
        converted = []
        for g in layer.gates:
            if g in section_gates:
                continue
            if g in keyed_phase:
                kappa = normalize_phase_angle(phase_angle_of(g))
                assert kappa is not None
                ops.append(Gate("rz", (locking._random_angle(rng),), g.qubits))
                converted.append((g.qubits[0], kappa))
            else:
                ops.append(g)
        for qubit, kappa in sorted(converted):
            phase_bits.append(format(kappa, "03b"))
            phase_entries.append(KeyEntry("phase", here, qubit, 3))
        for site in section_sites:
            ops.append(Gate("h", (), (ancilla,)))
            if site.gate is not None:
                ops.append(locking._controlled_gate(site.gate, ancilla))
                logic_bits.append("1")
            else:
                kind = (
                    "cx" if dummy_gates == "cx" else DUMMY_KINDS[int(rng.integers(len(DUMMY_KINDS)))]
                )
                ops.append(Gate(kind, (), (ancilla, site.qubit)))
                logic_bits.append("0")
            logic_entries.append(KeyEntry("logic", here, site.qubit, 1))

    if layered.measurements:
        if ops:
            ops.append(Barrier(all_qubits))
        ops.extend(layered.measurements)

    labels = circuit.qubit_labels + ((f"{ANCILLA_REGISTER}[0]",) if has_logic else ())
    locked = Circuit(
        num_qubits=nq,
        num_clbits=circuit.num_clbits,
        ops=tuple(ops),
        qubit_labels=labels,
        clbit_labels=circuit.clbit_labels,
    )
    key = Key(
        bits="".join(logic_bits) + "".join(phase_bits),
        schedule=tuple(logic_entries) + tuple(phase_entries),
    )
    return ObfuscationRecord(locked, key, metrics(circuit), metrics(locked))


# a few equal gates, so that one phase gate recurs in several layers
_RECURRING = (
    _gate("t", 0), _gate("s", 1), _gate("p", 0, params=(math.pi / 2,)), _gate("h", 0),
    _gate("x", 1), _gate("cx", 0, 1), _gate("rz", 1, params=(math.pi / 4,)),
)


def _recurring_circuit(rng):
    picks = rng.integers(len(_RECURRING), size=int(rng.integers(4, 16)))
    ops = [_RECURRING[int(i)] for i in picks]
    if int(rng.integers(2)):
        ops.insert(int(rng.integers(len(ops) + 1)), Barrier((0, 1)))
    if int(rng.integers(2)):
        ops += [Measure(0, 0), Measure(1, 1)]
    return Circuit(2, 2, tuple(ops))


def _plans(circuit, rng):
    """Plans from both planners: every strategy, counts from 0 up, caps or none."""
    layered = layerize(circuit)
    n_logic, n_phase = len(locking._pool(layered, False)), len(locking._pool(layered, True))
    for strategy in ("random", "lightcone"):
        seed = int(rng.integers(2**32))
        yield select_sites(circuit, 0, 0, strategy, seed)
        yield select_sites(circuit, int(rng.integers(n_logic + 1)), 0, strategy, seed)
        yield select_sites(circuit, 0, int(rng.integers(n_phase + 1)), strategy, seed)
        yield select_sites(
            circuit, int(rng.integers(n_logic + 1)), int(rng.integers(n_phase + 1)), strategy, seed
        )
        yield dense_plan(circuit, strategy, seed)
        yield dense_plan(circuit, strategy, seed, int(rng.integers(4)), int(rng.integers(4)))


def _keys_one_of_equal_phase_gates(circuit, plan):
    """True when an equal phase gate recurs in two layers and only one is keyed."""
    keyed = {(s.layer, s.gate) for s in plan.phase_sites if s.gate is not None}
    layers = layerize(circuit).layers
    unkeyed = {(j, g) for j, layer in enumerate(layers) for g in layer.gates} - keyed
    return any(g == other for _, g in keyed for _, other in unkeyed)


@pytest.mark.parametrize("seed", range(6))
def test_obfuscate_matches_block_by_block_oracle(seed):
    rng = np.random.default_rng(seed)
    circuits = [random_circuit(rng, max_gates=14), _recurring_circuit(rng), _recurring_circuit(rng)]
    cases = recurring = 0
    for circuit in circuits:
        for plan in _plans(circuit, rng):
            recurring += _keys_one_of_equal_phase_gates(circuit, plan)
            for dummy_gates in ("cx", "random"):
                obf_seed = int(rng.integers(2**32))
                record = obfuscate(circuit, plan, obf_seed, dummy_gates)
                assert record == _oracle_obfuscate(circuit, plan, obf_seed, dummy_gates)
                cases += 1
    assert cases == 72 and recurring > 0


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


def test_export_key_bytes_match_json_dumps():
    rng = np.random.default_rng(31)
    for size in [0, 0, 1, 2, 7, 40, 300]:
        schedule = tuple(
            KeyEntry(kind, int(rng.integers(10 ** rng.integers(1, 7))), int(rng.integers(10**4)), span)
            for kind, span in (("logic", 1) if rng.random() < 0.5 else ("phase", 3) for _ in range(size))
        )
        bits = "".join(rng.choice(["0", "1"], sum(e.span for e in schedule)))
        key = Key(bits=bits, schedule=schedule)
        payload = {
            "bits": key.bits,
            "schedule": [
                {"kind": e.kind, "layer": e.layer, "qubit": e.qubit, "span": e.span}
                for e in key.schedule
            ],
        }
        assert export_key(key) == json.dumps(payload, indent=2) + "\n"
    assert export_key(Key(bits="", schedule=())) == '{\n  "bits": "",\n  "schedule": []\n}\n'


def _import_key_per_entry(text):
    """``import_key`` as one ``KeyEntry(...)`` per schedule entry: the oracle of
    its checks, their order and their messages."""
    try:
        data = json.loads(text)
        bits = data["bits"]
        raw = data["schedule"]
    except (json.JSONDecodeError, RecursionError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed key file: {exc}") from exc
    if not isinstance(bits, str):
        raise ValueError("malformed key file: bits must be a string")
    if not isinstance(raw, list):
        raise ValueError("malformed key file: schedule must be a list")
    entries = []
    for item in raw:
        try:
            kind, layer, qubit, span = item["kind"], item["layer"], item["qubit"], item["span"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed key schedule entry: {item!r}") from exc
        if not all(type(v) is int and v >= 0 for v in (layer, qubit, span)):
            raise ValueError(f"malformed key schedule entry: {item!r}")
        entries.append(KeyEntry(kind, layer, qubit, span))
    return Key(bits=bits, schedule=tuple(entries))


def _imported(read, text):
    """What ``read`` returns for ``text``, or its ``ValueError``'s message."""
    try:
        return read(text)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300)
@given(data=st.data())
def test_import_key_matches_per_entry_construction(fuzz_lock, data):
    # the key file untouched or hand-edited once: the same key, entry for
    # entry, or the same message as building each entry with KeyEntry(...)
    _, _, key = fuzz_lock
    key = json.loads(json.dumps(key))
    if data.draw(st.booleans()):
        fuzz_key(data, key)
    schedule = key.get("schedule") if isinstance(key.get("schedule"), list) else []
    entries = [e for e in schedule if isinstance(e, dict) and e.get("kind") in ("logic", "phase")]
    if entries and data.draw(st.booleans()):
        # a valid kind with the other kind's span
        entry = data.draw(st.sampled_from(entries))
        entry["kind"] = {"logic": "phase", "phase": "logic"}[entry["kind"]]
    text = json.dumps(key, indent=data.draw(st.sampled_from((None, 2))))
    want = _imported(_import_key_per_entry, text)
    got = _imported(import_key, text)
    assert got == want
    if isinstance(want, Key):
        assert [type(e) for e in got.schedule] == [KeyEntry] * len(want.schedule)
        assert [vars(e) for e in got.schedule] == [vars(e) for e in want.schedule]
        assert hash(got) == hash(want) and repr(got) == repr(want)
        assert export_key(got) == export_key(want)


def test_import_key_matches_per_entry_construction_on_each_retyped_field(fuzz_lock):
    # every field of a logic and a phase entry, set to each wrong value of the
    # fuzz edits in turn, and each kind with the other kind's span
    _, _, key = fuzz_lock
    firsts = {entry["kind"]: i for i, entry in reversed(list(enumerate(key["schedule"])))}
    edits = [(i, field, value) for i in firsts.values() for field in key["schedule"][i] for value in _WRONG_VALUES]
    edits += [(i, "span", {"logic": 3, "phase": 1}[kind]) for kind, i in firsts.items()]
    for i, field, value in edits:
        edited = json.loads(json.dumps(key))
        edited["schedule"][i][field] = value
        text = json.dumps(edited)
        assert _imported(import_key, text) == _imported(_import_key_per_entry, text), (i, field, value)


def test_import_key_holds_no_more_than_per_entry_construction():
    # an imported entry holds what KeyEntry(...) holds; one written through
    # its instance dict held ~64 B more
    schedule = tuple(
        KeyEntry(*(("logic", i // 8, i % 11, 1) if i % 2 else ("phase", i // 8, i % 11, 3))) for i in range(5000)
    )
    text = export_key(Key(bits="0" * sum(e.span for e in schedule), schedule=schedule))

    def held(read):
        tracemalloc.start()
        try:
            key = read(text)
            return tracemalloc.get_traced_memory()[0], key
        finally:
            tracemalloc.stop()

    imported, key = held(import_key)
    built, want = held(_import_key_per_entry)
    assert key == want
    assert imported <= 1.02 * built, (imported, built)


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
