import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qlock import benchmarks, qasm
from qlock.qasm import (
    BarrierStatement,
    GateStatement,
    MeasureStatement,
    QasmError,
    emit,
    parse,
    parse_circuit,
)

from conftest import random_qasm_source


def test_minimal_program():
    prog = parse("qreg q[1]; x q[0];")
    assert prog.version == "2.0"
    assert prog.register_decls == (("q", "quantum", 1),)
    assert prog.statements == (GateStatement("x", (), (("q", 0),)),)


def test_angle_expression_pi_over_4():
    prog = parse("qreg q[1]; rz(pi/4) q[0];")
    stmt = prog.statements[0]
    assert stmt.params == (0.7853981633974483,)


@pytest.mark.parametrize(
    "expr,value",
    [
        ("pi", math.pi),
        ("-pi", -math.pi),
        ("3*pi/2", 3 * math.pi / 2),
        ("pi/4+pi/4", math.pi / 2),
        ("2-3", -1.0),
        ("-(pi/2)", -math.pi / 2),
        ("1.5e1", 15.0),
    ],
)
def test_angle_expression_forms(expr, value):
    prog = parse(f"qreg q[1]; rz({expr}) q[0];")
    assert prog.statements[0].params == (value,)


def test_arity_error():
    with pytest.raises(QasmError, match="cx expects 2 operand"):
        parse("qreg q[2]; cx q[0];")


def test_undeclared_register():
    with pytest.raises(QasmError, match="undeclared register 'r'"):
        parse("qreg q[1]; x r[0];")


def test_index_out_of_range():
    with pytest.raises(QasmError, match="out of range"):
        parse("qreg q[2]; x q[2];")


@pytest.mark.parametrize("expr", ["1e400", "-1e400", "1e308*10", "1e400-1e400"])
def test_non_finite_parameter_rejected(expr):
    with pytest.raises(QasmError, match="not finite"):
        parse(f"qreg q[1]; u3(0, {expr}, 0) q[0];")


def test_unsupported_gate_named_in_error():
    with pytest.raises(QasmError, match="unsupported gate 'ry'"):
        parse("qreg q[1]; ry(0.5) q[0];")


@pytest.mark.parametrize(
    "source,what",
    [
        ("gate foo a { x a; } qreg q[1];", "gate definitions"),
        ("qreg q[1]; creg c[1]; if (c==1) x q[0];", "classical conditionals"),
        ("qreg q[1]; reset q[0];", "reset"),
        ("opaque foo a;", "opaque"),
    ],
)
def test_unsupported_constructs_rejected(source, what):
    with pytest.raises(QasmError, match=what):
        parse(source)


def test_syntax_error_carries_position():
    with pytest.raises(QasmError) as err:
        parse("qreg q[1];\nx q[0]")  # missing semicolon at line 2
    assert err.value.line == 2


def test_duplicate_operands_rejected():
    with pytest.raises(QasmError, match="distinct"):
        parse("qreg q[2]; cx q[0],q[0];")


def test_comments_include_and_crlf_accepted():
    src = 'OPENQASM 2.0;\r\n// a comment\r\ninclude "qelib1.inc";\r\nqreg q[1];\r\nx q[0]; // trailing\r\n'
    prog = parse(src)
    assert len(prog.statements) == 1


def test_non_qelib_include_rejected():
    with pytest.raises(QasmError, match="unsupported include"):
        parse('include "other.inc"; qreg q[1];')


def test_register_broadcast_single_qubit_gate():
    prog = parse("qreg q[3]; h q;")
    assert [s.operands for s in prog.statements] == [(("q", 0),), (("q", 1),), (("q", 2),)]


def test_register_broadcast_measure():
    prog = parse("qreg q[2]; creg c[2]; measure q -> c;")
    assert prog.statements == (
        MeasureStatement(("q", 0), ("c", 0)),
        MeasureStatement(("q", 1), ("c", 1)),
    )


def test_barrier_register_expansion():
    prog = parse("qreg q[2]; barrier q;")
    assert prog.statements == (BarrierStatement((("q", 0), ("q", 1)),),)


def test_emit_single_statement_lines():
    prog = parse("qreg q[1]; h q[0];")
    text = emit(prog)
    assert "h q[0];" in text.splitlines()
    assert text.endswith("\n") and "\r" not in text


def test_emit_pi_17_digits():
    prog = parse("qreg q[1]; rz(pi) q[0];")
    assert "rz(3.1415926535897931) q[0];" in emit(prog)


def test_measure_emitted_with_arrow():
    prog = parse("qreg q[1]; creg c[1]; measure q[0] -> c[0];")
    assert "measure q[0] -> c[0];" in emit(prog)


@pytest.mark.parametrize("name", benchmarks.NAMES)
def test_round_trip_benchmarks(name):
    prog = parse(benchmarks.load(name))
    assert parse(emit(prog)) == prog


def test_round_trip_randomized_programs():
    rng = np.random.default_rng(20240811)
    for _ in range(100):
        prog = parse(random_qasm_source(rng))
        assert parse(emit(prog)) == prog


@given(st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
def test_angle_round_trip_bit_identical(angle):
    prog = parse(f"qreg q[1]; rz({angle!r}) q[0];")
    again = parse(emit(prog))
    assert again.statements[0].params[0] == prog.statements[0].params[0]


def test_gate_after_measure_rejected():
    with pytest.raises(QasmError, match="after measurement"):
        parse_circuit("qreg q[1]; creg c[1]; measure q[0] -> c[0]; x q[0];")


def test_circuit_conversion_round_trip():
    src = benchmarks.load("adder_n4")
    circuit = parse_circuit(src)
    assert qasm.parse_circuit(qasm.emit_circuit(circuit)) == circuit


def test_multi_register_flattening():
    circuit = parse_circuit("qreg a[1]; qreg b[2]; creg c[1]; cx a[0],b[1]; measure b[0] -> c[0];")
    assert circuit.num_qubits == 3
    assert circuit.qubit_labels == ("a[0]", "b[0]", "b[1]")
    assert circuit.gates()[0].qubits == (0, 2)
