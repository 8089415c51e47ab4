import math
import re
import sys
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qlock
from qlock import Barrier, Circuit, Gate, Measure, benchmarks, qasm
from qlock.locking import dense_plan, obfuscate
from qlock.qasm import QasmError, emit_circuit, parse_circuit

from conftest import random_circuit, random_qasm_source


def test_minimal_program():
    circuit = parse_circuit("qreg q[1]; x q[0];")
    assert circuit == Circuit(1, 0, (Gate("x", (), (0,)),))
    assert circuit.qubit_labels == ("q[0]",) and circuit.clbit_labels == ()


def test_angle_expression_pi_over_4():
    circuit = parse_circuit("qreg q[1]; rz(pi/4) q[0];")
    assert circuit.ops[0].params == (0.7853981633974483,)


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
    circuit = parse_circuit(f"qreg q[1]; rz({expr}) q[0];")
    assert circuit.ops[0].params == (value,)


def test_arity_error():
    with pytest.raises(QasmError, match="cx expects 2 operand"):
        parse_circuit("qreg q[2]; cx q[0];")


def test_undeclared_register():
    with pytest.raises(QasmError, match="undeclared register 'r'"):
        parse_circuit("qreg q[1]; x r[0];")


def test_index_out_of_range():
    with pytest.raises(QasmError, match="out of range"):
        parse_circuit("qreg q[2]; x q[2];")


def test_huge_register_refused_at_its_size():
    with pytest.raises(QasmError) as err:
        parse_circuit("qreg q[99999999999];")
    assert str(err.value) == "line 1, col 8: more than 1048576 quantum bits declared"


def test_register_limit_counts_each_kind(monkeypatch):
    monkeypatch.setattr(qasm, "MAX_REGISTER_BITS", 4)
    circuit = parse_circuit("qreg a[3]; qreg b[1]; creg c[4];")
    assert (circuit.num_qubits, circuit.num_clbits) == (4, 4)
    with pytest.raises(QasmError, match="line 1, col 19: more than 4 quantum bits"):
        parse_circuit("qreg a[3]; qreg b[2];")
    with pytest.raises(QasmError, match="more than 4 classical bits"):
        parse_circuit("qreg a[1]; creg c[3]; creg d[2];")


@pytest.mark.parametrize("expr", ["1e400", "-1e400", "1e308*10", "1e400-1e400"])
def test_non_finite_parameter_rejected(expr):
    with pytest.raises(QasmError, match="not finite"):
        parse_circuit(f"qreg q[1]; u3(0, {expr}, 0) q[0];")


def test_unsupported_gate_named_in_error():
    with pytest.raises(QasmError, match="unsupported gate 'ry'"):
        parse_circuit("qreg q[1]; ry(0.5) q[0];")


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
        parse_circuit(source)


def test_syntax_error_carries_position():
    with pytest.raises(QasmError) as err:
        parse_circuit("qreg q[1];\nx q[0]")  # missing semicolon at line 2
    assert err.value.line == 2


def test_duplicate_operands_rejected():
    with pytest.raises(QasmError, match="distinct"):
        parse_circuit("qreg q[2]; cx q[0],q[0];")


def test_comments_include_and_crlf_accepted():
    src = 'OPENQASM 2.0;\r\n// a comment\r\ninclude "qelib1.inc";\r\nqreg q[1];\r\nx q[0]; // trailing\r\n'
    circuit = parse_circuit(src)
    assert circuit.ops == (Gate("x", (), (0,)),)


def test_non_qelib_include_rejected():
    with pytest.raises(QasmError, match="unsupported include"):
        parse_circuit('include "other.inc"; qreg q[1];')


def test_register_broadcast_single_qubit_gate():
    circuit = parse_circuit("qreg q[3]; h q;")
    assert circuit.ops == tuple(Gate("h", (), (q,)) for q in range(3))


def test_register_broadcast_measure():
    circuit = parse_circuit("qreg q[2]; creg c[2]; measure q -> c;")
    assert circuit.ops == (Measure(0, 0), Measure(1, 1))
    assert circuit.clbit_labels == ("c[0]", "c[1]")


def test_barrier_register_expansion():
    circuit = parse_circuit("qreg q[2]; barrier q;")
    assert circuit.ops == (Barrier((0, 1)),)


def test_emit_single_statement_lines():
    text = emit_circuit(parse_circuit("qreg q[1]; h q[0];"))
    assert "h q[0];" in text.splitlines()
    assert text.endswith("\n") and "\r" not in text


def test_emit_pi_17_digits():
    circuit = parse_circuit("qreg q[1]; rz(pi) q[0];")
    assert "rz(3.1415926535897931) q[0];" in emit_circuit(circuit)


def test_measure_emitted_with_arrow():
    circuit = parse_circuit("qreg q[1]; creg c[1]; measure q[0] -> c[0];")
    assert "measure q[0] -> c[0];" in emit_circuit(circuit)


@pytest.mark.parametrize("name", benchmarks.NAMES)
def test_round_trip_benchmarks(name):
    circuit = parse_circuit(benchmarks.load(name))
    assert parse_circuit(emit_circuit(circuit)) == circuit


def test_round_trip_randomized_programs():
    rng = np.random.default_rng(20240811)
    for _ in range(100):
        circuit = parse_circuit(random_qasm_source(rng))
        assert parse_circuit(emit_circuit(circuit)) == circuit


def test_circuit_conversion_round_trip():
    circuit = parse_circuit(benchmarks.load("adder_n4"))
    assert parse_circuit(emit_circuit(circuit)) == circuit
    multi = parse_circuit("qreg a[1]; qreg b[2]; creg c[1]; cx a[0],b[1]; measure b[0] -> c[0];")
    again = parse_circuit(emit_circuit(multi))
    assert again == multi
    assert again.qubit_labels == ("a[0]", "b[0]", "b[1]") and again.clbit_labels == ("c[0]",)


@given(st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
def test_angle_round_trip_bit_identical(angle):
    circuit = parse_circuit(f"qreg q[1]; rz({angle!r}) q[0];")
    again = parse_circuit(emit_circuit(circuit))
    assert again.ops[0].params[0] == circuit.ops[0].params[0]


def test_gate_after_measure_rejected():
    with pytest.raises(QasmError, match="after measurement"):
        parse_circuit("qreg q[1]; creg c[1]; measure q[0] -> c[0]; x q[0];")


def test_multi_register_flattening():
    circuit = parse_circuit("qreg a[1]; qreg b[2]; creg c[1]; cx a[0],b[1]; measure b[0] -> c[0];")
    assert circuit.num_qubits == 3
    assert circuit.qubit_labels == ("a[0]", "b[0]", "b[1]")
    assert circuit.gates()[0].qubits == (0, 2)


@pytest.mark.parametrize(
    "source,message",
    [
        (
            "qreg a[1]; qreg b[1]; cx a, b;",
            "line 1, col 23: whole-register broadcast not supported for 2-qubit gate 'cx'",
        ),
        (
            "qreg a[2]; qreg b[2]; cx a[0], b;",
            "line 1, col 23: whole-register broadcast not supported for 2-qubit gate 'cx'",
        ),
        (
            "qreg q[3]; ccx q, q[1], q[2];",
            "line 1, col 12: whole-register broadcast not supported for 3-qubit gate 'ccx'",
        ),
        ("qreg q[1]; qreg q[2];", "line 1, col 17: register 'q' redeclared"),
        ("qreg q[1]; creg q[2];", "line 1, col 17: register 'q' redeclared"),
        ("creg c[2];", "program declares no quantum register"),
        ("", "program declares no quantum register"),
        ("qreg q[2]; creg c[1]; measure q -> c;", "line 1, col 23: measure operand sizes differ"),
        ("qreg q[1]; creg c[2]; measure q[0] -> c;", "line 1, col 23: measure operand sizes differ"),
        ("OPENQASM 3.0; qreg q[1];", "line 1, col 10: unsupported OPENQASM version '3.0'"),
        ("qreg q[1]; creg c[1]; x c[0];", "line 1, col 25: register 'c' is classical, expected quantum"),
        ("qreg q[1]; creg c[1]; x c;", "line 1, col 25: register 'c' is classical, expected quantum"),
        ("qreg q[\u0663]; rz(\u0663) q[\u0662];", "line 1, col 8: unexpected character '\u0663'"),
        (
            "qreg q[2]; creg c[2]; measure q[0] -> c[0]\nx q[1];",
            "line 2, col 1: expected ';', found 'x'",
        ),
    ],
)
def test_parser_errors(source, message):
    with pytest.raises(QasmError) as err:
        parse_circuit(source)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "source,col",
    [("qreg q[" + "1" * 5000 + "];", 8), ("qreg q[2]; x q[" + "1" * 5000 + "];", 16)],
    ids=["size", "index"],
)
def test_huge_integer_literal_refused_by_length(source, col):
    with pytest.raises(QasmError) as err:
        parse_circuit(source)
    assert str(err.value) == f"line 1, col {col}: integer literal longer than 4300 digits"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int() digit limit")
def test_huge_integer_literal_follows_the_process_limit():
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(QasmError) as err:
            parse_circuit("qreg q[2]; x q[" + "1" * 1000 + "];")
    finally:
        sys.set_int_max_str_digits(default)
    assert str(err.value) == "line 1, col 16: integer literal longer than 640 digits"


# --- tokenizer oracle: one dataclass and one ``re.match`` per token, with the
# position counted along the way; the tokenizer must give the same stream once
# each ``statement`` token is split by the module's own split

_ORACLE_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>//[^\n]*)
  | (?P<newline>\n)
  | (?P<real>([0-9]+\.[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?|[0-9]+[eE][-+]?[0-9]+)
  | (?P<int>[0-9]+)
  | (?P<arrow>->)
  | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"[^"\n]*")
  | (?P<sym>==|[()\[\],;+\-*/{}<>=!])
    """,
    re.VERBOSE,
)


@dataclass
class _Token:
    kind: str
    text: str
    line: int
    col: int


def _oracle_tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(source):
        m = _ORACLE_RE.match(source, pos)
        if m is None:
            raise QasmError(f"unexpected character {source[pos]!r}", line, col)
        kind = m.lastgroup
        text = m.group()
        if kind == "newline":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(text)
        else:
            tokens.append(_Token(kind, text, line, col))
            col += len(text)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


def _assert_tokens_match_oracle(source: str) -> None:
    try:
        want = [(t.kind, t.text, t.line, t.col) for t in _oracle_tokenize(source)]
    except QasmError as exc:
        with pytest.raises(QasmError) as err:
            qasm._tokenize(source)
        assert (str(err.value), err.value.line, err.value.col) == (str(exc), exc.line, exc.col)
        return
    tokens = [
        split
        for tok in qasm._tokenize(source)
        for split in (qasm._split(source, tok) if tok[0] == "statement" else [tok])
    ]
    assert [(kind, text, *qasm._where(source, offset)) for kind, text, offset in tokens] == want


def _locked_text(circuit: Circuit, seed: int) -> str:
    return emit_circuit(obfuscate(circuit, dense_plan(circuit, seed=seed), seed=seed).locked_circuit)


_EDGE_SOURCES = [
    "",
    "qreg q[1];\r\n\tx q [ 0 ] ; // tail\r\nx q[0];",
    "rz(1.5e-3*.5/2.+3E+2) q[0]; measure q -> c; if(c==1)",
    "x q[\u0663]; x q[0]\u00e9",
    "qreg q[2]; rz(0) q[0]; x q[0]\u00e9",
    "qreg q[\u0663]; rz(\u0663) q[\u0662];",
    'include "qelib1.inc',
    "q[0]\nq [0]\nq[ 0]\nq[0 ]\nq[00]\nq[0.5]\nq[1e2]\n_a1[2]x[3]",
    "// only a comment",
    "x q[0];\n\n  \t@",
]

_BUNDLED = [benchmarks.load(name) for name in benchmarks.NAMES]
_LOCKED_BUNDLED = [_locked_text(parse_circuit(source), 3) for source in _BUNDLED]


def _programs() -> list[str]:
    """The bundled circuits, criterion 9's programs and locked forms."""
    rng = np.random.default_rng(1009)  # criterion 9's programs
    sources = _BUNDLED + [random_qasm_source(rng) for _ in range(500)] + _LOCKED_BUNDLED
    rng = np.random.default_rng(8)
    return sources + [
        _locked_text(random_circuit(rng, max_qubits=6, max_gates=60), seed) for seed in range(10)
    ]


def test_tokenizer_matches_oracle_on_programs():
    for source in _EDGE_SOURCES + _programs():
        _assert_tokens_match_oracle(source)


def _mutate(source: str, edits) -> str:
    for op, at, fragment, width in edits:
        at %= len(source) + 1
        if op == "insert":
            source = source[:at] + fragment + source[at:]
        elif op == "delete":
            source = source[:at] + source[at + width :]
        else:
            source = source[:at] + fragment + source[at + width :]
    return source


def _edits(fragments: list[str]):
    return st.lists(
        st.tuples(
            st.sampled_from(["insert", "delete", "replace"]),
            st.integers(0, 4000),
            st.sampled_from(fragments),
            st.integers(1, 3),
        ),
        max_size=8,
    )


_FRAGMENTS = [
    "qreg q[2];", "creg c[2];", "x q[0];", "cx q[0],q[1];", "rz(-pi/4) q[1];", "u3(1.5e-3,.5,2.) q[0];",
    "measure q[0] -> c[0];", "barrier q;", "q[", "1]", "\r", "\t", "\n", " ", "//", "q [ 0 ]",
    "é", "\u0663", '"', "==", ";", ",",
]


@settings(max_examples=300)
@given(st.sampled_from(_BUNDLED), _edits(_FRAGMENTS))
def test_tokenizer_matches_oracle_under_mutation(source, edits):
    _assert_tokens_match_oracle(_mutate(source, edits))


# --- parser differential: the same parser with no ``statement`` alternative
# (token grammar only) is the oracle; the circuit, parameters bit for bit
# through ``repr``, or the error message must be the same

def _parse_outcome(source: str) -> str:
    try:
        return repr(parse_circuit(source))
    except QasmError as exc:
        return f"QasmError: {exc}"


def _assert_parse_matches_token_path(source: str) -> None:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qasm, "_TOKEN_RE", qasm._PLAIN_RE)
        want = _parse_outcome(source)
    assert _parse_outcome(source) == want


# statements whose checks fail, and statement tokens where no statement starts
_STATEMENT_EDGES = [
    "qreg q[2]; rz(-0.5) q[0]; rz(-0) q[1]; u3(1.5e-3,-.5,2.) q[1]; cx q[1],q[0]; barrier q[0],q[1];",
    "qreg q[2]; rz(1e400) q[0];",
    "qreg q[2]; u3(0,-1e309,0) q[0];",
    "qreg q[2]; rz(0.5,1) q[0];",
    "qreg q[2]; u3(1) q[0];",
    "qreg q[2]; h(1) q[0];",
    "qreg q[2]; barrier(1) q[0];",
    "qreg q[2]; barrier q[1],q[1];",
    "qreg q[2]; cx q[0],q[0];",
    "qreg q[3]; ccx q[0],q[1];",
    "qreg q[2]; x q[0],q[1];",
    "qreg q[2]; x q[2];",
    "qreg q[2]; x q[007];",
    "qreg q[2]; x r[0];",
    "x q[0]; qreg q[1];",
    "qreg q[2]; creg c[1]; x c[0];",
    "qreg q[2]; x q[" + "1" * 5000 + "];",
    "qreg q[2]; creg c[2]; measure q[0] -> c[0]\nx q[1];",
    "OPENQASM 2.0 x q[0];",
    "qreg q[2]; include x q[0];",
    "qreg q[2]; cx q[0], x q[1];",
    "qreg x[2]; qreg q[2]; cx q[0], x q[1];",
    "qreg q[2]; rz(2*x q[0];",
    "qreg q[2]; creg c[2]; measure q[0] -> c[0]; x q[0];",
]


def test_parse_matches_token_path_on_programs():
    for source in _STATEMENT_EDGES + _EDGE_SOURCES + _programs():
        _assert_parse_matches_token_path(source)
    for source in _LOCKED_BUNDLED:
        assert any(tok[0] == "statement" for tok in qasm._tokenize(source))


_PARSE_FRAGMENTS = [
    "rz(-0.5) q[0];", "rz(--1)", "rz(+1)", "cx q[0],q[0];", "q[99]", "reset q[0];", "qreg q[2];",
    "x q[0]", "h q[1];", "barrier q[0],q[1];", "u3(1e400,0,0) q[0];", "(", ")", "-", ",", ";", "1",
    "\r\n", "\t", "//", " ",
]


@settings(max_examples=300)
@given(st.sampled_from(_BUNDLED + _LOCKED_BUNDLED), _edits(_PARSE_FRAGMENTS))
def test_parse_matches_token_path_under_mutation(source, edits):
    _assert_parse_matches_token_path(_mutate(source, edits))


def test_public_names_resolve():
    assert [name for name in qlock.__all__ if not hasattr(qlock, name)] == []
