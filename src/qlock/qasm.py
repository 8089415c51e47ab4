"""OpenQASM 2.0 front end: parse a fixed gate alphabet, emit it back.

The subset covers register declarations, the closed gate alphabet of the
circuit IR, barriers, measurements, comments, and ``include "qelib1.inc";``
(accepted and discarded). Angle expressions allow numeric literals, ``pi``,
unary minus, parentheses, and the binary operators ``+ - * /``.

Everything else (gate definitions, ``if``, ``reset``, opaque declarations,
unknown mnemonics) is rejected with a line/column diagnostic: parsing is
total on the subset and never drops statements silently.

``emit`` produces a canonical one-statement-per-line layout with angles
printed to 17 significant digits, so ``parse(emit(p))`` reproduces ``p``
exactly, angles bit-identical. Input accepts LF or CRLF; output is LF.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .circuit import GATE_SPECS, Barrier, Circuit, Gate, Measure


class QasmError(Exception):
    """Parse or validation failure, carrying source position when known."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)
        self.line = line
        self.col = col


@dataclass(frozen=True)
class GateStatement:
    name: str
    params: tuple[float, ...]
    operands: tuple[tuple[str, int], ...]  # (register name, index)


@dataclass(frozen=True)
class BarrierStatement:
    operands: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class MeasureStatement:
    qubit: tuple[str, int]
    clbit: tuple[str, int]


Statement = GateStatement | BarrierStatement | MeasureStatement


@dataclass(frozen=True)
class QasmProgram:
    version: str
    register_decls: tuple[tuple[str, str, int], ...]  # (name, "quantum"|"classical", size)
    statements: tuple[Statement, ...]


# --- tokenizer ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>//[^\n]*)
  | (?P<newline>\n)
  | (?P<real>(\d+\.\d*|\.\d+)([eE][-+]?\d+)?|\d+[eE][-+]?\d+)
  | (?P<int>\d+)
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


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
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


# --- parser ------------------------------------------------------------------

_UNSUPPORTED = {
    "gate": "gate definitions",
    "if": "classical conditionals",
    "opaque": "opaque declarations",
    "reset": "reset statements",
}


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.registers: dict[str, tuple[str, int]] = {}  # name -> (kind, size)

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self.next()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise QasmError(f"expected {want!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def error(self, message: str, tok: _Token | None = None) -> QasmError:
        tok = tok or self.peek()
        return QasmError(message, tok.line, tok.col)

    def parse(self) -> QasmProgram:
        version = "2.0"
        decls: list[tuple[str, str, int]] = []
        statements: list[Statement] = []
        if self.peek().kind == "id" and self.peek().text == "OPENQASM":
            self.next()
            tok = self.next()
            if tok.kind not in ("real", "int"):
                raise self.error("expected version number after OPENQASM", tok)
            if tok.text != "2.0":
                raise self.error(f"unsupported OPENQASM version {tok.text!r}", tok)
            self.expect("sym", ";")
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind != "id":
                raise self.error(f"expected statement, found {tok.text!r}")
            name = tok.text
            if name == "include":
                self._parse_include()
            elif name in ("qreg", "creg"):
                decls.append(self._parse_reg_decl())
            elif name in _UNSUPPORTED:
                raise self.error(f"unsupported QASM construct: {_UNSUPPORTED[name]}")
            elif name == "barrier":
                statements.append(self._parse_barrier())
            elif name == "measure":
                statements.extend(self._parse_measure())
            else:
                statements.extend(self._parse_gate())
        return QasmProgram(version, tuple(decls), tuple(statements))

    def _parse_include(self) -> None:
        tok = self.next()
        target = self.expect("string")
        if target.text != '"qelib1.inc"':
            raise QasmError(f"unsupported include {target.text}", tok.line, tok.col)
        self.expect("sym", ";")

    def _parse_reg_decl(self) -> tuple[str, str, int]:
        kw = self.next()
        kind = "quantum" if kw.text == "qreg" else "classical"
        name_tok = self.expect("id")
        if name_tok.text in self.registers:
            raise QasmError(f"register {name_tok.text!r} redeclared", name_tok.line, name_tok.col)
        self.expect("sym", "[")
        size_tok = self.expect("int")
        size = int(size_tok.text)
        if size < 1:
            raise QasmError("register size must be positive", size_tok.line, size_tok.col)
        self.expect("sym", "]")
        self.expect("sym", ";")
        self.registers[name_tok.text] = (kind, size)
        return (name_tok.text, kind, size)

    def _parse_operand(self, want: str) -> tuple[str, int] | tuple[str, None]:
        """Indexed or bare register reference of the wanted kind."""
        name_tok = self.expect("id")
        if name_tok.text not in self.registers:
            raise QasmError(f"undeclared register {name_tok.text!r}", name_tok.line, name_tok.col)
        kind, size = self.registers[name_tok.text]
        if kind != want:
            raise QasmError(
                f"register {name_tok.text!r} is {kind}, expected {want}",
                name_tok.line,
                name_tok.col,
            )
        if self.peek().kind == "sym" and self.peek().text == "[":
            self.next()
            idx_tok = self.expect("int")
            idx = int(idx_tok.text)
            if idx >= size:
                raise QasmError(
                    f"index {idx} out of range for {name_tok.text!r}[{size}]",
                    idx_tok.line,
                    idx_tok.col,
                )
            self.expect("sym", "]")
            return (name_tok.text, idx)
        return (name_tok.text, None)

    def _expand(self, operand: tuple[str, int | None]) -> list[tuple[str, int]]:
        name, idx = operand
        if idx is not None:
            return [(name, idx)]
        return [(name, i) for i in range(self.registers[name][1])]

    def _parse_barrier(self) -> BarrierStatement:
        self.next()
        operands: list[tuple[str, int]] = []
        while True:
            operands.extend(self._expand(self._parse_operand("quantum")))
            tok = self.next()
            if tok.kind == "sym" and tok.text == ";":
                break
            if not (tok.kind == "sym" and tok.text == ","):
                raise QasmError(f"expected ',' or ';', found {tok.text!r}", tok.line, tok.col)
        return BarrierStatement(tuple(operands))

    def _parse_measure(self) -> list[MeasureStatement]:
        kw = self.next()
        src = self._parse_operand("quantum")
        self.expect("arrow")
        dst = self._parse_operand("classical")
        self.expect("sym", ";")
        srcs, dsts = self._expand(src), self._expand(dst)
        if len(srcs) != len(dsts):
            raise QasmError("measure operand sizes differ", kw.line, kw.col)
        return [MeasureStatement(s, d) for s, d in zip(srcs, dsts)]

    def _parse_gate(self) -> list[GateStatement]:
        name_tok = self.next()
        name = name_tok.text
        if name not in GATE_SPECS:
            raise QasmError(f"unsupported gate {name!r}", name_tok.line, name_tok.col)
        nq, np_ = GATE_SPECS[name]
        params: tuple[float, ...] = ()
        if self.peek().kind == "sym" and self.peek().text == "(":
            self.next()
            values = [self._parse_param()]
            while self.peek().kind == "sym" and self.peek().text == ",":
                self.next()
                values.append(self._parse_param())
            self.expect("sym", ")")
            params = tuple(values)
        if len(params) != np_:
            raise QasmError(
                f"{name} expects {np_} parameter(s), got {len(params)}",
                name_tok.line,
                name_tok.col,
            )
        operands: list[tuple[str, int | None]] = [self._parse_operand("quantum")]
        while self.peek().kind == "sym" and self.peek().text == ",":
            self.next()
            operands.append(self._parse_operand("quantum"))
        self.expect("sym", ";")
        if len(operands) != nq:
            raise QasmError(
                f"{name} expects {nq} operand(s), got {len(operands)}",
                name_tok.line,
                name_tok.col,
            )
        bare = [op for op in operands if op[1] is None]
        if bare:
            if nq != 1:
                raise QasmError(
                    f"whole-register broadcast not supported for {nq}-qubit gate {name!r}",
                    name_tok.line,
                    name_tok.col,
                )
            return [GateStatement(name, params, (ref,)) for ref in self._expand(operands[0])]
        stmt = GateStatement(name, params, tuple(operands))  # type: ignore[arg-type]
        if len(set(stmt.operands)) != len(stmt.operands):
            raise QasmError(f"{name} operands must be distinct", name_tok.line, name_tok.col)
        return [stmt]

    def _parse_param(self) -> float:
        tok = self.peek()
        value = self._parse_expr()
        if not math.isfinite(value):
            raise QasmError(f"gate parameter is not finite ({value})", tok.line, tok.col)
        return value

    # angle expressions: expr := term (('+'|'-') term)*
    #                    term := factor (('*'|'/') factor)*
    #                    factor := '-' factor | number | pi | '(' expr ')'
    def _parse_expr(self) -> float:
        value = self._parse_term()
        while self.peek().kind == "sym" and self.peek().text in "+-":
            op = self.next().text
            rhs = self._parse_term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def _parse_term(self) -> float:
        value = self._parse_factor()
        while self.peek().kind == "sym" and self.peek().text in "*/":
            op = self.next()
            rhs = self._parse_factor()
            if op.text == "/":
                if rhs == 0.0:
                    raise QasmError("division by zero in angle expression", op.line, op.col)
                value = value / rhs
            else:
                value = value * rhs
        return value

    def _parse_factor(self) -> float:
        tok = self.next()
        if tok.kind == "sym" and tok.text == "-":
            return -self._parse_factor()
        if tok.kind in ("real", "int"):
            return float(tok.text)
        if tok.kind == "id" and tok.text == "pi":
            return math.pi
        if tok.kind == "sym" and tok.text == "(":
            value = self._parse_expr()
            self.expect("sym", ")")
            return value
        raise QasmError(f"expected angle expression, found {tok.text!r}", tok.line, tok.col)


def parse(source: str) -> QasmProgram:
    """Parse OpenQASM 2.0 text into a program; raises QasmError on anything
    outside the supported subset."""
    return _Parser(source).parse()


# --- emitter -----------------------------------------------------------------

def _fmt_angle(value: float) -> str:
    return format(value, ".17g")


def _fmt_ref(ref: tuple[str, int]) -> str:
    return f"{ref[0]}[{ref[1]}]"


def emit(program: QasmProgram) -> str:
    """Canonical text form: header, include, declarations, one statement per line."""
    lines = [f"OPENQASM {program.version};", 'include "qelib1.inc";']
    for name, kind, size in program.register_decls:
        kw = "qreg" if kind == "quantum" else "creg"
        lines.append(f"{kw} {name}[{size}];")
    for stmt in program.statements:
        if isinstance(stmt, GateStatement):
            head = stmt.name
            if stmt.params:
                head += "(" + ",".join(_fmt_angle(v) for v in stmt.params) + ")"
            lines.append(f"{head} {','.join(_fmt_ref(r) for r in stmt.operands)};")
        elif isinstance(stmt, BarrierStatement):
            lines.append(f"barrier {','.join(_fmt_ref(r) for r in stmt.operands)};")
        else:
            lines.append(f"measure {_fmt_ref(stmt.qubit)} -> {_fmt_ref(stmt.clbit)};")
    return "\n".join(lines) + "\n"


# --- conversion to / from the circuit IR --------------------------------------

def to_circuit(program: QasmProgram) -> Circuit:
    """Flatten registers into global indices, preserving declaration order."""
    qubit_offsets: dict[str, int] = {}
    clbit_offsets: dict[str, int] = {}
    qubit_labels: list[str] = []
    clbit_labels: list[str] = []
    for name, kind, size in program.register_decls:
        if kind == "quantum":
            qubit_offsets[name] = len(qubit_labels)
            qubit_labels.extend(f"{name}[{i}]" for i in range(size))
        else:
            clbit_offsets[name] = len(clbit_labels)
            clbit_labels.extend(f"{name}[{i}]" for i in range(size))
    if not qubit_labels:
        raise QasmError("program declares no quantum register")

    def qindex(ref: tuple[str, int]) -> int:
        return qubit_offsets[ref[0]] + ref[1]

    ops = []
    for stmt in program.statements:
        if isinstance(stmt, GateStatement):
            ops.append(Gate(stmt.name, stmt.params, tuple(qindex(r) for r in stmt.operands)))
        elif isinstance(stmt, BarrierStatement):
            ops.append(Barrier(tuple(qindex(r) for r in stmt.operands)))
        else:
            ops.append(Measure(qindex(stmt.qubit), clbit_offsets[stmt.clbit[0]] + stmt.clbit[1]))
    try:
        return Circuit(
            num_qubits=len(qubit_labels),
            num_clbits=len(clbit_labels),
            ops=tuple(ops),
            qubit_labels=tuple(qubit_labels),
            clbit_labels=tuple(clbit_labels),
        )
    except ValueError as exc:
        raise QasmError(str(exc)) from exc


_LABEL_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\[(\d+)\]$")


def _labels_to_decls(labels: tuple[str, ...], kind: str) -> tuple[tuple[str, str, int], ...]:
    decls: list[tuple[str, str, int]] = []
    sizes: dict[str, int] = {}
    order: list[str] = []
    for label in labels:
        m = _LABEL_RE.match(label)
        if m is None:
            raise ValueError(f"cannot derive register declaration from label {label!r}")
        name, idx = m.group(1), int(m.group(2))
        if name not in sizes:
            sizes[name] = 0
            order.append(name)
        sizes[name] = max(sizes[name], idx + 1)
    for name in order:
        decls.append((name, kind, sizes[name]))
    return tuple(decls)


def from_circuit(circuit: Circuit) -> QasmProgram:
    """Rebuild a program from the IR; register structure comes from the labels."""
    decls = _labels_to_decls(circuit.qubit_labels, "quantum") + _labels_to_decls(
        circuit.clbit_labels, "classical"
    )

    def qref(q: int) -> tuple[str, int]:
        m = _LABEL_RE.match(circuit.qubit_labels[q])
        assert m is not None
        return (m.group(1), int(m.group(2)))

    def cref(c: int) -> tuple[str, int]:
        m = _LABEL_RE.match(circuit.clbit_labels[c])
        assert m is not None
        return (m.group(1), int(m.group(2)))

    statements: list[Statement] = []
    for op in circuit.ops:
        if isinstance(op, Gate):
            statements.append(GateStatement(op.kind, op.params, tuple(qref(q) for q in op.qubits)))
        elif isinstance(op, Barrier):
            statements.append(BarrierStatement(tuple(qref(q) for q in op.qubits)))
        else:
            statements.append(MeasureStatement(qref(op.qubit), cref(op.clbit)))
    return QasmProgram("2.0", decls, tuple(statements))


def parse_circuit(source: str) -> Circuit:
    return to_circuit(parse(source))


def emit_circuit(circuit: Circuit) -> str:
    return emit(from_circuit(circuit))
