"""OpenQASM 2.0 front end: parse a fixed gate alphabet, emit it back.

The subset covers register declarations, the closed gate alphabet of the
circuit IR, barriers, measurements, comments, and ``include "qelib1.inc";``
(accepted and discarded). Angle expressions allow numeric literals, ``pi``,
unary minus, parentheses, and the binary operators ``+ - * /``.

Everything else (gate definitions, ``if``, ``reset``, opaque declarations,
unknown mnemonics) is rejected with a line/column diagnostic: parsing is
total on the subset and never drops statements silently.

``parse_circuit`` flattens registers into the circuit's global qubit and
classical-bit indices and keeps each bit's ``name[i]`` label. ``emit_circuit``
derives the declarations from those labels and produces a canonical
one-statement-per-line layout with angles printed to 17 significant digits,
so ``parse_circuit(emit_circuit(c)) == c`` for every parsed circuit ``c``,
angles bit-identical. Input accepts LF or CRLF; output is LF.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .circuit import GATE_SPECS, Barrier, Circuit, Gate, Measure, Op


# bits of one kind a program may declare (one label each); simulation stops at 26 qubits
MAX_REGISTER_BITS = 2**20


class QasmError(Exception):
    """Parse or validation failure, carrying source position when known."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)
        self.line = line
        self.col = col


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
        # name -> (kind, size, global index of the register's first bit)
        self.registers: dict[str, tuple[str, int, int]] = {}
        self.labels: dict[str, list[str]] = {"quantum": [], "classical": []}
        self.ops: list[Op] = []

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

    def parse(self) -> Circuit:
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
                self._parse_reg_decl()
            elif name in _UNSUPPORTED:
                raise self.error(f"unsupported QASM construct: {_UNSUPPORTED[name]}")
            elif name == "barrier":
                self._parse_barrier()
            elif name == "measure":
                self._parse_measure()
            else:
                self._parse_gate()
        qubit_labels, clbit_labels = self.labels["quantum"], self.labels["classical"]
        if not qubit_labels:
            raise QasmError("program declares no quantum register")
        try:
            return Circuit(
                num_qubits=len(qubit_labels),
                num_clbits=len(clbit_labels),
                ops=tuple(self.ops),
                qubit_labels=tuple(qubit_labels),
                clbit_labels=tuple(clbit_labels),
            )
        except ValueError as exc:
            raise QasmError(str(exc)) from exc

    def _parse_include(self) -> None:
        tok = self.next()
        target = self.expect("string")
        if target.text != '"qelib1.inc"':
            raise QasmError(f"unsupported include {target.text}", tok.line, tok.col)
        self.expect("sym", ";")

    def _parse_reg_decl(self) -> None:
        """Registers flatten into global indices in declaration order, per kind."""
        kw = self.next()
        kind = "quantum" if kw.text == "qreg" else "classical"
        name_tok = self.expect("id")
        name = name_tok.text
        if name in self.registers:
            raise QasmError(f"register {name!r} redeclared", name_tok.line, name_tok.col)
        self.expect("sym", "[")
        size_tok = self.expect("int")
        size = int(size_tok.text)
        if size < 1:
            raise QasmError("register size must be positive", size_tok.line, size_tok.col)
        labels = self.labels[kind]
        if len(labels) + size > MAX_REGISTER_BITS:
            raise QasmError(
                f"more than {MAX_REGISTER_BITS} {kind} bits declared", size_tok.line, size_tok.col
            )
        self.expect("sym", "]")
        self.expect("sym", ";")
        self.registers[name] = (kind, size, len(labels))
        labels.extend(f"{name}[{i}]" for i in range(size))

    def _parse_operand(self, want: str) -> tuple[range, bool]:
        """Global indices named by an indexed (``q[i]``) or bare (``q``)
        register reference of the wanted kind, and whether it was bare."""
        name_tok = self.expect("id")
        if name_tok.text not in self.registers:
            raise QasmError(f"undeclared register {name_tok.text!r}", name_tok.line, name_tok.col)
        kind, size, offset = self.registers[name_tok.text]
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
            return range(offset + idx, offset + idx + 1), False
        return range(offset, offset + size), True

    def _parse_barrier(self) -> None:
        self.next()
        qubits: list[int] = []
        while True:
            qubits.extend(self._parse_operand("quantum")[0])
            tok = self.next()
            if tok.kind == "sym" and tok.text == ";":
                break
            if not (tok.kind == "sym" and tok.text == ","):
                raise QasmError(f"expected ',' or ';', found {tok.text!r}", tok.line, tok.col)
        self.ops.append(Barrier(tuple(qubits)))

    def _parse_measure(self) -> None:
        kw = self.next()
        qubits, _ = self._parse_operand("quantum")
        self.expect("arrow")
        clbits, _ = self._parse_operand("classical")
        self.expect("sym", ";")
        if len(qubits) != len(clbits):
            raise QasmError("measure operand sizes differ", kw.line, kw.col)
        self.ops.extend(Measure(q, c) for q, c in zip(qubits, clbits))

    def _parse_gate(self) -> None:
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
        operands = [self._parse_operand("quantum")]
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
        # broadcast follows the syntax, not the size: ``cx a, b`` is refused
        # even when both registers hold one qubit
        if any(bare for _, bare in operands):
            if nq != 1:
                raise QasmError(
                    f"whole-register broadcast not supported for {nq}-qubit gate {name!r}",
                    name_tok.line,
                    name_tok.col,
                )
            self.ops.extend(Gate(name, params, (q,)) for q in operands[0][0])
            return
        qubits = tuple(bits[0] for bits, _ in operands)
        if len(set(qubits)) != len(qubits):
            raise QasmError(f"{name} operands must be distinct", name_tok.line, name_tok.col)
        self.ops.append(Gate(name, params, qubits))

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


def parse_circuit(source: str) -> Circuit:
    """Parse OpenQASM 2.0 text into a circuit; raises QasmError on anything
    outside the supported subset."""
    return _Parser(source).parse()


# --- emitter -----------------------------------------------------------------

def _fmt_angle(value: float) -> str:
    return format(value, ".17g")


_LABEL_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\[(\d+)\]$")


def _declarations(keyword: str, labels: tuple[str, ...]) -> list[str]:
    """One declaration per register named in ``labels``, in order of first
    appearance, sized to its highest index."""
    sizes: dict[str, int] = {}
    for label in labels:
        m = _LABEL_RE.match(label)
        if m is None:
            raise ValueError(f"cannot derive register declaration from label {label!r}")
        name = m.group(1)
        sizes[name] = max(sizes.get(name, 0), int(m.group(2)) + 1)
    return [f"{keyword} {name}[{size}];" for name, size in sizes.items()]


def emit_circuit(circuit: Circuit) -> str:
    """Canonical text form: header, include, quantum then classical
    declarations, one statement per line with each operand as its label."""
    qubits, clbits = circuit.qubit_labels, circuit.clbit_labels
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";']
    lines += _declarations("qreg", qubits) + _declarations("creg", clbits)
    for op in circuit.ops:
        if isinstance(op, Gate):
            head = op.kind
            if op.params:
                head += "(" + ",".join(_fmt_angle(v) for v in op.params) + ")"
            lines.append(f"{head} {','.join(qubits[q] for q in op.qubits)};")
        elif isinstance(op, Barrier):
            lines.append(f"barrier {','.join(qubits[q] for q in op.qubits)};")
        else:
            lines.append(f"measure {qubits[op.qubit]} -> {clbits[op.clbit]};")
    return "\n".join(lines) + "\n"
