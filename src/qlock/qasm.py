"""OpenQASM 2.0 front end: parse a fixed gate alphabet, emit it back.

The subset covers register declarations, the closed gate alphabet of the
circuit IR, barriers, measurements, comments, and ``include "qelib1.inc";``
(accepted and discarded). Angle expressions allow numeric literals, ``pi``,
unary minus, parentheses (at most ``MAX_ANGLE_NESTING`` deep), and the binary
operators ``+ - * /``.

Everything else (gate definitions, ``if``, ``reset``, opaque declarations,
unknown mnemonics) is rejected with a line/column diagnostic: parsing is
total on the subset and never drops statements silently.

Source text becomes ``(kind, text, offset)`` tuples in one ``finditer``
pass of one regex. Whitespace, newlines and ``//`` comments are skipped;
digits are ASCII only; the first character no token can start with is
refused before any parsing. A token carries only its offset: an error turns
it into a 1-based line and column, counting every character, ``\\r`` and
``\\t`` too, as one column.

A gate or barrier statement in the layout ``emit_circuit`` writes (name,
optional ``(params)`` of plain numeric literals each with an optional ``-``,
one space, ``name[int]`` operands joined by ``,``, then ``;``) is matched
whole as one ``statement`` token, which the parser turns straight into a
``Gate`` or ``Barrier`` after the checks the token path makes. Where a check
fails, or the token stands where no statement starts (after a ``measure``
missing its ``;``, say), it is split into the tokens the other alternatives
give for its text, and the token grammar parses it or raises its usual error
at its usual position. So there is one grammar: the statement path accepts
only what the token path accepts, with bit-identical parameters. Headers,
declarations, ``measure``, ``pi`` expressions and any other spacing take the
token path.

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
import sys

from .circuit import GATE_SPECS, Barrier, Circuit, Gate, Measure, Op


# bits of one kind a program may declare (one label each); simulation stops at 26 qubits
MAX_REGISTER_BITS = 2**20
# parentheses an angle expression may nest: each level takes three parser frames,
# so this stays well under Python's default recursion limit of 1000
MAX_ANGLE_NESTING = 100


class QasmError(Exception):
    """Parse or validation failure, carrying source position when known."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)
        self.line = line
        self.col = col


# --- tokenizer ---------------------------------------------------------------

# one alternative per token kind; ``bad`` catches the first character no
# token can start with
_PLAIN = r"""
    (?P<skip>(?:[ \t\r\n]+|//[^\n]*)+)
  | (?P<real>([0-9]+\.[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?|[0-9]+[eE][-+]?[0-9]+)
  | (?P<int>[0-9]+)
  | (?P<arrow>->)
  | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"[^"\n]*")
  | (?P<sym>==|[()\[\],;+\-*/{}<>=!])
  | (?P<bad>.)
"""

# a whole gate or barrier statement in the layout ``emit_circuit`` writes:
# name, optional ``(params)`` of signed numeric literals, one space,
# ``name[int]`` operands joined by ``,``, then ``;``
_NUMBER = r"-?(?:(?:[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?|[0-9]+(?:[eE][-+]?[0-9]+)?)"
_OPERAND = r"[A-Za-z_][A-Za-z0-9_]*\[[0-9]+\]"
_STATEMENT = rf"""
    (?P<statement>(?:{"|".join([*GATE_SPECS, "barrier"])})
        (?:\({_NUMBER}(?:,{_NUMBER})*\))?[ ]{_OPERAND}(?:,{_OPERAND})*;)
"""

_PLAIN_RE = re.compile(_PLAIN, re.VERBOSE)
_TOKEN_RE = re.compile(_STATEMENT + "|" + _PLAIN, re.VERBOSE)


_Token = tuple[str, str, int]  # (kind, text, offset into the source)


def _where(source: str, offset: int) -> tuple[int, int]:
    """1-based line and column of ``offset``; ``\\r`` and ``\\t`` are one column each."""
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


def _scan(pattern: re.Pattern, source: str, pos: int, endpos: int) -> list[_Token]:
    """``(kind, text, offset)`` tokens of ``source[pos:endpos]``."""
    tokens: list[_Token] = []
    append = tokens.append
    for m in pattern.finditer(source, pos, endpos):
        kind = m.lastgroup
        if kind == "bad":
            raise QasmError(f"unexpected character {m.group()!r}", *_where(source, m.start()))
        if kind != "skip":
            append((kind, m.group(), m.start()))
    return tokens


def _tokenize(source: str) -> list[_Token]:
    """Tokens ending in ``eof``, where each canonical gate or barrier
    statement is one ``statement`` token."""
    tokens = _scan(_TOKEN_RE, source, 0, len(source))
    tokens.append(("eof", "", len(source)))
    return tokens


def _split(source: str, tok: _Token) -> list[_Token]:
    """The tokens the other alternatives give for a ``statement`` token."""
    return _scan(_PLAIN_RE, source, tok[2], tok[2] + len(tok[1]))


# --- parser ------------------------------------------------------------------

_UNSUPPORTED = {
    "gate": "gate definitions",
    "if": "classical conditionals",
    "opaque": "opaque declarations",
    "reset": "reset statements",
}


class _Parser:
    # only ``sym`` tokens have the texts ``[ ] ( ) , ; + - * /``: the text identifies them
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0
        # name -> (kind, size, global index of the register's first bit)
        self.registers: dict[str, tuple[str, int, int]] = {}
        self.labels: dict[str, list[str]] = {"quantum": [], "classical": []}
        self.ops: list[Op] = []
        # this process's limit on ``int()`` of a digit string (0: none; absent before 3.10.7)
        self.max_digits = getattr(sys, "get_int_max_str_digits", int)()
        self.operand_lists: dict[str, tuple[int, ...]] = {}
        self.nesting = 0  # open parentheses of the angle expression being parsed

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self.next()
        if tok[0] != kind or (text is not None and tok[1] != text):
            want = text if text is not None else kind
            raise self.error(f"expected {want!r}, found {tok[1]!r}", tok)
        return tok

    def expect_int(self) -> tuple[_Token, int]:
        """The next token, which must be an ``int``, and its value; judged by
        length first against ``max_digits``, so a huge literal is neither
        converted nor printed."""
        tok = self.expect("int")
        limit = self.max_digits
        if limit and len(tok[1]) > limit:
            raise self.error(f"integer literal longer than {limit} digits", tok)
        return tok, int(tok[1])

    def error(self, message: str, tok: _Token | None = None) -> QasmError:
        """``message`` at the position of ``tok`` (default: the next token)."""
        offset = (tok or self.peek())[2]
        return QasmError(message, *_where(self.source, offset))

    def parse(self) -> Circuit:
        tokens = self.tokens
        if self.peek()[:2] == ("id", "OPENQASM"):
            self._split_statement()
            self.next()
            tok = self.next()
            if tok[0] not in ("real", "int"):
                raise self.error("expected version number after OPENQASM", tok)
            if tok[1] != "2.0":
                raise self.error(f"unsupported OPENQASM version {tok[1]!r}", tok)
            self.expect("sym", ";")
        while True:
            tok = tokens[self.pos]
            if tok[0] == "statement":
                op = self._statement(tok[1])
                if op is not None:
                    self.ops.append(op)
                    self.pos += 1
                    continue
            elif tok[0] == "eof":
                break
            # the token path, on the statement token split if its checks failed
            self._split_statement()
            kind, name, _ = self.peek()
            if kind != "id":
                raise self.error(f"expected statement, found {name!r}")
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

    def _split_statement(self) -> None:
        """Hand the statement at ``pos`` to the token path: split a
        ``statement`` token there, or one inside it (before its first ``;``),
        where no statement can start and the token grammar must judge it."""
        tokens = self.tokens
        i = self.pos
        while True:
            kind, text, _ = tok = tokens[i]
            if kind == "statement":
                tokens[i : i + 1] = _split(self.source, tok)
                return
            if text == ";" or kind == "eof":
                return
            i += 1

    def _statement(self, text: str) -> Op | None:
        """The gate or barrier a ``statement`` token spells, or None where a
        check of the token path would fail: an undeclared or classical
        register, an index too long or out of range, a parameter or operand
        count that does not fit the gate, repeated gate operands, a
        non-finite parameter."""
        head, _, operands = text.partition(" ")
        name, _, params = head.partition("(")
        qubits = self.operand_lists.get(operands)
        if qubits is None:
            qubits = self._operand_list(operands)
            if qubits is None:
                return None
        if name == "barrier":
            return None if params else Barrier(qubits)
        nq, np_ = GATE_SPECS[name]
        # ``float("-x")`` is ``-float("x")``, bit for bit, as the token path computes it
        values = tuple(map(float, params[:-1].split(","))) if params else ()
        if len(values) != np_ or len(qubits) != nq or len(set(qubits)) != nq:
            return None
        if not all(map(math.isfinite, values)):
            return None
        return Gate(name, values, qubits)

    def _operand_list(self, text: str) -> tuple[int, ...] | None:
        """Global qubits of a ``statement`` token's ``name[int],...;`` tail,
        or None. Kept by text: registers are never redeclared, so the same
        text names the same qubits for the rest of the parse."""
        registers, limit = self.registers, self.max_digits
        qubits = []
        for operand in text[:-1].split(","):
            register, _, index = operand.partition("[")
            digits = index[:-1]
            reg = registers.get(register)
            if reg is None or reg[0] != "quantum" or (limit and len(digits) > limit):
                return None
            idx = int(digits)
            if idx >= reg[1]:
                return None
            qubits.append(reg[2] + idx)
        self.operand_lists[text] = result = tuple(qubits)
        return result

    def _parse_include(self) -> None:
        tok = self.next()
        target = self.expect("string")
        if target[1] != '"qelib1.inc"':
            raise self.error(f"unsupported include {target[1]}", tok)
        self.expect("sym", ";")

    def _parse_reg_decl(self) -> None:
        """Registers flatten into global indices in declaration order, per kind."""
        kw = self.next()
        kind = "quantum" if kw[1] == "qreg" else "classical"
        name_tok = self.expect("id")
        name = name_tok[1]
        if name in self.registers:
            raise self.error(f"register {name!r} redeclared", name_tok)
        self.expect("sym", "[")
        size_tok, size = self.expect_int()
        if size < 1:
            raise self.error("register size must be positive", size_tok)
        labels = self.labels[kind]
        if len(labels) + size > MAX_REGISTER_BITS:
            raise self.error(f"more than {MAX_REGISTER_BITS} {kind} bits declared", size_tok)
        self.expect("sym", "]")
        self.expect("sym", ";")
        self.registers[name] = (kind, size, len(labels))
        labels.extend(f"{name}[{i}]" for i in range(size))

    def _parse_operand(self, want: str) -> tuple[range, bool]:
        """Global indices named by an indexed (``q[i]``) or bare (``q``)
        register reference of the wanted kind, and whether it was bare."""
        name_tok = self.expect("id")
        name = name_tok[1]
        if name not in self.registers:
            raise self.error(f"undeclared register {name!r}", name_tok)
        kind, size, offset = self.registers[name]
        if kind != want:
            raise self.error(f"register {name!r} is {kind}, expected {want}", name_tok)
        if self.peek()[1] == "[":
            self.next()
            idx_tok, idx = self.expect_int()
            if idx >= size:
                raise self.error(f"index {idx} out of range for {name!r}[{size}]", idx_tok)
            self.expect("sym", "]")
            return range(offset + idx, offset + idx + 1), False
        return range(offset, offset + size), True

    def _parse_barrier(self) -> None:
        self.next()
        qubits: list[int] = []
        while True:
            qubits.extend(self._parse_operand("quantum")[0])
            tok = self.next()
            if tok[1] == ";":
                break
            if tok[1] != ",":
                raise self.error(f"expected ',' or ';', found {tok[1]!r}", tok)
        self.ops.append(Barrier(tuple(qubits)))

    def _parse_measure(self) -> None:
        kw = self.next()
        qubits, _ = self._parse_operand("quantum")
        self.expect("arrow")
        clbits, _ = self._parse_operand("classical")
        self.expect("sym", ";")
        if len(qubits) != len(clbits):
            raise self.error("measure operand sizes differ", kw)
        self.ops.extend(Measure(q, c) for q, c in zip(qubits, clbits))

    def _parse_gate(self) -> None:
        name_tok = self.next()
        name = name_tok[1]
        if name not in GATE_SPECS:
            raise self.error(f"unsupported gate {name!r}", name_tok)
        nq, np_ = GATE_SPECS[name]
        params: tuple[float, ...] = ()
        if self.peek()[1] == "(":
            self.next()
            values = [self._parse_param()]
            while self.peek()[1] == ",":
                self.next()
                values.append(self._parse_param())
            self.expect("sym", ")")
            params = tuple(values)
        if len(params) != np_:
            raise self.error(f"{name} expects {np_} parameter(s), got {len(params)}", name_tok)
        operands = [self._parse_operand("quantum")]
        while self.peek()[1] == ",":
            self.next()
            operands.append(self._parse_operand("quantum"))
        self.expect("sym", ";")
        if len(operands) != nq:
            raise self.error(f"{name} expects {nq} operand(s), got {len(operands)}", name_tok)
        # broadcast follows the syntax, not the size: ``cx a, b`` is refused
        # even when both registers hold one qubit
        if any(bare for _, bare in operands):
            if nq != 1:
                raise self.error(
                    f"whole-register broadcast not supported for {nq}-qubit gate {name!r}", name_tok
                )
            self.ops.extend(Gate(name, params, (q,)) for q in operands[0][0])
            return
        qubits = tuple(bits[0] for bits, _ in operands)
        if len(set(qubits)) != len(qubits):
            raise self.error(f"{name} operands must be distinct", name_tok)
        self.ops.append(Gate(name, params, qubits))

    def _parse_param(self) -> float:
        tok = self.peek()
        value = self._parse_expr()
        if not math.isfinite(value):
            raise self.error(f"gate parameter is not finite ({value})", tok)
        return value

    # angle expressions: expr := term (('+'|'-') term)*
    #                    term := factor (('*'|'/') factor)*
    #                    factor := '-'* (number | pi | '(' expr ')')
    def _parse_expr(self) -> float:
        value = self._parse_term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            rhs = self._parse_term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def _parse_term(self) -> float:
        value = self._parse_factor()
        while self.peek()[1] in ("*", "/"):
            op = self.next()
            rhs = self._parse_factor()
            if op[1] == "/":
                if rhs == 0.0:
                    raise self.error("division by zero in angle expression", op)
                value = value / rhs
            else:
                value = value * rhs
        return value

    def _parse_factor(self) -> float:
        tok = self.next()
        negations = 0  # a run of unary minuses is read in a loop; negation is exact
        while tok[1] == "-":
            negations += 1
            tok = self.next()
        kind, text, _ = tok
        if kind in ("real", "int"):
            value = float(text)
        elif text == "pi":
            value = math.pi
        elif text == "(":
            if self.nesting == MAX_ANGLE_NESTING:
                raise self.error(
                    f"angle expression nested deeper than {MAX_ANGLE_NESTING} parentheses", tok
                )
            self.nesting += 1
            value = self._parse_expr()
            self.nesting -= 1
            self.expect("sym", ")")
        else:
            raise self.error(f"expected angle expression, found {text!r}", tok)
        return -value if negations % 2 else value


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
