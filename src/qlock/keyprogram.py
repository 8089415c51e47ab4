"""Noiseless programs of every candidate key of one key template.

A wrong-key sweep scores many candidate keys of one lock. Each candidate's
restored circuit differs from the template's (``unlocking.KeyTemplate``)
only at its key slots, so ``compile_key_program`` compiles the template once
and ``KeyProgram.program(bits)`` gives each candidate's fused program
without building or fusing its circuit:

- the template's circuit, in which every slot holds a gate, is fused once
  by the simulator's pass (``simulator._fuse``), each slot standing in its
  gate's place. A slot's other options are no gate (an identity) or another
  gate on its qubits, so these blocks hold every candidate's circuit, and
  every candidate's program has the template's blocks, one matrix each;
- ``_fuse`` composes the blocks without slots as ``compile_program`` does,
  and hands back the others. In those, each run of fixed gates between
  slots is composed once, and each gate that stands alone there, an option
  or a run of one gate, is embedded once per (matrix, wires in the block);
- a candidate's block is then the product of its runs and the options its
  bits pick: one gather of those factors and a few stacked matmuls per
  width of such blocks (``_chain``), so the Python work per candidate grows
  with the blocks that hold slots, not with gates or slots.

A candidate's program holds the same gates as ``compile_program`` of its
restored circuit, multiplied in another grouping, so the two agree to the
last bits only (``tests/test_key_template.py`` bounds each block product by
1e-12 from ``unitary_of`` of that circuit). Noisy runs are not fused, so a
noisy sweep still runs each candidate's restored circuit.
"""

from __future__ import annotations

from itertools import groupby
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .circuit import Gate
from .simulator import _COMPOSE_WINDOW, Program, _Block, _compose, _embed, _fuse, _refuse_too_wide, gate_matrix

if TYPE_CHECKING:
    from .unlocking import KeyTemplate


def _chain(factors: np.ndarray) -> np.ndarray:
    """The product of each row of ``factors``, ``(rows, F, d, d)`` in the order the
    factors apply, as ``(rows, d, d)``: neighbours are multiplied pairwise, one
    stacked matmul per level, an odd row end carried to the next level."""
    while factors.shape[1] > 1:
        even = factors.shape[1] // 2 * 2
        paired = np.matmul(factors[:, 1:even:2], factors[:, 0:even:2])
        factors = np.concatenate((paired, factors[:, even:]), axis=1) if even < factors.shape[1] else paired
    return factors[:, 0]


class _KeyedBlocks(NamedTuple):
    """Blocks of one width ``m`` that hold key slots, in a ``KeyProgram``.

    Row ``b`` of ``factors`` lists block ``b``'s factors in the order they
    apply, as rows of ``table``: row 0 is the identity (an absent option, and
    the padding of shorter rows), the others each run of fixed gates between
    slots, composed once, and each gate that stands alone, embedded once per
    (matrix, wires). ``slots`` are the flat places in ``factors`` that the
    slots fill: slot ``s`` reads the candidate's bits at ``bits[s]`` as a
    number ``v`` and puts row ``picks[s, v]`` of ``table`` there.
    """

    places: list[int]  # each block's place in the program
    orders: list[tuple[int, ...]]  # each block's qubits, the highest first
    table: np.ndarray  # (rows, 2**m, 2**m), shared by every _KeyedBlocks of width m
    factors: np.ndarray  # (blocks, F) rows of ``table``
    slots: np.ndarray  # (slots,) flat places in ``factors``
    bits: np.ndarray  # (slots, span) places in the candidate's bits, right-aligned, padded with a zero bit
    picks: np.ndarray  # (slots, 2**span) a row of ``table`` per option value


class KeyProgram(NamedTuple):
    """The noiseless programs of every candidate key of a ``KeyTemplate``
    (``compile_key_program``): ``program(bits)`` is the fused program of
    ``template.restored(bits)``, block for block the template's."""

    fixed: Program  # the template's program; the places of blocks with slots hold None
    keyed: list[_KeyedBlocks]  # the blocks with slots, at most ``_COMPOSE_WINDOW`` factors each
    key_bits: int
    weights: np.ndarray  # each bit's weight in a slot's option value

    def program(self, bits: str) -> Program:
        """The fused program of candidate ``bits``: each block with slots is the
        product of its fixed runs and the options ``bits`` picks, one gather
        and a few stacked matmuls for each ``_KeyedBlocks``."""
        if len(bits) != self.key_bits or set(bits) - {"0", "1"}:
            raise ValueError(f"candidate must be {self.key_bits} bits of 0/1, got {bits!r}")
        digits = np.frombuffer(bits.encode() + b"0", dtype=np.uint8) - ord("0")
        program = list(self.fixed)
        for group in self.keyed:
            factors = group.factors.copy()
            picked = digits[group.bits] @ self.weights  # each slot's option value
            factors.flat[group.slots] = group.picks[np.arange(len(picked)), picked]
            for place, order, matrix in zip(group.places, group.orders, _chain(group.table[factors])):
                program[place] = (matrix, order)
        return program


def compile_key_program(template: KeyTemplate) -> KeyProgram:
    """``template``'s ``KeyProgram``, built once for any number of candidates."""
    circuit = template.circuit
    _refuse_too_wide(circuit.num_qubits)
    slot_at = {slot.index: slot for slot in template.slots}  # place in ``circuit.ops`` -> slot
    span = max((slot.span for slot in template.slots), default=1)
    fixed = _fuse(
        (slot_at[i] if i in slot_at else gate_matrix(op), op.qubits)
        for i, op in enumerate(circuit.ops) if isinstance(op, Gate)
    )
    keyed: dict[int, list[tuple[int, _Block]]] = {}  # width -> each block with slots, and its place
    for place, block in enumerate(fixed):
        if isinstance(block, _Block):
            keyed.setdefault(len(block.qubits), []).append((place, block))
            fixed[place] = None
    groups = [group for m, entries in keyed.items() for group in _keyed_blocks(m, entries, span, template.key_bits)]
    return KeyProgram(fixed, groups, template.key_bits, 2 ** np.arange(span - 1, -1, -1))


def _keyed_blocks(m: int, entries: list[tuple[int, _Block]], span: int, key_bits: int) -> list[_KeyedBlocks]:
    """``entries``, the blocks of width ``m`` with slots, each with its place, as
    ``_KeyedBlocks`` over one table. They are taken longest first, as many at a
    time as ``_COMPOSE_WINDOW`` factor matrices hold, so a candidate's gather
    never holds more."""
    sources: list = []  # each row of the table after the identity: a run's _Block, or one gate to embed
    rows: dict[tuple, int] = {}  # (matrix bytes, wires) -> its row of the table
    options: dict[tuple, int] = {}  # an option's (kind, params, wires) -> its row of the table

    def embed(gate: tuple[np.ndarray, tuple[int, ...]], local: dict[int, int]) -> int:
        key = (gate[0].tobytes(), tuple(map(local.__getitem__, gate[1])))
        if key not in rows:
            sources.append((gate, local))
            rows[key] = len(sources)
        return rows[key]

    def option(gate: Gate, local: dict[int, int]) -> int:
        key = (gate.kind, gate.params, tuple(map(local.__getitem__, gate.qubits)))
        if key not in options:
            options[key] = embed((gate_matrix(gate), gate.qubits), local)
        return options[key]

    blocks = []  # each block's place, qubits, row of the table per factor, and slots
    for place, block in entries:
        order = tuple(sorted(block.qubits, reverse=True))
        local = {q: m - 1 - w for w, q in enumerate(order)}
        row, slots = [], []  # each slot: its column in ``row``, its bits and its options' rows
        for fixed, run in groupby(block.gates, lambda gate: isinstance(gate[0], np.ndarray)):
            run = list(run)  # fixed gates, or slots standing in their gates' places
            if fixed and len(run) > 1:
                sources.append(_Block(block.qubits, run))
                row.append(len(sources))
            elif fixed:
                row.append(embed(run[0], local))
            else:
                for slot, _ in run:
                    bits = [key_bits] * (span - slot.span) + list(range(slot.offset, slot.offset + slot.span))
                    picks = slot.options + (None,) * (2**span - len(slot.options))
                    slots.append((len(row), bits, [0 if gate is None else option(gate, local) for gate in picks]))
                    row.append(0)
        blocks.append((place, order, row, slots))
    table = np.empty((1 + len(sources), 2**m, 2**m), dtype=complex)
    table[0] = np.eye(2**m)
    runs = [i for i, source in enumerate(sources) if isinstance(source, _Block)]
    if runs:
        table[1 + np.array(runs)] = [matrix for matrix, _ in _compose([sources[i] for i in runs])]
    alone = [i for i, source in enumerate(sources) if not isinstance(source, _Block)]
    if alone:
        table[1 + np.array(alone)] = _embed([sources[i] for i in alone], m)
    blocks.sort(key=lambda block: -len(block[2]))
    out, first = [], 0
    while first < len(blocks):
        width = len(blocks[first][2])
        chunk = blocks[first : first + max(1, _COMPOSE_WINDOW // width)]
        first += len(chunk)
        factors = np.zeros((len(chunk), width), dtype=np.intp)
        slots = []
        for b, (_, _, row, block_slots) in enumerate(chunk):
            factors[b, : len(row)] = row
            slots += [(b * width + column, bits, picks) for column, bits, picks in block_slots]
        out.append(_KeyedBlocks(
            [block[0] for block in chunk],
            [block[1] for block in chunk],
            table,
            factors,
            np.array([slot[0] for slot in slots], dtype=np.intp),
            np.array([slot[1] for slot in slots], dtype=np.intp),
            np.array([slot[2] for slot in slots], dtype=np.intp),
        ))
    return out
