"""Inference-rule engine (paper §II, Table I) — circuit-level implication.

Table I lists the forward/backward rules for ``or`` cells; this engine
generalises them to every combinational cell type:

* **forward**: ternary evaluation of each cell under the currently known
  values (covers rows 1–3 of Table I and their analogues);
* **backward**: per-type implication rules, e.g. ``a|b = 0  =>  a = b = 0``
  and ``a|b = 1, a = 0  =>  b = 1`` (rows 4–6).

Propagation runs a worklist to fixpoint.  Deriving two different values for
one bit means the path condition is unsatisfiable; the engine reports that
as ``contradiction`` (the traversal then knows the branch is never active).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..ir.cells import CellType
from ..ir.module import Cell
from ..ir.signals import SigBit, State
from ..ir.walker import NetIndex
from ..sim.eval import eval_cell_ternary
from .subgraph import SubGraph


class Contradiction(Exception):
    """The known values are mutually inconsistent (dead path)."""


@dataclass
class InferenceResult:
    """Fixpoint of the implication engine."""

    values: Dict[SigBit, bool]
    contradiction: bool = False
    iterations: int = 0

    def value_of(self, bit: SigBit) -> Optional[bool]:
        return self.values.get(bit)


class InferenceEngine:
    """Implication propagation over the cells of one sub-graph."""

    def __init__(self, subgraph: SubGraph, index: NetIndex):
        self.subgraph = subgraph
        self.index = index
        self._canon = get = index.sigmap.get
        # local bit -> cells maps (restricted to the sub-graph)
        self.driver: Dict[SigBit, Cell] = {}
        self.readers: Dict[SigBit, List[Cell]] = {}
        for cell in subgraph.cells:
            bits = cell.output_bits()
            for cbit in map(get, bits, bits):
                self.driver[cbit] = cell
            bits = cell.input_bits()
            for cbit in map(get, bits, bits):
                if not cbit.is_const:
                    self.readers.setdefault(cbit, []).append(cell)
        self.values: Dict[SigBit, bool] = {}
        self._queue: List[Cell] = []
        self._queued: Set[str] = set()

    # -- assignment --------------------------------------------------------------

    def _get(self, bit: SigBit) -> Optional[bool]:
        cbit = self._canon(bit, bit)
        if cbit.is_const:
            if cbit.state is State.S1:
                return True
            if cbit.state is State.S0:
                return False
            return None
        return self.values.get(cbit)

    def _state(self, bit: SigBit) -> State:
        value = self._get(bit)
        if value is None:
            return State.Sx
        return State.S1 if value else State.S0

    def _set(self, bit: SigBit, value: bool) -> None:
        cbit = self._canon(bit, bit)
        if cbit.is_const:
            if cbit.state is State.Sx:
                return
            if (cbit.state is State.S1) != value:
                raise Contradiction(f"constant {cbit!r} forced to {value}")
            return
        existing = self.values.get(cbit)
        if existing is not None:
            if existing != value:
                raise Contradiction(f"{cbit!r} forced to both 0 and 1")
            return
        self.values[cbit] = value
        self._enqueue_neighbours(cbit)

    def _enqueue_neighbours(self, cbit: SigBit) -> None:
        driver = self.driver.get(cbit)
        if driver is not None and driver.name not in self._queued:
            self._queued.add(driver.name)
            self._queue.append(driver)
        for reader in self.readers.get(cbit, ()):  # noqa: B020
            if reader.name not in self._queued:
                self._queued.add(reader.name)
                self._queue.append(reader)

    # -- main loop ------------------------------------------------------------------

    def run(self, initial: Dict[SigBit, bool]) -> InferenceResult:
        iterations = 0
        try:
            for bit, value in initial.items():
                self._set(bit, value)
            # seed: process every cell once
            for cell in self.subgraph.cells:
                if cell.name not in self._queued:
                    self._queued.add(cell.name)
                    self._queue.append(cell)
            while self._queue:
                cell = self._queue.pop()
                self._queued.discard(cell.name)
                iterations += 1
                self._forward(cell)
                self._backward(cell)
        except Contradiction:
            return InferenceResult(dict(self.values), contradiction=True,
                                   iterations=iterations)
        return InferenceResult(dict(self.values), iterations=iterations)

    # -- forward: generic ternary evaluation ----------------------------------------

    def _forward(self, cell: Cell) -> None:
        inputs = {
            pname: [self._state(bit) for bit in cell.connections[pname]]
            for pname in cell.input_ports
        }
        outputs = eval_cell_ternary(cell, inputs)
        for pname, states in outputs.items():
            for bit, state in zip(cell.connections[pname], states):
                if state is not State.Sx:
                    self._set(bit, state is State.S1)

    # -- backward: per-type implication rules ------------------------------------------

    def _backward(self, cell: Cell) -> None:
        t = cell.type
        conn = cell.connections
        if t is CellType.NOT:
            for abit, ybit in zip(conn["A"], conn["Y"]):
                y = self._get(ybit)
                if y is not None:
                    self._set(abit, not y)
        elif t in (CellType.AND, CellType.NAND):
            flip = t is CellType.NAND
            for abit, bbit, ybit in zip(conn["A"], conn["B"], conn["Y"]):
                y = self._get(ybit)
                if y is None:
                    continue
                if flip:
                    y = not y
                a, b = self._get(abit), self._get(bbit)
                if y:
                    self._set(abit, True)
                    self._set(bbit, True)
                else:
                    if a is True:
                        self._set(bbit, False)
                    if b is True:
                        self._set(abit, False)
        elif t in (CellType.OR, CellType.NOR):
            flip = t is CellType.NOR
            for abit, bbit, ybit in zip(conn["A"], conn["B"], conn["Y"]):
                y = self._get(ybit)
                if y is None:
                    continue
                if flip:
                    y = not y
                a, b = self._get(abit), self._get(bbit)
                if not y:
                    # Table I row 4: a|b = false  =>  a = b = false
                    self._set(abit, False)
                    self._set(bbit, False)
                else:
                    # Table I rows 5/6: a|b = true with one side false
                    if a is False:
                        self._set(bbit, True)
                    if b is False:
                        self._set(abit, True)
        elif t in (CellType.XOR, CellType.XNOR):
            flip = t is CellType.XNOR
            for abit, bbit, ybit in zip(conn["A"], conn["B"], conn["Y"]):
                y = self._get(ybit)
                if y is None:
                    continue
                if flip:
                    y = not y
                a, b = self._get(abit), self._get(bbit)
                if a is not None:
                    self._set(bbit, a != y)
                elif b is not None:
                    self._set(abit, b != y)
        elif t is CellType.MUX:
            self._backward_mux(cell)
        elif t in (CellType.EQ, CellType.NE):
            self._backward_eq(cell, negated=t is CellType.NE)
        elif t is CellType.REDUCE_AND:
            self._backward_reduce(conn["A"], conn["Y"][0], all_value=True)
        elif t in (CellType.REDUCE_OR, CellType.REDUCE_BOOL):
            self._backward_reduce(conn["A"], conn["Y"][0], all_value=False)
        elif t is CellType.LOGIC_NOT:
            y = self._get(conn["Y"][0])
            if y is not None:
                self._backward_any_zero(conn["A"], is_zero=y)
        elif t is CellType.REDUCE_XOR:
            y = self._get(conn["Y"][0])
            if y is None:
                return
            unknown = [b for b in conn["A"] if self._get(b) is None]
            if len(unknown) == 1:
                parity = False
                for bit in conn["A"]:
                    value = self._get(bit)
                    if value:
                        parity = not parity
                self._set(unknown[0], parity != y)
        elif t in (CellType.LOGIC_AND, CellType.LOGIC_OR):
            y = self._get(conn["Y"][0])
            if y is None:
                return
            if t is CellType.LOGIC_AND and y:
                self._backward_any_zero(conn["A"], is_zero=False)
                self._backward_any_zero(conn["B"], is_zero=False)
            if t is CellType.LOGIC_OR and not y:
                self._backward_any_zero(conn["A"], is_zero=True)
                self._backward_any_zero(conn["B"], is_zero=True)
        # arithmetic/compare/shift/pmux: forward-only (sound, just weaker)

    def _backward_mux(self, cell: Cell) -> None:
        conn = cell.connections
        s = self._get(conn["S"][0])
        for abit, bbit, ybit in zip(conn["A"], conn["B"], conn["Y"]):
            y = self._get(ybit)
            if y is None:
                continue
            a, b = self._get(abit), self._get(bbit)
            if s is True:
                self._set(bbit, y)
            elif s is False:
                self._set(abit, y)
            else:
                # select unknown: a differing known operand fixes it
                if a is not None and a != y:
                    self._set(conn["S"][0], True)
                    self._set(bbit, y)
                elif b is not None and b != y:
                    self._set(conn["S"][0], False)
                    self._set(abit, y)

    def _backward_eq(self, cell: Cell, negated: bool) -> None:
        conn = cell.connections
        y = self._get(conn["Y"][0])
        if y is None:
            return
        if negated:
            y = not y
        pairs = list(zip(conn["A"], conn["B"]))
        if y:
            # equal: copy known bits across
            for abit, bbit in pairs:
                a, b = self._get(abit), self._get(bbit)
                if a is not None:
                    self._set(bbit, a)
                elif b is not None:
                    self._set(abit, b)
        else:
            # not equal: if every pair but one is pinned equal, that pair differs
            open_pairs: List[Tuple[SigBit, SigBit]] = []
            for abit, bbit in pairs:
                if self._canon(abit, abit) is self._canon(bbit, bbit):
                    continue  # structurally equal
                a, b = self._get(abit), self._get(bbit)
                if a is not None and b is not None:
                    if a != b:
                        return  # already satisfied: no more information
                    continue
                open_pairs.append((abit, bbit))
            if not open_pairs:
                raise Contradiction("eq forced false on equal vectors")
            if len(open_pairs) == 1:
                abit, bbit = open_pairs[0]
                a, b = self._get(abit), self._get(bbit)
                if a is not None:
                    self._set(bbit, not a)
                elif b is not None:
                    self._set(abit, not b)

    def _backward_reduce(self, a_bits, y_bit: SigBit, all_value: bool) -> None:
        """reduce_and (all_value=True) / reduce_or (False) backward rules."""
        y = self._get(y_bit)
        if y is None:
            return
        if y == all_value:
            # and-reduce true / or-reduce false pins every bit
            for bit in a_bits:
                self._set(bit, all_value)
        else:
            unknown = [b for b in a_bits if self._get(b) is None]
            decided = [b for b in a_bits if self._get(b) == (not all_value)]
            if not decided and len(unknown) == 1:
                self._set(unknown[0], not all_value)

    def _backward_any_zero(self, bits, is_zero: bool) -> None:
        """Constrain a vector to be all-zero (is_zero) or nonzero."""
        if is_zero:
            for bit in bits:
                self._set(bit, False)
        else:
            unknown = [b for b in bits if self._get(b) is None]
            ones = [b for b in bits if self._get(b) is True]
            if not ones and len(unknown) == 1:
                self._set(unknown[0], True)


def infer(
    subgraph: SubGraph, index: NetIndex, initial: Dict[SigBit, bool]
) -> InferenceResult:
    """Run the implication engine over a sub-graph from the given facts."""
    return InferenceEngine(subgraph, index).run(initial)
