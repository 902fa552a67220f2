"""Module-level combinational simulation.

:class:`Simulator` snapshots a module (via :class:`~repro.ir.walker.NetIndex`)
and evaluates it in topological order.  Three entry points:

* :meth:`Simulator.run` — integers in, integers out (the convenient API);
* :meth:`Simulator.run_states` — ternary 0/1/x simulation from a partial
  assignment (unassigned sources default to ``x``);
* :meth:`Simulator.run_masks` — bit-parallel simulation of ``nvec`` vectors
  at once, the workhorse for random and exhaustive simulation.

Sequential cells: dff ``Q`` outputs are treated as additional sources; their
values can be supplied through the same input dictionaries (keyed by the
``Q`` wire names), which is how the tests drive state-holding circuits.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..ir.cells import CellType
from ..ir.module import Cell, Module
from ..ir.signals import SigBit, SigSpec, State
from ..ir.walker import NetIndex
from .eval import eval_cell_masks, eval_cell_ternary


class Simulator:
    """Reusable combinational simulator for one module snapshot."""

    def __init__(self, module: Module, index: Optional[NetIndex] = None):
        self.module = module
        self.index = index if index is not None else NetIndex(module)
        self._topo = self.index.topo_cells()

    # -- source enumeration ----------------------------------------------------

    def source_bits(self) -> List[SigBit]:
        """All non-constant source bits: inputs, dff outputs, undriven wires."""
        seen = set()
        sources: List[SigBit] = []
        get = self.index.sigmap.get

        def visit(bit: SigBit) -> None:
            cbit = get(bit, bit)
            if cbit.is_const or cbit in seen:
                return
            if self.index.comb_driver(cbit) is None:
                seen.add(cbit)
                sources.append(cbit)

        for wire in self.module.wires.values():
            if wire.port_input:
                for bit in wire.bits:
                    visit(bit)
        for cell in self.module.cells.values():
            if cell.type is CellType.DFF:
                for bit in cell.connections["Q"]:
                    visit(bit)
            for bit in cell.input_bits():
                visit(bit)
        for wire in self.module.wires.values():
            if wire.port_output:
                for bit in wire.bits:
                    visit(bit)
        return sources

    # -- ternary simulation ------------------------------------------------------

    def run_states(
        self, assignment: Mapping[SigBit, State]
    ) -> Dict[SigBit, State]:
        """Ternary-simulate from a (possibly partial) source assignment.

        Keys of ``assignment`` are canonicalised; missing sources are ``x``.
        The returned map holds a state for every canonical bit encountered.
        """
        get = self.index.sigmap.get
        values: Dict[SigBit, State] = {}
        for bit, state in assignment.items():
            values[get(bit, bit)] = state

        def bit_value(bit: SigBit) -> State:
            cbit = get(bit, bit)
            if cbit.is_const:
                return cbit.state
            return values.get(cbit, State.Sx)

        for cell in self._topo:
            inputs = {
                p: [bit_value(b) for b in cell.connections[p]]
                for p in cell.input_ports
            }
            outputs = eval_cell_ternary(cell, inputs)
            for pname, states in outputs.items():
                for bit, state in zip(cell.connections[pname], states):
                    values[get(bit, bit)] = state
        return values

    def spec_states(
        self, spec: SigSpec, values: Mapping[SigBit, State]
    ) -> List[State]:
        """Read a SigSpec out of a ``run_states`` result."""
        get = self.index.sigmap.get
        result = []
        for bit in spec:
            cbit = get(bit, bit)
            if cbit.is_const:
                result.append(cbit.state)
            else:
                result.append(values.get(cbit, State.Sx))
        return result

    # -- integer convenience API ----------------------------------------------------

    def run(self, inputs: Mapping[str, int]) -> Dict[str, int]:
        """Simulate with integer port values; returns integer output values.

        Unassigned inputs (and dff state) default to 0.  Raises if an output
        is x, which cannot happen when all sources are defined.
        """
        assignment: Dict[SigBit, State] = {}
        for name, value in inputs.items():
            wire = self.module.wires[name]
            for i, bit in enumerate(wire.bits):
                assignment[bit] = State.from_bool((value >> i) & 1 == 1)
        for bit in self.source_bits():
            assignment.setdefault(bit, State.S0)
        values = self.run_states(assignment)
        result: Dict[str, int] = {}
        for wire in self.module.outputs:
            states = self.spec_states(SigSpec.from_wire(wire), values)
            value = 0
            for i, state in enumerate(states):
                if state is State.Sx:
                    raise ValueError(
                        f"output {wire.name}[{i}] is x under a full assignment"
                    )
                if state is State.S1:
                    value |= 1 << i
            result[wire.name] = value
        return result

    # -- bit-parallel mask simulation --------------------------------------------------

    def run_masks(
        self, source_masks: Mapping[SigBit, int], nvec: int
    ) -> Dict[SigBit, int]:
        """Simulate ``nvec`` vectors in parallel.

        ``source_masks`` assigns each source bit an integer whose bit *v* is
        the source's value in vector *v*.  Missing sources are 0 in every
        vector.  Returns a mask for every canonical bit.
        """
        mask = (1 << nvec) - 1
        get = self.index.sigmap.get
        values: Dict[SigBit, int] = {}
        for bit, m in source_masks.items():
            values[get(bit, bit)] = m & mask

        def bit_value(bit: SigBit) -> int:
            cbit = get(bit, bit)
            if cbit.is_const:
                if cbit.state is State.S1:
                    return mask
                return 0  # x sources simulate as 0
            return values.get(cbit, 0)

        for cell in self._topo:
            inputs = {
                p: [bit_value(b) for b in cell.connections[p]]
                for p in cell.input_ports
            }
            outputs = eval_cell_masks(cell, inputs, mask)
            for pname, masks in outputs.items():
                for bit, m in zip(cell.connections[pname], masks):
                    values[get(bit, bit)] = m
        return values

    def random_masks(
        self, nvec: int = 64, seed: int = 0
    ) -> Tuple[Dict[SigBit, int], Dict[SigBit, int]]:
        """Random-vector simulation: returns (source_masks, all_values)."""
        rng = random.Random(seed)
        mask = (1 << nvec) - 1
        source_masks = {bit: rng.getrandbits(nvec) & mask for bit in self.source_bits()}
        return source_masks, self.run_masks(source_masks, nvec)


def exhaustive_patterns(bits: Sequence[SigBit]) -> Tuple[Dict[SigBit, int], int]:
    """Canonical exhaustive input patterns for a small set of source bits.

    Bit *i* receives the mask whose vector-v value is bit i of v, so the
    ``2**len(bits)`` parallel vectors enumerate every input combination.
    Returns ``(masks, nvec)``.
    """
    n = len(bits)
    nvec = 1 << n
    masks: Dict[SigBit, int] = {}
    for i, bit in enumerate(bits):
        period = 1 << i
        # pattern: period zeros, period ones, repeated
        block = ((1 << period) - 1) << period
        pattern = 0
        for start in range(0, nvec, 2 * period):
            pattern |= block << start
        masks[bit] = pattern & ((1 << nvec) - 1)
    return masks, nvec
