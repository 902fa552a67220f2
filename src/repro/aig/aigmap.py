"""Bit-blasting RTL netlists into AIGs (the ``aigmap`` equivalent).

Every combinational cell type is decomposed into 2-input AND/inverter
structure with the *same semantics* as the simulator and the Tseitin
encoder (pmux = priority select, unsigned arithmetic, logical shifts).
The per-cell decompositions live in the unified cell-semantics registry
(:mod:`repro.ir.celllib`); :class:`AigMapper` implements the registry's
:class:`~repro.ir.celllib.LoweringEmitter` protocol and only provides the
bit-to-literal bookkeeping around it.

Inputs of the AIG are the module's primary inputs plus sequential state
outputs (dff ``Q``) and undriven wires; outputs are the module's primary
outputs plus next-state inputs (dff ``D``), so all register-to-register
logic is counted — flip-flops themselves contribute no AND nodes, matching
the paper's "exclude flip-flop gates" accounting.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..ir import celllib
from ..ir.module import Cell, Module
from ..ir.signals import SigBit, State
from ..ir.walker import NetIndex, current_index
from .aig import AIG, FALSE_LIT, TRUE_LIT


class AigMapper(celllib.LoweringEmitter):
    """Maps one module into a fresh :class:`AIG`.

    Its inputs are :meth:`sources` in order; :attr:`bit_lit` maps each
    canonical bit to its literal.  The miter builder joins two mapped
    AIGs by input and output names, so one module maps the same way
    whether its AIG is measured or proven.
    """

    def __init__(self, module: Module, index: Optional[NetIndex] = None):
        """Without an ``index`` the mapper walks
        :func:`~repro.ir.walker.current_index`: the module's live index
        when it has a usable one."""
        self.module = module
        self.index = index if index is not None else current_index(module)
        self._canon = self.index.sigmap.get
        self.aig = AIG()
        self.bit_lit: Dict[SigBit, int] = {}
        self._sources: Optional[Dict[SigBit, str]] = None

    # -- public API -------------------------------------------------------------

    def run(self) -> AIG:
        """Map the whole module and register outputs; returns the AIG."""
        for cbit, name in self.sources().items():
            self.bit_lit[cbit] = self.aig.add_input(name)
        for cell in self.index.topo_cells():
            spec = celllib.spec_for(cell.type)
            if spec.lower is not None:
                spec.lower(self, cell)
        lit = self.lit
        add_output = self.aig.add_output
        for wire in self.module.outputs:
            for i, bit in enumerate(wire.bits):
                add_output(lit(bit), f"{wire.name}[{i}]")
        for cell in self.module.cells.values():
            for pname in celllib.spec_for(cell.type).next_state_ports:
                for i, bit in enumerate(cell.connections[pname]):
                    add_output(lit(bit), f"{cell.name}.{pname}[{i}]")
        # instance bindings are boundary observables: parent cones feeding a
        # child count toward the parent's area (matching what those cones
        # would cost after flattening) and are compared by the miter
        for instance in self.module.instances.values():
            for pname in sorted(instance.connections):
                for i, bit in enumerate(instance.connections[pname]):
                    add_output(lit(bit), f"{instance.name}.{pname}[{i}]")
        return self.aig

    # -- LoweringEmitter protocol ------------------------------------------------

    def lit(self, bit: SigBit) -> int:
        cbit = self._canon(bit, bit)
        if cbit.is_const:
            if cbit.state is State.S1:
                return TRUE_LIT
            # x constants are mapped to 0 (a fixed, documented choice)
            return FALSE_LIT
        lit = self.bit_lit.get(cbit)
        if lit is None:
            raise KeyError(f"bit {cbit!r} mapped before its driver")
        return lit

    def port_lits(self, cell: Cell, port: str) -> List[int]:
        return list(map(self.lit, cell.connections[port].bits))

    def set_output(self, cell: Cell, port: str, lits: List[int]) -> None:
        bits = cell.connections[port].bits
        self.bit_lit.update(zip(map(self._canon, bits, bits), lits))

    @property
    def false_lit(self) -> int:
        return FALSE_LIT

    @property
    def true_lit(self) -> int:
        return TRUE_LIT

    # -- sources -----------------------------------------------------------------

    def sources(self) -> Dict[SigBit, str]:
        """``{canonical bit: AIG input name}`` of every source the mapper
        declares, in order: port inputs (``a[3]``), state outputs
        (``q.Q[0]``), undriven instance bindings (``u1.x[0]``), then other
        undriven bits a cell or an output reads, named by canonical bit
        (``<u[0]>``; the offset after the last ``[`` keeps names apart)."""
        if self._sources is not None:
            return self._sources
        canon = self._canon
        comb_driver = self.index.comb_driver
        found: Dict[SigBit, str] = {}

        def declare(bit: SigBit, name: Optional[str] = None) -> None:
            cbit = canon(bit, bit)
            if cbit.is_const or cbit in found:
                return
            if comb_driver(cbit) is None:
                found[cbit] = name or f"<{cbit.wire.name}[{cbit.offset}]>"

        for wire in self.module.wires.values():
            if wire.port_input:
                for i, bit in enumerate(wire.bits):
                    declare(bit, f"{wire.name}[{i}]")
        for cell in self.module.cells.values():
            for pname in celllib.spec_for(cell.type).state_ports:
                for i, bit in enumerate(cell.connections[pname]):
                    declare(bit, f"{cell.name}.{pname}[{i}]")
        # undriven instance binding bits (child-output nets) are sources
        # with deterministic boundary names, shared by the miter builder
        for instance in self.module.instances.values():
            for pname in sorted(instance.connections):
                for i, bit in enumerate(instance.connections[pname]):
                    declare(bit, f"{instance.name}.{pname}[{i}]")
        # any remaining undriven bits read by cells or outputs
        for cell in self.module.cells.values():
            for bit in cell.input_bits():
                declare(bit)
        for wire in self.module.outputs:
            for bit in wire.bits:
                declare(bit)
        self._sources = found
        return found


def aig_map(module: Module, index: Optional[NetIndex] = None) -> AIG:
    """Map a module to an AIG (convenience wrapper around :class:`AigMapper`)."""
    return AigMapper(module, index).run()
