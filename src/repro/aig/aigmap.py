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

from typing import Dict, List, Optional, Tuple

from ..ir import celllib
from ..ir.cells import CellType
from ..ir.module import Cell, Module
from ..ir.signals import BIT0, BIT1, BITX, SigBit
from ..ir.walker import NetIndex, current_index
from .aig import AIG, FALSE_LIT, TRUE_LIT

#: per cell type, keyed by its value string (a ``CellType`` key would hash
#: through the Python-level ``Enum.__hash__`` once per cell): the
#: lowering, the state-output ports and the next-state input ports
_LOWERINGS = {s.ctype._value_: s.lower for s in celllib.all_specs()}
_STATE_PORTS = {s.ctype._value_: s.state_ports for s in celllib.all_specs()}
_NEXT_STATE_PORTS = {s.ctype._value_: s.next_state_ports
                     for s in celllib.all_specs()}
_DFF = CellType.DFF


class AigMapper(celllib.LoweringEmitter):
    """Maps one module into a fresh :class:`AIG`.

    Its inputs are :meth:`sources` in order; :attr:`bit_lit` maps each
    canonical bit to its literal, the three constant bits included
    (``x`` maps to 0, a fixed, documented choice).  The miter builder
    joins two mapped AIGs by input and output names, so one module maps
    the same way whether its AIG is measured or proven.
    """

    def __init__(self, module: Module, index: Optional[NetIndex] = None):
        """Without an ``index`` the mapper walks
        :func:`~repro.ir.walker.current_index`: the module's live index
        when it has a usable one."""
        self.module = module
        self.index = index if index is not None else current_index(module)
        self._canon = self.index.sigmap.get
        self.aig = AIG()
        self.bit_lit: Dict[SigBit, int] = {
            BIT0: FALSE_LIT, BIT1: TRUE_LIT, BITX: FALSE_LIT,
        }
        self._lit_of = self.bit_lit.__getitem__
        self._sources: Optional[Dict[SigBit, str]] = None

    # -- public API -------------------------------------------------------------

    def run(self) -> AIG:
        """Map the whole module and register outputs; returns the AIG."""
        for cbit, name in self.sources().items():
            self.bit_lit[cbit] = self.aig.add_input(name)
        # every combinational cell type has a lowering (check_registry)
        lowerings = _LOWERINGS
        for cell in self.index.topo_cells():
            lowerings[cell.type._value_](self, cell)
        add_outputs = self._add_outputs
        for wire in self.module.outputs:
            add_outputs(wire.name, wire.bits)
        next_state_ports = _NEXT_STATE_PORTS
        for cell in self.module.cells.values():
            for pname in next_state_ports[cell.type._value_]:
                add_outputs(f"{cell.name}.{pname}",
                            cell.connections[pname].bits)
        # instance bindings are boundary observables: parent cones feeding a
        # child count toward the parent's area (matching what those cones
        # would cost after flattening) and are compared by the miter
        for instance in self.module.instances.values():
            for pname in sorted(instance.connections):
                add_outputs(f"{instance.name}.{pname}",
                            instance.connections[pname].bits)
        return self.aig

    def _add_outputs(self, prefix: str, bits: Tuple[SigBit, ...]) -> None:
        """Add ``bits`` as the outputs ``prefix[0]``, ``prefix[1]``, ..."""
        self.aig.outputs.extend(zip(
            [f"{prefix}[{i}]" for i in range(len(bits))], self._lits(bits)
        ))

    # -- LoweringEmitter protocol ------------------------------------------------

    def _lits(self, bits: Tuple[SigBit, ...]) -> List[int]:
        try:
            return list(map(self._lit_of, map(self._canon, bits, bits)))
        except KeyError as exc:
            raise KeyError(f"bit {exc.args[0]!r} mapped before its driver") \
                from None

    def port_lits(self, cell: Cell, port: str) -> List[int]:
        return self._lits(cell.connections[port].bits)

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
        (``<u[0]>``; the offset after the last ``[`` keeps names apart).

        The walk over every cell input runs only when the index reads a
        bit it neither drives nor has declared yet (a bit driven by a dff
        is declared as its state output), or while the index holds a
        driver conflict, which a declaration of that bit raises."""
        if self._sources is not None:
            return self._sources
        canon = self._canon
        index = self.index
        driver = index.driver.get
        conflicts = index.conflicts
        found: Dict[SigBit, str] = {}

        def declare(bit: SigBit, name: Optional[str] = None) -> None:
            cbit = canon(bit, bit)
            if cbit.is_const or cbit in found:
                return
            if conflicts:
                index.driver_cell(cbit)  # raises on a visible conflict
            entry = driver(cbit)
            if entry is None or entry[0].type is _DFF:
                found[cbit] = name or f"<{cbit.wire.name}[{cbit.offset}]>"

        for wire in self.module.wires.values():
            if wire.port_input:
                for i, bit in enumerate(wire.bits):
                    declare(bit, f"{wire.name}[{i}]")
        state_ports = _STATE_PORTS
        for cell in self.module.cells.values():
            for pname in state_ports[cell.type._value_]:
                for i, bit in enumerate(cell.connections[pname]):
                    declare(bit, f"{cell.name}.{pname}[{i}]")
        # undriven instance binding bits (child-output nets) are sources
        # with deterministic boundary names, shared by the miter builder
        for instance in self.module.instances.values():
            for pname in sorted(instance.connections):
                for i, bit in enumerate(instance.connections[pname]):
                    declare(bit, f"{instance.name}.{pname}[{i}]")
        # any remaining undriven bits read by cells or outputs: the walk
        # over every cell input finds one only if the index reads a bit
        # that nothing drives and nothing has declared yet
        unseen = index.readers.keys() - index.driver.keys() - found.keys()
        if unseen or conflicts:
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
