"""Dead-logic removal (the Yosys ``opt_clean`` equivalent).

A combinational cell is *live* when any of its output bits transitively
reaches a module output or a sequential cell input.  Everything else is
deleted, along with internal wires that are no longer referenced.  This is
the pass that actually reaps muxes and eq gates after the muxtree passes
rewire around them (the ``RemoveUnusedCell`` step of the paper's
Algorithm 1).

The incremental engine replaces the whole-module mark-sweep with a
reference-count cascade over the shared live index: a cell whose outputs
have no readers (and reach no output alias) dies, its fanin drivers are
revisited, and everything far from the round's edits is left alone — a
cell can only *become* dead when one of its readers was removed or
rewired, which puts it inside the dirty closure.

DFF cells are always kept: removing state elements would change the
sequential-equivalence signature the CEC relies on.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set

from ..ir.cells import CellType
from ..ir.module import Cell, Module
from ..ir.signals import SigBit
from ..ir.walker import NetIndex
from .pass_base import DirtySet, Pass, PassResult, register_pass


@register_pass
class OptClean(Pass):
    """Remove unreachable cells and unused internal wires."""

    name = "opt_clean"
    dirty_radius = 1

    def __init__(self, remove_wires: bool = True):
        self.remove_wires = remove_wires

    def execute(self, module: Module, result: PassResult) -> None:
        self._mark_sweep(module, result, NetIndex(module))
        if self.remove_wires:
            self._sweep_wires(module, result)

    def execute_incremental(
        self, module: Module, result: PassResult, dirty: Optional[DirtySet]
    ) -> None:
        index = module.net_index()
        if dirty is None:
            self._mark_sweep(module, result, index)
            if self.remove_wires:
                self._sweep_wires(module, result)
            return
        self._reap_dead(module, result, index, dirty)
        # the alias/wire sweep must run whenever this round edited anything,
        # not only when cells died here: a rewire elsewhere in the round can
        # strand a connection whose lhs is no longer read, and skipping the
        # sweep would leave debris the eager engine removes
        if dirty and self.remove_wires:
            self._sweep_wires(module, result)

    # -- full liveness mark-sweep (seeding rounds + eager path) ----------------

    def _mark_sweep(self, module: Module, result: PassResult,
                    index: NetIndex) -> None:
        live_cells: Set[str] = set()
        worklist: List[SigBit] = []

        def mark_bit(bit: SigBit) -> None:
            cell = index.comb_driver(bit)
            if cell is not None and cell.name not in live_cells:
                live_cells.add(cell.name)
                worklist.extend(index.cell_fanin_bits(cell))

        get = index.sigmap.get
        for wire in module.outputs:
            bits = wire.bits
            for cbit in map(get, bits, bits):
                mark_bit(cbit)
        for instance in module.instances.values():
            # instance bindings are observable at the boundary: parent logic
            # feeding a child input must survive even though no local cell
            # or output reads it
            bits = instance.binding_bits()
            for cbit in map(get, bits, bits):
                mark_bit(cbit)
        for cell in module.cells.values():
            if cell.type is CellType.DFF:
                live_cells.add(cell.name)
                worklist.extend(index.cell_fanin_bits(cell))
        while worklist:
            mark_bit(worklist.pop())

        dead = [c for name, c in module.cells.items() if name not in live_cells]
        for cell in dead:
            module.remove_cell(cell)
            result.bump("cells_removed")
            result.bump(f"removed_{cell.type}", 1)

    # -- incremental reference-count cascade -----------------------------------

    def _reap_dead(self, module: Module, result: PassResult, index: NetIndex,
                   dirty: DirtySet) -> int:
        get = index.sigmap.get
        readers = index.readers
        driver = index.driver
        queue = deque(sorted(dirty.dead_candidates(index)))
        queued = set(queue)
        removed = 0
        while queue:
            name = queue.popleft()
            queued.discard(name)
            cell = module.cells.get(name)
            if cell is None or cell.type is CellType.DFF:
                continue
            dead = True
            bits = cell.output_bits()
            for cbit in map(get, bits, bits):
                if readers.get(cbit) or index.is_output_bit(cbit):
                    dead = False
                    break
            if not dead:
                continue
            fanin: Set[str] = set()
            bits = cell.input_bits()
            for cbit in map(get, bits, bits):
                entry = driver.get(cbit)
                if entry is not None and entry[0].is_combinational:
                    fanin.add(entry[0].name)
            module.remove_cell(cell)
            result.bump("cells_removed")
            result.bump(f"removed_{cell.type}", 1)
            removed += 1
            for fname in sorted(fanin):
                if fname not in queued and fname in module.cells:
                    queued.add(fname)
                    queue.append(fname)
        return removed

    # -- wire / alias sweep ----------------------------------------------------

    def _sweep_wires(self, module: Module, result: PassResult) -> None:
        used: Set[int] = set()

        def mark_spec(spec) -> None:
            for bit in spec:
                if bit.wire is not None:
                    used.add(id(bit.wire))

        for cell in module.cells.values():
            for spec in cell.connections.values():
                mark_spec(spec)
        for instance in module.instances.values():
            for spec in instance.connections.values():
                mark_spec(spec)
        # a connection (lhs driven by rhs) is live when its lhs is actually
        # read: an output port, a cell input, or the rhs of another live
        # connection.  Keeping one marks its rhs wires used, so iterate to a
        # fixpoint to preserve whole alias chains.
        kept_connections = []
        pending = []
        for lhs, rhs in module.connections:
            wires = lhs.wires()
            pending.append((
                lhs, rhs, {id(w) for w in wires},
                any(w.port_output for w in wires),
            ))
        while True:
            still_pending = []
            progressed = False
            for entry in pending:
                lhs, rhs, lhs_wires, lhs_is_output = entry
                if lhs_is_output or lhs_wires & used:
                    kept_connections.append((lhs, rhs))
                    mark_spec(lhs)
                    mark_spec(rhs)
                    progressed = True
                else:
                    still_pending.append(entry)
            pending = still_pending
            if not progressed or not pending:
                break
        dropped = len(pending)
        if dropped:
            result.bump("connections_removed", dropped)
        module.replace_connections(kept_connections)

        for wire in list(module.wires.values()):
            if wire.is_port or id(wire) in used:
                continue
            module.remove_wire(wire)
            result.bump("wires_removed")
