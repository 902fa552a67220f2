"""Constant folding and trivial identity rewrites (Yosys ``opt_expr``).

Three rewrite families, applied until fixpoint by the surrounding flow:

1. **Full constant folding** — a cell whose output is fully determined by
   ternary evaluation of its (partially) constant inputs is replaced by a
   constant connection.  This covers AND-with-0, OR-with-1, eq of equal
   constants, mux with constant select, shifts by constants, etc.
2. **Structural identities** — ``eq(a, a) = 1``, ``xor(a, a) = 0``,
   ``sub(a, a) = 0``, ``mux(a, a, s) = a``, ``add(a, 0) = a`` and friends,
   which need no constant inputs at all.
3. **Mux strength reduction** — 1-bit ``mux(0, 1, s) = s``; muxes whose
   select is constant collapse to the selected branch; pmux branches with
   constant-0 selects are dropped.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

from ..ir.cells import CellType
from ..ir.module import Cell, Module
from ..ir.signals import BIT0, BIT1, SigBit, SigSpec, State, const_bit
from ..sim.eval import eval_cell_ternary
from .pass_base import DirtySet, Pass, PassResult, register_pass


@register_pass
class OptExpr(Pass):
    """Fold constants and trivial identities; replaces cells by connections."""

    name = "opt_expr"
    dirty_radius = 1

    def execute(self, module: Module, result: PassResult) -> None:
        changed = True
        while changed:
            changed = False
            sigmap = module.sigmap()
            for cell in list(module.cells.values()):
                if not cell.is_combinational:
                    continue
                if self._try_cell(module, cell, sigmap, result):
                    changed = True

    def execute_incremental(
        self, module: Module, result: PassResult, dirty: Optional[DirtySet]
    ) -> None:
        """Worklist folding over the shared live index.

        Instead of re-sweeping the whole module until quiet (and rebuilding
        the sigmap per sweep), fold candidates come off a queue: the dirty
        closure seeds it, and every successful fold enqueues the readers of
        the folded output, whose inputs just became (more) constant.  The
        live index's alias map absorbs each new alias immediately, so
        canonicalisation stays exact without any rebuild.
        """
        from ..ir import module as module_mod

        index = module.net_index()
        sigmap = index.sigmap
        if dirty is None:
            queue = deque(module.cells)
        else:
            queue = deque(sorted(dirty.closure(index, self.dirty_radius)))
        queued = set(queue)
        new_cells: List[str] = []

        def watch_added(edit) -> None:
            if edit.kind == module_mod.CELL_ADDED:
                new_cells.append(edit.cell.name)

        module.add_listener(watch_added)
        try:
            while queue:
                name = queue.popleft()
                queued.discard(name)
                cell = module.cells.get(name)
                if cell is None or not cell.is_combinational:
                    continue
                # capture downstream cells before the fold rewires the net
                affected = set()
                bits = cell.output_bits()
                for cbit in map(sigmap.get, bits, bits):
                    for rcell, _port, _off in index.readers.get(cbit, ()):
                        affected.add(rcell.name)
                if self._try_cell(module, cell, sigmap, result):
                    affected.update(new_cells)  # e.g. pmux lowered to a mux
                    new_cells.clear()
                    if name in module.cells:
                        # pmux shrink kept the cell: it may fold further
                        affected.add(name)
                    # the fold aliased this cell's output away: its true
                    # readers must seed the next round even if they do not
                    # fold now (their merge keys / tree classification
                    # changed)
                    result.touch_readers(affected)
                    for rname in sorted(affected):
                        if rname not in queued and rname in module.cells:
                            queued.add(rname)
                            queue.append(rname)
        finally:
            module.remove_listener(watch_added)

    # -- helpers ---------------------------------------------------------------

    def _replace_with(self, module: Module, cell: Cell, spec: SigSpec,
                      result: PassResult, reason: str) -> None:
        module.connect(cell.connections["Y"], spec)
        module.remove_cell(cell)
        result.bump("cells_folded")
        result.bump(reason)

    def _try_cell(self, module: Module, cell: Cell, sigmap, result: PassResult) -> bool:
        conn = cell.connections
        t = cell.type

        # canonicalise inputs so constants propagated by earlier folds are seen
        states: Dict[str, List[State]] = {}
        for pname in cell.input_ports:
            states[pname] = [
                bit.state if bit.is_const else State.Sx
                for bit in sigmap.map_spec(conn[pname]).bits
            ]

        # 1. full constant folding via ternary evaluation
        outputs = eval_cell_ternary(cell, states)
        y_states = outputs["Y"]
        if all(s is not State.Sx for s in y_states):
            self._replace_with(
                module, cell, SigSpec([const_bit(s) for s in y_states]),
                result, "const_folded",
            )
            return True

        a = sigmap.map_spec(conn["A"]) if "A" in conn else None
        b = sigmap.map_spec(conn["B"]) if "B" in conn else None

        # 2. structural identities
        if t in (CellType.XOR, CellType.SUB, CellType.NE) and a == b:
            width = len(cell.connections["Y"])
            self._replace_with(
                module, cell, SigSpec.from_const(0, width), result, "identity"
            )
            return True
        if t in (CellType.EQ, CellType.LE) and a == b:
            self._replace_with(
                module, cell, SigSpec([BIT1]), result, "identity"
            )
            return True
        if t is CellType.LT and a == b:
            self._replace_with(
                module, cell, SigSpec([BIT0]), result, "identity"
            )
            return True
        if t in (CellType.AND, CellType.OR) and a == b:
            self._replace_with(module, cell, a, result, "identity")
            return True
        # neutral-element passthroughs: or/xor with 0, and with all-ones
        if t in (CellType.OR, CellType.XOR):
            if b is not None and b.const_value() == 0:
                self._replace_with(module, cell, a, result, "identity")
                return True
            if a is not None and a.const_value() == 0:
                self._replace_with(module, cell, b, result, "identity")
                return True
        if t is CellType.AND:
            ones = (1 << cell.width) - 1
            if b is not None and b.const_value() == ones:
                self._replace_with(module, cell, a, result, "identity")
                return True
            if a is not None and a.const_value() == ones:
                self._replace_with(module, cell, b, result, "identity")
                return True
        if t is CellType.ADD and b is not None and b.const_value() == 0:
            self._replace_with(module, cell, a, result, "identity")
            return True
        if t is CellType.ADD and a is not None and a.const_value() == 0:
            self._replace_with(module, cell, b, result, "identity")
            return True
        if t is CellType.SUB and b is not None and b.const_value() == 0:
            self._replace_with(module, cell, a, result, "identity")
            return True

        # 3. mux simplifications
        if t is CellType.MUX:
            s_bit = sigmap.map_bit(conn["S"][0])
            if a == b:
                self._replace_with(module, cell, a, result, "mux_same")
                return True
            if s_bit.is_const and s_bit.state.is_defined:
                chosen = b if s_bit.state is State.S1 else a
                self._replace_with(module, cell, chosen, result, "mux_const_sel")
                return True
            if cell.width == 1 and a.is_const and b.is_const:
                a_state, b_state = a[0].state, b[0].state
                if a_state is State.S0 and b_state is State.S1:
                    self._replace_with(
                        module, cell, SigSpec([s_bit]), result, "mux_to_sel"
                    )
                    return True
        if t is CellType.PMUX:
            return self._try_pmux(module, cell, sigmap, result)
        return False

    def _try_pmux(self, module: Module, cell: Cell, sigmap, result: PassResult) -> bool:
        """Drop constant-0 select branches; collapse when selection decided."""
        s_spec = sigmap.map_spec(cell.connections["S"])
        width = cell.width
        keep: List[int] = []
        for i, s_bit in enumerate(s_spec):
            if s_bit.is_const and s_bit.state is not State.S1:
                continue  # never selected (x select treated as 0)
            if s_bit.is_const and s_bit.state is State.S1:
                # priority semantics: branch i wins over all later branches
                keep.append(i)
                data = cell.pmux_branch(i)
                if not keep[:-1]:
                    # no earlier live branch: result is exactly branch i
                    self._replace_with(module, cell, data, result, "pmux_decided")
                    return True
                break
            keep.append(i)
        if len(keep) == cell.n:
            return False
        if not keep:
            self._replace_with(
                module, cell, cell.connections["A"], result, "pmux_default"
            )
            return True
        b = cell.connections["B"]
        new_b = SigSpec()
        new_s_bits: List[SigBit] = []
        for i in keep:
            new_b = new_b.concat(b[i * width:(i + 1) * width])
            new_s_bits.append(cell.connections["S"][i])
        if len(keep) == 1:
            # a single live branch: plain 2-input mux
            mux = module.add_cell(
                CellType.MUX,
                A=cell.connections["A"],
                B=new_b,
                S=SigSpec(new_s_bits),
            )
            module.connect(cell.connections["Y"], mux.connections["Y"])
            module.remove_cell(cell)
            result.bump("pmux_to_mux")
            return True
        cell.n = len(keep)
        cell.set_port("S", SigSpec(new_s_bits))
        cell.set_port("B", new_b)
        result.bump("pmux_branches_dropped")
        return True
