"""Structural deduplication of identical cells (Yosys ``opt_merge``).

Two cells merge when they have the same type, geometry and canonically
identical input connections; the duplicate's outputs are aliased to the
survivor's.  Merging runs to a fixpoint because collapsing one pair can make
downstream cells identical.

Commutative inputs (and/or/xor/xnor/add/eq/ne and the logic_* pair forms)
are sorted before hashing so ``and(a, b)`` merges with ``and(b, a)``.  The
sort key is *stable across interpreter runs* — (wire name, offset, explicit
constant encoding), never ``id()`` — so merge order, survivor names, event
streams and stats are reproducible run to run.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Dict, Optional, Tuple

from ..ir.cells import CellType
from ..ir.module import Module
from ..ir.signals import SigBit
from .pass_base import DirtySet, Pass, PassResult, register_pass

_COMMUTATIVE = {
    CellType.AND,
    CellType.OR,
    CellType.XOR,
    CellType.XNOR,
    CellType.NAND,
    CellType.NOR,
    CellType.ADD,
    CellType.EQ,
    CellType.NE,
    CellType.LOGIC_AND,
    CellType.LOGIC_OR,
}


def _bit_sort_key(bit: SigBit) -> Tuple[int, str, int, int]:
    """A total order on canonical bits that is identical in every run.

    Wire bits order by (name, offset); constants sort after wire bits and
    order by their explicit state value.  The historic key used
    ``id(bit.wire)`` (different every interpreter run) and the and/or
    precedence accident ``state is not None and state.value or 0`` (which
    collapsed constant 0 onto wire bits), making merge order — and with it
    survivor names and stats — nondeterministic across runs.
    """
    if bit.is_const:
        return (1, "", 0, bit.state.value)
    return (0, bit.wire.name, bit.offset, 0)


def _spec_sort_key(spec) -> Tuple[Tuple[int, str, int, int], ...]:
    return tuple(_bit_sort_key(bit) for bit in spec)


#: test-only fault injection: when this environment variable is set, the
#: structural key of commutative cells is truncated to its first operand,
#: so ``and(a, b)`` wrongly merges with ``and(a, c)`` — a deliberate,
#: deterministic miscompile used by the reducer/fuzz-harness acceptance
#: tests (tests/testing, benchmarks/bench_reduce.py) to prove the CEC
#: lanes catch it and the minimized repro still triggers it.  Never set
#: outside those tests.
BREAK_SORT_KEY_ENV = "SMARTLY_TEST_BREAK_OPT_MERGE"


@register_pass
class OptMerge(Pass):
    """Alias outputs of structurally identical cells and drop duplicates."""

    name = "opt_merge"
    dirty_radius = 1

    def __init__(self, merge_dff: bool = True):
        self.merge_dff = merge_dff
        # persistent incremental state: structural-key table of the module
        # as of the previous invocation, revalidated over the dirty closure
        self._state_module: Optional[Module] = None
        self._key_of: Dict[str, object] = {}
        self._table: Dict[object, str] = {}

    def _cell_key(self, cell, sigmap) -> Optional[Tuple]:
        if cell.type is CellType.DFF and not self.merge_dff:
            return None
        map_spec = sigmap.map_spec
        connections = cell.connections
        specs = [map_spec(connections[p]).bits for p in cell.input_ports]
        if cell.type in _COMMUTATIVE:
            # any total order consistent within this sweep would merge
            # correctly; a run-stable one additionally makes results
            # reproducible (see _bit_sort_key)
            specs.sort(key=_spec_sort_key)
            if os.environ.get(BREAK_SORT_KEY_ENV):
                specs = specs[:1]
        return ((cell.type.value, cell.width, cell.n), tuple(specs))

    def execute(self, module: Module, result: PassResult) -> None:
        changed = True
        while changed:
            changed = False
            sigmap = module.sigmap()
            table: Dict[Tuple, str] = {}
            for cell in list(module.cells.values()):
                key = self._cell_key(cell, sigmap)
                if key is None:
                    continue
                survivor_name = table.get(key)
                if survivor_name is None:
                    table[key] = cell.name
                    continue
                survivor = module.cells[survivor_name]
                for pname in cell.output_ports:
                    module.connect(cell.connections[pname], survivor.connections[pname])
                module.remove_cell(cell)
                result.bump("cells_merged")
                changed = True

    def execute_incremental(
        self, module: Module, result: PassResult, dirty: Optional[DirtySet]
    ) -> None:
        """Worklist dedup over the live index's alias map.

        The structural-key table persists on the pass object between rounds:
        a full seeding sweep builds it once, later rounds re-key only the
        dirty closure (a cell's key can only change when an adjacent net was
        edited) and cascade through the readers of every merged output.
        """
        index = module.net_index()
        sigmap = index.sigmap
        if dirty is None or self._state_module is not module:
            self._state_module = module
            self._key_of = {}
            self._table = {}
            queue = deque(module.cells)
        else:
            queue = deque(sorted(dirty.closure(index, self.dirty_radius)))
        key_of, table = self._key_of, self._table
        while queue:
            name = queue.popleft()
            cell = module.cells.get(name)
            old_key = key_of.get(name)
            new_key = self._cell_key(cell, sigmap) if cell is not None else None
            if new_key != old_key:
                if old_key is not None and table.get(old_key) == name:
                    del table[old_key]
                if new_key is None:
                    key_of.pop(name, None)
                else:
                    key_of[name] = new_key
            if new_key is None:
                continue
            owner = table.get(new_key)
            if owner is None or owner == name:
                table[new_key] = name if owner is None else owner
                continue
            owner_cell = module.cells.get(owner)
            if owner_cell is None:
                table[new_key] = name  # stale entry: claim the key
                continue
            # merge `cell` into `owner_cell`; readers of the duplicate's
            # outputs canonicalise differently afterwards, so revisit them
            affected = set()
            bits = cell.output_bits()
            for cbit in map(sigmap.get, bits, bits):
                for rcell, _port, _off in index.readers.get(cbit, ()):
                    affected.add(rcell.name)
            for pname in cell.output_ports:
                module.connect(cell.connections[pname], owner_cell.connections[pname])
            module.remove_cell(cell)
            key_of.pop(name, None)
            result.bump("cells_merged")
            result.touch_readers(affected)
            for rname in sorted(affected):
                if rname in module.cells:
                    queue.append(rname)
