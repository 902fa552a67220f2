"""Netlist graph indices and traversal utilities.

:class:`NetIndex` views a module as bit-level driver/reader maps and
provides topological ordering, cone extraction and ancestor/descendant
queries.  All queries operate on *canonical* bits (alias connections are
resolved through the module's :class:`~repro.ir.module.SigMap`).

Two modes:

* ``NetIndex(module)`` — a **snapshot**: structural edits to the module
  invalidate it and a new index must be built (the historic eager
  build–analyze–edit–rebuild cycle, kept as the ``engine="eager"``
  reference path);
* ``module.net_index()`` — a **live** instance subscribed to the module's
  edit-notification channel: every ``set_port``/``connect``/``add_cell``/
  ``remove_cell`` patches the driver/reader maps, the flat alias map and
  the memoized topological order in place, so optimization passes share one
  index across the whole pipeline instead of rebuilding at every entry.

Read-only walks of a whole module (aigmap, the CEC miter) take their
index from :func:`current_index`: the live instance when the module has
one outside a frozen window, else a snapshot.

Live indexes additionally support :meth:`NetIndex.frozen`: inside the
context, incoming edits are buffered and queries keep answering from the
pre-edit snapshot — exactly the stale-by-design semantics the muxtree
passes rely on — and the buffer is replayed on exit.

:meth:`NetIndex.canonical_view` numbers canonical bits with small ints and
memoizes per-cell canonical pins and adjacent cells, and per-bit drivers
and neighbour cells, for hot walks that would otherwise re-expand every
cell on every query (sub-graph extraction walks cell to cell).  It is
built on first use and dropped whenever the index applies an edit;
inside a frozen window it therefore lives as long as the window, and
cells rewired there are re-read through their
:attr:`~repro.ir.module.Cell.version`.

Terminology (matches the paper):

* the **drivers** of a bit are the cell output that produces it;
* *S is an ancestor of T* iff there is a directed path of combinational
  cells from S to T (S is in T's fanin cone);
* **sources** are bits with no combinational driver: module inputs,
  constants, dff outputs and undriven wires.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import chain
from operator import itemgetter
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from . import module as module_mod
from .cells import CellType
from .module import Cell, DriverConflictError, Module, ModuleEdit
from .signals import BIT0, BIT1, BITX, SigBit, SigSpec


#: a driver/reader record: (cell, port name, bit offset in that port)
Entry = Tuple[Cell, str, int]

_first = itemgetter(0)
_DFF = CellType.DFF


class NetIndex:
    """Bit-level view of a module, built once and queried many times."""

    def __init__(self, module: Module, live: bool = False):
        self.module = module
        self.live = live
        self.sigmap = module.sigmap()
        #: canonical bit -> (cell, port name, bit offset in that port)
        self.driver: Dict[SigBit, Entry] = {}
        #: canonical bit -> list of (cell, port name, offset) readers
        self.readers: Dict[SigBit, List[Entry]] = {}
        #: transiently conflicting drivers (edit sequences that alias a
        #: still-driven bit before deleting its cell); queries raise while
        #: a conflict is visible, mirroring the snapshot builder
        self._extra_drivers: Dict[SigBit, List[Entry]] = {}
        #: canonical bits observable at module outputs (alias-closed)
        self._output_bits: Set[SigBit] = set()
        self._topo_cache: Optional[List[Cell]] = None
        self._view: Optional[CanonicalView] = None
        self._frozen = 0
        self._pending: List[ModuleEdit] = []
        #: entry count at the last live-bit sweep; the O(module) sweep
        #: re-runs only after the alias map doubles past it
        self._compact_floor = 128
        #: alias-map compactions so far (see :meth:`maybe_compact`)
        self.compactions = 0
        self._build()
        if live:
            module.add_listener(self._on_edit)

    def _build(self) -> None:
        get = self.sigmap.get
        driver = self.driver
        readers = self.readers
        for cell in self.module.cells.values():
            connections = cell.connections
            for pname in cell.output_ports:
                bits = connections[pname].bits
                for offset, cbit in enumerate(map(get, bits, bits)):
                    if cbit.is_const:
                        raise DriverConflictError(
                            f"cell {cell.name!r} drives constant bit {cbit!r}"
                        )
                    if cbit in driver:
                        other = driver[cbit][0]
                        raise DriverConflictError(
                            f"bit {cbit!r} driven by both {other.name!r} "
                            f"and {cell.name!r}"
                        )
                    driver[cbit] = (cell, pname, offset)
            for pname in cell.input_ports:
                bits = connections[pname].bits
                for offset, cbit in enumerate(map(get, bits, bits)):
                    if cbit.is_const:
                        continue
                    entry = (cell, pname, offset)
                    entries = readers.get(cbit)
                    if entries is None:
                        readers[cbit] = [entry]
                    else:
                        entries.append(entry)
        for wire in self.module.outputs:
            bits = wire.bits
            self._output_bits.update(map(get, bits, bits))
        for instance in self.module.instances.values():
            self._observe_instance(instance)

    def _observe_instance(self, instance) -> None:
        """Mark all instance binding bits observable.

        Directions of the child's ports are unknown at module scope, so
        every bound bit counts as observable: output-side bindings are
        undriven sources (harmless to observe) and input-side bindings must
        keep their parent fanin cones alive under ``opt_clean``.
        """
        bits = instance.binding_bits()
        self._output_bits.update(map(self.sigmap.get, bits, bits))

    # -- live maintenance ----------------------------------------------------

    def _on_edit(self, edit: ModuleEdit) -> None:
        if self._frozen:
            self._pending.append(edit)
        else:
            self._apply(edit)

    @contextmanager
    def frozen(self) -> Iterator["NetIndex"]:
        """Buffer incoming edits; queries answer from the entry snapshot.

        Passes that analyse with a fixed view while editing (the muxtree
        family) wrap their execution in this context: inside, the index is
        exactly what an eager pass-entry rebuild would have produced; the
        buffered edits are replayed on exit.  Nestable.
        """
        self._frozen += 1
        try:
            yield self
        finally:
            self._frozen -= 1
            if not self._frozen and self._pending:
                pending, self._pending = self._pending, []
                for edit in pending:
                    self._apply(edit)

    def _apply(self, edit: ModuleEdit) -> None:
        self._view = None
        kind = edit.kind
        if kind == module_mod.PORT_CHANGED:
            self._topo_cache = None
            is_out = edit.port in edit.cell.output_ports
            if edit.old is not None:
                self._deindex_port(edit.cell, edit.port, edit.old, is_out)
            self._index_port(edit.cell, edit.port, edit.new, is_out)
        elif kind == module_mod.CELL_ADDED:
            self._topo_cache = None
            outs = edit.cell.output_ports
            for pname, spec in edit.ports.items():
                self._index_port(edit.cell, pname, spec, pname in outs)
        elif kind == module_mod.CELL_REMOVED:
            self._topo_cache = None
            outs = edit.cell.output_ports
            for pname, spec in edit.ports.items():
                self._deindex_port(edit.cell, pname, spec, pname in outs)
        elif kind == module_mod.CONNECTED:
            self._topo_cache = None
            for lbit, rbit in zip(edit.lhs, edit.rhs):
                self._merge(lbit, rbit)
        elif kind == module_mod.WIRE_ADDED:
            wire = edit.wire
            if wire.port_output:
                bits = wire.bits
                self._output_bits.update(map(self.sigmap.get, bits, bits))
        elif kind == module_mod.INSTANCE_ADDED:
            self._observe_instance(edit.instance)
        # INSTANCE_REMOVED keeps its binding bits observable: a bit may be
        # bound by several instances or be a real output, and stale
        # observability is conservative (a fresh index drops it).
        # CONNECTIONS_REPLACED / WIRE_REMOVED need no patching: opt_clean
        # only drops aliases whose lhs class is unreachable from any cell
        # port, kept connection or module output, so the canonical mapping
        # of every queriable bit is unchanged (stale alias-map entries for
        # dead bits are harmless; :meth:`maybe_compact` reclaims them).

    # -- alias-map generation compaction -------------------------------------

    def _live_bits(self) -> Set[SigBit]:
        """Every bit the module can still canonically mention: alias
        connection bits, cell port bits, instance binding bits, and
        port-wire bits."""
        live: Set[SigBit] = set()
        for lhs, rhs in self.module.connections:
            live.update(lhs)
            live.update(rhs)
        for cell in self.module.cells.values():
            for spec in cell.connections.values():
                live.update(spec)
        for instance in self.module.instances.values():
            for spec in instance.connections.values():
                live.update(spec)
        for wire in self.module.wires.values():
            if wire.is_port:
                live.update(wire.bits)
        return live

    def maybe_compact(self) -> None:
        """Compact the alias map when dead entries dominate.

        Removal-heavy sessions (opt_clean reaping thousands of bypassed
        muxes over many runs) leave the alias map full of entries for
        bits no live netlist object mentions.  When the entry count grows
        past twice the module's live-bit population, the structure is
        rewritten over exactly the live bits — representatives preserved,
        so every driver/reader/output key stays valid (see
        :meth:`~repro.ir.module.SigMap.compact`).  The O(module) live-bit
        sweep runs only once the entry count has doubled since the
        previous sweep (``_compact_floor``), so modules whose alias map is
        mostly live never pay repeated fruitless sweeps.

        :meth:`repro.opt.pass_base.PassManager.run` calls this once, when
        a pipeline run ends: no round carry of raw bits is held then, and
        no frozen window is open.  A frozen window's buffered deindexes
        still need the dropped entries, so inside one this does nothing.
        Other holders of raw bits (Session pending-edit windows) compare
        :attr:`compactions`, which each compaction bumps, before they
        resolve them.
        """
        size = len(self.sigmap)
        if self._frozen or size < 256 or size < 2 * self._compact_floor:
            return
        live = self._live_bits()
        if size <= 2 * len(live):
            self._compact_floor = size
            return
        self.sigmap.compact(live)
        self._compact_floor = max(128, len(self.sigmap))
        self._view = None
        self.compactions += 1

    def _index_port(self, cell: Cell, pname: str, spec: SigSpec,
                    is_out: bool) -> None:
        bits = spec.bits
        canon = map(self.sigmap.get, bits, bits)
        if is_out:
            driver = self.driver
            for offset, cbit in enumerate(canon):
                entry = (cell, pname, offset)
                if cbit.is_const or cbit in driver:
                    # transient conflict: tolerated until the losing cell is
                    # removed; queries raise if observed in the meantime
                    self._extra_drivers.setdefault(cbit, []).append(entry)
                else:
                    driver[cbit] = entry
        else:
            readers = self.readers
            for offset, cbit in enumerate(canon):
                if cbit.is_const:
                    continue
                entry = (cell, pname, offset)
                entries = readers.get(cbit)
                if entries is None:
                    readers[cbit] = [entry]
                else:
                    entries.append(entry)

    def _deindex_port(self, cell: Cell, pname: str, spec: SigSpec,
                      is_out: bool) -> None:
        bits = spec.bits
        for offset, cbit in enumerate(map(self.sigmap.get, bits, bits)):
            if is_out:
                cur = self.driver.get(cbit)
                if cur is not None and cur[0] is cell and cur[1] == pname \
                        and cur[2] == offset:
                    extras = self._extra_drivers.get(cbit)
                    if extras:
                        self.driver[cbit] = extras.pop(0)
                        if not extras:
                            del self._extra_drivers[cbit]
                    else:
                        del self.driver[cbit]
                    continue
                extras = self._extra_drivers.get(cbit)
                if extras:
                    for i, entry in enumerate(extras):
                        if entry[0] is cell and entry[1] == pname \
                                and entry[2] == offset:
                            extras.pop(i)
                            break
                    if not extras:
                        del self._extra_drivers[cbit]
            else:
                if cbit.is_const:
                    continue
                entries = self.readers.get(cbit)
                if entries:
                    for i, entry in enumerate(entries):
                        if entry[0] is cell and entry[1] == pname \
                                and entry[2] == offset:
                            entries.pop(i)
                            break
                    if not entries:
                        del self.readers[cbit]

    def _merge(self, lbit: SigBit, rbit: SigBit) -> None:
        """Union two alias classes and re-key their map entries."""
        get = self.sigmap.get
        ra = get(lbit, lbit)
        rb = get(rbit, rbit)
        if ra is rb:
            return
        self.sigmap.add(ra, rb)
        root = get(ra, ra)
        loser = rb if root is ra else ra
        if root.is_const:
            # constants carry no reader lists (matches the snapshot builder);
            # a surviving driver entry becomes a visible conflict
            self.readers.pop(loser, None)
        else:
            moved = self.readers.pop(loser, None)
            if moved:
                self.readers.setdefault(root, []).extend(moved)
        entry = self.driver.pop(loser, None)
        if entry is not None:
            if root.is_const or root in self.driver:
                self._extra_drivers.setdefault(root, []).append(entry)
            else:
                self.driver[root] = entry
        extras = self._extra_drivers.pop(loser, None)
        if extras:
            self._extra_drivers.setdefault(root, []).extend(extras)
        if loser in self._output_bits:
            self._output_bits.discard(loser)
            self._output_bits.add(root)

    def check_consistent(self) -> None:
        """Raise when a driver conflict is currently visible."""
        if self._extra_drivers:
            cbit, entries = next(iter(self._extra_drivers.items()))
            raise DriverConflictError(
                f"bit {cbit!r} has {len(entries) + 1} drivers "
                f"(e.g. {entries[0][0].name!r})"
            )

    @property
    def conflicts(self) -> Dict[SigBit, List[Entry]]:
        """Canonical bits with more than one driver, each with its extra
        driver entries: empty unless a conflict is visible (do not
        mutate)."""
        return self._extra_drivers

    def _conflict(self, cbit: SigBit,
                  entry: Optional[Entry]) -> DriverConflictError:
        other = self._extra_drivers[cbit][0][0]
        first = entry[0].name if entry else "a constant"
        return DriverConflictError(
            f"bit {cbit!r} driven by both {first!r} and {other.name!r}"
        )

    # -- basic queries -------------------------------------------------------

    def canonical(self, bit: SigBit) -> SigBit:
        return self.sigmap.get(bit, bit)

    def driver_cell(self, bit: SigBit) -> Optional[Cell]:
        """The combinational-or-dff cell driving ``bit``, or None."""
        cbit = self.sigmap.get(bit, bit)
        entry = self.driver.get(cbit)
        if self._extra_drivers and cbit in self._extra_drivers:
            raise self._conflict(cbit, entry)
        return entry[0] if entry else None

    def comb_driver(self, bit: SigBit) -> Optional[Cell]:
        """The driving cell, but treating dff outputs as sources."""
        cbit = self.sigmap.get(bit, bit)
        entry = self.driver.get(cbit)
        if self._extra_drivers and cbit in self._extra_drivers:
            raise self._conflict(cbit, entry)
        if entry is None or entry[0].type is _DFF:
            return None
        return entry[0]

    def is_source(self, bit: SigBit) -> bool:
        """True for constants, module inputs, dff outputs and undriven bits."""
        cbit = self.sigmap.get(bit, bit)
        if cbit.is_const:
            return True
        return self.comb_driver(cbit) is None

    def is_output_bit(self, bit: SigBit) -> bool:
        """True when any alias of ``bit`` is a module output bit."""
        return self.sigmap.get(bit, bit) in self._output_bits

    @property
    def output_bits(self) -> Set[SigBit]:
        """Canonical bits observable at module outputs (do not mutate)."""
        return self._output_bits

    def fanout_count(self, bit: SigBit) -> int:
        cbit = self.sigmap.get(bit, bit)
        count = len(self.readers.get(cbit, ()))
        if cbit.wire is not None and cbit.wire.port_output:
            count += 1
        return count

    def cell_fanin_bits(self, cell: Cell) -> List[SigBit]:
        bits = cell.input_bits()
        return list(map(self.sigmap.get, bits, bits))

    def cell_fanout_bits(self, cell: Cell) -> List[SigBit]:
        bits = cell.output_bits()
        return list(map(self.sigmap.get, bits, bits))

    def canonical_view(self) -> "CanonicalView":
        """The int-id view of this index, built on first use.

        The view is dropped whenever the index applies an edit, so one
        view serves every query of a frozen window (or the whole life of
        a snapshot index).
        """
        if self._view is None:
            self._view = CanonicalView(self)
        return self._view

    # -- traversal -----------------------------------------------------------

    def topo_cells(self) -> List[Cell]:
        """Combinational cells in topological order (fanin before fanout).

        DFF cells are excluded; their outputs count as sources.  Raises
        :class:`CombLoopError` on combinational cycles.  The order is
        memoized; structural edits invalidate the memo (live mode patches
        it automatically, snapshot mode relies on the rebuild discipline).
        """
        if self._topo_cache is None:
            self._topo_cache = self._compute_topo()
        return list(self._topo_cache)

    def _compute_topo(self) -> List[Cell]:
        # one pass per cell over its input bits collects the drivers it
        # depends on, in port order without repeats (a repeat would find
        # its driver done); a bit with conflicting drivers stands in for
        # its driver, so the walk raises where a driver query would
        get = self.sigmap.get
        driver = self.driver.get
        conflicts = self._extra_drivers
        # 0 = visiting, 1 = done (a dff's outputs are sources), 2 = a bit
        # with conflicting drivers
        state: Dict[object, int] = dict.fromkeys(conflicts, 2)
        deps: Dict[Cell, List[object]] = {}
        for cell in self.module.cells.values():
            if cell.type is _DFF:
                state[cell] = 1
                continue
            bits = cell.input_bits()
            cbits = list(map(get, bits, bits))
            if conflicts and not conflicts.keys().isdisjoint(cbits):
                drivers = [cbit if cbit in conflicts else entry[0]
                           for cbit, entry in zip(cbits, map(driver, cbits))
                           if entry is not None or cbit in conflicts]
            else:
                drivers = map(_first, filter(None, map(driver, cbits)))
            deps[cell] = list(dict.fromkeys(drivers))

        order: List[Cell] = []
        for root in deps:
            if root in state:
                continue
            state[root] = 0
            stack: List[Tuple[Cell, Iterator[object]]] = [
                (root, iter(deps[root]))
            ]
            while stack:
                cell, it = stack[-1]
                for dep in it:
                    dep_state = state.get(dep)
                    if dep_state == 1:
                        continue
                    if dep_state is None:
                        state[dep] = 0
                        stack.append((dep, iter(deps[dep])))
                        break
                    if dep_state == 0:
                        raise CombLoopError(
                            f"combinational loop through {dep.name!r}"
                        )
                    self.driver_cell(dep)  # raises: conflicting drivers
                else:
                    stack.pop()
                    state[cell] = 1
                    order.append(cell)
        return order

    def fanin_cone(
        self, bits: Iterable[SigBit], max_depth: Optional[int] = None
    ) -> Set[SigBit]:
        """All canonical bits reachable backwards from ``bits`` (inclusive).

        ``max_depth`` bounds the number of *cell* levels crossed; ``None``
        means unbounded.  DFF cells are not crossed.
        """
        get = self.sigmap.get
        start = [get(b, b) for b in bits]
        seen: Set[SigBit] = set(start)
        frontier = start
        depth = 0
        while frontier and (max_depth is None or depth < max_depth):
            next_frontier: List[SigBit] = []
            for bit in frontier:
                cell = self.comb_driver(bit)
                if cell is None:
                    continue
                for fbit in self.cell_fanin_bits(cell):
                    if fbit not in seen:
                        seen.add(fbit)
                        next_frontier.append(fbit)
            frontier = next_frontier
            depth += 1
        return seen

    def fanout_cone(
        self, bits: Iterable[SigBit], max_depth: Optional[int] = None
    ) -> Set[SigBit]:
        """All canonical bits reachable forwards from ``bits`` (inclusive)."""
        get = self.sigmap.get
        start = [get(b, b) for b in bits]
        seen: Set[SigBit] = set(start)
        frontier = start
        depth = 0
        while frontier and (max_depth is None or depth < max_depth):
            next_frontier: List[SigBit] = []
            for bit in frontier:
                for cell, _port, _off in self.readers.get(bit, ()):
                    if not cell.is_combinational:
                        continue
                    for obit in self.cell_fanout_bits(cell):
                        if obit not in seen:
                            seen.add(obit)
                            next_frontier.append(obit)
            frontier = next_frontier
            depth += 1
        return seen

    def support(self, bits: Iterable[SigBit]) -> FrozenSet[SigBit]:
        """The source bits (inputs/consts/dff-Q) in the fanin cone of ``bits``."""
        return frozenset(b for b in self.fanin_cone(bits) if self.is_source(b))

    def is_ancestor(self, s: SigBit, t: SigBit) -> bool:
        """True iff ``s`` lies in the combinational fanin cone of ``t``."""
        return self.sigmap.get(s, s) in self.fanin_cone([t])


class CombLoopError(Exception):
    """The module contains a combinational cycle."""


def current_index(module: Module) -> NetIndex:
    """The index a read-only walk of the whole module should use.

    That is the module's live index when it has one and the index is not
    inside :meth:`NetIndex.frozen` (where it still answers from the
    window's entry state), else a fresh snapshot.  aigmap and the CEC
    miter take their index from here, so a job whose flow keeps a live
    index builds no second one.  A live index with a visible driver
    conflict raises :class:`DriverConflictError`, as a snapshot build
    would.
    """
    index = module._net_index
    if index is None or index._frozen:
        return NetIndex(module)
    index.check_consistent()
    return index


#: ids below this number are the constant bits 0, 1 and x
CONST_IDS = 3

#: a cell's view entry: (Cell.version read, input ids, non-constant pin ids)
_CellIds = Tuple[int, Tuple[int, ...], Tuple[int, ...]]


class CanonicalView:
    """Small-int ids for the canonical bits of a :class:`NetIndex`.

    Ids are handed out on first sight; :attr:`bits` maps them back.  Per
    cell the view memoizes the ids of its input bits and of its
    non-constant input-then-output bits, each in port order without
    repeats, keyed on the cell object and re-read when its
    :attr:`~repro.ir.module.Cell.version` moved (a rewire inside a frozen
    window changes a cell's live connections but not the index maps).
    Per bit it memoizes the combinational driver and the neighbour cells
    (driver first, then combinational readers in ``index.readers``
    order); per cell, the cells adjacent to it (:meth:`adjacent`), keyed
    and re-read by version like its pins.  Sub-graph extraction walks the
    distance-k ball cell to cell over that adjacency, so a window's
    queries share the bit expansion instead of redoing it per query.  A
    driver lookup that raises :class:`DriverConflictError` is not
    memoized (nor is an adjacency that needed it), so it raises again on
    every query.

    Obtain it through :meth:`NetIndex.canonical_view`, which owns its
    invalidation.
    """

    __slots__ = ("index", "bits", "_canon", "_ids", "_cells", "_drivers",
                 "_neighbours", "_adjacent")

    def __init__(self, index: NetIndex):
        self.index = index
        self._canon = index.sigmap.get
        #: id -> canonical bit
        self.bits: List[SigBit] = [BIT0, BIT1, BITX]
        self._ids: Dict[SigBit, int] = {BIT0: 0, BIT1: 1, BITX: 2}
        self._cells: Dict[Cell, _CellIds] = {}
        self._drivers: Dict[int, Optional[Cell]] = {}
        self._neighbours: Dict[int, Tuple[Cell, ...]] = {}
        self._adjacent: Dict[Cell, Tuple[int, Tuple[Cell, ...]]] = {}

    def bit_id(self, bit: SigBit) -> int:
        """The id of ``bit``'s canonical representative."""
        cbit = self._canon(bit, bit)
        bid = self._ids.get(cbit)
        if bid is None:
            bid = self._ids[cbit] = len(self.bits)
            self.bits.append(cbit)
        return bid

    def _cell_entry(self, cell: Cell) -> _CellIds:
        entry = self._cells.get(cell)
        if entry is None or entry[0] != cell.version:
            bit_id = self.bit_id
            inputs = tuple(dict.fromkeys(map(bit_id, cell.input_bits())))
            outputs = map(bit_id, cell.output_bits())
            pins = tuple(
                b for b in dict.fromkeys((*inputs, *outputs)) if b >= CONST_IDS
            )
            entry = self._cells[cell] = (cell.version, inputs, pins)
        return entry

    def inputs(self, cell: Cell) -> Tuple[int, ...]:
        """Ids of ``cell``'s input bits, constants included: the driver
        of a constant is looked up too, and raises while a cell output is
        aliased onto it."""
        return self._cell_entry(cell)[1]

    def pins(self, cell: Cell) -> Tuple[int, ...]:
        """Ids of ``cell``'s non-constant input, then output, bits."""
        return self._cell_entry(cell)[2]

    def driver(self, bid: int) -> Optional[Cell]:
        """:meth:`NetIndex.comb_driver` of bit ``bid``."""
        try:
            return self._drivers[bid]
        except KeyError:
            pass
        cell = self.index.comb_driver(self.bits[bid])
        self._drivers[bid] = cell
        return cell

    def neighbours(self, bid: int) -> Tuple[Cell, ...]:
        """The combinational cells one hop from bit ``bid``."""
        try:
            return self._neighbours[bid]
        except KeyError:
            pass
        driver = self.driver(bid)
        cells = [driver] if driver is not None else []
        cells.extend(
            reader
            for reader, _port, _off in self.index.readers.get(self.bits[bid], ())
            if reader.is_combinational
        )
        self._neighbours[bid] = result = tuple(cells)
        return result

    def adjacent(self, cell: Cell) -> Tuple[Cell, ...]:
        """The combinational cells one hop from any of ``cell``'s
        :meth:`pins` (``cell`` itself included), without repeats, in
        first-seen order."""
        version = cell.version
        entry = self._adjacent.get(cell)
        if entry is None or entry[0] != version:
            cells = chain.from_iterable(map(self.neighbours, self.pins(cell)))
            entry = self._adjacent[cell] = (version, tuple(dict.fromkeys(cells)))
        return entry[1]
