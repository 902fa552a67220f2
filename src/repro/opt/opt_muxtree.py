"""Reimplementation of the Yosys ``opt_muxtree`` pass — the paper's baseline.

The pass walks *muxtrees*: maximal trees of ``mux``/``pmux`` cells linked
through data ports (a child's ``Y`` is exactly a parent's ``A``/``B`` data
operand and feeds nothing else).  While descending it records the control
values implied by the path taken:

* ``mux``: the A branch implies ``S = 0``, the B branch ``S = 1``;
* ``pmux`` (priority select): branch *i* implies ``S[i] = 1`` and
  ``S[j] = 0`` for all j < i; the default branch implies ``S = 0``.

With that knowledge it performs exactly the two optimizations the paper
credits to Yosys:

1. **Never-active branch removal** (Figure 1): a descendant mux whose
   control value is already decided on the path is bypassed — the parent's
   data port is rewired to the only reachable operand.  Dead branches of
   pmux cells (select known 0) are dropped.
2. **Data-port constant substitution** (Figure 2): a data-port *bit* that
   is one of the decided control bits is replaced by its decided constant
   value.

Everything deeper — control signals that are merely *logically dependent*
(Figure 3) — is invisible to this pass; that is smaRTLy's job
(:mod:`repro.core.redundancy`).

Bypassed muxes are left dangling and reaped by ``opt_clean``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..ir import module as module_mod
from ..ir.cells import CellType, input_ports
from ..ir.module import Cell, Module, ModuleEdit
from ..ir.signals import BIT0, BIT1, SigBit, SigSpec, State
from ..ir.walker import NetIndex
from .pass_base import DirtySet, Pass, PassResult, register_pass

#: parent edge: (parent cell, port name, pmux branch index or None)
Edge = Tuple[Cell, str, Optional[int]]


class LazyEdgeMap(dict):
    """``child name -> parent Edge`` computed per child on first access.

    The eager engine precomputes the whole map with
    :func:`find_internal_edges` — an O(module) sweep at every pass entry.
    The incremental engine only ever asks about the handful of trees near
    an edit, so edges resolve lazily against the (frozen) live index and
    cache in place; ``None`` entries mean "no internal edge" and traversal
    updates (edge hand-downs, bypass detachments) simply overwrite them.
    Only :meth:`get` is lazy — use it for all reads.
    """

    _MISSING = object()

    def __init__(self, compute):
        super().__init__()
        self._compute = compute

    def get(self, name, default=None):
        value = dict.get(self, name, self._MISSING)
        if value is self._MISSING:
            value = self._compute(name)
            dict.__setitem__(self, name, value)
        return default if value is None else value

    def __contains__(self, name):
        # `name in map` on the eager (plain-dict) edge map means "has an
        # internal edge", but on the lazy map it would only mean "cached" —
        # a silent wrong answer; force callers through get()
        raise TypeError("LazyEdgeMap membership is lazy; use .get(name)")


def mux_of_spec(
    index: NetIndex,
    sigmap,
    spec: SigSpec,
    y_of: Optional[Dict[Tuple[SigBit, ...], str]] = None,
) -> Optional[str]:
    """Name of the mux whose whole canonical Y equals ``spec``, or None.

    With ``y_of`` (the eager precomputed map) this is a dict lookup; in
    dirty rounds it resolves through the index's driver map instead, so no
    whole-module map_spec sweep is needed to answer the same question.
    """
    bits = tuple(sigmap.map_spec(spec))
    if y_of is not None:
        return y_of.get(bits)
    if not bits or bits[0].is_const:
        return None
    entry = index.driver.get(bits[0])
    if entry is None:
        return None
    cell = entry[0]
    if not cell.is_mux:
        return None
    if tuple(sigmap.map_spec(cell.connections["Y"])) != bits:
        return None
    return cell.name


def compute_internal_edge(
    module: Module, index: NetIndex, child_name: str
) -> Optional[Edge]:
    """Per-child equivalent of :func:`find_internal_edges` (same rules)."""
    child = module.cells.get(child_name)
    if child is None or not child.is_mux:
        return None
    sigmap = index.sigmap
    y_bits = tuple(sigmap.map_spec(child.connections["Y"]))
    reader_edges: Set[Tuple[str, str]] = set()
    for bit in y_bits:
        if index.is_output_bit(bit):
            return None
        for cell, pname, _off in index.readers.get(bit, ()):
            if not cell.is_mux or pname not in ("A", "B"):
                return None
            reader_edges.add((cell.name, pname))
    if len(reader_edges) != 1:
        return None
    parent_name, pname = next(iter(reader_edges))
    if parent_name == child_name or parent_name not in module.cells:
        return None
    parent = module.cells[parent_name]
    return _match_edge(sigmap, parent, pname, y_bits)


def dirty_tree_roots(
    index: NetIndex,
    module: Module,
    parent_edge: Dict[str, Edge],
    closure: Iterable[str],
) -> Set[str]:
    """Roots of every muxtree that a dirty-closure cell can influence.

    Path facts flow from a tree's root downwards, so any change inside (or
    within query radius of) a tree forces a re-traversal from its root; the
    closure's non-mux cells pull in the muxes reading them (their select
    patterns may have changed).
    """

    def root_of(name: str) -> str:
        seen = set()
        while name not in seen:
            seen.add(name)
            edge = parent_edge.get(name)
            if edge is None:
                break
            name = edge[0].name
        return name

    roots: Set[str] = set()
    for name in closure:
        cell = module.cells.get(name)
        if cell is None:
            continue
        if cell.is_mux:
            roots.add(root_of(name))
            continue
        for bit in cell.output_bits():
            for reader, _port, _off in index.readers.get(
                index.sigmap.map_bit(bit), ()
            ):
                if reader.is_mux:
                    roots.add(root_of(reader.name))
    return roots


def find_internal_edges(module: Module, index: NetIndex) -> Dict[str, Edge]:
    """Map each fanout-1 *internal* mux to its unique parent data edge.

    A mux is internal when its whole Y spec is exactly one data operand
    (``A``, ``B``, or one pmux branch slice) of exactly one other mux and
    feeds nothing else — the linking rule that defines a muxtree.  Used by
    both ``opt_muxtree``-style traversals and the restructuring pass.
    """
    sigmap = index.sigmap
    muxes = {c.name: c for c in module.cells.values() if c.is_mux}
    external: Set[SigBit] = set()
    for wire in module.outputs:
        external.update(map(sigmap.map_bit, wire.bits))
    for cell in module.cells.values():
        for pname in input_ports(cell.type):
            if cell.is_mux and pname in ("A", "B"):
                continue
            for bit in cell.connections[pname]:
                external.add(sigmap.map_bit(bit))

    edges: Dict[str, Edge] = {}
    for child in muxes.values():
        y_bits = tuple(sigmap.map_spec(child.connections["Y"]))
        if any(bit in external for bit in y_bits):
            continue
        reader_edges: Set[Tuple[str, str]] = set()
        foreign = False
        for bit in y_bits:
            for cell, pname, _off in index.readers.get(bit, ()):  # noqa: B020
                if not cell.is_mux or pname not in ("A", "B"):
                    foreign = True
                    break
                reader_edges.add((cell.name, pname))
            if foreign:
                break
        if foreign or len(reader_edges) != 1:
            continue
        parent_name, pname = next(iter(reader_edges))
        if parent_name == child.name or parent_name not in module.cells:
            continue
        parent = module.cells[parent_name]
        edge = _match_edge(sigmap, parent, pname, y_bits)
        if edge is not None:
            edges[child.name] = edge
    return edges


class MuxEdgeCache:
    """Persistent :func:`find_internal_edges` map for one module.

    The seeding round of every muxtree pass used to recompute the whole
    internal-edge map — an O(module) sweep per pass entry, even when almost
    nothing changed since the map was last built.  This cache keeps the map
    alive across pass entries, rounds and runs, invalidated through the
    module's edit-notification channel:

    * edits are **buffered raw** (O(1) per edit, no listener-ordering
      hazards with the live index);
    * at the next :meth:`edges` request — when a consistent index is in
      hand — the buffer is replayed into a *dirty child set*: the edited
      cells themselves, every cached child whose edge targets an edited
      cell, and the mux drivers of every bit mentioned in an edit's specs
      (those muxes' Y readership, output-visibility or parent-operand
      match may have changed);
    * only the dirty children are recomputed (:func:`compute_internal_edge`);
      a buffered burst larger than the module falls back to a full sweep.

    Obtain the per-module instance with :func:`module_edge_cache`; it
    subscribes once and lives on the module like the shared live index.
    The returned map is always a private copy — traversals mutate their
    edge map while walking (edge hand-downs), and those mutations reach the
    cache through the module edits they accompany, not through aliasing.
    """

    def __init__(self, module: Module):
        self.module = module
        self._map: Dict[str, Edge] = {}
        #: parent cell name -> cached children whose edge targets it
        self._children_of: Dict[str, Set[str]] = {}
        self._primed = False
        self._pending: List[ModuleEdit] = []
        self.full_sweeps = 0
        self.replays = 0
        self.recomputed = 0
        module.add_listener(self._on_edit)

    #: edit kinds that cannot change any internal edge: the dead-alias
    #: sweep leaves the canonical mapping of live bits unchanged, fresh
    #: wires are undriven, and only unreferenced wires are ever removed
    _INERT_KINDS = frozenset((
        module_mod.CONNECTIONS_REPLACED,
        module_mod.WIRE_ADDED,
        module_mod.WIRE_REMOVED,
    ))

    def _on_edit(self, edit: ModuleEdit) -> None:
        if not self._primed or edit.kind in self._INERT_KINDS:
            return
        self._pending.append(edit)
        if len(self._pending) > max(64, 2 * len(self.module.cells)):
            # a burst larger than the module: cheaper to resweep next time
            self.invalidate()

    def invalidate(self) -> None:
        """Forget everything; the next :meth:`edges` does a full sweep.

        Called for oversized edit bursts, and by the live index when it
        compacts its alias union-find — the buffered raw edits here are
        canonicalised only at replay time, so entries the compaction
        dropped could otherwise leave replay unable to find the affected
        mux drivers.
        """
        self._primed = False
        self._pending.clear()
        self._map.clear()
        self._children_of.clear()

    def edges(self, index: NetIndex) -> Dict[str, Edge]:
        """The current internal-edge map (a private copy).

        ``index`` must be consistent with the module (a pass-entry live
        index, possibly inside a fresh frozen window).
        """
        if not self._primed:
            self._map = find_internal_edges(self.module, index)
            self._children_of = {}
            for child, edge in self._map.items():
                self._children_of.setdefault(edge[0].name, set()).add(child)
            self._primed = True
            self._pending.clear()
            self.full_sweeps += 1
        elif self._pending:
            pending, self._pending = self._pending, []
            dirty = self._dirty_children(pending, index)
            for name in dirty:
                old = self._map.pop(name, None)
                if old is not None:
                    self._children_of.get(old[0].name, set()).discard(name)
            for name in sorted(dirty):
                edge = compute_internal_edge(self.module, index, name)
                if edge is not None:
                    self._map[name] = edge
                    self._children_of.setdefault(edge[0].name, set()).add(name)
            self.replays += 1
            self.recomputed += len(dirty)
        return dict(self._map)

    def _dirty_children(
        self, pending: List[ModuleEdit], index: NetIndex
    ) -> Set[str]:
        sigmap = index.sigmap
        dirty: Set[str] = set()

        def from_spec(spec) -> None:
            # the mux driving a mentioned bit may have gained/lost a reader,
            # output-visibility, or the exact-operand match with its parent
            for bit in spec:
                cbit = sigmap.map_bit(bit)
                if cbit.is_const:
                    continue
                entry = index.driver.get(cbit)
                if entry is not None and entry[0].is_mux:
                    dirty.add(entry[0].name)

        for edit in pending:
            cell = edit.cell
            if cell is not None:
                dirty.add(cell.name)
                dirty |= self._children_of.get(cell.name, set())
            for spec in (edit.old, edit.new, edit.lhs, edit.rhs):
                if spec is not None:
                    from_spec(spec)
            if edit.ports:
                for spec in edit.ports.values():
                    from_spec(spec)
            # CONNECTIONS_REPLACED / wire edits carry no specs: the dead-
            # alias sweep leaves the canonical mapping of live bits (and
            # with it every edge) unchanged, and fresh wires are undriven
        return dirty


def module_edge_cache(module: Module) -> MuxEdgeCache:
    """The module's shared persistent edge cache (created on first use)."""
    cache = module._edge_cache
    if cache is None:
        cache = MuxEdgeCache(module)
        module._edge_cache = cache
    return cache


def seeding_edge_map(module: Module, index: NetIndex) -> Dict[str, Edge]:
    """The internal-edge map for a pass's seeding sweep.

    Under the live index this comes from the persistent per-module cache
    (replaying only the edits since the map was last current); eager
    snapshot indexes keep the historic O(module) sweep — the reference
    path must stay cache-free.
    """
    if index.live:
        return module_edge_cache(module).edges(index)
    return find_internal_edges(module, index)


def _match_edge(
    sigmap, parent: Cell, pname: str, y_bits: Tuple[SigBit, ...]
) -> Optional[Edge]:
    """Check the parent port (or one pmux branch) is exactly the child Y."""
    spec = tuple(sigmap.map_spec(parent.connections[pname]))
    if parent.type is CellType.MUX or pname == "A":
        return (parent, pname, None) if spec == y_bits else None
    # pmux B port: the child must be exactly one whole branch slice
    width = parent.width
    matches = [
        i
        for i in range(parent.n)
        if spec[i * width:(i + 1) * width] == y_bits
    ]
    if len(matches) == 1:
        return (parent, "B", matches[0])
    return None


@register_pass
class OptMuxtree(Pass):
    """Prune never-active muxtree branches using identical-signal knowledge."""

    name = "opt_muxtree"
    incremental_capable = True
    #: baseline pruning only consults path-identical signals, so an edit can
    #: create new opportunities at most two cell hops away (the mux reading
    #: a changed control/data net, plus its parent edge)
    dirty_radius = 2

    def execute(self, module: Module, result: PassResult) -> None:
        # eager reference path: private snapshot index, rebuilt per entry
        self._optimize(module, result, NetIndex(module), dirty=None)

    def execute_incremental(
        self, module: Module, result: PassResult, dirty: Optional[DirtySet]
    ) -> None:
        index = module.net_index()
        with index.frozen():
            # frozen: traversal edits buffer, queries keep the entry
            # snapshot — the same stale-by-design view the eager path gets
            self._optimize(module, result, index, dirty=dirty)

    def _optimize(
        self,
        module: Module,
        result: PassResult,
        index: NetIndex,
        dirty: Optional[DirtySet],
    ) -> None:
        self.module = module
        self.result = result
        self.index = index  # kept for subclasses (snapshot; edits may stale it)
        self.sigmap = index.sigmap

        if dirty is None:
            # seeding sweep: precompute everything, walk every tree
            self.muxes = {c.name: c for c in module.cells.values() if c.is_mux}
            if not self.muxes:
                return
            self.parent_edge = seeding_edge_map(module, index)
            roots = [
                c for c in self.muxes.values() if c.name not in self.parent_edge
            ]
        else:
            # dirty rounds: no whole-module sweeps — resolve tree edges
            # lazily and only touch trees reachable from the edit closure
            closure = dirty.closure(index, self.dirty_radius)
            if not closure:
                return
            self.parent_edge = LazyEdgeMap(
                lambda name: compute_internal_edge(module, index, name)
            )
            root_names = dirty_tree_roots(
                index, module, self.parent_edge, closure
            )
            if not root_names:
                return
            self.muxes = {c.name: c for c in module.cells.values() if c.is_mux}
            # module order, like the eager sweep, so tree interactions match
            roots = [
                c
                for c in self.muxes.values()
                if c.name in root_names
                and self.parent_edge.get(c.name) is None
            ]
        if dirty is None:
            # eager/seeding sweeps answer Y-spec lookups from one dict
            self.y_of: Optional[Dict[Tuple[SigBit, ...], str]] = {
                tuple(self.sigmap.map_spec(c.connections["Y"])): c.name
                for c in self.muxes.values()
            }
        else:
            # dirty rounds resolve them through the index driver map instead
            # of re-canonicalising every mux Y (see mux_of_spec)
            self.y_of = None
        self.visited: Set[str] = set()
        for root in roots:
            self._traverse(root, {})

    def _mux_of(self, spec: SigSpec) -> Optional[str]:
        return mux_of_spec(self.index, self.sigmap, spec, self.y_of)

    # -- fact handling -------------------------------------------------------------

    def _bit_value(self, bit: SigBit, facts: Dict[SigBit, bool]) -> Optional[bool]:
        cbit = self.sigmap.map_bit(bit)
        if cbit.is_const:
            if cbit.state is State.S1:
                return True
            if cbit.state is State.S0:
                return False
            return None
        return facts.get(cbit)

    def _resolve_ctrl_value(
        self, bit: SigBit, facts: Dict[SigBit, bool]
    ) -> Optional[bool]:
        """Decide a control bit's value on this path.  The baseline only
        knows identical signals; smaRTLy overrides this hook with
        inference/simulation/SAT (:mod:`repro.core.redundancy`)."""
        return self._bit_value(bit, facts)

    def _resolve_data_value(
        self, bit: SigBit, facts: Dict[SigBit, bool]
    ) -> Optional[bool]:
        """Decide a data-port bit's value on this path (Figure 2)."""
        return self._bit_value(bit, facts)

    def _substitute(self, spec: SigSpec, facts: Dict[SigBit, bool]) -> Tuple[SigSpec, int]:
        """Replace known control bits inside a data spec with constants."""
        new_bits: List[SigBit] = []
        substituted = 0
        for bit in spec:
            if self.sigmap.map_bit(bit).is_const:
                new_bits.append(bit)
                continue
            value = self._resolve_data_value(bit, facts)
            if value is None:
                new_bits.append(bit)
            else:
                new_bits.append(BIT1 if value else BIT0)
                substituted += 1
        return SigSpec(new_bits), substituted

    # -- rewiring --------------------------------------------------------------------

    def _redirect(self, mux: Cell, new_spec: SigSpec) -> Optional[str]:
        """Replace the muxtree edge into ``mux`` by ``new_spec`` (bypass).

        Returns the name of the mux now exclusively driving the rewired
        edge (the bypassed mux's former fanout-1 child), or None.  Only a
        child whose unique parent *was* the bypassed mux inherits the edge;
        traversal must not continue into shared muxes, whose other
        observers do not share this path's facts.
        """
        edge = self.parent_edge.get(mux.name)
        if edge is None:
            # root: alias the output and delete the cell.  The bypass merges
            # Y into new_spec's alias class, so the recorder cannot see Y's
            # own readers — report them explicitly for the next dirty round.
            self.result.touch_readers(
                reader.name
                for bit in mux.connections["Y"]
                for reader, _port, _off in self.index.readers.get(
                    self.sigmap.map_bit(bit), ()
                )
            )
            self.module.connect(mux.connections["Y"], new_spec)
            self.module.remove_cell(mux)
            del self.muxes[mux.name]
        else:
            parent, pname, branch = edge
            if branch is None:
                parent.set_port(pname, new_spec)
            else:
                b = parent.connections["B"]
                width = parent.width
                rebuilt = b[: branch * width].concat(
                    new_spec, b[(branch + 1) * width:]
                )
                parent.set_port("B", rebuilt)
        self.result.bump("muxes_bypassed")
        # hand the edge down to the mux now driving new_spec, if it was ours
        child_name = self._mux_of(new_spec)
        if child_name is not None and child_name in self.muxes:
            old = self.parent_edge.get(child_name)
            if old is not None and old[0].name == mux.name:
                # a None entry marks "now a root" — an overwrite, never a
                # pop, so the lazy map cannot resurrect the stale edge
                self.parent_edge[child_name] = edge
                return child_name
        return None

    # -- traversal ----------------------------------------------------------------------

    def _traverse(self, mux: Cell, facts: Dict[SigBit, bool]) -> None:
        if mux.name in self.visited or mux.name not in self.module.cells:
            return
        self.visited.add(mux.name)
        if mux.type is CellType.MUX:
            self._traverse_mux(mux, facts)
        else:
            self._traverse_pmux(mux, facts)

    def _descend(self, parent: Cell, data_spec: SigSpec, facts: Dict[SigBit, bool]) -> None:
        """Recurse into the internal mux driving ``data_spec``, if any."""
        child_name = self._internal_child(parent, data_spec)
        if child_name is not None:
            self._traverse(self.module.cells[child_name], facts)

    def _internal_child(self, parent: Cell, data_spec: SigSpec) -> Optional[str]:
        """Name of the internal mux whose edge into ``parent`` is exactly
        ``data_spec``, or None (driver shared with another tree, or not a
        mux)."""
        child_name = self._mux_of(data_spec)
        if child_name is None or child_name not in self.muxes:
            return None
        edge = self.parent_edge.get(child_name)
        if edge is None or edge[0].name != parent.name:
            return None  # shared with another tree: path facts do not apply
        return child_name

    def _substitutable(self, data_spec: SigSpec) -> bool:
        """Whether a data operand may be rewritten bit-wise (Figure 2).

        Operands that are exactly a mux output are left untouched: the
        driving mux is (or may later become, once other readers die) a
        muxtree edge, and substituting even one bit of its Y breaks that
        edge permanently — trading a whole-branch bypass in this or a
        later round for a one-bit constant.  The child's own traversal
        performs the same substitutions one level deeper, so nothing
        decidable is lost."""
        return self._mux_of(data_spec) is None

    def _traverse_mux(self, mux: Cell, facts: Dict[SigBit, bool]) -> None:
        s_bit = self.sigmap.map_bit(mux.connections["S"][0])
        s_value = self._resolve_ctrl_value(s_bit, facts)
        if s_value is not None:
            chosen = mux.connections["B" if s_value else "A"]
            self._continue_into(self._redirect(mux, chosen), facts)
            return
        for pname, s_known in (("A", False), ("B", True)):
            branch_facts = dict(facts)
            if not s_bit.is_const:
                branch_facts[s_bit] = s_known
            new_spec = mux.connections[pname]
            if self._substitutable(new_spec):
                new_spec, substituted = self._substitute(new_spec, branch_facts)
                if substituted:
                    mux.set_port(pname, new_spec)
                    self.result.bump("dataport_bits_substituted", substituted)
            self._descend(mux, new_spec, branch_facts)

    def _traverse_pmux(self, mux: Cell, facts: Dict[SigBit, bool]) -> None:
        width = mux.width
        # drop branches whose select is known 0 on this path
        keep: List[int] = []
        decided: Optional[int] = None
        for i in range(mux.n):
            value = self._resolve_ctrl_value(mux.connections["S"][i], facts)
            if value is False:
                continue
            keep.append(i)
            if value is True:
                decided = i
                break  # priority: later branches are dead anyway
        if decided is not None and len(keep) == 1:
            chosen = mux.pmux_branch(decided)
            self._continue_into(self._redirect(mux, chosen), facts)
            return
        if not keep:
            chosen = mux.connections["A"]
            self._continue_into(self._redirect(mux, chosen), facts)
            return
        if len(keep) != mux.n:
            self.result.bump("pmux_branches_removed", mux.n - len(keep))
            self._shrink_pmux(mux, keep)

        # now traverse surviving branches and the default
        s_bits = [self.sigmap.map_bit(b) for b in mux.connections["S"]]
        for i in range(mux.n):
            branch_facts = dict(facts)
            for j in range(i):
                if not s_bits[j].is_const:
                    branch_facts[s_bits[j]] = False
            if not s_bits[i].is_const:
                branch_facts[s_bits[i]] = True
            new_spec = mux.pmux_branch(i)
            if self._substitutable(new_spec):
                new_spec, substituted = self._substitute(new_spec, branch_facts)
                if substituted:
                    b = mux.connections["B"]
                    mux.set_port(
                        "B", b[: i * width].concat(new_spec, b[(i + 1) * width:])
                    )
                    self.result.bump("dataport_bits_substituted", substituted)
            self._descend(mux, new_spec, branch_facts)
        if decided is not None:
            return  # the default operand is unreachable on this path
        default_facts = dict(facts)
        for s_bit in s_bits:
            if not s_bit.is_const:
                default_facts[s_bit] = False
        new_spec = mux.connections["A"]
        if self._substitutable(new_spec):
            new_spec, substituted = self._substitute(new_spec, default_facts)
            if substituted:
                mux.set_port("A", new_spec)
                self.result.bump("dataport_bits_substituted", substituted)
        self._descend(mux, new_spec, default_facts)

    def _shrink_pmux(self, mux: Cell, keep: List[int]) -> None:
        width = mux.width
        b = mux.connections["B"]
        s = mux.connections["S"]
        new_b = SigSpec()
        new_s: List[SigBit] = []
        for i in keep:
            new_b = new_b.concat(b[i * width:(i + 1) * width])
            new_s.append(s[i])
        mux.n = len(keep)
        mux.set_port("S", SigSpec(new_s))
        mux.set_port("B", new_b)

    def _continue_into(self, child_name: Optional[str],
                       facts: Dict[SigBit, bool]) -> None:
        """Continue the walk into the child that inherited a bypassed edge."""
        if child_name is not None and child_name in self.module.cells:
            self._traverse(self.module.cells[child_name], facts)
