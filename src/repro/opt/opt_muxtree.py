"""Reimplementation of the Yosys ``opt_muxtree`` pass — the paper's baseline.

The pass walks *muxtrees*: maximal trees of ``mux``/``pmux`` cells linked
through data ports (a child's ``Y`` is exactly a parent's ``A``/``B`` data
operand and feeds nothing else: no other cell port, module output or
instance binding).  :func:`compute_internal_edge` is the one implementation
of that rule, and :func:`tree_roots` the one choice of trees to walk, for
this pass and the restructuring pass alike; the edge map lives for one
pass entry.  While descending it records the control values implied by
the path taken:

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

from ..ir.cells import CellType
from ..ir.module import Cell, Module
from ..ir.signals import BIT0, BIT1, SigBit, SigSpec, State
from ..ir.walker import NetIndex
from .pass_base import DirtySet, Pass, PassResult, register_pass

#: parent edge: (parent cell, port name, pmux branch index or None)
Edge = Tuple[Cell, str, Optional[int]]


class LazyEdgeMap(dict):
    """``child name -> parent Edge`` computed per child on first access.

    Edges resolve through :func:`compute_internal_edge` against the
    pass-entry index (a snapshot, or the live index inside a frozen
    window) and cache in place; ``None`` entries mean "no internal edge"
    and traversal updates (edge hand-downs, bypass detachments) simply
    overwrite them.  Only :meth:`get` is lazy — use it for all reads.
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
        # `name in map` would only mean "already resolved", not "has an
        # internal edge" — a silent wrong answer; force callers through get()
        raise TypeError("LazyEdgeMap membership is lazy; use .get(name)")


def mux_of_spec(index: NetIndex, spec: SigSpec) -> Optional[str]:
    """Name of the mux whose whole canonical Y equals ``spec``, or None.

    Resolved through the index's driver map, so no whole-module map of
    mux outputs is needed to answer it.
    """
    sigmap = index.sigmap
    bits = sigmap.map_spec(spec).bits
    if not bits or bits[0].is_const:
        return None
    entry = index.driver.get(bits[0])
    if entry is None:
        return None
    cell = entry[0]
    if not cell.is_mux:
        return None
    if sigmap.map_spec(cell.connections["Y"]).bits != bits:
        return None
    return cell.name


def compute_internal_edge(
    module: Module, index: NetIndex, child_name: str
) -> Optional[Edge]:
    """The unique parent data edge of mux ``child_name``, or None.

    A mux is internal when its whole Y spec is exactly one data operand
    (``A``, ``B``, or one pmux branch slice) of exactly one other mux and
    feeds nothing else — no other cell port, no module output, no
    instance binding (:meth:`NetIndex.is_output_bit` covers both).  This
    is the linking rule that defines a muxtree; a path's control values
    may only flow down such an edge.
    """
    child = module.cells.get(child_name)
    if child is None or not child.is_mux:
        return None
    sigmap = index.sigmap
    y_bits = sigmap.map_spec(child.connections["Y"]).bits
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


def find_internal_edges(module: Module, index: NetIndex) -> Dict[str, Edge]:
    """Map each internal mux of ``module`` to its unique parent data edge
    (:func:`compute_internal_edge` applied to every mux)."""
    edges: Dict[str, Edge] = {}
    for name, cell in module.cells.items():
        if cell.is_mux:
            edge = compute_internal_edge(module, index, name)
            if edge is not None:
                edges[name] = edge
    return edges


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

    get = index.sigmap.get
    roots: Set[str] = set()
    for name in closure:
        cell = module.cells.get(name)
        if cell is None:
            continue
        if cell.is_mux:
            roots.add(root_of(name))
            continue
        bits = cell.output_bits()
        for cbit in map(get, bits, bits):
            for reader, _port, _off in index.readers.get(cbit, ()):
                if reader.is_mux:
                    roots.add(root_of(reader.name))
    return roots


def tree_roots(
    module: Module, index: NetIndex, dirty: Optional[DirtySet], radius: int
) -> Optional[Tuple[LazyEdgeMap, Dict[str, Cell], List[Cell]]]:
    """The edge map, the muxes and the tree roots a muxtree pass walks.

    ``dirty=None`` is a full sweep: every mux is asked for its edge before
    the walk starts, so every edge is read from the pass-entry state
    (:func:`compute_internal_edge` reads ``module.cells`` live, and the
    walk removes cells) and every root is walked.  A dirty round resolves
    edges lazily and only walks the trees a cell of the ``radius``-hop
    dirty closure can influence (:func:`dirty_tree_roots`); it returns
    None when there is nothing to walk.  Roots come in module order, so
    tree interactions match between the two.
    """
    parent_edge = LazyEdgeMap(
        lambda name: compute_internal_edge(module, index, name)
    )
    if dirty is None:
        muxes = {c.name: c for c in module.cells.values() if c.is_mux}
        roots = [c for c in muxes.values() if parent_edge.get(c.name) is None]
        return parent_edge, muxes, roots
    closure = dirty.closure(index, radius)
    if not closure:
        return None
    root_names = dirty_tree_roots(index, module, parent_edge, closure)
    if not root_names:
        return None
    muxes = {c.name: c for c in module.cells.values() if c.is_mux}
    roots = [
        c
        for c in muxes.values()
        if c.name in root_names and parent_edge.get(c.name) is None
    ]
    return parent_edge, muxes, roots


def _match_edge(
    sigmap, parent: Cell, pname: str, y_bits: Tuple[SigBit, ...]
) -> Optional[Edge]:
    """Check the parent port (or one pmux branch) is exactly the child Y."""
    spec = sigmap.map_spec(parent.connections[pname]).bits
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


class MuxtreePass(Pass):
    """A pass that walks muxtrees against its pass-entry view (``_optimize``).

    The eager engine hands it a private snapshot index; the incremental
    engine the live index inside :meth:`NetIndex.frozen`, where traversal
    edits buffer and queries keep the entry snapshot — the same
    stale-by-design view the eager path gets.
    """

    def execute(self, module: Module, result: PassResult) -> None:
        self._optimize(module, result, NetIndex(module), dirty=None)

    def execute_incremental(
        self, module: Module, result: PassResult, dirty: Optional[DirtySet]
    ) -> None:
        index = module.net_index()
        with index.frozen():
            self._optimize(module, result, index, dirty=dirty)

    def _optimize(
        self,
        module: Module,
        result: PassResult,
        index: NetIndex,
        dirty: Optional[DirtySet],
    ) -> None:
        raise NotImplementedError


@register_pass
class OptMuxtree(MuxtreePass):
    """Prune never-active muxtree branches using identical-signal knowledge."""

    name = "opt_muxtree"
    #: baseline pruning only consults path-identical signals, so an edit can
    #: create new opportunities at most two cell hops away (the mux reading
    #: a changed control/data net, plus its parent edge)
    dirty_radius = 2

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
        walk = tree_roots(module, index, dirty, self.dirty_radius)
        if walk is None:
            return
        self.parent_edge, self.muxes, roots = walk
        self.visited: Set[str] = set()
        for root in roots:
            self._traverse(root, {})

    def _mux_of(self, spec: SigSpec) -> Optional[str]:
        return mux_of_spec(self.index, spec)

    # -- fact handling -------------------------------------------------------------

    def _bit_value(self, bit: SigBit, facts: Dict[SigBit, bool]) -> Optional[bool]:
        cbit = self.sigmap.get(bit, bit)
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

    def _resolve_data_values(
        self, bits: List[SigBit], facts: Dict[SigBit, bool]
    ) -> List[Optional[bool]]:
        """Decide the values of a data operand's non-constant bits on this
        path (Figure 2), one entry per bit.  The baseline only knows
        identical signals; smaRTLy overrides this hook with one inference
        per operand (:mod:`repro.core.redundancy`)."""
        return [self._bit_value(bit, facts) for bit in bits]

    def _substitute(self, spec: SigSpec, facts: Dict[SigBit, bool]) -> Tuple[SigSpec, int]:
        """Replace the data-spec bits decided on this path with constants."""
        bits = list(spec.bits)
        get = self.sigmap.get
        open_at = [
            i for i, bit in enumerate(bits) if not get(bit, bit).is_const
        ]
        values = self._resolve_data_values([bits[i] for i in open_at], facts)
        substituted = 0
        for i, value in zip(open_at, values):
            if value is not None:
                bits[i] = BIT1 if value else BIT0
                substituted += 1
        return SigSpec(bits), substituted

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
            y_bits = mux.connections["Y"].bits
            self.result.touch_readers(
                reader.name
                for cbit in map(self.sigmap.get, y_bits, y_bits)
                for reader, _port, _off in self.index.readers.get(cbit, ())
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
        s_bits = mux.connections["S"].bits
        s_bits = list(map(self.sigmap.get, s_bits, s_bits))
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
        # an edge names its pmux branch by index: re-number the edges of
        # the kept branches' children, or bypassing one of them would
        # rewrite whichever branch now sits at its old index
        for new, old in enumerate(keep):
            child_name = self._mux_of(b[old * width:(old + 1) * width])
            if new == old or child_name is None:
                continue
            edge = self.parent_edge.get(child_name)
            if edge is not None and edge[0] is mux and edge[2] == old:
                self.parent_edge[child_name] = (mux, "B", new)

    def _continue_into(self, child_name: Optional[str],
                       facts: Dict[SigBit, bool]) -> None:
        """Continue the walk into the child that inherited a bypassed edge."""
        if child_name is not None and child_name in self.module.cells:
            self._traverse(self.module.cells[child_name], facts)
