"""Muxtree restructuring (paper §III, Algorithm 1) — ``smartly_rebuild``.

The pass finds muxtrees produced by ``case`` statements: chains/trees of
``mux``/``pmux`` cells whose controls are ``eq``-against-constant (or
``logic_not`` / plain-bit / ``not``) comparisons of a *single* shared
selector signal (``OnlyEq`` + ``SingleCtrl`` of Algorithm 1).  Each such
tree is summarised as a priority list of (selector cube -> data operand)
rows, converted into an exhaustive table over the selector bits, and
rebuilt as an :class:`~repro.core.add.ADD` whose internal nodes become 2:1
muxes controlled by the selector bits *directly* — disconnecting the eq
gates entirely (Figure 5 -> Figure 7: 3 eq + 3 mux become 3 mux).

The rebuild is gated by the paper's cost model (``Check``):

* gain from removed muxes (old mux AIG cost - ADD node AIG cost, both
  weighted by data width),
* plus the AIG cost of every eq/not gate whose fanout lies entirely inside
  the tree (``CountRemoved`` — gates that remain shared with other logic
  contribute nothing),
* rebuilt only when the estimated gain is positive and the new height does
  not exceed ``max_height_factor`` times the selector width.

Dead cells left behind are reaped by ``opt_clean`` (``RemoveUnusedCell``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..ir.cells import CellType
from ..ir.module import Cell, Module
from ..ir.signals import SigBit, SigSpec, State
from ..ir.walker import NetIndex
from ..opt.pass_base import DirtySet, PassResult, register_pass
from ..opt.opt_muxtree import MuxtreePass, mux_of_spec, tree_roots
from .add import ADD, ADDNode, case_table

#: a cube over selector bits: bit -> required value
Cube = Dict[SigBit, bool]

#: sentinel returned by pattern recognition for structurally-false compares
NEVER_MATCHES = "never"


@dataclass
class CaseTree:
    """A muxtree recognised as a single-selector case structure."""

    root: Cell
    width: int
    #: priority-ordered rows: (cube, data operand)
    rows: List[Tuple[Cube, SigSpec]] = field(default_factory=list)
    #: mux/pmux cells belonging to the tree
    mux_cells: List[Cell] = field(default_factory=list)
    #: control-cone cells (eq / logic_not / not) keyed by name
    ctrl_cells: Dict[str, Cell] = field(default_factory=dict)
    #: selector bits in first-use order
    sel_bits: List[SigBit] = field(default_factory=list)

    @property
    def num_muxes(self) -> int:
        return len(self.mux_cells)

    @property
    def mux_weight(self) -> int:
        """Tree size in 2:1-mux equivalents (a pmux counts one per branch)."""
        return sum(
            cell.n if cell.type is CellType.PMUX else 1
            for cell in self.mux_cells
        )


# -- AIG cost estimates (mirror aigmap decompositions) --------------------------


def mux_aig_cost(width: int, branches: int = 1) -> int:
    """A 2:1 mux is 3 AND nodes per bit; a pmux is one mux per branch."""
    return 3 * width * branches


def eq_aig_cost(compare_width: int) -> int:
    """Equality against a constant: the per-bit xnors fold into plain
    inverters in the AIG, leaving only the AND-reduce tree."""
    return max(0, compare_width - 1)


def ctrl_cell_cost(cell: Cell) -> int:
    if cell.type is CellType.EQ:
        return eq_aig_cost(cell.width)
    if cell.type is CellType.LOGIC_NOT:
        return max(0, cell.width - 1)
    return 0  # plain not / direct bit


@register_pass
class MuxtreeRestructure(MuxtreePass):
    """Rebuild single-selector case muxtrees through an ADD."""

    name = "smartly_rebuild"
    #: eq-against-constant recognition looks through or-trees of eq cells —
    #: a few hops above a mux select; 4 covers every pattern _pattern_of /
    #: _disjunction_of can match plus a safety hop
    dirty_radius = 4

    def __init__(
        self,
        max_sel_width: int = 12,
        min_gain: int = 1,
        max_height_factor: float = 1.0,
        min_tree_muxes: int = 2,
    ):
        self.max_sel_width = max_sel_width
        self.min_gain = min_gain
        self.max_height_factor = max_height_factor
        self.min_tree_muxes = min_tree_muxes

    # -- pass entry ------------------------------------------------------------

    def _optimize(
        self,
        module: Module,
        result: PassResult,
        index: NetIndex,
        dirty: Optional[DirtySet],
    ) -> None:
        self.module = module
        self.index = index
        self.sigmap = index.sigmap
        self._result = result
        walk = tree_roots(module, index, dirty, self.dirty_radius)
        if walk is None:
            return
        self.parent_edge, _muxes, roots = walk
        # canonical bits observable at module outputs (alias-aware; the
        # index maintains this set, so no per-entry rebuild)
        self.output_bits = index.output_bits
        trees: List[CaseTree] = []
        for root in roots:
            tree = self._collect_tree(root)
            if tree is not None:
                trees.append(tree)
        result.note("trees_found", len(trees))

        for tree in trees:
            self._consider_rebuild(tree, result)

    # -- OnlyEq / SingleCtrl recognition (Algorithm 1, line 2) --------------------

    def _pattern_of(self, ctrl_bit: SigBit) -> Optional[Cube]:
        """Interpret a control bit as a cube over selector bits.

        Returns None when the control is not an eq-like form; the cube is
        empty for a tautology (cannot happen via eq, kept for safety).
        The driving cell (if any) is recorded in ``self._last_ctrl_cell``.
        """
        self._last_ctrl_cell = None
        cbit = self.sigmap.get(ctrl_bit, ctrl_bit)
        if cbit.is_const:
            return None
        driver = self.index.comb_driver(cbit)
        if driver is None:
            # a raw selector bit used as control: cube {bit: 1}
            return {cbit: True}
        if driver.type is CellType.EQ:
            a = self.sigmap.map_spec(driver.connections["A"])
            b = self.sigmap.map_spec(driver.connections["B"])
            if b.is_const:
                sig, pattern = a, b
            elif a.is_const:
                sig, pattern = b, a
            else:
                return None
            cube: Cube = {}
            for sbit, pbit in zip(sig, pattern):
                if pbit.state is State.Sx:
                    return None  # x in comparison: never matches cleanly
                want = pbit.state is State.S1
                if sbit.is_const:
                    if (sbit.state is State.S1) != want:
                        self._last_ctrl_cell = driver
                        return NEVER_MATCHES
                    continue
                if sbit in cube and cube[sbit] != want:
                    self._last_ctrl_cell = driver
                    return NEVER_MATCHES
                cube[sbit] = want
            self._last_ctrl_cell = driver
            return cube
        if driver.type is CellType.LOGIC_NOT:
            a = self.sigmap.map_spec(driver.connections["A"])
            cube = {}
            for sbit in a:
                if sbit.is_const:
                    if sbit.state is State.S1:
                        self._last_ctrl_cell = driver
                        return NEVER_MATCHES
                    continue
                cube[sbit] = False
            self._last_ctrl_cell = driver
            return cube
        if driver.type is CellType.NOT and driver.width == 1:
            inner = self.sigmap.map_bit(driver.connections["A"][0])
            if inner.is_const:
                return None
            if self.index.comb_driver(inner) is None:
                self._last_ctrl_cell = driver
                return {inner: False}
            return None
        return None

    def _disjunction_of(self, ctrl_bit: SigBit) -> Optional[List[Cube]]:
        """Interpret a control as a disjunction of cubes (Figure 6 trees).

        Handles plain eq-forms (one cube) and ``or``/``logic_or`` trees of
        eq-forms (several cubes, priority order preserved).  Every driver
        cell encountered is recorded in ``self._disjunction_cells``.
        Returns None when any leaf is not an eq-form, or — for genuine
        disjunctions — when the cubes do not share a single selector wire
        (the paper's ``SingleCtrl``: ``or(S, r)`` over unrelated signals is
        a *dependent control* for the SAT stage, not a case pattern).
        """
        self._disjunction_cells = {}

        def walk(bit: SigBit) -> Optional[List[Cube]]:
            cbit = self.sigmap.get(bit, bit)
            driver = self.index.comb_driver(cbit)
            if driver is not None and driver.width == 1 and driver.type in (
                CellType.OR,
                CellType.LOGIC_OR,
            ):
                left = walk(driver.connections["A"][0])
                if left is None:
                    return None
                right = walk(driver.connections["B"][0])
                if right is None:
                    return None
                self._disjunction_cells[driver.name] = driver
                return left + right
            pattern = self._pattern_of(bit)
            if pattern is None:
                return None
            if self._last_ctrl_cell is not None:
                self._disjunction_cells[self._last_ctrl_cell.name] = (
                    self._last_ctrl_cell
                )
            if pattern is NEVER_MATCHES:
                return []
            return [pattern]

        cubes = walk(ctrl_bit)
        if cubes is None or len(cubes) <= 1:
            return cubes
        selector_wires = {
            id(bit.wire) for cube in cubes for bit in cube
        }
        if len(selector_wires) > 1:
            return None  # SingleCtrl violated: not a case-style disjunction
        return cubes

    # -- tree collection -----------------------------------------------------------

    def _collect_tree(self, root: Cell) -> Optional[CaseTree]:
        tree = CaseTree(root=root, width=root.width)
        if not self._walk(root, {}, tree, is_root=True):
            return None
        if tree.mux_weight < self.min_tree_muxes:
            return None
        if not tree.sel_bits or len(tree.sel_bits) > self.max_sel_width:
            return None
        return tree

    def _child_of(self, spec: SigSpec) -> Optional[Cell]:
        """The internal mux driving exactly this data operand, if any."""
        name = mux_of_spec(self.index, spec)
        if name is None or name not in self.module.cells:
            return None
        if self.parent_edge.get(name) is None:
            return None  # shared: treat as opaque operand
        return self.module.cells[name]

    def _note_sel_bits(self, cube: Cube, tree: CaseTree) -> None:
        for bit in cube:
            if bit not in tree.sel_bits:
                tree.sel_bits.append(bit)

    def _walk(self, cell: Cell, cube: Cube, tree: CaseTree, is_root: bool = False) -> bool:
        """Append the rows of ``cell`` (active under ``cube``) to the tree.

        All select patterns of the cell are validated *before* any tree
        mutation, so a False return leaves the tree untouched and the
        caller can fall back to an opaque operand.
        """
        if cell.type is CellType.MUX:
            cubes = self._disjunction_of(cell.connections["S"][0])
            if cubes is None:
                return False
            ctrl_cells = dict(self._disjunction_cells)
            tree.mux_cells.append(cell)
            tree.ctrl_cells.update(ctrl_cells)
            live = []
            for pattern in cubes:
                combined = self._merge_cubes(cube, pattern)
                if combined is not None:
                    live.append(combined)
            if len(live) == 1:
                # plain eq control: descend into the B operand as usual
                self._note_sel_bits(live[0], tree)
                self._emit(cell.connections["B"], live[0], tree)
            else:
                # Figure-6 disjunction: one priority row per cube; the B
                # operand is kept opaque (no path cube represents the
                # disjunction exactly, but ordered rows do)
                spec = self.sigmap.map_spec(cell.connections["B"])
                for combined in live:
                    self._note_sel_bits(combined, tree)
                    tree.rows.append((dict(combined), spec))
            self._emit(cell.connections["A"], cube, tree)
            return True
        # pmux: validate every select pattern up front
        patterns: List[Tuple[object, Optional[Cell]]] = []
        for i in range(cell.n):
            pattern = self._pattern_of(cell.connections["S"][i])
            if pattern is None:
                return False
            patterns.append((pattern, self._last_ctrl_cell))
        tree.mux_cells.append(cell)
        for i, (pattern, ctrl_cell) in enumerate(patterns):
            if ctrl_cell is not None:
                tree.ctrl_cells[ctrl_cell.name] = ctrl_cell
            if pattern is NEVER_MATCHES:
                continue
            combined = self._merge_cubes(cube, pattern)
            if combined is None:
                continue  # branch unreachable under the path cube
            self._note_sel_bits(combined, tree)
            self._emit(cell.pmux_branch(i), combined, tree)
        self._emit(cell.connections["A"], cube, tree)
        return True

    def _emit(self, spec: SigSpec, cube: Cube, tree: CaseTree) -> None:
        """Record a data operand: recurse into an internal case mux, else row."""
        child = self._child_of(spec)
        if child is not None:
            if self._walk(child, cube, tree):
                return
            # child not an eq-form mux: fall through, treat as opaque
        # canonicalise so aliased operands share one ADD terminal
        tree.rows.append((dict(cube), self.sigmap.map_spec(spec)))

    @staticmethod
    def _merge_cubes(a: Cube, b: Cube) -> Optional[Cube]:
        """Conjunction of two cubes; None when contradictory."""
        merged = dict(a)
        for bit, value in b.items():
            if merged.get(bit, value) != value:
                return None
            merged[bit] = value
        return merged

    # -- decision + rebuild (Algorithm 1 lines 3-9) -------------------------------------

    def _consider_rebuild(self, tree: CaseTree, result: PassResult) -> None:
        sel_order = list(tree.sel_bits)
        positions = {bit: i for i, bit in enumerate(sel_order)}
        rows = [
            ({positions[bit]: value for bit, value in cube.items()}, spec)
            for cube, spec in tree.rows
        ]
        default_spec = rows[-1][1] if rows else None
        table = case_table(len(sel_order), rows, default=default_spec)
        add = ADD(len(sel_order), table)

        removable = self._removable_ctrl_cells(tree)
        removed_eq_gain = sum(ctrl_cell_cost(c) for c in removable)
        old_mux_cost = sum(
            mux_aig_cost(c.width, c.n if c.type is CellType.PMUX else 1)
            for c in tree.mux_cells
        )
        new_mux_cost = mux_aig_cost(tree.width) * add.num_internal_nodes
        gain = old_mux_cost + removed_eq_gain - new_mux_cost
        height = add.depth()

        result.note("trees_considered")
        if gain < self.min_gain:
            result.note("trees_rejected_cost")
            return
        if height > max(1, int(self.max_height_factor * len(sel_order))):
            result.note("trees_rejected_height")
            return

        self._emit_add(tree, add, sel_order)
        result.bump("trees_rebuilt")
        result.bump("muxes_removed", len(tree.mux_cells))
        result.bump("muxes_added", add.num_internal_nodes)
        result.bump("eq_gates_disconnected", len(removable))
        result.bump("estimated_gain", gain)

    def _removable_ctrl_cells(self, tree: CaseTree) -> List[Cell]:
        """Control gates whose every reader is a select port of tree muxes
        (``CountRemoved``): they die once the tree stops using them."""
        tree_mux_names = {c.name for c in tree.mux_cells}
        removable = []
        for cell in tree.ctrl_cells.values():
            out_bits = cell.output_bits()
            out_bits = list(map(self.sigmap.get, out_bits, out_bits))
            ok = True
            for bit in out_bits:
                if bit in self.output_bits:
                    ok = False
                    break
                for reader, pname, _off in self.index.readers.get(bit, ()):
                    if reader.name not in tree_mux_names or pname != "S":
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                removable.append(cell)
        return removable

    def _emit_add(self, tree: CaseTree, add: ADD, sel_order: List[SigBit]) -> None:
        """Emit one 2:1 mux per ADD node; controls are selector bits directly."""
        memo: Dict[int, SigSpec] = {}

        def emit(node: ADDNode) -> SigSpec:
            cached = memo.get(id(node))
            if cached is not None:
                return cached
            if node.is_terminal:
                spec = node.value
            else:
                low = emit(node.low)
                high = emit(node.high)
                mux = self.module.add_cell(
                    CellType.MUX,
                    A=low,
                    B=high,
                    S=SigSpec([sel_order[node.var]]),
                )
                spec = mux.connections["Y"]
            memo[id(node)] = spec
            return spec

        new_root_spec = emit(add.root)
        old_y = tree.root.connections["Y"]
        # the old root Y merges into the rebuilt tree's alias class; its
        # true readers seed the next dirty round (see PassResult.touch_readers)
        y_bits = old_y.bits
        self._result.touch_readers(
            reader.name
            for cbit in map(self.sigmap.get, y_bits, y_bits)
            for reader, _port, _off in self.index.readers.get(cbit, ())
        )
        self.module.remove_cell(tree.root)
        self.module.connect(old_y, new_root_spec)
