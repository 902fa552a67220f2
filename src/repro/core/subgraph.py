"""Sub-graph extraction for SAT-based redundancy elimination (paper §II).

Around the control port of a multiplexer under inspection, smaRTLy collects
all combinational gates within an (undirected) distance ``k``.  The raw
neighbourhood is then *reduced* using the paper's Theorems II.1/II.2: a
signal S can only affect signal T when S is an ancestor of T, T is an
ancestor of S, or the two share a common ancestor.  For the redundancy
query this partitions the neighbourhood into the target's *interaction
group* — the fanin cones of the target and of the known path signals —
and everything else, which is dismissed (the paper reports ~80% of gates
removed, "greatly accelerating the inference of the SAT solver").
Sequential cells are never crossed, keeping the sub-graph a DAG.

The walk runs on the index's :class:`~repro.ir.walker.CanonicalView`:
bits are small-int ids, each cell's canonical pins and adjacent cells and
each bit's driver and neighbour cells are memoized for the life of the
view (a frozen window), so no query re-canonicalises the bits, or
re-expands the cells, it has already seen.  Ids turn back into
:class:`SigBit` objects only in the returned :class:`SubGraph`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..ir.module import Cell, DriverConflictError
from ..ir.signals import SigBit
from ..ir.walker import CONST_IDS, CanonicalView, NetIndex


@dataclass
class SubGraph:
    """A bounded, reduced neighbourhood of one target bit."""

    target: SigBit
    #: cells kept after support-group reduction, in deterministic order
    cells: List[Cell]
    #: free source bits of the reduced sub-graph (inputs to decide over)
    inputs: List[SigBit]
    #: path facts restricted to bits that live inside the sub-graph
    known: Dict[SigBit, bool]
    #: sizes before/after the Theorem II.1 reduction (for Figure-4 stats)
    gates_before: int = 0
    gates_after: int = 0
    #: whether the ball came from the cell walk (False: from the bit BFS,
    #: past ``max_gates`` or on a driver conflict)
    cell_walk: bool = True

    @property
    def cell_names(self) -> Set[str]:
        return {cell.name for cell in self.cells}

    @property
    def num_inputs(self) -> int:
        return len(self.inputs)


def extract_subgraph(
    index: NetIndex,
    target: SigBit,
    known: Dict[SigBit, bool],
    k: int = 4,
    max_gates: int = 2000,
) -> SubGraph:
    """Collect and reduce the distance-``k`` neighbourhood of ``target``.

    ``known`` holds the path facts (canonical bit -> value).  ``max_gates``
    caps the raw neighbourhood before reduction so pathological fanout hubs
    cannot blow up the analysis.

    Step 1 walks the *ball* cell to cell: layer 1 is the target bit's
    neighbour cells, layer j+1 the :meth:`CanonicalView.adjacent` cells of
    layer j not yet in the ball, for ``k`` layers.  A cell is within
    ``k`` hops exactly when the undirected bit-level BFS reaches it, and
    the later steps read only ball membership, so the result is the
    BFS's.  The ordered BFS itself runs when the ball exceeds
    ``max_gates`` (the cap cuts in BFS order) or a lookup raises
    :class:`DriverConflictError` (past the cap, only the BFS may raise).

    A cell-walked ball depends on the target only through its neighbour
    cells, so two bits with the same driver and equal
    :meth:`CanonicalView.neighbours` get the same ball.  For ``k >= 1``
    the ball holds that driver, and they also get the same reduction,
    which walks whole cells back from it; unless one of them is a fact
    bit, they get the same inputs and relevant facts too, so their
    sub-graphs differ only in ``target``.  The BFS ball is cut in an order
    that starts at the target, so it has no such twin;
    :attr:`SubGraph.cell_walk` tells the two apart.
    """
    view = index.canonical_view()
    bits = view.bits
    tid = view.bit_id(target)

    # 1. the cells within k hops of the target bit; ``seen`` (the bits the
    # BFS reached) is None after the cell walk, see the facts loop below
    try:
        cells = _cell_ball(view, tid, k, max_gates)
    except DriverConflictError:
        cells = None
    cell_walk = cells is not None
    seen: Optional[Set[int]] = None
    if cells is None:
        cells, seen = _bit_ball(view, tid, k, max_gates)

    gates_before = len(cells)
    known_ids = [(view.bit_id(bit), value) for bit, value in known.items()]

    # 2. Theorem II.1/II.2 reduction via support groups
    kept = _reduce_by_support(view, cells, tid, known_ids)

    # 3. free inputs = sources of the kept sub-graph minus known bits
    kept_names = {cell.name for cell in kept}
    input_ids: List[int] = []
    seen_inputs: Set[int] = set()
    relevant_known: Dict[SigBit, bool] = {}

    def classify(bid: int) -> None:
        if bid < CONST_IDS or bid in seen_inputs:
            return
        driver = view.driver(bid)
        if driver is not None and driver.name in kept_names:
            return  # internal signal
        seen_inputs.add(bid)
        cbit = bits[bid]
        if cbit in known:
            relevant_known[cbit] = known[cbit]
        else:
            input_ids.append(bid)

    for cell in kept:
        for bid in view.inputs(cell):
            classify(bid)
    classify(tid)
    # facts about internal signals also constrain the sub-graph
    for bid, value in known_ids:
        driver = view.driver(bid)
        if bid in seen_inputs or driver is None or driver.name not in kept_names:
            continue
        # the BFS reached the target and every pin of a ball cell; the kept
        # driver's pins settle it unless a frozen-window rewire moved the bit
        if seen is None and bid != tid and bid not in view.pins(driver):
            seen = {tid}.union(*map(view.pins, cells.values()))
        if seen is None or bid in seen:
            relevant_known[bits[bid]] = value

    return SubGraph(
        target=bits[tid],
        cells=kept,
        inputs=[bits[bid] for bid in input_ids],
        known=relevant_known,
        gates_before=gates_before,
        gates_after=len(kept),
        cell_walk=cell_walk,
    )


def _cell_ball(
    view: CanonicalView, tid: int, k: int, max_gates: int
) -> Optional[Dict[str, Cell]]:
    """The cells within ``k`` cell hops of bit ``tid``, by name, walked
    layer by layer over :meth:`CanonicalView.adjacent`; None when there
    are more than ``max_gates`` of them."""
    ball: Dict[str, Cell] = {}
    reached: Iterable[Cell] = view.neighbours(tid)
    for depth in range(k):
        layer: List[Cell] = []
        for cell in reached:
            if cell.name not in ball:
                ball[cell.name] = cell
                layer.append(cell)
        if len(ball) > max_gates:
            return None
        if depth + 1 < k:
            reached = chain.from_iterable(map(view.adjacent, layer))
    return ball


def _bit_ball(
    view: CanonicalView, tid: int, k: int, max_gates: int
) -> Tuple[Dict[str, Cell], Set[int]]:
    """The undirected bit-level BFS over cells, up to ``k`` cell hops from
    bit ``tid``, cut at ``max_gates`` cells in BFS order; also returns the
    bits it reached."""
    cells: Dict[str, Cell] = {}
    frontier: List[int] = [tid]
    seen: Set[int] = {tid}
    for _depth in range(k):
        next_frontier: List[int] = []
        for bid in frontier:
            for cell in view.neighbours(bid):
                if cell.name in cells:
                    continue
                if len(cells) >= max_gates:
                    break
                cells[cell.name] = cell
                for other in view.pins(cell):
                    if other not in seen:
                        seen.add(other)
                        next_frontier.append(other)
            if len(cells) >= max_gates:
                next_frontier = []
                break
        frontier = next_frontier
        if not frontier:
            break
    return cells, seen


def _reduce_by_support(
    view: CanonicalView,
    cells: Dict[str, Cell],
    tid: int,
    known_ids: List[Tuple[int, bool]],
) -> List[Cell]:
    """Dismiss gates that cannot interact with the target (Theorem II.1).

    A gate constrains the SAT/simulation query only when its output is an
    *ancestor* of the target, or an ancestor of a known signal computed
    inside the neighbourhood (a known internal signal propagates
    information backwards through its fanin cone and forwards into the
    target's cone — the "common ancestor" case of Theorem II.1).  Every
    other gate — descendants of the target, or cousins whose outputs feed
    neither the target nor a known signal — can take any value without
    affecting the query, so it is dismissed.  This realises the paper's
    group partition: the kept set is exactly the target's interaction
    group, and dismissing the rest is what "greatly accelerates the
    inference of the SAT solver".

    The kept cells are returned in topological order (fanin before fanout)
    so simulation and inference can evaluate them in a single sweep.
    """
    # roots of the cones that matter: the target plus known internal bits
    roots: List[int] = [tid]
    for bid, _value in known_ids:
        driver = view.driver(bid)
        if driver is not None and driver.name in cells:
            roots.append(bid)

    kept_names: Set[str] = set()
    worklist: List[int] = list(roots)
    visited: Set[int] = set(worklist)
    while worklist:
        driver = view.driver(worklist.pop())
        if driver is None or driver.name not in cells:
            continue
        if driver.name not in kept_names:
            kept_names.add(driver.name)
            for fbid in view.inputs(driver):
                if fbid >= CONST_IDS and fbid not in visited:
                    visited.add(fbid)
                    worklist.append(fbid)

    # topological order over the kept cells
    order: List[Cell] = []
    state: Dict[str, int] = {}

    def visit(cell: Cell) -> None:
        stack: List[Tuple[Cell, Iterator[int]]] = [
            (cell, iter(view.inputs(cell)))
        ]
        state[cell.name] = 0
        while stack:
            current, it = stack[-1]
            advanced = False
            for bid in it:
                driver = view.driver(bid)
                if driver is None or driver.name not in kept_names:
                    continue
                if state.get(driver.name) is None:
                    state[driver.name] = 0
                    stack.append((driver, iter(view.inputs(driver))))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                if state[current.name] == 0:
                    state[current.name] = 1
                    order.append(current)

    # deterministic root order: kept_names is a set, and string hashing is
    # randomized per interpreter run — iterating it raw would make the topo
    # order (and with it CNF variable numbering) differ run to run
    for name in sorted(kept_names):
        if name not in state:
            visit(cells[name])
    return order
