"""Sub-graph extraction and the Theorem II.1 reduction.

:func:`reference_extract_subgraph` is the extractor as it ran on hashed
``SigBit`` objects, canonicalising every bit of every neighbour cell on
each query.  The differential tests require the int-id extractor in
``repro.core.subgraph`` to return an identical :class:`SubGraph` — same
cells in the same order, same inputs, same known facts in the same
insertion order (it fixes the order of SAT assumptions) and the same
sizes — on every call a smartly run makes.
"""

import random
from typing import Dict, Iterable, List, Set, Tuple

import pytest

from repro.api import Session
from repro.core import extract_subgraph, redundancy
from repro.core.smartly import SmartlyOptions
from repro.core.subgraph import SubGraph
from repro.equiv import CI_CORPUS, random_module
from repro.ir import (
    CellType, Circuit, DriverConflictError, NetIndex, SigBit, SigSpec,
)
from repro.ir.module import Cell
from repro.ir.signals import BIT1
from repro.workloads import build_case


# -- reference extractor (SigBit walk) -------------------------------------


def reference_extract_subgraph(
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
    """
    sigmap = index.sigmap
    target = sigmap.map_bit(target)

    # 1. undirected BFS over cells, up to k cell hops from the target bit
    cells: Dict[str, Cell] = {}
    frontier: List[SigBit] = [target]
    seen_bits: Set[SigBit] = {target}
    for _depth in range(k):
        next_frontier: List[SigBit] = []
        for bit in frontier:
            neighbours: List[Cell] = []
            driver = index.comb_driver(bit)
            if driver is not None:
                neighbours.append(driver)
            for reader, _port, _off in index.readers.get(bit, ()):  # noqa: B020
                if reader.is_combinational:
                    neighbours.append(reader)
            for cell in neighbours:
                if cell.name in cells:
                    continue
                if len(cells) >= max_gates:
                    break
                cells[cell.name] = cell
                for other in cell.input_bits() + cell.output_bits():
                    cbit = sigmap.map_bit(other)
                    if not cbit.is_const and cbit not in seen_bits:
                        seen_bits.add(cbit)
                        next_frontier.append(cbit)
            if len(cells) >= max_gates:
                next_frontier = []
                break
        frontier = next_frontier
        if not frontier:
            break

    gates_before = len(cells)

    # 2. Theorem II.1/II.2 reduction via support groups
    kept = _reference_reduce_by_support(index, cells, target, known)

    # 3. free inputs = sources of the kept sub-graph minus known bits
    kept_names = {cell.name for cell in kept}
    input_bits: List[SigBit] = []
    seen_inputs: Set[SigBit] = set()
    relevant_known: Dict[SigBit, bool] = {}

    def classify(bit: SigBit) -> None:
        cbit = sigmap.map_bit(bit)
        if cbit.is_const or cbit in seen_inputs:
            return
        driver = index.comb_driver(cbit)
        if driver is not None and driver.name in kept_names:
            return  # internal signal
        seen_inputs.add(cbit)
        if cbit in known:
            relevant_known[cbit] = known[cbit]
        else:
            input_bits.append(cbit)

    for cell in kept:
        for bit in cell.input_bits():
            classify(bit)
    classify(target)
    # facts about internal signals also constrain the sub-graph
    for bit, value in known.items():
        cbit = sigmap.map_bit(bit)
        if cbit in seen_bits and cbit not in seen_inputs:
            driver = index.comb_driver(cbit)
            if driver is not None and driver.name in kept_names:
                relevant_known[cbit] = value

    return SubGraph(
        target=target,
        cells=kept,
        inputs=input_bits,
        known=relevant_known,
        gates_before=gates_before,
        gates_after=len(kept),
    )


def _reference_reduce_by_support(
    index: NetIndex,
    cells: Dict[str, Cell],
    target: SigBit,
    known: Dict[SigBit, bool],
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
    sigmap = index.sigmap

    # roots of the cones that matter: the target plus known internal bits
    roots: List[SigBit] = [sigmap.map_bit(target)]
    for bit in known:
        cbit = sigmap.map_bit(bit)
        driver = index.comb_driver(cbit)
        if driver is not None and driver.name in cells:
            roots.append(cbit)

    kept_names: Set[str] = set()
    worklist: List[SigBit] = list(roots)
    visited: Set[SigBit] = set(worklist)
    while worklist:
        bit = worklist.pop()
        driver = index.comb_driver(bit)
        if driver is None or driver.name not in cells:
            continue
        if driver.name not in kept_names:
            kept_names.add(driver.name)
            for fbit in (sigmap.map_bit(b) for b in driver.input_bits()):
                if not fbit.is_const and fbit not in visited:
                    visited.add(fbit)
                    worklist.append(fbit)

    # topological order over the kept cells
    order: List[Cell] = []
    state: Dict[str, int] = {}

    def visit(cell: Cell) -> None:
        stack: List[Tuple[Cell, Iterable[SigBit]]] = [
            (cell, iter(cell.input_bits()))
        ]
        state[cell.name] = 0
        while stack:
            current, it = stack[-1]
            advanced = False
            for bit in it:
                driver = index.comb_driver(sigmap.map_bit(bit))
                if driver is None or driver.name not in kept_names:
                    continue
                if state.get(driver.name) is None:
                    state[driver.name] = 0
                    stack.append((driver, iter(driver.input_bits())))
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


def _fig3_module():
    c = Circuit("t")
    A, B, C = c.input("A", 4), c.input("B", 4), c.input("C", 4)
    S, R = c.input("S"), c.input("R")
    sr = c.or_(S, R)
    inner = c.mux(B, A, sr)
    y = c.mux(C, inner, S)
    c.output("Y", y)
    return c.module, sr, S


class TestExtraction:
    def test_target_cone_is_included(self):
        module, sr, S = _fig3_module()
        index = NetIndex(module)
        target = index.sigmap.map_bit(sr[0])
        s_bit = index.sigmap.map_bit(S[0])
        sub = extract_subgraph(index, target, {s_bit: True}, k=3)
        kinds = {cell.type for cell in sub.cells}
        assert CellType.OR in kinds

    def test_distance_zero_gives_empty(self):
        module, sr, S = _fig3_module()
        index = NetIndex(module)
        target = index.sigmap.map_bit(sr[0])
        sub = extract_subgraph(index, target, {}, k=0)
        assert sub.cells == []
        assert target in sub.inputs

    def test_max_gates_bounds_neighbourhood(self):
        c = Circuit("t")
        x = c.input("x", 4)
        value = x
        for _ in range(50):
            value = c.add(value, x)
        target_spec = c.eq(value, 3)
        c.output("y", target_spec)
        index = NetIndex(c.module)
        target = index.sigmap.map_bit(target_spec[0])
        sub = extract_subgraph(index, target, {}, k=60, max_gates=10)
        assert sub.gates_before <= 10

    def test_known_source_excluded_from_inputs(self):
        module, sr, S = _fig3_module()
        index = NetIndex(module)
        target = index.sigmap.map_bit(sr[0])
        s_bit = index.sigmap.map_bit(S[0])
        sub = extract_subgraph(index, target, {s_bit: True}, k=3)
        assert s_bit not in sub.inputs
        assert sub.known.get(s_bit) is True

    def test_sequential_cells_not_crossed(self):
        c = Circuit("t")
        clk = c.input("clk")
        d = c.input("d")
        q = c.dff(clk, d)
        y = c.or_(q, c.input("r"))
        c.output("y", y)
        index = NetIndex(c.module)
        target = index.sigmap.map_bit(y[0])
        sub = extract_subgraph(index, target, {}, k=5)
        assert all(cell.type is not CellType.DFF for cell in sub.cells)
        # the dff Q bit is a free input of the sub-graph
        q_bit = index.sigmap.map_bit(q[0])
        assert q_bit in sub.inputs


class TestReduction:
    def test_unrelated_gates_dismissed(self):
        """Cousin gates in the neighbourhood that cannot affect the target
        are dismissed (the paper's ~80% reduction)."""
        c = Circuit("t")
        S, R = c.input("S"), c.input("R")
        u, v = c.input("u", 4), c.input("v", 4)
        target_sig = c.or_(S, R)
        # a fat cone that READS S (so it sits in the undirected
        # neighbourhood) but feeds neither the target nor a known signal
        noise = c.add(u, c.and_(v, S.repeat(4)))
        noise = c.xor(noise, v)
        c.output("y", target_sig)
        c.output("z", noise)
        index = NetIndex(c.module)
        target = index.sigmap.map_bit(target_sig[0])
        s_bit = index.sigmap.map_bit(S[0])
        sub = extract_subgraph(index, target, {s_bit: True}, k=8)
        assert sub.gates_before > sub.gates_after
        kinds = [cell.type for cell in sub.cells]
        assert CellType.ADD not in kinds
        assert CellType.XOR not in kinds

    def test_known_signal_cone_is_kept(self):
        """Facts about internal signals keep their fanin cones alive."""
        c = Circuit("t")
        a, b = c.input("a"), c.input("b")
        k = c.and_(a, b)        # the known signal's driver
        target_sig = c.or_(a, c.input("r"))
        c.output("y", target_sig)
        c.output("z", k)
        index = NetIndex(c.module)
        target = index.sigmap.map_bit(target_sig[0])
        k_bit = index.sigmap.map_bit(k[0])
        sub = extract_subgraph(index, target, {k_bit: True}, k=8)
        kinds = {cell.type for cell in sub.cells}
        # and(a,b) constrains `a`, which feeds the target: must be kept
        assert CellType.AND in kinds

    def test_cells_topologically_ordered(self):
        module, sr, S = _fig3_module()
        index = NetIndex(module)
        target = index.sigmap.map_bit(sr[0])
        sub = extract_subgraph(index, target, {}, k=8)
        seen = set()
        for cell in sub.cells:
            for bit in cell.input_bits():
                driver = index.comb_driver(index.sigmap.map_bit(bit))
                if driver is not None and driver.name in sub.cell_names:
                    assert driver.name in seen, "fanin after fanout"
            seen.add(cell.name)

    def test_descendants_of_target_dismissed(self):
        c = Circuit("t")
        S, R = c.input("S"), c.input("R")
        target_sig = c.or_(S, R)
        downstream = c.not_(target_sig)   # pure descendant
        c.output("y", downstream)
        index = NetIndex(c.module)
        target = index.sigmap.map_bit(target_sig[0])
        s_bit = index.sigmap.map_bit(S[0])
        sub = extract_subgraph(index, target, {s_bit: True}, k=8)
        assert all(cell.type is not CellType.NOT for cell in sub.cells)


# -- identity with the reference ----------------------------------------------


def _fields(sub: SubGraph) -> Tuple:
    """Everything a consumer reads from a sub-graph, order included."""
    return (sub.target, sub.cells, sub.inputs, list(sub.known.items()),
            sub.gates_before, sub.gates_after)


@pytest.fixture
def checked_extractions(monkeypatch) -> List[bool]:
    """Pair every extraction the smartly pass makes with the reference;
    the returned list holds one ``identical?`` flag per call."""
    real = redundancy.extract_subgraph
    calls: List[bool] = []

    def checked(index, target, known, k=4, max_gates=2000):
        got = real(index, target, known, k=k, max_gates=max_gates)
        want = reference_extract_subgraph(
            index, target, known, k=k, max_gates=max_gates
        )
        calls.append(_fields(got) == _fields(want))
        return got

    monkeypatch.setattr(redundancy, "extract_subgraph", checked)
    return calls


def _assert_all_identical(calls: List[bool]) -> None:
    assert calls, "the run made no extraction"
    assert all(calls), f"{calls.count(False)} of {len(calls)} calls differ"


def _mux_controls(index: NetIndex, module) -> List[SigBit]:
    return [
        index.canonical(bit)
        for cell in module.cells.values()
        if cell.is_mux
        for bit in cell.connections["S"]
    ]


class TestReferenceIdentity:
    @pytest.mark.parametrize("engine", ["incremental", "eager"])
    @pytest.mark.parametrize("case", ["wb_conmax", "ac97_ctrl"])
    def test_smartly_run(self, checked_extractions, case, engine):
        Session(build_case(case), engine=engine).run("smartly")
        _assert_all_identical(checked_extractions)

    def test_fuzz_corpus(self, checked_extractions):
        for seed in CI_CORPUS[:8]:
            Session(random_module(seed, width=8, n_units=4)).run("smartly")
        _assert_all_identical(checked_extractions)

    @pytest.mark.parametrize("k, max_gates, largest", [(0, 2000, 0), (6, 7, 7)])
    def test_distance_and_cap(self, k, max_gates, largest):
        """Facts on every other module input bit, plus facts piling up
        from one control to the next, make known source and internal bits
        both classified; ``max_gates=7`` cuts the BFS mid-frontier."""
        module = random_module(CI_CORPUS[0], width=8, n_units=4)
        index = NetIndex(module)
        facts: Dict[SigBit, bool] = {
            index.canonical(SigBit(wire, i)): i % 4 == 0
            for wire in module.inputs
            for i in range(0, wire.width, 2)
        }
        sizes = []
        for target in _mux_controls(index, module):
            got = extract_subgraph(index, target, facts, k=k, max_gates=max_gates)
            want = reference_extract_subgraph(
                index, target, facts, k=k, max_gates=max_gates
            )
            assert _fields(got) == _fields(want)
            sizes.append(got.gates_before)
            facts[target] = len(facts) % 2 == 0
        assert max(sizes) == largest

    def test_extended_extraction_fuzz(self, request, monkeypatch):
        """Opt-in exploration beyond the fixed corpus (--fuzz-iterations=N):
        each iteration runs smartly twice over a batch of fresh
        ``random_module`` seeds, with default options and with a
        ``max_gates`` small enough to force the capped bit-BFS fallback,
        and checks every extraction against the reference."""
        iterations = request.config.getoption("--fuzz-iterations")
        if not iterations:
            pytest.skip("pass --fuzz-iterations=N to fuzz beyond the fixed corpus")
        real = redundancy.extract_subgraph
        capped = []

        def checked(index, target, known, k=4, max_gates=2000):
            got = real(index, target, known, k=k, max_gates=max_gates)
            want = reference_extract_subgraph(
                index, target, known, k=k, max_gates=max_gates
            )
            assert _fields(got) == _fields(want), (seeds, index.module.name)
            capped.append(got.gates_before == max_gates)
            return got

        monkeypatch.setattr(redundancy, "extract_subgraph", checked)
        for _ in range(iterations):
            seeds = [random.randrange(CI_CORPUS[-1] + 1, 1 << 30)
                     for _ in range(4)]
            for options in (SmartlyOptions(), SmartlyOptions(max_gates=8)):
                for seed in seeds:
                    module = random_module(seed, width=8, n_units=4)
                    Session(module, options=options).run("smartly")
        assert any(capped), "no extraction reached the cap"


class TestLiveIndex:
    def test_rewire_inside_frozen_window(self):
        """The muxtree traversal substitutes constants with ``set_port``
        while the index is frozen: the index maps keep the entry snapshot,
        but extraction must read the rewired cell's live connections."""
        c = Circuit("t")
        a, b, s, r = c.input("a"), c.input("b"), c.input("s"), c.input("r")
        y = c.mux(a, b, s)
        c.output("y", c.or_(y, r))
        c.output("nb", c.not_(b))  # reachable from the mux only through b
        index = c.module.net_index()
        mux = index.comb_driver(y[0])
        target = index.canonical(y[0])
        b_bit = index.canonical(b[0])
        with index.frozen():
            before = extract_subgraph(index, target, {}, k=2)
            assert b_bit in before.inputs
            mux.set_port("B", SigSpec([BIT1]))
            after = extract_subgraph(index, target, {}, k=2)
            want = reference_extract_subgraph(index, target, {}, k=2)
        assert _fields(after) == _fields(want)
        assert b_bit not in after.inputs
        assert (before.gates_before, after.gates_before) == (3, 2)

    @pytest.mark.parametrize("constant", [False, True])
    def test_driver_conflict_raises_on_every_query(self, constant):
        """Aliasing a driven net onto another driven net, or onto a
        constant a kept cell reads, leaves a driver conflict visible.  The
        reference raises (in the constant case from its topological walk,
        which looks up the driver of every input bit), and so must every
        repeated query: a lookup that raised is never memoized."""
        c = Circuit("t")
        a, b = c.input("a"), c.input("b")
        y1, y2 = c.and_(a, 0 if constant else b), c.or_(a, b)
        c.output("y1", y1)
        c.output("y2", y2)
        index = c.module.net_index()
        c.module.connect(y2, 0 if constant else y1)
        target = index.canonical(y1[0])
        for _ in range(2):
            with pytest.raises(DriverConflictError):
                extract_subgraph(index, target, {}, k=2)
            with pytest.raises(DriverConflictError):
                reference_extract_subgraph(index, target, {}, k=2)

    def test_adjacent_rereads_a_rewired_cell(self):
        """A ``set_port`` inside a frozen window leaves the view in place,
        so the adjacency memo must notice the cell's new version."""
        c = Circuit("t")
        a, b, s, r = c.input("a"), c.input("b"), c.input("s"), c.input("r")
        y = c.mux(a, b, s)
        nb = c.not_(b)
        c.output("y", c.or_(y, r))
        c.output("nb", nb)
        index = c.module.net_index()
        mux, inverter = index.comb_driver(y[0]), index.comb_driver(nb[0])
        with index.frozen():
            view = index.canonical_view()
            assert inverter in view.adjacent(mux)
            mux.set_port("B", SigSpec([BIT1]))
            assert index.canonical_view() is view
            assert inverter not in view.adjacent(mux)
            assert mux in view.adjacent(mux)

    def test_driver_conflict_past_the_cap_does_not_raise(self):
        """The cell walk looks up every pin of the ball, but the capped
        BFS stops at ``max_gates`` cells before it reaches the conflicted
        output of the and cell: only where the reference raises may the
        extractor raise."""
        c = Circuit("t")
        t, w, v, e = c.input("t"), c.input("w"), c.input("v"), c.input("e")
        x = c.and_(t, w)
        c.output("y", x)
        c.output("r1", c.not_(w))
        c.output("r2", c.or_(w, v))
        z = c.not_(e)
        c.output("z", z)
        index = c.module.net_index()
        c.module.connect(z, x)  # x's output bit now has two drivers
        target = index.canonical(t[0])
        got = extract_subgraph(index, target, {}, k=2, max_gates=2)
        want = reference_extract_subgraph(index, target, {}, k=2, max_gates=2)
        assert _fields(got) == _fields(want)
        assert got.gates_before == 2
        for extract in (extract_subgraph, reference_extract_subgraph):
            with pytest.raises(DriverConflictError):
                extract(index, target, {}, k=2, max_gates=2000)
