"""Live-index memory hygiene: alias-map generation compaction.

The live ``NetIndex`` keeps alias-map entries for dead bits — safe, but
unbounded: a long session that churns cells and aliases (every
optimization run does) would grow the map forever.  Compaction rewrites
it over exactly the live bits when dead entries dominate, and it must do
so *without changing any live bit's representative* (driver/reader maps
are keyed by those representatives).  It happens at one point only: when
a ``PassManager.run`` ends, where no raw bit of a round carry is held.
"""

from __future__ import annotations

from repro.api import Design, Session
from repro.ir import Circuit
from repro.ir.cells import CellType
from repro.ir.module import SigMap
from repro.ir.signals import SigBit
from repro.ir.walker import NetIndex
from repro.opt.opt_clean import OptClean
from repro.opt.pass_base import Pass, PassManager


def _churn_module():
    c = Circuit("churn")
    a = c.input("a", 4)
    b = c.input("b", 4)
    c.output("y", c.xor(a, b))
    return c.module


def _mux_module():
    """A churnable module (inputs ``a``, ``b``) with a mux whose select
    repeats its parent's, which smartly removes."""
    c = Circuit("churn")
    a = c.input("a", 4)
    b = c.input("b", 4)
    s = c.input("s")
    c.output("y", c.mux(b, c.mux(b, a, s), s))
    return c.module


def _churn_once(module, i):
    """One add-alias-kill cycle: the shape every optimization run leaves
    behind (bypassed cell, dead alias, reaped wire)."""
    cell = module.add_cell(CellType.NOT, A=module.wire("a"))
    tmp = module.add_wire(f"tmp{i}", 4)
    module.connect(tmp, cell.connections["Y"])
    module.remove_cell(cell)
    tmp_wires = {id(tmp)}
    module.replace_connections(
        (lhs, rhs)
        for lhs, rhs in module.connections
        if not any(id(w) in tmp_wires for w in lhs.wires())
    )
    module.remove_wire(tmp)


def _churn_and_run(module, i):
    """One churn cycle, then a pipeline run: the run's end is where the
    live alias map may compact."""
    _churn_once(module, i)
    PassManager([OptClean()]).run(module)


class _ChurnPass(Pass):
    """Churns its module ``cycles`` times inside one pass, noting the
    compaction count after every cycle."""

    name = "churn"

    def __init__(self, cycles):
        self.cycles = cycles
        self.seen = set()

    def execute(self, module, result):
        index = module.net_index()
        for i in range(self.cycles):
            _churn_once(module, i)
            self.seen.add(index.compactions)


def _assert_matches_fresh(index, module):
    fresh = NetIndex(module)
    assert {
        bit: entry[0].name for bit, entry in index.driver.items()
    } == {bit: entry[0].name for bit, entry in fresh.driver.items()}
    for wire in module.wires.values():
        for j in range(wire.width):
            bit = SigBit(wire, j)
            assert index.canonical(bit) == fresh.canonical(bit)
            assert index.is_source(bit) == fresh.is_source(bit)
    assert [c.name for c in index.topo_cells()] == [
        c.name for c in fresh.topo_cells()
    ]


class TestSigMapCompact:
    def test_representatives_preserved_for_live_bits(self):
        c = Circuit("m")
        a = c.input("a", 2)
        module = c.module
        w1 = module.add_wire("w1", 2)
        w2 = module.add_wire("w2", 2)
        module.connect(w1, a)
        module.connect(w2, w1)
        sigmap = module.sigmap()
        live = [SigBit(w2, 0), SigBit(w2, 1), SigBit(a.wires()[0], 0)]
        before = {bit: sigmap.map_bit(bit) for bit in live}
        dead = SigBit(w1, 0)
        assert sigmap.map_bit(dead) != dead  # has a non-trivial entry
        dropped = sigmap.compact(live)
        assert dropped > 0
        for bit, rep in before.items():
            assert sigmap.map_bit(bit) == rep
        # the compacted-away bit now maps to itself (fresh-build semantics
        # for bits nothing references)
        assert sigmap.map_bit(dead) == dead

    def test_empty_compact_is_noop(self):
        sigmap = SigMap()
        assert sigmap.compact([]) == 0


class TestLongSessionCompaction:
    def test_union_find_stays_bounded_over_long_sessions(self):
        module = _churn_module()
        index = module.net_index()
        baseline = None
        for i in range(2000):
            _churn_and_run(module, i)
            if i == 20:
                # growth rate before any compaction could have fired
                baseline = len(index.sigmap)
        assert index.compactions > 0
        # without compaction the structure would hold ~4 entries per
        # iteration (8000+); with it, the population stays near the live
        # bit count
        assert len(index.sigmap) < max(512, 4 * baseline), (
            len(index.sigmap), baseline, index.compactions
        )

    def test_compacted_index_still_matches_fresh_build(self):
        module = _churn_module()
        index = module.net_index()
        for i in range(2000):
            _churn_and_run(module, i)
        assert index.compactions > 0
        _assert_matches_fresh(index, module)

    def test_compaction_waits_for_the_run_to_end(self):
        """A pass that churns far past the threshold never sees the map
        compact under it; the run compacts once, on its way out."""
        module = _churn_module()
        index = module.net_index()
        churn = _ChurnPass(2000)
        PassManager([churn]).run(module)
        assert churn.seen == {0}
        assert index.compactions == 1
        assert len(index.sigmap) < 256
        _assert_matches_fresh(index, module)

    def test_no_compaction_inside_a_frozen_window(self):
        """A window's buffered deindexes still need the dead entries, so
        a run that ends inside one leaves the map alone."""
        module = _churn_module()
        index = module.net_index()
        for i in range(200):
            _churn_once(module, i)
        with index.frozen():
            PassManager([OptClean()]).run(module)
            assert index.compactions == 0
        PassManager([OptClean()]).run(module)
        assert index.compactions == 1
        _assert_matches_fresh(index, module)

    def test_queries_stay_correct_throughout_churn(self):
        module = _churn_module()
        index = module.net_index()
        y_wire = module.wire("y")
        for i in range(600):
            _churn_and_run(module, i)
            if i % 97 == 0:
                driver = index.driver_cell(SigBit(y_wire, 0))
                assert driver is not None and driver.type is CellType.XOR
        assert index.compactions > 0


def _redundant_output(module, name):
    """Add an output driven by another repeated-select mux pair: an edit
    a seeded re-run has to optimize."""
    c = Circuit(module=module)
    a, b, s = module.wire("a"), module.wire("b"), module.wire("s")
    c.output(name, c.mux(a, c.mux(a, b, s), s))


def _eager_area(module):
    return Session(module, engine="eager").run("smartly").optimized_area


class TestSessionWindows:
    """A Session's edit window holds raw bits; only a pipeline run can
    compact the map they resolve through."""

    def test_edits_without_a_run_never_compact(self):
        module = _mux_module()
        session = Session(module)
        session.run("smartly")
        index = module.net_index()
        for i in range(2000):
            _churn_once(module, i)
        _redundant_output(module, "z")
        assert index.compactions == 0
        assert len(index.sigmap) > 256
        expected = _eager_area(module.clone())
        report = session.run("smartly")
        assert report.design_cache == "seeded"
        assert report.optimized_area == expected

    def test_another_sessions_run_voids_the_window(self):
        module = _mux_module()
        design = Design(module)
        first = Session(design)
        first.run("smartly")
        index = module.net_index()
        for i in range(2000):
            _churn_once(module, i)
        _redundant_output(module, "z")
        with Session(design) as second:
            second.run("yosys")
        assert index.compactions == 1
        expected = _eager_area(module.clone())
        report = first.run("smartly")
        assert report.design_cache == "none"
        assert report.optimized_area == expected
