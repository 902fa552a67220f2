"""The Yosys opt_muxtree baseline: Figures 1 and 2, edge cases, and the
muxtree edge rule on the live index."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Session
from repro.core import SatRedundancy
from repro.equiv import assert_equivalent
from repro.equiv.differential import random_module
from repro.frontend import compile_verilog
from repro.ir import CellType, Circuit, NetIndex, SigBit, SigSpec
from repro.opt import OptClean, OptMuxtree
from repro.opt.opt_muxtree import find_internal_edges
from tests.conftest import INSTANCE_TAPPED_MUX, random_circuit


def _figure1():
    """Y = S ? (S ? A : B) : C — the inner mux is redundant."""
    c = Circuit("fig1")
    A, B, C, S = c.input("A", 4), c.input("B", 4), c.input("C", 4), c.input("S")
    inner = c.mux(B, A, S)
    c.output("Y", c.mux(C, inner, S))
    return c.module


def _figure2():
    """Y = S ? (A ? S : B) : C — the data-port S becomes constant 1."""
    c = Circuit("fig2")
    A, B, C, S = c.input("A"), c.input("B"), c.input("C"), c.input("S")
    inner = c.mux(B, S, A)
    c.output("Y", c.mux(C, inner, S))
    return c.module


class TestFigure1:
    def test_inner_mux_bypassed(self):
        m = _figure1()
        gold = m.clone()
        result = OptMuxtree().run(m)
        OptClean().run(m)
        assert result.stats["muxes_bypassed"] == 1
        assert sum(1 for c in m.cells.values() if c.is_mux) == 1
        assert_equivalent(gold, m)

    def test_deep_chain_collapses(self):
        c = Circuit("deep")
        s = c.input("s")
        cones = [c.input(f"x{i}", 4) for i in range(6)]
        value = c.input("base", 4)
        for cone in cones:
            value = c.mux(cone, value, s)
        c.output("y", value)
        m = c.module
        gold = m.clone()
        result = OptMuxtree().run(m)
        OptClean().run(m)
        assert result.stats["muxes_bypassed"] == 5
        assert sum(1 for cell in m.cells.values() if cell.is_mux) == 1
        assert_equivalent(gold, m)


class TestFigure2:
    def test_data_port_substitution(self):
        m = _figure2()
        gold = m.clone()
        result = OptMuxtree().run(m)
        assert result.stats["dataport_bits_substituted"] == 1
        assert_equivalent(gold, m)
        # the substituted bit is now constant 1 in the inner mux B port
        inner = [c for c in m.cells.values()
                 if c.is_mux and c.connections["B"].is_const][0]
        assert inner.connections["B"].const_value() == 1

    def test_substitution_on_a_branch_uses_zero(self):
        c = Circuit("t")
        A, C, S = c.input("A"), c.input("C"), c.input("S")
        inner = c.mux(S, C, A)      # A ? C : S   (S in the A data port)
        c.output("Y", c.mux(inner, C, S))  # S ? C : inner
        m = c.module
        gold = m.clone()
        result = OptMuxtree().run(m)
        assert result.stats.get("dataport_bits_substituted", 0) == 1
        assert_equivalent(gold, m)


class TestPmux:
    def test_nested_pmux_branch_decided(self):
        c = Circuit("t")
        s = c.input("s", 2)
        a, b, d, e = (c.input(n, 4) for n in "abde")
        inner = c.pmux(a, [(s[0:1], b), (s[1:2], d)])
        c.output("y", c.pmux(e, [(s[0:1], inner)]))
        m = c.module
        gold = m.clone()
        result = OptMuxtree().run(m)
        OptClean().run(m)
        assert result.stats["muxes_bypassed"] == 1
        assert_equivalent(gold, m)

    def test_dead_branches_dropped_under_path(self):
        c = Circuit("t")
        s = c.input("s", 2)
        a, b, d, e = (c.input(n, 4) for n in "abde")
        # inner uses s0 again: on the outer default branch s0=0, so the
        # inner's s0 branch is dead
        inner = c.pmux(a, [(s[0:1], b), (s[1:2], d)])
        outer = c.pmux(inner, [(s[0:1], e)])
        c.output("y", outer)
        m = c.module
        gold = m.clone()
        result = OptMuxtree().run(m)
        assert result.stats.get("pmux_branches_removed", 0) >= 1
        assert_equivalent(gold, m)


    @pytest.mark.parametrize("n_branches", [2, 3])
    @pytest.mark.parametrize("make_pass", [OptMuxtree, SatRedundancy])
    def test_child_of_shrunk_pmux_rewires_its_own_branch(
        self, make_pass, n_branches
    ):
        """On the ``s = 0`` path the pmux drops branch 0, so its branch-1
        child moves to index 0 before the child's select ``t = 1``
        bypasses it.  An edge still naming index 1 overflowed the port
        with two branches and rewrote the third branch with three."""
        c = Circuit("t")
        s, t, u = c.input("s"), c.input("t"), c.input("u")
        a, b, d, e, f, g = (c.input(n, 4) for n in "abdefg")
        child = c.mux(a, b, t)
        arms = [(s, d), (t, child), (u, e)][:n_branches]
        c.output("y", c.mux(c.pmux(f, arms), g, s))
        m = c.module
        gold = m.clone()
        result = make_pass().run(m)
        OptClean().run(m)
        assert result.stats["pmux_branches_removed"] == 1
        assert result.stats["muxes_bypassed"] == 1
        assert_equivalent(gold, m)


class TestTreeDiscovery:
    def test_shared_mux_is_not_internal(self):
        c = Circuit("t")
        a, b, s, t = c.input("a", 4), c.input("b", 4), c.input("s"), c.input("t")
        shared = c.mux(a, b, s)
        c.output("y1", c.mux(a, shared, s))
        c.output("y2", c.mux(b, shared, t))
        m = c.module
        index = NetIndex(m)
        edges = find_internal_edges(m, index)
        shared_cell = index.comb_driver(index.sigmap.map_bit(shared[0]))
        assert shared_cell.name not in edges

    def test_shared_mux_not_unsoundly_bypassed(self):
        c = Circuit("t")
        a, b, s, t = c.input("a", 4), c.input("b", 4), c.input("s"), c.input("t")
        shared = c.mux(a, b, s)
        c.output("y1", c.mux(a, shared, s))
        c.output("y2", c.mux(b, shared, t))
        m = c.module
        gold = m.clone()
        OptMuxtree().run(m)
        OptClean().run(m)
        assert_equivalent(gold, m)

    def test_output_mux_is_a_root(self):
        m = _figure1()
        index = NetIndex(m)
        edges = find_internal_edges(m, index)
        assert len(edges) == 1  # only the inner mux is internal

    def test_instance_tapped_mux_is_a_root(self):
        top = compile_verilog(INSTANCE_TAPPED_MUX, top="top").top
        index = NetIndex(top)
        tapped = index.comb_driver(SigBit(top.wires["m"], 0))
        assert tapped.is_mux
        assert tapped.name not in find_internal_edges(top, index)


class TestNoFalsePositives:
    def test_independent_controls_untouched(self):
        c = Circuit("t")
        a, b, d = c.input("a", 4), c.input("b", 4), c.input("d", 4)
        s, t = c.input("s"), c.input("t")
        inner = c.mux(a, b, t)
        c.output("y", c.mux(d, inner, s))
        m = c.module
        result = OptMuxtree().run(m)
        assert not result.changed

    def test_figure3_not_visible_to_baseline(self):
        # dependent-but-different control: baseline must not touch it
        c = Circuit("t")
        A, B, C = c.input("A", 4), c.input("B", 4), c.input("C", 4)
        S, R = c.input("S"), c.input("R")
        inner = c.mux(B, A, c.or_(S, R))
        c.output("Y", c.mux(C, inner, S))
        m = c.module
        result = OptMuxtree().run(m)
        assert not result.changed


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 100000))
def test_random_mux_heavy_circuits_preserved(seed):
    module = random_circuit(seed, n_ops=14, mux_bias=0.7)
    gold = module.clone()
    Session(module).run("yosys")
    assert_equivalent(gold, module)


# -- the edge rule on the live index -----------------------------------------
#
# Both muxtree passes resolve edges against the pass-entry index, which
# in the incremental engine is the live one.  Its answers must equal a
# fresh snapshot's after any edit sequence.  The modules are
# instance-free: after ``INSTANCE_REMOVED`` the live index keeps the
# stale binding bits observable, which is conservative by design.


def _edge_view(edges):
    return {
        child: (edge[0].name, edge[1], edge[2])
        for child, edge in edges.items()
    }


def assert_live_edges_match_fresh(module):
    live = module.net_index()
    assert _edge_view(find_internal_edges(module, live)) == _edge_view(
        find_internal_edges(module, NetIndex(module))
    )


def _source_bits(module):
    bits = []
    for wire in module.wires.values():
        if wire.port_input:
            bits.extend(SigBit(wire, i) for i in range(wire.width))
    return bits


def _mux_edit(rng, module, sources):
    """Random edits biased towards the things edges depend on: mux data
    ports, mux additions/removals, Y-aliasing."""
    muxes = sorted(
        name for name, c in module.cells.items() if c.type is CellType.MUX
    )
    roll = rng.random()
    if roll < 0.3 and muxes:
        # rewire a mux data port — to another mux's Y when possible, which
        # creates/destroys internal edges
        cell = module.cells[rng.choice(muxes)]
        port = rng.choice(["A", "B"])
        width = len(cell.connections[port])
        other = rng.choice(muxes)
        other_y = module.cells[other].connections["Y"]
        if other != cell.name and len(other_y) == width and rng.random() < 0.7:
            cell.set_port(port, other_y)
        else:
            cell.set_port(
                port, SigSpec([rng.choice(sources) for _ in range(width)])
            )
    elif roll < 0.5:
        # add a mux over sources (or over an existing mux's Y)
        width = rng.choice([1, 2])
        a = SigSpec([rng.choice(sources) for _ in range(width)])
        if muxes and rng.random() < 0.5:
            candidate = module.cells[rng.choice(muxes)].connections["Y"]
            if len(candidate) == width:
                a = candidate
        b = SigSpec([rng.choice(sources) for _ in range(width)])
        s = SigSpec([rng.choice(sources)])
        module.add_cell(CellType.MUX, A=a, B=b, S=s)
    elif roll < 0.7 and muxes:
        module.remove_cell(rng.choice(muxes))
    elif roll < 0.85:
        cells = sorted(module.cells)
        if cells:
            module.remove_cell(rng.choice(cells))
    else:
        width = rng.choice([1, 2])
        wire = module.add_wire(width=width)
        module.connect(
            wire, SigSpec([rng.choice(sources) for _ in range(width)])
        )


@pytest.mark.parametrize("seed", range(10))
def test_random_edit_sequences_match_fresh_sweep(seed):
    module = random_module(8000 + seed, width=3, n_units=3)
    rng = random.Random(seed)
    assert_live_edges_match_fresh(module)  # builds the live index
    sources = _source_bits(module)
    for _burst in range(8):
        for _ in range(rng.randint(1, 6)):
            _mux_edit(rng, module, sources)
        assert_live_edges_match_fresh(module)


@pytest.mark.parametrize("seed", range(4))
def test_live_edges_match_fresh_after_full_flows(seed):
    """After real flows — the heaviest edit streams, frozen windows
    included — the live index still yields a fresh sweep's edges."""
    module = random_module(8100 + seed, width=4, n_units=3)
    assert_live_edges_match_fresh(module)
    Session(module).run("smartly")
    assert_live_edges_match_fresh(module)
    Session(module).run("yosys")
    assert_live_edges_match_fresh(module)
