"""The Yosys opt_muxtree baseline: Figures 1 and 2 plus edge cases."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Session
from repro.equiv import assert_equivalent
from repro.ir import CellType, Circuit, NetIndex, SigSpec
from repro.opt import OptClean, OptMuxtree
from repro.opt.opt_muxtree import find_internal_edges
from tests.conftest import random_circuit


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
