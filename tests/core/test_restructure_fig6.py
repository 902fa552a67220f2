"""Figure 6 — muxtrees with or-of-eq (disjunctive) controls.

The paper's Figure 6 shows the full-binary-tree form of a case statement
where the root control is an OR of equality tests.  The restructurer
expands such disjunctions into one priority row per cube, so these trees
rebuild just like plain chains.
"""

import pytest

from repro.api import Session
from repro.core import MuxtreeRestructure
from repro.equiv import assert_equivalent
from repro.ir import CellType, Circuit, SigSpec
from repro.opt import OptClean
from repro.sim import Simulator


def _figure6(width=8):
    """The paper's Figure 6: balanced tree for Listing 1."""
    c = Circuit("fig6")
    S = c.input("S", 2)
    p = [c.input(f"p{i}", width) for i in range(4)]
    left = c.mux(p[1], p[0], c.eq(S, 0))       # 00 ? p0 : p1
    right = c.mux(p[3], p[2], c.eq(S, 2))      # 10 ? p2 : p3
    root_ctrl = c.or_(c.eq(S, 0), c.eq(S, 1))  # select left for 00/01
    c.output("Y", c.mux(right, left, root_ctrl))
    return c.module


def test_figure6_function():
    sim = Simulator(_figure6())
    base = {"p0": 10, "p1": 11, "p2": 12, "p3": 13}
    for sel, want in [(0, 10), (1, 11), (2, 12), (3, 13)]:
        assert sim.run(dict(base, S=sel))["Y"] == want


def test_figure6_tree_recognised_and_rebuilt():
    m = _figure6()
    gold = m.clone()
    result = MuxtreeRestructure().run(m)
    OptClean().run(m)
    assert result.stats.get("trees_found", 0) == 1
    assert result.stats.get("trees_rebuilt", 0) == 1
    assert_equivalent(gold, m)


def test_figure6_full_flow_removes_all_eq():
    """With the SAT stage helping, the whole structure reaches the
    Figure-7 form: selector-driven muxes, no comparison gates."""
    m = _figure6()
    gold = m.clone()
    Session(m).run("smartly")
    assert_equivalent(gold, m)
    stats = m.stats()
    assert stats.get("or", 0) == 0  # the disjunction gate is gone


def test_disjunction_with_unreachable_cube():
    c = Circuit("t")
    S = c.input("S", 2)
    a, b = c.input("a", 4), c.input("b", 4)
    # or(eq(S,1), eq(S,1)): duplicate cube — must not duplicate semantics
    ctrl = c.or_(c.eq(S, 1), c.eq(S, 1))
    c.output("Y", c.mux(a, b, ctrl))
    m = c.module
    gold = m.clone()
    MuxtreeRestructure(min_tree_muxes=1).run(m)
    OptClean().run(m)
    assert_equivalent(gold, m)


def test_disjunction_across_signals_violates_single_ctrl():
    """``or(eq(S,0), t)`` mixes two selector signals: the paper's
    SingleCtrl condition fails, so the tree is left for the SAT stage."""
    c = Circuit("t")
    S = c.input("S", 2)
    t = c.input("t")
    a, b, d = c.input("a", 4), c.input("b", 4), c.input("d", 4)
    inner = c.mux(a, b, c.eq(S, 1))
    ctrl = c.or_(c.eq(S, 0), t)
    c.output("Y", c.mux(inner, d, ctrl))
    m = c.module
    gold = m.clone()
    result = MuxtreeRestructure().run(m)
    OptClean().run(m)
    assert result.stats.get("trees_found", 0) == 0
    assert_equivalent(gold, m)


def test_disjunction_of_non_eq_rejected():
    c = Circuit("t")
    S = c.input("S", 2)
    x, y = c.input("x"), c.input("y")
    a, b, d = c.input("a", 4), c.input("b", 4), c.input("d", 4)
    inner = c.mux(a, b, c.eq(S, 1))
    ctrl = c.or_(c.eq(S, 0), c.and_(x, y))  # and(x,y) is not an eq-form
    c.output("Y", c.mux(inner, d, ctrl))
    m = c.module
    gold = m.clone()
    result = MuxtreeRestructure().run(m)
    OptClean().run(m)
    # the root is not a case tree, but nothing may break either
    assert result.stats.get("trees_found", 0) == 0
    assert_equivalent(gold, m)


def test_three_way_disjunction():
    c = Circuit("t")
    S = c.input("S", 3)
    a, b = c.input("a", 8), c.input("b", 8)
    inner = c.mux(a, b, c.eq(S, 3))
    ctrl = c.or_(c.or_(c.eq(S, 0), c.eq(S, 1)), c.eq(S, 2))
    c.output("Y", c.mux(inner, b, ctrl))
    m = c.module
    gold = m.clone()
    MuxtreeRestructure().run(m)
    OptClean().run(m)
    assert_equivalent(gold, m)
