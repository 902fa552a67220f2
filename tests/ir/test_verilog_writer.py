"""Verilog backend: write -> re-read round-trips prove fidelity."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.equiv import check_equivalence
from repro.frontend import compile_verilog
from repro.ir import CellType, Circuit, verilog_str
from repro.sim import Simulator
from tests.conftest import random_circuit


def roundtrip(module):
    """Write as Verilog, recompile, return the new module."""
    text = verilog_str(module)
    return compile_verilog(text).top, text


class TestBasicShapes:
    def test_simple_ops(self):
        c = Circuit("m")
        a, b = c.input("a", 4), c.input("b", 4)
        c.output("y", c.add(c.and_(a, b), 1))
        back, text = roundtrip(c.module)
        assert "module m" in text
        assert Simulator(back).run({"a": 3, "b": 7})["y"] == 4

    def test_mux_and_compare(self):
        c = Circuit("m")
        a, b = c.input("a", 4), c.input("b", 4)
        c.output("y", c.mux(a, b, c.lt(a, b)))
        back, _ = roundtrip(c.module)
        sim = Simulator(back)
        assert sim.run({"a": 2, "b": 9})["y"] == 9
        assert sim.run({"a": 9, "b": 2})["y"] == 9

    def test_pmux_priority_preserved(self):
        c = Circuit("m")
        d = c.input("d", 4)
        x0, x1 = c.input("x0", 4), c.input("x1", 4)
        s0, s1 = c.input("s0"), c.input("s1")
        c.output("y", c.pmux(d, [(s0, x0), (s1, x1)]))
        back, _ = roundtrip(c.module)
        sim = Simulator(back)
        assert sim.run({"d": 9, "x0": 1, "x1": 2, "s0": 1, "s1": 1})["y"] == 1

    def test_reductions_and_logic(self):
        c = Circuit("m")
        a = c.input("a", 4)
        c.output("y1", c.reduce_and(a))
        c.output("y2", c.reduce_xor(a))
        c.output("y3", c.logic_not(a))
        back, _ = roundtrip(c.module)
        sim = Simulator(back)
        out = sim.run({"a": 0b1011})
        assert out == {"y1": 0, "y2": 1, "y3": 0}

    def test_dff_block_emitted(self):
        c = Circuit("m")
        clk = c.input("clk")
        d = c.input("d", 4)
        c.output("q", c.dff(clk, d))
        text = verilog_str(c.module)
        assert "always @(posedge clk)" in text
        back, _ = roundtrip(c.module)
        assert len(list(back.cells_of_type(CellType.DFF))) == 1

    def test_name_sanitisation(self):
        c = Circuit("m")
        a = c.input("a", 2)
        y = c.not_(a)  # auto wire name contains '$' and '.'
        c.output("y", y)
        _back, text = roundtrip(c.module)
        assert "$" not in text and "module" in text


class TestEquivalenceRoundtrip:
    def test_optimized_netlist_roundtrips(self):
        from repro.api import Session

        c = Circuit("m")
        sel = c.input("sel", 2)
        p = [c.input(f"p{i}", 8) for i in range(4)]
        c.output("y", c.case_(sel, [(0, p[0]), (1, p[1]), (2, p[2])], p[3]))
        module = c.module
        Session(module).run("smartly")
        back, _ = roundtrip(module)
        assert check_equivalence(module, back).equivalent

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 100000))
    def test_random_circuits_roundtrip(self, seed):
        module = random_circuit(seed, n_ops=8)
        back, _text = roundtrip(module)
        result = check_equivalence(module, back)
        assert result.equivalent, result.counterexample
