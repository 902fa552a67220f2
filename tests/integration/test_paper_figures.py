"""Every figure/listing of the paper as an executable integration test."""

import pytest

from repro.aig import aig_map
from repro.api import PRESET_NAMES, Session
from repro.core import SatRedundancy, MuxtreeRestructure
from repro.equiv import assert_equivalent
from repro.frontend import compile_verilog
from repro.ir import CellType, Circuit
from repro.opt import OptClean, OptMuxtree


class TestFigure1:
    """Same-control ancestor: Y = S ? (S ? A : B) : C  ->  Y = S ? A : C."""

    def test_yosys_baseline_handles_it(self):
        c = Circuit("fig1")
        A, B, C, S = c.input("A", 4), c.input("B", 4), c.input("C", 4), c.input("S")
        c.output("Y", c.mux(C, c.mux(B, A, S), S))
        m = c.module
        gold = m.clone()
        OptMuxtree().run(m)
        OptClean().run(m)
        assert sum(1 for x in m.cells.values() if x.is_mux) == 1
        assert_equivalent(gold, m)


class TestFigure2:
    """Data port equals ancestor control: the S in the data becomes 1."""

    def test_yosys_baseline_substitutes(self):
        c = Circuit("fig2")
        A, B, C, S = c.input("A"), c.input("B"), c.input("C"), c.input("S")
        inner = c.mux(B, S, A)      # A ? S : B
        c.output("Y", c.mux(C, inner, S))
        m = c.module
        gold = m.clone()
        result = OptMuxtree().run(m)
        assert result.stats["dataport_bits_substituted"] == 1
        assert_equivalent(gold, m)


class TestFigure3:
    """Dependent controls: Y = S ? ((S|R) ? A : B) : C -> Y = S ? A : C."""

    def _build(self):
        c = Circuit("fig3")
        A, B, C = c.input("A", 4), c.input("B", 4), c.input("C", 4)
        S, R = c.input("S"), c.input("R")
        c.output("Y", c.mux(C, c.mux(B, A, c.or_(S, R)), S))
        return c.module

    def test_baseline_blind_smartly_sees(self):
        baseline = self._build()
        assert not OptMuxtree().run(baseline).changed

        m = self._build()
        gold = m.clone()
        SatRedundancy().run(m)
        OptClean().run(m)
        assert sum(1 for x in m.cells.values() if x.is_mux) == 1
        assert_equivalent(gold, m)


class TestFigure4:
    """Theorem II.1 sub-graph reduction dismisses unrelated gates."""

    def test_reduction_percentage_reported(self):
        from repro.core import extract_subgraph
        from repro.ir import NetIndex

        c = Circuit("fig4")
        S, R = c.input("S"), c.input("R")
        target = c.or_(S, R)
        # unrelated-but-connected logic: descendants and cousins of S
        noise = c.and_(S.repeat(4), c.input("u", 4))
        noise = c.add(noise, c.input("v", 4))
        c.output("y", target)
        c.output("z", noise)
        index = NetIndex(c.module)
        t_bit = index.sigmap.map_bit(target[0])
        s_bit = index.sigmap.map_bit(S[0])
        sub = extract_subgraph(index, t_bit, {s_bit: True}, k=8)
        assert sub.gates_after < sub.gates_before


LISTING1 = """
module listing1(input [1:0] S, input [7:0] p0, p1, p2, p3,
                output reg [7:0] Y);
  always @* begin
    case (S)
      2'b00: Y = p0;
      2'b01: Y = p1;
      2'b10: Y = p2;
      default: Y = p3;
    endcase
  end
endmodule
"""

LISTING2 = """
module listing2(input [2:0] S, input [3:0] p0, p1, p2, p3,
                output reg [3:0] Y);
  always @* begin
    casez (S)
      3'b1zz: Y = p0;
      3'b01z: Y = p1;
      3'b001: Y = p2;
      default: Y = p3;
    endcase
  end
endmodule
"""


class TestListings:
    def test_listing1_figure5_chain_shape(self):
        m = compile_verilog(LISTING1).top
        stats = m.stats()
        assert stats["eq"] == 3 and stats["mux"] == 3  # Figure 5

    def test_listing1_figure7_rebuild(self):
        m = compile_verilog(LISTING1).top
        gold = m.clone()
        Session(m).run("smartly")
        stats = m.stats()
        assert stats.get("eq", 0) == 0       # eq gates disconnected
        assert stats.get("mux", 0) == 3      # Figure 7: three muxes
        assert_equivalent(gold, m)

    def test_listing2_good_assignment(self):
        m = compile_verilog(LISTING2).top
        gold = m.clone()
        result = MuxtreeRestructure().run(m)
        OptClean().run(m)
        assert result.stats["muxes_added"] == 3  # good order: 3, not 7
        assert_equivalent(gold, m)


class TestCombinedPipeline:
    def test_full_beats_parts_on_mixed_circuit(self):
        c = Circuit("mixed")
        sel = c.input("sel", 2)
        S, R = c.input("S"), c.input("R")
        d = [c.input(f"d{i}", 8) for i in range(4)]
        case_part = c.case_(sel, [(0, d[0]), (1, d[1]), (2, d[0])], d[1])
        sat_part = c.mux(d[2], c.mux(d[1], d[0], c.or_(S, R)), S)
        c.output("y", c.xor(case_part, sat_part))
        m = c.module

        areas = {}
        for preset in PRESET_NAMES:
            work = m.clone()
            Session(work).run(preset)
            assert_equivalent(m, work)
            areas[preset] = aig_map(work).num_ands
        assert areas["yosys"] <= areas["none"]
        assert areas["smartly"] <= min(areas.values())
        assert areas["smartly"] < areas["yosys"]
