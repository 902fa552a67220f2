"""Figures 5-7 + Listings 1-2 — muxtree restructuring micro-benches.

* Listing 1 (Figure 5 -> Figure 7): the eq+mux chain becomes 3 muxes with
  every eq gate disconnected.
* Listing 2: the ADD variable heuristic picks S2 first (3 muxes); the
  assertion pins the paper's good-vs-bad order gap by also costing the
  forced-bad order.
"""

import pytest

from repro.aig import aig_map
from repro.api import Session
from repro.core import ADD, MuxtreeRestructure, case_table
from repro.equiv import assert_equivalent
from repro.frontend import compile_verilog
from repro.opt import OptClean

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


def test_listing1_rebuild(benchmark):
    def transform():
        module = compile_verilog(LISTING1).top
        MuxtreeRestructure().run(module)
        OptClean().run(module)
        return module

    module = benchmark(transform)
    stats = module.stats()
    assert stats.get("eq", 0) == 0
    assert stats.get("mux", 0) == 3
    assert_equivalent(compile_verilog(LISTING1).top, module)


def test_listing1_area_gain(benchmark):
    gold = compile_verilog(LISTING1).top
    before = aig_map(gold.clone()).num_ands

    def full_flow():
        module = compile_verilog(LISTING1).top
        return Session(module).run("smartly").optimized_area

    after = benchmark(full_flow)
    assert after < before


def test_listing2_heuristic_order(benchmark):
    """Good assignment -> 3 muxes; the naive S0-first order costs 7."""
    rows = [
        ({2: True}, "p0"),
        ({2: False, 1: True}, "p1"),
        ({2: False, 1: False, 0: True}, "p2"),
    ]
    table = case_table(3, rows, default="p3")

    add = benchmark(lambda: ADD(3, table))
    assert add.num_internal_nodes == 3
    assert add.root.var == 2  # S2 chosen first, as in the paper

    # force the poor order by cofactoring on S0 first manually
    low0, high0 = ADD._cofactors(tuple(table), 0)
    bad_nodes = (
        ADD(2, low0).num_internal_nodes + ADD(2, high0).num_internal_nodes + 1
    )
    assert bad_nodes > add.num_internal_nodes  # 7 vs 3 in the paper


def test_listing2_rebuild_matches_paper(benchmark):
    def transform():
        module = compile_verilog(LISTING2).top
        result = MuxtreeRestructure().run(module)
        OptClean().run(module)
        return module, result

    module, result = benchmark(transform)
    assert result.stats["muxes_added"] == 3
    assert result.stats["eq_gates_disconnected"] == 3
    assert_equivalent(compile_verilog(LISTING2).top, module)


def test_wide_collapsible_chain(benchmark):
    """Scaled Figure-5 chain: 31 arms, 4 distinct values."""
    from repro.ir import Circuit

    def build():
        c = Circuit("wide")
        S = c.input("S", 5)
        pool = [c.input(f"p{i}", 8) for i in range(4)]
        arms = [(i, pool[i % 4]) for i in range(31)]
        c.output("Y", c.case_(S, arms, pool[0]))
        return c.module

    gold = build()
    before = aig_map(gold.clone()).num_ands

    def transform():
        module = build()
        MuxtreeRestructure().run(module)
        OptClean().run(module)
        return module

    module = benchmark(transform)
    after = aig_map(module).num_ands
    assert after < 0.5 * before  # the chain collapses dramatically
    assert_equivalent(gold, module)
