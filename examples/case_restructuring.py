#!/usr/bin/env python3
"""The paper's Listings 1 & 2: case statements restructured through an ADD.

Shows the Figure 5 chain produced by elaboration, the ADD the restructurer
builds (including the variable-order scores from the paper), and the
Figure 7 result: three muxes, zero eq gates.

Run:  python examples/case_restructuring.py
"""

from repro.aig import aig_map
from repro.api import Session
from repro.core import ADD, MuxtreeRestructure, case_table
from repro.equiv import check_equivalence
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


def show(title, module):
    stats = module.stats()
    area = aig_map(module.clone()).num_ands
    cells = {k: v for k, v in stats.items() if not k.startswith("_")}
    print(f"  {title:<28} {cells}  (AIG area {area})")


def main():
    print("Listing 1 — full case over a 2-bit selector")
    module = compile_verilog(LISTING1).top
    golden = module.clone()
    show("elaborated (Figure 5):", module)

    result = MuxtreeRestructure().run(module)
    OptClean().run(module)
    show("restructured (Figure 7):", module)
    print(f"  eq gates disconnected: {result.stats['eq_gates_disconnected']}, "
          f"muxes {result.stats['muxes_removed']} -> "
          f"{result.stats['muxes_added']}")
    assert check_equivalence(golden, module).equivalent
    print("  equivalence: PASSED\n")

    print("Listing 2 — casez priority patterns, variable-order heuristic")
    rows = [
        ({2: True}, "p0"),                      # 3'b1zz
        ({2: False, 1: True}, "p1"),            # 3'b01z
        ({2: False, 1: False, 0: True}, "p2"),  # 3'b001
    ]
    table = tuple(case_table(3, rows, default="p3"))
    for bit, label in ((2, "S2 (paper's good pick)"), (0, "S0 (poor pick)")):
        low, high = ADD._cofactors(table, bit)
        score = len(set(low)) + len(set(high))
        print(f"  split on {label:<24}: terminal score {score}")
    add = ADD(3, table)
    print(f"  greedy ADD: {add.num_internal_nodes} muxes "
          f"(root splits on S{add.root.var}), depth {add.depth()}")

    module = compile_verilog(LISTING2).top
    golden = module.clone()
    show("elaborated:", module)
    Session(module).run("smartly")
    show("after smaRTLy:", module)
    assert check_equivalence(golden, module).equivalent
    print("  equivalence: PASSED")


if __name__ == "__main__":
    main()
