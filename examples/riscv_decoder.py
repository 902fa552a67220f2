#!/usr/bin/env python3
"""A RISC-V-flavoured ALU/decoder written in Verilog, optimized end to end.

Decoders are the circuits the paper's ``riscv`` benchmark row represents:
wide case statements over opcode/funct fields with heavily shared
right-hand sides.  The example compiles the Verilog, runs the full smaRTLy
pipeline, and reports the per-pass effect.

Run:  python examples/riscv_decoder.py
"""

from repro.aig import aig_map, aig_stats
from repro.api import Session
from repro.equiv import check_equivalence
from repro.frontend import compile_verilog

DECODER = """
module rv_alu_decoder(
    input  [6:0] opcode,
    input  [2:0] funct3,
    input        funct7b5,
    input  [7:0] rs1, rs2, imm,
    output reg [7:0] result,
    output reg       use_imm
);
  reg [7:0] operand_b;
  reg [3:0] alu_op;

  always @* begin
    // operand select: several opcodes share the immediate path
    case (opcode)
      7'b0010011: use_imm = 1;   // OP-IMM
      7'b0000011: use_imm = 1;   // LOAD
      7'b0100011: use_imm = 1;   // STORE
      7'b1100111: use_imm = 1;   // JALR
      default:    use_imm = 0;
    endcase
    operand_b = use_imm ? imm : rs2;

    // ALU operation: funct3 decodes to few distinct ops
    casez ({funct7b5, funct3})
      4'b0000: alu_op = 4'd0;   // ADD
      4'b1000: alu_op = 4'd1;   // SUB
      4'b0111: alu_op = 4'd2;   // AND
      4'b0110: alu_op = 4'd3;   // OR
      4'b0100: alu_op = 4'd4;   // XOR
      4'b0010: alu_op = 4'd5;   // SLT
      default: alu_op = 4'd0;
    endcase

    case (alu_op)
      4'd0: result = rs1 + operand_b;
      4'd1: result = rs1 - operand_b;
      4'd2: result = rs1 & operand_b;
      4'd3: result = rs1 | operand_b;
      4'd4: result = rs1 ^ operand_b;
      4'd5: result = {7'b0, rs1 < operand_b};
      default: result = rs1;
    endcase
  end
endmodule
"""


def main():
    module = compile_verilog(DECODER).top
    golden = module.clone()
    print(f"elaborated cells: {module.stats()}")
    print(f"original        : {aig_stats(aig_map(module.clone()))}")

    yosys = Session(module.clone()).run("yosys")
    print(f"Yosys baseline  : {yosys.stats}")

    smartly = Session(module).run("smartly")
    print(f"smaRTLy         : {smartly.stats}")

    result = check_equivalence(golden, module)
    assert result.equivalent, result.counterexample
    print("equivalence     : PASSED")

    yosys_area = yosys.optimized_area
    smartly_area = smartly.optimized_area
    if yosys_area:
        print(f"extra reduction : "
              f"{100 * (yosys_area - smartly_area) / yosys_area:.2f}% vs Yosys")


if __name__ == "__main__":
    main()
