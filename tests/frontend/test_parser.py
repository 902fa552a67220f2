"""Parser structure tests."""

import pytest

from repro.frontend import parse_source
from repro.frontend.ast import (
    Assign,
    Binary,
    Block,
    Case,
    Concat,
    Ident,
    If,
    Index,
    Number,
    RangeSelect,
    Repeat,
    Ternary,
    Unary,
)
from repro.frontend.lexer import FrontendError


def parse_module(text):
    source = parse_source(text)
    assert len(source.modules) == 1
    return source.modules[0]


class TestModuleHeaders:
    def test_ansi_ports(self):
        m = parse_module(
            "module m(input [3:0] a, b, output reg [1:0] y); endmodule"
        )
        assert m.ports == ["a", "b", "y"]
        decls = {n.name: n for n in m.nets}
        assert decls["a"].is_input and decls["y"].is_output
        assert decls["y"].kind == "reg"

    def test_body_redeclaration_of_ansi_port_is_one_net(self):
        m = parse_module(
            "module m(input a, output q); reg q; always @* q = a; endmodule"
        )
        assert [n.name for n in m.nets] == ["a", "q"]
        assert m.nets[1].kind == "reg" and m.nets[1].is_output

    def test_escaped_keyword_is_an_identifier(self):
        m = parse_module(
            "module m(input a, output y); wire \\module ; "
            "assign \\module = a; assign y = \\module ; endmodule"
        )
        assert [n.name for n in m.nets] == ["a", "y", "module"]
        assert len(m.assigns) == 2

    def test_1995_ports(self):
        m = parse_module(
            """
            module m(a, y);
              input [3:0] a;
              output [3:0] y;
              assign y = a;
            endmodule
            """
        )
        assert m.ports == ["a", "y"]
        decls = {n.name: n for n in m.nets}
        assert decls["a"].is_input and decls["y"].is_output

    def test_parameters(self):
        m = parse_module(
            "module m #(parameter W = 8) (input [W-1:0] a); endmodule"
        )
        assert m.params[0].name == "W"

    def test_local_parameters(self):
        m = parse_module(
            "module m(); localparam X = 4; parameter Y = X + 1; endmodule"
        )
        assert [p.name for p in m.params] == ["X", "Y"]

    def test_multiple_modules(self):
        source = parse_source("module a(); endmodule module b(); endmodule")
        assert [m.name for m in source.modules] == ["a", "b"]


class TestExpressions:
    def _expr(self, text):
        m = parse_module(f"module m(); assign x = {text}; endmodule")
        return m.assigns[0].value

    def test_precedence_and_over_or(self):
        e = self._expr("a | b & c")
        assert isinstance(e, Binary) and e.op == "|"
        assert isinstance(e.right, Binary) and e.right.op == "&"

    def test_precedence_compare_over_logical(self):
        e = self._expr("a == b && c")
        assert e.op == "&&"
        assert e.left.op == "=="

    def test_ternary(self):
        e = self._expr("s ? a : b")
        assert isinstance(e, Ternary)

    def test_nested_ternary_right_assoc(self):
        e = self._expr("s ? a : t ? b : c")
        assert isinstance(e.else_value, Ternary)

    def test_unary_reduction(self):
        e = self._expr("&a | ^b")
        assert e.op == "|"
        assert isinstance(e.left, Unary) and e.left.op == "&"

    def test_index_and_range(self):
        assert isinstance(self._expr("a[3]"), Index)
        e = self._expr("a[7:4]")
        assert isinstance(e, RangeSelect)

    def test_concat_and_repeat(self):
        e = self._expr("{a, b, 2'b01}")
        assert isinstance(e, Concat) and len(e.parts) == 3
        r = self._expr("{4{a}}")
        assert isinstance(r, Repeat)

    def test_parentheses(self):
        e = self._expr("(a | b) & c")
        assert e.op == "&" and e.left.op == "|"


class TestStatements:
    def _always(self, body):
        m = parse_module(f"module m(); always @* begin {body} end endmodule")
        return m.always_blocks[0].stmt

    def test_if_else(self):
        stmt = self._always("if (a) x = 1; else x = 2;")
        assert isinstance(stmt, Block)
        branch = stmt.statements[0]
        assert isinstance(branch, If)
        assert branch.else_stmt is not None

    def test_dangling_else_binds_inner(self):
        stmt = self._always("if (a) if (b) x = 1; else x = 2;")
        outer = stmt.statements[0]
        assert outer.else_stmt is None
        assert outer.then_stmt.else_stmt is not None

    def test_case_with_default(self):
        stmt = self._always(
            "case (s) 2'b00: x = 1; 2'b01, 2'b10: x = 2; default: x = 3; endcase"
        )
        case = stmt.statements[0]
        assert isinstance(case, Case)
        assert len(case.items) == 3
        assert len(case.items[1].patterns) == 2
        assert case.items[2].patterns == []

    def test_casez_flag(self):
        stmt = self._always("casez (s) 2'b1z: x = 1; endcase")
        assert stmt.statements[0].casez

    def test_casex_rejected(self):
        with pytest.raises(FrontendError):
            self._always("casex (s) 2'b1x: x = 1; endcase")

    def test_nonblocking_assign(self):
        m = parse_module(
            "module m(); always @(posedge clk) q <= d; endmodule"
        )
        block = m.always_blocks[0]
        assert block.clock == "clk"
        assert not block.stmt.blocking

    def test_negedge_rejected(self):
        with pytest.raises(FrontendError):
            parse_module("module m(); always @(negedge clk) q <= d; endmodule")

    def test_concat_lvalue(self):
        m = parse_module("module m(); assign {a, b} = c; endmodule")
        assert isinstance(m.assigns[0].target, Concat)


class TestErrors:
    def test_missing_semicolon(self):
        with pytest.raises(FrontendError, match="parse error"):
            parse_module("module m() endmodule")

    def test_garbage_module_item(self):
        with pytest.raises(FrontendError):
            parse_module("module m(); banana; endmodule")

    def test_integer_decl_unsupported(self):
        with pytest.raises(FrontendError):
            parse_module("module m(); integer i; endmodule")

    @pytest.mark.parametrize("prefix", ["", "8'd"], ids=["plain", "based"])
    def test_overlong_decimal_literal(self, prefix):
        # more decimal digits than int() converts (4,300 by default) used
        # to escape as a raw ValueError
        source = (f"module m(output [7:0] y); assign y = {prefix}{'9' * 5000};"
                  " endmodule")
        with pytest.raises(FrontendError,
                           match=r"^parse error at 1:38: decimal literal ") as info:
            parse_module(source)
        assert f"{prefix}9999" in str(info.value)
