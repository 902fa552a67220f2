"""Lexer and literal parsing."""

import pytest

from repro.frontend import compile_verilog
from repro.frontend.lexer import (
    FrontendError,
    TokKind,
    parse_based_literal,
    tokenize,
)


def kinds(text):
    return [(t.kind, t.text) for t in tokenize(text)[:-1]]


class TestTokens:
    def test_identifiers_and_keywords(self):
        toks = kinds("module foo_1 $bar endmodule")
        assert toks[0] == (TokKind.KEYWORD, "module")
        assert toks[1] == (TokKind.IDENT, "foo_1")
        assert toks[2] == (TokKind.IDENT, "$bar")
        assert toks[3] == (TokKind.KEYWORD, "endmodule")

    def test_numbers(self):
        toks = kinds("42 8'hFF 3'b01z 12")
        assert toks[0] == (TokKind.NUMBER, "42")
        assert toks[1] == (TokKind.BASED_NUMBER, "8'hFF")
        assert toks[2] == (TokKind.BASED_NUMBER, "3'b01z")

    def test_two_char_operators(self):
        toks = kinds("a <= b == c && d")
        ops = [t for k, t in toks if k == TokKind.OP]
        assert ops == ["<=", "==", "&&"]

    def test_comments_skipped(self):
        toks = kinds("a // line comment\n b /* block \n comment */ c")
        assert [t for _k, t in toks] == ["a", "b", "c"]

    def test_unterminated_block_comment(self):
        with pytest.raises(FrontendError):
            tokenize("/* oops")

    def test_position_tracking(self):
        tok = tokenize("\n\n  foo")[0]
        assert tok.line == 3 and tok.col == 3

    def test_underscores_in_numbers(self):
        toks = kinds("1_000")
        assert toks[0] == (TokKind.NUMBER, "1000")

    def test_junk_rejected(self):
        with pytest.raises(FrontendError):
            tokenize("`define")

    def test_error_positions(self):
        for source, message in [
            ("a\n  /* open", "lex error at 2:3: unterminated block comment"),
            ("x = 8'q1", "lex error at 1:5: bad based literal"),
            ("/* \n */ 4'h;", "lex error at 2:5: empty based literal"),
            ("a\n\tb `c", "lex error at 2:4: unexpected character '`'"),
        ]:
            with pytest.raises(FrontendError) as info:
                tokenize(source)
            assert str(info.value) == message

    def test_escaped_identifier(self):
        toks = kinds("\\module \\a+b\tc")
        assert toks == [(TokKind.IDENT, "module"), (TokKind.IDENT, "a+b"),
                        (TokKind.IDENT, "c")]
        # any str.isspace character ends it, though only [ \t\r\n] are
        # whitespace tokens
        with pytest.raises(FrontendError,
                           match=r"^lex error at 1:3: unexpected character '\\x1c'$"):
            tokenize("\\a\x1cb")


class TestAsciiOnly:
    """Simple identifiers and numbers are ASCII, as IEEE 1364 defines them."""

    @pytest.mark.parametrize("char", ["\u00b2", "\u0663", "\u00e9"])
    def test_non_ascii_outside_comments_rejected(self, char):
        # superscript two used to crash int(), Arabic-Indic three used to
        # elaborate as the number 3, e-acute used to start an identifier
        source = f"module m(output [3:0] y); assign y = {char}; endmodule"
        col = source.index(char) + 1
        with pytest.raises(FrontendError) as info:
            compile_verilog(source)
        assert str(info.value) == (
            f"lex error at 1:{col}: unexpected character {char!r}"
        )

    def test_non_ascii_in_comments_and_escaped_identifiers(self):
        toks = kinds("// \u00b2\n/* \u0663 */ \\caf\u00e9 x")
        assert toks == [(TokKind.IDENT, "caf\u00e9"), (TokKind.IDENT, "x")]

    def test_non_ascii_digit_ends_a_number(self):
        with pytest.raises(FrontendError, match="unexpected character"):
            tokenize("12\u0663")


class TestBasedLiterals:
    def test_binary(self):
        assert parse_based_literal("4'b1010") == (4, "1010")

    def test_hex_expansion(self):
        assert parse_based_literal("8'hA5") == (8, "10100101")

    def test_octal_expansion(self):
        assert parse_based_literal("6'o17") == (6, "001111")

    def test_decimal(self):
        size, bits = parse_based_literal("8'd10")
        assert size == 8 and int(bits, 2) == 10

    def test_z_and_question_normalised(self):
        assert parse_based_literal("3'b1?z") == (3, "1zz")

    def test_truncation_and_padding(self):
        assert parse_based_literal("2'b1111") == (2, "11")
        assert parse_based_literal("4'b1") == (4, "0001")
        assert parse_based_literal("4'bz") == (4, "zzzz")

    def test_unsized(self):
        size, bits = parse_based_literal("'b101")
        assert size is None and bits == "101"

    def test_decimal_with_xz_rejected(self):
        with pytest.raises(FrontendError):
            parse_based_literal("4'd1x")

    def test_zero_size_rejected(self):
        # used to compile to y = 4'b0000: the zero-width constant was
        # zero-extended
        with pytest.raises(FrontendError, match="0'b101"):
            parse_based_literal("0'b101")
        with pytest.raises(FrontendError, match="0'b101"):
            compile_verilog(
                "module m(output [3:0] y); assign y = 0'b101; endmodule"
            )

    @pytest.mark.parametrize("text", ["8'hG", "4'b102", "4'o9", "4'd_", "'b_"])
    def test_bad_digits_rejected(self, text):
        # used to raise a raw ValueError from int() (or read no digits)
        with pytest.raises(FrontendError, match=text):
            parse_based_literal(text)

    def test_underscores_in_size(self):
        assert parse_based_literal("1__6'hF") == (16, "0" * 12 + "1111")
        assert parse_based_literal("4_'b1") == (4, "0001")
