"""Tokenizer for the synthesizable Verilog subset.

One compiled master pattern, a named group per lexeme class, scans the
source.  Each match starts with the white space ``[ \\t\\r\\f]*`` before
its lexeme (a form feed is white space, IEEE 1364-2005 §3.2; a vertical
tab is not), so white space costs no match of its own.  The lexeme
alternatives are tried in this order: newline; ``//``, then ``/* */``
comments; a based
literal (``8'hFF``, ``3'b01z``), then a decimal number (underscores
stripped); an identifier or keyword, then an escaped identifier (``\\``
up to the next whitespace character, backslash dropped); operators,
longest first, then punctuation.  Simple identifiers
(``[A-Za-z_$][A-Za-z0-9_$]*``) and numbers are ASCII only, as IEEE 1364
defines them: any other non-ASCII character outside a comment or an
escaped identifier is an ``unexpected character`` error; white space at
the end of the source matches nothing and is dropped.  Positions come
from the lexeme group's offsets: the line is a running newline count and
the column ``offset - line_start + 1``.
"""

from __future__ import annotations

import enum
import re
from typing import List, Optional


class FrontendError(Exception):
    """Lexing/parsing/elaboration error with source position."""


class TokKind(enum.Enum):
    IDENT = "ident"
    NUMBER = "number"
    BASED_NUMBER = "based_number"
    OP = "op"
    PUNCT = "punct"
    KEYWORD = "keyword"
    EOF = "eof"


KEYWORDS = frozenset(
    """module endmodule input output inout wire reg assign always begin end
    if else case casez casex endcase default posedge negedge or parameter
    localparam integer signed function endfunction for generate endgenerate
    genvar initial""".split()
)

#: multi-character operators, longest first
_OPERATORS = [
    "<<<", ">>>", "===", "!==",
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "~&", "~|", "~^", "^~",
    "+", "-", "*", "/", "%", "!", "~", "&", "|", "^", "<", ">", "=", "?",
]

_PUNCT = "()[]{}:;,.#@"

#: ``(group, pattern)`` in precedence order; the error groups match only
#: where the well-formed alternative before them failed
_LEXEMES = (
    ("nl", r"\n"),
    ("line_comment", r"//[^\n]*"),
    ("block_comment", r"/\*[\s\S]*?\*/"),
    ("open_comment", r"/\*"),
    ("based", r"(?:[0-9][0-9_]*)?'[sS]?[bBoOdDhH][A-Za-z0-9_?]+"),
    ("empty_based", r"(?:[0-9][0-9_]*)?'[sS]?[bBoOdDhH]"),
    ("bad_based", r"(?:[0-9][0-9_]*)?'"),
    ("number", r"[0-9][0-9_]*"),
    ("ident", r"[A-Za-z_$][A-Za-z0-9_$]*"),
    ("escaped", r"\\\S*"),
    ("op", "|".join(map(re.escape, _OPERATORS))),
    ("punct", "[" + re.escape(_PUNCT) + "]"),
    # not white space: a match's white-space prefix must not be junk
    ("junk", r"[^ \t\r\f]"),
)
_MASTER = re.compile(r"[ \t\r\f]*(?:" + "|".join(
    f"(?P<{name}>{regex})" for name, regex in _LEXEMES) + ")")

#: groups whose whole match is the token text
_VERBATIM = {"op": TokKind.OP, "punct": TokKind.PUNCT, "based": TokKind.BASED_NUMBER}
_ERRORS = {"open_comment": "unterminated block comment",
           "bad_based": "bad based literal", "empty_based": "empty based literal"}


class Token:
    """One lexeme with its 1-based source position."""

    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: TokKind, text: str, line: int, col: int) -> None:
        self.kind, self.text, self.line, self.col = kind, text, line, col

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Token:
            return NotImplemented
        return (self.kind, self.text, self.line, self.col) == (
            other.kind, other.text, other.line, other.col)

    def __repr__(self) -> str:
        return f"{self.kind.value}({self.text!r}@{self.line}:{self.col})"


def tokenize(source: str) -> List[Token]:
    """Tokenize a full source text; raises :class:`FrontendError` on junk."""
    tokens: List[Token] = []
    append = tokens.append
    ident, keyword = TokKind.IDENT, TokKind.KEYWORD
    line = 1
    line_start = 0
    for match in _MASTER.finditer(source):
        group = match.lastgroup
        if group == "ident":
            text = match.group(group)
            append(Token(keyword if text in KEYWORDS else ident, text, line,
                         match.start(group) - line_start + 1))
        elif group in _VERBATIM:
            append(Token(_VERBATIM[group], match.group(group), line,
                         match.start(group) - line_start + 1))
        elif group == "nl":
            line += 1
            line_start = match.end()
        elif group == "number":
            append(Token(TokKind.NUMBER, match.group(group).replace("_", ""),
                         line, match.start(group) - line_start + 1))
        elif group == "block_comment":
            text = match.group(group)
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = match.start(group) + text.rindex("\n") + 1
        elif group == "escaped":
            append(Token(ident, match.group(group)[1:], line,
                         match.start(group) - line_start + 1))
        elif group != "line_comment":
            message = (_ERRORS.get(group)
                       or f"unexpected character {match.group(group)!r}")
            raise FrontendError(
                f"lex error at {line}:{match.start(group) - line_start + 1}: "
                f"{message}"
            )
    tokens.append(Token(TokKind.EOF, "", line, len(source) - line_start + 1))
    return tokens


#: the digits each base allows, lower-cased, underscores stripped
_BASE_DIGITS = {
    "b": frozenset("01xz?"),
    "o": frozenset("01234567xz?"),
    "h": frozenset("0123456789abcdefxz?"),
    "d": frozenset("0123456789"),
}


def parse_based_literal(text: str) -> "tuple[Optional[int], str]":
    """Split ``8'b01xz`` into (size or None, MSB-first digit pattern).

    The pattern uses binary digits plus ``x``/``z``/``?``; other bases are
    expanded to binary.  A zero size, a base the lexer would not accept, no
    digits, or a digit the base does not allow is a
    :class:`FrontendError` naming the literal.
    """
    size_part, _tick, rest = text.partition("'")
    size = int(size_part.replace("_", "")) if size_part else None
    if size == 0:
        raise FrontendError(f"zero-width literal {text!r}")
    rest = rest.lstrip("sS")
    base = rest[:1].lower()
    digits = rest[1:].replace("_", "").lower()
    if base == "d" and any(d in "xz?" for d in digits):
        raise FrontendError(f"x/z digits not allowed in decimal: {text!r}")
    if not digits or not _BASE_DIGITS.get(base, frozenset()).issuperset(digits):
        raise FrontendError(f"bad digits for base {base!r} in {text!r}")
    if base == "b":
        bits = digits
    elif base == "o":
        bits = "".join(
            "xxx" if d in "xz?" else format(int(d, 8), "03b") for d in digits
        )
    elif base == "h":
        bits = "".join(
            "xxxx" if d in "xz?" else format(int(d, 16), "04b") for d in digits
        )
    else:
        value = int(digits)
        width = size if size is not None else max(1, value.bit_length())
        bits = format(value, f"0{width}b")
    bits = bits.replace("?", "z")
    if size is not None:
        if len(bits) < size:
            pad = bits[0] if bits[:1] in ("x", "z") else "0"
            bits = pad * (size - len(bits)) + bits
        elif len(bits) > size:
            bits = bits[-size:]
    return size, bits
