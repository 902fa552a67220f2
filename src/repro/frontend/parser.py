"""Recursive-descent parser for the Verilog subset.

Supported constructs: module headers (1995 and ANSI-2001 port styles),
``wire``/``reg`` declarations with ranges, ``parameter``/``localparam``,
``assign``, ``always @*`` / ``always @(sensitivity)`` / ``always
@(posedge clk)``, ``begin/end``, ``if/else``, ``case``/``casez`` with
``default``, blocking and nonblocking assignments, and the expression
grammar with standard precedence.

Tokens come from the master pattern of :mod:`repro.frontend.lexer`
(simple identifiers and numbers are ASCII only), so error positions are
its offset-derived ``line:col``.  ``check``, ``accept`` and ``expect``
compare one per-token symbol (the text of an operator, punctuation or
keyword token, else ``None``), so an escaped ``\\module`` never matches
``check("module")``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .ast import (
    AlwaysBlock,
    Assign,
    Binary,
    Block,
    Case,
    CaseItem,
    Concat,
    ContinuousAssign,
    Expr,
    Ident,
    If,
    Index,
    InstanceDecl,
    ModuleDecl,
    NetDecl,
    Number,
    ParamDecl,
    RangeSelect,
    Repeat,
    SourceFile,
    Stmt,
    Ternary,
    Unary,
)
from .lexer import FrontendError, TokKind, Token, parse_based_literal, tokenize

#: token kinds whose text the parser matches literally (a tuple, so ``in``
#: compares by identity instead of calling ``Enum.__hash__``)
_SYMBOL_KINDS = (TokKind.OP, TokKind.PUNCT, TokKind.KEYWORD)

#: binary operator precedence (higher binds tighter)
_BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "~^": 4,
    "^~": 4,
    "&": 5,
    "==": 6,
    "!=": 6,
    "<": 7,
    "<=": 7,
    ">": 7,
    ">=": 7,
    "<<": 8,
    ">>": 8,
    "+": 9,
    "-": 9,
    "*": 10,
    "/": 10,
    "%": 10,
}

_UNARY_OPS = {"~", "!", "&", "|", "^", "-", "+", "~&", "~|", "~^"}


class Parser:
    """One-token-lookahead recursive descent."""

    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.symbols: List[Optional[str]] = [
            tok.text if tok.kind in _SYMBOL_KINDS else None for tok in self.tokens
        ]
        self.pos = 0
        self.current: Token = self.tokens[0]
        self.symbol: Optional[str] = self.symbols[0]
        #: the current module's declared nets by name
        self._nets: Dict[str, NetDecl] = {}

    # -- token helpers --------------------------------------------------------

    def error(self, message: str) -> FrontendError:
        tok = self.current
        return FrontendError(
            f"parse error at {tok.line}:{tok.col} near {tok.text!r}: {message}"
        )

    def advance(self) -> Token:
        tok = self.current
        if tok.kind is not TokKind.EOF:
            self.pos += 1
            self.current = self.tokens[self.pos]
            self.symbol = self.symbols[self.pos]
        return tok

    def check(self, text: str) -> bool:
        return self.symbol == text

    def accept(self, text: str) -> bool:
        if self.check(text):
            self.advance()
            return True
        return False

    def expect(self, text: str) -> Token:
        if not self.check(text):
            raise self.error(f"expected {text!r}")
        return self.advance()

    def expect_ident(self) -> str:
        if self.current.kind is not TokKind.IDENT:
            raise self.error("expected identifier")
        return self.advance().text

    # -- top level ----------------------------------------------------------------

    def parse_source(self) -> SourceFile:
        source = SourceFile()
        while self.current.kind is not TokKind.EOF:
            if self.check("module"):
                source.modules.append(self.parse_module())
            else:
                raise self.error("expected 'module'")
        return source

    def parse_module(self) -> ModuleDecl:
        self.expect("module")
        module = ModuleDecl(name=self.expect_ident())
        self._nets = {}
        if self.accept("#"):
            self._parse_param_port_list(module)
        if self.accept("("):
            if not self.check(")"):
                self._parse_port_list(module)
            self.expect(")")
        self.expect(";")
        while not self.check("endmodule"):
            self._parse_module_item(module)
        self.expect("endmodule")
        return module

    def _parse_param_port_list(self, module: ModuleDecl) -> None:
        self.expect("(")
        while True:
            self.expect("parameter")
            name = self.expect_ident()
            self.expect("=")
            module.params.append(ParamDecl(name, self.parse_expr()))
            if not self.accept(","):
                break
        self.expect(")")

    def _parse_port_list(self, module: ModuleDecl) -> None:
        """Both 1995 (`module m(a, b);`) and ANSI (`input [3:0] a, ...`)."""
        while True:
            if self.check("input") or self.check("output") or self.check("inout"):
                direction = self.advance().text
                if direction == "inout":
                    raise self.error("inout ports are not supported")
                kind = "reg" if self.accept("reg") else "wire"
                msb = lsb = None
                if self.accept("["):
                    msb = self.parse_expr()
                    self.expect(":")
                    lsb = self.parse_expr()
                    self.expect("]")
                while True:
                    line = self.current.line
                    name = self.expect_ident()
                    if name in self._nets:
                        raise FrontendError(
                            f"port {name} of module {module.name} is "
                            f"declared twice in its port list (again at "
                            f"line {line})"
                        )
                    module.ports.append(name)
                    decl = NetDecl(name, kind, msb, lsb,
                                   is_input=direction == "input",
                                   is_output=direction == "output")
                    module.nets.append(decl)
                    self._nets[name] = decl
                    if not self.accept(","):
                        return
                    if self.check("input") or self.check("output"):
                        break
            else:
                module.ports.append(self.expect_ident())
                if not self.accept(","):
                    return

    def _parse_module_item(self, module: ModuleDecl) -> None:
        if self.check("input") or self.check("output"):
            direction = self.advance().text
            kind = "reg" if self.accept("reg") else "wire"
            msb, lsb = self._parse_optional_range()
            while True:
                decl = self._declare_net(module, kind, msb, lsb)
                decl.is_input = direction == "input"
                decl.is_output = direction == "output"
                if not self.accept(","):
                    break
            self.expect(";")
        elif self.check("wire") or self.check("reg"):
            kind = self.advance().text
            msb, lsb = self._parse_optional_range()
            while True:
                decl = self._declare_net(module, kind, msb, lsb)
                name = decl.name
                if self.accept("="):
                    # wire w = expr;  -> implicit continuous assign
                    module.assigns.append(
                        ContinuousAssign(Ident(name), self.parse_expr())
                    )
                if not self.accept(","):
                    break
            self.expect(";")
        elif self.check("parameter") or self.check("localparam"):
            self.advance()
            self._parse_optional_range()
            while True:
                name = self.expect_ident()
                self.expect("=")
                module.params.append(ParamDecl(name, self.parse_expr()))
                if not self.accept(","):
                    break
            self.expect(";")
        elif self.check("assign"):
            self.advance()
            while True:
                target = self.parse_primary(lvalue=True)
                self.expect("=")
                module.assigns.append(ContinuousAssign(target, self.parse_expr()))
                if not self.accept(","):
                    break
            self.expect(";")
        elif self.check("always"):
            module.always_blocks.append(self._parse_always())
        elif self.check("integer") or self.check("genvar"):
            raise self.error(f"{self.current.text} declarations are not supported")
        elif self.current.kind is TokKind.IDENT:
            module.instances.append(self._parse_instance())
        else:
            raise self.error("unsupported module item")

    def _parse_instance(self) -> InstanceDecl:
        """``mod inst (.port(expr), ...);`` — named connections only."""
        module_name = self.expect_ident()
        if self.check("#"):
            raise self.error("parameterised instantiation is not supported")
        instance_name = self.expect_ident()
        inst = InstanceDecl(module=module_name, name=instance_name)
        self.expect("(")
        if not self.check(")"):
            while True:
                if not self.accept("."):
                    raise self.error(
                        "positional port connections are not supported "
                        "(use .port(net))"
                    )
                port = self.expect_ident()
                self.expect("(")
                expr = None if self.check(")") else self.parse_expr()
                self.expect(")")
                if expr is not None:
                    inst.bindings.append((port, expr))
                if not self.accept(","):
                    break
        self.expect(")")
        self.expect(";")
        return inst

    def _declare_net(self, module: ModuleDecl, kind: str, msb: Optional[Expr],
                     lsb: Optional[Expr]) -> NetDecl:
        """Parse one declared net name: a new :class:`NetDecl`, or the
        net's earlier one with this declaration's range and line added to
        its ``redeclarations``."""
        line = self.current.line
        name = self.expect_ident()
        decl = self._nets.get(name)
        if decl is None:
            decl = self._nets[name] = NetDecl(name, kind, msb, lsb)
            module.nets.append(decl)
        else:
            decl.redeclarations.append((msb, lsb, line))
        decl.kind = kind
        return decl

    def _parse_optional_range(self):
        if self.accept("["):
            msb = self.parse_expr()
            self.expect(":")
            lsb = self.parse_expr()
            self.expect("]")
            return msb, lsb
        return None, None

    # -- always blocks -------------------------------------------------------------

    def _parse_always(self) -> AlwaysBlock:
        self.expect("always")
        self.expect("@")
        clock: Optional[str] = None
        if self.accept("("):
            if self.accept("*"):
                pass
            elif self.check("posedge") or self.check("negedge"):
                edge = self.advance().text
                if edge == "negedge":
                    raise self.error("negedge clocks are not supported")
                clock = self.expect_ident()
                if self.accept("or") or self.accept(","):
                    raise self.error("async resets are not supported")
            else:
                # plain sensitivity list: treated as combinational
                self.expect_ident()
                while self.accept("or") or self.accept(","):
                    self.expect_ident()
            self.expect(")")
        elif self.accept("*"):
            pass
        else:
            raise self.error("expected sensitivity list")
        return AlwaysBlock(stmt=self.parse_statement(), clock=clock)

    # -- statements -------------------------------------------------------------------

    def parse_statement(self) -> Stmt:
        if self.accept("begin"):
            block = Block()
            while not self.check("end"):
                block.statements.append(self.parse_statement())
            self.expect("end")
            return block
        if self.accept("if"):
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then_stmt = self.parse_statement()
            else_stmt = self.parse_statement() if self.accept("else") else None
            return If(cond, then_stmt, else_stmt)
        if self.check("case") or self.check("casez") or self.check("casex"):
            keyword = self.advance().text
            if keyword == "casex":
                raise self.error("casex is not supported (use casez)")
            self.expect("(")
            selector = self.parse_expr()
            self.expect(")")
            items: List[CaseItem] = []
            while not self.check("endcase"):
                if self.accept("default"):
                    self.accept(":")
                    items.append(CaseItem([], self.parse_statement()))
                    continue
                patterns = [self.parse_expr()]
                while self.accept(","):
                    patterns.append(self.parse_expr())
                self.expect(":")
                items.append(CaseItem(patterns, self.parse_statement()))
            self.expect("endcase")
            return Case(selector, items, casez=keyword == "casez")
        if self.accept(";"):
            return Block()  # empty statement
        # assignment
        target = self.parse_primary(lvalue=True)
        if self.accept("="):
            blocking = True
        elif self.accept("<="):
            blocking = False
        else:
            raise self.error("expected '=' or '<=' in assignment")
        value = self.parse_expr()
        self.expect(";")
        return Assign(target, value, blocking=blocking)

    # -- expressions --------------------------------------------------------------------

    def parse_expr(self) -> Expr:
        return self._parse_ternary()

    def _parse_ternary(self) -> Expr:
        cond = self._parse_binary(0)
        if self.accept("?"):
            then_value = self.parse_expr()
            self.expect(":")
            else_value = self.parse_expr()
            return Ternary(cond, then_value, else_value)
        return cond

    def _parse_binary(self, min_precedence: int) -> Expr:
        left = self._parse_unary()
        while True:
            op = self.symbol
            precedence = _BINARY_PRECEDENCE.get(op)
            if precedence is None or precedence < min_precedence:
                break
            self.advance()
            right = self._parse_binary(precedence + 1)
            left = Binary(op, left, right)
        return left

    def _parse_unary(self) -> Expr:
        op = self.symbol
        if op in _UNARY_OPS:
            self.advance()
            return Unary(op, self._parse_unary())
        return self.parse_primary()

    def parse_primary(self, lvalue: bool = False) -> Expr:
        tok = self.current
        if tok.kind is TokKind.NUMBER or tok.kind is TokKind.BASED_NUMBER:
            self.advance()
            try:
                if tok.kind is TokKind.NUMBER:
                    return Number(pattern=format(int(tok.text), "b"), width=None)
                size, bits = parse_based_literal(tok.text)
            except ValueError:
                # more digits than int() converts (a process-wide limit)
                raise FrontendError(
                    f"parse error at {tok.line}:{tok.col}: decimal literal "
                    f"{tok.text[:12]}... ({len(tok.text)} characters) is too long"
                ) from None
            return Number(pattern=bits, width=size)
        if tok.kind is TokKind.IDENT:
            self.advance()
            expr: Expr = Ident(tok.text)
            while self.check("["):
                self.advance()
                first = self.parse_expr()
                if self.accept(":"):
                    second = self.parse_expr()
                    self.expect("]")
                    expr = RangeSelect(expr, first, second)
                else:
                    self.expect("]")
                    expr = Index(expr, first)
            return expr
        if self.accept("("):
            if lvalue:
                raise self.error("parenthesised lvalues are not supported")
            expr = self.parse_expr()
            self.expect(")")
            return expr
        if self.accept("{"):
            first = self.parse_expr()
            if self.check("{"):
                # replication {N{expr}}
                self.advance()
                operand = self.parse_expr()
                self.expect("}")
                self.expect("}")
                return Repeat(first, operand)
            parts = [first]
            while self.accept(","):
                parts.append(self.parse_expr())
            self.expect("}")
            return Concat(tuple(parts))
        raise self.error("expected expression")


def parse_source(text: str) -> SourceFile:
    """Parse a full source text into a :class:`SourceFile`."""
    return Parser(text).parse_source()
