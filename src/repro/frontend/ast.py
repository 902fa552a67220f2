"""Abstract syntax tree for the Verilog subset."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union


# -- expressions -----------------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Ident(Expr):
    name: str


@dataclass(frozen=True)
class Number(Expr):
    """A literal; ``pattern`` is the MSB-first bit string (may hold x/z)."""

    pattern: str
    width: Optional[int] = None  # None = unsized

    @property
    def has_xz(self) -> bool:
        return any(c in "xz" for c in self.pattern)

    def value(self) -> int:
        if self.has_xz:
            raise ValueError(f"literal {self.pattern!r} has x/z bits")
        return int(self.pattern, 2) if self.pattern else 0


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # ~ ! & | ^ ~& ~| ~^ -
    operand: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # + - & | ^ && || == != < <= > >= << >>
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Ternary(Expr):
    cond: Expr
    then_value: Expr
    else_value: Expr


@dataclass(frozen=True)
class Index(Expr):
    """Bit select ``x[i]`` (constant or dynamic index)."""

    base: Expr
    index: Expr


@dataclass(frozen=True)
class RangeSelect(Expr):
    """Constant part select ``x[msb:lsb]``."""

    base: Expr
    msb: Expr
    lsb: Expr


@dataclass(frozen=True)
class Concat(Expr):
    parts: Tuple[Expr, ...]  # MSB-first, Verilog order


@dataclass(frozen=True)
class Repeat(Expr):
    count: Expr
    operand: Expr


# -- statements --------------------------------------------------------------------


@dataclass
class Stmt:
    pass


@dataclass
class Assign(Stmt):
    """Procedural assignment; blocking (=) or nonblocking (<=)."""

    target: Expr  # Ident / Index / RangeSelect / Concat
    value: Expr
    blocking: bool = True


@dataclass
class Block(Stmt):
    statements: List[Stmt] = field(default_factory=list)


@dataclass
class If(Stmt):
    cond: Expr
    then_stmt: Stmt
    else_stmt: Optional[Stmt] = None


@dataclass
class CaseItem:
    patterns: List[Expr]  # empty = default
    stmt: Stmt


@dataclass
class Case(Stmt):
    selector: Expr
    items: List[CaseItem]
    casez: bool = False


# -- module-level -------------------------------------------------------------------


@dataclass
class NetDecl:
    """wire/reg/input/output declaration (one name per decl after parsing).

    ``msb``/``lsb`` are the range of the net's first declaration; every
    later declaration of the same net (``input [3:0] a; wire [3:0] a;``)
    adds its ``(msb, lsb, line)`` to ``redeclarations``, and elaboration
    requires their ranges to be identical (IEEE 1364-2005 §12.3.3)."""

    name: str
    kind: str  # "wire" | "reg"
    msb: Optional[Expr] = None
    lsb: Optional[Expr] = None
    is_input: bool = False
    is_output: bool = False
    redeclarations: List[Tuple[Optional[Expr], Optional[Expr], int]] = field(
        default_factory=list
    )


@dataclass
class ParamDecl:
    name: str
    value: Expr


@dataclass
class ContinuousAssign:
    target: Expr
    value: Expr


@dataclass
class AlwaysBlock:
    """``always @(...) stmt``; ``clock`` is set for posedge blocks."""

    stmt: Stmt
    clock: Optional[str] = None  # None = combinational (@* or signal list)


@dataclass
class InstanceDecl:
    """``module_name instance_name (.port(expr), ...);`` — named
    connections only (positional port lists are rejected at parse time)."""

    module: str
    name: str
    bindings: List[Tuple[str, Expr]] = field(default_factory=list)


@dataclass
class ModuleDecl:
    name: str
    ports: List[str] = field(default_factory=list)
    nets: List[NetDecl] = field(default_factory=list)
    params: List[ParamDecl] = field(default_factory=list)
    assigns: List[ContinuousAssign] = field(default_factory=list)
    always_blocks: List[AlwaysBlock] = field(default_factory=list)
    instances: List[InstanceDecl] = field(default_factory=list)


@dataclass
class SourceFile:
    modules: List[ModuleDecl] = field(default_factory=list)
