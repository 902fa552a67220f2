"""Cell library for the RTL netlist IR.

The cell set mirrors the subset of Yosys RTLIL cells that matter for
multiplexer optimization and AIG mapping.  Widths follow these conventions
(``W`` = cell's data width, ``N`` = number of pmux branches / shift width):

========== =========================================== =====================
Cell        Ports                                       Semantics
========== =========================================== =====================
``not``     A[W] -> Y[W]                                bitwise NOT
``and``     A[W], B[W] -> Y[W]                          bitwise AND
``or``      A[W], B[W] -> Y[W]                          bitwise OR
``xor``     A[W], B[W] -> Y[W]                          bitwise XOR
``xnor``    A[W], B[W] -> Y[W]                          bitwise XNOR
``nand``    A[W], B[W] -> Y[W]                          bitwise NAND
``nor``     A[W], B[W] -> Y[W]                          bitwise NOR
``mux``     A[W], B[W], S[1] -> Y[W]                    Y = S ? B : A
``pmux``    A[W], B[W*N], S[N] -> Y[W]                  one-hot parallel mux
``eq``      A[W], B[W] -> Y[1]                          unsigned A == B
``ne``      A[W], B[W] -> Y[1]                          unsigned A != B
``lt``      A[W], B[W] -> Y[1]                          unsigned A < B
``le``      A[W], B[W] -> Y[1]                          unsigned A <= B
``add``     A[W], B[W] -> Y[W]                          A + B (mod 2^W)
``sub``     A[W], B[W] -> Y[W]                          A - B (mod 2^W)
``shl``     A[W], B[N] -> Y[W]                          A << B (logical)
``shr``     A[W], B[N] -> Y[W]                          A >> B (logical)
``reduce_and``  A[W] -> Y[1]                            &A
``reduce_or``   A[W] -> Y[1]                            |A
``reduce_xor``  A[W] -> Y[1]                            ^A
``reduce_bool`` A[W] -> Y[1]                            A != 0
``logic_not``   A[W] -> Y[1]                            !A  (A == 0)
``logic_and``   A[W], B[W] -> Y[1]                      (A!=0) && (B!=0)
``logic_or``    A[W], B[W] -> Y[1]                      (A!=0) || (B!=0)
``dff``     CLK[1], D[W] -> Q[W]                        posedge D flip-flop
========== =========================================== =====================

``pmux`` follows Yosys: ``S`` is expected to be one-hot (or all-zero);
``Y = A`` when ``S == 0``; when ``S[i]`` is set, ``Y = B[W*i +: W]``.  If
several select bits are high the result is undefined (``x``).
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, Tuple


class CellType(enum.Enum):
    """Every cell type understood by the IR, simulator and AIG mapper."""

    NOT = "not"
    AND = "and"
    OR = "or"
    XOR = "xor"
    XNOR = "xnor"
    NAND = "nand"
    NOR = "nor"
    MUX = "mux"
    PMUX = "pmux"
    EQ = "eq"
    NE = "ne"
    LT = "lt"
    LE = "le"
    ADD = "add"
    SUB = "sub"
    SHL = "shl"
    SHR = "shr"
    REDUCE_AND = "reduce_and"
    REDUCE_OR = "reduce_or"
    REDUCE_XOR = "reduce_xor"
    REDUCE_BOOL = "reduce_bool"
    LOGIC_NOT = "logic_not"
    LOGIC_AND = "logic_and"
    LOGIC_OR = "logic_or"
    DFF = "dff"

    def __str__(self) -> str:
        return self.value


#: cell types whose output is a pure function of the current inputs
COMBINATIONAL_TYPES: FrozenSet[CellType] = frozenset(
    t for t in CellType if t is not CellType.DFF
)

#: unary bitwise / reduction cells (single data input ``A``)
UNARY_TYPES: FrozenSet[CellType] = frozenset(
    {
        CellType.NOT,
        CellType.REDUCE_AND,
        CellType.REDUCE_OR,
        CellType.REDUCE_XOR,
        CellType.REDUCE_BOOL,
        CellType.LOGIC_NOT,
    }
)

#: two-input bitwise cells with Y width == input width
BITWISE_BINARY_TYPES: FrozenSet[CellType] = frozenset(
    {
        CellType.AND,
        CellType.OR,
        CellType.XOR,
        CellType.XNOR,
        CellType.NAND,
        CellType.NOR,
    }
)

#: comparison cells producing a single-bit result
COMPARE_TYPES: FrozenSet[CellType] = frozenset(
    {CellType.EQ, CellType.NE, CellType.LT, CellType.LE}
)

#: single-bit-output cells (comparisons, reductions, logic ops)
SINGLE_BIT_OUTPUT_TYPES: FrozenSet[CellType] = frozenset(
    {
        CellType.EQ,
        CellType.NE,
        CellType.LT,
        CellType.LE,
        CellType.REDUCE_AND,
        CellType.REDUCE_OR,
        CellType.REDUCE_XOR,
        CellType.REDUCE_BOOL,
        CellType.LOGIC_NOT,
        CellType.LOGIC_AND,
        CellType.LOGIC_OR,
    }
)

#: multiplexer cells (the subject of the paper)
MUX_TYPES: FrozenSet[CellType] = frozenset({CellType.MUX, CellType.PMUX})


class PortDir(enum.Enum):
    IN = "in"
    OUT = "out"


# Width expressions: "W" (cell width), "N" (pmux branch count / shift-amount
# width), "W*N", or a literal integer.
_PORT_SPECS: Dict[CellType, Tuple[Tuple[str, PortDir, object], ...]] = {}


def _spec(ctype: CellType, *ports: Tuple[str, PortDir, object]) -> None:
    _PORT_SPECS[ctype] = ports


for _t in (CellType.NOT,):
    _spec(_t, ("A", PortDir.IN, "W"), ("Y", PortDir.OUT, "W"))
for _t in BITWISE_BINARY_TYPES | {CellType.ADD, CellType.SUB}:
    _spec(_t, ("A", PortDir.IN, "W"), ("B", PortDir.IN, "W"), ("Y", PortDir.OUT, "W"))
for _t in COMPARE_TYPES | {CellType.LOGIC_AND, CellType.LOGIC_OR}:
    _spec(_t, ("A", PortDir.IN, "W"), ("B", PortDir.IN, "W"), ("Y", PortDir.OUT, 1))
for _t in (
    CellType.REDUCE_AND,
    CellType.REDUCE_OR,
    CellType.REDUCE_XOR,
    CellType.REDUCE_BOOL,
    CellType.LOGIC_NOT,
):
    _spec(_t, ("A", PortDir.IN, "W"), ("Y", PortDir.OUT, 1))
_spec(
    CellType.MUX,
    ("A", PortDir.IN, "W"),
    ("B", PortDir.IN, "W"),
    ("S", PortDir.IN, 1),
    ("Y", PortDir.OUT, "W"),
)
_spec(
    CellType.PMUX,
    ("A", PortDir.IN, "W"),
    ("B", PortDir.IN, "W*N"),
    ("S", PortDir.IN, "N"),
    ("Y", PortDir.OUT, "W"),
)
for _t in (CellType.SHL, CellType.SHR):
    _spec(_t, ("A", PortDir.IN, "W"), ("B", PortDir.IN, "N"), ("Y", PortDir.OUT, "W"))
_spec(
    CellType.DFF,
    ("CLK", PortDir.IN, 1),
    ("D", PortDir.IN, "W"),
    ("Q", PortDir.OUT, "W"),
)


def port_spec(ctype: CellType) -> Tuple[Tuple[str, PortDir, object], ...]:
    """The ``(name, direction, width-expr)`` tuple for each port of a cell."""
    return _PORT_SPECS[ctype]


#: built once per cell type: input and output port names in spec order,
#: and each port's width expression
_INPUT_PORTS = {t: tuple(n for n, d, _w in spec if d is PortDir.IN)
                for t, spec in _PORT_SPECS.items()}
_OUTPUT_PORTS = {t: tuple(n for n, d, _w in spec if d is PortDir.OUT)
                 for t, spec in _PORT_SPECS.items()}
_PORT_WIDTHS = {t: {n: w for n, _d, w in spec} for t, spec in _PORT_SPECS.items()}


def input_ports(ctype: CellType) -> Tuple[str, ...]:
    return _INPUT_PORTS[ctype]


def output_ports(ctype: CellType) -> Tuple[str, ...]:
    return _OUTPUT_PORTS[ctype]


def port_widths(ctype: CellType) -> Dict[str, object]:
    """``{port name: width expression}`` of a cell type."""
    return _PORT_WIDTHS[ctype]


def resolve_width(expr: object, width: int, n: int = 1) -> int:
    """A port width expression evaluated against the cell parameters."""
    if expr == "W":
        return width
    if expr == "N":
        return n
    if expr == "W*N":
        return width * n
    return int(expr)  # literal


def expected_width(ctype: CellType, port: str, width: int, n: int = 1) -> int:
    """Resolve a port's width expression against the cell parameters."""
    expr = _PORT_WIDTHS[ctype].get(port)
    if expr is None:
        raise KeyError(f"cell {ctype} has no port {port!r}")
    return resolve_width(expr, width, n)
