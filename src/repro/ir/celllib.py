"""The unified cell-semantics registry.

Every :class:`~repro.ir.cells.CellType` is described by exactly one
:class:`CellSpec` carrying *all* of its semantics:

* **shape** — port names/directions/width rules (shared with the raw
  declarative table in :mod:`repro.ir.cells`) plus the width/``n``
  inference used by :meth:`~repro.ir.module.Module.add_cell`;
* **ternary evaluation** — the 0/1/x evaluator used by constant
  propagation, the Table-I inference engine and x-aware simulation;
* **mask evaluation** — the bit-parallel word-level evaluator behind
  exhaustive/random simulation;
* **lowering** — the 2-input AND/inverter decomposition used by area
  accounting, equivalence checking and the SAT rung's Tseitin encoding;
* **interchange identity** — the Yosys RTLIL cell type (``$and``, …) used
  by the Yosys-JSON reader/writer pair.

The registry API (:func:`spec_for`, :func:`all_specs`,
:func:`spec_for_yosys`) is the *only* place cell semantics live:
:mod:`repro.sim.eval`, :mod:`repro.aig.aigmap`, :mod:`repro.sat.tseitin`,
:mod:`repro.ir.validate` and the frontend width inference are all thin
delegations, so the soundness substrates (ternary inference,
exhaustive/mask simulation, AIG mapping and SAT) can never silently
diverge on a cell's meaning.  Adding a cell type means writing one
``CellSpec`` — and the cross-substrate property suite
(``tests/ir/test_celllib.py``) then checks that every evaluator and both
lowering consumers agree on it automatically.

Lowering is expressed against the small :class:`LoweringEmitter` protocol
(port literals + AND-graph construction), which keeps this module free of
any dependency on the AIG or SAT packages.  It has two implementations:
:class:`~repro.aig.aigmap.AigMapper` builds AIG nodes, and
:class:`~repro.sat.tseitin.CircuitEncoder` emits Tseitin clauses.

PMUX semantics (shared by all three substrates): the select is treated as
a *priority* select — the lowest set bit of ``S`` wins, ``Y = A`` when
``S == 0``.  For the one-hot selects produced by case elaboration this
coincides with the Yosys one-hot semantics while staying fully defined.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
)

from . import cells
from .cells import CellType, PortDir, port_spec
from .signals import State
from ..sim.ternary import (
    S0,
    S1,
    t_add,
    t_and,
    t_eq,
    t_lt,
    t_mux,
    t_not,
    t_or,
    t_reduce_and,
    t_reduce_or,
    t_reduce_xor,
    t_xnor,
    t_xor,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .module import Cell

TernaryVec = List[State]
MaskVec = List[int]

TernaryEval = Callable[["Cell", Mapping[str, TernaryVec]], Dict[str, TernaryVec]]
MaskEval = Callable[["Cell", Mapping[str, MaskVec], int], Dict[str, MaskVec]]
Lowering = Callable[["LoweringEmitter", "Cell"], None]


class LoweringEmitter:
    """The protocol lowerings are written against.

    Literals follow the AIGER convention (negation is ``^ 1``, 0/1 are
    the constants).  :class:`~repro.aig.aigmap.AigMapper` and
    :class:`~repro.sat.tseitin.CircuitEncoder` implement it; anything
    exposing the same surface (an ``aig`` attribute with the AND-graph
    construction helpers plus per-cell literal access) can reuse the
    registry's lowerings verbatim.
    """

    aig = None  # an AIG-like object: and_/or_/xor/xnor/mux/…_reduce

    def port_lits(self, cell: "Cell", port: str) -> List[int]:
        raise NotImplementedError

    def set_output(self, cell: "Cell", port: str, lits: List[int]) -> None:
        raise NotImplementedError

    @property
    def false_lit(self) -> int:
        return 0

    @property
    def true_lit(self) -> int:
        return 1


@dataclass(frozen=True)
class CellSpec:
    """Declarative semantics of one cell type (see module docstring).

    ``ports`` is the ``(name, direction, width-expr)`` tuple shared with
    :func:`repro.ir.cells.port_spec`; width expressions are ``"W"``,
    ``"N"``, ``"W*N"`` or a literal int.  ``width_port``/``n_port`` drive
    :meth:`infer_shape` (the ``Module.add_cell`` width inference);
    ``state_ports``/``next_state_ports`` mark sequential boundary ports
    (flip-flop ``Q`` outputs are value *sources*, ``D`` inputs are
    observable *sinks*) so the AIG mapper and simulator need no per-type
    knowledge.
    """

    ctype: CellType
    ports: Tuple[Tuple[str, PortDir, object], ...]
    yosys_type: str
    eval_ternary: Optional[TernaryEval] = None
    eval_masks: Optional[MaskEval] = None
    lower: Optional[Lowering] = None
    combinational: bool = True
    #: input port whose connection width fixes ``W`` when inferring shape
    width_port: str = "A"
    #: input port whose connection width fixes ``n`` (None: n stays 1)
    n_port: Optional[str] = None
    #: output ports that act as value sources (sequential state)
    state_ports: Tuple[str, ...] = ()
    #: input ports observed as boundary outputs (next-state functions)
    next_state_ports: Tuple[str, ...] = ()
    #: extra per-cell structural validation beyond the width table
    extra_check: Optional[Callable[["Cell"], List[str]]] = None

    # -- shape ---------------------------------------------------------------

    @property
    def input_ports(self) -> Tuple[str, ...]:
        return cells.input_ports(self.ctype)

    @property
    def output_ports(self) -> Tuple[str, ...]:
        return cells.output_ports(self.ctype)

    @property
    def out_port(self) -> str:
        """The primary output port (``Y``, or ``Q`` for flip-flops)."""
        return self.output_ports[0]

    def expected_width(self, port: str, width: int, n: int = 1) -> int:
        """Resolve a port's width expression against the cell parameters."""
        return cells.expected_width(self.ctype, port, width, n)

    def infer_shape(self, ports: Mapping[str, int]) -> Tuple[int, int]:
        """Infer ``(width, n)`` from the connection widths in ``ports``.

        ``ports`` maps port names to the widths of the signals the caller
        is connecting; only ``width_port``/``n_port`` are consulted.
        Raises :class:`ValueError` when the width probe is missing.
        """
        if self.width_port not in ports:
            raise ValueError(
                f"cell type {self.ctype}: cannot infer width without "
                f"{self.width_port} port"
            )
        width = ports[self.width_port]
        n = ports[self.n_port] if self.n_port and self.n_port in ports else 1
        return width, n

    # -- validation ----------------------------------------------------------

    def check(self, cell: "Cell") -> List[str]:
        """Port-level well-formedness problems of one cell (empty = ok)."""
        problems: List[str] = []
        for pname, _direction, _expr in self.ports:
            if pname not in cell.connections:
                problems.append(
                    f"cell {cell.name!r} ({cell.type}): port {pname} unconnected"
                )
                continue
            want = self.expected_width(pname, cell.width, cell.n)
            got = len(cell.connections[pname])
            if got != want:
                problems.append(
                    f"cell {cell.name!r} ({cell.type}): port {pname} width "
                    f"{got}, expected {want}"
                )
        extra = set(cell.connections) - {p for p, _d, _e in self.ports}
        if extra:
            problems.append(
                f"cell {cell.name!r} ({cell.type}): unknown ports {sorted(extra)}"
            )
        if self.extra_check is not None:
            problems.extend(self.extra_check(cell))
        return problems


# -- registry -------------------------------------------------------------------

_REGISTRY: Dict[CellType, CellSpec] = {}
_BY_YOSYS: Dict[str, CellSpec] = {}


def register_spec(spec: CellSpec) -> CellSpec:
    """Install a spec in the registry (one per cell type)."""
    if spec.ctype in _REGISTRY:
        raise ValueError(f"duplicate CellSpec for {spec.ctype}")
    _REGISTRY[spec.ctype] = spec
    _BY_YOSYS[spec.yosys_type] = spec
    return spec


def spec_for(ctype: CellType) -> CellSpec:
    """The registered :class:`CellSpec` of a cell type."""
    return _REGISTRY[ctype]


def spec_for_yosys(yosys_type: str) -> Optional[CellSpec]:
    """The spec registered under a Yosys RTLIL type name (None = unknown)."""
    return _BY_YOSYS.get(yosys_type)


def all_specs() -> Tuple[CellSpec, ...]:
    """Every registered spec, in :class:`CellType` declaration order."""
    return tuple(_REGISTRY[t] for t in CellType if t in _REGISTRY)


# -- shared word-level helpers ---------------------------------------------------


def _mask_eq(a: MaskVec, b: MaskVec, mask: int) -> int:
    acc = mask
    for abit, bbit in zip(a, b):
        acc &= ~(abit ^ bbit) & mask
    return acc


def _mask_lt(a: MaskVec, b: MaskVec, mask: int) -> int:
    """Unsigned a < b, scanning LSB -> MSB so the MSB decision dominates."""
    lt = 0
    for abit, bbit in zip(a, b):
        eq = ~(abit ^ bbit) & mask
        lt = (~abit & bbit) | (eq & lt)
    return lt & mask


def _mask_add(a: MaskVec, b: MaskVec, carry: int, mask: int) -> MaskVec:
    result: MaskVec = []
    for abit, bbit in zip(a, b):
        s = abit ^ bbit ^ carry
        carry = (abit & bbit) | (carry & (abit ^ bbit))
        result.append(s & mask)
    return result


def _mask_or_reduce(bits: MaskVec) -> int:
    acc = 0
    for a in bits:
        acc |= a
    return acc


def _ternary_shift(a: TernaryVec, b: TernaryVec, left: bool) -> TernaryVec:
    """Barrel shifter in the ternary domain (mux ladder over shift bits)."""
    width = len(a)
    result = list(a)
    for j, sbit in enumerate(b):
        amount = 1 << j
        if amount >= width:
            shifted = [S0] * width
        elif left:
            shifted = [S0] * amount + result[: width - amount]
        else:
            shifted = result[amount:] + [S0] * amount
        result = [t_mux(r, s, sbit) for r, s in zip(result, shifted)]
    return result


def _mask_shift(a: MaskVec, b: MaskVec, mask: int, left: bool) -> MaskVec:
    width = len(a)
    result = list(a)
    for j, sbit in enumerate(b):
        amount = 1 << j
        if amount >= width:
            shifted = [0] * width
        elif left:
            shifted = [0] * amount + result[: width - amount]
        else:
            shifted = result[amount:] + [0] * amount
        result = [(r & ~sbit | s & sbit) & mask for r, s in zip(result, shifted)]
    return result


def _aig_eq(emitter: LoweringEmitter, cell: "Cell") -> int:
    aig = emitter.aig
    a = emitter.port_lits(cell, "A")
    b = emitter.port_lits(cell, "B")
    return aig.and_reduce([aig.xnor(x, y) for x, y in zip(a, b)])


def _aig_ult(emitter: LoweringEmitter, a: List[int], b: List[int]) -> int:
    aig = emitter.aig
    lt = emitter.false_lit
    for x, y in zip(a, b):
        eq = aig.xnor(x, y)
        lt = aig.or_(aig.and_(x ^ 1, y), aig.and_(eq, lt))
    return lt


def _aig_ripple_add(
    emitter: LoweringEmitter, a: List[int], b: List[int], carry: int
) -> List[int]:
    aig = emitter.aig
    result = []
    for x, y in zip(a, b):
        axb = aig.xor(x, y)
        result.append(aig.xor(axb, carry))
        carry = aig.or_(aig.and_(x, y), aig.and_(carry, axb))
    return result


# -- per-family semantics builders ----------------------------------------------


def _register(
    ctype: CellType,
    yosys_type: str,
    tern: Optional[TernaryEval],
    mask: Optional[MaskEval],
    lower: Optional[Lowering],
    **kwargs,
) -> CellSpec:
    return register_spec(
        CellSpec(
            ctype=ctype,
            ports=port_spec(ctype),
            yosys_type=yosys_type,
            eval_ternary=tern,
            eval_masks=mask,
            lower=lower,
            **kwargs,
        )
    )


def _bitwise_binary(ctype, yosys_type, t_op, m_op, aig_op):
    """AND/OR/XOR/… family: per-bit two-input ops in all three domains."""

    def tern(cell, inputs):
        return {"Y": [t_op(a, b) for a, b in zip(inputs["A"], inputs["B"])]}

    def mask(cell, inputs, mask_):
        return {"Y": [m_op(a, b, mask_) for a, b in zip(inputs["A"], inputs["B"])]}

    def lower(emitter, cell):
        a = emitter.port_lits(cell, "A")
        b = emitter.port_lits(cell, "B")
        op = aig_op(emitter.aig)
        emitter.set_output(cell, "Y", [op(x, y) for x, y in zip(a, b)])

    _register(ctype, yosys_type, tern, mask, lower)


def _compare(ctype, yosys_type, t_op, m_op, aig_lower):
    """EQ/NE/LT/LE family: whole-vector compare to a single bit."""

    def tern(cell, inputs):
        return {"Y": [t_op(inputs["A"], inputs["B"])]}

    def mask(cell, inputs, mask_):
        return {"Y": [m_op(inputs["A"], inputs["B"], mask_)]}

    def lower(emitter, cell):
        emitter.set_output(cell, "Y", [aig_lower(emitter, cell)])

    _register(ctype, yosys_type, tern, mask, lower)


def _shift(ctype, yosys_type, left):
    def tern(cell, inputs):
        return {"Y": _ternary_shift(inputs["A"], inputs["B"], left=left)}

    def mask(cell, inputs, mask_):
        return {"Y": _mask_shift(inputs["A"], inputs["B"], mask_, left=left)}

    def lower(emitter, cell):
        aig = emitter.aig
        width = cell.width
        current = emitter.port_lits(cell, "A")
        for j, s in enumerate(emitter.port_lits(cell, "B")):
            amount = 1 << j
            if amount >= width:
                shifted = [emitter.false_lit] * width
            elif left:
                shifted = [emitter.false_lit] * amount + current[: width - amount]
            else:
                shifted = current[amount:] + [emitter.false_lit] * amount
            current = [aig.mux(cur, sh, s) for cur, sh in zip(current, shifted)]
        emitter.set_output(cell, "Y", current)

    _register(ctype, yosys_type, tern, mask, lower, n_port="B")


def _reduce(ctype, yosys_type, t_op, m_op, aig_reduce, invert=False):
    """REDUCE_*/LOGIC_NOT family: fold the A vector to one bit."""

    def tern(cell, inputs):
        out = t_op(inputs["A"])
        return {"Y": [t_not(out) if invert else out]}

    def mask(cell, inputs, mask_):
        acc = m_op(inputs["A"], mask_)
        return {"Y": [~acc & mask_ if invert else acc & mask_]}

    def lower(emitter, cell):
        lit = aig_reduce(emitter.aig)(emitter.port_lits(cell, "A"))
        emitter.set_output(cell, "Y", [lit ^ 1 if invert else lit])

    _register(ctype, yosys_type, tern, mask, lower)


def _logic_binary(ctype, yosys_type, t_op, or_combine):
    """LOGIC_AND/LOGIC_OR: boolean-coerced operands, one-bit result."""

    def tern(cell, inputs):
        return {
            "Y": [t_op(t_reduce_or(inputs["A"]), t_reduce_or(inputs["B"]))]
        }

    def mask(cell, inputs, mask_):
        a_any = _mask_or_reduce(inputs["A"])
        b_any = _mask_or_reduce(inputs["B"])
        return {"Y": [(a_any | b_any if or_combine else a_any & b_any) & mask_]}

    def lower(emitter, cell):
        aig = emitter.aig
        a_any = aig.or_reduce(emitter.port_lits(cell, "A"))
        b_any = aig.or_reduce(emitter.port_lits(cell, "B"))
        y = aig.or_(a_any, b_any) if or_combine else aig.and_(a_any, b_any)
        emitter.set_output(cell, "Y", [y])

    _register(ctype, yosys_type, tern, mask, lower)


# -- the registered cell library -------------------------------------------------

# NOT
def _not_tern(cell, inputs):
    return {"Y": [t_not(b) for b in inputs["A"]]}


def _not_mask(cell, inputs, mask_):
    return {"Y": [~a & mask_ for a in inputs["A"]]}


def _not_lower(emitter, cell):
    emitter.set_output(
        cell, "Y", [lit ^ 1 for lit in emitter.port_lits(cell, "A")]
    )


_register(CellType.NOT, "$not", _not_tern, _not_mask, _not_lower)

_bitwise_binary(
    CellType.AND, "$and", t_and,
    lambda a, b, m: a & b, lambda aig: aig.and_,
)
_bitwise_binary(
    CellType.OR, "$or", t_or,
    lambda a, b, m: a | b, lambda aig: aig.or_,
)
_bitwise_binary(
    CellType.XOR, "$xor", t_xor,
    lambda a, b, m: a ^ b, lambda aig: aig.xor,
)
_bitwise_binary(
    CellType.XNOR, "$xnor", t_xnor,
    lambda a, b, m: ~(a ^ b) & m, lambda aig: aig.xnor,
)
# $nand/$nor are small extensions over the RTLIL word-level set (Yosys
# only has the gate-level $_NAND_/$_NOR_); the JSON reader accepts them
# so writer round-trips stay structure-identical.
_bitwise_binary(
    CellType.NAND, "$nand", lambda a, b: t_not(t_and(a, b)),
    lambda a, b, m: ~(a & b) & m,
    lambda aig: (lambda x, y: aig.and_(x, y) ^ 1),
)
_bitwise_binary(
    CellType.NOR, "$nor", lambda a, b: t_not(t_or(a, b)),
    lambda a, b, m: ~(a | b) & m,
    lambda aig: (lambda x, y: aig.or_(x, y) ^ 1),
)


# MUX
def _mux_tern(cell, inputs):
    s = inputs["S"][0]
    return {"Y": [t_mux(a, b, s) for a, b in zip(inputs["A"], inputs["B"])]}


def _mux_mask(cell, inputs, mask_):
    s = inputs["S"][0]
    return {
        "Y": [(a & ~s | b & s) & mask_ for a, b in zip(inputs["A"], inputs["B"])]
    }


def _mux_lower(emitter, cell):
    aig = emitter.aig
    a = emitter.port_lits(cell, "A")
    b = emitter.port_lits(cell, "B")
    s = emitter.port_lits(cell, "S")[0]
    emitter.set_output(cell, "Y", [aig.mux(x, y, s) for x, y in zip(a, b)])


_register(CellType.MUX, "$mux", _mux_tern, _mux_mask, _mux_lower)


# PMUX: priority select, lowest set bit of S wins, Y = A when S == 0.
def _pmux_tern(cell, inputs):
    width = cell.width
    result = list(inputs["A"])
    b = inputs["B"]
    # lowest-index select bit has priority: apply from high index down
    for i in range(cell.n - 1, -1, -1):
        s = inputs["S"][i]
        branch = b[i * width:(i + 1) * width]
        result = [t_mux(y, d, s) for y, d in zip(result, branch)]
    return {"Y": result}


def _pmux_mask(cell, inputs, mask_):
    width = cell.width
    result = list(inputs["A"])
    b = inputs["B"]
    for i in range(cell.n - 1, -1, -1):
        s = inputs["S"][i]
        branch = b[i * width:(i + 1) * width]
        result = [(y & ~s | d & s) & mask_ for y, d in zip(result, branch)]
    return {"Y": result}


def _pmux_lower(emitter, cell):
    aig = emitter.aig
    width = cell.width
    current = emitter.port_lits(cell, "A")
    b = emitter.port_lits(cell, "B")
    s = emitter.port_lits(cell, "S")
    for i in range(cell.n - 1, -1, -1):
        branch = b[i * width:(i + 1) * width]
        current = [aig.mux(cur, br, s[i]) for cur, br in zip(current, branch)]
    emitter.set_output(cell, "Y", current)


_register(
    CellType.PMUX, "$pmux", _pmux_tern, _pmux_mask, _pmux_lower, n_port="S"
)

_compare(
    CellType.EQ, "$eq", t_eq, _mask_eq,
    lambda emitter, cell: _aig_eq(emitter, cell),
)
_compare(
    CellType.NE, "$ne",
    lambda a, b: t_not(t_eq(a, b)),
    lambda a, b, m: ~_mask_eq(a, b, m) & m,
    lambda emitter, cell: _aig_eq(emitter, cell) ^ 1,
)
_compare(
    CellType.LT, "$lt", t_lt, _mask_lt,
    lambda emitter, cell: _aig_ult(
        emitter, emitter.port_lits(cell, "A"), emitter.port_lits(cell, "B")
    ),
)
_compare(
    CellType.LE, "$le",
    lambda a, b: t_not(t_lt(b, a)),
    lambda a, b, m: ~_mask_lt(b, a, m) & m,
    lambda emitter, cell: _aig_ult(
        emitter, emitter.port_lits(cell, "B"), emitter.port_lits(cell, "A")
    ) ^ 1,
)


# ADD / SUB (A - B = A + ~B + 1)
def _add_tern(cell, inputs):
    return {"Y": t_add(inputs["A"], inputs["B"])}


def _add_mask(cell, inputs, mask_):
    return {"Y": _mask_add(inputs["A"], inputs["B"], 0, mask_)}


def _add_lower(emitter, cell):
    emitter.set_output(
        cell,
        "Y",
        _aig_ripple_add(
            emitter,
            emitter.port_lits(cell, "A"),
            emitter.port_lits(cell, "B"),
            emitter.false_lit,
        ),
    )


def _sub_tern(cell, inputs):
    return {
        "Y": t_add(inputs["A"], [t_not(b) for b in inputs["B"]], carry_in=S1)
    }


def _sub_mask(cell, inputs, mask_):
    return {
        "Y": _mask_add(
            inputs["A"], [~b & mask_ for b in inputs["B"]], mask_, mask_
        )
    }


def _sub_lower(emitter, cell):
    emitter.set_output(
        cell,
        "Y",
        _aig_ripple_add(
            emitter,
            emitter.port_lits(cell, "A"),
            [lit ^ 1 for lit in emitter.port_lits(cell, "B")],
            emitter.true_lit,
        ),
    )


_register(CellType.ADD, "$add", _add_tern, _add_mask, _add_lower)
_register(CellType.SUB, "$sub", _sub_tern, _sub_mask, _sub_lower)

_shift(CellType.SHL, "$shl", left=True)
_shift(CellType.SHR, "$shr", left=False)

_reduce(
    CellType.REDUCE_AND, "$reduce_and", t_reduce_and,
    lambda bits, m: _and_reduce_mask(bits, m), lambda aig: aig.and_reduce,
)
_reduce(
    CellType.REDUCE_OR, "$reduce_or", t_reduce_or,
    lambda bits, m: _mask_or_reduce(bits), lambda aig: aig.or_reduce,
)
_reduce(
    CellType.REDUCE_XOR, "$reduce_xor", t_reduce_xor,
    lambda bits, m: _xor_reduce_mask(bits), lambda aig: aig.xor_reduce,
)
_reduce(
    CellType.REDUCE_BOOL, "$reduce_bool", t_reduce_or,
    lambda bits, m: _mask_or_reduce(bits), lambda aig: aig.or_reduce,
)
_reduce(
    CellType.LOGIC_NOT, "$logic_not", t_reduce_or,
    lambda bits, m: _mask_or_reduce(bits), lambda aig: aig.or_reduce,
    invert=True,
)


def _and_reduce_mask(bits: MaskVec, mask_: int) -> int:
    acc = mask_
    for a in bits:
        acc &= a
    return acc


def _xor_reduce_mask(bits: MaskVec) -> int:
    acc = 0
    for a in bits:
        acc ^= a
    return acc


_logic_binary(CellType.LOGIC_AND, "$logic_and", t_and, or_combine=False)
_logic_binary(CellType.LOGIC_OR, "$logic_or", t_or, or_combine=True)

# DFF: no combinational semantics — Q is a value source, D an observable
# sink; flip-flops contribute no AND nodes (the paper's area accounting).
register_spec(
    CellSpec(
        ctype=CellType.DFF,
        ports=port_spec(CellType.DFF),
        yosys_type="$dff",
        combinational=False,
        width_port="D",
        state_ports=("Q",),
        next_state_ports=("D",),
    )
)


def check_registry() -> None:
    """Every cell type must be registered with complete semantics."""
    missing = [t for t in CellType if t not in _REGISTRY]
    if missing:
        raise RuntimeError(f"cell types without a CellSpec: {missing}")
    for spec in all_specs():
        if spec.combinational and (
            spec.eval_ternary is None
            or spec.eval_masks is None
            or spec.lower is None
        ):
            raise RuntimeError(
                f"combinational spec {spec.ctype} is missing an evaluator"
            )


check_registry()


__all__ = [
    "CellSpec",
    "LoweringEmitter",
    "all_specs",
    "check_registry",
    "register_spec",
    "spec_for",
    "spec_for_yosys",
]
