"""Elaboration: Verilog-subset AST -> RTL netlist.

The elaborator mirrors the parts of Yosys ``proc`` that matter for this
paper: behavioural ``if``/``case`` statements become multiplexer networks —
a ``case`` elaborates to the eq+mux priority chain of Figure 5, which is
precisely the structure the restructuring pass later rebuilds.

Design notes / documented simplifications:

* Arithmetic is unsigned; ``*``, ``/``, ``%`` are rejected.
* An incompletely-assigned signal in a combinational block gets ``x``
  (don't-care) bits instead of an inferred latch; sequential blocks use
  hold semantics (``Q`` feeds back) as usual.
* Nonblocking assignments are elaborated in program order within a block
  (single-assignment style); cross-variable swap idioms relying on strict
  NBA scheduling are out of scope.
* Module instantiation uses named connections only (``mod inst
  (.port(net), ...)``); each binding elaborates in the parent and becomes
  an :class:`~repro.ir.module.Instance` record — no flattening happens
  here.  Cross-module checks (does the child exist, do widths match) are
  deferred to :func:`repro.ir.hierarchy.hierarchy`, since modules may be
  declared in any order.
* Every declaration of a net has the same range (``input [3:0] a;
  wire [3:0] a;`` is legal, ``wire a;`` after it is not, IEEE 1364-2005
  §12.3.3); a different one is a :class:`FrontendError` naming the net
  and the line of the declaration that differs.
* A net bit has at most one driver among the ``assign`` statements and
  ``always`` blocks (a combinational block drives every bit of each wire
  it writes, unwritten bits with ``x``); a second one is a
  :class:`FrontendError` naming the bit, since aliasing both drivers
  would short them.  Instance bindings are not counted (their directions
  are unknown here), and an ``assign`` may tie an input port, which is
  how minimized repros pin inputs.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..ir.builder import Circuit
from ..ir.cells import CellType
from ..ir.design import Design
from ..ir.module import Module
from ..ir.signals import BITX, SigBit, SigSpec, State
from .ast import (
    AlwaysBlock,
    Assign,
    Binary,
    Block,
    Case,
    Concat,
    Expr,
    Ident,
    If,
    Index,
    ModuleDecl,
    Number,
    RangeSelect,
    Repeat,
    SourceFile,
    Stmt,
    Ternary,
    Unary,
)
from .lexer import FrontendError
from .parser import parse_source


#: the :class:`Circuit` builder of each binary operator that maps to one
#: cell over operands extended to a common width
_BINARY_BUILDERS = {
    "&": Circuit.and_,
    "|": Circuit.or_,
    "^": Circuit.xor,
    "~^": Circuit.xnor,
    "^~": Circuit.xnor,
    "+": Circuit.add,
    "-": Circuit.sub,
    "==": Circuit.eq,
    "!=": Circuit.ne,
    "<": Circuit.lt,
    "<=": Circuit.le,
}


class Elaborator:
    """Elaborates one :class:`ModuleDecl` into a fresh netlist module."""

    def __init__(self, decl: ModuleDecl, overrides: Optional[Dict[str, int]] = None):
        self.decl = decl
        self.circuit = Circuit(decl.name)
        self.module = self.circuit.module
        self.params: Dict[str, int] = {}
        self.lsb_of: Dict[str, int] = {}
        #: net bit -> the statement driving it ("assign #2", ...)
        self._driver_of: Dict[SigBit, str] = {}
        if overrides:
            self.params.update(overrides)

    # -- parameters and declarations --------------------------------------------

    def const_eval(self, expr: Expr) -> int:
        """Evaluate a constant expression (parameters, widths, indices)."""
        if isinstance(expr, Number):
            return expr.value()
        if isinstance(expr, Ident):
            if expr.name in self.params:
                return self.params[expr.name]
            raise FrontendError(f"not a constant: {expr.name!r}")
        if isinstance(expr, Unary):
            value = self.const_eval(expr.operand)
            if expr.op == "-":
                return -value
            if expr.op == "+":
                return value
            if expr.op == "~":
                return ~value
            if expr.op == "!":
                return int(value == 0)
            raise FrontendError(f"bad constant unary {expr.op!r}")
        if isinstance(expr, Binary):
            left = self.const_eval(expr.left)
            right = self.const_eval(expr.right)
            ops = {
                "+": lambda: left + right,
                "-": lambda: left - right,
                "*": lambda: left * right,
                "/": lambda: left // right,
                "%": lambda: left % right,
                "<<": lambda: left << right,
                ">>": lambda: left >> right,
                "&": lambda: left & right,
                "|": lambda: left | right,
                "^": lambda: left ^ right,
                "==": lambda: int(left == right),
                "!=": lambda: int(left != right),
                "<": lambda: int(left < right),
                "<=": lambda: int(left <= right),
                ">": lambda: int(left > right),
                ">=": lambda: int(left >= right),
                "&&": lambda: int(bool(left) and bool(right)),
                "||": lambda: int(bool(left) or bool(right)),
            }
            if expr.op not in ops:
                raise FrontendError(f"bad constant binary {expr.op!r}")
            return ops[expr.op]()
        if isinstance(expr, Ternary):
            return (
                self.const_eval(expr.then_value)
                if self.const_eval(expr.cond)
                else self.const_eval(expr.else_value)
            )
        raise FrontendError(f"not a constant expression: {expr!r}")

    def elaborate(self) -> Module:
        for param in self.decl.params:
            if param.name not in self.params:  # overrides win
                self.params[param.name] = self.const_eval(param.value)
        for net in self.decl.nets:
            msb, lsb = self._range(net.msb, net.lsb)
            for other_msb, other_lsb, line in net.redeclarations:
                other = self._range(other_msb, other_lsb)
                if other != (msb, lsb):
                    raise FrontendError(
                        f"net {net.name} redeclared at line {line} with "
                        f"range [{other[0]}:{other[1]}]; it was declared "
                        f"[{msb}:{lsb}]"
                    )
            if msb < lsb:
                raise FrontendError(
                    f"descending ranges are not supported: {net.name}[{msb}:{lsb}]"
                )
            self.module.add_wire(
                net.name,
                msb - lsb + 1,
                port_input=net.is_input,
                port_output=net.is_output,
            )
            self.lsb_of[net.name] = lsb
        for number, assign in enumerate(self.decl.assigns, 1):
            target = self.eval_lvalue(assign.target)
            value = self.eval_expr(assign.value, width=len(target))
            self._drive(target, f"assign #{number}")
            self.module.connect(target, value)
        for number, block in enumerate(self.decl.always_blocks, 1):
            if block.clock is None:
                self._elaborate_comb(block, f"always block #{number}")
            else:
                self._elaborate_seq(block, f"always block #{number}")
        for inst in self.decl.instances:
            connections = {}
            for port, expr in inst.bindings:
                if port in connections:
                    raise FrontendError(
                        f"duplicate connection to port {port!r} on "
                        f"instance {inst.name!r}"
                    )
                try:
                    # plain net lvalues carry both directions
                    connections[port] = self.eval_lvalue(expr)
                except FrontendError:
                    # expression bindings (input-only) build parent logic
                    connections[port] = self.eval_expr(expr)
            self.module.add_instance(
                inst.module, name=inst.name, connections=connections
            )
        return self.module

    def _range(self, msb: Optional[Expr],
               lsb: Optional[Expr]) -> Tuple[int, int]:
        """A declared range, ``[0:0]`` when there is none."""
        return (self.const_eval(msb) if msb is not None else 0,
                self.const_eval(lsb) if lsb is not None else 0)

    def _drive(self, target: Iterable[SigBit], driver: str) -> None:
        """Record ``driver`` as the one driver of every bit of ``target``."""
        for bit in target:
            first = self._driver_of.get(bit)
            if first is not None:
                wire = bit.wire
                name = wire.name
                if wire.width > 1:
                    name += f"[{bit.offset + self.lsb_of.get(name, 0)}]"
                raise FrontendError(
                    f"net {name} has two drivers: {first} and {driver}"
                )
            self._driver_of[bit] = driver

    # -- lvalues ------------------------------------------------------------------

    def eval_lvalue(self, expr: Expr) -> SigSpec:
        """A static SigSpec for an assignment target."""
        if isinstance(expr, Ident):
            if expr.name not in self.module.wires:
                raise FrontendError(f"undeclared signal {expr.name!r}")
            return SigSpec.from_wire(self.module.wires[expr.name])
        if isinstance(expr, Index):
            base = self.eval_lvalue(expr.base)
            if not isinstance(expr.base, Ident):
                raise FrontendError("nested lvalue selects are not supported")
            offset = self.const_eval(expr.index) - self.lsb_of[expr.base.name]
            if not (0 <= offset < len(base)):
                raise FrontendError(f"index out of range in lvalue: {expr!r}")
            return SigSpec([base[offset]])
        if isinstance(expr, RangeSelect):
            base = self.eval_lvalue(expr.base)
            if not isinstance(expr.base, Ident):
                raise FrontendError("nested lvalue selects are not supported")
            lsb_base = self.lsb_of[expr.base.name]
            msb = self.const_eval(expr.msb) - lsb_base
            lsb = self.const_eval(expr.lsb) - lsb_base
            if not (0 <= lsb <= msb < len(base)):
                raise FrontendError(f"range out of bounds in lvalue: {expr!r}")
            return base[lsb:msb + 1]
        if isinstance(expr, Concat):
            # Verilog concat is MSB first: reverse into LSB-first order
            parts = [self.eval_lvalue(p) for p in reversed(expr.parts)]
            result = SigSpec()
            for part in parts:
                result = result.concat(part)
            return result
        raise FrontendError(f"unsupported lvalue: {expr!r}")

    # -- expressions -----------------------------------------------------------------

    def eval_expr(
        self,
        expr: Expr,
        env: Optional[Dict[str, SigSpec]] = None,
        width: Optional[int] = None,
    ) -> SigSpec:
        """Build logic for an expression; ``env`` holds procedural values."""
        spec = self._eval(expr, env if env is not None else {})
        if width is not None:
            spec = spec.extend(width)
        return spec

    def _read(self, name: str, env: Dict[str, SigSpec]) -> SigSpec:
        if name in env:
            return env[name]
        if name in self.params:
            value = self.params[name]
            return SigSpec.from_const(value, max(1, value.bit_length()))
        if name not in self.module.wires:
            raise FrontendError(f"undeclared signal {name!r}")
        return SigSpec.from_wire(self.module.wires[name])

    def _eval(self, expr: Expr, env: Dict[str, SigSpec]) -> SigSpec:
        c = self.circuit
        if isinstance(expr, Number):
            if expr.has_xz:
                raise FrontendError(
                    f"x/z literals are only allowed in case patterns: "
                    f"{expr.pattern!r}"
                )
            width = expr.width if expr.width is not None else max(1, len(expr.pattern))
            return SigSpec.from_const(expr.value(), width)
        if isinstance(expr, Ident):
            return self._read(expr.name, env)
        if isinstance(expr, Index):
            base = self._eval(expr.base, env)
            lsb = self.lsb_of.get(self._base_name(expr.base), 0)
            try:
                offset = self.const_eval(expr.index) - lsb
            except FrontendError:
                # dynamic bit select: shift right then take bit 0
                index_spec = self._eval(expr.index, env)
                shifted = c.shr(base, index_spec)
                return SigSpec([shifted[0]])
            if not (0 <= offset < len(base)):
                raise FrontendError(f"index out of range: {expr!r}")
            return SigSpec([base[offset]])
        if isinstance(expr, RangeSelect):
            base = self._eval(expr.base, env)
            lsb_base = self.lsb_of.get(self._base_name(expr.base), 0)
            msb = self.const_eval(expr.msb) - lsb_base
            lsb = self.const_eval(expr.lsb) - lsb_base
            if not (0 <= lsb <= msb < len(base)):
                raise FrontendError(f"range out of bounds: {expr!r}")
            return base[lsb:msb + 1]
        if isinstance(expr, Concat):
            parts = [self._eval(p, env) for p in reversed(expr.parts)]
            result = SigSpec()
            for part in parts:
                result = result.concat(part)
            return result
        if isinstance(expr, Repeat):
            count = self.const_eval(expr.count)
            return self._eval(expr.operand, env).repeat(count)
        if isinstance(expr, Unary):
            return self._eval_unary(expr, env)
        if isinstance(expr, Binary):
            return self._eval_binary(expr, env)
        if isinstance(expr, Ternary):
            cond = self._bool(self._eval(expr.cond, env))
            then_spec = self._eval(expr.then_value, env)
            else_spec = self._eval(expr.else_value, env)
            width = max(len(then_spec), len(else_spec))
            return c.mux(else_spec.extend(width), then_spec.extend(width), cond)
        raise FrontendError(f"unsupported expression: {expr!r}")

    @staticmethod
    def _base_name(expr: Expr) -> str:
        return expr.name if isinstance(expr, Ident) else ""

    def _bool(self, spec: SigSpec) -> SigSpec:
        """Coerce to a single-bit condition."""
        if len(spec) == 1:
            return spec
        return self.circuit.reduce_bool(spec)

    def _eval_unary(self, expr: Unary, env: Dict[str, SigSpec]) -> SigSpec:
        c = self.circuit
        operand = self._eval(expr.operand, env)
        if expr.op == "~":
            return c.not_(operand)
        if expr.op == "!":
            return c.logic_not(operand)
        if expr.op == "&":
            return c.reduce_and(operand)
        if expr.op == "|":
            return c.reduce_or(operand)
        if expr.op == "^":
            return c.reduce_xor(operand)
        if expr.op in ("~&", "~|", "~^", "^~"):
            inner = {"~&": c.reduce_and, "~|": c.reduce_or}.get(expr.op, c.reduce_xor)
            return c.not_(inner(operand))
        if expr.op == "-":
            return c.sub(SigSpec.from_const(0, len(operand)), operand)
        if expr.op == "+":
            return operand
        raise FrontendError(f"unsupported unary operator {expr.op!r}")

    def _eval_binary(self, expr: Binary, env: Dict[str, SigSpec]) -> SigSpec:
        c = self.circuit
        op = expr.op
        if op in ("*", "/", "%"):
            raise FrontendError(f"operator {op!r} is not supported")
        left = self._eval(expr.left, env)
        right = self._eval(expr.right, env)
        if op in ("<<", ">>"):
            builder = c.shl if op == "<<" else c.shr
            try:
                amount = self.const_eval(expr.right)
            except FrontendError:
                return builder(left, right)
            # constant shift: pure rewiring, no cell needed
            width = len(left)
            amount = min(amount, width)
            zeros = list(SigSpec.from_const(0, amount))
            if op == "<<":
                bits = zeros + list(left[: width - amount])
            else:
                bits = list(left[amount:]) + zeros
            return SigSpec(bits)
        if op in ("&&", "||"):
            lbit, rbit = self._bool(left), self._bool(right)
            return c.and_(lbit, rbit) if op == "&&" else c.or_(lbit, rbit)
        width = max(len(left), len(right))
        left = left.extend(width)
        right = right.extend(width)
        builder = _BINARY_BUILDERS.get(op)
        if builder is not None:
            return builder(c, left, right)
        if op == ">":
            return c.lt(right, left)
        if op == ">=":
            return c.le(right, left)
        raise FrontendError(f"unsupported binary operator {op!r}")

    # -- procedural blocks ------------------------------------------------------------

    def _elaborate_comb(self, block: AlwaysBlock, driver: str) -> None:
        env: Dict[str, SigSpec] = {}
        writes: set = set()
        self._exec(block.stmt, env, writes, comb=True)
        for name in sorted(writes):
            wire = self.module.wires[name]
            value = env[name].extend(wire.width)
            self._drive(wire.bits, driver)
            self.module.connect(SigSpec.from_wire(wire), value)

    def _elaborate_seq(self, block: AlwaysBlock, driver: str) -> None:
        if block.clock not in self.module.wires:
            raise FrontendError(f"undeclared clock {block.clock!r}")
        clock = self.module.wires[block.clock]
        env: Dict[str, SigSpec] = {}
        writes: set = set()
        self._exec(block.stmt, env, writes, comb=False)
        for name in sorted(writes):
            wire = self.module.wires[name]
            d_value = env[name].extend(wire.width)
            self._drive(wire.bits, driver)
            self.module.add_cell(
                CellType.DFF,
                CLK=SigSpec.from_wire(clock)[0:1],
                D=d_value,
                Q=SigSpec.from_wire(wire),
            )

    def _initial_value(self, name: str, comb: bool) -> SigSpec:
        """What a procedural read sees before any write in this block."""
        wire = self.module.wires.get(name)
        if wire is None:
            raise FrontendError(f"undeclared signal {name!r}")
        if comb:
            # incomplete combinational assignment: x (don't care), not latch
            return SigSpec([BITX] * wire.width)
        return SigSpec.from_wire(wire)  # sequential: hold current Q

    def _exec(self, stmt: Stmt, env: Dict[str, SigSpec], writes: set, comb: bool) -> None:
        if isinstance(stmt, Block):
            for sub in stmt.statements:
                self._exec(sub, env, writes, comb)
            return
        if isinstance(stmt, Assign):
            self._exec_assign(stmt, env, writes, comb)
            return
        if isinstance(stmt, If):
            cond = self._bool(self.eval_expr(stmt.cond, env))
            then_env, then_writes = dict(env), set(writes)
            self._exec(stmt.then_stmt, then_env, then_writes, comb)
            else_env, else_writes = dict(env), set(writes)
            if stmt.else_stmt is not None:
                self._exec(stmt.else_stmt, else_env, else_writes, comb)
            self._merge(cond, then_env, else_env, env, writes,
                        then_writes | else_writes, comb)
            return
        if isinstance(stmt, Case):
            self._exec_case(stmt, env, writes, comb)
            return
        raise FrontendError(f"unsupported statement: {stmt!r}")

    def _exec_assign(self, stmt: Assign, env: Dict[str, SigSpec],
                     writes: set, comb: bool) -> None:
        value = self.eval_expr(stmt.value, env)
        targets = self._target_slices(stmt.target)
        total = sum(width for _n, _off, width in targets)
        value = value.extend(total)
        position = 0
        for name, offset, width in targets:
            wire = self.module.wires[name]
            current = env.get(name)
            if current is None:
                current = self._initial_value(name, comb)
            piece = value[position:position + width]
            position += width
            bits = list(current.extend(wire.width))
            bits[offset:offset + width] = list(piece)
            env[name] = SigSpec(bits)
            writes.add(name)

    def _target_slices(self, target: Expr) -> List[Tuple[str, int, int]]:
        """Decompose an lvalue into (name, bit offset, width) pieces,
        LSB-first across the whole assignment."""
        if isinstance(target, Ident):
            wire = self.module.wires.get(target.name)
            if wire is None:
                raise FrontendError(f"undeclared signal {target.name!r}")
            return [(target.name, 0, wire.width)]
        if isinstance(target, Index):
            if not isinstance(target.base, Ident):
                raise FrontendError("nested lvalue selects are not supported")
            name = target.base.name
            wire = self.module.wires.get(name)
            if wire is None:
                raise FrontendError(f"undeclared signal {name!r}")
            offset = self.const_eval(target.index) - self.lsb_of.get(name, 0)
            if not (0 <= offset < wire.width):
                raise FrontendError(f"bit index out of range in lvalue: {name}")
            return [(name, offset, 1)]
        if isinstance(target, RangeSelect):
            if not isinstance(target.base, Ident):
                raise FrontendError("nested lvalue selects are not supported")
            name = target.base.name
            wire = self.module.wires.get(name)
            if wire is None:
                raise FrontendError(f"undeclared signal {name!r}")
            lsb_base = self.lsb_of.get(name, 0)
            msb = self.const_eval(target.msb) - lsb_base
            lsb = self.const_eval(target.lsb) - lsb_base
            if not (0 <= lsb <= msb < wire.width):
                raise FrontendError(f"range out of bounds in lvalue: {name}")
            return [(name, lsb, msb - lsb + 1)]
        if isinstance(target, Concat):
            pieces: List[Tuple[str, int, int]] = []
            for part in reversed(target.parts):  # LSB-first
                pieces.extend(self._target_slices(part))
            return pieces
        raise FrontendError(f"unsupported lvalue: {target!r}")

    def _merge(
        self,
        cond: SigSpec,
        then_env: Dict[str, SigSpec],
        else_env: Dict[str, SigSpec],
        env: Dict[str, SigSpec],
        writes: set,
        merged_writes: set,
        comb: bool,
    ) -> None:
        """Join two branch environments with muxes on ``cond``."""
        for name in sorted(merged_writes):
            then_value = then_env.get(name)
            else_value = else_env.get(name)
            if then_value is None:
                then_value = self._initial_value(name, comb)
            if else_value is None:
                else_value = self._initial_value(name, comb)
            if then_value == else_value:
                env[name] = then_value
            else:
                wire = self.module.wires[name]
                env[name] = self.circuit.mux(
                    else_value.extend(wire.width),
                    then_value.extend(wire.width),
                    cond,
                )
            writes.add(name)

    def _exec_case(self, stmt: Case, env: Dict[str, SigSpec],
                   writes: set, comb: bool) -> None:
        selector = self.eval_expr(stmt.selector, env)
        # elaborate every arm against the incoming environment
        arms: List[Tuple[Optional[SigSpec], Dict[str, SigSpec], set]] = []
        default_env: Optional[Dict[str, SigSpec]] = None
        default_writes: set = set()
        all_writes: set = set()
        for item in stmt.items:
            item_env, item_writes = dict(env), set()
            self._exec(item.stmt, item_env, item_writes, comb)
            all_writes |= item_writes
            if not item.patterns:
                default_env, default_writes = item_env, item_writes
                continue
            match = self._match_any(selector, item.patterns, env, stmt.casez)
            arms.append((match, item_env, item_writes))

        # resolve each written signal as a priority mux chain (Figure 5)
        for name in sorted(all_writes | default_writes):
            wire = self.module.wires[name]
            if default_env is not None and name in default_env:
                result = default_env[name].extend(wire.width)
            elif name in env:
                result = env[name].extend(wire.width)
            else:
                result = self._initial_value(name, comb).extend(wire.width)
            for match, item_env, _iw in reversed(arms):
                value = item_env.get(name)
                if value is None:
                    value = env.get(name)
                if value is None:
                    value = self._initial_value(name, comb)
                value = value.extend(wire.width)
                if value == result:
                    continue
                result = self.circuit.mux(result, value, match)
            env[name] = result
            writes.add(name)

    def _match_any(
        self,
        selector: SigSpec,
        patterns: List[Expr],
        env: Dict[str, SigSpec],
        casez: bool,
    ) -> SigSpec:
        """One-bit match condition for a case item (possibly multi-pattern)."""
        conditions: List[SigSpec] = []
        for pattern in patterns:
            if isinstance(pattern, Number) and pattern.has_xz:
                if not casez:
                    raise FrontendError(
                        "x/z patterns require casez"
                    )
                padded = pattern.pattern.rjust(len(selector), "0")
                conditions.append(
                    self.circuit.match_pattern(selector, padded)
                )
            else:
                value = self.eval_expr(pattern, env, width=len(selector))
                conditions.append(self.circuit.eq(selector, value))
        result = conditions[0]
        for extra in conditions[1:]:
            result = self.circuit.or_(result, extra)
        return result


def elaborate(decl: ModuleDecl, overrides: Optional[Dict[str, int]] = None) -> Module:
    """Elaborate one parsed module declaration."""
    return Elaborator(decl, overrides).elaborate()


def compile_verilog(
    source: str,
    top: Optional[str] = None,
    overrides: Optional[Dict[str, int]] = None,
) -> Design:
    """Parse and elaborate Verilog text into a (possibly hierarchical)
    Design; instances stay unflattened (see :mod:`repro.ir.hierarchy`)."""
    parsed: SourceFile = parse_source(source)
    if not parsed.modules:
        raise FrontendError("no modules in source")
    design = Design()
    for decl in parsed.modules:
        design.add_module(elaborate(decl, overrides))
    if top is not None:
        if top not in design:
            raise FrontendError(
                f"no module named {top!r} (available: {sorted(design.modules)})"
            )
        design.set_top(top)
    elif any(module.instances for module in design):
        # hierarchical source: default top is the first uninstantiated
        # root in declaration order, not simply the first module
        instantiated = {
            inst.module_name
            for module in design
            for inst in module.instances.values()
            if inst.module_name != module.name
        }
        for name in design.modules:
            if name not in instantiated:
                design.set_top(name)
                break
    return design
