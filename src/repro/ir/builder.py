"""Fluent netlist construction API.

:class:`Circuit` wraps a :class:`~repro.ir.module.Module` with expression-
style helpers so tests, examples and workload generators can build netlists
compactly::

    c = Circuit("demo")
    a, b = c.input("a", 8), c.input("b", 8)
    s = c.input("s")
    y = c.mux(a, b, s)            # y = s ? b : a
    c.output("y", y)

The :meth:`Circuit.case_` helper elaborates a ``case`` statement into the
eq+mux *chain* of the paper's Figure 5 — the exact structure Yosys
``proc_mux`` emits and the input shape for muxtree restructuring.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from .cells import CellType
from .module import Cell, Module
from .signals import SigBit, SigLike, SigSpec, State, concat


class Circuit:
    """Convenience builder around a single :class:`Module`."""

    def __init__(self, name: str = "top", module: Optional[Module] = None):
        self.module = module if module is not None else Module(name)

    # -- ports ---------------------------------------------------------------

    def input(self, name: str, width: int = 1) -> SigSpec:
        wire = self.module.add_wire(name, width, port_input=True)
        return SigSpec.from_wire(wire)

    def output(self, name: str, value: Optional[SigLike] = None, width: int = 1) -> SigSpec:
        if value is not None:
            spec = SigSpec.coerce(value)
            wire = self.module.add_wire(name, len(spec), port_output=True)
            self.module.connect(wire, spec)
        else:
            wire = self.module.add_wire(name, width, port_output=True)
        return SigSpec.from_wire(wire)

    def wire(self, name: Optional[str] = None, width: int = 1) -> SigSpec:
        return SigSpec.from_wire(self.module.add_wire(name, width))

    def const(self, value: int, width: int) -> SigSpec:
        return SigSpec.from_const(value, width)

    def concat(self, *parts: SigLike) -> SigSpec:
        """Concatenate signals LSB-first (first argument = low bits)."""
        return concat(*parts)

    # -- generic cell emission -------------------------------------------------

    def _cell(self, ctype: CellType, n: int = 1, **ports: SigLike) -> SigSpec:
        cell = self.module.add_cell(ctype, n=n, **ports)
        return cell.connections[cell.output_ports[0]]

    def _binary(self, ctype: CellType, a: SigLike, b: SigLike) -> SigSpec:
        a_spec = SigSpec.coerce(a)
        b_spec = SigSpec.coerce(b, len(a_spec)) if isinstance(b, int) else SigSpec.coerce(b)
        width = max(len(a_spec), len(b_spec))
        return self._cell(ctype, A=a_spec.extend(width), B=b_spec.extend(width))

    # -- bitwise -----------------------------------------------------------

    def not_(self, a: SigLike) -> SigSpec:
        return self._cell(CellType.NOT, A=SigSpec.coerce(a))

    def and_(self, a: SigLike, b: SigLike) -> SigSpec:
        return self._binary(CellType.AND, a, b)

    def or_(self, a: SigLike, b: SigLike) -> SigSpec:
        return self._binary(CellType.OR, a, b)

    def xor(self, a: SigLike, b: SigLike) -> SigSpec:
        return self._binary(CellType.XOR, a, b)

    def xnor(self, a: SigLike, b: SigLike) -> SigSpec:
        return self._binary(CellType.XNOR, a, b)

    def nand(self, a: SigLike, b: SigLike) -> SigSpec:
        return self._binary(CellType.NAND, a, b)

    def nor(self, a: SigLike, b: SigLike) -> SigSpec:
        return self._binary(CellType.NOR, a, b)

    # -- arithmetic / compare -------------------------------------------------

    def add(self, a: SigLike, b: SigLike) -> SigSpec:
        return self._binary(CellType.ADD, a, b)

    def sub(self, a: SigLike, b: SigLike) -> SigSpec:
        return self._binary(CellType.SUB, a, b)

    def shl(self, a: SigLike, b: SigLike) -> SigSpec:
        a_spec, b_spec = SigSpec.coerce(a), SigSpec.coerce(b)
        return self._cell(CellType.SHL, n=len(b_spec), A=a_spec, B=b_spec)

    def shr(self, a: SigLike, b: SigLike) -> SigSpec:
        a_spec, b_spec = SigSpec.coerce(a), SigSpec.coerce(b)
        return self._cell(CellType.SHR, n=len(b_spec), A=a_spec, B=b_spec)

    def eq(self, a: SigLike, b: SigLike) -> SigSpec:
        return self._binary(CellType.EQ, a, b)

    def ne(self, a: SigLike, b: SigLike) -> SigSpec:
        return self._binary(CellType.NE, a, b)

    def lt(self, a: SigLike, b: SigLike) -> SigSpec:
        return self._binary(CellType.LT, a, b)

    def le(self, a: SigLike, b: SigLike) -> SigSpec:
        return self._binary(CellType.LE, a, b)

    # -- reductions / logic -----------------------------------------------------

    def reduce_and(self, a: SigLike) -> SigSpec:
        return self._cell(CellType.REDUCE_AND, A=SigSpec.coerce(a))

    def reduce_or(self, a: SigLike) -> SigSpec:
        return self._cell(CellType.REDUCE_OR, A=SigSpec.coerce(a))

    def reduce_xor(self, a: SigLike) -> SigSpec:
        return self._cell(CellType.REDUCE_XOR, A=SigSpec.coerce(a))

    def reduce_bool(self, a: SigLike) -> SigSpec:
        return self._cell(CellType.REDUCE_BOOL, A=SigSpec.coerce(a))

    def logic_not(self, a: SigLike) -> SigSpec:
        return self._cell(CellType.LOGIC_NOT, A=SigSpec.coerce(a))

    def logic_and(self, a: SigLike, b: SigLike) -> SigSpec:
        return self._binary(CellType.LOGIC_AND, a, b)

    def logic_or(self, a: SigLike, b: SigLike) -> SigSpec:
        return self._binary(CellType.LOGIC_OR, a, b)

    # -- multiplexers ----------------------------------------------------------

    def mux(self, a: SigLike, b: SigLike, s: SigLike) -> SigSpec:
        """``Y = S ? B : A`` (Yosys convention: S=1 selects B)."""
        a_spec = SigSpec.coerce(a)
        b_spec = SigSpec.coerce(b, len(a_spec))
        s_spec = SigSpec.coerce(s)
        if len(s_spec) != 1:
            raise ValueError("mux select must be a single bit")
        return self._cell(CellType.MUX, A=a_spec, B=b_spec, S=s_spec)

    def pmux(self, default: SigLike, branches: Sequence[Tuple[SigLike, SigLike]]) -> SigSpec:
        """One-hot parallel mux: ``branches`` is ``[(select_bit, value), ...]``.

        ``Y = default`` when no select bit is high; ``Y = value_i`` when
        ``select_i`` is the (unique) high bit.
        """
        a_spec = SigSpec.coerce(default)
        width = len(a_spec)
        sel_bits: List[SigSpec] = []
        data: List[SigSpec] = []
        for sel, value in branches:
            sel_spec = SigSpec.coerce(sel)
            if len(sel_spec) != 1:
                raise ValueError("pmux select entries must be single bits")
            sel_bits.append(sel_spec)
            data.append(SigSpec.coerce(value, width))
        return self._cell(
            CellType.PMUX,
            n=len(branches),
            A=a_spec,
            B=concat(*data),
            S=concat(*sel_bits),
        )

    # -- sequential -------------------------------------------------------------

    def dff(self, clk: SigLike, d: SigLike) -> SigSpec:
        return self._cell(CellType.DFF, CLK=SigSpec.coerce(clk), D=SigSpec.coerce(d))

    # -- behavioural helpers ------------------------------------------------------

    def case_(
        self,
        selector: SigLike,
        arms: Sequence[Tuple[Union[int, str], SigLike]],
        default: SigLike,
    ) -> SigSpec:
        """Elaborate a ``case`` statement into an eq+mux *chain* (Figure 5).

        ``arms`` maps match patterns (ints, or MSB-first pattern strings with
        ``z``/``?`` don't-cares) to values.  The chain is built from the last
        arm up, so the first arm has priority, exactly like Yosys
        ``proc_mux`` output for a full ``case``::

            y = (sel==p0) ? v0 : ((sel==p1) ? v1 : ... default)
        """
        sel = SigSpec.coerce(selector)
        result = SigSpec.coerce(default)
        width = len(result)
        for pattern, value in reversed(list(arms)):
            value_spec = SigSpec.coerce(value, width)
            match = self.match_pattern(sel, pattern)
            result = self.mux(result, value_spec, match)
        return result

    def match_pattern(self, sel: SigSpec, pattern: Union[int, str]) -> SigSpec:
        """A single-bit match condition for one case arm.

        Full patterns become an ``eq`` cell against a constant.  Patterns
        with don't-cares (``casez``) compare only the cared-about bits, via
        ``eq`` on the cared sub-vector (single-bit compares reduce to the bit
        itself or its ``logic_not``).
        """
        if isinstance(pattern, int):
            return self.eq(sel, SigSpec.from_const(pattern, len(sel)))
        pat = SigSpec.from_pattern(pattern).extend(len(sel))
        cared = [(i, bit.state) for i, bit in enumerate(pat) if bit.state is not State.Sx]
        if not cared:
            return SigSpec.from_const(1, 1)
        if len(cared) == len(sel):
            return self.eq(sel, SigSpec(
                [b for b in pat]
            ))
        sub_sel = SigSpec([sel[i] for i, _s in cared])
        sub_pat = SigSpec.from_const(
            sum(1 << k for k, (_i, s) in enumerate(cared) if s is State.S1),
            len(cared),
        )
        return self.eq(sub_sel, sub_pat)

    def if_(self, cond: SigLike, then_value: SigLike, else_value: SigLike) -> SigSpec:
        """``cond ? then_value : else_value`` as a mux."""
        return self.mux(else_value, then_value, cond)

    def __repr__(self) -> str:
        return f"Circuit({self.module!r})"
