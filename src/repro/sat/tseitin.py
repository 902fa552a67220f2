"""Tseitin encoding of RTL netlists into CNF.

:class:`CircuitEncoder` binds a :class:`~repro.sat.solver.Solver` to a module
snapshot and lazily encodes cells into clauses.  It is a
:class:`~repro.ir.celllib.LoweringEmitter`: every cell is encoded by its
registered :meth:`CellSpec.lower <repro.ir.celllib.CellSpec>`, the same
decomposition the AIG mapper uses, so SAT answers, simulation and AIG
evaluation share one semantics table.  The AND-graph surface the lowerings
call (``and_``, ``or_``, ``xor``, ``mux``, ...) emits one Tseitin definition
per gate instead of an AIG node.

Internally the encoder works in AIGER-style literals, because lowerings
negate with ``^ 1``: solver variable ``v`` has literals ``2v``/``2v + 1``
and literal 0/1 is constant false/true, which becomes one solver variable
pinned false when a clause mentions it.  :meth:`lit` converts to the
signed solver literals assumptions are written in.  ``x`` constants are
modeled as one shared unconstrained variable — a conservative choice that
never lets the solver prove more than the circuit guarantees.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..ir import celllib
from ..ir.module import Cell, SigMap
from ..ir.signals import BIT0, BIT1, SigBit
from .solver import Solver

FALSE_LIT = 0
TRUE_LIT = 1


class CircuitEncoder(celllib.LoweringEmitter):
    """Incremental netlist-to-CNF encoder over one solver instance."""

    def __init__(self, solver: Solver, sigmap: Optional[SigMap] = None):
        self.solver = solver
        self.sigmap = sigmap if sigmap is not None else SigMap()
        #: canonical bit -> AIGER literal; constants are pre-bound, and
        #: the x constant gets one shared variable on first use
        self._lits: Dict[SigBit, int] = {BIT0: FALSE_LIT, BIT1: TRUE_LIT}
        self._false_var: Optional[int] = None

    @property
    def aig(self) -> "CircuitEncoder":
        return self

    # -- literals ---------------------------------------------------------------

    def bit_lit(self, bit: SigBit) -> int:
        """The AIGER literal of a bit (a fresh variable for unseen bits)."""
        cbit = self.sigmap.get(bit, bit)
        lit = self._lits.get(cbit)
        if lit is None:
            lit = self._lits[cbit] = self._fresh_lit()
        return lit

    def solver_lit(self, lit: int) -> int:
        """The signed solver literal of an AIGER literal."""
        var = lit >> 1
        if var == 0:
            if self._false_var is None:
                self._false_var = self.solver.new_var()
                self.solver.add_clause([-self._false_var])
            var = self._false_var
        return -var if lit & 1 else var

    def lit(self, bit: SigBit) -> int:
        """The solver literal for a (canonicalised) bit."""
        return self.solver_lit(self.bit_lit(bit))

    def port_lits(self, cell: Cell, port: str) -> List[int]:
        return [self.bit_lit(bit) for bit in cell.connections[port]]

    def set_output(self, cell: Cell, port: str, lits: List[int]) -> None:
        """Bind each output bit to its computed literal.  A bit that
        canonicalizes to a constant with a literal (``BIT0`` and ``BIT1``
        always have one) keeps it, and the computed literal is
        constrained equal to it instead."""
        for bit, lit in zip(cell.connections[port], lits):
            cbit = self.sigmap.get(bit, bit)
            bound = self._lits.get(cbit) if cbit.is_const else None
            if bound is None:
                self._lits[cbit] = lit
            elif bound != lit:
                self._clauses((bound ^ 1, lit), (bound, lit ^ 1))

    # -- AND-graph surface: one Tseitin definition per gate -----------------------

    def _clauses(self, *clauses: Sequence[int]) -> None:
        add, conv = self.solver.add_clause, self.solver_lit
        for clause in clauses:
            add([conv(lit) for lit in clause])

    def _fresh_lit(self) -> int:
        """The positive literal of a fresh solver variable."""
        return 2 * self.solver.new_var()

    def and_(self, a: int, b: int) -> int:
        if a > b:
            a, b = b, a
        if a == FALSE_LIT or a == b ^ 1:
            return FALSE_LIT
        if a == TRUE_LIT or a == b:
            return b
        return 2 * self.solver.add_and(self.solver_lit(a), self.solver_lit(b))

    def or_(self, a: int, b: int) -> int:
        return self.and_(a ^ 1, b ^ 1) ^ 1

    def xor(self, a: int, b: int) -> int:
        if a > b:
            a, b = b, a
        if a <= TRUE_LIT:
            return b ^ a
        if a >> 1 == b >> 1:
            return (a ^ b) & 1
        y = self._fresh_lit()
        self._clauses(
            (a ^ 1, b ^ 1, y ^ 1), (a, b, y ^ 1), (a ^ 1, b, y), (a, b ^ 1, y)
        )
        return y

    def xnor(self, a: int, b: int) -> int:
        return self.xor(a, b) ^ 1

    def mux(self, a: int, b: int, s: int) -> int:
        """``s ? b : a``."""
        if s <= TRUE_LIT:
            return b if s else a
        if a == b:
            return a
        y = self._fresh_lit()
        self._clauses(
            (s, a ^ 1, y), (s, a, y ^ 1), (s ^ 1, b ^ 1, y), (s ^ 1, b, y ^ 1)
        )
        return y

    def and_reduce(self, lits: Sequence[int]) -> int:
        """Wide conjunction; the empty conjunction is true."""
        unique = set(lits)
        unique.discard(TRUE_LIT)
        if FALSE_LIT in unique or any(t ^ 1 in unique for t in unique):
            return FALSE_LIT
        terms = sorted(unique)
        if not terms:
            return TRUE_LIT
        if len(terms) == 1:
            return terms[0]
        y = self._fresh_lit()
        self._clauses(
            [y] + [t ^ 1 for t in terms], *((t, y ^ 1) for t in terms)
        )
        return y

    def or_reduce(self, lits: Sequence[int]) -> int:
        return self.and_reduce([lit ^ 1 for lit in lits]) ^ 1

    def xor_reduce(self, lits: Sequence[int]) -> int:
        acc = FALSE_LIT
        for lit in lits:
            acc = self.xor(acc, lit)
        return acc

    # -- cell encoding ---------------------------------------------------------------

    def encode_cell(self, cell: Cell) -> None:
        """Add the cell's CNF definition.  Callers encode each cell once,
        drivers before their readers (a sub-graph's cells come in that
        order), so no output bit is met as a free input first.  Flip-flops
        have no lowering: ``Q`` stays a free variable (sequential
        boundary)."""
        lower = celllib.spec_for(cell.type).lower
        if lower is not None:
            lower(self, cell)
