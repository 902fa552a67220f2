"""A plain CNF formula container, independent of any solver instance.

Useful for building formulas once and solving them several times, and
for brute-force cross-checking in tests.
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, Optional, Sequence, Tuple

from .solver import Solver


class CNF:
    """A list of clauses over variables ``1..num_vars``."""

    def __init__(self, num_vars: int = 0):
        self.num_vars = num_vars
        self.clauses: List[Tuple[int, ...]] = []

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, lits: Iterable[int]) -> None:
        clause = tuple(lits)
        for lit in clause:
            if lit == 0:
                raise ValueError("literal 0 is not allowed")
            self.num_vars = max(self.num_vars, abs(lit))
        self.clauses.append(clause)

    def extend(self, clauses: Iterable[Iterable[int]]) -> None:
        for clause in clauses:
            self.add_clause(clause)

    def to_solver(self, solver: Optional[Solver] = None) -> Solver:
        """Load the formula into a (new) :class:`Solver`."""
        if solver is None:
            solver = Solver()
        solver.ensure_vars(self.num_vars)
        for clause in self.clauses:
            solver.add_clause(clause)
        return solver

    def solve(self, assumptions: Sequence[int] = ()) -> Optional[bool]:
        return self.to_solver().solve(assumptions)

    def evaluate(self, model: Sequence[bool]) -> bool:
        """Check a full assignment; ``model[i]`` is the value of var ``i+1``."""

        def lit_true(lit: int) -> bool:
            value = model[abs(lit) - 1]
            return value if lit > 0 else not value

        return all(any(lit_true(lit) for lit in clause) for clause in self.clauses)

    def brute_force_satisfiable(self) -> bool:
        """Exhaustive satisfiability check (tests only; exponential)."""
        if self.num_vars > 20:
            raise ValueError("brute force limited to 20 variables")
        for bits in itertools.product([False, True], repeat=self.num_vars):
            if self.evaluate(bits):
                return True
        return False

    def count_models(self) -> int:
        """Exhaustive model count (tests only; exponential)."""
        if self.num_vars > 20:
            raise ValueError("brute force limited to 20 variables")
        return sum(
            1
            for bits in itertools.product([False, True], repeat=self.num_vars)
            if self.evaluate(bits)
        )

    def __len__(self) -> int:
        return len(self.clauses)

    def __repr__(self) -> str:
        return f"CNF({self.num_vars} vars, {len(self.clauses)} clauses)"
