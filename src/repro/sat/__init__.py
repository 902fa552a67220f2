"""MiniSAT-style CDCL SAT solving, a CNF container, Tseitin encoding through
the cell-semantics registry, and the :class:`~repro.sat.oracle.SatOracle`
kernel the redundancy pass and the equivalence checker query."""

from .cnf import CNF
from .oracle import Decision, SatOracle
from .solver import Clause, Solver, SolverStats, luby
from .tseitin import CircuitEncoder

__all__ = [
    "CNF",
    "CircuitEncoder",
    "Clause",
    "Decision",
    "SatOracle",
    "Solver",
    "SolverStats",
    "luby",
]
