"""The SAT kernel behind the redundancy rung and the equivalence checker.

:meth:`SatOracle.decide` packages the redundancy pass's two-polarity
protocol (paper §II): a control is fixed when ``SAT(S=1)`` or
``SAT(S=0)`` is unsatisfiable under the path facts.  Each query gets its
own :class:`~repro.sat.solver.Solver` and
:class:`~repro.sat.tseitin.CircuitEncoder`, so a verdict depends on the
sub-graph it was handed and on nothing asked before it, and a repeat is
solved again.  :meth:`solve_miter` serves the equivalence checker.

Per-session counters (:attr:`SatOracle.counters`, a
:class:`collections.Counter`) are merged into the owning pass's
:class:`~repro.opt.pass_base.PassResult` stats, which flow through
``pass_finished`` events on the :mod:`repro.events` bus and into
:class:`~repro.flow.session.RunReport` JSON.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from ..ir.module import SigMap
from .solver import Solver
from .tseitin import CircuitEncoder


class Decision(NamedTuple):
    """Outcome of a two-polarity redundancy query (:meth:`SatOracle.decide`).

    ``value`` is the forced value of the target bit (None = undecided:
    both polarities are satisfiable, or a solve ran out of conflicts).
    ``dead`` marks a contradiction: the path assumptions themselves are
    unsatisfiable, so neither polarity is reachable.
    """

    value: Optional[bool]
    dead: bool = False


class SatOracle:
    """SAT queries of one owner, with session-total counters.

    ``counters`` survive every query: ``queries`` (one per
    :meth:`decide` and one per miter), ``solver_calls`` (two per
    :meth:`decide`, every solve of a miter's sweep), ``conflicts`` and
    ``learned_clauses``, each listed once it has been counted.
    """

    def __init__(self):
        self.counters: Counter = Counter()

    def _solve(
        self,
        solver: Solver,
        assumptions: List[int],
        max_conflicts: Optional[int],
    ) -> Optional[bool]:
        before_conflicts = solver.stats.conflicts
        before_learned = len(solver.learned)
        verdict = solver.solve(assumptions, max_conflicts=max_conflicts)
        self.counters["solver_calls"] += 1
        self.counters["conflicts"] += solver.stats.conflicts - before_conflicts
        self.counters["learned_clauses"] += max(
            0, len(solver.learned) - before_learned
        )
        return verdict

    def decide(
        self,
        subgraph: Any,
        sigmap: Optional[SigMap] = None,
        max_conflicts: Optional[int] = None,
    ) -> Decision:
        """The redundancy pass's two-polarity protocol on a ``SubGraph``.

        Encodes the sub-graph's cells (``sigmap`` canonicalizes their
        bits) and asks whether the target can be 1, then whether it can
        be 0, under the known facts, both on one solver.  A negative
        answer forces the other value; two negative answers also flag a
        dead path.
        """
        self.counters["queries"] += 1
        solver = Solver()
        encoder = CircuitEncoder(solver, sigmap)
        for cell in subgraph.cells:
            encoder.encode_cell(cell)
        lit = encoder.lit
        assumptions = [
            lit(bit) if value else -lit(bit)
            for bit, value in subgraph.known.items()
        ]
        target = lit(subgraph.target)
        can_be_true = self._solve(solver, assumptions + [target], max_conflicts)
        can_be_false = self._solve(
            solver, assumptions + [-target], max_conflicts
        )
        if can_be_true is False:
            return Decision(False, dead=can_be_false is False)
        if can_be_false is False:
            return Decision(True)
        return Decision(None)

    # -- miter solving (equivalence checking) ----------------------------------

    def solve_miter(
        self,
        aig: Any,
        miter_lit: int,
        max_conflicts: Optional[int] = None,
    ) -> Tuple[Optional[bool], Dict[int, bool]]:
        """Solve one miter output of an AIG by SAT sweeping.

        Returns ``(verdict, model)``: verdict True = the miter can fire
        (circuits differ — ``model`` maps AIG input variables 1..n to the
        distinguishing values), False = proven silent (equivalent), None =
        conflict budget exhausted.

        The miter is decided by :func:`repro.aig.fraig.sweep_miter`:
        simulation-guided candidate pairs are proven equal by two UNSAT
        queries each and merged, and a final query runs only if the
        miter does not fold to constant 0.  A miter that already fires
        on one of the sweep's own seeded simulation patterns returns that
        pattern without any SAT call.  ``max_conflicts`` caps the
        conflicts of all queries together (per-pair queries are further
        capped by :data:`repro.aig.fraig.PAIR_CONFLICTS`; a pair that
        hits that limit just stays unmerged).  Running out of the total
        returns None, never a refutation.

        Counters accumulate on this oracle, so a harness running many
        checks gets one session total: ``queries`` rises by one per
        miter, ``solver_calls`` by every ``solve()`` of the sweep, and
        ``conflicts`` by their total.
        """
        # local import: avoids a package cycle (aig.fraig imports sat.solver)
        from ..aig.fraig import sweep_miter

        self.counters["queries"] += 1
        outcome = sweep_miter(aig, miter_lit, max_conflicts)
        self.counters["solver_calls"] += outcome.solver_calls
        self.counters["conflicts"] += outcome.conflicts
        self.counters["learned_clauses"] += outcome.learned_clauses
        return outcome.verdict, outcome.model


__all__ = ["Decision", "SatOracle"]
