"""SAT sweeping over a miter AIG (FRAIG-style equivalence checking).

A miter of two circuits that share most of their structure is easy to
prove bottom-up and hard to prove in one piece: a single SAT call on the
whole miter has to rediscover every internal equivalence through
conflicts.  The sweep (Mishchenko et al., "FRAIGs", 2005) proves those
equivalences one at a time instead:

* bit-parallel random simulation from a fixed seed groups nodes into
  candidate classes by phase-normalized signature — a node and its
  complement share a class, and nodes that simulate constant share the
  class of constant 0;
* AND nodes are visited in topological order and re-hashed over their
  fanins' representative literals, so logic above a merge collapses
  structurally;
* a node whose signature matches an earlier class head is merged into
  it only after two UNSAT answers, ``[x, ¬y]`` and ``[¬x, y]``, on an
  incremental :class:`~repro.sat.solver.Solver` that holds just the
  cones the queries reached (:class:`ConeEncoder`).  A satisfying model
  becomes a new simulation pattern that refines the classes; a pair the
  solver cannot settle within :data:`PAIR_CONFLICTS` conflicts stays
  unmerged;
* after the sweep the miter literal usually folds to constant 0.  When
  it does not, one final query on the same solver decides it.

The solver must assign every variable it holds before it can answer
SAT, so a model costs time in proportion to the solver's size rather
than the query's cone.  The sweep therefore starts a fresh solver once
the current one has grown :data:`RECYCLE_VARS` variables past what its
first query needed: learned clauses are lost, but the cones re-encode
cheaply and counterexamples stay fast.

Nothing is merged on simulation alone, and a representative always
precedes the nodes merged into it, so the reduced graph computes the
same functions as the original and every verdict is exact.
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

from ..sat.solver import Solver
from .aig import AIG

#: conflict limit of one candidate-pair query; a pair the solver cannot
#: settle within it is left unmerged
PAIR_CONFLICTS = 1000
#: random simulation patterns the sweep starts from
SIM_PATTERNS = 256
#: seed of those patterns and of the free inputs of refinement patterns,
#: so a sweep never depends on ``PYTHONHASHSEED`` or on earlier sweeps
SIM_SEED = 0x5EED
#: variables a solver may grow past its first query before the sweep
#: starts a fresh one
RECYCLE_VARS = 250


class ConeEncoder:
    """Tseitin-encodes AND nodes into an incremental solver on demand.

    ``fanins`` maps each AND variable to its two fanin literals; any
    other variable is a free solver variable, and variable 0 is constant
    false.  :meth:`lit` encodes the cone of a literal the first time a
    query reaches it, one :meth:`Solver.add_and
    <repro.sat.solver.Solver.add_and>` per AND (the definition the
    netlist encoder uses too), so :attr:`solver` only holds the cones its
    queries touch.  ``fanins`` may grow between calls.
    """

    def __init__(self, fanins: Mapping[int, Tuple[int, int]]):
        self.solver = Solver()
        self.fanins = fanins
        false = self.solver.new_var()
        self.solver.add_clause([-false])
        #: AIG variable -> solver variable
        self.var_map: Dict[int, int] = {0: false}

    def lit(self, aig_lit: int) -> int:
        """The solver literal of an AIG literal, encoding its cone first."""
        svar = self.var_map.get(aig_lit >> 1)
        if svar is None:
            svar = self._encode(aig_lit >> 1)
        return -svar if aig_lit & 1 else svar

    def _encode(self, root: int) -> int:
        var_map, fanins, solver = self.var_map, self.fanins, self.solver
        stack = [root]
        while stack:
            var = stack[-1]
            if var in var_map:
                stack.pop()
                continue
            pair = fanins.get(var)
            if pair is None:
                var_map[var] = solver.new_var()
                stack.pop()
                continue
            f0, f1 = pair
            a, b = var_map.get(f0 >> 1), var_map.get(f1 >> 1)
            if a is None or b is None:
                if a is None:
                    stack.append(f0 >> 1)
                if b is None:
                    stack.append(f1 >> 1)
                continue
            stack.pop()
            var_map[var] = solver.add_and(
                -a if f0 & 1 else a, -b if f1 & 1 else b
            )
        return var_map[root]


class SweepOutcome(NamedTuple):
    """Verdict of :func:`sweep_miter` plus the solver work it took.

    ``verdict`` and ``model`` follow
    :meth:`~repro.sat.oracle.SatOracle.solve_miter`.  ``learned_clauses``
    sums the learned-clause databases of every solver the sweep used.
    """

    verdict: Optional[bool]
    model: Dict[int, bool]
    solver_calls: int
    conflicts: int
    learned_clauses: int
    merges: int


def sweep_miter(
    aig: AIG, miter_lit: int, max_conflicts: Optional[int] = None
) -> SweepOutcome:
    """Decide whether ``miter_lit`` can be 1 by SAT sweeping ``aig``.

    ``max_conflicts`` caps the conflicts of all pair queries and the
    final query together; running out yields ``verdict=None``.  A miter
    that fires on a simulation pattern returns that pattern as the model
    without (further) SAT calls.
    """
    return _Sweep(aig, max_conflicts).run(miter_lit)


class _Exhausted(Exception):
    """The sweep's total conflict budget ran out."""


class _Fired(Exception):
    """A simulation pattern fires the miter."""

    def __init__(self, model: Dict[int, bool]):
        super().__init__()
        self.model = model


class _Sweep:
    """One sweep: simulation signatures, candidate classes, the reduced
    graph and the solver its queries run on."""

    def __init__(self, aig: AIG, max_conflicts: Optional[int]):
        self.aig = aig
        self.remaining = max_conflicts
        self.rng = random.Random(SIM_SEED)
        self.width = SIM_PATTERNS
        words = [
            self.rng.getrandbits(SIM_PATTERNS) for _ in range(aig.num_inputs)
        ]
        #: bit-parallel simulation signature of every variable; an input's
        #: signature is its column of the patterns
        self.sig = aig.eval_masks(words, nvec=self.width)
        self.sig[0] = 0
        #: reduced fanins of every AND node that survived re-hashing
        self.reduced: Dict[int, Tuple[int, int]] = {}
        self.encoder = ConeEncoder(self.reduced)
        #: solver size that triggers a fresh solver (None: not yet known)
        self.recycle_at: Optional[int] = None
        #: merge candidates in topological order: constant 0, the
        #: inputs, then every AND node that was not merged
        self.heads: List[int] = []
        #: phase-normalized signature -> earliest head carrying it
        self.classes: Dict[int, int] = {}
        self.solver_calls = 0
        self.conflicts = 0
        self.learned = 0
        self.merges = 0

    def run(self, miter_lit: int) -> SweepOutcome:
        fired = self.sig[miter_lit >> 1]
        if miter_lit & 1:
            fired ^= (1 << self.width) - 1
        if fired:
            lowest = (fired & -fired).bit_length() - 1
            return self._outcome(True, self._pattern(lowest))
        try:
            final = self._sweep(miter_lit)
            if final == 0:
                return self._outcome(False, {})
            verdict = self._solve([self.encoder.lit(final)], None)
        except _Exhausted:
            return self._outcome(None, {})
        except _Fired as fired_by:
            return self._outcome(True, fired_by.model)
        model: Dict[int, bool] = {}
        if verdict:
            solver, var_map = self.encoder.solver, self.encoder.var_map
            for var in range(1, self.aig.num_inputs + 1):
                svar = var_map.get(var)
                model[var] = svar is not None and bool(solver.model_value(svar))
        return self._outcome(verdict, model)

    # -- the sweep ------------------------------------------------------------

    def _sweep(self, miter_lit: int) -> int:
        """Visit the miter's cone; returns the miter's reduced literal."""
        aig = self.aig
        ands = aig._ands
        base = aig.num_inputs + 1
        #: representative literal of every visited variable
        rep = list(range(0, 2 * (aig.max_var + 1), 2))
        for var in range(base):
            self._add_head(var)
        strash: Dict[Tuple[int, int], int] = {}
        for var in self._cone(miter_lit):
            f0, f1 = ands[var - base]
            a = rep[f0 >> 1] ^ (f0 & 1)
            b = rep[f1 >> 1] ^ (f1 & 1)
            if a > b:
                a, b = b, a
            if a == 0 or a == b ^ 1:
                rep[var] = 0
            elif a == 1 or a == b:
                rep[var] = b
            elif (a, b) in strash:
                rep[var] = strash[(a, b)]
            else:
                self.reduced[var] = (a, b)
                rep[var] = strash[(a, b)] = self._merge_target(var, miter_lit)
        return rep[miter_lit >> 1] ^ (miter_lit & 1)

    def _cone(self, miter_lit: int) -> List[int]:
        """AND variables in the miter's transitive fanin, topologically."""
        aig = self.aig
        base = aig.num_inputs + 1
        marked = [False] * (aig.max_var + 1)
        marked[miter_lit >> 1] = True
        for var in range(aig.max_var, base - 1, -1):
            if marked[var]:
                f0, f1 = aig._ands[var - base]
                marked[f0 >> 1] = True
                marked[f1 >> 1] = True
        return [var for var in range(base, aig.max_var + 1) if marked[var]]

    def _merge_target(self, var: int, miter_lit: int) -> int:
        """The literal a re-hashed AND node is proven equal to: its class
        head's, or its own when no head is proven."""
        while True:
            head = self.classes.get(self._key(var))
            if head is None:
                break
            target = 2 * head ^ ((self.sig[var] ^ self.sig[head]) & 1)
            proven = self._prove(var, target)
            if proven:
                self.merges += 1
                return target
            if proven is None:
                break
            self._refine(miter_lit)
        self._add_head(var)
        return 2 * var

    # -- simulation -----------------------------------------------------------

    def _key(self, var: int) -> int:
        """Phase-normalized signature: pattern 0 always reads 0."""
        sig = self.sig[var]
        return sig ^ ((1 << self.width) - 1) if sig & 1 else sig

    def _add_head(self, var: int) -> None:
        self.heads.append(var)
        self.classes.setdefault(self._key(var), var)

    def _pattern(self, index: int) -> Dict[int, bool]:
        """Simulation pattern ``index`` as a model over the inputs."""
        return {
            var: bool(self.sig[var] >> index & 1)
            for var in range(1, self.aig.num_inputs + 1)
        }

    def _refine(self, miter_lit: int) -> None:
        """Append the solver's last model as a simulation pattern (inputs
        outside the solver draw random bits) and re-key the classes;
        raises :class:`_Fired` when the pattern fires the miter."""
        solver, var_map = self.encoder.solver, self.encoder.var_map
        bits = [
            self.rng.getrandbits(1) if svar is None
            else int(bool(solver.model_value(svar)))
            for svar in map(var_map.get, range(1, self.aig.num_inputs + 1))
        ]
        index = self.width
        self.width += 1
        for var, value in self.aig.eval_masks(bits).items():
            if value:
                self.sig[var] |= 1 << index
        if (self.sig[miter_lit >> 1] >> index ^ miter_lit) & 1:
            raise _Fired(self._pattern(index))
        self.classes = {}
        for var in self.heads:
            self.classes.setdefault(self._key(var), var)

    # -- SAT ------------------------------------------------------------------

    def _prove(self, var: int, target: int) -> Optional[bool]:
        """Is AND node ``var`` equal to literal ``target``?  True = both
        polarities UNSAT, False = a model tells them apart, None = the
        pair limit ran out."""
        solver = self.encoder.solver
        if self.recycle_at is not None and solver.num_vars > self.recycle_at:
            self.learned += len(solver.learned)
            self.encoder = ConeEncoder(self.reduced)
            self.recycle_at = None
        x = self.encoder.lit(2 * var)
        if target >> 1 == 0:
            queries = [[-x if target else x]]
        else:
            y = self.encoder.lit(target)
            queries = [[x, -y], [-x, y]]
        if self.recycle_at is None:
            self.recycle_at = self.encoder.solver.num_vars + RECYCLE_VARS
        for assumptions in queries:
            verdict = self._solve(assumptions, PAIR_CONFLICTS)
            if verdict is not False:
                return None if verdict is None else False
        return True

    def _solve(
        self, assumptions: List[int], limit: Optional[int]
    ) -> Optional[bool]:
        """One ``solve()`` under the remaining total budget."""
        if self.remaining is not None:
            if self.remaining <= 0:
                raise _Exhausted()
            if limit is None or limit > self.remaining:
                limit = self.remaining
        solver = self.encoder.solver
        before = solver.stats.conflicts
        verdict = solver.solve(assumptions, max_conflicts=limit)
        spent = solver.stats.conflicts - before
        self.solver_calls += 1
        self.conflicts += spent
        if self.remaining is not None:
            self.remaining -= spent
            if verdict is None and self.remaining <= 0:
                raise _Exhausted()
        return verdict

    def _outcome(
        self, verdict: Optional[bool], model: Dict[int, bool]
    ) -> SweepOutcome:
        return SweepOutcome(
            verdict,
            model,
            self.solver_calls,
            self.conflicts,
            self.learned + len(self.encoder.solver.learned),
            self.merges,
        )


__all__ = ["ConeEncoder", "PAIR_CONFLICTS", "SweepOutcome", "sweep_miter"]
