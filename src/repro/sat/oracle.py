"""Incremental SAT oracle: clause reuse, verdict memoization, counters.

The redundancy pass and the equivalence checker used to build a fresh
:class:`~repro.sat.solver.Solver` and re-encode their CNF for every single
query — the hottest path of the whole flow.  :class:`SatOracle` replaces
that with persistent *contexts*:

* one context per *target bit*, grown monotonically: every reduced
  sub-graph handed in for that target adds the not-yet-encoded cells to
  the context's solver, so the target's fanin cone — common to every
  fact-variant of the query — is encoded exactly once, and queries are
  answered through assumption-based incremental ``solve()`` calls —
  **monotonic clause reuse**.  Exactness argument: a reduced sub-graph is
  the union of the target's and the known bits' fanin cones inside the
  (facts-independent) distance-k neighbourhood, so any in-neighbourhood
  driver of one of its free inputs would itself be an ancestor of the
  target and therefore already inside the sub-graph.  Cells contributed
  by *other* fact-variants of the same target can consequently never
  drive a sub-graph input — they only define their own (otherwise
  unconstrained) outputs — so adding them cannot change any per-query
  SAT/UNSAT verdict, and the learned clauses they participate in are
  implied by circuit CNF independently of any assumption set;
* every encoded cell's :attr:`~repro.ir.module.Cell.version` is recorded
  and re-validated on each query — a cell rewired mid-pass (muxtree
  pruning mutates the netlist as it walks) invalidates the whole context,
  which is rebuilt from the current sub-graph rather than answered from a
  stale encoding;
* verdicts are memoized by a canonical ``(sub-graph signature, target,
  assumptions, polarity, budget)`` key, so repeated queries (the muxtree
  traversal asks about the same control bits along many paths, and
  fixpoint flows repeat whole pass invocations) skip the solver entirely.
  *Decided* verdicts are keyed by the canonical name-free structural
  signature (:func:`repro.ir.struct_hash.struct_signature`), so isomorphic
  sub-graphs — renamed regions of the same module, or repeated instances
  of the same logic shape — share SAT/UNSAT answers.  A decided polarity
  verdict is a semantic property of the structure, so sharing it is
  always sound; *budget-exhausted* (None) verdicts depend on the CNF
  variable order the solver happened to see, so they memoize under the
  identity key (:func:`signature_of`) and only ever replay for the exact
  same sub-graph.

Per-session counters (:attr:`SatOracle.counters`, a
:class:`collections.Counter`) are merged into the owning pass's
:class:`~repro.opt.pass_base.PassResult` stats, which flow through
``pass_finished`` events on the :mod:`repro.events` bus and into
:class:`~repro.flow.session.RunReport` JSON.

The oracle itself never looks at path semantics: callers hand it a cell
set, facts, and a question.  :meth:`decide` packages the redundancy pass's
two-polarity protocol; :meth:`solve_miter` serves the equivalence checker.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from typing import (
    Any,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..ir.module import Cell, SigMap
from ..ir.signals import SigBit
from ..ir.struct_hash import StructKeyMemo
from .solver import Solver
from .tseitin import CircuitEncoder

#: content signature of an encoded cell set
Signature = Tuple[Tuple[str, int], ...]


class Decision(NamedTuple):
    """Outcome of a two-polarity redundancy query (:meth:`SatOracle.decide`).

    ``value`` is the forced value of the target bit (None = undecided,
    which covers both genuinely-free targets and exhausted conflict
    budgets).  ``dead`` marks a contradiction: the path assumptions
    themselves are unsatisfiable, so neither polarity is reachable.
    """

    value: Optional[bool]
    dead: bool = False


class _Context:
    """One persistent solver accumulating the encodings of one target."""

    __slots__ = ("solver", "encoder", "encoded")

    def __init__(self, sigmap: Optional[SigMap]):
        self.solver = Solver()
        self.encoder = CircuitEncoder(self.solver, sigmap)
        #: id(cell) -> (cell, version-at-encode) for staleness validation;
        #: the cell reference also pins the object so ids cannot recycle
        self.encoded: Dict[int, Tuple[Cell, int]] = {}

    def is_stale(self) -> bool:
        """True when any encoded cell was rewired since its encoding."""
        return any(
            cell.version != version for cell, version in self.encoded.values()
        )

    def extend(self, cells: Sequence[Cell]) -> int:
        """Encode the not-yet-encoded cells; returns how many were added."""
        added = 0
        for cell in cells:
            if id(cell) not in self.encoded:
                self.encoder.encode_cell(cell)
                self.encoded[id(cell)] = (cell, cell.version)
                added += 1
        return added


def signature_of(cells: Sequence[Cell]) -> Signature:
    """Content signature of a cell sequence (order-sensitive)."""
    return tuple((cell.name, cell.version) for cell in cells)


class SatOracle:
    """Persistent incremental SAT oracle for one module (or one CEC run).

    ``module`` is an identity anchor only: owners such as the
    :class:`~repro.core.redundancy.SatRedundancy` stage keep one oracle
    per module and rebuild it when handed a different one.
    ``max_contexts`` bounds memory with LRU eviction of whole solver
    contexts.  Decided
    :meth:`can_be` verdicts memoize under canonical name-free structural
    signatures so isomorphic sub-graphs share answers (see the module
    docstring).

    A *generation* is one optimization-pass invocation: callers must open
    one with :meth:`begin_pass` before querying.  Contexts and verdicts
    never survive a generation change, because alias connections added by
    other passes can re-canonicalise bits between passes; ``counters``
    do survive, giving per-session totals: ``queries``, ``cache_hits``,
    ``solver_calls``, ``conflicts``, ``contexts_built``,
    ``contexts_reused``, ``cells_encoded`` and ``learned_clauses``, each
    listed once it has been counted.
    """

    def __init__(
        self,
        module: Any = None,
        max_contexts: int = 256,
        max_verdicts: int = 200_000,
        struct_memo: Optional[StructKeyMemo] = None,
    ):
        self.module = module
        self.max_contexts = max_contexts
        self.max_verdicts = max_verdicts
        self.counters: Counter = Counter()
        #: context key is the query target bit (one growing solver each)
        self._contexts: "OrderedDict[SigBit, _Context]" = OrderedDict()
        self._verdicts: Dict[Tuple, Optional[bool]] = {}
        self._sigmap: Optional[SigMap] = None
        #: canonical-labeling memo.  Owners that also hold a
        #: :class:`~repro.core.cache.ResultCache` pass its memo in, so the
        #: same sub-graph is canonicalized once for resolve keys, rung
        #: keys and verdict keys alike.
        self._struct_memo = (
            struct_memo if struct_memo is not None else StructKeyMemo()
        )

    # -- lifecycle -------------------------------------------------------------

    def begin_pass(self, sigmap: Optional[SigMap] = None) -> None:
        """Open a new generation bound to a pass's sigmap snapshot.

        Solver contexts never cross generations: their CNF is built
        against one sigmap snapshot, and alias connections added by other
        passes in between may re-canonicalise bits.  The *verdict* cache
        does survive — its keys embed the sub-graph's content signature
        (cell versions), free-input list, target and facts, all expressed
        in canonical bits, so any re-canonicalisation that could change a
        query's CNF also changes its key.  Fixpoint flows re-ask every
        undecided control query each round; those repeats are the cache's
        main customer.
        """
        self._contexts.clear()
        self._sigmap = sigmap

    # -- contexts --------------------------------------------------------------

    def _context_for(self, target: SigBit, cells: Sequence[Cell]) -> _Context:
        context = self._contexts.get(target)
        if context is not None and context.is_stale():
            del self._contexts[target]
            context = None
        if context is not None:
            self._contexts.move_to_end(target)
            self.counters["contexts_reused"] += 1
        else:
            context = _Context(self._sigmap)
            self.counters["contexts_built"] += 1
            self._contexts[target] = context
            if len(self._contexts) > self.max_contexts:
                self._contexts.popitem(last=False)
        self.counters["cells_encoded"] += context.extend(cells)
        return context

    def _solve(
        self,
        context: _Context,
        assumptions: List[int],
        max_conflicts: Optional[int],
    ) -> Optional[bool]:
        solver = context.solver
        before_conflicts = solver.stats.conflicts
        before_learned = len(solver.learned)
        verdict = solver.solve(assumptions, max_conflicts=max_conflicts)
        self.counters["solver_calls"] += 1
        self.counters["conflicts"] += solver.stats.conflicts - before_conflicts
        self.counters["learned_clauses"] += max(
            0, len(solver.learned) - before_learned
        )
        return verdict

    def _remember(self, key: Tuple, verdict: Optional[bool]) -> None:
        """Memoize a verdict, dropping the oldest half at the size cap.

        Netlist mutation permanently orphans every key that embeds an old
        cell version, so the cache must not grow with the lifetime of a
        long optimization run; plain-dict insertion order makes oldest-
        first eviction free.
        """
        if len(self._verdicts) >= self.max_verdicts:
            for stale in list(self._verdicts)[: self.max_verdicts // 2]:
                del self._verdicts[stale]
        self._verdicts[key] = verdict

    @staticmethod
    def _assumption_lits(
        context: _Context, known: Dict[SigBit, bool]
    ) -> List[int]:
        lit = context.encoder.lit
        return [lit(bit) if value else -lit(bit) for bit, value in known.items()]

    # -- queries ---------------------------------------------------------------

    def can_be(
        self,
        cells: Sequence[Cell],
        target: SigBit,
        value: bool,
        known: Dict[SigBit, bool],
        max_conflicts: Optional[int] = None,
        inputs: Sequence[SigBit] = (),
    ) -> Optional[bool]:
        """Can ``target`` take ``value`` under the ``known`` facts?

        True/False is a definite SAT/UNSAT verdict for the sub-graph CNF;
        None means the conflict budget ran out.  All three outcomes are
        memoized (None deterministically so, keyed by the budget).

        ``inputs`` — the sub-graph's free source bits — participates in
        the memo key only: it is what makes cached verdicts safe across
        pass generations, because alias connections that re-canonicalise
        a boundary bit change the input list (and alias-to-constant folds
        drop the bit from it) even when no sub-graph cell was rewired.
        """
        self.counters["queries"] += 1
        struct_key = (
            self._struct_memo.signature(
                cells, target, known, inputs=inputs, sigmap=self._sigmap
            ),
            value,
            max_conflicts,
        )
        if struct_key in self._verdicts:
            self.counters["cache_hits"] += 1
            return self._verdicts[struct_key]
        ident_key = (
            signature_of(cells),
            tuple(inputs),
            target,
            frozenset(known.items()),
            value,
            max_conflicts,
        )
        if ident_key in self._verdicts:
            self.counters["cache_hits"] += 1
            return self._verdicts[ident_key]
        context = self._context_for(target, cells)
        assumptions = self._assumption_lits(context, known)
        target_lit = context.encoder.lit(target)
        assumptions.append(target_lit if value else -target_lit)
        verdict = self._solve(context, assumptions, max_conflicts)
        # decided verdicts are structural facts; budget-outs are not (the
        # conflict count depends on the variable order this sub-graph's
        # encoding happened to produce), so they memoize per identity only
        self._remember(ident_key if verdict is None else struct_key, verdict)
        return verdict

    def decide(self, subgraph: Any, max_conflicts: Optional[int] = None) -> Decision:
        """The redundancy pass's two-polarity protocol on a ``SubGraph``.

        Mirrors the historic fresh-solver ladder exactly: ask whether the
        target can be 1; if not, it is forced to 0 (additionally flagging
        a dead path when it cannot be 0 either); otherwise ask whether it
        can be 0, and a negative answer forces 1.
        """
        cells = subgraph.cells
        target = subgraph.target
        known = subgraph.known
        inputs = subgraph.inputs
        can_be_true = self.can_be(
            cells, target, True, known, max_conflicts, inputs=inputs
        )
        if can_be_true is False:
            can_be_false = self.can_be(
                cells, target, False, known, max_conflicts, inputs=inputs
            )
            return Decision(False, dead=can_be_false is False)
        can_be_false = self.can_be(
            cells, target, False, known, max_conflicts, inputs=inputs
        )
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


__all__ = ["Decision", "SatOracle", "signature_of"]
