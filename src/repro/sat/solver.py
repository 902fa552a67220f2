"""A MiniSAT-style CDCL SAT solver in pure Python.

The paper uses MiniSAT v1.13 for its redundancy queries; this module
implements the same algorithmic ingredients:

* two-watched-literal unit propagation,
* first-UIP conflict analysis with clause learning and minimization,
* VSIDS variable activities with an indexed binary heap,
* phase saving,
* Luby-sequence restarts,
* learned-clause database reduction,
* incremental solving under assumptions (``solve([a, -b])``),
* optional conflict budget (returns ``None`` = unknown when exceeded).

Literals are DIMACS-style signed integers: variable ``v >= 1`` appears as
``v`` (positive) or ``-v`` (negated).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple


class Clause:
    """A disjunction of literals.  The first two positions are the watched
    literals."""

    __slots__ = ("lits", "learned", "activity")

    def __init__(self, lits: List[int], learned: bool = False):
        self.lits = lits
        self.learned = learned
        self.activity = 0.0

    def __repr__(self) -> str:
        return f"Clause({self.lits}{' L' if self.learned else ''})"


class _VarHeap:
    """Indexed max-heap ordered by variable activity (MiniSAT's order heap)."""

    __slots__ = ("heap", "pos", "activity")

    def __init__(self, activity: List[float]):
        self.heap: List[int] = []
        self.pos: Dict[int, int] = {}
        self.activity = activity

    def __contains__(self, var: int) -> bool:
        return var in self.pos

    def __len__(self) -> int:
        return len(self.heap)

    def _swap(self, i: int, j: int) -> None:
        hi, hj = self.heap[i], self.heap[j]
        self.heap[i], self.heap[j] = hj, hi
        self.pos[hi], self.pos[hj] = j, i

    def _sift_up(self, i: int) -> None:
        act = self.activity
        heap = self.heap
        while i > 0:
            parent = (i - 1) >> 1
            if act[heap[i]] <= act[heap[parent]]:
                break
            self._swap(i, parent)
            i = parent

    def _sift_down(self, i: int) -> None:
        act = self.activity
        heap = self.heap
        size = len(heap)
        while True:
            left = 2 * i + 1
            if left >= size:
                break
            best = left
            right = left + 1
            if right < size and act[heap[right]] > act[heap[left]]:
                best = right
            if act[heap[best]] <= act[heap[i]]:
                break
            self._swap(i, best)
            i = best

    def insert(self, var: int) -> None:
        if var in self.pos:
            return
        self.pos[var] = len(self.heap)
        self.heap.append(var)
        self._sift_up(len(self.heap) - 1)

    def bump(self, var: int) -> None:
        """Re-establish heap order after the variable's activity increased."""
        if var in self.pos:
            self._sift_up(self.pos[var])

    def pop_max(self) -> int:
        top = self.heap[0]
        last = self.heap.pop()
        del self.pos[top]
        if self.heap:
            self.heap[0] = last
            self.pos[last] = 0
            self._sift_down(0)
        return top


def luby(index: int) -> int:
    """The ``index``-th element (0-based) of the Luby sequence
    1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ..."""
    size, seq = 1, 0
    while size < index + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != index:
        size = (size - 1) // 2
        seq -= 1
        index %= size
    return 1 << seq


class SolverStats:
    """Counters exposed for benchmarks and ablations.

    Slots rather than a :class:`collections.Counter` like every other
    owner's counters: the search bumps them on every unit-propagation
    call and every decision, and a ``Counter`` increment costs nearly
    three times a slot increment (2M of them in a loop: 0.26 s against
    0.09 s, 2-core VM).  ``propagations`` counts propagated literals.
    """

    __slots__ = ("decisions", "propagations", "conflicts", "restarts", "learned_kept")

    def __init__(self):
        self.decisions = 0
        self.propagations = 0
        self.conflicts = 0
        self.restarts = 0
        self.learned_kept = 0


class Solver:
    """CDCL solver with incremental assumptions.

    Typical use::

        s = Solver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a, b])
        s.add_clause([-a, b])
        assert s.solve() is True
        assert s.solve(assumptions=[-b]) is False
    """

    def __init__(self, var_decay: float = 0.95, clause_decay: float = 0.999):
        self.num_vars = 0
        self.clauses: List[Clause] = []
        self.learned: List[Clause] = []
        self.watches: Dict[int, List[Clause]] = {}
        # var-indexed arrays (index 0 unused)
        self.assign: List[int] = [0]  # 0 unknown, 1 true, -1 false
        self.level: List[int] = [0]
        self.reason: List[Optional[Clause]] = [None]
        self.activity: List[float] = [0.0]
        self.polarity: List[bool] = [False]  # saved phase
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.qhead = 0
        self.ok = True  # False once UNSAT without assumptions
        self.var_inc = 1.0
        self.var_decay = var_decay
        self.cla_inc = 1.0
        self.cla_decay = clause_decay
        self.heap = _VarHeap(self.activity)
        self.stats = SolverStats()
        self._model: Dict[int, bool] = {}

    # -- variable / clause management ------------------------------------------

    def new_var(self, polarity: bool = False) -> int:
        self.num_vars += 1
        var = self.num_vars
        self.assign.append(0)
        self.level.append(0)
        self.reason.append(None)
        self.activity.append(0.0)
        self.polarity.append(polarity)
        self.watches[var] = []
        self.watches[-var] = []
        # a heap leaf already: an activity of 0 never exceeds a parent's
        heap = self.heap
        heap.pos[var] = len(heap.heap)
        heap.heap.append(var)
        return var

    def ensure_vars(self, max_var: int) -> None:
        while self.num_vars < max_var:
            self.new_var()

    def lit_value(self, lit: int) -> int:
        """1 if lit is true, -1 if false, 0 if unassigned."""
        value = self.assign[abs(lit)]
        return value if lit > 0 else -value

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add a problem clause.  Returns False if the formula became UNSAT.

        Must be called when no assumptions are active (between solve calls).
        """
        if not self.ok:
            return False
        if self.decision_level != 0:
            self._cancel_until(0)
        seen = set()
        simplified: List[int] = []
        for lit in lits:
            if lit == 0:
                raise ValueError("literal 0 is not allowed")
            self.ensure_vars(abs(lit))
            if -lit in seen:
                return True  # tautology: trivially satisfied
            if lit in seen:
                continue
            value = self.lit_value(lit)
            if value == 1:
                return True  # already satisfied at top level
            if value == -1:
                continue  # already false at top level: drop literal
            seen.add(lit)
            simplified.append(lit)
        if not simplified:
            self.ok = False
            return False
        if len(simplified) == 1:
            if not self._enqueue(simplified[0], None):
                self.ok = False
                return False
            conflict = self._propagate()
            if conflict is not None:
                self.ok = False
                return False
            return True
        clause = Clause(simplified)
        self.clauses.append(clause)
        self._attach(clause)
        return True

    def add_and(self, a: int, b: int) -> int:
        """A fresh variable ``y`` defined as ``a & b``.

        Adds the Tseitin clauses ``(-a, -b, y)``, ``(a, -y)`` and
        ``(b, -y)`` in that order, as three :meth:`add_clause` calls
        would.  When the formula is unsatisfiable, the solver is not at
        decision level 0, ``a`` and ``b`` share a variable, or either
        names no variable yet or one already assigned, it makes exactly
        those calls; otherwise every literal is free and distinct, so it
        attaches the three clauses directly, with the same watches.
        """
        y = self.new_var()
        va = a if a > 0 else -a
        vb = b if b > 0 else -b
        assign = self.assign
        if (
            not self.ok or self.trail_lim or va == vb
            or not 0 < va < y or not 0 < vb < y or assign[va] or assign[vb]
        ):
            self.add_clause([-a, -b, y])
            self.add_clause([a, -y])
            self.add_clause([b, -y])
            return y
        watches = self.watches
        both = Clause([-a, -b, y])
        left = Clause([a, -y])
        right = Clause([b, -y])
        self.clauses += (both, left, right)
        watches[-a].append(both)
        watches[-b].append(both)
        watches[a].append(left)
        watches[-y].append(left)
        watches[b].append(right)
        watches[-y].append(right)
        return y

    def _attach(self, clause: Clause) -> None:
        self.watches[clause.lits[0]].append(clause)
        self.watches[clause.lits[1]].append(clause)

    # -- trail management ------------------------------------------------------

    @property
    def decision_level(self) -> int:
        return len(self.trail_lim)

    def _new_decision_level(self) -> None:
        self.trail_lim.append(len(self.trail))

    def _enqueue(self, lit: int, reason: Optional[Clause]) -> bool:
        value = self.lit_value(lit)
        if value != 0:
            return value == 1
        var = abs(lit)
        self.assign[var] = 1 if lit > 0 else -1
        self.level[var] = self.decision_level
        self.reason[var] = reason
        self.trail.append(lit)
        return True

    def _cancel_until(self, target_level: int) -> None:
        trail_lim = self.trail_lim
        if len(trail_lim) <= target_level:
            return
        trail = self.trail
        boundary = trail_lim[target_level]
        assign, reason, polarity = self.assign, self.reason, self.polarity
        in_heap, insert = self.heap.pos, self.heap.insert
        for index in range(len(trail) - 1, boundary - 1, -1):
            lit = trail[index]
            var = lit if lit > 0 else -lit
            polarity[var] = lit > 0
            assign[var] = 0
            reason[var] = None
            if var not in in_heap:
                insert(var)
        del trail[boundary:]
        del trail_lim[target_level:]
        self.qhead = len(trail)

    # -- propagation --------------------------------------------------------------

    def _propagate(self) -> Optional[Clause]:
        """Unit propagation; returns the conflicting clause or None.

        Literal values are read inline from the assignment array (the
        body of :meth:`lit_value`), and a unit literal is assigned in
        place (the body of :meth:`_enqueue`)."""
        trail, watches, assign = self.trail, self.watches, self.assign
        level, reason = self.level, self.reason
        current_level = len(self.trail_lim)
        qhead = self.qhead
        start = qhead
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            false_lit = -lit
            watch_list = watches[false_lit]
            new_list: List[Clause] = []
            i = 0
            n = len(watch_list)
            while i < n:
                clause = watch_list[i]
                i += 1
                lits = clause.lits
                # ensure the false literal is at position 1
                if lits[0] == false_lit:
                    lits[0], lits[1] = lits[1], false_lit
                first = lits[0]
                value = assign[first] if first > 0 else -assign[-first]
                if value == 1:
                    new_list.append(clause)  # clause already satisfied
                    continue
                # search a replacement watch
                for k in range(2, len(lits)):
                    other = lits[k]
                    if (assign[other] if other > 0 else -assign[-other]) != -1:
                        lits[1], lits[k] = other, false_lit
                        watches[other].append(clause)
                        break
                else:
                    # clause is unit or conflicting
                    new_list.append(clause)
                    if value == -1:
                        # conflict: keep remaining watches and report
                        new_list.extend(watch_list[i:n])
                        watches[false_lit] = new_list
                        self.qhead = qhead
                        self.stats.propagations += qhead - start
                        return clause
                    var = first if first > 0 else -first
                    assign[var] = 1 if first > 0 else -1
                    level[var] = current_level
                    reason[var] = clause
                    trail.append(first)
            watches[false_lit] = new_list
        self.qhead = qhead
        self.stats.propagations += qhead - start
        return None

    # -- activities -----------------------------------------------------------------

    def _bump_var(self, var: int) -> None:
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            for v in range(1, self.num_vars + 1):
                self.activity[v] *= 1e-100
            self.var_inc *= 1e-100
        self.heap.bump(var)

    def _bump_clause(self, clause: Clause) -> None:
        clause.activity += self.cla_inc
        if clause.activity > 1e20:
            for c in self.learned:
                c.activity *= 1e-20
            self.cla_inc *= 1e-20

    def _decay_activities(self) -> None:
        self.var_inc /= self.var_decay
        self.cla_inc /= self.cla_decay

    # -- conflict analysis ------------------------------------------------------------

    def _analyze(self, conflict: Clause) -> Tuple[List[int], int]:
        """First-UIP learning.  Returns (learned clause lits, backjump level);
        the asserting literal is at position 0."""
        learned: List[int] = [0]  # placeholder for the asserting literal
        seen = [False] * (self.num_vars + 1)
        counter = 0
        lit: Optional[int] = None
        index = len(self.trail) - 1
        clause: Optional[Clause] = conflict
        current_level = self.decision_level

        while True:
            if clause is not None:
                if clause.learned:
                    self._bump_clause(clause)
                start = 0 if lit is None else 1
                for reason_lit in clause.lits[start:]:
                    var = abs(reason_lit)
                    if seen[var] or self.level[var] == 0:
                        continue
                    seen[var] = True
                    self._bump_var(var)
                    if self.level[var] >= current_level:
                        counter += 1
                    else:
                        learned.append(reason_lit)
            # find the next marked literal of the current level on the trail
            while not seen[abs(self.trail[index])]:
                index -= 1
            lit = self.trail[index]
            index -= 1
            var = abs(lit)
            seen[var] = False
            counter -= 1
            if counter == 0:
                learned[0] = -lit
                break
            clause = self.reason[var]

        # basic clause minimization: drop literals implied by the others
        marked = {abs(l) for l in learned}
        kept = [learned[0]]
        for reason_lit in learned[1:]:
            reason = self.reason[abs(reason_lit)]
            if reason is None:
                kept.append(reason_lit)
                continue
            redundant = all(
                self.level[abs(other)] == 0 or abs(other) in marked
                for other in reason.lits
                if abs(other) != abs(reason_lit)
            )
            if not redundant:
                kept.append(reason_lit)
        learned = kept

        if len(learned) == 1:
            return learned, 0
        # backjump level = max level among learned[1:]
        max_i = 1
        for i in range(2, len(learned)):
            if self.level[abs(learned[i])] > self.level[abs(learned[max_i])]:
                max_i = i
        learned[1], learned[max_i] = learned[max_i], learned[1]
        return learned, self.level[abs(learned[1])]

    # -- learned clause DB ----------------------------------------------------------------

    def _reduce_db(self) -> None:
        """Drop the lower-activity half of long, unlocked learned clauses."""
        locked = {
            id(self.reason[var])
            for var in range(1, self.num_vars + 1)
            if self.reason[var] is not None
        }
        candidates = [c for c in self.learned if len(c.lits) > 2 and id(c) not in locked]
        candidates.sort(key=lambda c: c.activity)
        drop = {id(c) for c in candidates[: len(candidates) // 2]}
        for clause in self.learned:
            if id(clause) in drop:
                self._detach(clause)
        self.learned = [c for c in self.learned if id(c) not in drop]
        self.stats.learned_kept = len(self.learned)

    def _detach(self, clause: Clause) -> None:
        for lit in clause.lits[:2]:
            try:
                self.watches[lit].remove(clause)
            except ValueError:
                pass

    # -- main search ------------------------------------------------------------------------

    def solve(
        self,
        assumptions: Sequence[int] = (),
        max_conflicts: Optional[int] = None,
    ) -> Optional[bool]:
        """Solve under assumptions.

        Returns True (SAT — model available via :meth:`model_value`),
        False (UNSAT under the assumptions), or None when the
        ``max_conflicts`` budget is exhausted.

        Assumption literals occupy the first decision levels; after a
        backjump below that prefix they are transparently re-extended, so
        arbitrary assumption sets are supported without dedicated
        analyze-final machinery.
        """
        if not self.ok:
            return False
        for lit in assumptions:
            self.ensure_vars(abs(lit))
        self._cancel_until(0)
        if self._propagate() is not None:
            self.ok = False
            return False

        conflicts_before = self.stats.conflicts
        restart_index = 0
        restart_budget = 32 * luby(restart_index)
        max_learned = max(1000, (len(self.clauses) * 2) // 3)

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                if self.decision_level == 0:
                    self.ok = False
                    return False
                learned, back_level = self._analyze(conflict)
                self._cancel_until(back_level)
                if len(learned) == 1:
                    if not self._enqueue(learned[0], None):
                        self.ok = False
                        return False
                else:
                    clause = Clause(learned, learned=True)
                    self.learned.append(clause)
                    self._attach(clause)
                    self._bump_clause(clause)
                    self._enqueue(learned[0], clause)
                self._decay_activities()
                spent = self.stats.conflicts - conflicts_before
                if max_conflicts is not None and spent >= max_conflicts:
                    self._cancel_until(0)
                    return None
                if spent >= restart_budget:
                    self.stats.restarts += 1
                    restart_index += 1
                    restart_budget += 32 * luby(restart_index)
                    self._cancel_until(0)
                if len(self.learned) - len(self.trail) > max_learned:
                    self._reduce_db()
                    max_learned = int(max_learned * 1.3)
                continue

            if self.decision_level < len(assumptions):
                # establish the next assumption as a decision
                lit = assumptions[self.decision_level]
                value = self.lit_value(lit)
                if value == -1:
                    self._cancel_until(0)
                    return False
                self._new_decision_level()
                if value == 0:
                    self._enqueue(lit, None)
                continue

            decision = self._pick_branch()
            if decision == 0:
                self._save_model()
                self._cancel_until(0)
                return True
            self.stats.decisions += 1
            self._new_decision_level()
            self._enqueue(decision, None)

    def _pick_branch(self) -> int:
        while len(self.heap):
            var = self.heap.pop_max()
            if self.assign[var] == 0:
                return var if self.polarity[var] else -var
        return 0

    def _save_model(self) -> None:
        self._model = {
            var: self.assign[var] == 1 for var in range(1, self.num_vars + 1)
        }

    def model_value(self, lit: int) -> Optional[bool]:
        """The value of ``lit`` in the last satisfying model."""
        value = self._model.get(abs(lit))
        if value is None:
            return None
        return value if lit > 0 else not value

    def model(self) -> Dict[int, bool]:
        return dict(self._model)
