"""CDCL solver internals: restarts, DB reduction, phase saving, heap."""

import random

import pytest

from repro.sat import Solver
from repro.sat.solver import _VarHeap


def _random_clause(rng, n_vars):
    clause = []
    while len(clause) < 3:
        lit = rng.choice([1, -1]) * rng.randint(1, n_vars)
        if lit not in clause and -lit not in clause:
            clause.append(lit)
    return clause


def _random_hard_instance(seed, n_vars=40, ratio=4.3):
    rng = random.Random(seed)
    solver = Solver()
    solver.ensure_vars(n_vars)
    for _ in range(int(n_vars * ratio)):
        solver.add_clause(_random_clause(rng, n_vars))
    return solver


class TestHeap:
    def test_orders_by_activity(self):
        activity = [0.0, 5.0, 1.0, 9.0]
        heap = _VarHeap(activity)
        for var in (1, 2, 3):
            heap.insert(var)
        assert heap.pop_max() == 3
        assert heap.pop_max() == 1
        assert heap.pop_max() == 2

    def test_bump_reorders(self):
        activity = [0.0, 1.0, 2.0, 3.0]
        heap = _VarHeap(activity)
        for var in (1, 2, 3):
            heap.insert(var)
        activity[1] = 10.0
        heap.bump(1)
        assert heap.pop_max() == 1

    def test_insert_idempotent(self):
        heap = _VarHeap([0.0, 1.0])
        heap.insert(1)
        heap.insert(1)
        assert len(heap) == 1

    def test_contains(self):
        heap = _VarHeap([0.0, 1.0])
        assert 1 not in heap
        heap.insert(1)
        assert 1 in heap


class TestSearchMachinery:
    def test_restarts_happen_on_hard_instances(self):
        solver = _random_hard_instance(2, n_vars=50)
        solver.solve()
        # a 50-var phase-transition instance needs > 32 conflicts
        if solver.stats.conflicts > 64:
            assert solver.stats.restarts > 0

    def test_learned_clauses_accumulate(self):
        solver = _random_hard_instance(3, n_vars=40)
        solver.solve()
        if solver.stats.conflicts > 10:
            assert len(solver.learned) > 0 or solver.stats.learned_kept >= 0

    def test_activity_decay_keeps_finite(self):
        solver = _random_hard_instance(4, n_vars=40)
        solver.solve()
        assert all(a < float("inf") for a in solver.activity)

    def test_phase_saving_reuses_polarity(self):
        solver = Solver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([a, b])
        assert solver.solve([a]) is True
        first = solver.model_value(a)
        # solving again without assumptions should revisit the saved phase
        assert solver.solve() is True
        assert solver.model_value(a) == first

    def test_propagation_counter_grows(self):
        solver = Solver()
        vs = [solver.new_var() for _ in range(10)]
        for x, y in zip(vs, vs[1:]):
            solver.add_clause([-x, y])
        solver.add_clause([vs[0]])
        before = solver.stats.propagations
        solver.solve()
        assert solver.stats.propagations >= before

    def test_solver_reusable_after_many_queries(self):
        solver = _random_hard_instance(5, n_vars=30)
        answers = set()
        for lit in (1, -1, 2, -2, 3, -3):
            answers.add(solver.solve([lit]))
        assert answers <= {True, False}
        # baseline satisfiability is stable across assumption queries
        assert solver.solve() == solver.solve()

    def test_ok_flag_after_global_unsat(self):
        solver = Solver()
        a = solver.new_var()
        solver.add_clause([a])
        solver.add_clause([-a])
        assert solver.ok is False
        assert solver.solve() is False
        assert solver.solve([a]) is False


class TestReduceDb:
    def test_reduce_db_drops_inactive_clauses(self):
        solver = _random_hard_instance(6, n_vars=60, ratio=4.4)
        solver.solve(max_conflicts=3000)
        # force a reduction regardless of internal thresholds
        kept_before = len(solver.learned)
        solver._reduce_db()
        assert len(solver.learned) <= kept_before


# -- the search, pinned --------------------------------------------------------

STAT_FIELDS = ("decisions", "propagations", "conflicts", "restarts", "learned_kept")


def test_search_is_pinned_step_for_step():
    """Summed counters over 12 seeded phase-transition 3-CNFs (40..150
    variables), each solved under four assumption sets with a clause and
    a fresh variable added between solves.  The counters move with any
    change to decisions, propagation order, conflict analysis, restarts
    or database reduction, so a kernel rewrite must keep them exactly."""
    totals = dict.fromkeys(STAT_FIELDS, 0)
    verdicts = []
    for seed in range(12):
        rng = random.Random(seed)
        n_vars = 40 + 10 * seed
        solver = Solver()
        solver.ensure_vars(n_vars)
        for _ in range(int(n_vars * 4.2)):
            solver.add_clause(_random_clause(rng, n_vars))
        for _ in range(4):
            picked = rng.sample(range(1, n_vars + 1), 3)
            verdicts.append(
                solver.solve([rng.choice([1, -1]) * v for v in picked])
            )
            solver.add_clause(_random_clause(rng, n_vars))
            fresh = solver.new_var()
            solver.add_clause(
                [fresh, rng.choice([1, -1]) * rng.randint(1, n_vars)]
            )
        for name in STAT_FIELDS:
            totals[name] += getattr(solver.stats, name)
    assert verdicts.count(True) == 11 and len(verdicts) == 48
    assert totals == {
        "decisions": 9927,
        "propagations": 225509,
        "conflicts": 7760,
        "restarts": 145,
        "learned_kept": 1529,
    }
