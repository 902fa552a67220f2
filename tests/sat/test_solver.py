"""CDCL solver unit + property tests."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sat import CNF, Solver, luby


class TestBasics:
    def test_empty_formula_is_sat(self):
        assert Solver().solve() is True

    def test_unit_clauses(self):
        s = Solver()
        a = s.new_var()
        s.add_clause([a])
        assert s.solve() is True
        assert s.model_value(a) is True

    def test_contradiction(self):
        s = Solver()
        a = s.new_var()
        s.add_clause([a])
        assert s.add_clause([-a]) is False
        assert s.solve() is False

    def test_tautology_ignored(self):
        s = Solver()
        a = s.new_var()
        assert s.add_clause([a, -a]) is True
        assert s.solve() is True

    def test_duplicate_literals_collapse(self):
        s = Solver()
        a = s.new_var()
        s.add_clause([a, a, a])
        assert s.solve() is True and s.model_value(a) is True

    def test_zero_literal_rejected(self):
        with pytest.raises(ValueError):
            Solver().add_clause([0])

    def test_implication_chain(self):
        s = Solver()
        vs = [s.new_var() for _ in range(20)]
        for x, y in zip(vs, vs[1:]):
            s.add_clause([-x, y])
        s.add_clause([vs[0]])
        assert s.solve() is True
        assert all(s.model_value(v) for v in vs)

    def test_model_satisfies_formula(self):
        rng = random.Random(5)
        cnf = CNF(8)
        for _ in range(30):
            clause = [rng.choice([1, -1]) * rng.randint(1, 8) for _ in range(3)]
            cnf.add_clause(clause)
        solver = cnf.to_solver()
        if solver.solve():
            model = [solver.model_value(v) for v in range(1, 9)]
            assert cnf.evaluate(model)


class TestAssumptions:
    def test_assumptions_restrict(self):
        s = Solver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a, b])
        assert s.solve([-a]) is True
        assert s.model_value(b) is True
        assert s.solve([-a, -b]) is False
        # solver state is reusable after UNSAT-under-assumptions
        assert s.solve() is True

    def test_contradictory_assumptions(self):
        s = Solver()
        a = s.new_var()
        assert s.solve([a, -a]) is False

    def test_assumption_of_fixed_literal(self):
        s = Solver()
        a = s.new_var()
        s.add_clause([a])
        assert s.solve([a]) is True
        assert s.solve([-a]) is False

    def test_incremental_clause_addition(self):
        s = Solver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a, b])
        assert s.solve([-a]) is True
        s.add_clause([-b])
        assert s.solve([-a]) is False
        assert s.solve() is True
        assert s.model_value(a) is True


class TestHardInstances:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_pigeonhole_unsat(self, n):
        s = Solver()
        var = {}
        for p in range(n + 1):
            for h in range(n):
                var[p, h] = s.new_var()
        for p in range(n + 1):
            s.add_clause([var[p, h] for h in range(n)])
        for h in range(n):
            for p1 in range(n + 1):
                for p2 in range(p1 + 1, n + 1):
                    s.add_clause([-var[p1, h], -var[p2, h]])
        assert s.solve() is False
        assert s.stats.conflicts > 0

    def test_budget_returns_none(self):
        s = Solver()
        var = {}
        n = 8
        for p in range(n + 1):
            for h in range(n):
                var[p, h] = s.new_var()
        for p in range(n + 1):
            s.add_clause([var[p, h] for h in range(n)])
        for h in range(n):
            for p1 in range(n + 1):
                for p2 in range(p1 + 1, n + 1):
                    s.add_clause([-var[p1, h], -var[p2, h]])
        assert s.solve(max_conflicts=5) is None

    def test_xor_chain_unsat(self):
        # x1 ^ x2, x2 ^ x3, ..., with parity forcing a contradiction
        s = Solver()
        n = 12
        vs = [s.new_var() for _ in range(n)]
        for x, y in zip(vs, vs[1:]):
            s.add_clause([x, y])
            s.add_clause([-x, -y])  # x != y
        s.add_clause([vs[0]])
        s.add_clause([vs[-1]] if n % 2 == 0 else [-vs[-1]])
        assert s.solve() is False


def test_luby_sequence_prefix():
    expected = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]
    assert [luby(i) for i in range(15)] == expected


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_random_cnf_vs_brute_force(data):
    n_vars = data.draw(st.integers(2, 8))
    n_clauses = data.draw(st.integers(1, 4 * n_vars))
    cnf = CNF(n_vars)
    for _ in range(n_clauses):
        size = data.draw(st.integers(1, 3))
        clause = [
            data.draw(st.integers(1, n_vars)) * data.draw(st.sampled_from([1, -1]))
            for _ in range(size)
        ]
        cnf.add_clause(clause)
    assert cnf.solve() == cnf.brute_force_satisfiable()


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_assumptions_equal_unit_clauses(data):
    n_vars = data.draw(st.integers(2, 6))
    cnf = CNF(n_vars)
    for _ in range(data.draw(st.integers(1, 15))):
        clause = [
            data.draw(st.integers(1, n_vars)) * data.draw(st.sampled_from([1, -1]))
            for _ in range(data.draw(st.integers(1, 3)))
        ]
        cnf.add_clause(clause)
    assumptions = [
        v * data.draw(st.sampled_from([1, -1]))
        for v in data.draw(
            st.lists(st.integers(1, n_vars), unique=True, max_size=n_vars)
        )
    ]
    under_assumptions = cnf.to_solver().solve(assumptions)
    with_units = CNF(cnf.num_vars)
    with_units.extend(cnf.clauses)
    for lit in assumptions:
        with_units.add_clause([lit])
    assert under_assumptions == with_units.solve()


class TestIncrementalClauseAddition:
    """Clause addition between solve() calls — what the CEC sweep's
    solver relies on (encode more cones after earlier queries answered)."""

    def test_add_clause_after_sat_solve(self):
        s = Solver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a, b])
        assert s.solve() is True
        assert s.add_clause([-a]) is True  # grows the formula post-solve
        assert s.solve() is True
        assert s.model_value(b) is True
        assert s.add_clause([-b]) is False  # now contradictory at top level
        assert s.solve() is False

    def test_add_clause_after_unsat_assumptions_keeps_solver_usable(self):
        s = Solver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a, b])
        assert s.solve([-a, -b]) is False  # UNSAT under assumptions only
        assert s.ok  # ... but the formula itself stays satisfiable
        c = s.new_var()
        assert s.add_clause([-a, c]) is True
        assert s.solve([a]) is True
        assert s.model_value(c) is True

    def test_add_unit_after_solve_propagates_at_top_level(self):
        s = Solver()
        a, b, c = s.new_var(), s.new_var(), s.new_var()
        s.add_clause([-a, b])
        s.add_clause([-b, c])
        assert s.solve() is True
        s.add_clause([a])  # unit: propagates a -> b -> c immediately
        assert s.solve() is True
        assert s.model_value(c) is True
        assert s.solve([-c]) is False

    def test_incremental_matches_monolithic(self):
        """Clauses added across many solve() interleavings give the same
        verdicts as one-shot encodings of the same prefix formulas."""
        rng = random.Random(99)
        for _trial in range(20):
            n_vars = rng.randint(3, 7)
            clauses = []
            for _ in range(rng.randint(3, 25)):
                size = rng.randint(1, 3)
                clauses.append(
                    [
                        rng.randint(1, n_vars) * rng.choice([1, -1])
                        for _ in range(size)
                    ]
                )
            incremental = Solver()
            for v in range(n_vars):
                incremental.new_var()
            alive = True
            for i, clause in enumerate(clauses):
                alive = incremental.add_clause(clause) and alive
                if rng.random() < 0.4:
                    expected_cnf = CNF(n_vars)
                    expected_cnf.extend(clauses[: i + 1])
                    expected = expected_cnf.solve()
                    got = incremental.solve() if alive else False
                    assert got == expected, (clauses[: i + 1], got, expected)
                if not alive:
                    break

    def test_learned_clauses_persist_across_solves(self):
        """Conflict-driven learning from one query must be retained (and
        stay correct) for later queries — the clause-reuse payoff."""

        def pigeonhole(solver, holes):
            # holes+1 pigeons into `holes` holes: classic UNSAT core
            var = {}
            for p in range(holes + 1):
                for h in range(holes):
                    var[p, h] = solver.new_var()
            for p in range(holes + 1):
                solver.add_clause([var[p, h] for h in range(holes)])
            for h in range(holes):
                for p1 in range(holes + 1):
                    for p2 in range(p1 + 1, holes + 1):
                        solver.add_clause([-var[p1, h], -var[p2, h]])
            return var

        s = Solver()
        pigeonhole(s, 4)
        assert s.solve() is False
        assert s.stats.conflicts > 0
        # the constraints are unconditionally UNSAT, so the solver stays
        # dead for every later query; the learned clauses derived during
        # the first call remain attached and consistent
        assert s.solve() is False

    def test_learned_clauses_speed_up_repeat_assumption_queries(self):
        """Same query twice on one solver: the replay must not need more
        conflicts than the first run (learning is retained, not reset)."""
        rng = random.Random(5)
        s = Solver()
        n_vars = 40
        for _ in range(n_vars):
            s.new_var()
        for _ in range(170):
            clause = [
                rng.randint(1, n_vars) * rng.choice([1, -1]) for _ in range(3)
            ]
            s.add_clause(clause)
        if not s.ok:
            pytest.skip("random formula collapsed at top level")
        assumptions = [1, -2, 3]
        first = s.solve(assumptions)
        conflicts_first = s.stats.conflicts
        second = s.solve(assumptions)
        conflicts_second = s.stats.conflicts - conflicts_first
        assert second == first
        assert conflicts_second <= conflicts_first


class TestAddAnd:
    """``add_and`` is the three Tseitin clauses of an AND, attached as
    three ``add_clause`` calls would attach them."""

    @staticmethod
    def _by_clauses(solver, a, b):
        y = solver.new_var()
        solver.add_clause([-a, -b, y])
        solver.add_clause([a, -y])
        solver.add_clause([b, -y])
        return y

    @staticmethod
    def _state(solver):
        return (
            [c.lits for c in solver.clauses],
            {lit: [c.lits for c in ws] for lit, ws in solver.watches.items()},
            solver.trail, solver.heap.heap, solver.ok,
        )

    @pytest.mark.parametrize("a, b", [(1, 2), (-1, 2), (2, -1), (-2, -3),
                                      (1, 1), (1, -1), (3, 3)])
    def test_same_clauses_and_watches_as_add_clause(self, a, b):
        fast, slow = Solver(), Solver()
        for solver in (fast, slow):
            solver.ensure_vars(3)
            solver.add_clause([1, 2, 3])
        assert fast.add_and(a, b) == self._by_clauses(slow, a, b)
        assert self._state(fast) == self._state(slow)

    @staticmethod
    def _agrees_with_brute_force(solver, cnf, rng):
        for _ in range(12):
            picked = rng.sample(range(1, cnf.num_vars + 1), 2)
            assumptions = [rng.choice([1, -1]) * v for v in picked]
            with_units = CNF(cnf.num_vars)
            with_units.extend(cnf.clauses)
            with_units.extend([lit] for lit in assumptions)
            verdict = solver.solve(assumptions)
            assert verdict == with_units.brute_force_satisfiable()
            if verdict:
                model = [solver.model_value(v)
                         for v in range(1, cnf.num_vars + 1)]
                assert with_units.evaluate(model)

    @pytest.mark.parametrize("seed", range(20))
    def test_fixed_fanin_and_unsat_solve_agree_with_brute_force(self, seed):
        rng = random.Random(seed)
        solver, cnf = Solver(), CNF(6)
        solver.ensure_vars(6)
        fixed, p, q = rng.sample(range(1, 7), 3)
        # ``fixed`` is a unit at level 0; ``p`` is implied by two clauses
        # that only a conflict reveals
        for clause in ([fixed], [p, q], [p, -q]):
            solver.add_clause(clause)
            cnf.add_clause(clause)
        # UNSAT under assumptions through a conflict, which learns ``p``
        # as a level-0 unit
        assert solver.solve([-p]) is False
        assert solver.stats.conflicts == 1 and solver.lit_value(p) == 1
        for _ in range(3):
            clause = [rng.choice([1, -1]) * v for v in rng.sample(range(1, 7), 2)]
            solver.add_clause(clause)
            cnf.add_clause(clause)
        for k in range(6):
            # the first two definitions read the fixed fanins
            a = (fixed, p)[k] if k < 2 else rng.randint(1, 6 + k)
            a *= rng.choice([1, -1])
            b = rng.choice([1, -1]) * rng.randint(1, 6 + k)
            y = solver.add_and(a, b)
            assert y == cnf.new_var()
            cnf.extend([[-a, -b, y], [a, -y], [b, -y]])
        self._agrees_with_brute_force(solver, cnf, rng)

    def test_add_and_on_an_unsat_formula_adds_nothing(self):
        solver = Solver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([a])
        solver.add_clause([-a])
        assert solver.ok is False
        solver.add_and(a, b)
        assert solver.clauses == [] and solver.solve() is False
