"""SAT-sweeping CEC against a monolithic reference, budgets, determinism.

``SatOracle.solve_miter`` decides a miter by merging SAT-proven
equivalent nodes (:mod:`repro.aig.fraig`).  Its verdicts must be exactly
those of one whole-miter SAT call, every refutation's model must fire
the miter, a conflict budget caps the total work and, when it runs out,
yields an undecided result — never a refutation.
"""

import pytest

from repro.aig import AIG, fraig, sweep_miter
from repro.equiv import build_miter, check_equivalence, random_module
from repro.equiv.differential import CI_CORPUS
from repro.flow.session import Session
from repro.ir import Circuit
from repro.opt.opt_merge import BREAK_SORT_KEY_ENV
from repro.sat.oracle import SatOracle
from repro.sat.solver import Solver
from repro.workloads import build_case
from tests.conftest import hard_equivalent_pair

SEEDS = CI_CORPUS[:8]
FLOWS = ("yosys", "smartly")


def monolithic_verdict(aig: AIG, miter_lit: int):
    """Whole-AIG Tseitin into one fresh solver, one question."""
    solver = Solver()
    var = [solver.new_var() for _ in range(aig.max_var + 1)]
    solver.add_clause([-var[0]])  # AIG variable 0 is constant false

    def lit(aig_lit):
        return -var[aig_lit >> 1] if aig_lit & 1 else var[aig_lit >> 1]

    for v in range(aig.num_inputs + 1, aig.max_var + 1):
        y, (a, b) = var[v], map(lit, aig.and_fanins(v))
        solver.add_clause([-a, -b, y])
        solver.add_clause([a, -y])
        solver.add_clause([b, -y])
    return solver.solve([lit(miter_lit)])


def fires(aig: AIG, model) -> bool:
    """Does the miter (the AIG's only output) fire under ``model``?"""
    values = [int(model[v]) for v in range(1, aig.num_inputs + 1)]
    return aig.eval_outputs(values) == [1]


def optimized_miters():
    for seed in SEEDS:
        golden = random_module(seed)
        for flow in FLOWS:
            gate = golden.clone()
            Session(gate).run(flow)
            yield build_miter(golden, gate)


def rare_difference(width=16, value=40000):
    """``a == 0`` vs ``a == 0 | a == value``: random patterns never tell
    them apart, so only a SAT model can."""
    c1 = Circuit("m")
    a = c1.input("a", width)
    c1.output("y", c1.eq(a, 0))
    c2 = Circuit("m")
    a = c2.input("a", width)
    c2.output("y", c2.or_(c2.eq(a, 0), c2.eq(a, value)))
    return c1.module, c2.module


def rare_implication(width=16, value=40000):
    """``p`` vs ``(p & a != value) | (p & b != value)``: the gate output
    implies the gold one and differs only at ``a == b == value``, so a
    merge that skipped either polarity query would prove them equal."""
    c1 = Circuit("m")
    p = c1.input("p")
    c1.input("a", width)
    c1.input("b", width)
    c1.output("y", p)
    c2 = Circuit("m")
    p = c2.input("p")
    a, b = c2.input("a", width), c2.input("b", width)
    c2.output("y", c2.or_(c2.and_(p, c2.ne(a, value)),
                          c2.and_(p, c2.ne(b, value))))
    return c1.module, c2.module


# -- parity with the monolithic reference -------------------------------------


@pytest.mark.parametrize("broken", [False, True], ids=["healthy", "broken"])
def test_verdicts_match_monolithic_reference(broken, monkeypatch):
    if broken:
        monkeypatch.setenv(BREAK_SORT_KEY_ENV, "1")
    verdicts = []
    for aig, miter in optimized_miters():
        verdict, model = SatOracle().solve_miter(aig, miter)
        assert verdict == monolithic_verdict(aig, miter)
        if verdict:
            assert set(model) == set(range(1, aig.num_inputs + 1))
            assert fires(aig, model)
        else:
            assert model == {}
        verdicts.append(verdict)
    if broken:
        assert True in verdicts
    else:
        assert set(verdicts) == {False}


@pytest.mark.parametrize("pair", [rare_difference(), rare_implication()],
                         ids=["constant", "implication"])
def test_rare_difference_is_refuted_through_a_sat_model(pair):
    aig, miter = build_miter(*pair)
    oracle = SatOracle()
    verdict, model = oracle.solve_miter(aig, miter)
    assert verdict is True and monolithic_verdict(aig, miter) is True
    assert fires(aig, model)
    # the seeded patterns missed it: the model came from the solver
    assert oracle.counters["solver_calls"] >= 1


def test_pairs_left_at_the_pair_limit_fall_back_to_the_final_query(monkeypatch):
    limits = []
    solve = Solver.solve

    def spy(self, assumptions=(), max_conflicts=None):
        limits.append(max_conflicts)
        return solve(self, assumptions, max_conflicts)

    monkeypatch.setattr(Solver, "solve", spy)
    monkeypatch.setattr(fraig, "PAIR_CONFLICTS", 1)
    aig, miter = build_miter(*hard_equivalent_pair())
    outcome = sweep_miter(aig, miter)
    assert outcome.verdict is False
    # every pair query ran at the pair limit; the unlimited final query
    # decided what the pairs left open
    assert set(limits[:-1]) == {1} and limits[-1] is None
    assert outcome.solver_calls == len(limits)
    assert monolithic_verdict(aig, miter) is False


# -- budgets ------------------------------------------------------------------


@pytest.mark.parametrize("budget", [0, 1, 3, 10, 30, 100])
def test_budget_caps_total_conflicts(budget):
    gold, gate = hard_equivalent_pair()
    result = check_equivalence(gold, gate, random_vectors=0,
                               max_conflicts=budget)
    assert result.sat_conflicts <= budget
    if result.undecided:
        assert not result.equivalent
        assert result.method == "budget"
        assert result.counterexample == {}
    else:
        assert result.equivalent and result.method == "sat"


def test_exhausted_budget_is_undecided_never_refuted():
    aig, miter = build_miter(*hard_equivalent_pair())
    oracle = SatOracle()
    verdict, model = oracle.solve_miter(aig, miter, max_conflicts=1)
    assert verdict is None and model == {}
    assert oracle.counters["conflicts"] <= 1
    # with nothing left to spend, a refutation the seeded patterns miss
    # is undecided too: only the solver could find it
    aig, miter = build_miter(*rare_difference())
    verdict, model = SatOracle().solve_miter(aig, miter, max_conflicts=0)
    assert verdict is None and model == {}


# -- sweep proofs -------------------------------------------------------------


def test_table2_case_proves_only_after_merges():
    golden = build_case("ac97_ctrl")
    gate = golden.clone()
    Session(gate).run("smartly")
    aig, miter = build_miter(golden, gate)
    assert miter >> 1 != 0  # no fold at construction
    outcome = sweep_miter(aig, miter)
    assert outcome.verdict is False
    assert outcome.merges > 0
    result = check_equivalence(golden, gate)
    assert result.equivalent and result.method == "sat"
    assert result.sat_conflicts == outcome.conflicts


def test_sweep_is_deterministic():
    miters = list(optimized_miters())[:4]
    miters += [build_miter(*pair)
               for pair in (rare_difference(), hard_equivalent_pair())]
    for aig, miter in miters:
        first, second = SatOracle(), SatOracle()
        assert first.solve_miter(aig, miter) == second.solve_miter(aig, miter)
        assert first.counters == second.counters
        assert sweep_miter(aig, miter) == sweep_miter(aig, miter)


# -- the sweep and the cec keys, pinned ---------------------------------------

#: (verdict, solver_calls, conflicts, learned_clauses, merges) and the
#: miter's structural digest, which keys persisted ("cec", digest) entries
PINNED_SWEEPS = {
    "ac97_ctrl": ((False, 96, 128, 128, 48),
                  "43743b6cf66eae184e208e683bbbcb31"),
    1000: ((False, 66, 94, 94, 33), "53c6ffb24fc6835ede71790480ed1a56"),
    1001: ((False, 56, 93, 93, 28), "4ad77f75fc61cb6d06c41c6a579b2bf4"),
    1002: ((False, 192, 320, 320, 96), "27db7e6a3439eefc8617562b478ad94d"),
    1003: ((False, 160, 216, 216, 80), "a3b77f83fabc64c3986407b6fa6fe65d"),
    1004: ((False, 164, 216, 216, 82), "cfab055c5b2d0d712f05635e73b31919"),
    1005: ((False, 112, 148, 148, 56), "26ce312633af4fddfc85b779e54816e2"),
    1006: ((False, 209, 261, 258, 106), "efe12341b229e3cca408c04f1c7a96be"),
    1007: ((False, 220, 509, 509, 110), "d7b963fa03c91c2178138010f5879d1f"),
}


@pytest.mark.parametrize("design", list(PINNED_SWEEPS))
def test_sweep_and_miter_digest_are_pinned(design):
    """ac97_ctrl and ``random_module(seed, width=8, n_units=4)`` for
    ``CI_CORPUS[:8]``, each against its smartly-optimized clone: the
    sweep's work and the miter's digest must not move when the miter
    builder or the solver kernels change."""
    if design == "ac97_ctrl":
        golden = build_case(design)
    else:
        golden = random_module(design, width=8, n_units=4)
    gate = golden.clone()
    Session(gate).run("smartly")
    aig, miter = build_miter(golden, gate)
    outcome = sweep_miter(aig, miter)
    work, digest = PINNED_SWEEPS[design]
    assert (outcome.verdict, *outcome[2:]) == work
    assert aig.structural_digest(miter) == digest
