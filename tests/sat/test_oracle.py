"""The SAT kernel: ``decide`` against exhaustive simulation, and counters.

:meth:`SatOracle.decide` encodes a sub-graph through Tseitin lowering into
a fresh solver.  The redundancy ladder's simulation rung evaluates the
same sub-graph over every input vector through the cell mask evaluators
(``eval_cell_masks``), an encoder independent of Tseitin, so on
sub-graphs small enough to enumerate the two must agree on every value
and on every dead path.
"""

import random
from typing import Dict

import pytest

from repro.core.redundancy import SatRedundancy
from repro.core.subgraph import SubGraph, extract_subgraph
from repro.ir import Circuit
from repro.ir.signals import SigBit
from repro.ir.walker import NetIndex
from repro.sat.oracle import Decision, SatOracle
from repro.sat.solver import Solver
from tests.conftest import random_circuit

#: the largest sub-graph the cross-check enumerates (2^12 vectors)
MAX_SIM_INPUTS = 12


def simulate_decide(sigmap, subgraph) -> Decision:
    """The verdict of the ladder's simulation rung on the same sub-graph:
    the target is forced when every vector that satisfies the facts
    gives it one value, and the path is dead when no vector does."""
    rung = SatRedundancy()
    rung.sigmap = sigmap
    outcome = rung._simulate(subgraph)
    if outcome == "dead":
        return Decision(False, dead=True)
    return Decision(outcome)


def random_queries(module, rng, count):
    """Yield (sigmap, subgraph) for random targets under random facts on
    source bits and on driven bits (which can force a value or make the
    path dead)."""
    index = NetIndex(module)
    sigmap = index.sigmap
    internal = sorted(
        {
            sigmap.map_bit(bit)
            for cell in module.cells.values()
            for bit in cell.output_bits()
            if not sigmap.map_bit(bit).is_const
        },
        key=str,
    )
    sources = sorted(
        {
            sigmap.map_bit(bit)
            for cell in module.cells.values()
            for bit in cell.input_bits()
            if not sigmap.map_bit(bit).is_const
            and index.comb_driver(sigmap.map_bit(bit)) is None
        },
        key=str,
    )
    for _ in range(count):
        target = rng.choice(internal)
        picked = rng.sample(
            sources, k=min(len(sources), rng.randint(0, 4))
        ) + rng.sample(internal, k=rng.randint(0, 2))
        facts: Dict[SigBit, bool] = {
            bit: rng.random() < 0.5 for bit in picked
        }
        subgraph = extract_subgraph(index, target, facts, k=rng.randint(2, 4))
        yield sigmap, subgraph


@pytest.mark.parametrize("seed", [3, 17, 91, 404])
def test_decide_agrees_with_exhaustive_simulation(seed):
    rng = random.Random(seed)
    module = random_circuit(seed, n_ops=14, mux_bias=0.5)
    oracle = SatOracle()
    checked = 0
    for sigmap, subgraph in random_queries(module, rng, 80):
        if subgraph.num_inputs > MAX_SIM_INPUTS:
            continue
        expected = simulate_decide(sigmap, subgraph)
        got = oracle.decide(subgraph, sigmap)
        assert got == expected, (
            f"seed {seed}: decide {got} vs simulation {expected} for target "
            f"{subgraph.target} under {subgraph.known}"
        )
        checked += 1
    assert checked >= 20, checked


def _and_module():
    c = Circuit("andm")
    a, b = c.input("a"), c.input("b")
    y = c.and_(a, b)
    c.output("y", y)
    return c.module, a[0], b[0], y[0]


def _query(module, target, known):
    """A sub-graph of all of ``module``'s cells, as ``decide`` reads one."""
    sigmap = NetIndex(module).sigmap
    cells = list(module.cells.values())
    subgraph = SubGraph(
        target=sigmap.map_bit(target), cells=cells, inputs=[], known=known
    )
    return subgraph, sigmap


def test_decide_on_an_and_gate():
    module, a, b, y = _and_module()
    oracle = SatOracle()

    def decide(known):
        return oracle.decide(*_query(module, y, known))

    # no facts: y is free, satisfiable both ways
    assert decide({}) == Decision(None)
    # facts force y
    assert decide({a: True, b: True}) == Decision(True)
    assert decide({a: False}) == Decision(False)
    # a alone does not force y to 1
    assert decide({a: True}) == Decision(None)
    # contradiction: both polarities impossible under inconsistent facts
    y = NetIndex(module).sigmap.map_bit(y)
    assert decide({a: True, b: True, y: False}) == Decision(False, dead=True)


def test_decide_sees_a_rewired_cell():
    """A cell rewired between queries is encoded as it is now."""
    c = Circuit("mut")
    a, b, d = c.input("a"), c.input("b"), c.input("d")
    y = c.and_(a, b)
    c.output("y", y)
    module = c.module
    oracle = SatOracle()
    subgraph, sigmap = _query(module, y[0], {a[0]: True, b[0]: True})
    assert oracle.decide(subgraph, sigmap) == Decision(True)
    # rewire the AND's B input to d: the old fact set no longer forces y
    and_cell = next(iter(module.cells.values()))
    and_cell.set_port("B", d)
    assert oracle.decide(subgraph, sigmap) == Decision(None)
    subgraph.known = {a[0]: True, d[0]: True}
    assert oracle.decide(subgraph, sigmap) == Decision(True)


def test_budget_out_is_marked_apart_from_free(monkeypatch):
    module, a, b, y = _and_module()
    oracle = SatOracle()
    free = _query(module, y, {})
    forced = _query(module, y, {a: False})
    assert oracle.decide(*free) == Decision(None)
    # a solve that runs out of conflicts leaves the value open as a
    # budget-out; one UNSAT answer still decides it
    outcomes = iter([None, None, False, None])
    monkeypatch.setattr(
        Solver, "solve", lambda self, assumptions, max_conflicts=None:
        next(outcomes)
    )
    assert oracle.decide(*free) == Decision(None, budget_out=True)
    assert oracle.decide(*forced) == Decision(False)


def test_counters_count_every_solve():
    """One query and two solves per ``decide``, and no memo: a repeat is
    solved again."""
    module = random_circuit(3, n_ops=14, mux_bias=0.5)
    queries = list(random_queries(module, random.Random(3), 20))
    oracle = SatOracle()
    for sigmap, subgraph in queries + queries:
        oracle.decide(subgraph, sigmap)
    counters = oracle.counters
    assert set(counters) == {
        "queries", "solver_calls", "conflicts", "learned_clauses"
    }, counters
    assert counters["queries"] == 2 * len(queries)
    assert counters["solver_calls"] == 4 * len(queries)
    assert counters["conflicts"] > 0
    assert counters["learned_clauses"] > 0


def test_solve_miter_budget_and_model():
    from repro.equiv.miter import build_miter

    def build(eq_form):
        c = Circuit("m")
        a, b = c.input("a", 8), c.input("b", 8)
        if eq_form:
            c.output("y", c.eq(a, b))
        else:
            c.output("y", c.eq(c.sub(a, b), 0))
        return c.module

    aig, miter = build_miter(build(True), build(False))
    oracle = SatOracle()
    verdict, model = oracle.solve_miter(aig, miter)
    assert verdict is False and model == {}  # equivalent: miter silent
    # the sweep poses many pair queries, but the miter is one oracle query
    first = oracle.counters.copy()
    assert first["queries"] == 1
    assert first["solver_calls"] >= 1
    # and an identical call repeats the same work exactly
    assert oracle.solve_miter(aig, miter) == (False, {})
    assert oracle.counters - first == first
    # budget of one conflict cannot settle it
    verdict, model = oracle.solve_miter(aig, miter, max_conflicts=1)
    assert verdict is None

    # non-equivalent pair yields a model over the shared inputs
    c = Circuit("m")
    a, b = c.input("a", 8), c.input("b", 8)
    c.output("y", c.ne(a, b))
    aig2, miter2 = build_miter(build(True), c.module)
    verdict, model = oracle.solve_miter(aig2, miter2)
    assert verdict is True
    assert set(model) == set(range(1, aig2.num_inputs + 1))
