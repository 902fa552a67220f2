"""The incremental SAT oracle: exactness vs the fresh-solver reference.

The soundness guarantee behind clause reuse is that oracle verdicts are
*identical* to a fresh ``Solver``-per-query reference as long as the
netlist does not mutate between queries (and that mutation invalidates the
affected contexts).  These tests check that guarantee on randomized
sub-graph queries, plus the query APIs, the verdict cache, and the
counters that feed ``RunReport``.
"""

import random
from typing import Dict, Optional, Tuple

import pytest

from repro.core.subgraph import extract_subgraph
from repro.ir import Circuit
from repro.ir.signals import SigBit
from repro.ir.walker import NetIndex
from repro.sat.oracle import Decision, SatOracle, signature_of
from repro.sat.solver import Solver
from repro.sat.tseitin import CircuitEncoder
from tests.conftest import random_circuit


def reference_decide(sigmap, subgraph, max_conflicts=None) -> Decision:
    """Fresh solver + full re-encode per query: the ground-truth protocol
    (mirrors ``SatRedundancy._sat_decide_fresh``)."""
    solver = Solver()
    encoder = CircuitEncoder(solver, sigmap)
    for cell in subgraph.cells:
        encoder.encode_cell(cell)
    assumptions = [
        encoder.lit(bit) if value else -encoder.lit(bit)
        for bit, value in subgraph.known.items()
    ]
    target = encoder.lit(subgraph.target)
    can_be_true = solver.solve(assumptions + [target], max_conflicts=max_conflicts)
    if can_be_true is False:
        can_be_false = solver.solve(
            assumptions + [-target], max_conflicts=max_conflicts
        )
        return Decision(False, dead=can_be_false is False)
    can_be_false = solver.solve(assumptions + [-target], max_conflicts=max_conflicts)
    if can_be_false is False:
        return Decision(True)
    return Decision(None)


def random_queries(module, rng, count):
    """Yield (sigmap, subgraph) for random targets under random facts."""
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
        facts: Dict[SigBit, bool] = {
            bit: rng.random() < 0.5
            for bit in rng.sample(sources, k=min(len(sources), rng.randint(0, 4)))
        }
        subgraph = extract_subgraph(index, target, facts, k=rng.randint(2, 4))
        yield sigmap, subgraph


@pytest.mark.parametrize("seed", [3, 17, 91, 404])
def test_oracle_agrees_with_fresh_solver_reference(seed):
    """The clause-reuse soundness cross-check on a static netlist."""
    rng = random.Random(seed)
    module = random_circuit(seed, n_ops=14, mux_bias=0.5)
    oracle = SatOracle(module)
    index_sigmap = None
    for sigmap, subgraph in random_queries(module, rng, 40):
        if index_sigmap is not sigmap:
            oracle.begin_pass(sigmap)
            index_sigmap = sigmap
        expected = reference_decide(sigmap, subgraph)
        got = oracle.decide(subgraph)
        assert got == expected, (
            f"seed {seed}: oracle {got} vs fresh {expected} for target "
            f"{subgraph.target} under {subgraph.known}"
        )


def test_repeat_queries_hit_the_verdict_cache_with_same_answers(circuits):
    rng = random.Random(7)
    module = circuits.random_circuit(7, n_ops=12, mux_bias=0.5)
    oracle = SatOracle(module)
    queries = list(random_queries(module, rng, 15))
    oracle.begin_pass(queries[0][0])
    first = [oracle.decide(subgraph) for _, subgraph in queries]
    solver_calls = oracle.counters["solver_calls"]
    second = [oracle.decide(subgraph) for _, subgraph in queries]
    assert first == second
    # the replay answered entirely from the verdict cache
    assert oracle.counters["solver_calls"] == solver_calls
    assert oracle.counters["cache_hits"] > 0


def _and_module():
    c = Circuit("andm")
    a, b = c.input("a"), c.input("b")
    y = c.and_(a, b)
    c.output("y", y)
    return c.module, a[0], b[0], y[0]


def _query_env(module):
    index = NetIndex(module)
    return index, index.sigmap


def test_can_be_and_implies_on_an_and_gate():
    module, a, b, y = _and_module()
    index, sigmap = _query_env(module)
    cells = list(module.cells.values())
    oracle = SatOracle(module)
    oracle.begin_pass(sigmap)
    y = sigmap.map_bit(y)
    assert oracle.can_be(cells, y, True, {}) is True
    assert oracle.can_be(cells, y, False, {}) is True
    # facts force y: the opposite polarity is unsatisfiable
    assert oracle.can_be(cells, y, False, {a: True, b: True}) is False
    assert oracle.can_be(cells, y, True, {a: False}) is False
    # a alone does not force y to 1
    assert oracle.can_be(cells, y, False, {a: True}) is True
    # contradiction: both polarities impossible under inconsistent facts
    assert oracle.can_be(cells, y, True, {a: True, b: True, y: False}) is False


def test_mutation_invalidates_the_context():
    """A cell rewired mid-generation must not be answered stale."""
    c = Circuit("mut")
    a, b, d = c.input("a"), c.input("b"), c.input("d")
    y = c.and_(a, b)
    c.output("y", y)
    module = c.module
    index, sigmap = _query_env(module)
    cells = list(module.cells.values())
    oracle = SatOracle(module)
    oracle.begin_pass(sigmap)
    y = sigmap.map_bit(y[0])
    assert oracle.can_be(cells, y, False, {a[0]: True, b[0]: True}) is False
    # rewire the AND's B input to d: the old fact set no longer forces y
    and_cell = next(iter(module.cells.values()))
    and_cell.set_port("B", d)
    assert oracle.can_be(cells, y, False, {a[0]: True, b[0]: True}) is True
    assert oracle.can_be(cells, y, False, {a[0]: True, d[0]: True}) is False


def test_signature_tracks_cell_versions():
    c = Circuit("sig")
    a, b = c.input("a"), c.input("b")
    c.output("y", c.and_(a, b))
    module = c.module
    cells = list(module.cells.values())
    before = signature_of(cells)
    cells[0].set_port("A", b)
    after = signature_of(cells)
    assert before != after
    assert [name for name, _ in before] == [name for name, _ in after]


def test_counters_cover_contexts_and_cache():
    module, a, b, y = _and_module()
    index, sigmap = _query_env(module)
    cells = list(module.cells.values())
    oracle = SatOracle(module)
    oracle.begin_pass(sigmap)
    y = sigmap.map_bit(y)
    base = oracle.counters.copy()
    oracle.can_be(cells, y, True, {})
    oracle.can_be(cells, y, True, {})  # identical: cache hit
    oracle.can_be(cells, y, False, {})  # same context, new polarity
    delta = oracle.counters - base
    assert delta["queries"] == 3
    assert delta["cache_hits"] == 1
    assert delta["solver_calls"] == 2
    assert delta["contexts_built"] == 1
    assert delta["contexts_reused"] == 1
    assert delta["cells_encoded"] == len(cells)


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
