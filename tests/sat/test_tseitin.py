"""Tseitin encoding: SAT models must agree with the simulator.

The key property: for a random circuit, every satisfying assignment of the
CNF projected onto the source bits reproduces the circuit's simulated
outputs, and forcing an output to a value the circuit cannot produce is
UNSAT.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ir import BIT0, BIT1, CellType, Circuit, NetIndex, SigBit, State
from repro.sat import CircuitEncoder, Solver
from repro.sim import Simulator
from tests.conftest import random_circuit


def _encode(module):
    index = NetIndex(module)
    solver = Solver()
    encoder = CircuitEncoder(solver, index.sigmap)
    for cell in module.cells.values():
        if cell.is_combinational:
            encoder.encode_cell(cell)
    return index, solver, encoder


class TestPrimitives:
    def test_and_gate_semantics(self):
        c = Circuit("t")
        a, b = c.input("a"), c.input("b")
        y = c.and_(a, b)
        c.output("y", y)
        index, solver, enc = _encode(c.module)
        a_lit = enc.lit(index.sigmap.map_bit(SigBit(c.module.wire("a"), 0)))
        b_lit = enc.lit(index.sigmap.map_bit(SigBit(c.module.wire("b"), 0)))
        y_lit = enc.lit(index.sigmap.map_bit(y[0]))
        assert solver.solve([a_lit, b_lit, y_lit]) is True
        assert solver.solve([a_lit, -b_lit, y_lit]) is False
        assert solver.solve([-a_lit, y_lit]) is False

    def test_constants(self):
        c = Circuit("t")
        a = c.input("a")
        y = c.or_(a, BIT1)
        c.output("y", y)
        index, solver, enc = _encode(c.module)
        y_lit = enc.lit(index.sigmap.map_bit(y[0]))
        assert solver.solve([-y_lit]) is False  # y is constant 1

    def test_x_const_is_unconstrained(self):
        c = Circuit("t")
        a = c.input("a")
        from repro.ir import BITX, SigSpec

        y = c.and_(a, SigSpec([BITX]))
        c.output("y", y)
        index, solver, enc = _encode(c.module)
        y_lit = enc.lit(index.sigmap.map_bit(y[0]))
        a_lit = enc.lit(index.sigmap.map_bit(SigBit(c.module.wire("a"), 0)))
        # with a=1, y can be either value (x is free)
        assert solver.solve([a_lit, y_lit]) is True
        assert solver.solve([a_lit, -y_lit]) is True
        # with a=0, y must be 0
        assert solver.solve([-a_lit, y_lit]) is False


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 100000))
def test_sat_model_matches_simulation(seed):
    module = random_circuit(seed, n_ops=10)
    index, solver, enc = _encode(module)
    sim = Simulator(module, index)
    # allocate every literal we will inspect *before* solving, so bits that
    # no clause mentions (e.g. input passthroughs) are still in the model
    source_lits = {bit: enc.lit(bit) for bit in sim.source_bits()}
    out_bits = []
    for wire in module.outputs:
        for i in range(wire.width):
            bit = index.sigmap.map_bit(SigBit(wire, i))
            if not bit.is_const:
                out_bits.append((wire.name, i, bit, enc.lit(bit)))
    assert solver.solve() is True

    assignment = {
        bit: State.from_bool(bool(solver.model_value(lit)))
        for bit, lit in source_lits.items()
    }
    states = sim.run_states(assignment)
    for name, i, bit, lit in out_bits:
        state = states[bit]
        if state is State.Sx:
            continue  # x consts modelled as free variables
        assert solver.model_value(lit) == (state is State.S1), (name, i)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 100000))
def test_forcing_impossible_output_is_unsat(seed):
    module = random_circuit(seed, n_ops=8, include_arith=False)
    index, solver, enc = _encode(module)
    sim = Simulator(module, index)
    # exhaustively simulate a small set of vectors; pick an output bit that
    # is constant across them and try forcing it the other way with the
    # corresponding source assumptions
    sources = sim.source_bits()
    if not sources:
        return
    masks, _ = sim.random_masks(nvec=4, seed=seed)
    values = sim.run_masks(masks, 4)
    wire = module.outputs[0]
    bit = index.sigmap.map_bit(SigBit(wire, 0))
    if bit.is_const:
        return
    vector = 0
    assumptions = []
    for source in sources:
        lit = enc.lit(source)
        value = (masks[source] >> vector) & 1
        assumptions.append(lit if value else -lit)
    observed = (values[bit] >> vector) & 1
    y_lit = enc.lit(bit)
    assert solver.solve(assumptions + [y_lit if observed else -y_lit]) is True
    assert solver.solve(assumptions + [-y_lit if observed else y_lit]) is False


def test_encode_whole_module_is_satisfiable():
    c = Circuit("t")
    a = c.input("a", 4)
    c.output("y", c.add(a, 1))
    _index, solver, _enc = _encode(c.module)
    assert solver.solve() is True


def test_encoding_idempotent():
    c = Circuit("t")
    a = c.input("a", 2)
    c.output("y", c.not_(a))
    index, solver, enc = _encode(c.module)
    n_before = len(solver.clauses)
    for cell in c.module.cells.values():
        enc.encode_cell(cell)  # second time: no-op
    assert len(solver.clauses) == n_before


def test_dff_is_a_free_boundary():
    c = Circuit("t")
    clk, d = c.input("clk"), c.input("d")
    q = c.dff(clk, d)
    c.output("y", q)
    module = c.module
    index = NetIndex(module)
    solver = Solver()
    enc = CircuitEncoder(solver, index.sigmap)
    for cell in module.cells.values():
        enc.encode_cell(cell)
    q_lit = enc.lit(index.sigmap.map_bit(q[0]))
    d_lit = enc.lit(index.sigmap.map_bit(SigBit(module.wire("d"), 0)))
    # Q is not tied to D combinationally
    assert solver.solve([q_lit, -d_lit]) is True
    assert solver.solve([-q_lit, d_lit]) is True
