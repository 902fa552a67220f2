"""SAT-based redundancy elimination (paper §II)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SatRedundancy
from repro.equiv import assert_equivalent
from repro.ir import CellType, Circuit, SigSpec
from repro.opt import OptClean, OptMuxtree
from tests.conftest import random_circuit


def _fig3(variant="or"):
    c = Circuit("fig3")
    A, B, C = c.input("A", 4), c.input("B", 4), c.input("C", 4)
    S, R = c.input("S"), c.input("R")
    if variant == "or":
        inner = c.mux(B, A, c.or_(S, R))
        y = c.mux(C, inner, S)
    else:
        inner = c.mux(A, B, c.and_(S, R))
        y = c.mux(inner, C, S)
    c.output("Y", y)
    return c.module


class TestFigure3:
    def test_or_dependency_eliminated(self):
        m = _fig3("or")
        gold = m.clone()
        result = SatRedundancy().run(m)
        OptClean().run(m)
        assert result.stats["muxes_bypassed"] == 1
        assert sum(1 for c in m.cells.values() if c.is_mux) == 1
        assert_equivalent(gold, m)

    def test_and_dependency_eliminated(self):
        m = _fig3("and")
        gold = m.clone()
        result = SatRedundancy().run(m)
        OptClean().run(m)
        assert result.stats["muxes_bypassed"] == 1
        assert_equivalent(gold, m)

    def test_baseline_cannot_do_this(self):
        m = _fig3("or")
        result = OptMuxtree().run(m)
        assert not result.changed

    def test_subsumes_baseline_behaviour(self):
        """Identical-signal redundancy (Figure 1) is the fast path."""
        c = Circuit("t")
        A, B, C, S = c.input("A", 4), c.input("B", 4), c.input("C", 4), c.input("S")
        inner = c.mux(B, A, S)
        c.output("Y", c.mux(C, inner, S))
        m = c.module
        gold = m.clone()
        result = SatRedundancy().run(m)
        OptClean().run(m)
        assert result.stats["muxes_bypassed"] == 1
        assert_equivalent(gold, m)


class TestDeciderLadder:
    def _xor_dependent(self):
        """Control = S ^ R ^ R == S: needs simulation/SAT, not Table I."""
        c = Circuit("t")
        A, B, C = c.input("A", 4), c.input("B", 4), c.input("C", 4)
        S, R = c.input("S"), c.input("R")
        ctrl = c.xor(c.xor(S, R), R)  # semantically == S
        inner = c.mux(B, A, ctrl)
        c.output("Y", c.mux(C, inner, S))
        return c.module

    def test_simulation_decides_small_cones(self):
        m = self._xor_dependent()
        gold = m.clone()
        result = SatRedundancy(sim_threshold=8).run(m)
        OptClean().run(m)
        assert result.stats.get("ctrl_sim_decided", 0) >= 1
        assert sum(1 for c in m.cells.values() if c.is_mux) == 1
        assert_equivalent(gold, m)

    def test_sat_decides_when_sim_disabled(self):
        m = self._xor_dependent()
        gold = m.clone()
        result = SatRedundancy(sim_threshold=-1).run(m)
        OptClean().run(m)
        assert result.stats.get("ctrl_sat_decided", 0) >= 1
        assert_equivalent(gold, m)

    def test_thresholds_forgo_analysis(self):
        """Paper: if inputs exceed the threshold, forgo the SAT process."""
        m = self._xor_dependent()
        result = SatRedundancy(sim_threshold=-1, sat_threshold=-1).run(m)
        assert result.stats.get("skipped_large", 0) >= 1
        assert result.stats.get("muxes_bypassed", 0) == 0

    def test_inference_path_reports_stat(self):
        m = _fig3("or")
        result = SatRedundancy().run(m)
        assert result.stats.get("ctrl_inferred", 0) >= 1


class TestDeadPath:
    def test_contradictory_path_pruned(self):
        """A mux only reachable under S & ~S is dead; any rewrite is sound."""
        c = Circuit("t")
        A, B, C, D = (c.input(n, 4) for n in "ABCD")
        S = c.input("S")
        ns = c.not_(S)
        deep = c.mux(A, B, c.and_(S, ns))  # ctrl constant-false in context
        mid = c.mux(deep, C, ns)           # reachable only when S=1...
        c.output("Y", c.mux(mid, D, S))
        m = c.module
        gold = m.clone()
        SatRedundancy().run(m)
        OptClean().run(m)
        assert_equivalent(gold, m)


class TestDataPortInference:
    def test_derived_data_bit_substituted(self):
        """Figure-2 generalisation: data bit = or(S, R) under S=1 -> 1."""
        c = Circuit("t")
        B, C = c.input("B", 4), c.input("C", 4)
        S, R = c.input("S"), c.input("R")
        derived = c.or_(S, R)
        data = SigSpec(list(derived) + list(B[1:]))
        inner = c.mux(B, data, c.input("T"))
        c.output("Y", c.mux(C, inner, S))
        m = c.module
        gold = m.clone()
        result = SatRedundancy().run(m)
        assert result.stats.get("data_inferred", 0) >= 1
        assert result.stats.get("dataport_bits_substituted", 0) >= 1
        assert_equivalent(gold, m)


class TestPmuxInteraction:
    def test_onehot_nested_pmux_collapses(self):
        c = Circuit("t")
        gnt = c.input("gnt", 2)
        words = [c.input(f"w{i}", 4) for i in range(4)]
        inner_branches = [
            (c.eq(gnt, SigSpec.from_const(j, 2)), words[j]) for j in range(3)
        ]
        inner = c.pmux(words[3], inner_branches)
        outer = c.pmux(words[0], [(c.eq(gnt, SigSpec.from_const(1, 2)), inner)])
        c.output("y", outer)
        m = c.module
        gold = m.clone()
        result = SatRedundancy().run(m)
        OptClean().run(m)
        # under eq(gnt,1)=1 the inner pmux always selects branch 1
        assert result.stats.get("muxes_bypassed", 0) >= 1
        assert_equivalent(gold, m)

    def test_obfuscated_equality_seen_through(self):
        """!(gnt != j) is eq(gnt, j) semantically; inference sees it."""
        c = Circuit("t")
        gnt = c.input("gnt", 2)
        a, b, d = c.input("a", 4), c.input("b", 4), c.input("d", 4)
        obf = c.logic_not(c.ne(gnt, SigSpec.from_const(1, 2)))
        inner = c.mux(a, b, obf)
        outer = c.pmux(d, [(c.eq(gnt, SigSpec.from_const(1, 2)), inner)])
        c.output("y", outer)
        m = c.module
        gold = m.clone()
        result = SatRedundancy().run(m)
        OptClean().run(m)
        assert result.stats.get("muxes_bypassed", 0) >= 1
        assert_equivalent(gold, m)


class TestStats:
    def test_subgraph_reduction_reported(self):
        m = _fig3("or")
        result = SatRedundancy().run(m)
        assert result.stats.get("subgraph_gates_before", 0) >= \
            result.stats.get("subgraph_gates_after", 0)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 100000))
def test_random_circuits_preserved(seed):
    module = random_circuit(seed, n_ops=12, mux_bias=0.6)
    gold = module.clone()
    SatRedundancy().run(module)
    OptClean().run(module)
    assert_equivalent(gold, module)
