"""The combined smaRTLy flow and its option handling."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.aig import aig_map
from repro.api import Session
from repro.core import Smartly, SmartlyOptions
from repro.equiv import assert_equivalent
from repro.ir import Circuit
from tests.conftest import random_circuit


def _combined_circuit():
    """A circuit with baseline, SAT-only and rebuild-only opportunities."""
    c = Circuit("combo")
    sel = c.input("sel", 2)
    S, R = c.input("S"), c.input("R")
    d = [c.input(f"d{i}", 8) for i in range(4)]
    case_part = c.case_(sel, [(0, d[0]), (1, d[1]), (2, d[0])], d[1])
    inner = c.mux(d[1], d[0], c.or_(S, R))
    sat_part = c.mux(d[2], inner, S)
    inner2 = c.mux(d[3], d[2], S)
    yosys_part = c.mux(d[0], inner2, S)
    c.output("y", c.xor(c.xor(case_part, sat_part), yosys_part))
    return c.module


class TestFullFlow:
    def test_beats_baseline(self):
        m = _combined_circuit()
        gold = m.clone()
        baseline = m.clone()
        Session(baseline).run("yosys")
        smartly = m.clone()
        Session(smartly).run("smartly")
        assert_equivalent(gold, smartly)
        assert aig_map(smartly).num_ands <= aig_map(baseline).num_ands

    def test_components_compose(self):
        m = _combined_circuit()
        sat_only = m.clone()
        Session(sat_only).run("smartly-sat")
        rebuild_only = m.clone()
        Session(rebuild_only).run("smartly-rebuild")
        full = m.clone()
        Session(full).run("smartly")
        full_area = aig_map(full).num_ands
        assert full_area <= aig_map(sat_only).num_ands
        assert full_area <= aig_map(rebuild_only).num_ands

    def test_all_variants_equivalent(self):
        m = _combined_circuit()
        for preset in ("smartly", "smartly-sat", "smartly-rebuild"):
            work = m.clone()
            Session(work).run(preset)
            assert_equivalent(m, work)


class TestOptions:
    def test_unknown_option_rejected(self):
        with pytest.raises(TypeError):
            Smartly(bogus=True)

    def test_options_object_respected(self):
        options = SmartlyOptions(sat=False, rebuild=True, min_gain=10_000)
        m = _combined_circuit()
        Session(m, options=options).run("smartly")
        # with an absurd min_gain nothing gets rebuilt, but the run succeeds
        assert_equivalent(_combined_circuit(), m)

    def test_override_kwargs_win(self):
        options = SmartlyOptions(k=4)
        smartly = Smartly(options, k=2)
        assert smartly.options.k == 2

    def test_rebuild_only_still_prunes_baseline_redundancy(self):
        """The Rebuild configuration replaces opt_muxtree, so it must keep
        at least baseline-level pruning (paper Table III semantics)."""
        c = Circuit("t")
        A, B, C, S = c.input("A", 4), c.input("B", 4), c.input("C", 4), c.input("S")
        inner = c.mux(B, A, S)
        c.output("Y", c.mux(C, inner, S))
        m = c.module
        Session(m).run("smartly-rebuild")
        assert sum(1 for cell in m.cells.values() if cell.is_mux) == 1


class TestStatsPlumbing:
    def test_pass_stats_are_namespaced(self):
        keys = Session(_combined_circuit()).run("smartly").pass_stats.keys()
        assert any(key.startswith("smartly.") for key in keys)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 100000))
def test_random_circuits_full_flow_preserved(seed):
    module = random_circuit(seed, n_ops=10, mux_bias=0.6)
    gold = module.clone()
    Session(module).run("smartly")
    assert_equivalent(gold, module)
