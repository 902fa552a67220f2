"""Cross-cutting flow properties: determinism, idempotence, monotonicity.

A re-run on one module takes a fresh :class:`Session`: inside one session
it would be a zero-pass design-scope skip (``design_cache == "skipped"``).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.aig import aig_map
from repro.api import Session
from repro.equiv import assert_equivalent
from tests.conftest import random_circuit


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 100000))
def test_optimization_is_deterministic(seed):
    a = random_circuit(seed, n_ops=10, mux_bias=0.5)
    b = random_circuit(seed, n_ops=10, mux_bias=0.5)
    Session(a).run("smartly")
    Session(b).run("smartly")
    assert a.stats() == b.stats()
    assert aig_map(a).num_ands == aig_map(b).num_ands


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 100000))
def test_optimization_is_idempotent(seed):
    module = random_circuit(seed, n_ops=10, mux_bias=0.5)
    once = Session(module).run("smartly").optimized_area
    # second run must not oscillate or regress
    again = Session(module).run("smartly")
    assert again.design_cache == "none"
    assert again.optimized_area == once


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 100000))
def test_smartly_never_loses_to_baseline(seed):
    module = random_circuit(seed, n_ops=12, mux_bias=0.6)
    baseline = Session(module.clone()).run("yosys")
    smart = module.clone()
    report = Session(smart).run("smartly")
    assert report.optimized_area <= baseline.optimized_area
    assert_equivalent(module, smart)


@pytest.mark.parametrize("seed", [47621])
def test_substitution_must_not_break_future_muxtree_edges(seed):
    """Regression: deep data-port substitution used to rewrite single bits
    of mux-driven operands.  When the driving mux later became an internal
    muxtree edge (after its other readers died), the substituted bit kept
    the edge from matching, the branch bypass was lost, and smaRTLy ended
    *above* the Yosys baseline (84 vs 80 AIG ands on seed 47621)."""
    module = random_circuit(seed, n_ops=12, mux_bias=0.6)
    baseline = Session(module.clone()).run("yosys")
    smart = module.clone()
    report = Session(smart).run("smartly")
    assert report.optimized_area <= baseline.optimized_area
    assert_equivalent(module, smart)


@pytest.mark.parametrize("case", ["ac97_ctrl", "wb_conmax"])
def test_benchmark_flow_deterministic(case):
    from repro.workloads import build_case

    first = Session(build_case(case)).run("smartly")
    second = Session(build_case(case)).run("smartly")
    assert second.design_cache == "none"
    assert first.optimized_area == second.optimized_area
    assert first.original_area == second.original_area
