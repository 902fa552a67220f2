"""Workload unit generators: determinism, differentials, equivalence."""

import random

import pytest

from repro.aig import aig_map
from repro.api import Session
from repro.equiv import assert_equivalent
from repro.ir import Circuit, validate_module
from repro.workloads import (
    InputPool,
    unit_case_chain,
    unit_datapath,
    unit_dependent_ctrl_tree,
    unit_obfuscated_select,
    unit_shared_ctrl_tree,
)


def _build(unit_fn, seed=1, **kwargs):
    rng = random.Random(seed)
    c = Circuit("unit")
    pool = InputPool(c, rng, width=8)
    c.output("y", unit_fn(c, pool, **kwargs))
    validate_module(c.module)
    return c.module


def _areas(module):
    orig = aig_map(module.clone()).num_ands
    baseline = module.clone()
    Session(baseline).run("yosys")
    smart = module.clone()
    Session(smart).run("smartly")
    return orig, aig_map(baseline).num_ands, aig_map(smart).num_ands


class TestDeterminism:
    @pytest.mark.parametrize("unit", [
        unit_shared_ctrl_tree,
        unit_dependent_ctrl_tree,
        unit_case_chain,
        unit_obfuscated_select,
        unit_datapath,
    ])
    def test_same_seed_same_netlist(self, unit):
        a = _build(unit, seed=7)
        b = _build(unit, seed=7)
        assert a.stats() == b.stats()
        assert aig_map(a).num_ands == aig_map(b).num_ands


class TestDifferentials:
    def test_shared_tree_is_baseline_food(self):
        m = _build(unit_shared_ctrl_tree, depth=6, cone_ops=3)
        orig, baseline, smart = _areas(m)
        assert baseline < orig * 0.5          # baseline removes most of it
        assert smart <= baseline               # smaRTLy never loses

    def test_dependent_tree_needs_sat(self):
        m = _build(unit_dependent_ctrl_tree, depth=6, cone_ops=2)
        orig, baseline, smart = _areas(m)
        assert baseline > orig * 0.5           # baseline barely helps
        assert smart < baseline * 0.7          # SAT collapses it

    def test_case_chain_needs_rebuild(self):
        m = _build(unit_case_chain, sel_width=4, distinct_values=4)
        orig, baseline, smart = _areas(m)
        assert baseline > orig * 0.8
        assert smart < baseline

    def test_obfuscated_select_invisible_to_baseline(self):
        m = _build(unit_obfuscated_select, n_requesters=4)
        orig, baseline, smart = _areas(m)
        assert baseline > orig * 0.9           # near-zero baseline yield
        assert smart < baseline * 0.5          # smaRTLy halves it or better

    def test_datapath_is_irreducible(self):
        m = _build(unit_datapath, ops=8)
        orig, baseline, smart = _areas(m)
        assert baseline == orig
        assert smart == orig


class TestEquivalence:
    @pytest.mark.parametrize("unit,kwargs", [
        (unit_shared_ctrl_tree, {"depth": 4}),
        (unit_dependent_ctrl_tree, {"depth": 4}),
        (unit_case_chain, {"sel_width": 3, "distinct_values": 2}),
        (unit_obfuscated_select, {"n_requesters": 3}),
    ])
    def test_optimizations_preserve_function(self, unit, kwargs):
        m = _build(unit, **kwargs)
        gold = m.clone()
        Session(m).run("smartly")
        assert_equivalent(gold, m)
