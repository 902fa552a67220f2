"""The incremental dirty-set engine and the convergence-reporting bugfix."""

from __future__ import annotations

import pytest

from repro.aig.aigmap import aig_map
from repro.api import Session
from repro.equiv.differential import random_module
from repro.events import EventLog
from repro.flow.spec import PRESET_NAMES, FlowSpec
from repro.ir import Circuit, Module
from repro.opt.pass_base import DirtySet, Pass, PassManager, PassResult


class _CountdownPass(Pass):
    """Changes the module `n` times, then stabilises."""

    name = "countdown"

    def __init__(self, n):
        self.remaining = n

    def execute(self, module, result):
        if self.remaining > 0:
            self.remaining -= 1
            result.bump("ticks")


class _ChangeOncePass(Pass):
    """Changes the module in its first round only, noting whether each
    round was a full sweep or seeded."""

    name = "change-once"

    def __init__(self):
        self.seed_kinds = []

    def execute(self, module, result):
        pass

    def execute_incremental(self, module, result, dirty):
        self.seed_kinds.append("full" if dirty is None else "seeded")
        module.net_index()
        if len(self.seed_kinds) == 1:
            result.bump("ticks")


class TestGenerationResetGuard:
    """A round's carry always seeds the next round: the live alias map
    compacts only after the run ends, so no raw carry bit is orphaned."""

    def test_no_reset_keeps_rounds_incremental(self):
        module = random_module(9001, width=3, n_units=2)
        pass_ = _ChangeOncePass()
        manager = PassManager([pass_], incremental=True)
        manager.run(module, fixpoint=True, max_rounds=4)
        assert pass_.seed_kinds == ["full", "seeded"]
        assert manager.dirty_stats["incremental_rounds"] == 1


class TestConvergenceReporting:
    def test_converged_when_fixpoint_reached(self):
        manager = PassManager([_CountdownPass(2)])
        manager.run(Module("m"), fixpoint=True, max_rounds=16)
        assert manager.converged is True

    def test_round_limit_flagged_as_not_converged(self):
        log = EventLog()
        manager = PassManager([_CountdownPass(100)])
        manager.events.subscribe(log)
        manager.run(Module("m"), fixpoint=True, max_rounds=3)
        assert manager.converged is False
        events = log.of_kind("round_limit_reached")
        assert len(events) == 1
        assert events[0]["rounds"] == 3 and events[0]["max_rounds"] == 3
        finished = log.of_kind("pipeline_finished")
        assert finished and finished[0]["converged"] is False

    def test_single_shot_run_counts_as_converged(self):
        manager = PassManager([_CountdownPass(100)])
        manager.run(Module("m"), fixpoint=False)
        assert manager.converged is True

    def test_converged_resets_between_runs(self):
        manager = PassManager([_CountdownPass(2)])
        manager.run(Module("m"), fixpoint=True, max_rounds=2)
        assert manager.converged is False
        manager.run(Module("m"), fixpoint=True, max_rounds=2)
        assert manager.converged is True

    def test_run_report_propagates_convergence(self):
        module = random_module(42, width=4, n_units=2)
        report = Session(module).run("fixpoint max_rounds=1; opt_expr")
        # a single round cannot certify a fixpoint when anything changed
        assert report.converged is (
            not any(p.changed for p in report.passes)
        )
        clean = Session(random_module(42, width=4, n_units=2))
        full = clean.run("smartly")
        assert full.converged is True

    def test_query_counters_do_not_block_convergence(self):
        """SAT/sim query counters are observations, not changes: a round
        that only asked questions must count as converged (the historic
        bump() made every smartly fixpoint spin to max_rounds)."""
        module = random_module(4242, width=4, n_units=3)
        report = Session(module).run("smartly")
        assert report.converged is True
        assert report.rounds < FlowSpec.preset("smartly").max_rounds or (
            report.passes[-1].changed is False
        )


class TestDirtySet:
    def test_closure_includes_neighbours_but_not_far_cells(self):
        c = Circuit("t")
        a = c.input("a", 2)
        b = c.input("b", 2)
        chain = [c.and_(a, b)]
        for _ in range(4):
            # inverter chain: no shared operands, so adjacency is the chain
            chain.append(c.not_(chain[-1]))
        c.output("z", chain[-1])
        module = c.module
        index = module.net_index()
        names = list(module.cells)
        closure = DirtySet(cells={names[0]}).closure(index, radius=1)
        # the seed and its adjacent cells are in; the chain's far end is not
        assert names[0] in closure and names[1] in closure
        assert names[-1] not in closure
        # widening the radius walks further down the chain
        wide = DirtySet(cells={names[0]}).closure(index, radius=4)
        assert names[-1] in wide

    def test_touched_sets_recorded_automatically(self):
        from repro.opt.opt_expr import OptExpr

        c = Circuit("t")
        a = c.input("a", 4)
        y = c.and_(a, 0)  # folds to constant
        c.output("y", y)
        module = c.module
        result = OptExpr().run(module, incremental=True)
        assert result.changed
        assert result.touched_cells  # the folded cell was recorded
        # the fold's alias and the removed cell's ports land on the
        # driver-only side of the dirty set (see _touch_recorder)
        assert result.touched_fanin_bits

    def test_empty_dirty_set_is_falsy(self):
        assert not DirtySet()
        assert DirtySet(cells={"x"})


class TestEngineEquivalence:
    @pytest.mark.parametrize("seed", [1001, 1007, 1013])
    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_presets_byte_identical_across_engines(self, seed, preset):
        spec = FlowSpec.preset(preset)
        eager = random_module(seed, width=4, n_units=3)
        incr = random_module(seed, width=4, n_units=3)
        r_eager = Session(eager, engine="eager").run(spec)
        r_incr = Session(incr, engine="incremental").run(spec)
        assert r_eager.optimized_area == r_incr.optimized_area
        assert r_eager.original_area == r_incr.original_area
        assert aig_map(eager).num_ands == aig_map(incr).num_ands
        assert r_eager.engine == "eager" and r_incr.engine == "incremental"

    def test_incremental_rounds_skip_converged_regions(self):
        module = random_module(2024, width=4, n_units=4)
        total = len(module.cells)
        report = Session(module).run("smartly")
        assert report.dirty_stats["full_rounds"] == 1
        if report.rounds > 1:
            assert report.dirty_stats["incremental_rounds"] == report.rounds - 1
            # later rounds were seeded with a strict subset of the module
            seeded = report.dirty_stats["dirty_seed_cells"]
            assert seeded < total * (report.rounds - 1)

    def test_engine_validation(self):
        with pytest.raises(ValueError):
            Session(Module("m"), engine="warp")
        with pytest.raises(ValueError):
            Session(Module("m")).run("none", engine="warp")

    def test_incremental_is_default_and_reported(self):
        module = random_module(77, width=4, n_units=2)
        report = Session(module).run("yosys")
        assert report.engine == "incremental"
        assert "full_rounds" in report.dirty_stats
