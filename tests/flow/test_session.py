"""Session API: preset equivalence with a hand-built pipeline, events, suites."""

import json

import pytest

from repro.aig import AigMapper, aig_map
from repro.api import (
    EventBus,
    EventLog,
    FlowSpec,
    RunReport,
    Session,
    SmartlyOptions,
)
from repro.core import Smartly
from repro.equiv.miter import PortMismatchError, build_miter
from repro.events import EventLog as TopLevelEventLog
from repro.flow import render_table2
from repro.flow import session as session_mod
from repro.ir import Circuit, NetIndex
from repro.ir.walker import current_index
from repro.opt import OptClean, OptExpr, OptMerge, OptMuxtree, PassManager
from repro.workloads import build_case


def _circuit(name="demo"):
    c = Circuit(name)
    sel = c.input("sel", 2)
    S, R = c.input("S"), c.input("R")
    d = [c.input(f"d{i}", 8) for i in range(3)]
    case_part = c.case_(sel, [(0, d[0]), (1, d[1]), (2, d[0])], d[1])
    inner = c.mux(d[1], d[0], c.or_(S, R))
    c.output("y", c.xor(case_part, c.mux(d[2], inner, S)))
    return c.module


def _seed_run_flow(module, optimizer):
    """The seed repo's measurement protocol, the independent reference for
    the presets: clone, run the pipeline on a bare ``PassManager`` built by
    hand (no FlowSpec, Session or shared result cache), measure AIG areas."""
    original_area = aig_map(module.clone()).num_ands
    work = module.clone()
    if optimizer == "yosys":
        muxtree, max_rounds = OptMuxtree(), 16
    else:
        muxtree = Smartly(**{
            "smartly-sat": {"rebuild": False},
            "smartly-rebuild": {"sat": False},
            "smartly": {},
        }[optimizer])
        max_rounds = muxtree.options.max_rounds
    manager = PassManager([OptExpr(), OptMerge(), muxtree, OptClean()])
    manager.run(work, fixpoint=True, max_rounds=max_rounds)
    return original_area, aig_map(work).num_ands


PRESET_EQUIV_JOBS = [
    ("ac97_ctrl", "yosys"),
    ("ac97_ctrl", "smartly"),
    ("wb_conmax", "yosys"),
    ("wb_conmax", "smartly-sat"),
    ("wb_conmax", "smartly"),
]


@pytest.fixture(scope="module")
def workload_modules():
    return {name: build_case(name) for name in ("ac97_ctrl", "wb_conmax")}


class TestPresetEquivalence:
    """Session presets must reproduce the hand-built pipelines exactly."""

    @pytest.mark.parametrize("case,preset", PRESET_EQUIV_JOBS)
    def test_preset_matches_seed_pipeline(self, workload_modules, case, preset):
        module = workload_modules[case]
        seed_original, seed_optimized = _seed_run_flow(module, preset)
        report = Session(module.clone()).run(preset)
        assert report.original_area == seed_original
        assert report.optimized_area == seed_optimized


class TestSessionBasics:
    def test_none_flow_measures_original(self):
        session = Session(_circuit())
        report = session.run("none")
        assert report.optimized_area == report.original_area
        assert report.reduction_vs_original == 0.0

    def test_none_flow_check_is_recorded(self):
        # zero passes ran, so the module is its own pre-flow state
        report = Session(_circuit()).run("none", check=True)
        assert report.equivalence_checked is True
        assert Session(_circuit()).run("none").equivalence_checked is False

    def test_script_flow_end_to_end(self):
        session = Session(_circuit())
        report = session.run("opt_expr; smartly k=6; opt_clean", check=True)
        assert report.optimized_area < report.original_area
        assert report.equivalence_checked
        assert report.flow == "opt_expr; smartly k=6; opt_clean"

    def test_baseline_cached_before_optimization(self):
        session = Session(_circuit())
        baseline = session.baseline_area()
        session.run("smartly")
        # flows mutate the session's module, not the cached baseline
        assert session.baseline_area() == baseline
        assert aig_map(session.design.top).num_ands < baseline

    def test_unknown_module_rejected(self):
        with pytest.raises(KeyError):
            Session(_circuit()).run("none", module="ghost")

    def test_run_all_covers_every_module(self):
        from repro.ir.design import Design

        design = Design(_circuit("alpha"))
        design.add_module(_circuit("beta"))
        reports = Session(design).run_all("yosys")
        assert set(reports) == {"alpha", "beta"}

    def test_shared_options_reusable_across_runs(self):
        opts = SmartlyOptions()
        session = Session(_circuit(), options=opts)
        session.run("smartly-sat")
        assert opts.rebuild is True and opts.sat is True

    def test_report_json_round_trip(self):
        report = Session(_circuit()).run("smartly")
        data = json.loads(report.to_json())
        assert data["case_name"] == "demo"
        assert data["optimized_area"] == report.optimized_area
        assert data["pass_stats"] == report.pass_stats
        assert data["passes"] and data["rounds"] >= 1

    def test_from_verilog(self):
        report = Session.from_verilog(
            "module m(input a, b, s, output y);\n"
            "  assign y = s ? a : (s ? b : a);\n"
            "endmodule\n"
        ).run("smartly", check=True)
        assert report.case_name == "m"
        assert report.equivalence_checked


class TestEventChannel:
    def test_run_emits_structured_events_and_never_prints(self, capsys):
        session = Session(_circuit(), events=EventBus())
        log = session.subscribe(EventLog())
        session.run("smartly")
        kinds = log.kinds()
        assert kinds[0] == "flow_started" and kinds[-1] == "flow_finished"
        assert "pass_started" in kinds and "pass_finished" in kinds
        assert "round_converged" in kinds  # fixpoint preset converges
        out = capsys.readouterr()
        assert out.out == "" and out.err == ""

    def test_pass_finished_carries_stats(self):
        session = Session(_circuit())
        log = session.subscribe(EventLog())
        session.run("smartly")
        finished = log.of_kind("pass_finished")
        merged = {}
        for event in finished:
            merged.update(event["stats"])
        assert merged  # pass counters (incl. SAT query budgets) flow through

    def test_event_log_alias_is_shared_implementation(self):
        assert EventLog is TopLevelEventLog


class TestRunSuite:
    CASES = {
        "alpha": lambda: _circuit("alpha"),
        "beta": lambda: _circuit("beta"),
    }

    def test_parallel_matches_sequential(self):
        suite = Session().run_suite(
            self.CASES, ("yosys", "smartly"), max_workers=2
        )
        for name, factory in self.CASES.items():
            for flow in ("yosys", "smartly"):
                expected = Session(factory()).run(flow)
                got = suite[name][flow]
                assert isinstance(got, RunReport)
                assert got.optimized_area == expected.optimized_area
                assert got.original_area == expected.original_area

    def test_module_inputs_are_not_mutated(self):
        module = _circuit("gamma")
        before = module.stats()
        Session().run_suite({"gamma": module}, ("smartly",), max_workers=1)
        assert module.stats() == before

    def test_suite_events(self):
        session = Session()
        log = session.subscribe(EventLog())
        session.run_suite(self.CASES, ("yosys",), max_workers=2)
        kinds = log.kinds()
        assert kinds[0] == "suite_started" and kinds[-1] == "suite_finished"
        assert len(log.of_kind("case_finished")) == 2

    def test_suite_report_mapping_feeds_renderers(self):
        suite = Session().run_suite(
            self.CASES, ("yosys", "smartly"), max_workers=2
        )
        assert set(suite) == {"alpha", "beta"} and len(suite) == 2
        text = render_table2(suite)
        assert "alpha" in text and "Average" in text
        json.loads(suite.to_json())

    def test_custom_spec_flows(self):
        spec = FlowSpec.parse("opt_expr; opt_clean")
        suite = Session().run_suite({"a": self.CASES["alpha"]}, (spec,))
        assert suite["a"][spec.label].flow == "opt_expr; opt_clean"

    def test_flows_sharing_a_label_rejected(self):
        with pytest.raises(ValueError, match="duplicate flow labels"):
            Session().run_suite(
                {"a": self.CASES["alpha"]},
                ("smartly", FlowSpec.preset("smartly", k=6)),
            )

    def test_suite_cases_helper_binds_names(self):
        from repro.api import suite_cases

        cases = suite_cases(["alpha", "beta"], lambda name: _circuit(name))
        assert cases["alpha"]().name == "alpha"
        assert cases["beta"]().name == "beta"


class TestOracleStatsInReports:
    def test_run_report_exposes_oracle_stats_in_json(self):
        c = Circuit("chain")
        sel = c.input("sel", 2)
        d = [c.input(f"d{i}", 4) for i in range(3)]
        c.output("y", c.case_(sel, [(0, d[0]), (1, d[1]), (2, d[0])], d[2]))
        # sim_threshold=0 forces the decision ladder onto SAT
        session = Session(c.module, options=SmartlyOptions(sim_threshold=0,
                                                           rebuild=False))
        report = session.run("smartly-sat")
        data = json.loads(report.to_json())
        assert "oracle_stats" in data
        posed = report.pass_stats.get("smartly.smartly_sat.sat_queries", 0)
        assert posed > 0, report.pass_stats
        assert data["oracle_stats"]["queries"] > 0
        assert data["oracle_stats"]["solver_calls"] > 0
        # aggregation matches the raw oracle_* pass stats
        for key, value in data["oracle_stats"].items():
            raw = sum(
                v for k, v in report.pass_stats.items()
                if k.rsplit(".", 1)[-1] == f"oracle_{key}"
            )
            assert value == raw

    def test_only_sat_runs_report_sat_stats(self):
        def run(options):
            c = Circuit("chain2")
            sel = c.input("sel", 2)
            d = [c.input(f"d{i}", 4) for i in range(3)]
            c.output("y", c.case_(sel, [(0, d[0]), (1, d[1]), (2, d[0])],
                                  d[2]))
            return Session(c.module, options=options).run("smartly-sat")

        # simulation decides every query of this chain at the default
        # threshold: no solver runs, so no oracle stats and no SAT time
        simmed = run(SmartlyOptions(rebuild=False))
        assert simmed.pass_stats.get("smartly.smartly_sat.sim_queries", 0) > 0
        assert "smartly.smartly_sat.sat_queries" not in simmed.pass_stats
        assert simmed.oracle_stats == {}
        assert "smartly.smartly_sat.sat_wallclock_us" not in simmed.pass_stats
        # sim_threshold=0 sends the same queries to a fresh solver each
        solved = run(SmartlyOptions(sim_threshold=0, rebuild=False))
        assert solved.pass_stats.get("smartly.smartly_sat.sat_queries", 0) > 0
        assert solved.oracle_stats["solver_calls"] > 0
        assert solved.pass_stats.get(
            "smartly.smartly_sat.sat_wallclock_us", 0
        ) > 0
        assert solved.optimized_area == simmed.optimized_area


class TestOneIndexPerJob:
    """aigmap and the miter walk the module's live NetIndex."""

    @pytest.fixture
    def builds(self, monkeypatch):
        built = []
        original = NetIndex.__init__

        def counting(self, module, *args, **kwargs):
            built.append(module)
            original(self, module, *args, **kwargs)

        monkeypatch.setattr(NetIndex, "__init__", counting)
        return built

    @pytest.mark.parametrize("flow", ["yosys", "smartly"])
    def test_incremental_run_builds_one_index(self, builds, flow):
        session = Session(build_case("ac97_ctrl"))
        report = session.run(flow)
        assert report.optimized_area < report.original_area
        assert builds == [session.design.top]

    @pytest.fixture
    def maps(self, monkeypatch):
        """(module, AND count) of every ``aig_map`` the session makes."""
        mapped = []
        original = session_mod.aig_map

        def counting(module, *args, **kwargs):
            aig = original(module, *args, **kwargs)
            mapped.append((module, aig.num_ands))
            return aig

        monkeypatch.setattr(session_mod, "aig_map", counting)
        return mapped

    def test_checked_run_builds_one(self, builds, maps):
        session = Session(build_case("ac97_ctrl"))
        report = session.run("smartly", check=True)
        assert report.equivalence_checked
        # the live index serves the pre-flow map and the final one, and
        # the proof joins those two AIGs: no golden clone to index
        assert builds == [session.design.top]
        # on the first run the pre-flow AIG is the baseline too
        assert maps == [
            (session.design.top, report.original_area),
            (session.design.top, report.optimized_area),
        ]

    def test_checked_rerun_proves_its_own_pre_flow_state(self, maps):
        session = Session(build_case("ac97_ctrl"))
        first = session.run("smartly", check=True)
        # a design-scope skip maps nothing new
        assert session.run("smartly", check=True).design_cache == "skipped"
        assert len(maps) == 2
        # another flow starts from the first one's result, which is what
        # it proves against, while the baseline stays the first run's
        again = session.run("yosys", check=True)
        assert again.equivalence_checked
        assert again.original_area == first.original_area
        assert [area for _mod, area in maps[2:]] == [
            first.optimized_area, again.optimized_area,
        ]

    def test_checked_run_compares_ports_before_and_after(self, monkeypatch):
        run = PassManager.run

        def adds_a_port(self, module, **kwargs):
            changed = run(self, module, **kwargs)
            module.add_wire("extra", 1, port_output=True)
            return changed

        monkeypatch.setattr(PassManager, "run", adds_a_port)
        with pytest.raises(PortMismatchError, match="signatures differ"):
            Session(_circuit()).run("yosys", check=True)

    def test_eager_run_keeps_its_snapshots(self, builds):
        session = Session(build_case("ac97_ctrl"), engine="eager")
        session.run("smartly")
        # as many as before aigmap reused live indexes: the baseline and
        # final aigmap plus the eager passes' own snapshots
        assert len(builds) == 8
        assert session.design.top._net_index is None

    @pytest.mark.parametrize("case", ["ac97_ctrl", "wb_conmax"])
    def test_aigmap_on_the_live_index_matches_a_snapshot(self, case):
        session = Session(build_case(case))
        session.run("smartly")
        mod = session.design.top
        mapper = AigMapper(mod)
        assert mapper.index is mod.net_index()
        live = mapper.run()
        snapshot = aig_map(mod, NetIndex(mod))
        assert live.num_ands == snapshot.num_ands
        assert live.structural_digest() == snapshot.structural_digest()

    def test_miter_digest_does_not_depend_on_the_live_index(self):
        # the digest keys ("cec", digest) cache entries, so entries stored
        # before the miter reused the live index must still hit
        session = Session(build_case("ac97_ctrl"))
        golden = session.design.top.clone()
        session.run("smartly")
        mod = session.design.top
        assert current_index(mod) is mod.net_index()
        live_aig, live_lit = build_miter(golden, mod)
        clone_aig, clone_lit = build_miter(golden, mod.clone())
        assert live_aig.structural_digest(live_lit) == \
            clone_aig.structural_digest(clone_lit)

    def test_frozen_live_index_is_not_reused(self):
        mod = build_case("ac97_ctrl")
        index = mod.net_index()
        with index.frozen():
            assert current_index(mod) is not index
        assert current_index(mod) is index
