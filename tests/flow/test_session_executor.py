"""run_suite executor selection: thread vs process pools agree exactly.

``run_suite`` used to advertise parallelism while fanning pure-Python CPU
work onto a GIL-bound thread pool.  ``executor="process"`` runs jobs in a
``ProcessPoolExecutor`` — modules, specs and reports round-trip through
pickle — and must produce a :class:`SuiteReport` identical to the thread
path up to wall-clock timings.
"""

from __future__ import annotations

import pickle

import pytest

from repro.api import Session, suite_cases
from repro.equiv.differential import random_module
from repro.events import EventLog
from repro.workloads import build_case

CASES = ("top_cache_axi", "pci_bridge32")
FLOWS = ("yosys", "smartly-rebuild")


def _normalized(suite_report):
    """The report dict with non-deterministic wall-clock fields zeroed."""
    data = suite_report.to_dict()
    data["runtime_s"] = 0.0
    for per_flow in data["results"].values():
        for report in per_flow.values():
            report["runtime_s"] = 0.0
            for record in report["passes"]:
                record["runtime_s"] = 0.0
            for key in list(report["pass_stats"]):
                if key.endswith("sat_wallclock_us"):
                    report["pass_stats"][key] = 0
            report["oracle_stats"].pop("sat_wallclock_us", None)
    return data


class TestModulePickling:
    def test_module_roundtrips_through_pickle(self):
        module = random_module(31337, width=4, n_units=2)
        module.net_index()  # live state must be dropped, not pickled
        copy = pickle.loads(pickle.dumps(module))
        assert sorted(copy.cells) == sorted(module.cells)
        assert sorted(copy.wires) == sorted(module.wires)
        assert len(copy.connections) == len(module.connections)
        assert copy._listeners == [] and copy._net_index is None
        # the copy is a working module: cells resolve, ports keep widths
        for name, cell in copy.cells.items():
            original = module.cells[name]
            assert cell.type is original.type
            assert cell.width == original.width
            for pname, spec in cell.connections.items():
                assert len(spec) == len(original.connections[pname])

    def test_pickled_module_optimizes_identically(self):
        module = random_module(31338, width=4, n_units=2)
        copy = pickle.loads(pickle.dumps(module))
        a = Session(module).run("smartly")
        b = Session(copy).run("smartly")
        assert a.optimized_area == b.optimized_area


class TestExecutors:
    def test_thread_and_process_reports_identical(self):
        cases = suite_cases(CASES, build_case)
        threaded = Session().run_suite(
            cases, FLOWS, max_workers=2, executor="thread"
        )
        processed = Session().run_suite(
            cases, FLOWS, max_workers=2, executor="process"
        )
        assert _normalized(threaded) == _normalized(processed)

    def test_process_executor_emits_case_events(self):
        log = EventLog()
        session = Session()
        session.subscribe(log)
        session.run_suite(
            suite_cases(CASES[:1], build_case), FLOWS[:1],
            max_workers=1, executor="process",
        )
        kinds = log.kinds()
        assert "suite_started" in kinds and "suite_finished" in kinds
        assert kinds.count("case_started") == 1
        assert kinds.count("case_finished") == 1
        started = log.of_kind("suite_started")[0]
        assert started["executor"] == "process"

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError):
            Session().run_suite(
                suite_cases(CASES[:1], build_case), FLOWS[:1],
                executor="fiber",
            )


class TestWarmStart:
    """Snapshot-seeded suite workers: pure acceleration, merged deltas."""

    @pytest.mark.parametrize("executor", ("thread", "process"))
    def test_warm_and_cold_suites_agree_on_areas(self, executor):
        cases = suite_cases(CASES[:1], build_case)
        flows = ("smartly",)

        def areas(warm_start):
            session = Session()
            suite = session.run_suite(
                cases, flows, max_workers=1, executor=executor,
                warm_start=warm_start,
            )
            return {
                case: {f: r.optimized_area for f, r in per.items()}
                for case, per in suite.results.items()
            }

        assert areas(True) == areas(False)

    @pytest.mark.parametrize("executor", ("thread", "process"))
    def test_deltas_merge_back_into_the_parent_session(self, executor):
        session = Session()
        assert len(session._result_cache) == 0
        suite = session.run_suite(
            suite_cases(CASES[:1], build_case), ("smartly",),
            max_workers=1, executor=executor,
        )
        # the worker's structural entries came home ...
        assert len(session._result_cache) > 0
        # ... and the suite surfaced its totals
        assert suite.cache_stats["entries"] == len(session._result_cache)
        assert "cache_stats" in suite.to_dict()
        hits = sum(
            v for k, v in suite.cache_stats.items() if k.endswith("_hits")
        )
        misses = sum(
            v for k, v in suite.cache_stats.items() if k.endswith("_misses")
        )
        assert misses > 0 and hits >= 0

    def test_second_suite_is_seeded_by_the_first(self):
        session = Session()
        first = session.run_suite(
            suite_cases(CASES[:1], build_case), ("smartly",),
            max_workers=1, executor="process",
        )
        second = session.run_suite(
            suite_cases(CASES[:1], build_case), ("smartly",),
            max_workers=1, executor="process",
        )
        def miss_count(suite):
            return sum(
                v for k, v in suite.cache_stats.items()
                if k.endswith("_misses")
            )
        # the first suite computed its job and stored it under the
        # module's structural signature; the second replays it wholesale
        assert first.cache_stats.get("suite_job_hits", 0) == 0
        assert second.cache_stats.get("suite_job_hits", 0) == 1
        assert miss_count(second) < miss_count(first)
        # identical module + flow: the areas must not move
        case = CASES[0]
        assert (
            first[case]["smartly"].optimized_area
            == second[case]["smartly"].optimized_area
        )

    def test_run_report_carries_session_lifetime_cache_stats(self):
        session = Session(build_case(CASES[0]))
        # a checked run stores its cec verdict in the session cache
        report = session.run("smartly", check=True)
        assert report.cache_stats.get("entries", 0) > 0
        assert "cache_stats" in report.to_dict()
        again = session.run("smartly")
        # lifetime totals are monotone across runs of one session
        assert again.cache_stats["entries"] >= report.cache_stats["entries"]
