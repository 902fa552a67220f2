"""Session(store_path=): cache state survives the process boundary.

A session opened with ``store_path=`` warm-starts its result cache from
every generation earlier sessions persisted and writes its own delta back
as one new generation at close.  The observable contract: a *second,
cold* session pointed at the same directory replays suite jobs straight
from the ``suite_job`` cache — byte-identical reports, zero passes run —
and a store that does not apply (a foreign keying scheme) silently
degrades to a cold start instead of failing.
"""

from __future__ import annotations

import pytest

from repro.api import Session, suite_cases
from repro.core.store import CacheStore
from repro.equiv.differential import random_module
from repro.workloads import build_case

CASES = ("top_cache_axi", "pci_bridge32")
FLOWS = ("smartly", "yosys")


def _normalized(suite_report):
    """Suite report dict with wall-clock noise zeroed for comparison."""
    data = suite_report.to_dict()
    data["runtime_s"] = 0.0
    data["cache_stats"] = {}
    for per_flow in data["results"].values():
        for report in per_flow.values():
            report["runtime_s"] = 0.0
            report["cache_stats"] = {}
            for record in report["passes"]:
                record["runtime_s"] = 0.0
            for key in list(report["pass_stats"]):
                if key.endswith("sat_wallclock_us"):
                    report["pass_stats"][key] = 0
            report["oracle_stats"].pop("sat_wallclock_us", None)
    return data


class TestCrossSessionReplay:
    def test_second_session_replays_suite_from_store(self, tmp_path):
        store_dir = tmp_path / "store"
        cases = suite_cases(CASES, build_case)

        with Session(store_path=store_dir) as first:
            warm = first.run_suite(cases, FLOWS, max_workers=2)
        assert CacheStore(store_dir).generations(), "close() must persist"

        # a brand-new session: nothing in memory, everything on disk
        with Session(store_path=store_dir) as second:
            replayed = second.run_suite(cases, FLOWS, max_workers=2)

        jobs = len(CASES) * len(FLOWS)
        assert replayed.cache_stats.get("suite_job_hits", 0) == jobs
        assert replayed.cache_stats.get("suite_job_misses", 0) == 0
        assert _normalized(replayed) == _normalized(warm)

    def test_replayed_areas_are_identical(self, tmp_path):
        store_dir = tmp_path / "store"
        module = random_module(2025, width=4, n_units=3)
        with Session(store_path=store_dir) as first:
            warm = first.run_suite({"m": module}, ("smartly",))
        with Session(store_path=store_dir) as second:
            cold = second.run_suite({"m": module.clone()}, ("smartly",))
        assert (
            cold["m"]["smartly"].optimized_area
            == warm["m"]["smartly"].optimized_area
        )
        assert cold.cache_stats.get("suite_job_hits", 0) == 1

    def test_sessions_accumulate_generations(self, tmp_path):
        store_dir = tmp_path / "store"
        for seed in (1, 2):
            with Session(store_path=store_dir) as session:
                session.run_suite(
                    {"m": random_module(seed, width=4, n_units=2)},
                    ("smartly",),
                )
        store = CacheStore(store_dir)
        assert len(store.generations()) == 2
        # the union warm-starts a third session with both modules' jobs
        with Session(store_path=store_dir) as third:
            report = third.run_suite(
                {
                    "a": random_module(1, width=4, n_units=2),
                    "b": random_module(2, width=4, n_units=2),
                },
                ("smartly",),
            )
        assert report.cache_stats.get("suite_job_hits", 0) == 2


class TestFlushSemantics:
    def test_flush_store_writes_only_the_delta(self, tmp_path):
        store_dir = tmp_path / "store"
        session = Session(store_path=store_dir)
        session.run_suite(
            {"m": random_module(7, width=4, n_units=2)}, ("smartly",)
        )
        first = session.flush_store()
        assert first > 0
        # nothing new learned since: the second flush is a no-op and
        # close() at teardown writes no further generation
        assert session.flush_store() == 0
        session.close()
        assert len(CacheStore(store_dir).generations()) == 1

    def test_close_without_new_work_writes_nothing(self, tmp_path):
        store_dir = tmp_path / "store"
        with Session(store_path=store_dir) as warmup:
            warmup.run_suite(
                {"m": random_module(8, width=4, n_units=2)}, ("smartly",)
            )
        generations = len(CacheStore(store_dir).generations())
        # replaying from the store learns nothing new -> no new generation
        with Session(store_path=store_dir) as replay:
            replay.run_suite(
                {"m": random_module(8, width=4, n_units=2)}, ("smartly",)
            )
        assert len(CacheStore(store_dir).generations()) == generations

    def test_store_keep_generations_bounds_directory(self, tmp_path):
        store_dir = tmp_path / "store"
        for seed in range(4):
            with Session(
                store_path=store_dir, store_keep_generations=2
            ) as session:
                session.run_suite(
                    {"m": random_module(100 + seed, width=4, n_units=2)},
                    ("smartly",),
                )
        assert len(CacheStore(store_dir).generations()) <= 2

    def test_sessionless_flush_returns_zero(self):
        session = Session()
        assert session.flush_store() == 0
        session.close()


class TestStoreCompatibility:
    def test_store_counters_surface_in_cache_stats(self, tmp_path):
        store_dir = tmp_path / "store"
        with Session(store_path=store_dir) as first:
            first.run_suite(
                {"m": random_module(10, width=4, n_units=2)}, ("smartly",)
            )
        with Session(store_path=store_dir) as second:
            report = second.run_suite(
                {"m": random_module(10, width=4, n_units=2)}, ("smartly",)
            )
            totals = second._cache_totals()
        assert totals.get("store_loaded_files", 0) >= 1
        assert totals.get("store_loaded_entries", 0) >= 1
        assert report.cache_stats.get("suite_job_hits", 0) == 1

    def test_corrupt_generation_degrades_to_cold_start(self, tmp_path):
        store_dir = tmp_path / "store"
        with Session(store_path=store_dir) as writer:
            writer.run_suite(
                {"m": random_module(11, width=4, n_units=2)}, ("smartly",)
            )
        for gen in CacheStore(store_dir).generations():
            gen.write_bytes(b"rotted on disk")
        with Session(store_path=store_dir) as reader:
            totals = reader._cache_totals()
            report = reader.run_suite(
                {"m": random_module(11, width=4, n_units=2)}, ("smartly",)
            )
        assert totals.get("store_corrupt_skipped", 0) >= 1
        assert report.cache_stats.get("suite_job_misses", 0) == 1
