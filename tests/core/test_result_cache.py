"""The content-signature result cache: transparency and reuse.

The cache memoizes whole control-query resolutions (``resolve``) keyed by
sub-graph content signatures.  It must be a pure acceleration: every flow
produces byte-identical netlists, areas and pass stats (its own
``rcache_*`` counters and the SAT solves it saves aside) with the cache
on or off, while fixpoint rounds re-asking the same undecided queries hit
instead of recomputing.
"""

from __future__ import annotations

import pytest

from repro.api import Session, SmartlyOptions
from repro.core.cache import ResultCache
from repro.equiv import CI_CORPUS
from repro.equiv.differential import random_module
from repro.ir import Circuit
from repro.ir.verilog_writer import verilog_str
from repro.sat.solver import Solver
from repro.workloads import CASE_NAMES, build_case


def _chain_module(name="chain"):
    c = Circuit(name)
    sel = c.input("sel", 2)
    d = [c.input(f"d{i}", 4) for i in range(3)]
    c.output("y", c.case_(sel, [(0, d[0]), (1, d[1]), (2, d[0])], d[2]))
    return c.module


class TestUnit:
    def test_lookup_miss_then_hit(self):
        cache = ResultCache()
        hit, value = cache.lookup(("sim", "k1"))
        assert not hit and value is None
        cache.store(("sim", "k1"), True)
        hit, value = cache.lookup(("sim", "k1"))
        assert hit and value is True
        assert cache.counters == {"sim_misses": 1, "sim_hits": 1}

    def test_none_outcomes_are_cacheable(self):
        cache = ResultCache()
        cache.store(("infer", "k"), (False, None))
        hit, value = cache.lookup(("infer", "k"))
        assert hit and value == (False, None)

    def test_eviction_drops_oldest_half(self):
        cache = ResultCache(max_entries=4)
        for i in range(4):
            cache.store(("sim", i), i)
        cache.store(("sim", 99), 99)
        assert len(cache) == 3  # dropped 2 oldest, added 1
        assert cache.lookup(("sim", 0))[0] is False
        assert cache.lookup(("sim", 99))[0] is True
        assert cache.counters["evictions"] == 2  # per entry, not per sweep

    def test_eviction_counter_counts_entries_not_sweeps(self):
        """Regression: a sweep dropping ``max_entries // 2`` keys used to
        bump ``evictions`` by 1, under-reporting churn by the sweep size."""
        cache = ResultCache(max_entries=8)
        for i in range(8):
            cache.store(("infer", i), i)
        cache.store(("infer", "next"), 0)  # first sweep: 4 entries out
        assert cache.counters["evictions"] == 4
        for i in range(100, 104):
            cache.store(("infer", i), i)  # refill to the cap ...
        cache.store(("infer", "again"), 0)  # ... second sweep: 4 more
        assert cache.counters["evictions"] == 8


class TestMergeCap:
    def test_merge_enforces_max_entries(self):
        """Regression: ``merge`` never evicted, so repeated warm-start
        merges grew the cache unboundedly past ``max_entries``."""
        cache = ResultCache(max_entries=8)
        snapshot = {("sim", f"sig-{i}", ()): i for i in range(100)}
        added = cache.merge(snapshot)
        assert added == 100
        assert len(cache) <= cache.max_entries
        assert cache.counters["evictions"] > 0
        # the sweep is oldest-first, so the newest merged keys survive
        assert cache.lookup(("sim", "sig-99", ()))[0] is True

    def test_repeated_merges_stay_bounded(self):
        cache = ResultCache(max_entries=16)
        for round_ in range(10):
            cache.merge({
                ("sim", f"r{round_}-{i}", ()): i for i in range(16)
            })
            assert len(cache) <= cache.max_entries

    def test_merge_below_cap_never_evicts(self):
        cache = ResultCache(max_entries=100)
        cache.store(("sim", "mine", ()), 1)
        cache.merge({("sim", f"s{i}", ()): i for i in range(10)})
        assert len(cache) == 11
        assert "evictions" not in cache.counters


class TestConcurrentExport:
    def test_export_during_concurrent_stores(self):
        """Regression: ``export`` iterated ``_entries`` while thread-suite
        workers concurrently ``store()`` into the shared session cache —
        ``RuntimeError: dictionary changed size during iteration``."""
        import threading

        # bounded like the merge sibling: the race needs concurrent
        # inserts, not a cache every export has to copy 200k entries of
        cache = ResultCache(max_entries=4096)
        stop = threading.Event()
        errors = []

        def writer():
            i = 0
            try:
                while not stop.is_set():
                    cache.store(("sim", f"w-{i}", ()), i)
                    i += 1
            except Exception as exc:  # pragma: no cover - fails the test
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(300):
                mark = cache.appended
                cache.export()
                cache.export(since=mark)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not errors, errors

    def test_merge_during_concurrent_stores(self):
        """Concurrent mergers beside concurrent stores: the cap holds and
        ``merged`` counts every adopted entry.  The counters here yield
        the GIL between reading a count and writing it back, so a bump
        made outside the cache's lock loses increments."""
        import threading
        import time
        from collections import Counter

        class YieldingCounter(Counter):
            def __getitem__(self, key):
                value = super().__getitem__(key)
                time.sleep(0)
                return value

            def get(self, key, default=None):
                value = super().get(key, default)
                time.sleep(0)
                return value

        cache = ResultCache(max_entries=4096)
        cache.counters = YieldingCounter()
        stop = threading.Event()
        errors = []
        added = []

        def writer():
            i = 0
            try:
                while not stop.is_set():
                    cache.store(("sim", f"m-{i}", ()), i)
                    i += 1
            except Exception as exc:  # pragma: no cover - fails the test
                errors.append(exc)

        def merger(name):
            try:
                for round_ in range(200):
                    added.append(cache.merge({
                        ("infer", f"{name}-{round_}-{i}", ()): i
                        for i in range(8)
                    }))
            except Exception as exc:  # pragma: no cover - fails the test
                errors.append(exc)

        writers = [threading.Thread(target=writer) for _ in range(2)]
        mergers = [
            threading.Thread(target=merger, args=(f"x{n}",)) for n in range(4)
        ]
        try:
            for thread in writers + mergers:
                thread.start()
            for thread in mergers:
                thread.join(timeout=60)
        finally:
            stop.set()
            for thread in writers:
                thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in writers + mergers)
        assert not errors, errors
        assert len(added) == 4 * 200
        assert len(cache) <= cache.max_entries
        assert cache.counters["merged"] == sum(added)


class TestExportMerge:
    def test_structural_cache_exports_and_merges(self):
        cache = ResultCache()
        cache.store(("sim", "sig-a", ()), True)
        cache.store(("infer", "sig-b", ()), (False, None))
        snapshot = cache.export()
        assert snapshot == {
            ("sim", "sig-a", ()): True,
            ("infer", "sig-b", ()): (False, None),
        }
        other = ResultCache()
        other.store(("sim", "sig-a", ()), True)  # pre-existing entry wins
        added = other.merge(snapshot)
        assert added == 1
        assert len(other) == 2
        assert other.counters["merged"] == 1

    def test_export_excludes_receiver_known_keys(self):
        cache = ResultCache()
        cache.store(("sim", "sig-a", ()), True)
        known = cache.appended  # the receiver holds everything so far
        cache.store(("sim", "sig-b", ()), False)
        delta = cache.export(since=known)
        assert delta == {("sim", "sig-b", ()): False}


class TestWatermark:
    """``export(since=)`` returns what was appended after a reading of
    ``appended``: new keys stored or merged, never rewrites."""

    def test_appended_counts_new_keys_and_merges_only(self):
        cache = ResultCache()
        cache.store(("sim", "a", ()), 1)
        cache.store(("sim", "a", ()), 1)  # a rewrite appends nothing
        assert cache.appended == 1
        cache.merge({("sim", "a", ()): 1, ("sim", "b", ()): 2})
        assert cache.appended == 2
        assert cache.export(since=1) == {("sim", "b", ()): 2}
        assert cache.export(since=cache.appended) == {}

    def test_since_keeps_insertion_order(self):
        cache = ResultCache()
        for i in range(10):
            cache.store(("sim", i, ()), i)
        assert list(cache.export(since=6)) == [("sim", i, ()) for i in
                                               range(6, 10)]

    def test_since_survives_eviction(self):
        # eviction drops only the oldest entries, so whatever survives
        # of the appends after the watermark is still the newest suffix
        cache = ResultCache(max_entries=4)
        cache.store(("sim", "old", ()), 0)
        mark = cache.appended
        for i in range(6):
            cache.store(("sim", i, ()), i)
        delta = cache.export(since=mark)
        assert delta == cache.export()
        assert ("sim", "old", ()) not in delta
        assert ("sim", 5, ()) in delta


class TestReadThrough:
    """A cache with a ``parent`` reads it on a miss and owns only what it
    stores itself."""

    def test_miss_falls_through_to_parent_and_counts_as_hit(self):
        parent = ResultCache()
        parent.store(("sim", "p", ()), "from-parent")
        child = ResultCache(parent=parent.view())
        assert child.lookup(("sim", "p", ())) == (True, "from-parent")
        assert child.lookup(("sim", "q", ())) == (False, None)
        assert child.counters == {"sim_hits": 1, "sim_misses": 1}
        assert "sim_hits" not in parent.counters

    def test_store_writes_only_the_child(self):
        parent = ResultCache()
        child = ResultCache(parent=parent.view())
        child.store(("sim", "mine", ()), 1)
        assert len(parent) == 0
        assert parent.lookup(("sim", "mine", ()))[0] is False

    def test_export_and_len_exclude_the_parent(self):
        snapshot = {("sim", f"s{i}", ()): i for i in range(5)}
        child = ResultCache(parent=snapshot)
        child.store(("infer", "new", ()), (False, None))
        assert len(child) == 1
        assert child.export() == {("infer", "new", ()): (False, None)}
        assert child.totals()["entries"] == 1

    def test_view_is_live_and_read_only(self):
        parent = ResultCache()
        view = parent.view()
        parent.store(("sim", "late", ()), True)
        assert view.get(("sim", "late", ())) is True
        with pytest.raises(TypeError):
            view[("sim", "x", ())] = False


class TestReadThroughSuites:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_per_job_counters_are_deterministic(self, executor):
        """Every suite job reads through one frozen snapshot, so its hit
        and miss counters do not depend on scheduling."""
        from repro.ir.struct_hash import renamed_copy

        def per_job_counters():
            session = Session()
            session.run_suite(
                {"warm": random_module(311, width=4, n_units=3)},
                max_workers=1,
            )
            cases = {
                "a": random_module(312, width=4, n_units=3),
                "b": random_module(313, width=4, n_units=3),
                "clone": renamed_copy(
                    random_module(311, width=4, n_units=3), prefix="z",
                    name="clone",
                ),
            }
            suite = session.run_suite(
                cases, ("smartly", "yosys"), max_workers=2,
                executor=executor,
            )
            return {
                (case, flow): {
                    key: value for key, value in report.cache_stats.items()
                    if key.endswith(("_hits", "_misses"))
                }
                for case, per_flow in suite.results.items()
                for flow, report in per_flow.items()
            }, suite

        first, suite = per_job_counters()
        second, _ = per_job_counters()
        assert first == second
        # the clone replays its twin's job through the snapshot; its own
        # cache learned nothing, and no job merges a snapshot any more
        clone = suite["clone"]["smartly"].cache_stats
        assert clone["suite_job_hits"] == 1 and clone["entries"] == 0
        assert not any("merged" in report.cache_stats
                       for report in suite.reports())


class TestTransparency:
    @pytest.mark.parametrize("flow", ("smartly", "smartly-sat"))
    def test_areas_identical_cache_on_and_off(self, flow):
        for seed in (301, 302, 303):
            on = Session(random_module(seed, width=4, n_units=3)).run(flow)
            off = Session(
                random_module(seed, width=4, n_units=3),
                options=SmartlyOptions(use_result_cache=False),
            ).run(flow)
            assert on.optimized_area == off.optimized_area, (seed, flow)

    def test_areas_identical_across_both_engines(self):
        for engine in ("incremental", "eager"):
            on = Session(_chain_module(), engine=engine).run("smartly")
            off = Session(
                _chain_module(),
                options=SmartlyOptions(use_result_cache=False),
                engine=engine,
            ).run("smartly")
            assert on.optimized_area == off.optimized_area, engine


#: engine and smartly options of each cache-invariance lane; the sim0
#: lanes send every control query that inference leaves open to SAT
#: (the default thresholds never reach it on these designs), and a
#: one-conflict budget sends budget-outs through the cache too
LANES = {
    "incremental": ("incremental", {}),
    "eager": ("eager", {}),
    "sim0": ("incremental", {"sim_threshold": 0}),
    "sim0-mc1": ("incremental", {"sim_threshold": 0, "max_conflicts": 1}),
}


def _run_outcome(module, flow, lane, cache):
    """The optimized netlist and the pass stats of one run, without the
    cache's own counters, the SAT oracle's and the wall-clock readings;
    and, apart, the oracle's solver calls, which a hit saves."""
    engine, options = LANES[lane]
    report = Session(
        module,
        options=SmartlyOptions(use_result_cache=cache, **options),
        engine=engine,
    ).run(flow)
    stats = {
        key: value for key, value in report.pass_stats.items()
        if not key.rsplit(".", 1)[-1].startswith(("rcache_", "oracle_"))
        and "wallclock" not in key
    }
    return verilog_str(module), stats, report.oracle_stats.get(
        "solver_calls", 0
    )


def _assert_invariant(on, off, label):
    assert on[:2] == off[:2], label
    # a hit replays a stored outcome instead of solving it again
    assert on[2] <= off[2], label


@pytest.mark.parametrize("lane", LANES)
@pytest.mark.parametrize("flow", ("smartly", "smartly-sat"))
class TestCacheInvariance:
    """Every netlist and every counter but the cache's own and the
    solver's reads the same with the cache on and off: a ``resolve`` hit
    replays only what its key covers (the raw ball size of a query is its
    own), and it never solves more."""

    @pytest.mark.parametrize("case", CASE_NAMES)
    def test_table2_case(self, case, flow, lane):
        on = _run_outcome(build_case(case), flow, lane, cache=True)
        off = _run_outcome(build_case(case), flow, lane, cache=False)
        _assert_invariant(on, off, case)

    def test_fuzz_corpus(self, flow, lane):
        for seed in CI_CORPUS[:16]:
            on = _run_outcome(
                random_module(seed, width=8, n_units=4), flow, lane, True
            )
            off = _run_outcome(
                random_module(seed, width=8, n_units=4), flow, lane, False
            )
            _assert_invariant(on, off, seed)


class TestLadderEntries:
    """The smartly ladder keeps one memo per control query: ``resolve``
    is the only entry kind it reads or writes, since its rungs keep no
    memo of their own and data queries none at all."""

    KINDS = {"resolve", "suite_job", "cec", "hier_netlist"}

    @pytest.mark.parametrize("sim_threshold", (8, 0))
    @pytest.mark.parametrize("flow", ("smartly", "smartly-sat"))
    @pytest.mark.parametrize("design", ("ac97_ctrl", "random_module"))
    def test_only_resolve_entries(self, design, flow, sim_threshold):
        module = (
            build_case(design) if design in CASE_NAMES
            else random_module(1002, width=8, n_units=4)
        )
        session = Session(
            module, options=SmartlyOptions(sim_threshold=sim_threshold)
        )
        report = session.run(flow)
        kinds = {key[0] for key in session.export_cache()}
        assert "resolve" in kinds and kinds <= self.KINDS, kinds
        rcache = [
            key.rsplit(".", 1)[-1] for key in report.pass_stats
            if key.rsplit(".", 1)[-1].startswith("rcache_")
        ]
        assert rcache, report.pass_stats
        assert all(name.startswith("rcache_resolve_") for name in rcache), (
            rcache
        )


class TestSatOutcomes:
    """A free SAT outcome (satisfiable both ways) is a fact of the
    sub-graph's structure and is stored; a budget-out is not."""

    @staticmethod
    def _riscv_sim0():
        session = Session(
            build_case("riscv"), options=SmartlyOptions(sim_threshold=0)
        )
        report = session.run("smartly")
        stats = {
            key.rsplit(".", 1)[-1]: value
            for key, value in report.pass_stats.items()
        }
        sat_entries = [
            value for (kind, *_), (value, notes) in
            session.export_cache().items()
            if kind == "resolve" and ("sat_queries", 1) in notes
        ]
        return stats, sat_entries

    def test_free_outcome_replays(self):
        stats, sat_entries = self._riscv_sim0()
        assert stats["sat_queries"] == 8
        # three of the eight queries replay a stored free outcome: ten
        # solves, where asking every one again took sixteen
        assert stats["rcache_resolve_hits"] == 3
        assert stats["oracle_solver_calls"] == 10
        assert None in sat_entries

    def test_budget_out_stores_no_entry(self, monkeypatch):
        monkeypatch.setattr(
            Solver, "solve", lambda self, assumptions, max_conflicts=None: None
        )
        stats, sat_entries = self._riscv_sim0()
        # every query is solved: no budget-out is stored to replay
        assert stats["oracle_solver_calls"] == 2 * stats["sat_queries"] > 0
        assert sat_entries == []


class TestStructuralSharing:
    """A renamed clone replays the entries its isomorphic base left."""

    @staticmethod
    def _clone_run_counters(primed):
        from repro.api import Design
        from repro.ir.struct_hash import renamed_copy

        base = random_module(307, width=4, n_units=4, name="base")
        clone = renamed_copy(base, prefix="z", name="clone")
        design = Design(base)
        design.add_module(clone)
        session = Session(design)
        if primed:
            session.run("smartly", module="base")
        before = dict(session._result_cache.counters)
        report = session.run("smartly", module="clone")
        after = session._result_cache.counters
        misses = sum(
            value - before.get(key, 0)
            for key, value in after.items() if key.endswith("_misses")
        )
        return report, misses

    def test_cache_shares_across_renamed_clone_modules(self):
        primed_report, primed_misses = self._clone_run_counters(True)
        fresh_report, fresh_misses = self._clone_run_counters(False)
        # the base run's entries answer the clone's queries: strictly
        # fewer misses than the same clone in a fresh session, same area
        assert primed_misses < fresh_misses, (primed_misses, fresh_misses)
        assert primed_report.optimized_area == fresh_report.optimized_area


class TestReuse:
    def test_fixpoint_rounds_hit_the_cache(self):
        module = random_module(305, width=4, n_units=4)
        report = Session(module).run("smartly")
        stats = report.pass_stats
        hits = sum(
            v for k, v in stats.items()
            if k.rsplit(".", 1)[-1].startswith("rcache_")
            and k.endswith("_hits")
        )
        assert hits > 0, stats

    def test_cache_disabled_reports_no_rcache_stats(self):
        report = Session(
            _chain_module(), options=SmartlyOptions(use_result_cache=False)
        ).run("smartly")
        assert not any("rcache_" in key for key in report.pass_stats)

    def test_session_shares_one_cache_across_modules_and_runs(self):
        from repro.api import Design

        design = Design(_chain_module("alpha"))
        design.add_module(_chain_module("beta"))
        session = Session(design)
        session.run_all("smartly")
        # both modules' flows were attached to the same session cache
        assert len(session._result_cache) > 0
        total = dict(session._result_cache.counters)
        assert sum(v for k, v in total.items() if k.endswith("_misses")) > 0
