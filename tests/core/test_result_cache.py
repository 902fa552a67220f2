"""The whole-artifact result cache: keys, lookup, eviction, export,
merge and read-through.

The mechanics are kind-agnostic: :meth:`ResultCache.lookup` and
:meth:`ResultCache.store` take any key tuple whose first element names
its kind, and :meth:`ResultCache.key_for` builds the keys of the three
kinds the program stores.
"""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.core.cache import ResultCache
from repro.equiv.differential import random_module
from repro.ir import Circuit


def _chain_module(name="chain"):
    c = Circuit(name)
    sel = c.input("sel", 2)
    d = [c.input(f"d{i}", 4) for i in range(3)]
    c.output("y", c.case_(sel, [(0, d[0]), (1, d[1]), (2, d[0])], d[2]))
    return c.module


class TestUnit:
    def test_key_for_builds_the_keys_of_three_kinds(self):
        cache = ResultCache()
        assert ResultCache.KINDS == ("suite_job", "hier_netlist", "cec")
        for kind in ResultCache.KINDS:
            assert cache.key_for(kind, "sig", (1, 2)) == (kind, "sig", (1, 2))
        with pytest.raises(ValueError, match="resolve"):
            cache.key_for("resolve", "sig")

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
    def test_areas_identical_across_both_engines(self):
        areas = {
            engine: Session(_chain_module(), engine=engine).run(
                "smartly"
            ).optimized_area
            for engine in ("incremental", "eager")
        }
        assert areas["incremental"] == areas["eager"], areas
