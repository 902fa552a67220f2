"""WorkerPool: process-isolated job execution surviving crashes and hangs.

These tests drive :class:`repro.flow.workers.WorkerPool` directly — the
supervisor the serve daemon runs under ``--isolation process`` — and
assert its survival contract: a worker SIGKILLed mid-job surfaces as a
retryable :data:`~repro.flow.workers.DIED` outcome (never an exception),
a replacement worker serves the next job, the shared-cache snapshot
protocol replays byte-identically across the pipe, and the wall-clock
watchdog kills a hung worker at the budget.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time

import pytest

from repro.flow.workers import (
    DIED,
    ERROR,
    RESULT,
    TIMEOUT,
    WorkerPool,
    run_job,
)

MUX_SOURCE = (
    "module m(input [1:0] s, input [3:0] a, b, output reg [3:0] y);"
    " always @* begin case (s) 2'b00: y = a; 2'b01: y = b;"
    " default: y = a; endcase end endmodule"
)


def functional(value):
    """A report minus per-session instrumentation: ``cache_stats`` counts
    this session's lookups (a replay shows hits where the cold run showed
    misses) and ``runtime_s`` is re-stamped at every level, so
    byte-identical means everything else — areas, netlist stats, pass
    results."""
    if isinstance(value, dict):
        return {
            k: functional(v) for k, v in value.items()
            if k not in ("cache_stats", "runtime_s")
        }
    if isinstance(value, list):
        return [functional(v) for v in value]
    return value


def job(**extra):
    base = {"op": "run", "id": "j", "source": MUX_SOURCE, "flow": "smartly",
            "events": False}
    base.update(extra)
    return base


def kill_worker_when_active(pool: WorkerPool, sig=signal.SIGKILL):
    """Background thread: SIGKILL the first worker that picks up a job."""

    def reaper():
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            with pool._lock:
                active = list(pool._active)
            # wait for the startup handshake too, so the kill lands
            # mid-job rather than mid-spawn
            if active and active[0].ready:
                os.kill(active[0].process.pid, sig)
                return
            time.sleep(0.02)

    thread = threading.Thread(target=reaper, daemon=True)
    thread.start()
    return thread


class TestRunJobBody:
    """The isolation-agnostic job body (what both modes execute)."""

    def test_returns_payload_and_delta(self):
        payload, delta = run_job(job())
        assert payload["op"] == "run"
        assert payload["replayed"] is False
        assert payload["report"]["converged"] is True
        assert delta, "a cold run must learn cache entries"

    def test_snapshot_replays_byte_identically(self):
        payload, delta = run_job(job())
        replay, replay_delta = run_job(job(), snapshot=delta)
        assert replay["replayed"] is True
        assert functional(replay["report"]) == functional(payload["report"])
        assert replay_delta == {}, "a full replay learns nothing new"


class TestThreadJobReadsLiveCache:
    def test_job_cost_does_not_grow_with_the_shared_cache(self,
                                                          monkeypatch):
        """A thread-isolated serve job reads the live shared cache: no
        export or merge during the job sees more than the job learned,
        however large the shared cache is."""
        from repro.api import FlowServer
        from repro.core.cache import ResultCache

        synthetic = 50_000
        server = FlowServer(max_workers=1)
        server._cache.merge(
            {("sim", f"synthetic-{i}", ()): i for i in range(synthetic)}
        )
        seen = []
        real_export, real_merge = ResultCache.export, ResultCache.merge

        def export(self, *args, **kwargs):
            entries = real_export(self, *args, **kwargs)
            seen.append(("export", len(entries)))
            return entries

        def merge(self, entries):
            seen.append(("merge", len(entries)))
            return real_merge(self, entries)

        monkeypatch.setattr(ResultCache, "export", export)
        monkeypatch.setattr(ResultCache, "merge", merge)
        responses = []
        server.serve_lines([json.dumps(job())], responses.append)
        assert [r["type"] for r in responses][-1] == "bye"
        learned = len(server._cache) - synthetic
        assert learned > 0
        assert seen, "the job's delta must still merge back"
        assert max(size for _kind, size in seen) <= learned, seen


class TestWorkerPool:
    def test_round_trip_and_reuse(self):
        with WorkerPool(max_workers=1) as pool:
            first = pool.run_job(job())
            assert first.kind == RESULT
            assert first.payload["replayed"] is False
            assert first.delta
            # same worker, warm snapshot: byte-identical replay
            second = pool.run_job(job(), snapshot=first.delta)
            assert second.kind == RESULT
            assert second.payload["replayed"] is True
            assert functional(second.payload["report"]) == functional(
                first.payload["report"]
            )
            assert pool.counters["workers_spawned"] == 1  # reused, not respawned
            assert pool.counters["jobs_completed"] == 2

    def test_events_stream_through(self):
        events = []
        with WorkerPool(max_workers=1) as pool:
            outcome = pool.run_job(job(events=True), on_event=events.append)
        assert outcome.kind == RESULT
        kinds = {e.get("kind") for e in events}
        assert "pass_finished" in kinds
        assert all(e["type"] == "event" and e["id"] == "j" for e in events)

    def test_job_body_error_is_not_retryable(self):
        with WorkerPool(max_workers=1) as pool:
            outcome = pool.run_job({"op": "run", "id": "bad"})
            assert outcome.kind == ERROR
            assert outcome.retryable is False
            assert "source" in outcome.message
            # the worker survives its job's error and serves the next one
            assert pool.run_job(job()).kind == RESULT
            assert pool.counters["workers_spawned"] == 1

    def test_sigkill_mid_job_is_retryable_died(self):
        with WorkerPool(max_workers=1) as pool:
            # park the worker in a hang so the kill lands mid-job
            kill_worker_when_active(pool)
            outcome = pool.run_job(job(), fault="worker-hang")
            assert outcome.kind == DIED
            assert outcome.retryable is True
            assert "died mid-job" in outcome.message
            assert pool.counters["worker_deaths"] == 1
            # a replacement worker serves the next job normally
            replacement = pool.run_job(job())
            assert replacement.kind == RESULT
            assert pool.counters["workers_replaced"] == 1
            assert pool.counters["workers_spawned"] == 2

    def test_injected_crash_is_retryable_died(self):
        with WorkerPool(max_workers=1) as pool:
            outcome = pool.run_job(job(), fault="worker-crash")
            assert outcome.kind == DIED and outcome.retryable is True
            # request-injected faults fire on attempt 1 only: the retry
            # attempt runs clean on a replacement worker
            retry = pool.run_job(job(), fault="worker-crash", attempt=2)
            assert retry.kind == RESULT

    def test_watchdog_kills_hung_worker_at_budget(self):
        with WorkerPool(max_workers=1) as pool:
            start = time.monotonic()
            outcome = pool.run_job(job(), fault="worker-hang",
                                   timeout_s=0.5)
            elapsed = time.monotonic() - start
            assert outcome.kind == TIMEOUT
            assert outcome.retryable is True
            assert "budget" in outcome.message
            assert elapsed < 30, "the watchdog must not wait for the hang"
            assert pool.counters["timeouts"] == 1
            # the hung worker was killed and replaced
            assert pool.run_job(job()).kind == RESULT
            assert pool.counters["workers_replaced"] == 1

    def test_cold_spawn_is_not_charged_to_the_job_budget(self):
        with WorkerPool(max_workers=1) as pool:
            # cold pool: the interpreter spawn + repro imports (~0.5s,
            # more under load) happen before this first job — the budget
            # clock must start at the worker's ready handshake, not at
            # submission, or tight budgets kill cold workers before the
            # job runs
            outcome = pool.run_job(job(), timeout_s=2.0)
            assert outcome.kind == RESULT
            assert pool.counters.get("timeouts", 0) == 0
            assert pool._idle[0].ready is True

    def test_close_is_idempotent_and_refuses_new_jobs(self):
        pool = WorkerPool(max_workers=1)
        assert pool.run_job(job()).kind == RESULT
        pool.close()
        pool.close()
        with pytest.raises(RuntimeError):
            pool.run_job(job())

    def test_rejects_nonpositive_worker_count(self):
        with pytest.raises(ValueError):
            WorkerPool(max_workers=0)
