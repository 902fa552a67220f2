"""FlowServer: the JSON-lines serve daemon.

``serve_lines`` is transport-free, so the protocol tests drive it with
plain lists of request lines and collect the emitted dicts — accepted /
event / result ordering, malformed-input tolerance, flush/stats/shutdown
semantics, replay across daemon restarts through a shared store.  The
transports get their own coverage: a live localhost socket session and a
subprocess smoke of ``python -m repro.cli serve`` over stdin pipes.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api import FlowServer, Session, serve_socket
from repro.frontend import compile_verilog

MUX_SOURCE = (
    "module m(input [1:0] s, input [3:0] a, b, output reg [3:0] y);"
    " always @* begin case (s) 2'b00: y = a; 2'b01: y = b;"
    " default: y = a; endcase end endmodule"
)

HIER_SOURCE = (
    "module leaf(input [1:0] s, input [3:0] a, b, output reg [3:0] y);"
    " always @* begin case (s) 2'b00: y = a; 2'b01: y = b;"
    " default: y = a; endcase end endmodule\n"
    "module top(input [1:0] s, input [3:0] a, b, output [3:0] y0, y1);"
    " leaf u0(.s(s), .a(a), .b(b), .y(y0));"
    " leaf u1(.s(s), .a(a), .b(b), .y(y1));"
    " endmodule"
)


def request(**fields) -> str:
    return json.dumps(fields)


def drive(server: FlowServer, lines) -> tuple:
    """Run one serve session in-process; returns (responses, stopped)."""
    responses = []
    stopped = server.serve_lines(lines, responses.append)
    return responses, stopped


def by_type(responses, kind):
    return [r for r in responses if r["type"] == kind]


class TestProtocol:
    def test_run_job_streams_accepted_events_result(self):
        server = FlowServer(max_workers=1)
        responses, stopped = drive(server, [
            request(op="run", id="j1", source=MUX_SOURCE, flow="smartly"),
            request(op="shutdown"),
        ])
        assert stopped is True
        kinds = [r["type"] for r in responses]
        assert kinds[0] == "accepted" and kinds[-1] == "bye"
        (result,) = by_type(responses, "result")
        assert result["id"] == "j1" and result["op"] == "run"
        assert result["replayed"] is False
        assert result["report"]["converged"] is True
        events = by_type(responses, "event")
        assert events, "pass-level progress must stream by default"
        assert all(e["id"] == "j1" for e in events)
        assert kinds.index("accepted") < kinds.index("event")
        assert kinds.index("event") < kinds.index("result")

    def test_result_area_matches_direct_session(self):
        server = FlowServer(max_workers=1)
        responses, _ = drive(server, [
            request(op="run", id="j", source=MUX_SOURCE, flow="smartly",
                    events=False),
        ])
        (result,) = by_type(responses, "result")
        design = compile_verilog(MUX_SOURCE)
        direct = Session(design.top).run("smartly")
        assert result["report"]["optimized_area"] == direct.optimized_area
        assert result["report"]["original_area"] == direct.original_area

    def test_json_source_via_format_field(self):
        from repro.ir import yosys_json_str

        json_source = yosys_json_str(compile_verilog(MUX_SOURCE))
        server = FlowServer(max_workers=1)
        responses, _ = drive(server, [
            request(op="run", id="j", source=json_source, format="json",
                    flow="smartly", events=False),
        ])
        (result,) = by_type(responses, "result")
        direct = Session(compile_verilog(MUX_SOURCE).top).run("smartly")
        assert result["report"]["optimized_area"] == direct.optimized_area

    def test_json_source_autodetected(self):
        from repro.ir import yosys_json_str

        json_source = yosys_json_str(compile_verilog(MUX_SOURCE))
        server = FlowServer(max_workers=1)
        responses, _ = drive(server, [
            request(op="run", id="j", source=json_source, events=False),
        ])
        assert len(by_type(responses, "result")) == 1

    def test_unknown_source_format_is_an_error(self):
        server = FlowServer(max_workers=1)
        responses, _ = drive(server, [
            request(op="run", id="j", source=MUX_SOURCE, format="edif"),
        ])
        (error,) = by_type(responses, "error")
        assert "unknown source format" in error["error"]

    def test_events_false_suppresses_event_lines(self):
        server = FlowServer(max_workers=1)
        responses, _ = drive(server, [
            request(op="run", id="q", source=MUX_SOURCE, events=False),
        ])
        assert by_type(responses, "event") == []
        assert len(by_type(responses, "result")) == 1

    def test_duplicate_job_replays_from_shared_cache(self):
        # max_workers=1 serializes the jobs, so the second sees the
        # first's delta in the shared cache and replays without a pass
        server = FlowServer(max_workers=1)
        responses, _ = drive(server, [
            request(op="run", id="first", source=MUX_SOURCE, events=False),
            request(op="run", id="second", source=MUX_SOURCE, events=False),
        ])
        results = {r["id"]: r for r in by_type(responses, "result")}
        assert results["first"]["replayed"] is False
        assert results["second"]["replayed"] is True
        assert (
            results["second"]["report"]["optimized_area"]
            == results["first"]["report"]["optimized_area"]
        )

    def test_hier_job_returns_hierarchy_report(self):
        server = FlowServer(max_workers=1)
        responses, _ = drive(server, [
            request(op="hier", id="h", source=HIER_SOURCE, top="top",
                    events=False),
        ])
        (result,) = by_type(responses, "result")
        report = result["report"]
        assert result["op"] == "hier"
        assert report["top"] == "top"
        assert set(report["reports"]) == {"leaf", "top"}
        assert report["total_area"] <= report["original_total_area"]

    def test_ping_stats_flush(self):
        server = FlowServer(max_workers=1)
        responses, _ = drive(server, [
            request(op="ping", id="p"),
            request(op="run", id="j", source=MUX_SOURCE, events=False),
            request(op="stats", id="s"),
            request(op="flush", id="f"),
        ])
        (pong,) = by_type(responses, "pong")
        assert pong["id"] == "p"
        (stats,) = by_type(responses, "stats")
        assert stats["id"] == "s"
        assert isinstance(stats["stats"], dict)
        (flushed,) = by_type(responses, "flushed")
        # flush is non-blocking: it checkpoints what finished jobs have
        # merged (nothing, without a store) and reports in-flight work
        assert flushed["entries"] == 0
        assert "in_flight" in flushed
        assert server.jobs_run == 1

    def test_eof_drains_and_says_bye_without_shutdown(self):
        server = FlowServer(max_workers=1)
        responses, stopped = drive(server, [
            request(op="run", id="j", source=MUX_SOURCE, events=False),
        ])
        assert stopped is False  # plain end-of-input: daemon may keep serving
        assert len(by_type(responses, "result")) == 1
        (bye,) = by_type(responses, "bye")
        assert bye["jobs_run"] == 1


class TestBadInput:
    def test_malformed_json_answers_error_and_continues(self):
        server = FlowServer(max_workers=1)
        responses, _ = drive(server, [
            "{this is not json",
            request(op="ping", id="p"),
        ])
        (error,) = by_type(responses, "error")
        assert "bad JSON" in error["error"]
        assert by_type(responses, "pong"), "the loop must survive bad lines"

    def test_non_object_request_is_an_error(self):
        server = FlowServer(max_workers=1)
        responses, _ = drive(server, ['["a", "list"]'])
        (error,) = by_type(responses, "error")
        assert "JSON object" in error["error"]

    def test_unknown_op_is_an_error(self):
        server = FlowServer(max_workers=1)
        responses, _ = drive(server, [request(op="reticulate", id="x")])
        (error,) = by_type(responses, "error")
        assert error["id"] == "x" and "unknown op" in error["error"]

    def test_missing_source_fails_only_that_job(self):
        server = FlowServer(max_workers=1)
        responses, _ = drive(server, [
            request(op="run", id="bad"),
            request(op="run", id="good", source=MUX_SOURCE, events=False),
        ])
        (error,) = by_type(responses, "error")
        assert error["id"] == "bad" and "source" in error["error"]
        (result,) = by_type(responses, "result")
        assert result["id"] == "good"

    def test_bad_flow_script_is_an_error(self):
        server = FlowServer(max_workers=1)
        responses, _ = drive(server, [
            request(op="run", id="b", source=MUX_SOURCE,
                    flow="no_such_pass k=;;"),
        ])
        (error,) = by_type(responses, "error")
        assert error["id"] == "b" and "bad flow" in error["error"]

    def test_blank_lines_are_ignored(self):
        server = FlowServer(max_workers=1)
        responses, _ = drive(server, ["", "   ", request(op="ping", id="p")])
        assert [r["type"] for r in responses] == ["pong", "bye"]


class TestStoreBackedServe:
    def test_replay_across_daemon_restarts(self, tmp_path):
        store_dir = tmp_path / "store"
        first = FlowServer(store_path=store_dir, max_workers=1)
        responses, _ = drive(first, [
            request(op="run", id="cold", source=MUX_SOURCE, events=False),
            request(op="shutdown"),
        ])
        (bye,) = by_type(responses, "bye")
        assert bye["flushed_entries"] > 0  # shutdown checkpointed the store

        reborn = FlowServer(store_path=store_dir, max_workers=1)
        responses, _ = drive(reborn, [
            request(op="run", id="warm", source=MUX_SOURCE, events=False),
        ])
        (result,) = by_type(responses, "result")
        assert result["replayed"] is True

    def test_explicit_flush_checkpoints_without_shutdown(self, tmp_path):
        from repro.core.store import CacheStore

        store_dir = tmp_path / "store"
        server = FlowServer(store_path=store_dir, max_workers=1)

        def lines():
            yield request(op="run", id="j", source=MUX_SOURCE, events=False)
            # flush is non-blocking, so wait for the job's delta to merge
            # before asking for the checkpoint
            deadline = time.monotonic() + 60
            while server.jobs_run < 1:
                assert time.monotonic() < deadline, "job never finished"
                time.sleep(0.01)
            yield request(op="flush", id="f")

        responses, _ = drive(server, lines())
        (flushed,) = by_type(responses, "flushed")
        assert flushed["entries"] > 0
        assert flushed["in_flight"] == 0
        assert CacheStore(store_dir).load()  # durable before shutdown
        (bye,) = by_type(responses, "bye")
        assert bye["flushed_entries"] == 0  # the delta was already flushed

    def test_stats_include_store_counters(self, tmp_path):
        store_dir = tmp_path / "store"
        FlowServer(store_path=store_dir, max_workers=1).serve_lines(
            [request(op="run", id="j", source=MUX_SOURCE, events=False)],
            lambda _: None,
        )
        server = FlowServer(store_path=store_dir, max_workers=1)
        assert server.stats().get("store_loaded_files", 0) >= 1

    def test_failed_store_write_answers_error_and_keeps_serving(
        self, tmp_path, monkeypatch
    ):
        import repro.core.store as store_mod

        def disk_full(path, data):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(store_mod, "_atomic_write", disk_full)
        server = FlowServer(store_path=tmp_path / "store", max_workers=1)

        def lines():
            yield request(op="run", id="j", source=MUX_SOURCE, events=False)
            deadline = time.monotonic() + 60
            while server.jobs_run < 1:
                assert time.monotonic() < deadline, "job never finished"
                time.sleep(0.01)
            yield request(op="flush", id="f")
            yield request(op="ping", id="p")
            yield request(op="shutdown", id="s")

        responses, stopped = drive(server, lines())
        assert stopped is True
        errors = {r["id"]: r for r in by_type(responses, "error")}
        assert errors["f"]["error"].startswith("StoreError: ")
        assert "No space left on device" in errors["f"]["error"]
        assert errors["s"]["error"].startswith("StoreError: ")
        assert by_type(responses, "flushed") == []
        assert [r["id"] for r in by_type(responses, "pong")] == ["p"]
        (bye,) = by_type(responses, "bye")
        assert bye["flushed_entries"] == 0 and bye["jobs_run"] == 1
        assert server.stats()["store_errors"] == 2

        # the unpersisted delta is still pending for the next checkpoint
        monkeypatch.undo()
        assert server.flush() > 0
        assert server.flush() == 0


def run_request(rid, source=MUX_SOURCE, **extra):
    return request(op="run", id=rid, source=source, events=False, **extra)


def without_runtime(result):
    """A ``result`` line minus the one field every replay re-stamps."""
    report = {k: v for k, v in result["report"].items() if k != "runtime_s"}
    return {**result, "report": report}


def direct_area(source, flow="smartly", top=None, check=False):
    return Session(compile_verilog(source, top=top)).run(
        flow, check=check
    ).optimized_area


@pytest.fixture()
def compile_calls(monkeypatch):
    """Count the daemon process's own source compiles (thread-isolated
    jobs compile in-process; process-isolated ones in their worker)."""
    import repro.flow.workers as workers_mod

    calls = []
    real = workers_mod.compile_source

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(workers_mod, "compile_source", counting)
    return calls


def serve_and_stats(server, lines):
    """Drive one session to completion; returns (results by id, stats)
    with the stats taken before the worker pool is retired."""
    try:
        responses, _ = drive(server, lines)
        stats = server.stats()
    finally:
        server.close()
    errors = by_type(responses, "error")
    assert not errors, errors
    return {r["id"]: r for r in by_type(responses, "result")}, stats


@pytest.mark.parametrize("isolation", ["thread", "process"])
class TestFrontDoor:
    """A byte-identical ``run`` re-submission is answered from the
    shared cache without compiling; everything else takes the full
    path and computes what a direct run computes."""

    def test_resubmission_skips_the_job(self, isolation, tmp_path,
                                        compile_calls):
        store_dir = tmp_path / "store"
        server = FlowServer(store_path=store_dir, max_workers=1,
                            isolation=isolation)
        results, stats = serve_and_stats(server, [
            run_request("cold"),
            run_request("again"),
            request(op="shutdown"),
        ])
        assert results["cold"]["replayed"] is False
        assert results["again"]["replayed"] is True
        assert stats["front_door_hits"] == 1
        assert stats["jobs_run"] == 2
        if isolation == "thread":
            assert len(compile_calls) == 1
        else:
            assert stats["pool_jobs_completed"] == 1

        # a fresh daemon warm-started from this one's cache replays the
        # same source down the full path: the same line, bar the timing
        fresh = FlowServer(store_path=store_dir, max_workers=1,
                           isolation=isolation)
        replays, fresh_stats = serve_and_stats(fresh, [
            run_request("again"),
        ])
        assert "front_door_hits" not in fresh_stats
        assert replays["again"]["replayed"] is True
        assert without_runtime(replays["again"]) == without_runtime(
            results["again"]
        )

    def test_other_requests_take_the_full_path(self, isolation,
                                               compile_calls):
        other = MUX_SOURCE.replace("2'b01: y = b;", "2'b01: y = a & b;")
        renamed = MUX_SOURCE.replace("module m(", "module m_copy(")
        server = FlowServer(max_workers=1, isolation=isolation,
                            allow_fault_injection=True)
        lines = [
            run_request("base"),
            run_request("yosys", flow="yosys"),
            run_request("checked", check=True),
            run_request("injected", inject="merge-error"),
            run_request("top", source=HIER_SOURCE, top="top"),
            run_request("leaf", source=HIER_SOURCE, top="leaf"),
            request(op="hier", id="hier", source=HIER_SOURCE, top="top",
                    events=False),
            run_request("poisoned", source=other, inject="merge-error"),
            run_request("dropped", source=other),
            run_request("renamed", source=renamed),
        ]
        results, stats = serve_and_stats(server, lines)
        assert "front_door_hits" not in stats
        assert stats["merge_errors"] == 2
        if isolation == "thread":
            assert len(compile_calls) == len(lines)
        else:
            assert stats["pool_jobs_completed"] == len(lines)

        def area(rid):
            return results[rid]["report"]["optimized_area"]

        assert results["yosys"]["flow"] == "yosys"
        assert area("yosys") == direct_area(MUX_SOURCE, flow="yosys")
        assert results["checked"]["report"]["equivalence_checked"] is True
        assert area("checked") == direct_area(MUX_SOURCE, check=True)
        assert results["injected"]["replayed"] is True
        assert area("injected") == area("base")
        assert area("top") == direct_area(HIER_SOURCE, top="top")
        assert area("leaf") == direct_area(HIER_SOURCE, top="leaf")
        assert results["leaf"]["report"]["case_name"] == "leaf"
        assert results["hier"]["op"] == "hier"
        assert area("dropped") == direct_area(other)
        assert results["dropped"]["replayed"] is False
        # a renamed copy is another text, so it misses the front door,
        # but its signature still finds the base's suite_job entry
        assert results["renamed"]["replayed"] is True
        assert results["renamed"]["report"]["case_name"] == "m_copy"
        assert area("renamed") == area("base")

    def test_memo_is_bounded(self, isolation, monkeypatch, compile_calls):
        import repro.flow.serve as serve_mod

        monkeypatch.setattr(serve_mod, "FRONT_DOOR_MAX_ENTRIES", 2)
        sources = [MUX_SOURCE.replace("module m(", f"module m{i}(")
                   for i in range(3)]
        server = FlowServer(max_workers=1, isolation=isolation)
        results, stats = serve_and_stats(server, [
            *(run_request(f"s{i}", source=src)
              for i, src in enumerate(sources)),
            run_request("first-again", source=sources[0]),
            run_request("last-again", source=sources[2]),
        ])
        assert len(server._sources) <= 2
        # the oldest source was evicted: full path, same answer; the
        # newest is still remembered
        assert stats["front_door_hits"] == 1
        if isolation == "thread":
            assert len(compile_calls) == 4
        else:
            assert stats["pool_jobs_completed"] == 4
        assert results["first-again"]["replayed"] is True
        assert (results["first-again"]["report"]["optimized_area"]
                == results["s0"]["report"]["optimized_area"])


class TestConcurrentFrontDoor:
    def test_concurrent_jobs_and_flushes_lose_nothing(self, tmp_path):
        """Jobs racing on the memo, the live shared cache and the
        checkpoint watermark: every job answers correctly, and every
        entry of the shared cache reaches the store."""
        from repro.core.store import CacheStore
        from repro.equiv.differential import random_module
        from repro.ir.verilog_writer import verilog_str

        sources = [verilog_str(random_module(seed, width=4, n_units=3))
                   for seed in (401, 402, 403, 404)]
        expected = [direct_area(source) for source in sources]
        store_dir = tmp_path / "store"
        server = FlowServer(store_path=store_dir, max_workers=4,
                            drain_timeout_s=120)

        def lines():
            deadline = time.monotonic() + 120
            for round_ in range(4):
                for index, source in enumerate(sources):
                    yield run_request(f"r{round_}-{index}", source)
                # checkpoint while the rest of this round still merges
                while server.jobs_run <= 4 * round_:
                    assert time.monotonic() < deadline, "jobs stalled"
                    time.sleep(0.001)
                yield request(op="flush", id=f"f{round_}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            responses, _ = drive(server, lines())
        finally:
            sys.setswitchinterval(interval)
        (bye,) = by_type(responses, "bye")
        assert bye["cancelled"] == []
        assert by_type(responses, "error") == []
        results = by_type(responses, "result")
        assert len(results) == 16 and server.jobs_run == 16
        for result in results:
            index = int(result["id"].split("-")[1])
            assert result["report"]["optimized_area"] == expected[index]
        persisted = CacheStore(store_dir).load()
        assert set(server._cache.export()) <= set(persisted)


class TestAdmissionControl:
    """Overload must shed with ``busy``, never queue unboundedly."""

    @staticmethod
    def _gated_run_job(monkeypatch):
        """Replace the job body with one that blocks on a gate, so jobs
        stay deterministically in flight while the loop reads on."""
        import repro.flow.serve as serve_mod

        gate = threading.Event()

        def slow_job(request, **kwargs):
            assert gate.wait(timeout=60), "test gate never opened"
            return (
                {"op": "run", "flow": "stub", "replayed": False,
                 "report": {}},
                {},
            )

        monkeypatch.setattr(serve_mod, "run_job", slow_job)
        return gate

    def test_queue_limit_sheds_with_busy(self, monkeypatch):
        gate = self._gated_run_job(monkeypatch)
        server = FlowServer(max_workers=1, queue_limit=1)

        def lines():
            yield request(op="run", id="a", source="stub", events=False)
            yield request(op="run", id="b", source="stub", events=False)
            gate.set()

        responses, _ = drive(server, lines())
        (busy,) = by_type(responses, "busy")
        assert busy["id"] == "b" and busy["reason"] == "queue"
        assert busy["queue_depth"] >= 1 and busy["limit"] == 1
        # the admitted job still completed normally
        (result,) = by_type(responses, "result")
        assert result["id"] == "a"
        assert server.stats()["busy_rejected"] == 1

    def test_per_client_quota(self, monkeypatch):
        gate = self._gated_run_job(monkeypatch)
        server = FlowServer(max_workers=4, per_client_limit=1)

        def lines():
            yield request(op="run", id="a1", source="stub", events=False,
                          client="alice")
            yield request(op="run", id="a2", source="stub", events=False,
                          client="alice")
            yield request(op="run", id="b1", source="stub", events=False,
                          client="bob")
            gate.set()

        responses, _ = drive(server, lines())
        (busy,) = by_type(responses, "busy")
        # alice's second job is shed; bob is unaffected by her quota
        assert busy["id"] == "a2"
        assert busy["reason"] == "client" and busy["client"] == "alice"
        assert {r["id"] for r in by_type(responses, "result")} == {
            "a1", "b1"
        }

    def test_flush_reports_in_flight_jobs(self, monkeypatch):
        gate = self._gated_run_job(monkeypatch)
        server = FlowServer(max_workers=1)

        def lines():
            yield request(op="run", id="j", source="stub", events=False)
            yield request(op="flush", id="f")
            gate.set()

        responses, _ = drive(server, lines())
        (flushed,) = by_type(responses, "flushed")
        # non-blocking: the flush answered while the job was still running
        assert flushed["in_flight"] == 1


class TestDrainDeadline:
    def test_stragglers_are_cancelled_and_reported(self, monkeypatch):
        import repro.flow.serve as serve_mod

        gate = threading.Event()

        def stuck_job(request, **kwargs):
            assert gate.wait(timeout=60)
            return ({"op": "run", "flow": "stub", "replayed": False,
                     "report": {}}, {})

        monkeypatch.setattr(serve_mod, "run_job", stuck_job)
        server = FlowServer(max_workers=1, drain_timeout_s=0.2)
        try:
            responses, stopped = drive(server, [
                request(op="run", id="stuck", source="stub", events=False),
                request(op="shutdown", id="s"),
            ])
        finally:
            gate.set()  # release the abandoned worker thread
        assert stopped is True
        (bye,) = by_type(responses, "bye")
        assert bye["cancelled"] == ["stuck"]
        cancelled_events = [
            e for e in by_type(responses, "event")
            if e.get("kind") == "job_cancelled"
        ]
        assert cancelled_events and cancelled_events[0]["id"] == "stuck"

    def test_request_drain_s_overrides_server_default(self, monkeypatch):
        import repro.flow.serve as serve_mod

        gate = threading.Event()

        def stuck_job(request, **kwargs):
            assert gate.wait(timeout=60)
            return ({"op": "run", "flow": "stub", "replayed": False,
                     "report": {}}, {})

        monkeypatch.setattr(serve_mod, "run_job", stuck_job)
        # server default would wait forever; the request bounds it
        server = FlowServer(max_workers=1, drain_timeout_s=None)
        try:
            responses, stopped = drive(server, [
                request(op="run", id="stuck", source="stub", events=False),
                request(op="shutdown", id="s", drain_s=0.2),
            ])
        finally:
            gate.set()
        assert stopped is True
        (bye,) = by_type(responses, "bye")
        assert bye["cancelled"] == ["stuck"]


class TestFaultInjectionGate:
    def test_inject_refused_unless_enabled(self):
        server = FlowServer(max_workers=1)
        responses, _ = drive(server, [
            request(op="run", id="x", source=MUX_SOURCE,
                    inject="merge-error", events=False),
        ])
        (error,) = by_type(responses, "error")
        assert "disabled" in error["error"]
        assert by_type(responses, "result") == []

    def test_unknown_fault_name_is_an_error(self):
        server = FlowServer(max_workers=1, allow_fault_injection=True)
        responses, _ = drive(server, [
            request(op="run", id="x", source=MUX_SOURCE,
                    inject="cosmic-ray", events=False),
        ])
        (error,) = by_type(responses, "error")
        assert "unknown fault" in error["error"]

    def test_worker_faults_require_process_isolation(self):
        server = FlowServer(max_workers=1, allow_fault_injection=True)
        responses, _ = drive(server, [
            request(op="run", id="x", source=MUX_SOURCE,
                    inject="worker-crash", events=False),
        ])
        (error,) = by_type(responses, "error")
        assert "isolation process" in error["error"]

    def test_result_carries_attempts_and_isolation(self):
        server = FlowServer(max_workers=1)
        responses, _ = drive(server, [
            request(op="run", id="j", source=MUX_SOURCE, events=False),
        ])
        (result,) = by_type(responses, "result")
        assert result["attempts"] == 1
        assert result["isolation"] == "thread"


class TestSocketTransport:
    def test_socket_session_round_trip(self, tmp_path):
        server = FlowServer(store_path=tmp_path / "store", max_workers=1)
        ready = threading.Event()
        port_box = {}

        def listening(port):
            port_box["port"] = port
            ready.set()

        daemon = threading.Thread(
            target=serve_socket, args=(server,),
            kwargs={"on_listening": listening}, daemon=True,
        )
        daemon.start()
        assert ready.wait(timeout=10)

        with socket.create_connection(
            ("127.0.0.1", port_box["port"]), timeout=30
        ) as conn:
            rfile = conn.makefile("r", encoding="utf-8")
            wfile = conn.makefile("w", encoding="utf-8")
            for line in (
                request(op="ping", id="p"),
                request(op="run", id="j", source=MUX_SOURCE, events=False),
                request(op="shutdown"),
            ):
                wfile.write(line + "\n")
            wfile.flush()
            conn.shutdown(socket.SHUT_WR)
            responses = [json.loads(line) for line in rfile]
        daemon.join(timeout=30)
        assert not daemon.is_alive(), "shutdown must stop the accept loop"
        kinds = [r["type"] for r in responses]
        assert kinds == ["pong", "accepted", "result", "bye"]
        assert responses[2]["report"]["converged"] is True

    def test_bad_connection_does_not_kill_daemon(self):
        # a session that *raises* (undecodable bytes blow up the text
        # stream) must be logged and survived, not stop the accept loop
        # (this used to die on an unbound `stopped` NameError)
        server = FlowServer(max_workers=1)
        ready = threading.Event()
        port_box = {}
        errors = []

        def listening(port):
            port_box["port"] = port
            ready.set()

        daemon = threading.Thread(
            target=serve_socket, args=(server,),
            kwargs={"on_listening": listening, "on_error": errors.append},
            daemon=True,
        )
        daemon.start()
        assert ready.wait(timeout=10)

        with socket.create_connection(
            ("127.0.0.1", port_box["port"]), timeout=30
        ) as conn:
            conn.sendall(b"\xff\xfe garbage that is not utf-8\n")
            conn.shutdown(socket.SHUT_WR)
            conn.settimeout(30)
            while conn.recv(4096):  # drain until the server closes us
                pass
        assert errors, "the failed session must be reported"

        # the daemon must still accept and serve the next connection
        with socket.create_connection(
            ("127.0.0.1", port_box["port"]), timeout=30
        ) as conn:
            rfile = conn.makefile("r", encoding="utf-8")
            wfile = conn.makefile("w", encoding="utf-8")
            wfile.write(request(op="ping", id="p") + "\n")
            wfile.write(request(op="shutdown") + "\n")
            wfile.flush()
            conn.shutdown(socket.SHUT_WR)
            responses = [json.loads(line) for line in rfile]
        daemon.join(timeout=30)
        assert not daemon.is_alive()
        assert [r["type"] for r in responses] == ["pong", "bye"]


class TestCliSubprocess:
    def test_cli_serve_over_stdin_pipes(self, tmp_path):
        repo_root = Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(repo_root / "src") + os.pathsep + env.get("PYTHONPATH", "")
        )
        store_dir = tmp_path / "store"
        lines = "\n".join([
            request(op="ping", id="p"),
            request(op="run", id="j1", source=MUX_SOURCE, flow="smartly"),
            request(op="flush", id="f"),
            request(op="shutdown"),
        ]) + "\n"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve",
             "--store", str(store_dir), "--jobs", "1"],
            input=lines, capture_output=True, text=True, timeout=120,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        responses = [json.loads(line) for line in proc.stdout.splitlines()]
        kinds = [r["type"] for r in responses]
        assert kinds[0] == "pong" and kinds[-1] == "bye"
        assert "accepted" in kinds and "result" in kinds and "event" in kinds
        (result,) = by_type(responses, "result")
        assert result["id"] == "j1"
        assert result["report"]["optimized_area"] <= (
            result["report"]["original_area"]
        )
        # flush is non-blocking: with all requests piped up front it may
        # checkpoint before the job's delta lands, in which case the
        # shutdown-time flush picks it up — one of the two must persist
        (flushed,) = by_type(responses, "flushed")
        (bye,) = by_type(responses, "bye")
        assert flushed["entries"] + bye["flushed_entries"] > 0

        # a second daemon process warm-starts from the store and replays
        proc2 = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve",
             "--store", str(store_dir), "--jobs", "1"],
            input=request(op="run", id="j2", source=MUX_SOURCE,
                          events=False) + "\n",
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc2.returncode == 0, proc2.stderr
        responses2 = [json.loads(line) for line in proc2.stdout.splitlines()]
        (replay,) = by_type(responses2, "result")
        assert replay["replayed"] is True
        assert replay["report"]["optimized_area"] == (
            result["report"]["optimized_area"]
        )

    def test_cli_serve_has_no_engine_option(self, capsys):
        # served jobs always run the incremental engine
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--engine", "eager"])
        assert exit_info.value.code == 2
        assert "--engine" in capsys.readouterr().err
