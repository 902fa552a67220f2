"""Structured flow events: the observer channel for pipelines and suites.

Optimization progress is a typed event stream: producers
(:class:`~repro.opt.pass_base.PassManager`, :class:`~repro.flow.session.Session`)
emit :class:`FlowEvent` records onto an :class:`EventBus`; consumers subscribe
callables.  Shipped consumers:

* :class:`EventLog` — records events for assertions and post-hoc analysis,
* :class:`PrintObserver` — renders human-readable progress lines (what the
  CLI attaches to stderr),

but any callable works, so callers can stream events to JSON lines, a
profiler, or a progress bar without the library printing anything itself.

Event kinds (``FlowEvent.kind``) and their payload keys:

========================  ===================================================
``pipeline_started``      pipeline, passes, fixpoint, max_rounds, module,
                          engine (``"incremental"`` or ``"eager"``)
``pass_started``          pipeline, pass, round, module
``pass_finished``         pipeline, pass, round, module, changed, stats,
                          runtime_s — ``stats`` carries the pass's counters,
                          including the SAT stage's query/budget numbers and
                          its ``oracle_*`` counters (queries, solver_calls,
                          conflicts, learned_clauses: the growth of
                          :attr:`repro.sat.oracle.SatOracle.counters` over
                          the pass) plus its ``sat_wallclock_us`` timing
``round_finished``        pipeline, round, module, changed, touched_cells
                          (size of the round's dirty-cell set)
``round_converged``       pipeline, rounds, module
``round_limit_reached``   pipeline, rounds, max_rounds, module — emitted
                          when a fixpoint run exhausts ``max_rounds`` while
                          passes were still changing the module (previously
                          silent and indistinguishable from convergence)
``pipeline_finished``     pipeline, rounds, module, changed, converged
``flow_started``          case, flow
``flow_skipped``          case, flow, revision — the design-scope engine
                          proved the module unchanged since this flow last
                          converged on it and skipped every pass
``flow_finished``         case, flow, original_area, optimized_area,
                          runtime_s
``suite_started``         cases, flows, jobs, max_workers, executor
``case_started``          case, flow
``case_finished``         case, flow, original_area, optimized_area,
                          runtime_s
``suite_finished``        jobs, runtime_s
``job_retried``           attempt, reason (``"died"`` or ``"timeout"``),
                          backoff_s, timeout_s — the serve daemon retrying a
                          job after its worker died or overran its budget
``job_cancelled``         reason — the serve daemon abandoning a job at the
                          shutdown drain deadline
========================  ===================================================

The last two kinds are emitted by the serve layer directly onto its JSON
response stream (shaped as ``{"type": "event", "kind": ..., ...}`` lines)
rather than through an :class:`EventBus` — the constants live here so
producers and consumers share one vocabulary.
"""

from __future__ import annotations

import json
import sys
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, TextIO

# -- event kinds ---------------------------------------------------------------

PIPELINE_STARTED = "pipeline_started"
PASS_STARTED = "pass_started"
PASS_FINISHED = "pass_finished"
ROUND_FINISHED = "round_finished"
ROUND_CONVERGED = "round_converged"
ROUND_LIMIT_REACHED = "round_limit_reached"
PIPELINE_FINISHED = "pipeline_finished"
FLOW_STARTED = "flow_started"
FLOW_SKIPPED = "flow_skipped"
FLOW_FINISHED = "flow_finished"
SUITE_STARTED = "suite_started"
CASE_STARTED = "case_started"
CASE_FINISHED = "case_finished"
SUITE_FINISHED = "suite_finished"
JOB_RETRIED = "job_retried"
JOB_CANCELLED = "job_cancelled"


@dataclass(frozen=True)
class FlowEvent:
    """One structured progress record."""

    kind: str
    data: Dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.data[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.data.get(key, default)

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, **self.data}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, default=str)


Observer = Callable[[FlowEvent], None]


class EventBus:
    """Fan-out channel: producers ``emit``, subscribers receive every event.

    Thread-safe: :meth:`emit` may be called concurrently (the parallel suite
    runner emits from worker threads).  Subscriber exceptions propagate to
    the emitter — observers are part of the caller's program, not plugins.
    """

    def __init__(self) -> None:
        self._subscribers: List[Observer] = []
        self._lock = threading.Lock()

    def subscribe(self, observer: Observer) -> Observer:
        """Register ``observer``; returns it so this nests in expressions."""
        with self._lock:
            self._subscribers.append(observer)
        return observer

    def unsubscribe(self, observer: Observer) -> None:
        with self._lock:
            self._subscribers.remove(observer)

    def emit(self, kind: str, **data: Any) -> FlowEvent:
        event = FlowEvent(kind, data)
        self.publish(event)
        return event

    def publish(self, event: FlowEvent) -> None:
        with self._lock:
            subscribers = list(self._subscribers)
        for observer in subscribers:
            observer(event)


class EventLog:
    """Subscriber that records every event (ideal for tests/analysis)."""

    def __init__(self) -> None:
        self.events: List[FlowEvent] = []
        self._lock = threading.Lock()

    def __call__(self, event: FlowEvent) -> None:
        with self._lock:
            self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FlowEvent]:
        return iter(list(self.events))

    def kinds(self) -> List[str]:
        return [event.kind for event in self.events]

    def of_kind(self, kind: str) -> List[FlowEvent]:
        return [event for event in self.events if event.kind == kind]

    def clear(self) -> None:
        with self._lock:
            self.events.clear()


class PrintObserver:
    """Renders progress lines from the event stream.

    ``verbose=False`` prints suite and case milestones and round-limit
    warnings; ``verbose=True`` adds one ``[pass] {stats}`` line per pass
    that changed something or counted anything, and a line when the
    pipeline converges (what ``cli opt -v`` streams to stderr).
    """

    def __init__(self, stream: Optional[TextIO] = None, verbose: bool = False):
        self.stream = stream if stream is not None else sys.stderr
        self.verbose = verbose
        self._lock = threading.Lock()

    def _line(self, text: str) -> None:
        with self._lock:
            print(text, file=self.stream)

    def __call__(self, event: FlowEvent) -> None:
        if event.kind == PASS_FINISHED and self.verbose:
            if event["changed"] or event["stats"]:
                self._line(f"[{event['pass']}] {event['stats']}")
        elif event.kind == ROUND_CONVERGED and self.verbose:
            self._line(
                f"[{event['pipeline']}] converged after "
                f"{event['rounds']} round(s)"
            )
        elif event.kind == ROUND_LIMIT_REACHED:
            self._line(
                f"[{event['pipeline']}] warning: round limit "
                f"({event['max_rounds']}) reached before convergence"
            )
        elif event.kind == CASE_FINISHED:
            self._line(
                f"  {event['case']}: {event['flow']} "
                f"{event['original_area']} -> {event['optimized_area']} "
                f"({event['runtime_s']:.2f}s)"
            )
        elif event.kind == SUITE_STARTED:
            self._line(
                f"suite: {event['jobs']} job(s) over "
                f"{len(event['cases'])} case(s)"
            )
        elif event.kind == SUITE_FINISHED:
            self._line(
                f"suite: finished {event['jobs']} job(s) "
                f"in {event['runtime_s']:.2f}s"
            )


class JsonLinesObserver:
    """Writes each event as one JSON line — machine-readable progress."""

    def __init__(self, stream: Optional[TextIO] = None):
        self.stream = stream if stream is not None else sys.stderr
        self._lock = threading.Lock()

    def __call__(self, event: FlowEvent) -> None:
        with self._lock:
            print(event.to_json(), file=self.stream)


__all__ = [
    "CASE_FINISHED",
    "CASE_STARTED",
    "EventBus",
    "EventLog",
    "FLOW_FINISHED",
    "FLOW_SKIPPED",
    "FLOW_STARTED",
    "FlowEvent",
    "JOB_CANCELLED",
    "JOB_RETRIED",
    "JsonLinesObserver",
    "Observer",
    "PASS_FINISHED",
    "PASS_STARTED",
    "PIPELINE_FINISHED",
    "PIPELINE_STARTED",
    "PrintObserver",
    "ROUND_CONVERGED",
    "ROUND_FINISHED",
    "ROUND_LIMIT_REACHED",
    "SUITE_FINISHED",
    "SUITE_STARTED",
]
