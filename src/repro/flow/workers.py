"""Process-isolated job execution for the serve daemon.

The PR 7 serve daemon multiplexed every job onto threads *inside* the
daemon process — one job segfaulting, OOM-ing or hanging in a
heavy-tailed SAT call took the process (and the warm shared cache every
other client depends on) down with it.  This module is the isolation
substrate: a bounded pool of **worker subprocesses** supervised from the
daemon, each executing one job at a time.

* Jobs ship as pickled work orders — the JSON request, the tuning
  options, and a snapshot of the shared structural cache —
  over a private :mod:`multiprocessing` pipe; the worker streams
  ``event`` payloads back while the flow runs and finishes with the
  result payload (carrying the module signature the daemon's source
  front door remembers) plus its cache *delta* (entries it learned
  beyond the snapshot), which the daemon merges into the shared cache.
* A worker that dies mid-job — killed, crashed, OOM-ed — surfaces as a
  :data:`DIED` outcome, never an exception storm: the supervisor reaps
  the corpse and spawns a replacement lazily for the next job, and the
  daemon's warm cache is untouched.
* A worker that stops answering is bounded by the caller's wall-clock
  budget: :meth:`WorkerPool.run_job` polls the pipe against the
  deadline and on expiry **kills** the worker (:data:`TIMEOUT`) — the
  only way to cancel a runaway native SAT call for real.  The budget
  clock only starts once the worker has answered its startup handshake,
  so the spawn/import cost of a cold (or freshly replaced) worker never
  counts against the job.

Workers are started with the ``spawn`` context: the daemon is heavily
multi-threaded, and forking a threaded process can deadlock the child
on locks held by threads that do not exist there.  Spawned workers
re-import :mod:`repro` once and are then reused across jobs, so the
startup cost amortizes; :func:`run_job` itself is process-agnostic and
is exactly what the ``--isolation thread`` path runs in-process.

Fault-injection sites (:mod:`repro.core.faults`): ``worker-crash`` and
``worker-hang`` fire inside the worker right before the job body —
request-injected faults on the first attempt only (so retries
demonstrably recover), env-armed faults on every attempt.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..core import faults
from ..core.smartly import SmartlyOptions
from ..events import EventBus
from .session import Session, _run_suite_job
from .spec import resolve_flow

#: outcome kinds of one supervised job attempt
RESULT = "result"    #: the worker answered a result payload + cache delta
ERROR = "error"      #: the job body raised (bad source, bad flow, ...)
DIED = "died"        #: the worker process vanished mid-job (crash/kill/OOM)
TIMEOUT = "timeout"  #: the wall-clock budget expired; the worker was killed

#: event-payload callback (already shaped as a serve response dict)
EventSink = Callable[[Dict[str, Any]], None]

#: how long a spawned worker gets to finish importing and say ready —
#: generous because it is pure environment (interpreter + imports), and
#: charging it to a job's wall-clock budget would make tight budgets
#: kill cold workers before the job even starts
SPAWN_READY_TIMEOUT_S = 120.0


def compile_source(source: str, top: Optional[str], fmt: str):
    """Compile a job's design text: Verilog, or a Yosys JSON netlist when
    the request says ``"format": "json"`` (or the text looks like one)."""
    from ..frontend import compile_verilog, read_yosys_json

    if fmt == "auto":
        fmt = "json" if source.lstrip().startswith("{") else "verilog"
    if fmt == "json":
        return read_yosys_json(source, top=top)
    if fmt == "verilog":
        return compile_verilog(source, top=top)
    raise ValueError(f"unknown source format {fmt!r}")


def run_job(
    request: Dict[str, Any],
    *,
    options: Optional[SmartlyOptions] = None,
    snapshot: Optional[Mapping[Tuple, Any]] = None,
    emit_event: Optional[EventSink] = None,
) -> Tuple[Dict[str, Any], Dict[Tuple, Any]]:
    """Execute one ``run``/``hier`` request in a private warm-started
    session on the incremental engine; returns ``(payload, delta)``.

    This is the isolation-agnostic job body: the thread path calls it
    in-process against a live view of the shared cache, worker
    subprocesses call it behind the pipe against a pickled snapshot.
    The session reads through ``snapshot`` (see
    :meth:`~repro.flow.session.Session.read_through`).  ``payload``
    carries ``op``/``flow``/``replayed``/``report``, and for a ``run``
    job ``signature`` — ``(top module name, module signature)``, which
    the daemon keeps for its source front door and strips from the
    ``result`` line; ``delta`` is the structural-cache entries the job
    learned (what the daemon merges back into its shared cache).
    """
    rid = request.get("id")
    op = request["op"]
    source = request.get("source")
    if not isinstance(source, str) or not source.strip():
        raise ValueError("missing 'source' (Verilog or Yosys JSON text)")
    flow = request.get("flow", "smartly")
    check = bool(request.get("check", False))
    top = request.get("top")
    spec = resolve_flow(flow, options=options)
    design = compile_source(source, top, request.get("format", "auto"))
    bus = EventBus()
    if emit_event is not None and request.get("events", True):
        bus.subscribe(
            lambda event: emit_event(
                {"type": "event", "id": rid, **event.to_dict()}
            )
        )
    extra: Dict[str, Any] = {}
    with Session(design, options=options, events=bus) as session:
        if snapshot is not None:
            session.read_through(snapshot)
        if op == "hier":
            report = session.run_hierarchy(spec, top=top, check=check)
            payload = report.to_dict()
            replayed = sorted(report.replayed)
            job_replayed = bool(replayed) and not report.replay_fallbacks
        else:
            module = design.top
            report, signature = _run_suite_job(
                session, module, spec, check, memoize=True,
            )
            payload = report.to_dict()
            # the private session makes exactly one suite_job lookup
            # (its own module's signature); a hit means the whole job
            # replayed from the shared cache without running a pass
            job_replayed = (
                session._result_cache.counters["suite_job_hits"] > 0
            )
            extra["signature"] = (module.name, signature)
        delta = session.export_cache()
    return (
        {"op": op, "flow": spec.label, "replayed": job_replayed,
         "report": payload, **extra},
        delta,
    )


def _worker_main(conn) -> None:
    """Worker-subprocess loop: execute pickled work orders until EOF.

    Runs in the child.  Each order is ``{"request", "options",
    "snapshot", "fault", "attempt"}``; replies are ``("event", dict)``
    streams followed by ``("result", payload, delta)`` or ``("error",
    message)``.  The ``worker-crash`` / ``worker-hang`` fault sites live
    here — request-injected faults fire on attempt 1 only.
    """
    try:
        conn.send(("ready",))  # imports done; job budgets may start now
    except (BrokenPipeError, OSError):
        return
    while True:
        try:
            order = conn.recv()
        except (EOFError, OSError):
            return
        if order is None:  # orderly shutdown
            return
        injected = (
            order.get("fault") if order.get("attempt", 1) == 1 else None
        )
        try:
            faults.trip("worker-crash", injected)
        except faults.InjectedFault:
            conn.close()
            os._exit(139)  # the SIGSEGV exit shape a real crash leaves
        try:
            faults.trip("worker-hang", injected)
        except faults.InjectedFault:
            while True:  # a SAT call that never returns
                time.sleep(3600)
        try:
            payload, delta = run_job(
                order["request"],
                options=order.get("options"),
                snapshot=order.get("snapshot"),
                emit_event=lambda data: conn.send(("event", data)),
            )
            conn.send(("result", payload, delta))
        except BaseException as exc:  # the *worker* must survive any job
            try:
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
            except (BrokenPipeError, OSError):
                return


@dataclass
class JobOutcome:
    """What one supervised attempt produced (see the kind constants)."""

    kind: str
    payload: Optional[Dict[str, Any]] = None
    delta: Dict[Tuple, Any] = field(default_factory=dict)
    message: str = ""

    @property
    def retryable(self) -> bool:
        """Worker death and timeouts are environmental — the job itself
        may be fine on a fresh worker (timeouts only under a raised
        budget); job-body errors are deterministic and are not."""
        return self.kind in (DIED, TIMEOUT)


class _Worker:
    """One supervised subprocess + its pipe (parent side)."""

    def __init__(self, ctx):
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_worker_main, args=(child_conn,), daemon=True
        )
        self.process.start()
        child_conn.close()  # the child holds its own copy
        self.ready = False  # flips on the startup handshake

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        """Hard-stop the subprocess and release its resources."""
        try:
            self.process.kill()
        except (OSError, AttributeError):
            pass
        self.process.join(timeout=10)
        try:
            self.conn.close()
        except OSError:
            pass

    def retire(self) -> None:
        """Orderly shutdown: EOF the pipe, then reap."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        try:
            self.conn.close()
        except OSError:
            pass
        self.process.join(timeout=10)
        if self.process.is_alive():
            self.kill()


class WorkerPool:
    """A bounded pool of reusable worker subprocesses.

    ``max_workers`` bounds how many live at once; workers are spawned
    lazily, reused across jobs, and *replaced* (not resurrected) after a
    crash, kill or timeout — the next :meth:`run_job` simply spawns a
    fresh one.  ``counters`` tracks lifetime supervision traffic:
    ``workers_spawned``, ``workers_replaced`` (spawns that filled a
    death/timeout vacancy), ``worker_deaths``, ``timeouts``,
    ``jobs_completed``.

    Thread-safe: the serve daemon drives one :meth:`run_job` per job
    thread concurrently.
    """

    def __init__(self, max_workers: int = 2):
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers
        self._ctx = multiprocessing.get_context("spawn")
        self._slots = threading.Semaphore(max_workers)
        self._lock = threading.Lock()
        self._idle: List[_Worker] = []
        self._active: List[_Worker] = []
        self._vacancies = 0  # deaths awaiting a replacement spawn
        self._closed = False
        self.counters: Counter = Counter()

    def _bump(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def _acquire(self) -> _Worker:
        self._slots.acquire()
        with self._lock:
            if self._closed:
                self._slots.release()
                raise RuntimeError("WorkerPool is closed")
            while self._idle:
                worker = self._idle.pop()
                if worker.alive:
                    self._active.append(worker)
                    return worker
                worker.kill()  # died while idle; fall through to spawn
                self._vacancies += 1
            replacement = self._vacancies > 0
            if replacement:
                self._vacancies -= 1
        worker = _Worker(self._ctx)
        self._bump("workers_spawned")
        if replacement:
            self._bump("workers_replaced")
        with self._lock:
            self._active.append(worker)
        return worker

    def _release(self, worker: _Worker, *, reusable: bool) -> None:
        kill = None
        with self._lock:
            if worker in self._active:
                self._active.remove(worker)
            if reusable and worker.alive and not self._closed:
                self._idle.append(worker)
            else:
                self._vacancies += 1
                kill = worker
        if kill is not None:
            kill.kill()
        self._slots.release()

    def _await_ready(self, worker: _Worker) -> Optional[JobOutcome]:
        """Wait (outside any job budget) for a fresh worker's startup
        handshake; returns a :data:`DIED` outcome if it never answers."""
        if worker.ready:
            return None
        try:
            if worker.conn.poll(SPAWN_READY_TIMEOUT_S):
                if worker.conn.recv() == ("ready",):
                    worker.ready = True
                    return None
        except (EOFError, OSError):
            pass
        self._bump("worker_deaths")
        exitcode = worker.process.exitcode
        self._release(worker, reusable=False)
        return JobOutcome(
            DIED,
            message=f"worker failed to start (exit {exitcode})",
        )

    def run_job(
        self,
        request: Dict[str, Any],
        *,
        options: Optional[SmartlyOptions] = None,
        snapshot: Optional[Dict[Tuple, Any]] = None,
        timeout_s: Optional[float] = None,
        on_event: Optional[EventSink] = None,
        fault: Optional[str] = None,
        attempt: int = 1,
    ) -> JobOutcome:
        """Run one job attempt on a (possibly fresh) worker.

        Blocks until the worker answers, dies, or ``timeout_s`` of
        wall-clock expires — in which case the worker is killed and the
        outcome is :data:`TIMEOUT`.  The budget clock starts after the
        worker's startup handshake, so a cold spawn's import time is
        never charged to the job.  ``fault``/``attempt`` ride to the
        worker's injection sites.  Never raises for worker failure;
        every ending is a :class:`JobOutcome`.
        """
        order = {
            "request": request,
            "options": options,
            "snapshot": snapshot,
            "fault": fault,
            "attempt": attempt,
        }
        worker = self._acquire()
        failed = self._await_ready(worker)
        if failed is not None:
            return failed
        deadline = (
            time.monotonic() + timeout_s if timeout_s is not None else None
        )
        try:
            worker.conn.send(order)
        except (BrokenPipeError, OSError):
            self._bump("worker_deaths")
            self._release(worker, reusable=False)
            return JobOutcome(DIED, message="worker died before the job")
        while True:
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self._bump("timeouts")
                    self._release(worker, reusable=False)
                    return JobOutcome(
                        TIMEOUT,
                        message=f"job exceeded its {timeout_s}s budget; "
                                f"worker killed",
                    )
            try:
                # bounded poll so a sleeping deadline is honored promptly
                ready = worker.conn.poll(
                    min(remaining, 0.5) if remaining is not None else 0.5
                )
            except (BrokenPipeError, OSError):
                ready = True  # fall into recv to classify the EOF
            if not ready:
                if not worker.alive:
                    self._bump("worker_deaths")
                    self._release(worker, reusable=False)
                    return JobOutcome(
                        DIED,
                        message="worker process died mid-job "
                                f"(exit {worker.process.exitcode})",
                    )
                continue
            try:
                message = worker.conn.recv()
            except (EOFError, OSError):
                self._bump("worker_deaths")
                exitcode = worker.process.exitcode
                self._release(worker, reusable=False)
                return JobOutcome(
                    DIED,
                    message=f"worker process died mid-job (exit {exitcode})",
                )
            kind = message[0]
            if kind == "event":
                if on_event is not None:
                    on_event(message[1])
                continue
            if kind == "result":
                self._bump("jobs_completed")
                self._release(worker, reusable=True)
                return JobOutcome(
                    RESULT, payload=message[1], delta=message[2]
                )
            self._release(worker, reusable=True)
            return JobOutcome(ERROR, message=message[1])

    def kill_active(self) -> int:
        """Hard-stop every worker currently executing a job (the drain
        deadline's cancellation path); their supervising threads see a
        :data:`DIED` outcome and unwind.  Returns the number killed."""
        with self._lock:
            victims = list(self._active)
        for worker in victims:
            worker.kill()
        return len(victims)

    def close(self) -> None:
        """Retire idle workers and kill active ones; the pool refuses
        new jobs afterwards.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            idle, self._idle = self._idle, []
            active = list(self._active)
        for worker in idle:
            worker.retire()
        for worker in active:
            worker.kill()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = [
    "DIED",
    "ERROR",
    "JobOutcome",
    "RESULT",
    "TIMEOUT",
    "WorkerPool",
    "compile_source",
    "run_job",
]
