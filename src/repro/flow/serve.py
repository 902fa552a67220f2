"""The serve daemon: fault-tolerant optimization-as-a-service over JSON lines.

:class:`FlowServer` is a long-lived loop that accepts flow jobs as
JSON-lines requests — over stdin (``smartly serve``) or a localhost TCP
socket (``smartly serve --port N``) — runs them against one shared warm
structural cache, and streams the session event channel back as JSON
lines, so a client watches pass-level progress of every job it submitted
while other jobs run concurrently.

The daemon is built to survive its jobs.  SAT calls in the redundancy
ladder and in verified equivalence checks have heavy-tailed runtimes,
and a service holding the only warm cache cannot afford to die with one
of them:

* **Isolation** (``isolation=``): ``"process"`` executes each job in a
  bounded pool of worker subprocesses (:class:`~repro.flow.workers.
  WorkerPool`) — a worker that segfaults, OOMs or is killed answers a
  structured ``{"type": "error", "retryable": true, ...}`` and is
  replaced, with the daemon and its warm cache intact.  ``"thread"``
  (the default) keeps the historic in-process path.
* **Budgets** — a per-job wall-clock timeout (request ``"timeout_s"``,
  else the server's ``default_timeout_s``) enforced by a watchdog that
  kills the worker.  Enforced under process isolation only: a thread
  cannot be killed, which is precisely why the worker pool exists.
* **Retry** — retryable failures (worker death; timeouts, re-run under
  a doubled budget) are retried up to ``max_retries`` times with
  exponential backoff, surfaced as ``attempts`` on the final response
  and as ``job_retried`` event lines in between.
* **Admission control** — at most ``queue_limit`` jobs may be in flight
  or queued (and at most ``per_client_limit`` per ``"client"`` key);
  overload answers ``{"type": "busy", "queue_depth": ...}`` instead of
  accepting silently.
* **Graceful degradation** — ``shutdown`` (and plain end-of-input)
  drains in-flight jobs up to ``drain_timeout_s`` (request ``"drain_s"``
  overrides); stragglers are cancelled — process workers killed — and
  reported in the final ``bye`` as ``cancelled``.
* **Fault injection** — every failure mode above is provable on demand
  through the :mod:`repro.core.faults` registry: armed via the
  ``SMARTLY_FAULTS`` env var, or per request through the test-only
  ``"inject"`` field when the server allows it
  (``allow_fault_injection=True`` / ``--allow-fault-injection``).

Every job session reads through the shared cache instead of copying
it: a thread-isolated job reads the live cache (its cost does not grow
with the cache), a process-isolated one a snapshot shipped with its work
order, and each merges back only the entries it learned.

**Source front door.**  The daemon remembers, for its lifetime, the
module signature of every ``run`` source it has compiled, keyed by
``(blake2b(source), top, format)``.  A byte-identical re-submission
whose ``suite_job`` entry is in the shared cache is answered by the
daemon itself — no compile, no signature, no session, no worker — with
the same ``result`` line a full-path replay gives (``front_door_hits``
in ``stats``).  Everything else takes the full path: unknown sources,
cache misses (another flow or check flag, a dropped entry), ``hier``
jobs and requests carrying ``inject``.  The memo is bounded and never
persisted: the store carries no frontend fingerprint, so a changed
frontend could compile the same text differently.

With ``store_path=`` the shared cache is backed by the on-disk
:class:`~repro.core.store.CacheStore`: the daemon warm-starts from every
generation previous daemons persisted, and checkpoints its own delta on
``flush`` and at shutdown — jobs the service proved once are replayed
from the ``suite_job`` cache forever after, across restarts and machines
sharing the directory.  A checkpoint whose write fails answers an
``error`` line (``store_errors`` in ``stats``) and leaves its delta
pending for the next one; the daemon keeps serving.

**Request protocol** — one JSON object per line; every request may carry
an ``id`` (echoed verbatim on every related response so interleaved
streams demultiplex) and a ``client`` key (the admission-quota bucket):

``{"op": "run", "source": <verilog or yosys json>, "flow": <preset or
script>, "check": bool, "top": <name>, "events": bool,
"format": "auto"|"verilog"|"json", "timeout_s": <seconds>}``
    Compile ``source`` — Verilog text, or a Yosys ``write_json`` netlist
    when ``format`` is ``"json"`` (``"auto"``, the default, sniffs a
    leading ``{``) — and run ``flow`` (default ``"smartly"``) over the
    top module.  Streams ``accepted`` immediately, ``event`` lines while
    the job runs (suppressed with ``"events": false``), then one
    ``result`` carrying the :class:`~repro.flow.session.RunReport` dict
    plus ``replayed`` — whether the whole job was answered from the
    shared ``suite_job`` cache without running a single pass — and
    ``attempts``.

``{"op": "hier", ...}``
    Same, but :meth:`~repro.flow.session.Session.run_hierarchy` over the
    instance tree: the ``result`` carries the
    :class:`~repro.flow.session.HierarchyReport` dict.

``{"op": "ping"}`` / ``{"op": "stats"}`` / ``{"op": "flush"}``
    Liveness probe; shared-cache + supervision counter snapshot;
    checkpoint the store.  ``flush`` is non-blocking: it persists the
    delta already merged into the shared cache immediately and reports
    the ``in_flight`` job count — entries still computing land in the
    next checkpoint.

``{"op": "shutdown", "drain_s": <seconds>}``
    Drain in-flight jobs (up to the deadline), checkpoint the store,
    answer ``bye``, stop.

Malformed lines and failing jobs answer ``{"type": "error", ...}`` —
the loop itself never dies on bad input (a daemon serving many clients
must not let one of them crash the cache every other client is warm
from).  End-of-input drains and checkpoints exactly like ``shutdown``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
import time
from collections import Counter
from concurrent.futures import Future, ThreadPoolExecutor, wait
from typing import Any, Callable, Dict, IO, Iterable, List, Optional, Tuple

from ..core import faults
from ..core.cache import ResultCache
from ..core.smartly import SmartlyOptions
from ..core.store import DEFAULT_KEEP_GENERATIONS, CacheStore, StoreError
from ..events import JOB_CANCELLED, JOB_RETRIED
from ..opt.pass_base import prefixed
from .session import _replay_suite_job, _suite_job_key
from .spec import FlowScriptError, resolve_flow
from .workers import (
    DIED,
    ERROR,
    RESULT,
    TIMEOUT,
    WorkerPool,
    run_job,
)

#: response writer: one JSON-serializable dict per call, one line each
Writer = Callable[[Dict[str, Any]], None]

#: default admission bound: jobs in flight or queued before ``busy``
DEFAULT_QUEUE_LIMIT = 256

#: default worker subprocesses under ``isolation="process"``
DEFAULT_PROCESS_WORKERS = 2

#: first retry backoff; doubles per attempt
DEFAULT_RETRY_BACKOFF_S = 0.05

#: bound of the source front door's memo (oldest half evicted when full)
FRONT_DOOR_MAX_ENTRIES = 4096


def _client_key(request: Dict[str, Any]) -> str:
    """The admission-quota bucket of one request (``"client"`` field)."""
    client = request.get("client")
    return str(client) if client not in (None, "") else "anon"


def _source_key(request: Dict[str, Any]) -> Optional[Tuple]:
    """The front-door memo key of a ``run`` request —
    ``(blake2b(source), top, format)`` — or None when the request cannot
    use the front door (another op, or fields the full path rejects)."""
    source = request.get("source")
    top = request.get("top")
    fmt = request.get("format", "auto")
    if (
        request.get("op") != "run"
        or not isinstance(source, str)
        or not isinstance(top, (str, type(None)))
        or not isinstance(fmt, str)
    ):
        return None
    digest = hashlib.blake2b(
        source.encode("utf-8", "surrogatepass"), digest_size=16
    ).digest()
    return (digest, top, fmt)


class FlowServer:
    """Shared state of one serve daemon: the warm cache, its optional
    on-disk store, the source front door's memo, the worker pool, and
    the robustness knobs every job runs under.

    The server object is transport-free — :meth:`serve_lines` drives it
    from any iterable of request lines and any response writer, which is
    what the tests and the two CLI transports (:func:`serve_stdin`,
    :func:`serve_socket`) do.

    ``isolation`` selects job execution: ``"thread"`` (in-process, the
    historic path) or ``"process"`` (supervised worker subprocesses —
    crash/hang/OOM survivable, budgets enforceable).  ``max_workers``
    bounds concurrent jobs in either mode.
    """

    def __init__(
        self,
        *,
        store_path: Optional[str] = None,
        options: Optional[SmartlyOptions] = None,
        max_workers: Optional[int] = None,
        keep_generations: int = DEFAULT_KEEP_GENERATIONS,
        isolation: str = "thread",
        default_timeout_s: Optional[float] = None,
        max_retries: int = 2,
        retry_backoff_s: float = DEFAULT_RETRY_BACKOFF_S,
        queue_limit: Optional[int] = DEFAULT_QUEUE_LIMIT,
        per_client_limit: Optional[int] = None,
        drain_timeout_s: Optional[float] = None,
        allow_fault_injection: bool = False,
    ):
        if isolation not in ("thread", "process"):
            raise ValueError(
                f"unknown isolation {isolation!r}; choose 'thread' or "
                f"'process'"
            )
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if queue_limit is not None and queue_limit < 1:
            raise ValueError("queue_limit must be >= 1 (or None)")
        if per_client_limit is not None and per_client_limit < 1:
            raise ValueError("per_client_limit must be >= 1 (or None)")
        self.options = options
        self.max_workers = max_workers
        self.isolation = isolation
        self.default_timeout_s = default_timeout_s
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.queue_limit = queue_limit
        self.per_client_limit = per_client_limit
        self.drain_timeout_s = drain_timeout_s
        self.allow_fault_injection = allow_fault_injection
        self._cache = ResultCache()
        self._store: Optional[CacheStore] = None
        self._keep_generations = keep_generations
        #: the shared cache's ``appended`` watermark at the last
        #: successful checkpoint (or the load)
        self._flushed = 0
        if store_path is not None:
            self._store = CacheStore(store_path)
            loaded = self._store.load()
            if loaded:
                self._cache.merge(loaded)
            self._flushed = self._cache.appended
        #: serializes merges of job deltas with a checkpoint's watermark
        #: read and export, so the watermark covers exactly the delta
        self._merge_lock = threading.Lock()
        #: the source front door: (blake2b(source), top, format) ->
        #: (top module name, module signature), insertion-ordered for
        #: oldest-half eviction
        self._sources: Dict[Tuple, Tuple[str, Any]] = {}
        self._sources_lock = threading.Lock()
        self.jobs_run = 0
        self._counters: Counter = Counter()
        self._counters_lock = threading.Lock()
        #: the worker pool, created lazily on the first process-isolated
        #: job so thread-mode servers never spawn a subprocess
        self._pool: Optional[WorkerPool] = None
        self._pool_lock = threading.Lock()
        #: set while the drain deadline has passed: in-flight retry loops
        #: must convert their next failure into a cancellation instead of
        #: backing off onto a replacement worker
        self._draining = threading.Event()

    # -- counters --------------------------------------------------------------

    def _bump(self, name: str, amount: int = 1) -> None:
        with self._counters_lock:
            self._counters[name] += amount

    # -- persistence -----------------------------------------------------------

    def flush(self, injected: Optional[str] = None) -> int:
        """Checkpoint the shared cache's unpersisted delta as one store
        generation (0 without a store or when nothing new was learned).
        Non-blocking: only entries already merged back by finished jobs
        are persisted — in-flight work lands in the next checkpoint.

        ``injected`` is the request's validated test-only fault name;
        the ``store-corrupt-generation`` site fires here, garbling the
        generation just written (what torn disk state would leave).
        """
        if self._store is None:
            return 0
        with self._merge_lock:
            mark = self._cache.appended
            delta = self._cache.export(since=self._flushed)
        if not delta:
            return 0
        path = self._store.save(delta)  # StoreError: the delta stays pending
        self._flushed = mark
        try:
            faults.trip("store-corrupt-generation", injected)
        except faults.InjectedFault:
            if path is not None:
                faults.corrupt_file(path)
                self._bump("store_corrupted")
        self._store.gc(keep_generations=self._keep_generations)
        return len(delta)

    def _checkpoint(
        self, emit: Writer, rid: Any, injected: Optional[str] = None
    ) -> Optional[int]:
        """:meth:`flush`, with a failed store write answered as an
        ``error`` line and counted (``store_errors``) instead of raised:
        the daemon keeps serving and the delta waits for the next
        checkpoint.  Returns the flushed count, or None on failure."""
        try:
            return self.flush(injected)
        except StoreError as exc:
            self._bump("store_errors")
            emit({"type": "error", "id": rid,
                  "error": f"StoreError: {exc}"})
            return None

    def stats(self) -> Dict[str, Any]:
        totals: Dict[str, Any] = self._cache.totals()
        totals["jobs_run"] = self.jobs_run
        totals["isolation"] = self.isolation
        with self._counters_lock:
            totals.update(self._counters)
        if self._store is not None:
            totals.update(prefixed("store_", self._store.counters))
        pool = self._pool
        if pool is not None:
            totals.update(prefixed("pool_", pool.counters))
        return totals

    def close(self) -> None:
        """Retire the worker pool (if one was ever spawned).  The server
        stays usable — a later process-isolated job lazily builds a
        fresh pool.  Transports call this when they stop."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()

    # -- one job ---------------------------------------------------------------

    def _worker_pool(self) -> WorkerPool:
        with self._pool_lock:
            if self._pool is None:
                self._pool = WorkerPool(
                    self.max_workers or DEFAULT_PROCESS_WORKERS
                )
            return self._pool

    def _validated_inject(self, request: Dict[str, Any]) -> Optional[str]:
        """The request's test-only fault name, validated and authorized
        (:class:`~repro.core.faults.FaultError` otherwise)."""
        injected = request.get("inject")
        if injected is None:
            return None
        faults.validate(injected)
        if not self.allow_fault_injection:
            raise faults.FaultError(
                "fault injection is disabled on this server; start it "
                "with allow_fault_injection=True (--allow-fault-injection)"
            )
        return injected

    def _job_timeout(self, request: Dict[str, Any]) -> Optional[float]:
        raw = request.get("timeout_s")
        if raw is None:
            return self.default_timeout_s
        timeout = float(raw)
        if timeout <= 0:
            raise ValueError("'timeout_s' must be a positive number")
        return timeout

    def _merge_delta(self, delta, injected: Optional[str] = None) -> int:
        """Adopt one finished job's cache delta; the ``merge-error``
        fault site.  A failing merge never fails the job — the result is
        already computed; only the shared warmth is lost (counted as
        ``merge_errors``)."""
        try:
            faults.trip("merge-error", injected)
            with self._merge_lock:
                return self._cache.merge(delta)
        except Exception:
            self._bump("merge_errors")
            return 0

    def _execute(self, request: Dict[str, Any], emit: Writer) -> Dict[str, Any]:
        """Run one ``run``/``hier`` job under the server's isolation
        mode; returns the ``result`` (or structured ``error``) payload.
        Exceptions are the caller's to convert into ``error`` responses."""
        injected = self._validated_inject(request)
        timeout = self._job_timeout(request)
        source_key = _source_key(request)
        if source_key is not None and injected is None:
            replay = self._front_door(request, source_key)
            if replay is not None:
                return replay
        if self.isolation == "process":
            return self._execute_process(
                request, emit, injected, timeout, source_key
            )
        return self._execute_thread(request, emit, injected, source_key)

    def _front_door(
        self, request: Dict[str, Any], source_key: Tuple
    ) -> Optional[Dict[str, Any]]:
        """Answer a byte-identical re-submission from the shared cache:
        the remembered signature builds the ``suite_job`` key, and a hit
        replays through the same helper a job session uses.  None sends
        the request down the full path."""
        known = self._sources.get(source_key)
        if known is None:
            return None
        name, signature = known
        spec = resolve_flow(request.get("flow", "smartly"),
                            options=self.options)
        # a private cache reading through the shared one counts this
        # lookup exactly as a job session's would
        cache = ResultCache(parent=self._cache.view())
        # a job session runs Session's default engine, "incremental"
        key = _suite_job_key(
            cache, signature, spec, request.get("check", False),
            "incremental", self.options,
        )
        report = _replay_suite_job(cache, key, name, cache.totals)
        if report is None:
            return None
        self._bump("front_door_hits")
        with self._counters_lock:
            self.jobs_run += 1
        return {
            "type": "result", "id": request.get("id"), "attempts": 1,
            "isolation": self.isolation, "op": "run", "flow": spec.label,
            "replayed": True, "report": report.to_dict(),
        }

    def _remember(
        self, source_key: Optional[Tuple], payload: Dict[str, Any]
    ) -> None:
        """Strip the job's module signature from its payload and keep it
        for the front door (oldest half evicted at the cap)."""
        signature = payload.pop("signature", None)
        if source_key is None or signature is None:
            return
        with self._sources_lock:
            if (
                source_key not in self._sources
                and len(self._sources) >= FRONT_DOOR_MAX_ENTRIES
            ):
                drop = len(self._sources) - FRONT_DOOR_MAX_ENTRIES // 2
                for stale in list(self._sources)[:drop]:
                    del self._sources[stale]
            self._sources[source_key] = signature

    def _execute_thread(
        self,
        request: Dict[str, Any],
        emit: Writer,
        injected: Optional[str],
        source_key: Optional[Tuple],
    ) -> Dict[str, Any]:
        """The in-process path: the historic thread-isolation execution
        (no preemption, so crash/hang faults are refused rather than
        honored — honoring them would kill the daemon itself)."""
        if injected is not None and faults.REGISTRY[injected].site == "worker":
            raise faults.FaultError(
                f"fault {injected!r} requires --isolation process "
                f"(a thread-isolated daemon would die with its job)"
            )
        rid = request.get("id")
        payload, delta = run_job(
            request, options=self.options, snapshot=self._cache.view(),
            emit_event=emit,
        )
        self._remember(source_key, payload)
        self._merge_delta(delta, injected)
        with self._counters_lock:
            self.jobs_run += 1
        return {
            "type": "result", "id": rid, "attempts": 1,
            "isolation": "thread", **payload,
        }

    def _execute_process(
        self,
        request: Dict[str, Any],
        emit: Writer,
        injected: Optional[str],
        timeout: Optional[float],
        source_key: Optional[Tuple],
    ) -> Dict[str, Any]:
        """The supervised path: ship the job to a worker subprocess,
        enforce the wall-clock budget, and retry retryable failures
        (worker death; timeouts under a doubled budget) with
        exponential backoff up to ``max_retries``."""
        rid = request.get("id")
        pool = self._worker_pool()
        attempts = 0
        max_attempts = 1 + self.max_retries
        backoff = self.retry_backoff_s
        while True:
            attempts += 1
            outcome = pool.run_job(
                request,
                options=self.options,
                snapshot=self._cache.export(),
                timeout_s=timeout,
                on_event=emit,
                fault=injected,
                attempt=attempts,
            )
            if outcome.kind == RESULT:
                self._remember(source_key, outcome.payload)
                self._merge_delta(outcome.delta, injected)
                with self._counters_lock:
                    self.jobs_run += 1
                return {
                    "type": "result", "id": rid, "attempts": attempts,
                    "isolation": "process", **outcome.payload,
                }
            if outcome.kind == ERROR:
                return {
                    "type": "error", "id": rid, "error": outcome.message,
                    "retryable": False, "attempts": attempts,
                }
            # DIED / TIMEOUT: environmental, retryable
            self._bump("worker_failures")
            if self._draining.is_set():
                return {
                    "type": "error", "id": rid,
                    "error": "cancelled: shutdown drain deadline reached",
                    "kind": "cancelled", "retryable": True,
                    "attempts": attempts,
                }
            if attempts >= max_attempts:
                return {
                    "type": "error", "id": rid, "error": outcome.message,
                    "kind": outcome.kind, "retryable": True,
                    "attempts": attempts,
                }
            if outcome.kind == TIMEOUT and timeout is not None:
                timeout *= 2  # retry under a raised budget
            self._bump("retries")
            emit({
                "type": "event", "id": rid, "kind": JOB_RETRIED,
                "attempt": attempts, "reason": outcome.kind,
                "backoff_s": backoff,
                "timeout_s": timeout,
            })
            time.sleep(backoff)
            backoff *= 2

    # -- the loop --------------------------------------------------------------

    def serve_lines(
        self,
        lines: Iterable[str],
        write: Writer,
    ) -> bool:
        """Drive the daemon over one stream of JSON-lines requests.

        Returns ``True`` when the stream ended with an explicit
        ``shutdown`` (the daemon should stop accepting transports),
        ``False`` on plain end-of-input (a socket client disconnecting —
        the daemon keeps serving).  Either way, in-flight jobs are
        drained up to the drain deadline — stragglers cancelled and
        reported — and the store is checkpointed before returning.
        """
        lock = threading.Lock()
        closed = threading.Event()

        def emit(payload: Dict[str, Any]) -> None:
            if closed.is_set():
                return  # a straggler outliving the session; drop its line
            with lock:
                write(payload)

        shutdown = False
        shutdown_id = None
        drain_s = self.drain_timeout_s
        state = threading.Lock()
        pending: Dict[Future, Dict[str, Any]] = {}
        inflight: Dict[str, int] = {}
        pool = ThreadPoolExecutor(max_workers=self.max_workers)

        def reap() -> int:
            """Drop completed futures (a long-lived daemon must not leak
            one per job) and return the surviving in-flight count."""
            with state:
                for future in [f for f in pending if f.done()]:
                    del pending[future]
                return len(pending)

        def submit(request: Dict[str, Any]) -> None:
            rid = request.get("id")
            client = _client_key(request)

            def job() -> None:
                try:
                    emit(self._execute(request, emit))
                except FlowScriptError as exc:
                    emit({"type": "error", "id": rid,
                          "error": f"bad flow: {exc}", "retryable": False})
                except Exception as exc:
                    emit({"type": "error", "id": rid,
                          "error": f"{type(exc).__name__}: {exc}",
                          "retryable": False})
                finally:
                    with state:
                        inflight[client] = max(
                            0, inflight.get(client, 1) - 1
                        )

            with state:
                inflight[client] = inflight.get(client, 0) + 1
            future = pool.submit(job)
            with state:
                pending[future] = {"id": rid, "client": client}

        try:
            for line in lines:
                line = line.strip()
                if not line:
                    continue
                try:
                    request = json.loads(line)
                except json.JSONDecodeError as exc:
                    emit({"type": "error", "id": None,
                          "error": f"bad JSON: {exc}"})
                    continue
                if not isinstance(request, dict):
                    emit({"type": "error", "id": None,
                          "error": "request must be a JSON object"})
                    continue
                op = request.get("op")
                rid = request.get("id")
                if op in ("run", "hier"):
                    depth = reap()
                    if (
                        self.queue_limit is not None
                        and depth >= self.queue_limit
                    ):
                        self._bump("busy_rejected")
                        emit({"type": "busy", "id": rid, "reason": "queue",
                              "queue_depth": depth,
                              "limit": self.queue_limit})
                        continue
                    client = _client_key(request)
                    if self.per_client_limit is not None:
                        with state:
                            mine = inflight.get(client, 0)
                        if mine >= self.per_client_limit:
                            self._bump("busy_rejected")
                            emit({"type": "busy", "id": rid,
                                  "reason": "client", "client": client,
                                  "queue_depth": depth,
                                  "in_flight": mine,
                                  "limit": self.per_client_limit})
                            continue
                    emit({"type": "accepted", "id": rid, "op": op})
                    submit(request)
                elif op == "ping":
                    emit({"type": "pong", "id": rid})
                elif op == "stats":
                    emit({"type": "stats", "id": rid, "stats": self.stats()})
                elif op == "flush":
                    # non-blocking: persist what finished jobs already
                    # merged; in-flight work lands in the next checkpoint
                    try:
                        injected = self._validated_inject(request)
                    except faults.FaultError as exc:
                        emit({"type": "error", "id": rid,
                              "error": str(exc)})
                        continue
                    flushed = self._checkpoint(emit, rid, injected)
                    if flushed is not None:
                        emit({"type": "flushed", "id": rid,
                              "entries": flushed, "in_flight": reap()})
                elif op == "shutdown":
                    shutdown = True
                    if "drain_s" in request:
                        raw = request["drain_s"]
                        try:
                            drain_s = (
                                None if raw is None else max(0.0, float(raw))
                            )
                        except (TypeError, ValueError):
                            emit({"type": "error", "id": rid,
                                  "error": "'drain_s' must be a number "
                                           "or null"})
                            shutdown = False
                            continue
                    shutdown_id = rid
                    break
                else:
                    emit({"type": "error", "id": rid,
                          "error": f"unknown op {op!r}"})
            cancelled = self._drain(pending, state, drain_s, emit)
        finally:
            self._draining.clear()
            pool.shutdown(wait=False)
        flushed = self._checkpoint(emit, shutdown_id)
        emit({
            "type": "bye",
            "jobs_run": self.jobs_run,
            "flushed_entries": flushed or 0,
            "cache_entries": len(self._cache),
            "cancelled": cancelled,
        })
        closed.set()
        return shutdown

    def _drain(
        self,
        pending: Dict[Future, Dict[str, Any]],
        state: threading.Lock,
        drain_s: Optional[float],
        emit: Writer,
    ) -> List[Any]:
        """Wait for in-flight jobs up to the drain deadline; past it,
        cancel queued jobs, kill process-isolated stragglers, and return
        the cancelled/abandoned job ids (reported in ``bye``)."""
        with state:
            futures = dict(pending)
        if not futures:
            return []
        done, not_done = wait(list(futures), timeout=drain_s)
        if not not_done:
            return []
        self._draining.set()
        cancelled: List[Any] = []
        killable = []
        for future in list(not_done):
            rid = futures[future].get("id")
            if future.cancel():  # queued, never started: drop outright
                cancelled.append(rid)
                self._bump("cancelled")
                emit({"type": "error", "id": rid,
                      "error": "cancelled: shutdown drain deadline "
                               "reached before the job started",
                      "kind": "cancelled", "retryable": True,
                      "attempts": 0})
            else:
                killable.append(future)
        pool = self._pool
        if pool is not None and killable:
            # running process-isolated jobs: kill their workers; the
            # supervising threads observe the death, see _draining, and
            # answer their own cancellation errors
            pool.kill_active()
        if killable:
            grace = 30.0 if self.isolation == "process" else 0.5
            _done, abandoned = wait(killable, timeout=grace)
            for future in abandoned:
                # thread-isolated stragglers cannot be killed; their ids
                # are reported and any late output is dropped at close
                rid = futures[future].get("id")
                cancelled.append(rid)
                self._bump("cancelled")
                emit({"type": "event", "id": rid, "kind": JOB_CANCELLED,
                      "reason": "drain deadline; job still running "
                                "(thread isolation cannot preempt)"})
            for future in _done:
                rid = futures[future].get("id")
                if self.isolation == "process":
                    cancelled.append(rid)
        return cancelled


def _json_line(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, default=str)


def serve_stdin(
    server: FlowServer,
    in_stream: Optional[IO[str]] = None,
    out_stream: Optional[IO[str]] = None,
) -> int:
    """Serve one JSON-lines session over stdio; returns an exit status."""
    in_stream = in_stream if in_stream is not None else sys.stdin
    out_stream = out_stream if out_stream is not None else sys.stdout

    def write(payload: Dict[str, Any]) -> None:
        print(_json_line(payload), file=out_stream, flush=True)

    try:
        server.serve_lines(in_stream, write)
    finally:
        server.close()
    return 0


def serve_socket(
    server: FlowServer,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    on_listening: Optional[Callable[[int], None]] = None,
    on_error: Optional[Callable[[BaseException], None]] = None,
) -> int:
    """Serve JSON-lines sessions over a localhost TCP socket.

    Connections are served one at a time (each gets the full shared
    cache warmth); ``port=0`` binds an ephemeral port, reported through
    ``on_listening`` before the first ``accept``.  A client ``shutdown``
    stops the daemon; a disconnect just ends that client's session — and
    a connection whose session *raises* (a transport error, a client
    speaking garbage at the socket layer) is logged through ``on_error``
    (default: a stderr line) and the accept loop keeps serving.  One bad
    connection must never stop the daemon.
    """
    import socket

    def report(exc: BaseException) -> None:
        if on_error is not None:
            on_error(exc)
        else:
            print(f"serve: connection failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr, flush=True)

    try:
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host, port))
            sock.listen()
            if on_listening is not None:
                on_listening(sock.getsockname()[1])
            while True:
                conn, _addr = sock.accept()
                # initialized before the session runs: an exception mid-
                # session used to leave this unbound and the `if stopped`
                # check below killed the whole accept loop with a
                # NameError — one bad connection took the daemon down
                stopped = False
                with conn:
                    rfile = conn.makefile("r", encoding="utf-8",
                                          newline="\n")
                    wfile = conn.makefile("w", encoding="utf-8",
                                          newline="\n")

                    def write(payload: Dict[str, Any]) -> None:
                        try:
                            wfile.write(_json_line(payload) + "\n")
                            wfile.flush()
                        except (BrokenPipeError, ConnectionResetError,
                                OSError):
                            pass  # client went away; the job still merges

                    try:
                        stopped = server.serve_lines(rfile, write)
                    except Exception as exc:
                        report(exc)  # log-and-continue: daemon survives
                    finally:
                        for handle in (rfile, wfile):
                            try:
                                handle.close()
                            except OSError:
                                pass
                if stopped:
                    return 0
    finally:
        server.close()


__all__ = [
    "DEFAULT_PROCESS_WORKERS",
    "DEFAULT_QUEUE_LIMIT",
    "FRONT_DOOR_MAX_ENTRIES",
    "FlowServer",
    "Writer",
    "serve_socket",
    "serve_stdin",
]
