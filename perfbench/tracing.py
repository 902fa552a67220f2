"""Span recorder and layer hooks for the traced benchmark run.

The program under test carries no instrumentation, so the traced run
measures each layer from outside: :func:`install` replaces each layer's
public entry point, at the name its callers look it up by, with a wrapper
that records a span (name, start, end, parent, job id) and, where the
layer does countable work, a counter taken from the call's arguments or
result.  Spans live in per-thread lists in memory and are written once,
at the end, as Chrome trace-event JSON.

A layer's self time is its span minus the spans of its children, so the
per-layer seconds partition the traced time instead of double-counting
nested calls (a ``NetIndex`` built inside the miter builder counts as
``ir.netindex``, not as ``equiv.miter``).

Only the benchmark installs these wrappers, and only in the traced run:
the end-to-end runs import nothing from this file.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

# span record fields (lists, so the end time can be filled in place)
_NAME, _START, _END, _PARENT, _JOB = range(5)

# sub-graph analysis kinds whose lookups make up core.rcache_hit_pct; the
# whole-artifact kinds (suite_job, cec, hier_netlist) are not sub-graphs
SUBGRAPH_KINDS = ("resolve", "infer", "sim", "sat")

# pass registry name -> layer span name; every other pass is "opt.<name>"
PASS_LAYERS = {
    "smartly": "core.smartly",
    "smartly_sat": "core.smartly",
    "smartly_rebuild": "core.restructure",
}


class _ThreadState:
    __slots__ = ("tid", "spans", "stack", "counters", "job_counters", "job")

    def __init__(self, tid: int):
        self.tid = tid
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counters: Dict[str, float] = {}
        #: job id -> that job's counters
        self.job_counters: Dict[str, Dict[str, float]] = {}
        self.job: Optional[str] = None


class Recorder:
    """In-memory span and counter store, one list per thread."""

    def __init__(self) -> None:
        self.enabled = False
        self.epoch = time.perf_counter()
        self._local = threading.local()
        self._threads: List[_ThreadState] = []
        self._lock = threading.Lock()
        #: serve request id -> perf_counter() when its job body started
        self.job_starts: Dict[Any, float] = {}

    def state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState(threading.get_ident())
            with self._lock:
                self._threads.append(st)
            self._local.state = st
        return st

    def set_job(self, job: Optional[str]) -> None:
        self.state().job = job

    def count(self, st: _ThreadState, name: str, amount: float = 1) -> None:
        st.counters[name] = st.counters.get(name, 0) + amount
        if st.job is not None:
            mine = st.job_counters.setdefault(st.job, {})
            mine[name] = mine.get(name, 0) + amount

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span named ``name`` on this thread."""
        st = self.state()
        index = len(st.spans)
        st.spans.append([
            name, time.perf_counter(), 0.0,
            st.stack[-1] if st.stack else -1, st.job,
        ])
        st.stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            st.stack.pop()
            st.spans[index][_END] = time.perf_counter()

    def inside(self, st: _ThreadState, name: str) -> bool:
        return any(st.spans[i][_NAME] == name for i in st.stack)

    # -- aggregation -----------------------------------------------------------

    def counters(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for st in self._threads:
            for key, value in st.counters.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def counters_by_job(self) -> Dict[str, Dict[str, float]]:
        totals: Dict[str, Dict[str, float]] = {}
        for st in self._threads:
            for job, counters in st.job_counters.items():
                mine = totals.setdefault(job, {})
                for key, value in counters.items():
                    mine[key] = mine.get(key, 0) + value
        return totals

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: total self seconds and number of spans."""
        out: Dict[str, Dict[str, float]] = {}
        for st in self._threads:
            children = [0.0] * len(st.spans)
            for span in st.spans:
                if span[_PARENT] >= 0:
                    children[span[_PARENT]] += span[_END] - span[_START]
            for span, child in zip(st.spans, children):
                entry = out.setdefault(span[_NAME], {"self_s": 0.0, "n": 0})
                entry["self_s"] += span[_END] - span[_START] - child
                entry["n"] += 1
        return out

    def span_count(self) -> int:
        return sum(len(st.spans) for st in self._threads)

    def write_chrome_trace(self, path: str, metadata: Dict[str, Any]) -> None:
        """All spans as Chrome trace-event JSON (Perfetto opens it too)."""
        events = []
        for st in self._threads:
            for index, span in enumerate(st.spans):
                events.append({
                    "name": span[_NAME],
                    "ph": "X",
                    "ts": round((span[_START] - self.epoch) * 1e6, 3),
                    "dur": round((span[_END] - span[_START]) * 1e6, 3),
                    "pid": 1,
                    "tid": st.tid,
                    "args": {"job": span[_JOB], "id": index,
                             "parent": span[_PARENT]},
                })
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": metadata}, handle)


# -- hooks ---------------------------------------------------------------------


@dataclass(frozen=True)
class Hook:
    """One wrapped entry point: ``module`` + dotted ``attr`` (a function
    or a class method), the span it records and its counters."""

    #: span name, or a function of the call's arguments giving it; None
    #: records no span (counter-only hooks on hot calls)
    span: Any
    module: str
    attr: str
    #: (recorder, thread state, args, kwargs, result) -> None
    on_result: Optional[Callable] = None
    #: (recorder, thread state, args, kwargs) -> None, before the call
    before: Optional[Callable] = None
    #: record only while a span of this name is open on the thread
    only_under: Optional[str] = None

    @property
    def symbol(self) -> str:
        return f"{self.module}.{self.attr}"


def _count_calls(name: str) -> Callable:
    def on_result(rec, st, args, kwargs, result):
        rec.count(st, name)
    return on_result


def _compiled(rec, st, args, kwargs, result):
    rec.count(st, "frontend.compile_calls")
    rec.count(st, "frontend.cells",
              sum(len(module.cells) for module in result.modules.values()))


def _pass_layer(args) -> str:
    name = args[0].name
    return PASS_LAYERS.get(name, f"opt.{name}")


def _pass_ran(rec, st, args, kwargs, result):
    if args[0].name == "smartly_rebuild":
        rec.count(st, "core.trees_rebuilt",
                  result.stats.get("trees_rebuilt", 0))


def _extracted(rec, st, args, kwargs, result):
    rec.count(st, "core.extract_calls")
    rec.count(st, "core.gates_before", result.gates_before)
    rec.count(st, "core.gates_kept", result.gates_after)


def _looked_up(rec, st, args, kwargs, result):
    if args[1][0] in SUBGRAPH_KINDS:
        rec.count(st, "core.rcache_hits" if result[0]
                  else "core.rcache_misses")


def _exported(rec, st, args, kwargs, result):
    rec.count(st, "core.cache_export_entries", len(result))


def _merged(rec, st, args, kwargs, result):
    entries = args[1] if len(args) > 1 else kwargs["entries"]
    rec.count(st, "core.cache_merge_entries", len(entries))


def _checked(rec, st, args, kwargs, result):
    rec.count(st, "equiv.cec_calls")
    rec.count(st, "equiv.sat_conflicts", result.sat_conflicts)
    if result.equivalent and result.method in ("sat", "fold"):
        rec.count(st, "equiv.proofs")


def _mitered(rec, st, args, kwargs, result):
    rec.count(st, "equiv.miter_ands", result[0].num_ands)


def _job_started(rec, st, args, kwargs):
    """Tag the serve worker thread's spans with the request id and note
    when the job left the queue."""
    rid = args[0].get("id")
    rec.job_starts[rid] = time.perf_counter()
    st.job = rid


HOOKS = (
    Hook("frontend.compile", "repro.frontend", "compile_verilog", _compiled),
    Hook("ir.netindex", "repro.ir.walker", "NetIndex.__init__",
         _count_calls("ir.netindex_builds")),
    Hook("ir.module_signature", "repro.flow.session", "module_signature",
         _count_calls("ir.module_signature_calls")),
    Hook(_pass_layer, "repro.opt.pass_base", "Pass.run", _pass_ran),
    Hook("core.extract", "repro.core.redundancy", "extract_subgraph",
         _extracted),
    Hook("core.infer", "repro.core.redundancy", "infer",
         _count_calls("core.infer_calls")),
    Hook("core.sim", "repro.core.redundancy", "SatRedundancy._simulate",
         _count_calls("core.sim_queries")),
    Hook("core.cache_key", "repro.core.cache", "ResultCache.key_for",
         _count_calls("core.cache_key_calls")),
    Hook(None, "repro.core.cache", "ResultCache.lookup", _looked_up),
    Hook("core.cache_export", "repro.core.cache", "ResultCache.export",
         _exported),
    Hook("core.cache_merge", "repro.core.cache", "ResultCache.merge",
         _merged),
    Hook("core.store_save", "repro.core.store", "CacheStore.save"),
    Hook("core.store_load", "repro.core.store", "CacheStore.load"),
    Hook("sat.decide", "repro.sat.oracle", "SatOracle.decide",
         _count_calls("sat.decide_calls")),
    Hook("aig.aigmap", "repro.flow.session", "aig_map",
         _count_calls("aig.aigmap_calls")),
    Hook("equiv.cec", "repro.flow.session", "check_equivalence", _checked),
    Hook("equiv.miter", "repro.equiv.cec", "build_miter", _mitered),
    Hook("equiv.sim", "repro.aig.aig", "AIG.eval_masks",
         only_under="equiv.cec"),
    Hook("equiv.sat", "repro.sat.oracle", "SatOracle.solve_miter"),
    Hook("flow.run_job", "repro.flow.serve", "run_job",
         before=_job_started),
)


def _wrap(rec: Recorder, hook: Hook, fn: Callable) -> Callable:
    if hook.span is None:
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if rec.enabled:
                hook.on_result(rec, rec.state(), args, kwargs, result)
            return result
        return counted

    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        st = rec.state()
        if hook.only_under is not None and not rec.inside(st, hook.only_under):
            return fn(*args, **kwargs)
        if hook.before is not None:
            hook.before(rec, st, args, kwargs)
        name = hook.span(args) if callable(hook.span) else hook.span
        result = rec.span(name, fn, *args, **kwargs)
        if hook.on_result is not None:
            hook.on_result(rec, st, args, kwargs, result)
        return result
    return wrapper


def install(rec: Recorder) -> List[str]:
    """Wrap every hook's target; returns the symbols that could not be
    found (their layers then read null instead of failing the run)."""
    missing: List[str] = []
    for hook in HOOKS:
        try:
            owner: Any = importlib.import_module(hook.module)
            *path, leaf = hook.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, leaf)
        except (ImportError, AttributeError):
            missing.append(hook.symbol)
            continue
        setattr(owner, leaf, _wrap(rec, hook, fn))
    return missing
