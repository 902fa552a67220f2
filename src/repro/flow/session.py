"""The Session API: run declarative flows over a design, get reports.

A :class:`Session` owns a :class:`~repro.ir.design.Design` (not a lone
module), runs :class:`~repro.flow.spec.FlowSpec` pipelines over all its
modules or a selected one, caches the pre-optimization AIG baseline per
module, and emits structured progress on a shared
:class:`~repro.events.EventBus`.  Every run returns a JSON-serializable
:class:`RunReport`; suites of (case × flow) jobs run in parallel through
:meth:`Session.run_suite` and come back as a :class:`SuiteReport` that the
table renderers in :mod:`repro.flow.reports` consume directly.

Quickstart::

    from pathlib import Path

    from repro.api import Session

    session = Session.from_verilog(Path("design.v").read_text())
    report = session.run("opt_expr; smartly k=6; opt_clean", check=True)
    print(report.to_json())
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter
from concurrent.futures import (
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
)
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..aig.aigmap import aig_map
from ..aig.stats import AigStats, aig_stats
from ..core.cache import ResultCache
from ..core.smartly import SmartlyOptions
from ..core.store import DEFAULT_KEEP_GENERATIONS, CacheStore
from ..equiv.cec import check_equivalence
from ..equiv.miter import check_signatures, io_signature
from ..events import EventBus, Observer
from ..ir import design as design_mod
from ..ir import module as ir_module
from ..ir.design import Design, DesignEdit
from ..ir.module import Module, ModuleEdit
from ..ir.struct_hash import module_signature
from ..opt.pass_base import (
    DirtySet,
    Pass,
    PassManager,
    PassResult,
    _touch_recorder,
    prefixed,
)
from .spec import FlowSpec, resolve_flow

#: a suite case: a ready module or a zero-argument factory producing one
CaseSource = Union[Module, Callable[[], Module]]


def _aggregate_oracle_stats(pass_stats: Mapping[str, int]) -> Counter:
    """Collapse ``<pass path>.oracle_<counter>`` entries by counter name."""
    totals: Counter = Counter()
    for key, value in pass_stats.items():
        tail = key.rsplit(".", 1)[-1]
        if tail.startswith("oracle_"):
            totals[tail[len("oracle_"):]] += value
    return totals


def _pending_recorder(result: PassResult) -> Callable[[ModuleEdit], None]:
    """Conservative touch recorder for *between-run* user edits.

    The pass framework's recorder deliberately keeps removed-cell outputs
    and alias sides out of the fanout-walked frontier because the running
    pass reports the affected readers exactly
    (:meth:`~repro.opt.pass_base.PassResult.touch_readers`).  Between
    runs there is no pass to do that, so a user edit like ``remove_cell``
    + ``connect`` (a manual bypass) would under-dirty the removed net's
    readers and a seeded re-run would miss opportunities a full run
    finds.  This variant adds those output-side bits to the frontier —
    over-dirtying a few sibling readers on rare, small edit sets instead
    of under-dirtying correctness away.
    """
    base = _touch_recorder(result)

    def record(edit: ModuleEdit) -> None:
        base(edit)
        if edit.kind == ir_module.CELL_REMOVED and edit.ports:
            outs = edit.cell.output_ports
            for pname, spec in edit.ports.items():
                if pname in outs:
                    for bit in spec:
                        if not bit.is_const:
                            result.touched_bits.add(bit)
        elif edit.kind == ir_module.CONNECTED:
            for spec in (edit.lhs, edit.rhs):
                for bit in spec:
                    if not bit.is_const:
                        result.touched_bits.add(bit)
        elif edit.kind in (ir_module.INSTANCE_ADDED, ir_module.INSTANCE_REMOVED):
            # a (dis)appearing boundary changes what is observable: dirty
            # every parent-side binding bit so cones feeding (or fed by)
            # the instance are re-examined
            for bit in edit.instance.binding_bits():
                result.touched_bits.add(bit)

    return record


class EquivalenceError(AssertionError):
    """An optimized module is not equivalent to its pre-flow snapshot."""


@dataclass(frozen=True)
class PassRecord:
    """One pass invocation inside a flow run (JSON-serializable)."""

    pass_name: str
    round: int
    changed: bool
    stats: Dict[str, int]
    runtime_s: float


@dataclass(frozen=True)
class RunReport:
    """Everything measured about one (module, flow) run: a frozen,
    JSON-serializable record carrying per-pass statistics, areas, runtimes
    and the equivalence status.
    """

    case_name: str
    flow: str
    flow_script: str
    original_area: int
    optimized_area: int
    stats: AigStats
    passes: List[PassRecord] = field(default_factory=list)
    pass_stats: Dict[str, int] = field(default_factory=dict)
    rounds: int = 0
    runtime_s: float = 0.0
    equivalence_checked: bool = False
    #: aggregated SAT-oracle counters (queries, solver_calls, conflicts,
    #: learned_clauses) from every ``oracle_*`` pass stat; empty when no
    #: pass posed a SAT query (see :attr:`repro.sat.oracle.SatOracle.counters`)
    oracle_stats: Dict[str, int] = field(default_factory=dict)
    #: which pass engine ran the flow: ``"incremental"`` (dirty-set
    #: worklists over the shared live NetIndex) or ``"eager"`` (historic
    #: whole-module sweeps; the differential-testing escape hatch)
    engine: str = "incremental"
    #: False when the fixpoint loop exhausted ``max_rounds`` while passes
    #: were still changing the module — the result is valid but NOT a
    #: fixpoint, which used to be silently indistinguishable
    converged: bool = True
    #: dirty-set engine counters (full_rounds, incremental_rounds,
    #: dirty_seed_cells, dirty_seed_bits, seeded_runs, modules_skipped)
    dirty_stats: Dict[str, int] = field(default_factory=dict)
    #: what the design-scope incremental engine did with this run:
    #: ``"none"`` (ordinary full run), ``"seeded"`` (the first round was
    #: seeded with only the edits made since this flow last converged on
    #: the module), or ``"skipped"`` (the module's content revision was
    #: unchanged, so every pass was skipped and the previous result
    #: returned)
    design_cache: str = "none"
    #: session-lifetime cache totals at the end of this run (not per-run
    #: deltas — those are the ``oracle_*`` pass stats): the
    #: session :class:`~repro.core.cache.ResultCache` counters (per-kind
    #: hits/misses, per-entry eviction counts, store-load merges) plus
    #: its own population as ``entries`` (a job session reading through
    #: a snapshot counts only what it learned), and the accumulated
    #: SAT-oracle counters of every run so far as ``oracle_*`` entries
    cache_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def reduction_vs_original(self) -> float:
        if self.original_area == 0:
            return 0.0
        return 1.0 - self.optimized_area / self.original_area

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def to_json(self, **kwargs: Any) -> str:
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **kwargs)


@dataclass(frozen=True)
class SuiteReport(Mapping):
    """Results of a suite run: ``report[case][flow_label] -> RunReport``.

    Implements the mapping protocol the table renderers expect, so
    ``render_table2(suite_report)`` works unchanged.
    """

    results: Dict[str, Dict[str, RunReport]]
    runtime_s: float = 0.0
    #: suite-level cache totals: the per-kind hit/miss/eviction
    #: counters summed over every job's (private, snapshot-reading)
    #: cache, plus ``entries`` — the owning session's cache population
    #: after all worker deltas merged back (see :meth:`Session.run_suite`)
    cache_stats: Dict[str, int] = field(default_factory=dict)

    def __getitem__(self, case: str) -> Dict[str, RunReport]:
        return self.results[case]

    def __iter__(self) -> Iterator[str]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def reports(self) -> Iterator[RunReport]:
        for per_flow in self.results.values():
            yield from per_flow.values()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "runtime_s": self.runtime_s,
            "cache_stats": dict(self.cache_stats),
            "results": {
                case: {flow: report.to_dict() for flow, report in per.items()}
                for case, per in self.results.items()
            },
        }

    def to_json(self, **kwargs: Any) -> str:
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **kwargs)


@dataclass(frozen=True)
class HierarchyReport:
    """Results of :meth:`Session.run_hierarchy` (JSON-serializable).

    ``reports`` maps every module reachable from ``top`` to its
    :class:`RunReport`; modules replayed from an isomorphic representative
    carry ``design_cache="replayed"`` and appear in ``replayed`` with the
    name of the module whose optimized netlist they received.  Weighted
    totals multiply each module's area by its dynamic instance count, so
    ``total_area`` is directly comparable to optimizing the flattened
    design.
    """

    top: str
    flow: str
    #: bottom-up elaboration order the modules were optimized in
    order: Tuple[str, ...]
    reports: Dict[str, RunReport]
    #: replayed module -> representative whose optimized netlist it got
    replayed: Dict[str, str]
    #: replay candidates that fell back to a full run, with the reason
    #: (``"ports"``/``"children"``/``"cec"`` — see ``run_hierarchy``)
    replay_fallbacks: Dict[str, str]
    #: module -> dynamic instance count under ``top`` (the top counts 1)
    instance_counts: Dict[str, int]
    #: sum of count * pre-optimization area over reachable modules
    original_total_area: int
    #: sum of count * optimized area over reachable modules
    total_area: int
    runtime_s: float = 0.0

    @property
    def reduction_vs_original(self) -> float:
        if self.original_total_area == 0:
            return 0.0
        return 1.0 - self.total_area / self.original_total_area

    def to_dict(self) -> Dict[str, Any]:
        return {
            "top": self.top,
            "flow": self.flow,
            "order": list(self.order),
            "reports": {
                name: report.to_dict()
                for name, report in self.reports.items()
            },
            "replayed": dict(self.replayed),
            "replay_fallbacks": dict(self.replay_fallbacks),
            "instance_counts": dict(self.instance_counts),
            "original_total_area": self.original_total_area,
            "total_area": self.total_area,
            "runtime_s": self.runtime_s,
        }

    def to_json(self, **kwargs: Any) -> str:
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **kwargs)


@dataclass
class _FlowState:
    """Per-(module, flow) design-incremental state: the pass objects whose
    internal caches (merge tables) match the module, the design revision
    at which the flow last converged, and the report it produced."""

    passes: List[Pass]
    revision: int
    report: RunReport


@dataclass
class _PendingEdits:
    """Edits made to one module since its last run (any flow), accumulated
    from the design edit channel while no flow is running on it.

    ``start_revision`` anchors the window: a stored :class:`_FlowState`
    whose revision equals it is exactly one edit-set behind the module, so
    its pass state plus this dirty set seed a correct incremental re-run.
    ``compactions`` snapshots the live index's alias-map compaction
    counter: the window holds *raw* bits resolved through the sigmap only
    at seed time, and a compaction in between may have dropped the alias
    entries dead window bits still need — seeding across one is refused.
    The alias map compacts only when a pipeline run ends, so plain edits
    never move the counter; a run on the same module from another session
    (or a direct :meth:`~repro.opt.pass_base.PassManager.run`) can.
    """

    start_revision: int
    edits: PassResult
    recorder: Callable
    compactions: int = 0


class Session:
    """Owns a design, a tuning-options object, and an event channel.

    The session caches each module's pre-optimization AIG baseline the
    first time it is needed (``aig_map`` never mutates the module, so the
    baseline is computed directly on the working copy — no clone; a
    checked first run proves the optimized netlist against that same
    AIG).
    Flows then mutate the session's modules in place, Yosys-style; clone
    before constructing the session if the caller's module must stay
    pristine (``Session(module.clone()).run(preset)``).

    ``options`` seeds the *presets* (``smartly``/``smartly-sat``/…), which
    take their tuning from one :class:`SmartlyOptions` object.  Explicit
    flow scripts and :class:`FlowSpec` objects are authoritative as
    written — a script's ``smartly`` statement uses the paper defaults
    plus whatever ``key=value`` options the statement itself carries.

    **Design-scope incrementality** (``engine="incremental"``, the
    default): the session subscribes to its design's edit channel and
    keeps, per (module, flow), the pass objects and the content revision
    at which the flow last converged.  A later :meth:`run` of the same
    flow then

    * **skips** the module outright when its revision is unchanged
      (``RunReport.design_cache == "skipped"``) — the flow converged on
      byte-identical content before, so re-running it is a proven no-op;
    * **seeds** the pass engine with just the edits made in between when
      the revision moved (``design_cache == "seeded"``), reusing the
      module's live :class:`~repro.ir.walker.NetIndex` and every pass's
      persistent state, so only logic reachable from the edits is
      re-analyzed;
    * falls back to an ordinary full run otherwise (``"none"``).

    Eager runs bypass all of this — they are the differential-testing
    reference.  A session-wide :class:`~repro.core.cache.ResultCache`
    holds the whole-artifact entries of every module of the design:
    :meth:`run_suite` job reports, :meth:`run_hierarchy` netlists and the
    verdicts of checked incremental runs.

    **Persistence** (``store_path=``): the cache additionally survives the
    process.  At open, every readable generation of the
    :class:`~repro.core.store.CacheStore` at that directory is merged
    into the session cache, so :meth:`run_suite` jobs, :meth:`
    run_hierarchy` classes and equivalence proofs computed by earlier
    sessions — or other machines sharing the directory — replay instead
    of recomputing.  At :meth:`close` (or an explicit
    :meth:`flush_store`) the delta this session learned is written back
    as one new atomic, content-addressed generation and old generations
    beyond ``store_keep_generations`` are garbage-collected.
    """

    def __init__(
        self,
        design: Optional[Union[Design, Module]] = None,
        *,
        options: Optional[SmartlyOptions] = None,
        events: Optional[EventBus] = None,
        engine: str = "incremental",
        store_path: Optional[Union[str, "Path"]] = None,
        store_keep_generations: Optional[int] = None,
    ):
        if engine not in ("incremental", "eager"):
            raise ValueError(
                f"unknown engine {engine!r}; choose 'incremental' or 'eager'"
            )
        if design is None:
            design = Design()
        elif isinstance(design, Module):
            design = Design(design)
        self.design = design
        self.options = options
        self.engine = engine
        self.events = events if events is not None else EventBus()
        self._baselines: Dict[str, int] = {}
        #: (module name, FlowSpec) -> _FlowState for design-incrementality
        self._flow_states: Dict[Tuple[str, FlowSpec], _FlowState] = {}
        #: module name -> edits accumulated since its last run
        self._pending: Dict[str, _PendingEdits] = {}
        #: module currently being optimized (its own flow's edits are
        #: tracked by the PassManager, not the design channel)
        self._running: Optional[str] = None
        #: session-wide whole-artifact cache shared by every module of
        #: the design; keyed by structural signatures, so isomorphic
        #: modules hit across runs and suite jobs
        self._result_cache = ResultCache()
        #: optional on-disk persistence (see :mod:`repro.core.store`):
        #: the store's generations warm-start this session's cache at
        #: open, and :meth:`close`/:meth:`flush_store` persist the delta
        #: this session learned as one new generation
        self._store: Optional[CacheStore] = None
        self._store_keep = (
            store_keep_generations if store_keep_generations is not None
            else DEFAULT_KEEP_GENERATIONS
        )
        #: the cache's ``appended`` watermark at the last successful save
        #: (or the load): flush_store exports only what came after it, so
        #: each flush is one delta generation
        self._store_flushed = 0
        if store_path is not None:
            self._store = CacheStore(store_path)
            loaded = self._store.load()
            if loaded:
                self._result_cache.merge(loaded)
            self._store_flushed = self._result_cache.appended
        #: SAT-oracle counters accumulated over every run so far; the
        #: session-lifetime side of :attr:`RunReport.cache_stats` (the
        #: oracles themselves live on per-(module, flow) pass objects)
        self._oracle_totals: Counter = Counter()
        #: set by :meth:`close`; a closed session no longer observes the
        #: design, so it must not skip, seed, or record flow states —
        #: an unobserved edit window would otherwise fabricate empty seeds
        self._closed = False
        self.design.add_listener(self._on_design_edit)

    # -- design-edit tracking --------------------------------------------------

    def _on_design_edit(self, edit: DesignEdit) -> None:
        if edit.kind == design_mod.MODULE_EDITED:
            if edit.module == self._running:
                return
            entry = self._pending.get(edit.module)
            if entry is not None:
                entry.recorder(edit.edit)
        elif edit.kind == design_mod.CHILD_EDITED:
            # a transitive child changed content: the parent's own netlist
            # is untouched, but everything observable at its instantiation
            # sites may mean something new, so the binding bits of every
            # instance of the edited child seed the parent's next re-run
            if edit.module == self._running:
                return
            entry = self._pending.get(edit.module)
            parent = self.design.modules.get(edit.module)
            if entry is not None and parent is not None:
                for inst in parent.instances.values():
                    if inst.module_name == edit.child:
                        for bit in inst.binding_bits():
                            entry.edits.touched_bits.add(bit)
        elif edit.kind in (design_mod.MODULE_ADDED, design_mod.MODULE_REMOVED):
            # membership changes reset everything known about the name
            self._pending.pop(edit.module, None)
            for key in [k for k in self._flow_states if k[0] == edit.module]:
                del self._flow_states[key]
            if edit.kind == design_mod.MODULE_REMOVED:
                self._baselines.pop(edit.module, None)

    def _restart_pending(self, name: str) -> None:
        """Open a fresh edit-accumulation window for ``name`` (post-run)."""
        edits = PassResult("design-edits")
        module = self.design.modules.get(name)
        # snapshot the live index's compaction counter without *creating*
        # an index: eager-only sessions never consume their windows, and
        # forcing a live index on them would tax every later edit.  The
        # -1 sentinel can never equal a real counter, so a window opened
        # before any index existed simply refuses to seed (harmless: a
        # consumable window implies a prior incremental run, which built
        # the index).
        index = module._net_index if module is not None else None
        self._pending[name] = _PendingEdits(
            self.design.revision(name),
            edits,
            _pending_recorder(edits),
            compactions=index.compactions if index is not None else -1,
        )

    def close(self) -> None:
        """Detach from the design's edit channel and drop cached state.

        Sessions subscribe to their design on construction; a long-lived
        :class:`~repro.ir.design.Design` that outlives many sessions would
        otherwise keep every discarded session reachable as a listener and
        pay its bookkeeping on every edit.  Call this (or use the session
        as a context manager) when constructing sessions per run over a
        shared design.  A closed session can still run flows, but every
        run is a full run — with the design no longer observed, skip/seed
        decisions would rest on edit windows that can never see an edit.
        A session opened with ``store_path=`` also persists its cache
        delta as one new store generation (see :meth:`flush_store`).
        Idempotent.
        """
        self.flush_store()
        try:
            self.design.remove_listener(self._on_design_edit)
        except ValueError:
            pass  # already closed
        self._closed = True
        self._flow_states.clear()
        self._pending.clear()

    def flush_store(self) -> int:
        """Persist the cache entries learned since the last flush (or
        since open) as one new generation of the session's on-disk
        :class:`~repro.core.store.CacheStore`; returns the number of
        entries written (0 without ``store_path=`` or when nothing new
        was learned).  Long-lived owners — the serve daemon, a CI driver
        between suites — call this to checkpoint without closing;
        :meth:`close` calls it automatically.  Each flush also
        garbage-collects the store down to the session's
        ``store_keep_generations``.
        """
        if self._store is None:
            return 0
        # read the watermark first: an entry appended during the export
        # is at worst written twice, never skipped
        mark = self._result_cache.appended
        delta = self._result_cache.export(since=self._store_flushed)
        if not delta:
            return 0
        self._store.save(delta)
        self._store_flushed = mark
        self._store.gc(keep_generations=self._store_keep)
        return len(delta)

    def export_cache(self) -> Dict[Tuple, Any]:
        """Snapshot this session's own structural-cache entries (pure
        data, picklable) — for a session reading through a snapshot,
        exactly what it learned.  The public face of the warm-start
        plumbing :meth:`run_suite`, the serve daemon and its
        process-isolated workers ride (see
        :meth:`~repro.core.cache.ResultCache.export`)."""
        return self._result_cache.export()

    def read_through(self, entries: Mapping[Tuple, Any]) -> None:
        """Warm-start from ``entries`` without copying them: cache misses
        fall through to this read-only mapping — another session's
        :meth:`export_cache`, or the live
        :meth:`~repro.core.cache.ResultCache.view` of a shared cache —
        while everything this session learns stays in its own entries.
        How serve jobs and suite jobs start from a shared cache."""
        self._result_cache.parent = entries

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_verilog(cls, source: str, top: Optional[str] = None,
                     **kwargs: Any) -> "Session":
        """Compile Verilog source text into a fresh session."""
        from ..frontend import compile_verilog

        return cls(compile_verilog(source, top=top), **kwargs)

    # -- observation -----------------------------------------------------------

    def subscribe(self, observer: Observer) -> Observer:
        """Attach a structured-event observer (see :mod:`repro.events`)."""
        return self.events.subscribe(observer)

    # -- cache totals ----------------------------------------------------------

    def _cache_totals(self) -> Dict[str, int]:
        """Session-lifetime cache counters (see :attr:`RunReport.cache_stats`)."""
        totals = self._result_cache.totals()
        totals.update(prefixed("oracle_", self._oracle_totals))
        if self._store is not None:
            totals.update(prefixed("store_", self._store.counters))
        return totals

    # -- baselines -------------------------------------------------------------

    def baseline_area(self, module: Optional[str] = None) -> int:
        """Pre-optimization AIG area, cached per module name."""
        mod = self._module(module)
        if mod.name not in self._baselines:
            self._baselines[mod.name] = aig_map(mod).num_ands
        return self._baselines[mod.name]

    # -- running flows ---------------------------------------------------------

    def _module(self, name: Optional[str]) -> Module:
        if name is None:
            return self.design.top
        if name not in self.design:
            raise KeyError(f"no module named {name!r}")
        return self.design[name]

    def run(
        self,
        flow: Union[str, FlowSpec] = "smartly",
        *,
        module: Optional[str] = None,
        check: bool = False,
        engine: Optional[str] = None,
    ) -> RunReport:
        """Run one flow over one module (the top by default).

        ``flow`` is a preset name (``none``/``yosys``/``smartly-sat``/
        ``smartly-rebuild``/``smartly``), a flow-script string, or a
        :class:`FlowSpec`.  With ``check=True`` the optimized module is
        SAT-proven equivalent to its pre-flow state (raises
        :class:`EquivalenceError` otherwise): the run maps the module to
        an AIG before the flow, which on the module's first run is also
        its baseline, and proves it against the AIG it maps afterwards
        for :attr:`RunReport.stats`, so a checked first run makes two
        ``aig_map`` calls and clones nothing.  The port signature is read
        before the flow and compared after it
        (:class:`~repro.equiv.miter.PortMismatchError` when a pass changed
        it).  ``engine`` overrides the session engine for this run
        (``"incremental"`` or ``"eager"``).

        Incremental runs participate in design-scope incrementality (see
        the class docstring): a re-run of a flow that already converged on
        this module is skipped when the module's content is unchanged and
        seeded with just the in-between edits when it is not —
        :attr:`RunReport.design_cache` records which happened.  A skipped
        run, or a flow with no steps (the ``none`` preset), with
        ``check=True`` reports ``equivalence_checked=True`` without
        solving: zero passes ran, so the module *is* its own pre-flow
        state.
        """
        engine = engine if engine is not None else self.engine
        if engine not in ("incremental", "eager"):
            raise ValueError(
                f"unknown engine {engine!r}; choose 'incremental' or 'eager'"
            )
        spec = resolve_flow(flow, options=self.options)
        mod = self._module(module)
        incremental = engine == "incremental"
        if incremental:
            # the flow keeps the live index anyway; built first, it also
            # serves the pre-flow and final aigmap
            mod.net_index()
        # design-scope bookkeeping requires an attached design listener
        track = incremental and not self._closed
        state_key = (mod.name, spec)
        state = self._flow_states.get(state_key) if track else None
        revision = self.design.revision(mod.name)
        if state is not None and state.revision == revision:
            return self._skipped_report(mod, spec, state, check)
        seed: Optional[DirtySet] = None
        design_cache = "none"
        passes = state.passes if state is not None else spec.build()
        if state is not None:
            pending = self._pending.get(mod.name)
            if (
                pending is not None
                and pending.start_revision == state.revision
                and pending.compactions == mod.net_index().compactions
            ):
                # the stored pass state is exactly one edit-window behind
                # the module: seed the first round with those edits instead
                # of a full sweep
                seed = DirtySet(
                    set(pending.edits.touched_cells),
                    set(pending.edits.touched_bits),
                    set(pending.edits.touched_fanin_bits),
                )
                design_cache = "seeded"
        golden = None
        if check and spec.steps:
            # the pre-flow state the optimized netlist is proven against;
            # on the module's first run it is the baseline as well
            ports = io_signature(mod)
            golden = aig_map(mod)
            self._baselines.setdefault(mod.name, golden.num_ands)
        original_area = self.baseline_area(mod.name)
        self.events.emit("flow_started", case=mod.name, flow=spec.label)
        manager = PassManager(
            passes,
            events=self.events,
            name=spec.label,
            incremental=incremental,
        )
        start = time.perf_counter()
        self._running = mod.name
        try:
            changed = manager.run(
                mod, fixpoint=spec.fixpoint, max_rounds=spec.max_rounds,
                seed=seed,
            )
        finally:
            # even on failure the module's content moved: reopen the edit
            # window at the new revision and drop the now-stale state (the
            # success path re-stores it below), so no later run can seed
            # from an edit set that missed this run's edits
            self._running = None
            # restart the window after ANY run on an open session — the
            # run's own edits were excluded from it (self._running), so an
            # eager run would otherwise leave a window that silently
            # missed this run's mutations; closed sessions keep no windows
            if not self._closed:
                self._restart_pending(mod.name)
                self._flow_states.pop(state_key, None)
        runtime = time.perf_counter() - start
        optimized = aig_map(mod)
        stats = aig_stats(optimized)
        if golden is not None:
            check_signatures(ports, io_signature(mod))
            result = check_equivalence(
                golden, optimized,
                cache=self._result_cache if incremental else None,
            )
            if not result.equivalent:
                raise EquivalenceError(
                    f"{spec.label} broke {mod.name!r}: "
                    f"counterexample {result.counterexample}"
                )
        self.events.emit(
            "flow_finished",
            case=mod.name,
            flow=spec.label,
            original_area=original_area,
            optimized_area=stats.num_ands,
            runtime_s=runtime,
        )
        pass_stats = manager.total_stats()
        oracle_stats = _aggregate_oracle_stats(pass_stats)
        self._oracle_totals.update(oracle_stats)
        report = RunReport(
            case_name=mod.name,
            flow=spec.label,
            flow_script=str(spec),
            original_area=original_area,
            optimized_area=stats.num_ands,
            stats=stats,
            passes=[
                PassRecord(
                    pass_name=res.pass_name,
                    round=idx // max(1, len(spec.steps)),
                    changed=res.changed,
                    stats=dict(res.stats),
                    runtime_s=res.runtime_s,
                )
                for idx, res in enumerate(manager.history)
            ],
            pass_stats=dict(pass_stats),
            rounds=manager.rounds_run,
            runtime_s=runtime,
            equivalence_checked=bool(check),
            oracle_stats=dict(oracle_stats),
            engine=engine,
            converged=manager.converged,
            dirty_stats=dict(manager.dirty_stats),
            design_cache=design_cache,
            cache_stats=self._cache_totals(),
        )
        # record the state this run left behind — only when the module is
        # provably at a fixpoint of this pipeline: a converged fixpoint
        # run, or a single-shot run that changed nothing (manager.converged
        # is vacuously True for non-fixpoint runs, so a changing
        # single-shot pipeline must NOT anchor skips — re-running it would
        # keep changing the module).  Unconverged runs cannot anchor, and
        # eager runs deliberately stay outside the bookkeeping (but still
        # invalidate stale states via the revision they bumped).
        at_fixpoint = manager.converged and (spec.fixpoint or not changed)
        if track and at_fixpoint and spec.steps:
            self._flow_states[state_key] = _FlowState(
                passes, self.design.revision(mod.name), report
            )
        return report

    def _skipped_report(
        self,
        mod: Module,
        spec: FlowSpec,
        state: _FlowState,
        check: bool,
    ) -> RunReport:
        """A design-incremental skip: the module's content revision is
        unchanged since this flow last converged on it, so zero passes run
        and the previous result is returned (fresh runtime, empty per-run
        counters, ``design_cache="skipped"``)."""
        start = time.perf_counter()
        self.events.emit("flow_started", case=mod.name, flow=spec.label)
        self.events.emit(
            "flow_skipped",
            case=mod.name,
            flow=spec.label,
            revision=state.revision,
        )
        runtime = time.perf_counter() - start
        report = replace(
            state.report,
            passes=[],
            pass_stats={},
            oracle_stats={},
            rounds=0,
            runtime_s=runtime,
            equivalence_checked=bool(check),
            dirty_stats={"modules_skipped": 1},
            design_cache="skipped",
            cache_stats=self._cache_totals(),
        )
        self.events.emit(
            "flow_finished",
            case=mod.name,
            flow=spec.label,
            original_area=report.original_area,
            optimized_area=report.optimized_area,
            runtime_s=runtime,
        )
        return report

    def run_all(
        self,
        flow: Union[str, FlowSpec] = "smartly",
        *,
        check: bool = False,
    ) -> Dict[str, RunReport]:
        """Run one flow over every module in the design.

        Returns ``{module name: RunReport}``.  Under the incremental
        engine this is the design-scope entry point: modules whose
        content is unchanged since this flow last converged on them are
        skipped, edited ones are seeded with just the in-between edits
        (see :attr:`RunReport.design_cache`).

        Hierarchical designs are visited children-before-parents
        (bottom-up over the instance graph), so by the time a parent's
        boundary cones are optimized every child it instantiates is
        already in its final shape; instance-free designs keep plain
        insertion order.
        """
        names = list(self.design.modules)
        if any(self.design.modules[n].instances for n in names):
            names = _bottom_up_names(self.design)
        return {
            name: self.run(flow, module=name, check=check)
            for name in names
        }

    def run_hierarchy(
        self,
        flow: Union[str, FlowSpec] = "smartly",
        *,
        top: Optional[str] = None,
        check: bool = False,
        engine: Optional[str] = None,
    ) -> HierarchyReport:
        """Optimize a hierarchical design bottom-up with isomorphic-
        instance replay.

        Modules reachable from ``top`` are visited children-first.  Each
        module's *hierarchical* structural signature (its own logic plus
        the signatures of the modules it instantiates — see
        :func:`~repro.ir.struct_hash.module_signature`) keys two
        :class:`~repro.core.cache.ResultCache` entries written after a
        full run: a ``suite_job`` report and a ``hier_netlist`` optimized
        clone.  A later module in the same signature class — an
        isomorphic sibling — replays both instead of running any pass:
        its optimized netlist is a renamed clone of the representative's,
        swapped in via :meth:`Design.replace_module
        <repro.ir.design.Design.replace_module>`, and its report is the
        stored one with ``design_cache="replayed"``.  Entries survive
        :meth:`~repro.core.cache.ResultCache.export`/``merge``, so a
        warm-started session replays classes it never ran itself.

        Replay preconditions — signature equality is name-free, so the
        swap must additionally preserve what parents and the design can
        observe; each failure falls back to an ordinary full run and is
        recorded in :attr:`HierarchyReport.replay_fallbacks`:

        * ``"ports"`` — the sibling's port names/widths differ from the
          stored netlist's (parents bind by port name);
        * ``"children"`` — the sibling instantiates a different multiset
          of child module names (the swap would rewire the instance
          graph);
        * ``"cec"`` — with ``check=True`` every replay is SAT-proven
          equivalent to the module it replaces before the swap commits;
          an unproven candidate (refuted *or* undecided) is discarded.

        Replayed modules do not anchor design-incremental state: the
        swap bumps the module's revision, so a later direct :meth:`run`
        does a normal full/seeded pass over the new content.
        """
        from ..ir.hierarchy import hierarchy

        engine = engine if engine is not None else self.engine
        spec = resolve_flow(flow, options=self.options)
        info = hierarchy(self.design, top=top)
        start = time.perf_counter()
        cache = self._result_cache
        child_sigs: Dict[str, Any] = {}
        reports: Dict[str, RunReport] = {}
        replayed: Dict[str, str] = {}
        fallbacks: Dict[str, str] = {}
        for name in info.order:
            mod = self.design.modules[name]
            # pre-optimization hierarchical signature: equal signatures
            # mean the deterministic flow produces identical results, so
            # grouping must happen before any pass touches the module
            sig = module_signature(mod, child_signatures=child_sigs)
            child_sigs[name] = sig
            original_area = self.baseline_area(name)
            # the suite-job key, so hierarchy runs and suite jobs share
            # stored reports (instance-free modules have identical flat
            # and hierarchical signatures)
            job_key = _suite_job_key(
                cache, sig, spec, check, engine, self.options
            )
            net_key = cache.key_for("hier_netlist", *job_key[1:])
            replay = None
            report_hit, stored_report = cache.lookup(job_key)
            netlist_hit, stored_mod = cache.lookup(net_key)
            if report_hit and netlist_hit:
                replay = self._try_replay(
                    name, mod, stored_mod, stored_report, check, fallbacks,
                )
            if replay is not None:
                reports[name] = replay
                replayed[name] = stored_mod.name
                continue
            report = self.run(spec, module=name, check=check, engine=engine)
            reports[name] = report
            # strip instance-local fields so the stored report is
            # name-free; the netlist keeps its wire/cell names (the
            # port-interface precondition makes them transferable)
            cache.store(job_key, replace(report, case_name="", cache_stats={}))
            cache.store(net_key, self.design.modules[name].clone())
        runtime = time.perf_counter() - start
        counts = dict(info.instance_counts)
        original_total = sum(
            counts[n] * reports[n].original_area for n in info.order
        )
        total = sum(
            counts[n] * reports[n].optimized_area for n in info.order
        )
        return HierarchyReport(
            top=info.top,
            flow=spec.label,
            order=info.order,
            reports=reports,
            replayed=replayed,
            replay_fallbacks=fallbacks,
            instance_counts=counts,
            original_total_area=original_total,
            total_area=total,
            runtime_s=runtime,
        )

    def _try_replay(
        self,
        name: str,
        mod: Module,
        stored_mod: Module,
        stored_report: RunReport,
        check: bool,
        fallbacks: Dict[str, str],
    ) -> Optional[RunReport]:
        """Attempt to swap ``stored_mod`` (an optimized isomorphic twin)
        in for ``mod``; returns the replayed report or None (fallback
        reason recorded in ``fallbacks``)."""
        start = time.perf_counter()
        if _port_interface(mod) != _port_interface(stored_mod):
            fallbacks[name] = "ports"
            return None
        if _child_multiset(mod) != _child_multiset(stored_mod):
            fallbacks[name] = "children"
            return None
        candidate = stored_mod.clone()
        candidate.name = name
        if check:
            verdict = check_equivalence(
                mod, candidate, cache=self._result_cache
            )
            if not verdict.equivalent:
                fallbacks[name] = "cec"
                return None
        self.design.replace_module(name, candidate)
        return replace(
            stored_report,
            case_name=name,
            passes=[],
            pass_stats={},
            oracle_stats={},
            rounds=0,
            runtime_s=time.perf_counter() - start,
            equivalence_checked=bool(check),
            dirty_stats={"modules_replayed": 1},
            design_cache="replayed",
            cache_stats=self._cache_totals(),
        )

    # -- suites ----------------------------------------------------------------

    def run_suite(
        self,
        cases: Mapping[str, CaseSource],
        flows: Sequence[Union[str, FlowSpec]] = ("smartly",),
        *,
        max_workers: Optional[int] = None,
        check: bool = False,
        executor: str = "thread",
        warm_start: bool = True,
    ) -> SuiteReport:
        """Run every (case × flow) job, in parallel, with structured progress.

        ``cases`` maps case names to modules **or** zero-argument factories
        (with the thread executor a factory runs once per *case* inside a
        worker and its jobs share the built module; the process executor
        invokes it once per flow inside each worker process);
        :func:`suite_cases` builds such a mapping from names + a builder.
        Workers only ever mutate private clones; the inputs are never
        mutated.  Progress is emitted as
        ``suite_started`` / ``case_started`` / ``case_finished`` /
        ``suite_finished`` events on the session's bus rather than printed.

        ``executor`` selects the worker pool:

        * ``"thread"`` — shared-memory workers.  Simple, but CPython's GIL
          means pure-Python optimization work barely overlaps; treat
          ``max_workers`` as job scheduling, not a speedup knob.  Jobs of
          the same case share one prebuilt module and one pre-optimization
          baseline AIG: the case's factory runs once (in whichever worker
          gets there first) and every flow clones from that shared
          instance instead of rebuilding and re-measuring per job.
        * ``"process"`` — a ``ProcessPoolExecutor``.  Modules and specs are
          pickled into worker processes and the JSON-serializable
          :class:`RunReport` is pickled back, so CPU-bound suites scale
          with cores.  Factories must be picklable (module-level functions
          or :func:`functools.partial` — what :func:`suite_cases` builds);
          per-pass events from inside workers are not forwarded, only the
          ``case_started``/``case_finished`` milestones.

        ``warm_start`` (default on) lets every job's result cache read
        through a snapshot of this session's structural-signature
        entries (:meth:`~repro.core.cache.ResultCache.export`, see
        :meth:`read_through`) and merges each job's delta back afterwards
        — so process workers no longer start cold, jobs of one suite
        replay the reports and proofs of the runs that preceded them,
        and a second suite benefits from the first.  The snapshot
        is taken once before any job starts, which keeps every job's
        cache traffic deterministic regardless of scheduling.  Suite-wide
        totals come back as :attr:`SuiteReport.cache_stats`.
        """
        specs = [resolve_flow(flow, options=self.options) for flow in flows]
        labels = [spec.label for spec in specs]
        duplicates = {label for label in labels if labels.count(label) > 1}
        if duplicates:
            raise ValueError(
                f"duplicate flow labels {sorted(duplicates)}: results are "
                f"keyed by label, so each flow needs a distinct name "
                f"(FlowSpec(..., name=...))"
            )
        if executor not in ("thread", "process"):
            raise ValueError(
                f"unknown executor {executor!r}; choose 'thread' or 'process'"
            )
        jobs = [
            (case_name, source, spec)
            for case_name, source in cases.items()
            for spec in specs
        ]
        self.events.emit(
            "suite_started",
            cases=list(cases),
            flows=[spec.label for spec in specs],
            jobs=len(jobs),
            max_workers=max_workers,
            executor=executor,
        )
        start = time.perf_counter()
        # one snapshot before any job runs: every job sees the same seed
        # entries, so per-job hit/miss traffic (and with it report JSON)
        # is deterministic under any scheduling order; None = cold suite
        snapshot = self._result_cache.export() if warm_start else None

        case_locks = {name: threading.Lock() for name in cases}
        case_shared: Dict[str, Tuple[Module, int]] = {}
        case_jobs_left = {name: len(specs) for name in cases}

        def resolve_case(case_name: str, source: CaseSource) -> Tuple[Module, int]:
            """Build each case once and measure its baseline once; the
            per-case lock keeps duplicate work out while still letting
            different cases construct in parallel."""
            with case_locks[case_name]:
                if case_name not in case_shared:
                    built = source() if callable(source) else source
                    case_shared[case_name] = (built, aig_map(built).num_ands)
                return case_shared[case_name]

        def release_case(case_name: str) -> None:
            """Drop the shared build once the case's last job finished, so
            peak memory tracks max_workers rather than total case count."""
            with case_locks[case_name]:
                case_jobs_left[case_name] -= 1
                if case_jobs_left[case_name] <= 0:
                    case_shared.pop(case_name, None)

        def run_one(case_name: str, source: CaseSource,
                    spec: FlowSpec) -> RunReport:
            try:
                base, baseline = resolve_case(case_name, source)
                module = base.clone()
            finally:
                release_case(case_name)
            self.events.emit("case_started", case=case_name, flow=spec.label)
            with Session(module, options=self.options, events=self.events,
                         engine=self.engine) as sub:
                sub._baselines[module.name] = baseline
                if snapshot is not None:
                    sub.read_through(snapshot)
                report, _signature = _run_suite_job(
                    sub, module, spec, check, memoize=snapshot is not None,
                )
                if snapshot is not None:
                    self._result_cache.merge(sub.export_cache())
            self.events.emit(
                "case_finished",
                case=case_name,
                flow=spec.label,
                original_area=report.original_area,
                optimized_area=report.optimized_area,
                runtime_s=report.runtime_s,
            )
            return report

        results: Dict[str, Dict[str, RunReport]] = {name: {} for name in cases}
        if executor == "process":
            with ProcessPoolExecutor(max_workers=max_workers) as pool:
                futures = {
                    pool.submit(
                        _suite_process_job, case_name, source, spec,
                        self.options, check, self.engine, snapshot,
                    ): (case_name, spec.label)
                    for case_name, source, spec in jobs
                }
                for future in as_completed(futures):
                    case_name, flow_label = futures[future]
                    report, delta = future.result()
                    if warm_start:
                        self._result_cache.merge(delta)
                    results[case_name][flow_label] = report
                    # workers cannot stream events across the process
                    # boundary, so started/finished are emitted together at
                    # completion — adjacent pairs, never a misleading
                    # all-started-at-submit burst
                    self.events.emit(
                        "case_started", case=case_name, flow=flow_label
                    )
                    self.events.emit(
                        "case_finished",
                        case=case_name,
                        flow=flow_label,
                        original_area=report.original_area,
                        optimized_area=report.optimized_area,
                        runtime_s=report.runtime_s,
                    )
        else:
            with ThreadPoolExecutor(max_workers=max_workers) as pool:
                futures = {
                    pool.submit(run_one, *job): (job[0], job[2].label)
                    for job in jobs
                }
                for future in as_completed(futures):
                    case_name, flow_label = futures[future]
                    results[case_name][flow_label] = future.result()
        runtime = time.perf_counter() - start
        self.events.emit("suite_finished", jobs=len(jobs), runtime_s=runtime)
        cache_stats: Counter = Counter()
        for per_flow in results.values():
            for report in per_flow.values():
                cache_stats.update(report.cache_stats)
        # populations are not additive across jobs
        cache_stats.pop("entries", None)
        cache_stats["entries"] = len(self._result_cache)
        return SuiteReport(
            results=results, runtime_s=runtime, cache_stats=dict(cache_stats)
        )

    def __repr__(self) -> str:
        return f"Session({self.design!r})"


def _port_interface(module: Module) -> Tuple[Tuple, Tuple]:
    """Name+width I/O shape a replay must preserve (parents bind by name)."""
    ins = tuple(sorted((w.name, w.width) for w in module.inputs))
    outs = tuple(sorted((w.name, w.width) for w in module.outputs))
    return ins, outs


def _child_multiset(module: Module) -> Tuple[str, ...]:
    """Sorted child-module names a replay must preserve (the instance
    graph is observable through :meth:`Design.instantiators`)."""
    return tuple(
        sorted(inst.module_name for inst in module.instances.values())
    )


def _bottom_up_names(design: Design) -> List[str]:
    """Every module name, children before any module instantiating them.

    Unlike :func:`~repro.ir.hierarchy.hierarchy` this covers *all*
    modules (including roots unreachable from the top) and tolerates
    dangling or cyclic references — back-edges are simply not followed,
    so ``run_all`` stays total on designs ``hierarchy()`` would reject.
    Deterministic: roots and children are visited in insertion order.
    """
    order: List[str] = []
    state: Dict[str, int] = {}  # 0 = on stack, 1 = done

    def children(name: str) -> Iterator[str]:
        for inst in design.modules[name].instances.values():
            child = inst.module_name
            if child != name and child in design.modules:
                yield child

    for root in design.modules:
        if state.get(root) == 1:
            continue
        state[root] = 0
        stack = [(root, children(root))]
        while stack:
            name, pending = stack[-1]
            for child in pending:
                if state.get(child) is None:
                    state[child] = 0
                    stack.append((child, children(child)))
                    break
            else:
                stack.pop()
                state[name] = 1
                order.append(name)
    return order


def _options_fingerprint(options: Optional[SmartlyOptions]) -> Optional[Tuple]:
    """A pure, hashable rendering of the tuning options for job keys."""
    if options is None:
        return None
    return tuple(sorted(vars(options).items()))


def _suite_job_key(
    cache: ResultCache,
    signature: Any,
    spec: FlowSpec,
    check: bool,
    engine: str,
    options: Optional[SmartlyOptions],
) -> Tuple:
    """The ``suite_job`` key in ``cache`` of one module (by its
    structural signature) run through one flow configuration."""
    return cache.key_for(
        "suite_job",
        signature,
        (str(spec), spec.label, bool(check), engine,
         _options_fingerprint(options)),
    )


def _replay_suite_job(
    cache: ResultCache,
    key: Tuple,
    case_name: str,
    totals: Callable[[], Dict[str, int]],
) -> Optional[RunReport]:
    """The stored report of ``key`` re-stamped for ``case_name``, or None
    on a miss.  ``totals`` gives the report's ``cache_stats`` after the
    lookup counted its hit."""
    start = time.perf_counter()
    hit, stored = cache.lookup(key)
    if not hit:
        return None
    return replace(
        stored,
        case_name=case_name,
        runtime_s=time.perf_counter() - start,
        cache_stats=totals(),
    )


def _run_suite_job(
    session: "Session",
    module: Module,
    spec: FlowSpec,
    check: bool,
    memoize: bool,
) -> Tuple[RunReport, Any]:
    """One suite job, with whole-job structural replay; returns the
    report and the module signature its ``suite_job`` key used (None
    without ``memoize``).

    Suite jobs optimize a private clone and return only the report, so
    when the warm-start snapshot already holds the report of a
    *structurally identical* module run through the same flow (same
    script, check flag, and ``session``'s engine and options), the entire
    job replays from the cache: every report field that matters — areas,
    AIG stats, equivalence status — is invariant under renaming (the
    stored pass counters describe the isomorphic twin's run, which the
    fresh run would reproduce up to name-order tie-breaks).  The key
    rides in the session :class:`~repro.core.cache.ResultCache` as a
    ``suite_job`` entry, so it exports, merges and counts hits like any
    other structural entry.  Never used by :meth:`Session.run` — a direct run
    must actually mutate its module.
    """
    cache = session._result_cache
    signature = key = None
    if memoize:
        signature = module_signature(module)
        key = _suite_job_key(
            cache, signature, spec, check, session.engine, session.options
        )
        replayed = _replay_suite_job(
            cache, key, module.name, session._cache_totals
        )
        if replayed is not None:
            return replayed, signature
    report = session.run(spec, check=check)
    if key is not None:
        # strip instance-local fields so the stored value is pure and
        # name-free (the replay fills them back in for its own module)
        cache.store(key, replace(report, case_name="", cache_stats={}))
    return report, signature


def _suite_process_job(
    case_name: str,
    source: CaseSource,
    spec: FlowSpec,
    options: Optional[SmartlyOptions],
    check: bool,
    engine: str,
    snapshot: Optional[Dict[Tuple, Any]] = None,
) -> Tuple[RunReport, Dict[Tuple, Any]]:
    """Top-level worker for ``executor="process"`` (must be picklable).

    A pickled Module *is* already a private copy, so no extra clone is
    needed; factories build fresh modules inside the worker.  The worker
    session reads through ``snapshot``, the parent's structural-signature
    entries; the second return value is the worker's delta (the entries
    it computed itself), merged back by the parent so the next suite
    starts warmer still.
    """
    module = source() if callable(source) else source
    session = Session(module, options=options, engine=engine)
    if snapshot is not None:
        session.read_through(snapshot)
    report, _signature = _run_suite_job(
        session, module, spec, check, memoize=snapshot is not None,
    )
    delta = session.export_cache() if snapshot is not None else {}
    return report, delta


def suite_cases(
    names: Sequence[str], build: Callable[[str], Module]
) -> Dict[str, Callable[[], Module]]:
    """Build a :meth:`Session.run_suite` case mapping from names + builder.

    Each factory calls ``build(name)`` inside the worker, so construction
    parallelizes and no late-binding lambda pitfalls leak to callers.
    ``functools.partial`` (not a lambda) keeps the factories picklable for
    ``run_suite(..., executor="process")``::

        Session().run_suite(suite_cases(CASE_NAMES, build_case), flows)
    """
    import functools

    return {name: functools.partial(build, name) for name in names}


__all__ = [
    "CaseSource",
    "EquivalenceError",
    "HierarchyReport",
    "PassRecord",
    "RunReport",
    "Session",
    "SuiteReport",
    "suite_cases",
]
