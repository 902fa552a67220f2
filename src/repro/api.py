"""``repro.api`` — the stable public surface of the library.

Everything a tool builder needs in one import::

    from repro.api import FlowSpec, Session

    session = Session.from_verilog(source)
    report = session.run(FlowSpec.parse("opt_expr; smartly k=6; opt_clean"),
                         check=True)
    print(report.to_json(indent=2))

* :class:`FlowSpec` — declarative pipelines: parse Yosys-like scripts,
  compose programmatically, or pick one of the five presets
  (:data:`PRESET_NAMES`).
* :class:`Session` — owns a :class:`~repro.ir.design.Design`, caches
  pre-optimization baselines, runs flows over modules, returns
  :class:`RunReport` records, fans suites out in parallel via
  :meth:`Session.run_suite`, and optimizes instance trees bottom-up
  with isomorphic-class replay via :meth:`Session.run_hierarchy`
  (returning :class:`HierarchyReport`).
* Hierarchy IR — :func:`hierarchy` elaborates an instance tree
  (:class:`HierarchyInfo`), :func:`flatten` inlines it, and both raise
  :class:`HierarchyError` on malformed trees.
* :mod:`repro.events` re-exports — the structured progress channel
  (:class:`EventBus`, :class:`EventLog`, :class:`PrintObserver`).
* Persistence — :class:`~repro.core.store.CacheStore` (the
  content-addressed on-disk cache store behind ``Session(store_path=)``),
  the :func:`~repro.core.store.atomic_write_text` /
  :func:`~repro.core.store.atomic_write_bytes` crash-safe artifact
  writers, and :class:`~repro.flow.serve.FlowServer` — the ``cli serve``
  JSON-lines daemon multiplexing flow jobs onto warm-started sessions.
* Robustness — :class:`~repro.flow.workers.WorkerPool` (the supervised
  worker-subprocess pool behind ``serve --isolation process``) and the
  :mod:`repro.core.faults` chaos registry (:data:`~repro.core.faults.
  FAULT_NAMES`, :class:`~repro.core.faults.InjectedFault`) that proves
  the serve layer's survival invariants on demand.

``Session(module).run(preset_or_spec)`` is the one way to run a flow; it
mutates the session's module in place, so clone first to keep the input.
"""

from .core.faults import (
    FAULT_NAMES,
    FaultError,
    FaultSpec,
    InjectedFault,
)
from .core.smartly import SmartlyOptions
from .events import (
    EventBus,
    EventLog,
    FlowEvent,
    JsonLinesObserver,
    PrintObserver,
)
from .core.store import CacheStore, atomic_write_bytes, atomic_write_text
from .flow.reports import render_industrial, render_table2, render_table3
from .flow.serve import FlowServer, serve_socket, serve_stdin
from .flow.session import (
    EquivalenceError,
    HierarchyReport,
    PassRecord,
    RunReport,
    Session,
    SuiteReport,
    suite_cases,
)
from .flow.spec import (
    FlowScriptError,
    FlowSpec,
    PassStep,
    PRESET_NAMES,
    PRESETS,
    resolve_flow,
)
from .flow.sweep import (
    PRESET_WORKLOADS,
    PRESET_WORKLOAD_NAMES,
    SweepPoint,
    SweepReport,
    expand_grid,
    preset_workloads,
    run_sweep,
)
from .flow.workers import JobOutcome, WorkerPool
from .frontend.yosys_json import YosysJsonError, load_yosys_json, read_yosys_json
from .ir.design import Design
from .ir.json_writer import write_yosys_json, yosys_json_dict, yosys_json_str
from .ir.hierarchy import HierarchyError, HierarchyInfo, flatten, hierarchy

__all__ = [
    "CacheStore",
    "Design",
    "EquivalenceError",
    "FAULT_NAMES",
    "FaultError",
    "FaultSpec",
    "HierarchyError",
    "HierarchyInfo",
    "HierarchyReport",
    "EventBus",
    "EventLog",
    "FlowEvent",
    "FlowScriptError",
    "FlowServer",
    "FlowSpec",
    "InjectedFault",
    "JobOutcome",
    "JsonLinesObserver",
    "PRESETS",
    "PRESET_NAMES",
    "PRESET_WORKLOADS",
    "PRESET_WORKLOAD_NAMES",
    "PassRecord",
    "PassStep",
    "PrintObserver",
    "RunReport",
    "Session",
    "SmartlyOptions",
    "SuiteReport",
    "SweepPoint",
    "SweepReport",
    "WorkerPool",
    "YosysJsonError",
    "atomic_write_bytes",
    "atomic_write_text",
    "expand_grid",
    "flatten",
    "hierarchy",
    "load_yosys_json",
    "preset_workloads",
    "read_yosys_json",
    "render_industrial",
    "render_table2",
    "render_table3",
    "resolve_flow",
    "run_sweep",
    "serve_socket",
    "serve_stdin",
    "suite_cases",
    "write_yosys_json",
    "yosys_json_dict",
    "yosys_json_str",
]
