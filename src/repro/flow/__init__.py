"""Flows: the declarative Session/FlowSpec API and the Table II/III/
industrial report renderers."""

from .reports import render_industrial, render_table2, render_table3
from .serve import FlowServer, serve_socket, serve_stdin
from .session import (
    EquivalenceError,
    PassRecord,
    RunReport,
    Session,
    SuiteReport,
    suite_cases,
)
from .spec import (
    FlowScriptError,
    FlowSpec,
    PassStep,
    PRESET_NAMES,
    PRESETS,
    resolve_flow,
)
from .sweep import (
    PRESET_WORKLOADS,
    PRESET_WORKLOAD_NAMES,
    SweepPoint,
    SweepReport,
    expand_grid,
    preset_workloads,
    run_sweep,
)
from .workers import JobOutcome, WorkerPool, run_job

__all__ = [
    "EquivalenceError",
    "FlowScriptError",
    "FlowServer",
    "FlowSpec",
    "JobOutcome",
    "PRESETS",
    "PRESET_NAMES",
    "PRESET_WORKLOADS",
    "PRESET_WORKLOAD_NAMES",
    "PassRecord",
    "PassStep",
    "RunReport",
    "Session",
    "SuiteReport",
    "SweepPoint",
    "SweepReport",
    "WorkerPool",
    "expand_grid",
    "preset_workloads",
    "run_sweep",
    "render_industrial",
    "render_table2",
    "render_table3",
    "resolve_flow",
    "run_job",
    "serve_socket",
    "serve_stdin",
    "suite_cases",
]
