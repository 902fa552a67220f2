"""smaRTLy reproduction — RTL multiplexer optimization with logic
inferencing and structural rebuilding (DAC 2025).

Public API
----------
``repro.api``
    The stable surface: :class:`~repro.flow.session.Session` (owns a design,
    caches baselines, runs flows, parallel ``run_suite``),
    :class:`~repro.flow.spec.FlowSpec` (declarative pipelines parsed from
    Yosys-like scripts, with the paper's five configurations as presets), the
    JSON-serializable :class:`~repro.flow.session.RunReport`, and the
    structured event channel from :mod:`repro.events`.

    >>> from repro.api import Session
    >>> report = Session.from_verilog(src).run("opt_expr; smartly k=6; opt_clean")

Subpackages
-----------
``repro.ir``
    Word-level RTL netlist IR (wires, cells, modules, builder, walkers).
``repro.frontend``
    Verilog-subset lexer/parser/elaborator producing IR netlists.
``repro.sim``
    Three-valued and vector simulation.
``repro.sat``
    MiniSAT-style CDCL SAT solver, CNF containers, Tseitin encoding.
``repro.aig``
    Structurally-hashed And-Inverter Graph and the ``aigmap`` bit-blaster.
``repro.opt``
    Pass framework and baseline passes, including the Yosys ``opt_muxtree``
    reimplementation.
``repro.core``
    The paper's contribution: SAT-based redundancy elimination and
    ADD-based muxtree restructuring.
``repro.equiv``
    SAT-based combinational equivalence checking.
``repro.workloads``
    Synthetic benchmark circuit generators (IWLS-2005/RISC-V models and the
    industrial benchmark).
``repro.flow``
    FlowSpec/Session implementation, the serve daemon, and the Table II/III
    report renderers.
``repro.events``
    Structured progress events (bus, log, print/JSON-lines observers).
"""

__version__ = "1.1.0"
