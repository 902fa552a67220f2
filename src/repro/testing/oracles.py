"""Failure oracles: every differential fuzz lane as a pure predicate.

An oracle classifies a module (or design) with a single deterministic
``probe`` call::

    label = oracle.probe(target)   # "pass", or a failure label

``"pass"`` (:data:`PASS`) means the lane sees nothing wrong; any other
string names the failure mode (``"cec:counterexample"``,
``"divergence:area"``, ``"crash:KeyError"``, ...).  The reducer
(:mod:`repro.testing.reduce`) records the label of the original failing
case and only accepts shrunk candidates that fail with the *same* label
— "still fails" is never allowed to drift into "fails differently".

Probes never mutate their argument (each lane runs on private clones)
and never raise: unexpected exceptions become ``crash:<ExcType>``
labels, which makes crashes themselves reducible.

The registry mirrors the differential lanes (the harness's CEC lane
reports a crash of its flow or of its check as ``crash:<ExcType>``):

========== ========================================================
name        failure condition
========== ========================================================
cec         flow result not SAT-equivalent to the input (or undecided)
divergence  incremental and eager engines disagree on optimized area
seeded      seeded re-run area differs from an eager rerun after edits
roundtrip   Yosys-JSON ``read(write(m))`` changes the struct signature
crash       the flow raises at all
hier-cec    design scope: ``run_hierarchy`` result not CEC-equivalent
========== ========================================================
"""

from __future__ import annotations

import inspect
import random
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from ..ir.cells import CellType
from ..ir.design import Design
from ..ir.module import Module
from ..ir.signals import SigSpec, const_bit

if TYPE_CHECKING:  # pragma: no cover - the flow and equiv layers import late
    from ..equiv.cec import EquivResult
    from ..flow.session import RunReport
    from ..sat.oracle import SatOracle

#: the label meaning "this case does not fail the oracle"
PASS = "pass"


def _crash_label(exc: BaseException) -> str:
    return f"crash:{type(exc).__name__}"


class Oracle:
    """Base interestingness predicate (see module docs for the protocol)."""

    #: registry key (subclasses override)
    name = "oracle"
    #: "module" or "design" — what :meth:`probe` expects
    scope = "module"
    #: one-line human description for CLI/docs listings
    description = ""

    def __init__(self, flow: str = "smartly", options=None):
        self.flow = flow
        self.options = options

    def probe(self, target) -> str:
        raise NotImplementedError

    def __call__(self, target) -> str:
        return self.probe(target)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(flow={self.flow!r})"

    # -- shared lane plumbing -------------------------------------------------

    def _session(self, target, engine: str = "incremental"):
        from ..flow.session import Session

        return Session(target, engine=engine, options=self.options)


ORACLES: Dict[str, type] = {}


def _register(cls: type) -> type:
    ORACLES[cls.name] = cls
    return cls


def _cec_label(result: "EquivResult") -> str:
    if result.undecided:
        return "cec:undecided"
    return PASS if result.equivalent else "cec:counterexample"


@_register
class CecOracle(Oracle):
    """The main lane: optimize a clone, SAT-compare against the input.

    ``undecided`` (conflict budget exhausted) is a distinct failure label
    from a concrete counterexample — the reducer will not shrink a
    mismatch into a timeout or vice versa.
    """

    name = "cec"
    description = "flow output not SAT-equivalent to the input module"

    def __init__(self, flow: str = "smartly", options=None,
                 max_conflicts: Optional[int] = None):
        super().__init__(flow, options)
        self.max_conflicts = max_conflicts

    def check(
        self, target: Module, oracle: Optional["SatOracle"] = None
    ) -> Tuple[str, Optional["RunReport"], Optional["EquivResult"]]:
        """:meth:`probe`'s label with the flow's report and the check's
        result, each None when a step raised before it; ``oracle`` counts
        the check's SAT work (a fresh one when None)."""
        from ..equiv.cec import check_equivalence

        work = target.clone()
        run = None
        try:
            run = self._session(work).run(self.flow)
            result = check_equivalence(
                target, work, max_conflicts=self.max_conflicts, oracle=oracle
            )
        except Exception as exc:
            return _crash_label(exc), run, None
        return _cec_label(result), run, result

    def probe(self, target: Module) -> str:
        return self.check(target)[0]


@_register
class DivergenceOracle(Oracle):
    """Eager-vs-incremental lane: both engines must reach the same area."""

    name = "divergence"
    description = "incremental and eager engines disagree on optimized area"

    def probe(self, target: Module) -> str:
        inc = target.clone()
        eag = target.clone()
        try:
            inc_report = self._session(inc, engine="incremental").run(self.flow)
            eag_report = self._session(eag, engine="eager").run(self.flow)
        except Exception as exc:
            return _crash_label(exc)
        if inc_report.optimized_area != eag_report.optimized_area:
            return "divergence:area"
        return PASS


def _plan_edits(module: Module, rng: random.Random, n: int = 3):
    """Name-addressed edit plans (the seeded-rerun lane's mutation menu)."""
    comb = [
        name for name in sorted(module.cells)
        if module.cells[name].is_combinational
        and "A" in module.cells[name].connections
    ]
    muxes = [
        name for name in comb
        if module.cells[name].type is CellType.MUX
    ]
    plans = []
    for _ in range(n):
        if muxes and rng.random() < 0.6:
            plans.append(("pin_s", rng.choice(muxes), rng.randint(0, 1)))
        elif comb:
            plans.append(("pin_a0", rng.choice(comb), rng.randint(0, 1)))
    return plans


def _apply_edits(module: Module, plans) -> int:
    """Replay plans through the notifying edit APIs (the supported path)."""
    applied = 0
    for kind, name, value in plans:
        cell = module.cells.get(name)
        if cell is None:
            continue
        if kind == "pin_s" and cell.type is CellType.MUX:
            cell.set_port("S", value)
            applied += 1
        elif kind == "pin_a0" and "A" in cell.connections:
            bits = list(cell.connections["A"])
            bits[0] = const_bit(value)
            cell.set_port("A", SigSpec(bits))
            applied += 1
    return applied


@_register
class SeededRerunOracle(Oracle):
    """Seeded-rerun lane: optimize, edit, and cross-check the session's
    seeded re-run against an eager full re-run from the identical edited
    state.  Edits are drawn deterministically from the module's own cell
    names (fixed rng seed), so the probe is a pure function of structure.
    """

    name = "seeded"
    description = "seeded incremental re-run diverges from an eager rerun"

    #: fixed plan seed — probes must be reproducible per candidate
    PLAN_SEED = 0x5EED

    def probe(self, target: Module) -> str:
        work = target.clone()
        try:
            session = self._session(work, engine="incremental")
            session.run(self.flow)
            twin = work.clone()
            plans = _plan_edits(work, random.Random(self.PLAN_SEED))
            if _apply_edits(work, plans) == 0:
                return PASS  # nothing to re-run incrementally
            _apply_edits(twin, plans)
            seeded = session.run(self.flow)
            full = self._session(twin, engine="eager").run(self.flow)
        except Exception as exc:
            return _crash_label(exc)
        if seeded.optimized_area != full.optimized_area:
            return "seeded:area"
        return PASS


@_register
class RoundtripOracle(Oracle):
    """Yosys-JSON lane: export + re-ingest must preserve the structural
    signature exactly (the exporter/reader pair may not rewrite anything).
    """

    name = "roundtrip"
    description = "Yosys-JSON write/read changes the structural signature"

    def probe(self, target: Module) -> str:
        from ..frontend.yosys_json import read_yosys_json
        from ..ir.json_writer import yosys_json_str
        from ..ir.struct_hash import module_signature

        try:
            restored = read_yosys_json(yosys_json_str(target)).top
            identical = (
                module_signature(restored) == module_signature(target)
            )
        except Exception as exc:
            return f"roundtrip:error:{type(exc).__name__}"
        return PASS if identical else "roundtrip:signature"


@_register
class CrashOracle(Oracle):
    """Exception-capture lane: the flow must complete at all."""

    name = "crash"
    description = "running the flow raises an exception"

    def probe(self, target: Module) -> str:
        work = target.clone()
        try:
            self._session(work).run(self.flow)
        except Exception as exc:
            return _crash_label(exc)
        return PASS


@_register
class HierCecOracle(Oracle):
    """Design scope: ``run_hierarchy`` over a clone, then CEC every module
    the run touched against the pre-optimization golden clone.

    Labels are deliberately name-free ("cec:counterexample", not
    "cec:counterexample:alu0"): pruning instances may move *which* module
    exhibits the bug without changing what the bug is.
    """

    name = "hier-cec"
    scope = "design"
    description = "hierarchical flow result not CEC-equivalent per module"

    def __init__(self, flow: str = "smartly", options=None,
                 max_conflicts: Optional[int] = None):
        super().__init__(flow, options)
        self.max_conflicts = max_conflicts

    def probe(self, target: Design) -> str:
        from ..equiv.cec import check_equivalence

        golden = target.clone()
        work = target.clone()
        try:
            report = self._session(work).run_hierarchy(self.flow)
            for name in report.order:
                label = _cec_label(check_equivalence(
                    golden[name], work[name], max_conflicts=self.max_conflicts
                ))
                if label != PASS:
                    return label
        except Exception as exc:
            return _crash_label(exc)
        return PASS


#: registered oracle names, stable order (see the table in the module docs)
ORACLE_NAMES = tuple(sorted(ORACLES))


def get_oracle(name: str, *, flow: str = "smartly", options=None,
               max_conflicts: Optional[int] = None) -> Oracle:
    """Instantiate a registered oracle by name.

    ``max_conflicts`` budgets the SAT check of the oracles that take it
    (``cec``, ``hier-cec``); the others have no SAT check and ignore it.
    Unknown names raise ``ValueError`` with the available choices.
    """
    cls = ORACLES.get(name)
    if cls is None:
        raise ValueError(
            f"unknown oracle {name!r}; choose from {', '.join(ORACLE_NAMES)}"
        )
    if "max_conflicts" in inspect.signature(cls).parameters:
        return cls(flow=flow, options=options, max_conflicts=max_conflicts)
    return cls(flow=flow, options=options)


__all__ = [
    "PASS",
    "ORACLES",
    "ORACLE_NAMES",
    "Oracle",
    "CecOracle",
    "CrashOracle",
    "DivergenceOracle",
    "HierCecOracle",
    "RoundtripOracle",
    "SeededRerunOracle",
    "get_oracle",
]
