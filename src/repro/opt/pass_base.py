"""Pass framework: passes, results, dirty sets, and a registry/manager.

Passes edit modules in place and report what they changed.  The manager
runs named pipelines and accumulates per-pass statistics — enough structure
to express the paper's flows (``yosys`` baseline vs the three ``smartly``
variants) without a scripting language.

Two execution engines:

* **eager** (``PassManager(..., incremental=False)``) — the historic
  reference behaviour: every fixpoint round re-runs every pass over the
  whole module, and each pass rebuilds its own :class:`NetIndex` snapshot
  at entry;
* **incremental** (the default) — passes share the module's live
  :meth:`~repro.ir.module.Module.net_index`, every :class:`PassResult`
  records the cells/bits its pass touched (collected automatically through
  the module's edit-notification channel), and fixpoint rounds after the
  first seed each pass with only the previous round's edits.  Each pass
  expands that seed to its own fanin/fanout closure (``dirty_radius`` cell
  hops — e.g. the SAT stage uses its sub-graph radius ``k + 1``), so
  converged regions are never re-swept.

A pass without its own :meth:`Pass.execute_incremental` runs
:meth:`Pass.execute` in both engines, which keeps the two engines
byte-identical on final netlist areas.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Set

from ..ir import module as module_mod
from ..ir.module import Module, ModuleEdit
from ..ir.signals import BIT0, BIT1, BITX, SigBit


def prefixed(prefix: str, counts: Mapping[str, int]) -> Dict[str, int]:
    """``counts`` with ``prefix`` put before every key: how an owner
    reports a part's counters (``"oracle_"``, ``"store_"``, a pass path)
    under its own names."""
    return {f"{prefix}{key}": value for key, value in counts.items()}


@dataclass
class PassResult:
    """What one pass invocation did."""

    pass_name: str
    changed: bool = False
    #: free-form counters, e.g. {"cells_removed": 12}
    stats: Counter = field(default_factory=Counter)
    runtime_s: float = 0.0
    #: names of cells added/removed/rewired (auto-recorded from the module's
    #: edit channel while the pass ran); seeds the next round's dirty set
    touched_cells: Set[str] = field(default_factory=set)
    #: the *downstream frontier*: output bits of edited/added cells —
    #: everything whose fanin structure changed lies in the fanout cones of
    #: these bits.  Alias (connect) lhs bits are NOT here: they land in
    #: ``touched_fanin_bits`` because their class merges into the rhs
    #: representative, whose sibling readers are untouched; a pass that
    #: aliases a net away must report the net's true readers itself via
    #: :meth:`touch_readers`
    touched_bits: Set[SigBit] = field(default_factory=set)
    #: input-side bits of edits (old/new port specs, removed-cell inputs,
    #: alias rhs); only their *drivers* can be affected (fanout-1
    #: classification, dead-code candidacy), so the closure never walks
    #: their fanout — that would drag in every sibling reader of a shared
    #: input and make the dirty set degenerate to the whole module
    touched_fanin_bits: Set[SigBit] = field(default_factory=set)

    def bump(self, key: str, amount: int = 1) -> None:
        """Count *work done*: a non-zero bump marks the module as changed."""
        self.stats[key] += amount
        if amount:
            self.changed = True

    def note(self, key: str, amount: int = 1) -> None:
        """Count an *observation* (queries posed, gates skipped, ...).

        Unlike :meth:`bump`, notes never set ``changed`` — a pass that only
        asked questions has not modified the netlist, and flagging it as a
        change used to keep fixpoint loops spinning until ``max_rounds``
        even though the module had long converged.
        """
        self.stats[key] += amount

    def touch_readers(self, names) -> None:
        """Record the pre-edit readers of a rewritten net by name.

        When a pass aliases a net away (``connect`` + ``remove_cell``), the
        automatic recorder cannot tell the net's true readers apart from
        the sibling readers of whatever class it merged into, so the pass —
        which knows them exactly — reports them here.
        """
        self.touched_cells.update(names)

    def merge(self, other: "PassResult", prefix: str = "") -> None:
        """Fold ``other`` in; its counters land under ``prefix``."""
        self.stats.update(prefixed(prefix, other.stats))
        self.changed = self.changed or other.changed
        self.runtime_s += other.runtime_s
        self.touched_cells |= other.touched_cells
        self.touched_bits |= other.touched_bits
        self.touched_fanin_bits |= other.touched_fanin_bits


#: the constant bits, which no closure frontier holds
_CONSTS = frozenset((BIT0, BIT1, BITX))


@dataclass
class DirtySet:
    """The seed of one incremental round: edits from the previous round."""

    cells: Set[str] = field(default_factory=set)
    bits: Set[SigBit] = field(default_factory=set)

    fanin_bits: Set[SigBit] = field(default_factory=set)

    def __bool__(self) -> bool:
        return bool(self.cells or self.bits or self.fanin_bits)

    def absorb(self, result: PassResult) -> None:
        self.cells |= result.touched_cells
        self.bits |= result.touched_bits
        self.fanin_bits |= result.touched_fanin_bits

    def union(self, other: "DirtySet") -> "DirtySet":
        return DirtySet(
            self.cells | other.cells,
            self.bits | other.bits,
            self.fanin_bits | other.fanin_bits,
        )

    def closure(self, index, radius: int = 1) -> Set[str]:
        """Names of cells whose analysis may differ after the edits.

        Three contributions:

        * the touched cells themselves (still-existing ones);
        * drivers and readers of the ``radius``-deep *fanout* cone of the
          frontier bits — an edit changes the fanin structure of exactly
          the logic downstream of the edited outputs, so a pass whose
          verdicts look ``radius`` cell hops upstream (e.g. the SAT
          stage's sub-graph radius ``k``) must revisit that cone;
        * drivers of the input-side bits (a cell that lost a reader can
          change fanout-1 classification or die).  Their *fanout* is
          deliberately not walked: sibling readers of a shared input are
          untouched by construction, and walking them would degenerate
          the closure to the whole module.
        """
        get = index.sigmap.get
        module = index.module
        driver = index.driver
        names: Set[str] = set()
        frontier: Set[SigBit] = set(map(get, self.bits, self.bits))
        for name in self.cells:
            cell = module.cells.get(name)
            if cell is None:
                continue
            names.add(name)
            bits = cell.output_bits()
            frontier.update(map(get, bits, bits))
        frontier.difference_update(_CONSTS)
        if frontier:
            readers = index.readers
            for cbit in index.fanout_cone(frontier, max_depth=radius):
                entry = driver.get(cbit)
                if entry is not None:
                    names.add(entry[0].name)
                for cell, _port, _off in readers.get(cbit, ()):
                    names.add(cell.name)
        for cbit in map(get, self.fanin_bits, self.fanin_bits):
            entry = driver.get(cbit)
            if entry is not None:
                names.add(entry[0].name)
        return names

    def dead_candidates(self, index) -> Set[str]:
        """Cells that may have *become* dead: a cell dies only by losing a
        reader, so candidates are the drivers of every recorded bit plus
        the touched cells themselves — no cone walk at all."""
        get = index.sigmap.get
        driver = index.driver
        module = index.module
        names = {name for name in self.cells if name in module.cells}
        bits = self.bits | self.fanin_bits
        for cbit in map(get, bits, bits):
            entry = driver.get(cbit)
            if entry is not None:
                names.add(entry[0].name)
        return names


def _touch_recorder(result: PassResult) -> Callable[[ModuleEdit], None]:
    """A module listener accumulating a pass's touched cells/bits.

    Output-side bits (edited cells' outputs, alias lhs) land in
    ``touched_bits`` — the frontier whose fanout the closure walks.
    Input-side bits (rewired port specs, removed-cell inputs, alias rhs)
    land in ``touched_fanin_bits`` — only their drivers are revisited.
    """
    def frontier(spec) -> None:
        for bit in spec:
            if not bit.is_const:
                result.touched_bits.add(bit)

    def fanin(spec) -> None:
        for bit in spec:
            if not bit.is_const:
                result.touched_fanin_bits.add(bit)

    def record(edit: ModuleEdit) -> None:
        kind = edit.kind
        if kind == module_mod.PORT_CHANGED:
            cell = edit.cell
            result.touched_cells.add(cell.name)
            if edit.port in cell.output_ports:
                if edit.old is not None:
                    frontier(edit.old)
                frontier(edit.new)
            else:
                if edit.old is not None:
                    fanin(edit.old)
                fanin(edit.new)
        elif kind == module_mod.CELL_ADDED:
            cell = edit.cell
            result.touched_cells.add(cell.name)
            outs = cell.output_ports
            for pname, spec in edit.ports.items():
                if pname in outs:
                    frontier(spec)
                else:
                    fanin(spec)
        elif kind == module_mod.CELL_REMOVED:
            # removed outputs are usually already aliased into a surviving
            # class (often a shared input) — walking that class's fanout
            # would dirty every sibling reader, so only drivers are kept;
            # the pass records the net's true pre-edit readers itself
            # (see PassResult.touch_readers)
            result.touched_cells.add(edit.cell.name)
            for spec in edit.ports.values():
                fanin(spec)
        elif kind == module_mod.CONNECTED:
            # same reasoning: the alias map keeps the rhs representative,
            # and the affected lhs-class readers are recorded by the pass
            fanin(edit.lhs)
            fanin(edit.rhs)

    return record


class Pass:
    """Base class: subclasses implement :meth:`execute`."""

    #: registry name; subclasses must override
    name = "pass"
    #: cell-hop radius of the fanin/fanout closure this pass needs around
    #: an edit to notice every new opportunity it could create
    dirty_radius = 1

    @classmethod
    def option_defaults(cls) -> Dict[str, Any]:
        """The options a flow script may give this pass, each with its
        default: the named parameters of its constructor."""
        return {
            name: param.default
            for name, param in inspect.signature(cls).parameters.items()
            if param.kind in (param.POSITIONAL_OR_KEYWORD, param.KEYWORD_ONLY)
        }

    def execute(self, module: Module, result: PassResult) -> None:
        raise NotImplementedError

    def execute_incremental(
        self, module: Module, result: PassResult, dirty: Optional[DirtySet]
    ) -> None:
        """Incremental entry point: ``dirty=None`` means a full (seeding)
        sweep; otherwise only the dirty closure needs revisiting.  The
        default ignores the seed and runs the eager implementation, so
        incremental-unaware passes stay correct inside the new engine."""
        self.execute(module, result)

    def run(
        self,
        module: Module,
        dirty: Optional[DirtySet] = None,
        incremental: bool = False,
    ) -> PassResult:
        result = PassResult(self.name)
        recorder = module.add_listener(_touch_recorder(result))
        start = time.perf_counter()
        try:
            if incremental:
                self.execute_incremental(module, result, dirty)
            else:
                self.execute(module, result)
        finally:
            module.remove_listener(recorder)
        result.runtime_s = time.perf_counter() - start
        return result

    def __repr__(self) -> str:
        return f"<Pass {self.name}>"


_REGISTRY: Dict[str, Callable[..., Pass]] = {}


def register_pass(factory: Callable[..., Pass]) -> Callable[..., Pass]:
    """Class decorator registering a pass under its ``name`` attribute."""
    _REGISTRY[factory.name] = factory
    return factory


def _ensure_registered() -> None:
    """Import every pass-defining module so the registry is complete."""
    import importlib

    for module in ("repro.opt", "repro.core"):
        importlib.import_module(module)


def make_pass(name: str, **options) -> Pass:
    _ensure_registered()
    if name not in _REGISTRY:
        raise KeyError(f"unknown pass {name!r}; known: {sorted(_REGISTRY)}")
    return _REGISTRY[name](**options)


def known_passes() -> List[str]:
    _ensure_registered()
    return sorted(_REGISTRY)


def pass_option_defaults(name: str) -> Dict[str, Any]:
    """The options the registered pass ``name`` takes, each with its
    default (:meth:`Pass.option_defaults`)."""
    _ensure_registered()
    return _REGISTRY[name].option_defaults()


class PassManager:
    """Runs a pipeline of passes, optionally to a fixpoint.

    Progress is reported through a structured :class:`~repro.events.EventBus`
    (``pipeline_started`` / ``pass_started`` / ``pass_finished`` /
    ``round_finished`` / ``round_converged`` / ``round_limit_reached`` /
    ``pipeline_finished``); subscribe a :class:`~repro.events.PrintObserver`
    to the bus for human-readable per-pass lines.

    ``incremental=True`` (the default) runs the dirty-set engine: the first
    fixpoint round sweeps everything, later rounds seed each pass with the
    closure of the previous round's edits (plus edits made earlier in the
    same round).  ``incremental=False`` is the eager escape hatch that
    preserves the historic whole-module behaviour for differential testing.

    After :meth:`run`, :attr:`converged` tells whether the pipeline reached
    a fixpoint: ``False`` means ``max_rounds`` was exhausted while passes
    were still changing the module — previously indistinguishable from
    convergence; now also announced with a ``round_limit_reached`` event.
    """

    def __init__(
        self,
        passes: Sequence[Pass],
        events: Optional["EventBus"] = None,
        name: str = "pipeline",
        incremental: bool = True,
    ):
        from ..events import EventBus

        self.passes = list(passes)
        self.name = name
        self.incremental = incremental
        self.history: List[PassResult] = []
        #: rounds executed by the most recent :meth:`run`
        self.rounds_run = 0
        #: whether the most recent :meth:`run` reached a fixpoint (always
        #: True for single-shot runs; False when max_rounds cut it short)
        self.converged = True
        #: dirty-set engine counters from the most recent :meth:`run`
        self.dirty_stats: Counter = Counter()
        self.events = events if events is not None else EventBus()

    @property
    def engine(self) -> str:
        return "incremental" if self.incremental else "eager"

    def run(
        self,
        module: Module,
        fixpoint: bool = False,
        max_rounds: int = 16,
        seed: Optional[DirtySet] = None,
    ) -> bool:
        """Run the pipeline once, or until nothing changes.  Returns whether
        anything changed at all.

        ``seed`` (incremental engine only) starts the *first* round from a
        dirty set instead of a full module sweep: the design-scope engine
        passes the edits made to a module since its last converged run of
        the same pipeline, so re-runs never re-sweep converged regions.
        The caller owns the precondition that the module was at a fixpoint
        of this pipeline before those edits — exactly the invariant
        :class:`repro.flow.session.Session` tracks through the design edit
        channel.  Ignored by the eager engine.

        When the run ends, the module's live index (if it has one) drops
        its alias map's dead entries once they dominate
        (:meth:`~repro.ir.walker.NetIndex.maybe_compact`).
        """
        emit = self.events.emit
        emit(
            "pipeline_started",
            pipeline=self.name,
            passes=[pass_.name for pass_ in self.passes],
            fixpoint=fixpoint,
            max_rounds=max_rounds if fixpoint else 1,
            module=module.name,
            engine=self.engine,
        )
        any_change = False
        rounds = 0
        round_change = False
        # previous round's edits; a caller-provided seed plays that role
        # for round 0 (cross-run incrementality)
        carry: Optional[DirtySet] = seed if self.incremental else None
        dirty_stats = Counter(
            full_rounds=0, incremental_rounds=0,
            dirty_seed_cells=0, dirty_seed_bits=0,
        )
        if carry is not None:
            dirty_stats["seeded_runs"] = 1
        self.converged = True
        for round_no in range(max_rounds if fixpoint else 1):
            round_change = False
            round_touched = DirtySet()
            if self.incremental and carry is not None:
                dirty_stats["incremental_rounds"] += 1
                dirty_stats["dirty_seed_cells"] += len(carry.cells)
                dirty_stats["dirty_seed_bits"] += len(carry.bits) + len(
                    carry.fanin_bits
                )
            else:
                dirty_stats["full_rounds"] += 1
            for pass_ in self.passes:
                emit(
                    "pass_started",
                    pipeline=self.name,
                    **{"pass": pass_.name},
                    round=round_no,
                    module=module.name,
                )
                if self.incremental:
                    # a pass also sees edits made earlier in its own round
                    seed = None if carry is None else carry.union(round_touched)
                    result = pass_.run(module, dirty=seed, incremental=True)
                else:
                    result = pass_.run(module)
                round_touched.absorb(result)
                self.history.append(result)
                emit(
                    "pass_finished",
                    pipeline=self.name,
                    **{"pass": result.pass_name},
                    round=round_no,
                    module=module.name,
                    changed=result.changed,
                    stats=dict(result.stats),
                    runtime_s=result.runtime_s,
                )
                round_change = round_change or result.changed
            rounds = round_no + 1
            emit(
                "round_finished",
                pipeline=self.name,
                round=round_no,
                module=module.name,
                changed=round_change,
                touched_cells=len(round_touched.cells),
            )
            any_change = any_change or round_change
            if not round_change:
                if fixpoint:
                    emit(
                        "round_converged",
                        pipeline=self.name,
                        rounds=rounds,
                        module=module.name,
                    )
                break
            carry = round_touched
        if fixpoint and rounds == max_rounds and round_change:
            self.converged = False
            emit(
                "round_limit_reached",
                pipeline=self.name,
                rounds=rounds,
                max_rounds=max_rounds,
                module=module.name,
            )
        self.rounds_run = rounds
        self.dirty_stats = dirty_stats
        # the carry's raw bits are gone and no frozen window is open: the
        # one point where the live alias map may drop its dead entries
        index = module._net_index
        if index is not None:
            index.maybe_compact()
        emit(
            "pipeline_finished",
            pipeline=self.name,
            rounds=rounds,
            module=module.name,
            changed=any_change,
            converged=self.converged,
        )
        return any_change

    def total_stats(self) -> Counter:
        """Every pass's counters summed under ``<pass name>.<key>``."""
        totals: Counter = Counter()
        for result in self.history:
            totals.update(prefixed(f"{result.pass_name}.", result.stats))
        return totals
