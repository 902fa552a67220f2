"""ddmin-style delta-debugging reducer over IR modules and designs.

Given a failing case and an oracle (:mod:`repro.testing.oracles`), the
reducer shrinks the case while the oracle keeps failing *with the same
label*.  The shrink passes, to a fixpoint:

1. **prune_dead** — drop every cell outside the observable cone in one
   probe (cheap opening move on bloated fuzz modules);
2. **drop_cells** — ddmin chunked removal over the topological cell
   order, each chunk widened to its fanout closure so candidates never
   need repair; granularity doubles when a sweep makes no progress;
3. **drop_cell** — single-cell removals to a fixpoint, leaving readers
   on undriven bits (first-class sources everywhere in the codebase),
   which guarantees 1-minimality over cells;
4. **constify_inputs** — ddmin over free input bits tied to constants;
5. **merge_inputs** — alias remaining input bits to one representative;
6. **narrow_ports** — rewrite readers off dead input-bit positions and
   shrink the port wire;
7. **prune_instance** / **drop_module** (design scope) — remove
   hierarchy instances, then unreferenced child modules;
8. **rename_normalize** — one final rebuilt candidate with canonical
   ``i*/o*/n*/c*`` names in topological order (byte-stable output).

Every candidate is a clone of the current best edited **through the
notifying Module/Design APIs** with a live
:class:`~repro.ir.walker.NetIndex` attached and
``check_consistent()``-verified before probing — each accepted shrink is
also a stress test of the incremental engine.

All iteration orders derive from sorted names, insertion order, or the
deterministic topological order — never from set/hash order — so the
minimized artifact is byte-identical across interpreter runs and hash
seeds (see ``tests/testing/test_reduce.py``).
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..ir.cells import output_ports
from ..ir.design import Design
from ..ir.module import Module
from ..ir.signals import SigBit, SigSpec
from ..ir.walker import CombLoopError, DriverConflictError
from .oracles import PASS, Oracle


class NotFailingError(ValueError):
    """The input already passes the oracle — there is nothing to reduce."""


class _BudgetExhausted(Exception):
    """Internal: the probe budget ran out; keep the best-so-far."""


@dataclass
class ReductionResult:
    """Outcome of one reduction: the minimized case plus bookkeeping."""

    #: the failure label being preserved (oracle's verdict on the input)
    target: str
    original_cells: int
    cells: int
    probes: int
    accepted: int
    pass_stats: Dict[str, int] = field(default_factory=dict)
    module: Optional[Module] = None
    design: Optional[Design] = None
    original_instances: int = 0
    instances: int = 0

    @property
    def reduction(self) -> float:
        """Fraction of cells removed (0.0 when the input was empty)."""
        if not self.original_cells:
            return 0.0
        return 1.0 - self.cells / self.original_cells

    def summary(self) -> Dict[str, Any]:
        return {
            "target": self.target,
            "original_cells": self.original_cells,
            "cells": self.cells,
            "reduction": round(self.reduction, 4),
            "probes": self.probes,
            "accepted": self.accepted,
            "passes": dict(sorted(self.pass_stats.items())),
            "original_instances": self.original_instances,
            "instances": self.instances,
        }


class DeltaReducer:
    """The delta-debugging loop (see module docs for the pass sequence).

    ``max_probes`` bounds total oracle invocations; on exhaustion the
    best case found so far is returned (still failing with the target
    label — only accepted candidates replace it).  ``verify_index``
    keeps a live :class:`NetIndex` on every candidate and asserts
    consistency after each edit batch.
    """

    def __init__(self, oracle: Oracle, *, max_probes: int = 2000,
                 rename: bool = True, verify_index: bool = True,
                 on_progress: Optional[Callable[[str], None]] = None):
        self.oracle = oracle
        self.max_probes = max_probes
        self.rename = rename
        self.verify_index = verify_index
        self.on_progress = on_progress
        self.target = PASS
        self.probes = 0
        self.accepted = 0
        self.pass_stats: Counter = Counter()
        self._best: Any = None
        self._scope = "module"
        self._mname: Optional[str] = None

    # -- public entry points --------------------------------------------------

    def reduce_module(self, module: Module) -> ReductionResult:
        if self.oracle.scope != "module":
            raise ValueError(
                f"oracle {self.oracle.name!r} reduces designs, not modules"
            )
        self._scope = "module"
        self._mname = None
        self.target = self.oracle.probe(module)
        if self.target == PASS:
            raise NotFailingError(
                f"module {module.name!r} does not fail oracle "
                f"{self.oracle.name!r}"
            )
        self._best = module.clone()
        original_cells = len(module.cells)
        try:
            changed = True
            while changed:
                changed = False
                changed |= self._pass_prune_dead()
                changed |= self._pass_drop_cells_chunks()
                changed |= self._pass_drop_cells_singles()
                changed |= self._pass_constify_inputs()
                changed |= self._pass_merge_inputs()
                changed |= self._pass_narrow_ports()
        except _BudgetExhausted:
            pass
        if self.rename:
            self._try_normalize()
        return ReductionResult(
            target=self.target,
            original_cells=original_cells,
            cells=len(self._best.cells),
            probes=self.probes,
            accepted=self.accepted,
            pass_stats=dict(self.pass_stats),
            module=self._best,
        )

    def reduce_design(self, design: Design) -> ReductionResult:
        if self.oracle.scope != "design":
            raise ValueError(
                f"oracle {self.oracle.name!r} reduces modules, not designs"
            )
        self._scope = "design"
        self.target = self.oracle.probe(design)
        if self.target == PASS:
            raise NotFailingError(
                f"design does not fail oracle {self.oracle.name!r}"
            )
        self._best = design.clone()
        original_cells = self._design_cells(design)
        original_instances = self._design_instances(design)
        try:
            changed = True
            while changed:
                changed = False
                changed |= self._pass_prune_instances()
                changed |= self._pass_drop_modules()
                for name in sorted(self._best.modules):
                    if name not in self._best.modules:
                        continue
                    self._mname = name
                    changed |= self._pass_prune_dead()
                    changed |= self._pass_drop_cells_chunks()
                    changed |= self._pass_drop_cells_singles()
                    changed |= self._pass_constify_inputs()
                    changed |= self._pass_merge_inputs()
                    if not self._best.instantiators(name):
                        # narrowing an instantiated module's ports would
                        # break the parents' by-name bindings
                        changed |= self._pass_narrow_ports()
                self._mname = None
        except _BudgetExhausted:
            pass
        if self.rename:
            self._try_normalize()
        return ReductionResult(
            target=self.target,
            original_cells=original_cells,
            cells=self._design_cells(self._best),
            probes=self.probes,
            accepted=self.accepted,
            pass_stats=dict(self.pass_stats),
            design=self._best,
            original_instances=original_instances,
            instances=self._design_instances(self._best),
        )

    # -- candidate machinery --------------------------------------------------

    def _module(self) -> Module:
        return self._best if self._scope == "module" else self._best[self._mname]

    def _edit_target(self, state: Any) -> Module:
        return state if self._scope == "module" else state[self._mname]

    def _try(self, edit: Callable[[Any], int], pass_name: str) -> bool:
        """Clone best, apply ``edit`` under a live index, probe, accept."""
        if self.probes >= self.max_probes:
            raise _BudgetExhausted
        candidate = self._best.clone()
        indexes = []
        if self.verify_index and self._mname is None and self._scope == "module":
            indexes.append(candidate.net_index())
        elif self.verify_index and self._mname is not None:
            if self._mname in getattr(candidate, "modules", {}):
                indexes.append(candidate[self._mname].net_index())
        try:
            applied = edit(candidate)
        except (ValueError, KeyError, DriverConflictError, CombLoopError):
            return False  # an inapplicable edit is just a rejected candidate
        if not applied:
            return False
        for index in indexes:
            index.check_consistent()
        self.probes += 1
        label = self.oracle.probe(candidate)
        if label != self.target:
            return False
        self.accepted += 1
        self.pass_stats[pass_name] += applied
        self._best = candidate
        if self.on_progress is not None:
            self.on_progress(
                f"{pass_name}: -{applied} "
                f"({self._size_note()}, probe {self.probes})"
            )
        return True

    def _size_note(self) -> str:
        if self._scope == "module":
            return f"{len(self._best.cells)} cells"
        return (
            f"{self._design_cells(self._best)} cells / "
            f"{self._design_instances(self._best)} instances"
        )

    @staticmethod
    def _design_cells(design: Design) -> int:
        return sum(len(m.cells) for m in design)

    @staticmethod
    def _design_instances(design: Design) -> int:
        return sum(len(m.instances) for m in design)

    # -- deterministic orders -------------------------------------------------

    def _topo_names(self, mod: Module) -> List[str]:
        """Cell names, combinational cells in topo order, the rest sorted."""
        try:
            order = [c.name for c in mod.net_index().topo_cells()]
        except (CombLoopError, DriverConflictError):
            return sorted(mod.cells)
        rest = sorted(set(mod.cells) - set(order))
        return order + rest

    def _fanout_closure(self, mod: Module, names: Sequence[str]) -> List[str]:
        """``names`` plus every combinational cell downstream of them."""
        index = mod.net_index()
        closure = set(names)
        out_bits: List[SigBit] = []
        for name in names:
            cell = mod.cells.get(name)
            if cell is not None:
                out_bits.extend(index.cell_fanout_bits(cell))
        for bit in index.fanout_cone(out_bits):
            driver = index.comb_driver(bit)
            if driver is not None:
                closure.add(driver.name)
        return sorted(closure)

    # -- cell passes ----------------------------------------------------------

    @staticmethod
    def _tether_sources(mod: Module, specs: Sequence[SigSpec]) -> None:
        """Alias still-read, now-undriven bits to fresh input-port wires.

        Removing a driver must not leave *observed* bits dangling on
        anonymous undriven nets: the AIG mapper names those by canonical
        ``repr``, and flow passes may re-root the alias class, so a pure
        rename would masquerade as a CEC mismatch.  Tethering each such
        bit to a fresh port-input wire pins a stable, flow-proof input
        name on the class (``_declare_inputs`` scans port wires first).
        """
        index = mod.net_index()
        for spec in specs:
            bits = []
            for bit in spec:
                if bit.is_const:
                    continue
                canon = index.canonical(bit)
                if canon.is_const or index.driver_cell(canon) is not None:
                    continue
                if index.fanout_count(bit) > 0 or index.is_output_bit(bit):
                    bits.append(bit)
            if bits:
                fresh = mod.add_wire(None, len(bits), port_input=True)
                mod.connect(SigSpec(bits), SigSpec.from_wire(fresh))

    def _drop_cells_edit(self, names: Sequence[str]) -> Callable[[Any], int]:
        def edit(state: Any) -> int:
            mod = self._edit_target(state)
            removed = []
            for name in names:
                cell = mod.cells.get(name)
                if cell is not None:
                    mod.remove_cell(cell)
                    removed.append(cell)
            self._tether_sources(mod, [
                cell.connections[pname]
                for cell in removed
                for pname in output_ports(cell.type)
                if pname in cell.connections
            ])
            return len(removed)
        return edit

    def _pass_prune_dead(self) -> bool:
        """One probe dropping everything outside the observable cone."""
        mod = self._module()
        index = mod.net_index()
        observable = set(index.output_bits)
        for inst in mod.instances.values():
            observable.update(index.canonical(b) for b in inst.binding_bits())
        live: set = set()
        for bit in index.fanin_cone(observable):
            driver = index.driver_cell(bit)
            if driver is not None:
                live.add(driver.name)
        dead = [
            name for name in self._topo_names(mod)
            if name not in live and mod.cells[name].is_combinational
        ]
        if not dead:
            return False
        return self._try(self._drop_cells_edit(dead), "prune_dead")

    def _pass_drop_cells_chunks(self) -> bool:
        """ddmin over the topo cell order, chunks widened to fanout closure."""
        changed = False
        n = 2
        while True:
            mod = self._module()
            names = self._topo_names(mod)
            if len(names) < 2:
                break
            n = min(n, len(names))
            size = -(-len(names) // n)  # ceil
            removed = False
            for i in range(0, len(names), size):
                closure = self._fanout_closure(mod, names[i:i + size])
                if len(closure) >= len(names):
                    continue  # dropping every cell is never a useful probe
                if self._try(self._drop_cells_edit(closure), "drop_cells"):
                    removed = True
                    changed = True
                    break
            if removed:
                n = max(2, n - 1)
                continue
            if size <= 1:
                break
            n = min(len(names), n * 2)
        return changed

    def _pass_drop_cells_singles(self) -> bool:
        """Single-cell removals to a fixpoint: 1-minimality over cells."""
        changed = False
        progress = True
        while progress:
            progress = False
            for name in self._topo_names(self._module()):
                if name not in self._module().cells:
                    continue
                if self._try(self._drop_cells_edit([name]), "drop_cell"):
                    progress = True
                    changed = True
        return changed

    # -- input passes ---------------------------------------------------------

    def _free_input_bits(self, mod: Module) -> List[Tuple[str, int]]:
        """Input bits that still represent themselves (untied, unmerged)."""
        index = mod.net_index()
        free: List[Tuple[str, int]] = []
        for wire in sorted(mod.inputs, key=lambda w: w.name):
            for offset in range(wire.width):
                bit = SigBit(wire, offset)
                canon = index.canonical(bit)
                if not canon.is_const and canon == bit:
                    free.append((wire.name, offset))
        return free

    def _tie_edit(self, assignments: Sequence[Tuple[str, int, int]]):
        def edit(state: Any) -> int:
            mod = self._edit_target(state)
            count = 0
            for wname, offset, value in assignments:
                wire = mod.wires.get(wname)
                if wire is None or offset >= wire.width:
                    continue
                bit = SigBit(wire, offset)
                if mod.net_index().canonical(bit).is_const:
                    continue
                mod.connect(SigSpec([bit]), value)
                count += 1
            return count
        return edit

    def _pass_constify_inputs(self) -> bool:
        """ddmin chunks tied to 0, then per-bit tries of 0 and 1."""
        changed = False
        n = 2
        while True:
            bits = self._free_input_bits(self._module())
            if len(bits) < 2:
                break
            n = min(n, len(bits))
            size = -(-len(bits) // n)
            removed = False
            for i in range(0, len(bits), size):
                chunk = [(w, o, 0) for w, o in bits[i:i + size]]
                if self._try(self._tie_edit(chunk), "constify_inputs"):
                    removed = True
                    changed = True
                    break
            if removed:
                n = max(2, n - 1)
                continue
            if size <= 1:
                break
            n = min(len(bits), n * 2)
        progress = True
        while progress:
            progress = False
            for wname, offset in self._free_input_bits(self._module()):
                for value in (0, 1):
                    if self._try(self._tie_edit([(wname, offset, value)]),
                                 "constify_inputs"):
                        progress = True
                        changed = True
                        break
        return changed

    def _pass_merge_inputs(self) -> bool:
        """Alias every remaining free input bit to the first one."""
        changed = False
        progress = True
        while progress:
            progress = False
            bits = self._free_input_bits(self._module())
            if len(bits) < 2:
                break
            rep = bits[0]
            for wname, offset in bits[1:]:
                if self._try(self._alias_edit((wname, offset), rep),
                             "merge_inputs"):
                    progress = True
                    changed = True
        return changed

    def _alias_edit(self, source: Tuple[str, int], rep: Tuple[str, int]):
        def edit(state: Any) -> int:
            mod = self._edit_target(state)
            swire = mod.wires.get(source[0])
            rwire = mod.wires.get(rep[0])
            if swire is None or rwire is None:
                return 0
            sbit = SigBit(swire, source[1])
            rbit = SigBit(rwire, rep[1])
            index = mod.net_index()
            if index.canonical(sbit) == index.canonical(rbit):
                return 0
            if index.canonical(sbit).is_const or index.canonical(rbit).is_const:
                return 0
            mod.connect(SigSpec([sbit]), SigSpec([rbit]))
            return 1
        return edit

    # -- port narrowing -------------------------------------------------------

    def _live_offsets(self, mod: Module, wire) -> List[int]:
        """Offsets of ``wire`` with a literal reference anywhere."""
        used: set = set()
        specs = [
            spec for cell in mod.cells.values()
            for spec in cell.connections.values()
        ]
        specs.extend(
            spec for inst in mod.instances.values()
            for spec in inst.connections.values()
        )
        specs.extend(rhs for _lhs, rhs in mod.connections)
        for spec in specs:
            for bit in spec:
                if not bit.is_const and bit.wire is wire:
                    used.add(bit.offset)
        return sorted(used)

    def _pass_narrow_ports(self) -> bool:
        """Shrink input port wires down to their literally-used bits."""
        changed = False
        for wname in sorted(w.name for w in self._module().inputs):
            mod = self._module()
            wire = mod.wires.get(wname)
            if wire is None or not wire.port_input or wire.port_output:
                continue
            keep = self._live_offsets(mod, wire)
            if len(keep) >= wire.width:
                continue
            changed |= self._try(self._narrow_edit(wname, keep),
                                 "narrow_ports")
        return changed

    def _narrow_edit(self, wname: str, keep: Sequence[int]):
        keep = list(keep)

        def edit(state: Any) -> int:
            mod = self._edit_target(state)
            wire = mod.wires.get(wname)
            if wire is None or not wire.port_input or wire.port_output:
                return 0
            if len(keep) >= wire.width:
                return 0
            offmap = {offset: i for i, offset in enumerate(keep)}
            new = mod.add_wire(None, len(keep), port_input=True) if keep else None

            def xbit(bit: SigBit) -> SigBit:
                if bit.is_const or bit.wire is not wire:
                    return bit
                return SigBit(new, offmap[bit.offset])

            def xspec(spec: SigSpec) -> SigSpec:
                return SigSpec(xbit(b) for b in spec)

            def touches(spec: SigSpec) -> bool:
                return any(
                    (not b.is_const) and b.wire is wire for b in spec
                )

            for cell in mod.cells.values():
                for pname in list(cell.connections):
                    if touches(cell.connections[pname]):
                        cell.set_port(pname, xspec(cell.connections[pname]))
            for iname in sorted(mod.instances):
                inst = mod.instances[iname]
                if any(touches(s) for s in inst.connections.values()):
                    bindings = {
                        p: xspec(s) for p, s in inst.connections.items()
                    }
                    target_module = inst.module_name
                    mod.remove_instance(iname)
                    mod.add_instance(target_module, iname, bindings)
            # alias pairs: drop the columns whose lhs sat on a dropped
            # offset (they have no readers, per the contract of
            # replace_connections), then re-declare translated survivors
            # through connect() so the live index merges them properly
            kept_pairs = []
            reconnect = []
            for lhs, rhs in mod.connections:
                if not touches(lhs) and not touches(rhs):
                    kept_pairs.append((lhs, rhs))
                    continue
                cols = [
                    (l, r) for l, r in zip(lhs, rhs)
                    if l.is_const or l.wire is not wire or l.offset in offmap
                ]
                if cols:
                    reconnect.append((
                        SigSpec(xbit(l) for l, _r in cols),
                        SigSpec(xbit(r) for _l, r in cols),
                    ))
            mod.replace_connections(kept_pairs)
            for lhs, rhs in reconnect:
                mod.connect(lhs, rhs)
            mod.remove_wire(wire)
            return wire.width - len(keep)
        return edit

    # -- hierarchy passes -----------------------------------------------------

    def _pass_prune_instances(self) -> bool:
        changed = False
        for parent in sorted(self._best.modules):
            if parent not in self._best.modules:
                continue
            for iname in sorted(self._best[parent].instances):
                self._mname = parent

                def edit(state: Any, parent=parent, iname=iname) -> int:
                    mod = state[parent]
                    inst = mod.instances.get(iname)
                    if inst is None:
                        return 0
                    mod.remove_instance(iname)
                    # child-output bindings lose their driver with the
                    # instance; pin surviving readers to stable inputs
                    self._tether_sources(
                        mod, [inst.connections[p]
                              for p in sorted(inst.connections)]
                    )
                    return 1

                changed |= self._try(edit, "prune_instance")
        self._mname = None
        return changed

    def _pass_drop_modules(self) -> bool:
        changed = False
        self._mname = None
        for name in sorted(self._best.modules):
            if name == self._best.top_name:
                continue
            if self._best.instantiators(name):
                continue

            def edit(state: Any, name=name) -> int:
                if name not in state.modules:
                    return 0
                if state.instantiators(name) or name == state.top_name:
                    return 0
                state.remove_module(name)
                return 1

            changed |= self._try(edit, "drop_module")
        return changed

    # -- rename-normalize -----------------------------------------------------

    def _try_normalize(self) -> bool:
        """Rebuilt candidate(s) with canonical names; keep one only if the
        oracle still fails identically (a rebuild is not an incremental
        edit, so it pays for itself with a probe).  The aggressive
        variant additionally drops constant-valued output ports; if that
        shifts the label, fall back to the conservative rebuild."""
        variants = (True, False) if self._scope == "module" else (False,)
        for drop_const_outputs in variants:
            if self.probes >= self.max_probes:
                return False
            if self._scope == "module":
                candidate: Any = _normalized(
                    self._best, drop_const_outputs=drop_const_outputs
                )
            else:
                candidate = self._best.clone()
                for name in sorted(candidate.modules):
                    candidate.replace_module(
                        name, _normalized(candidate[name], keep_ports=True)
                    )
            self.probes += 1
            if self.oracle.probe(candidate) == self.target:
                self.accepted += 1
                self.pass_stats["rename_normalize"] = 1
                self._best = candidate
                return True
        return False


def _normalized(module: Module, keep_ports: bool = False,
                drop_const_outputs: bool = False) -> Module:
    """A rebuilt copy with canonical ``i*/o*/n*/c*`` names in topo order.

    Dead port wires are dropped and internal wires whose bits are all
    undriven sources are promoted to inputs (matching how the AIG mapper
    already treats undriven reads), yielding a well-formed standalone
    artifact.  With ``keep_ports`` (hierarchy children) the port
    interface is preserved verbatim — parents bind ports by name.  With
    ``drop_const_outputs`` outputs whose whole class is constant (or
    undriven) are removed too — the caller must arbitrate that variant
    with a probe, since it shrinks the observable surface.
    """
    index = module.net_index()
    port_source = {
        index.canonical(SigBit(wire, offset))
        for wire in module.wires.values() if wire.port_input
        for offset in range(wire.width)
    }

    referenced: set = set()
    for cell in module.cells.values():
        for spec in cell.connections.values():
            for bit in spec:
                if not bit.is_const:
                    referenced.add(bit.wire.name)
    for inst in module.instances.values():
        for spec in inst.connections.values():
            for bit in spec:
                if not bit.is_const:
                    referenced.add(bit.wire.name)
    # alias chains: a pair column whose lhs survives re-declares its rhs
    # wire, which may itself be the lhs of another pair (the Verilog
    # frontend routes outputs through intermediate alias wires no cell
    # ever references) — close transitively or the rebuilt chain dangles.
    # Columns whose rhs class is constant are rewritten to the constant
    # below, so they keep nothing alive.
    grew = True
    while grew:
        grew = False
        for lhs, rhs in module.connections:
            for l, r in zip(lhs, rhs):
                if l.is_const or r.is_const:
                    continue
                if index.canonical(r).is_const:
                    continue
                alive = (l.wire.name in referenced
                         or l.wire.port_input or l.wire.port_output)
                if alive and r.wire.name not in referenced:
                    referenced.add(r.wire.name)
                    grew = True

    def dead_port(wire) -> bool:
        """Nothing references the wire literally and no bit is live.

        A const-tied bit counts as dead here: the tie pair itself is
        not a use, so an unreferenced input whose bits were all
        constified by the reducer disappears along with its ties.
        """
        if wire.name in referenced:
            return False
        for offset in range(wire.width):
            bit = SigBit(wire, offset)
            canon = index.canonical(bit)
            if canon.is_const:
                continue
            if index.driver_cell(canon) is not None:
                return False
            if index.fanout_count(bit) > 0 or index.is_output_bit(bit):
                return False
        return True

    def droppable_output(wire) -> bool:
        """Output whose whole class is constant or undriven: it reads
        the same before and after any flow, so it cannot witness the
        failure — but dropping observables needs a probe to confirm."""
        if wire.name in referenced:
            return False
        for offset in range(wire.width):
            canon = index.canonical(SigBit(wire, offset))
            if not canon.is_const and index.driver_cell(canon) is not None:
                return False
        return True

    def promotable(wire) -> bool:
        """Internal wire whose every bit is an undriven non-port source."""
        for offset in range(wire.width):
            canon = index.canonical(SigBit(wire, offset))
            if canon.is_const or canon in port_source:
                return False
            if index.driver_cell(canon) is not None:
                return False
        return True

    out = Module(module.name)
    wire_map: Dict[str, Any] = {}
    counters = {"i": 0, "o": 0, "n": 0, "c": 0}

    def fresh(prefix: str) -> str:
        name = f"{prefix}{counters[prefix]}"
        counters[prefix] += 1
        return name

    for wire in module.wires.values():
        if not (wire.port_input or wire.port_output):
            continue
        if not keep_ports and dead_port(wire):
            continue  # unread, untied, unobservable port: drop it
        if (drop_const_outputs and not keep_ports and wire.port_output
                and not wire.port_input and droppable_output(wire)):
            continue
        name = wire.name if keep_ports else (
            fresh("o") if wire.port_output else fresh("i")
        )
        copy = out.add_wire(name, wire.width, wire.port_input,
                            wire.port_output)
        copy.attributes = dict(wire.attributes)
        wire_map[wire.name] = copy

    def xwire(wire):
        copy = wire_map.get(wire.name)
        if copy is None:
            promote = not keep_ports and promotable(wire)
            copy = out.add_wire(fresh("i") if promote else fresh("n"),
                                wire.width, port_input=promote)
            copy.attributes = dict(wire.attributes)
            wire_map[wire.name] = copy
        return copy

    def xspec(spec: SigSpec) -> SigSpec:
        return SigSpec(
            bit if bit.is_const else SigBit(xwire(bit.wire), bit.offset)
            for bit in spec
        )

    try:
        order = [c.name for c in index.topo_cells()]
    except (CombLoopError, DriverConflictError):
        order = []
    order += sorted(set(module.cells) - set(order))
    for cname in order:
        cell = module.cells[cname]
        copy = out.add_cell(
            cell.type, name=fresh("c"), width=cell.width, n=cell.n,
            **{p: xspec(s) for p, s in cell.connections.items()},
        )
        copy.attributes = dict(cell.attributes)
    for lhs, rhs in module.connections:
        cols = []
        for l, r in zip(lhs, rhs):
            if not (l.is_const or l.wire.name in wire_map
                    or l.wire.name in referenced):
                continue  # lhs wire was dropped and nothing reads it
            if not r.is_const:
                canon = index.canonical(r)
                if canon.is_const:
                    # the rhs wire may be a dropped tied port; bind the
                    # class value directly instead of resurrecting it
                    r = canon
            cols.append((l, r))
        if cols:
            out.connect(
                SigSpec(xspec(SigSpec(l for l, _r in cols))),
                SigSpec(xspec(SigSpec(r for _l, r in cols))),
            )
    for inst in module.instances.values():
        copy_inst = out.add_instance(
            inst.module_name, inst.name,
            {p: xspec(s) for p, s in inst.connections.items()},
        )
        copy_inst.attributes = dict(inst.attributes)
    return out


# -- public helpers -----------------------------------------------------------


def reduce_module(module: Module, oracle: Oracle, *,
                  max_probes: int = 2000, rename: bool = True,
                  verify_index: bool = True,
                  on_progress: Optional[Callable[[str], None]] = None,
                  ) -> ReductionResult:
    """Shrink ``module`` while ``oracle`` keeps failing with the same label.

    Raises :class:`NotFailingError` when the input already passes.  The
    input is never mutated; the minimized case is ``result.module``.
    """
    reducer = DeltaReducer(
        oracle, max_probes=max_probes, rename=rename,
        verify_index=verify_index, on_progress=on_progress,
    )
    return reducer.reduce_module(module)


def reduce_design(design: Design, oracle: Oracle, *,
                  max_probes: int = 2000, rename: bool = True,
                  verify_index: bool = True,
                  on_progress: Optional[Callable[[str], None]] = None,
                  ) -> ReductionResult:
    """Design-scope reduction: prune instances and unreferenced modules,
    then shrink each surviving module (see :func:`reduce_module`)."""
    reducer = DeltaReducer(
        oracle, max_probes=max_probes, rename=rename,
        verify_index=verify_index, on_progress=on_progress,
    )
    return reducer.reduce_design(design)


# -- repro artifacts ----------------------------------------------------------


def write_repro(directory: str, stem: str, target, *,
                meta: Optional[Dict[str, Any]] = None) -> Tuple[str, str]:
    """Write ``<stem>.v`` + self-describing ``<stem>.json`` under
    ``directory`` (created if needed) and return both paths.

    The JSON artifact embeds the full Yosys-JSON netlist plus whatever
    ``meta`` the caller records (oracle, flow, label, seed, ...), so one
    file reproduces the failure: :func:`load_repro` restores the design
    and the metadata needed to re-run the oracle.
    """
    from ..core.store import atomic_write_text
    from ..ir.json_writer import yosys_json_dict
    from ..ir.verilog_writer import verilog_str

    os.makedirs(directory, exist_ok=True)
    if isinstance(target, Design):
        modules = list(target)
        name = target.top_name
        cells = sum(len(m.cells) for m in modules)
    else:
        modules = [target]
        name = target.name
        cells = len(target.cells)
    payload: Dict[str, Any] = {"repro": 1, "name": name, "cells": cells}
    payload.update(meta or {})
    payload["netlist"] = yosys_json_dict(target)
    v_path = os.path.join(directory, f"{stem}.v")
    json_path = os.path.join(directory, f"{stem}.json")
    atomic_write_text(
        v_path, "\n".join(verilog_str(m) for m in modules)
    )
    atomic_write_text(
        json_path, json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    return v_path, json_path


def load_repro(path: str) -> Tuple[Design, Dict[str, Any]]:
    """Load a ``.json`` repro artifact back into a Design plus its metadata."""
    from ..frontend.yosys_json import read_yosys_json

    with open(path) as handle:
        payload = json.load(handle)
    design = read_yosys_json(payload["netlist"])
    return design, payload


__all__ = [
    "DeltaReducer",
    "NotFailingError",
    "ReductionResult",
    "load_repro",
    "reduce_design",
    "reduce_module",
    "write_repro",
]
