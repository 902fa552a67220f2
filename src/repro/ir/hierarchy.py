"""Hierarchy elaboration: instance-tree walking, uniquification, flattening.

The Yosys ``hierarchy`` pass equivalent for :class:`~repro.ir.design.Design`:
starting from the top module it walks the instance tree, checks that every
:class:`~repro.ir.module.Instance` resolves (child module exists, bound port
names exist with matching widths, every child *input* is bound — outputs may
dangle), rejects instantiation cycles, and returns a :class:`HierarchyInfo`
with the bottom-up topological module order the flow layer optimizes in.

``uniquify=True`` performs parameter-free uniquification: every instance
site of a multiply-instantiated module gets its own deep copy named
``child$<dotted.instance.path>``, so per-instance rewrites become possible
while the copies stay ``module_signature``-isomorphic — exactly the classes
the flow layer's isomorphic-instance replay deduplicates.

:func:`flatten` inlines the whole tree into one flat module (nested names
prefixed with ``<instance>.``), the reference semantics the hierarchy-aware
flow is benchmarked against: optimizing the flattened module must yield the
same total area as optimizing per module and weighting by instance count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .design import Design
from .module import Cell, Instance, Module
from .signals import SigBit, SigSpec

__all__ = ["HierarchyError", "HierarchyInfo", "hierarchy", "flatten"]


class HierarchyError(Exception):
    """The design's instance tree does not elaborate."""


@dataclass(frozen=True)
class HierarchyInfo:
    """Result of :func:`hierarchy` elaboration.

    ``order`` lists the modules reachable from ``top`` bottom-up (every
    child precedes every parent); ``tree`` maps each reachable module to its
    ``(instance name, child module)`` pairs in declaration order;
    ``instance_counts`` counts *dynamic* occurrences in the elaborated tree
    (the top counts once, a child instantiated twice by a module that itself
    occurs three times counts six) — the weights hierarchical area
    accounting uses; ``unreachable`` lists members of the design no
    instance path from the top reaches, in insertion order.
    """

    top: str
    order: Tuple[str, ...]
    tree: Dict[str, Tuple[Tuple[str, str], ...]]
    instance_counts: Dict[str, int]
    unreachable: Tuple[str, ...]


def _resolve_top(design: Design, top: Optional[str]) -> str:
    top_name = top if top is not None else design.top_name
    if top_name is None:
        raise HierarchyError("design has no modules")
    if top_name not in design.modules:
        raise HierarchyError(f"no module named {top_name!r}")
    return top_name


def _validate_instance(design: Design, parent: Module, inst: Instance) -> None:
    child = design.modules.get(inst.module_name)
    if child is None:
        raise HierarchyError(
            f"module {parent.name!r}, instance {inst.name!r}: no module "
            f"named {inst.module_name!r}"
        )
    ports = {w.name: w for w in child.wires.values() if w.is_port}
    for pname, spec in inst.connections.items():
        wire = ports.get(pname)
        if wire is None:
            raise HierarchyError(
                f"module {parent.name!r}, instance {inst.name!r}: "
                f"{inst.module_name!r} has no port {pname!r}"
            )
        if len(spec) != wire.width:
            raise HierarchyError(
                f"module {parent.name!r}, instance {inst.name!r}: port "
                f"{pname!r} expects width {wire.width}, got {len(spec)}"
            )
    for wire in child.inputs:
        if wire.name not in inst.connections:
            raise HierarchyError(
                f"module {parent.name!r}, instance {inst.name!r}: input "
                f"port {wire.name!r} of {inst.module_name!r} is unbound"
            )


def _walk(design: Design, top_name: str) -> Tuple[
    List[str], Dict[str, Tuple[Tuple[str, str], ...]]
]:
    """Validated bottom-up post-order over the reachable instance DAG."""
    order: List[str] = []
    tree: Dict[str, Tuple[Tuple[str, str], ...]] = {}
    state: Dict[str, int] = {}  # 0 = visiting, 1 = done
    stack: List[Tuple[str, List[str], int]] = []

    def enter(name: str) -> None:
        module = design.modules[name]
        children: List[str] = []
        for inst in module.instances.values():
            _validate_instance(design, module, inst)
            children.append(inst.module_name)
        tree[name] = tuple(
            (inst.name, inst.module_name)
            for inst in module.instances.values()
        )
        state[name] = 0
        stack.append((name, children, 0))

    enter(top_name)
    while stack:
        name, children, idx = stack[-1]
        if idx < len(children):
            stack[-1] = (name, children, idx + 1)
            child = children[idx]
            child_state = state.get(child)
            if child_state == 0:
                cycle = [frame[0] for frame in stack] + [child]
                raise HierarchyError(
                    "instantiation cycle: " + " -> ".join(cycle)
                )
            if child_state is None:
                enter(child)
        else:
            stack.pop()
            state[name] = 1
            order.append(name)
    return order, tree


def _instance_counts(
    order: List[str], tree: Dict[str, Tuple[Tuple[str, str], ...]], top: str
) -> Dict[str, int]:
    counts = {name: 0 for name in order}
    counts[top] = 1
    for name in reversed(order):  # top-down: parents before children
        for _iname, child in tree[name]:
            counts[child] += counts[name]
    return counts


def _uniquify(design: Design, top_name: str) -> None:
    """Copy multiply-instantiated modules so every instance site owns its
    module, naming copies ``child$<dotted.instance.path>``."""
    order, tree = _walk(design, top_name)
    counts = _instance_counts(order, tree, top_name)

    def walk(name: str, path: str) -> None:
        module = design.modules[name]
        for inst in list(module.instances.values()):
            child = inst.module_name
            child_path = f"{path}.{inst.name}" if path else inst.name
            if counts.get(child, 0) > 1:
                copy = design.modules[child].clone()
                copy.name = f"{child}${child_path}"
                design.add_module(copy)
                module.retarget_instance(inst.name, copy.name)
                walk(copy.name, child_path)
            else:
                walk(child, child_path)

    walk(top_name, "")


def hierarchy(
    design: Design, top: Optional[str] = None, uniquify: bool = False
) -> HierarchyInfo:
    """Elaborate the instance tree under ``top`` (defaults to the design's
    top).  Raises :class:`HierarchyError` on unresolved child modules,
    unknown or width-mismatched port bindings, unbound child inputs, and
    instantiation cycles."""
    top_name = _resolve_top(design, top)
    if uniquify:
        _uniquify(design, top_name)
    order, tree = _walk(design, top_name)
    counts = _instance_counts(order, tree, top_name)
    reachable = set(order)
    unreachable = tuple(
        name for name in design.modules if name not in reachable
    )
    return HierarchyInfo(
        top=top_name,
        order=tuple(order),
        tree=tree,
        instance_counts=counts,
        unreachable=unreachable,
    )


def _inline(flat: Module, inst_name: str, design: Design) -> None:
    """Inline one instance of ``flat`` in place (nested instances become
    prefixed instances of ``flat``, processed by the caller's loop)."""
    inst = flat.instances[inst_name]
    child = design.modules[inst.module_name]
    prefix = inst.name + "."

    def fresh(base: str, table) -> str:
        return base if base not in table else flat._fresh_name(base, table)

    wire_map: Dict[int, object] = {}
    for wire in child.wires.values():
        # port flags are cleared: inside the parent these are plain nets
        copy = flat.add_wire(fresh(prefix + wire.name, flat.wires), wire.width)
        copy.attributes = dict(wire.attributes)
        wire_map[id(wire)] = copy

    def translate(spec: SigSpec) -> SigSpec:
        return SigSpec(
            bit if bit.is_const else SigBit(wire_map[id(bit.wire)], bit.offset)
            for bit in spec
        )

    for cell in child.cells.values():
        copy_cell = Cell(
            fresh(prefix + cell.name, flat.cells), cell.type, cell.width,
            cell.n,
        )
        copy_cell.attributes = dict(cell.attributes)
        for pname, spec in cell.connections.items():
            copy_cell.connections[pname] = translate(spec)
        flat.cells[copy_cell.name] = copy_cell
        copy_cell._module = flat
    for lhs, rhs in child.connections:
        flat.connections.append((translate(lhs), translate(rhs)))
    for sub in child.instances.values():
        sub_name = fresh(prefix + sub.name, flat.instances)
        flat.instances[sub_name] = Instance(sub_name, sub.module_name, {
            pname: translate(spec) for pname, spec in sub.connections.items()
        })

    del flat.instances[inst.name]
    # stitch the boundary: child input copies are driven by the parent-side
    # bindings, parent-side bindings of outputs are driven by the copies
    for pname, spec in inst.connections.items():
        wire = child.wires[pname]
        copy = wire_map[id(wire)]
        boundary = SigSpec(copy.bits)
        if wire.port_input:
            flat.connect(boundary, spec)
        else:
            flat.connect(spec, boundary)


def flatten(design: Design, top: Optional[str] = None) -> Module:
    """Inline the whole instance tree under ``top`` into one fresh flat
    module (same name and ports as the top; nested wires/cells are prefixed
    with their dotted instance path).  The input design is not modified."""
    info = hierarchy(design, top)
    flat = design.modules[info.top].clone()
    while flat.instances:
        _inline(flat, next(iter(flat.instances)), design)
    return flat
