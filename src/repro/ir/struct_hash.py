"""Canonical structural signatures: name-independent module hashing.

:func:`module_signature` is a canonical, name-free encoding of a
module's netlist, computed in two phases:

* **labeling** — the netlist is walked depth-first from its roots (the
  output-port bits, then the instance bindings), visiting each cell's
  input ports in declared port order and bits LSB-first (an order fully
  determined by structure); cells outside every root's cone are then
  walked the same way, ordered by a bottom-up Merkle fingerprint of
  their fanin shape (refined Weisfeiler–Lehman style where fingerprints
  tie).  Cells are numbered in first-visit order, free inputs in
  first-encounter order;
* **encoding** — each cell renders as ``(type, width, n, per-input-port
  operand encodings)``, where an operand is a constant state, a free
  input's canonical number, or a ``(cell number, port, offset)`` driver
  reference — a Merkle-style encoding that captures sharing exactly —
  and the roots' operand encodings fold in beside the cells.

Two modules with equal signatures are isomorphic netlists under the
label correspondence (the encoding is invertible up to renaming), so any
value that is invariant under renaming — AIG areas, optimization
outcomes, equivalence verdicts — may be shared between them: the
``suite_job`` and ``hier_netlist`` entries of
:class:`~repro.core.cache.ResultCache` are keyed this way.  The reverse
direction is conservative: cells whose fingerprints still tie after
refinement are ordered by their position in the module's cell sequence,
so *independently built* isomorphic modules can, rarely, hash
differently and merely miss.  The encoding uses only strings, ints and
bools (no ``id()``, no interpreter ``hash``), so signatures are stable
across interpreter runs and hash seeds; the returned key is a
fixed-width BLAKE2b digest, cheap to compare, hash and pickle.

:func:`renamed_copy` is the verification tool for all of the above: a
structure-preserving module copy whose every wire and cell is renamed
(scrambling sort order, which the extraction and topological-ordering
paths otherwise lean on), used by the property tests and
``benchmarks/bench_structhash.py``.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .cells import CellType
from .module import Cell, Instance, Module, SigMap
from .signals import BIT0, BIT1, BITX, SigBit, SigSpec

#: a structural signature: hex BLAKE2b-128 digest of the canonical encoding
StructSignature = str

#: Fingerprint of the structural keying scheme, embedded in every
#: persisted cache artifact (see :class:`repro.core.store.CacheStore`).
#: Signatures are only comparable between processes that canonicalize
#: identically, so ANY change to the labeling walk, the operand
#: encoding, the WL refinement or the digest layout MUST bump this
#: string — stale on-disk generations written under the old
#: scheme are then skipped instead of silently never hitting (or worse,
#: colliding).
SCHEME_FINGERPRINT = "structural/blake2b-16/wl3/v1"

#: operand encoding: ("c", state) | ("i", input index) | ("d", cell, port, off)
_Operand = Tuple

#: the operands of the three constant bits, and each cell type's name
_CONST_OPERANDS: Dict[SigBit, _Operand] = {
    bit: ("c", str(bit.state)) for bit in (BIT0, BIT1, BITX)
}
_TYPE_NAMES: Dict[CellType, str] = {ctype: str(ctype) for ctype in CellType}

#: a bound alias lookup: ``get(bit, bit)`` is ``bit``'s canonical bit
AliasGet = Callable[[SigBit, SigBit], SigBit]


#: the alias lookup of a module without alias connections: ``get(bit,
#: bit)`` is ``bit``, like :attr:`~repro.ir.module.SigMap.get` (the dict
#: it is bound to stays empty)
_NO_ALIASES: AliasGet = {}.get

#: canonical input bits of one cell: ``((port, bits), ...)`` in port order
_Fanin = Tuple[Tuple[str, Tuple[SigBit, ...]], ...]


class _Canon:
    """One canonical labeling of a netlist's cells and free bits.

    ``driven`` maps canonical output bits to ``(cell, port, offset)``;
    labels are assigned in deterministic first-visit order by
    :meth:`label_cone`, and :meth:`encode` renders encodings against the
    final label assignment (two phases, so a cell's encoding may
    reference cells labeled after it without recursion).  ``table`` is
    the ``canonical bit -> operand`` map :meth:`encode` builds once the
    labeling is done: the three constants, every input label and every
    driven bit, so each port bit encodes with one lookup.  Each cell's
    input bits are canonicalized once (:meth:`fanin`) and shared by the
    labeling, the fingerprints and the encoding.
    """

    __slots__ = ("driven", "get", "cell_label", "input_label", "order",
                 "table", "_fanin")

    def __init__(
        self,
        driven: Dict[SigBit, Tuple[Cell, str, int]],
        get: AliasGet,
    ):
        self.driven = driven
        self.get = get
        self.cell_label: Dict[int, int] = {}
        self.input_label: Dict[SigBit, int] = {}
        self.order: List[Cell] = []
        self.table: Dict[SigBit, _Operand] = {}
        self._fanin: Dict[int, _Fanin] = {}

    def fanin(self, cell: Cell) -> _Fanin:
        """``cell``'s canonical input bits per input port, mapped once."""
        ports = self._fanin.get(id(cell))
        if ports is None:
            get = self.get
            connections = cell.connections
            ports = []
            for port in cell.input_ports:
                bits = connections[port].bits
                ports.append((port, tuple(map(get, bits, bits))))
            ports = self._fanin[id(cell)] = tuple(ports)
        return ports

    def label_cone(self, root: SigBit) -> None:
        """Assign labels over the fanin cone of canonical bit ``root``,
        first-visit order."""
        driven = self.driven
        cell_label = self.cell_label
        input_label = self.input_label
        stack = [root]
        while stack:
            bit = stack.pop()
            if bit.state is not None:  # a constant
                continue
            entry = driven.get(bit)
            if entry is None:
                if bit not in input_label:
                    input_label[bit] = len(input_label)
                continue
            cell = entry[0]
            if id(cell) in cell_label:
                continue
            cell_label[id(cell)] = len(cell_label)
            self.order.append(cell)
            kids = [b for _port, bits in self.fanin(cell) for b in bits]
            # reversed push: pop order == declared port order, LSB first
            kids.reverse()
            stack.extend(kids)

    def label_cell(self, cell: Cell) -> None:
        """Label a cell whose outputs the driven map cannot reach (every
        output bit aliased to a constant) and canonicalize its fanin."""
        if id(cell) in self.cell_label:
            return
        self.cell_label[id(cell)] = len(self.cell_label)
        self.order.append(cell)
        for _port, bits in self.fanin(cell):
            for bit in bits:
                self.label_cone(bit)

    def operand(self, bit: SigBit) -> _Operand:
        """The canonical encoding of one (already canonical) bit; valid
        once :meth:`encode` has built the table."""
        operand = self.table.get(bit)
        if operand is None:
            # a boundary bit outside every labeled cone (defensive: the
            # labeling phase routes every netlist bit through a cone)
            index = self.input_label[bit] = len(self.input_label)
            operand = self.table[bit] = ("i", index)
        return operand

    def encode(self) -> Tuple:
        """Build :attr:`table`, then all labeled cells' encodings, in label
        order."""
        table = self.table
        table.update(_CONST_OPERANDS)
        for bit, index in self.input_label.items():
            table[bit] = ("i", index)
        cell_label = self.cell_label
        for bit, (cell, port, offset) in self.driven.items():
            label = cell_label.get(id(cell))
            if label is not None:
                table[bit] = ("d", label, port, offset)
        lookup = table.get
        operand = self.operand
        encoded = []
        for cell in self.order:
            ports = tuple(
                (port, tuple(lookup(b) or operand(b) for b in bits))
                for port, bits in self.fanin(cell)
            )
            encoded.append(
                (_TYPE_NAMES[cell.type], cell.width, cell.n, ports)
            )
        return tuple(encoded)


def _driven_map(
    cells: Sequence[Cell], get: AliasGet
) -> Dict[SigBit, Tuple[Cell, str, int]]:
    driven: Dict[SigBit, Tuple[Cell, str, int]] = {}
    for cell in cells:
        for port in cell.output_ports:
            spec = cell.connections.get(port)
            if spec is None:
                continue
            bits = spec.bits
            for offset, cbit in enumerate(map(get, bits, bits)):
                if not cbit.is_const:
                    driven[cbit] = (cell, port, offset)
    return driven


def _merkle_fingerprints(
    cells: Sequence[Cell],
    driven: Dict[SigBit, Tuple[Cell, str, int]],
    fanin: Callable[[Cell], _Fanin],
    colors: Optional[Dict[SigBit, str]] = None,
) -> Dict[int, str]:
    """Bottom-up per-cell structural fingerprints (free inputs abstract).

    A cell's fingerprint hashes its type/shape and, per input bit, the
    driving cell's fingerprint (with port/offset), a constant state, or a
    free-input placeholder.  With ``colors`` (the iterated-refinement
    path) the placeholder carries the bit's current color instead of being
    fully generic, so input *sharing patterns* separate otherwise-tied
    cells.  O(sub-graph) total; used only to order cells outside the
    target cone in a name-free way.
    """
    fingerprints: Dict[int, str] = {}

    def fingerprint(cell: Cell) -> str:
        stack: List[Cell] = [cell]
        while stack:
            current = stack[-1]
            if id(current) in fingerprints:
                stack.pop()
                continue
            pending = False
            parts: List[Tuple] = [
                (_TYPE_NAMES[current.type], current.width, current.n)
            ]
            for _port, bits in fanin(current):
                for cbit in bits:
                    if cbit.is_const:
                        parts.append(_CONST_OPERANDS[cbit])
                        continue
                    entry = driven.get(cbit)
                    if entry is None:
                        if colors is None:
                            parts.append(("x",))
                        else:
                            parts.append(("x", colors.get(cbit, "")))
                        continue
                    drv = entry[0]
                    done = fingerprints.get(id(drv))
                    if done is None:
                        if drv is current or any(
                            s is drv for s in stack
                        ):  # defensive: combinational loops cannot recurse
                            parts.append(("loop",))
                            continue
                        stack.append(drv)
                        pending = True
                        break
                    parts.append(("d", done, entry[1], entry[2]))
                if pending:
                    break
            if pending:
                continue
            stack.pop()
            fingerprints[id(current)] = hashlib.blake2b(
                repr(parts).encode("utf-8"), digest_size=12
            ).hexdigest()
        return fingerprints[id(cell)]

    for cell in cells:
        fingerprint(cell)
    return fingerprints


def _refined_fingerprints(
    cells: Sequence[Cell],
    driven: Dict[SigBit, Tuple[Cell, str, int]],
    fanin: Callable[[Cell], _Fanin],
    base: Dict[int, str],
    rounds: int = 3,
) -> Dict[int, str]:
    """Weisfeiler–Lehman-style iterated refinement of tied fingerprints.

    The base fingerprint abstracts every free input as one generic
    placeholder, so ``and(a, b)`` and ``and(c, c)`` tie and independently
    built twin modules could order them differently (a conservative cache
    miss).  Refinement alternates two name-free steps until stable (or
    ``rounds``): color each free input by the multiset of ``(reader
    fingerprint, port, offset)`` entries over ``cells``, then recompute
    fingerprints with colored placeholders.  Both steps are functions of
    structure alone, so isomorphic graphs refine identically; residual
    exact ties still fall back to caller order (still conservative).
    """
    fingerprints = dict(base)
    colors: Dict[SigBit, str] = {}
    for _ in range(max(1, rounds)):
        reader_sig: Dict[SigBit, List[Tuple]] = {}
        for cell in cells:
            for port, bits in fanin(cell):
                for offset, cbit in enumerate(bits):
                    if cbit.is_const or cbit in driven:
                        continue
                    reader_sig.setdefault(cbit, []).append(
                        (fingerprints[id(cell)], port, offset)
                    )
        new_colors = {
            bit: hashlib.blake2b(
                repr(sorted(entries)).encode("utf-8"), digest_size=8
            ).hexdigest()
            for bit, entries in reader_sig.items()
        }
        new_fingerprints = _merkle_fingerprints(
            cells, driven, fanin, colors=new_colors
        )
        if new_fingerprints == fingerprints and new_colors == colors:
            break
        fingerprints, colors = new_fingerprints, new_colors
    return fingerprints


def _canonicalize(
    cells: Sequence[Cell],
    roots: Sequence[SigBit],
    sigmap: Optional[SigMap],
) -> Tuple[str, _Canon, AliasGet]:
    """Label + encode, and digest the core payload.

    ``roots`` anchor the traversal (a module's output bits and instance
    bindings) and their operand encodings fold into the core, so the
    signature pins down which bits the netlist exposes.
    """
    get = sigmap.get if sigmap is not None else _NO_ALIASES
    driven = _driven_map(cells, get)
    canon = _Canon(driven, get)
    croots = [get(root, root) for root in roots]
    for root in croots:
        canon.label_cone(root)
    remaining = [c for c in cells if id(c) not in canon.cell_label]
    if remaining:
        fanin = canon.fanin
        fingerprints = _merkle_fingerprints(remaining, driven, fanin)
        order_key = {id(c): (fingerprints[id(c)],) for c in remaining}
        if len({fingerprints[id(c)] for c in remaining}) < len(remaining):
            # tied fingerprints: iterate WL refinement so independently
            # built isomorphic graphs agree on the order; the refined key
            # extends (never replaces) the base key, so tie-free graphs
            # keep their exact pre-refinement signatures
            refined = _refined_fingerprints(
                remaining, driven, fanin, fingerprints
            )
            order_key = {
                id(c): (fingerprints[id(c)], refined[id(c)])
                for c in remaining
            }
        # residual exact ties fall back to the caller's (structure-derived)
        # sequence order — see module docs
        remaining.sort(key=lambda c: order_key[id(c)])
        for cell in remaining:
            bits = cell.output_bits()
            for cbit in map(get, bits, bits):
                canon.label_cone(cbit)
            canon.label_cell(cell)
    core = (
        len(canon.order),
        len(canon.input_label),
        canon.encode(),
        tuple(canon.operand(root) for root in croots),
    )
    digest = hashlib.blake2b(
        repr(core).encode("utf-8"), digest_size=16
    ).hexdigest()
    return digest, canon, get


def module_signature(
    module: Module,
    child_signatures: Optional[Dict[str, StructSignature]] = None,
) -> StructSignature:
    """The canonical name-free signature of a whole module.

    Roots are the output-port bits (in wire insertion order — preserved
    by :meth:`~repro.ir.module.Module.clone` and :func:`renamed_copy`, so
    renamed clones hash equal); alias connections resolve through a
    fresh :class:`~repro.ir.module.SigMap`.  Two modules with equal
    signatures are isomorphic netlists, so any *value* that is invariant
    under renaming — AIG areas, optimization outcomes, equivalence
    verdicts — may be shared between them.  This is what lets
    :meth:`~repro.flow.session.Session.run_suite` replay a whole
    (case × flow) job for a structurally identical case instead of
    re-optimizing it, and what groups instances into the isomorphic
    classes :meth:`~repro.flow.session.Session.run_hierarchy` replays.

    For a module with :class:`~repro.ir.module.Instance` children the
    signature is *hierarchical*: instance binding bits join the roots (so
    parent logic feeding a child is covered), and each instance folds in
    as its child's identity — the entry from ``child_signatures`` keyed by
    child module name, or the bare child name when the caller supplies
    none — plus its name-free binding encodings, sorted.  Two parents with
    identical cells but different children therefore hash differently.
    Modules without instances hash byte-identically to the flat scheme.
    """
    sigmap = SigMap(module) if module.connections else None
    roots = [
        bit
        for wire in module.wires.values() if wire.port_output
        for bit in wire.bits
    ]
    for inst in module.instances.values():
        roots.extend(inst.binding_bits())
    cells = list(module.cells.values())
    digest, canon, get = _canonicalize(cells, roots, sigmap)
    if not module.instances:
        return digest
    entries = []
    for inst in module.instances.values():
        child = inst.module_name
        if child_signatures is not None:
            child = child_signatures.get(child, child)
        bindings = tuple(sorted(
            (port, tuple(canon.operand(get(bit, bit)) for bit in spec))
            for port, spec in inst.connections.items()
        ))
        entries.append((child, bindings))
    return hashlib.blake2b(
        repr((digest, tuple(sorted(entries)))).encode("utf-8"),
        digest_size=16,
    ).hexdigest()


def renamed_copy(
    module: Module, prefix: str = "rn", name: Optional[str] = None
) -> Module:
    """A structure-preserving copy with every wire and cell renamed.

    New names are ``{prefix}{index}`` with indices assigned in *reverse*
    sorted order of the original names, so the copy's name sort order is
    the inverse of the original's — which scrambles every name-ordered
    tie-break (sub-graph topological roots, merge survivor choice) while
    preserving structure exactly.  The benchmark and the struct-hash
    property tests use this to prove signatures name-independent; it is
    not an optimization-flow API.
    """
    other = Module(name if name is not None else f"{prefix}_{module.name}")
    other._name_counter = module._name_counter
    wire_names = {
        wname: f"{prefix}w{index}"
        for index, wname in enumerate(sorted(module.wires, reverse=True))
    }
    cell_names = {
        cname: f"{prefix}c{index}"
        for index, cname in enumerate(sorted(module.cells, reverse=True))
    }
    wire_map: Dict[int, object] = {}
    for wire in module.wires.values():
        copy = other.add_wire(
            wire_names[wire.name], wire.width, wire.port_input,
            wire.port_output,
        )
        copy.attributes = dict(wire.attributes)
        wire_map[id(wire)] = copy

    def translate(spec: SigSpec) -> SigSpec:
        return SigSpec(
            bit if bit.is_const else SigBit(wire_map[id(bit.wire)], bit.offset)
            for bit in spec
        )

    for cell in module.cells.values():
        copy_cell = Cell(cell_names[cell.name], cell.type, cell.width, cell.n)
        copy_cell.attributes = dict(cell.attributes)
        for pname, spec in cell.connections.items():
            copy_cell.connections[pname] = translate(spec)
        other.cells[copy_cell.name] = copy_cell
        copy_cell._module = other
    for lhs, rhs in module.connections:
        other.connections.append((translate(lhs), translate(rhs)))
    for inst in module.instances.values():
        copy_inst = Instance(inst.name, inst.module_name, {
            port: translate(spec) for port, spec in inst.connections.items()
        })
        copy_inst.attributes = dict(inst.attributes)
        other.instances[inst.name] = copy_inst
    return other


__all__ = [
    "SCHEME_FINGERPRINT",
    "StructSignature",
    "module_signature",
    "renamed_copy",
]
