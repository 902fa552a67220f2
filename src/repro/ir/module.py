"""Module and Cell containers, plus the :class:`SigMap` alias resolver.

Structural edits are observable: :meth:`Module.add_listener` registers a
callable that receives a :class:`ModuleEdit` record for every ``add_cell`` /
``remove_cell`` / ``Cell.set_port`` / ``connect`` / wire edit.  The shared
live :class:`~repro.ir.walker.NetIndex` returned by :meth:`Module.net_index`
subscribes to this channel and patches itself instead of being rebuilt at
every pass entry; the pass framework subscribes a recorder that accumulates
each pass's touched-cell set for the incremental dirty-set engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from .cells import (
    CellType,
    PortDir,
    input_ports,
    output_ports,
    port_spec,
    port_widths,
    resolve_width,
)
from .signals import SigBit, SigLike, SigSpec, Wire, trusted_spec

# -- structural edit notifications ---------------------------------------------

CELL_ADDED = "cell_added"
CELL_REMOVED = "cell_removed"
PORT_CHANGED = "port_changed"
CONNECTED = "connected"
CONNECTIONS_REPLACED = "connections_replaced"
WIRE_ADDED = "wire_added"
WIRE_REMOVED = "wire_removed"
INSTANCE_ADDED = "instance_added"
INSTANCE_REMOVED = "instance_removed"


@dataclass(frozen=True)
class ModuleEdit:
    """One structural edit, published to :meth:`Module.add_listener` hooks.

    ``ports`` carries a snapshot of the cell's connections at event time for
    ``cell_added``/``cell_removed`` (the live cell object may be rewired
    later, so listeners replaying buffered edits need the historic specs).
    """

    kind: str
    cell: Optional[Cell] = None
    port: Optional[str] = None
    old: Optional[SigSpec] = None
    new: Optional[SigSpec] = None
    ports: Optional[Dict[str, SigSpec]] = None
    lhs: Optional[SigSpec] = None
    rhs: Optional[SigSpec] = None
    wire: Optional[Wire] = None
    instance: Optional["Instance"] = None


ModuleListener = Callable[[ModuleEdit], None]


class Cell:
    """An instance of a :class:`CellType` with named port connections.

    ``width`` is the cell's data width ``W``; ``n`` is the pmux branch count
    or the shift-amount width (1 for everything else).

    ``version`` counts port rewires (every :meth:`set_port`); the
    per-cell tables of :class:`~repro.ir.walker.CanonicalView` use it to
    detect stale entries after an optimization pass mutates the netlist
    mid-flight.
    """

    __slots__ = ("name", "type", "width", "n", "connections", "attributes",
                 "version", "_module", "input_ports", "output_ports",
                 "_port_widths")

    def __init__(self, name: str, ctype: CellType, width: int, n: int = 1):
        if width < 1:
            raise ValueError(f"cell {name!r}: width must be >= 1")
        if n < 1:
            raise ValueError(f"cell {name!r}: n must be >= 1")
        self.name = name
        self.type = ctype
        #: the type's input and output port names in spec order, and each
        #: port's width expression: a cell's type never changes, so they
        #: are looked up once here instead of per query
        self.input_ports, self.output_ports, self._port_widths = \
            _PORT_TABLES[ctype]
        self.width = width
        self.n = n
        self.connections: Dict[str, SigSpec] = {}
        self.attributes: dict = {}
        self.version = 0
        #: owning module once registered (set by Module, cleared on removal);
        #: rewires of registered cells publish ModuleEdit notifications
        self._module: Optional["Module"] = None

    def __getstate__(self):
        # the default slots state minus the derived port tables: a cell
        # pickles exactly as it did before they existed
        return (None, {name: getattr(self, name) for name in _CELL_STATE})

    def __setstate__(self, state) -> None:
        for key, value in state[1].items():
            setattr(self, key, value)
        self.input_ports, self.output_ports, self._port_widths = \
            _PORT_TABLES[self.type]

    def port(self, name: str) -> SigSpec:
        """The SigSpec connected to the given port."""
        return self.connections[name]

    def set_port(self, name: str, spec: SigLike) -> None:
        """Connect ``spec`` to port ``name`` (width-checked).

        Bare ints/bools are sized to the port; explicit signals must match
        the port width exactly — silent resizing hides real bugs.
        """
        expr = self._port_widths.get(name)
        if expr is None:
            raise KeyError(f"cell {self.type} has no port {name!r}")
        want = resolve_width(expr, self.width, self.n)
        if isinstance(spec, (int, bool)):
            sig = SigSpec.coerce(spec, want)
        else:
            sig = SigSpec.coerce(spec)
        if len(sig) != want:
            raise ValueError(
                f"cell {self.name!r} ({self.type}): port {name} expects width "
                f"{want}, got {len(sig)}"
            )
        old = self.connections.get(name)
        self.connections[name] = sig
        self.version += 1
        module = self._module
        if module is not None and module._listeners:
            module._notify(ModuleEdit(
                PORT_CHANGED, cell=self, port=name, old=old, new=sig
            ))

    @property
    def is_combinational(self) -> bool:
        return self.type is not CellType.DFF

    @property
    def is_mux(self) -> bool:
        ctype = self.type
        return ctype is CellType.MUX or ctype is CellType.PMUX

    def input_bits(self) -> List[SigBit]:
        """All bits feeding the cell's input ports, in port order."""
        bits: List[SigBit] = []
        connections = self.connections
        for name in self.input_ports:
            bits.extend(connections[name].bits)
        return bits

    def output_bits(self) -> List[SigBit]:
        bits: List[SigBit] = []
        connections = self.connections
        for name in self.output_ports:
            bits.extend(connections[name].bits)
        return bits

    def pmux_branch(self, index: int) -> SigSpec:
        """The ``B`` slice selected by ``S[index]`` of a pmux."""
        if self.type is not CellType.PMUX:
            raise TypeError(f"{self.name!r} is not a pmux")
        if not (0 <= index < self.n):
            raise IndexError(f"pmux branch {index} out of range (n={self.n})")
        b = self.connections["B"]
        return b[index * self.width:(index + 1) * self.width]

    def __repr__(self) -> str:
        return f"Cell({self.name}: {self.type} W={self.width}" + (
            f" N={self.n})" if self.n != 1 else ")"
        )


#: the slots a pickled :class:`Cell` carries
_CELL_STATE = ("name", "type", "width", "n", "connections", "attributes",
               "version", "_module")

#: per cell type: its input ports, output ports and port width expressions
_PORT_TABLES = {
    ctype: (input_ports(ctype), output_ports(ctype), port_widths(ctype))
    for ctype in CellType
}


class Instance:
    """One instantiation of a child module inside a parent module.

    ``connections`` maps *child port names* to the parent-side signals bound
    to them; directions are resolved against the child module's port wires
    only when a :class:`~repro.ir.design.Design` is elaborated
    (:func:`repro.ir.hierarchy.hierarchy`), so an ``Instance`` stays a plain
    record the optimization passes never interpret.  Every binding bit is
    treated as observable by the live :class:`~repro.ir.walker.NetIndex`
    (and therefore by ``opt_clean``), which keeps parent logic feeding a
    child alive without knowing port directions.
    """

    __slots__ = ("name", "module_name", "connections", "attributes")

    def __init__(self, name: str, module_name: str,
                 connections: Dict[str, SigLike]):
        self.name = name
        self.module_name = module_name
        self.connections: Dict[str, SigSpec] = {
            port: SigSpec.coerce(spec) for port, spec in connections.items()
        }
        self.attributes: dict = {}

    def binding_bits(self) -> List[SigBit]:
        """All non-constant parent-side bits bound to this instance."""
        bits: List[SigBit] = []
        for spec in self.connections.values():
            bits.extend(bit for bit in spec if not bit.is_const)
        return bits

    def __repr__(self) -> str:
        return f"Instance({self.name}: {self.module_name})"


class Module:
    """A flat netlist: wires, cells, alias connections and child instances.

    Connections (``connect``) declare that two signals are the same net; the
    canonical representative is resolved with :class:`SigMap`.  Optimization
    passes remove cells by connecting their former output to a replacement
    signal.
    """

    def __init__(self, name: str = "top"):
        self.name = name
        self.wires: Dict[str, Wire] = {}
        self.cells: Dict[str, Cell] = {}
        #: child-module instantiations by instance name
        self.instances: Dict[str, Instance] = {}
        #: list of (lhs, rhs) bit-aliases; lhs is driven by rhs
        self.connections: List[Tuple[SigSpec, SigSpec]] = []
        self._name_counter = 0
        self._listeners: List[ModuleListener] = []
        self._net_index = None  # shared live NetIndex (lazy)

    # -- edit notifications --------------------------------------------------

    def add_listener(self, listener: ModuleListener) -> ModuleListener:
        """Register a structural-edit observer; returns it for nesting."""
        self._listeners.append(listener)
        return listener

    def remove_listener(self, listener: ModuleListener) -> None:
        self._listeners.remove(listener)

    def _notify(self, edit: ModuleEdit) -> None:
        for listener in tuple(self._listeners):
            listener(edit)

    def net_index(self):
        """The shared live :class:`~repro.ir.walker.NetIndex`.

        Created on first use and kept current through the edit-notification
        channel, so passes query it directly instead of rebuilding an index
        at every pass entry.  All structural edits must go through the
        notifying ``Module``/``Cell`` APIs for the instance to stay valid.
        """
        if self._net_index is None:
            from .walker import NetIndex

            self._net_index = NetIndex(self, live=True)
        return self._net_index

    # -- pickling ------------------------------------------------------------

    def __getstate__(self) -> dict:
        # listeners (live indexes, pass recorders) are session-local; the
        # process-pool suite runner pickles bare netlists only
        state = dict(self.__dict__)
        state["_listeners"] = []
        state["_net_index"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        # older pickles carry an always-None `_edge_cache` slot
        state.pop("_edge_cache", None)
        self.__dict__.update(state)
        self._listeners = []
        self._net_index = None

    # -- naming ------------------------------------------------------------

    def _fresh_name(self, prefix: str, table: dict) -> str:
        while True:
            self._name_counter += 1
            name = f"{prefix}${self._name_counter}"
            if name not in table:
                return name

    # -- wires ---------------------------------------------------------------

    def add_wire(
        self,
        name: Optional[str] = None,
        width: int = 1,
        port_input: bool = False,
        port_output: bool = False,
    ) -> Wire:
        if name is None:
            name = self._fresh_name("w", self.wires)
        if name in self.wires:
            raise ValueError(f"duplicate wire name {name!r} in module {self.name!r}")
        wire = Wire(name, width, port_input, port_output)
        self.wires[name] = wire
        if self._listeners:
            self._notify(ModuleEdit(WIRE_ADDED, wire=wire))
        return wire

    def wire(self, name: str) -> Wire:
        return self.wires[name]

    def remove_wire(self, wire: Union[str, Wire]) -> None:
        name = wire if isinstance(wire, str) else wire.name
        removed = self.wires.pop(name)
        if self._listeners:
            self._notify(ModuleEdit(WIRE_REMOVED, wire=removed))

    @property
    def inputs(self) -> List[Wire]:
        return [w for w in self.wires.values() if w.port_input]

    @property
    def outputs(self) -> List[Wire]:
        return [w for w in self.wires.values() if w.port_output]

    # -- cells ---------------------------------------------------------------

    def add_cell(
        self,
        ctype: CellType,
        name: Optional[str] = None,
        width: Optional[int] = None,
        n: int = 1,
        **ports: SigLike,
    ) -> Cell:
        """Create a cell, inferring ``width`` from the ``A``/``D`` port.

        Output ports may be omitted, in which case fresh wires are created.
        """
        if name is None:
            # ``_value_`` is ``str(ctype)`` without the Enum descriptor frames
            name = self._fresh_name(ctype._value_, self.cells)
        if name in self.cells:
            raise ValueError(f"duplicate cell name {name!r} in module {self.name!r}")
        if width is None:
            # shape inference is spec-driven (celllib imported lazily: this
            # module is a dependency of the registry, not the reverse)
            from . import celllib

            spec = celllib.spec_for(ctype)
            widths = {
                pname: len(SigSpec.coerce(value))
                for pname, value in ports.items()
                if pname in (spec.width_port, spec.n_port)
            }
            try:
                width, n = spec.infer_shape(widths)
            except ValueError as exc:
                raise ValueError(f"cell {name!r}: {exc}") from None
        cell = Cell(name, ctype, width, n)
        layout = port_spec(ctype)
        for pname, _direction, _expr in layout:
            if pname in ports:
                cell.set_port(pname, ports[pname])
        for pname, direction, expr in layout:
            if pname not in cell.connections:
                if direction is PortDir.OUT:
                    want = resolve_width(expr, width, n)
                    out = self.add_wire(f"{name}.{pname}", want)
                    cell.set_port(pname, out)
                else:
                    raise ValueError(f"cell {name!r}: missing input port {pname}")
        self.cells[name] = cell
        cell._module = self
        if self._listeners:
            self._notify(ModuleEdit(
                CELL_ADDED, cell=cell, ports=dict(cell.connections)
            ))
        return cell

    def cell(self, name: str) -> Cell:
        return self.cells[name]

    def remove_cell(self, cell: Union[str, Cell]) -> None:
        name = cell if isinstance(cell, str) else cell.name
        removed = self.cells.pop(name)
        removed._module = None
        if self._listeners:
            self._notify(ModuleEdit(
                CELL_REMOVED, cell=removed, ports=dict(removed.connections)
            ))

    # -- connections ---------------------------------------------------------

    def connect(self, lhs: SigLike, rhs: SigLike) -> None:
        """Declare ``lhs`` to be an alias for (driven by) ``rhs``.

        Bare int ``rhs`` values are sized to the lhs; explicit signals must
        match exactly.
        """
        lhs_spec = SigSpec.coerce(lhs)
        if isinstance(rhs, (int, bool)):
            rhs_spec = SigSpec.coerce(rhs, len(lhs_spec))
        else:
            rhs_spec = SigSpec.coerce(rhs)
        if len(lhs_spec) != len(rhs_spec):
            raise ValueError(
                f"connection width mismatch: {len(lhs_spec)} vs {len(rhs_spec)}"
            )
        for bit in lhs_spec:
            if bit.is_const:
                raise ValueError("cannot drive a constant bit")
        self.connections.append((lhs_spec, rhs_spec))
        if self._listeners:
            self._notify(ModuleEdit(CONNECTED, lhs=lhs_spec, rhs=rhs_spec))

    def replace_connections(
        self, connections: Iterable[Tuple[SigSpec, SigSpec]]
    ) -> None:
        """Replace the alias list wholesale (``opt_clean``'s dead-alias sweep).

        Listeners are told via a single ``connections_replaced`` edit; the
        live index relies on the caller only dropping aliases whose lhs is
        completely unread (canonical mapping of reachable bits unchanged).
        """
        self.connections = list(connections)
        if self._listeners:
            self._notify(ModuleEdit(CONNECTIONS_REPLACED))

    def sigmap(self) -> "SigMap":
        return SigMap(self)

    # -- instances -----------------------------------------------------------

    def add_instance(
        self,
        module_name: str,
        name: Optional[str] = None,
        connections: Optional[Dict[str, SigLike]] = None,
    ) -> Instance:
        """Instantiate child module ``module_name``; bindings are by port name.

        The child module itself need not exist yet (multi-file elaboration
        creates parents before children); unresolved references are caught
        by :func:`repro.ir.hierarchy.hierarchy`.
        """
        if name is None:
            name = self._fresh_name(module_name, self.instances)
        if name in self.instances:
            raise ValueError(
                f"duplicate instance name {name!r} in module {self.name!r}"
            )
        instance = Instance(name, module_name, connections or {})
        self.instances[name] = instance
        if self._listeners:
            self._notify(ModuleEdit(INSTANCE_ADDED, instance=instance))
        return instance

    def remove_instance(self, instance: Union[str, Instance]) -> None:
        name = instance if isinstance(instance, str) else instance.name
        removed = self.instances.pop(name)
        if self._listeners:
            self._notify(ModuleEdit(INSTANCE_REMOVED, instance=removed))

    def retarget_instance(self, name: str, module_name: str) -> Instance:
        """Point instance ``name`` at a different child module, in place.

        Published as an ``instance_removed``/``instance_added`` pair (the
        observable equivalent of remove + re-add) while preserving the
        instance's dict position and bindings — the uniquification primitive.
        """
        instance = self.instances[name]
        if self._listeners:
            self._notify(ModuleEdit(INSTANCE_REMOVED, instance=instance))
        instance.module_name = module_name
        if self._listeners:
            self._notify(ModuleEdit(INSTANCE_ADDED, instance=instance))
        return instance

    def instances_of(self, module_name: str) -> List[Instance]:
        """All instances of the given child module, in insertion order."""
        return [
            inst for inst in self.instances.values()
            if inst.module_name == module_name
        ]

    # -- iteration -----------------------------------------------------------

    def cells_of_type(self, *types: CellType) -> Iterator[Cell]:
        wanted = set(types)
        for cell in self.cells.values():
            if cell.type in wanted:
                yield cell

    def stats(self) -> Dict[str, int]:
        """Cell-type histogram plus wire/cell totals."""
        hist: Dict[str, int] = {}
        for cell in self.cells.values():
            hist[str(cell.type)] = hist.get(str(cell.type), 0) + 1
        hist["_cells"] = len(self.cells)
        hist["_wires"] = len(self.wires)
        return hist

    def clone(self) -> "Module":
        """Deep-copy the module (fresh Wire/Cell objects, same names)."""
        other = Module(self.name)
        other._name_counter = self._name_counter
        wire_map: Dict[int, Wire] = {}
        for wire in self.wires.values():
            copy = other.add_wire(wire.name, wire.width, wire.port_input, wire.port_output)
            copy.attributes = dict(wire.attributes)
            wire_map[id(wire)] = copy

        def translate(spec: SigSpec) -> SigSpec:
            return SigSpec(
                bit if bit.is_const else SigBit(wire_map[id(bit.wire)], bit.offset)
                for bit in spec
            )

        for cell in self.cells.values():
            copy_cell = Cell(cell.name, cell.type, cell.width, cell.n)
            copy_cell.attributes = dict(cell.attributes)
            for pname, spec in cell.connections.items():
                copy_cell.connections[pname] = translate(spec)
            other.cells[cell.name] = copy_cell
            copy_cell._module = other
        for lhs, rhs in self.connections:
            other.connections.append((translate(lhs), translate(rhs)))
        for inst in self.instances.values():
            copy_inst = Instance(inst.name, inst.module_name, {
                port: translate(spec)
                for port, spec in inst.connections.items()
            })
            copy_inst.attributes = dict(inst.attributes)
            other.instances[inst.name] = copy_inst
        return other

    def __repr__(self) -> str:
        return (
            f"Module({self.name!r}, {len(self.wires)} wires, "
            f"{len(self.cells)} cells)"
        )


class DriverConflictError(Exception):
    """A bit is driven by more than one cell output / connection."""


class SigMap:
    """Flat alias map that resolves alias connections to canonical bits.

    Mirrors Yosys ``SigMap``: after construction every bit has one
    canonical representative — constants win over wires, and otherwise the
    driver side (``b`` of :meth:`add`) keeps its root, so results are
    deterministic.  Aliasing two different constants is a short circuit,
    not a merge: :meth:`add` raises :class:`DriverConflictError` for it.

    Every non-root bit maps straight to its root, so canonicalizing a bit
    is one C call through the bound :attr:`get`: ``get(bit, bit)`` (a root,
    or a bit never aliased, maps to itself), and a tuple of bits maps as
    ``tuple(map(get, bits, bits))``.  A root→members index lets a union
    re-point only the losing class (a lone member is stored inline, a list
    only from the second member on).  A union therefore costs O(size of the
    losing class): an alias chain connected in reverse order (each new bit
    driving the class built so far) is quadratic in its length.
    """

    __slots__ = ("_root", "_members", "get")

    def __init__(self, module: Optional[Module] = None):
        #: non-root bit -> its root
        self._root: Dict[SigBit, SigBit] = {}
        #: root -> its one non-root member, or a list of two or more
        self._members: Dict[SigBit, Union[SigBit, List[SigBit]]] = {}
        #: ``get(bit, bit)`` is ``bit``'s canonical representative; the dict
        #: it is bound to is only ever mutated in place, so a ``get`` taken
        #: once stays valid across unions and :meth:`compact`
        self.get = self._root.get
        if module is not None:
            add = self.add
            for lhs, rhs in module.connections:
                for lbit, rbit in zip(lhs.bits, rhs.bits):
                    add(lbit, rbit)

    def add(self, a: SigBit, b: SigBit) -> None:
        """Declare bits ``a`` and ``b`` to be the same net."""
        root = self._root
        ra, rb = root.get(a, a), root.get(b, b)
        if ra is rb:
            return
        # prefer constants as representatives, then keep rb (the driver side)
        if ra.is_const:
            if rb.is_const:
                raise DriverConflictError(
                    f"aliasing {a!r} and {b!r} shorts constant {ra!r} to {rb!r}"
                )
            ra, rb = rb, ra
        # ra's class joins rb's: re-point ra and its members at rb
        root[ra] = rb
        members = self._members
        moved = members.pop(ra, None)
        if moved is not None:
            if moved.__class__ is not list:
                moved = [moved]
            for bit in moved:
                root[bit] = rb
            moved.append(ra)
        kept = members.get(rb)
        if kept is None:
            members[rb] = ra if moved is None else moved
            return
        if kept.__class__ is not list:
            kept = members[rb] = [kept]
        if moved is None:
            kept.append(ra)
        else:
            kept.extend(moved)

    def map_bit(self, bit: SigBit) -> SigBit:
        """The canonical representative of ``bit`` (``get(bit, bit)``)."""
        return self._root.get(bit, bit)

    def __len__(self) -> int:
        """Number of non-root bits (bits that map to another bit)."""
        return len(self._root)

    def compact(self, live: Iterable[SigBit]) -> int:
        """Generation compaction: keep only entries for ``live`` bits.

        Long-lived incremental sessions accumulate entries for bits whose
        wires and aliases are long gone (safe — stale entries for dead
        bits are never queried — but unbounded).  Compaction drops every
        entry but those of live non-root bits, *preserving every live bit's
        current representative*, so driver/reader maps keyed by canonical
        bits stay valid verbatim.  The map is rewritten in place, so a
        :attr:`get` bound before the compaction answers correctly after
        it.  Returns the number of entries dropped.
        """
        root = self._root
        get = root.get
        kept: Dict[SigBit, SigBit] = {}
        for bit in live:
            rep = get(bit)
            if rep is not None:
                kept[bit] = rep
        dropped = len(root) - len(kept)
        root.clear()
        root.update(kept)
        members = self._members
        members.clear()
        for bit, rep in kept.items():
            have = members.get(rep)
            if have is None:
                members[rep] = bit
            elif have.__class__ is list:
                have.append(bit)
            else:
                members[rep] = [have, bit]
        return dropped

    def map_spec(self, spec: SigSpec) -> SigSpec:
        """``spec`` with every bit canonical; ``spec`` itself when no bit
        moves."""
        bits = spec.bits
        mapped = tuple(map(self._root.get, bits, bits))
        return spec if mapped == bits else trusted_spec(mapped)

    def __call__(self, value: Union[SigBit, SigSpec]) -> Union[SigBit, SigSpec]:
        if isinstance(value, SigBit):
            return self.map_bit(value)
        return self.map_spec(value)
