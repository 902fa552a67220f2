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
    MUX_TYPES,
    PortDir,
    expected_width,
    input_ports,
    output_ports,
    port_spec,
)
from .signals import SigBit, SigLike, SigSpec, Wire

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

    ``version`` counts port rewires (every :meth:`set_port`); caches keyed
    on cell content — e.g. the :class:`~repro.sat.oracle.SatOracle` CNF
    contexts — use ``(name, version)`` pairs to detect stale entries after
    an optimization pass mutates the netlist mid-flight.
    """

    __slots__ = ("name", "type", "width", "n", "connections", "attributes",
                 "version", "_module")

    def __init__(self, name: str, ctype: CellType, width: int, n: int = 1):
        if width < 1:
            raise ValueError(f"cell {name!r}: width must be >= 1")
        if n < 1:
            raise ValueError(f"cell {name!r}: n must be >= 1")
        self.name = name
        self.type = ctype
        self.width = width
        self.n = n
        self.connections: Dict[str, SigSpec] = {}
        self.attributes: dict = {}
        self.version = 0
        #: owning module once registered (set by Module, cleared on removal);
        #: rewires of registered cells publish ModuleEdit notifications
        self._module: Optional["Module"] = None

    def port(self, name: str) -> SigSpec:
        """The SigSpec connected to the given port."""
        return self.connections[name]

    def set_port(self, name: str, spec: SigLike) -> None:
        """Connect ``spec`` to port ``name`` (width-checked).

        Bare ints/bools are sized to the port; explicit signals must match
        the port width exactly — silent resizing hides real bugs.
        """
        want = expected_width(self.type, name, self.width, self.n)
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
        return self.type in MUX_TYPES

    def input_bits(self) -> List[SigBit]:
        """All bits feeding the cell's input ports, in port order."""
        bits: List[SigBit] = []
        for name in input_ports(self.type):
            bits.extend(self.connections[name])
        return bits

    def output_bits(self) -> List[SigBit]:
        bits: List[SigBit] = []
        for name in output_ports(self.type):
            bits.extend(self.connections[name])
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
            name = self._fresh_name(str(ctype), self.cells)
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
        for pname, _direction, _expr in port_spec(ctype):
            if pname in ports:
                cell.set_port(pname, ports[pname])
        for pname, direction, _expr in port_spec(ctype):
            if pname not in cell.connections:
                if direction is PortDir.OUT:
                    want = expected_width(ctype, pname, width, n)
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
    """Union-find over bits that resolves alias connections to canonical bits.

    Mirrors Yosys ``SigMap``: after construction, :meth:`map_bit` returns the
    canonical representative of any bit — constants win over wires, and
    earlier-declared wires win over later ones, so results are deterministic.
    Aliasing two different constants is a short circuit, not a merge:
    :meth:`add` raises :class:`DriverConflictError` for it.
    """

    def __init__(self, module: Optional[Module] = None):
        self._parent: Dict[SigBit, SigBit] = {}
        if module is not None:
            for lhs, rhs in module.connections:
                for lbit, rbit in zip(lhs, rhs):
                    self.add(lbit, rbit)

    def _find(self, bit: SigBit) -> SigBit:
        """The canonical representative of ``bit`` (one dict probe when
        ``bit`` is its own root)."""
        get = self._parent.get
        root = get(bit)
        if root is None:
            return bit
        step = get(root)
        if step is None:
            return root
        while step is not None:
            root, step = step, get(step)
        # path compression
        parent = self._parent
        while bit is not root:
            parent[bit], bit = root, parent[bit]
        return root

    def add(self, a: SigBit, b: SigBit) -> None:
        """Declare bits ``a`` and ``b`` to be the same net."""
        ra, rb = self._find(a), self._find(b)
        if ra is rb:
            return
        # prefer constants as representatives, then keep rb (the driver side)
        if ra.is_const:
            if rb.is_const:
                raise DriverConflictError(
                    f"aliasing {a!r} and {b!r} shorts constant {ra!r} to {rb!r}"
                )
            self._parent[rb] = ra
        else:
            self._parent[ra] = rb

    # every layer maps bits through here; the alias saves a call per bit
    map_bit = _find

    def __len__(self) -> int:
        """Number of union-find entries (bits with a non-trivial parent)."""
        return len(self._parent)

    def compact(self, live: Iterable[SigBit]) -> int:
        """Generation compaction: keep only entries for ``live`` bits.

        Long-lived incremental sessions accumulate union-find entries for
        bits whose wires and aliases are long gone (safe — stale entries
        for dead bits are never queried — but unbounded).  Compaction
        rewrites the structure as a flat two-level forest over exactly the
        live bits, *preserving every live bit's current representative*,
        so driver/reader maps keyed by canonical bits stay valid verbatim.
        Returns the number of entries dropped.
        """
        new_parent: Dict[SigBit, SigBit] = {}
        for bit in live:
            root = self._find(bit)
            if root is not bit:
                new_parent[bit] = root
        dropped = len(self._parent) - len(new_parent)
        self._parent = new_parent
        return dropped

    def map_spec(self, spec: SigSpec) -> SigSpec:
        return SigSpec(map(self._find, spec))

    def __call__(self, value: Union[SigBit, SigSpec]) -> Union[SigBit, SigSpec]:
        if isinstance(value, SigBit):
            return self.map_bit(value)
        return self.map_spec(value)
