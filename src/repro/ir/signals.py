"""Bit-level signal representation for the RTL netlist IR.

The IR follows the conventions of Yosys RTLIL:

* a :class:`Wire` is a named bundle of bits with a fixed width,
* a :class:`SigBit` is either one bit of a wire or a constant logic state,
* a :class:`SigSpec` is an immutable sequence of ``SigBit`` objects.

All multi-bit values are **LSB first**: ``spec[0]`` is bit 0.  Constants use
three-valued logic (:class:`State`): ``0``, ``1`` and the unknown/don't-care
value ``x``.

Bits are interned: there is exactly one ``SigBit`` object per wire bit
and per constant state, so ``SigBit`` keeps the default identity
``__eq__``/``__hash__`` and every dict or set keyed by bits compares in C
(Yosys compares its ``SigBit`` value type just as cheaply in C++).  Each
:class:`Wire` builds the tuple of its bits in ``__init__`` and in
``__setstate__``, never lazily on first access: the thread-isolated serve
daemon runs jobs on two threads at once, and a lazy fill could hand them
two objects for one bit.  The tuple stays out of the wire's pickled
state, which is exactly its five public slots: pickling it would cycle
back into ``SigBit(wire, i)`` before the wire's width is restored, and
store generations written before interning carry no such field.
"""

from __future__ import annotations

import enum
from itertools import repeat
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union


class State(enum.Enum):
    """A constant logic state (three-valued)."""

    S0 = 0
    S1 = 1
    Sx = 2

    @staticmethod
    def from_bool(value: bool) -> "State":
        return State.S1 if value else State.S0

    @property
    def is_defined(self) -> bool:
        """True for ``0``/``1``, False for ``x``."""
        return self is not State.Sx

    def to_bool(self) -> bool:
        if self is State.Sx:
            raise ValueError("cannot convert State.Sx to bool")
        return self is State.S1

    def __invert__(self) -> "State":
        if self is State.S0:
            return State.S1
        if self is State.S1:
            return State.S0
        return State.Sx

    def __str__(self) -> str:
        return {State.S0: "0", State.S1: "1", State.Sx: "x"}[self]


class Wire:
    """A named, fixed-width vector of nets inside a module.

    Wires are identity-hashed; names are unique within their module.  The
    ``port_input``/``port_output`` flags mark module ports.  A wire owns
    the interned :class:`SigBit` of each of its bits (see the module
    docstring).
    """

    __slots__ = ("name", "width", "port_input", "port_output", "attributes",
                 "_bits")

    def __init__(
        self,
        name: str,
        width: int = 1,
        port_input: bool = False,
        port_output: bool = False,
    ):
        if width < 1:
            raise ValueError(f"wire {name!r} must have width >= 1, got {width}")
        if port_input and port_output:
            raise ValueError(f"wire {name!r} cannot be both input and output")
        self.name = name
        self.width = width
        self.port_input = port_input
        self.port_output = port_output
        self.attributes: dict = {}
        self._bits = _wire_bits(self)

    def __getstate__(self):
        # the default slots state minus the derived bit tuple: a wire
        # pickles exactly as it did before bits were interned
        return (None, {
            "name": self.name,
            "width": self.width,
            "port_input": self.port_input,
            "port_output": self.port_output,
            "attributes": self.attributes,
        })

    def __setstate__(self, state) -> None:
        for key, value in state[1].items():
            setattr(self, key, value)
        self._bits = _wire_bits(self)

    @property
    def is_port(self) -> bool:
        return self.port_input or self.port_output

    @property
    def bits(self) -> Tuple["SigBit", ...]:
        """The wire's interned bits, LSB first."""
        return self._bits

    def __getitem__(self, index) -> Union["SigBit", "SigSpec"]:
        if isinstance(index, slice):
            return trusted_spec(self._bits[index])
        return self._bits[index]

    def __len__(self) -> int:
        return self.width

    def __repr__(self) -> str:
        kind = "input " if self.port_input else "output " if self.port_output else ""
        return f"Wire({kind}{self.name}[{self.width}])"


class SigBit:
    """A single-bit signal: one bit of a wire, or a constant :class:`State`.

    ``SigBit`` is immutable and interned: ``SigBit(wire, i)`` returns the
    one object its wire built for bit ``i`` (``wire[i]``, the same object
    as ``SigSpec.from_wire(wire)[i]``), and ``SigBit(state=s)`` returns
    ``BIT0``, ``BIT1`` or ``BITX``.  Two bits are equal exactly when they
    are the same object, so equality and hashing are the default identity
    ones.  The wire builds its bit tuple eagerly and keeps it out of its
    pickled state (see the module docstring); unpickling a bit goes back
    through ``SigBit(wire, i)`` and so lands on the interned object.
    """

    __slots__ = ("wire", "offset", "state", "is_const")

    def __new__(
        cls,
        wire: Optional[Wire] = None,
        offset: int = 0,
        state: Optional[State] = None,
    ) -> "SigBit":
        if (wire is None) == (state is None):
            raise ValueError("SigBit needs exactly one of wire or state")
        if wire is None:
            return _STATE_TO_BIT[state]
        if not (0 <= offset < wire.width):
            raise IndexError(
                f"bit offset {offset} out of range for {wire.name}[{wire.width}]"
            )
        return wire._bits[offset]

    def __setattr__(self, name, value):
        raise AttributeError("SigBit is immutable")

    @property
    def is_wire(self) -> bool:
        return self.wire is not None

    def const_value(self) -> State:
        if self.state is None:
            raise ValueError(f"{self!r} is not a constant bit")
        return self.state

    def __reduce__(self):
        # immutability blocks the default slots state protocol (setattr
        # raises), so pickling goes back through the constructor, which
        # returns the interned bit; wire identity within one pickled graph
        # is preserved by the pickle memo
        return (SigBit, (self.wire, self.offset, self.state))

    def __repr__(self) -> str:
        if self.state is not None:
            return f"<{self.state}>"
        if self.wire.width == 1:
            return f"<{self.wire.name}>"
        return f"<{self.wire.name}[{self.offset}]>"


_set_wire = SigBit.wire.__set__
_set_offset = SigBit.offset.__set__
_set_state = SigBit.state.__set__
#: a slot, not a property: every per-bit loop asks it
_set_is_const = SigBit.is_const.__set__


def _new_bit(wire: Optional[Wire], offset: int, state: Optional[State]) -> SigBit:
    """Allocate a bit object; only :class:`Wire` and the constants call
    this, everyone else gets the interned object from ``SigBit(...)``.
    The slots are filled through their descriptors, which bypass the
    raising ``__setattr__``."""
    bit = object.__new__(SigBit)
    _set_wire(bit, wire)
    _set_offset(bit, offset)
    _set_state(bit, state)
    _set_is_const(bit, state is not None)
    return bit


def _wire_bits(wire: Wire) -> Tuple[SigBit, ...]:
    return tuple(map(_new_bit, repeat(wire), range(wire.width), repeat(None)))


BIT0 = _new_bit(None, 0, State.S0)
BIT1 = _new_bit(None, 0, State.S1)
BITX = _new_bit(None, 0, State.Sx)

_STATE_TO_BIT = {State.S0: BIT0, State.S1: BIT1, State.Sx: BITX}


def const_bit(value: Union[State, int, bool]) -> SigBit:
    """Return the interned constant bit for ``value`` (0, 1, bool or State)."""
    if isinstance(value, State):
        return _STATE_TO_BIT[value]
    if isinstance(value, bool):
        return BIT1 if value else BIT0
    if value in (0, 1):
        return BIT1 if value else BIT0
    raise ValueError(f"not a constant bit value: {value!r}")


SigLike = Union["SigSpec", SigBit, Wire, int, str, Sequence]


class SigSpec:
    """An immutable, LSB-first sequence of :class:`SigBit` objects.

    ``SigSpec`` supports slicing, concatenation, constant extraction and
    equality; it is the universal currency of cell ports and module
    connections.
    """

    __slots__ = ("_bits", "_hash")

    def __init__(self, bits: Iterable[SigBit] = ()):
        bits = tuple(bits)
        for bit in bits:
            if not isinstance(bit, SigBit):
                raise TypeError(f"SigSpec elements must be SigBit, got {bit!r}")
        object.__setattr__(self, "_bits", bits)
        object.__setattr__(self, "_hash", hash(bits))

    def __setattr__(self, name, value):
        raise AttributeError("SigSpec is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_wire(wire: Wire) -> "SigSpec":
        return trusted_spec(wire._bits)

    @staticmethod
    def from_const(value: int, width: int) -> "SigSpec":
        """An unsigned constant of the given width (LSB first)."""
        if width < 0:
            raise ValueError("width must be >= 0")
        if value < 0:
            value &= (1 << width) - 1
        return SigSpec(const_bit((value >> i) & 1) for i in range(width))

    @staticmethod
    def from_state(state: State, width: int) -> "SigSpec":
        return SigSpec([const_bit(state)] * width)

    @staticmethod
    def from_pattern(pattern: str) -> "SigSpec":
        """Build a constant from a Verilog-style bit pattern, MSB first.

        ``"01x"`` becomes the 3-bit spec with bit2=0, bit1=1, bit0=x.
        ``z`` and ``?`` are treated as ``x`` (don't-care).
        """
        bits: List[SigBit] = []
        for ch in reversed(pattern):
            if ch == "_":
                continue
            if ch == "0":
                bits.append(BIT0)
            elif ch == "1":
                bits.append(BIT1)
            elif ch in "xXzZ?":
                bits.append(BITX)
            else:
                raise ValueError(f"bad pattern character {ch!r} in {pattern!r}")
        return SigSpec(bits)

    @staticmethod
    def coerce(value: SigLike, width: Optional[int] = None) -> "SigSpec":
        """Coerce wires, bits, ints, patterns or bit sequences to a SigSpec.

        Integers require an explicit ``width`` unless one can be inferred.
        """
        if isinstance(value, SigSpec):
            spec = value
        elif isinstance(value, Wire):
            spec = SigSpec.from_wire(value)
        elif isinstance(value, SigBit):
            spec = SigSpec([value])
        elif isinstance(value, bool):
            spec = SigSpec([const_bit(value)])
        elif isinstance(value, int):
            if width is None:
                width = max(1, value.bit_length())
            spec = SigSpec.from_const(value, width)
        elif isinstance(value, str):
            spec = SigSpec.from_pattern(value)
        elif isinstance(value, Sequence):
            spec = SigSpec(
                bit if isinstance(bit, SigBit) else const_bit(bit) for bit in value
            )
        else:
            raise TypeError(f"cannot coerce {value!r} to SigSpec")
        if width is not None and len(spec) != width:
            spec = spec.extend(width)
        return spec

    # -- sequence protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._bits)

    def __iter__(self) -> Iterator[SigBit]:
        return iter(self._bits)

    def __getitem__(self, index) -> Union[SigBit, "SigSpec"]:
        if isinstance(index, slice):
            return trusted_spec(self._bits[index])
        return self._bits[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SigSpec):
            return NotImplemented
        return self._bits == other._bits

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (SigSpec, (self._bits,))

    @property
    def bits(self) -> Tuple[SigBit, ...]:
        return self._bits

    # -- operations --------------------------------------------------------

    def concat(self, *others: "SigSpec") -> "SigSpec":
        """Concatenate, LSB-first: ``a.concat(b)`` has ``a`` in the low bits."""
        bits = list(self._bits)
        for other in others:
            bits.extend(other._bits)
        return trusted_spec(tuple(bits))

    def repeat(self, count: int) -> "SigSpec":
        return trusted_spec(self._bits * count)

    def extend(self, width: int, signed: bool = False) -> "SigSpec":
        """Zero-extend (or sign-extend) / truncate to ``width`` bits;
        ``self`` when it already has ``width`` bits."""
        if width == len(self._bits):
            return self
        if width < 0:
            raise ValueError("width must be >= 0")
        if width < len(self._bits):
            return trusted_spec(self._bits[:width])
        if signed and self._bits:
            pad = self._bits[-1]
        else:
            pad = BIT0
        return trusted_spec(self._bits + (pad,) * (width - len(self._bits)))

    @property
    def is_const(self) -> bool:
        """True when every bit is a constant (possibly ``x``)."""
        return all(bit.is_const for bit in self._bits)

    @property
    def is_fully_defined(self) -> bool:
        """True when every bit is constant ``0`` or ``1``."""
        return all(bit.is_const and bit.state.is_defined for bit in self._bits)

    def const_value(self) -> Optional[int]:
        """The unsigned integer value, or None if any bit is non-constant/x."""
        value = 0
        for i, bit in enumerate(self._bits):
            if not bit.is_const or not bit.state.is_defined:
                return None
            if bit.state is State.S1:
                value |= 1 << i
        return value

    def wires(self) -> List[Wire]:
        """The distinct wires referenced, in first-appearance order."""
        seen: dict = {}
        for bit in self._bits:
            if bit.wire is not None and id(bit.wire) not in seen:
                seen[id(bit.wire)] = bit.wire
        return list(seen.values())

    def __repr__(self) -> str:
        if not self._bits:
            return "SigSpec([])"
        if self.is_const:
            return "SigSpec('" + "".join(str(b.state) for b in reversed(self._bits)) + "')"
        parts = []
        i = 0
        while i < len(self._bits):
            bit = self._bits[i]
            if bit.is_const:
                parts.append(str(bit.state))
                i += 1
                continue
            # collapse runs of consecutive bits of the same wire
            j = i
            while (
                j + 1 < len(self._bits)
                and self._bits[j + 1].wire is bit.wire
                and self._bits[j + 1].offset == self._bits[j].offset + 1
            ):
                j += 1
            if i == 0 and j == len(self._bits) - 1 and bit.offset == 0 and \
                    j - i + 1 == bit.wire.width:
                parts.append(bit.wire.name)
            elif j > i:
                parts.append(f"{bit.wire.name}[{self._bits[j].offset}:{bit.offset}]")
            else:
                parts.append(f"{bit.wire.name}[{bit.offset}]")
            i = j + 1
        return "SigSpec(" + "{" + ",".join(reversed(parts)) + "}" + ")"


_new_spec = object.__new__
_set_bits = SigSpec._bits.__set__
_set_hash = SigSpec._hash.__set__


def trusted_spec(bits: Tuple[SigBit, ...]) -> SigSpec:
    """A :class:`SigSpec` over ``bits``, a tuple of bits already checked:
    the constructor's per-bit validation is skipped, so it is for bits
    read out of a wire or another spec."""
    spec = _new_spec(SigSpec)
    _set_bits(spec, bits)
    _set_hash(spec, hash(bits))
    return spec


def concat(*specs: SigLike) -> SigSpec:
    """Concatenate signals LSB-first (first argument occupies the low bits)."""
    result = SigSpec()
    for spec in specs:
        result = result.concat(SigSpec.coerce(spec))
    return result
