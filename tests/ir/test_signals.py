"""Unit tests for State / Wire / SigBit / SigSpec."""

import pickle
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from repro.ir import (
    BIT0,
    BIT1,
    BITX,
    Module,
    SigBit,
    SigSpec,
    State,
    Wire,
    concat,
    const_bit,
)
from repro.workloads import build_case

#: ``pickle.dumps(module, protocol=4)`` of a small module, written before
#: bits were interned (wires ``a``/``b`` in, ``y`` out, ``t`` with an
#: attribute; cell ``g = a & {b, b}`` drives ``t``; ``y`` aliases ``t``):
#: store generations of that format must keep loading
OLD_MODULE_PICKLE = (
    b'\x80\x04\x95\xb8\x02\x00\x00\x00\x00\x00\x00\x8c\x0frepro.ir.module'
    b'\x94\x8c\x06Module\x94\x93\x94)\x81\x94}\x94(\x8c\x04name\x94\x8c'
    b'\x03old\x94\x8c\x05wires\x94}\x94(\x8c\x01a\x94\x8c\x10repro.ir.sig'
    b'nals\x94\x8c\x04Wire\x94\x93\x94)\x81\x94N}\x94(h\x05h\t\x8c\x05wid'
    b'th\x94K\x02\x8c\nport_input\x94\x88\x8c\x0bport_output\x94\x89\x8c'
    b'\nattributes\x94}\x94u\x86\x94b\x8c\x01b\x94h\x0c)\x81\x94N}\x94(h'
    b'\x05h\x15h\x0fK\x01h\x10\x88h\x11\x89h\x12}\x94u\x86\x94b\x8c\x01y'
    b'\x94h\x0c)\x81\x94N}\x94(h\x05h\x1ah\x0fK\x02h\x10\x89h\x11\x88h'
    b'\x12}\x94u\x86\x94b\x8c\x01t\x94h\x0c)\x81\x94N}\x94(h\x05h\x1fh'
    b'\x0fK\x02h\x10\x89h\x11\x89h\x12}\x94\x8c\x03src\x94\x8c\x05x.v:3'
    b'\x94su\x86\x94bu\x8c\x05cells\x94}\x94\x8c\x01g\x94h\x00\x8c\x04Cel'
    b'l\x94\x93\x94)\x81\x94N}\x94(h\x05h(\x8c\x04type\x94\x8c\x0erepro.i'
    b'r.cells\x94\x8c\x08CellType\x94\x93\x94\x8c\x03and\x94\x85\x94R\x94'
    b'h\x0fK\x02\x8c\x01n\x94K\x01\x8c\x0bconnections\x94}\x94(\x8c\x01A'
    b'\x94h\n\x8c\x07SigSpec\x94\x93\x94h\n\x8c\x06SigBit\x94\x93\x94h\rK'
    b'\x00N\x87\x94R\x94h;h\rK\x01N\x87\x94R\x94\x86\x94\x85\x94R\x94\x8c'
    b'\x01B\x94h9h;h\x16K\x00N\x87\x94R\x94h;h\x16K\x00N\x87\x94R\x94\x86'
    b'\x94\x85\x94R\x94\x8c\x01Y\x94h9h;h K\x00N\x87\x94R\x94h;h K\x01N'
    b'\x87\x94R\x94\x86\x94\x85\x94R\x94uh\x12}\x94\x8c\x07version\x94K'
    b'\x03\x8c\x07_module\x94h\x03u\x86\x94bs\x8c\tinstances\x94}\x94h5]'
    b'\x94h9h;h\x1bK\x00N\x87\x94R\x94h;h\x1bK\x01N\x87\x94R\x94\x86\x94'
    b'\x85\x94R\x94h9h;h K\x00N\x87\x94R\x94h;h K\x01N\x87\x94R\x94\x86'
    b'\x94\x85\x94R\x94\x86\x94a\x8c\r_name_counter\x94K\x00\x8c\n_listen'
    b'ers\x94]\x94\x8c\n_net_index\x94N\x8c\x0b_edge_cache\x94Nub.'
)


class TestState:
    def test_from_bool(self):
        assert State.from_bool(True) is State.S1
        assert State.from_bool(False) is State.S0

    def test_invert(self):
        assert ~State.S0 is State.S1
        assert ~State.S1 is State.S0
        assert ~State.Sx is State.Sx

    def test_is_defined(self):
        assert State.S0.is_defined and State.S1.is_defined
        assert not State.Sx.is_defined

    def test_to_bool_raises_on_x(self):
        with pytest.raises(ValueError):
            State.Sx.to_bool()

    def test_str(self):
        assert [str(s) for s in (State.S0, State.S1, State.Sx)] == ["0", "1", "x"]


class TestWire:
    def test_basic(self):
        w = Wire("a", 8, port_input=True)
        assert w.width == 8 and w.is_port and len(w) == 8

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            Wire("a", 0)

    def test_rejects_inout(self):
        with pytest.raises(ValueError):
            Wire("a", 1, port_input=True, port_output=True)

    def test_indexing_yields_bits(self):
        w = Wire("a", 4)
        bit = w[2]
        assert isinstance(bit, SigBit)
        assert bit.wire is w and bit.offset == 2


class TestSigBit:
    def test_const_interning(self):
        assert const_bit(0) is BIT0
        assert const_bit(1) is BIT1
        assert const_bit(State.Sx) is BITX
        assert const_bit(True) is BIT1

    def test_equality_semantics(self):
        w = Wire("a", 2)
        assert SigBit(w, 1) == SigBit(w, 1)
        assert SigBit(w, 0) != SigBit(w, 1)
        other = Wire("a", 2)  # same name, different wire object
        assert SigBit(w, 0) != SigBit(other, 0)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            BIT0.offset = 1

    def test_needs_exactly_one_of_wire_state(self):
        with pytest.raises(ValueError):
            SigBit()
        with pytest.raises(ValueError):
            SigBit(Wire("a"), 0, State.S0)

    def test_offset_range_checked(self):
        with pytest.raises(IndexError):
            SigBit(Wire("a", 2), 5)

    def test_const_value(self):
        assert BIT1.const_value() is State.S1
        with pytest.raises(ValueError):
            SigBit(Wire("a"), 0).const_value()


def _assert_interned(module):
    """Every bit the module mentions is the interned bit of one of its
    own wires (or an interned constant)."""
    specs = [spec for cell in module.cells.values()
             for spec in cell.connections.values()]
    specs.extend(spec for pair in module.connections for spec in pair)
    assert specs
    for spec in specs:
        for bit in spec:
            if bit.is_const:
                assert bit in (BIT0, BIT1, BITX)
                continue
            assert module.wires[bit.wire.name] is bit.wire
            assert SigBit(bit.wire, bit.offset) is bit
            assert bit.wire.bits[bit.offset] is bit


class TestInterning:
    def test_one_object_per_bit(self):
        w = Wire("a", 4)
        spec = SigSpec.from_wire(w)
        for i in range(4):
            assert SigBit(w, i) is w[i] is spec[i] is w.bits[i]
        assert w[-1] is w[3]
        assert w[1:3] == SigSpec([w[1], w[2]])
        assert SigBit(state=State.S0) is BIT0
        assert SigBit(state=State.S1) is BIT1
        assert SigBit(state=State.Sx) is BITX

    def test_equality_is_identity(self):
        assert "__eq__" not in vars(SigBit) and "__hash__" not in vars(SigBit)
        assert not hasattr(BIT0, "_hash")
        w, other = Wire("a", 2), Wire("a", 2)
        assert w[0] == SigBit(w, 0) and hash(w[0]) == hash(SigBit(w, 0))
        assert w[0] != other[0] and w[0] != w[1]

    def test_threads_get_one_object_per_bit(self):
        # the thread-isolated serve daemon runs jobs on two threads at
        # once; a bit tuple filled lazily on first access could hand two
        # racing threads two objects for one bit
        wires = [Wire(f"w{i}", 64) for i in range(32)]
        seen = []

        def take_bits():
            seen.append([[SigBit(w, i) for i in range(w.width)] for w in wires])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=take_bits) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 8
        for bits_per_wire in seen:
            for w, bits in zip(wires, bits_per_wire):
                assert all(bit is w[i] for i, bit in enumerate(bits))

    def test_wire_pickles_only_its_public_slots(self):
        w = Wire("a", 3, port_input=True)
        w.attributes["src"] = "x.v:1"
        assert w.__reduce_ex__(4)[2] == (None, {
            "name": "a", "width": 3, "port_input": True,
            "port_output": False, "attributes": {"src": "x.v:1"},
        })
        copy = pickle.loads(pickle.dumps(w, protocol=4))
        assert copy.width == 3 and copy.attributes == {"src": "x.v:1"}
        assert SigBit(copy, 2) is copy[2] and copy[2].wire is copy

    def test_bit_pickle_lands_on_the_interned_bit(self):
        w = Wire("a", 2)
        w2, bit, const = pickle.loads(pickle.dumps((w, w[1], BIT1)))
        assert bit is w2[1] and const is BIT1

    @pytest.mark.parametrize("how", ["clone", "pickle"])
    def test_copies_keep_bits_interned(self, how):
        module = build_case("ac97_ctrl")
        if how == "clone":
            copy = module.clone()
        else:
            copy = pickle.loads(pickle.dumps(module, protocol=4))
        _assert_interned(copy)
        assert not set(map(id, copy.wires.values())) & set(
            map(id, module.wires.values()))

    def test_module_pickled_before_interning_loads(self):
        module = pickle.loads(OLD_MODULE_PICKLE)
        assert isinstance(module, Module)
        _assert_interned(module)
        a, b, t, y = (module.wires[name] for name in "abty")
        gate = module.cells["g"]
        assert gate.connections["A"] == SigSpec.from_wire(a)
        assert gate.connections["B"] == SigSpec([b[0], b[0]])
        assert gate.connections["Y"] == SigSpec.from_wire(t)
        assert module.connections == [(SigSpec.from_wire(y), SigSpec.from_wire(t))]
        assert t.attributes == {"src": "x.v:3"} and a.port_input
        _assert_interned(pickle.loads(pickle.dumps(module, protocol=4)))


class TestSigSpec:
    def test_from_const_lsb_first(self):
        spec = SigSpec.from_const(0b1010, 4)
        assert [b.state for b in spec] == [State.S0, State.S1, State.S0, State.S1]
        assert spec.const_value() == 0b1010

    def test_from_const_truncates_negative(self):
        assert SigSpec.from_const(-1, 4).const_value() == 0xF

    def test_from_pattern_msb_first(self):
        spec = SigSpec.from_pattern("01x")
        assert spec[2].state is State.S0
        assert spec[1].state is State.S1
        assert spec[0].state is State.Sx
        assert spec.const_value() is None
        assert spec.is_const and not spec.is_fully_defined

    def test_pattern_z_and_question_become_x(self):
        assert all(b is BITX for b in SigSpec.from_pattern("z?"))

    def test_pattern_rejects_junk(self):
        with pytest.raises(ValueError):
            SigSpec.from_pattern("02")

    def test_coerce_variants(self):
        w = Wire("a", 3)
        assert len(SigSpec.coerce(w)) == 3
        assert SigSpec.coerce(5, 4).const_value() == 5
        assert SigSpec.coerce(BIT1) == SigSpec([BIT1])
        assert SigSpec.coerce([1, 0]) == SigSpec([BIT1, BIT0])
        assert SigSpec.coerce(True).const_value() == 1

    def test_coerce_extends_to_width(self):
        assert SigSpec.coerce(1, 4).const_value() == 1
        assert len(SigSpec.coerce(Wire("a", 2), 4)) == 4

    def test_slicing(self):
        spec = SigSpec.from_const(0b1100, 4)
        low = spec[0:2]
        assert isinstance(low, SigSpec) and low.const_value() == 0
        assert spec[2:4].const_value() == 0b11

    def test_concat_lsb_first(self):
        a = SigSpec.from_const(0b01, 2)
        b = SigSpec.from_const(0b1, 1)
        combined = a.concat(b)
        assert combined.const_value() == 0b101

    def test_concat_function(self):
        assert concat(1, 0, 1).const_value() == 0b101

    def test_repeat(self):
        assert SigSpec.from_const(1, 1).repeat(3).const_value() == 0b111

    def test_extend_zero_and_sign(self):
        spec = SigSpec.from_const(0b10, 2)
        assert spec.extend(4).const_value() == 0b0010
        assert spec.extend(4, signed=True).const_value() == 0b1110
        assert spec.extend(1).const_value() == 0

    def test_wires_dedup(self):
        w1, w2 = Wire("a", 2), Wire("b", 2)
        spec = SigSpec.from_wire(w1).concat(SigSpec.from_wire(w2)).concat(
            SigSpec.from_wire(w1)
        )
        assert spec.wires() == [w1, w2]

    def test_hash_equality(self):
        a = SigSpec.from_const(3, 2)
        b = SigSpec.from_const(3, 2)
        assert a == b and hash(a) == hash(b)

    def test_repr_collapses_runs(self):
        w = Wire("data", 4)
        text = repr(SigSpec.from_wire(w))
        assert "data" in text

    @given(st.integers(min_value=0, max_value=2**16 - 1), st.integers(1, 16))
    def test_const_roundtrip(self, value, width):
        spec = SigSpec.from_const(value, width)
        assert spec.const_value() == value % (1 << width)

    @given(st.integers(0, 255), st.integers(0, 255))
    def test_concat_value_composition(self, lo, hi):
        spec = concat(SigSpec.from_const(lo, 8), SigSpec.from_const(hi, 8))
        assert spec.const_value() == lo | (hi << 8)

    @given(st.integers(0, 2**12 - 1), st.integers(0, 11), st.integers(1, 12))
    def test_slice_matches_shift(self, value, start, length):
        spec = SigSpec.from_const(value, 12)
        piece = spec[start:start + length]
        expected = (value >> start) & ((1 << len(piece)) - 1)
        assert piece.const_value() == expected
