"""Tests for Module, Cell and SigMap."""

import pytest

from repro.api import Session
from repro.ir import (
    BIT0,
    BIT1,
    CellType,
    Circuit,
    DriverConflictError,
    Module,
    SigBit,
    SigSpec,
    SigMap,
    check_module,
)


class TestModuleWires:
    def test_add_and_lookup(self):
        m = Module("m")
        w = m.add_wire("a", 4, port_input=True)
        assert m.wire("a") is w
        assert m.inputs == [w] and m.outputs == []

    def test_duplicate_name_rejected(self):
        m = Module("m")
        m.add_wire("a")
        with pytest.raises(ValueError):
            m.add_wire("a")

    def test_fresh_names_unique(self):
        m = Module("m")
        names = {m.add_wire(width=1).name for _ in range(10)}
        assert len(names) == 10


class TestModuleCells:
    def test_add_cell_infers_width(self):
        m = Module("m")
        a = m.add_wire("a", 4)
        b = m.add_wire("b", 4)
        cell = m.add_cell(CellType.AND, A=a, B=b)
        assert cell.width == 4
        assert len(cell.connections["Y"]) == 4  # auto-created output

    def test_missing_input_rejected(self):
        m = Module("m")
        a = m.add_wire("a", 4)
        with pytest.raises(ValueError):
            m.add_cell(CellType.AND, A=a)

    def test_port_width_checked(self):
        m = Module("m")
        a = m.add_wire("a", 4)
        s = m.add_wire("s", 2)
        with pytest.raises(ValueError):
            m.add_cell(CellType.MUX, A=a, B=a, S=s)

    def test_pmux_branch_slices(self):
        m = Module("m")
        a = m.add_wire("a", 2)
        b = m.add_wire("b", 6)
        s = m.add_wire("s", 3)
        cell = m.add_cell(CellType.PMUX, n=3, A=a, B=b, S=s)
        branch = cell.pmux_branch(1)
        assert branch == SigSpec.from_wire(b)[2:4]
        with pytest.raises(IndexError):
            cell.pmux_branch(3)

    def test_cells_of_type(self):
        c = Circuit("m")
        a = c.input("a", 2)
        c.output("y", c.and_(a, a))
        c.output("z", c.or_(a, a))
        m = c.module
        assert len(list(m.cells_of_type(CellType.AND))) == 1
        assert len(list(m.cells_of_type(CellType.AND, CellType.OR))) == 2

    def test_stats(self):
        c = Circuit("m")
        a = c.input("a", 2)
        c.output("y", c.not_(a))
        stats = c.module.stats()
        assert stats["not"] == 1 and stats["_cells"] == 1


class TestConnections:
    def test_connect_width_mismatch(self):
        m = Module("m")
        a = m.add_wire("a", 2)
        b = m.add_wire("b", 3)
        with pytest.raises(ValueError):
            m.connect(SigSpec.from_wire(a), SigSpec.from_wire(b))

    def test_cannot_drive_constant(self):
        m = Module("m")
        with pytest.raises(ValueError):
            m.connect(SigSpec([BIT0]), SigSpec([BIT1]))

    def test_sigmap_resolves_chain(self):
        m = Module("m")
        a = m.add_wire("a")
        b = m.add_wire("b")
        cbit = m.add_wire("c")
        m.connect(b, a)
        m.connect(cbit, b)
        sigmap = m.sigmap()
        assert sigmap.map_bit(SigBit(cbit, 0)) == sigmap.map_bit(SigBit(a, 0))

    def test_sigmap_prefers_constants(self):
        m = Module("m")
        a = m.add_wire("a")
        m.connect(a, SigSpec([BIT1]))
        assert m.sigmap().map_bit(SigBit(a, 0)) == BIT1

    def test_sigmap_idempotent(self):
        sigmap = SigMap()
        w = SigBit(Module("m").add_wire("w"), 0)
        assert sigmap.map_bit(w) == w


def _shorted_module(short=True):
    """``assign w = 1'b0; assign w = 1'b1; assign y = a & w;``"""
    m = Module("m")
    a = m.add_wire("a", port_input=True)
    w = m.add_wire("w")
    y = m.add_wire("y", port_output=True)
    m.connect(w, 0)
    if short:
        m.connect(w, 1)
    m.add_cell(CellType.AND, A=a, B=w, Y=y)
    return m


class TestConstantShort:
    """Aliasing two different constants raises instead of merging them."""

    def test_sigmap_refuses_to_merge_constants(self):
        with pytest.raises(DriverConflictError, match="shorts constant"):
            SigMap(_shorted_module())
        sigmap = SigMap()
        w = SigBit(Module("m").add_wire("w"), 0)
        sigmap.add(w, BIT0)
        sigmap.add(w, BIT0)  # the same constant again is fine
        with pytest.raises(DriverConflictError):
            sigmap.add(BIT1, w)
        assert sigmap.map_bit(w) is BIT0 and sigmap.map_bit(BIT1) is BIT1

    def test_check_module_reports_the_short(self):
        problems = check_module(_shorted_module())
        assert any("shorts constant" in problem for problem in problems)

    def test_checked_run_refuses_the_short(self):
        with pytest.raises(DriverConflictError):
            Session(_shorted_module()).run("yosys", check=True)

    def test_live_index_refuses_the_short(self):
        m = _shorted_module(short=False)
        index = m.net_index()
        with pytest.raises(DriverConflictError):
            m.connect(m.wires["w"], 1)
        assert index.canonical(BIT1) is BIT1


class TestClone:
    def test_clone_is_deep_and_equivalent(self):
        c = Circuit("m")
        a = c.input("a", 4)
        b = c.input("b", 4)
        s = c.input("s")
        c.output("y", c.mux(a, b, s))
        m = c.module
        copy = m.clone()
        assert copy is not m
        assert set(copy.wires) == set(m.wires)
        assert set(copy.cells) == set(m.cells)
        # mutating the copy leaves the original alone
        copy.remove_cell(next(iter(copy.cells)))
        assert len(m.cells) == 1

    def test_clone_preserves_behaviour(self):
        from repro.sim import Simulator

        c = Circuit("m")
        a = c.input("a", 4)
        c.output("y", c.add(a, 3))
        m2 = c.module.clone()
        assert Simulator(m2).run({"a": 5})["y"] == 8
