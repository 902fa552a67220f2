"""NetIndex: drivers, readers, cones, topo order, loop detection."""

import pytest

from repro.ir import (
    CellType,
    Circuit,
    CombLoopError,
    DriverConflictError,
    Module,
    NetIndex,
    SigBit,
    SigSpec,
)


def _mux_chain():
    c = Circuit("t")
    a = c.input("a", 2)
    b = c.input("b", 2)
    s = c.input("s")
    inner = c.and_(a, b)
    y = c.mux(a, inner, s)
    c.output("y", y)
    return c.module, a, b, s, inner, y


class TestDrivers:
    def test_driver_and_readers(self):
        m, a, b, s, inner, y = _mux_chain()
        index = NetIndex(m)
        and_cell = next(m.cells_of_type(CellType.AND))
        mux_cell = next(m.cells_of_type(CellType.MUX))
        assert index.driver_cell(inner[0]) is and_cell
        readers = index.readers[index.canonical(inner[0])]
        assert any(cell is mux_cell for cell, _p, _o in readers)

    def test_output_alias_resolves_to_driver(self):
        m, *_rest, y = _mux_chain()
        index = NetIndex(m)
        out = m.wire("y")
        assert index.driver_cell(SigBit(out, 0)) is not None

    def test_double_driver_detected(self):
        m = Module("bad")
        a = m.add_wire("a", 1, port_input=True)
        y = m.add_wire("y", 1, port_output=True)
        m.add_cell(CellType.NOT, A=a, Y=y)
        m.add_cell(CellType.NOT, name="dup", A=a, Y=y)
        with pytest.raises(DriverConflictError):
            NetIndex(m)

    def test_sources(self):
        m, a, b, s, inner, y = _mux_chain()
        index = NetIndex(m)
        assert index.is_source(a[0])
        assert not index.is_source(inner[0])

    def test_dff_q_is_source(self):
        c = Circuit("t")
        clk, d = c.input("clk"), c.input("d", 2)
        q = c.dff(clk, d)
        c.output("q", q)
        index = NetIndex(c.module)
        assert index.is_source(q[0])
        assert index.comb_driver(q[0]) is None
        assert index.driver_cell(q[0]) is not None  # the dff itself


class TestTopo:
    def test_topological_order(self):
        m, *_ = _mux_chain()
        index = NetIndex(m)
        order = [cell.name for cell in index.topo_cells()]
        and_name = next(m.cells_of_type(CellType.AND)).name
        mux_name = next(m.cells_of_type(CellType.MUX)).name
        assert order.index(and_name) < order.index(mux_name)

    def test_loop_detection(self):
        m = Module("loop")
        a = m.add_wire("a", 1)
        b = m.add_wire("b", 1)
        m.add_cell(CellType.NOT, A=a, Y=b)
        m.add_cell(CellType.NOT, A=b, Y=a)
        with pytest.raises(CombLoopError):
            NetIndex(m).topo_cells()

    def test_dff_breaks_loops(self):
        c = Circuit("t")
        clk = c.input("clk")
        state = c.wire("state", 2)
        nxt = c.add(state, 1)
        c.module.add_cell(CellType.DFF, CLK=clk, D=nxt, Q=state)
        c.output("q", state)
        NetIndex(c.module).topo_cells()  # must not raise


class TestCones:
    def test_fanin_cone(self):
        m, a, b, s, inner, y = _mux_chain()
        index = NetIndex(m)
        cone = index.fanin_cone([y[0]])
        assert index.canonical(a[0]) in cone
        assert index.canonical(s[0]) in cone

    def test_fanin_cone_depth_limit(self):
        m, a, b, s, inner, y = _mux_chain()
        index = NetIndex(m)
        shallow = index.fanin_cone([y[0]], max_depth=1)
        # depth 1 crosses only the mux, not the and
        assert index.canonical(b[0]) not in shallow

    def test_fanout_cone(self):
        m, a, b, s, inner, y = _mux_chain()
        index = NetIndex(m)
        cone = index.fanout_cone([a[0]])
        assert index.canonical(y[0]) in cone

    def test_support(self):
        m, a, b, s, inner, y = _mux_chain()
        index = NetIndex(m)
        support = index.support([y[0]])
        assert index.canonical(s[0]) in support
        assert all(index.is_source(bit) for bit in support)

    def test_is_ancestor(self):
        m, a, b, s, inner, y = _mux_chain()
        index = NetIndex(m)
        assert index.is_ancestor(a[0], y[0])
        assert not index.is_ancestor(y[0], a[0])

    def test_fanout_count(self):
        m, a, b, s, inner, y = _mux_chain()
        index = NetIndex(m)
        # `a` feeds both the and-gate and the mux A port
        assert index.fanout_count(a[0]) == 2


class TestCanonicalView:
    def test_ids_pins_and_drivers(self):
        m, a, b, s, inner, y = _mux_chain()
        index = NetIndex(m)
        view = index.canonical_view()
        mux_cell = next(m.cells_of_type(CellType.MUX))
        assert [view.bits[bid] for bid in view.pins(mux_cell)] == [
            index.canonical(bit)
            for bit in mux_cell.input_bits() + mux_cell.output_bits()
        ]
        # an output-port alias numbers like the net it aliases
        assert view.bit_id(SigBit(m.wire("y"), 0)) == view.bit_id(y[0])
        and_cell = next(m.cells_of_type(CellType.AND))
        assert view.driver(view.bit_id(inner[0])) is and_cell
        assert view.neighbours(view.bit_id(inner[0])) == (and_cell, mux_cell)

    def test_one_view_per_frozen_window(self):
        m, a, b, s, inner, y = _mux_chain()
        index = m.net_index()
        mux_cell = next(m.cells_of_type(CellType.MUX))
        with index.frozen():
            view = index.canonical_view()
            s_id = view.bit_id(s[0])
            assert s_id in view.pins(mux_cell)
            mux_cell.set_port("S", 1)  # buffered: the maps keep the snapshot
            assert index.canonical_view() is view
            assert s_id not in view.pins(mux_cell)
            assert view.bit_id(SigSpec.coerce(1, 1)[0]) in view.inputs(mux_cell)
        # the buffered edit was applied on exit, which drops the view
        assert index.canonical_view() is not view
