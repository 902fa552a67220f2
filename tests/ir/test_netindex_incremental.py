"""Property tests: the live NetIndex equals a fresh rebuild after any edits.

The incremental engine's correctness rests on one invariant: after an
arbitrary sequence of structural edits (port rewires, cell additions and
removals, new alias connections), the module's shared live index must hold
exactly the driver/reader maps, topological order and cone query results
that a from-scratch ``NetIndex(module)`` build would produce.  These tests
drive randomized edit sequences over fuzz-corpus modules and compare the
two after every burst.
"""

from __future__ import annotations

import random

import pytest

from repro.equiv.differential import random_module
from repro.ir.cells import CellType
from repro.ir.signals import SigBit, SigSpec
from repro.ir.walker import NetIndex


def _reader_view(index):
    return {
        bit: sorted((cell.name, port, off) for cell, port, off in entries)
        for bit, entries in index.readers.items()
        if entries
    }


def _driver_view(index):
    return {
        bit: (cell.name, port, off)
        for bit, (cell, port, off) in index.driver.items()
    }


def assert_matches_fresh(module, live):
    live.check_consistent()
    fresh = NetIndex(module)
    assert _driver_view(live) == _driver_view(fresh)
    assert _reader_view(live) == _reader_view(fresh)
    assert [c.name for c in live.topo_cells()] == [
        c.name for c in fresh.topo_cells()
    ]
    # output-bit closure and source classification agree on every port bit
    for wire in module.wires.values():
        for i in range(wire.width):
            bit = SigBit(wire, i)
            assert live.canonical(bit) == fresh.canonical(bit)
            assert live.is_source(bit) == fresh.is_source(bit)
            if wire.port_output:
                assert live.is_output_bit(bit)
    # cone queries on a deterministic sample of driven bits
    sample = sorted(
        fresh.driver, key=lambda b: (b.wire.name, b.offset)
    )[::3][:12]
    for bit in sample:
        assert live.fanin_cone([bit]) == fresh.fanin_cone([bit])
        assert live.fanout_cone([bit]) == fresh.fanout_cone([bit])
        assert live.fanin_cone([bit], max_depth=2) == fresh.fanin_cone(
            [bit], max_depth=2
        )
        assert live.support([bit]) == fresh.support([bit])


def _source_bits(module):
    """Bits safe to rewire an input port to without creating a comb loop."""
    bits = []
    for wire in module.wires.values():
        if wire.port_input:
            bits.extend(SigBit(wire, i) for i in range(wire.width))
    return bits


def _random_edit(rng, module, sources):
    """Apply one random valid structural edit."""
    roll = rng.random()
    cells = sorted(module.cells)
    if roll < 0.35 and cells:
        # rewire one input port of a random cell to sources/constants
        from repro.ir.cells import input_ports

        cell = module.cells[rng.choice(cells)]
        ports = list(input_ports(cell.type))
        port = rng.choice(ports)
        width = len(cell.connections[port])
        new_bits = [
            rng.choice(sources) if rng.random() < 0.8
            else SigSpec.from_const(rng.getrandbits(1), 1)[0]
            for _ in range(width)
        ]
        cell.set_port(port, SigSpec(new_bits))
    elif roll < 0.6:
        # add a fresh cell over source bits
        width = rng.choice([1, 2, 4])
        a = SigSpec([rng.choice(sources) for _ in range(width)])
        b = SigSpec([rng.choice(sources) for _ in range(width)])
        ctype = rng.choice([CellType.AND, CellType.OR, CellType.XOR])
        module.add_cell(ctype, A=a, B=b)
    elif roll < 0.8 and cells:
        module.remove_cell(rng.choice(cells))
    else:
        # alias a fresh wire to an existing signal
        width = rng.choice([1, 2])
        wire = module.add_wire(width=width)
        rhs = SigSpec([rng.choice(sources) for _ in range(width)])
        module.connect(wire, rhs)


@pytest.mark.parametrize("seed", range(8))
def test_random_edit_sequences_match_fresh_build(seed):
    module = random_module(5000 + seed, width=4, n_units=3)
    rng = random.Random(seed)
    live = module.net_index()
    assert_matches_fresh(module, live)
    sources = _source_bits(module)
    for _burst in range(6):
        for _ in range(rng.randint(1, 5)):
            _random_edit(rng, module, sources)
        assert_matches_fresh(module, live)


@pytest.mark.parametrize("seed", range(4))
def test_optimization_flow_keeps_live_index_current(seed):
    """After a full incremental optimization flow — the heaviest realistic
    edit sequence: folds, merges, bypasses, rebuilds, dead-code reaping and
    alias pruning — the live index still equals a fresh build."""
    from repro.api import Session

    module = random_module(6000 + seed, width=4, n_units=3)
    live = module.net_index()
    Session(module).run("smartly")
    assert_matches_fresh(module, live)
    Session(module).run("yosys")
    assert_matches_fresh(module, live)


def test_frozen_buffers_edits_until_exit():
    module = random_module(7000, width=4, n_units=2)
    live = module.net_index()
    before_drivers = _driver_view(live)
    name = sorted(module.cells)[0]
    with live.frozen():
        module.remove_cell(name)
        # inside the window the index still answers from the snapshot
        assert _driver_view(live) == before_drivers
    assert_matches_fresh(module, live)
    assert all(entry[0] != name for entry in _driver_view(live).values())


class TestFrozenWindows:
    """Snapshot windows: edits buffer, queries answer pre-edit, exit syncs."""

    def test_queries_stay_on_snapshot_under_interleaved_edits(self):
        module = random_module(7100, width=4, n_units=3)
        live = module.net_index()
        sources = _source_bits(module)
        before_drivers = _driver_view(live)
        before_readers = _reader_view(live)
        before_topo = [c.name for c in live.topo_cells()]
        victim = sorted(module.cells)[0]
        with live.frozen():
            # a representative burst of every edit kind, interleaved with
            # queries that must keep answering from the entry snapshot
            module.remove_cell(victim)
            assert _driver_view(live) == before_drivers
            module.add_cell(CellType.AND, A=SigSpec([sources[0]]),
                            B=SigSpec([sources[1]]))
            assert _reader_view(live) == before_readers
            wire = module.add_wire(width=1)
            module.connect(wire, SigSpec([sources[2]]))
            survivor = module.cells[sorted(module.cells)[0]]
            from repro.ir.cells import input_ports

            port = next(iter(input_ports(survivor.type)))
            width = len(survivor.connections[port])
            survivor.set_port(
                port, SigSpec([sources[0] for _ in range(width)])
            )
            assert _driver_view(live) == before_drivers
            assert _reader_view(live) == before_readers
            assert [c.name for c in live.topo_cells()] == before_topo
        # on exit the buffered edits are applied: live == fresh again
        assert_matches_fresh(module, live)

    def test_nested_windows_apply_only_at_outermost_exit(self):
        module = random_module(7101, width=4, n_units=2)
        live = module.net_index()
        before = _driver_view(live)
        victim = sorted(module.cells)[0]
        with live.frozen():
            with live.frozen():
                module.remove_cell(victim)
            # inner exit: still frozen, still the snapshot
            assert _driver_view(live) == before
        assert_matches_fresh(module, live)

    def test_large_burst_replays_to_a_fresh_index(self):
        module = random_module(7102, width=4, n_units=2)
        live = module.net_index()
        sources = _source_bits(module)
        rng = random.Random(7102)
        with live.frozen():
            # more edits than 2x the module's cells: the exit replay alone
            # must still resync the whole index
            for _ in range(max(64, 2 * len(module.cells)) + 8):
                _random_edit(rng, module, sources)
        assert_matches_fresh(module, live)

    def test_window_isolates_readers_of_rewired_nets(self):
        from repro.ir.builder import Circuit

        c = Circuit("frozenreaders")
        a, b, s = c.input("a", 2), c.input("b", 2), c.input("s")
        mux = c.mux(a, b, s)
        c.output("y", c.xor(mux, a))
        module = c.module
        live = module.net_index()
        mux_cell = next(module.cells_of_type(CellType.MUX))
        y_bit = live.canonical(mux_cell.connections["Y"][0])
        readers_before = {cell.name for cell, _p, _o
                          in live.readers.get(y_bit, ())}
        with live.frozen():
            mux_cell.set_port("A", b)
            xor_cell = next(module.cells_of_type(CellType.XOR))
            xor_cell.set_port("A", b)
            # the stale-by-design window still reports the old readership
            assert {cell.name for cell, _p, _o
                    in live.readers.get(y_bit, ())} == readers_before
        assert_matches_fresh(module, live)


def test_net_index_is_shared_and_live():
    module = random_module(7001, width=4, n_units=2)
    first = module.net_index()
    assert module.net_index() is first
    count = len(module.cells)
    sources = _source_bits(module)
    module.add_cell(CellType.AND, A=SigSpec([sources[0]]),
                    B=SigSpec([sources[1]]))
    assert len(module.cells) == count + 1
    assert_matches_fresh(module, first)


def test_clone_does_not_share_live_index():
    module = random_module(7002, width=4, n_units=2)
    live = module.net_index()
    clone = module.clone()
    assert clone._net_index is None
    # editing the clone must not disturb the original's live index
    clone.remove_cell(sorted(clone.cells)[0])
    assert_matches_fresh(module, live)
