"""SigMap, the flat alias map: property-based invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ir import BIT0, BIT1, BITX, Module, SigBit, SigMap, SigSpec, Wire
from repro.ir.module import DriverConflictError


class ReferenceUnionFind:
    """The alias semantics in ten lines: parent pointers, the same root
    rule (a constant wins, else the driver side ``b`` keeps its root)."""

    def __init__(self):
        self.parent = {}

    def find(self, bit):
        while bit in self.parent:
            bit = self.parent[bit]
        return bit

    def add(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra is not rb:
            if ra.is_const and rb.is_const:
                raise DriverConflictError(f"{ra!r} shorted to {rb!r}")
            if ra.is_const:
                ra, rb = rb, ra
            self.parent[ra] = rb


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_aliases_form_equivalence_classes(data):
    n_wires = data.draw(st.integers(2, 10))
    wires = [Wire(f"w{i}", 1) for i in range(n_wires)]
    bits = [SigBit(w, 0) for w in wires]
    sigmap = SigMap()
    pairs = data.draw(
        st.lists(
            st.tuples(st.integers(0, n_wires - 1), st.integers(0, n_wires - 1)),
            max_size=15,
        )
    )
    # model the classes with an index union-find
    parent = list(range(n_wires))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in pairs:
        sigmap.add(bits[a], bits[b])
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for i in range(n_wires):
        for j in range(n_wires):
            same_class = find(i) == find(j)
            same_rep = sigmap.map_bit(bits[i]) == sigmap.map_bit(bits[j])
            assert same_class == same_rep, (i, j)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_constants_always_win_as_representatives(data):
    n_wires = data.draw(st.integers(1, 6))
    wires = [Wire(f"w{i}", 1) for i in range(n_wires)]
    bits = [SigBit(w, 0) for w in wires]
    sigmap = SigMap()
    # chain all wires together, then tie one to a constant
    for a, b in zip(bits, bits[1:]):
        sigmap.add(a, b)
    const = data.draw(st.sampled_from([BIT0, BIT1]))
    chosen = data.draw(st.integers(0, n_wires - 1))
    sigmap.add(bits[chosen], const)
    for bit in bits:
        assert sigmap.map_bit(bit) == const


def test_map_spec_is_elementwise():
    w1, w2 = Wire("a", 2), Wire("b", 2)
    module = Module("m")
    module.wires = {"a": w1, "b": w2}
    sigmap = SigMap()
    sigmap.add(SigBit(w1, 0), SigBit(w2, 0))
    spec = SigSpec([SigBit(w1, 0), SigBit(w1, 1)])
    mapped = sigmap.map_spec(spec)
    assert mapped[0] == sigmap.map_bit(SigBit(w1, 0))
    assert mapped[1] == SigBit(w1, 1)


def test_module_sigmap_reflects_connections():
    module = Module("m")
    a = module.add_wire("a", 2, port_input=True)
    mid = module.add_wire("mid", 2)
    out = module.add_wire("y", 2, port_output=True)
    module.connect(mid, a)
    module.connect(out, mid)
    sigmap = module.sigmap()
    for i in range(2):
        assert sigmap.map_bit(SigBit(out, i)) == sigmap.map_bit(SigBit(a, i))


CONSTS = (BIT0, BIT1, BITX)


def _random_unions(data, max_wires=12, max_unions=30):
    """Draw wire bits and alias pairs over them and the three constants;
    apply each pair to a fresh SigMap and to the reference, requiring a
    const-const short to raise in both and to change neither."""
    n_wires = data.draw(st.integers(1, max_wires))
    bits = [Wire(f"w{i}", 1)[0] for i in range(n_wires)]
    pool = bits + list(CONSTS)
    pairs = data.draw(st.lists(
        st.tuples(st.sampled_from(pool), st.sampled_from(pool)),
        max_size=max_unions,
    ))
    sigmap, reference = SigMap(), ReferenceUnionFind()
    for a, b in pairs:
        try:
            reference.add(a, b)
        except DriverConflictError:
            before = {bit: sigmap.get(bit, bit) for bit in pool}
            with pytest.raises(DriverConflictError):
                sigmap.add(a, b)
            assert {bit: sigmap.get(bit, bit) for bit in pool} == before
        else:
            sigmap.add(a, b)
    return pool, sigmap, reference


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_flat_map_matches_reference_union_find(data):
    pool, sigmap, reference = _random_unions(data)
    get = sigmap.get
    for bit in pool:
        assert get(bit, bit) is reference.find(bit), bit
        assert sigmap.map_bit(bit) is reference.find(bit), bit
    # len() counts the non-root bits, the reference's parent entries
    assert len(sigmap) == len(reference.parent)


def test_const_const_alias_raises():
    w = Wire("w", 1)[0]
    sigmap = SigMap()
    sigmap.add(w, BIT0)
    for const in (BIT1, BITX):
        with pytest.raises(DriverConflictError):
            sigmap.add(w, const)
        with pytest.raises(DriverConflictError):
            sigmap.add(const, BIT0)
    sigmap.add(BIT0, w)  # already one net: no short
    assert sigmap.get(w, w) is BIT0 and len(sigmap) == 1


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_get_bound_before_compact_answers_after_it(data):
    pool, sigmap, reference = _random_unions(data)
    get = sigmap.get
    live = [bit for bit in pool if data.draw(st.booleans())]
    dropped = sigmap.compact(live)
    kept = [bit for bit in live if reference.find(bit) is not bit]
    assert len(sigmap) == len(kept)
    assert dropped == len(reference.parent) - len(kept)
    for bit in live:
        assert get(bit, bit) is reference.find(bit), bit
    # unions after the compaction still re-point through the same get
    for a, b in data.draw(st.lists(
        st.tuples(st.sampled_from(live or pool), st.sampled_from(live or pool)),
        max_size=8,
    )):
        try:
            reference.add(a, b)
        except DriverConflictError:
            continue
        sigmap.add(a, b)
    for bit in live:
        assert get(bit, bit) is reference.find(bit), bit


def test_map_spec_returns_its_argument_when_no_bit_moves():
    a, b, c = (Wire(name, 2) for name in "abc")
    sigmap = SigMap()
    for i in range(2):
        sigmap.add(c[i], a[i])
    canonical = SigSpec([a[0], b[1], BIT1, a[1]])
    assert sigmap.map_spec(canonical) is canonical
    moved = SigSpec([c[0], b[1], BIT1, c[1]])
    mapped = sigmap.map_spec(moved)
    assert mapped is not moved
    assert mapped == canonical and hash(mapped) == hash(canonical)
    assert sigmap.map_spec(mapped) is mapped


def test_reverse_chain_of_2000_bits():
    """Each new bit drives the class built so far, so every union
    re-points the whole losing class (quadratic, see the docstring)."""
    bits = Wire("chain", 2000).bits
    sigmap, reference = SigMap(), ReferenceUnionFind()
    for prev, new in zip(bits, bits[1:]):
        sigmap.add(prev, new)
        reference.add(prev, new)
    get = sigmap.get
    assert all(get(bit, bit) is bits[-1] for bit in bits)
    assert [get(bit, bit) for bit in bits] == list(map(reference.find, bits))
    assert len(sigmap) == 1999
