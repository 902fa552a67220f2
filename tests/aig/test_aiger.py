"""AIGER ASCII writer/reader round-trips."""

import re

import pytest

from repro.aig import AIG, AigerError, aiger_str, read_aiger
from repro.ir import Circuit
from repro.aig import aig_map


def _sample_aig():
    aig = AIG()
    a, b = aig.add_input("a"), aig.add_input("b")
    aig.add_output(aig.xor(a, b), "y")
    return aig


def test_header_counts():
    aig = _sample_aig()
    header = aiger_str(aig).splitlines()[0].split()
    assert header[0] == "aag"
    assert int(header[2]) == 2  # inputs
    assert int(header[4]) == 1  # outputs
    assert int(header[5]) == 3  # ands (xor = 3)


def test_roundtrip_preserves_function():
    aig = _sample_aig()
    back = read_aiger(aiger_str(aig))
    for a in (0, 1):
        for b in (0, 1):
            assert aig.eval_outputs([a, b]) == back.eval_outputs([a, b])


def test_symbols_preserved():
    aig = _sample_aig()
    back = read_aiger(aiger_str(aig))
    assert back.input_names == ["a", "b"]
    assert back.outputs[0][0] == "y"


def test_roundtrip_real_netlist():
    c = Circuit("t")
    a, b = c.input("a", 4), c.input("b", 4)
    s = c.input("s")
    c.output("y", c.mux(c.add(a, b), c.sub(a, b), s))
    aig = aig_map(c.module)
    back = read_aiger(aiger_str(aig))
    assert back.num_ands == aig.num_ands
    vec = [1, 0, 1, 1, 0, 1, 0, 0, 1]
    assert aig.eval_outputs(vec) == back.eval_outputs(vec)


def test_reader_rejects_latches():
    with pytest.raises(ValueError):
        read_aiger("aag 1 0 1 0 0\n2 2\n")


def test_reader_rejects_bad_header():
    with pytest.raises(ValueError):
        read_aiger("not an aiger file")
    with pytest.raises(ValueError):
        read_aiger("")


@pytest.mark.parametrize("text, message", [
    ("aag 3 2 0 1 1\n2\n4\n", "line 4: input ends early"),
    ("aag 3 2 0 1 1\n2\n4\nx\n6 2 4\n", "line 4: non-integer literal"),
    ("aag 3 2 0 1 1\n2\n4\n6\n6 2\n", "line 5: expected 3 literal(s)"),
    ("aag 3 2 0 1 1\n2\n4\n6\n6 2 4\ni2 c\n", "line 6: bad symbol"),
    ("aag 3 2 0 1 1\n2\n4\n6\n6 2 4\no1 z\n", "line 6: bad symbol"),
    ("aag 3 2 0 1 1\n2\n4\n6\n6 2 40\n",
     "line 5: literal 40 names no variable defined so far"),
    ("aag 3 2 0 1 1\n2\n4\n6\n4 2 6\n",
     "line 5: variable 2 is defined twice (first on line 3)"),
    ("aag 3 2 0 1 1\n3\n4\n6\n6 2 4\n", "line 2: cannot define literal 3"),
    ("aag 3 2 0 1 1\n2\n0\n6\n6 2 4\n", "line 3: cannot define literal 0"),
    ("aag 3 2 0 1 1\n2\n4\n6\n8 2 4\n", "line 5: cannot define literal 8"),
    ("aag 3 2 0 1 1\n2\n4\n6\n6 6 4\n",
     "line 5: literal 6 names no variable defined so far"),
    ("aag 3 2 0 1 1\n2\n4\n8\n6 2 4\n",
     "line 4: literal 8 names no variable defined so far"),
], ids=["short-body", "literal", "and-fields", "input-symbol",
        "output-symbol", "fanin-out-of-range", "defined-twice", "odd-input",
        "zero-input", "lhs-out-of-range", "self-fanin", "output-undefined"])
def test_reader_rejects_bad_body_naming_the_line(text, message):
    with pytest.raises(AigerError, match=re.escape(message)):
        read_aiger(text)


#: ``y = b & ~a`` twice: inputs listed out of order (``4`` is ``a``,
#: ``2`` is ``b``), then the in-order twin
OUT_OF_ORDER = "aag 3 2 0 1 1\n4\n2\n6\n6 2 5\ni0 a\ni1 b\no0 y\n"
IN_ORDER = "aag 3 2 0 1 1\n2\n4\n6\n6 4 3\ni0 a\ni1 b\no0 y\n"


def test_reader_maps_declared_literals_to_variables():
    for text in (OUT_OF_ORDER, IN_ORDER):
        aig = read_aiger(text)
        assert aig.input_names == ["a", "b"]
        assert [aig.eval_outputs([a, b]) for a in (0, 1) for b in (0, 1)] \
            == [[0], [1], [0], [0]]
    assert read_aiger(OUT_OF_ORDER)._ands == read_aiger(IN_ORDER)._ands


def test_reader_keeps_the_files_and_nodes_one_for_one():
    # AND 8 is defined before AND 6 and a duplicate of it follows: the
    # nodes stay in file order, none folded away
    text = "aag 5 2 0 1 3\n2\n4\n6\n8 2 4\n6 8 3\n10 4 2\n"
    aig = read_aiger(text)
    assert aig._ands == [(2, 4), (3, 6), (2, 4)]
    assert aig.outputs == [("o0", 8)]
    assert [aig.eval_outputs([a, b]) for a in (0, 1) for b in (0, 1)] \
        == [[0], [0], [0], [0]]
