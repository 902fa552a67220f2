"""aigmap's output, pinned: the AND count, structural digest, input names
and outputs of every Table II case before and after smartly, and of small
modules that take each branch of ``AigMapper.sources()``.

The pinned values were computed by the mapper that walked every cell
input for its sources and asked ``comb_driver`` per bit; a mapper that
reads the index's maps must reproduce them exactly.  So must the errors
a driver conflict or a combinational loop raises from ``aig_map`` and
``topo_cells``.
"""

import hashlib

import pytest

from repro.aig import aig_map
from repro.api import Session
from repro.frontend import compile_verilog
from repro.ir import CellType, Module, NetIndex
from repro.ir.module import DriverConflictError
from repro.ir.verilog_writer import verilog_str
from repro.ir.walker import CombLoopError
from repro.workloads import CASE_NAMES, build_case


def _names(aig):
    """A short digest of the AIG's input names and named outputs."""
    payload = repr((aig.input_names, aig.outputs)).encode("utf-8")
    return hashlib.blake2b(payload, digest_size=8).hexdigest()


#: case -> (num_ands, structural digest, names digest) of the AIG mapped
#: from the compiled source, then of the AIG mapped after smartly
TABLE2 = {
    "ac97_ctrl": (
        (1749, "45af28429d3494986c362094b1de8031", "35e4d7a90ece6035"),
        (1569, "90cfe52b155e42c28eb2136b5396f6c2", "413826099614e089"),
    ),
    "ethernet": (
        (4911, "5faae42de4694bce3a74a3c22b2cae12", "1f4f4baf5128373f"),
        (4110, "ea650a5682395f142835bf89304760fc", "2bf8016bcf261e5a"),
    ),
    "mem_ctrl": (
        (8283, "1ab654bb1c3d3a1fb01ba4ae6884cb25", "d6d3b9fd6340bd63"),
        (711, "6d69cc22fbea8a1426a3f2732ddf234f", "244b421a040bf5dc"),
    ),
    "pci_bridge32": (
        (2292, "56ad1e1876a02aae9ff4666cde6a7068", "70e849ce5ba145ed"),
        (1766, "e73781eeeff6795b63d62febcbd00468", "bd19d58825130c9f"),
    ),
    "riscv": (
        (4019, "e106b64cf0686bdddc6d9d0fc0533579", "675e83033a42cc76"),
        (2120, "67b12b61a5bd26d45b17b5cf8e0a6bf7", "091525f3f439f29f"),
    ),
    "top_cache_axi": (
        (17753, "3a0dc0d512f3743c66d30d3f72fb2614", "b629b3cc2dc93a3c"),
        (1375, "32dcf91736dfaed80cb0c662152c501d", "aac559ec9abcfb5a"),
    ),
    "tv80": (
        (10724, "9caff430f53a7f79d56d09ec0497d482", "c88a9521fe036ff4"),
        (877, "6b08855dce46f1d410c96185c63e3c88", "b25d0120ec4ec22f"),
    ),
    "usb_funct": (
        (3978, "230950d2a58c0c9afa5b209c5ca15e6c", "6b54069e43e55bd3"),
        (1851, "3464c46e95e7756f6e80d989da5a1ef8", "b33ba631b5a5ca13"),
    ),
    "wb_conmax": (
        (4449, "7b21b7a47aecf25a47bc4aeae50bd83d", "49e27d84dcbb4303"),
        (1449, "e21eb98cc181c6ad96d34ca5f40da781", "3fece74ae610312f"),
    ),
    "wb_dma": (
        (5362, "15c1264d8286c7751a8a747eeae38efc", "9401d30027b6a3e9"),
        (441, "c766f5947b591c679401f3b6bc4314da", "3df857e55981fd49"),
    ),
}


def test_every_table2_case_is_pinned():
    assert sorted(TABLE2) == sorted(CASE_NAMES)


@pytest.mark.parametrize("case", sorted(TABLE2))
def test_table2_maps_are_pinned(case):
    session = Session.from_verilog(verilog_str(build_case(case)))
    top = session.design.top
    before = aig_map(top)  # a snapshot index: no flow has run yet
    session.run("smartly")
    after = aig_map(top)  # the flow's live index
    assert top._net_index is not None
    got = [(aig.num_ands, aig.structural_digest(), _names(aig))
           for aig in (before, after)]
    assert got == list(TABLE2[case])


#: small modules, each taking one branch of ``AigMapper.sources()``
SMALL = {
    # ``u`` is read by a cell and driven by nothing: only the walk over
    # every cell input declares it
    "undriven_read": """
module m(input a, input b, output y);
  wire u;
  assign y = (a & b) | u;
endmodule
""",
    # ``y[1]`` is driven by nothing and read only as an output
    "undriven_output": """
module m(input a, output [1:0] y);
  assign y[0] = ~a;
endmodule
""",
    "dff": """
module m(input clk, input [1:0] d, output [1:0] q);
  reg [1:0] r;
  always @(posedge clk) r <= r ^ d;
  assign q = r;
endmodule
""",
    # ``u1.o`` is an undriven instance binding; ``u1.i`` is driven
    "instance": """
module child(input [1:0] i, output [1:0] o); assign o = ~i; endmodule
module top(input [1:0] a, output [1:0] y, output z);
  wire [1:0] w;
  child u1 (.i(a & 2'b01), .o(w));
  assign y = w ^ a;
  assign z = w[0];
endmodule
""",
    # an incomplete combinational assignment reads x: through a mux into
    # ``y``, and straight into ``z[1]``
    "x_constants": """
module m(input s, input [1:0] a, output reg [1:0] y, output reg [1:0] z);
  always @* begin
    if (s) y = a;
    z[0] = s;
  end
endmodule
""",
}

#: name -> (num_ands, structural digest, input names, outputs)
SMALL_PINNED = {
    "dff": (
        6, "8bf4fd1425e66c56dd4f80b9e51c0a08",
        ["clk[0]", "d[0]", "d[1]", "dff$2.Q[0]", "dff$2.Q[1]"],
        [("q[0]", 8), ("q[1]", 10), ("dff$2.D[0]", 17), ("dff$2.D[1]", 23)],
    ),
    "instance": (
        6, "5e204cf48ef07e783bd2e76c08f41f39",
        ["a[0]", "a[1]", "u1.o[0]", "u1.o[1]"],
        [("y[0]", 15), ("y[1]", 21), ("z[0]", 6), ("u1.i[0]", 2),
         ("u1.i[1]", 0), ("u1.o[0]", 6), ("u1.o[1]", 8)],
    ),
    "undriven_output": (
        0, "619e853e63885f9202d9b414931e5fd6",
        ["a[0]", "<y[1]>"],
        [("y[0]", 3), ("y[1]", 4)],
    ),
    "undriven_read": (
        2, "794073c7de2aa3244b38e5179f6f4c14",
        ["a[0]", "b[0]", "<u[0]>"],
        [("y[0]", 11)],
    ),
    "x_constants": (
        2, "27863348beb7ab7a88185c41833385be",
        ["s[0]", "a[0]", "a[1]"],
        [("y[0]", 8), ("y[1]", 10), ("z[0]", 2), ("z[1]", 0)],
    ),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_maps_are_pinned(name):
    module = compile_verilog(SMALL[name]).top
    for index in (None, module.net_index()):  # a snapshot, then live
        aig = aig_map(module, index)
        got = (aig.num_ands, aig.structural_digest(), aig.input_names,
               aig.outputs)
        assert got == SMALL_PINNED[name]


def _loop() -> Module:
    m = Module("loop")
    a = m.add_wire("a", port_input=True)
    y = m.add_wire("y", port_output=True)
    w = m.add_wire("w")
    m.add_cell(CellType.AND, name="g1", A=a, B=w, Y=y)
    m.add_cell(CellType.NOT, name="g2", A=y, Y=w)
    return m


def _two_drivers(live: bool) -> Module:
    """``w`` driven by ``n1`` and ``n2`` and read by ``g``; with ``live``
    the module's live index sees the second driver arrive."""
    m = Module("conflict")
    a = m.add_wire("a", port_input=True)
    b = m.add_wire("b", port_input=True)
    y = m.add_wire("y", port_output=True)
    w = m.add_wire("w")
    m.add_cell(CellType.NOT, name="n1", A=a, Y=w)
    m.add_cell(CellType.AND, name="g", A=w, B=a, Y=y)
    if live:
        m.net_index()
    m.add_cell(CellType.NOT, name="n2", A=b, Y=w)
    return m


def _two_drivers_into_dff() -> Module:
    """``w`` driven by ``n1`` and ``n2`` and read only by a dff, so only
    the walk over every cell input meets it."""
    m = Module("conflict_dff")
    a = m.add_wire("a", port_input=True)
    b = m.add_wire("b", port_input=True)
    clk = m.add_wire("clk", port_input=True)
    q = m.add_wire("q", port_output=True)
    w = m.add_wire("w")
    m.add_cell(CellType.NOT, name="n1", A=a, Y=w)
    m.add_cell(CellType.DFF, name="r", CLK=clk, D=w, Q=q)
    m.net_index()
    m.add_cell(CellType.NOT, name="n2", A=b, Y=w)
    return m


def _driven_constant() -> Module:
    """``n1``'s output aliased to constant 0, which ``g`` reads."""
    m = Module("const")
    a = m.add_wire("a", port_input=True)
    y = m.add_wire("y", port_output=True)
    w = m.add_wire("w")
    m.add_cell(CellType.NOT, name="n1", A=a, Y=w)
    m.add_cell(CellType.AND, name="g", A=a, B=0, Y=y)
    m.net_index()
    m.connect(w, 0)
    return m


#: (label in :func:`_error_calls`, error type, message)
ERRORS = [
    ("loop/aig_map", "CombLoopError",
     "combinational loop through 'g1'"),
    ("loop/topo_cells", "CombLoopError",
     "combinational loop through 'g1'"),
    ("loop/live_topo_cells", "CombLoopError",
     "combinational loop through 'g1'"),
    ("conflict/aig_map", "DriverConflictError",
     "bit <w> driven by both 'n1' and 'n2'"),
    ("conflict/live_aig_map", "DriverConflictError",
     "bit <w> has 2 drivers (e.g. 'n2')"),
    ("conflict/aig_map_on_live_index", "DriverConflictError",
     "bit <w> driven by both 'n1' and 'n2'"),
    ("conflict/live_topo_cells", "DriverConflictError",
     "bit <w> driven by both 'n1' and 'n2'"),
    ("conflict_dff/aig_map_on_live_index", "DriverConflictError",
     "bit <w> driven by both 'n1' and 'n2'"),
    ("constant/aig_map_on_live_index", "DriverConflictError",
     "bit <0> driven by both 'a constant' and 'n1'"),
    ("constant/live_topo_cells", "DriverConflictError",
     "bit <0> driven by both 'a constant' and 'n1'"),
]


def _error_calls():
    return {
        "loop/aig_map": lambda: aig_map(_loop()),
        "loop/topo_cells": lambda: NetIndex(_loop()).topo_cells(),
        "loop/live_topo_cells": lambda: _loop().net_index().topo_cells(),
        "conflict/aig_map": lambda: aig_map(_two_drivers(False)),
        "conflict/live_aig_map": lambda: aig_map(_two_drivers(True)),
        "conflict/aig_map_on_live_index": lambda: aig_map(
            (m := _two_drivers(True)), m.net_index()),
        "conflict/live_topo_cells":
            lambda: _two_drivers(True).net_index().topo_cells(),
        "conflict_dff/aig_map_on_live_index": lambda: aig_map(
            (m := _two_drivers_into_dff()), m.net_index()),
        "constant/aig_map_on_live_index": lambda: aig_map(
            (m := _driven_constant()), m.net_index()),
        "constant/live_topo_cells":
            lambda: _driven_constant().net_index().topo_cells(),
    }


@pytest.mark.parametrize("label, kind, message", ERRORS)
def test_errors_are_pinned(label, kind, message):
    with pytest.raises((CombLoopError, DriverConflictError)) as info:
        _error_calls()[label]()
    assert (type(info.value).__name__, str(info.value)) == (kind, message)


def test_every_error_call_is_pinned():
    assert [label for label, _k, _m in ERRORS] == list(_error_calls())
