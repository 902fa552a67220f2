"""Shared test fixtures and helpers.

``random_circuit`` builds seeded random netlists exercising every cell type;
it backs the property-based tests that cross-check the simulator, the AIG
mapper, the Tseitin encoder and every optimization pass against each other.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

import pytest

from repro.ir import Circuit, Module, SigSpec

#: ``m`` feeds one data port of the ``y`` mux and the instance ``u``, so
#: the ``m`` mux is a muxtree root: ``y``'s path fact ``s = 0`` must not
#: reach its ``{s, s}`` operand (``z`` reads ``2'b11`` at ``s=1, t=0``)
INSTANCE_TAPPED_MUX = """
module child(input [1:0] d, output [1:0] q); assign q = d; endmodule
module top(input s, input t, input [1:0] b, input [1:0] c,
           output [1:0] y, output [1:0] z);
  wire [1:0] m;
  assign m = t ? b : {s, s};
  assign y = s ? c : m;
  child u(.d(m), .q(z));
endmodule
"""


def pytest_addoption(parser):
    parser.addoption(
        "--fuzz-iterations",
        type=int,
        default=0,
        help="run N extra random differential-fuzz seeds beyond the fixed "
        "CI corpus (tests/fuzz/test_differential.py), N batches of "
        "1,000 random strings through the tokenizer differential "
        "(tests/frontend/test_lexer_reference.py), and N batches of four "
        "fresh random modules through the extraction differential "
        "(tests/core/test_subgraph.py::TestReferenceIdentity::"
        "test_extended_extraction_fuzz)",
    )
    parser.addoption(
        "--fuzz-artifacts",
        default=None,
        metavar="DIR",
        help="dump every failing fuzz seed's generating module (.v + .json, "
        "pre-reduction) plus its auto-shrunk minimized repro into DIR",
    )


def random_circuit(
    seed: int,
    n_inputs: int = 4,
    width: int = 4,
    n_ops: int = 12,
    mux_bias: float = 0.4,
    include_arith: bool = True,
) -> Module:
    """A random combinational module built from the public builder API.

    ``mux_bias`` skews op selection towards mux/pmux/case structures so the
    muxtree passes always have something to look at.
    """
    rng = random.Random(seed)
    c = Circuit(f"rand{seed}")
    values: List[SigSpec] = [c.input(f"in{i}", width) for i in range(n_inputs)]
    bits: List[SigSpec] = [c.input(f"b{i}") for i in range(max(2, n_inputs // 2))]

    def any_word() -> SigSpec:
        return rng.choice(values)

    def any_bit() -> SigSpec:
        if rng.random() < 0.3:
            word = any_word()
            return SigSpec([word[rng.randrange(len(word))]])
        return rng.choice(bits)

    word_ops = ["and", "or", "xor", "xnor", "nand", "nor", "not"]
    if include_arith:
        word_ops += ["add", "sub", "shl", "shr"]
    for _ in range(n_ops):
        roll = rng.random()
        if roll < mux_bias:
            kind = rng.choice(["mux", "mux", "pmux", "case"])
            if kind == "mux":
                values.append(c.mux(any_word(), any_word(), any_bit()))
            elif kind == "pmux":
                n = rng.randint(1, 3)
                branches = [(any_bit(), any_word()) for _ in range(n)]
                values.append(c.pmux(any_word(), branches))
            else:
                sel = c.concat(any_bit(), any_bit())
                arms = [(i, any_word()) for i in range(rng.randint(1, 3))]
                values.append(c.case_(sel, arms, any_word()))
        else:
            op = rng.choice(word_ops)
            if op == "not":
                values.append(c.not_(any_word()))
            elif op in ("shl", "shr"):
                amount = SigSpec([b for spec in [any_bit(), any_bit()] for b in spec])
                values.append(getattr(c, op)(any_word(), amount))
            else:
                values.append(getattr(c, op + ("_" if op in ("and", "or") else ""))(
                    any_word(), any_word()))
        if rng.random() < 0.25:
            op = rng.choice(["eq", "ne", "lt", "le", "reduce_or", "reduce_and",
                             "reduce_xor", "logic_not"])
            if op.startswith("reduce") or op == "logic_not":
                bits.append(getattr(c, op)(any_word()))
            else:
                bits.append(getattr(c, op)(any_word(), any_word()))
    for i, value in enumerate(values[-3:]):
        c.output(f"out{i}", value)
    c.output("flag", bits[-1])
    return c.module


def hard_equivalent_pair(width: int = 16) -> Tuple[Module, Module]:
    """An equivalent pair whose miter needs real CDCL search: structural
    hashing cannot fold ``(a - b) == 0`` against ``a == b``."""
    c1 = Circuit("m")
    a, b = c1.input("a", width), c1.input("b", width)
    c1.output("y", c1.eq(c1.sub(a, b), 0))
    c2 = Circuit("m")
    a, b = c2.input("a", width), c2.input("b", width)
    c2.output("y", c2.eq(a, b))
    return c1.module, c2.module


def rare_difference(
    width: int = 16, value: int = 40000
) -> Tuple[Module, Module]:
    """``a == 0`` vs ``a == 0 | a == value``: random patterns never tell
    them apart, so only a SAT model can."""
    c1 = Circuit("m")
    a = c1.input("a", width)
    c1.output("y", c1.eq(a, 0))
    c2 = Circuit("m")
    a = c2.input("a", width)
    c2.output("y", c2.or_(c2.eq(a, 0), c2.eq(a, value)))
    return c1.module, c2.module


class _CircuitHelper:
    """Exposed via fixture so tests don't re-import helpers."""

    random_circuit = staticmethod(random_circuit)


@pytest.fixture
def circuits():
    return _CircuitHelper
