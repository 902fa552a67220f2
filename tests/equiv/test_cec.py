"""Combinational equivalence checking."""

import pytest

from repro.aig import aig_map, fraig
from repro.api import Session
from repro.cli import main
from repro.equiv import (
    EquivResult,
    PortMismatchError,
    assert_equivalent,
    build_miter,
    check_equivalence,
)
from repro.frontend import compile_verilog
from repro.ir import Circuit, SigSpec
from tests.conftest import (
    hard_equivalent_pair,
    random_circuit,
    rare_difference,
)


def _mux_pair():
    c1 = Circuit("m")
    a, b, s = c1.input("a", 4), c1.input("b", 4), c1.input("s")
    c1.output("y", c1.mux(a, b, s))
    c2 = Circuit("m")
    a, b, s = c2.input("a", 4), c2.input("b", 4), c2.input("s")
    sr = s.repeat(4)
    c2.output("y", c2.or_(c2.and_(b, sr), c2.and_(a, c2.not_(sr))))
    return c1.module, c2.module


def test_equivalent_pair():
    gold, gate = _mux_pair()
    result = check_equivalence(gold, gate)
    assert result.equivalent
    assert bool(result) is True


def test_swapped_operands_not_equivalent():
    gold, _ = _mux_pair()
    c = Circuit("m")
    a, b, s = c.input("a", 4), c.input("b", 4), c.input("s")
    c.output("y", c.mux(b, a, s))
    result = check_equivalence(gold, c.module)
    assert not result.equivalent
    assert result.counterexample  # concrete distinguishing assignment


def test_counterexample_is_valid():
    from repro.sim import Simulator

    gold, _ = _mux_pair()
    c = Circuit("m")
    a, b, s = c.input("a", 4), c.input("b", 4), c.input("s")
    c.output("y", c.mux(b, a, s))
    bad = c.module
    result = check_equivalence(gold, bad)
    values = {}
    for name, bit_value in result.counterexample.items():
        wname, idx = name.rsplit("[", 1)
        values[wname] = values.get(wname, 0) | (bit_value << int(idx[:-1]))
    assert Simulator(gold).run(values) != Simulator(bad).run(values)


def test_miter_folding_to_one_still_carries_a_counterexample():
    """Regression: a miter that folds to constant 1 at construction used
    to come back refuted with an empty counterexample."""
    from repro.sim import Simulator

    def xor_with(const):
        c = Circuit("m")
        a = c.input("a", 2)
        c.output("y", c.xor(a, c.const(const, 2)))
        return c.module

    gold, gate = xor_with(0b00), xor_with(0b11)
    result = check_equivalence(gold, gate)
    assert not result.equivalent and not result.undecided
    assert result.method == "fold"
    assert set(result.counterexample) == {"a[0]", "a[1]"}
    values = {"a": result.counterexample["a[0]"]
              | result.counterexample["a[1]"] << 1}
    assert Simulator(gold).run(values) != Simulator(gate).run(values)


def test_subtle_difference_needs_sat():
    # differs only at one value, which no seeded simulation pattern hits
    result = check_equivalence(*rare_difference())
    assert not result.equivalent
    assert result.method == "sat"


def test_port_mismatch_rejected():
    c1 = Circuit("m")
    c1.output("y", c1.input("a", 4))
    c2 = Circuit("m")
    c2.output("y", c2.input("a", 8))
    with pytest.raises(PortMismatchError):
        check_equivalence(c1.module, c2.module)


def test_assert_equivalent_raises_with_cex():
    gold, _ = _mux_pair()
    c = Circuit("m")
    a, b, s = c.input("a", 4), c.input("b", 4), c.input("s")
    c.output("y", c.mux(b, a, s))
    with pytest.raises(AssertionError, match="NOT equivalent"):
        assert_equivalent(gold, c.module)


def test_dff_next_state_compared():
    # registers are paired by cell name, so name them explicitly
    from repro.ir import CellType

    def build(swap):
        c = Circuit("m")
        clk = c.input("clk")
        d = c.input("d", 2)
        value = c.not_(d) if swap else d
        cell = c.module.add_cell(CellType.DFF, name="state_reg", CLK=clk, D=value)
        c.output("y", cell.connections["Q"])
        return c.module

    assert check_equivalence(build(False), build(False)).equivalent
    assert not check_equivalence(build(False), build(True)).equivalent


def test_optimized_random_circuits_stay_equivalent():
    for seed in (11, 222, 3333):
        module = random_circuit(seed, n_ops=10)
        gold = module.clone()
        Session(module).run("yosys")
        assert_equivalent(gold, module)


def test_budget_exhaustion_is_undecided_not_nonequivalent():
    """Regression: an exhausted conflict budget used to raise
    TimeoutError; it must surface as a distinct *undecided* result, never
    as a "not equivalent" claim (and never with a counterexample)."""
    gold, gate = hard_equivalent_pair()
    result = check_equivalence(gold, gate, max_conflicts=1)
    if result.undecided:
        assert not result.equivalent
        assert result.method == "budget"
        assert result.counterexample == {}
        assert bool(result) is False
        # the same pair *is* provable without a budget
        assert check_equivalence(gold, gate).equivalent
        # and assert_equivalent treats undecided as a failure, with a
        # message distinct from the non-equivalence one
        with pytest.raises(AssertionError, match="UNDECIDED"):
            assert_equivalent(gold, gate, max_conflicts=1)
    else:
        # budget large enough after all: must then be a proven pass
        assert result.equivalent


def test_decided_within_budget_reports_method_sat():
    gold, gate = hard_equivalent_pair(width=4)
    result = check_equivalence(gold, gate, max_conflicts=100000)
    assert result.equivalent
    assert result.method == "sat"
    assert not result.undecided


# -- undriven source bits ----------------------------------------------------

#: an undriven net read by a cell, and an undriven output port
UNDRIVEN_READ = (
    "module m(input a, input b, output y); wire u;"
    " assign y = (a & b) | u; endmodule"
)
UNDRIVEN_OUTPUT = "module m(input a, output y, output z); assign y = a; endmodule"


@pytest.mark.parametrize(
    "source", [UNDRIVEN_READ, UNDRIVEN_OUTPUT], ids=["read", "output"]
)
class TestUndrivenSources:
    """Both modules of a miter declare an undriven bit as the same input,
    named by its canonical bit (it used to be declared once per side: after
    the first side's AND nodes, which the AIG refuses, or as two
    independent inputs that random simulation told apart)."""

    def test_module_equals_its_clone(self, source):
        module = compile_verilog(source).top
        assert check_equivalence(module, module.clone()).equivalent

    def test_session_check(self, source):
        report = Session.from_verilog(source).run("yosys", check=True)
        assert report.equivalence_checked

    def test_cli_opt_check_and_equiv(self, source, tmp_path, capsys):
        path = tmp_path / "f.v"
        path.write_text(source)
        assert main(["opt", str(path), "--check"]) == 0
        assert "equivalence check: PASSED" in capsys.readouterr().out
        assert main(["equiv", str(path), str(path)]) == 0
        assert capsys.readouterr().out.startswith("EQUIVALENT")


def test_undriven_source_difference_is_refuted_by_name():
    gold = compile_verilog(UNDRIVEN_READ.replace("| u", "| ~u")).top
    gate = compile_verilog(UNDRIVEN_READ).top
    result = check_equivalence(gold, gate)
    assert not result.equivalent and not result.undecided
    assert "<u[0]>" in result.counterexample


def test_undriven_source_names_are_unambiguous():
    """Bit 0 of a two-bit wire ``u`` and the one-bit wire ``\\u[0]`` are
    two nets: sharing one miter input would prove ``u[0] ^ \\u[0]``
    constant."""
    gold = compile_verilog(
        "module m(input a, output y); wire [1:0] u; wire \\u[0] ;"
        " assign y = u[0] ^ \\u[0] ; endmodule"
    ).top
    gate = compile_verilog(
        "module m(input a, output y); assign y = 1'b0; endmodule"
    ).top
    result = check_equivalence(gold, gate)
    assert not result.equivalent and not result.undecided
    assert {"<u[0]>", "<u[0][0]>"} <= set(result.counterexample)


# -- two AIGs ------------------------------------------------------------------


def _with_instance(invert: bool):
    """A parent feeding child ``leaf`` (``x`` from ``a``, ``y`` read back
    into the output): the binding bits are miter outputs and inputs."""
    c = Circuit("top")
    a, m = c.input("a", 4), c.input("m", 4)
    y = c.module.add_wire("y", 4)
    c.module.add_instance(
        "leaf", name="u0",
        connections={"x": c.not_(a) if invert else a,
                     "y": SigSpec.from_wire(y)},
    )
    c.output("o", c.xor(SigSpec.from_wire(y), m))
    return c.module


def _optimized(module):
    gate = module.clone()
    Session(gate).run("smartly")
    return gate


def _refuted_pair():
    gold, _ = _mux_pair()
    c = Circuit("m")
    a, b, s = c.input("a", 4), c.input("b", 4), c.input("s")
    c.output("y", c.mux(b, a, s))
    return gold, c.module


AIG_PAIRS = {
    "equivalent": _mux_pair,
    "optimized": lambda: (lambda m: (m, _optimized(m)))(
        random_circuit(222, n_ops=10)),
    "refuted": _refuted_pair,
    "refuted-by-sat": rare_difference,
    "undriven": lambda: (compile_verilog(UNDRIVEN_READ).top,
                         compile_verilog(UNDRIVEN_READ).top),
    "undriven-refuted": lambda: (
        compile_verilog(UNDRIVEN_READ.replace("| u", "| ~u")).top,
        compile_verilog(UNDRIVEN_READ).top,
    ),
    "instance": lambda: (_with_instance(False), _with_instance(False)),
    "instance-refuted": lambda: (_with_instance(False), _with_instance(True)),
}


@pytest.mark.parametrize("pair", list(AIG_PAIRS))
@pytest.mark.parametrize("vectors", [256, 0])
def test_two_aigs_check_like_their_modules(pair, vectors, monkeypatch):
    gold, gate = AIG_PAIRS[pair]()
    # vectors: the seeded simulation patterns the SAT sweep starts from;
    # with none, every refutation comes from a solver model
    monkeypatch.setattr(fraig, "SIM_PATTERNS", vectors)
    on_modules = check_equivalence(gold, gate)
    on_aigs = check_equivalence(aig_map(gold), aig_map(gate))
    assert on_aigs == on_modules
    assert on_modules.equivalent == ("refuted" not in pair)
    if not vectors:
        assert on_modules.method != "sim"
    aig, lit = build_miter(gold, gate)
    joined, joined_lit = build_miter(aig_map(gold), aig_map(gate))
    assert joined.structural_digest(joined_lit) == aig.structural_digest(lit)
    assert joined.input_names == aig.input_names


def test_build_miter_takes_two_modules_or_two_aigs():
    gold, gate = _mux_pair()
    with pytest.raises(TypeError, match="two Modules or two AIGs"):
        build_miter(gold, aig_map(gate))
