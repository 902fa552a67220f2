"""Cross-cutting property: every optimizer preserves every circuit.

This is the reproduction of the paper's "All the results generated by our
program passed equivalence checking" claim, applied to random circuits and
to down-scaled benchmark models.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import PRESET_NAMES, Session
from repro.equiv import assert_equivalent
from tests.conftest import random_circuit


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 10_000_000),
    optimizer=st.sampled_from([o for o in PRESET_NAMES if o != "none"]),
)
def test_any_optimizer_preserves_any_circuit(seed, optimizer):
    module = random_circuit(seed, n_ops=12, mux_bias=0.55)
    gold = module.clone()
    Session(module).run(optimizer)
    assert_equivalent(gold, module)


@pytest.mark.parametrize("optimizer", ["yosys", "smartly"])
def test_small_benchmark_case_equivalence(optimizer):
    from repro.workloads import build_case

    module = build_case("ac97_ctrl")
    gold = module.clone()
    Session(module).run(optimizer)
    assert_equivalent(gold, module)


def test_industrial_point_equivalence():
    from repro.workloads.industrial import INDUSTRIAL_POINTS, build_point

    module = build_point(INDUSTRIAL_POINTS[0])
    gold = module.clone()
    Session(module).run("smartly")
    assert_equivalent(gold, module)


def test_cli_smoke(tmp_path, capsys):
    from repro.cli import main

    src = tmp_path / "demo.v"
    src.write_text(
        """
        module demo(input [1:0] s, input [7:0] a, b, output reg [7:0] y);
          always @* begin
            case (s)
              2'b00: y = a;
              2'b01: y = b;
              2'b10: y = a;
              default: y = b;
            endcase
          end
        endmodule
        """
    )
    assert main(["opt", str(src), "--check"]) == 0
    out = capsys.readouterr().out
    assert "reduction" in out and "PASSED" in out

    assert main(["stats", str(src)]) == 0
    assert "aig" in capsys.readouterr().out

    aag = tmp_path / "demo.aag"
    assert main(["aig", str(src), "-o", str(aag)]) == 0
    assert aag.read_text().startswith("aag ")
