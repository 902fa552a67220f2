"""Write/re-read integration: benchmark models survive the Verilog backend.

This exercises the writer, the frontend and the optimizer together: the
synthetic ``ac97_ctrl`` model (≈2k AND gates) is written as structural
Verilog, recompiled, optimized, and proven equivalent — a full tool-chain
round-trip at realistic scale.
"""

import pytest

from repro.aig import aig_map
from repro.api import Session
from repro.equiv import check_equivalence
from repro.frontend import compile_verilog
from repro.ir import verilog_str
from repro.workloads import build_case


@pytest.fixture(scope="module")
def ac97():
    return build_case("ac97_ctrl")


def test_benchmark_model_roundtrips(ac97):
    text = verilog_str(ac97)
    back = compile_verilog(text).top
    assert aig_map(back).num_ands > 0
    result = check_equivalence(ac97, back, random_vectors=128)
    assert result.equivalent, result.counterexample


def test_roundtripped_model_still_optimizes(ac97):
    text = verilog_str(ac97)
    back = compile_verilog(text).top
    golden = back.clone()
    before = aig_map(back.clone()).num_ands
    Session(back).run("smartly")
    after = aig_map(back).num_ands
    assert after <= before
    assert check_equivalence(golden, back, random_vectors=128).equivalent


def test_optimized_model_roundtrips(ac97):
    work = ac97.clone()
    Session(work).run("smartly")
    text = verilog_str(work)
    back = compile_verilog(text).top
    result = check_equivalence(work, back, random_vectors=128)
    assert result.equivalent, result.counterexample
