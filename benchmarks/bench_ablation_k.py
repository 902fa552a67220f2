"""Ablation — the sub-graph distance parameter ``k`` (paper §II).

The paper: "if k is large, the sub-graph will be too large for the SAT
solver ...; if k is small, the sub-graph will not contain enough nodes to
infer the value of the target."  The sweep shows both regimes: tiny k
misses eliminations; growing k recovers them at increasing analysis cost.
"""

import pytest

from repro.api import Session, SmartlyOptions

from conftest import get_module


def _optimize_with_k(k: int):
    session = Session(get_module("wb_conmax").clone(),
                      options=SmartlyOptions(k=k))
    return session.run("smartly-sat").optimized_area


@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_k_sweep(benchmark, k, table_report):
    area = benchmark.pedantic(lambda: _optimize_with_k(k), rounds=1, iterations=1)
    rows = table_report.sections.setdefault(
        "Ablation — sub-graph distance k (wb_conmax, SAT-only area)", ""
    )
    table_report.sections[
        "Ablation — sub-graph distance k (wb_conmax, SAT-only area)"
    ] = rows + f"k={k:<3d} area={area}\n"


def test_k_quality_monotone_enough(benchmark):
    """k=4 must find what k=1 cannot; k=8 must not be worse than k=4."""
    areas = benchmark.pedantic(
        lambda: {k: _optimize_with_k(k) for k in (1, 4, 8)},
        rounds=1, iterations=1,
    )
    assert areas[4] <= areas[1]
    assert areas[8] <= areas[4] * 1.02  # no cliff at large k
