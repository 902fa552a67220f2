"""Unit-economics calibration — the source of ``UNIT_MENU`` constants.

Re-measures the per-unit AIG areas that ``repro.workloads.iwls`` bakes in
and asserts the baked numbers are still accurate (within tolerance).  If a
generator change shifts the economics, this bench fails and the menu
constants must be re-baked from its output.
"""

import random

import pytest

from repro.api import Session
from repro.ir import Circuit
from repro.workloads import InputPool
from repro.workloads.iwls import UNIT_MENU


def _measure(name, reps=3):
    economics = UNIT_MENU[name]
    rng = random.Random(1)
    c = Circuit("cal")
    pool = InputPool(c, rng, width=8)
    for i in range(reps):
        c.output(f"y{i}", economics.build(c, pool, **economics.kwargs))
    module = c.module

    def area(preset):
        return Session(module.clone()).run(preset).optimized_area

    orig, yosys_area = area("none"), area("yosys")
    return {
        "orig": orig // reps,
        "yosys": (orig - yosys_area) // reps,
        "satx": (yosys_area - area("smartly-sat")) // reps,
        "rebx": (yosys_area - area("smartly-rebuild")) // reps,
    }


@pytest.mark.parametrize("name", sorted(UNIT_MENU))
def test_unit_constants_fresh(benchmark, name, table_report):
    measured = benchmark.pedantic(lambda: _measure(name), rounds=1, iterations=1)
    baked = UNIT_MENU[name]
    key = "Unit calibration — measured vs baked menu constants"
    table_report.sections[key] = table_report.sections.get(key, "") + (
        f"{name:<10} orig {measured['orig']:>5} (baked {baked.orig:>5})  "
        f"yosys {measured['yosys']:>5}/{baked.yosys:<5} "
        f"satx {measured['satx']:>5}/{baked.satx:<5} "
        f"rebx {measured['rebx']:>5}/{baked.rebx:<5}\n"
    )
    assert measured["orig"] == pytest.approx(baked.orig, rel=0.25, abs=40)
    assert measured["yosys"] == pytest.approx(baked.yosys, rel=0.30, abs=60)
    assert measured["satx"] == pytest.approx(baked.satx, rel=0.30, abs=60)
    assert measured["rebx"] == pytest.approx(baked.rebx, rel=0.35, abs=60)
