"""Ablation — the sim-vs-SAT input-count switch (paper §II).

The paper chooses exhaustive simulation for few inputs and the SAT solver
for larger cones, forgoing analysis above a hard bound.  The workload here
uses *xor-dependent* controls (``(S ^ R) ^ R == S``) that the Table-I
inference rules cannot decide, so eliminating them genuinely requires one
of the two deciders:

* pure-simulation and pure-SAT configs find the same eliminations,
* disabling both degrades the area to baseline level,
* the default mixed config matches their quality.
"""

import random

import pytest

from repro.api import FlowSpec, Session
from repro.ir import Circuit
from repro.workloads import InputPool

CONFIGS = {
    "mixed (default)": dict(sim_threshold=8, sat_threshold=64),
    "sim only": dict(sim_threshold=14, sat_threshold=-1),
    "sat only": dict(sim_threshold=-1, sat_threshold=64),
    "neither": dict(sim_threshold=-1, sat_threshold=-1),
}


def _xor_dependent_module(n_units=6):
    """Chains whose controls are (S ^ R_i) ^ R_i — solver-only facts."""
    rng = random.Random(3)
    c = Circuit("xordep")
    pool = InputPool(c, rng, width=8)
    for u in range(n_units):
        s = pool.ctrl_bit()
        value = pool.word()
        for _ in range(4):
            r = pool.ctrl_bit()
            ctrl = c.xor(c.xor(s, r), r)  # == s, but not via Table I
            dead = c.add(pool.word(), pool.word())
            value = c.mux(dead, value, ctrl)
        c.output(f"y{u}", c.mux(pool.word(), value, s))
    return c.module


def _run(config):
    report = Session(_xor_dependent_module()).run(
        FlowSpec.preset("smartly-sat", **config)
    )
    return report.optimized_area, report.runtime_s


@pytest.mark.parametrize("name", list(CONFIGS))
def test_threshold_configs(benchmark, name, table_report):
    area, runtime = benchmark.pedantic(
        lambda: _run(CONFIGS[name]), rounds=1, iterations=1
    )
    key = "Ablation — sim/SAT decider configurations (xor-dependent chains)"
    table_report.sections[key] = table_report.sections.get(key, "") + (
        f"{name:<18} area={area:<8} time={runtime:.2f}s\n"
    )


def test_decider_equivalence_and_necessity(benchmark):
    results = benchmark.pedantic(
        lambda: {name: _run(cfg) for name, cfg in CONFIGS.items()},
        rounds=1, iterations=1,
    )
    area = {name: result[0] for name, result in results.items()}
    # sim and SAT find the same eliminations
    assert area["sim only"] == area["sat only"] == area["mixed (default)"]
    # with both disabled, the xor-dependent redundancy is missed
    assert area["neither"] > area["mixed (default)"]
