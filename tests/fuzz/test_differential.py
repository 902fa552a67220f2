"""Differential fuzzing: every flow preset must preserve circuit function.

The fixed :data:`repro.equiv.differential.CI_CORPUS` replays in every CI
run (one test per seed, so a failure names its reproducer directly); the
harness is seed-deterministic, so a red seed here is a complete bug
report.  ``pytest tests/fuzz --fuzz-iterations=200`` explores fresh random
seeds beyond the corpus locally.
"""

import random

import pytest

from repro.aig import aig_map
from repro.equiv import (
    CI_CORPUS,
    check_equivalence,
    random_module,
    run_differential,
)
from repro.flow.spec import PRESET_NAMES
from repro.sat.oracle import SatOracle


@pytest.mark.parametrize("seed", CI_CORPUS)
def test_fixed_corpus_seed(seed):
    report = run_differential([seed], roundtrip=True)
    expected = set(PRESET_NAMES) | {"json-roundtrip"}
    assert {r.flow for r in report.results} == expected
    assert report.ok, report.to_json(indent=2)


def test_random_module_is_deterministic():
    a = random_module(1234)
    b = random_module(1234)
    assert a.stats() == b.stats()
    assert aig_map(a).num_ands == aig_map(b).num_ands
    assert check_equivalence(a, b).equivalent


def test_random_modules_vary_across_seeds():
    areas = {seed: aig_map(random_module(seed)).num_ands for seed in range(8)}
    assert len(set(areas.values())) > 1, areas


def test_report_aggregates_shared_oracle_counters():
    oracle = SatOracle()
    report = run_differential(CI_CORPUS[:2], flows=("yosys", "smartly"),
                              oracle=oracle)
    assert report.ok
    assert report.oracle_stats == dict(oracle.counters)
    assert report.oracle_stats["queries"] == len(
        [r for r in report.results if r.method in ("sat", "budget")]
    )
    summary = report.summary()
    assert summary["checks"] == 4 and summary["failures"] == 0


def test_extended_fuzz(request):
    """Opt-in exploration beyond the fixed corpus (--fuzz-iterations=N).

    With ``--fuzz-artifacts=DIR`` every failing seed dumps its generating
    module pre-reduction and auto-shrinks a minimized repro next to it,
    so a red run is debuggable even if the seed never reproduces again.
    """
    iterations = request.config.getoption("--fuzz-iterations")
    if not iterations:
        pytest.skip("pass --fuzz-iterations=N to fuzz beyond the fixed corpus")
    artifacts_dir = request.config.getoption("--fuzz-artifacts")
    seeds = [random.randrange(1 << 30) for _ in range(iterations)]
    report = run_differential(
        seeds, roundtrip=True,
        artifacts_dir=artifacts_dir, shrink=bool(artifacts_dir),
    )
    assert report.ok, (
        "differential fuzz found optimizer bugs; failing seeds reproduce "
        "via repro.equiv.run_differential([seed]):\n" + report.to_json(indent=2)
    )
