"""Differential fuzzing of design-scope *seeded* re-runs (ROADMAP lane).

``benchmarks/bench_design.py`` proves seeded re-runs transparent on its
fixed workloads; this lane hardens the cross-run closure argument the way
``tests/fuzz/test_differential.py`` hardens the passes: optimize a random
module, apply random (deterministic, name-addressed) edits through the
notifying APIs, then cross-check the session's seeded re-run against an
eager full re-run from the identical edited state.  Any area divergence
means the pending-edit window under-dirtied the re-run — a genuine
incrementality bug, reproducible from the seed alone.
"""

from __future__ import annotations

import random

import pytest

from repro.api import Session
from repro.equiv.differential import random_module
from repro.testing.oracles import _apply_edits, _plan_edits

#: the fixed corpus CI replays (appending is fine, renumbering is not)
SEEDED_CORPUS = tuple(range(3000, 3006))

FLOWS = ("smartly", "yosys")


def _check_seed(seed: int, flows=FLOWS) -> None:
    for flow in flows:
        module = random_module(seed, width=4, n_units=3)
        session = Session(module, engine="incremental")
        session.run(flow)

        twin = module.clone()  # identical post-optimization state
        rng = random.Random(seed * 7919 + 13)
        plans = _plan_edits(module, rng)
        if _apply_edits(module, plans) == 0:
            continue
        assert _apply_edits(twin, plans) > 0

        seeded = session.run(flow)
        full = Session(twin, engine="eager").run(flow)
        assert seeded.optimized_area == full.optimized_area, (
            f"seed {seed} flow {flow}: seeded re-run area "
            f"{seeded.optimized_area} != full re-run {full.optimized_area} "
            f"after edits {plans}"
        )


@pytest.mark.parametrize("seed", SEEDED_CORPUS)
def test_fixed_corpus_seeded_rerun(seed):
    _check_seed(seed)


def test_seeded_rerun_is_actually_seeded():
    """At least some corpus runs must exercise the seeded path, or the
    lane is silently testing full re-runs against full re-runs."""
    kinds = set()
    for seed in SEEDED_CORPUS[:3]:
        module = random_module(seed, width=4, n_units=3)
        session = Session(module, engine="incremental")
        session.run("smartly")
        rng = random.Random(seed * 7919 + 13)
        if _apply_edits(module, _plan_edits(module, rng)) == 0:
            continue
        kinds.add(session.run("smartly").design_cache)
    assert "seeded" in kinds, kinds


def test_extended_seeded_fuzz(request):
    """Opt-in exploration beyond the fixed corpus (--fuzz-iterations=N).

    With ``--fuzz-artifacts=DIR`` a failing seed dumps its generating
    module (pre-reduction source) before the assertion propagates, so
    the counterexample survives the CI run even when nobody re-runs it.
    """
    iterations = request.config.getoption("--fuzz-iterations")
    if not iterations:
        pytest.skip("pass --fuzz-iterations=N to fuzz beyond the fixed corpus")
    artifacts_dir = request.config.getoption("--fuzz-artifacts")
    for _ in range(iterations):
        seed = random.randrange(1 << 30)
        try:
            _check_seed(seed, flows=("smartly",))
        except AssertionError:
            if artifacts_dir:
                from repro.testing import write_repro

                write_repro(
                    artifacts_dir, f"seed{seed}.seeded-smartly.orig",
                    random_module(seed, width=4, n_units=3),
                    meta={"seed": seed, "flow": "smartly",
                          "oracle": "seeded", "reduced": False},
                )
            raise


# -- hierarchical designs: cross-boundary seeded re-runs ----------------------

#: fixed hierarchical corpus (same appending-only rule as SEEDED_CORPUS)
HIER_CORPUS = tuple(range(3100, 3104))


def _check_hier_seed(seed: int, flow: str = "smartly") -> None:
    """Random edits inside a random *child* module must propagate across
    instance boundaries: the session's seeded/skipped re-run of the whole
    design must match an eager re-run from the identical edited state."""
    from repro.workloads.soc import build_soc_design

    design = build_soc_design(
        seed=seed, leaf_classes=1, twins_per_class=2,
        instances_per_module=1, clusters=1, width=4,
    )
    session = Session(design, engine="incremental")
    session.run_all(flow)

    twin = design.clone()  # identical post-optimization state
    rng = random.Random(seed * 6151 + 17)
    children = [name for name in sorted(design.modules)
                if design.instantiators(name)]
    target = rng.choice(children)
    plans = _plan_edits(design[target], rng)
    if _apply_edits(design[target], plans) == 0:
        return
    assert _apply_edits(twin[target], plans) > 0

    seeded = session.run_all(flow)
    eager = Session(twin, engine="eager").run_all(flow)
    for name in seeded:
        assert seeded[name].optimized_area == eager[name].optimized_area, (
            f"seed {seed} flow {flow}: module {name} seeded area "
            f"{seeded[name].optimized_area} != eager "
            f"{eager[name].optimized_area} after editing {target}: {plans}"
        )
    # ancestors of the edited child must not have been skipped
    for parent in design.instantiators(target):
        assert seeded[parent].design_cache != "skipped", (target, parent)


@pytest.mark.parametrize("seed", HIER_CORPUS)
def test_fixed_corpus_hierarchical_child_edits(seed):
    _check_hier_seed(seed)


def test_hierarchical_rerun_exercises_cross_boundary_invalidation():
    """At least one corpus entry must actually invalidate a parent via a
    child edit, or the lane silently stopped testing the boundary path."""
    from repro.workloads.soc import build_soc_design

    design = build_soc_design(
        seed=HIER_CORPUS[0], leaf_classes=1, twins_per_class=2,
        instances_per_module=1, clusters=1, width=4,
    )
    session = Session(design, engine="incremental")
    session.run_all("smartly")
    rng = random.Random(HIER_CORPUS[0] * 6151 + 17)
    children = [name for name in sorted(design.modules)
                if design.instantiators(name)]
    target = rng.choice(children)
    if _apply_edits(design[target], _plan_edits(design[target], rng)) == 0:
        pytest.skip("corpus head produced no applicable edits")
    rerun = session.run_all("smartly")
    parents = design.instantiators(target)
    assert parents
    assert any(rerun[p].design_cache != "skipped" for p in parents)
