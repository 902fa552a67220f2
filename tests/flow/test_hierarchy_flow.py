"""Session.run_hierarchy: bottom-up flows, isomorphic replay, fallbacks,
and cross-boundary incremental re-runs."""

from __future__ import annotations

import pytest

from repro.api import Design, Session
from repro.equiv.cec import check_equivalence
from repro.equiv.differential import CI_CORPUS, random_module
from repro.flow.session import HierarchyReport, _bottom_up_names
from repro.flow.spec import PRESET_NAMES
from repro.frontend import compile_verilog
from repro.ir.builder import Circuit
from repro.ir.hierarchy import flatten, hierarchy
from repro.ir.signals import SigSpec
from repro.ir.walker import NetIndex
from repro.opt.opt_muxtree import find_internal_edges
from repro.workloads.soc import build_leaf, build_soc_design
from tests.conftest import INSTANCE_TAPPED_MUX


def small_soc(seed: int = 3) -> Design:
    return build_soc_design(
        seed=seed, leaf_classes=1, twins_per_class=2,
        instances_per_module=2, clusters=1,
    )


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_replayed_areas_match_per_module_full_runs(preset):
    """The paper-facing property: every replayed module's area is
    byte-identical to what a full per-module run would have produced."""
    design = small_soc()
    hier = Session(design).run_hierarchy(preset)
    assert not hier.replay_fallbacks, hier.replay_fallbacks

    reference = small_soc()
    session = Session(reference)
    for name in hier.order:
        full = session.run(preset, module=name)
        assert full.optimized_area == hier.reports[name].optimized_area, \
            (preset, name)
        assert full.original_area == hier.reports[name].original_area, \
            (preset, name)


def test_replay_comes_from_cache_not_passes():
    design = small_soc()
    session = Session(design)
    hier = session.run_hierarchy("smartly")
    assert hier.replayed == {"leaf0_1": "leaf0_0"}
    replay = hier.reports["leaf0_1"]
    assert replay.design_cache == "replayed"
    assert replay.passes == [] and replay.rounds == 0
    counters = session._result_cache.counters
    assert counters.get("suite_job_hits", 0) >= 1
    assert counters.get("hier_netlist_hits", 0) >= 1


def test_replay_warm_starts_across_sessions():
    """suite_job + hier_netlist entries survive export/merge: a cold
    session replays classes it never optimized itself."""
    warm = Session(small_soc())
    warm.run_hierarchy("smartly")
    snapshot = warm._result_cache.export()

    cold = Session(small_soc())
    cold._result_cache.merge(snapshot)
    hier = cold.run_hierarchy("smartly")
    # both twins replay now: the warm session already ran the class
    assert set(hier.replayed) >= {"leaf0_0", "leaf0_1"}, hier.replayed


def test_port_rename_falls_back_to_full_run():
    """Equal name-free signatures but different port names: replay would
    break parent bindings, so it must fall back (reason "ports")."""
    design = Design()
    c = Circuit("top")
    design.add_module(c.module)
    left = build_leaf("left", seed=9)
    right = build_leaf("right", seed=9)
    # rename one input port on the twin (wire rename keeps structure)
    sel = sorted(w.name for w in right.inputs)[0]
    wire = right.wires.pop(sel)
    wire.name = f"renamed_{sel}"
    right.wires[wire.name] = wire
    design.add_module(left)
    design.add_module(right)
    for i, child in enumerate((left, right)):
        bindings = {
            w.name: c.input(f"i{i}_{w.name}", w.width) for w in child.inputs
        }
        out = c.module.add_wire(f"i{i}_y", 8)
        bindings["y"] = SigSpec.from_wire(out)
        c.module.add_instance(child.name, name=f"u{i}", connections=bindings)
        c.output(f"o{i}", c.xor(SigSpec.from_wire(out),
                                c.input(f"i{i}_mix", 8)))
    design.set_top("top")

    hier = Session(design).run_hierarchy("yosys")
    assert hier.replay_fallbacks == {"right": "ports"}
    assert "right" not in hier.replayed
    # the fallback still optimized: both sides end at the same area
    assert hier.reports["left"].optimized_area == \
        hier.reports["right"].optimized_area


def test_checked_replay_is_proven_and_reported():
    design = small_soc()
    session = Session(design)
    hier = session.run_hierarchy("smartly", check=True)
    assert hier.replayed
    for name, report in hier.reports.items():
        assert report.equivalence_checked, name
    assert session._result_cache.counters.get("cec_misses", 0) >= 1


def test_report_totals_and_json_roundtrip():
    import json

    design = small_soc()
    hier = Session(design).run_hierarchy("yosys")
    assert isinstance(hier, HierarchyReport)
    counts = hier.instance_counts
    assert hier.total_area == sum(
        counts[n] * hier.reports[n].optimized_area for n in hier.order
    )
    assert 0.0 <= hier.reduction_vs_original <= 1.0
    payload = json.loads(hier.to_json())
    assert payload["top"] == "soc_top"
    assert payload["replayed"] == {"leaf0_1": "leaf0_0"}


def test_replayed_module_is_live_in_the_design():
    """Replay actually swaps the optimized netlist in (not just reports):
    a later flatten/area of the design sees the optimized twin."""
    from repro.aig.aigmap import aig_map

    design = small_soc()
    hier = Session(design).run_hierarchy("smartly")
    for name in hier.order:
        assert aig_map(design[name]).num_ands == \
            hier.reports[name].optimized_area, name


def test_child_edit_reaches_parent_rerun():
    """Editing a child between runs bumps parents across the boundary, so
    a re-run neither skips them nor misses the edit (areas match a fresh
    eager optimization of the same edited state)."""
    design = small_soc()
    session = Session(design)
    session.run_all("yosys")

    leaf = design["leaf0_0"]
    # pin one surviving mux select: a real local edit inside the child
    from repro.ir.cells import CellType

    muxes = sorted(
        cell.name for cell in leaf.cells.values()
        if cell.type is CellType.MUX
    )
    assert muxes, "leaf lost every mux"
    leaf.cells[muxes[0]].set_port("S", 1)
    rerun = session.run_all("yosys")
    assert rerun["leaf0_0"].design_cache in ("seeded", "none")
    # every ancestor was invalidated by the cross-boundary bump
    assert rerun["cluster_0"].design_cache != "skipped"
    assert rerun["soc_top"].design_cache != "skipped"
    # the untouched sibling class is still proven skippable
    assert rerun["leaf0_1"].design_cache == "skipped"

    eager = Session(design.clone(), engine="eager").run_all("yosys")
    for name, report in rerun.items():
        assert report.optimized_area == eager[name].optimized_area, name


def test_run_all_is_bottom_up_on_hierarchies():
    design = small_soc()
    reports = Session(design).run_all("none")
    names = list(reports)
    info = hierarchy(design)
    position = {name: names.index(name) for name in names}
    for parent, sites in info.tree.items():
        for _inst, child in sites:
            assert position[child] < position[parent], (child, parent)


def test_bottom_up_names_total_and_cycle_tolerant():
    design = Design()
    for name, child in (("a", "b"), ("b", "a")):
        c = Circuit(name)
        x = c.input("x", 1)
        y = c.module.add_wire("yw", 1)
        c.module.add_instance(
            child, name="u", connections={"x": x, "y": SigSpec.from_wire(y)}
        )
        c.output("y", SigSpec.from_wire(y))
        design.add_module(c.module)
    c = Circuit("island")
    c.output("y", c.not_(c.input("x", 1)))
    design.add_module(c.module)
    names = _bottom_up_names(design)
    assert sorted(names) == ["a", "b", "island"]  # total despite the cycle


# -- instance-tapped muxtree children ------------------------------------------
#
# A mux whose Y also feeds an instance binding is a tree root: path facts
# of the mux reading it must not be substituted into it.


def assert_flat_equivalent(golden: Design, design: Design) -> None:
    result = check_equivalence(flatten(golden), flatten(design))
    assert result.equivalent, result.counterexample


@pytest.mark.parametrize("engine", ["incremental", "eager"])
@pytest.mark.parametrize("flow", ["yosys", "smartly"])
def test_instance_tapped_mux_keeps_its_operands(flow, engine):
    design = compile_verilog(INSTANCE_TAPPED_MUX, top="top")
    golden = design.clone()
    Session(design).run_hierarchy(flow, check=True, engine=engine)
    assert_flat_equivalent(golden, design)


def tapped_design(seed: int) -> Design:
    """``random_module(seed)`` with the Y of every tree child (as
    ``find_internal_edges`` sees the instance-free module) also bound to a
    pass-through instance whose output is a new top output."""
    top = random_module(seed)
    design = Design()
    design.add_module(top, top=True)
    edges = find_internal_edges(top, NetIndex(top))
    assert edges
    for i, name in enumerate(sorted(edges)):
        y = top.cells[name].connections["Y"]
        child = f"pass{len(y)}"
        if child not in design.modules:
            c = Circuit(child)
            c.output("q", c.input("d", len(y)))
            design.add_module(c.module)
        out = top.add_wire(f"tap{i}", len(y), port_output=True)
        top.add_instance(child, name=f"u{i}", connections={
            "d": y, "q": SigSpec.from_wire(out),
        })
    return design


@pytest.mark.parametrize("flow", ["yosys", "smartly"])
@pytest.mark.parametrize("seed", CI_CORPUS[:8])
def test_tapped_tree_children_stay_equivalent(seed, flow):
    design = tapped_design(seed)
    golden = design.clone()
    Session(design).run_hierarchy(flow)
    assert_flat_equivalent(golden, design)
