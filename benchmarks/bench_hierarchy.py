"""Hierarchical optimization with instance replay vs flatten-then-optimize.

PR 6's hierarchy subsystem claims two things about
:meth:`Session.run_hierarchy <repro.flow.session.Session.run_hierarchy>`
on the SoC workload (:func:`repro.workloads.soc.build_soc_design` — a
three-level tree of 10 instances over 7 modules whose boundaries are
airtight by construction):

1. **Transparency** — the instance-count-weighted total optimized area of
   the hierarchical run is byte-identical to optimizing the flattened
   design, for all 5 presets.  Boundary cones count toward the parent
   (the AIG mapper emits instance binding bits as observables), so the
   per-module sum is the flat number, not an approximation of it.
2. **Speed** — the hierarchical run optimizes one representative per
   isomorphic module class and replays its netlist into the siblings
   (``design_cache == "replayed"``, zero passes), cutting wall-clock by
   at least 50% against the flattened run on a tree of >= 8 repeated
   instances; at least one whole class must come entirely from the cache.

Runable standalone for CI artifacts::

    PYTHONPATH=src python benchmarks/bench_hierarchy.py --json out.json
"""

from __future__ import annotations

import json
import time

import pytest

from repro.api import Session
from repro.flow.spec import PRESET_NAMES
from repro.ir.hierarchy import flatten, hierarchy
from repro.workloads.soc import build_soc_design

SEED = 1

#: presets with actual pipelines (the "none" preset runs zero passes, so
#: timing it would only measure noise; its area parity is still asserted)
TIMED_PRESETS = tuple(name for name in PRESET_NAMES if name != "none")


#: the wall-clock comparison times each side as the best of this many
#: runs, so one run slowed by other load on the host does not decide it
TIMING_REPEATS = 3


def measure_preset(preset: str, seed: int = SEED, repeats: int = 1):
    """Flatten-and-optimize vs hierarchical run, same preset, fresh
    designs on both sides for every repetition (optimization mutates in
    place); each side's time is the best of ``repeats`` runs."""
    flat_s = hier_s = float("inf")
    for _ in range(repeats):
        flat = flatten(build_soc_design(seed=seed))
        start = time.perf_counter()
        flat_report = Session(flat).run(preset)
        flat_s = min(flat_s, time.perf_counter() - start)

        design = build_soc_design(seed=seed)
        start = time.perf_counter()
        hier = Session(design).run_hierarchy(preset)
        hier_s = min(hier_s, time.perf_counter() - start)

    instances = sum(
        count for name, count in hier.instance_counts.items()
        if name != hier.top
    )
    return {
        "preset": preset,
        "flat_original": flat_report.original_area,
        "flat_optimized": flat_report.optimized_area,
        "hier_original": hier.original_total_area,
        "hier_optimized": hier.total_area,
        "replayed": dict(hier.replayed),
        "replay_fallbacks": dict(hier.replay_fallbacks),
        "design_cache": {
            name: report.design_cache
            for name, report in hier.reports.items()
        },
        "instances": instances,
        "modules": len(hier.order),
        "flat_s": round(flat_s, 4),
        "hier_s": round(hier_s, 4),
    }


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_hierarchy_area_parity(preset):
    """Weighted hierarchical totals == flat areas, before and after."""
    row = measure_preset(preset)
    assert row["hier_original"] == row["flat_original"], row
    assert row["hier_optimized"] == row["flat_optimized"], row
    assert not row["replay_fallbacks"], row


@pytest.mark.parametrize("preset", TIMED_PRESETS)
def test_hierarchy_replays_isomorphic_classes(preset):
    """Every twin module replays from its class representative."""
    row = measure_preset(preset)
    replayed = row["replayed"]
    # one leaf twin per class + the second cluster
    assert replayed.get("leaf0_1") == "leaf0_0", row
    assert replayed.get("leaf1_1") == "leaf1_0", row
    assert replayed.get("cluster_1") == "cluster_0", row
    for name in replayed:
        assert row["design_cache"][name] == "replayed", row


def test_hierarchy_checked_replay_matches_full_runs():
    """check=True replays are SAT-proven against the module they replace
    and still produce the areas per-module full runs produce."""
    design = build_soc_design(seed=SEED)
    hier = Session(design).run_hierarchy("smartly", check=True)
    assert not hier.replay_fallbacks, hier.replay_fallbacks
    assert hier.replayed, "no isomorphic class replayed"

    reference = build_soc_design(seed=SEED)
    session = Session(reference)
    for name in hierarchy(reference).order:
        report = session.run("smartly", module=name)
        assert report.optimized_area == hier.reports[name].optimized_area, name


def test_hierarchy_wallclock(table_report):
    """>= 50% less wall-clock than flatten-then-optimize (each side the
    best of ``TIMING_REPEATS`` runs)."""
    rows = [
        measure_preset(preset, repeats=TIMING_REPEATS)
        for preset in TIMED_PRESETS
    ]
    flat_s = sum(row["flat_s"] for row in rows)
    hier_s = sum(row["hier_s"] for row in rows)
    reduction = 100.0 * (1.0 - hier_s / flat_s)

    lines = [f"{'Preset':<18}{'flat':>9}{'hierarchy':>11}{'replayed':>10}"]
    lines.append("-" * len(lines[0]))
    for row in rows:
        lines.append(
            f"{row['preset']:<18}{row['flat_s']:>8.3f}s"
            f"{row['hier_s']:>10.3f}s{len(row['replayed']):>10}"
        )
    lines.append("-" * len(lines[0]))
    lines.append(f"reduction: {reduction:.1f}% (need >= 50%)")
    table_report.add(
        "Hierarchy — instance replay vs flatten-then-optimize wall-clock",
        "\n".join(lines),
    )
    for row in rows:
        assert row["hier_optimized"] == row["flat_optimized"], row
    assert hier_s <= 0.50 * flat_s, (
        f"hierarchy {hier_s:.3f}s vs flat {flat_s:.3f}s "
        f"({reduction:.1f}% reduction; need >= 50%)"
    )


def main(argv=None) -> int:
    """CI entry point: per-preset parity + replay/timing payload."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", default=None,
                        help="write the benchmark payload to this file")
    parser.add_argument("--min-reduction", type=float, default=50.0,
                        help="fail below this wall-clock reduction "
                             "percentage (<= 0 disables the timing gate "
                             "entirely — what CI uses, since shared "
                             "runners make hard wall-clock gates flaky; "
                             "area parity always gates)")
    args = parser.parse_args(argv)

    payload = {"workload": f"build_soc_design(seed={SEED})"}
    rows = {
        preset: measure_preset(preset, repeats=TIMING_REPEATS)
        for preset in PRESET_NAMES
    }
    payload["presets"] = rows

    mismatches = [
        preset for preset, row in rows.items()
        if row["hier_optimized"] != row["flat_optimized"]
        or row["hier_original"] != row["flat_original"]
        or row["replay_fallbacks"]
    ]
    payload["area_mismatches"] = mismatches

    sample = rows["smartly"]
    replayable = sample["modules"] - 1  # every module but the top
    replayed = len(sample["replayed"])
    dedup_rate = round(100.0 * replayed / replayable, 2)
    flat_s = sum(rows[p]["flat_s"] for p in TIMED_PRESETS)
    hier_s = sum(rows[p]["hier_s"] for p in TIMED_PRESETS)
    reduction = round(100.0 * (1.0 - hier_s / flat_s), 2)
    payload["replay"] = {
        "modules": sample["modules"],
        "instances": sample["instances"],
        "replayed_modules": replayed,
        "dedup_hit_rate_pct": dedup_rate,
    }
    payload["wallclock"] = {
        "flat_s": round(flat_s, 4),
        "hier_s": round(hier_s, 4),
        "reduction_pct": reduction,
    }
    print(f"area parity over {len(PRESET_NAMES)} presets: "
          f"{'OK' if not mismatches else f'MISMATCH {mismatches}'}")
    print(f"replay: {replayed}/{replayable} non-top modules from cache "
          f"({dedup_rate}% dedup) over {sample['instances']} instances")
    print(f"wall-clock: flat {flat_s:.3f}s -> hierarchy {hier_s:.3f}s "
          f"({reduction}% reduction)")

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True, default=str)
        print(f"wrote {args.json}")
    if mismatches:
        return 1
    if args.min_reduction <= 0:
        return 0  # timing recorded, not gated
    return 0 if reduction >= args.min_reduction else 1


if __name__ == "__main__":
    import sys

    sys.exit(main())
