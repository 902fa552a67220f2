"""Structural signatures: cross-module cache hits and warm-started suites.

PR 2/PR 4 memoized the decision ladder by identity ``(cell name,
version)`` signatures, so structurally identical sub-graphs from
different modules — or from cloned suite jobs — could never share a
cache entry, and process-executor suite workers always started cold.
This benchmark proves the canonical structural-hashing subsystem
(:mod:`repro.ir.struct_hash`) fixes both without changing any result:

1. **Transparency** — byte-identical optimized areas between the default
   (structural keys for the result cache) and the memo-free reference
   (``use_result_cache=False``: every outcome recomputed), for all 5
   presets, across a corpus of random workload modules.  Asserted
   unconditionally.
2. **Cross-module sharing** — on a design of renamed clones (every wire
   and cell renamed, sort order scrambled), the session-wide
   :class:`~repro.core.cache.ResultCache` answers at least 30% of a
   clone run's lookups from entries another module created.
3. **Warm-started workers** — a process-executor suite over renamed
   clones runs at least 20% faster when workers are seeded with the
   parent session's exported snapshot (sub-graph resolutions plus
   whole-job ``suite_job`` entries) than with cold workers.

Runable standalone for CI artifacts::

    PYTHONPATH=src python benchmarks/bench_structhash.py --json out.json
"""

from __future__ import annotations

import functools
import json
import time

import pytest

from repro.api import Design, Session, SmartlyOptions
from repro.equiv.differential import random_module
from repro.flow.spec import PRESET_NAMES
from repro.ir.struct_hash import renamed_copy

#: base workload: one seed, several renamed clones of it
BASE_SEED = 2101
PARITY_SEEDS = (2101, 2102, 2103)
#: memoizes nothing: no result cache
MEMO_FREE = SmartlyOptions(use_result_cache=False)
N_CLONES = 4
WIDTH, N_UNITS = 5, 6

#: the warm-start claim needs jobs big enough that pool startup noise
#: does not drown the signal
SUITE_WIDTH, SUITE_UNITS, SUITE_CLONES = 5, 8, 6


def build_base(seed: int = BASE_SEED, width: int = WIDTH,
               n_units: int = N_UNITS):
    return random_module(seed, width=width, n_units=n_units, name="base")


def build_clone(index: int, seed: int = BASE_SEED, width: int = WIDTH,
                n_units: int = N_UNITS):
    """A renamed (sort-order-scrambled) structural twin of the base."""
    return renamed_copy(
        build_base(seed, width, n_units),
        prefix=f"c{index}x", name=f"clone{index}",
    )


# -- 1. transparency -----------------------------------------------------------


def measure_parity(preset: str, seeds=PARITY_SEEDS):
    """Optimized areas for one preset, default vs the memo-free reference."""
    keyed, reference = {}, {}
    for seed in seeds:
        keyed[seed] = Session(
            random_module(seed, width=WIDTH, n_units=N_UNITS),
        ).run(preset).optimized_area
        reference[seed] = Session(
            random_module(seed, width=WIDTH, n_units=N_UNITS),
            options=MEMO_FREE,
        ).run(preset).optimized_area
    return {"preset": preset, "structural": keyed, "reference": reference,
            "identical": keyed == reference}


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_structural_area_parity_vs_memo_free(preset):
    row = measure_parity(preset)
    assert row["identical"], row


# -- 2. cross-module hit rate --------------------------------------------------


def measure_cross_module_hits(flow: str = "smartly"):
    """Hit traffic of clone runs in a primed session vs fresh sessions.

    The base module's run primes the session cache; each renamed clone
    then runs in the *same* session.  A clone run's hits split into
    self-hits (fixpoint rounds re-asking its own queries — measured by
    running the same clone in a fresh session) and *cross-module* hits
    answered from other modules' entries.
    """
    design = Design()
    design.add_module(build_base(), top=True)
    clones = [build_clone(i) for i in range(N_CLONES)]
    # pristine twins for the self-hit baselines (runs mutate modules)
    baselines = [build_clone(i) for i in range(N_CLONES)]
    for clone in clones:
        design.add_module(clone)
    session = Session(design)
    session.run(flow, module="base")  # prime

    def delta(after, before, suffix):
        return sum(
            value - before.get(key, 0)
            for key, value in after.items() if key.endswith(suffix)
        )

    cross_hits = lookups = 0
    for clone, baseline in zip(clones, baselines):
        before = dict(session._result_cache.counters)
        session.run(flow, module=clone.name)
        after = dict(session._result_cache.counters)
        hits = delta(after, before, "_hits")
        misses = delta(after, before, "_misses")

        fresh = Session(baseline)
        fresh.run(flow)
        self_hits = sum(
            value for key, value in fresh._result_cache.counters.items()
            if key.endswith("_hits")
        )
        cross_hits += hits - self_hits
        lookups += hits + misses
    rate = cross_hits / lookups if lookups else 0.0
    return {
        "flow": flow,
        "cross_hits": cross_hits,
        "lookups": lookups,
        "cross_hit_rate_pct": round(100.0 * rate, 2),
    }


def test_cross_module_hit_rate(table_report):
    row = measure_cross_module_hits()
    lines = [
        f"cross hits: {row['cross_hits']}",
        f"lookups:    {row['lookups']}",
        f"rate:       {row['cross_hit_rate_pct']:.1f}% (need >= 30%)",
    ]
    table_report.add(
        "Structural keys — cross-module hit rate on renamed clones",
        "\n".join(lines),
    )
    assert row["cross_hit_rate_pct"] >= 30.0, row


# -- 3. warm-started process workers -------------------------------------------


def suite_clone_cases(n: int = SUITE_CLONES):
    """Picklable factories for the renamed-clone suite."""
    return {
        f"clone{i}": functools.partial(
            build_clone, i, BASE_SEED, SUITE_WIDTH, SUITE_UNITS
        )
        for i in range(n)
    }


def measure_warm_start(flow: str = "smartly", max_workers: int = 2):
    """Process-suite wall-clock, cold workers vs snapshot-seeded workers."""
    cases = suite_clone_cases()

    def run_suite(warm_start: bool):
        session = Session()
        # prime the parent: one suite job over the base case fills the
        # cache with the sub-graph resolutions and the suite_job entry
        # every clone job can replay
        session.run_suite(
            {"base": functools.partial(
                build_base, BASE_SEED, SUITE_WIDTH, SUITE_UNITS)},
            (flow,), max_workers=1, executor="process",
        )
        start = time.perf_counter()
        suite = session.run_suite(
            cases, (flow,), max_workers=max_workers, executor="process",
            warm_start=warm_start,
        )
        elapsed = time.perf_counter() - start
        areas = {
            case: per[flow].optimized_area
            for case, per in suite.results.items()
        }
        return elapsed, areas, dict(suite.cache_stats)

    cold_s, cold_areas, cold_stats = run_suite(False)
    warm_s, warm_areas, warm_stats = run_suite(True)
    return {
        "flow": flow,
        "jobs": len(cases),
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "reduction_pct": round(100.0 * (1.0 - warm_s / cold_s), 2),
        "areas_identical": cold_areas == warm_areas,
        "cold_areas": cold_areas,
        "warm_areas": warm_areas,
        "warm_suite_job_hits": warm_stats.get("suite_job_hits", 0),
        "cold_suite_job_hits": cold_stats.get("suite_job_hits", 0),
    }


def test_warm_start_wallclock(table_report):
    row = measure_warm_start()
    lines = [
        f"cold workers: {row['cold_s']:.3f}s",
        f"warm workers: {row['warm_s']:.3f}s",
        f"reduction:    {row['reduction_pct']:.1f}% (need >= 20%)",
        f"suite_job replays (warm): {row['warm_suite_job_hits']}"
        f"/{row['jobs']}",
    ]
    table_report.add(
        "Warm-started process workers — renamed-clone suite", "\n".join(lines)
    )
    assert row["areas_identical"], row
    assert row["warm_suite_job_hits"] == row["jobs"], row
    assert row["reduction_pct"] >= 20.0, row


# -- CI entry point ------------------------------------------------------------


def main(argv=None) -> int:
    """Standalone run: parity + hit rate + warm-start timing payload."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", default=None,
                        help="write the benchmark payload to this file")
    parser.add_argument("--min-reduction", type=float, default=20.0,
                        help="fail below this warm-start wall-clock "
                             "reduction percentage (<= 0 disables the "
                             "timing gate — what CI uses, since shared "
                             "runners make hard wall-clock gates flaky; "
                             "area parity and hit rates always gate)")
    parser.add_argument("--min-hit-rate", type=float, default=30.0,
                        help="fail below this cross-module hit rate "
                             "percentage on the renamed-clone suite")
    args = parser.parse_args(argv)

    payload = {
        "workload": {
            "base": f"random_module({BASE_SEED}, width={WIDTH}, "
                    f"n_units={N_UNITS})",
            "clones": N_CLONES,
            "suite": f"{SUITE_CLONES} renamed clones, width={SUITE_WIDTH}, "
                     f"n_units={SUITE_UNITS}, executor=process",
        },
    }

    parity = {preset: measure_parity(preset) for preset in PRESET_NAMES}
    payload["parity"] = parity
    mismatches = [p for p, row in parity.items() if not row["identical"]]
    payload["parity_mismatches"] = mismatches
    print(f"area parity over {len(PRESET_NAMES)} presets: "
          f"{'OK' if not mismatches else f'MISMATCH {mismatches}'}")

    cross = measure_cross_module_hits()
    payload["cross_module"] = cross
    print(f"cross-module hit rate: {cross['cross_hit_rate_pct']}% "
          f"(need >= {args.min_hit_rate}%)")

    warm = measure_warm_start()
    payload["warm_start"] = warm
    print(f"warm-start process suite: cold {warm['cold_s']:.3f}s -> warm "
          f"{warm['warm_s']:.3f}s ({warm['reduction_pct']}% reduction, "
          f"{warm['warm_suite_job_hits']}/{warm['jobs']} jobs replayed)")

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True, default=str)
        print(f"wrote {args.json}")

    if mismatches:
        return 1
    if cross["cross_hit_rate_pct"] < args.min_hit_rate:
        return 1
    if not warm["areas_identical"] or \
            warm["warm_suite_job_hits"] != warm["jobs"]:
        return 1
    if args.min_reduction <= 0:
        return 0  # timing recorded, not gated
    return 0 if warm["reduction_pct"] >= args.min_reduction else 1


if __name__ == "__main__":
    import sys

    sys.exit(main())
