"""Structural module signatures: warm-started process workers.

A ``suite_job`` entry of the :class:`~repro.core.cache.ResultCache` is
keyed by the job module's canonical name-free signature
(:func:`repro.ir.struct_hash.module_signature`), so a renamed clone
replays the report of the isomorphic module that ran before it.  This
benchmark checks that on a process-executor suite of renamed clones
(every wire and cell renamed, sort order scrambled): workers seeded with
the parent session's exported snapshot replay every job, give the same
areas as cold workers, and finish at least 20% faster.

Runable standalone for CI artifacts::

    PYTHONPATH=src python benchmarks/bench_structhash.py --json out.json
"""

from __future__ import annotations

import functools
import json
import time

from repro.api import Session
from repro.equiv.differential import random_module
from repro.ir.struct_hash import renamed_copy

#: base workload: one seed, several renamed clones of it
BASE_SEED = 2101
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


# -- warm-started process workers -------------------------------------------


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
        # cache with the suite_job entry every clone job can replay
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
    """Standalone run: the warm-start timing payload."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", default=None,
                        help="write the benchmark payload to this file")
    parser.add_argument("--min-reduction", type=float, default=20.0,
                        help="fail below this warm-start wall-clock "
                             "reduction percentage (<= 0 disables the "
                             "timing gate — what CI uses, since shared "
                             "runners make hard wall-clock gates flaky; "
                             "replays and area parity always gate)")
    args = parser.parse_args(argv)

    payload = {
        "workload": {
            "suite": f"{SUITE_CLONES} renamed clones, width={SUITE_WIDTH}, "
                     f"n_units={SUITE_UNITS}, executor=process",
        },
    }

    warm = measure_warm_start()
    payload["warm_start"] = warm
    print(f"warm-start process suite: cold {warm['cold_s']:.3f}s -> warm "
          f"{warm['warm_s']:.3f}s ({warm['reduction_pct']}% reduction, "
          f"{warm['warm_suite_job_hits']}/{warm['jobs']} jobs replayed)")

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True, default=str)
        print(f"wrote {args.json}")

    if not warm["areas_identical"] or \
            warm["warm_suite_job_hits"] != warm["jobs"]:
        return 1
    if args.min_reduction <= 0:
        return 0  # timing recorded, not gated
    return 0 if warm["reduction_pct"] >= args.min_reduction else 1


if __name__ == "__main__":
    import sys

    sys.exit(main())
