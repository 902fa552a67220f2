"""Exact-count check: run each workload traced twice, under two different
``PYTHONHASHSEED`` values, and require the areas and the deterministic
counters to repeat exactly.  Count-based claims rest on these counters,
so any mismatch is reported as nondeterminism (exit status 1).  When both
suites run, each ``table2_check`` case must also make as many extraction
calls as the same case's ``smartly`` job on ``table2``: the proof adds no
optimizer work.

    python3 perfbench/exact.py [--workloads table2,table2_check]
        [--seed 1] [--seconds 20]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import run

#: areas and counters that must not depend on hashing or timing
COUNTERS = (
    "core.extract_calls",
    "core.gates_kept",
    "core.sim_queries",
    "equiv.sat_conflicts",
    "opt.rounds",
    "aig.aigmap_calls",
    "flow.replayed_jobs",
    "flow.yosys_area",
)
HASH_SEEDS = ("1", "2")


def main(argv=None) -> int:
    bench = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"]
                                         for w in bench["workloads"]))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    run.check_checkout()
    mismatches = 0
    by_job = {}
    for workload in args.workloads.split(","):
        results = [
            run.run_workload(workload, args.seed, args.seconds, trace=True,
                             hashseed=hashseed, overhead=False)
            for hashseed in HASH_SEEDS
        ]
        print(f"{workload} seed={args.seed} PYTHONHASHSEED="
              f"{' vs '.join(HASH_SEEDS)}")
        rows = [("smartly_area", [r["metrics"]["smartly_area"]
                                  for r in results])]
        rows += [(name, [r["layers"][name] for r in results])
                 for name in COUNTERS]
        for name, (first, second) in rows:
            same = first == second
            mismatches += not same
            print(f"  {name:24s} {first!s:>10} {second!s:>10}  "
                  f"{'ok' if same else 'NONDETERMINISTIC'}")
        by_job[workload] = results[0]["by_job"]
        for index, result in enumerate(results):
            for label, reason in sorted(result["failures"].items()):
                print(f"  FAILED (hash seed {HASH_SEEDS[index]}) "
                      f"{label}: {reason}")
    if "table2" in by_job and "table2_check" in by_job:
        print(f"core.extract_calls per case, table2 vs table2_check "
              f"(seed {args.seed})")
        for job, counters in sorted(by_job["table2_check"].items()):
            pair = (by_job["table2"].get(job, {}).get("core.extract_calls"),
                    counters.get("core.extract_calls"))
            same = pair[0] == pair[1]
            mismatches += not same
            print(f"  {job:24s} {pair[0]!s:>10} {pair[1]!s:>10}  "
                  f"{'ok' if same else 'DIFFERENT'}")
    print(f"{mismatches} mismatch(es)")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
