"""Aggregate the benchmark JSON mains into one per-PR perf artifact.

Runs the standalone benchmark entry points —
``benchmarks/bench_structhash.py``, ``benchmarks/bench_incremental.py``,
``benchmarks/bench_design.py``, ``benchmarks/bench_hierarchy.py``,
``benchmarks/bench_store.py``, ``benchmarks/bench_ingest.py``,
``benchmarks/bench_reduce.py`` and ``benchmarks/bench_faults.py`` — each
with ``--json`` into a temporary file, and folds their payloads into a
single artifact (``BENCH_10.json``
at the repo root by default).  CI regenerates and
uploads it on every run, and the committed copy records the perf
trajectory per PR; timings are recorded, never gated here (each bench's
own pytest lane carries the hard thresholds), but a benchmark that fails
its *correctness* gates — area parity, hit rates — fails this tool too.

Usage::

    PYTHONPATH=src python tools/perf_artifact.py [--output BENCH_10.json]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: (artifact key, benchmark script) — each must support --json/--min-reduction
BENCHES = (
    ("structhash", "benchmarks/bench_structhash.py"),
    ("incremental", "benchmarks/bench_incremental.py"),
    ("design", "benchmarks/bench_design.py"),
    ("hierarchy", "benchmarks/bench_hierarchy.py"),
    ("store", "benchmarks/bench_store.py"),
    ("ingest", "benchmarks/bench_ingest.py"),
    ("reduce", "benchmarks/bench_reduce.py"),
    ("faults", "benchmarks/bench_faults.py"),
)


def run_bench(script: str, tmpdir: str) -> dict:
    """Run one benchmark main; return its JSON payload (raises on failure)."""
    out = Path(tmpdir) / (Path(script).stem + ".json")
    command = [
        sys.executable, str(REPO / script),
        "--json", str(out), "--min-reduction", "0",
    ]
    print(f"$ {' '.join(command[1:])}", flush=True)
    env_path = str(REPO / "src")
    proc = subprocess.run(
        command,
        cwd=REPO,
        env={**__import__("os").environ,
             "PYTHONPATH": env_path + ":" +
             __import__("os").environ.get("PYTHONPATH", "")},
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"{script} failed its correctness gates "
            f"(exit {proc.returncode})"
        )
    with open(out) as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default=str(REPO / "BENCH_10.json"),
                        help="artifact path (default: BENCH_10.json at the "
                             "repo root)")
    args = parser.parse_args(argv)

    artifact = {
        "artifact": "BENCH_10",
        "description": "per-PR perf trajectory: structural-signature "
                       "caching, incremental engine, design-scope "
                       "incrementality, hierarchical instance replay, "
                       "persistent cache store + serve daemon, "
                       "Yosys-JSON ingestion parity + DSE sweep runner, "
                       "delta-debugging case reducer on the injected-bug "
                       "corpus, fault-injection survival of the "
                       "process-isolated serve daemon",
        "benches": {},
    }
    with tempfile.TemporaryDirectory() as tmpdir:
        for key, script in BENCHES:
            artifact["benches"][key] = run_bench(script, tmpdir)

    headlines = {
        "structhash_warm_start_reduction_pct": artifact["benches"]
            ["structhash"]["warm_start"]["reduction_pct"],
        "incremental_rerun_reduction_pct": artifact["benches"]
            ["incremental"].get("wallclock", {}).get("reduction_pct"),
        "design_rerun_reduction_pct": artifact["benches"]["design"]
            ["rerun_wallclock"]["reduction_pct"],
        "hierarchy_instance_dedup_hit_rate_pct": artifact["benches"]
            ["hierarchy"]["replay"]["dedup_hit_rate_pct"],
        "hierarchy_wallclock_reduction_pct": artifact["benches"]
            ["hierarchy"]["wallclock"]["reduction_pct"],
        "store_cold_process_replay_rate_pct": artifact["benches"]
            ["store"]["cold_replay"]["replay_rate_pct"],
        "store_warm_process_reduction_pct": artifact["benches"]
            ["store"]["cold_replay"]["reduction_pct"],
        "serve_restart_replayed": artifact["benches"]
            ["store"]["serve_smoke"]["restart_replayed"],
        "ingest_fixture_areas_identical": artifact["benches"]
            ["ingest"]["ingestion"]["all_areas_identical"],
        "ingest_read_cells_per_s": artifact["benches"]
            ["ingest"]["ingestion"]["read_cells_per_s"],
        "sweep_grid_points": artifact["benches"]
            ["ingest"]["sweep"]["grid_points"],
        "sweep_best_total_reduction_pct": artifact["benches"]
            ["ingest"]["sweep"]["best_total_reduction_pct"],
        "reduce_min_reduction_pct": artifact["benches"]
            ["reduce"]["reduce"]["min_reduction_pct"],
        "reduce_labels_preserved": artifact["benches"]
            ["reduce"]["reduce"]["all_labels_preserved"],
        "repro_corpus_live": artifact["benches"]
            ["reduce"]["corpus"]["all_live"],
        "faults_survival_rate_pct": artifact["benches"]
            ["faults"]["survival"]["survival_rate_pct"],
        "faults_retry_attempts": artifact["benches"]
            ["faults"]["retry"]["crash_attempts"],
        "faults_overload_busy_responses": artifact["benches"]
            ["faults"]["overload"]["busy_responses"],
    }
    artifact["headlines"] = headlines

    with open(args.output, "w") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")
    for key, value in sorted(headlines.items()):
        print(f"  {key} = {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
