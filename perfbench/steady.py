"""Steadiness mode: run each workload N times, each run a fresh
``run.py`` process on another seed, alternating the workload order from
round to round, and print per metric its unit, the median, the quartiles
and IQR/median (``--runs 1`` is one command printing every metric of all
workloads).  An end-to-end metric whose spread exceeds its bound in
``BENCHMARK.json`` is marked ``OVER``; one above a third of it ``warn``.

    python3 perfbench/steady.py --runs 10 [--workloads table2,serve_warm]
        [--seed0 1] [--seconds 20] [--trace 0] [--json out.json]
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> Dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stderr}")
    return json.loads(lines[-1])


def spread(values: List[float]) -> Dict[str, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"]
                                         for w in bench["workloads"]))
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write every value here")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: Dict[str, Dict[str, List[float]]] = {w: {} for w in workloads}
    units: Dict[str, str] = {}
    failed: Dict[str, int] = {w: 0 for w in workloads}
    for index in range(args.runs):
        order = workloads if index % 2 == 0 else workloads[::-1]
        for workload in order:
            seed = args.seed0 + index
            start = time.monotonic()
            result = run_once(workload, seed, args.seconds, args.trace)
            failed[workload] += result["failed"]
            for name, metric in result["metrics"].items():
                units[name] = metric["unit"]
                if metric["value"] is not None:
                    values[workload].setdefault(name, []).append(
                        metric["value"])
            print(f"run {index + 1}/{args.runs} {workload} seed={seed} "
                  f"correct={result['correct']} "
                  f"took {time.monotonic() - start:.1f} s", file=sys.stderr,
                  flush=True)

    report: Dict[str, Any] = {}
    over = 0
    for workload in workloads:
        print(f"{workload}: {args.runs} runs, {failed[workload]} failed jobs")
        report[workload] = {}
        for name, series in values[workload].items():
            stats = spread(series) if len(series) > 1 else {
                "median": series[0], "q1": series[0], "q3": series[0],
                "iqr_over_median": 0.0}
            stats["values"] = series
            report[workload][name] = stats
            bound = bounds.get(name)
            mark = ""
            if bound is not None and stats["iqr_over_median"] > bound:
                mark = "OVER" if name != "setup_s" else "over (set-up)"
                over += name != "setup_s"
            elif bound is not None and stats["iqr_over_median"] > bound / 3:
                mark = "warn"
            print(f"  {name:28s} {units[name]:8s} "
                  f"median {stats['median']:<12.6g} "
                  f"q1 {stats['q1']:<12.6g} q3 {stats['q3']:<12.6g} "
                  f"iqr/med {stats['iqr_over_median']:.4f}"
                  + (f"  bound {bound}" if bound is not None else "")
                  + (f"  {mark}" if mark else ""))
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1))
    return 1 if over else 0


if __name__ == "__main__":
    raise SystemExit(main())
