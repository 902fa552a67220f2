"""The repo benchmark: ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1`` from the root of a checkout.

Workloads (see ``manifest.json`` for why each exists and what it loads):

* ``table2`` — the ten Table II cases cold, ``yosys`` then ``smartly``;
* ``table2_check`` — nine of them through ``smartly`` with a SAT proof;
* ``serve_warm`` — a warm in-process serve daemon under one closed-loop
  client: Table II re-submissions replayed from its store beside fresh
  random designs.

Every timed process is a fresh interpreter (``child.py``).  Times are
scaled to a reference speed by a calibration loop run between jobs (see
``child.calibrate``); the raw figures are printed as extras.  ``--trace
0`` prints the end-to-end metrics of ``BENCHMARK.json``; ``setup_s`` is
the median over several set-ups (four set-up-only processes plus the
measured one).  ``--trace 1`` runs the workload untraced and then
traced, with the layer hooks of ``tracing.py``, and prints the per-layer
metrics, the tracing overhead, any layer that reads zero where
``manifest.json`` expects work, and any hook whose target symbol no
longer exists (its layers read null).  Outputs are checked in every
mode; the last stdout line is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
#: set-up samples per end-to-end run (set-up-only processes + measured)
SETUP_SAMPLES = 5
#: a run must end well inside the 180 s a benchmark run may take
RUN_BUDGET_S = 170.0
#: the serve_warm preparation: a store filled with the Table II smartly
#: suite, and every job's reference area.  Nothing in it depends on the
#: seed, so it is made once per checkout and shared by every run.
PREPARED = WORK / "serve_prepared"


class BenchError(Exception):
    """The benchmark cannot run here (no sources, a child crashed...)."""


def load_json(path: Path) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def check_checkout() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {ROOT / 'src'}; run "
                         f"from the root of a full checkout")
    if not (ROOT / "BENCHMARK.json").is_file():
        raise BenchError("BENCHMARK.json is missing")


class Runner:
    """Starts the child processes of one benchmark run inside ``work``."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 hashseed: str, work: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["PYTHONHASHSEED"] = hashseed
        self.reference = work / "reference.json"
        self._n = 0

    def child(self, role: str, *extra: str,
              store: Optional[Path] = None) -> Dict[str, Any]:
        self._n += 1
        out = self.work / f"{role}-{self._n}.json"
        cmd = [sys.executable, str(HERE / "child.py"), role,
               "--workload", self.workload, "--seed", str(self.seed),
               "--seconds", str(self.seconds), "--out", str(out),
               "--store", str(store or self.work / "store"),
               "--reference", str(self.reference), *extra]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run budget exhausted")
        # the child's stdout goes to our stderr: the last line of our
        # stdout must stay the result object
        cmd += ["--t0", repr(time.time())]
        try:
            done = subprocess.run(cmd, env=self.env, cwd=str(ROOT),
                                  stdout=sys.stderr, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{role} child exceeded the run budget")
        if done.returncode != 0:
            raise BenchError(f"{role} child exited {done.returncode}")
        return load_json(out)

    def fresh_store(self, prepared: Path) -> None:
        """A private copy of the prepared store: a measured daemon writes
        generations into it, which must not leak into the next process."""
        store = self.work / "store"
        if store.exists():
            shutil.rmtree(store)
        shutil.copytree(prepared, store)


def prepare_serve(runner: Runner) -> Path:
    """The prepared serve_warm store, made by a ``prep`` child the first
    time.  It is built under a private name and renamed into place, so a
    run that dies half way leaves nothing a later run takes for ready."""
    if not (PREPARED / "reference.json").is_file():
        staging = WORK / f"serve_prepared-{os.getpid()}"
        shutil.rmtree(staging, ignore_errors=True)
        staging.mkdir()
        runner.reference = staging / "reference.json"
        try:
            runner.child("prep", store=staging / "store")
            shutil.rmtree(PREPARED, ignore_errors=True)
            os.replace(staging, PREPARED)
        finally:
            shutil.rmtree(staging, ignore_errors=True)
    runner.reference = PREPARED / "reference.json"
    return PREPARED / "store"


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 hashseed: str = "0", overhead: bool = True,
                 trace_out: Optional[Path] = None) -> Dict[str, Any]:
    """One benchmark run; returns the measured child's result with
    ``setup_samples`` (untraced) or ``layers`` (traced) filled in."""
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{workload}-s{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir()
    try:
        runner = Runner(workload, seed, seconds, hashseed, work)
        prepared = (prepare_serve(runner) if workload == "serve_warm"
                    else None)
        passes = ["--passes", "1"] if trace else []

        def measured(*extra: str) -> Dict[str, Any]:
            if prepared is not None:
                runner.fresh_store(prepared)
            return runner.child("measure", *passes, *extra)

        if not trace:
            if prepared is not None:
                runner.fresh_store(prepared)
            setups = [runner.child("setup") for _ in range(SETUP_SAMPLES - 1)]
            result = measured()
            setups.append(result)
            result["setup_samples"] = [s["setup_s"] for s in setups]
            result["setup_raw_samples"] = [s["setup_raw_s"] for s in setups]
            result["metrics"]["setup_s"] = statistics.median(
                result["setup_samples"])
            return result
        untraced = measured() if overhead else None
        extra = ["--trace"]
        if trace_out is not None:
            extra += ["--trace-out", str(trace_out)]
        result = measured(*extra)
        if untraced is not None:
            base = untraced["metrics"]["wall_s"]
            traced = result["layers"]["trace.wall_s"]
            result["layers"]["trace.overhead_s"] = traced - base
            result["layers"]["trace.overhead_pct"] = 100.0 * (
                traced - base) / base
            if untraced["failures"]:
                result["failures"].update(
                    {f"untraced {k}": v
                     for k, v in untraced["failures"].items()})
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def layer_report(result: Dict[str, Any], workload: str,
                 manifest: Dict[str, Any]) -> List[str]:
    """Null out layers whose hook target is gone and flag layers that
    read zero where the manifest expects work on this workload."""
    notes = []
    layers = result["layers"]
    missing = set(result.get("missing", ()))
    for name, spec in manifest["per_layer"].items():
        symbol = spec.get("symbol")
        if symbol in missing:
            layers[name] = None
            notes.append(f"NULL {name}: hook target {symbol} not found")
        elif workload in spec["expect_work_on"] and not layers.get(name):
            notes.append(f"ZERO {name}: reads 0 on {workload}, where the "
                         f"mapping expects work")
    return notes


def fmt(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run unwinds, so subprocess.run kills the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        check_checkout()
        bench = load_json(ROOT / "BENCHMARK.json")
        manifest = load_json(HERE / "manifest.json")
        names = [w["name"] for w in bench["workloads"]]
        if args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"choose from {names}")
        trace_out = None
        if args.trace:
            (WORK / "traces").mkdir(parents=True, exist_ok=True)
            trace_out = WORK / "traces" / f"{args.workload}-s{args.seed}.json"
        result = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            hashseed=os.environ.get("PYTHONHASHSEED", "0"),
            trace_out=trace_out)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    if args.trace:
        notes = layer_report(result, args.workload, manifest)
        chosen, values = bench["per_layer"], result["layers"]
        print(f"  trace: {result['spans']} spans -> {trace_out}")
    else:
        notes = []
        chosen, values = bench["end_to_end"], result["metrics"]
        for kind in ("", "raw_"):
            print(f"  setup {kind}samples: " + ", ".join(
                f"{s:.4f}" for s in result[f"setup_{kind}samples"]))
    metrics = {}
    for spec in chosen:
        value = values.get(spec["name"])
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"  {spec['name']:28s} {fmt(value):>14s} {spec['unit']}")
    for key, value in result.get("extra", {}).items():
        print(f"  (extra) {key} = {fmt(value)}")
    for note in notes:
        print(f"  {note}")
    failures = result["failures"]
    for label, reason in sorted(failures.items()):
        print(f"  FAILED {label}: {reason}")
    failed = min(len(failures), result["attempted"])
    print(json.dumps({"correct": not failures,
                      "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
