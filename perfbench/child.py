"""One benchmark process: ``python3 perfbench/child.py ROLE --workload W ...``.

``run.py`` starts this script in fresh interpreters so that every timing
starts cold and peak memory belongs to one workload.  Roles:

* ``prep``: fill the ``serve_warm`` store with the Table II ``smartly``
  suite through a daemon of its own, and write the reference area of
  every job the stream will send.  Counts toward no metric; ``run.py``
  keeps its output for every later run in the checkout.
* ``setup``: set up (imports, input generation, opening the daemon) and
  stop there; one ``setup_s`` sample.
* ``measure``: set up, run the timed phase, then check every output
  outside the timed window.  With ``--trace`` the layer hooks of
  ``tracing.py`` are installed first and per-layer metrics come back too.

A calibration loop runs between jobs, and every job time is scaled by
it to a reference speed (see :func:`calibrate`).  The result goes to
``--out`` as one JSON object.
"""

from __future__ import annotations

import time

_STARTED = time.time()

import argparse  # noqa: E402
import json  # noqa: E402
import queue  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import threading  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

#: table2_check leaves out the heavy case: its single 10-14 s proof
#: leaves no room in a run to repeat the other jobs, and its one sample
#: would carry whatever load the host had at that moment
CHECK_SKIP = ("top_cache_axi",)
#: every job of a timed run runs at least this often; further passes run
#: while the time given by --seconds lasts
MIN_REPS = 1
SERVE_JOBS = 160
SERVE_FLUSH_EVERY = 20
#: size of the fresh serve_warm designs (random_module arguments)
FRESH_WIDTH = 8
FRESH_UNITS = 4
#: random vectors per output check of table2
CHECK_VECTORS = 256
#: length of the calibration loop, and the seconds it takes at the
#: reference speed that every reported time is scaled to
CAL_ITERATIONS = 100_000
REF_CAL_S = 0.010


# -- inputs --------------------------------------------------------------------


def table2_sources(seed: int) -> Dict[str, str]:
    """Verilog text of the ten Table II cases in an order ``seed``
    shuffles.  Each case is its canonical build (``build_all()``): a
    proof's SAT time swings with the build seed (top_cache_axi's from 7 s
    to 12 s, tv80's by a third), while the designs differ by about 1% in
    size, so seeded builds would mostly measure the luck of the draw."""
    from repro.ir.verilog_writer import verilog_str
    from repro.workloads import build_all

    modules = build_all()
    names = sorted(modules)
    random.Random(seed).shuffle(names)
    return {name: verilog_str(modules[name]) for name in names}


def serve_jobs(seed: int, count: int,
               sources: Dict[str, str]) -> List[Tuple[str, str, str]]:
    """The seeded ``serve_warm`` job stream: ``(key, kind, source)``.

    Half the jobs re-submit a Table II source (kind ``table2``, replayed
    from the store), every case equally often; the rest are fresh random
    designs, always the same ones (``random_module`` seeds from 1 up),
    because their sizes vary threefold from seed to seed and a seeded draw
    would mostly measure which designs were drawn.  The
    seed orders the stream: which job comes when, and so how large the
    shared cache is when it does.
    """
    from repro.equiv.differential import random_module
    from repro.ir.verilog_writer import verilog_str
    from repro.workloads import CASE_NAMES

    rng = random.Random(seed)
    resubmits = count // 2
    kinds = ["table2"] * resubmits + ["fresh"] * (count - resubmits)
    rng.shuffle(kinds)
    cases = [CASE_NAMES[i % len(CASE_NAMES)] for i in range(resubmits)]
    rng.shuffle(cases)
    fresh = list(range(1, count - resubmits + 1))
    rng.shuffle(fresh)
    jobs = []
    for kind in kinds:
        if kind == "table2":
            case = cases.pop()
            jobs.append((case, kind, sources[case]))
        else:
            fresh_seed = fresh.pop()
            module = random_module(fresh_seed, width=FRESH_WIDTH,
                                   n_units=FRESH_UNITS)
            jobs.append((f"fresh{fresh_seed}", kind, verilog_str(module)))
    return jobs


def make_inputs(workload: str, seed: int) -> Dict[str, Any]:
    sources = table2_sources(seed)
    inputs: Dict[str, Any] = {"sources": sources}
    if workload == "table2_check":
        inputs["sources"] = {case: source for case, source in sources.items()
                             if case not in CHECK_SKIP}
    if workload == "serve_warm":
        inputs["jobs"] = serve_jobs(seed, SERVE_JOBS, sources)
    return inputs


def open_daemon(store: str):
    from repro.api import FlowServer

    return FlowServer(store_path=store, isolation="thread", max_workers=2)


# -- helpers -------------------------------------------------------------------


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes right now.

    The host lends its cores to other tenants, whose load slows this
    process by up to 1.6x for tens of seconds at a time.  The loop slows
    with it, so a job's seconds times ``REF_CAL_S`` over the loop's
    seconds around the job is the job's time at the reference speed: it
    moves when the program does, and much less when the host does."""
    start = time.perf_counter()
    total = 0
    for i in range(CAL_ITERATIONS):
        total += (i * i) % 7
    return time.perf_counter() - start


def scaled(seconds: float, *cals: float) -> float:
    """``seconds`` at the reference speed, given the calibration times
    taken around them."""
    return seconds * REF_CAL_S * len(cals) / sum(cals)


def setup_done(result: Dict[str, Any]) -> None:
    """Record the set-up time, raw and scaled by calibrations taken
    right after it (outside every timed window)."""
    raw = time.time() - result["t0"]
    result["setup_raw_s"] = raw
    result["setup_s"] = scaled(raw, statistics.median(
        calibrate() for _ in range(3)))


def median_of(times: Dict[Any, List[float]]) -> Dict[Any, float]:
    """Each job's median over its runs."""
    return {key: statistics.median(values)
            for key, values in times.items() if values}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def p90(values: List[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def miter_silent(golden, optimized, seed: int) -> bool:
    """True when ``optimized`` matches ``golden`` on CHECK_VECTORS seeded
    random vectors (bit-parallel simulation of their miter)."""
    from repro.equiv.miter import build_miter

    aig, miter_lit = build_miter(golden, optimized)
    if miter_lit >> 1 == 0:
        return miter_lit & 1 == 0
    rng = random.Random(seed)
    masks = [rng.getrandbits(CHECK_VECTORS) for _ in range(aig.num_inputs)]
    value = aig.eval_masks(masks, nvec=CHECK_VECTORS)[miter_lit >> 1]
    if miter_lit & 1:
        value = ~value & ((1 << CHECK_VECTORS) - 1)
    return value == 0


# -- table2 / table2_check -----------------------------------------------------


def run_suite(sources: Dict[str, str], check: bool, rec,
              result: Dict[str, Any], seconds: float,
              passes: Optional[int] = None) -> Dict[str, Any]:
    """Every case cold, yosys then smartly (smartly with a proof when
    ``check``); returns what the metrics and checks need.

    With ``passes`` (the traced run) the suite runs exactly that often.
    Otherwise it runs ``MIN_REPS`` times and then goes on, job by job,
    while the job's fastest time so far fits in what is left of
    ``seconds``.  A calibration runs between jobs; ``times`` holds each
    job's seconds scaled by the calibrations before and after it, ``raw``
    the seconds as measured."""
    from repro.api import Session

    flows = ("smartly",) if check else ("yosys", "smartly")
    order = [(case, flow) for case in sources for flow in flows]
    times: Dict[Tuple[str, str], List[float]] = {key: [] for key in order}
    raw: Dict[Tuple[str, str], List[float]] = {key: [] for key in order}
    jobs: List[Dict[str, Any]] = []
    kept: Dict[Tuple[str, str], Any] = {}

    def one_job(source: str, flow: str):
        session = Session.from_verilog(source)
        return session, session.run(flow, check=check)

    def more(rep: int, key: Tuple[str, str]) -> bool:
        if passes is not None:
            return rep < passes
        return rep < MIN_REPS or (
            time.perf_counter() + min(raw[key]) <= deadline)

    setup_done(result)
    deadline = time.perf_counter() + seconds
    cal = calibrate()
    rep, running = 0, True
    while running:
        for case, flow in order:
            if not more(rep, (case, flow)):
                running = False
                break
            start = time.perf_counter()
            error = None
            try:
                if rec is None:
                    session, report = one_job(sources[case], flow)
                else:
                    rec.set_job(f"{case}/{flow}")
                    session, report = rec.span(
                        "flow.session", one_job, sources[case], flow)
            except Exception as exc:  # a failed job is counted, not fatal
                session, report = None, None
                error = f"{type(exc).__name__}: {exc}"
            seconds_taken = time.perf_counter() - start
            after = calibrate()
            raw[(case, flow)].append(seconds_taken)
            times[(case, flow)].append(scaled(seconds_taken, cal, after))
            cal = after
            jobs.append({"pass": rep, "case": case, "flow": flow,
                         "report": report, "error": error})
            if rep == 0 and session is not None and not check:
                kept[(case, flow)] = session.design.top
        rep += 1
    return {"jobs": jobs, "times": times, "raw": raw, "kept": kept,
            "rss": peak_rss_mb()}


def suite_metrics(run: Dict[str, Any], sources: Dict[str, str], check: bool,
                  seed: int) -> Dict[str, Any]:
    """End-to-end metrics of a suite run plus its output checks."""
    from repro.frontend import compile_verilog

    jobs = run["jobs"]
    #: job label -> why it failed (one entry per failed job)
    failures: Dict[str, str] = {}
    areas: Dict[Tuple[str, str], int] = {}
    for job in jobs:
        label = f"pass {job['pass']} {job['case']}/{job['flow']}"
        report = job["report"]
        if report is None:
            failures[label] = job["error"]
            continue
        if check and not report.equivalence_checked:
            failures[label] = "no equivalence proof"
        key = (job["case"], job["flow"])
        if job["pass"] == 0:
            areas[key] = report.optimized_area
        elif areas.get(key) != report.optimized_area:
            failures[label] = (f"area {report.optimized_area} differs from "
                               f"pass 0 ({areas.get(key)})")
    for (case, flow), optimized in run["kept"].items():
        golden = compile_verilog(sources[case]).top
        if not miter_silent(golden, optimized, seed):
            failures[f"pass 0 {case}/{flow}"] = (
                f"differs from its source under {CHECK_VECTORS} random "
                f"vectors")

    per_job = median_of(run["times"])
    wall = sum(per_job.values())
    reps = [len(values) for values in run["times"].values()]
    metrics = {
        "wall_s": wall,
        "smartly_s": sum(s for (_, f), s in per_job.items()
                         if f == "smartly"),
        "smartly_area": sum(a for (_, f), a in areas.items()
                            if f == "smartly"),
        "peak_rss_mb": run["rss"],
        "jobs_per_s": len(per_job) / wall,
        "job_p50_s": statistics.median(per_job.values()),
        "job_p90_s": p90(list(per_job.values())),
    }
    extra = {"jobs": len(per_job), "runs": len(jobs),
             "runs_per_job": f"{min(reps)}-{max(reps)}",
             "wall_raw_s": sum(median_of(run["raw"]).values())}
    if not check:
        extra["yosys_s"] = sum(s for (_, f), s in per_job.items()
                               if f == "yosys")
        extra["yosys_area"] = sum(a for (_, f), a in areas.items()
                                  if f == "yosys")
    rounds = sum(
        len({record.round for record in job["report"].passes})
        for job in jobs if job["report"] is not None and job["pass"] == 0
    )
    return {"metrics": metrics, "extra": extra, "failures": failures,
            "attempted": len(jobs), "rounds": rounds}


# -- serve_warm ----------------------------------------------------------------


class ClosedLoop:
    """A closed-loop client feeding :meth:`FlowServer.serve_lines`.

    ``lines()`` is the daemon's request stream and ``write`` its response
    writer.  The client sends its next ``run`` only after the result of
    its previous one arrived, and runs a calibration in between, while the
    daemon is idle; a ``flush`` follows every ``SERVE_FLUSH_EVERY``
    finished jobs, and a ``shutdown`` the last one.  Latency runs from the
    moment the daemon reads a request line to the moment its ``result``
    (or ``error``/``busy``) is written back; ``scaled`` holds it at the
    reference speed.
    """

    def __init__(self, jobs: List[Tuple[str, str, str]]):
        self.jobs = jobs
        self._next = 0
        #: (request id or None, line) pairs; None ends the stream
        self._inbox: "queue.Queue[Optional[Tuple[Optional[str], str]]]" = (
            queue.Queue())
        self._lock = threading.Lock()
        self.sent: Dict[str, float] = {}
        self.latency: Dict[str, float] = {}
        self.scaled: Dict[str, float] = {}
        self.responses: Dict[str, Dict[str, Any]] = {}
        self.events = 0
        self.flushes = 0
        self.bye: Optional[Dict[str, Any]] = None
        self._cal = calibrate()

    def _queue_next(self) -> None:
        if self._next >= len(self.jobs):
            return
        index = self._next
        self._next += 1
        rid = f"j{index}"
        self._inbox.put((rid, json.dumps({
            "op": "run", "id": rid, "client": "c0",
            "source": self.jobs[index][2], "flow": "smartly",
            "events": True,
        })))

    def lines(self):
        self._queue_next()
        while True:
            item = self._inbox.get()
            if item is None:
                yield json.dumps({"op": "shutdown"})
                return
            rid, line = item
            if rid is not None:
                self.sent[rid] = time.perf_counter()
            yield line

    def write(self, payload: Dict[str, Any]) -> None:
        kind = payload.get("type")
        if kind == "event":
            with self._lock:
                self.events += 1
            return
        if kind == "flushed":
            self.flushes += 1
            return
        if kind == "bye":
            self.bye = payload
            return
        if kind not in ("result", "error", "busy"):
            return
        rid = payload.get("id")
        if rid not in self.sent:
            return
        latency = time.perf_counter() - self.sent[rid]
        after = calibrate()
        with self._lock:
            self.latency[rid] = latency
            self.scaled[rid] = scaled(latency, self._cal, after)
            self._cal = after
            self.responses[rid] = payload
            done = len(self.responses)
            if done % SERVE_FLUSH_EVERY == 0 and done < len(self.jobs):
                self._inbox.put((None, json.dumps({"op": "flush"})))
            self._queue_next()
            if done == len(self.jobs):
                self._inbox.put(None)


def run_serve(server, jobs, result: Dict[str, Any]) -> Dict[str, Any]:
    setup_done(result)
    loop = ClosedLoop(jobs)
    server.serve_lines(loop.lines(), loop.write)
    rss = peak_rss_mb()
    server.close()
    return {"loop": loop, "rss": rss}


def serve_metrics(run: Dict[str, Any], jobs, reference: Dict[str, int]):
    loop: ClosedLoop = run["loop"]
    failures: Dict[str, str] = {}
    areas = 0
    replayed = 0
    busy = 0
    rounds = 0
    for index, (key, kind, _source) in enumerate(jobs):
        rid = f"j{index}"
        response = loop.responses.get(rid)
        label = f"{rid} {key}"
        if response is None:
            failures[label] = "no response"
            continue
        if response["type"] != "result":
            busy += response["type"] == "busy"
            failures[label] = (f"{response['type']} "
                               f"{response.get('error', '')}")
            continue
        area = response["report"]["optimized_area"]
        areas += area
        if area != reference[key]:
            failures[label] = f"area {area} != reference {reference[key]}"
        if response["replayed"]:
            replayed += 1
        else:
            rounds += len({p["round"] for p in response["report"]["passes"]})
        if kind == "table2" and not response["replayed"]:
            failures[label] = "Table II re-submission did not replay"
    latencies = list(loop.scaled.values())
    #: one client: the stream's time is its jobs' latencies end to end
    wall = sum(latencies)
    metrics = {
        "wall_s": wall,
        "smartly_s": wall,
        "smartly_area": areas,
        "peak_rss_mb": run["rss"],
        "jobs_per_s": len(jobs) / wall,
        "job_p50_s": statistics.median(latencies),
        "job_p90_s": p90(latencies),
    }
    extra = {"jobs": len(jobs), "wall_raw_s": sum(loop.latency.values()),
             "replayed": replayed, "busy": busy, "flushes": loop.flushes,
             "events": loop.events, "bye": loop.bye}
    return {"metrics": metrics, "extra": extra, "failures": failures,
            "attempted": len(jobs), "rounds": rounds, "replayed": replayed,
            "busy": busy}


def prep(args) -> Dict[str, Any]:
    """Fill the store with the Table II smartly suite through a daemon
    and record the reference area of every job of the stream.  The seed
    only orders the stream, so a fixed one makes the same store for every
    run."""
    from repro.api import Session

    inputs = make_inputs("serve_warm", 0)
    server = open_daemon(args.store)
    requests = [
        json.dumps({"op": "run", "id": case, "source": source,
                    "flow": "smartly", "events": False})
        for case, source in inputs["sources"].items()
    ]
    responses: List[Dict[str, Any]] = []
    server.serve_lines(requests + [json.dumps({"op": "shutdown"})],
                       responses.append)
    server.close()
    reference: Dict[str, int] = {}
    for response in responses:
        if response.get("type") == "error":
            raise RuntimeError(f"store preparation failed: {response}")
        if response.get("type") == "result":
            reference[response["id"]] = response["report"]["optimized_area"]
    missing = set(inputs["sources"]) - set(reference)
    if missing:
        raise RuntimeError(f"store preparation missed {sorted(missing)}")
    for key, kind, source in inputs["jobs"]:
        if kind == "fresh" and key not in reference:
            reference[key] = Session.from_verilog(source).run(
                "smartly").optimized_area
    with open(args.reference, "w", encoding="utf-8") as handle:
        json.dump(reference, handle)
    return {}


# -- the measured process ------------------------------------------------------


def measure(args, result: Dict[str, Any]) -> Dict[str, Any]:
    rec = None
    missing: List[str] = []
    if args.trace:
        import tracing

        rec = tracing.Recorder()
        missing = tracing.install(rec)
    import repro.api  # noqa: F401  (set-up includes importing the API)

    inputs = make_inputs(args.workload, args.seed)
    if rec is not None:
        rec.enabled = True
    if args.workload == "serve_warm":
        server = open_daemon(args.store)
        if args.role == "setup":
            setup_done(result)
            return result
        run = run_serve(server, inputs["jobs"], result)
        if rec is not None:
            rec.enabled = False
        with open(args.reference, encoding="utf-8") as handle:
            reference = json.load(handle)
        out = serve_metrics(run, inputs["jobs"], reference)
    else:
        if args.role == "setup":
            setup_done(result)
            return result
        check = args.workload == "table2_check"
        run = run_suite(inputs["sources"], check, rec, result, args.seconds,
                        args.passes)
        if rec is not None:
            rec.enabled = False
        out = suite_metrics(run, inputs["sources"], check, args.seed)
    result.update(out)
    if rec is not None:
        result["layers"] = layer_values(rec, out, run, args.workload)
        result["missing"] = missing
        result["spans"] = rec.span_count()
        result["by_job"] = rec.counters_by_job()
        if args.trace_out:
            rec.write_chrome_trace(args.trace_out, {
                "workload": args.workload, "seed": args.seed,
                "missing": missing,
            })
    return result


def layer_values(rec, out: Dict[str, Any], run: Dict[str, Any],
                 workload: str) -> Dict[str, float]:
    """Per-layer metrics from the recorder plus the benchmark's own
    tallies (rounds from ``RunReport.passes``, replay flags, latencies)."""
    selfs = rec.self_times()
    counts = rec.counters()

    def self_s(span: str) -> float:
        return selfs.get(span, {}).get("self_s", 0.0)

    def count(name: str) -> float:
        return counts.get(name, 0)

    def pct(part: float, whole: float) -> float:
        return 100.0 * part / whole if whole else 0.0

    lookups = count("core.rcache_hits") + count("core.rcache_misses")
    values = {
        "frontend.compile_s": self_s("frontend.compile"),
        "frontend.compile_calls": count("frontend.compile_calls"),
        "frontend.cells_per_s": (
            count("frontend.cells") / self_s("frontend.compile")
            if self_s("frontend.compile") else 0.0),
        "ir.netindex_s": self_s("ir.netindex"),
        "ir.netindex_builds": count("ir.netindex_builds"),
        "ir.module_signature_s": self_s("ir.module_signature"),
        "ir.module_signature_calls": count("ir.module_signature_calls"),
        "opt.opt_expr_s": self_s("opt.opt_expr"),
        "opt.opt_merge_s": self_s("opt.opt_merge"),
        "opt.opt_muxtree_s": self_s("opt.opt_muxtree"),
        "opt.opt_clean_s": self_s("opt.opt_clean"),
        "opt.rounds": out["rounds"],
        "core.smartly_s": self_s("core.smartly"),
        "core.restructure_s": self_s("core.restructure"),
        "core.trees_rebuilt": count("core.trees_rebuilt"),
        "core.extract_s": self_s("core.extract"),
        "core.extract_calls": count("core.extract_calls"),
        "core.gates_kept": count("core.gates_kept"),
        "core.extract_kept_pct": pct(count("core.gates_kept"),
                                     count("core.gates_before")),
        "core.infer_s": self_s("core.infer"),
        "core.infer_calls": count("core.infer_calls"),
        "core.sim_s": self_s("core.sim"),
        "core.sim_queries": count("core.sim_queries"),
        "core.cache_key_s": self_s("core.cache_key"),
        "core.cache_key_calls": count("core.cache_key_calls"),
        "core.rcache_hit_pct": pct(count("core.rcache_hits"), lookups),
        "core.cache_export_s": self_s("core.cache_export"),
        "core.cache_export_entries": count("core.cache_export_entries"),
        "core.cache_merge_s": self_s("core.cache_merge"),
        "core.cache_merge_entries": count("core.cache_merge_entries"),
        "core.store_save_s": self_s("core.store_save"),
        "core.store_load_s": self_s("core.store_load"),
        "sat.decide_s": self_s("sat.decide"),
        "sat.decide_calls": count("sat.decide_calls"),
        "aig.aigmap_s": self_s("aig.aigmap"),
        "aig.aigmap_calls": count("aig.aigmap_calls"),
        "equiv.cec_s": self_s("equiv.cec"),
        "equiv.proofs": count("equiv.proofs"),
        "equiv.miter_s": self_s("equiv.miter"),
        "equiv.miter_ands": count("equiv.miter_ands"),
        "equiv.sim_s": self_s("equiv.sim"),
        "equiv.sat_s": self_s("equiv.sat"),
        "equiv.sat_conflicts": count("equiv.sat_conflicts"),
        "flow.session_s": self_s("flow.session"),
        "flow.run_job_s": self_s("flow.run_job"),
        "flow.queue_wait_s": 0.0,
        "flow.replayed_jobs": out.get("replayed", 0),
        "flow.replayed_pct": pct(out.get("replayed", 0), out["attempted"]),
        "flow.busy_responses": out.get("busy", 0),
        "flow.yosys_s": out["extra"].get("yosys_s", 0.0),
        "flow.yosys_area": out["extra"].get("yosys_area", 0),
        "trace.wall_s": out["metrics"]["wall_s"],
        "trace.spans": rec.span_count(),
    }
    if workload == "serve_warm":
        loop = run["loop"]
        values["flow.queue_wait_s"] = sum(
            rec.job_starts[rid] - sent for rid, sent in loop.sent.items()
            if rid in rec.job_starts
        )
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("prep", "setup", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--t0", type=float, default=_STARTED,
                        help="wall-clock time the launcher spawned us at")
    parser.add_argument("--store")
    parser.add_argument("--reference")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--passes", type=int,
                        help="exact number of suite passes (default: at "
                             "least MIN_REPS, more while --seconds lasts)")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    result: Dict[str, Any] = {"t0": args.t0}
    if args.role == "prep":
        result.update(prep(args))
    else:
        measure(args, result)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, default=str)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
