"""Differential testing of optimization flows against the CEC oracle.

The harness closes the loop the paper relies on ("all results passed
equivalence checking") and makes it continuous: generate a random
combinational module from the :mod:`repro.workloads.generators` circuit
families, run every optimization flow preset over a private clone, and
SAT-prove the result equivalent to the unoptimized original.  Any
non-equivalence is a genuine optimizer bug, reported with the flow, the
generator seed (which reproduces the module exactly) and the concrete
counterexample assignment.

Used three ways:

* ``tests/fuzz/test_differential.py`` runs a fixed seed corpus in CI and
  extends it locally via ``pytest --fuzz-iterations=N``;
* ``python -m repro.cli fuzz --iterations N`` runs it standalone;
* libraries can call :func:`run_differential` with their own seeds/flows.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Union

from ..flow.spec import PRESET_NAMES, FlowSpec
from ..ir.builder import Circuit
from ..ir.module import Module
from ..sat.oracle import SatOracle
from ..workloads.generators import (
    InputPool,
    unit_case_chain,
    unit_datapath,
    unit_dataport_redundancy,
    unit_dependent_ctrl_tree,
    unit_obfuscated_select,
    unit_onehot_pmux,
    unit_priority_if_chain,
    unit_shared_ctrl_tree,
)


def _unit_menu(rng: random.Random) -> List[Callable[[Circuit, InputPool], Any]]:
    """Scaled-down unit builders (sizes drawn from ``rng``)."""
    return [
        lambda c, p: unit_shared_ctrl_tree(c, p, depth=rng.randint(2, 5)),
        lambda c, p: unit_dependent_ctrl_tree(
            c, p, depth=rng.randint(2, 4),
            variant=rng.choice(["or", "and"]),
        ),
        lambda c, p: unit_case_chain(
            c, p, sel_width=rng.randint(2, 4),
            distinct_values=rng.randint(2, 4),
        ),
        lambda c, p: unit_onehot_pmux(
            c, p, n_requesters=rng.randint(2, 4), nest=rng.random() < 0.5
        ),
        lambda c, p: unit_obfuscated_select(
            c, p, n_requesters=rng.randint(2, 3), cone_ops=1
        ),
        lambda c, p: unit_dataport_redundancy(c, p, depth=rng.randint(2, 3)),
        lambda c, p: unit_datapath(c, p, ops=rng.randint(2, 5)),
        lambda c, p: unit_priority_if_chain(c, p, depth=rng.randint(2, 4)),
    ]


def random_module(
    seed: int,
    width: int = 4,
    n_units: int = 3,
    name: Optional[str] = None,
) -> Module:
    """A random combinational module built from the workload unit families.

    Deterministic per ``seed`` — a failing seed is a complete repro.
    """
    rng = random.Random(seed)
    circuit = Circuit(name or f"fuzz{seed}")
    pool = InputPool(circuit, rng, width, n_words=6, n_ctrl=5)
    menu = _unit_menu(rng)
    for i in range(n_units):
        unit = rng.choice(menu)
        circuit.output(f"u{i}", unit(circuit, pool))
    return circuit.module


@dataclass(frozen=True)
class DifferentialResult:
    """One (seed, flow) verdict."""

    seed: int
    flow: str
    case_name: str
    original_area: int
    optimized_area: int
    equivalent: bool
    #: True when the CEC ran out of conflict budget — neither a pass nor
    #: a counterexample; treated as a failure by :attr:`DifferentialReport.ok`
    undecided: bool
    method: str
    counterexample: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.equivalent and not self.undecided


@dataclass
class DifferentialReport:
    """All verdicts of one harness run plus the shared oracle's counters.

    When the harness runs with ``artifacts_dir``/``shrink``,
    :attr:`artifacts` lists every repro file written and
    :attr:`reductions` one summary dict per auto-shrunk failure.
    """

    results: List[DifferentialResult] = field(default_factory=list)
    oracle_stats: Dict[str, int] = field(default_factory=dict)
    artifacts: List[str] = field(default_factory=list)
    reductions: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def failures(self) -> List[DifferentialResult]:
        return [r for r in self.results if not r.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> Dict[str, Any]:
        return {
            "cases": len({r.seed for r in self.results}),
            "checks": len(self.results),
            "failures": len(self.failures),
            "oracle": dict(self.oracle_stats),
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "summary": self.summary(),
            "failures": [asdict(r) for r in self.failures],
            "reductions": list(self.reductions),
            "artifacts": list(self.artifacts),
        }

    def to_json(self, **kwargs: Any) -> str:
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **kwargs)


def roundtrip_result(seed: int, golden: Module) -> DifferentialResult:
    """The Yosys-JSON round-trip lane: ``read(write(m))`` must be
    ``module_signature``-identical to ``m`` (exact structure, not just
    SAT equivalence — the exporter/reader pair may not rewrite anything).
    :class:`~repro.testing.oracles.RoundtripOracle` decides it; its
    failure label (``roundtrip:signature`` or ``roundtrip:error:...``)
    becomes the result's ``method`` rather than aborting the whole
    harness run.
    """
    from ..testing.oracles import PASS, RoundtripOracle

    label = RoundtripOracle().probe(golden)
    return DifferentialResult(
        seed=seed,
        flow="json-roundtrip",
        case_name=golden.name,
        original_area=0,
        optimized_area=0,
        equivalent=label == PASS,
        undecided=False,
        method="struct_hash" if label == PASS else label,
    )


def _flow_label(flow: Union[str, FlowSpec]) -> str:
    if isinstance(flow, str):
        return flow
    return getattr(flow, "name", None) or str(flow)


def _failure_label(result: DifferentialResult) -> str:
    """The oracle label a failing result corresponds to (reducer target)."""
    if result.method.startswith(
        ("crash:", "divergence:", "seeded:", "roundtrip:")
    ):
        return result.method
    if result.undecided:
        return "cec:undecided"
    return "cec:counterexample"


def _oracle_for(result: DifferentialResult, *, random_vectors: int = 64,
                max_conflicts: Optional[int] = None):
    """Map a failing lane result to the oracle that reproduces it.

    Every lane the harness runs — CEC mismatch/undecided, engine
    divergence, seeded-rerun divergence, json-roundtrip, and crashes —
    routes to a :mod:`repro.testing.oracles` predicate here, which is
    what lets :func:`run_differential` auto-shrink any failure.
    """
    from ..testing.oracles import (
        CecOracle,
        CrashOracle,
        DivergenceOracle,
        RoundtripOracle,
        SeededRerunOracle,
    )

    if result.flow == "json-roundtrip":
        return RoundtripOracle()
    if result.flow.startswith("divergence:"):
        return DivergenceOracle(flow=result.flow.split(":", 1)[1])
    if result.flow.startswith("seeded:"):
        return SeededRerunOracle(flow=result.flow.split(":", 1)[1])
    if result.method.startswith("crash:"):
        return CrashOracle(flow=result.flow)
    return CecOracle(flow=result.flow, random_vectors=random_vectors,
                     max_conflicts=max_conflicts)


def _process_failure(
    report: DifferentialReport,
    result: DifferentialResult,
    golden: Module,
    *,
    artifacts_dir: Optional[str],
    shrink: bool,
    shrink_probes: int,
    random_vectors: int,
    max_conflicts: Optional[int],
    generator: Dict[str, Any],
) -> None:
    """Dump the failing case and (optionally) auto-shrink it.

    The pre-reduction dump happens unconditionally when ``artifacts_dir``
    is set — a failing seed is reproducible even when reduction is
    skipped or the reducer cannot confirm the failure.
    """
    from ..testing.reduce import NotFailingError, reduce_module, write_repro

    label = _failure_label(result)
    slug = result.flow.replace(":", "-")
    stem = f"seed{result.seed}.{slug}"
    meta = {
        "seed": result.seed,
        "flow": result.flow,
        "label": label,
        "generator": dict(generator),
    }
    if artifacts_dir:
        report.artifacts.extend(write_repro(
            artifacts_dir, f"{stem}.orig", golden,
            meta={**meta, "reduced": False},
        ))
    if not shrink:
        return
    oracle = _oracle_for(result, random_vectors=random_vectors,
                         max_conflicts=max_conflicts)
    entry: Dict[str, Any] = {"seed": result.seed, "flow": result.flow,
                             "oracle": oracle.name, "label": label}
    try:
        reduction = reduce_module(golden, oracle, max_probes=shrink_probes)
    except NotFailingError:
        # flaky outside the harness run (e.g. shared-oracle state): keep
        # the original dump, note that the shrink could not confirm it
        entry["error"] = "not-reproducible"
        report.reductions.append(entry)
        return
    entry.update(reduction.summary())
    if artifacts_dir:
        paths = write_repro(
            artifacts_dir, f"{stem}.min", reduction.module,
            meta={**meta, "reduced": True, "label": reduction.target,
                  "reduction": reduction.summary()},
        )
        report.artifacts.extend(paths)
        entry["artifact"] = paths[1]
    report.reductions.append(entry)


def run_differential(
    seeds: Iterable[int],
    flows: Sequence[Union[str, FlowSpec]] = PRESET_NAMES,
    *,
    width: int = 4,
    n_units: int = 3,
    random_vectors: int = 64,
    max_conflicts: Optional[int] = None,
    oracle: Optional[SatOracle] = None,
    on_result: Optional[Callable[[DifferentialResult], None]] = None,
    roundtrip: bool = False,
    divergence: bool = False,
    seeded: bool = False,
    artifacts_dir: Optional[str] = None,
    shrink: bool = False,
    shrink_probes: int = 400,
) -> DifferentialReport:
    """Run the differential harness over ``seeds`` × ``flows``.

    Every flow runs on a private clone; the unoptimized module is the
    golden reference for every check, so flows cannot mask each other's
    bugs.  A shared :class:`~repro.sat.oracle.SatOracle` accumulates
    CEC counters for the whole session (reported in the result).  A flow
    that raises becomes a failing ``crash:<ExcType>`` result instead of
    aborting the run.

    ``roundtrip=True`` adds one ``json-roundtrip`` lane per seed: the
    golden module must survive Yosys-JSON export + re-ingestion with an
    identical structural signature (see :func:`roundtrip_result`).
    ``divergence=True`` / ``seeded=True`` add one engine-divergence /
    seeded-rerun lane per seed × flow (reported as ``divergence:<flow>``
    and ``seeded:<flow>``; opt-in, the fixed CI corpus stays CEC-shaped).

    ``artifacts_dir`` dumps every failing seed's generating module as a
    ``.v`` + ``.json`` pair *before* any reduction; ``shrink=True``
    additionally routes each failure to its matching
    :mod:`repro.testing` oracle and writes the minimized repro next to
    it (``seed<seed>.<lane>.min.*``, budget ``shrink_probes``).
    """
    from ..flow.session import Session  # local import: flow layer is optional
    from .cec import check_equivalence

    if oracle is None:
        oracle = SatOracle()
    report = DifferentialReport()
    generator = {"width": width, "n_units": n_units}

    def emit(result: DifferentialResult, golden: Module) -> None:
        report.results.append(result)
        if on_result is not None:
            on_result(result)
        if not result.ok and (artifacts_dir or shrink):
            _process_failure(
                report, result, golden,
                artifacts_dir=artifacts_dir, shrink=shrink,
                shrink_probes=shrink_probes, random_vectors=random_vectors,
                max_conflicts=max_conflicts,
                generator={**generator, "seed": result.seed},
            )

    for seed in seeds:
        golden = random_module(seed, width=width, n_units=n_units)
        if roundtrip:
            emit(roundtrip_result(seed, golden), golden)
        for flow in flows:
            module = golden.clone()
            try:
                run = Session(module).run(flow)
                equiv = check_equivalence(
                    golden,
                    module,
                    random_vectors=random_vectors,
                    seed=seed,
                    max_conflicts=max_conflicts,
                    oracle=oracle,
                )
            except Exception as exc:  # noqa: BLE001 — crashes are lane failures
                emit(DifferentialResult(
                    seed=seed,
                    flow=_flow_label(flow),
                    case_name=golden.name,
                    original_area=0,
                    optimized_area=0,
                    equivalent=False,
                    undecided=False,
                    method=f"crash:{type(exc).__name__}",
                ), golden)
                continue
            emit(DifferentialResult(
                seed=seed,
                flow=run.flow,
                case_name=golden.name,
                original_area=run.original_area,
                optimized_area=run.optimized_area,
                equivalent=equiv.equivalent,
                undecided=equiv.undecided,
                method=equiv.method,
                counterexample=dict(equiv.counterexample),
            ), golden)
        extra_lanes = []
        if divergence:
            extra_lanes.append("divergence")
        if seeded:
            extra_lanes.append("seeded")
        for lane in extra_lanes:
            from ..testing.oracles import PASS, get_oracle

            for flow in flows:
                label = get_oracle(lane, flow=flow).probe(golden)
                emit(DifferentialResult(
                    seed=seed,
                    flow=f"{lane}:{_flow_label(flow)}",
                    case_name=golden.name,
                    original_area=0,
                    optimized_area=0,
                    equivalent=label == PASS,
                    undecided=False,
                    method=label if label != PASS else "oracle",
                ), golden)
    report.oracle_stats = dict(oracle.counters)
    return report


#: the fixed corpus CI replays (keep stable: appending is fine, renumbering
#: invalidates triage history)
CI_CORPUS = tuple(range(1000, 1024))


__all__ = [
    "CI_CORPUS",
    "DifferentialReport",
    "DifferentialResult",
    "random_module",
    "roundtrip_result",
    "run_differential",
]
