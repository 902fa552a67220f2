"""SAT-based combinational equivalence checking.

``check_equivalence(gold, gate)`` mirrors the paper's "all results passed
equivalence checking": a SAT sweep of the miter proves equivalence or
produces a concrete counterexample assignment, and the sweep's seeded
simulation finds most non-equivalences before any solver call.  ``gold``
and ``gate`` are two modules or two AIGs made by
:func:`~repro.aig.aigmap.aig_map`; either way
:func:`~repro.equiv.miter.build_miter` joins the two sides' AIGs, so a
pair checks the same in both forms (verdict, method, counterexample and
conflicts).  A checked :meth:`Session.run
<repro.flow.session.Session.run>` passes the AIGs it maps anyway: the
pre-flow one and the optimized one it reads its stats from.

The SAT step is :meth:`~repro.sat.oracle.SatOracle.solve_miter`, which
SAT-sweeps the miter AIG (:mod:`repro.aig.fraig`) instead of
asking one monolithic question: gold and gate share most of their
structure, so proving and merging their equivalent internal nodes
bottom-up usually folds the miter to constant 0 after many small SAT
queries.  Every merge rests on two UNSAT answers, so a proof is exact;
a miter the sweep cannot fold gets one final query, and one that fires
on a seeded simulation pattern is refuted before the first query
(``method="sim"``).  Pass an oracle in (``oracle=...``) to accumulate
query/conflict counters across many checks, e.g. a fuzzing session or
``Session.run_suite(check=True)``: each miter counts one oracle query,
every ``solve()`` of the sweep one solver call.

Decided SAT verdicts can additionally persist in an exportable
:class:`~repro.core.cache.ResultCache` (``cache=...``): the entry is keyed
``("cec", <miter structural digest>)`` where the digest covers the
miter AIG's input count, AND-node table and miter literal but *not* its
input names — the name-based port pairing is already baked into the node
structure, so renamed clones and replayed siblings that build the same
miter share the verdict, while independently built twins at worst miss
conservatively.  Only hard SAT verdicts are stored (never ``budget``,
``sim`` or ``fold`` outcomes), so a hit replays a proof, not a guess; a
cached non-equivalence carries no counterexample (``method="cached"``).
These entries survive ``export()``/``merge()`` warm-starts across
processes.

Sweeping changes neither the cache key nor the verdicts: the key is
still the digest of the miter itself, built before any sweep, and a
sweep proof (including a miter that folds to 0 during the sweep)
reports ``method="sat"``; ``"fold"`` stays reserved for miters that fold
during construction.

Conflict-budget exhaustion is a first-class outcome: ``max_conflicts``
caps the conflicts of *all* the sweep's queries together, and running
out returns an :class:`EquivResult` with ``equivalent=False`` **and**
``undecided=True`` (``method="budget"``), which is distinct from a
proven non-equivalence (``undecided=False`` with a counterexample).
Callers that need a hard verdict should treat ``undecided`` results as
failures, as :func:`assert_equivalent` does.  A proven non-equivalence
always carries a counterexample, except a refutation replayed from the
cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Union

from ..aig.aig import AIG
from ..ir.module import Module
from ..sat.oracle import SatOracle
from .miter import build_miter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cache -> oracle)
    from ..core.cache import ResultCache


@dataclass
class EquivResult:
    """Outcome of an equivalence check."""

    equivalent: bool
    #: "sim" when one of the SAT sweep's seeded simulation patterns fired
    #: the miter before any solver call, "fold" when the miter folded to
    #: a constant, "budget" when the conflict budget ran out before a
    #: verdict, "cached" when a ResultCache replayed a prior SAT verdict
    #: (no counterexample on cached refutations), "sat" otherwise
    method: str = "sat"
    #: input-bit-name -> value for the distinguishing assignment (if any)
    counterexample: Dict[str, int] = field(default_factory=dict)
    sat_conflicts: int = 0
    #: True when the solver exhausted its conflict budget: neither proven
    #: equivalent nor refuted (no counterexample exists in this result)
    undecided: bool = False

    def __bool__(self) -> bool:
        return self.equivalent


def check_equivalence(
    gold: Union[Module, AIG],
    gate: Union[Module, AIG],
    max_conflicts: Optional[int] = None,
    oracle: Optional[SatOracle] = None,
    cache: Optional["ResultCache"] = None,
) -> EquivResult:
    """Prove or refute combinational equivalence of two modules, or of
    two AIGs made by :func:`~repro.aig.aigmap.aig_map`.

    When ``max_conflicts`` is given and the SAT sweep spends it all
    before a verdict, the result is *undecided*
    (``EquivResult(False, method="budget", undecided=True)``) rather than
    a claim in either direction.  ``cache`` persists decided SAT verdicts
    under the miter's structural digest (see module docs).
    """
    aig, miter_lit = build_miter(gold, gate)

    cec_key = None
    if cache is not None:
        cec_key = cache.key_for("cec", aig.structural_digest(miter_lit))
        hit, verdict = cache.lookup(cec_key)
        if hit:
            return EquivResult(bool(verdict), method="cached")

    if miter_lit == 0:
        # miter folded to constant 0 during construction
        return EquivResult(True, method="fold")
    if miter_lit == 1:
        # folded to constant 1: every assignment distinguishes the two
        cex = {name: 0 for name in aig.input_names}
        return EquivResult(False, method="fold", counterexample=cex)
    if oracle is None:
        oracle = SatOracle()
    before = oracle.counters.copy()
    verdict, model = oracle.solve_miter(aig, miter_lit, max_conflicts)
    conflicts = oracle.counters["conflicts"] - before["conflicts"]
    if verdict is None:
        return EquivResult(
            False, method="budget", sat_conflicts=conflicts, undecided=True
        )
    if verdict is False:
        if cec_key is not None:
            cache.store(cec_key, True)
        return EquivResult(True, method="sat", sat_conflicts=conflicts)
    cex = {
        name: int(model.get(i + 1, False))
        for i, name in enumerate(aig.input_names)
    }
    if oracle.counters["solver_calls"] == before["solver_calls"]:
        # a seeded simulation pattern fired the miter: nothing to replay
        return EquivResult(False, method="sim", counterexample=cex)
    if cec_key is not None:
        cache.store(cec_key, False)
    return EquivResult(
        False, method="sat", counterexample=cex, sat_conflicts=conflicts
    )


def assert_equivalent(gold: Module, gate: Module, **kwargs) -> None:
    """Raise AssertionError unless the modules are *proven* equivalent.

    Both a found counterexample and an exhausted conflict budget raise —
    an undecided check is not a pass."""
    result = check_equivalence(gold, gate, **kwargs)
    if result.undecided:
        raise AssertionError(
            f"equivalence of {gold.name!r} and {gate.name!r} is UNDECIDED: "
            f"conflict budget exhausted after {result.sat_conflicts} conflicts"
        )
    if not result.equivalent:
        raise AssertionError(
            f"modules {gold.name!r} and {gate.name!r} are NOT equivalent "
            f"(found by {result.method}); counterexample: {result.counterexample}"
        )
