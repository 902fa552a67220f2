"""The combined smaRTLy optimization flow.

The paper evaluates three configurations (Table III):

* **SAT**      — SAT-based redundancy elimination only (``smartly-sat``),
* **Rebuild**  — muxtree restructuring only (``smartly-rebuild``),
* **Full**     — both, which compose: restructuring lowers tree heights and
  simplifies control ports, shrinking the sub-graphs the SAT stage must
  reason about, so Full typically beats the sum of its parts.

The ``smartly*`` flow presets (:mod:`repro.flow.spec`) wrap this pass with
the same generic cleanup (``opt_expr`` / ``opt_merge`` / ``opt_clean``)
used around the Yosys baseline, so area comparisons isolate the muxtree
strategy itself.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Dict, List, Optional

from ..ir.module import Module
from ..opt.opt_muxtree import OptMuxtree
from ..opt.pass_base import DirtySet, Pass, PassResult, register_pass
from .cache import ResultCache
from .redundancy import SatRedundancy
from .restructure import MuxtreeRestructure


@dataclass
class SmartlyOptions:
    """Tuning knobs collected in one place (paper §II/§III parameters)."""

    #: enable the SAT-based redundancy elimination stage
    sat: bool = True
    #: enable the ADD-based muxtree restructuring stage
    rebuild: bool = True
    #: sub-graph radius k (gates) around each control port
    k: int = 4
    #: sub-graph radius for data-port queries (inference only)
    data_k: int = 2
    #: exhaustive simulation when free inputs <= sim_threshold
    sim_threshold: int = 8
    #: SAT solving when free inputs <= sat_threshold (else forgo, paper §II)
    sat_threshold: int = 64
    #: per-query CDCL conflict budget
    max_conflicts: int = 2000
    #: raw neighbourhood cap before Theorem II.1 reduction
    max_gates: int = 500
    #: memoize control-query resolutions (the whole inference →
    #: simulation → SAT ladder) in a persistent
    #: :class:`~repro.core.cache.ResultCache` keyed by canonical
    #: name-independent structural signatures, so isomorphic sub-graphs
    #: from renamed modules, clones or other processes share entries
    #: (False = recompute every outcome, the reference path)
    use_result_cache: bool = True
    #: largest case-selector width restructuring will tabulate
    max_sel_width: int = 12
    #: minimum estimated AIG gain before a tree is rebuilt
    min_gain: int = 1
    #: fixpoint rounds of a smartly preset (restructure + SAT interleave);
    #: not an option of the smartly pass itself
    max_rounds: int = 4


@register_pass
class Smartly(Pass):
    """One optimization round: restructure, then SAT-prune, then clean."""

    name = "smartly"

    def __init__(self, options: Optional[SmartlyOptions] = None, **overrides):
        opts = options if options is not None else SmartlyOptions()
        if overrides:
            known = self.option_defaults()
            for key in overrides:
                if key not in known:
                    raise TypeError(f"unknown smaRTLy option {key!r}")
            # never mutate the caller's options object: the same
            # SmartlyOptions instance must be reusable across runs
            opts = replace(opts, **overrides)
        self.options = opts
        #: the stages, built once: the SAT stage owns its oracle and result
        #: cache, so both persist across optimization rounds and runs
        self._stages: List[Pass] = []
        if opts.rebuild:
            # restructuring first: it simplifies the control ports the SAT
            # stage will reason about (paper §IV-A's composition argument)
            self._stages.append(
                MuxtreeRestructure(
                    max_sel_width=opts.max_sel_width, min_gain=opts.min_gain
                )
            )
        if opts.sat:
            self._stages.append(
                SatRedundancy(
                    k=opts.k,
                    data_k=opts.data_k,
                    sim_threshold=opts.sim_threshold,
                    sat_threshold=opts.sat_threshold,
                    max_conflicts=opts.max_conflicts,
                    max_gates=opts.max_gates,
                    use_result_cache=opts.use_result_cache,
                )
            )
        else:
            # smaRTLy *replaces* opt_muxtree; without the SAT stage (which
            # subsumes it) the baseline identical-signal pruning must still
            # run, exactly like the paper's Rebuild-only configuration
            self._stages.append(OptMuxtree())

    @classmethod
    def option_defaults(cls) -> Dict[str, Any]:
        """The :class:`SmartlyOptions` fields and their defaults that a
        flow script gives as overrides: all but ``max_rounds``, which caps
        a preset's fixpoint loop rather than one pass."""
        return {
            f.name: f.default
            for f in fields(SmartlyOptions)
            if f.name != "max_rounds"
        }

    def attach_result_cache(self, cache: ResultCache) -> None:
        """Share an externally owned result cache (Session injection point)
        with the stages that memoize.

        Keys are canonical structural signatures, so one cache instance
        can serve any number of modules without collisions; injecting the
        owning :class:`~repro.flow.session.Session`'s instance makes
        outcomes persist across runs and across the design's modules, and
        lets isomorphic sub-graphs share them.
        """
        for stage in self._stages:
            if isinstance(stage, SatRedundancy):
                stage.attach_result_cache(cache)

    def execute(self, module: Module, result: PassResult) -> None:
        self._execute(module, result, dirty=None, incremental=False)

    def execute_incremental(
        self, module: Module, result: PassResult, dirty: Optional[DirtySet]
    ) -> None:
        self._execute(module, result, dirty=dirty, incremental=True)

    def _execute(
        self,
        module: Module,
        result: PassResult,
        dirty: Optional[DirtySet],
        incremental: bool,
    ) -> None:
        seed = dirty
        for stage in self._stages:
            sub = stage.run(module, dirty=seed, incremental=incremental)
            result.merge(sub, prefix=f"{sub.pass_name}.")
            if incremental and seed is not None:
                # a later stage must also see what the earlier stage edited
                seed = seed.union(DirtySet(
                    sub.touched_cells, sub.touched_bits,
                    sub.touched_fanin_bits,
                ))
