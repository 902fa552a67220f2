"""SAT-based redundancy elimination (paper §II) — the ``smartly_sat`` pass.

The pass extends the baseline muxtree traversal: when the value of a control
(or data) bit is not decided by *identical* path signals, smaRTLy builds the
distance-``k`` sub-graph around it, reduces the sub-graph with the
Theorem II.1 support grouping, and escalates through three deciders:

1. the Table-I **inference rules** (cheap implication propagation),
2. **exhaustive simulation** when the reduced sub-graph has at most
   ``sim_threshold`` free inputs (bit-parallel over all 2^n vectors),
3. the **CDCL SAT solver** when it has at most ``sat_threshold`` inputs:
   the control S is fixed iff ``SAT(S=1)`` or ``SAT(S=0)`` is unsatisfiable
   under the path assumptions.

Above ``sat_threshold`` free inputs the query is forgone (the paper's
safeguard against the optimizer becoming the synthesis bottleneck).

Every control query runs the ladder directly, with no memo: one
inference (and, when it leaves the value open, one simulation) costs
less than the canonical sub-graph signature that would key a stored
outcome.  A data operand is one query too: its undecided bits are
grouped by the neighbour cells that fix their distance-``data_k`` ball,
and each group gets one extraction and one run of the inference rules
(the data rung poses no simulation or SAT query).

A contradiction (both polarities unsatisfiable, or inconsistent facts)
means the path into this mux can never be active; the branch is then pruned
to an arbitrary operand, which is sound because the operand is never
observed.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from ..ir.module import Cell, Module
from ..ir.signals import SigBit, State
from ..opt.pass_base import DirtySet, PassResult, prefixed, register_pass
from ..opt.opt_muxtree import OptMuxtree
from ..sat.oracle import SatOracle
from ..sim import eval_cell_masks, exhaustive_patterns
from .inference import InferenceResult, infer
from .subgraph import SubGraph, extract_subgraph


@register_pass
class SatRedundancy(OptMuxtree):
    """Muxtree pruning with logic inferencing over sub-graphs + SAT.

    SAT queries go through one :class:`~repro.sat.oracle.SatOracle`,
    built with the pass: each query encodes its sub-graph into a fresh
    solver.  The oracle's counters are reported as ``oracle_*`` entries
    in the pass stats, alongside ``sat_wallclock_us`` (total time spent
    inside SAT decisions).

    A control query runs the inference → simulation → SAT ladder over
    its own sub-graph (:meth:`_deep_resolve`); data operands take one
    inference per group of bits that share a sub-graph
    (:meth:`_resolve_data_values`).
    """

    name = "smartly_sat"

    def __init__(
        self,
        k: int = 4,
        data_k: int = 2,
        sim_threshold: int = 8,
        sat_threshold: int = 64,
        max_conflicts: int = 2000,
        max_gates: int = 500,
    ):
        self.k = k
        self.data_k = data_k
        self.sim_threshold = sim_threshold
        self.sat_threshold = sat_threshold
        self.max_conflicts = max_conflicts
        self.max_gates = max_gates
        self._oracle = SatOracle()
        self._sat_time = 0.0
        #: a cell edit can change the verdict of any control whose
        #: distance-k sub-graph contains it, i.e. of muxes up to k+1 hops
        #: away — the incremental engine's closure must reach that far
        self.dirty_radius = max(k, data_k) + 1

    def execute(self, module: Module, result: PassResult) -> None:
        self._with_oracle(
            result, lambda: OptMuxtree.execute(self, module, result)
        )

    def execute_incremental(
        self, module: Module, result: PassResult, dirty: Optional[DirtySet]
    ) -> None:
        self._with_oracle(
            result,
            lambda: OptMuxtree.execute_incremental(self, module, result, dirty),
        )

    def _with_oracle(self, result: PassResult, body) -> None:
        self._sat_time = 0.0
        before = self._oracle.counters.copy()
        body()
        # counters, not bumps: queries posed must not flag a change
        grown = self._oracle.counters - before
        result.stats.update(prefixed("oracle_", grown))
        if self._sat_time:
            result.stats["sat_wallclock_us"] += int(self._sat_time * 1e6)

    # -- hook overrides -----------------------------------------------------------

    def _resolve_ctrl_value(self, bit, facts):
        direct = self._bit_value(bit, facts)
        if direct is not None:
            return direct
        if not facts:
            # no path knowledge yet: only constants could decide the control,
            # and opt_expr already folds constant cones
            return None
        cbit = self.sigmap.get(bit, bit)
        if cbit.is_const:
            return None  # x constant: undecidable by design
        return self._deep_resolve(cbit, facts)

    def _resolve_data_values(self, bits, facts):
        values = super()._resolve_data_values(bits, facts)
        if not facts:
            return values
        view = self.index.canonical_view()
        # the positions of each undecided bit that needs a sub-graph (a bit
        # read twice is asked once), and those bits by their neighbour
        # cells (the driver first), which fix a cell-walked ball
        asked: Dict[SigBit, List[int]] = {}
        groups: Dict[Tuple[Cell, ...], List[SigBit]] = {}
        get = self.sigmap.get
        for pos, bit in enumerate(bits):
            if values[pos] is not None:
                continue
            cbit = get(bit, bit)
            if cbit in asked:
                asked[cbit].append(pos)
                continue
            bid = view.bit_id(cbit)
            if view.driver(bid) is None:
                # a free source bit can only be decided by a direct fact
                # (handled above); skip the expensive sub-graph machinery
                continue
            asked[cbit] = [pos]
            groups.setdefault(view.neighbours(bid), []).append(cbit)

        outcomes: Dict[SigBit, Tuple[SubGraph, InferenceResult]] = {}
        for members in groups.values():
            outcomes.update(self._infer_group(members, facts))
        # counters per bit, in bit order, as one query per bit notes them
        note = self.result.note
        for cbit, positions in asked.items():
            subgraph, inference = outcomes[cbit]
            note("subgraph_gates_before", subgraph.gates_before)
            note("subgraph_gates_after", subgraph.gates_after)
            if inference.contradiction:
                note("dead_paths")  # path never active: either branch sound
                value: Optional[bool] = False
            else:
                value = inference.value_of(cbit)
                if value is not None:
                    note("data_inferred")
            for pos in positions:
                values[pos] = value
        return values

    def _infer_group(
        self, members: List[SigBit], facts: Dict[SigBit, bool]
    ) -> Dict[SigBit, Tuple[SubGraph, InferenceResult]]:
        """The distance-``data_k`` sub-graph and the inference of each bit
        of a group with one driver and equal neighbour cells.

        A cell-walked ball is the same for every member, and so is its
        reduced sub-graph but for the target (see :func:`extract_subgraph`;
        at ``data_k = 0`` it is empty and decides nothing): one extraction
        and one inference serve them all.  A bit-BFS ball depends on the
        target, so such a group is resolved bit by bit.
        """
        outcomes = {}
        own_query = True
        for cbit in members:
            if own_query:
                subgraph = extract_subgraph(
                    self.index, cbit, facts, k=self.data_k,
                    max_gates=self.max_gates,
                )
                inference = infer(subgraph, self.index, subgraph.known)
                own_query = not subgraph.cell_walk
            outcomes[cbit] = (subgraph, inference)
        return outcomes

    # -- the inference / simulation / SAT ladder ---------------------------------------

    def _deep_resolve(
        self, target: SigBit, facts: Dict[SigBit, bool]
    ) -> Optional[bool]:
        """Decide control bit ``target`` over its distance-``k`` sub-graph."""
        subgraph = extract_subgraph(
            self.index, target, facts, k=self.k, max_gates=self.max_gates
        )
        # observation counters use note(): queries posed do not modify the
        # netlist, and marking them as changes kept the fixpoint loop from
        # ever detecting convergence (every round re-ran to max_rounds)
        self.result.note("subgraph_gates_before", subgraph.gates_before)
        self.result.note("subgraph_gates_after", subgraph.gates_after)
        return self._resolve_ladder(subgraph)

    def _resolve_ladder(self, subgraph: SubGraph) -> Optional[bool]:
        """The inference → simulation → SAT ladder over one control
        sub-graph, posed under non-empty path facts."""
        note = self.result.note
        # 1. inference rules (Table I)
        inference = infer(subgraph, self.index, subgraph.known)
        if inference.contradiction:
            note("dead_paths")
            return False  # path never active: either branch sound
        value = inference.value_of(subgraph.target)
        if value is not None:
            note("ctrl_inferred")
            return value

        # 2. exhaustive simulation for small input counts
        if subgraph.num_inputs <= self.sim_threshold:
            note("sim_queries")
            outcome = self._simulate(subgraph)
            if outcome == "dead":
                note("dead_paths")
                outcome = False
            if outcome is not None:
                note("ctrl_sim_decided")
            return outcome

        # 3. SAT for medium input counts
        if subgraph.num_inputs <= self.sat_threshold:
            note("sat_queries")
            start = time.perf_counter()
            decision = self._oracle.decide(
                subgraph, self.sigmap, max_conflicts=self.max_conflicts
            )
            self._sat_time += time.perf_counter() - start
            if decision.dead:
                note("dead_paths")  # both polarities impossible
            if decision.value is not None:
                note("ctrl_sat_decided")
            return decision.value

        note("skipped_large")
        return None

    # -- exhaustive simulation ------------------------------------------------------------

    def _simulate(self, subgraph: SubGraph):
        values, nvec = exhaustive_patterns(subgraph.inputs)
        mask = (1 << nvec) - 1  # one mask bit per simulated vector
        for bit, val in subgraph.known.items():
            values.setdefault(bit, mask if val else 0)

        get = self.sigmap.get

        def bit_mask(bit: SigBit) -> int:
            cbit = get(bit, bit)
            if cbit.is_const:
                return mask if cbit.state is State.S1 else 0
            return values.get(cbit, 0)

        # internal known bits are *not* pinned: their computed masks feed the
        # path-consistency selector below (source knowns stay pinned because
        # nothing in the sub-graph drives them)
        for cell in subgraph.cells:  # already topologically ordered
            inputs = {
                p: [bit_mask(b) for b in cell.connections[p]]
                for p in cell.input_ports
            }
            outputs = eval_cell_masks(cell, inputs, mask)
            for pname, masks in outputs.items():
                bits = cell.connections[pname].bits
                values.update(zip(map(get, bits, bits), masks))

        # restrict to vectors where the internal known facts hold
        selector = mask
        for bit, val in subgraph.known.items():
            computed = values.get(bit)
            if computed is None:
                continue
            selector &= computed if val else (~computed & mask)
        if selector == 0:
            return "dead"  # the path assumptions themselves are unsatisfiable
        target_mask = bit_mask(subgraph.target)
        if target_mask & selector == 0:
            return False
        if (~target_mask & mask) & selector == 0:
            return True
        return None
