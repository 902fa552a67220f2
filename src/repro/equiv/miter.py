"""Miter construction for combinational equivalence checking.

Two modules with the same port signature are mapped into one shared AIG
(inputs unified by name), corresponding output bits are XORed and the XORs
are OR-reduced into a single *miter* output: the circuits are equivalent iff
that output is constant 0.

DFF handling: dff ``Q`` outputs become shared miter inputs and dff ``D``
inputs become compared outputs (keyed by cell name), so two netlists are
"equivalent" when all next-state and output functions agree — the standard
sequential-preserving combinational check used after synthesis passes that
keep registers in place.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..aig.aig import AIG
from ..aig.aigmap import AigMapper
from ..ir.module import Module
from ..ir.walker import current_index


class PortMismatchError(Exception):
    """The two modules do not share the same I/O signature."""


def _io_signature(module: Module) -> Tuple[Dict[str, int], Dict[str, int]]:
    ins = {w.name: w.width for w in module.inputs}
    outs = {w.name: w.width for w in module.outputs}
    return ins, outs


def build_miter(gold: Module, gate: Module) -> Tuple[AIG, int]:
    """Build the miter AIG.  Returns ``(aig, miter_output_literal)``.

    Raises :class:`PortMismatchError` when I/O signatures differ.  Extra
    internal sources (undriven wires) are miter inputs named by their
    canonical bit, shared when both modules have the bit; a bit undriven
    in only one module is an input of its own, which is conservative:
    equivalence then must hold for all its values.  Each side is walked through
    :func:`~repro.ir.walker.current_index` (its live index when it has a
    usable one, else a snapshot); both give the same miter, so the
    miter's structural digest does not depend on which one was used.
    """
    gold_ins, gold_outs = _io_signature(gold)
    gate_ins, gate_outs = _io_signature(gate)
    if gold_ins != gate_ins or gold_outs != gate_outs:
        raise PortMismatchError(
            f"signatures differ: in {gold_ins} vs {gate_ins}; "
            f"out {gold_outs} vs {gate_outs}"
        )

    gold_index = current_index(gold)
    gate_index = current_index(gate)

    aig = AIG()
    shared: Dict[str, int] = {}
    gold_mapper = AigMapper(gold, gold_index, aig=aig, input_lits=shared)
    gate_mapper = AigMapper(gate, gate_index, aig=aig, input_lits=shared)
    # every source either mapper declares must exist before the first AND
    # node, shared by name
    for mapper in (gold_mapper, gate_mapper):
        for name in mapper.sources().values():
            if name not in shared:
                shared[name] = aig.add_input(name)

    gold_mapper.run()
    gold_outputs = {name: lit for name, lit in aig.outputs}
    aig.outputs.clear()

    gate_mapper.run()
    gate_outputs = {name: lit for name, lit in aig.outputs}
    aig.outputs.clear()

    missing = set(gold_outputs) ^ set(gate_outputs)
    if missing:
        raise PortMismatchError(f"output bit sets differ on: {sorted(missing)}")

    xors = [
        aig.xor(gold_outputs[name], gate_outputs[name]) for name in gold_outputs
    ]
    miter_lit = aig.or_reduce(xors)
    aig.add_output(miter_lit, "miter")
    return aig, miter_lit
