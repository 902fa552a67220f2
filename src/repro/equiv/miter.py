"""Miter construction for combinational equivalence checking.

The miter of two circuits is built from their AIGs, one per side: the
AIGs of two modules with the same port signature, mapped side by side
by :func:`~repro.aig.aigmap.aig_map`, or two such AIGs a caller already
holds (a checked :meth:`Session.run <repro.flow.session.Session.run>`
proves the AIG it mapped before the flow against the one it maps for
the optimized netlist's stats).  Inputs are shared by name, gold's
first; gold's AND nodes are copied and gate's re-hashed over them, so
logic the two sides share is one node; corresponding output bits are
XORed and the XORs are OR-reduced into a single *miter* output: the
circuits are equivalent iff that output is constant 0.

DFF handling: dff ``Q`` outputs become shared miter inputs and dff ``D``
inputs become compared outputs (keyed by cell name), so two netlists are
"equivalent" when all next-state and output functions agree — the standard
sequential-preserving combinational check used after synthesis passes that
keep registers in place.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple, Union

from ..aig.aig import AIG
from ..aig.aigmap import aig_map
from ..ir.module import Module

#: a module's port signature: ``({input: width}, {output: width})``
Signature = Tuple[Dict[str, int], Dict[str, int]]


class PortMismatchError(Exception):
    """The two modules do not share the same I/O signature."""


def io_signature(module: Module) -> Signature:
    """The module's port names and widths, inputs then outputs."""
    ins = {w.name: w.width for w in module.inputs}
    outs = {w.name: w.width for w in module.outputs}
    return ins, outs


def check_signatures(gold: Signature, gate: Signature) -> None:
    """Raise :class:`PortMismatchError` unless the signatures are equal."""
    (gold_ins, gold_outs), (gate_ins, gate_outs) = gold, gate
    if gold_ins != gate_ins or gold_outs != gate_outs:
        raise PortMismatchError(
            f"signatures differ: in {gold_ins} vs {gate_ins}; "
            f"out {gold_outs} vs {gate_outs}"
        )


def build_miter(
    gold: Union[Module, AIG], gate: Union[Module, AIG]
) -> Tuple[AIG, int]:
    """Build the miter AIG.  Returns ``(aig, miter_output_literal)``.

    ``gold`` and ``gate`` are two modules or two AIGs made by
    :func:`~repro.aig.aigmap.aig_map`.  Two modules must have the same
    port signature (else :class:`PortMismatchError`); each is mapped on
    :func:`~repro.ir.walker.current_index` (its live index when it has a
    usable one, else a snapshot), and both give the same miter.  Either
    way :class:`PortMismatchError` is raised when the output bit names
    differ, or when either side names two input bits or two output bits
    alike (a dff ``dff$1`` and an instance ``dff$1`` both name
    ``dff$1.D[0]``): bits pair by name, so such a pair would merge two
    inputs and drop an output.

    Extra internal sources (undriven wires) are miter inputs named by
    their canonical bit, shared when both sides have the bit; a bit
    undriven in only one side is an input of its own, which is
    conservative: equivalence then must hold for all its values.
    """
    if isinstance(gold, Module) and isinstance(gate, Module):
        check_signatures(io_signature(gold), io_signature(gate))
        gold, gate = aig_map(gold), aig_map(gate)
    elif not (isinstance(gold, AIG) and isinstance(gate, AIG)):
        raise TypeError(
            "build_miter takes two Modules or two AIGs, got "
            f"{type(gold).__name__} and {type(gate).__name__}"
        )
    for label, side in (("gold", gold), ("gate", gate)):
        _check_names(label, "input", side.input_names)
        _check_names(label, "output", [name for name, _lit in side.outputs])

    aig = AIG()
    shared: Dict[str, int] = {}
    for name in (*gold.input_names, *gate.input_names):
        if name not in shared:
            shared[name] = aig.add_input(name)
    gold_outputs = _graft(aig, gold, shared)
    gate_outputs = _graft(aig, gate, shared)

    missing = set(gold_outputs) ^ set(gate_outputs)
    if missing:
        raise PortMismatchError(f"output bit sets differ on: {sorted(missing)}")

    xors = [
        aig.xor(gold_outputs[name], gate_outputs[name]) for name in gold_outputs
    ]
    miter_lit = aig.or_reduce(xors)
    aig.add_output(miter_lit, "miter")
    return aig, miter_lit


def _check_names(label: str, kind: str, names: List[str]) -> None:
    """Raise :class:`PortMismatchError` naming the first repeat in
    ``names``."""
    if len(set(names)) == len(names):
        return
    seen: Set[str] = set()
    for name in names:
        if name in seen:
            raise PortMismatchError(
                f"{label} names two {kind} bits {name!r}; the miter pairs "
                f"bits by name"
            )
        seen.add(name)


def _graft(aig: AIG, side: AIG, shared: Dict[str, int]) -> Dict[str, int]:
    """Graft ``side`` into the miter ``aig`` over its ``shared`` inputs;
    returns ``side``'s outputs by name as literals of ``aig``."""
    lits = aig.graft(side, [shared[name] for name in side.input_names])
    return {name: lits[lit >> 1] ^ (lit & 1) for name, lit in side.outputs}
