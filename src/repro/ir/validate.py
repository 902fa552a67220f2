"""Netlist well-formedness checks.

``validate_module`` raises :class:`ValidationError` on the first violation;
``check_module`` returns the full list of problems as strings.  Checks:

* every cell port is connected with the width its cell type demands,
* no bit has two drivers (cell outputs and alias connections combined;
  aliasing two different constants counts as one),
* module output wires are driven,
* pmux select widths match branch counts,
* the combinational part is acyclic.
"""

from __future__ import annotations

from typing import List

from . import celllib
from .module import Module
from .walker import CombLoopError, DriverConflictError, NetIndex


class ValidationError(Exception):
    """The module violates a structural invariant."""


def check_module(module: Module) -> List[str]:
    """Return a list of human-readable problems (empty list = valid)."""
    problems: List[str] = []

    # port/width well-formedness is defined by the cell-semantics registry
    for cell in module.cells.values():
        problems.extend(celllib.spec_for(cell.type).check(cell))

    if problems:
        # port-level problems make the bit-level index unreliable
        return problems

    index = None
    try:
        index = NetIndex(module)
    except DriverConflictError as exc:
        problems.append(str(exc))

    if index is not None:
        sigmap = index.sigmap
        for wire in module.outputs:
            for offset, bit in enumerate(map(sigmap.map_bit, wire.bits)):
                if bit.is_const:
                    continue
                if bit not in index.driver and not (
                    bit.wire is not None and bit.wire.port_input
                ):
                    # driven through an alias chain ending at an undriven wire
                    problems.append(
                        f"output {wire.name}[{offset}] is undriven"
                    )
        try:
            index.topo_cells()
        except CombLoopError as exc:
            problems.append(str(exc))

    return problems


def validate_module(module: Module) -> None:
    """Raise :class:`ValidationError` if the module is malformed."""
    problems = check_module(module)
    if problems:
        raise ValidationError(
            f"module {module.name!r} failed validation:\n  " + "\n  ".join(problems)
        )
