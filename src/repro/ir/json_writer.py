"""Yosys ``write_json`` netlist exporter (mirror of ``verilog_writer``).

Emits the same JSON schema Yosys produces (``modules`` → ``ports`` /
``cells`` / ``netnames``), with cell types taken from the cell-semantics
registry (:mod:`repro.ir.celllib`), so any ``read_json``-capable tool —
including our own :mod:`repro.frontend.yosys_json` reader — can consume
optimized netlists.  ``$nand``/``$nor`` are emitted as documented
extensions over the stock RTLIL word-level set (Yosys itself only has the
gate-level variants); the bundled reader accepts them, keeping
``read(write(m))`` structurally identical to ``m``.

Net identity: alias connections are folded through :class:`SigMap`, so
two connected wires share bit ids — exactly how the format expresses
module connections.  Hierarchy :class:`~repro.ir.module.Instance` records
are emitted as cells of non-``$`` type, again matching Yosys.
"""

from __future__ import annotations

import json
from typing import Dict, List, TextIO, Union

from . import celllib
from .cells import CellType, PortDir
from .design import Design
from .module import Cell, Module, SigMap
from .signals import SigBit, SigSpec, State

_CONST_TOKENS = {State.S0: "0", State.S1: "1", State.Sx: "x"}


class YosysJsonWriter:
    """Serializes one module (or a whole design) to Yosys JSON."""

    def __init__(self) -> None:
        self._ids: Dict[SigBit, int] = {}
        self._next_id = 2  # Yosys convention: net ids start at 2
        self._sigmap = SigMap()

    # -- per-module serialization ------------------------------------------------

    def module_dict(self, module: Module, top: bool = False) -> dict:
        """The ``modules[name]`` payload for one module."""
        self._ids = {}
        self._next_id = 2
        self._sigmap = SigMap(module)

        ports = {}
        for wire in module.wires.values():
            if not (wire.port_input or wire.port_output):
                continue
            ports[wire.name] = {
                "direction": "input" if wire.port_input else "output",
                "bits": self._wire_tokens(wire),
            }

        cells = {}
        for cell in module.cells.values():
            cells[cell.name] = self._cell_dict(cell)
        for instance in module.instances.values():
            entry = {
                "hide_name": 0,
                "type": instance.module_name,
                "parameters": {},
                "attributes": dict(instance.attributes),
                "connections": {
                    pname: self._tokens(spec)
                    for pname, spec in instance.connections.items()
                },
            }
            cells[instance.name] = entry

        netnames = {
            wire.name: {
                "hide_name": 1 if "$" in wire.name else 0,
                "bits": self._wire_tokens(wire),
                "attributes": dict(wire.attributes),
            }
            for wire in module.wires.values()
        }

        attributes: dict = {}
        if top:
            attributes["top"] = 1
        return {
            "attributes": attributes,
            "ports": ports,
            "cells": cells,
            "netnames": netnames,
        }

    def _cell_dict(self, cell: Cell) -> dict:
        spec = celllib.spec_for(cell.type)
        connections = {
            pname: self._tokens(cell.connections[pname])
            for pname, _direction, _expr in spec.ports
        }
        return {
            "hide_name": 1 if "$" in cell.name else 0,
            "type": spec.yosys_type,
            "parameters": self._parameters(cell, spec),
            "attributes": dict(cell.attributes),
            "port_directions": {
                pname: "input" if direction is PortDir.IN else "output"
                for pname, direction, _expr in spec.ports
            },
            "connections": connections,
        }

    @staticmethod
    def _parameters(cell: Cell, spec: celllib.CellSpec) -> dict:
        if not spec.combinational:
            return {"WIDTH": cell.width, "CLK_POLARITY": 1}
        if spec.ctype is CellType.MUX:
            return {"WIDTH": cell.width}
        if spec.ctype is CellType.PMUX:
            return {"WIDTH": cell.width, "S_WIDTH": cell.n}
        params: dict = {"A_SIGNED": 0, "A_WIDTH": len(cell.connections["A"])}
        if "B" in spec.input_ports:
            params["B_SIGNED"] = 0
            params["B_WIDTH"] = len(cell.connections["B"])
        params["Y_WIDTH"] = len(cell.connections["Y"])
        return params

    # -- net ids -------------------------------------------------------------

    def _token(self, bit: SigBit) -> Union[int, str]:
        canon = self._sigmap.map_bit(bit)
        if canon.is_const:
            return _CONST_TOKENS[canon.state]
        net_id = self._ids.get(canon)
        if net_id is None:
            net_id = self._next_id
            self._next_id += 1
            self._ids[canon] = net_id
        return net_id

    def _tokens(self, spec: SigSpec) -> List[Union[int, str]]:
        return [self._token(bit) for bit in spec]

    def _wire_tokens(self, wire) -> List[Union[int, str]]:
        return [self._token(bit) for bit in wire.bits]

    # -- whole designs -------------------------------------------------------

    def design_dict(self, design: Design) -> dict:
        return {
            "creator": "repro json_writer",
            "modules": {
                module.name: self.module_dict(
                    module, top=module.name == design.top_name
                )
                for module in design
            },
        }


def yosys_json_dict(target: Union[Design, Module]) -> dict:
    """Serialize a design (or a single module) to the Yosys JSON dict."""
    writer = YosysJsonWriter()
    if isinstance(target, Design):
        return writer.design_dict(target)
    # bare modules are wrapped without mutating them (no Design listeners)
    return {
        "creator": "repro json_writer",
        "modules": {target.name: writer.module_dict(target, top=True)},
    }


def yosys_json_str(target: Union[Design, Module], indent: int = 2) -> str:
    """Serialize to Yosys JSON text (stable key order, trailing newline)."""
    return json.dumps(yosys_json_dict(target), indent=indent) + "\n"


def write_yosys_json(target: Union[Design, Module], stream: TextIO) -> None:
    """Write Yosys JSON to an open text stream."""
    stream.write(yosys_json_str(target))


__all__ = [
    "YosysJsonWriter",
    "write_yosys_json",
    "yosys_json_dict",
    "yosys_json_str",
]
