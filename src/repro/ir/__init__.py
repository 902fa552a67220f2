"""Word-level RTL netlist intermediate representation.

The public surface mirrors a small subset of Yosys RTLIL:

* :class:`~repro.ir.signals.Wire`, :class:`~repro.ir.signals.SigBit`,
  :class:`~repro.ir.signals.SigSpec`, :class:`~repro.ir.signals.State`
* :class:`~repro.ir.module.Module`, :class:`~repro.ir.module.Cell`,
  :class:`~repro.ir.module.SigMap`
* :class:`~repro.ir.cells.CellType` and the port-spec helpers
* :class:`~repro.ir.builder.Circuit` — fluent construction
* :class:`~repro.ir.walker.NetIndex` — drivers/readers/cones/topological order
* :func:`~repro.ir.validate.validate_module`
* :func:`~repro.ir.struct_hash.module_signature` — canonical name-free
  module signatures (plus the :func:`~repro.ir.struct_hash.renamed_copy`
  verification helper)
"""

from .builder import Circuit
from .celllib import (
    CellSpec,
    all_specs,
    spec_for,
    spec_for_yosys,
)
from .cells import (
    BITWISE_BINARY_TYPES,
    COMBINATIONAL_TYPES,
    COMPARE_TYPES,
    CellType,
    MUX_TYPES,
    SINGLE_BIT_OUTPUT_TYPES,
    UNARY_TYPES,
    expected_width,
    input_ports,
    output_ports,
    port_spec,
)
from .design import Design
from .module import Cell, Module, SigMap
from .signals import (
    BIT0,
    BIT1,
    BITX,
    SigBit,
    SigSpec,
    State,
    Wire,
    concat,
    const_bit,
)
from .struct_hash import module_signature, renamed_copy
from .json_writer import (
    YosysJsonWriter,
    write_yosys_json,
    yosys_json_dict,
    yosys_json_str,
)
from .validate import ValidationError, check_module, validate_module
from .verilog_writer import VerilogWriter, verilog_str, write_verilog
from .walker import CombLoopError, DriverConflictError, NetIndex

__all__ = [
    "BIT0",
    "BIT1",
    "BITX",
    "BITWISE_BINARY_TYPES",
    "COMBINATIONAL_TYPES",
    "COMPARE_TYPES",
    "Cell",
    "CellSpec",
    "CellType",
    "Circuit",
    "CombLoopError",
    "Design",
    "DriverConflictError",
    "MUX_TYPES",
    "Module",
    "NetIndex",
    "SINGLE_BIT_OUTPUT_TYPES",
    "SigBit",
    "SigMap",
    "SigSpec",
    "State",
    "UNARY_TYPES",
    "ValidationError",
    "Wire",
    "all_specs",
    "check_module",
    "concat",
    "const_bit",
    "expected_width",
    "input_ports",
    "module_signature",
    "output_ports",
    "port_spec",
    "renamed_copy",
    "spec_for",
    "spec_for_yosys",
    "validate_module",
    "VerilogWriter",
    "YosysJsonWriter",
    "verilog_str",
    "write_verilog",
    "write_yosys_json",
    "yosys_json_dict",
    "yosys_json_str",
]
