"""And-Inverter Graph backend: mapping, statistics, AIGER I/O, SAT sweeping."""

from .aig import AIG, FALSE_LIT, TRUE_LIT
from .aigmap import AigMapper, aig_map
from .aiger import AigerError, aiger_str, read_aiger, write_aiger
from .fraig import ConeEncoder, SweepOutcome, sweep_miter
from .stats import AigStats, aig_stats
from .to_netlist import aig_to_module

__all__ = [
    "AIG",
    "AigMapper",
    "AigStats",
    "AigerError",
    "ConeEncoder",
    "FALSE_LIT",
    "SweepOutcome",
    "TRUE_LIT",
    "aig_map",
    "aig_stats",
    "aig_to_module",
    "aiger_str",
    "read_aiger",
    "sweep_miter",
    "write_aiger",
]
