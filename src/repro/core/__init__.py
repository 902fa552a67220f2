"""The paper's contribution: smaRTLy's two muxtree optimizations.

* :class:`~repro.core.redundancy.SatRedundancy` — SAT-based redundancy
  elimination over reduced sub-graphs (paper §II),
* :class:`~repro.core.restructure.MuxtreeRestructure` — ADD-based muxtree
  restructuring (paper §III, Algorithm 1),
* :class:`~repro.core.smartly.Smartly` — both as one registered pass, the
  muxtree stage of the ``smartly*`` presets that
  :class:`~repro.flow.session.Session` runs.
"""

from .add import ADD, ADDNode, case_table
from .cache import ResultCache
from .store import CacheStore, StoreError, atomic_write_bytes, atomic_write_text
from .inference import Contradiction, InferenceEngine, InferenceResult, infer
from .redundancy import SatRedundancy
from .restructure import CaseTree, MuxtreeRestructure, eq_aig_cost, mux_aig_cost
from .smartly import Smartly, SmartlyOptions
from .subgraph import SubGraph, extract_subgraph

__all__ = [
    "ADD",
    "ADDNode",
    "CacheStore",
    "CaseTree",
    "Contradiction",
    "InferenceEngine",
    "InferenceResult",
    "MuxtreeRestructure",
    "ResultCache",
    "SatRedundancy",
    "Smartly",
    "SmartlyOptions",
    "StoreError",
    "SubGraph",
    "atomic_write_bytes",
    "atomic_write_text",
    "case_table",
    "eq_aig_cost",
    "extract_subgraph",
    "infer",
    "mux_aig_cost",
]
