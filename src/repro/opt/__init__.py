"""Pass framework and baseline optimization passes.

The ``yosys`` flow preset (:mod:`repro.flow.spec`) runs the pipeline the
paper compares against: ``opt_expr`` + ``opt_merge`` + ``opt_muxtree`` +
``opt_clean`` to a fixpoint.
"""

from .opt_clean import OptClean
from .opt_expr import OptExpr
from .opt_merge import OptMerge
from .opt_muxtree import OptMuxtree
from .pass_base import (
    Pass,
    PassManager,
    PassResult,
    known_passes,
    make_pass,
    register_pass,
)

__all__ = [
    "OptClean",
    "OptExpr",
    "OptMerge",
    "OptMuxtree",
    "Pass",
    "PassManager",
    "PassResult",
    "known_passes",
    "make_pass",
    "register_pass",
]
