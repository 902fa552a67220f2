"""SAT-based combinational equivalence checking (miter + CEC) and the
differential-testing harness built on it."""

from .cec import EquivResult, assert_equivalent, check_equivalence
from .differential import (
    CI_CORPUS,
    DifferentialReport,
    DifferentialResult,
    random_module,
    run_differential,
)
from .miter import PortMismatchError, build_miter

__all__ = [
    "CI_CORPUS",
    "DifferentialReport",
    "DifferentialResult",
    "EquivResult",
    "PortMismatchError",
    "assert_equivalent",
    "build_miter",
    "check_equivalence",
    "random_module",
    "run_differential",
]
