"""submemo: submodular optimization through memoized per-class statistics.

Every function class carries an incrementally maintained statistic of its
current set; every algorithm consumes marginal gains through that statistic,
and instrumented counters separate statistic-based work from value-oracle
work so the two cost models can be compared head to head.
"""

from .core import (
    ABS_TOL,
    REL_TOL,
    EvalCounters,
    InputError,
    ModularFunction,
    NonConvergenceError,
    PreconditionError,
    SubmodularFunction,
    Subset,
    ValueOracleFunction,
    as_subset,
    close,
    wrap_value_oracle,
)
from .functions import make_function, verify_statistic

__version__ = "0.1.0"

__all__ = [
    "ABS_TOL",
    "REL_TOL",
    "EvalCounters",
    "InputError",
    "ModularFunction",
    "NonConvergenceError",
    "PreconditionError",
    "SubmodularFunction",
    "Subset",
    "ValueOracleFunction",
    "as_subset",
    "close",
    "wrap_value_oracle",
    "make_function",
    "verify_statistic",
    "__version__",
]
