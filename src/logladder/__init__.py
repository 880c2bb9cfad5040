"""Convergence analysis for positive series.

The decision ladder compares a sequence against a scale function w
through scaled-log statistics, escalating through iterated-log levels
when a statistic lands exactly on the boundary, and returns verdicts
with quantitative partial-sum or tail rate predictions. A brute-force
summation oracle cross-checks those predictions against direct sums.
"""

from .criteria import (
    DECIDE_MARGIN,
    AnalysisPolicy,
    AnalysisReport,
    CallableTerm,
    ExprTerm,
    RatePrediction,
    TermSource,
    Verdict,
    analyze,
    hierarchy_test,
    one_sided_test,
    raabe_test,
    scaled_log_test,
    slow_divergence_test,
)
from .errors import (
    AssumptionViolation,
    BudgetExceededError,
    CancellationError,
    DivisionByZero,
    DomainError,
    LogLadderError,
    ParseError,
    PositivityViolation,
    RangeError,
    UnboundParameterError,
)
from .limits import (
    LimitEstimate,
    estimate_limit,
    estimate_limsup_liminf,
    make_grid,
)
from .scale import Custom, IterLog, PowerOfN, ScaleFn, parse_scale
from .sums import (
    DEFAULT_BUDGET,
    RateCheck,
    SumResult,
    checkpoint_sums,
    partial_sum,
    slope_check,
    tail_sum,
    write_checkpoints_csv,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "DECIDE_MARGIN",
    "DEFAULT_BUDGET",
    "AnalysisPolicy",
    "AnalysisReport",
    "AssumptionViolation",
    "BudgetExceededError",
    "CallableTerm",
    "CancellationError",
    "Custom",
    "DivisionByZero",
    "DomainError",
    "ExprTerm",
    "IterLog",
    "LimitEstimate",
    "LogLadderError",
    "ParseError",
    "PositivityViolation",
    "PowerOfN",
    "RangeError",
    "RateCheck",
    "RatePrediction",
    "ScaleFn",
    "SumResult",
    "TermSource",
    "UnboundParameterError",
    "Verdict",
    "analyze",
    "checkpoint_sums",
    "estimate_limit",
    "estimate_limsup_liminf",
    "hierarchy_test",
    "make_grid",
    "one_sided_test",
    "parse_scale",
    "partial_sum",
    "raabe_test",
    "scaled_log_test",
    "slope_check",
    "slow_divergence_test",
    "tail_sum",
    "write_checkpoints_csv",
]
