"""equalloc: budget-constrained, group-aware training-data allocation.

A library for deciding how to split a data-collection budget across
population groups: core allocation/utility types, analytic learning
curves, exact and concave solvers, a sequential greedy allocator with a
Thompson-style marginal-gain estimator, and simulation environments
(noisy analytic curves and a synthetic genomic risk pipeline).
"""

from .core import (
    Allocation,
    CostModel,
    PerformanceVector,
    UtilitySpec,
    check_feasible,
    realize_allocation,
    utility_eval,
)
from .curves import AnalyticCurve, eval_perf
from .estimator import (
    EstimatorSettings,
    PerformanceHistory,
    draw_truncated_normal,
    estimate_marginal,
    fit_local_slope,
)
from .greedy import (
    GreedyConfig,
    GreedyTrace,
    StepRecord,
    equal_allocation,
    parity_allocation,
    representative_allocation,
    run_greedy,
)
from .solvers import SolveResult, audit_gap, solve_concave, solve_grid

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "AnalyticCurve",
    "CostModel",
    "EstimatorSettings",
    "GreedyConfig",
    "GreedyTrace",
    "PerformanceHistory",
    "PerformanceVector",
    "SolveResult",
    "StepRecord",
    "UtilitySpec",
    "audit_gap",
    "check_feasible",
    "draw_truncated_normal",
    "equal_allocation",
    "estimate_marginal",
    "eval_perf",
    "fit_local_slope",
    "parity_allocation",
    "realize_allocation",
    "representative_allocation",
    "run_greedy",
    "solve_concave",
    "solve_grid",
    "utility_eval",
    "__version__",
]
