"""
Sequential greedy data collection
=================================

Instead of solving for the whole allocation up front, spend the budget a
step at a time, always buying from the group whose next batch raises
utility the most.  On separable concave curves this is provably optimal
among whole-batch allocations; on curves with cross-group transfer it
still matches the exact optimum to within a step.
"""

import numpy as np

from equalloc import (
    AnalyticCurve,
    CostModel,
    GreedyConfig,
    UtilitySpec,
    equal_allocation,
    eval_perf,
    parity_allocation,
    representative_allocation,
    run_greedy,
    solve_grid,
    utility_eval,
)

gamma = [
    [1.0, 0.3, 0.3, 0.3],
    [0.3, 0.5, 0.3, 0.3],
    [0.3, 0.3, 1.0, 0.3],
    [0.3, 0.3, 0.3, 1.0],
]
curve = AnalyticCurve(gamma=gamma, form="sqrt")
cost = CostModel(costs=[1.0, 1.0, 2.0, 1.0], budget=1000.0)
u_mean = UtilitySpec(weights=[1, 1, 1, 1], normalize=True)

alloc, trace = run_greedy(curve, u_mean, cost, GreedyConfig(step_cost=1.0))
final_u = utility_eval(u_mean, eval_perf(curve, alloc))
print("greedy final allocation:", alloc.counts, "->", round(final_u, 4))
print("steps taken:", len(trace), "unspent budget:", trace.residual_budget)

best = solve_grid(curve, u_mean, cost, resolution=5.0)
print("exact optimum for comparison:", round(best.utility, 4))

# The first few steps show the per-group marginals the loop is ranking.
for record in trace.records[:3]:
    print(f"  step {record.step}: bought group {record.group}, "
          f"marginals {np.round(record.marginal_true, 4)}")

# On a separable instance, the grid at a resolution of one step holds every
# whole-batch allocation, and its best confirms greedy is exactly optimal.
sep_curve = AnalyticCurve(gamma=np.diag([1.0, 0.6]), form="sqrt")
sep_cost = CostModel(costs=[1.0, 1.0], budget=8.0)
sep_util = UtilitySpec(weights=[1.0, 1.0])
batches = solve_grid(sep_curve, sep_util, sep_cost, resolution=1.0)
sep_alloc, _ = run_greedy(sep_curve, sep_util, sep_cost, GreedyConfig(step_cost=1.0))
print("separable case: greedy", sep_alloc.counts, "whole-batch grid", batches.alloc.counts)

# Common heuristics on the same instance, for contrast.
for kind, policy_alloc in [
    ("equal", equal_allocation(cost)),
    ("representative", representative_allocation(cost, [2, 2, 2, 1])),
    ("parity", parity_allocation(curve, cost, step_cost=1.0)),
]:
    u = utility_eval(u_mean, eval_perf(curve, policy_alloc))
    print(f"{kind:15s} -> counts {np.round(policy_alloc.counts, 1)}, utility {u:.3f}")
