"""
Learning curves and exact solvers
=================================

Group performances follow analytic learning curves: a concave transform
of a weighted sample count, where the weights let one group's data help
another.  With the curve in hand, the budget allocation problem becomes
a small optimization, solved here two independent ways, and the same
machinery audits any observed allocation.
"""

import numpy as np

from equalloc import (
    Allocation,
    AnalyticCurve,
    CostModel,
    UtilitySpec,
    audit_gap,
    eval_perf,
    solve_concave,
    solve_grid,
)

# Cross-group transfer: a sample from any group is worth 30% of a native
# sample to the others; group 1's own data is also discounted (0.5).
gamma = [
    [1.0, 0.3, 0.3, 0.3],
    [0.3, 0.5, 0.3, 0.3],
    [0.3, 0.3, 1.0, 0.3],
    [0.3, 0.3, 0.3, 1.0],
]
curve = AnalyticCurve(gamma=gamma, form="sqrt")
cost = CostModel(costs=[1.0, 1.0, 2.0, 1.0], budget=1000.0)
u_mean = UtilitySpec(weights=[1, 1, 1, 1], normalize=True)

print("performance at equal sampling:",
      np.round(eval_perf(curve, Allocation([200] * 4)).values, 2))

# Exact scan of a spend grid, cell by cell, skipping cells a bound rules
# out: the trusted oracle at small K.
best_grid = solve_grid(curve, u_mean, cost, resolution=5.0)
print("grid optimum:", best_grid.alloc.counts, "->", round(best_grid.utility, 3))

# Conditional-gradient ascent agrees and scales to more groups.
best_fw = solve_concave(curve, u_mean, cost, tol=1e-8)
print("ascent optimum:", np.round(best_fw.alloc.counts, 2),
      "->", round(best_fw.utility, 6), f"({best_fw.iterations} iterations)")

# Tilting the weights toward group 3 moves budget its way.
u_tilted = UtilitySpec(weights=[1, 1, 1, 1.5], normalize=True)
tilted = solve_grid(curve, u_tilted, cost, resolution=1.0)
print("tilted optimum:", tilted.alloc.counts, "->", round(tilted.utility, 3))

# Auditing: how much utility does an observed dataset leave on the
# table, under the auditor's own preferences?
for label, observed in [
    ("equal sampling", Allocation([200, 200, 200, 200])),
    ("the optimal split", best_grid.alloc),
]:
    _, _, gap = audit_gap(curve, u_mean, cost, observed, resolution=5.0)
    print(f"audit gap for {label}: {gap:.3f}")
