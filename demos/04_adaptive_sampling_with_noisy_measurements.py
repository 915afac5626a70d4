"""
Adaptive sampling without knowing the curves
============================================

In practice nobody hands you the learning curves.  The adaptive loop
estimates each group's marginal gain from its own measurement history: a
local linear regression over the last few (samples, performance) points,
then a draw from a normal truncated at zero, Thompson style, so
uncertain groups still get explored but "more data can't hurt" is baked
in.
"""

import numpy as np

from equalloc import (
    AnalyticCurve,
    CostModel,
    EstimatorSettings,
    GreedyConfig,
    PerformanceHistory,
    UtilitySpec,
    estimate_marginal,
    eval_perf,
    run_greedy,
    utility_eval,
)
from equalloc.envs import AnalyticEnvironment

# The estimator on its own: feed it a noisy history and read a priority.
history = PerformanceHistory(num_groups=1)
rng = np.random.default_rng(0)
for n in (100, 200, 300, 400, 500):
    history.append(0, n, 0.01 * n + rng.normal(0, 0.02))
cost1 = CostModel(costs=[1.0], budget=10_000)
priority = estimate_marginal(history, 0, step_cost=100.0, cost=cost1, rng=rng)
slope, se = history.fit(0)
print(f"slope {slope:.5f} +- {se:.5f}, priority {priority:.3f}")

# Now the full loop, against a noisy environment whose true curve we
# happen to know, so we can score the final allocation honestly.
gamma = [
    [1.0, 0.3, 0.3, 0.3],
    [0.3, 0.5, 0.3, 0.3],
    [0.3, 0.3, 1.0, 0.3],
    [0.3, 0.3, 0.3, 1.0],
]
curve = AnalyticCurve(gamma=gamma, form="sqrt")
cost = CostModel(costs=[1.0, 1.0, 2.0, 1.0], budget=1000.0)
u_mean = UtilitySpec(weights=[1, 1, 1, 1], normalize=True)

true_alloc, _ = run_greedy(curve, u_mean, cost, GreedyConfig(step_cost=1.0))
u_true = utility_eval(u_mean, eval_perf(curve, true_alloc))
print("\ntrue-curve greedy reaches:", round(u_true, 4))

for seed in range(3):
    env = AnalyticEnvironment(curve, noise_sd=1e-3, rng_seed=100 + seed)
    config = GreedyConfig(
        step_cost=1.0,
        marginal_source="estimator",
        seed=seed,
        estimator=EstimatorSettings(window=5),
    )
    alloc, trace = run_greedy(env, u_mean, cost, config)
    u_final = utility_eval(u_mean, eval_perf(curve, alloc))
    print(f"adaptive seed {seed}: counts {np.round(alloc.counts)} "
          f"-> {u_final:.4f} ({u_final / u_true:.1%} of the known-curve run)")
