"""Acceptance suite: every release criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  Each criterion is a separate test with its tolerance pinned
inline; the suite is deterministic given the seeds written here.
"""

import time

import numpy as np
import pytest

from equalloc import (
    Allocation,
    AnalyticCurve,
    CostModel,
    EstimatorSettings,
    GreedyConfig,
    PerformanceVector,
    UtilitySpec,
    audit_gap,
    draw_truncated_normal,
    eval_perf,
    fit_local_slope,
    run_greedy,
    solve_grid,
    utility_eval,
)
from equalloc.envs import (
    AnalyticEnvironment,
    GenomicWorldConfig,
    generate_world,
    run_allocation_curve,
)
from equalloc.envs.genomic import aggregate_curve, treatment_value
from equalloc.harness import (
    default_convergence_config,
    default_frontier_config,
    default_prs_sim_config,
    default_table1_config,
    run_adaptive_prs,
    run_convergence,
    run_frontier,
    run_table1,
    write_table,
)
from tables import mean_gaps

TABLE1_EXPECTED_M = {
    "Equal": [19.5, 16.7, 19.5, 19.5],
    "Representative": [19.7, 16.7, 19.7, 17.6],
    "Performance Parity": [18.8, 18.8, 18.8, 18.8],
    "Optimal (U_equal)": [25.5, 17.3, 17.3, 25.5],
    "Optimal (U_priority)": [20.0, 17.3, 17.3, 30.0],
}
TABLE1_EXPECTED_U_EQUAL = {
    "Equal": 18.8,
    "Representative": 18.4,
    "Performance Parity": 18.8,
    "Optimal (U_equal)": 21.4,
}
TABLE1_EXPECTED_U_PRIORITY = {
    "Equal": 18.9,
    "Representative": 18.3,
    "Performance Parity": 18.8,
    "Optimal (U_priority)": 22.1,
}


def report(criterion: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} — {detail}")
    assert ok, f"{criterion} failed: {detail}"


def test_c01_table1_reproduction():
    t0 = time.perf_counter()
    table = run_table1(default_table1_config())
    elapsed = time.perf_counter() - t0

    rows = {row[0]: row for row in table.rows}
    m_errs, u_errs = [], []
    for policy, expected in TABLE1_EXPECTED_M.items():
        got = rows[policy][5:9]
        m_errs.append(max(abs(g - e) for g, e in zip(got, expected)))
    for policy, expected in TABLE1_EXPECTED_U_EQUAL.items():
        u_errs.append(abs(rows[policy][9] - expected))
    for policy, expected in TABLE1_EXPECTED_U_PRIORITY.items():
        u_errs.append(abs(rows[policy][10] - expected))
    greedy_gap = max(
        abs(rows["Greedy (U_equal)"][9] - rows["Optimal (U_equal)"][9]),
        abs(rows["Greedy (U_priority)"][10] - rows["Optimal (U_priority)"][10]),
    )
    ok = (
        max(m_errs) <= 0.1
        and max(u_errs) <= 0.1
        and greedy_gap <= 0.1
        and elapsed < 10.0
    )
    report(
        "C1 table1",
        ok,
        f"max M err {max(m_errs):.3f}, max U err {max(u_errs):.3f}, "
        f"greedy-vs-optimal {greedy_gap:.3f}, runtime {elapsed:.1f}s",
    )


def test_c02_separable_greedy_is_exactly_optimal():
    rng = np.random.default_rng(20240817)
    worst = 0.0
    exact = 0
    trials = 200
    for trial in range(trials):
        k = int(rng.integers(1, 5))
        form = "sqrt" if trial % 2 == 0 else "log1p"
        curve = AnalyticCurve(gamma=np.diag(rng.uniform(0.1, 2.0, k)), form=form)
        costs = rng.uniform(0.2, 2.0, k)
        step = float(rng.uniform(0.5, 2.0))
        d = int(rng.integers(1, 13))
        cost = CostModel(costs=costs, budget=step * d)
        util = UtilitySpec(weights=rng.uniform(0.05, 1.0, k))
        best = solve_grid(curve, util, cost, resolution=step)
        alloc, _ = run_greedy(curve, util, cost, GreedyConfig(step_cost=step))
        gap = abs(utility_eval(util, eval_perf(curve, alloc)) - best.utility)
        worst = max(worst, gap)
        exact += gap <= 1e-9
    report(
        "C2 separable-optimality",
        exact == trials,
        f"{exact}/{trials} instances matched the batch oracle "
        f"(worst gap {worst:.2e})",
    )


def test_c03_convergence_study():
    t0 = time.perf_counter()
    table = run_convergence(default_convergence_config())
    elapsed = time.perf_counter() - t0
    gaps = mean_gaps(table)
    monotone = all(
        gaps[(form, 10)][0] >= gaps[(form, 100)][0] >= gaps[(form, 1000)][0]
        for form in ("sqrt", "log1p")
    )
    rel_fine = max(gaps[("sqrt", 1000)][1], gaps[("log1p", 1000)][1])
    ok = monotone and rel_fine < 0.01 and elapsed < 300.0
    sqrt_series = ["%.2e" % gaps[("sqrt", d)][0] for d in (10, 100, 1000)]
    log_series = ["%.2e" % gaps[("log1p", d)][0] for d in (10, 100, 1000)]
    report(
        "C3 convergence",
        ok,
        f"means sqrt {sqrt_series}, log1p {log_series}, "
        f"relative gap at B/1000 {rel_fine:.2e}, runtime {elapsed:.0f}s",
    )


def test_c04_greedy_reaches_grid_optimum_on_table1():
    gamma = default_table1_config()["curve"]["gamma"]
    curve = AnalyticCurve(gamma=gamma, form="sqrt")
    cost = CostModel(costs=[1, 1, 2, 1], budget=1000.0)
    gaps = {}
    for name, weights in (("equal", [1, 1, 1, 1]), ("priority", [1, 1, 1, 1.5])):
        util = UtilitySpec(weights=weights, normalize=True)
        grid = solve_grid(curve, util, cost, resolution=5.0)
        alloc, _ = run_greedy(curve, util, cost, GreedyConfig(step_cost=1.0))
        gaps[name] = abs(utility_eval(util, eval_perf(curve, alloc)) - grid.utility)
    ok = max(gaps.values()) <= 0.05
    report(
        "C4 greedy-vs-grid",
        ok,
        f"utility gaps equal {gaps['equal']:.2e}, priority {gaps['priority']:.2e}",
    )


def test_c05_parity_penalty_counterexample():
    spec = UtilitySpec(weights=[1, 1, 1], parity_penalty=10.0)
    u_flat = utility_eval(spec, PerformanceVector([1, 1, 1]))
    u_dominating = utility_eval(spec, PerformanceVector([2, 3, 4]))
    ok = u_flat == 3.0 and u_dominating == -11.0 and u_flat > u_dominating
    report(
        "C5 parity-counterexample",
        ok,
        f"U(1,1,1)={u_flat}, U(2,3,4)={u_dominating}",
    )


def test_c06_estimator_statistics():
    trials = 1000
    hits = 0
    n = 100.0 + 100.0 * np.arange(8)
    for seed in range(trials):
        rng = np.random.default_rng(50_000 + seed)
        y = 0.01 * n + rng.normal(0, 0.05, n.size)
        slope, se = fit_local_slope(np.column_stack([n, y]), window=8)
        hits += abs(slope - 0.01) <= 3 * se
    coverage = hits / trials

    rng = np.random.default_rng(777)
    draws = np.array(
        [draw_truncated_normal(0.0, 1.0, rng) for _ in range(100_000)]
    )
    half_normal_err = abs(draws.mean() - np.sqrt(2 / np.pi))

    ok = coverage >= 0.95 and half_normal_err <= 0.01
    report(
        "C6 estimator-stats",
        ok,
        f"slope coverage {coverage:.3f}, half-normal mean error {half_normal_err:.4f}",
    )


def test_c07_adaptive_tracks_true_curve_greedy():
    gamma = default_table1_config()["curve"]["gamma"]
    curve = AnalyticCurve(gamma=gamma, form="sqrt")
    cost = CostModel(costs=[1, 1, 2, 1], budget=1000.0)
    util = UtilitySpec(weights=[1, 1, 1, 1], normalize=True)

    true_alloc, _ = run_greedy(curve, util, cost, GreedyConfig(step_cost=1.0))
    u_true = utility_eval(util, eval_perf(curve, true_alloc))

    ratios = []
    for seed in range(20):
        env = AnalyticEnvironment(curve, noise_sd=1e-3, rng_seed=100 + seed)
        cfg = GreedyConfig(
            step_cost=1.0, marginal_source="estimator", seed=seed,
            estimator=EstimatorSettings(window=5),
        )
        alloc, _ = run_greedy(env, util, cost, cfg)
        ratios.append(utility_eval(util, eval_perf(curve, alloc)) / u_true)
    ratios = np.array(ratios)
    ok = ratios.min() >= 0.98 and ratios.mean() >= 0.98
    report(
        "C7 adaptive-analytic",
        ok,
        f"final utility ratio mean {ratios.mean():.4f}, min {ratios.min():.4f} "
        f"over 20 seeds (bound 0.98)",
    )


def test_c08_genomic_environment_properties():
    t0 = time.perf_counter()
    world = generate_world(GenomicWorldConfig(rng_seed=5))

    prevalence_ok = all(int(d.sum()) == 1000 for d in world.disease)

    holdout_size = world.config.holdout.stop - world.config.holdout.start
    everyone = np.full(holdout_size, world.config.prevalence + 1e-9)
    v_everyone = treatment_value(world, 1, everyone)
    # the holdout's first columns are the cases the training pool left out
    oracle = np.zeros(holdout_size)
    oracle[: int(world.disease[1].sum()) - world.config.train_pairs] = 1.0
    v_oracle = treatment_value(world, 1, oracle)

    rows = run_allocation_curve(world, [100, 200, 300, 400, 500], seeds=range(20))
    agg = aggregate_curve(rows)
    curve_ok = True
    for g in (0, 1):
        means = [m for gg, _, m, _ in agg if gg == g]
        inversions = sum(1 for i in range(len(means) - 1) if means[i + 1] < means[i])
        curve_ok &= inversions <= 1

    frontier = run_frontier(default_frontier_config())
    split_means = {}
    for row in frontier.rows:
        if row[0] == "frontier":
            split_means.setdefault((row[3], row[4]), []).append((row[5], row[6]))
    splits = sorted(split_means)
    m0 = [float(np.mean([v[0] for v in split_means[s]])) for s in splits]
    m1 = [float(np.mean([v[1] for v in split_means[s]])) for s in splits]
    inv0 = sum(1 for i in range(len(m0) - 1) if m0[i + 1] < m0[i])
    inv1 = sum(1 for i in range(len(m1) - 1) if m1[i + 1] > m1[i])
    allowed = max(1, len(splits) // 10)
    frontier_ok = inv0 <= allowed and inv1 <= allowed
    elapsed = time.perf_counter() - t0

    ok = (
        prevalence_ok
        and abs(v_everyone) <= 0.05
        and v_oracle == 4.75
        and curve_ok
        and frontier_ok
        and elapsed < 1800.0
    )
    report(
        "C8 genomic-properties",
        ok,
        f"prevalence exact {prevalence_ok}, treat-everyone {v_everyone:.3f}, "
        f"oracle {v_oracle}, curves monotone {curve_ok}, frontier monotone "
        f"{frontier_ok}, runtime {elapsed:.0f}s",
    )


def test_c09_audit_gap():
    gamma = default_table1_config()["curve"]["gamma"]
    curve = AnalyticCurve(gamma=gamma, form="sqrt")
    cost = CostModel(costs=[1, 1, 2, 1], budget=1000.0)
    util = UtilitySpec(weights=[1, 1, 1, 1], normalize=True)

    _, _, gap_equal_alloc = audit_gap(
        curve, util, cost, Allocation([200, 200, 200, 200]), resolution=5.0
    )
    best = solve_grid(curve, util, cost, resolution=5.0)
    _, _, gap_self = audit_gap(curve, util, cost, best.alloc, resolution=5.0)
    ok = abs(gap_equal_alloc - 2.6) <= 0.1 and abs(gap_self) <= 1e-9
    report(
        "C9 audit-gap",
        ok,
        f"gap(equal)={gap_equal_alloc:.3f} (want 2.6±0.1), "
        f"gap(self)={gap_self:.2e}",
    )


def test_c10_byte_identical_reruns(tmp_path):
    convergence_cfg = default_convergence_config()
    convergence_cfg["num_instances"] = 6
    frontier_cfg = {
        "kind": "frontier",
        "world": {"variants": 300, "causal_count": 30, "population": 4000,
                  "rng_seed": 1},
        "budget_pairs": 80, "min_per_group": 20, "grid_step": 20,
        "policy_step": 10, "weight_ratio_points": 3,
        "extra_weights": [[1.0, 1.0]], "frontier_seeds": 2, "policy_seeds": 2,
    }
    prs_cfg = default_prs_sim_config()
    prs_cfg["world"] = dict(frontier_cfg["world"])
    prs_cfg["budget_pairs"] = 80
    prs_cfg["start_pairs"] = [20, 20]
    prs_cfg["step_cost"] = 10.0
    prs_cfg["seeds"] = [0]
    prs_cfg["weight_settings"] = [[1.0, 1.0]]

    jobs = [
        ("table1", run_table1, default_table1_config()),
        ("convergence", run_convergence, convergence_cfg),
        ("frontier", run_frontier, frontier_cfg),
        ("adaptive_prs", run_adaptive_prs, prs_cfg),
    ]
    mismatches = []
    for name, runner, config in jobs:
        blobs = []
        for tag in ("first", "second"):
            table = runner(config)
            path = write_table(table, tmp_path / tag)
            blobs.append(path.read_bytes())
        if blobs[0] != blobs[1]:
            mismatches.append(name)
    report(
        "C10 determinism",
        not mismatches,
        "byte-identical CSVs for table1, convergence, frontier, adaptive_prs"
        if not mismatches
        else f"mismatched outputs: {mismatches}",
    )
