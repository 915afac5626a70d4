"""Experiment runners: policy comparison tables, the greedy-vs-solver
convergence study, the genomic frontier sweep, adaptive runs, and audits.

Each runner takes a config document (see :mod:`.config` for defaults),
computes deterministically from the seeds it contains, and returns
:class:`~equalloc.harness.io.Table` objects ready for CSV persistence.
"""

from __future__ import annotations

import functools
import time

import numpy as np

from ..core import Allocation, CostModel, PerformanceVector, UtilitySpec, utility_eval
from ..curves import AnalyticCurve, eval_perf
from ..envs.genomic import GenomicSamplingSession, generate_world, run_allocation_curve
from ..errors import ConfigError
from ..greedy import GreedyConfig, baseline_policy, run_greedy
from ..solvers import _audit, solve_concave, solve_grid
from .config import (
    check_kind,
    config_digest,
    parse_allocation,
    parse_cost,
    parse_curve,
    parse_estimator,
    parse_utility,
    parse_world,
    seed_lists,
)
from .io import RunRecord, Table

__all__ = [
    "run_table1",
    "run_convergence",
    "run_frontier",
    "run_adaptive_prs",
    "run_audit",
]


def _table1_instance(config):
    curve = parse_curve(config["curve"])
    cost = parse_cost(config)
    utilities = {
        name: parse_utility(block)
        for name, block in config.get("utilities", {}).items()
    }
    if "equal" not in utilities or "priority" not in utilities:
        raise ConfigError("table1 config needs 'equal' and 'priority' utilities")
    return curve, cost, utilities


def run_table1(config: dict) -> Table:
    """Compare static, parity, optimal, and greedy policies on one instance.

    Emits one row per policy with the resulting allocation, per-group
    performances, and both utility columns.
    """
    check_kind(config, "table1")
    curve, cost, utilities = _table1_instance(config)
    u_equal, u_priority = utilities["equal"], utilities["priority"]
    k = curve.num_groups
    step = float(config.get("step_cost", 1.0))
    resolution = float(config.get("grid_resolution", 5.0))
    shares = config.get("pop_shares")
    if shares is None:
        raise ConfigError("table1 config needs pop_shares")

    policies: list[tuple[str, Allocation]] = [
        ("Equal", baseline_policy("equal", curve, cost)),
        (
            "Representative",
            baseline_policy("representative", curve, cost, pop_shares=shares),
        ),
        (
            "Performance Parity",
            baseline_policy("parity", curve, cost, step_cost=step),
        ),
        ("Optimal (U_equal)", solve_grid(curve, u_equal, cost, resolution).alloc),
        ("Optimal (U_priority)", solve_grid(curve, u_priority, cost, resolution).alloc),
    ]
    for name, util in (("Greedy (U_equal)", u_equal), ("Greedy (U_priority)", u_priority)):
        alloc, _ = run_greedy(curve, util, cost, GreedyConfig(step_cost=step))
        policies.append((name, alloc))

    header = (
        ["policy"]
        + [f"count_{i}" for i in range(k)]
        + [f"M_{i}" for i in range(k)]
        + ["U_equal", "U_priority"]
    )
    rows = []
    for name, alloc in policies:
        perf = eval_perf(curve, alloc)
        rows.append(
            [name]
            + [float(x) for x in alloc.counts]
            + [float(x) for x in perf.values]
            + [utility_eval(u_equal, perf), utility_eval(u_priority, perf)]
        )
    return Table("table1", header, rows, digest=config_digest(config))


def _random_instance(rng, k_range, form, budget):
    k = int(rng.integers(k_range[0], k_range[1] + 1))
    costs = rng.uniform(0.0, 1.0, k)
    costs = np.maximum(costs, 1e-9)  # zero cost would make a sample free
    weights = rng.uniform(0.0, 1.0, k)
    if not np.any(weights > 0):
        weights[0] = 0.5
    gamma = rng.uniform(0.0, 1.0, (k, k))
    gamma[gamma.max(axis=1) == 0, 0] = 0.5
    curve = AnalyticCurve(gamma=gamma, form=form)
    return curve, CostModel(costs, budget), UtilitySpec(weights)


def run_convergence(config: dict) -> Table:
    """Greedy-versus-solver gap on random instances, across step sizes.

    For each random instance and each step size B/divisor, records the
    absolute and relative utility gap between the concave solver's
    optimum and the greedy run.  One row per (instance, step).
    """
    check_kind(config, "convergence")
    n_instances = int(config.get("num_instances", 100))
    k_range = config.get("group_range", [2, 10])
    forms = config.get("forms", ["sqrt", "log1p"])
    budget = float(config.get("budget", 10.0))
    divisors = [int(d) for d in config.get("step_divisors", [10, 100, 1000])]
    tol = float(config.get("solver_tol", 1e-8))
    master_seeds = seed_lists(config, "convergence")["seeds"]

    header = [
        "form", "instance", "seed", "num_groups", "step_divisor",
        "utility_opt", "utility_greedy", "gap", "relative_gap",
    ]
    form_streams = {"sqrt": 1, "log1p": 2, "power": 3}
    rows = []
    for master in master_seeds:
        for form in forms:
            rng = np.random.default_rng([master, form_streams[form]])
            for inst in range(n_instances):
                curve, cost, util = _random_instance(rng, k_range, form, budget)
                opt = solve_concave(curve, util, cost, tol=tol)
                for div in divisors:
                    cfg = GreedyConfig(step_cost=budget / div)
                    alloc, _ = run_greedy(curve, util, cost, cfg)
                    u_greedy = utility_eval(util, eval_perf(curve, alloc))
                    gap = abs(opt.utility - u_greedy)
                    rel = gap / abs(opt.utility) if opt.utility != 0 else gap
                    rows.append(
                        [form, inst, master, curve.num_groups, div,
                         opt.utility, u_greedy, gap, rel]
                    )
    return Table("convergence", header, rows, digest=config_digest(config))


def mean_gaps(table: Table) -> dict:
    """Mean absolute and relative gap per (form, step_divisor)."""
    keys = {}
    for row in table.rows:
        form, div = row[0], row[4]
        keys.setdefault((form, div), []).append((row[7], row[8]))
    return {
        key: (float(np.mean([g for g, _ in vals])), float(np.mean([r for _, r in vals])))
        for key, vals in sorted(keys.items())
    }


def _frontier_grid(budget, min_per_group, step):
    points = []
    n0 = min_per_group
    while budget - n0 >= min_per_group:
        points.append((int(n0), int(budget - n0)))
        n0 += step
    if not points:
        raise ConfigError(
            "frontier grid is empty: budget too small for min_per_group"
        )
    return points


def _weight_settings(config):
    lo, hi = config.get("weight_ratio_bounds", [1e-3, 1e3])
    n_points = int(config.get("weight_ratio_points", 13))
    ratios = np.logspace(np.log10(lo), np.log10(hi), n_points)
    settings = [(f"ratio_{r:.6g}", (float(r), 1.0)) for r in ratios]
    if config.get("include_share_weights", True):
        shares = config.get("pop_shares", [0.825, 0.175])
        settings.append(("shares", (float(shares[0]), float(shares[1]))))
    for extra in config.get("extra_weights", []):
        settings.append((f"weights_{extra[0]:g}_{extra[1]:g}",
                         (float(extra[0]), float(extra[1]))))
    return settings


def _session_per_seed(world):
    """Seed -> the one sampling session on ``world`` with that seed.

    Sessions built with equal seeds shuffle identical pools and so train
    identical risk models; sharing one session trains each model once.
    """
    return functools.cache(lambda seed: GenomicSamplingSession(world, rng_seed=seed))


def run_frontier(config: dict) -> Table:
    """Trade-off frontier between the two genomic groups, with markers.

    Sweeps the full-budget splits on a grid (averaged over seeds), then
    adds marker rows: equal and representative static allocations, the
    measured-parity policy, and adaptive greedy endpoints for a range of
    utility weight settings.
    """
    check_kind(config, "frontier")
    world = generate_world(parse_world(config["world"]))
    budget = int(config.get("budget_pairs", 600))
    min_pg = int(config.get("min_per_group", 100))
    step = int(config.get("grid_step", 100))
    policy_step = float(config.get("policy_step", 50))
    est = parse_estimator(config.get("estimator"))
    seeds = seed_lists(config, "frontier")

    grid = _frontier_grid(budget, min_pg, step)
    for n0, n1 in grid:
        for g, n in ((0, n0), (1, n1)):
            if n > world.splits[g].max_pairs:
                raise ConfigError(
                    f"frontier grid point {n} exceeds group {g}'s "
                    f"{world.splits[g].max_pairs} available training pairs"
                )

    header = ["kind", "label", "seed", "n_0", "n_1", "M_0", "M_1"]
    rows = []

    session_of = _session_per_seed(world)
    for seed in seeds["frontier_seeds"]:
        session = session_of(seed)
        for n0, n1 in grid:
            m0 = session.value_at(0, n0)
            m1 = session.value_at(1, n1)
            rows.append(["frontier", f"split_{n0}_{n1}", seed, n0, n1, m0, m1])

    equal_alloc = config.get("equal_alloc", [budget // 2, budget - budget // 2])
    shares = config.get("pop_shares", [0.825, 0.175])
    cost = CostModel([1.0, 1.0], float(budget))
    rep = baseline_policy("representative", None, cost, step_cost=float(step),
                          pop_shares=shares)
    rep_alloc = config.get("representative_alloc",
                           [int(x) for x in rep.counts])
    for seed in seeds["policy_seeds"]:
        session = session_of(seed)
        for label, (n0, n1) in (("equal", equal_alloc), ("representative", rep_alloc)):
            rows.append(
                ["marker", label, seed, int(n0), int(n1),
                 session.value_at(0, int(n0)), session.value_at(1, int(n1))]
            )
        start = Allocation([float(min_pg), float(min_pg)])
        parity = baseline_policy("parity", session, cost, step_cost=policy_step,
                                 start_alloc=start)
        p0, p1 = (int(x) for x in parity.counts)
        rows.append(["marker", "parity", seed, p0, p1,
                     session.value_at(0, p0), session.value_at(1, p1)])

    start = Allocation([float(min_pg), float(min_pg)])
    for label, weights in _weight_settings(config):
        util = UtilitySpec(weights=list(weights))
        for seed in seeds["policy_seeds"]:
            session = session_of(seed)
            cfg = GreedyConfig(
                step_cost=policy_step, start_alloc=start,
                marginal_source="estimator", seed=seed, estimator=est,
            )
            alloc, _ = run_greedy(session, util, cost, cfg)
            n0, n1 = (int(x) for x in alloc.counts)
            rows.append(["greedy", label, seed, n0, n1,
                         session.value_at(0, n0), session.value_at(1, n1)])

    return Table("frontier", header, rows, digest=config_digest(config))


def run_adaptive_prs(config: dict):
    """Adaptive greedy runs on the genomic environment, one row per run.

    When the config carries a ``learning_curve_grid``, a second table of
    empirical learning-curve observations (group, n, seed, value) is
    returned alongside the run table.
    """
    check_kind(config, "adaptive_prs")
    world = generate_world(parse_world(config["world"]))
    budget = float(config.get("budget_pairs", 600))
    start_pairs = config.get("start_pairs", [100, 100])
    step = float(config.get("step_cost", 50.0))
    est = parse_estimator(config.get("estimator"))
    seeds = seed_lists(config, "adaptive_prs")
    settings = config.get("weight_settings", [[1.0, 1.0]])

    cost = CostModel([1.0, 1.0], budget)
    start = Allocation([float(x) for x in start_pairs])
    digest = config_digest(config)
    header = ["weights", "seed", "n_0", "n_1", "M_0", "M_1", "utility"]
    records = []
    session_of = _session_per_seed(world)
    for weights in settings:
        util = UtilitySpec(weights=[float(w) for w in weights])
        label = "/".join(f"{w:g}" for w in weights)
        for seed in seeds["seeds"]:
            t0 = time.perf_counter()
            session = session_of(seed)
            cfg = GreedyConfig(
                step_cost=step, start_alloc=start,
                marginal_source="estimator", seed=seed, estimator=est,
            )
            alloc, _ = run_greedy(session, util, cost, cfg)
            n0, n1 = (int(x) for x in alloc.counts)
            m0, m1 = session.value_at(0, n0), session.value_at(1, n1)
            records.append(
                RunRecord(
                    config_digest=digest,
                    seed=seed,
                    policy=label,
                    counts=(n0, n1),
                    performances=(m0, m1),
                    utility=utility_eval(util, PerformanceVector([m0, m1])),
                    seconds=time.perf_counter() - t0,
                )
            )
    main = Table("adaptive_prs", header, [r.table_row() for r in records],
                 digest=digest)

    grid = config.get("learning_curve_grid")
    if grid is None:
        return main
    curve_rows = run_allocation_curve(world, grid, seeds["curve_seeds"])
    curves = Table(
        "learning_curves",
        ["group", "n", "seed", "value"],
        [list(r) for r in curve_rows],
        digest=digest,
    )
    return [main, curves]


def run_audit(config: dict) -> Table:
    """Audit one observed allocation against an auditor's utility."""
    check_kind(config, "audit")
    curve = parse_curve(config["curve"])
    cost = parse_cost(config)
    auditor = parse_utility(_require_block(config, "auditor_utility"))
    observed = parse_allocation(_require_block(config, "observed"))
    resolution = config.get("grid_resolution")

    best, observed_u, gap = _audit(curve, auditor, cost, observed,
                                   None if resolution is None else float(resolution),
                                   tol=float(config.get("solver_tol", 1e-8)))

    k = curve.num_groups
    header = (
        ["gap", "observed_utility", "optimal_utility"]
        + [f"observed_{i}" for i in range(k)]
        + [f"optimal_{i}" for i in range(k)]
    )
    rows = [
        [gap, observed_u, best.utility]
        + [float(x) for x in observed.counts]
        + [float(x) for x in best.alloc.counts]
    ]
    return Table("audit", header, rows, digest=config_digest(config))


def _require_block(config: dict, key: str):
    if key not in config:
        raise ConfigError(f"config is missing required block {key!r}")
    return config[key]
