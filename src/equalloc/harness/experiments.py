"""Experiment runners: policy comparison tables, the greedy-vs-solver
convergence study, the genomic frontier sweep, adaptive runs, and audits.

Each runner takes a config document (see :mod:`.config` for defaults),
computes deterministically from the seeds it contains, and returns
:class:`~equalloc.harness.io.Table` objects ready for CSV persistence.
"""

from __future__ import annotations

import functools

import numpy as np

from ..core import Allocation, CostModel, PerformanceVector, UtilitySpec, utility_eval
from ..curves import AnalyticCurve, eval_perf
from ..envs.genomic import (
    GenomicSamplingSession,
    GenomicWorldConfig,
    generate_world,
    run_allocation_curve,
)
from ..errors import ConfigError
from ..estimator import EstimatorSettings
from ..greedy import (GreedyConfig, equal_allocation, parity_allocation,
                      representative_allocation, run_greedy)
from ..solvers import audit_gap, solve_concave, solve_grid
from .config import (
    check_kind,
    config_digest,
    default_convergence_config,
    default_frontier_config,
    default_prs_sim_config,
    default_table1_config,
    parse_cost,
    read_block,
    read_list,
    read_number,
    require_block,
    seed_lists,
)
from .io import Table

__all__ = [
    "run_table1",
    "run_convergence",
    "run_frontier",
    "run_adaptive_prs",
    "run_audit",
]


def _table1_instance(config):
    curve = read_block(AnalyticCurve, require_block(config, "curve"), "curve")
    cost = parse_cost(config)
    blocks = config.get("utilities", {})
    if not isinstance(blocks, dict) or not {"equal", "priority"} <= blocks.keys():
        raise ConfigError("table1 config needs 'equal' and 'priority' utilities")
    utilities = {name: read_block(UtilitySpec, block, f"utilities.{name}")
                 for name, block in blocks.items()}
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
    defaults = default_table1_config()
    step = read_number(config, "step_cost", defaults["step_cost"])
    resolution = read_number(config, "grid_resolution", defaults["grid_resolution"])
    shares = read_list(config, "pop_shares", None)
    if shares is None:
        raise ConfigError("table1 config needs pop_shares")

    policies: list[tuple[str, Allocation]] = [
        ("Equal", equal_allocation(cost)),
        ("Representative", representative_allocation(cost, shares)),
        ("Performance Parity", parity_allocation(curve, cost, step)),
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
    signed gap ``utility_opt - utility_greedy`` between the concave
    solver's optimum and the greedy run, that gap relative to
    ``|utility_opt|``, and the solver's ``certificate`` and ``converged``
    flag.  A negative gap means greedy beat the solver, which it never does
    by more than the certificate, up to rounding.  One row per
    (instance, step).
    """
    check_kind(config, "convergence")
    defaults = default_convergence_config()
    n_instances = read_number(config, "num_instances", defaults["num_instances"], int)
    k_range = read_list(config, "group_range", defaults["group_range"], int, 2)
    forms = read_list(config, "forms", defaults["forms"], str)
    budget = read_number(config, "budget", defaults["budget"])
    divisors = read_list(config, "step_divisors", defaults["step_divisors"], int)
    if not 1 <= k_range[0] <= k_range[1] or min(divisors, default=1) < 1:
        raise ConfigError("group_range needs 1 <= low <= high and step_divisors "
                          "positive entries")
    tol = read_number(config, "solver_tol", defaults["solver_tol"])
    master_seeds = seed_lists(config, "convergence")["seeds"]

    header = [
        "form", "instance", "seed", "num_groups", "step_divisor",
        "utility_opt", "utility_greedy", "gap", "relative_gap",
        "certificate", "converged",
    ]
    form_streams = {"sqrt": 1, "log1p": 2, "power": 3}
    unknown = [f for f in forms if f not in form_streams]
    if unknown:
        raise ConfigError(f"unknown curve forms {unknown}; expected {list(form_streams)}")
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
                    gap = opt.utility - u_greedy
                    rel = gap / abs(opt.utility) if opt.utility != 0 else gap
                    rows.append(
                        [form, inst, master, curve.num_groups, div,
                         opt.utility, u_greedy, gap, rel,
                         opt.certificate, opt.converged]
                    )
    return Table("convergence", header, rows, digest=config_digest(config))


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


def _weight_settings(config, defaults, shares):
    lo, hi = read_list(config, "weight_ratio_bounds", defaults["weight_ratio_bounds"],
                       length=2)
    if min(lo, hi) <= 0:
        raise ConfigError(f"weight_ratio_bounds must be positive, got {[lo, hi]}")
    n_points = read_number(config, "weight_ratio_points", defaults["weight_ratio_points"],
                           int)
    ratios = np.logspace(np.log10(lo), np.log10(hi), n_points)
    settings = [(f"ratio_{r:.6g}", (float(r), 1.0)) for r in ratios]
    if read_number(config, "include_share_weights", defaults["include_share_weights"], bool):
        settings.append(("shares", tuple(shares)))
    for w0, w1 in read_list(config, "extra_weights", defaults["extra_weights"], _pair):
        settings.append((f"weights_{w0:g}_{w1:g}", (w0, w1)))
    return settings


def _pair(entry):
    w0, w1 = entry
    return float(w0), float(w1)


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
    defaults = default_frontier_config()
    world_config = read_block(GenomicWorldConfig, require_block(config, "world"), "world")
    budget = read_number(config, "budget_pairs", defaults["budget_pairs"], int)
    min_pg = read_number(config, "min_per_group", defaults["min_per_group"], int)
    step = read_number(config, "grid_step", defaults["grid_step"], int)
    policy_step = read_number(config, "policy_step", defaults["policy_step"])
    est = read_block(EstimatorSettings, config.get("estimator", defaults["estimator"]),
                     "estimator")
    seeds = seed_lists(config, "frontier")
    shares = read_list(config, "pop_shares", defaults["pop_shares"], length=2)
    weight_settings = _weight_settings(config, defaults, shares)
    grid = _frontier_grid(budget, min_pg, step)

    world = generate_world(world_config)
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

    def split_row(kind, label, seed, counts):
        n0, n1 = (int(x) for x in counts)
        session = session_of(seed)
        return [kind, label, seed, n0, n1, session.value_at(0, n0), session.value_at(1, n1)]

    for seed in seeds["frontier_seeds"]:
        for n0, n1 in grid:
            rows.append(split_row("frontier", f"split_{n0}_{n1}", seed, (n0, n1)))

    cost = CostModel([1.0, 1.0], float(budget))
    # whole pairs: equal_allocation would split an odd budget in halves
    equal = (budget // 2, budget - budget // 2)
    representative = representative_allocation(cost, shares, float(step)).counts
    start = Allocation([float(min_pg), float(min_pg)])
    for seed in seeds["policy_seeds"]:
        parity = parity_allocation(session_of(seed), cost, policy_step, start)
        for label, counts in (("equal", equal), ("representative", representative),
                              ("parity", parity.counts)):
            rows.append(split_row("marker", label, seed, counts))

    for label, weights in weight_settings:
        util = UtilitySpec(weights=list(weights))
        for seed in seeds["policy_seeds"]:
            cfg = GreedyConfig(
                step_cost=policy_step, start_alloc=start,
                marginal_source="estimator", seed=seed, estimator=est,
            )
            alloc, _ = run_greedy(session_of(seed), util, cost, cfg)
            rows.append(split_row("greedy", label, seed, alloc.counts))

    return Table("frontier", header, rows, digest=config_digest(config))


def run_adaptive_prs(config: dict):
    """Adaptive greedy runs on the genomic environment, one row per run.

    When the config carries a ``learning_curve_grid``, a second table of
    empirical learning-curve observations (group, n, seed, value) is
    returned alongside the run table.
    """
    check_kind(config, "adaptive_prs")
    defaults = default_prs_sim_config()
    world_config = read_block(GenomicWorldConfig, require_block(config, "world"), "world")
    budget = read_number(config, "budget_pairs", defaults["budget_pairs"])
    start_pairs = read_list(config, "start_pairs", defaults["start_pairs"], length=2)
    step = read_number(config, "step_cost", defaults["step_cost"])
    est = read_block(EstimatorSettings, config.get("estimator", defaults["estimator"]),
                     "estimator")
    seeds = seed_lists(config, "adaptive_prs")
    settings = read_list(config, "weight_settings", defaults["weight_settings"], _pair)
    grid = read_list(config, "learning_curve_grid", None, int)

    world = generate_world(world_config)
    cost = CostModel([1.0, 1.0], budget)
    start = Allocation(start_pairs)
    digest = config_digest(config)
    header = ["weights", "seed", "n_0", "n_1", "M_0", "M_1", "utility"]
    rows = []
    session_of = _session_per_seed(world)
    for weights in settings:
        util = UtilitySpec(weights=weights)
        label = "/".join(f"{w:g}" for w in weights)
        for seed in seeds["seeds"]:
            session = session_of(seed)
            cfg = GreedyConfig(
                step_cost=step, start_alloc=start,
                marginal_source="estimator", seed=seed, estimator=est,
            )
            alloc, _ = run_greedy(session, util, cost, cfg)
            n0, n1 = (int(x) for x in alloc.counts)
            m0, m1 = session.value_at(0, n0), session.value_at(1, n1)
            rows.append([label, seed, n0, n1, m0, m1,
                         utility_eval(util, PerformanceVector([m0, m1]))])
    main = Table("adaptive_prs", header, rows, digest=digest)

    if grid is None:
        return main
    curve_rows = run_allocation_curve(world, grid, seeds["curve_seeds"], session_of)
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
    curve = read_block(AnalyticCurve, require_block(config, "curve"), "curve")
    cost = parse_cost(config)
    auditor = read_block(UtilitySpec, require_block(config, "auditor_utility"),
                         "auditor_utility")
    observed = read_block(Allocation, require_block(config, "observed"), "observed")

    best, observed_u, gap = audit_gap(curve, auditor, cost, observed,
                                      read_number(config, "grid_resolution", None),
                                      tol=read_number(config, "solver_tol", 1e-8))

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

