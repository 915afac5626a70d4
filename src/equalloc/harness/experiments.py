"""Experiment runners: policy comparison tables, the greedy-vs-solver
convergence study, the genomic frontier sweep, adaptive runs, and audits.

Each runner takes a config document (see :mod:`.config` for defaults),
computes deterministically from the seeds it contains, and returns
:class:`~equalloc.harness.io.Table` objects ready for CSV persistence.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from ..core import (Allocation, CostModel, PerformanceVector, UtilitySpec, check_feasible,
                    check_groups, utility_eval)
from ..curves import AnalyticCurve, eval_perf
from ..envs.genomic import (
    GenomicSamplingSession,
    GenomicWorldConfig,
    generate_world,
    run_allocation_curve,
)
from ..errors import CapacityError, ConfigError
from ..estimator import EstimatorSettings
from ..greedy import (MAX_STEPS, GreedyConfig, check_run, equal_allocation,
                      parity_allocation, representative_allocation, run_greedy)
from ..solvers import audit_gap, check_audit, solve_concave, solve_grid
from .config import (
    _cast,
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
    reading,
    seed_lists,
    whole_number,
)
from .io import Table

__all__ = [
    "run_table1",
    "run_convergence",
    "run_frontier",
    "run_adaptive_prs",
    "run_audit",
]

# The most groups a convergence instance may draw, ten times the default's
# largest: a greedy step multiplies two K x K matrices, so it costs K^3.
MAX_STUDY_GROUPS = 100


def run_table1(config: dict) -> Table:
    """Compare static, parity, optimal, and greedy policies on one instance.

    Emits one row per policy with the resulting allocation, per-group
    performances, and both utility columns.
    """
    check_kind(config, "table1")
    defaults = default_table1_config()
    with reading("table1 config"):
        curve = read_block(AnalyticCurve, config["curve"], "curve")
        cost = parse_cost(config)
        blocks = config["utilities"]
        utilities = {name: read_block(UtilitySpec, blocks[name], f"utilities.{name}")
                     for name in blocks}
        u_equal, u_priority = utilities["equal"], utilities["priority"]
        check_groups(curve, costs=cost, **utilities)
        step = read_number(config, "step_cost", defaults["step_cost"], above=0)
        resolution = read_number(config, "grid_resolution", defaults["grid_resolution"],
                                 above=0)
        policies: list[tuple[str, Allocation]] = [
            ("Equal", equal_allocation(cost)),
            ("Representative",
             representative_allocation(cost, read_list(config, "pop_shares", None))),
        ]
        greedy = GreedyConfig(step_cost=step)
        check_run(cost, step)

    policies += [
        ("Performance Parity", parity_allocation(curve, cost, step)),
        ("Optimal (U_equal)", solve_grid(curve, u_equal, cost, resolution).alloc),
        ("Optimal (U_priority)", solve_grid(curve, u_priority, cost, resolution).alloc),
    ]
    for name, util in (("Greedy (U_equal)", u_equal), ("Greedy (U_priority)", u_priority)):
        alloc, _ = run_greedy(curve, util, cost, greedy)
        policies.append((name, alloc))

    k = curve.num_groups
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
    if not (weights > 0).any():
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
    with reading("convergence config"):
        n_instances = read_number(config, "num_instances", defaults["num_instances"], int,
                                  above=-1)
        k_range = read_list(config, "group_range", defaults["group_range"], int, 2)
        if not 1 <= k_range[0] <= k_range[1]:
            raise ConfigError(f"group_range needs 1 <= low <= high, got {k_range}")
        if k_range[1] > MAX_STUDY_GROUPS:
            raise CapacityError(f"group_range reaches {k_range[1]} groups, "
                                f"over the cap of {MAX_STUDY_GROUPS}")
        streams = [(form, {"sqrt": 1, "log1p": 2, "power": 3}[form])
                   for form in read_list(config, "forms", defaults["forms"], str)]
        budget = read_number(config, "budget", defaults["budget"], above=0)
        divs = read_list(config, "step_divisors", defaults["step_divisors"], int, above=0)
        steps = [(div, GreedyConfig(step_cost=budget / div)) for div in divs]
        tol = read_number(config, "solver_tol", defaults["solver_tol"], above=0)
        master_seeds = seed_lists(config, "convergence")["seeds"]
        # a run at step budget / div takes div steps at most
        if len(master_seeds) * len(streams) * n_instances * sum(divs) > MAX_STEPS:
            raise CapacityError(f"the study takes over {MAX_STEPS} greedy steps")

    header = [
        "form", "instance", "seed", "num_groups", "step_divisor",
        "utility_opt", "utility_greedy", "gap", "relative_gap",
        "certificate", "converged",
    ]
    rows = []
    for master in master_seeds:
        for form, stream in streams:
            rng = np.random.default_rng([master, stream])
            for inst in range(n_instances):
                curve, cost, util = _random_instance(rng, k_range, form, budget)
                opt = solve_concave(curve, util, cost, tol=tol)
                for div, cfg in steps:
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
    return [(label, UtilitySpec(weights=list(weights))) for label, weights in settings]


def _pair(entry):
    w0, w1 = entry
    return _cast(w0, float, "weight"), _cast(w1, float, "weight")


def _estimator_policy(config, defaults, budget, start, step):
    """Cost model and base greedy config of the estimator policy, its run checked."""
    cost = CostModel([1.0, 1.0], budget)
    check_run(cost, step, start)
    est = read_block(EstimatorSettings, config.get("estimator", defaults["estimator"]),
                     "estimator")
    return cost, GreedyConfig(step_cost=step, start_alloc=start,
                              marginal_source="estimator", estimator=est)


def world_holding(world_config, reach):
    """The world of ``world_config``, once its pools are known to hold ``reach`` pairs."""
    if reach > world_config.train_pairs:
        raise ConfigError(f"runs reach {reach:g} pairs, more than the "
                          f"{world_config.train_pairs} training pairs of each group")
    return generate_world(world_config)


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
    with reading("frontier config"):
        world_config = read_block(GenomicWorldConfig, config["world"], "world")
        budget = read_number(config, "budget_pairs", defaults["budget_pairs"], int)
        min_pg = read_number(config, "min_per_group", defaults["min_per_group"], int)
        grid_step = read_number(config, "grid_step", defaults["grid_step"], int, above=0)
        policy_step = read_number(config, "policy_step", defaults["policy_step"],
                                  whole_number, above=0)
        start = Allocation([float(min_pg), float(min_pg)])
        cost, base = _estimator_policy(config, defaults, budget, start, policy_step)
        seeds = seed_lists(config, "frontier")
        shares = read_list(config, "pop_shares", defaults["pop_shares"], length=2)
        utilities = _weight_settings(config, defaults, shares)
        grid = [(n0, budget - n0) for n0 in range(min_pg, budget - min_pg + 1, grid_step)]
        # whole pairs: equal_allocation would split an odd budget in halves
        equal = (budget // 2, budget - budget // 2)
        representative = representative_allocation(cost, shares, float(grid_step)).counts

    world = world_holding(world_config, max(budget - min_pg, *representative))
    session_of = _session_per_seed(world)
    header = ["kind", "label", "seed", "n_0", "n_1", "M_0", "M_1"]
    rows = []

    def split_row(kind, label, seed, counts):
        n0, n1 = (int(x) for x in counts)
        session = session_of(seed)
        return [kind, label, seed, n0, n1, session.value_at(0, n0), session.value_at(1, n1)]

    for seed in seeds["frontier_seeds"]:
        for n0, n1 in grid:
            rows.append(split_row("frontier", f"split_{n0}_{n1}", seed, (n0, n1)))

    for seed in seeds["policy_seeds"]:
        parity = parity_allocation(session_of(seed), cost, policy_step, start)
        for label, counts in (("equal", equal), ("representative", representative),
                              ("parity", parity.counts)):
            rows.append(split_row("marker", label, seed, counts))

    for label, util in utilities:
        for seed in seeds["policy_seeds"]:
            alloc, _ = run_greedy(session_of(seed), util, cost,
                                  dataclasses.replace(base, seed=seed))
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
    with reading("adaptive_prs config"):
        world_config = read_block(GenomicWorldConfig, config["world"], "world")
        budget = read_number(config, "budget_pairs", defaults["budget_pairs"], int)
        start = Allocation(read_list(config, "start_pairs", defaults["start_pairs"],
                                     whole_number, length=2))
        step = read_number(config, "step_cost", defaults["step_cost"], whole_number,
                           above=0)
        cost, base = _estimator_policy(config, defaults, budget, start, step)
        seeds = seed_lists(config, "adaptive_prs")
        utilities = [("/".join(f"{w:g}" for w in weights), UtilitySpec(weights=weights))
                     for weights in read_list(config, "weight_settings",
                                              defaults["weight_settings"], _pair)]
        grid = read_list(config, "learning_curve_grid", None, int, above=-1)

    world = world_holding(world_config, max([budget - start.counts.min(), *(grid or [])]))
    digest = config_digest(config)
    header = ["weights", "seed", "n_0", "n_1", "M_0", "M_1", "utility"]
    rows = []
    session_of = _session_per_seed(world)
    for label, util in utilities:
        for seed in seeds["seeds"]:
            session = session_of(seed)
            alloc, _ = run_greedy(session, util, cost, dataclasses.replace(base, seed=seed))
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
    with reading("audit config"):
        curve = read_block(AnalyticCurve, config["curve"], "curve")
        cost = parse_cost(config)
        auditor = read_block(UtilitySpec, config["auditor_utility"], "auditor_utility")
        observed = read_block(Allocation, config["observed"], "observed")
        check_groups(curve, costs=cost, auditor_utility=auditor, observed=observed)
        check_audit(curve, auditor)
        if not check_feasible(observed, cost):
            raise ConfigError(f"observed allocation {observed.counts.tolist()} "
                              f"exceeds the budget of {cost.budget:g}")
        resolution = read_number(config, "grid_resolution", None, above=0)
        tol = read_number(config, "solver_tol", 1e-8, above=0)

    best, observed_u, gap = audit_gap(curve, auditor, cost, observed, resolution, tol=tol)

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
