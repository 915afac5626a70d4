"""Command-line interface.

Subcommands: ``solve``, ``greedy``, ``audit``, ``table1``,
``convergence``, ``frontier``, ``prs-sim``.  Each experiment reads a
JSON config (built-in defaults are used when ``--config`` is omitted),
writes self-describing CSV tables plus a run manifest into ``--out``,
and exits 0 on success, 2 on config errors, 3 on capacity errors, and 4
on numerical failures.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .core import Allocation, UtilitySpec, check_groups, utility_eval
from .curves import AnalyticCurve, eval_perf
from .envs.analytic import AnalyticEnvironment
from .envs.genomic import GenomicSamplingSession, GenomicWorldConfig
from .errors import CapacityError, ConfigError, DimensionMismatchError, EqualLocError
from .estimator import EstimatorSettings
from .greedy import GreedyConfig, check_linear, check_run, run_greedy
from .harness.config import (
    apply_seed_offset,
    config_digest,
    default_audit_config,
    default_convergence_config,
    default_frontier_config,
    default_prs_sim_config,
    default_table1_config,
    load_config,
    parse_cost,
    read_block,
    read_number,
    reading,
    seed_lists,
    whole_number,
)
from .harness.experiments import (
    run_adaptive_prs,
    run_audit,
    run_convergence,
    run_frontier,
    run_table1,
    world_holding,
)
from .harness.io import Table, write_manifest, write_table
from .solvers import solve_concave, solve_grid

_EXPERIMENTS = {
    "table1": (run_table1, default_table1_config),
    "convergence": (run_convergence, default_convergence_config),
    "frontier": (run_frontier, default_frontier_config),
    "prs-sim": (run_adaptive_prs, default_prs_sim_config),
    "audit": (run_audit, default_audit_config),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equalloc",
        description="Budget-constrained, group-aware training-data allocation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one allocation instance")
    p_solve.add_argument("--config", required=True, help="instance document (JSON)")
    p_solve.add_argument("--out", default=None, help="output directory")

    p_greedy = sub.add_parser("greedy", help="run the sequential greedy allocator")
    p_greedy.add_argument("--instance", "--config", dest="instance", required=True,
                          help="instance document (JSON)")
    p_greedy.add_argument("--step", type=float, default=None,
                          help="spend per greedy step")
    p_greedy.add_argument("--start", default="zero",
                          help="'zero' or a JSON file with a counts field")
    p_greedy.add_argument("--marginals", choices=["true", "estimated"],
                          default="true")
    p_greedy.add_argument("--seed", type=int, default=0)
    p_greedy.add_argument("--trace-out", default=None, help="trace CSV path")
    p_greedy.add_argument("--out", default=None, help="output directory")

    for name in _EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", default=None, help="config JSON (default built-in)")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed-offset", type=int, default=0)
    return parser


def _cmd_solve(args) -> int:
    doc = load_config(args.config)
    with reading("solve config"):
        curve, cost, utility = _instance(doc)
        solver = {"grid": solve_grid, "concave": solve_concave}[doc.get("method", "grid")]
        if solver is solve_concave and not utility.is_concave_monotone:
            raise ConfigError("method 'concave' takes no parity_penalty; use method 'grid'")
        options = ({"resolution": read_number(doc, "resolution", None, above=0)}
                   if solver is solve_grid else
                   {"tol": read_number(doc, "tol", 1e-8, above=0),
                    "max_iter": read_number(doc, "max_iter", 10_000, int, above=0)})
    result = solver(curve, utility, cost, **options)
    payload = json.dumps(result.to_dict(), indent=2)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "solve_result.json").write_text(payload + "\n")
    print(payload)
    return 0


def _instance(doc):
    """The curve, cost model and utility of a one-instance document."""
    curve = read_block(AnalyticCurve, doc["curve"], "curve")
    cost = parse_cost(doc)
    utility = read_block(UtilitySpec, doc["utility"], "utility")
    check_groups(curve, costs=cost, utility=utility)
    return curve, cost, utility


def _genomic_session(world: dict | None = None, rng_seed: int = 0):
    """The world a genomic environment block describes, read but not built:
    a function of the most pairs a run can reach in one group that builds a
    session on that world, whose training pools must hold them."""
    config = read_block(GenomicWorldConfig, {} if world is None else world, "world")
    return lambda reach: GenomicSamplingSession(world_holding(config, reach), rng_seed)


def _greedy_source(doc, curve, marginals):
    if marginals == "true":
        return curve, "true_curve"
    env = dict(doc["environment"])
    cls, fixed = {"analytic": (AnalyticEnvironment, {"curve": curve}),
                  "genomic": (_genomic_session, {})}[env.pop("type", "analytic")]
    return read_block(cls, env, "environment", **fixed), "estimator"


def _cmd_greedy(args) -> int:
    doc = load_config(args.instance)
    if args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    if args.trace_out and Path(args.trace_out).suffix != ".csv":
        raise ConfigError(f"--trace-out must name a .csv file, got {args.trace_out!r}")
    with reading("greedy config"):
        curve, cost, utility = _instance(doc)
        step = read_number(doc if args.step is None else {"step_cost": args.step},
                           "step_cost", 1.0, above=0)
        start = (Allocation.zeros(cost.num_groups) if args.start == "zero"
                 else read_block(Allocation, load_config(args.start), "start"))
        source, mode = _greedy_source(doc, curve, args.marginals)
        est = read_block(EstimatorSettings, doc.get("estimator", {}), "estimator")
        cfg = GreedyConfig(step_cost=step, start_alloc=start, marginal_source=mode,
                           seed=args.seed, estimator=est)
        check_run(cost, step, start)
        if mode == "estimator":
            check_linear(utility)
        if callable(source):  # a genomic world has two groups, bought in whole pairs only
            if cost.num_groups != 2:
                raise DimensionMismatchError(2, cost.num_groups, "a genomic instance")
            with reading("genomic pairs per step or at the start"):
                for pairs in (step / cost.costs).tolist() + start.counts.tolist():
                    whole_number(pairs)
    if callable(source):  # a genomic world, built only once the config is known good
        source = source(max(start.counts + (cost.budget - cost.spend(start)) / cost.costs))
    t0 = time.perf_counter()
    alloc, trace = run_greedy(source, utility, cost, cfg)
    elapsed = time.perf_counter() - t0

    if args.trace_out:
        path = Path(args.trace_out)
        write_table(Table(path.stem, trace.csv_header(cost.num_groups),
                          list(trace.csv_rows()), digest=config_digest(doc)), path.parent)

    summary = {
        "counts": [float(x) for x in alloc.counts],
        "steps": len(trace),
        "residual_budget": trace.residual_budget,
        "final_utility": trace.final_utility,
        "seconds": elapsed,
    }
    if isinstance(source, AnalyticEnvironment) or mode == "true_curve":
        summary["true_utility"] = utility_eval(utility, eval_perf(curve, alloc))
    print(json.dumps(summary, indent=2))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "greedy_run.json").write_text(json.dumps(summary, indent=2) + "\n")
    return 0


def _cmd_experiment(name: str, args) -> int:
    runner, default = _EXPERIMENTS[name]
    kind = default()["kind"]
    config = load_config(args.config) if args.config else default()
    config = apply_seed_offset(config, args.seed_offset, kind)
    digest = config_digest(config)
    out_dir = Path(args.out) if args.out else Path("results") / name.replace("-", "_")

    t0 = time.perf_counter()
    result = runner(config)
    elapsed = time.perf_counter() - t0

    tables = result if isinstance(result, (list, tuple)) else [result]
    paths = [write_table(t, out_dir) for t in tables]
    write_manifest(
        out_dir, config, digest,
        seeds=seed_lists(config, kind),
        timings={name: elapsed},
    )
    for p in paths:
        print(p)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "greedy":
            return _cmd_greedy(args)
        return _cmd_experiment(args.command, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except (EqualLocError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
