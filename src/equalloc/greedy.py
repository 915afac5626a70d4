"""Sequential greedy allocation, baseline policies, and the batch oracle.

At each step the greedy loop spends a fixed amount ``s`` on the group
whose next batch is expected to raise utility the most, judged either by
the true analytic curve or by the noisy history-based estimator.  It
stops as soon as another step would break the budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .core import (
    Allocation,
    CostModel,
    UtilitySpec,
    check_feasible,
    utility_eval,
    utility_kernel,
)
from .curves import AnalyticCurve, batch_utilities, eval_perf
from .errors import (
    CapacityError,
    DomainError,
    EqualLocError,
    UnsupportedUtilityError,
)
from .estimator import EstimatorSettings, PerformanceHistory, estimate_marginal
from .solvers import SolveResult, lattice_points

__all__ = [
    "GreedyConfig",
    "StepRecord",
    "GreedyTrace",
    "run_greedy",
    "batch_enum_optimum",
    "baseline_policy",
]

_MAX_ENUM_BATCHES = 24
_MAX_ENUM_GROUPS = 5


class GreedyStepError(EqualLocError):
    """An estimator failure surfaced during a greedy run."""

    def __init__(self, step: int, cause: Exception):
        self.step = step
        super().__init__(f"greedy step {step}: {cause}")


@dataclass(frozen=True)
class GreedyConfig:
    """Settings for one greedy run.

    ``marginal_source`` selects between exact curve marginals and the
    history-based estimator; ``seed`` seeds the estimator's draws.  An
    exact tie in the argmax goes to the lowest group index.
    """

    step_cost: float
    start_alloc: Allocation | None = None
    marginal_source: str = "true_curve"
    seed: int = 0
    estimator: EstimatorSettings = field(default_factory=EstimatorSettings)

    def __post_init__(self):
        if self.step_cost <= 0:
            raise DomainError("step_cost must be positive")
        if self.marginal_source not in ("true_curve", "estimator"):
            raise DomainError(f"unknown marginal_source {self.marginal_source!r}")


@dataclass(frozen=True)
class StepRecord:
    """One greedy step: who was sampled, what it cost, what it looked like."""

    step: int
    group: int
    spend: float
    counts: np.ndarray
    marginal_est: np.ndarray
    marginal_true: np.ndarray
    utility: float


@dataclass
class GreedyTrace:
    """Ordered step records plus the budget left unspent at the end."""

    records: list[StepRecord] = field(default_factory=list)
    residual_budget: float = 0.0

    def __len__(self) -> int:
        return len(self.records)

    def csv_header(self, num_groups: int) -> list[str]:
        cols = ["step", "group", "spend"]
        cols += [f"count_{k}" for k in range(num_groups)]
        cols += [f"marginal_est_{k}" for k in range(num_groups)]
        cols += [f"marginal_true_{k}" for k in range(num_groups)]
        cols.append("utility")
        return cols

    def csv_rows(self):
        for r in self.records:
            yield (
                [r.step, r.group, r.spend]
                + [float(x) for x in r.counts]
                + [float(x) for x in r.marginal_est]
                + [float(x) for x in r.marginal_true]
                + [r.utility]
            )


def _true_marginals(
    curve: AnalyticCurve,
    utility: UtilitySpec,
    counts: np.ndarray,
    step_cost: float,
    cost: CostModel,
    base_utility: float,
) -> np.ndarray:
    k = counts.size
    candidates = np.repeat(counts[:, None], k, axis=1)
    candidates[np.arange(k), np.arange(k)] += step_cost / cost.costs
    return batch_utilities(curve, utility, candidates) - base_utility


def run_greedy(
    source,
    utility: UtilitySpec,
    cost: CostModel,
    config: GreedyConfig,
) -> tuple[Allocation, GreedyTrace]:
    """Run the sequential greedy allocator until the budget is exhausted.

    ``source`` is an :class:`AnalyticCurve` when
    ``config.marginal_source == "true_curve"``, or an environment with an
    ``observe(alloc)`` method (and optionally a ``curve`` attribute used
    to log true marginals) when using the estimator.

    Returns the final allocation and the full step-by-step trace.  Any
    residual budget smaller than one step is left unspent and reported on
    the trace.
    """
    k = cost.num_groups
    start = config.start_alloc if config.start_alloc is not None else Allocation.zeros(k)
    if start.num_groups != k or utility.num_groups != k:
        raise DomainError("start allocation, cost, and utility sizes must match")
    if not check_feasible(start, cost):
        raise DomainError("start allocation exceeds the budget")
    if config.step_cost > cost.spend_limit:
        raise DomainError("step_cost exceeds the budget")

    if config.marginal_source == "true_curve":
        if not isinstance(source, AnalyticCurve):
            raise DomainError("true_curve marginals need an AnalyticCurve source")
        return _run_true_curve(source, utility, cost, config, start)
    return _run_estimated(source, utility, cost, config, start)


def _spend_budget(cost: CostModel, start: Allocation, step_cost: float, choose,
                  record=None) -> tuple[np.ndarray, float]:
    """The budget-stepping loop shared by every sequential policy.

    Each step spends ``step_cost`` on the group ``choose(counts, step)``
    returns, then calls ``record(counts, group, step)`` if given; the loop
    stops as soon as another step would break the budget.  Returns the
    final counts and the budget left unspent.
    """
    counts = start.counts.copy()
    spent = cost.spend(start)
    limit = cost.spend_limit
    step = 0
    while spent + step_cost <= limit:
        step += 1
        group = choose(counts, step)
        counts[group] += step_cost / cost.costs[group]
        spent += step_cost
        if record is not None:
            record(counts, group, step)
    return counts, cost.budget - spent


def _observe(env, counts: np.ndarray) -> np.ndarray:
    return np.asarray(env.observe(Allocation(counts)).values, dtype=float)


def _run_true_curve(curve, utility, cost, config, start):
    """Buy from the group with the largest exact marginal gain."""
    s = config.step_cost
    trace = GreedyTrace()
    u_now = float(batch_utilities(curve, utility, start.counts[:, None])[0])
    marginals = None

    def choose(counts, step):
        nonlocal marginals
        marginals = _true_marginals(curve, utility, counts, s, cost, u_now)
        return int(np.argmax(marginals))

    def record(counts, group, step):
        nonlocal u_now
        u_now = float(batch_utilities(curve, utility, counts[:, None])[0])
        trace.records.append(
            StepRecord(step=step, group=group, spend=s, counts=counts.copy(),
                       marginal_est=marginals, marginal_true=marginals.copy(),
                       utility=u_now)
        )

    counts, trace.residual_budget = _spend_budget(cost, start, s, choose, record)
    return Allocation(counts), trace


def _run_estimated(env, utility, cost, config, start):
    """Force-explore groups with too few measurements, then buy from the
    group with the largest Thompson-style priority."""
    if utility.transform != "identity" or utility.parity_penalty > 0:
        raise UnsupportedUtilityError(
            "estimator-driven greedy supports only linear utilities"
        )
    rng = np.random.default_rng(config.seed)
    k = cost.num_groups
    est = config.estimator
    s = config.step_cost
    true_curve = getattr(env, "curve", None)

    history = PerformanceHistory(k)
    perf = _observe(env, start.counts)
    for g in range(k):
        history.append(g, start.counts[g], perf[g])

    trace = GreedyTrace()
    priorities = marg_true = None

    def choose(counts, step):
        nonlocal priorities, marg_true
        priorities = np.full(k, np.nan)
        under = [g for g in range(k) if history.count(g) < est.min_points]
        if under:
            # Forced exploration: bootstrap the least-measured group.
            group = min(under, key=lambda g: (history.count(g), g))
        else:
            for g in range(k):
                try:
                    me = estimate_marginal(
                        history,
                        g,
                        s,
                        cost,
                        window=est.window,
                        se_floor=est.se_floor,
                        rng_seed=rng,
                        min_points=est.min_points,
                    )
                except EqualLocError as exc:
                    raise GreedyStepError(step, exc) from exc
                priorities[g] = me.priority * utility.weights[g]
            group = int(np.argmax(priorities))

        if true_curve is not None:
            base_u = float(batch_utilities(true_curve, utility, counts[:, None])[0])
            marg_true = _true_marginals(true_curve, utility, counts, s, cost, base_u)
        else:
            marg_true = np.full(k, np.nan)
        return group

    def record(counts, group, step):
        perf = _observe(env, counts)
        history.append(group, counts[group], perf[group])
        trace.records.append(
            StepRecord(step=step, group=group, spend=s, counts=counts.copy(),
                       marginal_est=priorities, marginal_true=marg_true,
                       utility=float(utility_kernel(utility, perf)))
        )

    counts, trace.residual_budget = _spend_budget(cost, start, s, choose, record)
    return Allocation(counts), trace


def batch_enum_optimum(
    curve: AnalyticCurve,
    utility: UtilitySpec,
    cost: CostModel,
    step_cost: float,
    start_alloc: Allocation | None = None,
) -> SolveResult:
    """Brute-force best allocation over whole numbers of greedy batches.

    Enumerates every way of distributing up to ``d = budget / step_cost``
    batches among the groups (each batch buys ``step_cost / cost_k``
    samples) and returns the utility maximizer.  This is the comparison
    class the greedy loop provably matches on separable concave curves.
    """
    k = curve.num_groups
    start = start_alloc if start_alloc is not None else Allocation.zeros(k)
    remaining = cost.budget - cost.spend(start)
    d_float = remaining / step_cost
    d = round(d_float)
    if d < 1 or abs(d_float - d) > 1e-9 * max(1.0, d):
        raise DomainError(
            f"budget must be a positive whole number of batches, got {d_float}"
        )
    if d > _MAX_ENUM_BATCHES or k > _MAX_ENUM_GROUPS:
        raise CapacityError(
            f"batch enumeration capped at d <= {_MAX_ENUM_BATCHES}, "
            f"K <= {_MAX_ENUM_GROUPS}; got d={d}, K={k}"
        )

    step_sizes = step_cost / cost.costs
    batches = np.array(list(lattice_points(k, d)), dtype=float)
    counts = start.counts[None, :] + batches * step_sizes[None, :]
    u = batch_utilities(curve, utility, counts.T)
    idx = int(np.argmax(u))  # first maximizer = lexicographically smallest
    alloc = Allocation(counts[idx])
    return SolveResult(
        alloc=alloc,
        utility=utility_eval(utility, eval_perf(curve, alloc)),
        method="batch_enum",
        iterations=batches.shape[0],
        converged=True,
        certificate=0.0,
    )


def baseline_policy(
    kind: str,
    source,
    cost: CostModel,
    step_cost: float | None = None,
    pop_shares=None,
    start_alloc: Allocation | None = None,
) -> Allocation:
    """Static and heuristic allocation policies used as comparison points.

    ``equal`` buys the same count from every group; ``representative``
    buys proportionally to ``pop_shares`` (rounded to whole batches when
    ``step_cost`` is given, shaving batches if rounding oversteps the
    budget); ``parity`` repeatedly samples whichever group currently
    performs worst, read from ``source`` (an analytic curve or an
    environment with ``observe``).
    """
    k = cost.num_groups
    if kind == "equal":
        per_group = cost.budget / float(cost.costs.sum())
        return Allocation(np.full(k, per_group))

    if kind == "representative":
        shares = np.asarray(pop_shares, dtype=float)
        if shares.size != k:
            raise DomainError(f"pop_shares must have {k} entries")
        if np.any(shares < 0) or shares.sum() <= 0:
            raise DomainError("pop_shares must be non-negative with a positive sum")
        counts = shares * cost.budget / float(cost.costs @ shares)
        if step_cost is not None:
            counts = _round_to_batches(counts, cost, step_cost)
        return Allocation(counts)

    if kind == "parity":
        if step_cost is None:
            raise DomainError("parity policy needs a step_cost")
        return _parity_policy(source, cost, step_cost, start_alloc)

    raise DomainError(f"unknown baseline policy {kind!r}")


def _round_to_batches(counts: np.ndarray, cost: CostModel, step_cost: float) -> np.ndarray:
    step_sizes = step_cost / cost.costs
    batches = np.rint(counts / step_sizes)
    rounded = batches * step_sizes
    # Rounding up may overshoot the budget; shave batches where the
    # rounding gain was largest until feasible again.
    while float(cost.costs @ rounded) > cost.spend_limit:
        over = rounded - counts
        candidates = np.flatnonzero(batches > 0)
        worst = candidates[np.argmax(over[candidates])]
        batches[worst] -= 1
        rounded = batches * step_sizes
    return rounded


def _parity_policy(source, cost, step_cost, start_alloc):
    """Buy from the group that currently measures worst."""
    start = start_alloc if start_alloc is not None else Allocation.zeros(cost.num_groups)
    if isinstance(source, AnalyticCurve):
        measure = source.perf_values
    else:
        measure = partial(_observe, source)
    counts, _ = _spend_budget(cost, start, step_cost,
                              lambda counts, step: int(np.argmin(measure(counts))))
    return Allocation(counts)
