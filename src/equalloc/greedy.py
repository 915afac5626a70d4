"""Sequential greedy allocation, baseline allocations, and the batch oracle.

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
    "equal_allocation",
    "representative_allocation",
    "parity_allocation",
]

_MAX_ENUM_BATCHES = 24
_MAX_ENUM_GROUPS = 5
# The most steps one budget loop may take, as solvers.MAX_GRID_POINTS caps the grid.
MAX_STEPS = 10_000_000


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


class _CandidateScan:
    """Exact utility gains of one more batch from each group, from one
    kernel call per step.

    :meth:`evaluate` scores the K candidates ``counts + step_cost / costs[k]``
    (one per group k) as one batch; :meth:`take` returns their gains over
    the current utility and makes the chosen candidate's utility the base
    of the next step, so the new counts are never evaluated again.
    """

    def __init__(self, curve, utility, cost, step_cost, counts):
        self.curve, self.utility = curve, utility
        self.base = float(batch_utilities(curve, utility, counts[:, None])[0])
        # adding the zero off-diagonal leaves every other count's bits as they are
        self._steps = np.diag(step_cost / cost.costs)
        self._candidates = np.empty_like(self._steps)
        self.utilities = None

    def evaluate(self, counts: np.ndarray) -> np.ndarray:
        np.add(counts[:, None], self._steps, out=self._candidates)
        self.utilities = batch_utilities(self.curve, self.utility, self._candidates)
        return self.utilities

    def take(self, group: int) -> np.ndarray:
        u = self.utilities
        # from a -inf base (log transform, a group at zero performance) a
        # finite candidate gains inf and a -inf one has no defined gain:
        # NaN, which -inf - -inf gives too, but with a RuntimeWarning
        if self.base > -np.inf:
            gains = u - self.base
        else:
            gains = np.where(u > -np.inf, np.inf, np.nan)
        self.base = float(u[group])
        return gains


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
    final counts and the budget left unspent.  A step of zero or less is a
    DomainError, and more than ``MAX_STEPS`` steps a CapacityError.
    """
    counts = start.counts.copy()
    spent = cost.spend(start)
    limit = cost.spend_limit
    if not step_cost > 0:
        raise DomainError(f"step_cost must be positive, got {step_cost}")
    if (limit - spent) / step_cost > MAX_STEPS:
        raise CapacityError(f"step_cost {step_cost:g} takes over {MAX_STEPS} steps")
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
    """Buy from the group with the largest exact marginal gain.

    The choice compares the candidates' utilities, not their gains, so it
    does not depend on the base: from a -inf base every gain of a finite
    candidate is inf, and only the utilities still rank them.
    """
    s = config.step_cost
    trace = GreedyTrace()
    scan = _CandidateScan(curve, utility, cost, s, start.counts)

    def choose(counts, step):
        return int(np.argmax(scan.evaluate(counts)))

    def record(counts, group, step):
        marginals = scan.take(group)
        trace.records.append(
            StepRecord(step=step, group=group, spend=s, counts=counts.copy(),
                       marginal_est=marginals, marginal_true=marginals,
                       utility=scan.base)
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
    scan = (None if true_curve is None
            else _CandidateScan(true_curve, utility, cost, s, start.counts))

    history = PerformanceHistory(k)
    perf = _observe(env, start.counts)
    for g in range(k):
        history.append(g, start.counts[g], perf[g])

    trace = GreedyTrace()
    priorities = None

    def choose(counts, step):
        nonlocal priorities
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

        if scan is not None:
            scan.evaluate(counts)
        return group

    def record(counts, group, step):
        marg_true = np.full(k, np.nan) if scan is None else scan.take(group)
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


def equal_allocation(cost: CostModel) -> Allocation:
    """The same count from every group, spending the whole budget."""
    per_group = cost.budget / float(cost.costs.sum())
    return Allocation(np.full(cost.num_groups, per_group))


def representative_allocation(cost: CostModel, pop_shares,
                              step_cost: float | None = None) -> Allocation:
    """Counts proportional to ``pop_shares``, spending the whole budget;
    with a ``step_cost``, rounded to whole batches."""
    shares = np.asarray(pop_shares, dtype=float)
    if shares.size != cost.num_groups:
        raise DomainError(f"pop_shares must have {cost.num_groups} entries")
    if np.any(shares < 0) or shares.sum() <= 0:
        raise DomainError("pop_shares must be non-negative with a positive sum")
    counts = shares * cost.budget / float(cost.costs @ shares)
    if step_cost is None:
        return Allocation(counts)
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
    return Allocation(rounded)


def parity_allocation(source, cost: CostModel, step_cost: float,
                      start_alloc: Allocation | None = None) -> Allocation:
    """Buy from the group that currently measures worst, read from
    ``source`` (an analytic curve or an environment with ``observe``)."""
    start = start_alloc if start_alloc is not None else Allocation.zeros(cost.num_groups)
    if isinstance(source, AnalyticCurve):
        measure = source.perf_values
    else:
        measure = partial(_observe, source)
    counts, _ = _spend_budget(cost, start, step_cost,
                              lambda counts, step: int(np.argmin(measure(counts))))
    return Allocation(counts)
