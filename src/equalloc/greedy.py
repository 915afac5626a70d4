"""Sequential greedy allocation and baseline allocations.

At each step the greedy loop spends a fixed amount ``s`` on the group
whose next batch is expected to raise utility the most, judged either by
the true analytic curve or by the noisy history-based estimator.  It
stops as soon as another step would break the budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .core import Allocation, CostModel, UtilitySpec, check_groups, utility_kernel
from .curves import AnalyticCurve, batch_utilities
from .errors import CapacityError, DomainError, EqualLocError, UnsupportedUtilityError
from .estimator import EstimatorSettings, PerformanceHistory, estimate_marginal

__all__ = [
    "GreedyConfig",
    "StepRecord",
    "GreedyTrace",
    "run_greedy",
    "check_run",
    "check_linear",
    "equal_allocation",
    "representative_allocation",
    "parity_allocation",
]

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


class StepRecord(NamedTuple):
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
    """Ordered step records plus the budget left unspent at the end.  A run
    keeps only what its choices need; ``build`` makes the records from that
    on first read.  ``len`` (the step count) and ``final_utility`` (the last
    record's ``utility``, None after no step) build nothing."""

    steps: int = 0
    residual_budget: float = 0.0
    final_utility: float | None = None
    build: Callable[[], list[StepRecord]] = field(default=list, repr=False, compare=False)

    @cached_property
    def records(self) -> list[StepRecord]:
        return self.build()

    def __len__(self) -> int:
        return self.steps

    def csv_header(self, num_groups: int) -> list[str]:
        cols = ["step", "group", "spend"]
        for name in ("count", "marginal_est", "marginal_true"):
            cols += [f"{name}_{k}" for k in range(num_groups)]
        return cols + ["utility"]

    def csv_rows(self):
        for r in self.records:
            vectors = np.concatenate([r.counts, r.marginal_est, r.marginal_true])
            yield [r.step, r.group, r.spend, *vectors.tolist(), r.utility]


def _gains(u: np.ndarray, base: float) -> np.ndarray:
    """Gains of candidate utilities ``u`` over the utility ``base``.  From a
    -inf base (log transform, a group at zero performance) a finite candidate
    gains inf and a -inf one NaN, as -inf - -inf gives but without its warning."""
    if base > -np.inf:
        return u - base
    return np.where(u > -np.inf, np.inf, np.nan)


class _CandidateScan:
    """Exact utilities of one more batch from each group, from one kernel
    call per step.

    ``base`` is the utility of the start counts.  The scan owns the K
    candidates, column k holding the current counts plus ``sizes[k]`` of
    group k; :meth:`evaluate` scores them as one batch, and
    :meth:`advance` moves them on once a step has bought from a group.
    The chosen candidate's utility is the next step's base, so the new
    counts are never evaluated again.
    """

    def __init__(self, curve, utility, sizes, counts):
        self.curve, self.utility, self.sizes = curve, utility, sizes
        self.base = float(batch_utilities(curve, utility, counts[:, None])[0])
        # row g holds counts[g] everywhere but on the diagonal, and each step
        # adds to it what the loop adds to counts[g], so the bits agree
        self._candidates = counts[:, None] + np.diag(sizes)
        self._rows = list(self._candidates)

    def evaluate(self) -> np.ndarray:
        return batch_utilities(self.curve, self.utility, self._candidates)

    def advance(self, group: int) -> None:
        self._rows[group] += self.sizes[group]


def run_greedy(
    source,
    utility: UtilitySpec,
    cost: CostModel,
    config: GreedyConfig,
) -> tuple[Allocation, GreedyTrace]:
    """Run the sequential greedy allocator until the budget is exhausted.

    ``source`` is an :class:`AnalyticCurve` when
    ``config.marginal_source == "true_curve"``, or an environment when
    using the estimator: ``num_groups`` plus ``perf_values(counts)``, a new
    array per call that must hold one finite value per group (and
    optionally a ``curve`` attribute used to log true marginals).

    Returns the final allocation and the full step-by-step trace, whose
    records are built on first read from what the run kept (see
    :class:`GreedyTrace`).  Any residual budget smaller than one step is
    left unspent and reported on the trace.
    """
    true_curve = config.marginal_source == "true_curve"
    if true_curve and not isinstance(source, AnalyticCurve):
        raise DomainError("true_curve marginals need an AnalyticCurve source")
    start = check_run(cost, config.step_cost, config.start_alloc, utility=utility,
                      source=source)
    run = _run_true_curve if true_curve else _run_estimated
    return run(source, utility, cost, config, start)


def check_run(cost: CostModel, step_cost: float, start: Allocation | None = None,
              **parts) -> Allocation:
    """``start`` (zeros when None), once a run of ``step_cost`` a step from it
    on ``cost`` is known valid: ``start`` and each part (a utility, curve or
    environment) have ``cost``'s group count (else DimensionMismatchError), the
    start and one positive step fit the budget (else DomainError), and the run
    takes at most ``MAX_STEPS`` steps (else CapacityError)."""
    start = Allocation.zeros(cost.num_groups) if start is None else start
    check_groups(cost, start=start, **parts)
    spent = cost.spend(start)
    if spent > cost.spend_limit:
        raise DomainError(f"start {start.counts.tolist()} breaks the budget of {cost.budget:g}")
    if not 0 < step_cost <= cost.spend_limit:
        raise DomainError(f"step_cost {step_cost:g} is outside (0, budget {cost.budget:g}]")
    if (cost.spend_limit - spent) / step_cost > MAX_STEPS:
        raise CapacityError(f"step_cost {step_cost:g} takes over {MAX_STEPS} steps")
    return start


def check_linear(utility: UtilitySpec) -> None:
    """Raise UnsupportedUtilityError unless ``utility`` is linear, as the estimator needs."""
    if utility.transform != "identity" or utility.parity_penalty > 0:
        raise UnsupportedUtilityError("estimator-driven greedy supports only linear utilities")


def _spend_budget(cost: CostModel, start: Allocation, step_cost: float, sizes: np.ndarray,
                  choose, record=None) -> tuple[np.ndarray, float]:
    """The budget-stepping loop shared by every sequential policy.

    Each step spends ``step_cost`` on the group ``choose(counts, step)``
    returns, which buys ``sizes[group]`` (``step_cost / costs[group]``), then
    calls ``record(counts, group, step)`` if given; the loop stops as soon
    as another step would break the budget.  Returns the final counts and
    the budget left unspent.  Its callers check the run first with
    :func:`check_run`, so the loop itself refuses nothing.
    """
    counts = start.counts.copy()
    spent = cost.spend(start)
    limit = cost.spend_limit
    step = 0
    while spent + step_cost <= limit:
        step += 1
        group = choose(counts, step)
        counts[group] += sizes[group]
        spent += step_cost
        if record is not None:
            record(counts, group, step)
    return counts, cost.budget - spent


def _measure(source, counts: np.ndarray) -> np.ndarray:
    """``source.perf_values(counts)``, refused unless a finite K-vector.  The
    shape is tested first, so the finiteness test reads K scalars."""
    perf = source.perf_values(counts)
    if perf.shape != counts.shape or not all(map(math.isfinite, perf.tolist())):
        raise DomainError(f"measurement {perf!r} is not {counts.size} finite values")
    return perf


def _run_true_curve(curve, utility, cost, config, start):
    """Buy from the group with the largest exact marginal gain.

    The choice compares the candidates' utilities, not their gains, so it
    does not depend on the base: from a -inf base every gain of a finite
    candidate is inf, and only the utilities still rank them.  The run keeps
    each step's candidate utilities, and the trace's records replay them.
    """
    s = config.step_cost
    sizes = s / cost.costs
    scan = _CandidateScan(curve, utility, sizes, start.counts)
    utilities = []

    def choose(counts, step):
        u = scan.evaluate()
        utilities.append(u)
        group = int(u.argmax())
        scan.advance(group)
        return group

    def build():
        counts, base, records = start.counts.copy(), scan.base, []
        for step, u in enumerate(utilities, 1):
            group = int(u.argmax())
            gains = _gains(u, base)
            base = float(u[group])
            counts[group] += sizes[group]
            records.append(StepRecord(step, group, s, counts.copy(), gains, gains, base))
        return records

    counts, residual = _spend_budget(cost, start, s, sizes, choose)
    final = float(utilities[-1][utilities[-1].argmax()]) if utilities else None
    return Allocation(counts), GreedyTrace(len(utilities), residual, final, build)


def _run_estimated(env, utility, cost, config, start):
    """Force-explore groups with too few measurements, then buy from the
    group with the largest Thompson-style priority.  The trace's records
    replay each step's group, priorities and observed performances, and only
    then score the true marginals on the environment's ``curve``, if any."""
    check_linear(utility)
    rng = np.random.default_rng(config.seed)
    k = cost.num_groups
    s = config.step_cost
    sizes = s / cost.costs
    true_curve = getattr(env, "curve", None)

    history = PerformanceHistory(k, config.estimator)
    perf = _measure(env, start.counts)
    for g in range(k):
        history.append(g, start.counts[g], perf[g])

    kept = []  # (group, priorities, observed performances) of each step
    priorities = None
    weights, min_points = utility.weights.tolist(), history.settings.min_points
    explored = False  # every group has min_points records; records only grow

    def choose(counts, step):
        nonlocal priorities, explored
        if not explored:
            under = [g for g in range(k) if history.count(g) < min_points]
            if under:
                # Forced exploration: bootstrap the least-measured group.
                priorities = np.full(k, np.nan)
                return min(under, key=lambda g: (history.count(g), g))
            explored = True
        try:
            priorities = np.array([estimate_marginal(history, g, s, cost, rng) * weights[g]
                                   for g in range(k)])
        except EqualLocError as exc:
            raise GreedyStepError(step, exc) from exc
        return int(priorities.argmax())

    def record(counts, group, step):
        perf = _measure(env, counts)
        history.append(group, counts[group], perf[group])
        kept.append((group, priorities, perf))

    def build():
        scan = (None if true_curve is None
                else _CandidateScan(true_curve, utility, sizes, start.counts))
        base = None if scan is None else scan.base
        counts, records = start.counts.copy(), []
        for step, (group, prio, perf) in enumerate(kept, 1):
            if scan is None:
                marg_true = np.full(k, np.nan)
            else:
                u = scan.evaluate()
                marg_true, base = _gains(u, base), float(u[group])
                scan.advance(group)
            counts[group] += sizes[group]
            records.append(StepRecord(step, group, s, counts.copy(), prio, marg_true,
                                      float(utility_kernel(utility, perf))))
        return records

    counts, residual = _spend_budget(cost, start, s, sizes, choose, record)
    final = float(utility_kernel(utility, kept[-1][2])) if kept else None
    return Allocation(counts), GreedyTrace(len(kept), residual, final, build)


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
    if (shares < 0).any() or shares.sum() <= 0:
        raise DomainError("pop_shares must be non-negative with a positive sum")
    with np.errstate(over="ignore", invalid="ignore"):
        counts = shares * cost.budget / float(cost.costs @ shares)
    if not np.isfinite(counts).all():  # an overflow would never leave the shaving loop
        raise DomainError(f"pop_shares give non-finite counts {counts.tolist()}")
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
    ``source``: an analytic curve or an environment, each of which has
    ``num_groups`` and ``perf_values(counts)`` (see :func:`run_greedy`).
    The run is checked by :func:`check_run`, as :func:`run_greedy`'s is."""
    start = check_run(cost, step_cost, start_alloc, source=source)
    counts, _ = _spend_budget(cost, start, step_cost, step_cost / cost.costs,
                              lambda counts, step: int(_measure(source, counts).argmin()))
    return Allocation(counts)
