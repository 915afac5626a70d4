"""Noisy marginal-gain estimation from per-group performance history.

The estimator fits a local linear regression of measured performance on
sample count over a short trailing window, then draws a slope from a
normal distribution truncated to [0, inf).  The draw injects
Thompson-style exploration: groups whose slopes are uncertain still get
sampled occasionally, while the truncation encodes the prior that more
data never hurts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import truncnorm

from .errors import DegenerateDesignError, DomainError, InsufficientHistoryError

__all__ = [
    "PerformanceHistory",
    "MarginalEstimate",
    "EstimatorSettings",
    "fit_local_slope",
    "draw_truncated_normal",
    "estimate_marginal",
]

DEFAULT_WINDOW = 5
DEFAULT_SE_FLOOR = 1e-6
DEFAULT_MIN_POINTS = 2


@dataclass(frozen=True)
class EstimatorSettings:
    """Tunables for the local-slope estimator.

    ``window`` is the number of trailing measurements regressed over;
    ``se_floor`` keeps a minimum of exploration noise when the regression
    fits exactly (set it to 0 for deterministic behavior); ``min_points``
    is the record count below which a group must be force-explored.
    """

    window: int = DEFAULT_WINDOW
    se_floor: float = DEFAULT_SE_FLOOR
    min_points: int = DEFAULT_MIN_POINTS

    def __post_init__(self):
        if self.window < 2:
            raise DomainError("window must be at least 2")
        if self.se_floor < 0:
            raise DomainError("se_floor must be non-negative")
        if self.min_points < 2:
            raise DomainError("min_points must be at least 2")

    def to_dict(self) -> dict:
        return {
            "window": self.window,
            "se_floor": self.se_floor,
            "min_points": self.min_points,
        }

    @staticmethod
    def from_dict(doc: dict) -> "EstimatorSettings":
        return EstimatorSettings(
            window=doc.get("window", DEFAULT_WINDOW),
            se_floor=doc.get("se_floor", DEFAULT_SE_FLOOR),
            min_points=doc.get("min_points", DEFAULT_MIN_POINTS),
        )


class PerformanceHistory:
    """Per-group log of (sample count, measured performance) pairs.

    Counts must be strictly increasing within a group; a run owns its
    history and appends one record per measurement.
    """

    def __init__(self, num_groups: int):
        if num_groups < 1:
            raise DomainError("need at least one group")
        self._records: list[list[tuple[float, float]]] = [
            [] for _ in range(num_groups)
        ]

    @property
    def num_groups(self) -> int:
        return len(self._records)

    def append(self, group: int, n: float, perf: float) -> None:
        records = self._records[group]
        if records and n <= records[-1][0]:
            raise DomainError(
                f"sample counts must increase within group {group}: "
                f"{n} after {records[-1][0]}"
            )
        records.append((float(n), float(perf)))

    def count(self, group: int) -> int:
        return len(self._records[group])

    def records(self, group: int) -> list[tuple[float, float]]:
        return list(self._records[group])

    def window(self, group: int, m: int) -> tuple[np.ndarray, np.ndarray]:
        """The most recent min(m, available) records as (n, perf) arrays."""
        recent = self._records[group][-m:]
        arr = np.array(recent, dtype=float).reshape(-1, 2)
        return arr[:, 0], arr[:, 1]


@dataclass(frozen=True)
class MarginalEstimate:
    """One group's estimated gain for the next batch.

    ``priority`` is the truncated-normal slope draw times the number of
    samples the batch buys (step_cost / cost_k), i.e. the expected
    performance gain bought by the next batch of spend.
    """

    slope_hat: float
    slope_se: float
    draw: float
    priority: float


def fit_local_slope(
    records,
    window: int,
    se_floor: float = 0.0,
) -> tuple[float, float]:
    """OLS slope of performance on sample count over the trailing window.

    Uses the last ``min(window, available)`` points.  The slope standard
    error comes from the usual residual-variance formula; with fewer than
    three points there are no residual degrees of freedom, so the SE is 0
    before flooring.

    Raises :class:`InsufficientHistoryError` with fewer than two points
    and :class:`DegenerateDesignError` when the counts do not vary.
    """
    pts = np.array(list(records), dtype=float).reshape(-1, 2)
    if pts.shape[0] > window:
        pts = pts[-window:]
    n_pts = pts.shape[0]
    if n_pts < 2:
        raise InsufficientHistoryError(group=-1, have=n_pts, need=2)
    x, y = pts[:, 0], pts[:, 1]
    sxx = float(np.sum((x - x.mean()) ** 2))
    if sxx == 0.0:
        raise DegenerateDesignError("sample counts have zero variance in window")
    slope = float(np.sum((x - x.mean()) * (y - y.mean())) / sxx)
    if n_pts > 2:
        resid = y - (y.mean() + slope * (x - x.mean()))
        sigma2 = float(np.sum(resid**2) / (n_pts - 2))
        se = float(np.sqrt(sigma2 / sxx))
    else:
        se = 0.0
    return slope, max(se, se_floor)


def draw_truncated_normal(mean: float, sd: float, rng_seed) -> float:
    """One draw from N(mean, sd^2) conditioned on [0, inf).

    ``sd == 0`` degenerates to ``max(mean, 0)``.  ``rng_seed`` may be an
    integer seed or a ``numpy.random.Generator``.
    """
    if sd < 0:
        raise DomainError("sd must be non-negative")
    if sd == 0:
        return max(float(mean), 0.0)
    a = (0.0 - mean) / sd
    return float(truncnorm.rvs(a, np.inf, loc=mean, scale=sd,
                               random_state=np.random.default_rng(rng_seed)))


def estimate_marginal(
    history: PerformanceHistory,
    group: int,
    step_cost: float,
    cost,
    window: int = DEFAULT_WINDOW,
    se_floor: float = DEFAULT_SE_FLOOR,
    rng_seed=0,
    min_points: int = DEFAULT_MIN_POINTS,
) -> MarginalEstimate:
    """Estimated utility-relevant gain of buying the group one more batch.

    Composes the local slope fit with a truncated-normal draw; the
    returned priority is ``draw * step_cost / cost_k``.  Raises
    :class:`InsufficientHistoryError` when the group has fewer than
    ``min_points`` records; the caller must then sample that group next.
    """
    if step_cost <= 0:
        raise DomainError("step_cost must be positive")
    have = history.count(group)
    if have < min_points:
        raise InsufficientHistoryError(group=group, have=have, need=min_points)
    x, y = history.window(group, window)
    slope, se = fit_local_slope(np.column_stack([x, y]), window=window,
                                se_floor=se_floor)
    draw = draw_truncated_normal(slope, se, rng_seed)
    cost_k = float(cost.costs[group])
    return MarginalEstimate(
        slope_hat=slope,
        slope_se=se,
        draw=draw,
        priority=draw * step_cost / cost_k,
    )
