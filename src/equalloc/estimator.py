"""Noisy marginal-gain estimation from per-group performance history.

The estimator fits a local linear regression of measured performance on
sample count over a short trailing window, then draws a slope from a
normal distribution truncated to [0, inf).  The draw injects
Thompson-style exploration: groups whose slopes are uncertain still get
sampled occasionally, while the truncation encodes the prior that more
data never hurts.

Both steps are scalar arithmetic on Python floats: the fit sums at most
``window`` points in order, and the draw is the closed-form inverse CDF
of the truncated normal applied to one ``random()`` from the caller's
generator, the same double as the ``uniform()`` scipy's ``truncnorm.rvs``
would take.  A history keeps each group's fit until the group grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri, ndtri_exp

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


class PerformanceHistory:
    """Per-group log of (sample count, measured performance) pairs.

    Counts must be strictly increasing within a group; a run owns its
    history and appends one record per measurement.  A group's slope fit
    (see :meth:`fit`) is kept until the group's next ``append``.
    """

    def __init__(self, num_groups: int):
        if num_groups < 1:
            raise DomainError("need at least one group")
        self._records: list[list[tuple[float, float]]] = [
            [] for _ in range(num_groups)
        ]
        # per group: (window, se_floor, slope, se) of the last fit, or None
        self._fits: list[tuple | None] = [None] * num_groups

    def append(self, group: int, n: float, perf: float) -> None:
        records = self._records[group]
        if records and n <= records[-1][0]:
            raise DomainError(
                f"sample counts must increase within group {group}: "
                f"{n} after {records[-1][0]}"
            )
        records.append((float(n), float(perf)))
        self._fits[group] = None

    def fit(self, group: int, window: int, se_floor: float = 0.0) -> tuple[float, float]:
        """:func:`fit_local_slope` of the group's records, kept until the
        group's next ``append``."""
        kept = self._fits[group]
        if kept is None or kept[:2] != (window, se_floor):
            kept = self._fits[group] = (
                window, se_floor, *fit_local_slope(self._records[group], window, se_floor))
        return kept[2:]

    def count(self, group: int) -> int:
        return len(self._records[group])


class MarginalEstimate(NamedTuple):
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
    if not isinstance(records, list):
        records = np.array(list(records), dtype=float).reshape(-1, 2).tolist()
    pts = records[-window:]
    n_pts = len(pts)
    if n_pts < 2:
        raise InsufficientHistoryError(group=-1, have=n_pts, need=2)
    # Sums run in order, as NumPy sums fewer than eight values.
    x = [float(p[0]) for p in pts]
    y = [float(p[1]) for p in pts]
    xm = ym = 0.0
    for xi, yi in zip(x, y):
        xm += xi
        ym += yi
    xm /= n_pts
    ym /= n_pts
    dx = [xi - xm for xi in x]
    sxx = sxy = 0.0
    for dxi, yi in zip(dx, y):
        sxx += dxi * dxi
        sxy += dxi * (yi - ym)
    if sxx == 0.0:
        raise DegenerateDesignError("sample counts have zero variance in window")
    slope = sxy / sxx
    if n_pts > 2:
        ssr = 0.0
        for dxi, yi in zip(dx, y):
            r = yi - (ym + slope * dxi)
            ssr += r * r
        se = math.sqrt(ssr / (n_pts - 2) / sxx)
    else:
        se = 0.0
    return slope, max(se, se_floor)


def _truncated_normal_ppf(q: float, a: float) -> float:
    """Quantile ``q`` of the standard normal truncated to [a, inf).

    Solves ``Phi(x) = Phi(a) + q * Phi(-a)``, each branch in the form that
    keeps full precision: the upper-tail log form for ``a >= 0``, the
    complement ``Phi(-x) = (1 - q) * Phi(-a)`` when x lands at or above 0,
    and log space below 0, where ``Phi(a)`` may underflow.
    """
    if a >= 0:
        x = -float(ndtri_exp(math.log1p(-q) + float(log_ndtr(-a))))
    else:
        upper = (1.0 - q) * float(ndtr(-a))
        if upper <= 0.5:
            x = -float(ndtri(upper))
        else:
            log_q = math.log(q) if q > 0.0 else -math.inf
            x = float(ndtri_exp(np.logaddexp(log_ndtr(a), log_q + log_ndtr(-a))))
    return max(x, a)


def draw_truncated_normal(mean: float, sd: float, rng_seed) -> float:
    """One draw from N(mean, sd^2) conditioned on [0, inf).

    The draw is the inverse CDF of one ``random()`` from the generator,
    the same double ``uniform()`` returns, so it consumes the same random
    stream as scipy's ``truncnorm.rvs`` and agrees with its draws to
    about 1e-11 relative.  ``sd == 0`` degenerates to ``max(mean, 0)``
    and draws nothing.  ``rng_seed`` may be an integer seed or a
    ``numpy.random.Generator``.
    """
    if sd < 0:
        raise DomainError("sd must be non-negative")
    if sd == 0:
        return max(float(mean), 0.0)
    q = np.random.default_rng(rng_seed).random()
    x = _truncated_normal_ppf(q, (0.0 - mean) / sd)
    return max(float(mean + sd * x), 0.0)


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

    Composes the group's local slope fit (kept by the history until the
    group grows) with a truncated-normal draw; the returned priority is
    ``draw * step_cost / cost_k``.  Raises
    :class:`InsufficientHistoryError` when the group has fewer than
    ``min_points`` records; the caller must then sample that group next.
    """
    if step_cost <= 0:
        raise DomainError("step_cost must be positive")
    have = history.count(group)
    if have < min_points:
        raise InsufficientHistoryError(group=group, have=have, need=min_points)
    slope, se = history.fit(group, window, se_floor)
    draw = draw_truncated_normal(slope, se, rng_seed)
    return MarginalEstimate(slope, se, draw, draw * step_cost / float(cost.costs[group]))
