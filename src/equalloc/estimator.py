"""Noisy marginal-gain estimation from per-group performance history.

The estimator fits a local linear regression of measured performance on
sample count over a short trailing window, then draws a slope from a
normal distribution truncated to [0, inf).  The draw injects
Thompson-style exploration: groups whose slopes are uncertain still get
sampled occasionally, while the truncation encodes the prior that more
data never hurts.

Both steps are scalar arithmetic on Python floats: the fit sums at most
``window`` points in order, and the draw is the inverse CDF of the
truncated normal applied to one ``random()`` from the caller's generator,
the same double as the ``uniform()`` scipy's ``truncnorm.rvs`` would take.
The normal CDF and quantile are Python's ``math.erfc`` and
``statistics.NormalDist``; where the tail underflows, Newton's method on
the Mills ratio finds the quantile.  A history holds the run's settings
and keeps each group's fit until the group grows.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import DegenerateDesignError, DomainError, InsufficientHistoryError

__all__ = [
    "PerformanceHistory",
    "EstimatorSettings",
    "fit_local_slope",
    "draw_truncated_normal",
    "estimate_marginal",
]


@dataclass(frozen=True)
class EstimatorSettings:
    """Tunables for the local-slope estimator; a run's history holds them.

    ``window`` is the number of trailing measurements regressed over;
    ``se_floor`` keeps a minimum of exploration noise when the regression
    fits exactly (set it to 0 for deterministic behavior); ``min_points``
    is the record count below which a group must be force-explored.
    """

    window: int = 5
    se_floor: float = 1e-6
    min_points: int = 2

    def __post_init__(self):
        if self.window < 2:
            raise DomainError("window must be at least 2")
        if self.se_floor < 0:
            raise DomainError("se_floor must be non-negative")
        if self.min_points < 2:
            raise DomainError("min_points must be at least 2")


class PerformanceHistory:
    """Per-group log of (sample count, measured performance) pairs, read
    with one run's :class:`EstimatorSettings`.

    Counts must be strictly increasing within a group; a run owns its
    history and appends one record per measurement.  A group's slope fit
    (see :meth:`fit`) is kept until the group's next ``append``.
    """

    def __init__(self, num_groups: int, settings: EstimatorSettings = EstimatorSettings()):
        if num_groups < 1:
            raise DomainError("need at least one group")
        self.settings = settings
        self._records: list[list[tuple[float, float]]] = [[] for _ in range(num_groups)]
        # per group: (slope, se) of the last fit, or None
        self._fits: list[tuple[float, float] | None] = [None] * num_groups

    def append(self, group: int, n: float, perf: float) -> None:
        records = self._records[group]
        if records and n <= records[-1][0]:
            raise DomainError(
                f"sample counts must increase within group {group}: "
                f"{n} after {records[-1][0]}"
            )
        records.append((float(n), float(perf)))
        self._fits[group] = None

    def fit(self, group: int) -> tuple[float, float]:
        """:func:`fit_local_slope` of the group's records at the settings'
        window and floor, kept until the group's next ``append``."""
        if self._fits[group] is None:
            s = self.settings
            self._fits[group] = fit_local_slope(self._records[group], s.window, s.se_floor)
        return self._fits[group]

    def count(self, group: int) -> int:
        return len(self._records[group])


def fit_local_slope(records, window: int, se_floor: float = 0.0) -> tuple[float, float]:
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
    x, y = [], []
    xm = ym = 0.0
    for p in pts:
        xi, yi = float(p[0]), float(p[1])
        x.append(xi)
        y.append(yi)
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


_inv_cdf = NormalDist().inv_cdf  # Wichura's AS241, to double precision
_SQRT_HALF = math.sqrt(0.5)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_FLOAT_MAX = sys.float_info.max
_FLOAT_MIN = sys.float_info.min  # the smallest normal double


def _mills(t: float, d: float = 0.0) -> tuple[float, float, float]:
    """The Mills ratio m = phi / Phi(-.) at t and at t + d, and the divided
    difference ``(m(t + d) - m(t)) / d``.  Each ratio is its continued
    fraction t + 1/(t + 2/(t + ...)), exact to double precision for t >= 20
    at eight terms; the divided difference follows the fractions'
    recurrence, so it does not cancel however small d is."""
    f, g, slope = t, t + d, 1.0
    for k in range(8, 0, -1):
        slope = 1.0 - k * slope / (f * g)
        f, g = t + k / f, t + d + k / g
    return f, g, slope


def _truncated_normal_ppf(q: float, a: float) -> tuple[float, float | None]:
    """Quantile ``q`` of the standard normal truncated to [a, inf), and its
    offset ``x - a`` where that is known exactly, else None.

    Solves ``Phi(-x) = (1 - q) * Phi(-a)`` from the smaller tail of x:
    ``Phi(x) = Phi(a) + q * Phi(-a)`` when x lands below 0, and the upper
    tail up to a = 36, where that tail is still a normal double for every
    q.  Past that, the offset ``d = x - a`` solves the Mills-ratio form
    ``d * (d / 2 + a) + log1p(d * slope / mills(a)) = -log(1 - q)``, with
    ``slope`` the Mills ratio's divided difference over [a, x], which
    never squares a nor cancels.  Its left side is convex in d, so
    Newton's method falls to the root from ``-log(1 - q) / a``, at most
    1.5% above it; each step squares the relative error and scales it by
    under 0.014, so three steps reach double precision.  ``q = 0`` is the bound itself,
    at offset 0.  Only a subnormal q, which ``random()`` never returns, can
    make ``Phi(a) + q * Phi(-a)`` subnormal; that lower tail is solved in log
    space (see :func:`_log_lower_quantile`).
    """
    if q == 0.0:
        return a, 0.0
    if a > 36.0:
        e = -math.log1p(-q)
        d = e / a
        for _ in range(3):
            mills_a, mills_x, slope = _mills(a, d)
            d -= (d * (0.5 * d + a) + math.log1p(d * slope / mills_a) - e) / mills_x
        return a + d, d
    tail = 0.5 * math.erfc(a * _SQRT_HALF)  # Phi(-a)
    upper = (1.0 - q) * tail
    if upper <= 0.5:
        return max(-_inv_cdf(upper), a), None
    lower = 0.5 * math.erfc(-a * _SQRT_HALF) + q * tail  # Phi(a) + q Phi(-a)
    x = _inv_cdf(lower) if lower >= _FLOAT_MIN else _log_lower_quantile(q, a)
    return max(x, a), None


def _log_lower_quantile(q: float, a: float) -> float:
    """The root x of ``log Phi(x) = L``, ``L = log(Phi(a) + q)``, for a
    subnormal sum, so a < -37.5 and ``Phi(-a)`` is 1.  Below t = -20,
    ``log Phi(t) = -t**2 / 2 - log(sqrt(2 pi) * mills(-t))`` keeps every bit,
    and its slope is ``mills(-t)``.  It is concave, so Newton's method climbs
    to the root from ``-sqrt(-2 L)`` (or a, if higher), at most 0.13 under
    it; each step squares the error and scales it by under 0.014, so three
    steps reach double precision."""
    def log_ndtr(t):
        return -0.5 * t * t - _LOG_SQRT_2PI - math.log(_mills(-t)[0])

    lo, hi = sorted((log_ndtr(a), math.log(q)))  # log Phi(a) is -inf once a * a overflows
    target = hi + math.log1p(math.exp(lo - hi))
    x = max(a, -math.sqrt(-2.0 * target))
    for _ in range(3):
        x -= (log_ndtr(x) - target) / _mills(-x)[0]
    return x


def draw_truncated_normal(mean: float, sd: float, rng_seed) -> float:
    """One draw from N(mean, sd^2) conditioned on [0, inf).

    The draw is the inverse CDF of one ``random()`` from the generator,
    the same double ``uniform()`` returns, so it consumes the same random
    stream as scipy's ``truncnorm.rvs`` and agrees with its draws to
    about 1e-11 relative up to ``-mean / sd = 36``.  Past that the draw is
    ``sd`` times the quantile's exact offset from the bound, since
    ``mean + sd * x`` would cancel to the few low bits that hold it.
    ``sd == 0`` gives ``max(mean, 0)`` and draws nothing.  ``rng_seed``
    may be an integer seed or a ``numpy.random.Generator``.
    """
    if sd < 0:
        raise DomainError("sd must be non-negative")
    if sd == 0:
        return max(float(mean), 0.0)
    q = np.random.default_rng(rng_seed).random()
    # A bound past the largest double clamps to it, where the offset is
    # below 37 / a < 2e-307.
    x, offset = _truncated_normal_ppf(q, min((0.0 - mean) / sd, _FLOAT_MAX))
    return max(float(mean + sd * x if offset is None else sd * offset), 0.0)


def estimate_marginal(history: PerformanceHistory, group: int, step_cost: float, cost,
                      rng) -> float:
    """Priority of buying the group one more batch: ``draw * step_cost / cost_k``,
    the gain of the batch's samples at a slope drawn from ``rng`` (the run's
    generator) around the group's local fit, which the history keeps until
    the group grows.  Raises :class:`InsufficientHistoryError` when the group
    has fewer than the history's ``min_points`` records.
    """
    if step_cost <= 0:
        raise DomainError("step_cost must be positive")
    have = history.count(group)
    if have < history.settings.min_points:
        raise InsufficientHistoryError(group=group, have=have,
                                       need=history.settings.min_points)
    slope, se = history.fit(group)
    return draw_truncated_normal(slope, se, rng) * step_cost / float(cost.costs[group])
