"""Analytic group-level learning curves.

A curve maps an allocation ``n`` to expected group performances via
``M_k = f(offset + sum_j gamma[k, j] * n_j)`` for a concave nondecreasing
``f``.  They are the ground truth of the analytic experiments, and
:func:`batch_utilities` evaluates the utility of many allocations on one
curve at once, for the grid oracle and the true-curve greedy loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Allocation, PerformanceVector, UtilitySpec, utility_kernel
from .errors import DomainError

__all__ = ["AnalyticCurve", "eval_perf", "batch_utilities"]

_FORMS = ("sqrt", "log1p", "power")


@dataclass(frozen=True)
class AnalyticCurve:
    """Concave analytic learning curve with cross-group data weights.

    ``gamma[k, j]`` is the weight of group j's samples toward group k's
    performance; each row needs at least one positive entry.  ``form``
    picks the concave transform: sqrt, log1p, or ``x**power_exponent``
    with an exponent in (0, 1).
    """

    gamma: np.ndarray
    form: str = "sqrt"
    power_exponent: float = 0.5
    offset: float = 0.0

    def __post_init__(self):
        g = np.array(self.gamma, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise DomainError(f"gamma must be square, got shape {g.shape}")
        if np.any(g < 0) or not np.all(np.isfinite(g)):
            raise DomainError("gamma entries must be finite and non-negative")
        if not np.all(g.max(axis=1) > 0):
            raise DomainError("every gamma row needs at least one positive entry")
        if self.form not in _FORMS:
            raise DomainError(f"unknown curve form {self.form!r}")
        if self.form == "power" and not 0.0 < self.power_exponent < 1.0:
            raise DomainError("power_exponent must lie in (0, 1)")
        if self.offset < 0:
            raise DomainError("offset must be non-negative")
        g.flags.writeable = False
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "offset", float(self.offset))

    @property
    def num_groups(self) -> int:
        return self.gamma.shape[0]

    def transform(self, x: np.ndarray) -> np.ndarray:
        """Apply the concave form f elementwise."""
        if self.form == "sqrt":
            return np.sqrt(x)
        if self.form == "log1p":
            return np.log1p(x)
        return np.power(x, self.power_exponent)

    def perf_values(self, counts: np.ndarray) -> np.ndarray:
        """Raw performance array for a counts vector (no type wrapping)."""
        return self.transform(self.offset + self.gamma @ counts)


def eval_perf(curve: AnalyticCurve, alloc: Allocation) -> PerformanceVector:
    """Expected group performances for an allocation."""
    if alloc.num_groups != curve.num_groups:
        raise DomainError(
            f"allocation has {alloc.num_groups} groups, curve has {curve.num_groups}"
        )
    return PerformanceVector(curve.perf_values(alloc.counts))


def batch_utilities(
    curve: AnalyticCurve,
    utility: UtilitySpec,
    counts_matrix: np.ndarray,
) -> np.ndarray:
    """Utilities for many allocations at once; ``counts_matrix`` is K x P.

    With the log transform, allocations where any performance is
    non-positive evaluate to -inf (the limit of the transform) instead of
    raising, so vectorized scans can skip them.
    """
    return utility_kernel(utility, curve.perf_values(counts_matrix))
