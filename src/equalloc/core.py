"""Core value types: allocations, cost models, performances, utilities.

Everything here is an immutable value object; the operations are pure
functions of their inputs, so they are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DomainError

__all__ = [
    "Allocation",
    "CostModel",
    "PerformanceVector",
    "UtilitySpec",
    "FEASIBILITY_RTOL",
    "check_feasible",
    "check_groups",
    "utility_eval",
    "utility_kernel",
    "realize_allocation",
]

# Relative slack so that allocations costing exactly the budget stay
# feasible under floating-point accumulation.
FEASIBILITY_RTOL = 1e-9


def _as_readonly(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)  # copy: freezing must not alias the input
    if arr.ndim != 1:
        raise DomainError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size < 1:
        raise DomainError(f"{name} must have at least one entry")
    if not np.isfinite(arr).all():
        raise DomainError(f"{name} contains non-finite entries")
    arr.flags.writeable = False
    return arr


def _check_k(expected: int, actual: int, what: str) -> None:
    if expected != actual:
        raise DimensionMismatchError(expected, actual, what)


def check_groups(reference, /, **parts) -> None:
    """Raise :class:`DimensionMismatchError` unless each part (a cost model,
    utility, allocation, curve or environment) has the number of groups of
    ``reference`` (a curve or a cost model)."""
    for what, part in parts.items():
        _check_k(reference.num_groups, part.num_groups, what)


@dataclass(frozen=True)
class Allocation:
    """Per-group sample counts; fractional entries are allowed.

    A fractional count ``u + v`` (``0 < v < 1``) means: collect ``u``
    samples, then one more with probability ``v``.  See
    :func:`realize_allocation`.
    """

    counts: np.ndarray

    def __post_init__(self):
        arr = _as_readonly(self.counts, "counts")
        if (arr < 0).any():
            raise DomainError("counts must be non-negative")
        object.__setattr__(self, "counts", arr)

    @property
    def num_groups(self) -> int:
        return self.counts.size

    @staticmethod
    def zeros(num_groups: int) -> "Allocation":
        return Allocation(np.zeros(num_groups))


@dataclass(frozen=True)
class CostModel:
    """Per-sample costs and the total acquisition budget.

    The budget may be zero, in which case only the empty allocation is
    feasible.
    """

    costs: np.ndarray
    budget: float

    def __post_init__(self):
        arr = _as_readonly(self.costs, "costs")
        if (arr <= 0).any():
            raise DomainError("costs must be strictly positive")
        if not np.isfinite(self.budget) or self.budget < 0:
            raise DomainError("budget must be a non-negative finite number")
        object.__setattr__(self, "costs", arr)
        object.__setattr__(self, "budget", float(self.budget))

    @property
    def num_groups(self) -> int:
        return self.costs.size

    @property
    def spend_limit(self) -> float:
        """The most an allocation may cost: the budget plus a relative slack
        of ``FEASIBILITY_RTOL``, so exact-budget allocations survive
        floating-point accumulation."""
        return self.budget + FEASIBILITY_RTOL * max(self.budget, 1.0)

    def spend(self, alloc: Allocation) -> float:
        """Total cost of an allocation."""
        _check_k(self.num_groups, alloc.num_groups, "allocation")
        return float(self.costs @ alloc.counts)


@dataclass(frozen=True)
class PerformanceVector:
    """Group-level expected model performances, one entry per group."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_readonly(self.values, "values"))

    @property
    def num_groups(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class UtilitySpec:
    """Scalar preference over the vector of group performances.

    Evaluates ``sum_k a_k * t(M_k) - b * sum_k |t(M_k) - mean(t(M))|``
    where ``t`` is the identity or elementwise log transform, with an
    optional division by ``sum_k a_k``, which ``weight_total`` holds.  The
    parity penalty sums the per-group deviation terms over k.  Under the
    log transform a group with ``a_k = 0`` and no penalty adds 0, so its
    performance may be zero; ``log_counted`` masks the groups whose
    performance must be positive (None for all of them).
    """

    weights: np.ndarray
    parity_penalty: float = 0.0
    transform: str = "identity"
    normalize: bool = False

    def __post_init__(self):
        arr = _as_readonly(self.weights, "weights")
        if (arr < 0).any():
            raise DomainError("weights must be non-negative")
        if not (arr > 0).any():
            raise DomainError("at least one weight must be positive")
        if self.transform not in ("identity", "log"):
            raise DomainError(f"unknown transform {self.transform!r}")
        if not np.isfinite(self.parity_penalty) or self.parity_penalty < 0:
            raise DomainError("parity_penalty must be non-negative")
        object.__setattr__(self, "weights", arr)
        object.__setattr__(self, "parity_penalty", float(self.parity_penalty))
        # summed once for the kernel's normalising division; not a field
        object.__setattr__(self, "weight_total", arr.sum())
        # decided once, so that the kernel masks only where a group is left out
        counted = None
        if self.transform == "log" and self.parity_penalty == 0 and not arr.all():
            counted = arr > 0
        object.__setattr__(self, "log_counted", counted)

    @property
    def num_groups(self) -> int:
        return self.weights.size

    @property
    def is_concave_monotone(self) -> bool:
        """True when the utility is concave and nondecreasing in M."""
        return self.parity_penalty == 0.0


def check_feasible(alloc: Allocation, cost: CostModel) -> bool:
    """True iff the allocation's total cost is within budget, up to
    :attr:`CostModel.spend_limit`."""
    return cost.spend(alloc) <= cost.spend_limit


def utility_kernel(spec: UtilitySpec, perf: np.ndarray) -> np.ndarray:
    """Utilities of the performance columns of a K x P matrix (or one K-vector).

    The one implementation of the utility formula.  Under the log
    transform a column with a non-positive performance in a group of
    ``spec.log_counted`` evaluates to -inf, the limit of the transform, so
    vectorized scans can skip such points.
    """
    log = spec.transform == "log"
    if log:
        valid = perf > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(valid, np.log(perf), 0.0)  # finite: no inf - inf
    else:
        t = perf
    u = spec.weights @ t  # like dev below, an array made here: perf is never written
    if spec.parity_penalty > 0:
        dev = t - t.mean(axis=0, keepdims=True)
        u -= spec.parity_penalty * np.abs(dev, out=dev).sum(axis=0)
    if spec.normalize:
        u /= spec.weight_total
    if not log:
        return u
    counted = valid if spec.log_counted is None else valid[spec.log_counted]
    return np.where(counted.all(axis=0), u, -np.inf)


def utility_eval(spec: UtilitySpec, perf: PerformanceVector) -> float:
    """Evaluate the utility of a performance vector.

    With ``parity_penalty == 0`` and the identity transform this is a
    plain weighted sum (a weighted mean when ``normalize`` is set).
    Raises :class:`DomainError` where :func:`utility_kernel` gives -inf
    under the log transform: a non-positive performance that counts.
    """
    _check_k(spec.num_groups, perf.num_groups, "performance vector")
    u = float(utility_kernel(spec, perf.values))
    if u == -np.inf and spec.transform == "log":
        raise DomainError("log transform requires strictly positive performances")
    return u


def realize_allocation(alloc: Allocation, rng_seed: int) -> np.ndarray:
    """Round a fractional allocation to integer counts, probabilistically.

    Entry k becomes ``floor(n_k) + Bernoulli(frac(n_k))``, so its
    expectation over seeds equals ``n_k``.  Deterministic given the seed.
    """
    rng = np.random.default_rng(rng_seed)
    base = np.floor(alloc.counts)
    frac = alloc.counts - base
    extra = rng.random(alloc.num_groups) < frac
    return (base + extra).astype(int)
