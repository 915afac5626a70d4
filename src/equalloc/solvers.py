"""Exact and near-exact solvers for the budget-constrained allocation problem.

Two deliberately independent routes:

* :func:`solve_grid` exhaustively scans a regular spend grid and is the
  trusted oracle at K <= 4 (including parity-penalized, non-concave
  utilities), up to ``MAX_GRID_POINTS`` grid points.
* :func:`solve_concave` runs conditional-gradient ascent (Frank-Wolfe
  with away steps) over the budget simplex and scales to larger K, but
  requires a concave nondecreasing utility.

Each returns a :class:`SolveResult` whose ``certificate`` bounds its
distance from the optimum.  :func:`audit_gap`, the one audit entry point,
compares an observed allocation against the best an auditor's own
utility could have achieved with the same budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .core import (
    Allocation,
    CostModel,
    UtilitySpec,
    check_feasible,
    utility_eval,
)
from .curves import AnalyticCurve, batch_utilities, eval_perf
from .errors import CapacityError, DomainError, UnsupportedUtilityError

__all__ = ["SolveResult", "solve_grid", "solve_concave", "audit_gap"]

MAX_GRID_POINTS = 300_000_000
_GRID_MAX_GROUPS = 4


@dataclass(frozen=True)
class SolveResult:
    """A solver's answer: the allocation, its utility, and how it was found.

    ``certificate`` bounds how far below the optimum ``utility`` can be:
    the Frank-Wolfe duality gap at ``alloc`` for :func:`solve_concave`
    (an upper bound on U* - U(alloc) for concave utilities), and 0.0 for
    the exhaustive solvers, whose answer is the best of their grid.
    """

    alloc: Allocation
    utility: float
    method: str
    iterations: int
    converged: bool
    certificate: float

    def to_dict(self) -> dict:
        return {
            "counts": [float(x) for x in self.alloc.counts],
            "utility": self.utility,
            "method": self.method,
            "iterations": self.iterations,
            "converged": self.converged,
            "certificate": self.certificate,
        }


def _triangle(total: int) -> tuple[np.ndarray, np.ndarray]:
    """All (i, j) with i + j <= total, in lexicographic order."""
    i_block = np.arange(total + 1)
    lens = total + 1 - i_block
    i = np.repeat(i_block, lens)
    offsets = np.repeat(np.cumsum(lens) - lens, lens)
    j = np.arange(i.size) - offsets
    return i, j


def _prefixes(num_free: int, total: int):
    """Yield lexicographically ordered prefixes of batch counts.

    Each prefix fixes ``num_free`` leading coordinates whose sum is at
    most ``total``; the caller vectorizes over the remaining ones.
    """
    if num_free == 0:
        yield ()
        return
    for first in range(total + 1):
        for rest in _prefixes(num_free - 1, total - first):
            yield (first,) + rest


def solve_grid(
    curve: AnalyticCurve,
    utility: UtilitySpec,
    cost: CostModel,
    resolution: float | None = None,
) -> SolveResult:
    """Exhaustive scan over allocations whose per-group spend is a multiple
    of ``resolution`` (by default ``budget / 200``, or 1.0 at a zero budget).

    Group k's count moves in steps of ``resolution / costs[k]``.  Ties
    break toward the lexicographically smallest counts vector.  For
    monotone utilities (no parity penalty) only the full-spend face of
    the grid is scanned, since spending more never hurts; parity-penalized
    utilities force a scan of the whole grid.
    """
    if resolution is None:
        resolution = cost.budget / 200 if cost.budget > 0 else 1.0
    if resolution <= 0:
        raise DomainError("resolution must be positive")
    k = curve.num_groups
    if k > _GRID_MAX_GROUPS:
        raise CapacityError(
            f"grid scan supports at most {_GRID_MAX_GROUPS} groups, got {k}; "
            "use solve_concave for larger instances"
        )
    if cost.num_groups != k or utility.num_groups != k:
        raise DomainError("curve, cost, and utility group counts must match")

    d = int(math.floor(cost.spend_limit / resolution))
    face_only = utility.is_concave_monotone
    n_points = (
        math.comb(d + k - 1, k - 1) if face_only else math.comb(d + k, k)
    )
    if n_points > MAX_GRID_POINTS:
        raise CapacityError(
            f"grid has {n_points} points, exceeding the cap of {MAX_GRID_POINTS}; "
            "coarsen the resolution or use solve_concave"
        )

    step_sizes = resolution / cost.costs  # samples bought per batch, per group

    best_u = -np.inf
    best_m: np.ndarray | None = None
    evaluated = 0

    if k == 1:
        m_last = np.array([d]) if face_only else np.arange(d + 1)
        chunks = [((), m_last, None)]
    else:
        chunks = None  # built lazily below

    def iter_chunks():
        if k == 1:
            yield from chunks
            return
        for prefix in _prefixes(k - 2, d):
            budget_left = d - sum(prefix)
            if face_only:
                m_a = np.arange(budget_left + 1)
                yield prefix, m_a, budget_left - m_a
            else:
                m_a, m_b = _triangle(budget_left)
                yield prefix, m_a, m_b

    for prefix, m_a, m_b in iter_chunks():
        p = m_a.size
        counts = np.empty((k, p))
        for j, mj in enumerate(prefix):
            counts[j, :] = mj * step_sizes[j]
        if k == 1:
            counts[0, :] = m_a * step_sizes[0]
        else:
            counts[k - 2, :] = m_a * step_sizes[k - 2]
            counts[k - 1, :] = m_b * step_sizes[k - 1]
        u = batch_utilities(curve, utility, counts)
        evaluated += p
        idx = int(np.argmax(u))
        # argmax picks the first (lexicographically smallest) maximizer in
        # the chunk; chunks arrive in lexicographic order, so strict ">"
        # preserves the global tie-break.
        if u[idx] > best_u:
            best_u = float(u[idx])
            best_m = counts[:, idx].copy()

    if best_m is None or not np.isfinite(best_u):
        raise DomainError("utility is undefined on every grid point")

    alloc = Allocation(best_m)
    return SolveResult(
        alloc=alloc,
        utility=utility_eval(utility, eval_perf(curve, alloc)),
        method="grid",
        iterations=evaluated,
        converged=True,
        certificate=0.0,
    )


def _gradient(curve: AnalyticCurve, utility: UtilitySpec, counts: np.ndarray) -> np.ndarray:
    """Gradient of the utility with respect to counts; +inf capped."""
    z = curve.offset + curve.gamma @ counts
    with np.errstate(divide="ignore"):
        if curve.form == "sqrt":
            fprime = 0.5 / np.sqrt(z)
        elif curve.form == "log1p":
            fprime = 1.0 / (1.0 + z)
        else:
            p = curve.power_exponent
            fprime = p * np.power(z, p - 1.0)
        if utility.transform == "log":
            tprime = 1.0 / curve.transform(z)
        else:
            tprime = np.ones_like(z)
    scale = np.nan_to_num(fprime * tprime, nan=1e12, posinf=1e12)
    g = (utility.weights * scale) @ curve.gamma
    if utility.normalize:
        g = g / utility.weights.sum()
    return g


def solve_concave(
    curve: AnalyticCurve,
    utility: UtilitySpec,
    cost: CostModel,
    tol: float = 1e-8,
    max_iter: int = 10_000,
) -> SolveResult:
    """First-order ascent on the budget simplex for concave instances.

    Conditional-gradient style: each iteration moves mass toward the
    vertex that the local gradient favors most (or away from the least
    favored active vertex), with an exact line search.  Stops once the
    utility improvement drops below ``tol``.  The result's ``certificate``
    is the duality gap ``max_v g . (v - x)`` at the returned allocation,
    which bounds its distance from the optimum.
    """
    if not utility.is_concave_monotone:
        raise UnsupportedUtilityError(
            "parity-penalized utilities are not concave; use solve_grid"
        )
    k = curve.num_groups
    if cost.num_groups != k or utility.num_groups != k:
        raise DomainError("curve, cost, and utility group counts must match")

    if cost.budget == 0:
        alloc = Allocation.zeros(k)
        return SolveResult(
            alloc=alloc,
            utility=utility_eval(utility, eval_perf(curve, alloc)),
            method="concave_ascent",
            iterations=0,
            converged=True,
            certificate=0.0,
        )

    # Feasible set = convex hull of the origin and the K all-in vertices.
    vertices = np.vstack([np.zeros(k), np.diag(cost.budget / cost.costs)])
    alpha = np.full(k + 1, 1.0 / (k + 1))
    x = alpha @ vertices
    u_prev = float(batch_utilities(curve, utility, x[:, None])[0])

    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        g = _gradient(curve, utility, x)
        scores = vertices @ g
        i_fw = int(np.argmax(scores))
        active = np.flatnonzero(alpha > 0)
        i_aw = int(active[np.argmin(scores[active])])

        d_fw = vertices[i_fw] - x
        if g @ d_fw <= 0:
            converged = True  # zero duality gap: x already maximizes
            break
        d_aw = x - vertices[i_aw]
        if g @ d_fw >= g @ d_aw:
            direction, t_max, away = d_fw, 1.0, False
        else:
            a = alpha[i_aw]
            direction, t_max, away = d_aw, (a / (1.0 - a) if a < 1.0 else 1.0), True

        res = minimize_scalar(
            lambda t: -batch_utilities(curve, utility, (x + t * direction)[:, None])[0],
            bounds=(0.0, t_max),
            method="bounded",
            options={"xatol": 1e-12},
        )
        t = float(res.x)
        # Bounded search never tries the endpoint; take it when it is better.
        end = x + t_max * direction
        if batch_utilities(curve, utility, end[:, None])[0] >= -res.fun:
            t = t_max
        dropped = away and t >= t_max
        if away:
            alpha *= 1.0 + t
            alpha[i_aw] -= t
            if dropped:
                alpha[i_aw] = 0.0
        else:
            alpha *= 1.0 - t
            alpha[i_fw] += t
        alpha = np.maximum(alpha, 0.0)
        alpha /= alpha.sum()
        x = alpha @ vertices

        u_new = float(batch_utilities(curve, utility, x[:, None])[0])
        # Drop steps remove a vertex without real progress; they do not
        # count toward the improvement-based stopping rule.
        if not dropped and u_new - u_prev < tol:
            u_prev = max(u_prev, u_new)
            converged = True
            break
        u_prev = max(u_prev, u_new)

    alloc = Allocation(np.maximum(x, 0.0))
    g = _gradient(curve, utility, alloc.counts)
    return SolveResult(
        alloc=alloc,
        utility=utility_eval(utility, eval_perf(curve, alloc)),
        method="concave_ascent",
        iterations=iterations,
        converged=converged,
        certificate=float(np.max(vertices @ g) - g @ alloc.counts),
    )


def audit_gap(
    curve: AnalyticCurve,
    auditor_utility: UtilitySpec,
    cost: CostModel,
    observed_alloc: Allocation,
    resolution: float | None = None,
    tol: float = 1e-8,
) -> tuple[SolveResult, float, float]:
    """How much utility the auditor's preferences leave on the table.

    Returns ``(best, observed_utility, gap)``: the auditor's optimum, the
    observed allocation's utility, and ``gap = max_n U~(n) - U~(observed)``
    over feasible allocations.  The optimum comes from the grid oracle when
    K <= 4 (at :func:`solve_grid`'s default resolution unless given) and
    the concave solver otherwise.  The observed allocation must fit the
    budget; it is itself a candidate, so the gap is never negative.
    """
    if not check_feasible(observed_alloc, cost):
        raise DomainError("observed allocation exceeds the budget")
    observed_u = utility_eval(auditor_utility, eval_perf(curve, observed_alloc))
    if curve.num_groups <= _GRID_MAX_GROUPS:
        best = solve_grid(curve, auditor_utility, cost, resolution)
    else:
        best = solve_concave(curve, auditor_utility, cost, tol=tol)
    return best, observed_u, max(best.utility, observed_u) - observed_u
