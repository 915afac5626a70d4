"""Exact and near-exact solvers for the budget-constrained allocation problem.

Two deliberately independent routes:

* :func:`solve_grid` exhaustively scans a regular spend grid and is the
  trusted oracle at K <= 4 (including parity-penalized, non-concave
  utilities), up to ``MAX_GRID_POINTS`` grid points, one triangle or
  segment of points per utility-kernel call.
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
import warnings
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

__all__ = ["SolveResult", "solve_grid", "solve_concave", "audit_gap", "check_audit",
           "lattice_points"]

MAX_GRID_POINTS = 300_000_000
_GRID_MAX_GROUPS = 4
# Most points in one segment batch: the order of the largest triangle batch
# (501,501 points on the K = 4 face at d = 1,000), so memory stays flat where
# the point cap lets a single free coordinate reach d = MAX_GRID_POINTS.
_MAX_SEGMENT = 500_000


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


def _tails(n_tail: int, left: int):
    """Yield the batches of the last ``n_tail`` free coordinates whose sum is
    at most ``left``, in lexicographic order: one triangle, a segment in
    pieces of at most ``_MAX_SEGMENT`` points, or one empty tuple."""
    if n_tail == 2:
        yield _triangle(left)
    elif n_tail == 1:
        for lo in range(0, left + 1, _MAX_SEGMENT):
            yield (np.arange(lo, min(lo + _MAX_SEGMENT, left + 1)),)
    else:
        yield ()


def lattice_points(num_coords: int, total: int):
    """Yield every tuple of ``num_coords`` non-negative integers whose sum is
    at most ``total``, in lexicographic order (one empty tuple for none)."""
    if num_coords == 0:
        yield ()
        return
    for first in range(total + 1):
        for rest in lattice_points(num_coords - 1, total - first):
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

    The scan walks the grid in lexicographic order, one batch per prefix
    of fixed leading coordinates (on the face the spend total fixes the
    last coordinate).  With three or more free coordinates a batch is the
    triangle of the last two, at most C(d + 2, 2) points for a grid d spend
    steps wide; the point cap keeps d, and so a batch, small there.  With
    two or fewer a batch is a segment of the last one, at most d + 1 points
    and cut into pieces of at most ``_MAX_SEGMENT`` points.
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
    n_free = k - 1 if face_only else k  # coordinates the spend total leaves free
    n_points = math.comb(d + n_free, n_free)
    if n_points > MAX_GRID_POINTS:
        raise CapacityError(
            f"grid has {n_points} points, exceeding the cap of {MAX_GRID_POINTS}; "
            "coarsen the resolution or use solve_concave"
        )

    step_sizes = resolution / cost.costs  # samples bought per batch, per group

    n_tail = 2 if n_free >= 3 else min(n_free, 1)  # free coordinates per batch
    best_u = -np.inf
    best_m: np.ndarray | None = None
    evaluated = 0
    for prefix in lattice_points(n_free - n_tail, d):
        left = d - sum(prefix)
        for tail in _tails(n_tail, left):
            if face_only:
                tail += (np.atleast_1d(left - sum(tail)),)
            counts = np.empty((k, tail[-1].size))
            for j, mj in enumerate(prefix + tail):
                counts[j] = mj * step_sizes[j]
            u = batch_utilities(curve, utility, counts)
            evaluated += counts.shape[1]
            idx = int(np.argmax(u))
            # argmax picks the first (lexicographically smallest) maximizer
            # in the chunk; chunks arrive in lexicographic order, so strict
            # ">" preserves the global tie-break.
            if u[idx] > best_u:
                best_u = float(u[idx])
                best_m = counts[:, idx].copy()

    if best_m is None:
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
        g = g / utility.weight_total
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


def check_audit(curve: AnalyticCurve, auditor_utility: UtilitySpec) -> None:
    """Raise UnsupportedUtilityError when :func:`audit_gap` cannot find the
    auditor's optimum: above K = 4 it leaves the grid oracle for the
    concave solver, which takes no parity penalty."""
    if curve.num_groups > _GRID_MAX_GROUPS and not auditor_utility.is_concave_monotone:
        raise UnsupportedUtilityError(f"a parity-penalized audit needs K <= {_GRID_MAX_GROUPS}"
                                      f" groups for the grid oracle, got K = {curve.num_groups}")


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
    the concave solver otherwise, with a :class:`RuntimeWarning` when that
    solver stops before converging.  The observed allocation must fit the
    budget; it is itself a candidate, so the gap is never negative.
    """
    check_audit(curve, auditor_utility)
    if not check_feasible(observed_alloc, cost):
        raise DomainError("observed allocation exceeds the budget")
    observed_u = utility_eval(auditor_utility, eval_perf(curve, observed_alloc))
    if curve.num_groups <= _GRID_MAX_GROUPS:
        best = solve_grid(curve, auditor_utility, cost, resolution)
    else:
        best = solve_concave(curve, auditor_utility, cost, tol=tol)
        if not best.converged:
            warnings.warn(f"audit optimum did not converge in {best.iterations} "
                          "iterations; the gap may be short by up to its certificate "
                          f"{best.certificate:.3g}", RuntimeWarning, stacklevel=2)
    return best, observed_u, max(best.utility, observed_u) - observed_u
