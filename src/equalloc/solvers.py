"""Exact and near-exact solvers for the budget-constrained allocation problem.

Two routes, one exact and one ascent:

* :func:`solve_grid` finds the best point of a regular spend grid and is
  the trusted oracle at K <= 4 (including parity-penalized, non-concave
  utilities), up to ``MAX_GRID_POINTS`` grid points.  It scans a penalized
  utility's whole grid, and of a monotone utility's full-spend face scores
  only the cells that a concavity bound cannot rule out.  At a resolution
  of one greedy step its grid is the whole-batch allocations, the
  comparison class the sequential greedy matches on separable concave curves.
* :func:`solve_concave` runs conditional-gradient ascent (Frank-Wolfe
  with away steps) over the budget simplex and scales to larger K, but
  requires a concave nondecreasing utility.

Each returns a :class:`SolveResult`, built and scored in one place, whose
``certificate`` bounds its distance from the optimum.  :func:`audit_gap`,
the one audit entry point, compares an observed allocation against the
best an auditor's own utility could have achieved with the same budget.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (Allocation, CostModel, UtilitySpec, check_feasible, check_groups,
                   utility_eval, utility_kernel)
from .curves import AnalyticCurve, batch_utilities, eval_perf
from .errors import CapacityError, DomainError, UnsupportedUtilityError

__all__ = ["SolveResult", "solve_grid", "solve_concave", "audit_gap", "check_audit"]

MAX_GRID_POINTS = 300_000_000
_GRID_MAX_GROUPS = 4
# Most points in one segment batch or one tetrahedron: the order of the largest
# triangle (738,720 points on a K = 3 grid at d = 1,214), so memory stays flat
# where the point cap lets a single coordinate reach d = MAX_GRID_POINTS.
_MAX_SEGMENT = 500_000
_MAX_BATCH = 8192  # points per simplex block or face batch: 256 kB at K = 4
_CELL = 8  # spend steps on a side of a face cell: 512 points at K = 4


@dataclass(frozen=True)
class SolveResult:
    """A solver's answer: the allocation, its utility, and how it was found.

    ``certificate`` bounds how far below the optimum ``utility`` can be:
    the Frank-Wolfe duality gap at ``alloc`` for :func:`solve_concave`
    (an upper bound on U* - U(alloc) for concave utilities), and 0.0 for
    :func:`solve_grid`, whose answer is the best of its grid.
    ``iterations`` counts ascent steps, or the grid points scanned: on the
    face, the points scored and those a concavity bound ruled out.
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


def _answer(curve, utility, counts, method, iterations, converged=True, certificate=0.0):
    """The :class:`SolveResult` at ``counts``, scored on ``curve``."""
    alloc = Allocation(counts)
    return SolveResult(alloc, utility_eval(utility, eval_perf(curve, alloc)), method,
                       iterations, converged, certificate)


def _grid_batches(n_free: int, d: int, step_sizes: np.ndarray):
    """Yield the whole grid's counts as K x P batches in lexicographic order,
    one per prefix of fixed leading coordinates, in pieces (see :func:`solve_grid`)."""
    if n_free >= 3:
        # The simplex of the last m coordinates, in blocks of _MAX_BATCH points
        # from its end.  Its layer x starts at point n - C(d - x + m, m) and is
        # the simplex of the other m - 1 (the segment 0..d, or the triangle
        # i + j <= d) from its row x on, with that row shifted by -x.
        m = 3 if n_free == 4 and math.comb(d + 3, 3) <= _MAX_SEGMENT else 2
        p, i, n = n_free - m, np.arange(d + 1), math.comb(d + m, m)
        low = np.stack(np.nonzero(np.add.outer(i, i) <= d)) if m == 3 else i[None]
        start = n - np.array([math.comb(d - x + m, m) for x in range(d + 1)])
        offset = start - np.searchsorted(low[0], np.arange(d + 1))
        blocks = []
        for lo in range(n % -_MAX_BATCH, n, _MAX_BATCH):  # the first may start below 0
            at = np.arange(max(lo, 0), lo + _MAX_BATCH)
            x = np.searchsorted(start, at, side="right").astype(np.int32) - 1
            block, k = np.empty((len(step_sizes), at.size)), at - offset[x]
            np.multiply(low[0, k] - x, step_sizes[p + 1], out=block[p + 1])
            np.multiply(low[1:, k], step_sizes[p + 2:, None], out=block[p + 2:])
            blocks.append((x, block))
        for prefix in _lattice_points(p, d):
            used, left = sum(prefix), math.comb(d - sum(prefix) + m, m)
            for x, block in blocks[-left // _MAX_BATCH:]:  # its last ceil(left / _MAX_BATCH)
                take = (left - 1) % _MAX_BATCH + 1  # the batch's suffix of the block
                counts, left = block[:, -take:], left - take
                for r, c in enumerate(prefix):
                    counts[r] = c * step_sizes[r]
                np.multiply(x[-take:] - used, step_sizes[p], out=counts[p])
                yield counts
        return
    # Segments of the last coordinate.
    for prefix in _lattice_points(n_free - 1, d):
        left = d - sum(prefix)
        for lo in range(0, left + 1, _MAX_SEGMENT):
            tail = np.arange(lo, min(lo + _MAX_SEGMENT, left + 1))
            counts = np.empty((len(step_sizes), tail.size))
            for r, m in enumerate(prefix + (tail,)):
                counts[r] = m * step_sizes[r]
            yield counts


def _face_counts(m: np.ndarray, d: int, step_sizes: np.ndarray) -> np.ndarray:
    """The K x P counts of face points from their first K - 1 step counts ``m``."""
    return np.vstack([m, d - m.sum(axis=0)]) * step_sizes[:, None]


def _face_cells(curve, utility, step_sizes, d, side=_CELL):
    """Yield the face's cells ``side`` steps on a side in slabs of about
    ``_MAX_BATCH``: their lower corners (n x C, n = K - 1), the utility at a
    face point y of each, and each cell's bound, the concave U's tangent plane
    at y at its highest corner.  It is +inf or NaN where U(y) or its slope is
    not finite (a -inf log point, or z = 0 under sqrt or power)."""
    n = len(step_sizes) - 1
    top, a = d // side if n else 0, 0
    while a <= top:
        b = min(top + 1, a + max(1, _MAX_BATCH // (top - a + 1) ** (n - 1)))
        c = np.indices((b - a,) + (top - a + 1,) * (n - 1), dtype=float)
        c = c.reshape(len(c), -1)[:n]  # K = 1: one cell, with no coordinates
        c[:1] += a
        lo = side * c[:, c.sum(axis=0) <= top]
        span, a = d - lo.sum(axis=0), b
        below = np.minimum(side // 2, span // max(n, 1))  # y - lo in each coordinate
        z = curve.gamma @ _face_counts(lo + below, d, step_sizes) + curve.offset
        u = utility_kernel(utility, curve.transform(z))
        g = (_slope_factor(curve, utility, z).T * utility.weights) @ curve.gamma
        g /= utility.weight_total if utility.normalize else 1.0
        slope = (g[:, :n] * step_sizes[:n] - g[:, n:] * step_sizes[n]).T  # per free step
        above = np.minimum(side - 1, span) - below  # the far corner's x - y
        yield lo, u, u + np.maximum(-slope * below, slope * above).sum(axis=0)


def _face_optimum(curve, utility, step_sizes, d):
    """The counts of the face's lexicographically first best point, or None
    where the utility is undefined on all of it; see :func:`solve_grid`."""
    n = len(step_sizes) - 1
    box = np.indices((_CELL,) * n, dtype=float).reshape(n, _CELL ** n)  # a cell's offsets
    per, rank = _MAX_BATCH // box.shape[1], (d + 1.0) ** np.arange(n - 1, -1, -1)
    best, best_m = (-np.inf, 0.0), None  # (utility, -rank) of the best point so far
    with np.errstate(all="ignore"):
        # a first threshold from coarse cells; then the best tangent point so far
        top = max(u.max() for _, u, _ in _face_cells(curve, utility, step_sizes, d, 4 * _CELL))
        for lo, u, bound in _face_cells(curve, utility, step_sizes, d):
            top = max(top, u.max())
            lo = lo[:, ~(bound < top - 1e-9 * max(1.0, abs(top)))]  # keeps NaN bounds
            for i in range(0, lo.shape[1], per):
                m = lo[:, i:i + per, None] + box[:, None, :]
                m = m.reshape(n, m.shape[1] * box.shape[1])
                counts = _face_counts(m, d, step_sizes)
                u = batch_utilities(curve, utility, counts)
                u[counts[-1] < 0] = -np.inf  # past the face's edge
                j = int(np.argmax(u))
                if -np.inf < u[j] >= best[0]:
                    tied = np.flatnonzero(u == u[j])  # bitwise-equal: the first point wins
                    j = tied[np.argmin(rank @ m[:, tied])]
                    if (u[j], -(rank @ m[:, j])) > best:
                        best, best_m = (u[j], -(rank @ m[:, j])), m[:, j:j + 1]
    return None if best_m is None else _face_counts(best_m, d, step_sizes)[:, 0]


def _lattice_points(num_coords: int, total: int):
    """Yield every tuple of ``num_coords`` non-negative integers whose sum is
    at most ``total``, in lexicographic order (one empty tuple for none)."""
    if num_coords == 0:
        yield ()
        return
    for first in range(total + 1):
        for rest in _lattice_points(num_coords - 1, total - first):
            yield (first,) + rest


def solve_grid(
    curve: AnalyticCurve,
    utility: UtilitySpec,
    cost: CostModel,
    resolution: float | None = None,
) -> SolveResult:
    """The best allocation whose per-group spend is a multiple of
    ``resolution`` (by default ``budget / 200``, or 1.0 at a zero budget).

    Group k's count moves in steps of ``resolution / costs[k]``.  Ties
    (bitwise-equal utilities) break toward the lexicographically smallest
    counts vector.  At ``resolution = step_cost`` the grid is every
    allocation of whole greedy batches, the class the sequential greedy
    provably matches on separable concave curves.

    For monotone utilities (no parity penalty) only the full-spend face of
    the grid, d steps wide, is read, since spending more never hurts.  The
    utility is concave, so its tangent plane at a face point of a cell
    ``_CELL`` steps on a side bounds it there; only cells whose bound
    reaches the best tangent-point utility so far (less 1e-9 relative), or
    whose tangent point has no finite utility or slope, are scored.

    Parity-penalized utilities are not concave, so their whole grid is
    scanned, in lexicographic order, one batch per prefix of fixed leading
    coordinates.  With three or more coordinates a batch is the simplex of
    the last m: the tetrahedron when all four of a K = 4 grid are in it and
    its C(d + 3, 3) points fit in ``_MAX_SEGMENT`` (d <= 142), else the
    triangle of C(d + 2, 2).  It is the suffix, from the layer of the
    prefix's sum on and with that sum taken off its first coordinate, of
    one simplex built per solve in blocks of ``_MAX_BATCH`` points aligned
    to its end: a kernel call takes the batch's part of one block, whose
    prefix rows and shifted row alone are written.  With two or fewer
    coordinates a batch is a segment of the last one, at most d + 1 points,
    in pieces of at most ``_MAX_SEGMENT``.
    """
    if resolution is None:
        resolution = cost.budget / 200 if cost.budget > 0 else 1.0
    if not 0 < resolution < math.inf:  # also refuses nan
        raise DomainError("resolution must be a positive finite number")
    k = curve.num_groups
    if k > _GRID_MAX_GROUPS:
        raise CapacityError(
            f"grid scan supports at most {_GRID_MAX_GROUPS} groups, got {k}; "
            "use solve_concave for larger instances"
        )
    check_groups(curve, costs=cost, utility=utility)

    d = int(math.floor(cost.spend_limit / resolution))
    face = utility.is_concave_monotone
    n_free = k - 1 if face else k  # coordinates the spend total leaves free
    n_points = math.comb(d + n_free, n_free)
    if n_points > MAX_GRID_POINTS:
        raise CapacityError(
            f"grid has {n_points} points, exceeding the cap of {MAX_GRID_POINTS}; "
            "coarsen the resolution or use solve_concave"
        )

    step_sizes = resolution / cost.costs  # samples bought per batch, per group

    if face:
        best_m = _face_optimum(curve, utility, step_sizes, d)
    else:
        best_u, best_m = -np.inf, None
        for counts in _grid_batches(n_free, d, step_sizes):
            u = batch_utilities(curve, utility, counts)
            idx = int(np.argmax(u))
            # argmax picks the first (lexicographically smallest) maximizer
            # in the chunk; chunks arrive in lexicographic order, so strict
            # ">" preserves the global tie-break.
            if u[idx] > best_u:
                best_u, best_m = float(u[idx]), counts[:, idx].copy()

    if best_m is None:
        raise DomainError("utility is undefined on every grid point")
    return _answer(curve, utility, best_m, "grid", n_points)


def _slope_factor(curve: AnalyticCurve, utility: UtilitySpec, z: np.ndarray) -> np.ndarray:
    """Each group's chain-rule factor f'(z) * t'(f(z)), uncapped (+inf at some z = 0)."""
    with np.errstate(divide="ignore"):
        if curve.form == "sqrt":
            fprime = 0.5 / np.sqrt(z)
        elif curve.form == "log1p":
            fprime = 1.0 / (1.0 + z)
        else:
            fprime = curve.power_exponent * np.power(z, curve.power_exponent - 1.0)
        if utility.transform == "log":
            fprime = fprime * (1.0 / curve.transform(z))
    return fprime


def _gradient(curve: AnalyticCurve, utility: UtilitySpec, counts: np.ndarray) -> np.ndarray:
    """Gradient of the utility with respect to counts, its factors capped at 1e12."""
    scale = _slope_factor(curve, utility, curve.offset + curve.gamma @ counts)
    g = (utility.weights * np.where(scale < np.inf, scale, 1e12)) @ curve.gamma
    if utility.normalize:
        g = g / utility.weight_total
    return g


def _line_search(slope, t_max: float) -> float:
    """Where a concave function peaks on [0, t_max], from its derivative
    ``slope``: t_max if the slope is still non-negative there, else its root
    by regula falsi with Anderson-Bjorck (1973) scaling of a stale end, which
    also brings an end at the gradient's 1e12 cap on a face in quickly."""
    s_hi = slope(t_max)
    if s_hi >= 0:
        return t_max
    lo, hi, s_lo, side = 0.0, t_max, slope(0.0), 0
    for _ in range(100):  # a bound only: brackets close within about 35 steps
        t = (lo * s_hi - hi * s_lo) / (s_hi - s_lo)
        s = slope(t)
        if s > 0:
            if side > 0:
                s_hi *= 1 - s / s_lo if s < s_lo else 0.5
            lo, s_lo, side = t, s, 1
        elif s < 0:
            if side < 0:
                s_lo *= 1 - s / s_hi if s > s_hi else 0.5
            hi, s_hi, side = t, s, -1
        if s == 0 or hi - lo <= 1e-12 * t_max:
            break
    return t


def solve_concave(
    curve: AnalyticCurve,
    utility: UtilitySpec,
    cost: CostModel,
    tol: float = 1e-8,
    max_iter: int = 10_000,
) -> SolveResult:
    """First-order ascent on the budget simplex for concave instances.

    Frank-Wolfe with away steps: each iteration moves mass toward the vertex
    the local gradient favors most, or away from the least favored active
    one, with an exact line search.  It stops once the duality gap
    ``max_v g . (v - x)``, which bounds ``U* - U(x)`` and is the result's
    ``certificate``, is at most ``tol * max(1, |U(x)|)``, and returns
    ``converged=False`` if ``max_iter`` iterations come first.  An ``x``
    where the log utility is undefined raises :class:`DomainError`.
    """
    if not utility.is_concave_monotone:
        raise UnsupportedUtilityError(
            "parity-penalized utilities are not concave; use solve_grid"
        )
    k = curve.num_groups
    check_groups(curve, costs=cost, utility=utility)

    # Feasible set = convex hull of the origin and the K all-in vertices;
    # at a zero budget all are the origin, and the first gap is zero.
    vertices = np.vstack([np.zeros(k), np.diag(cost.budget / cost.costs)])
    alpha = np.full(k + 1, 1.0 / (k + 1))
    x = alpha @ vertices

    converged, iterations = False, 0
    for iterations in range(1, max_iter + 1):
        g = _gradient(curve, utility, x)
        scores = vertices @ g
        i_fw = int(np.argmax(scores))
        u = utility_eval(utility, eval_perf(curve, Allocation(x)))  # DomainError if undefined
        if scores[i_fw] - g @ x <= tol * max(1.0, abs(u)):
            converged = True
            break
        i_aw = int(np.argmin(np.where(alpha > 0, scores, np.inf)))
        d_fw = vertices[i_fw] - x
        d_aw = x - vertices[i_aw]
        if g @ d_fw >= g @ d_aw:  # a step of t moves weight t onto vertex i, or off it
            direction, t_max, i, sign = d_fw, 1.0, i_fw, 1.0
        else:
            a = alpha[i_aw]
            direction, t_max, i, sign = d_aw, (a / (1.0 - a) if a < 1.0 else 1.0), i_aw, -1.0
        # Rounding leaves face points slightly negative; clip each trial point.
        t = sign * _line_search(lambda step: _gradient(
            curve, utility, np.maximum(x + step * direction, 0.0)) @ direction, t_max)
        alpha *= 1.0 - t
        alpha[i] = 0.0 if t <= -t_max else alpha[i] + t  # a full away step drops vertex i
        alpha = np.maximum(alpha, 0.0)
        alpha /= alpha.sum()
        x = alpha @ vertices

    g = _gradient(curve, utility, x)
    return _answer(curve, utility, x, "concave_ascent", iterations, converged,
                   float(np.max(vertices @ g) - g @ x))


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
