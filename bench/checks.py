"""Correctness checks that the benchmark applies to the program's outputs.

Everything here is computed apart from the program: the utility formula,
its gradient and the Frank-Wolfe duality bound are written out from the
model's definition (``M_k = f(offset + sum_j gamma[k, j] n_j)`` and
``U = sum_k a_k t(M_k) - b sum_k |t(M_k) - mean t(M)|``, optionally divided
by ``sum_k a_k``), and take plain arrays, never the program's objects.
Each check raises :class:`CheckError` with a message naming what failed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FEAS_RTOL = 1e-9


class CheckError(AssertionError):
    """An output of the program failed one of the benchmark's checks."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


@dataclass(frozen=True)
class Instance:
    """One allocation problem as plain arrays (the benchmark's own copy)."""

    gamma: np.ndarray
    form: str
    costs: np.ndarray
    budget: float
    weights: np.ndarray
    penalty: float = 0.0
    normalize: bool = False
    resolution: float = 0.0  # grid spend step; 0 when no grid is involved

    @property
    def k(self) -> int:
        return self.costs.size


def utilities(inst: Instance, counts: np.ndarray) -> np.ndarray:
    """Utility of each column of a K x P counts matrix (identity transform)."""
    z = inst.gamma @ counts
    m = np.sqrt(z) if inst.form == "sqrt" else np.log1p(z)
    u = inst.weights @ m
    if inst.penalty > 0:
        u = u - inst.penalty * np.abs(m - m.mean(axis=0)).sum(axis=0)
    if inst.normalize:
        u = u / inst.weights.sum()
    return u


def utility(inst: Instance, counts) -> float:
    return float(utilities(inst, np.asarray(counts, dtype=float)[:, None])[0])


def gradient(inst: Instance, counts: np.ndarray) -> np.ndarray:
    """dU/dn for a penalty-free instance; the concave routes only."""
    z = inst.gamma @ counts
    with np.errstate(divide="ignore"):
        fprime = 0.5 / np.sqrt(z) if inst.form == "sqrt" else 1.0 / (1.0 + z)
    g = (inst.weights * np.minimum(fprime, 1e12)) @ inst.gamma
    return g / inst.weights.sum() if inst.normalize else g


def duality_bound(inst: Instance, counts: np.ndarray) -> float:
    """Frank-Wolfe gap max_s g.(s - x) over the budget simplex's vertices.

    For a concave utility it bounds U* - U(x) from above, so
    ``U(x) + duality_bound`` is an upper bound on the true optimum.
    """
    g = gradient(inst, counts)
    best_vertex = max(0.0, float(np.max(g * inst.budget / inst.costs)))
    return best_vertex - float(g @ counts)


def check_feasible(inst: Instance, counts: np.ndarray, what: str) -> float:
    require(bool(np.all(np.isfinite(counts))), f"{what}: non-finite counts {counts}")
    require(bool(np.all(counts >= 0)), f"{what}: negative counts {counts}")
    spend = float(inst.costs @ counts)
    require(
        spend <= inst.budget * (1 + FEAS_RTOL) + FEAS_RTOL,
        f"{what}: spend {spend!r} exceeds budget {inst.budget!r}",
    )
    return spend


def check_reported_utility(inst: Instance, counts, reported: float, what: str) -> float:
    mine = utility(inst, counts)
    require(
        abs(mine - reported) <= 1e-9 * max(1.0, abs(mine)),
        f"{what}: reported utility {reported!r} but the allocation is worth {mine!r}",
    )
    return mine


def grid_neighbours(inst: Instance, batches: np.ndarray, rng, samples: int) -> np.ndarray:
    """Feasible grid points to compare a grid answer against (in batches).

    Every one-batch move between two groups, every one-batch removal, and
    ``samples`` random feasible grid points.
    """
    d = int(np.floor(inst.budget / inst.resolution * (1 + FEAS_RTOL)))
    k = inst.k
    moves = []
    for i in range(k):
        for j in range(k):
            step = np.zeros(k)
            step[i] -= 1
            if j != i:
                step[j] += 1
            moves.append(batches + step)
    # points of {b >= 0, sum(b) <= d}: gaps between sorted draws from [0, d]
    cuts = np.sort(rng.integers(0, d + 1, size=(samples, k)), axis=1)
    drawn = np.diff(cuts, axis=1, prepend=0)
    pts = np.vstack([np.array(moves), drawn])
    keep = np.all(pts >= 0, axis=1) & (pts.sum(axis=1) <= d)
    return pts[keep]


def check_grid_answer(inst: Instance, counts, reported: float, rng, samples=2000) -> None:
    """A grid-oracle answer is feasible, on the grid, worth what it says,
    and not beaten by any neighbouring or sampled grid point."""
    counts = np.asarray(counts, dtype=float)
    check_feasible(inst, counts, "grid answer")
    batches = counts * inst.costs / inst.resolution
    require(
        bool(np.all(np.abs(batches - np.rint(batches)) <= 1e-6)),
        f"grid answer {counts} is not a multiple of the spend step",
    )
    mine = check_reported_utility(inst, counts, reported, "grid answer")
    pts = grid_neighbours(inst, np.rint(batches), rng, samples)
    rival = utilities(inst, (pts * inst.resolution / inst.costs).T)
    best = int(np.argmax(rival))
    require(
        rival[best] <= mine + 1e-9 * max(1.0, abs(mine)),
        f"grid point {pts[best] * inst.resolution / inst.costs} is worth "
        f"{rival[best]!r} > reported optimum {mine!r}",
    )


def check_concave_bound(inst: Instance, u_grid: float, fw_counts, u_fw: float) -> float:
    """Grid utility does not exceed the Frank-Wolfe optimum plus its gap."""
    fw_counts = np.asarray(fw_counts, dtype=float)
    check_feasible(inst, fw_counts, "concave optimum")
    check_reported_utility(inst, fw_counts, u_fw, "concave optimum")
    gap = duality_bound(inst, fw_counts)
    require(gap >= -1e-9, f"negative duality gap {gap!r}")
    require(
        u_grid <= u_fw + gap + 1e-9 * max(1.0, abs(u_fw)),
        f"grid utility {u_grid!r} exceeds concave optimum {u_fw!r} + gap {gap!r}",
    )
    return u_grid / u_fw


def check_greedy_answer(inst: Instance, counts, step: float, upper: float) -> float:
    """Greedy spends to within one step of the budget and, being feasible,
    does not beat ``upper``, an upper bound on the optimum (signed
    comparison with a 1e-9 relative tolerance)."""
    counts = np.asarray(counts, dtype=float)
    spend = check_feasible(inst, counts, "greedy answer")
    require(
        inst.budget - spend < step * (1 + 1e-9),
        f"greedy left {inst.budget - spend!r} unspent with step {step!r}",
    )
    u = utility(inst, counts)
    require(
        u <= upper + 1e-9 * abs(upper),
        f"greedy utility {u!r} beats the optimum's upper bound {upper!r}",
    )
    return u


def check_priorities(priorities: np.ndarray) -> None:
    seen = priorities[np.isfinite(priorities)]
    require(bool(np.all(seen >= 0)), f"negative estimator priority {seen.min()!r}")


def check_genomic_rows(rows, q: float, benefit: float, cost: float,
                       budget: int, policy_step: float) -> None:
    """Frontier table: every value in range, greedy endpoints spend the budget."""
    lo, hi = -cost, q * (benefit - cost)
    for row in rows:
        for v in row[5:7]:
            require(lo <= v <= hi, f"genomic value {v!r} outside [{lo}, {hi}] in {row}")
    greedy = [r for r in rows if r[0] == "greedy"]
    require(bool(greedy), "frontier table has no greedy rows")
    for r in greedy:
        spent = r[3] + r[4]
        require(0 <= budget - spent < policy_step,
                f"greedy endpoint {r[3]}+{r[4]} does not spend budget {budget}")


def sweep_curves(rows) -> list:
    """Each sweep session's (M_0, M_1) arrays, ordered by n_0."""
    by_seed: dict = {}
    for r in sorted((r for r in rows if r[0] == "frontier"), key=lambda r: r[3]):
        by_seed.setdefault(r[2], []).append((r[5], r[6]))
    return [np.array(points).T for points in by_seed.values()]


def check_monotone_sweep(curves: list) -> None:
    """Averaged over sweep sessions, M_0 rises and M_1 falls along the sweep,
    with at most max(1, splits // 10) inversions each (the C8 allowance)."""
    m0, m1 = np.mean(curves, axis=0)
    require(m0.size >= 2, "frontier sweep has fewer than two splits")
    allowed = max(1, m0.size // 10)
    inv0 = int(np.sum(np.diff(m0) < 0))
    inv1 = int(np.sum(np.diff(m1) > 0))
    require(inv0 <= allowed and inv1 <= allowed,
            f"frontier not monotone: {inv0} M_0 and {inv1} M_1 inversions, "
            f"{allowed} allowed")


def check_world_cases(disease, q: float, population: int) -> None:
    want = int(np.floor(q * population))
    for g, sick in enumerate(disease):
        got = int(np.count_nonzero(sick))
        require(got == want, f"group {g} has {got} cases, expected floor(qP) = {want}")


def weights_of(label: str, shares) -> tuple[float, float]:
    """Utility weights of a frontier greedy row, read from its label."""
    if label.startswith("ratio_"):
        return float(label[len("ratio_"):]), 1.0
    if label == "shares":
        return float(shares[0]), float(shares[1])
    _, a, b = label.split("_")
    return float(a), float(b)


def frontier_ratio(rows, shares) -> float:
    """Mean over greedy rows of the row's utility over the best split of the
    sweep session with the same seed, under the same weights."""
    ratios = []
    for r in (r for r in rows if r[0] == "greedy"):
        w = weights_of(r[1], shares)
        sweep = [s for s in rows if s[0] == "frontier" and s[2] == r[2]]
        require(bool(sweep), f"no sweep session with the greedy row's seed {r[2]}")
        best = max(w[0] * s[5] + w[1] * s[6] for s in sweep)
        require(best > 0, f"no sweep split has positive utility under weights {w}")
        ratios.append((w[0] * r[5] + w[1] * r[6]) / best)
    return float(np.mean(ratios))
