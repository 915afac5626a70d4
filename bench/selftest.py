#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks (a few seconds).

    python3 bench/selftest.py

Each case feeds a check a deliberately wrong answer and passes only if the
check rejects it; the right answers it starts from are computed here by
brute force, not by the program.  Exits 0 when every case passes.
"""

import sys

sys.dont_write_bytecode = True

from itertools import product  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from checks import CheckError, Instance  # noqa: E402

CASES = []


def case(fn):
    CASES.append(fn)
    return fn


def rejects(fn, *args, match: str = "", **kwargs) -> bool:
    """True when ``fn(*args, **kwargs)`` fails a check whose message
    contains ``match``."""
    try:
        fn(*args, **kwargs)
    except CheckError as exc:
        return match in str(exc)
    return False


def small_instance(penalty=0.0):
    rng = np.random.default_rng(7)
    gamma = rng.uniform(0, 1, (3, 3)) + np.eye(3)
    return Instance(gamma=gamma, form="sqrt", costs=np.array([1.0, 2.0, 1.5]),
                    budget=30.0, weights=np.array([1.0, 0.7, 1.2]), penalty=penalty,
                    normalize=True, resolution=1.5)


def brute_force(inst):
    """Best grid point by full enumeration, lexicographically first on ties."""
    d = int(inst.budget / inst.resolution)
    pts = np.array([b for b in product(range(d + 1), repeat=inst.k) if sum(b) <= d])
    counts = (pts * inst.resolution / inst.costs).T
    u = checks.utilities(inst, counts)
    best = int(np.argmax(u))
    return counts[:, best], float(u[best])


def rng():
    return np.random.default_rng(0)


@case
def grid_right_answer_accepted():
    for penalty in (0.0, 0.3):
        inst = small_instance(penalty)
        counts, u = brute_force(inst)
        checks.check_grid_answer(inst, counts, u, rng())
    return True


@case
def grid_perturbed_off_optimum():
    inst = small_instance(0.3)
    counts, _ = brute_force(inst)
    worse = counts.copy()
    i = int(np.argmax(worse * inst.costs))
    worse[i] -= inst.resolution / inst.costs[i]          # one batch moved away
    worse[(i + 1) % 3] += inst.resolution / inst.costs[(i + 1) % 3]
    return rejects(checks.check_grid_answer, inst, worse, checks.utility(inst, worse), rng())


@case
def grid_over_budget():
    inst = small_instance()
    counts, _ = brute_force(inst)
    over = counts + inst.resolution / inst.costs
    return rejects(checks.check_grid_answer, inst, over, checks.utility(inst, over), rng())


@case
def grid_misreported_utility():
    inst = small_instance()
    counts, u = brute_force(inst)
    return rejects(checks.check_grid_answer, inst, counts, u + 1e-3, rng())


@case
def grid_off_the_grid():
    inst = small_instance()
    counts, _ = brute_force(inst)
    off = counts * 0.99
    return rejects(checks.check_grid_answer, inst, off, checks.utility(inst, off), rng())


@case
def grid_above_concave_optimum():
    inst = small_instance()
    counts, u = brute_force(inst)
    fw_counts = counts  # a feasible point; its duality gap bounds the optimum
    bound = u + checks.duality_bound(inst, fw_counts)
    ok = checks.check_concave_bound(inst, u, fw_counts, u) <= 1.0
    return ok and rejects(checks.check_concave_bound, inst, bound + 1e-3, fw_counts, u)


@case
def greedy_beats_optimum():
    inst = small_instance()
    counts, u = brute_force(inst)
    return rejects(checks.check_greedy_answer, inst, counts, inst.resolution, u - 1e-6)


@case
def greedy_underspends():
    inst = small_instance()
    half = np.array([5.0, 2.0, 2.0])  # spends 12 of 30
    return rejects(checks.check_greedy_answer, inst, half, 1.0, 1e9)


@case
def greedy_over_budget():
    inst = small_instance()
    over = np.array([20.0, 5.0, 5.0])  # spends 37.5 of 30
    return rejects(checks.check_greedy_answer, inst, over, 1.0, 1e9)


@case
def negative_priority():
    pri = np.array([[np.nan, np.nan, 0.1, 0.2], [0.3, -1e-12, 0.0, 0.1]])
    return rejects(checks.check_priorities, pri)


def frontier_rows(m0=(0.5, 1.0, 1.5, 2.0, 2.5), m1=(2.0, 1.5, 1.0, 0.5, 0.1),
                  greedy=((300, 300, 1.7, 1.2),)):
    rows = [["frontier", f"split_{n}_{600 - n}", 0, n, 600 - n, a, b]
            for n, a, b in zip(range(100, 600, 100), m0, m1)]
    rows += [["greedy", "weights_1_1", 0, n0, n1, a, b] for n0, n1, a, b in greedy]
    return rows


GENOMIC = dict(q=0.05, benefit=100.0, cost=5.0, budget=600, policy_step=50)


@case
def genomic_right_answer_accepted():
    checks.check_genomic_rows(frontier_rows(), **GENOMIC)
    checks.check_monotone_sweep(checks.sweep_curves(frontier_rows()))
    return abs(checks.frontier_ratio(frontier_rows(), (0.8, 0.2)) - 2.9 / 2.6) < 1e-12


@case
def genomic_value_above_oracle_bound():
    return rejects(checks.check_genomic_rows,
                   frontier_rows(m0=(0.5, 1.0, 1.5, 2.0, 4.76)), **GENOMIC)


@case
def genomic_value_below_treat_everyone_floor():
    return rejects(checks.check_genomic_rows,
                   frontier_rows(greedy=((300, 300, -5.01, 1.0),)), **GENOMIC)


@case
def genomic_sweep_not_monotone():
    rows = frontier_rows(m0=(0.5, 0.4, 1.5, 1.4, 2.5))
    return rejects(checks.check_monotone_sweep, checks.sweep_curves(rows))


@case
def genomic_greedy_underspends():
    return rejects(checks.check_genomic_rows,
                   frontier_rows(greedy=((250, 300, 1.0, 1.0),)), **GENOMIC)


@case
def world_wrong_case_count():
    sick = np.zeros(20000, dtype=bool)
    sick[:1000] = True
    checks.check_world_cases([sick, sick], 0.05, 20000)
    sick2 = sick.copy()
    sick2[1000] = True
    return rejects(checks.check_world_cases, [sick, sick2], 0.05, 20000)


def workloads_module():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    return workloads


@case
def table1_value_off_paper():
    wl = workloads_module().GridOracle(0)
    inst = wl.instances[0][1]  # Table 1, equal weights, on its fine grid
    # a feasible grid point whose utility is reported honestly but is not optimal
    counts = np.full(4, 200.0)
    counts[2] = 100.0
    out = SimpleNamespace(alloc=SimpleNamespace(counts=counts),
                          utility=checks.utility(inst, counts))
    return rejects(wl.check, 0, out, match="paper")


@case
def convergence_mean_gap_too_large():
    wl = workloads_module().GreedyConvergence(0)
    accepted = wl.finish([0.999, 0.998]) > 0.99
    return accepted and rejects(wl.finish, [0.999, 0.98, 0.97], match="gap")


@case
def adaptive_below_098_of_greedy():
    wl = workloads_module().AdaptiveAnalytic(0)
    poor = np.array([700.0, 100.0, 50.0, 100.0])  # spends 1000, mostly on group 0
    trace = SimpleNamespace(records=[SimpleNamespace(marginal_est=np.zeros(4))])
    return rejects(wl.check, 0, (SimpleNamespace(counts=poor), trace), match="true-curve greedy")


def main() -> int:
    failures = 0
    for fn in CASES:
        try:
            ok = fn()
        except CheckError as exc:
            ok = False
            print(f"  unexpected rejection: {exc}")
        print(f"{'PASS' if ok else 'FAIL'} {fn.__name__}")
        failures += not ok
    print(f"{len(CASES) - failures}/{len(CASES)} self-test cases passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
