import functools
import itertools
import math
import warnings

import numpy as np
import pytest

from equalloc import (
    Allocation,
    AnalyticCurve,
    CostModel,
    GreedyConfig,
    UtilitySpec,
    audit_gap,
    batch_enum_optimum,
    eval_perf,
    run_greedy,
    solve_concave,
    solve_grid,
    utility_eval,
)
from equalloc import solvers
from equalloc.curves import batch_utilities
from equalloc.errors import CapacityError, DomainError, UnsupportedUtilityError

# Analytic optimum of the four-group instance under equal weights: all
# budget split between the two symmetric cheap groups.
U_STAR_EQUAL = (np.sqrt(650.0) + np.sqrt(300.0)) / 2.0
# Priority weights (1,1,1,1.5): optimum at (1000/7, 0, 0, 6000/7).
U_STAR_PRIORITY = (20.0 + 2.0 * np.sqrt(300.0) + 1.5 * 30.0) / 4.5


class TestSolveGrid:
    def test_equal_weights_finds_split_allocation(
        self, four_group_curve, four_group_cost, u_equal
    ):
        res = solve_grid(four_group_curve, u_equal, four_group_cost, resolution=1.0)
        assert np.allclose(res.alloc.counts, [500, 0, 0, 500])
        assert res.utility == pytest.approx(21.4, abs=0.05)
        assert res.converged

    def test_priority_weights_find_shifted_allocation(
        self, four_group_curve, four_group_cost, u_priority
    ):
        res = solve_grid(four_group_curve, u_priority, four_group_cost, resolution=1.0)
        assert np.allclose(res.alloc.counts, [143, 0, 0, 857])
        assert res.utility == pytest.approx(22.1, abs=0.05)

    def test_single_group_spends_everything(self):
        curve = AnalyticCurve(gamma=[[2.0]], form="log1p")
        cost = CostModel(costs=[4.0], budget=100.0)
        res = solve_grid(curve, UtilitySpec(weights=[1.0]), cost, resolution=1.0)
        assert res.alloc.counts[0] == pytest.approx(25.0)

    def test_too_many_groups_rejected(self):
        curve = AnalyticCurve(gamma=np.eye(5), form="sqrt")
        cost = CostModel(costs=np.ones(5), budget=10)
        with pytest.raises(CapacityError):
            solve_grid(curve, UtilitySpec(weights=np.ones(5)), cost, resolution=1.0)

    def test_point_cap_rejected(self, four_group_curve, four_group_cost, u_equal):
        with pytest.raises(CapacityError):
            solve_grid(
                four_group_curve, u_equal, four_group_cost,
                resolution=0.01,
            )

    def test_result_utility_consistent(self, four_group_curve, four_group_cost, u_equal):
        res = solve_grid(four_group_curve, u_equal, four_group_cost, resolution=25.0)
        recomputed = utility_eval(u_equal, eval_perf(four_group_curve, res.alloc))
        assert res.utility == pytest.approx(recomputed, abs=1e-9)

    def test_never_beaten_by_coarser_rescan(
        self, four_group_curve, four_group_cost, u_equal
    ):
        fine = solve_grid(four_group_curve, u_equal, four_group_cost, resolution=10.0)
        for coarse_res in (50.0, 100.0, 250.0):
            coarse = solve_grid(
                four_group_curve, u_equal, four_group_cost, resolution=coarse_res
            )
            assert fine.utility >= coarse.utility - 1e-12

    def test_parity_penalized_scan_covers_interior(self):
        # with a huge parity penalty the best grid point is perfectly
        # balanced performance, which here means spending *nothing*
        curve = AnalyticCurve(gamma=np.diag([1.0, 4.0]), form="sqrt")
        cost = CostModel(costs=[1.0, 1.0], budget=8.0)
        util = UtilitySpec(weights=[1.0, 1.0], parity_penalty=100.0)
        res = solve_grid(curve, util, cost, resolution=1.0)
        perf = eval_perf(curve, res.alloc).values
        assert abs(perf[0] - perf[1]) <= 0.5  # near-parity wins the scan

    def test_lexicographic_tie_break(self):
        # two identical groups, concave curve: (1,1) ties (2,0) and (0,2)?
        # sqrt makes the split strictly better, so use a linear-ish pair of
        # disconnected groups where only total count matters for group 1.
        curve = AnalyticCurve(gamma=[[1.0, 1.0], [1.0, 1.0]], form="sqrt")
        cost = CostModel(costs=[1.0, 1.0], budget=4.0)
        util = UtilitySpec(weights=[1.0, 1.0])
        res = solve_grid(curve, util, cost, resolution=1.0)
        # every full-spend point has the same utility; smallest lexicographic wins
        assert np.allclose(res.alloc.counts, [0.0, 4.0])

    @pytest.mark.parametrize("gamma,weights,penalty", [
        ([[1.0, 0.3], [0.3, 1.0]], [1.0, 1.0], 0.3),  # -inf - -inf at the origin
        ([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0], 0.0),  # 0 * -inf at (100, 0)
    ])
    def test_undefined_points_do_not_hide_their_chunk(self, gamma, weights, penalty):
        # A point with a non-positive performance under the log transform is
        # -inf, never NaN, so the rest of its chunk still competes.
        curve = AnalyticCurve(gamma=gamma, form="sqrt")
        cost = CostModel(costs=[1.0, 1.0], budget=100.0)
        util = UtilitySpec(weights=weights, parity_penalty=penalty, transform="log")
        res = solve_grid(curve, util, cost, resolution=1.0)
        best, n_points = _enumerate_grid(curve, util, cost, 1.0)
        assert np.array_equal(res.alloc.counts, best)
        assert res.iterations == n_points


def _enumerate_grid(curve, util, cost, resolution):
    """Reference scan of ``solve_grid``'s grid with ``itertools``: the
    lexicographically first maximiser among the points where the utility
    is defined, and the number of grid points."""
    k = curve.num_groups
    d = int(math.floor(cost.spend_limit / resolution))
    steps = resolution / cost.costs
    best, best_u, n_points = None, -np.inf, 0
    for m in itertools.product(range(d + 1), repeat=k):
        if sum(m) > d or (util.is_concave_monotone and sum(m) < d):
            continue
        n_points += 1
        counts = np.array(m) * steps
        try:
            u = utility_eval(util, eval_perf(curve, Allocation(counts)))
        except DomainError:
            continue
        if u > best_u:
            best, best_u = counts, u
    return best, n_points


class TestGridProperties:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_enumeration_on_random_instances(self, k):
        rng = np.random.default_rng([7, k])
        for trial in range(24):
            form = ("sqrt", "log1p", "power")[trial % 3]
            curve = AnalyticCurve(gamma=rng.uniform(0.05, 1.0, (k, k)), form=form)
            cost = CostModel(costs=rng.uniform(0.2, 2.0, k), budget=rng.uniform(1, 20))
            util = UtilitySpec(
                weights=rng.uniform(0.1, 1.0, k),
                parity_penalty=(0.0, 0.0, 0.3, 2.0)[trial % 4],  # half the full grid
                transform=("identity", "log")[trial % 2],
            )
            resolution = cost.budget / int(rng.integers(3, 11))
            res = solve_grid(curve, util, cost, resolution)
            best, n_points = _enumerate_grid(curve, util, cost, resolution)
            assert np.array_equal(res.alloc.counts, best), (k, trial)
            assert res.iterations == n_points, (k, trial)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("penalty", [0.0, 1.0])
    def test_ties_break_toward_the_lexicographically_smallest_point(self, k, penalty):
        # Every group reads the total count, so on the face every point ties
        # exactly (sqrt(16) = 4 in every group) and only the tie-break decides.
        curve = AnalyticCurve(gamma=np.ones((k, k)), form="sqrt")
        cost = CostModel(costs=np.ones(k), budget=16.0)
        util = UtilitySpec(weights=np.ones(k), parity_penalty=penalty)
        res = solve_grid(curve, util, cost, resolution=1.0)
        best, n_points = _enumerate_grid(curve, util, cost, 1.0)
        assert np.array_equal(best, [0.0] * (k - 1) + [16.0])
        assert np.array_equal(res.alloc.counts, best)
        assert res.iterations == n_points == (math.comb(16 + k - 1, k - 1) if penalty == 0
                                              else math.comb(16 + k, k))

    @pytest.mark.parametrize("penalty", [0.0, 0.5])
    @pytest.mark.parametrize("budget", [7.0, 10.0])
    def test_mirror_image_ties_break_toward_the_smaller_first_count(self, penalty, budget):
        # Two interchangeable groups: (a, b) and (b, a) tie exactly.
        curve = AnalyticCurve(gamma=[[1.0, 0.4], [0.4, 1.0]], form="log1p")
        cost = CostModel(costs=[1.0, 1.0], budget=budget)
        util = UtilitySpec(weights=[1.0, 1.0], parity_penalty=penalty)
        res = solve_grid(curve, util, cost, resolution=1.0)
        best, n_points = _enumerate_grid(curve, util, cost, 1.0)
        assert np.array_equal(res.alloc.counts, best)
        assert res.alloc.counts[0] <= res.alloc.counts[1]
        assert res.iterations == n_points

    @pytest.mark.parametrize("k,penalty,d,n_batches,largest", [
        (1, 0.5, 1_000_000, 3, 500_000),          # full grid: a segment in pieces
        (2, 0.0, 600, 1, 601),                    # face: one segment
        (2, 0.0, 2_000_000, 5, 500_000),          # face: a segment in pieces
        (2, 0.5, 600, 601, 601),                  # full grid: a segment per prefix
        (3, 0.0, 600, 601, 601),                  # face: a segment per prefix
        (3, 0.5, 60, 61, math.comb(62, 2)),       # full grid: a triangle per prefix
        (4, 0.0, 60, 61, math.comb(62, 2)),       # face: a triangle per prefix
        (4, 0.5, 20, math.comb(22, 2), math.comb(22, 2)),
    ])
    def test_batches_stay_small_where_the_cap_does_not_bound_d(
        self, monkeypatch, k, penalty, d, n_batches, largest
    ):
        # With two or fewer free coordinates the cap allows d in the tens of
        # thousands, so a batch must be a segment, never the whole triangle;
        # with one it allows d = MAX_GRID_POINTS, so a segment comes in pieces.
        sizes = []

        def recording(curve, utility, counts):
            sizes.append(counts.shape[1])
            return batch_utilities(curve, utility, counts)

        monkeypatch.setattr(solvers, "batch_utilities", recording)
        curve = AnalyticCurve(gamma=np.eye(k) + 0.1, form="sqrt")
        cost = CostModel(costs=np.ones(k), budget=float(d))
        res = solve_grid(curve, UtilitySpec(weights=np.ones(k), parity_penalty=penalty),
                         cost, resolution=1.0)
        assert (len(sizes), max(sizes)) == (n_batches, largest)
        assert sum(sizes) == res.iterations

    def test_grid_never_beats_frank_wolfe_beyond_its_certificate(self):
        rng = np.random.default_rng(11)
        for trial in range(30):
            k = int(rng.integers(2, 5))
            form = ("sqrt", "log1p", "power")[trial % 3]
            curve = AnalyticCurve(gamma=rng.uniform(0.0, 1.0, (k, k)) + 0.01 * np.eye(k),
                                  form=form)
            cost = CostModel(costs=rng.uniform(0.1, 1.0, k), budget=rng.uniform(1, 50))
            util = UtilitySpec(weights=rng.uniform(0.0, 1.0, k) + 0.01,
                               transform=("identity", "log")[trial % 2])
            grid = solve_grid(curve, util, cost, cost.budget / 40)
            for fw in (solve_concave(curve, util, cost),
                       solve_concave(curve, util, cost, max_iter=3)):
                slack = 1e-9 * abs(fw.utility)
                assert grid.utility <= fw.utility + fw.certificate + slack, (trial, fw)


    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_true_curve_greedy_never_beats_the_grid_at_its_step(self, k):
        # Greedy from zero with step s = resolution and budget / s whole ends
        # on a point of the grid's scan (face or full grid), so it can tie the
        # grid's best point but never beat it beyond rounding.
        rng = np.random.default_rng([13, k])
        for trial in range(24):
            form = ("sqrt", "log1p", "power")[trial % 3]
            curve = AnalyticCurve(gamma=rng.uniform(0.05, 1.0, (k, k)), form=form)
            step = rng.uniform(0.1, 2.0)
            d = int(rng.integers(1, 13 if k < 4 else 9))
            cost = CostModel(costs=rng.uniform(0.2, 2.0, k), budget=d * step)
            util = UtilitySpec(weights=rng.uniform(0.1, 1.0, k),
                               parity_penalty=(0.0, 0.5)[trial % 2])
            alloc, trace = run_greedy(curve, util, cost, GreedyConfig(step_cost=step))
            assert len(trace) == d, (k, trial)
            u_greedy = utility_eval(util, eval_perf(curve, alloc))
            grid = solve_grid(curve, util, cost, resolution=step)
            assert u_greedy <= grid.utility + 1e-12 * abs(grid.utility), (k, trial)


class TestSolveConcave:
    def test_equal_weights_matches_analytic_optimum(
        self, four_group_curve, four_group_cost, u_equal
    ):
        res = solve_concave(four_group_curve, u_equal, four_group_cost, tol=1e-8)
        assert abs(res.utility - U_STAR_EQUAL) <= 1e-3
        assert res.converged

    def test_priority_weights_match_analytic_optimum(
        self, four_group_curve, four_group_cost, u_priority
    ):
        res = solve_concave(four_group_curve, u_priority, four_group_cost, tol=1e-8)
        assert abs(res.utility - U_STAR_PRIORITY) <= 1e-3

    def test_symmetric_separable_instance(self):
        curve = AnalyticCurve(gamma=np.eye(2), form="sqrt")
        cost = CostModel(costs=[1.0, 1.0], budget=2.0)
        res = solve_concave(curve, UtilitySpec(weights=[1.0, 1.0]), cost, tol=1e-10)
        assert np.allclose(res.alloc.counts, [1.0, 1.0], atol=1e-4)
        assert res.utility == pytest.approx(2.0, abs=1e-6)

    def test_zero_budget(self):
        curve = AnalyticCurve(gamma=np.eye(2), form="sqrt")
        cost = CostModel(costs=[1.0, 1.0], budget=0.0)
        res = solve_concave(curve, UtilitySpec(weights=[1.0, 1.0]), cost)
        assert np.allclose(res.alloc.counts, 0.0)
        assert res.utility == pytest.approx(0.0)
        assert res.converged

    def test_parity_penalty_unsupported(self, four_group_curve, four_group_cost):
        util = UtilitySpec(weights=[1, 1, 1, 1], parity_penalty=1.0)
        with pytest.raises(UnsupportedUtilityError):
            solve_concave(four_group_curve, util, four_group_cost)

    def test_log_utility_converges(self):
        curve = AnalyticCurve(gamma=[[1.0, 0.2], [0.2, 0.6]], form="sqrt")
        cost = CostModel(costs=[1.0, 2.0], budget=10.0)
        util = UtilitySpec(weights=[1.0, 1.0], transform="log")
        res = solve_concave(curve, util, cost, tol=1e-10)
        grid = solve_grid(curve, util, cost, resolution=0.01)
        assert res.utility >= grid.utility - 1e-5

    def test_agrees_with_grid_on_random_instances(self):
        rng = np.random.default_rng(2024)
        tol = 1e-4
        for trial in range(12):
            k = int(rng.integers(2, 4))
            form = "sqrt" if trial % 2 == 0 else "log1p"
            curve = AnalyticCurve(gamma=rng.uniform(0.05, 1, (k, k)), form=form)
            cost = CostModel(costs=rng.uniform(0.2, 1, k), budget=1.0)
            util = UtilitySpec(weights=rng.uniform(0.1, 1, k))
            res_fw = solve_concave(curve, util, cost, tol=tol)
            res_grid = solve_grid(curve, util, cost, resolution=1.0 / 1000)
            assert abs(res_fw.utility - res_grid.utility) <= 10 * tol
            assert res_grid.utility <= res_fw.utility + res_fw.certificate + 1e-12

    @pytest.mark.parametrize("form", ["sqrt", "log1p"])
    def test_certificate_bounds_fine_greedy(self, form):
        # Every feasible allocation is at most U_fw + certificate, including
        # the true-curve greedy at B/1000, which can beat U_fw itself; a
        # solve cut off after two iterations must certify its shortfall too.
        for seed in range(40):
            rng = np.random.default_rng([seed, len(form)])
            k = int(rng.integers(2, 11))
            curve = AnalyticCurve(gamma=rng.uniform(0, 1, (k, k)), form=form)
            cost = CostModel(costs=np.maximum(rng.uniform(0, 1, k), 1e-9), budget=10.0)
            util = UtilitySpec(weights=rng.uniform(0, 1, k))
            alloc, _ = run_greedy(curve, util, cost, GreedyConfig(step_cost=0.01))
            u_greedy = utility_eval(util, eval_perf(curve, alloc))
            for fw in (solve_concave(curve, util, cost),
                       solve_concave(curve, util, cost, max_iter=2)):
                bound = fw.utility + fw.certificate + 1e-12 * abs(fw.utility)
                assert u_greedy <= bound, (seed, fw)

    def test_certificate_bounds_the_distance_to_the_optimum(
        self, four_group_curve, four_group_cost, u_equal
    ):
        loose = solve_concave(four_group_curve, u_equal, four_group_cost, max_iter=1)
        tight = solve_concave(four_group_curve, u_equal, four_group_cost, tol=1e-12)
        assert not loose.converged and loose.certificate > 1e-3
        assert U_STAR_EQUAL - loose.utility <= loose.certificate
        assert U_STAR_EQUAL - tight.utility <= tight.certificate + 1e-12
        assert tight.certificate < loose.certificate

    def test_exhaustive_solvers_certify_zero(self, four_group_curve, four_group_cost,
                                             u_equal):
        grid = solve_grid(four_group_curve, u_equal, four_group_cost, resolution=50.0)
        enum = batch_enum_optimum(four_group_curve, u_equal,
                                  CostModel(costs=[1.0] * 4, budget=10.0), step_cost=1.0)
        empty = solve_concave(four_group_curve, u_equal,
                              CostModel(costs=[1.0] * 4, budget=0.0))
        assert grid.certificate == enum.certificate == empty.certificate == 0.0


class TestAuditGap:
    def test_optimal_allocation_has_negligible_gap(
        self, four_group_curve, four_group_cost, u_equal
    ):
        _, _, gap = audit_gap(
            four_group_curve, u_equal, four_group_cost, Allocation([500, 0, 0, 500])
        )
        assert 0.0 <= gap <= 0.05

    def test_equal_allocation_gap_matches_known_value(
        self, four_group_curve, four_group_cost, u_equal
    ):
        observed = Allocation([200, 200, 200, 200])
        best, observed_u, gap = audit_gap(
            four_group_curve, u_equal, four_group_cost, observed,
        )
        assert gap == pytest.approx(2.6, abs=0.1)
        assert observed_u == utility_eval(u_equal, eval_perf(four_group_curve, observed))
        grid = solve_grid(four_group_curve, u_equal, four_group_cost, 1000 / 200)
        assert np.array_equal(best.alloc.counts, grid.alloc.counts)
        assert gap == best.utility - observed_u

    def test_single_minded_auditor_sees_no_gap(self, four_group_curve, four_group_cost):
        util = UtilitySpec(weights=[0, 0, 0, 1.0])
        _, _, gap = audit_gap(
            four_group_curve, util, four_group_cost, Allocation([0, 0, 0, 1000])
        )
        assert gap == pytest.approx(0.0, abs=1e-6)

    def test_gap_zero_against_own_solver_output(
        self, four_group_curve, four_group_cost, u_priority
    ):
        best = solve_grid(four_group_curve, u_priority, four_group_cost, resolution=5.0)
        _, _, gap = audit_gap(
            four_group_curve, u_priority, four_group_cost, best.alloc, resolution=5.0
        )
        assert gap == pytest.approx(0.0, abs=1e-12)

    def test_infeasible_observation_rejected(
        self, four_group_curve, four_group_cost, u_equal
    ):
        with pytest.raises(DomainError):
            audit_gap(
                four_group_curve, u_equal, four_group_cost,
                Allocation([2000, 0, 0, 0]),
            )

    def test_unconverged_optimum_warns(self, monkeypatch):
        curve = AnalyticCurve(gamma=np.eye(5) + 0.2, form="sqrt")
        cost = CostModel(costs=np.ones(5), budget=10.0)
        util = UtilitySpec(weights=[1.0, 2.0, 3.0, 4.0, 5.0])
        observed = Allocation(np.full(5, 2.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a converged optimum stays silent
            audit_gap(curve, util, cost, observed)
        monkeypatch.setattr(solvers, "solve_concave",
                            functools.partial(solve_concave, max_iter=1))
        with pytest.warns(RuntimeWarning,
                          match=r"did not converge in 1 iterations.* certificate"):
            best, _, _ = audit_gap(curve, util, cost, observed)
        assert not best.converged and best.certificate > 0

    def test_gap_nonnegative_for_continuous_solver_output(
        self, four_group_curve, four_group_cost, u_equal
    ):
        best = solve_concave(four_group_curve, u_equal, four_group_cost, tol=1e-10)
        _, _, gap = audit_gap(
            four_group_curve, u_equal, four_group_cost, best.alloc, resolution=7.0
        )
        assert gap >= 0.0
