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

    def test_gap_nonnegative_for_continuous_solver_output(
        self, four_group_curve, four_group_cost, u_equal
    ):
        best = solve_concave(four_group_curve, u_equal, four_group_cost, tol=1e-10)
        _, _, gap = audit_gap(
            four_group_curve, u_equal, four_group_cost, best.alloc, resolution=7.0
        )
        assert gap >= 0.0
