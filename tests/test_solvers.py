import functools
import itertools
import math
import tracemalloc
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

    @pytest.mark.parametrize("resolution", [float("nan"), float("inf")])
    def test_non_finite_resolution_rejected(
        self, four_group_curve, four_group_cost, u_equal, resolution
    ):
        with pytest.raises(DomainError, match="positive finite number"):
            solve_grid(four_group_curve, u_equal, four_group_cost, resolution)

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
        # (0, 100) is -inf; (100, 0) is defined: a zero weight adds 0
        ([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0], 0.0),
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


def _record_kernel_calls(monkeypatch):
    """The list that receives the points in each ``batch_utilities`` call
    that the solvers make from now on."""
    sizes = []

    def recording(curve, utility, counts):
        sizes.append(counts.shape[1])
        return batch_utilities(curve, utility, counts)

    monkeypatch.setattr(solvers, "batch_utilities", recording)
    return sizes


def _kernel_batch_sizes(monkeypatch, k, penalty, d):
    """The points in each ``batch_utilities`` call of a K-group grid solve
    d spend steps wide, and the solve's result."""
    sizes = _record_kernel_calls(monkeypatch)
    curve = AnalyticCurve(gamma=np.eye(k) + 0.1, form="sqrt")
    cost = CostModel(costs=np.ones(k), budget=float(d))
    res = solve_grid(curve, UtilitySpec(weights=np.ones(k), parity_penalty=penalty),
                     cost, resolution=1.0)
    return sizes, res


def _enumerate_grid(curve, util, cost, resolution, full=False):
    """Reference scan of ``solve_grid``'s grid with ``itertools``: the
    lexicographically first maximiser among the points where the utility
    is defined, and the number of grid points.  ``full`` scans every point
    of the grid, under-spent ones included, where ``solve_grid`` scans only
    the full-spend face for a monotone utility."""
    k = curve.num_groups
    d = int(math.floor(cost.spend_limit / resolution))
    steps = resolution / cost.costs
    best, best_u, n_points = None, -np.inf, 0
    for m in itertools.product(range(d + 1), repeat=k):
        if sum(m) > d or (util.is_concave_monotone and sum(m) < d and not full):
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
            curve = AnalyticCurve(gamma=rng.uniform(0.05, 1.0, (k, k)), form=form,
                                  offset=(0.0, 0.5, 2.0)[trial // 8])
            cost = CostModel(costs=rng.uniform(0.2, 2.0, k), budget=rng.uniform(1, 20))
            util = UtilitySpec(
                weights=rng.uniform(0.1, 1.0, k),
                parity_penalty=(0.0, 0.0, 0.3, 2.0)[trial % 4],  # half the full grid
                transform=("identity", "log")[trial % 2],
                normalize=trial // 4 % 2 == 1,
            )
            resolution = cost.budget / int(rng.integers(3, 11))
            res = solve_grid(curve, util, cost, resolution)
            best, n_points = _enumerate_grid(curve, util, cost, resolution)
            assert np.array_equal(res.alloc.counts, best), (k, trial)
            assert res.iterations == n_points, (k, trial)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_the_face_at_a_step_reaches_the_best_whole_batch_point(self, k):
        # Greedy's comparison class is every allocation of whole batches,
        # under-spent ones too, while the scan at resolution = step reads
        # only the full-spend face of a monotone utility: its best must be
        # the best of the whole grid, under log, zero weights and sparse gamma.
        rng = np.random.default_rng([17, k])
        defined = 0
        for trial in range(24):
            sparse = rng.uniform(0.0, 1.0, (k, k)) * (rng.random((k, k)) < 0.4)
            curve = AnalyticCurve(gamma=sparse + np.diag(rng.uniform(0.1, 1.0, k)),
                                  form=("sqrt", "log1p", "power")[trial % 3],
                                  offset=(0.0, 0.5)[trial // 12])
            weights = rng.uniform(0.1, 1.0, k) * (rng.random(k) < 0.6)
            weights[trial % k] += 0.5
            util = UtilitySpec(weights=weights, transform=("identity", "log")[trial % 2],
                               normalize=trial // 4 % 2 == 1)
            step = rng.uniform(0.1, 2.0)
            d = int(rng.integers(1, 9 if k < 4 else 6))
            cost = CostModel(costs=rng.uniform(0.2, 2.0, k), budget=d * step)
            best, _ = _enumerate_grid(curve, util, cost, step, full=True)
            if best is None:  # undefined on the whole grid, so on the face too
                with pytest.raises(DomainError):
                    solve_grid(curve, util, cost, resolution=step)
                continue
            defined += 1
            best_u = utility_eval(util, eval_perf(curve, Allocation(best)))
            res = solve_grid(curve, util, cost, resolution=step)
            assert best_u - 1e-12 * abs(best_u) <= res.utility <= best_u, (k, trial)
        assert defined >= 18

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
        (1, 0.5, 1_000_000, 3, 500_000),          # a segment in pieces
        (2, 0.5, 600, 601, 601),                  # a segment per prefix
        (3, 0.5, 60, 61, math.comb(62, 2)),       # a triangle per prefix
        (4, 0.5, 20, 21, math.comb(23, 3)),       # a tetrahedron per prefix
        (4, 0.5, 40, sum(-(-math.comb(43 - a, 3) // solvers._MAX_BATCH) for a in range(41)),
         solvers._MAX_BATCH),                     # ... in pieces past _MAX_BATCH points
    ])
    def test_batches_stay_small_where_the_cap_does_not_bound_d(
        self, monkeypatch, k, penalty, d, n_batches, largest
    ):
        # The whole grid of a penalized utility: with two or fewer coordinates
        # the cap allows d in the tens of thousands, so a batch must be a
        # segment, never the whole triangle; with one it allows d =
        # MAX_GRID_POINTS, so a segment comes in pieces.
        sizes, res = _kernel_batch_sizes(monkeypatch, k, penalty, d)
        assert (len(sizes), max(sizes)) == (n_batches, largest)
        assert sum(sizes) == res.iterations

    @pytest.mark.parametrize("k,d", [(1, 600), (2, 600), (2, 2_000_000), (3, 600), (4, 60),
                                     (4, 600)])
    def test_face_kernel_calls_stay_within_a_batch(self, monkeypatch, k, d):
        # The face's cells and their points are scored _MAX_BATCH at a time at
        # most, however wide the face, and every face point counts as visited.
        sizes, res = _kernel_batch_sizes(monkeypatch, k, 0.0, d)
        assert 0 < max(sizes) <= solvers._MAX_BATCH
        assert res.iterations == math.comb(d + k - 1, k - 1)
        assert np.array_equal(res.alloc.counts, np.full(k, d / k))  # symmetric optimum

    @pytest.mark.parametrize("gamma,budget,d", [
        (np.eye(4) + 0.1, 600.0, 600),  # cells prune
        # gamma @ counts underflows to 0: the log utility is -inf everywhere,
        # no tangent plane exists, and every cell is scored
        (5e-324 * np.eye(4), 0.4, 200),
    ])
    def test_face_memory_stays_flat(self, gamma, budget, d):
        # A scan in triangle batches of C(d + 2, 2) points peaked at 7.6 MB on
        # the first face (36 M points); an array over the second face's 1.4 M
        # points would take 11 MB.
        curve = AnalyticCurve(gamma=gamma, form="sqrt")
        util = UtilitySpec(weights=np.ones(4), transform="log")
        tracemalloc.start()
        try:
            try:
                solve_grid(curve, util, CostModel(costs=np.ones(4), budget=budget), budget / d)
            except DomainError:
                assert gamma[0, 0] < 1e-300
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4e6

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_bounded_face_scan_matches_the_exhaustive_scan(self, monkeypatch, k):
        # Wide enough faces that cells prune, against every face point scored
        # at once in lexicographic order.  A kernel call rounds a column by its
        # place in the batch, so points within a few ulps of the best are a tie
        # class; a best point that stands out must be found exactly.
        scored = _record_kernel_calls(monkeypatch)
        rng = np.random.default_rng([41, k])
        exact = pruned = 0
        for trial in range(30):
            kind = trial % 5  # dense, sparse gamma, zero weights under log, mirror, mirror
            gamma = rng.uniform(0.05, 1.0, (k, k))
            if kind == 1:
                gamma = (rng.uniform(0.0, 1.0, (k, k)) * (rng.random((k, k)) < 0.4)
                         + np.diag(rng.uniform(0.1, 1.0, k)))
            weights, costs = rng.uniform(0.1, 1.0, k), rng.uniform(0.2, 2.0, k)
            if kind == 2:
                weights[rng.permutation(k)[:k // 2]] = 0.0
            if kind >= 3:  # groups 0 and 1 are interchangeable
                swap = [1, 0] + list(range(2, k))
                gamma = (gamma + gamma[np.ix_(swap, swap)]) / 2
                weights[1], costs[1] = weights[0], costs[0]
            curve = AnalyticCurve(gamma=gamma, form=("sqrt", "log1p", "power")[trial % 3],
                                  power_exponent=0.3, offset=(0.0, 0.5)[trial // 3 % 2])
            util = UtilitySpec(weights=weights, normalize=trial % 4 == 0,
                               transform="log" if kind == 2 or trial % 2 else "identity")
            d = int(rng.integers(40, {2: 2000, 3: 200, 4: 60}[k]))
            cost = CostModel(costs=costs, budget=float(rng.uniform(1.0, 100.0)))
            resolution = cost.budget / d
            m = np.indices((d + 1,) * (k - 1)).reshape(k - 1, -1)
            m = m[:, m.sum(axis=0) <= d]  # the face's points in lexicographic order
            face = np.vstack([m, d - m.sum(axis=0)]) * (resolution / cost.costs)[:, None]
            u = batch_utilities(curve, util, face)
            scored.clear()
            res = solve_grid(curve, util, cost, resolution)
            assert res.iterations == face.shape[1], (k, trial)
            pruned += sum(scored) < face.shape[1] / 2
            near = np.flatnonzero(u >= u.max() - 4 * math.ulp(u.max()))
            if near.size == 1:
                exact += 1
                assert np.array_equal(res.alloc.counts, face[:, near[0]]), (k, trial)
            else:
                assert (face[:, near] == res.alloc.counts[:, None]).all(axis=0).any(), (k, trial)
            assert res.utility == pytest.approx(u.max(), rel=1e-15, abs=0), (k, trial)
        assert exact >= 18 and pruned >= 24, (exact, pruned)

    def test_exact_ties_across_cells_break_toward_the_first_point(self):
        # Groups 0 and 1 read only their sum, in dyadic products of whole
        # counts, so every split of the best sum ties bit for bit, in cells
        # and batches that a scan in cell order meets before the first split.
        gamma = np.array([[1.0, 1.0, 0.5], [1.0, 1.0, 0.25], [0.5, 0.5, 1.0]])
        curve = AnalyticCurve(gamma=gamma, form="sqrt")
        util = UtilitySpec(weights=[1.0, 1.0, 2.0])
        cost = CostModel(costs=np.ones(3), budget=100.0)
        res = solve_grid(curve, util, cost, resolution=1.0)
        m = np.indices((101, 101)).reshape(2, -1)
        m = m[:, m.sum(axis=0) <= 100]
        face = np.vstack([m, 100 - m.sum(axis=0)]).astype(float)
        u = batch_utilities(curve, util, face)
        tied = np.flatnonzero(u == u.max())
        assert tied.size > 8 and face[0, tied[0]] == 0.0
        assert np.array_equal(res.alloc.counts, face[:, tied[0]])

    def test_table1_face_scores_few_of_its_points(
        self, monkeypatch, four_group_curve, four_group_cost, u_equal
    ):
        # Pruning must not switch off silently: at 250 spend steps the scan
        # scores under 5% of the face's 2.7 M points.
        sizes = _record_kernel_calls(monkeypatch)
        res = solve_grid(four_group_curve, u_equal, four_group_cost, resolution=4.0)
        assert res.iterations == math.comb(253, 3)
        assert np.array_equal(res.alloc.counts, [500.0, 0.0, 0.0, 500.0])
        assert sum(sizes) <= 0.05 * res.iterations

    def test_a_tetrahedron_over_the_segment_cap_falls_back_to_triangles(self, monkeypatch):
        monkeypatch.setattr(solvers, "_MAX_SEGMENT", math.comb(23, 3) - 1)
        sizes, res = _kernel_batch_sizes(monkeypatch, 4, 0.5, 20)
        assert (len(sizes), max(sizes)) == (math.comb(22, 2), math.comb(22, 2))
        assert sum(sizes) == res.iterations

    @pytest.mark.parametrize("trial", range(24))
    def test_tetrahedron_and_triangle_scans_give_the_same_answer(self, monkeypatch, trial):
        rng = np.random.default_rng([29, trial])
        # A zero off the diagonal leaves a group at zero performance wherever
        # its own count is zero: -inf points under the log transform.
        gamma = rng.uniform(0.05, 1.0, (4, 4)) * (rng.random((4, 4)) < 0.7) + np.eye(4)
        curve = AnalyticCurve(gamma=gamma, form=("sqrt", "log1p", "power")[trial % 3],
                              offset=(0.0, 0.5)[trial // 12])
        cost = CostModel(costs=rng.uniform(0.2, 2.0, 4), budget=rng.uniform(1, 20))
        util = UtilitySpec(weights=rng.uniform(0.1, 1.0, 4),
                           parity_penalty=rng.uniform(0.1, 2.0),
                           transform=("identity", "log")[trial // 3 % 2],
                           normalize=trial % 2 == 1)
        resolution = cost.budget / int(rng.integers(8, 46))
        tetra = solve_grid(curve, util, cost, resolution)
        d = int(math.floor(cost.spend_limit / resolution))
        monkeypatch.setattr(solvers, "_MAX_SEGMENT", math.comb(d + 3, 3) - 1)
        triangles = solve_grid(curve, util, cost, resolution)
        assert tetra.to_dict() == triangles.to_dict()
        assert tetra.utility.hex() == triangles.utility.hex()

    @pytest.mark.parametrize("d,m", [(142, 3), (143, 2)])  # tetrahedron, then triangles
    def test_the_tetrahedron_is_built_only_while_it_fits_the_segment_cap(self, monkeypatch, d, m):
        class Stop(Exception):
            pass

        sizes = []

        def first_call_only(curve, utility, counts):
            sizes.append(counts.shape[1])
            raise Stop

        monkeypatch.setattr(solvers, "batch_utilities", first_call_only)
        curve = AnalyticCurve(gamma=np.eye(4) + 0.1, form="sqrt")
        util = UtilitySpec(weights=np.ones(4), parity_penalty=0.5)
        tracemalloc.start()
        try:
            with pytest.raises(Stop):
                solve_grid(curve, util, CostModel(costs=np.ones(4), budget=float(d)), 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The simplex is cut into blocks of _MAX_BATCH points from its end,
        # so the first call holds what is left over at its start.
        assert sizes == [(math.comb(d + m, m) - 1) % solvers._MAX_BATCH + 1]
        # K = 4 rows of _MAX_SEGMENT points, plus the int32 first coordinate
        assert peak <= 4 * 8 * solvers._MAX_SEGMENT * 1.2

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

    @pytest.mark.parametrize("form", ["sqrt", "log1p", "power"])
    @pytest.mark.parametrize("offset", [0.0, 0.5])
    def test_zero_budget_is_certified_by_the_first_step(self, form, offset):
        # every vertex of a zero-budget feasible set is the origin, so the
        # ascent's first step finds a zero duality gap there
        curve = AnalyticCurve(gamma=[[1.0, 0.2], [0.2, 0.6]], form=form, offset=offset)
        cost = CostModel(costs=[1.0, 2.0], budget=0.0)
        res = solve_concave(curve, UtilitySpec(weights=[1.0, 2.0]), cost)
        assert np.array_equal(res.alloc.counts, [0.0, 0.0])
        assert res.iterations == 1 and res.converged and res.certificate == 0.0
        if offset == 0.0:  # every performance is zero: the log utility is undefined
            with pytest.raises(DomainError, match="strictly positive"):
                solve_concave(curve, UtilitySpec(weights=[1.0, 2.0], transform="log"), cost)

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
        empty = solve_concave(four_group_curve, u_equal,
                              CostModel(costs=[1.0] * 4, budget=0.0))
        assert grid.certificate == empty.certificate == 0.0


def _sparse_instance(seed: int):
    """A random instance with sparse cross-group weights on a positive
    diagonal: a log utility in about two of three, ``normalize`` in one of
    four, and an offset of zero (performances that vanish on the faces) in
    one of two."""
    rng = np.random.default_rng([21, seed])
    k = int(rng.integers(1, 9))
    sparse = rng.uniform(0.0, 1.0, (k, k)) * (rng.random((k, k)) < 0.3)
    curve = AnalyticCurve(gamma=sparse + np.diag(rng.uniform(0.1, 1.0, k)),
                          form=("sqrt", "log1p", "power")[int(rng.integers(3))],
                          offset=(0.0, 0.5)[int(rng.integers(2))])
    cost = CostModel(costs=rng.uniform(0.05, 1.0, k), budget=10.0)
    util = UtilitySpec(weights=rng.uniform(0.05, 1.0, k),
                       transform="log" if rng.random() < 2 / 3 else "identity",
                       normalize=bool(rng.random() < 0.25))
    return curve, util, cost


class TestSolveConcaveProperties:
    TOL = 1e-8

    def _check(self, curve, util, cost, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # no NaN inside the solve
            res = solve_concave(curve, util, cost, tol=self.TOL)  # and no DomainError
        if res.converged:
            assert res.certificate <= self.TOL * max(1.0, abs(res.utility)), res
        # random feasible points, on the full-spend face and inside the simplex
        rng = np.random.default_rng(seed)
        k = curve.num_groups
        vertices = np.diag(cost.budget / cost.costs)
        inside = rng.dirichlet(np.ones(k + 1), 100)[:, 1:] @ vertices
        face = rng.dirichlet(np.ones(k), 100) @ vertices
        u = batch_utilities(curve, util, np.vstack([inside, face]).T)
        assert (u <= res.utility + res.certificate + 1e-12 * abs(res.utility)).all(), res

    def test_sparse_gamma_log_sweep(self):
        for seed in range(200):
            self._check(*_sparse_instance(seed), seed)

    def test_log_utility_on_a_diagonal_curve(self):
        # the line search used to step past a face, where sqrt of a negative
        # count raised a RuntimeWarning
        curve = AnalyticCurve(gamma=[[1.0, 0.0], [0.0, 0.6]], form="sqrt")
        cost = CostModel(costs=[0.5, 0.1], budget=10.0)
        self._check(curve, UtilitySpec(weights=[0.1, 0.5], transform="log"), cost, 0)

    def test_a_zero_weight_group_may_perform_zero_under_log(self):
        # solve_concave raised DomainError here while the grid answered
        # [0.05, 9.95]: the kernel scored the zero-weight group's zero
        # performance -inf though its term is 0 without a penalty
        curve = AnalyticCurve(gamma=np.eye(2), form="sqrt")
        cost = CostModel(costs=[1.0, 1.0], budget=10.0)
        util = UtilitySpec(weights=[0.0, 1.0], transform="log")
        concave = solve_concave(curve, util, cost)
        grid = solve_grid(curve, util, cost)
        assert concave.converged
        assert np.array_equal(grid.alloc.counts, [0.0, 10.0])
        assert np.allclose(concave.alloc.counts, grid.alloc.counts, atol=1e-9)
        assert concave.utility == pytest.approx(grid.utility, abs=1e-12)
        assert grid.utility == pytest.approx(0.5 * np.log(10.0))
        self._check(curve, util, cost, 0)


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
