import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equalloc import Allocation, AnalyticCurve, CostModel, UtilitySpec, eval_perf, solvers
from equalloc.curves import batch_utilities
from equalloc.errors import DomainError


def batch_gain(curve, util, counts, group, step_cost, cost):
    """Utility gain of spending ``step_cost`` more on ``group`` at ``counts``,
    as a difference of two batch_utilities columns."""
    counts = np.asarray(counts, dtype=float)
    bumped = counts.copy()
    bumped[group] += step_cost / cost.costs[group]
    before, after = batch_utilities(curve, util, np.column_stack([counts, bumped]))
    return after - before


class TestEvalPerf:
    def test_equal_allocation_performances(self, four_group_curve):
        perf = eval_perf(four_group_curve, Allocation([200, 200, 200, 200]))
        expected = [19.49, 16.73, 19.49, 19.49]
        assert np.allclose(perf.values, expected, atol=0.01)

    def test_concentrated_allocation_performances(self, four_group_curve):
        perf = eval_perf(four_group_curve, Allocation([500, 0, 0, 500]))
        assert np.allclose(perf.values, [25.50, 17.32, 17.32, 25.50], atol=0.01)

    def test_zero_allocation_is_zero(self, four_group_curve):
        perf = eval_perf(four_group_curve, Allocation.zeros(4))
        assert np.allclose(perf.values, 0.0)

    def test_offset_shifts_argument(self):
        curve = AnalyticCurve(gamma=np.eye(2), form="sqrt", offset=4.0)
        perf = eval_perf(curve, Allocation([0, 5]))
        assert np.allclose(perf.values, [2.0, 3.0])

    def test_log1p_defined_at_zero(self):
        curve = AnalyticCurve(gamma=np.eye(2), form="log1p")
        assert np.allclose(eval_perf(curve, Allocation.zeros(2)).values, 0.0)

    def test_power_form(self):
        curve = AnalyticCurve(gamma=np.eye(1), form="power", power_exponent=0.25)
        assert eval_perf(curve, Allocation([16.0])).values[0] == pytest.approx(2.0)

    @pytest.mark.parametrize("form", ["sqrt", "log1p", "power"])
    def test_transform_returns_a_new_array(self, form):
        # solvers._gradient applies the form to its own z and reads z after;
        # perf_values applies it in place, to the product it just made
        curve = AnalyticCurve(gamma=[[1.0, 0.2], [0.5, 1.0]], form=form,
                              power_exponent=0.3, offset=0.5)
        z = np.array([0.0, 2.5])
        out = curve.transform(z)
        assert not np.shares_memory(out, z) and np.array_equal(z, [0.0, 2.5])
        counts = np.random.default_rng(3).uniform(0.0, 10.0, (2, 40))
        counts.flags.writeable = False
        for c in (counts, counts[:, 5]):
            assert np.array_equal(curve.perf_values(c),
                                  curve.transform(curve.offset + curve.gamma @ c))

    @pytest.mark.parametrize("form", ["sqrt", "log1p", "power"])
    @pytest.mark.parametrize("k", [3, 4])
    def test_a_zero_offset_adds_nothing_to_grid_points(self, form, k):
        # perf_values skips a zero offset: the BLAS product starts its sums at
        # +0.0, so gamma @ counts is never -0.0 and adding +0.0 is the identity,
        # also on a batch of zeros and negative zeros, and on the points of the
        # full-spend face and of the whole grid
        rng = np.random.default_rng(k)
        curve = AnalyticCurve(gamma=rng.uniform(0.0, 1.0, (k, k)) + np.eye(k), form=form,
                              power_exponent=0.3)
        signed_zeros = np.zeros((k, 9))
        signed_zeros[rng.random((k, 9)) < 0.5] = -0.0
        step_sizes = 12.5 / rng.uniform(0.4, 2.0, k)
        grids = (solvers._grid_counts(m, 40, step_sizes)  # the face's points, then the grid's
                 for n in (k - 1, k) for m in solvers._lattice(n, 40))
        points = 0
        for batch in itertools.chain([signed_zeros], grids):
            want = curve.transform(curve.gamma @ batch + 0.0)
            assert curve.perf_values(batch).tobytes() == want.tobytes()
            points += batch.shape[1]
        assert points > 10_000

    def test_gamma_validation(self):
        with pytest.raises(DomainError):
            AnalyticCurve(gamma=[[1.0, 0.0], [0.0, 0.0]])  # empty second row
        with pytest.raises(DomainError):
            AnalyticCurve(gamma=[[1.0, -0.1], [0.0, 1.0]])


class TestMarginalBatch:
    def test_expensive_group_gains_less_per_dollar(
        self, four_group_curve, four_group_cost, u_equal
    ):
        zero = np.zeros(4)
        gain_cheap = batch_gain(four_group_curve, u_equal, zero, 0, 100.0, four_group_cost)
        gain_expensive = batch_gain(
            four_group_curve, u_equal, zero, 2, 100.0, four_group_cost
        )
        # same spend buys group 2 only 50 samples (cost 2), so less gain
        assert gain_expensive < gain_cheap

    def test_symmetric_groups_gain_equally(self):
        curve = AnalyticCurve(gamma=np.eye(2), form="sqrt")
        cost = CostModel(costs=[1, 1], budget=10)
        util = UtilitySpec(weights=[1, 1])
        g0 = batch_gain(curve, util, [0.0, 0.0], 0, 1.0, cost)
        g1 = batch_gain(curve, util, [0.0, 0.0], 1, 1.0, cost)
        assert g0 == pytest.approx(1.0)
        assert g1 == pytest.approx(1.0)

    def test_concavity_shrinks_later_gains(self):
        curve = AnalyticCurve(gamma=np.eye(2), form="sqrt")
        cost = CostModel(costs=[1, 1], budget=10)
        util = UtilitySpec(weights=[1, 1])
        gain = batch_gain(curve, util, [1.0, 0.0], 0, 1.0, cost)
        assert gain == pytest.approx(np.sqrt(2) - 1.0)
        assert gain < 1.0


def _random_curve(rng, k, form):
    gamma = rng.uniform(0, 1, (k, k)) + 0.01
    return AnalyticCurve(gamma=gamma, form=form)


class TestCurveProperties:
    @given(
        st.integers(min_value=1, max_value=5),
        st.sampled_from(["sqrt", "log1p", "power"]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_every_count(self, k, form, seed):
        rng = np.random.default_rng(seed)
        curve = _random_curve(rng, k, form)
        n = rng.uniform(0, 50, k)
        bigger = n + rng.uniform(0, 20, k)
        m_low = eval_perf(curve, Allocation(n)).values
        m_high = eval_perf(curve, Allocation(bigger)).values
        assert np.all(m_high >= m_low - 1e-12)

    @given(
        st.integers(min_value=1, max_value=5),
        st.sampled_from(["sqrt", "log1p", "power"]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_concave_along_rays(self, k, form, seed):
        rng = np.random.default_rng(seed)
        curve = _random_curve(rng, k, form)
        n = rng.uniform(0, 50, k)
        d = rng.uniform(0, 20, k)
        t = rng.uniform(0, 1)
        m_mid = eval_perf(curve, Allocation(n + t * d)).values
        m_lo = eval_perf(curve, Allocation(n)).values
        m_hi = eval_perf(curve, Allocation(n + d)).values
        assert np.all(m_mid >= (1 - t) * m_lo + t * m_hi - 1e-9)

    def test_batch_ledger_rows_nonincreasing_for_separable(self):
        # group i's j-th batch gain, holding every other group at zero: on a
        # diagonal gamma each group's row of gains never increases
        rng = np.random.default_rng(7)
        for form in ("sqrt", "log1p"):
            for _ in range(20):
                k = int(rng.integers(1, 5))
                curve = AnalyticCurve(gamma=np.diag(rng.uniform(0.1, 2, k)), form=form)
                cost = CostModel(costs=rng.uniform(0.2, 2, k), budget=100)
                util = UtilitySpec(weights=rng.uniform(0.1, 1, k))
                step = rng.uniform(0.5, 3)
                for i in range(k):
                    counts = np.zeros((k, 9))
                    counts[i] = np.arange(9) * step / cost.costs[i]
                    row = np.diff(batch_utilities(curve, util, counts))
                    assert np.all(np.diff(row) <= 1e-12)

    def test_diminishing_marginals_same_group(self):
        rng = np.random.default_rng(11)
        curve = AnalyticCurve(gamma=np.diag([1.0, 0.7]), form="sqrt")
        cost = CostModel(costs=[1.0, 1.5], budget=100)
        util = UtilitySpec(weights=[1.0, 0.5])
        for _ in range(30):
            base = rng.uniform(0, 10, 2)
            more = base + rng.uniform(0, 10, 2)
            g = int(rng.integers(0, 2))
            lo = batch_gain(curve, util, base, g, 1.0, cost)
            hi = batch_gain(curve, util, more, g, 1.0, cost)
            assert hi <= lo + 1e-12
