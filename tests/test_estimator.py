import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from equalloc import (
    AnalyticCurve,
    CostModel,
    EstimatorSettings,
    GreedyConfig,
    PerformanceHistory,
    UtilitySpec,
    draw_truncated_normal,
    estimate_marginal,
    fit_local_slope,
    run_greedy,
)
from equalloc.envs import AnalyticEnvironment
from equalloc.estimator import _mills, _truncated_normal_ppf
from equalloc.errors import (
    DegenerateDesignError,
    DomainError,
    InsufficientHistoryError,
)


class TestFitLocalSlope:
    def test_exact_line(self):
        slope, se = fit_local_slope([(100, 1.0), (200, 2.0), (300, 3.0)], window=5)
        assert slope == pytest.approx(0.01)
        assert se == 0.0

    def test_two_points(self):
        slope, se = fit_local_slope([(100, 1.0), (200, 1.5)], window=5)
        assert slope == pytest.approx(0.005)
        assert se == 0.0
        _, floored = fit_local_slope(
            [(100, 1.0), (200, 1.5)], window=5, se_floor=1e-6
        )
        assert floored == 1e-6

    def test_window_truncates_older_points(self):
        recent = [(300, 1.0), (400, 3.0), (500, 5.0)]
        older = [(10, 40.0), (20, -7.0)]
        s1, e1 = fit_local_slope(recent, window=3)
        s2, e2 = fit_local_slope(older + recent, window=3)
        assert (s1, e1) == (s2, e2)

    def test_noisy_slope_coverage_matches_ols_theory(self):
        # 5 points leave 3 residual degrees of freedom, so +-3 estimated
        # standard errors cover the truth with t_3 probability ~0.942
        expected = 2 * stats.t.cdf(3, df=3) - 1
        hits = 0
        trials = 1000
        n = np.array([100.0, 200.0, 300.0, 400.0, 500.0])
        for seed in range(trials):
            rng = np.random.default_rng(10_000 + seed)
            y = 0.01 * n + rng.normal(0, 0.05, n.size)
            slope, se = fit_local_slope(np.column_stack([n, y]), window=5)
            if abs(slope - 0.01) <= 3 * se:
                hits += 1
        rate = hits / trials
        assert abs(rate - expected) <= 0.025

    def test_insufficient_points(self):
        with pytest.raises(InsufficientHistoryError):
            fit_local_slope([(100, 1.0)], window=5)

    def test_degenerate_design(self):
        with pytest.raises(DegenerateDesignError):
            fit_local_slope([(100, 1.0), (100, 2.0)], window=5)

    def test_matches_numpy_formula(self):
        def numpy_fit(pts, window):
            x, y = pts[-window:, 0], pts[-window:, 1]
            sxx = np.sum((x - x.mean()) ** 2)
            slope = np.sum((x - x.mean()) * (y - y.mean())) / sxx
            if x.size == 2:
                return float(slope), 0.0
            resid = y - (y.mean() + slope * (x - x.mean()))
            return float(slope), float(np.sqrt(np.sum(resid**2) / (x.size - 2) / sxx))

        rng = np.random.default_rng(8)
        for _ in range(2000):
            window = int(rng.integers(2, 11))
            n = np.cumsum(rng.uniform(0.5, 80.0, int(rng.integers(2, 14))))
            pts = np.column_stack([n, np.sqrt(n) + rng.normal(0, 0.05, n.size)])
            want = numpy_fit(pts, window)
            for got in (fit_local_slope(pts, window), fit_local_slope(pts.tolist(), window)):
                if min(window, n.size) < 8:  # NumPy sums fewer than 8 values in order
                    assert got == want
                else:
                    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


class TestTruncatedNormal:
    def test_zero_sd_degenerates_to_clamped_mean(self):
        assert draw_truncated_normal(0.5, 0.0, 1) == 0.5
        assert draw_truncated_normal(-2.0, 0.0, 1) == 0.0

    def test_always_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            mean = rng.normal(0, 5)
            sd = rng.uniform(0, 3)
            assert draw_truncated_normal(mean, sd, rng) >= 0.0

    def test_half_normal_mean(self):
        rng = np.random.default_rng(123)
        draws = np.array([draw_truncated_normal(0.0, 1.0, rng) for _ in range(100_000)])
        assert draws.mean() == pytest.approx(np.sqrt(2 / np.pi), abs=0.01)

    def test_deterministic_given_seed(self):
        assert draw_truncated_normal(0.3, 0.2, 77) == draw_truncated_normal(0.3, 0.2, 77)

    def test_far_negative_mean_still_valid(self):
        value = draw_truncated_normal(-5.0, 0.1, 3)
        assert 0.0 <= value < 1.0

    def test_negative_sd_rejected(self):
        with pytest.raises(DomainError):
            draw_truncated_normal(0.0, -1.0, 1)

    def test_consumes_exactly_one_uniform(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            mean, sd = rng.normal(0, 3), rng.uniform(1e-4, 2)
            seed = int(rng.integers(2**31))
            drawn, stepped = np.random.default_rng(seed), np.random.default_rng(seed)
            draw_truncated_normal(mean, sd, drawn)
            stepped.uniform()
            assert drawn.bit_generator.state == stepped.bit_generator.state
        untouched = np.random.default_rng(9)
        draw_truncated_normal(0.3, 0.0, untouched)
        assert untouched.bit_generator.state == np.random.default_rng(9).bit_generator.state

    def test_draws_match_scipy_on_the_same_stream(self):
        # scipy's truncnorm is the reference while a = -mean/sd <= 37.  Past
        # that, scipy's own draw is off by up to 2.8e-5 relative here, so the
        # reference is the 60-digit quantile, which the draw meets to a few ulps
        mp = pytest.importorskip("mpmath").mp
        rng = np.random.default_rng(6)
        far = 0
        for _ in range(300):
            mean = rng.normal(0, 3) * 10 ** rng.uniform(-3, 1)
            sd = rng.uniform(0.01, 2) * 10 ** rng.uniform(-3, 0)
            seed = int(rng.integers(2**31))
            got = draw_truncated_normal(mean, sd, seed)
            a = (0.0 - mean) / sd
            if a <= 37:
                want = stats.truncnorm.rvs(-mean / sd, np.inf, loc=mean, scale=sd,
                                           random_state=np.random.default_rng(seed))
                assert got == pytest.approx(want, rel=1e-9)
                continue
            far += 1
            q = np.random.default_rng(seed).random()
            with mp.workdps(60):
                bound = -mp.mpf(mean) / sd
                target = mp.log1p(-mp.mpf(q)) + mp.log(mp.ncdf(-bound))
                x = mp.findroot(lambda t: mp.log(mp.ncdf(-t)) - target,
                                bound - math.log1p(-q) / bound)
                truth = float(mean + sd * x)
            assert got == pytest.approx(truth, rel=2e-15, abs=0), (mean, sd)
        assert far == 46

    def test_far_tail_draw_against_mpmath(self):
        # Past a = -mean/sd = 36 the draw is sd times the quantile's offset
        # from the bound, where mean + sd * x would cancel to the few low bits
        # that hold it (1.7e-5 relative at worst before), so it stays within a
        # few ulps of the 60-digit draw however far out the bound lies
        mp = pytest.importorskip("mpmath").mp
        rng = np.random.default_rng(8)
        for _ in range(200):
            a = 37.0 * (1e6 / 37.0) ** rng.uniform()  # log-uniform on [37, 1e6]
            sd = 10 ** rng.uniform(-3, 1)
            mean, seed = -a * sd, int(rng.integers(2**31))
            got = draw_truncated_normal(mean, sd, seed)
            q = np.random.default_rng(seed).random()
            with mp.workdps(60):
                bound = -mp.mpf(mean) / sd
                target = mp.log1p(-mp.mpf(q)) + mp.log(mp.ncdf(-bound))
                x = mp.findroot(lambda t: mp.log(mp.ncdf(-t)) - target,
                                bound - math.log1p(-q) / bound)
                truth = float(sd * (x - bound))
            assert got == pytest.approx(truth, rel=2e-15, abs=0), (mean, sd, q)

    @given(st.floats(-1e300, 1e300), st.floats(0.0, 1e300, exclude_min=True),
           st.integers(0, 2**32 - 1))
    @example(-3.0, 1e-200, 0)
    @example(-1.0, 1e-320, 0)
    @settings(max_examples=500, deadline=None)
    def test_draw_is_finite_and_nonnegative(self, mean, sd, seed):
        # a bound a = -mean/sd past 1.3e154 would overflow a * a, and past
        # the largest double a itself overflows; |mean| and sd up to 1e300
        # keep every draw, at most mean + 8.3 sd, below the largest double
        draw = draw_truncated_normal(mean, sd, seed)
        assert math.isfinite(draw) and draw >= 0.0


A_EDGES = [-1000, -40, -8, -1, -1e-9, 0, 1e-9, 1, 8, 37, 40, 1000]


class TestTruncatedNormalQuantile:
    """The closed-form quantile of N(0, 1) truncated to [a, inf)."""

    def test_matches_scipy_ppf(self):
        rng = np.random.default_rng(2)
        a_values = A_EDGES + list(rng.normal(0, 10, 40))
        q_values = [0.0, 1e-300, 1e-12, 0.25, 0.5, 0.75, 1 - 1e-6]
        q_values += list(rng.uniform(0, 1 - 1e-6, 20))
        for a in a_values:
            want = stats.truncnorm.ppf(q_values, a, np.inf)
            for q, w in zip(q_values, want):
                x, _ = _truncated_normal_ppf(float(q), float(a))
                assert abs(x - w) <= 1e-9 * max(1.0, abs(x)), (a, q, x, w)

    def test_extreme_quantiles_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp
        for a in A_EDGES:
            for q in (0.0, 5e-324, 1 - 1e-12, 1 - 2**-53):
                x, _ = _truncated_normal_ppf(q, float(a))
                assert np.isfinite(x) and x >= a, (a, q, x)
                with mp.workdps(60):
                    # Phi(-x) = (1 - q) Phi(-a), solved in high precision
                    target = mp.log((1 - mp.mpf(q)) * mp.ncdf(-mp.mpf(a)))
                    exact = float(mp.findroot(lambda t: mp.log(mp.ncdf(-t)) - target,
                                              mp.mpf(x)))
                assert abs(x - exact) <= 1e-9 * max(1.0, abs(x)), (a, q, x, exact)


    def test_subnormal_q_in_the_lower_tail_against_mpmath(self):
        # Phi(a) + q Phi(-a) is subnormal for a below about -37.5 and a
        # subnormal q, and keeps only a few bits there (at q = 5e-324 and
        # a = -38.5 it gave -38.46741 against the root -38.46089), so the
        # quantile is solved in log space and lands within a few ulps
        mp = pytest.importorskip("mpmath").mp
        for a in [-37.52, -37.6, -38.0, -38.5, -38.9, -38.999, -40.0, -100.0]:
            for q in [5e-324, 1e-323, 3e-320, 1e-315, 1e-310, 2.2e-308]:
                x, offset = _truncated_normal_ppf(q, a)
                with mp.workdps(60):
                    target = mp.log(mp.ncdf(a) + mp.mpf(q) * mp.ncdf(-a))
                    root = mp.findroot(lambda t: mp.log(mp.ncdf(t)) - target, mp.mpf(x))
                    exact = float(max(root, mp.mpf(a)))
                assert offset is None, (a, q)
                assert abs(x - exact) <= 2 * math.ulp(exact), (a, q, x, exact)
                if a == -100.0:  # Phi(a) is nothing beside q here, and further down
                    for far in (-1e10, -1e200, -math.inf):  # until a * a overflows
                        assert _truncated_normal_ppf(q, far)[0] == x, (far, q)


class TestSpecialFunctions:
    """The stdlib normal CDF and the Mills ratio behind the quantile, against
    mpmath at 60 digits and against scipy."""

    def test_quantile_up_to_the_tail_against_mpmath(self):
        # The normal CDF inlined in the quantile, Phi(-a) and Phi(a) from
        # math.erfc, over truncation points a in [-1e4, 40]: the quantile x
        # solves Phi(-x) = (1 - q) Phi(-a), found by mpmath at 60 digits.  Near
        # x = 0 the error is absolute, from Phi(a) + q Phi(-a) near 1/2.
        mp = pytest.importorskip("mpmath").mp
        xs = [-1e4, -1e3, -100.0, -38.5, -1e-300, 0.0, 1e-300]
        xs += list(-np.logspace(-3, 4, 300)) + list(np.linspace(-40, 40, 401))
        for i, a in enumerate(map(float, xs)):
            q = (1e-3, 0.5, 0.999)[i % 3]
            x, _ = _truncated_normal_ppf(q, a)
            with mp.workdps(60):
                target = mp.log1p(-mp.mpf(q)) + mp.log(mp.ncdf(-mp.mpf(a)))
                exact = float(mp.findroot(lambda t: mp.log(mp.ncdf(-t)) - target, x))
            assert abs(x - exact) <= 2e-15 * max(abs(exact), 1.0), (a, q, x, exact)

    def test_mills_ratio(self):
        # phi(t) / Phi(-t) is sqrt(2 / pi) / erfcx(t / sqrt(2)); the
        # quantile's tail asks for it at t > 36 only
        mp = pytest.importorskip("mpmath").mp
        ts = [20.0, 36.0, 37.5, 1e6, 1e154, 1e300, sys.float_info.max]
        ts += list(np.logspace(np.log10(20.0), 5, 300))
        for t in map(float, ts):
            got = _mills(t)[0]
            if t < 1e6:
                with mp.workdps(60):
                    exact = float(mp.npdf(t) / mp.ncdf(-t))
                assert got == pytest.approx(exact, rel=4e-16, abs=0), t
            if t <= 1e300:  # erfcx(t / sqrt(2)) leaves the normal range beyond
                want = math.sqrt(2 / math.pi) / special.erfcx(t * math.sqrt(0.5))
                assert got == pytest.approx(want, rel=4e-15, abs=0), t

    def test_tail_quantile_against_mpmath(self):
        # past a = 36, where (1 - q) Phi(-a) may leave the normal range, the
        # quantile is a + d, with the offset d from Newton's method correct to
        # a few of its own ulps for every q, and lands within an ulp.  a
        # reaches the largest double, where a * a overflows
        mp = pytest.importorskip("mpmath").mp
        for a in [36.4, 37.0, 37.6, 38.5, 40.0, 100.0, 1e3, 1e5, 1e8, 1e154, 1e300,
                  sys.float_info.max]:
            for q in [2**-53, 1e-12, 1e-3, 0.1, 0.5, 0.9, 1 - 1e-6, 1 - 2**-40, 1 - 2**-53]:
                x, d = _truncated_normal_ppf(q, a)
                e = -math.log1p(-q)
                if a > 1e8:  # the offset is below ulp(a) / 2, so x is a
                    assert x == a and e / a < math.ulp(a) / 2, (a, q, x)
                    continue
                with mp.workdps(60):
                    target = mp.log1p(-mp.mpf(q)) + mp.log(mp.ncdf(-mp.mpf(a)))
                    root = mp.findroot(lambda t: mp.log(mp.ncdf(-t)) - target, a + e / a)
                    exact, offset = float(root), float(root - a)
                assert abs(x - exact) <= 2 * math.ulp(exact), (a, q, x, exact)
                assert d == pytest.approx(offset, rel=1e-15, abs=0), (a, q, d, offset)


def _history_from(points_by_group, settings=EstimatorSettings()):
    hist = PerformanceHistory(len(points_by_group), settings)
    for g, pts in enumerate(points_by_group):
        for n, perf in pts:
            hist.append(g, n, perf)
    return hist


def _fit_or_error(fit, *args):
    """The fit's bits, or the type and message of the error it raised."""
    try:
        return [x.hex() for x in fit(*args)]
    except Exception as exc:
        return type(exc), str(exc)


# every valid window, and floors that do and do not bind
_SETTINGS = st.builds(EstimatorSettings, window=st.integers(2, 8),
                      se_floor=st.sampled_from([0.0, 1e-6, 1e-2, 5.0]))
_HISTORY_OPS = st.lists(st.one_of(
    st.tuples(st.just("append"), st.integers(0, 1),
              st.floats(1e-3, 50.0), st.floats(-10.0, 10.0)),
    st.tuples(st.just("fit"), st.integers(0, 1), st.none(), st.none())),
    min_size=1, max_size=80)


class TestHistoryFit:
    @given(_SETTINGS, _HISTORY_OPS)
    @settings(max_examples=300, deadline=None)
    def test_kept_fit_is_a_fresh_fit(self, est, ops):
        # any interleaving of appends and fits (below two points the fit
        # raises), on one history per drawn setting
        hist, shadow = PerformanceHistory(2, est), [[], []]
        for op, g, a, b in ops:
            if op == "append":
                n = (shadow[g][-1][0] if shadow[g] else 0.0) + a
                hist.append(g, n, b)
                shadow[g].append((n, b))
            else:
                want = _fit_or_error(fit_local_slope, list(shadow[g]), est.window,
                                     est.se_floor)
                assert _fit_or_error(hist.fit, g) == want


class TestEstimateMarginal:
    def test_exact_linear_history_gives_deterministic_priority(self):
        hist = _history_from([[(100, 1.0), (200, 2.0), (300, 3.0)]],
                             EstimatorSettings(window=5, se_floor=0.0))
        cost = CostModel(costs=[1.0], budget=1000)
        priority = estimate_marginal(hist, 0, step_cost=100.0, cost=cost,
                                     rng=np.random.default_rng(0))
        assert hist.fit(0)[0] == pytest.approx(0.01)
        assert priority * 1.0 / 100.0 == pytest.approx(0.01)  # the draw
        assert priority == pytest.approx(1.0)

    def test_cost_divides_priority(self):
        pts = [(100, 1.0), (200, 2.0)]
        hist = _history_from([pts, pts], EstimatorSettings(se_floor=0.0))
        cost = CostModel(costs=[1.0, 2.0], budget=1000)
        p_cheap = estimate_marginal(hist, 0, 100.0, cost, np.random.default_rng(0))
        p_dear = estimate_marginal(hist, 1, 100.0, cost, np.random.default_rng(0))
        assert p_dear == pytest.approx(p_cheap / 2.0)

    def test_steeper_group_wins_nearly_always(self):
        wins = 0
        trials = 400
        for seed in range(trials):
            rng = np.random.default_rng(seed)
            n = np.array([100.0, 200.0, 300.0, 400.0, 500.0])
            fast = [(x, 0.02 * x + rng.normal(0, 0.05)) for x in n]
            slow = [(x, 0.001 * x + rng.normal(0, 0.05)) for x in n]
            hist = _history_from([fast, slow])
            cost = CostModel(costs=[1.0, 1.0], budget=1000)
            p_fast = estimate_marginal(hist, 0, 100.0, cost, rng)
            p_slow = estimate_marginal(hist, 1, 100.0, cost, rng)
            wins += p_fast > p_slow
        assert wins / trials >= 0.99

    def test_window_limits_what_matters(self):
        recent = [(300, 1.0), (400, 3.0), (500, 5.0), (600, 6.5), (700, 9.0)]
        est = EstimatorSettings(window=5)
        hist_a = _history_from([recent], est)
        hist_b = _history_from([[(50, 20.0), (80, -3.0)] + recent], est)
        cost = CostModel(costs=[1.0], budget=1000)
        pa = estimate_marginal(hist_a, 0, 10.0, cost, np.random.default_rng(42))
        pb = estimate_marginal(hist_b, 0, 10.0, cost, np.random.default_rng(42))
        assert (hist_a.fit(0), pa) == (hist_b.fit(0), pb)

    def test_insufficient_history_signals_forced_exploration(self):
        hist = _history_from([[(100, 1.0)], [(100, 1.0), (200, 2.0)]],
                             EstimatorSettings(min_points=2))
        cost = CostModel(costs=[1.0, 1.0], budget=1000)
        rng = np.random.default_rng(0)
        with pytest.raises(InsufficientHistoryError) as err:
            estimate_marginal(hist, 0, 100.0, cost, rng)
        assert err.value.group == 0
        estimate_marginal(hist, 1, 100.0, cost, rng)  # fine

    def test_negative_slope_piles_mass_near_zero(self):
        pts = [(100, 5.0), (200, 4.0), (300, 3.0)]
        hist = _history_from([pts], EstimatorSettings(se_floor=0.05))
        cost = CostModel(costs=[1.0], budget=1000)
        rng = np.random.default_rng(5)
        # the draw is the priority times cost_k / step_cost
        draws = [estimate_marginal(hist, 0, 100.0, cost, rng) * 1.0 / 100.0
                 for _ in range(200)]
        assert all(d >= 0 for d in draws)
        assert np.mean(draws) < 0.05  # deeply negative mean leaves little mass

    def test_repeated_calls_draw_anew_from_the_run_generator(self):
        hist = _history_from([[(100, 1.0), (200, 2.5), (300, 3.0)]])
        cost = CostModel(costs=[1.0], budget=1000)
        rng = np.random.default_rng(7)
        priorities = {estimate_marginal(hist, 0, 100.0, cost, rng) for _ in range(20)}
        assert len(priorities) == 20

    def test_history_rejects_nonincreasing_counts(self):
        hist = PerformanceHistory(1)
        hist.append(0, 100, 1.0)
        with pytest.raises(DomainError):
            hist.append(0, 100, 1.1)


class TestBiasVarianceKnob:
    def test_window_trades_variance_for_bias(self):
        # concave truth: slope estimates over longer windows are less noisy
        # but drift away from the local derivative at the newest point
        n = 100.0 + 10.0 * np.arange(8)
        local_derivative = 0.5 / np.sqrt(n[-1])
        slopes = {2: [], 8: []}
        for seed in range(500):
            rng = np.random.default_rng(seed)
            y = np.sqrt(n) + rng.normal(0, 0.05, n.size)
            pts = np.column_stack([n, y])
            for m in (2, 8):
                slope, _ = fit_local_slope(pts, window=m)
                slopes[m].append(slope)
        var2, var8 = np.var(slopes[2]), np.var(slopes[8])
        bias2 = abs(np.mean(slopes[2]) - local_derivative)
        bias8 = abs(np.mean(slopes[8]) - local_derivative)
        assert var8 < var2
        assert bias8 > bias2


def test_seeded_estimator_run_is_unchanged():
    # Counts recorded from the scipy-drawing estimator on the same seeds.
    curve = AnalyticCurve(gamma=np.array([[1.0, 0.3, 0.3, 0.3], [0.3, 0.5, 0.3, 0.3],
                                          [0.3, 0.3, 1.0, 0.3], [0.3, 0.3, 0.3, 1.0]]),
                          form="sqrt")
    cost = CostModel(costs=[1.0, 1.0, 2.0, 1.0], budget=300.0)
    util = UtilitySpec(weights=[1.0, 1.0, 1.0, 1.5], normalize=True)
    expected = {(7, 3): [46.0, 16.0, 12.5, 213.0], (11, 5): [48.0, 21.0, 11.0, 209.0]}
    for (env_seed, run_seed), counts in expected.items():
        env = AnalyticEnvironment(curve, noise_sd=1e-3, rng_seed=env_seed)
        config = GreedyConfig(step_cost=1.0, marginal_source="estimator", seed=run_seed)
        alloc, _ = run_greedy(env, util, cost, config)
        assert alloc.counts.tolist() == counts
