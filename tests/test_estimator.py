import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

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
from equalloc.estimator import _truncated_normal_ppf
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
        rng = np.random.default_rng(6)
        for _ in range(300):
            mean = rng.normal(0, 3) * 10 ** rng.uniform(-3, 1)
            sd = rng.uniform(0.01, 2) * 10 ** rng.uniform(-3, 0)
            seed = int(rng.integers(2**31))
            want = stats.truncnorm.rvs(-mean / sd, np.inf, loc=mean, scale=sd,
                                       random_state=np.random.default_rng(seed))
            assert draw_truncated_normal(mean, sd, seed) == pytest.approx(want, rel=1e-9)


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
                x = _truncated_normal_ppf(float(q), float(a))
                assert abs(x - w) <= 1e-9 * max(1.0, abs(x)), (a, q, x, w)

    def test_extreme_quantiles_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp
        for a in A_EDGES:
            for q in (0.0, 5e-324, 1 - 1e-12, 1 - 2**-53):
                x = _truncated_normal_ppf(q, float(a))
                assert np.isfinite(x) and x >= a, (a, q, x)
                with mp.workdps(60):
                    # Phi(-x) = (1 - q) Phi(-a), solved in high precision
                    target = mp.log((1 - mp.mpf(q)) * mp.ncdf(-mp.mpf(a)))
                    exact = float(mp.findroot(lambda t: mp.log(mp.ncdf(-t)) - target,
                                              mp.mpf(x)))
                assert abs(x - exact) <= 1e-9 * max(1.0, abs(x)), (a, q, x, exact)


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
