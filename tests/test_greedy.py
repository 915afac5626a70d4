import contextlib
import signal
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import equalloc.estimator
import equalloc.greedy
from equalloc import (
    Allocation,
    AnalyticCurve,
    CostModel,
    EstimatorSettings,
    GreedyConfig,
    GreedyTrace,
    StepRecord,
    UtilitySpec,
    equal_allocation,
    eval_perf,
    parity_allocation,
    representative_allocation,
    run_greedy,
    solve_concave,
    solve_grid,
    utility_eval,
)
from equalloc.core import utility_kernel
from equalloc.curves import batch_utilities
from equalloc.envs import AnalyticEnvironment
from equalloc.errors import (CapacityError, DegenerateDesignError, DimensionMismatchError,
                             DomainError)
from equalloc.estimator import _truncated_normal_ppf, fit_local_slope
from equalloc.greedy import GreedyStepError


@contextlib.contextmanager
def _deadline(seconds: int):
    """Fail, rather than hang, when the block runs longer than ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestTrueCurveGreedy:
    def test_matches_grid_optimum_equal_weights(
        self, four_group_curve, four_group_cost, u_equal
    ):
        grid = solve_grid(four_group_curve, u_equal, four_group_cost, resolution=5.0)
        alloc, trace = run_greedy(
            four_group_curve, u_equal, four_group_cost, GreedyConfig(step_cost=1.0)
        )
        final_u = utility_eval(u_equal, eval_perf(four_group_curve, alloc))
        assert abs(final_u - grid.utility) <= 0.05
        assert final_u == pytest.approx(21.4, abs=0.05)

    def test_matches_grid_optimum_priority_weights(
        self, four_group_curve, four_group_cost, u_priority
    ):
        grid = solve_grid(four_group_curve, u_priority, four_group_cost, resolution=5.0)
        alloc, _ = run_greedy(
            four_group_curve, u_priority, four_group_cost, GreedyConfig(step_cost=1.0)
        )
        final_u = utility_eval(u_priority, eval_perf(four_group_curve, alloc))
        assert abs(final_u - grid.utility) <= 0.05
        assert final_u == pytest.approx(22.1, abs=0.05)

    def test_symmetric_two_group_instance(self):
        curve = AnalyticCurve(gamma=np.eye(2), form="sqrt")
        cost = CostModel(costs=[1.0, 1.0], budget=2.0)
        util = UtilitySpec(weights=[1.0, 1.0])
        alloc, trace = run_greedy(curve, util, cost, GreedyConfig(step_cost=1.0))
        assert np.allclose(alloc.counts, [1.0, 1.0])
        assert len(trace) == 2

    def test_trace_budget_safety(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            k = int(rng.integers(1, 5))
            curve = AnalyticCurve(gamma=rng.uniform(0.05, 1, (k, k)), form="log1p")
            cost = CostModel(costs=rng.uniform(0.3, 2, k), budget=rng.uniform(3, 20))
            util = UtilitySpec(weights=rng.uniform(0.1, 1, k))
            step = rng.uniform(0.3, 2.5)
            alloc, trace = run_greedy(curve, util, cost, GreedyConfig(step_cost=step))
            spend = cost.spend(alloc)
            assert spend <= cost.budget + 1e-6
            assert 0 <= trace.residual_budget < step + 1e-9
            # allocations never shrink along the trace
            prev = np.zeros(k)
            for rec in trace.records:
                assert np.all(rec.counts >= prev - 1e-12)
                prev = rec.counts

    def test_step_cost_larger_than_budget_rejected(self, four_group_curve, u_equal):
        cost = CostModel(costs=[1, 1, 2, 1], budget=10.0)
        with pytest.raises(DomainError):
            run_greedy(four_group_curve, u_equal, cost, GreedyConfig(step_cost=11.0))

    def test_infeasible_start_rejected(self, four_group_curve, four_group_cost, u_equal):
        cfg = GreedyConfig(step_cost=1.0, start_alloc=Allocation([2000, 0, 0, 0]))
        with pytest.raises(DomainError):
            run_greedy(four_group_curve, u_equal, four_group_cost, cfg)


def _reference_gains(curve, util, cost, step, counts):
    """One true-curve greedy step as a loop that evaluates the K candidates,
    then the counts again as a one-column batch: the reference for the
    step that reuses the chosen candidate's utility.  Returns the gains of
    the candidates and the utility of ``counts``; the loop bought the first
    group of largest gain."""
    k = counts.size
    candidates = np.repeat(counts[:, None], k, axis=1)
    candidates[np.arange(k), np.arange(k)] += step / cost.costs
    u_now = float(batch_utilities(curve, util, counts[:, None])[0])
    return batch_utilities(curve, util, candidates) - u_now, u_now


def _reference_greedy(curve, util, cost, step, start):
    counts = np.array(start, dtype=float)
    spent = cost.spend(Allocation(counts))
    while spent + step <= cost.spend_limit:
        group = int(np.argmax(_reference_gains(curve, util, cost, step, counts)[0]))
        counts[group] += step / cost.costs[group]
        spent += step
    return counts


def _within(got, want, u):
    # relative, but absolute near zero, where log utilities cross zero by
    # cancellation between terms of order one
    return np.all(np.abs(np.subtract(got, want)) <= 1e-14 * max(1.0, abs(u)))


def _step_instances():
    """Random instances for K = 1-6 over every curve form, both transforms,
    with and without a parity penalty, from zero and non-zero starts, plus
    exactly symmetric ones whose candidates tie.  Every start has a finite
    utility (a log transform from zero gets a positive curve offset), the
    one case where the reference's choice by gain is defined."""
    rng = np.random.default_rng(41)
    for trial in range(240):
        k = int(rng.integers(1, 7))
        form = ("sqrt", "log1p", "power")[trial % 3]
        transform = ("identity", "log")[trial // 3 % 2]
        from_zero = trial // 6 % 2 == 0
        penalty = float(rng.uniform(0.1, 0.5)) if trial // 12 % 2 else 0.0
        offset = float(rng.uniform(0.1, 1.0)) if rng.random() < 0.5 or (
            transform == "log" and from_zero) else 0.0
        gamma = rng.uniform(0.0, 1.0, (k, k)) + np.diag(rng.uniform(0.2, 1.0, k))
        curve = AnalyticCurve(gamma=gamma, form=form,
                              power_exponent=float(rng.uniform(0.2, 0.8)), offset=offset)
        util = UtilitySpec(rng.uniform(0.1, 1.0, k), parity_penalty=penalty,
                           transform=transform, normalize=bool(rng.random() < 0.5))
        step = float(rng.uniform(0.5, 1.5))
        start = np.zeros(k) if from_zero else rng.uniform(0.0, 3.0, k)
        costs = rng.uniform(0.3, 2.0, k)
        yield curve, util, CostModel(costs, float(costs @ start) + 30 * step), step, start
    for k in range(2, 7):
        for form, transform, penalty in [("sqrt", "identity", 0.0), ("log1p", "log", 0.0),
                                         ("sqrt", "log", 0.3), ("log1p", "identity", 0.3)]:
            gamma = 0.7 * np.eye(k) + 0.3
            offset = 0.5 if transform == "log" else 0.0
            curve = AnalyticCurve(gamma=gamma, form=form, offset=offset)
            util = UtilitySpec(np.ones(k), parity_penalty=penalty, transform=transform)
            yield curve, util, CostModel(np.ones(k), 4.0 * k), 1.0, np.zeros(k)


def _reference_draw(mean, sd, rng):
    """The truncated-normal draw from ``uniform()``, as it was written before
    the draw took ``random()``; ``sd == 0`` draws nothing, and past a bound
    of 36 sd the draw is sd times the quantile's exact offset."""
    if sd == 0:
        return max(float(mean), 0.0)
    x, offset = _truncated_normal_ppf(rng.uniform(), (0.0 - mean) / sd)
    return max(float(mean + sd * x if offset is None else sd * offset), 0.0)


def _eager_trace(source, util, cost, config, ends=None):
    """A greedy run that builds each step's record inside its step loop:
    the reference for the records a trace builds when it is read.  Under the
    estimator it fits every group with ``fit_local_slope`` and draws with
    :func:`_reference_draw` at every step, keeping no fit between steps.
    Returns the final counts and the records; a dict ``ends`` receives the
    draws' generator under ``"rng"``."""
    k, s = cost.num_groups, config.step_cost
    sizes = s / cost.costs
    counts = np.zeros(k) if config.start_alloc is None else config.start_alloc.counts.copy()
    estimated = config.marginal_source == "estimator"
    curve = getattr(source, "curve", None) if estimated else source
    if curve is not None:
        base = float(batch_utilities(curve, util, counts[:, None])[0])
    if estimated:
        rng, est = np.random.default_rng(config.seed), config.estimator
        if ends is not None:
            ends["rng"] = rng
        perf = np.asarray(source.observe(Allocation(counts)).values, dtype=float)
        history = [[(float(counts[g]), float(perf[g]))] for g in range(k)]
    records, spent = [], cost.spend(Allocation(counts))
    while spent + s <= cost.spend_limit:
        if curve is not None:
            u = batch_utilities(curve, util, counts[:, None] + np.diag(sizes))
        if not estimated:
            group = int(u.argmax())
        else:
            priorities = np.full(k, np.nan)
            under = [g for g in range(k) if len(history[g]) < est.min_points]
            if under:
                group = min(under, key=lambda g: (len(history[g]), g))
            else:
                for g in range(k):
                    slope, se = fit_local_slope(history[g], est.window, est.se_floor)
                    draw = _reference_draw(slope, se, rng)
                    priorities[g] = draw * s / float(cost.costs[g]) * util.weights[g]
                group = int(priorities.argmax())
        counts[group] += sizes[group]
        spent += s
        if curve is None:
            marg_true = np.full(k, np.nan)
        else:
            marg_true = u - base if base > -np.inf else np.where(u > -np.inf, np.inf, np.nan)
            base = float(u[group])
        if estimated:
            perf = np.asarray(source.observe(Allocation(counts)).values, dtype=float)
            history[group].append((float(counts[group]), float(perf[group])))
            records.append(StepRecord(len(records) + 1, group, s, counts.copy(), priorities,
                                      marg_true, float(utility_kernel(util, perf))))
        else:
            records.append(StepRecord(len(records) + 1, group, s, counts.copy(), marg_true,
                                      marg_true, base))
    return counts, records


def _estimator_instances():
    """Estimator runs over K = 2-5, every curve form, noise 0, 1e-3 and 0.1,
    se_floor 0, 1e-6 and 1e-2 (each noise with each floor, so noise 0 with
    floor 0 draws nothing), windows 2-7 and min_points 2-3, from zero and
    non-zero starts."""
    rng = np.random.default_rng(17)
    for trial in range(120):
        k = int(rng.integers(2, 6))
        gamma = rng.uniform(0.0, 1.0, (k, k)) + np.diag(rng.uniform(0.2, 1.0, k))
        curve = AnalyticCurve(gamma=gamma, form=("sqrt", "log1p", "power")[trial % 3],
                              power_exponent=float(rng.uniform(0.2, 0.8)),
                              offset=float(rng.uniform(0.0, 1.0)))
        env = AnalyticEnvironment(curve, noise_sd=(0.0, 1e-3, 0.1)[trial // 3 % 3],
                                  rng_seed=trial)
        settings = EstimatorSettings(window=int(rng.integers(2, 8)),
                                     se_floor=(0.0, 1e-6, 1e-2)[trial // 9 % 3],
                                     min_points=int(rng.integers(2, 4)))
        util = UtilitySpec(rng.uniform(0.1, 1.0, k), normalize=bool(rng.random() < 0.5))
        costs = rng.uniform(0.3, 2.0, k)
        start = rng.uniform(0.0, 3.0, k) if trial // 27 % 2 else np.zeros(k)
        config = GreedyConfig(step_cost=1.0, start_alloc=Allocation(start),
                              marginal_source="estimator", seed=trial, estimator=settings)
        yield env, util, CostModel(costs, float(costs @ start) + 30.0), config
    yield from _estimator_edge_instances()


def _estimator_edge_instances():
    """One group, six groups, a zero weight, and min_points 5 with six
    groups, which leaves the last group under it for 23 forced steps."""
    rng = np.random.default_rng(29)
    for trial, (k, zero_weight, min_points) in enumerate(
            [(1, False, 2), (1, False, 3), (6, False, 2), (6, True, 3), (3, True, 2),
             (6, False, 5), (4, True, 5)]):
        gamma = rng.uniform(0.0, 1.0, (k, k)) + np.diag(rng.uniform(0.2, 1.0, k))
        env = AnalyticEnvironment(AnalyticCurve(gamma=gamma, form="sqrt", offset=0.3),
                                  noise_sd=1e-3, rng_seed=200 + trial)
        weights = rng.uniform(0.1, 1.0, k)
        if zero_weight:
            weights[k // 2] = 0.0
        costs = rng.uniform(0.3, 2.0, k)
        start = rng.uniform(0.0, 3.0, k) if trial % 2 else np.zeros(k)
        config = GreedyConfig(step_cost=1.0, start_alloc=Allocation(start),
                              marginal_source="estimator", seed=200 + trial,
                              estimator=EstimatorSettings(window=4, min_points=min_points))
        yield env, UtilitySpec(weights), CostModel(costs, float(costs @ start) + 60.0), config


def _assert_same_bits(got, want):
    """Every field of every record has the other's type, dtype and bytes."""
    def bits(record):
        return [(type(x), np.asarray(x).dtype, np.asarray(x).tobytes()) for x in record]

    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is StepRecord and bits(g) == bits(w)


class _CurvelessEnv:
    """An analytic environment that hides its curve, so no true marginals.
    The program measures through ``perf_values``, the eager reference
    through ``observe``; both read the one noise stream."""

    def __init__(self, env):
        self.num_groups = env.num_groups
        self.perf_values, self.observe = env.perf_values, env.observe


def _dead_group_instance():
    # at zero counts every group performs 0, so the start utility is -inf
    # and so is every candidate but group 0's
    curve = AnalyticCurve(gamma=[[1, 0, 0], [0.5, 1, 0], [0.5, 0, 1]], form="sqrt")
    return curve, UtilitySpec(np.ones(3), transform="log"), CostModel(np.ones(3), 6.0)


class TestGreedyStep:
    def test_records_built_on_read_are_the_eager_records(self):
        curve, util, cost = _dead_group_instance()
        instances = [*_step_instances(), (curve, util, cost, 1.0, np.zeros(3))]
        for curve, util, cost, step, start in instances:
            config = GreedyConfig(step_cost=step, start_alloc=Allocation(start))
            alloc, trace = run_greedy(curve, util, cost, config)
            want_counts, want = _eager_trace(curve, util, cost, config)
            assert alloc.counts.tobytes() == want_counts.tobytes()
            _assert_same_bits(trace.records, want)
            assert trace.final_utility.hex() == want[-1].utility.hex()

    def test_estimator_matches_the_eager_fit_and_draw_reference(self, monkeypatch):
        instances = list(_estimator_instances())
        # noise 0 with floor 0 and a two-point window fits exactly: sd == 0
        assert any(env.noise_sd == 0 and cfg.estimator.se_floor == 0
                   and cfg.estimator.window == 2 for env, _, _, cfg in instances)
        # the run's generator, seen as the last argument of each estimate
        estimate, seen = equalloc.greedy.estimate_marginal, []
        monkeypatch.setattr(equalloc.greedy, "estimate_marginal",
                            lambda *args: seen.append(args[-1]) or estimate(*args))
        for env, util, cost, config in instances:
            # a fresh copy of the environment, which was seeded with the run's seed
            replay = AnalyticEnvironment(env.curve, env.noise_sd, rng_seed=config.seed)
            seen.clear()
            alloc, trace = run_greedy(env, util, cost, config)
            ends = {}
            want_counts, want = _eager_trace(replay, util, cost, config, ends)
            assert alloc.counts.tobytes() == want_counts.tobytes()
            _assert_same_bits(trace.records, want)
            assert trace.final_utility.hex() == want[-1].utility.hex()
            # both generators end where the reference leaves them: no draw is
            # added or skipped (a run that never estimates drew nothing)
            run_rng = seen[0] if seen else np.random.default_rng(config.seed)
            assert run_rng.bit_generator.state == ends["rng"].bit_generator.state
            assert env._rng.bit_generator.state == replay._rng.bit_generator.state

    @pytest.mark.parametrize("min_points", [2, 3])
    def test_one_fit_per_step_after_forced_exploration(self, monkeypatch, four_group_curve,
                                                       u_equal, min_points):
        fits, fits_at_measure = [], []
        fit = equalloc.estimator.fit_local_slope
        monkeypatch.setattr(equalloc.estimator, "fit_local_slope",
                            lambda *args: fits.append(args) or fit(*args))
        env = AnalyticEnvironment(four_group_curve, noise_sd=0.01, rng_seed=4)

        class CountingEnv:
            num_groups = 4

            def perf_values(self, counts):
                fits_at_measure.append(len(fits))
                return env.perf_values(counts)

        cfg = GreedyConfig(step_cost=1.0, marginal_source="estimator", seed=4,
                           estimator=EstimatorSettings(min_points=min_points))
        _, trace = run_greedy(CountingEnv(), u_equal, CostModel([1.0, 1.0, 2.0, 1.0], 40.0),
                              cfg)
        per_step = np.diff(fits_at_measure).tolist()
        forced = 4 * (min_points - 1)  # each group starts with one record
        # the first estimated step fits every group, each later one the group that grew
        assert per_step == [0] * forced + [4] + [1] * (len(trace) - forced - 1)

    def test_final_utility_of_a_run_without_steps_is_none(self, four_group_curve, u_equal):
        cost = CostModel([1.0, 1.0, 2.0, 1.0], 5.0)
        start = Allocation([1.0, 1.0, 1.0, 0.5])  # leaves half a step of budget
        for runner, mode in [(four_group_curve, "true_curve"),
                             (AnalyticEnvironment(four_group_curve), "estimator")]:
            cfg = GreedyConfig(step_cost=1.0, start_alloc=start, marginal_source=mode)
            _, trace = run_greedy(runner, u_equal, cost, cfg)
            assert (len(trace), trace.final_utility, trace.records) == (0, None, [])

    @pytest.mark.parametrize("with_curve", [True, False])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_estimator_records_built_on_read_are_the_eager_records(
        self, four_group_curve, u_equal, with_curve, seed
    ):
        cost = CostModel([1.0, 1.0, 2.0, 1.0], 60.0)
        start = Allocation([3.0, 0.0, 1.0, 2.0]) if seed else None
        cfg = GreedyConfig(step_cost=1.0, start_alloc=start, marginal_source="estimator",
                           seed=seed, estimator=EstimatorSettings(window=4, min_points=3))

        def env():
            noisy = AnalyticEnvironment(four_group_curve, noise_sd=0.01, rng_seed=seed + 1)
            return noisy if with_curve else _CurvelessEnv(noisy)

        alloc, trace = run_greedy(env(), u_equal, cost, cfg)
        want_counts, want = _eager_trace(env(), u_equal, cost, cfg)
        assert alloc.counts.tobytes() == want_counts.tobytes()
        _assert_same_bits(trace.records, want)
        assert trace.final_utility.hex() == want[-1].utility.hex()
        assert all(np.isnan(r.marginal_true).all() != with_curve for r in trace.records)

    @pytest.mark.parametrize("source", ["true_curve", "estimator"])
    def test_step_count_and_residual_build_nothing(self, monkeypatch, four_group_curve,
                                                   u_equal, source):
        cost = CostModel([1.0, 1.0, 2.0, 1.0], 25.5)
        runner = (four_group_curve if source == "true_curve"
                  else AnalyticEnvironment(four_group_curve, noise_sd=0.01, rng_seed=3))
        cfg = GreedyConfig(step_cost=1.0, marginal_source=source, seed=3)
        _, trace = run_greedy(runner, u_equal, cost, cfg)
        calls = []

        def counted(f):
            return lambda *args: calls.append(f.__name__) or f(*args)

        for name in ("batch_utilities", "utility_kernel"):
            monkeypatch.setattr(equalloc.greedy, name, counted(getattr(equalloc.greedy, name)))
        assert (len(trace), trace.residual_budget) == (25, pytest.approx(0.5))
        final = trace.final_utility
        assert calls == [] and "records" not in trace.__dict__
        records = trace.records
        assert len(records) == 25 and trace.records is records
        assert final.hex() == records[-1].utility.hex()
        assert len(GreedyTrace()) == 0 and GreedyTrace().records == []

    def test_matches_the_two_call_reference(self):
        for curve, util, cost, step, start in _step_instances():
            config = GreedyConfig(step_cost=step, start_alloc=Allocation(start))
            alloc, trace = run_greedy(curve, util, cost, config)
            want = _reference_greedy(curve, util, cost, step, start)
            assert np.array_equal(alloc.counts, want)
            gains, u_now = _reference_gains(curve, util, cost, step, start)
            for rec in trace.records:
                # the reference's choice; or, where its subtraction rounded
                # two gains into a tie (a symmetric instance), one of them
                assert gains[rec.group] == gains.max()
                assert _within(rec.marginal_true, gains, u_now)
                gains, u_now = _reference_gains(curve, util, cost, step, rec.counts)
                assert _within(rec.utility, u_now, u_now)

    def test_estimator_logs_the_reference_marginals(self, four_group_curve, u_equal):
        cost = CostModel([1.0, 1.0, 2.0, 1.0], 40.0)
        env = AnalyticEnvironment(four_group_curve, noise_sd=0.01, rng_seed=2)
        cfg = GreedyConfig(step_cost=1.0, marginal_source="estimator", seed=2)
        _, trace = run_greedy(env, u_equal, cost, cfg)
        before = [np.zeros(4)] + [r.counts for r in trace.records[:-1]]
        for counts, rec in zip(before, trace.records):
            gains, u_now = _reference_gains(four_group_curve, u_equal, cost, 1.0, counts)
            assert _within(rec.marginal_true, gains, u_now)

    @pytest.mark.parametrize("source", ["true_curve", "estimator"])
    def test_one_kernel_call_per_step(self, monkeypatch, four_group_curve, u_equal, source):
        columns = []

        def counted(curve, utility, counts_matrix):
            columns.append(counts_matrix.shape[1])
            return batch_utilities(curve, utility, counts_matrix)

        monkeypatch.setattr(equalloc.greedy, "batch_utilities", counted)
        cost = CostModel([1.0, 1.0, 2.0, 1.0], 25.0)
        if source == "true_curve":
            runner = four_group_curve
        else:
            runner = AnalyticEnvironment(four_group_curve, noise_sd=0.01, rng_seed=3)
        cfg = GreedyConfig(step_cost=1.0, marginal_source=source, seed=3)
        _, trace = run_greedy(runner, u_equal, cost, cfg)
        assert len(trace) == 25
        # the start and one candidate batch per step: while a true-curve run
        # chooses; for an estimator run's true marginals, when they are read
        calls = [1] + [4] * len(trace)
        assert columns == (calls if source == "true_curve" else [])
        assert len(trace.records) == 25
        assert columns == calls

    def test_record_fields_are_the_csv_columns_in_order(self, four_group_curve, u_equal):
        header = GreedyTrace().csv_header(4)
        stems = list(dict.fromkeys(h.rstrip("_0123456789") for h in header))
        assert stems == [f.removesuffix("s") for f in StepRecord._fields]
        cost = CostModel([1.0, 1.0, 2.0, 1.0], 5.0)
        _, trace = run_greedy(four_group_curve, u_equal, cost, GreedyConfig(step_cost=1.0))
        for row, rec in zip(trace.csv_rows(), trace.records):
            assert row == [x for value in rec for x in np.atleast_1d(value).tolist()]
        with pytest.raises(AttributeError):
            rec.utility = 0.0

    def test_log_utility_from_a_dead_group_reaches_the_optimum(self):
        # group 0's candidate is the only one that lifts all three groups
        curve, util, cost = _dead_group_instance()
        alloc, trace = run_greedy(curve, util, cost, GreedyConfig(step_cost=1.0))
        best = solve_grid(curve, util, cost, resolution=1.0)
        assert np.array_equal(alloc.counts, [6.0, 0.0, 0.0])
        assert np.array_equal(alloc.counts, best.alloc.counts)
        assert trace.records[-1].utility == pytest.approx(best.utility, rel=1e-12)


def _rebuilt_step_utilities(curve, util, cost, step, start, groups=None):
    """Each step's candidate utilities and the final counts, from a loop that
    rebuilds the candidates ``counts[:, None] + diag(sizes)`` at every step:
    the reference for the scan, whose candidates advance in place.  The
    loop buys each step's best candidate, or the given ``groups`` in turn."""
    sizes = step / cost.costs
    counts, spent, steps = start.copy(), cost.spend(Allocation(start)), []
    while spent + step <= cost.spend_limit and (groups is None or len(steps) < len(groups)):
        u = batch_utilities(curve, util, counts[:, None] + np.diag(sizes))
        group = int(u.argmax()) if groups is None else groups[len(steps)]
        steps.append(u)
        counts[group] += sizes[group]
        spent += step
    return steps, counts


def _step_gains(u, base):
    """The gains a record logs: ``u - base``, and from a -inf base inf for
    a finite candidate and NaN for a -inf one."""
    if base > -np.inf:
        return u - base
    return np.where(u > -np.inf, np.inf, np.nan)


class TestLeanStep:
    @given(
        st.integers(min_value=1, max_value=10),
        st.sampled_from(["sqrt", "log1p", "power"]),
        st.sampled_from([0.0, 0.4]),
        st.sampled_from(["identity", "log"]),
        st.sampled_from([0.0, 0.3]),
        st.sampled_from(["random", "zero", "negative zero"]),
        st.sampled_from([0.25, 1.0, 2.5]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_advancing_candidates_match_rebuilt_ones(self, k, form, offset, transform,
                                                     penalty, start_kind, step, seed):
        rng = np.random.default_rng(seed)
        gamma = rng.uniform(0.0, 1.0, (k, k)) + np.diag(rng.uniform(0.2, 1.0, k))
        curve = AnalyticCurve(gamma=gamma, form=form, offset=offset,
                              power_exponent=float(rng.uniform(0.2, 0.8)))
        util = UtilitySpec(rng.uniform(0.1, 1.0, k), parity_penalty=penalty,
                           transform=transform, normalize=bool(rng.random() < 0.5))
        start = {"random": rng.uniform(0.0, 3.0, k), "zero": np.zeros(k),
                 "negative zero": np.full(k, -0.0)}[start_kind]
        costs = rng.uniform(0.3, 2.0, k)
        cost = CostModel(costs, float(costs @ start) + step * float(rng.uniform(1.0, 30.0)))
        config = GreedyConfig(step_cost=step, start_alloc=Allocation(start))

        alloc, trace = run_greedy(curve, util, cost, config)
        steps, counts = _rebuilt_step_utilities(curve, util, cost, step, start)
        assert alloc.counts.tobytes() == counts.tobytes()
        base = float(batch_utilities(curve, util, start[:, None])[0])
        assert len(trace.records) == len(steps)
        for rec, u in zip(trace.records, steps):
            assert rec.marginal_true.tobytes() == _step_gains(u, base).tobytes()
            base = float(u[rec.group])
            assert np.float64(rec.utility).tobytes() == np.float64(base).tobytes()

        if transform == "identity" and penalty == 0.0:  # all the estimator takes
            env = AnalyticEnvironment(curve, noise_sd=0.01, rng_seed=seed % 1000)
            _, trace = run_greedy(env, util, cost, GreedyConfig(
                step_cost=step, start_alloc=Allocation(start), marginal_source="estimator",
                seed=seed % 1000))
            groups = [rec.group for rec in trace.records]
            steps, _ = _rebuilt_step_utilities(curve, util, cost, step, start, groups)
            base = float(batch_utilities(curve, util, start[:, None])[0])
            for rec, u in zip(trace.records, steps, strict=True):
                assert rec.marginal_true.tobytes() == _step_gains(u, base).tobytes()
                base = float(u[rec.group])


class TestWholeBatchOracle:
    """Greedy against ``solve_grid`` at ``resolution = step_cost``, whose grid
    is every allocation of whole batches."""

    def test_separable_instance_matches_greedy_exactly(self):
        curve = AnalyticCurve(gamma=np.diag([1.0, 0.6]), form="sqrt")
        cost = CostModel(costs=[1.0, 1.0], budget=4.0)
        util = UtilitySpec(weights=[1.0, 1.0])
        best = solve_grid(curve, util, cost, resolution=1.0)
        alloc, _ = run_greedy(curve, util, cost, GreedyConfig(step_cost=1.0))
        greedy_u = utility_eval(util, eval_perf(curve, alloc))
        assert greedy_u == pytest.approx(best.utility, abs=1e-12)

    def test_greedy_equals_the_grid_on_random_separable_instances(self):
        rng = np.random.default_rng(99)
        for trial in range(60):
            k = int(rng.integers(1, 5))
            form = "sqrt" if trial % 2 == 0 else "log1p"
            curve = AnalyticCurve(gamma=np.diag(rng.uniform(0.1, 2, k)), form=form)
            costs = rng.uniform(0.2, 2, k)
            step = float(rng.uniform(0.5, 2.0))
            d = int(rng.integers(1, 13))
            cost = CostModel(costs=costs, budget=step * d)
            util = UtilitySpec(weights=rng.uniform(0.05, 1, k))
            best = solve_grid(curve, util, cost, resolution=step)
            alloc, _ = run_greedy(curve, util, cost, GreedyConfig(step_cost=step))
            greedy_u = utility_eval(util, eval_perf(curve, alloc))
            assert abs(greedy_u - best.utility) <= 1e-9


class TestBaselinePolicies:
    def test_equal_sampling(self, four_group_curve, four_group_cost):
        alloc = equal_allocation(four_group_cost)
        assert np.allclose(alloc.counts, [200, 200, 200, 200])
        perf = eval_perf(four_group_curve, alloc).values
        assert np.allclose(perf, [19.5, 16.7, 19.5, 19.5], atol=0.05)

    def test_representative_sampling(self, four_group_curve, four_group_cost):
        alloc = representative_allocation(four_group_cost, [2, 2, 2, 1])
        assert np.allclose(alloc.counts, [222.2, 222.2, 222.2, 111.1], atol=0.5)
        perf = eval_perf(four_group_curve, alloc).values
        assert np.allclose(perf, [19.7, 16.7, 19.7, 17.6], atol=0.05)

    def test_representative_rounding_stays_feasible(self):
        cost = CostModel(costs=[1.0, 1.0], budget=600.0)
        alloc = representative_allocation(cost, [0.825, 0.175], step_cost=100.0)
        assert np.allclose(alloc.counts, [500.0, 100.0])
        assert cost.spend(alloc) <= cost.budget + 1e-9

    @pytest.mark.parametrize("costs,shares,budget,step,expected", [
        # 6 and 6 round up to 8 and 8, over the budget of 12: the tie in
        # overshoot sheds group 0's batch
        ([1.0, 1.0], [1, 1], 12.0, 8.0, [0.0, 8.0]),
        # 2.5 each rounds to 4, 2 and 4, spending 12 of 10: group 0 overshot
        # most (1.5, tied with group 2) and gives its batch back
        ([1.0, 2.0, 1.0], [1, 1, 1], 10.0, 4.0, [0.0, 2.0, 4.0]),
    ])
    def test_representative_rounding_sheds_the_largest_overshoot(self, costs, shares,
                                                                 budget, step, expected):
        alloc = representative_allocation(CostModel(costs, budget), shares, step_cost=step)
        assert alloc.counts.tolist() == expected

    def test_parity_equalizes_performance(self, four_group_curve, four_group_cost):
        alloc = parity_allocation(four_group_curve, four_group_cost, step_cost=1.0)
        perf = eval_perf(four_group_curve, alloc).values
        assert np.allclose(perf, 18.8, atol=0.1)

    def test_parity_spread_below_largest_step_jump(self):
        # needs every group reachable: its own samples must move its
        # performance at least as much as they move anyone else's
        rng = np.random.default_rng(3)
        for _ in range(10):
            k = int(rng.integers(2, 5))
            gamma = rng.uniform(0.0, 0.3, (k, k)) + np.diag(rng.uniform(0.5, 1.0, k))
            curve = AnalyticCurve(gamma=gamma, form="sqrt")
            cost = CostModel(costs=rng.uniform(0.5, 2, k), budget=50.0)
            step = 1.0

            counts = np.zeros(k)
            spent, largest_jump = 0.0, 0.0
            while spent + step <= cost.budget + 1e-9:
                perf = curve.perf_values(counts)
                worst = int(np.argmin(perf))
                counts[worst] += step / cost.costs[worst]
                spent += step
                jump = curve.perf_values(counts)[worst] - perf[worst]
                largest_jump = max(largest_jump, jump)

            alloc = parity_allocation(curve, cost, step_cost=step)
            assert np.allclose(alloc.counts, counts)
            perf = eval_perf(curve, alloc).values
            assert perf.max() - perf.min() <= largest_jump + 1e-9

    @pytest.mark.parametrize("step", [0.0, -1.0, float("nan")])
    def test_budget_loop_rejects_a_step_that_spends_nothing(
        self, four_group_curve, four_group_cost, u_equal, step
    ):
        # both runs are checked by check_run before the loop, which would
        # never end on a step that spends nothing
        with _deadline(10), pytest.raises(DomainError):
            parity_allocation(four_group_curve, four_group_cost, step_cost=step)
        with _deadline(10), pytest.raises(DomainError):
            run_greedy(four_group_curve, u_equal, four_group_cost,
                       GreedyConfig(step_cost=step))

    def test_budget_loop_caps_its_step_count(self, four_group_curve, u_equal):
        cost = CostModel(costs=[1, 1, 2, 1], budget=1e12)
        with _deadline(10), pytest.raises(CapacityError):
            parity_allocation(four_group_curve, cost, step_cost=1.0)
        with _deadline(10), pytest.raises(CapacityError):
            run_greedy(four_group_curve, u_equal, cost, GreedyConfig(step_cost=1.0))
        # the cap counts only the steps left after the start: about a thousand
        # here, within the budget's float slack
        start = Allocation([1e12 - 5.0, 0.0, 0.0, 0.0])
        alloc = parity_allocation(four_group_curve, cost, 1.0, start)
        assert 0 < alloc.counts.sum() - start.counts.sum() < 2000

    def test_parity_refuses_a_start_over_the_budget(self):
        cost = CostModel(costs=[1.0, 1.0], budget=4.0)
        with pytest.raises(DomainError, match="breaks the budget"):
            parity_allocation(AnalyticCurve(gamma=np.eye(2)), cost, 1.0, Allocation([5, 5]))

    def test_parity_refuses_a_step_over_the_budget(self):
        cost = CostModel(costs=[1.0, 1.0], budget=4.0)
        with pytest.raises(DomainError, match="step_cost 10"):
            parity_allocation(AnalyticCurve(gamma=np.eye(2)), cost, step_cost=10.0)

    def test_degenerate_shares_rejected(self, four_group_curve, four_group_cost):
        with pytest.raises(DomainError):
            representative_allocation(four_group_cost, [0, 0, 0, 0])

    def test_shares_whose_counts_overflow_are_rejected(self):
        # shares * budget overflows to inf, and rounding inf to whole batches
        # would never leave the shaving loop
        with _deadline(10), pytest.raises(DomainError, match="non-finite counts"):
            representative_allocation(CostModel([1, 1], 600), [1e308, 0.175], step_cost=10)


class TestEstimatorDrivenGreedy:
    def test_linear_environment_reduces_to_rate_ranking(self):
        # exactly linear group curves: after the forced-exploration
        # bootstrap, every step must go to the highest-rate group, which
        # is what the true-curve greedy would do at every step
        class LinearEnv:
            curve = None
            num_groups = 3

            def perf_values(self, counts):
                return np.array([0.03, 0.01, 0.02]) * counts

        cost = CostModel(costs=np.ones(3), budget=30.0)
        util = UtilitySpec(weights=np.ones(3))
        cfg = GreedyConfig(
            step_cost=1.0, marginal_source="estimator", seed=0,
            estimator=EstimatorSettings(window=5, se_floor=0.0),
        )
        alloc, trace = run_greedy(LinearEnv(), util, cost, cfg)
        bootstrap_steps = 3
        chosen_after = [r.group for r in trace.records[bootstrap_steps:]]
        assert set(chosen_after) == {0}
        assert alloc.counts[0] == pytest.approx(30.0 - 2.0)

    def test_noiseless_env_tracks_true_greedy_closely(
        self, four_group_curve, four_group_cost, u_equal
    ):
        env = AnalyticEnvironment(four_group_curve, noise_sd=0.0, rng_seed=1)
        cfg = GreedyConfig(
            step_cost=1.0, marginal_source="estimator", seed=1,
            estimator=EstimatorSettings(window=2, se_floor=0.0),
        )
        alloc, _ = run_greedy(env, u_equal, four_group_cost, cfg)
        final_u = utility_eval(u_equal, eval_perf(four_group_curve, alloc))
        true_alloc, _ = run_greedy(
            four_group_curve, u_equal, four_group_cost, GreedyConfig(step_cost=1.0)
        )
        true_u = utility_eval(u_equal, eval_perf(four_group_curve, true_alloc))
        assert final_u >= 0.98 * true_u

    def test_estimator_mode_requires_linear_utility(self, four_group_cost):
        curve = AnalyticCurve(gamma=np.eye(4), form="sqrt")
        env = AnalyticEnvironment(curve, noise_sd=0.0)
        util = UtilitySpec(weights=np.ones(4), transform="log")
        cfg = GreedyConfig(step_cost=1.0, marginal_source="estimator")
        from equalloc.errors import UnsupportedUtilityError

        with pytest.raises(UnsupportedUtilityError):
            run_greedy(env, util, four_group_cost, cfg)

    def test_an_estimator_failure_names_its_step(self):
        # batches of 1e-163 samples square to a count variance that underflows
        # to 0, so the first estimated step (3, after two forced ones) fails
        env = AnalyticEnvironment(AnalyticCurve(gamma=np.eye(2)), noise_sd=0.0)
        cost = CostModel(costs=[1e163, 1e163], budget=100.0)
        cfg = GreedyConfig(step_cost=1.0, marginal_source="estimator")
        with pytest.raises(GreedyStepError, match="zero variance in window") as err:
            run_greedy(env, UtilitySpec(weights=[1.0, 1.0]), cost, cfg)
        assert type(err.value) is GreedyStepError and err.value.step == 3
        assert isinstance(err.value.__cause__, DegenerateDesignError)

    def test_estimated_runs_reproducible(self, four_group_curve, four_group_cost, u_equal):
        def one():
            env = AnalyticEnvironment(four_group_curve, noise_sd=0.01, rng_seed=9)
            cfg = GreedyConfig(step_cost=10.0, marginal_source="estimator", seed=4)
            return run_greedy(env, u_equal, four_group_cost, cfg)[0]

        assert np.array_equal(one().counts, one().counts)

    @pytest.mark.parametrize("bad", ["short", "long", "matrix", "nan", "inf", "-inf"])
    @pytest.mark.parametrize("at_step", [0, 5])
    def test_a_measurement_that_is_not_a_finite_k_vector_is_refused(
        self, four_group_curve, four_group_cost, u_equal, bad, at_step
    ):
        # at_step 0 spoils the start measurement, 5 a measurement mid-run; a
        # non-finite value is tried at each of the four positions
        env = AnalyticEnvironment(four_group_curve, noise_sd=0.01, rng_seed=3)
        shapes = {"short": lambda perf: perf[:3], "long": lambda perf: np.append(perf, 1.0),
                  "matrix": lambda perf: perf[:, None]}

        for position in [None] if bad in shapes else range(4):
            class SpoiledEnv:
                num_groups = 4
                calls = 0

                def perf_values(self, counts):
                    perf, self.calls = env.perf_values(counts), self.calls + 1
                    if self.calls <= at_step:
                        return perf
                    if position is None:
                        return shapes[bad](perf)
                    perf[position] = float(bad)
                    return perf

            cfg = GreedyConfig(step_cost=1.0, marginal_source="estimator", seed=3)
            with pytest.raises(DomainError, match="finite values"):
                run_greedy(SpoiledEnv(), u_equal, four_group_cost, cfg)
            with pytest.raises(DomainError, match="finite values"):
                parity_allocation(SpoiledEnv(), four_group_cost, step_cost=1.0)

    def test_finite_values_whose_squares_overflow_are_measured(self, u_equal):
        # the finiteness test reads the values themselves, so no product of
        # them overflows and no warning is raised
        perf = np.array([1e200, -1e300, 1e-300, 0.0])

        class HugeEnv:
            num_groups = 4

            def perf_values(self, counts):
                return perf.copy()

        cost = CostModel(costs=[1.0, 1.0, 2.0, 1.0], budget=40.0)
        cfg = GreedyConfig(step_cost=1.0, marginal_source="estimator", seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alloc, trace = run_greedy(HugeEnv(), u_equal, cost, cfg)
            counts = parity_allocation(HugeEnv(), cost, step_cost=1.0).counts
        assert len(trace) == 40 and cost.spend(alloc) == 40.0
        assert counts.tolist() == [0.0, 40.0, 0.0, 0.0]  # the least value, group 1

    def test_a_source_with_another_group_count_is_refused(self, four_group_cost, u_equal):
        # checked once per run, before the first measurement
        curve = AnalyticCurve(gamma=np.eye(3))
        cfg = GreedyConfig(step_cost=1.0, marginal_source="estimator")
        with pytest.raises(DomainError, match="has 3 groups"):
            run_greedy(AnalyticEnvironment(curve, 0.01), u_equal, four_group_cost, cfg)
        for source in (curve, AnalyticEnvironment(curve, 0.01)):
            with pytest.raises(DomainError, match="has 3 groups"):
                parity_allocation(source, four_group_cost, step_cost=1.0)


_CURVE_3 = AnalyticCurve(gamma=np.eye(3))
_COST_2 = CostModel(costs=[1.0, 1.0], budget=4.0)
_UTILITY_2 = UtilitySpec(weights=[1.0, 1.0])


@pytest.mark.parametrize("call", [
    pytest.param(lambda: run_greedy(_CURVE_3, _UTILITY_2, _COST_2, GreedyConfig(1.0)),
                 id="run_greedy-true_curve"),
    pytest.param(lambda: run_greedy(AnalyticEnvironment(_CURVE_3, 0.01), _UTILITY_2, _COST_2,
                                    GreedyConfig(1.0, marginal_source="estimator")),
                 id="run_greedy-estimator"),
    pytest.param(lambda: parity_allocation(_CURVE_3, _COST_2, 1.0), id="parity_allocation"),
    pytest.param(lambda: eval_perf(_CURVE_3, Allocation([1.0, 1.0])), id="eval_perf"),
    pytest.param(lambda: solve_grid(_CURVE_3, _UTILITY_2, _COST_2, 1.0), id="solve_grid"),
    pytest.param(lambda: solve_concave(_CURVE_3, _UTILITY_2, _COST_2), id="solve_concave"),
])
def test_a_group_count_mismatch_is_a_dimension_mismatch(call):
    # a K = 3 curve against K = 2 costs, utility and allocation
    with pytest.raises(DimensionMismatchError):
        call()


def _random_problem(rng, k):
    gamma = rng.uniform(0.0, 1.0, (k, k)) + np.diag(rng.uniform(0.2, 1.0, k))
    return gamma, rng.uniform(0.3, 2.0, k), rng.uniform(0.1, 1.0, k)


class TestMetamorphic:
    """Relations between runs of the one budget-stepping loop."""

    def test_permuting_groups_permutes_allocations(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            k = int(rng.integers(2, 6))
            gamma, costs, weights = _random_problem(rng, k)
            budget, step = float(rng.uniform(10, 30)), float(rng.uniform(0.5, 1.5))
            # a random start: at zero counts every group performs 0, a tie
            start = rng.uniform(0.0, 1.0, k)
            perm = rng.permutation(k)
            runs = []
            for order in (np.arange(k), perm):
                curve = AnalyticCurve(gamma=gamma[np.ix_(order, order)], form="sqrt")
                cost = CostModel(costs[order], budget)
                util = UtilitySpec(weights[order])
                begin = Allocation(start[order])
                greedy, _ = run_greedy(curve, util, cost,
                                       GreedyConfig(step_cost=step, start_alloc=begin))
                parity = parity_allocation(curve, cost, step_cost=step, start_alloc=begin)
                runs.append((greedy.counts, parity.counts))
            (greedy, parity), (greedy_p, parity_p) = runs
            assert np.allclose(greedy[perm], greedy_p, rtol=1e-12, atol=0)
            assert np.allclose(parity[perm], parity_p, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("scale", [2.0, 0.5])
    def test_scaling_costs_budget_and_step_keeps_counts(self, scale):
        rng = np.random.default_rng(22)
        for _ in range(15):
            k = int(rng.integers(1, 6))
            gamma, costs, weights = _random_problem(rng, k)
            budget, step = float(rng.uniform(10, 30)), float(rng.uniform(0.5, 1.5))
            curve = AnalyticCurve(gamma=gamma, form="log1p")
            util = UtilitySpec(weights)
            counts = []
            for c in (1.0, scale):  # powers of two keep every float exact
                cost = CostModel(costs * c, budget * c)
                greedy, _ = run_greedy(curve, util, cost, GreedyConfig(step_cost=step * c))
                parity = parity_allocation(curve, cost, step_cost=step * c)
                counts.append((greedy.counts, parity.counts))
            assert np.array_equal(counts[0][0], counts[1][0])
            assert np.array_equal(counts[0][1], counts[1][1])

    @pytest.mark.parametrize("factor", [0.25, 3.0, 10.0])
    def test_scaling_weights_keeps_greedy_choices(self, factor):
        rng = np.random.default_rng(23)
        for trial in range(10):
            k = int(rng.integers(2, 6))
            gamma, costs, weights = _random_problem(rng, k)
            curve = AnalyticCurve(gamma=gamma, form="sqrt")
            cost = CostModel(costs, 20.0)
            choices = []
            for w in (weights, weights * factor):
                util = UtilitySpec(w)
                _, true_trace = run_greedy(curve, util, cost, GreedyConfig(step_cost=1.0))
                env = AnalyticEnvironment(curve, noise_sd=0.01, rng_seed=trial)
                cfg = GreedyConfig(step_cost=1.0, marginal_source="estimator", seed=trial)
                _, est_trace = run_greedy(env, util, cost, cfg)
                choices.append(([r.group for r in true_trace.records],
                                [r.group for r in est_trace.records]))
            assert choices[0] == choices[1]
