import contextlib
import signal

import numpy as np
import pytest

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
    batch_enum_optimum,
    equal_allocation,
    eval_perf,
    parity_allocation,
    representative_allocation,
    run_greedy,
    solve_grid,
    utility_eval,
)
from equalloc.core import utility_kernel
from equalloc.curves import batch_utilities
from equalloc.envs import AnalyticEnvironment
from equalloc.errors import CapacityError, DegenerateDesignError, DomainError
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
    the draw took ``random()``; ``sd == 0`` draws nothing."""
    if sd == 0:
        return max(float(mean), 0.0)
    x = _truncated_normal_ppf(rng.uniform(), (0.0 - mean) / sd)
    return max(float(mean + sd * x), 0.0)


def _eager_trace(source, util, cost, config):
    """A greedy run that builds each step's record inside its step loop:
    the reference for the records a trace builds when it is read.  Under the
    estimator it fits every group with ``fit_local_slope`` and draws with
    :func:`_reference_draw` at every step, keeping no fit between steps.
    Returns the final counts and the records."""
    k, s = cost.num_groups, config.step_cost
    sizes = s / cost.costs
    counts = np.zeros(k) if config.start_alloc is None else config.start_alloc.counts.copy()
    estimated = config.marginal_source == "estimator"
    curve = getattr(source, "curve", None) if estimated else source
    if curve is not None:
        base = float(batch_utilities(curve, util, counts[:, None])[0])
    if estimated:
        rng, est = np.random.default_rng(config.seed), config.estimator
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

    def test_estimator_matches_the_eager_fit_and_draw_reference(self):
        instances = list(_estimator_instances())
        # noise 0 with floor 0 and a two-point window fits exactly: sd == 0
        assert any(env.noise_sd == 0 and cfg.estimator.se_floor == 0
                   and cfg.estimator.window == 2 for env, _, _, cfg in instances)
        for env, util, cost, config in instances:
            # a fresh copy of the environment, which was seeded with the run's seed
            replay = AnalyticEnvironment(env.curve, env.noise_sd, rng_seed=config.seed)
            alloc, trace = run_greedy(env, util, cost, config)
            want_counts, want = _eager_trace(replay, util, cost, config)
            assert alloc.counts.tobytes() == want_counts.tobytes()
            _assert_same_bits(trace.records, want)
            assert trace.final_utility.hex() == want[-1].utility.hex()

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
        best = batch_enum_optimum(curve, util, cost, step_cost=1.0)
        assert np.array_equal(alloc.counts, [6.0, 0.0, 0.0])
        assert np.array_equal(alloc.counts, best.alloc.counts)
        assert trace.records[-1].utility == pytest.approx(best.utility, rel=1e-12)


class TestBatchEnumeration:
    def test_separable_instance_matches_greedy_exactly(self):
        curve = AnalyticCurve(gamma=np.diag([1.0, 0.6]), form="sqrt")
        cost = CostModel(costs=[1.0, 1.0], budget=4.0)
        util = UtilitySpec(weights=[1.0, 1.0])
        best = batch_enum_optimum(curve, util, cost, step_cost=1.0)
        alloc, _ = run_greedy(curve, util, cost, GreedyConfig(step_cost=1.0))
        greedy_u = utility_eval(util, eval_perf(curve, alloc))
        assert greedy_u == pytest.approx(best.utility, abs=1e-12)

    def test_single_group_takes_all_batches(self):
        curve = AnalyticCurve(gamma=[[1.0]], form="sqrt")
        cost = CostModel(costs=[2.0], budget=6.0)
        best = batch_enum_optimum(curve, UtilitySpec(weights=[1.0]), cost, step_cost=2.0)
        assert best.alloc.counts[0] == pytest.approx(3.0)

    def test_oracle_upper_bounds_greedy_on_cross_effects(
        self, four_group_curve, four_group_cost, u_equal
    ):
        best = batch_enum_optimum(
            four_group_curve, u_equal, four_group_cost, step_cost=100.0
        )
        alloc, _ = run_greedy(
            four_group_curve, u_equal, four_group_cost, GreedyConfig(step_cost=100.0)
        )
        greedy_u = utility_eval(u_equal, eval_perf(four_group_curve, alloc))
        assert best.utility >= greedy_u - 1e-12

    def test_capacity_guards(self):
        curve = AnalyticCurve(gamma=np.eye(2), form="sqrt")
        cost = CostModel(costs=[1.0, 1.0], budget=100.0)
        util = UtilitySpec(weights=[1.0, 1.0])
        with pytest.raises(CapacityError):
            batch_enum_optimum(curve, util, cost, step_cost=1.0)  # d = 100
        with pytest.raises(DomainError):
            batch_enum_optimum(curve, util, cost, step_cost=7.0)  # not whole

    def test_greedy_equals_enum_on_random_separable_instances(self):
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
            best = batch_enum_optimum(curve, util, cost, step_cost=step)
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
        # parity reaches the budget loop without a GreedyConfig, so the loop
        # itself is where a non-positive step is refused
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

    def test_degenerate_shares_rejected(self, four_group_curve, four_group_cost):
        with pytest.raises(DomainError):
            representative_allocation(four_group_cost, [0, 0, 0, 0])


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

    @pytest.mark.parametrize("bad", ["short", "long", "matrix", "nan", "inf"])
    @pytest.mark.parametrize("at_step", [0, 5])
    def test_a_measurement_that_is_not_a_finite_k_vector_is_refused(
        self, four_group_curve, four_group_cost, u_equal, bad, at_step
    ):
        # at_step 0 spoils the start measurement, 5 a measurement mid-run
        env = AnalyticEnvironment(four_group_curve, noise_sd=0.01, rng_seed=3)

        class SpoiledEnv:
            num_groups = 4
            calls = 0

            def perf_values(self, counts):
                perf, self.calls = env.perf_values(counts), self.calls + 1
                if self.calls <= at_step:
                    return perf
                return {"short": perf[:3], "long": np.append(perf, 1.0),
                        "matrix": perf[:, None], "nan": np.append(perf[:3], np.nan),
                        "inf": np.append(perf[:3], np.inf)}[bad]

        cfg = GreedyConfig(step_cost=1.0, marginal_source="estimator", seed=3)
        with pytest.raises(DomainError, match="finite values"):
            run_greedy(SpoiledEnv(), u_equal, four_group_cost, cfg)
        with pytest.raises(DomainError, match="finite values"):
            parity_allocation(SpoiledEnv(), four_group_cost, step_cost=1.0)

    def test_a_source_with_another_group_count_is_refused(self, four_group_cost, u_equal):
        # checked once per run, before the first measurement
        curve = AnalyticCurve(gamma=np.eye(3))
        cfg = GreedyConfig(step_cost=1.0, marginal_source="estimator")
        with pytest.raises(DomainError, match="has 3 groups"):
            run_greedy(AnalyticEnvironment(curve, 0.01), u_equal, four_group_cost, cfg)
        for source in (curve, AnalyticEnvironment(curve, 0.01)):
            with pytest.raises(DomainError, match="has 3 groups"):
                parity_allocation(source, four_group_cost, step_cost=1.0)


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
