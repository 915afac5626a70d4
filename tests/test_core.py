import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equalloc import (
    Allocation,
    CostModel,
    PerformanceVector,
    UtilitySpec,
    check_feasible,
    realize_allocation,
    utility_eval,
)
from equalloc.core import utility_kernel
from equalloc.errors import ConfigError, DimensionMismatchError, DomainError
from equalloc.harness.config import parse_cost, read_block, reading


class TestFeasibility:
    def test_exact_budget_is_feasible(self):
        cost = CostModel(costs=[1, 1, 2, 1], budget=1000)
        assert check_feasible(Allocation([200, 200, 200, 200]), cost)

    def test_optimal_allocation_is_feasible(self):
        cost = CostModel(costs=[1, 1, 2, 1], budget=1000)
        assert check_feasible(Allocation([500, 0, 0, 500]), cost)

    def test_over_budget_rejected(self):
        cost = CostModel(costs=[1, 1, 2, 1], budget=1000)
        assert not check_feasible(Allocation([600, 0, 0, 500]), cost)

    def test_dimension_mismatch_names_sizes(self):
        cost = CostModel(costs=[1, 1], budget=10)
        with pytest.raises(DimensionMismatchError) as err:
            check_feasible(Allocation([1, 2, 3]), cost)
        assert err.value.expected == 2
        assert err.value.actual == 3

    def test_float_accumulation_tolerated(self):
        # 10 groups of 0.1-cost samples summing to exactly the budget
        cost = CostModel(costs=[0.1] * 10, budget=1.0)
        assert check_feasible(Allocation([1.0] * 10), cost)


class TestUtilityEval:
    def test_equal_weight_mean_value(self):
        spec = UtilitySpec(weights=[1, 1, 1, 1], normalize=True)
        perf = PerformanceVector([25.5, 17.3, 17.3, 25.5])
        assert utility_eval(spec, perf) == pytest.approx(21.4, abs=1e-9)

    def test_priority_weighted_mean_value(self):
        spec = UtilitySpec(weights=[1, 1, 1, 1.5], normalize=True)
        perf = PerformanceVector([20.0, 17.3, 17.3, 30.0])
        assert utility_eval(spec, perf) == pytest.approx(22.1, abs=0.05)

    def test_parity_penalty_can_prefer_dominated_vector(self):
        spec = UtilitySpec(weights=[1, 1, 1], parity_penalty=10.0)
        u_flat = utility_eval(spec, PerformanceVector([1, 1, 1]))
        u_better = utility_eval(spec, PerformanceVector([2, 3, 4]))
        assert u_flat == pytest.approx(3.0)
        assert u_better == pytest.approx(9.0 - 10.0 * 2.0)
        assert u_flat > u_better

    def test_log_transform(self):
        spec = UtilitySpec(weights=[1, 1], transform="log")
        perf = PerformanceVector([np.e, np.e**2])
        assert utility_eval(spec, perf) == pytest.approx(3.0)

    def test_log_of_nonpositive_raises(self):
        spec = UtilitySpec(weights=[1, 1], transform="log")
        with pytest.raises(DomainError):
            utility_eval(spec, PerformanceVector([1.0, 0.0]))

    def test_weight_validation(self):
        with pytest.raises(DomainError):
            UtilitySpec(weights=[0.0, 0.0])
        with pytest.raises(DomainError):
            UtilitySpec(weights=[1.0, -0.5])

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_linearity_without_penalty(self, k, seed):
        rng = np.random.default_rng(seed)
        spec = UtilitySpec(weights=rng.uniform(0.1, 1, k))
        m1, m2 = rng.normal(size=k), rng.normal(size=k)
        a, b = rng.uniform(-2, 2, 2)
        lhs = utility_eval(spec, PerformanceVector(a * m1 + b * m2))
        rhs = a * utility_eval(spec, PerformanceVector(m1)) + b * utility_eval(
            spec, PerformanceVector(m2)
        )
        assert lhs == pytest.approx(rhs, abs=1e-9)

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_pareto_monotone_without_penalty(self, k, seed):
        rng = np.random.default_rng(seed)
        spec = UtilitySpec(weights=rng.uniform(0, 1, k) + 0.01)
        m = rng.uniform(0, 10, k)
        better = m + rng.uniform(0, 5, k)
        assert utility_eval(spec, PerformanceVector(better)) >= utility_eval(
            spec, PerformanceVector(m)
        )

    @given(
        st.lists(st.floats(0.0, 1e3, allow_subnormal=False), min_size=1, max_size=8)
        .filter(lambda w: max(w) > 0),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([0.0, 0.3]),
        st.sampled_from(["identity", "log"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_normalize_divides_by_the_weight_sum(self, weights, points, seed, penalty,
                                                  transform):
        perf = np.random.default_rng(seed).uniform(-0.5, 10.0, (len(weights), points))
        raw = UtilitySpec(weights, penalty, transform)
        spec = UtilitySpec(weights, penalty, transform, normalize=True)
        want = utility_kernel(raw, perf) / np.array(weights).sum()
        assert np.array_equal(utility_kernel(spec, perf), want)


class TestRealizeAllocation:
    def test_integer_counts_unchanged(self):
        alloc = Allocation([3.0, 2.0])
        for seed in range(25):
            assert np.array_equal(realize_allocation(alloc, seed), [3, 2])

    def test_bernoulli_mean_near_fraction(self):
        alloc = Allocation([0.5])
        draws = [realize_allocation(alloc, seed)[0] for seed in range(10_000)]
        assert 0.48 <= np.mean(draws) <= 0.52

    def test_output_brackets_fractional_count(self):
        alloc = Allocation([2.25])
        seen = {int(realize_allocation(alloc, seed)[0]) for seed in range(200)}
        assert seen <= {2, 3}

    def test_deterministic_given_seed(self):
        alloc = Allocation([1.7, 0.2, 4.5])
        assert np.array_equal(
            realize_allocation(alloc, 42), realize_allocation(alloc, 42)
        )

    def test_expectation_matches_counts(self):
        alloc = Allocation([1.3, 0.8, 2.5])
        draws = np.array([realize_allocation(alloc, s) for s in range(4000)])
        # binomial standard error is at most 0.5 / sqrt(n) per coordinate
        assert np.all(np.abs(draws.mean(axis=0) - alloc.counts) < 0.03)


class TestTypesAndSerialization:
    def test_allocation_rejects_negative(self):
        with pytest.raises(DomainError):
            Allocation([1.0, -0.1])

    def test_cost_model_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            CostModel(costs=[0.0, 1.0], budget=5)
        with pytest.raises(DomainError):
            CostModel(costs=[1.0], budget=-1)

    def test_immutability(self):
        alloc = Allocation([1.0, 2.0])
        with pytest.raises(ValueError):
            alloc.counts[0] = 5.0

    def test_construction_does_not_freeze_callers_array(self):
        counts = np.array([1.0, 2.0])
        Allocation(counts)
        counts[0] = 3.0  # must still be writable

    # The field names the README documents for config blocks.
    def test_allocation_roundtrip_field_names(self):
        alloc = read_block(Allocation, {"counts": [1.5, 0.0]}, "observed")
        assert np.array_equal(alloc.counts, [1.5, 0.0])
        for bad in ({"count": [1.5, 0.0]}, [1.5, 0.0]):
            with pytest.raises(ConfigError):
                read_block(Allocation, bad, "observed")

    def test_cost_roundtrip_field_names(self):
        cost = parse_cost({"costs": [1, 2], "budget": 7.5})
        assert cost.budget == 7.5
        assert np.array_equal(cost.costs, [1.0, 2.0])
        with pytest.raises(ConfigError):
            parse_cost({"costs": [1, 2]})

    @pytest.mark.parametrize("exc", [KeyError("k"), IndexError("i"), TypeError("t"),
                                     ValueError("v"), ZeroDivisionError("z"),
                                     DomainError("d"), DimensionMismatchError(2, 3)])
    def test_reading_names_the_value(self, exc):
        with pytest.raises(ConfigError, match="^bad step_cost: ") as err:
            with reading("step_cost"):
                raise exc
        assert err.value.__cause__ is exc

    def test_reading_passes_other_errors_through(self):
        # computation errors are not config errors
        for exc in (RuntimeError("r"), AttributeError("a"), OSError("o")):
            with pytest.raises(type(exc)):
                with reading("step_cost"):
                    raise exc

    def test_utility_roundtrip_field_names(self):
        spec = read_block(UtilitySpec, {
            "weights": [1, 2], "parity_penalty": 0.5,
            "transform": "log", "normalize": True,
        }, "utility")
        assert np.array_equal(spec.weights, [1.0, 2.0])
        assert spec.parity_penalty == 0.5
        assert spec.transform == "log"
        assert spec.normalize is True
        defaults = read_block(UtilitySpec, {"weights": [1, 2]}, "utility")
        assert (defaults.parity_penalty, defaults.transform, defaults.normalize) == (
            0.0, "identity", False)
        with pytest.raises(ConfigError):
            read_block(UtilitySpec, {"weights": [1, 2], "normalise": True}, "utility")
