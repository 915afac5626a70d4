import numpy as np
import pytest

from equalloc import Allocation, CostModel, GreedyConfig, UtilitySpec, eval_perf, run_greedy
from equalloc.envs import (
    AnalyticEnvironment,
    GenomicSamplingSession,
    GenomicWorldConfig,
    draw_case_control_sample,
    evaluate_group_value,
    generate_world,
    run_allocation_curve,
    train_risk_model,
)
from equalloc.envs.genomic import (
    _chi2_screen,
    _empty_model,
    aggregate_curve,
    holdout_indices,
    treatment_value,
)
from equalloc.errors import DomainError

SMALL_WORLD = dict(variants=400, causal_count=40, population=4000)


@pytest.fixture(scope="module")
def world():
    return generate_world(GenomicWorldConfig(rng_seed=5, **SMALL_WORLD))


@pytest.fixture(scope="module")
def desk_world():
    # full desk-scale world shared by the slower statistical checks
    return generate_world(GenomicWorldConfig(rng_seed=5))


class TestAnalyticEnvironment:
    def test_noiseless_matches_curve(self, four_group_curve):
        env = AnalyticEnvironment(four_group_curve, noise_sd=0.0, rng_seed=0)
        alloc = Allocation([100, 50, 25, 10])
        assert np.array_equal(
            env.observe(alloc).values, eval_perf(four_group_curve, alloc).values
        )

    def test_noise_scale_matches_spec(self, four_group_curve):
        env = AnalyticEnvironment(four_group_curve, noise_sd=0.1, rng_seed=3)
        alloc = Allocation([100, 100, 100, 100])
        obs = np.array([env.observe(alloc).values for _ in range(1000)])
        sds = obs.std(axis=0, ddof=1)
        assert np.all(sds > 0.09) and np.all(sds < 0.11)

    def test_noise_independent_across_groups(self, four_group_curve):
        env = AnalyticEnvironment(four_group_curve, noise_sd=0.1, rng_seed=11)
        alloc = Allocation([100, 100, 100, 100])
        obs = np.array([env.observe(alloc).values for _ in range(1000)])
        corr = np.corrcoef(obs.T)
        off_diag = corr[~np.eye(4, dtype=bool)]
        assert np.all(np.abs(off_diag) < 0.1)

    def test_replay_deterministic(self, four_group_curve):
        alloc = Allocation([10, 20, 30, 40])
        seq1 = [
            AnalyticEnvironment(four_group_curve, 0.2, rng_seed=7).observe(alloc).values
            for _ in range(1)
        ]
        env = AnalyticEnvironment(four_group_curve, 0.2, rng_seed=7)
        assert np.array_equal(env.observe(alloc).values, seq1[0])

    def test_negative_noise_rejected(self, four_group_curve):
        with pytest.raises(DomainError):
            AnalyticEnvironment(four_group_curve, noise_sd=-0.1)


class TestGenerateWorld:
    def test_exact_case_counts(self, desk_world):
        # 5% of 20,000 per group
        for sick in desk_world.disease:
            assert int(sick.sum()) == 1000

    def test_prevalence_floor_rule(self):
        w = generate_world(
            GenomicWorldConfig(rng_seed=0, population=1030, prevalence=0.05,
                               variants=100, causal_count=10)
        )
        for sick in w.disease:
            assert int(sick.sum()) == 51  # floor(0.05 * 1030)

    def test_full_heritability_tracks_genetic_rank(self):
        cfg = GenomicWorldConfig(rng_seed=1, heritability=1.0, **SMALL_WORLD)
        w = generate_world(cfg)
        for g in range(2):
            x = w.genotypes[g][:, w.causal_idx].astype(float) @ w.effect_sizes
            top = np.argsort(-x, kind="stable")[: int(w.disease[g].sum())]
            assert np.array_equal(np.sort(top), np.flatnonzero(w.disease[g]))

    def test_vanishing_heritability_gives_null_auc(self):
        # needs the full desk-scale case count: the null AUC standard
        # deviation itself is ~0.01 at 1000 cases vs 19000 controls
        cfg = GenomicWorldConfig(
            rng_seed=2, heritability=1e-4, variants=400, causal_count=40,
            population=20000,
        )
        w = generate_world(cfg)
        from scipy.stats import rankdata

        for g in range(2):
            x = w.genotypes[g][:, w.causal_idx].astype(float) @ w.effect_sizes
            sick = w.disease[g]
            ranks = rankdata(x)
            n1, n0 = sick.sum(), (~sick).sum()
            auc = (ranks[sick].sum() - n1 * (n1 + 1) / 2) / (n1 * n0)
            assert auc == pytest.approx(0.5, abs=0.02)

    def test_causal_variants_favor_second_group(self, world):
        diff = world.freqs[1] - world.freqs[0]
        causal_diff = diff[world.causal_idx].min()
        non_causal = np.setdiff1d(np.arange(world.config.variants), world.causal_idx)
        assert causal_diff >= diff[non_causal].max()

    def test_infeasible_config_rejected(self):
        with pytest.raises(DomainError):
            GenomicWorldConfig(variants=10, causal_count=20)
        with pytest.raises(DomainError):
            GenomicWorldConfig(population=10)
        with pytest.raises(DomainError):
            GenomicWorldConfig(heritability=0.0)

    def test_deterministic_given_seed(self):
        cfg = GenomicWorldConfig(rng_seed=9, **SMALL_WORLD)
        w1, w2 = generate_world(cfg), generate_world(cfg)
        assert np.array_equal(w1.genotypes[0], w2.genotypes[0])
        assert np.array_equal(w1.disease[1], w2.disease[1])
        assert np.array_equal(w1.splits[0].train_cases, w2.splits[0].train_cases)

    def test_adjacent_ld_present_when_requested(self):
        cfg = GenomicWorldConfig(rng_seed=3, ld_rho=0.6, **SMALL_WORLD)
        w = generate_world(cfg)
        g = w.genotypes[0].astype(float)
        adjacent = [np.corrcoef(g[:, i], g[:, i + 1])[0, 1] for i in range(0, 60, 3)]
        assert np.mean(adjacent) > 0.2


class TestRiskModelTraining:
    def test_empty_model_predicts_prevalence_and_zero_value(self, world):
        model = _empty_model(world.config.prevalence)
        probs = model.predict_proba(world.genotypes[0][:10])
        assert np.allclose(probs, 0.05)
        assert evaluate_group_value(world, model, 0) == 0.0

    def test_no_survivor_threshold_returns_empty_model(self, world):
        import dataclasses

        strict = dataclasses.replace(world.config, pvalue_threshold=1e-30)
        strict_world = dataclasses.replace(world, config=strict)
        sample = draw_case_control_sample(strict_world, 0, 50, 0)
        model = train_risk_model(strict_world, sample)
        assert model.is_empty

    def test_haldane_correction_keeps_odds_finite(self):
        # variant 0 present in every case and absent from every control
        geno = np.zeros((8, 2), dtype=np.uint8)
        geno[:4, 0] = 1
        geno[::2, 1] = 1
        selected, pvals, log_or = _chi2_screen(
            geno, n_cases=4, maf_floor=0.01, p_threshold=0.01
        )
        assert np.isfinite(log_or[0])
        assert log_or[0] == pytest.approx(np.log(4.5 * 4.5 / (0.5 * 0.5)))
        assert selected[0]

    def test_retained_variants_respect_screen(self, world):
        sample = draw_case_control_sample(world, 1, 80, 3)
        model = train_risk_model(world, sample)
        assert model.variant_idx.size > 0
        assert np.all(np.diff(model.variant_idx) > 0)
        assert np.all(np.isfinite(model.log_odds))

    def test_training_power_at_spec_scale(self):
        # 2500 case-control pairs: the screen should essentially always
        # find something at h2 = 0.5
        cfg = GenomicWorldConfig(
            population=56000, variants=500, causal_count=50,
            case_train_fraction=0.9, rng_seed=0,
        )
        hits = 0
        seeds = range(20)
        for seed in seeds:
            w = generate_world(
                GenomicWorldConfig(
                    population=56000, variants=500, causal_count=50,
                    case_train_fraction=0.9, rng_seed=seed,
                )
            )
            sample = draw_case_control_sample(w, 1, 2500, seed)
            model = train_risk_model(w, sample)
            hits += model.variant_idx.size > 0
        assert hits / len(list(seeds)) >= 0.95

    def test_sample_too_large_rejected(self, world):
        with pytest.raises(DomainError):
            draw_case_control_sample(world, 0, 10**6, 0)

    def test_deterministic_training(self, world):
        s1 = draw_case_control_sample(world, 0, 60, 12)
        s2 = draw_case_control_sample(world, 0, 60, 12)
        m1, m2 = train_risk_model(world, s1), train_risk_model(world, s2)
        assert np.array_equal(m1.variant_idx, m2.variant_idx)
        assert m1.slope == m2.slope and m1.intercept == m2.intercept
        assert evaluate_group_value(world, m1, 0) == evaluate_group_value(world, m2, 0)


class TestEvaluation:
    def test_treat_everyone_is_worthless(self, desk_world):
        idx = holdout_indices(desk_world, 0)
        probs = np.full(idx.size, desk_world.config.prevalence + 1e-9)
        assert treatment_value(desk_world, 0, probs) == pytest.approx(0.0, abs=0.05)

    def test_oracle_attains_upper_bound(self, desk_world):
        split = desk_world.splits[1]
        idx = holdout_indices(desk_world, 1)
        oracle = np.zeros(idx.size)
        oracle[: split.test_cases.size] = 1.0
        assert treatment_value(desk_world, 1, oracle) == pytest.approx(4.75)

    def test_treat_nobody_is_zero(self, desk_world):
        model = _empty_model(desk_world.config.prevalence)
        assert evaluate_group_value(desk_world, model, 1) == 0.0

    def test_value_bounds(self, world):
        b, c = world.config.benefit, world.config.cost
        q = world.config.prevalence
        for seed in range(6):
            sample = draw_case_control_sample(world, seed % 2, 60, seed)
            model = train_risk_model(world, sample)
            value = evaluate_group_value(world, model, seed % 2)
            assert -c <= value <= q * (b - c)

    def test_calibration_targets_prevalence(self, desk_world):
        means = []
        for seed in range(20):
            sample = draw_case_control_sample(desk_world, 1, 400, seed)
            model = train_risk_model(desk_world, sample)
            idx = holdout_indices(desk_world, 1)
            means.append(model.predict_proba(desk_world.genotypes[1][idx]).mean())
        assert abs(np.mean(means) - desk_world.config.prevalence) <= 0.01


class TestAllocationCurve:
    def test_learning_curves_rise_with_data(self, desk_world):
        rows = run_allocation_curve(
            desk_world, [100, 200, 300, 400, 500], seeds=range(20)
        )
        agg = aggregate_curve(rows)
        for g in (0, 1):
            means = [m for gg, _, m, _ in agg if gg == g]
            inversions = sum(
                1 for i in range(len(means) - 1) if means[i + 1] < means[i]
            )
            assert inversions <= 1
            assert means[0] > 0.0  # minimum grid point already has value

    def test_group_with_bigger_frequency_differential_wins(self, desk_world):
        rows = run_allocation_curve(desk_world, [200, 300, 400], seeds=range(12))
        agg = {(g, n): m for g, n, m, _ in aggregate_curve(rows)}
        for n in (200, 300, 400):
            assert agg[(1, n)] > agg[(0, n)]

    def test_grid_beyond_pool_rejected(self, world):
        with pytest.raises(DomainError):
            run_allocation_curve(world, [10**6], seeds=[0])

    def test_rows_deterministic(self, world):
        r1 = run_allocation_curve(world, [40, 80], seeds=[3, 4])
        r2 = run_allocation_curve(world, [40, 80], seeds=[3, 4])
        assert r1 == r2


class TestSamplingSession:
    def test_observe_caches_and_replays(self, world):
        s1 = GenomicSamplingSession(world, rng_seed=8)
        s2 = GenomicSamplingSession(world, rng_seed=8)
        alloc = Allocation([60.0, 40.0])
        v1 = s1.observe(alloc).values
        v2 = s2.observe(alloc).values
        assert np.array_equal(v1, v2)
        assert np.array_equal(v1, s1.observe(alloc).values)

    def test_session_respects_pool_limits(self, world):
        session = GenomicSamplingSession(world, rng_seed=0)
        with pytest.raises(DomainError):
            session.value_at(0, 10**6)

    def test_non_integral_pair_counts_rejected(self, world):
        # a fractional step used to be rounded silently, so the estimator's
        # history recorded counts the model was never trained on
        session = GenomicSamplingSession(world, rng_seed=0)
        with pytest.raises(DomainError):
            session.observe(Allocation([30.5, 20.0]))
        cost = CostModel([1.0, 1.0], 60.0)
        cfg = GreedyConfig(step_cost=10.5, start_alloc=Allocation([20.0, 20.0]),
                           marginal_source="estimator")
        with pytest.raises(DomainError):
            run_greedy(session, UtilitySpec([1.0, 1.0]), cost, cfg)
