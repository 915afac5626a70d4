import itertools
import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

import equalloc.envs
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import chdtrc, chdtri, ndtri
from scipy.stats import norm

from equalloc import (Allocation, AnalyticCurve, CostModel, GreedyConfig, UtilitySpec,
                      eval_perf, run_greedy)
from equalloc.envs import (
    AnalyticEnvironment,
    CaseControlSample,
    GenomicSamplingSession,
    GenomicWorldConfig,
    draw_case_control_sample,
    evaluate_group_value,
    generate_world,
    run_allocation_curve,
    train_risk_model,
)
from equalloc.envs.genomic import (
    _SCORE_BLOCK,
    MAX_GENOTYPE_CELLS,
    RiskModel,
    _chi2_screen,
    _clump,
    _empty_model,
    _fit_platt,
    _packed_scores,
    _sample_genotypes,
    _selected_scores,
    aggregate_curve,
    treatment_value,
)
from equalloc.errors import CapacityError, DomainError

SMALL_WORLD = dict(variants=400, causal_count=40, population=4000)


@pytest.fixture(scope="module")
def world():
    return generate_world(GenomicWorldConfig(rng_seed=5, **SMALL_WORLD))


@pytest.fixture(scope="module")
def independent_world():
    return generate_world(GenomicWorldConfig(rng_seed=5, ld_rho=0.0, **SMALL_WORLD))


@pytest.fixture(scope="module")
def desk_world():
    # full desk-scale world shared by the slower statistical checks
    return generate_world(GenomicWorldConfig(rng_seed=5))


def _unpacked(world, g):
    """Group ``g``'s kept genotypes as a 0/1 ``(variants, holdout.stop)`` matrix."""
    return np.unpackbits(world.genotypes[g], axis=1, count=world.config.holdout.stop)


def _replayed_genotypes(cfg):
    """Each group's genotype draw, unpermuted and unpacked to ``(variants,
    population)``, replayed from the seed: after a group's draw come its
    liability noise and two shuffles, whose sizes alone set what they use."""
    n_cases = int(np.floor(cfg.prevalence * cfg.population))
    rng = np.random.default_rng(cfg.rng_seed)
    freqs = rng.uniform(cfg.freq_low, cfg.freq_high, size=(2, cfg.variants))
    rng.normal(size=cfg.causal_count)
    for g in range(2):
        packed = _sample_genotypes(rng, freqs[g], cfg.population, cfg.ld_rho)
        rng.standard_normal(cfg.population)
        rng.permutation(n_cases)
        rng.permutation(cfg.population - n_cases)
        yield np.unpackbits(packed, axis=1, count=cfg.population)


def _draw_order_disease(world, g, unpermuted):
    """Group ``g``'s disease labels for every individual of its replayed draw:
    an individual is a case when its genotype column is one of the world's
    case columns, so an individual the world dropped counts as a control."""
    cases = {c.tobytes() for c in _unpacked(world, g)[:, world.disease[g]].T}
    return np.array([c.tobytes() in cases for c in unpermuted.T])


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

    @pytest.mark.parametrize("noise_sd", [np.inf, np.nan])
    def test_non_finite_noise_rejected(self, four_group_curve, noise_sd):
        # either one made every noisy measurement non-finite
        with pytest.raises(DomainError):
            AnalyticEnvironment(four_group_curve, noise_sd=noise_sd)

    @pytest.mark.parametrize("noise_sd", [0.0, 0.3])
    def test_perf_values_and_observe_draw_one_noise_stream(self, four_group_curve, noise_sd):
        # interleaved calls replay an observe-only sequence bit for bit
        rng = np.random.default_rng(4)
        allocs = [Allocation(rng.uniform(0.0, 50.0, 4)) for _ in range(12)]
        typed = AnalyticEnvironment(four_group_curve, noise_sd, rng_seed=6)
        want = [typed.observe(a).values for a in allocs]
        mixed = AnalyticEnvironment(four_group_curve, noise_sd, rng_seed=6)
        got = [mixed.perf_values(a.counts) if i % 3 else mixed.observe(a).values
               for i, a in enumerate(allocs)]
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        assert all(type(g) is np.ndarray and g.dtype == float for g in got)
        # each call draws exactly one K-vector of noise, or none without noise
        stream = np.random.default_rng(6)
        if noise_sd:
            stream.normal(0.0, noise_sd, size=(len(allocs), 4))
        assert mixed._rng.random() == stream.random()

    def test_noise_is_added_to_the_fresh_curve_values(self, four_group_curve):
        # in place on the array the curve returns: the bits of truth + noise,
        # and neither the counts nor a curve value read before is written
        env = AnalyticEnvironment(four_group_curve, noise_sd=0.05, rng_seed=8)
        stream = np.random.default_rng(8)
        counts = np.array([1.0, 2.0, 3.0, 4.0])
        truth = four_group_curve.perf_values(counts)
        kept = truth.copy(), counts.copy()
        for _ in range(3):
            want = truth + stream.normal(0.0, 0.05, size=4)
            assert env.perf_values(counts).tobytes() == want.tobytes()
        assert truth.tobytes() == kept[0].tobytes() and counts.tobytes() == kept[1].tobytes()

    def test_perf_values_returns_a_new_array(self, four_group_curve):
        env = AnalyticEnvironment(four_group_curve, noise_sd=0.0)
        counts = np.array([1.0, 2.0, 3.0, 4.0])
        first = env.perf_values(counts)
        assert env.perf_values(counts) is not first and first is not counts


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
        # the cases are the top genetic scores of all P individuals drawn
        cfg = GenomicWorldConfig(rng_seed=1, heritability=1.0, **SMALL_WORLD)
        w = generate_world(cfg)
        for g, unpermuted in enumerate(_replayed_genotypes(cfg)):
            x = unpermuted[w.causal_idx].T.astype(float) @ w.effect_sizes
            top = np.argsort(-x, kind="stable")[: int(w.disease[g].sum())]
            sick = _draw_order_disease(w, g, unpermuted)
            assert np.array_equal(np.sort(top), np.flatnonzero(sick))

    def test_vanishing_heritability_gives_null_auc(self):
        # needs the full desk-scale case count: the null AUC standard
        # deviation itself is ~0.01 at 1000 cases vs 19000 controls
        cfg = GenomicWorldConfig(
            rng_seed=2, heritability=1e-4, variants=400, causal_count=40,
            population=20000,
        )
        w = generate_world(cfg)
        from scipy.stats import rankdata

        for g, unpermuted in enumerate(_replayed_genotypes(cfg)):
            x = unpermuted[w.causal_idx].T.astype(float) @ w.effect_sizes
            sick = _draw_order_disease(w, g, unpermuted)
            assert sick.size == 20000 and sick.sum() == 1000
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

    def test_genotype_cells_capped_before_any_world_is_built(self):
        # the cap is on 2 * variants * population; only configs are built here
        at_cap = MAX_GENOTYPE_CELLS // 2 // 2500
        assert GenomicWorldConfig(variants=2500, population=at_cap).population == at_cap
        for variants, population in [(2500, at_cap + 1), (2000, 10**8)]:
            with pytest.raises(CapacityError):
                GenomicWorldConfig(variants=variants, population=population)

    def test_deterministic_given_seed(self):
        cfg = GenomicWorldConfig(rng_seed=9, **SMALL_WORLD)
        w1, w2 = generate_world(cfg), generate_world(cfg)
        assert np.array_equal(w1.genotypes[0], w2.genotypes[0])
        assert np.array_equal(w1.disease[1], w2.disease[1])
        assert np.array_equal(w1.pools[0], w2.pools[0])

    def test_adjacent_ld_present_when_requested(self):
        cfg = GenomicWorldConfig(rng_seed=3, ld_rho=0.6, **SMALL_WORLD)
        w = generate_world(cfg)
        g = _unpacked(w, 0).astype(float)
        adjacent = [np.corrcoef(g[i], g[i + 1])[0, 1] for i in range(0, 60, 3)]
        assert np.mean(adjacent) > 0.2


def _per_variant_genotypes(rng, freqs, population, ld_rho):
    """The AR(1) genotype fill written as one strided column write per variant."""
    thresholds = norm.ppf(freqs)
    out = np.empty((population, freqs.size), dtype=np.uint8)
    carry = np.sqrt(1.0 - ld_rho**2)
    z = rng.standard_normal(population)
    out[:, 0] = z < thresholds[0]
    for i in range(1, freqs.size):
        z = ld_rho * z + carry * rng.standard_normal(population)
        out[:, i] = z < thresholds[i]
    return out


def _unpacked_fill(packed, population):
    """A packed fill's 0/1 matrix, after checking its shape and zero pad bits."""
    assert packed.dtype == np.uint8 and packed.flags.c_contiguous
    assert packed.shape[1] == -(-population // 8)
    bits = np.unpackbits(packed, axis=1)
    assert not bits[:, population:].any()
    return bits[:, :population]


@pytest.mark.parametrize("variants", [1, 63, 64, 129])
def test_blocked_genotype_fill_matches_per_variant_loop(variants):
    # the variant-major fill, unpacked, is the transpose of the population-major
    # loop, with LD and without (where each latent is a fresh standard normal);
    # 1000 and 1024 individuals fill whole bytes, and 1001, 13 and 7 end mid-byte
    freqs = np.random.default_rng(1).uniform(0.05, 0.5, variants)
    for ld_rho, population in itertools.product((0.0, 0.3), (1000, 1001, 1024, 13, 7)):
        expected = _per_variant_genotypes(np.random.default_rng(3), freqs, population, ld_rho)
        rng = np.random.default_rng(3)
        got = _sample_genotypes(rng, freqs, population, ld_rho)
        assert np.array_equal(_unpacked_fill(got, population), expected.T)
        # the generator is left where the reference loop leaves it
        after = np.random.default_rng(3)
        _per_variant_genotypes(after, freqs, population, ld_rho)
        assert rng.random() == after.random()


@pytest.mark.parametrize("population", [20000, 20003, 5001, 2 * _SCORE_BLOCK, 2049, 100, 7])
def test_blocked_liability_scores_match_the_whole_product(population):
    # scored a block of individuals at a time from the packed causal rows, each
    # score has the bits of the product over the whole unpacked matrix (at one
    # BLAS thread, as conftest.py pins it); 20003, 5001, 2049 and 7 end
    # mid-byte, 2049 leaves one individual past a whole block, and 100 and 7
    # are shorter than one block
    assert _SCORE_BLOCK % 8 == 0 and 100 < _SCORE_BLOCK
    rng = np.random.default_rng(population)
    for causal in (1, 3, 100):
        packed = np.packbits(rng.random((causal, population)) < 0.3, axis=1)
        weights = rng.normal(0.0, 0.1, causal)
        whole = _selected_scores(np.unpackbits(packed, axis=1, count=population), weights)
        got = _packed_scores(packed, weights, population)
        assert got.shape == (population,) and got.tobytes() == whole.tobytes()


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads Linux's VmHWM")
@pytest.mark.parametrize("ld_rho", [0.0, 0.3])
def test_independent_world_peak_memory_stays_near_the_genotypes(ld_rho):
    # bit-packed and cut to the splits, a default world holds 5.5 MB of
    # genotypes and peaks at about 109 MB, mostly the imports; one byte per
    # genotype for everyone peaked at about 175 MB, and drawing the whole
    # ld_rho = 0 float matrix at 463 MB.  A fresh process measures this
    # world's peak alone; it reads VmHWM, because ru_maxrss keeps the
    # spawning process's peak across exec.
    script = ("import re\n"
              "from equalloc.envs import GenomicWorldConfig, generate_world\n"
              f"generate_world(GenomicWorldConfig(ld_rho={ld_rho}))\n"
              "status = open('/proc/self/status').read()\n"
              "print(re.search(r'VmHWM:\\s+(\\d+) kB', status).group(1))\n")
    package_root = str(Path(equalloc.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=package_root), timeout=120)
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) / 1024 < 150


@pytest.mark.parametrize("world_fixture", ["world", "independent_world"])
def test_columns_are_in_split_order(request, world_fixture):
    # training cases, training controls, holdout cases, then holdout
    # controls, and each group's columns are columns of its unpermuted draw
    world = request.getfixturevalue(world_fixture)
    cfg = world.config
    n_cases = int(np.floor(cfg.prevalence * cfg.population))
    for g, unpermuted in enumerate(_replayed_genotypes(cfg)):
        p, holdout, sick = cfg.train_pairs, cfg.holdout, world.disease[g]
        assert sick.sum() == n_cases and sick.size == holdout.stop
        assert p == int(np.floor(cfg.case_train_fraction * n_cases)) and holdout.start == 2 * p
        assert sick[:p].all() and not sick[p:2 * p].any()
        n_test_cases = n_cases - p
        assert sick[holdout][:n_test_cases].all() and not sick[holdout][n_test_cases:].any()
        kept = _unpacked(world, g)
        assert np.array_equal(world.pools[g], kept[:, :2 * p].T)
        assert not np.array_equal(unpermuted[:, :holdout.stop], kept)
        drawn = Counter(c.tobytes() for c in unpermuted.T)
        drawn.subtract(c.tobytes() for c in kept.T)
        assert min(drawn.values()) >= 0 and drawn.total() == cfg.population - holdout.stop


@pytest.mark.parametrize("population,prevalence,fraction", [
    (20000, 0.05, 0.5), (5001, 0.1, 0.37), (1001, 0.37, 0.8), (3333, 0.013, 0.21)])
def test_the_holdout_restores_the_prevalence(population, prevalence, fraction):
    # the config's holdout follows both groups' training columns and holds
    # every test case, then the whole number of test controls nearest to
    # the population's odds: (1 - q) / q controls per case
    cfg = GenomicWorldConfig(variants=50, causal_count=10, population=population,
                             prevalence=prevalence, case_train_fraction=fraction)
    holdout, pairs = cfg.holdout, cfg.train_pairs
    assert holdout.start == 2 * pairs and holdout.stop <= population
    for sick in generate_world(cfg).disease:
        cases = int(sick[holdout].sum())
        controls = holdout.stop - holdout.start - cases
        assert sick.size == holdout.stop and cases == math.floor(prevalence * population) - pairs
        assert sick[holdout][:cases].all()
        assert abs(controls - cases * (1 - prevalence) / prevalence) <= 0.5


@pytest.mark.parametrize("ld_rho", [0.0, 0.3])
def test_world_keeps_only_the_split_columns_bit_packed(ld_rho):
    # a world keeps each group's holdout.stop split columns, one bit per
    # genotype with zero pad bits, and drops the other individuals; at full
    # heritability the cases are the top genetic scores of the whole draw,
    # so every individual dropped must be one of the draw's controls
    cfg = GenomicWorldConfig(rng_seed=1, heritability=1.0, ld_rho=ld_rho,
                             case_train_fraction=0.49, **SMALL_WORLD)
    world = generate_world(cfg)
    n_cases = int(np.floor(cfg.prevalence * cfg.population))
    # 200 cases, 98 training controls and 1938 holdout controls: mid-byte
    stop = cfg.holdout.stop
    assert all(sick.size == stop for sick in world.disease) and stop == 2236
    assert sum(g.nbytes for g in world.genotypes) == 2 * cfg.variants * -(-stop // 8)
    for g, unpermuted in enumerate(_replayed_genotypes(cfg)):
        packed = world.genotypes[g]
        assert packed.shape == (cfg.variants, -(-stop // 8)) and packed.dtype == np.uint8
        assert not np.unpackbits(packed, axis=1)[:, stop:].any()
        x = unpermuted[world.causal_idx].T.astype(float) @ world.effect_sizes
        cases = np.argsort(-x, kind="stable")[:n_cases]
        dropped = Counter(c.tobytes() for c in unpermuted.T)
        dropped.subtract(c.tobytes() for c in _unpacked(world, g).T)
        assert min(dropped.values()) >= 0 and dropped.total() == cfg.population - stop
        assert not any(dropped[c.tobytes()] for c in unpermuted[:, cases].T)


def _screen_everywhere(geno, n_cases, maf_floor, p_threshold):
    """The chi-squared screen with a p-value for every variant: (selected
    mask, p-values, log odds ratios, statistics)."""
    total = geno.shape[0]
    a = geno[:n_cases].sum(axis=0).astype(float)
    c = geno[n_cases:].sum(axis=0).astype(float)
    b, d = n_cases - a, total - n_cases - c
    freq = (a + c) / total
    eligible = np.minimum(freq, 1.0 - freq) > maf_floor
    denom = (a + b) * (c + d) * (a + c) * (b + d)
    with np.errstate(divide="ignore", invalid="ignore"):
        stat = np.where(
            denom > 0, total * (a * d - b * c) ** 2 / np.where(denom > 0, denom, 1.0), 0.0
        )
    pvals = np.array([math.erfc(math.sqrt(x / 2)) for x in stat.tolist()])
    zero_cell = (a == 0) | (b == 0) | (c == 0) | (d == 0)
    a2, b2, c2, d2 = (x + np.where(zero_cell, 0.5, 0.0) for x in (a, b, c, d))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_or = np.log((a2 * d2) / (b2 * c2))
    return eligible & (pvals < p_threshold), pvals, log_or, stat


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_screen_skips_only_p_values_that_cannot_pass(data):
    # the threshold's statistic is put within a few ulps, or within 0.1%,
    # of one variant's statistic: the p-values the screen skips must not
    # change which variants pass, nor their p-values or clumping order
    n_cases, n_controls = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 40))
    v = data.draw(st.integers(1, 6))
    geno = np.zeros((n_cases + n_controls, v), dtype=np.uint8)
    for j in range(v):
        geno[: data.draw(st.integers(0, n_cases)), j] = 1
        geno[n_cases : n_cases + data.draw(st.integers(0, n_controls)), j] = 1
    maf_floor = data.draw(st.sampled_from([0.0, 0.01, 0.2]))
    stat = _screen_everywhere(geno, n_cases, maf_floor, 0.5)[3]
    target = stat[data.draw(st.integers(0, v - 1))]
    if data.draw(st.booleans()):
        steps = data.draw(st.integers(-4, 4))
        for _ in range(abs(steps)):
            target = np.nextafter(target, np.inf if steps > 0 else 0.0)
    else:
        target *= data.draw(st.floats(0.999, 1.001))
    p_threshold = math.erfc(math.sqrt(target / 2))
    assume(0.0 < p_threshold < 1.0)
    selected, pvals, log_or = _chi2_screen(geno, n_cases, maf_floor, p_threshold)
    want, want_pvals, want_log_or, _ = _screen_everywhere(geno, n_cases, maf_floor, p_threshold)
    assert np.array_equal(selected, want)
    candidates = np.flatnonzero(want)
    assert np.array_equal(pvals[candidates], want_pvals[candidates])
    assert np.array_equal(log_or, want_log_or)
    if candidates.size:
        assert np.array_equal(_clump(geno, candidates, pvals, 50, 0.2),
                              _clump(geno, candidates, want_pvals, 50, 0.2))


def test_chi2_p_values_and_threshold_match_scipy():
    # chi-squared on one degree of freedom is Z**2: the screen's stdlib
    # tail and quantile against scipy's chdtrc and chdtri.  Statistics stop
    # at 700 (p-values of 1e-153): the tail's relative error grows with the
    # statistic, in both, and chdtrc's is 1.1e-13 at 1400
    stats = np.concatenate([np.logspace(-6, np.log10(700.0), 2000), [0.0, 1e-300]])
    for x in stats.tolist():
        want = chdtrc(1, x)
        assert abs(math.erfc(math.sqrt(x / 2)) - want) <= 1e-13 * want, x
    for p in np.logspace(-300, np.log10(0.999), 500).tolist():
        want = chdtri(1, p)
        assert NormalDist().inv_cdf(p / 2) ** 2 == pytest.approx(want, rel=1e-13), p


def test_screen_takes_the_smallest_p_threshold():
    # p / 2 rounds to 0 at the smallest double, where inv_cdf is undefined
    geno = np.zeros((6, 2), dtype=np.uint8)
    geno[:3, 0] = 1
    for p_threshold in (5e-324, 1e-323):
        selected, pvals, _ = _chi2_screen(geno, 3, 0.0, p_threshold)
        assert not selected.any() and np.isnan(pvals[1])


def test_genotype_thresholds_match_scipy():
    # inv_cdf and ndtri differ by up to 6 ulps (1.03e-15 relative) where the
    # quantile is near 0; each is within 5 ulps of the 50-digit value there
    freqs = np.random.default_rng(0).uniform(1e-6, 1 - 1e-6, 20_000).tolist()
    freqs += np.logspace(-300, -1, 300).tolist() + [0.05, 0.5, np.nextafter(0.5, 0)]
    for f in freqs:
        assert NormalDist().inv_cdf(f) == pytest.approx(ndtri(f), rel=2e-15, abs=0), f


class TestRiskModelTraining:
    def test_empty_model_predicts_prevalence_and_zero_value(self, world):
        model = _empty_model(world.config.prevalence)
        probs = model.predict_proba(_unpacked(world, 0)[model.variant_idx, :10])
        assert probs.shape == (10,) and np.allclose(probs, 0.05)
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

    @pytest.mark.slow
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

    def test_sample_outside_the_training_pool_rejected(self, world):
        # training reads the pool block, so a holdout individual, an empty
        # side, or a case and a control in each other's ranges must be
        # refused, never read from a wrong row
        p = world.config.train_pairs
        cases, controls = np.arange(5), p + np.arange(5)
        holdout = np.arange(world.config.holdout.start, world.config.holdout.start + 5)
        for bad_cases, bad_controls in ((holdout, controls), (cases, holdout),
                                        (np.array([], dtype=int), controls),
                                        (np.append(cases, p), controls),
                                        (cases, np.append(controls, p - 1)),
                                        (np.append(cases, -1), controls),
                                        (cases, np.append(controls, 2 * p))):
            sample = CaseControlSample(0, bad_cases, bad_controls)
            with pytest.raises(DomainError):
                train_risk_model(world, sample)
        # the first and last column of each range are accepted
        train_risk_model(world, CaseControlSample(0, np.append(cases, p - 1),
                                                  np.append(controls, 2 * p - 1)))

    def test_sample_too_large_rejected(self, world):
        # a negative count used to slice the permutation from its end
        for n_pairs in (10**6, world.config.train_pairs + 1, -3):
            with pytest.raises(DomainError):
                draw_case_control_sample(world, 0, n_pairs, 0)

    def test_deterministic_training(self, world):
        s1 = draw_case_control_sample(world, 0, 60, 12)
        s2 = draw_case_control_sample(world, 0, 60, 12)
        m1, m2 = train_risk_model(world, s1), train_risk_model(world, s2)
        assert np.array_equal(m1.variant_idx, m2.variant_idx)
        assert m1.slope == m2.slope and m1.intercept == m2.intercept
        assert evaluate_group_value(world, m1, 0) == evaluate_group_value(world, m2, 0)


def _platt_loss_and_grad(params, scores, labels):
    """Platt's smoothed-target cross-entropy and its gradient in (slope, intercept)."""
    n_pos, n_neg = labels.sum(), labels.size - labels.sum()
    targets = np.where(labels > 0, (n_pos + 1) / (n_pos + 2), 1 / (n_neg + 2))
    z = params[0] * scores + params[1]
    resid = np.exp(-np.logaddexp(0.0, -z)) - targets
    return (float(np.sum(np.logaddexp(0.0, z) - targets * z)),
            np.array([resid @ scores, resid.sum()]))


class TestPlattFit:
    def test_newton_fit_is_no_worse_than_lbfgsb(self):
        # scipy's L-BFGS-B on the same objective is the oracle: the Newton fit
        # reaches its loss (to 1e-9 relative) and a stationary point.  Score
        # spreads cover those of the genomic experiments' calibration sets
        # (standard deviations 1.3 to 3.7 over 60 to 300 rows).
        rng = np.random.default_rng(2024)
        for trial in range(40):
            n = int(rng.integers(2, 600))
            labels = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(float)
            scores = rng.normal(rng.normal(0, 3), rng.uniform(0.01, 6), n)
            scores += rng.uniform(0, 2) * labels  # some signal, sometimes separable
            slope, intercept = _fit_platt(scores, labels)
            loss, grad = _platt_loss_and_grad((slope, intercept), scores, labels)
            oracle = minimize(_platt_loss_and_grad, np.zeros(2), args=(scores, labels),
                              jac=True, method="L-BFGS-B")
            assert loss <= oracle.fun + 1e-9 * abs(oracle.fun), trial
            assert np.max(np.abs(grad)) < 1e-5, trial

    @pytest.mark.parametrize("seed", [2, 3, 14])
    def test_widely_spread_scores_end_where_no_step_lowers_the_loss(self, seed):
        # at score sd 25 the Newton decrease falls below the loss's rounding
        # while max|grad| is still 1.5e-5 to 4.6e-5: these seeds end by the
        # no-decrease exit, at a loss no worse than L-BFGS-B's
        rng = np.random.default_rng(seed)
        labels = (rng.random(590) < 0.5).astype(float)
        scores = rng.normal(0.0, 25.0, 590) + rng.uniform(0, 20) * labels
        loss, _ = _platt_loss_and_grad(_fit_platt(scores, labels), scores, labels)
        oracle = minimize(_platt_loss_and_grad, np.zeros(2), args=(scores, labels),
                          jac=True, method="L-BFGS-B")
        assert loss <= oracle.fun + 1e-9 * abs(oracle.fun)

    def test_saturating_scores_do_not_overflow(self):
        # a unit-slope start saturates the sigmoid at scores of +-800; the
        # optimum puts each side's probability at its smoothed target 11/12,
        # so the slope is log(11) / 800 = 0.0029974
        scores = np.r_[np.full(10, 800.0), np.full(10, -800.0)]
        labels = np.r_[np.ones(10), np.zeros(10)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            slope, intercept = _fit_platt(scores, labels)
        assert abs(slope - 0.0029974) < 1e-6
        assert abs(intercept) < 1e-9

    @pytest.mark.parametrize("value", [0.0, 3.0, -2.5])
    def test_constant_scores_return_a_finite_fit(self, value):
        # the slope is not identified; the fitted logit is the best constant,
        # the log-odds of the mean smoothed target
        labels = np.r_[np.ones(5), np.zeros(15)]
        slope, intercept = _fit_platt(np.full(20, value), labels)
        assert np.isfinite(slope) and np.isfinite(intercept)
        mean_target = (5 * 6 / 7 + 15 / 17) / 20
        assert slope * value + intercept == pytest.approx(
            np.log(mean_target / (1 - mean_target)), abs=1e-5)
        if value == 0.0:
            assert slope == 0.0


def _population_major_reference(world, sample):
    """``train_risk_model`` and every group's holdout value, computed from
    population-major ``(population, variants)`` matrices with a p-value for
    every variant: ``(variant_idx, log_odds, slope, intercept, values)``."""
    cfg, q = world.config, world.config.prevalence
    geno = [np.ascontiguousarray(_unpacked(world, g).T) for g in range(world.num_groups)]
    n_pairs = sample.num_pairs
    n_cal = int(round(cfg.calibration_fraction * n_pairs))
    n_fit = n_pairs - n_cal
    if n_fit < 1 or n_cal < 1:
        n_fit, n_cal = n_pairs, n_pairs
    fit_rows = np.concatenate([sample.case_idx[:n_fit], sample.control_idx[:n_fit]])
    geno_fit = geno[sample.group][fit_rows]
    selected, pvals, log_or, _ = _screen_everywhere(
        geno_fit, n_fit, cfg.maf_floor, cfg.pvalue_threshold
    )
    candidates = np.flatnonzero(selected)
    if candidates.size == 0:
        model = _empty_model(q)
    else:
        retained = _clump(geno_fit, candidates, pvals, cfg.clump_window, cfg.r2_threshold)
        cal_cases = sample.case_idx[n_pairs - n_cal:]
        cal_rows = np.concatenate([cal_cases, sample.control_idx[n_pairs - n_cal:]])
        block = geno[sample.group][np.ix_(cal_rows, retained)].astype(float, order="F")
        labels = np.zeros(cal_rows.size)
        labels[: cal_cases.size] = 1.0
        slope, intercept = _fit_platt(block @ log_or[retained], labels)
        q_sample = cal_cases.size / cal_rows.size
        intercept += np.log(q / (1.0 - q)) - np.log(q_sample / (1.0 - q_sample))
        model = RiskModel(retained, log_or[retained], slope, intercept, q)
    values = []
    for g in range(world.num_groups):
        holdout = geno[g][world.config.holdout]
        probs = np.full(holdout.shape[0], q)
        if not model.is_empty:
            block = holdout[:, model.variant_idx].astype(float, order="F")
            logit = model.slope * (block @ model.log_odds) + model.intercept
            probs = 1.0 / (1.0 + np.exp(-logit))
        values.append(treatment_value(world, g, probs))
    return model.variant_idx, model.log_odds, model.slope, model.intercept, values


@pytest.mark.parametrize("world_fixture", ["world", "independent_world"])
def test_training_and_value_match_population_major_reference(request, world_fixture):
    # the variant-major store, the training-pool block and the screen's
    # skipped p-values change no bit of a model or of a holdout value;
    # one and two pairs are too few to split into fit and calibration
    world = request.getfixturevalue(world_fixture)
    nonempty = 0
    for g in range(world.num_groups):
        for n, seed in ((1, 0), (2, 1), (3, 2), (60, 3), (100, 4)):
            sample = draw_case_control_sample(world, g, n, seed)
            model = train_risk_model(world, sample)
            got = (model.variant_idx, model.log_odds, model.slope, model.intercept,
                   [evaluate_group_value(world, model, h) for h in range(world.num_groups)])
            want = _population_major_reference(world, sample)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            assert got[2:] == want[2:]
            nonempty += not model.is_empty
    assert nonempty >= 4


class TestEvaluation:
    def test_value_equals_full_holdout_prediction(self, world):
        # evaluate_group_value unpacks only the model's variant rows; the value
        # must be bit-for-bit the one predicted from the full unpacked holdout
        models = [_empty_model(world.config.prevalence)]
        for g, n, seed in ((0, 60, 1), (1, 60, 2), (1, 100, 3), (0, 1, 4)):
            models.append(train_risk_model(world, draw_case_control_sample(world, g, n, seed)))
        assert not all(m.is_empty for m in models[1:])
        for model in models:
            for g in range(world.num_groups):
                holdout = _unpacked(world, g)[:, world.config.holdout]
                probs = model.predict_proba(holdout[model.variant_idx])
                if not model.is_empty:
                    rows = holdout.T
                    scores = rows[:, model.variant_idx].astype(float) @ model.log_odds
                    logit = model.slope * scores + model.intercept
                    assert np.array_equal(probs, 1.0 / (1.0 + np.exp(-logit)))
                expected = treatment_value(world, g, probs)
                assert evaluate_group_value(world, model, g) == expected

    def test_treat_everyone_is_worthless(self, desk_world):
        holdout = desk_world.config.holdout
        probs = np.full(holdout.stop - holdout.start, desk_world.config.prevalence + 1e-9)
        assert treatment_value(desk_world, 0, probs) == pytest.approx(0.0, abs=0.05)

    def test_oracle_attains_upper_bound(self, desk_world):
        # the holdout's first columns are the cases the pool left out
        cfg = desk_world.config
        oracle = np.zeros(cfg.holdout.stop - cfg.holdout.start)
        oracle[: int(desk_world.disease[1].sum()) - cfg.train_pairs] = 1.0
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
        holdout = _unpacked(desk_world, 1)[:, desk_world.config.holdout]
        for seed in range(20):
            sample = draw_case_control_sample(desk_world, 1, 400, seed)
            model = train_risk_model(desk_world, sample)
            means.append(model.predict_proba(holdout[model.variant_idx]).mean())
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

    def test_empty_grid_gives_no_rows(self, world):
        assert run_allocation_curve(world, [], seeds=[0, 1]) == []

    def test_rows_are_session_values(self, world):
        grid, seeds = [0, 40, 80], [3, 4]
        expected = []
        for seed in seeds:
            session = GenomicSamplingSession(world, rng_seed=seed)
            for g in range(world.num_groups):
                expected += [(g, n, seed, session.value_at(g, n)) for n in grid]
        assert run_allocation_curve(world, grid, seeds) == expected

    def test_rows_deterministic(self, world):
        r1 = run_allocation_curve(world, [40, 80], seeds=[3, 4])
        r2 = run_allocation_curve(world, [40, 80], seeds=[3, 4])
        assert r1 == r2


class TestSamplingSession:
    def test_perf_values_caches_and_replays(self, world):
        s1 = GenomicSamplingSession(world, rng_seed=8)
        s2 = GenomicSamplingSession(world, rng_seed=8)
        counts = np.array([60.0, 40.0])
        v1 = s1.perf_values(counts)
        v2 = s2.perf_values(counts)
        assert np.array_equal(v1, v2)
        assert np.array_equal(v1, s1.perf_values(counts))
        assert v1.tolist() == [s1.value_at(0, 60), s1.value_at(1, 40)]

    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_values_come_from_prefixes_of_one_shuffle_per_group(self, world, seed):
        # the session's generator shuffles group 0's training cases, then its
        # controls, then group 1's, and a value trains on prefixes of them
        session = GenomicSamplingSession(world, rng_seed=seed)
        rng, p = np.random.default_rng(seed), world.config.train_pairs
        for g in range(world.num_groups):
            cases, controls = rng.permutation(p), p + rng.permutation(p)
            for n in (1, 40):
                model = train_risk_model(world, CaseControlSample(g, cases[:n], controls[:n]))
                assert session.value_at(g, n) == evaluate_group_value(world, model, g)

    def test_session_respects_pool_limits(self, world):
        session = GenomicSamplingSession(world, rng_seed=0)
        with pytest.raises(DomainError):
            session.value_at(0, 10**6)
        # a negative count used to slice the pool from its end
        with pytest.raises(DomainError):
            session.value_at(0, -5)

    def test_non_integral_pair_counts_rejected(self, world):
        # a fractional step used to be rounded silently, so the estimator's
        # history recorded counts the model was never trained on
        session = GenomicSamplingSession(world, rng_seed=0)
        with pytest.raises(DomainError):
            session.perf_values(np.array([30.5, 20.0]))
        for counts in ([30.0], [30.0, 20.0, 10.0]):
            with pytest.raises(DomainError):
                session.perf_values(np.array(counts))
        cost = CostModel([1.0, 1.0], 60.0)
        cfg = GreedyConfig(step_cost=10.5, start_alloc=Allocation([20.0, 20.0]),
                           marginal_source="estimator")
        with pytest.raises(DomainError):
            run_greedy(session, UtilitySpec([1.0, 1.0]), cost, cfg)



def test_every_environment_answers_perf_values(world, four_group_curve):
    # an environment is an exported class with a measurement call, typed or
    # not; a new one needs an instance here
    instances = {AnalyticEnvironment: AnalyticEnvironment(four_group_curve, noise_sd=0.1),
                 GenomicSamplingSession: GenomicSamplingSession(world)}
    exported = [getattr(equalloc.envs, name) for name in equalloc.envs.__all__]
    assert set(instances) == {c for c in exported if isinstance(c, type) and any(
        hasattr(c, m) for m in ("observe", "perf_values", "value_at"))}
    for cls in [*instances, AnalyticCurve]:
        assert callable(getattr(cls, "perf_values", None)), cls
        assert hasattr(cls, "num_groups"), cls
    for source in [*instances.values(), four_group_curve]:
        k = source.num_groups
        perf = source.perf_values(np.full(k, 20.0))
        assert type(perf) is np.ndarray and perf.shape == (k,) and np.isfinite(perf).all()
