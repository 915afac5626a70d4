"""Desk-scale synthetic genomic risk environment.

Builds a two-population world of binary genotype indicators with a
liability-threshold disease, then trains per-group risk scores the
classical way: a chi-squared association screen with p-value
thresholding, index-window clumping of correlated variants, a log
odds-ratio score, and Platt-scaled probabilities corrected for
case-control over-sampling.  Group-level performance is the per-capita
value of intervening on everyone whose calibrated risk exceeds the
population prevalence.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.stats import chi2 as chi2_dist
from scipy.stats import norm

from ..core import Allocation, PerformanceVector
from ..errors import DomainError

__all__ = [
    "GenomicWorldConfig",
    "GenomicWorld",
    "CaseControlSample",
    "RiskModel",
    "generate_world",
    "draw_case_control_sample",
    "train_risk_model",
    "evaluate_group_value",
    "run_allocation_curve",
    "GenomicSamplingSession",
]

@dataclass(frozen=True)
class GenomicWorldConfig:
    """Knobs for world synthesis and risk-model training.

    ``ld_rho`` sets the latent AR(1) correlation between adjacent
    variants, which is what gives the clumping step something to prune;
    set it to 0 for fully independent variants.
    ``case_train_fraction`` of each group's cases form the obtainable
    training pool; the rest are held out for evaluation together with
    enough controls to restore the population prevalence.
    """

    variants: int = 2000
    causal_count: int = 100
    heritability: float = 0.5
    prevalence: float = 0.05
    population: int = 20000
    benefit: float = 100.0
    cost: float = 5.0
    clump_window: int = 50
    pvalue_threshold: float = 0.01
    maf_floor: float = 0.01
    r2_threshold: float = 0.2
    ld_rho: float = 0.3
    case_train_fraction: float = 0.5
    calibration_fraction: float = 0.3
    freq_low: float = 0.05
    freq_high: float = 0.5
    rng_seed: int = 0

    def __post_init__(self):
        if self.causal_count < 1 or self.variants < self.causal_count:
            raise DomainError(
                f"need variants >= causal_count >= 1, got "
                f"{self.variants} < {self.causal_count}"
            )
        if self.population < 1000:
            raise DomainError("population must be at least 1000 per group")
        if not 0.0 < self.heritability <= 1.0:
            raise DomainError("heritability must lie in (0, 1]")
        if not 0.0 < self.prevalence < 0.5:
            raise DomainError("prevalence must lie in (0, 0.5)")
        if not 0.0 < self.case_train_fraction < 1.0:
            raise DomainError("case_train_fraction must lie in (0, 1)")
        if not 0.0 < self.calibration_fraction < 1.0:
            raise DomainError("calibration_fraction must lie in (0, 1)")
        if not 0.0 <= self.ld_rho < 1.0:
            raise DomainError("ld_rho must lie in [0, 1)")
        if not 0.0 < self.freq_low < self.freq_high < 1.0:
            raise DomainError("need 0 < freq_low < freq_high < 1")


@dataclass(frozen=True)
class GroupSplit:
    """Index bookkeeping for one group's train pools and holdout set."""

    train_cases: np.ndarray
    train_controls: np.ndarray
    test_cases: np.ndarray
    test_controls: np.ndarray

    @property
    def max_pairs(self) -> int:
        return min(self.train_cases.size, self.train_controls.size)


@dataclass(frozen=True)
class GenomicWorld:
    """A fully realized two-population world.

    ``genotypes[g]`` is a population x variants 0/1 matrix; ``disease[g]``
    marks the top-prevalence fraction of the liability distribution.
    The per-group splits separate obtainable training cases/controls from
    the holdout used for evaluation.
    """

    config: GenomicWorldConfig
    freqs: np.ndarray
    causal_idx: np.ndarray
    effect_sizes: np.ndarray
    genotypes: tuple
    disease: tuple
    splits: tuple

    @property
    def num_groups(self) -> int:
        return len(self.genotypes)


@dataclass(frozen=True)
class CaseControlSample:
    """A matched case-control training sample for one group."""

    group: int
    case_idx: np.ndarray
    control_idx: np.ndarray

    @property
    def num_pairs(self) -> int:
        return min(self.case_idx.size, self.control_idx.size)


@dataclass(frozen=True)
class RiskModel:
    """Selected variants, their log odds ratios, and the Platt link.

    Predicted probability is ``sigmoid(slope * score + intercept)`` with
    ``score = sum(log_odds[v] * g[v])``.  An empty model (no variant
    survived the screen) predicts the population prevalence for everyone.
    """

    variant_idx: np.ndarray
    log_odds: np.ndarray
    slope: float
    intercept: float
    prevalence: float

    @property
    def is_empty(self) -> bool:
        return self.variant_idx.size == 0

    def predict_proba(self, genotypes: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Predicted probabilities of the individuals ``genotypes[rows]``,
        gathering only the columns the model uses."""
        if self.is_empty:
            return np.full(rows.size, self.prevalence)
        scores = _selected_scores(genotypes, rows, self.variant_idx, self.log_odds)
        logit = self.slope * scores + self.intercept
        return 1.0 / (1.0 + np.exp(-logit))


def _selected_scores(genotypes, rows, variant_idx, log_odds) -> np.ndarray:
    """``genotypes[rows][:, variant_idx].astype(float) @ log_odds``, gathering
    only ``rows x variant_idx``.

    That column gather yields a Fortran-ordered matrix, and the matrix-vector
    product sums in an order set by the layout, so the gathered block is
    made Fortran-ordered too: every score keeps its bits.
    """
    cols = genotypes[np.ix_(rows, variant_idx)].astype(float, order="F")
    return cols @ log_odds


# Variants per transposed write in the correlated genotype fill: 64 uint8
# columns of one output row make one 64-byte cache line.
_FILL_BLOCK = 64


def _sample_genotypes(rng, freqs: np.ndarray, population: int, ld_rho: float) -> np.ndarray:
    """Binary genotypes with optional AR(1) latent correlation along the index."""
    v = freqs.size
    if ld_rho == 0.0:
        return (rng.random((population, v)) < freqs[None, :]).astype(np.uint8)
    thresholds = norm.ppf(freqs)
    out = np.empty((population, v), dtype=np.uint8)
    carry = np.sqrt(1.0 - ld_rho**2)
    # Each variant's indicators are a contiguous row of ``block``; a full
    # block goes into ``out`` in one transposed write instead of one strided
    # column write per variant.
    block = np.empty((min(_FILL_BLOCK, v), population), dtype=bool)
    z = rng.standard_normal(population)
    for start in range(0, v, _FILL_BLOCK):
        stop = min(start + _FILL_BLOCK, v)
        for i in range(start, stop):
            if i > 0:
                z = ld_rho * z + carry * rng.standard_normal(population)
            np.less(z, thresholds[i], out=block[i - start])
        out[:, start:stop] = block[: stop - start].T
    return out


def generate_world(config: GenomicWorldConfig) -> GenomicWorld:
    """Synthesize a two-population world per the configuration.

    Causal variants are the ones whose allele frequency most exceeds the
    first group's in the second group, which makes the resulting score
    more informative for the second (YRI-like) population.  Disease goes
    to the top-prevalence slice of a standardized genetic-plus-noise
    liability, so every world has exactly ``floor(q * P)`` cases per
    group.
    """
    rng = np.random.default_rng(config.rng_seed)
    v, p = config.variants, config.population
    q = config.prevalence

    freqs = rng.uniform(config.freq_low, config.freq_high, size=(2, v))
    causal_idx = np.sort(np.argsort(freqs[1] - freqs[0])[-config.causal_count:])
    effect_sizes = rng.normal(
        0.0, np.sqrt(config.heritability / config.causal_count), size=config.causal_count
    )

    genotypes = []
    disease = []
    splits = []
    n_cases = int(np.floor(q * p))
    n_train_cases = int(np.floor(config.case_train_fraction * n_cases))
    for g in range(2):
        geno = _sample_genotypes(rng, freqs[g], p, config.ld_rho)
        x = geno[:, causal_idx].astype(float) @ effect_sizes
        x_sd = x.std()
        genetic = (x - x.mean()) / x_sd if x_sd > 0 else np.zeros(p)
        eps = rng.standard_normal(p)
        eps = (eps - eps.mean()) / eps.std()
        liab = genetic * np.sqrt(config.heritability) + eps * np.sqrt(
            1.0 - config.heritability
        )
        order = np.argsort(-liab, kind="stable")
        sick = np.zeros(p, dtype=bool)
        sick[order[:n_cases]] = True

        case_idx = rng.permutation(np.flatnonzero(sick))
        control_idx = rng.permutation(np.flatnonzero(~sick))
        train_cases = case_idx[:n_train_cases]
        test_cases = case_idx[n_train_cases:]
        train_controls = control_idx[:n_train_cases]
        n_test_controls = int(round(test_cases.size * (1.0 - q) / q))
        n_test_controls = min(n_test_controls, control_idx.size - n_train_cases)
        test_controls = control_idx[n_train_cases : n_train_cases + n_test_controls]

        genotypes.append(geno)
        disease.append(sick)
        splits.append(
            GroupSplit(
                train_cases=train_cases,
                train_controls=train_controls,
                test_cases=test_cases,
                test_controls=test_controls,
            )
        )

    return GenomicWorld(
        config=config,
        freqs=freqs,
        causal_idx=causal_idx,
        effect_sizes=effect_sizes,
        genotypes=tuple(genotypes),
        disease=tuple(disease),
        splits=tuple(splits),
    )


def draw_case_control_sample(
    world: GenomicWorld, group: int, n_pairs: int, rng_seed
) -> CaseControlSample:
    """Draw ``n_pairs`` matched case-control pairs from a group's train pools."""
    split = world.splits[group]
    if n_pairs > split.max_pairs:
        raise DomainError(
            f"requested {n_pairs} pairs but group {group} has only "
            f"{split.max_pairs} available"
        )
    rng = np.random.default_rng(rng_seed)
    cases = rng.permutation(split.train_cases)[:n_pairs]
    controls = rng.permutation(split.train_controls)[:n_pairs]
    return CaseControlSample(group=group, case_idx=cases, control_idx=controls)


def _chi2_screen(geno: np.ndarray, n_cases: int, maf_floor: float, p_threshold: float):
    """Per-variant 2x2 chi-squared scan; returns (selected mask, pvals, log ORs)."""
    total = geno.shape[0]
    n_controls = total - n_cases
    present_cases = geno[:n_cases].sum(axis=0).astype(float)
    present_controls = geno[n_cases:].sum(axis=0).astype(float)
    a = present_cases
    b = n_cases - present_cases
    c = present_controls
    d = n_controls - present_controls

    freq = (a + c) / total
    maf = np.minimum(freq, 1.0 - freq)
    eligible = maf > maf_floor

    row1, row2 = a + b, c + d
    col1, col2 = a + c, b + d
    denom = row1 * row2 * col1 * col2
    with np.errstate(divide="ignore", invalid="ignore"):
        stat = np.where(
            denom > 0, total * (a * d - b * c) ** 2 / np.where(denom > 0, denom, 1.0), 0.0
        )
    pvals = chi2_dist.sf(stat, df=1)
    selected = eligible & (pvals < p_threshold)

    # Haldane-Anscombe correction wherever the 2x2 table has a zero cell.
    zero_cell = (a == 0) | (b == 0) | (c == 0) | (d == 0)
    a2, b2, c2, d2 = (x + np.where(zero_cell, 0.5, 0.0) for x in (a, b, c, d))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_or = np.log((a2 * d2) / (b2 * c2))
    return selected, pvals, log_or


def _clump(geno: np.ndarray, candidates: np.ndarray, pvals: np.ndarray,
           window: int, r_threshold: float) -> np.ndarray:
    """Retain candidates in significance order, pruning correlated neighbors."""
    order = candidates[np.lexsort((candidates, pvals[candidates]))]
    cols = geno[:, order].astype(float)
    sds = cols.std(axis=0)
    centered = cols - cols.mean(axis=0)
    kept: list[int] = []
    kept_pos: list[int] = []
    for j, variant in enumerate(order):
        ok = True
        for kj, kept_variant in zip(kept_pos, kept):
            if abs(int(variant) - int(kept_variant)) > window:
                continue
            if sds[j] == 0 or sds[kj] == 0:
                continue
            r = float(centered[:, j] @ centered[:, kj]) / (
                cols.shape[0] * sds[j] * sds[kj]
            )
            if abs(r) > r_threshold:
                ok = False
                break
        if ok:
            kept.append(int(variant))
            kept_pos.append(j)
    return np.array(sorted(kept), dtype=int)


def _fit_platt(scores: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Platt's sigmoid fit with the classic smoothed targets."""
    n_pos = float(labels.sum())
    n_neg = float(labels.size - n_pos)
    hi = (n_pos + 1.0) / (n_pos + 2.0)
    lo = 1.0 / (n_neg + 2.0)
    targets = np.where(labels > 0, hi, lo)

    def nll_and_grad(params):
        w, b = params
        logit = w * scores + b
        prob = 1.0 / (1.0 + np.exp(-logit))
        eps = 1e-12
        nll = -np.sum(
            targets * np.log(prob + eps) + (1 - targets) * np.log(1 - prob + eps)
        )
        resid = prob - targets
        return nll, np.array([np.sum(resid * scores), np.sum(resid)])

    start = np.array([1.0, np.log((n_pos + 1.0) / (n_neg + 1.0))])
    res = minimize(nll_and_grad, start, jac=True, method="L-BFGS-B")
    return float(res.x[0]), float(res.x[1])


def _empty_model(prevalence: float) -> RiskModel:
    return RiskModel(
        variant_idx=np.array([], dtype=int),
        log_odds=np.array([]),
        slope=0.0,
        intercept=0.0,
        prevalence=prevalence,
    )


def train_risk_model(world: GenomicWorld, sample: CaseControlSample) -> RiskModel:
    """GWAS screen + clumping + log-OR score + calibrated probabilities.

    The sigmoid is fit on a calibration split of the sample that the
    association screen never saw (scores on the screening data are
    optimistically separated, which would inflate calibrated risks).
    The Platt intercept is then shifted by the log-odds difference
    between the population prevalence and the split's case fraction, so
    thresholding the calibrated probability against the prevalence is
    meaningful even though training data are half cases.
    """
    cfg = world.config
    n_pairs = sample.num_pairs
    if sample.case_idx.size < 1 or sample.control_idx.size < 1:
        raise DomainError("training sample needs at least one case and one control")

    geno_all = world.genotypes[sample.group]
    n_cal = int(round(cfg.calibration_fraction * n_pairs))
    n_fit = n_pairs - n_cal
    if n_fit < 1 or n_cal < 1:
        n_fit, n_cal = n_pairs, n_pairs  # too few pairs to split; reuse all

    fit_rows = np.concatenate([sample.case_idx[:n_fit], sample.control_idx[:n_fit]])
    geno_fit = geno_all[fit_rows]
    selected, pvals, log_or = _chi2_screen(
        geno_fit, n_fit, cfg.maf_floor, cfg.pvalue_threshold
    )
    candidates = np.flatnonzero(selected)
    if candidates.size == 0:
        return _empty_model(cfg.prevalence)
    retained = _clump(geno_fit, candidates, pvals, cfg.clump_window, cfg.r2_threshold)

    cal_cases = sample.case_idx[n_pairs - n_cal:]
    cal_controls = sample.control_idx[n_pairs - n_cal:]
    cal_rows = np.concatenate([cal_cases, cal_controls])
    cal_scores = _selected_scores(geno_all, cal_rows, retained, log_or[retained])
    labels = np.zeros(cal_rows.size)
    labels[: cal_cases.size] = 1.0
    slope, intercept = _fit_platt(cal_scores, labels)

    q = cfg.prevalence
    q_sample = cal_cases.size / cal_rows.size
    intercept += np.log(q / (1.0 - q)) - np.log(q_sample / (1.0 - q_sample))

    return RiskModel(
        variant_idx=retained,
        log_odds=log_or[retained],
        slope=slope,
        intercept=intercept,
        prevalence=q,
    )


def holdout_indices(world: GenomicWorld, group: int) -> np.ndarray:
    split = world.splits[group]
    return np.concatenate([split.test_cases, split.test_controls])


def treatment_value(world: GenomicWorld, group: int, probs: np.ndarray) -> float:
    """Per-capita value of treating holdout members whose risk exceeds q."""
    split = world.splits[group]
    idx = holdout_indices(world, group)
    if idx.size == 0:
        raise DomainError("empty holdout split")
    y = np.zeros(idx.size)
    y[: split.test_cases.size] = 1.0
    treat = probs > world.config.prevalence
    payoff = y * world.config.benefit - world.config.cost
    return float(np.mean(treat * payoff))


def evaluate_group_value(world: GenomicWorld, model: RiskModel, group: int) -> float:
    """Value of the model's treat-if-risky rule on the group's holdout set."""
    probs = model.predict_proba(world.genotypes[group], holdout_indices(world, group))
    return treatment_value(world, group, probs)


def run_allocation_curve(world: GenomicWorld, allocation_grid, seeds, session_of=None):
    """Empirical learning curves: per-group value at each training size.

    Each seed's values come from one :class:`GenomicSamplingSession`: its
    training pools are shuffled once and samples grow by prefix, so a
    seed's curve reflects one data-collection run rather than independent
    redraws.  ``session_of`` maps a seed to the session to read, so a
    caller that already holds sessions on ``world`` can reuse their
    trained models; by default each seed gets a new session.  Returns
    per-observation rows ``(group, n, seed, value)``; see
    :func:`aggregate_curve` for the (group, n, mean, sd) view.
    """
    grid = [int(n) for n in allocation_grid]
    if any(n < 0 for n in grid):
        raise DomainError("allocation grid entries must be non-negative")
    for g in range(world.num_groups):
        if max(grid, default=0) > world.splits[g].max_pairs:
            raise DomainError(
                f"grid point {max(grid)} exceeds group {g}'s available "
                f"{world.splits[g].max_pairs} training pairs"
            )
    if session_of is None:
        session_of = functools.partial(GenomicSamplingSession, world)
    rows = []
    for seed in seeds:
        session = session_of(seed)
        for g in range(world.num_groups):
            for n in grid:
                rows.append((g, n, int(seed), session.value_at(g, n)))
    return rows


def aggregate_curve(rows):
    """Collapse learning-curve rows to (group, n, mean value, sd)."""
    from collections import defaultdict

    buckets = defaultdict(list)
    for g, n, _seed, value in rows:
        buckets[(g, n)].append(value)
    out = []
    for (g, n) in sorted(buckets):
        vals = np.array(buckets[(g, n)])
        out.append((g, n, float(vals.mean()), float(vals.std(ddof=1)) if vals.size > 1 else 0.0))
    return out


class GenomicSamplingSession:
    """Adapter exposing a genomic world as a sequential sampling environment.

    ``observe`` interprets allocation counts as case-control pair counts
    per group, trains one risk model per group on a prefix of the
    session's shuffled training pools, and reports holdout values.
    Results are cached per (group, n): within a session, re-measuring an
    unchanged allocation is free and returns the identical value.

    Two sessions on one world with one seed shuffle identical pools, so
    they hold identical values.  The harness therefore builds one session
    per (world, seed) and shares it across a run's frontier sweep, markers
    and weight settings; a learning curve uses one session per seed across
    its grid.
    """

    curve = None  # no analytic ground truth for this environment

    def __init__(self, world: GenomicWorld, rng_seed: int = 0):
        self.world = world
        rng = np.random.default_rng(rng_seed)
        self._pools = []
        for g in range(world.num_groups):
            split = world.splits[g]
            self._pools.append(
                (rng.permutation(split.train_cases), rng.permutation(split.train_controls))
            )
        self._cache: dict[tuple[int, int], float] = {}

    @property
    def num_groups(self) -> int:
        return self.world.num_groups

    def value_at(self, group: int, n_pairs: int) -> float:
        key = (group, n_pairs)
        if key not in self._cache:
            pool_cases, pool_controls = self._pools[group]
            if n_pairs > pool_cases.size:
                raise DomainError(
                    f"group {group} has only {pool_cases.size} training pairs, "
                    f"requested {n_pairs}"
                )
            if n_pairs == 0:
                model = _empty_model(self.world.config.prevalence)
            else:
                sample = CaseControlSample(
                    group=group,
                    case_idx=pool_cases[:n_pairs],
                    control_idx=pool_controls[:n_pairs],
                )
                model = train_risk_model(self.world, sample)
            self._cache[key] = evaluate_group_value(self.world, model, group)
        return self._cache[key]

    def observe(self, alloc: Allocation) -> PerformanceVector:
        """Holdout values at ``alloc``, whose counts must be whole pairs."""
        if not np.all(alloc.counts == np.floor(alloc.counts)):
            raise DomainError(
                f"pair counts must be whole numbers, got {alloc.counts.tolist()}"
            )
        counts = alloc.counts.astype(int)
        values = [self.value_at(g, int(counts[g])) for g in range(self.num_groups)]
        return PerformanceVector(np.array(values))
