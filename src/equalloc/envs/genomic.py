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
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from ..errors import CapacityError, DomainError

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

# The most genotype cells (two groups of variants x population) a world may draw,
# as solvers.MAX_GRID_POINTS caps the grid: 6.25 default worlds.  Drawn cells are
# stored one bit each, and only the splits' columns are kept.
MAX_GENOTYPE_CELLS = 500_000_000
# Variant rows per block of the column reorder.
_BLOCK = 16
# Individuals per block of the liability score: a multiple of 8, so each block
# starts on a byte of the packed rows and its scores keep the whole product's bits.
_SCORE_BLOCK = 2048

@dataclass(frozen=True)
class GenomicWorldConfig:
    """Knobs for world synthesis and risk-model training.

    ``ld_rho`` sets the latent AR(1) correlation between adjacent
    variants, which is what gives the clumping step something to prune;
    set it to 0 for fully independent variants.
    ``case_train_fraction`` of each group's cases form the obtainable
    training pool; the rest are held out for evaluation together with
    enough controls to restore the population prevalence.  Clumping compares
    ``r2_threshold`` with ``|r|``, so 0.2 prunes neighbors at r² > 0.04.
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
        if 2 * self.variants * self.population > MAX_GENOTYPE_CELLS:
            raise CapacityError(f"world needs over {MAX_GENOTYPE_CELLS} genotype cells")
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
        if not (0.0 < self.pvalue_threshold < 1.0 and 0.0 <= self.maf_floor < 0.5):
            raise DomainError("need pvalue_threshold in (0, 1) and maf_floor in [0, 0.5)")
        if not (self.clump_window >= 0 and self.r2_threshold >= 0.0):
            raise DomainError("clump_window and r2_threshold must be non-negative")
        if not (self.benefit > 0.0 and self.cost >= 0.0):
            raise DomainError("need benefit > 0 and cost >= 0")
        if self.rng_seed < 0:
            raise DomainError(f"rng_seed must be non-negative, got {self.rng_seed}")

    @property
    def train_pairs(self) -> int:
        """Training cases, and as many controls, in each group's obtainable pool."""
        cases = math.floor(self.prevalence * self.population)
        return math.floor(self.case_train_fraction * cases)

    @property
    def holdout(self) -> slice:
        """Each group's holdout columns, after its ``2 * train_pairs`` training
        columns: the test cases, then enough test controls to restore the
        prevalence (or every control left).  It ends at the last kept column."""
        q, pairs = self.prevalence, self.train_pairs
        cases = math.floor(q * self.population)
        controls = min(int(round((cases - pairs) * (1.0 - q) / q)),
                       self.population - cases - pairs)
        return slice(2 * pairs, cases + pairs + controls)


@dataclass(frozen=True)
class GenomicWorld:
    """A fully realized two-population world.

    ``genotypes[g]`` is a variant-major ``(variants, ceil(n / 8))`` uint8
    matrix of 0/1 genotypes, each row bit-packed (``np.unpackbits(...,
    axis=1, count=n)`` restores it), holding only the ``n =
    config.holdout.stop`` individuals of the group's split; the others,
    all controls, are dropped.  ``disease[g]`` marks the top-prevalence
    fraction of the liability distribution.  The columns, and ``disease[g]``
    with them, are in split order: ``config.train_pairs`` training cases, as
    many training controls, then the ``config.holdout`` cases and controls.
    ``pools[g]`` is an unpacked, individual-major ``(2 * train_pairs,
    variants)`` copy of the training columns, so a training column is also
    its row in ``pools[g]``.
    """

    config: GenomicWorldConfig
    freqs: np.ndarray
    causal_idx: np.ndarray
    effect_sizes: np.ndarray
    genotypes: tuple
    disease: tuple
    pools: tuple

    @property
    def num_groups(self) -> int:
        return len(self.genotypes)


@dataclass(frozen=True)
class CaseControlSample:
    """A matched case-control training sample for one group, as genotype
    columns: cases in ``[0, train_pairs)``, controls in ``[train_pairs, 2 *
    train_pairs)`` of the group's split."""

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

    def predict_proba(self, rows: np.ndarray) -> np.ndarray:
        """Predicted probabilities of every individual (column) of ``rows``,
        the model's variant rows (``G[variant_idx]`` of a variant-major 0/1
        ``(variants, individuals)`` matrix ``G``), or of a column slice of them."""
        if self.is_empty:
            return np.full(rows.shape[1], self.prevalence)
        logit = self.slope * _selected_scores(rows, self.log_odds) + self.intercept
        return 1.0 / (1.0 + np.exp(-logit))


def _selected_scores(rows, weights) -> np.ndarray:
    """Weighted scores of every column of selected variant rows, a
    variant-major ``(selected variants, individuals)`` 0/1 matrix or view.

    The matrix-vector product sums in an order set by the layout.  The rows
    are copied C-ordered and used transposed, a Fortran-ordered
    ``(individuals, variants)`` matrix, so each score has the bits of the
    population-major ``G.T[:, variant_idx].astype(float) @ weights``.
    """
    return rows.astype(float, order="C").T @ weights


def _packed_scores(packed, weights, count: int) -> np.ndarray:
    """:func:`_selected_scores` of bit-packed variant rows unpacked to ``count``
    individuals, in blocks of ``_SCORE_BLOCK`` individuals.  The last block
    takes the remainder too, as a block of a few individuals rounds its
    scores another way, so no block's float matrix reaches ``2 * _SCORE_BLOCK``
    columns."""
    out = np.empty(count)
    starts = range(0, max(count - _SCORE_BLOCK, 0) + 1, _SCORE_BLOCK)
    for lo, hi in zip(starts, [*starts[1:], count]):
        rows = np.unpackbits(packed[:, lo // 8:-(-hi // 8)], axis=1, count=hi - lo)
        out[lo:hi] = _selected_scores(rows, weights)
    return out


def _sample_genotypes(rng, freqs: np.ndarray, population: int, ld_rho: float) -> np.ndarray:
    """Binary genotypes as a variant-major ``(variants, ceil(population / 8))``
    uint8 matrix, each row bit-packed by ``np.packbits`` (pad bits zero), with
    optional AR(1) latent correlation along the variant index; the in-place
    latent update rounds exactly like ``ld_rho * z + carry * e``."""
    v = freqs.size
    out = np.empty((v, -(-population // 8)), dtype=np.uint8)
    thresholds = list(map(NormalDist().inv_cdf, freqs.tolist()))
    carry = np.sqrt(1.0 - ld_rho**2)
    z = rng.standard_normal(population)
    e = np.empty(population)
    row = np.empty(population, dtype=bool)
    for i in range(v):
        if i > 0:
            rng.standard_normal(out=e)
            z *= ld_rho
            e *= carry
            z += e
        np.less(z, thresholds[i], out=row)
        out[i] = np.packbits(row)
    return out


def generate_world(config: GenomicWorldConfig) -> GenomicWorld:
    """Synthesize a two-population world per the configuration.

    Causal variants are the ones whose allele frequency most exceeds the
    first group's in the second group, which makes the resulting score
    more informative for the second (YRI-like) population.  Disease goes
    to the top-prevalence slice of a standardized genetic-plus-noise
    liability, so every world has exactly ``floor(q * P)`` cases per
    group.  Once a group's split is drawn, its columns are reordered into
    split order and cut to the split, ``_BLOCK`` unpacked variant rows at a time.
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
    pools = []
    n_cases = int(np.floor(q * p))
    n_train_cases, holdout = config.train_pairs, config.holdout
    for g in range(2):
        geno = _sample_genotypes(rng, freqs[g], p, config.ld_rho)
        x = _packed_scores(geno[causal_idx], effect_sizes, p)
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
        cols = np.concatenate([case_idx[:n_train_cases], control_idx[:n_train_cases],
                               case_idx[n_train_cases:], control_idx[n_train_cases:]])
        cols = cols[:holdout.stop]
        kept = np.empty((v, -(-cols.size // 8)), dtype=np.uint8)
        for lo in range(0, v, _BLOCK):
            rows = np.unpackbits(geno[lo:lo + _BLOCK], axis=1, count=p)
            kept[lo:lo + _BLOCK] = np.packbits(rows.take(cols, axis=1), axis=1)
        genotypes.append(kept)
        disease.append(sick[cols])
        pools.append(np.ascontiguousarray(np.unpackbits(kept, axis=1, count=2 * n_train_cases).T))

    return GenomicWorld(
        config=config,
        freqs=freqs,
        causal_idx=causal_idx,
        effect_sizes=effect_sizes,
        genotypes=tuple(genotypes),
        disease=tuple(disease),
        pools=tuple(pools),
    )


def draw_case_control_sample(
    world: GenomicWorld, group: int, n_pairs: int, rng_seed
) -> CaseControlSample:
    """Draw ``n_pairs`` matched case-control pairs from a group's train pools.
    ``rng_seed`` is a seed, or a generator that the two shuffles advance."""
    p = world.config.train_pairs
    if not 0 <= n_pairs <= p:
        raise DomainError(
            f"requested {n_pairs} pairs but group {group} has 0 to {p} available"
        )
    rng = np.random.default_rng(rng_seed)
    cases = rng.permutation(p)[:n_pairs]
    controls = p + rng.permutation(p)[:n_pairs]
    return CaseControlSample(group=group, case_idx=cases, control_idx=controls)


def _chi2_screen(geno: np.ndarray, n_cases: int, maf_floor: float, p_threshold: float):
    """Per-variant 2x2 chi-squared scan; returns (selected mask, pvals, log ORs).

    Only an eligible variant whose statistic is at least 0.999 times the
    threshold's (a margin far wider than the quantile's rounding) gets a
    p-value; every other p-value is NaN.  ``p_threshold`` lies in (0, 1).
    """
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
    # chi-squared on one degree of freedom is Z**2: its quantile is
    # inv_cdf(p / 2)**2 and its upper tail erfc(sqrt(stat / 2)); a p / 2
    # that rounds to 0 takes the smallest double, a lower, still safe bound
    half = max(p_threshold / 2, math.ulp(0.0))
    near = eligible & (stat >= 0.999 * NormalDist().inv_cdf(half) ** 2)
    pvals = np.full(stat.shape, np.nan)
    pvals[near] = [math.erfc(math.sqrt(x / 2)) for x in stat[near].tolist()]
    selected = near & (pvals < p_threshold)

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
    """Platt's sigmoid fit with the classic smoothed targets: Newton's method
    with Armijo backtracking on the exact Hessian (Lin, Lin & Weng 2007)."""
    n_pos, n_neg = float(labels.sum()), float(labels.size - labels.sum())
    targets = np.where(labels > 0, (n_pos + 1.0) / (n_pos + 2.0), 1.0 / (n_neg + 2.0))
    design = np.stack([scores, np.ones_like(scores)], axis=1)

    def loss(params):  # the smoothed-target cross-entropy, overflow-free
        return float(np.sum(np.logaddexp(0.0, design @ params) - targets * (design @ params)))

    # Start at slope 0: a unit slope on large scores would saturate the sigmoid.
    params = np.array([0.0, np.log((n_pos + 1.0) / (n_neg + 1.0))])
    current = loss(params)
    for _ in range(100):
        prob = np.exp(-np.logaddexp(0.0, -(design @ params)))
        grad = design.T @ (prob - targets)
        if np.max(np.abs(grad)) < 1e-5:
            break
        # The ridge keeps constant scores, whose slope is not identified, solvable.
        hess = (design.T * (prob * (1.0 - prob))) @ design + 1e-12 * np.eye(2)
        step, t = np.linalg.solve(hess, grad), 1.0
        while (trial := loss(params - t * step)) >= current - 1e-4 * t * (grad @ step):
            if (t := t / 2) < 1e-10:
                return float(params[0]), float(params[1])  # no step lowers the loss
        params, current = params - t * step, trial
    return float(params[0]), float(params[1])


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
    pool = world.pools[sample.group]
    cases, controls, p = sample.case_idx, sample.control_idx, cfg.train_pairs
    if not (cases.size and controls.size and 0 <= cases.min() and cases.max() < p
            and p <= controls.min() and controls.max() < 2 * p):
        raise DomainError("training sample needs cases and controls, all from the train pools")
    n_cal = int(round(cfg.calibration_fraction * n_pairs))
    n_fit = n_pairs - n_cal
    if n_fit < 1 or n_cal < 1:
        n_fit, n_cal = n_pairs, n_pairs  # too few pairs to split; reuse all

    fit_rows = np.concatenate([cases[:n_fit], controls[:n_fit]])
    geno_fit = pool[fit_rows]
    selected, pvals, log_or = _chi2_screen(
        geno_fit, n_fit, cfg.maf_floor, cfg.pvalue_threshold
    )
    candidates = np.flatnonzero(selected)
    if candidates.size == 0:
        return _empty_model(cfg.prevalence)
    retained = _clump(geno_fit, candidates, pvals, cfg.clump_window, cfg.r2_threshold)

    cal_cases = cases[n_pairs - n_cal:]
    cal_controls = controls[n_pairs - n_cal:]
    cal_rows = np.concatenate([cal_cases, cal_controls])
    cal_scores = _selected_scores(pool[cal_rows][:, retained].T, log_or[retained])
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


def treatment_value(world: GenomicWorld, group: int, probs: np.ndarray) -> float:
    """Per-capita value of treating holdout members whose risk exceeds q."""
    y = world.disease[group][world.config.holdout]
    if y.size == 0:
        raise DomainError("empty holdout split")
    treat = probs > world.config.prevalence
    payoff = y * world.config.benefit - world.config.cost
    return float(np.mean(treat * payoff))


def evaluate_group_value(world: GenomicWorld, model: RiskModel, group: int) -> float:
    """Value of the model's treat-if-risky rule on the group's holdout set."""
    holdout = world.config.holdout
    rows = np.unpackbits(world.genotypes[group][model.variant_idx], axis=1, count=holdout.stop)
    return treatment_value(world, group, model.predict_proba(rows[:, holdout]))


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

    ``perf_values(counts)`` reads the counts as case-control pair counts
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

    def __init__(self, world: GenomicWorld, rng_seed: int = 0):
        self.world = world
        rng = np.random.default_rng(rng_seed)
        self._pools = [draw_case_control_sample(world, g, world.config.train_pairs, rng)
                       for g in range(world.num_groups)]
        self._cache: dict[tuple[int, int], float] = {}

    @property
    def num_groups(self) -> int:
        return self.world.num_groups

    def value_at(self, group: int, n_pairs: int) -> float:
        key = (group, n_pairs)
        if key not in self._cache:
            pool = self._pools[group]
            if not 0 <= n_pairs <= pool.num_pairs:
                raise DomainError(
                    f"group {group} has only {pool.num_pairs} training pairs, "
                    f"requested {n_pairs}"
                )
            if n_pairs == 0:
                model = _empty_model(self.world.config.prevalence)
            else:
                sample = CaseControlSample(group, pool.case_idx[:n_pairs],
                                           pool.control_idx[:n_pairs])
                model = train_risk_model(self.world, sample)
            self._cache[key] = evaluate_group_value(self.world, model, group)
        return self._cache[key]

    def perf_values(self, counts: np.ndarray) -> np.ndarray:
        """Holdout values at ``counts``, which must be whole numbers of pairs."""
        if counts.shape != (self.num_groups,) or not (counts == np.floor(counts)).all():
            raise DomainError(f"need {self.num_groups} whole pair counts, got {counts.tolist()}")
        return np.array([self.value_at(g, int(counts[g])) for g in range(self.num_groups)])
