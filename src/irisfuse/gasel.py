"""Block-statistics features, four feature rankers, and GA subset selection.

The raw feature vector holds the mean intensity of each 8x8 block of the
polar image (56 x 12 blocks = 672 features, masked pixels excluded).  Four
rankers (information gain, Welch t-statistic, single-feature 1-NN accuracy,
and recursive elimination over a ridge discriminant) nominate their top
features into a pool; a genetic algorithm then searches bitmasks over the
pool, scoring each subset by a weighted cost of recognition rate, FAR, FRR,
and subset size measured with a leave-one-out verification trial at the
EER operating point.  Everything is deterministic given the configured seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .normalization import POLAR_HEIGHT, POLAR_WIDTH, PolarIris

BLOCK = 8
BLOCK_COLS = POLAR_WIDTH // BLOCK   # 56
BLOCK_ROWS = POLAR_HEIGHT // BLOCK  # 12
FEATURE_COUNT = BLOCK_COLS * BLOCK_ROWS  # 672

RANKER_NAMES = ("entropy", "tstat", "knn", "rfe")

_ENTROPY_BINS = 10
_RIDGE_LAMBDA = 1.0


@dataclass(frozen=True)
class RawFeatureVector:
    """672 block means plus a per-block validity flag."""

    values: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        valid = np.asarray(self.valid, dtype=bool)
        if vals.shape != (FEATURE_COUNT,) or valid.shape != (FEATURE_COUNT,):
            raise ValueError(f"feature vector must have length {FEATURE_COUNT}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("feature values must be finite")
        vals = vals.copy()
        valid = valid.copy()
        vals.setflags(write=False)
        valid.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "valid", valid)


@dataclass(frozen=True)
class FeaturePool:
    """Deduplicated, ascending feature indices with ranker provenance."""

    indices: tuple[int, ...]
    provenance: dict[int, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if len(set(idx)) != len(idx):
            raise ValueError("pool indices must be unique")
        if idx and (min(idx) < 0 or max(idx) >= FEATURE_COUNT):
            raise ValueError(f"pool indices must lie in [0, {FEATURE_COUNT})")
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class Chromosome:
    """Selection bitmask over the feature pool (1 = feature in the subset)."""

    genes: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.genes, dtype=np.uint8)
        if g.ndim != 1 or not np.all((g == 0) | (g == 1)):
            raise ValueError("genes must be a flat 0/1 array")
        g = g.copy()
        g.setflags(write=False)
        object.__setattr__(self, "genes", g)

    def selected(self, pool: FeaturePool) -> np.ndarray:
        if len(self.genes) != len(pool):
            raise ValueError("chromosome length does not match pool size")
        return np.asarray(pool.indices, dtype=np.intp)[self.genes.astype(bool)]


@dataclass(frozen=True)
class GaConfig:
    population_size: int = 40
    weights: tuple[float, float, float, float] = (1.0, 0.5, 0.5, 0.05)
    p_n: float = 0.3           # per-offspring mutation probability
    n_flip: int = 2            # distinct bits flipped per mutation
    max_generations: int = 200
    fitness_goal: float = -1.0       # cost target; negative disables
    stall_generations: int = 0       # 0 disables the stall criterion
    max_evaluations: int = 0         # fitness-evaluation budget; 0 disables
    rng_seed: int = 0

    def __post_init__(self):
        if self.population_size < 2:
            raise ValueError("population size must be >= 2")
        w = tuple(float(x) for x in self.weights)
        if len(w) != 4 or any(not np.isfinite(x) or x < 0 for x in w):
            raise ValueError("weights must be 4 finite nonnegative reals")
        if not 0.0 <= self.p_n <= 1.0:
            raise ValueError("mutation probability must lie in [0, 1]")
        if self.n_flip < 1:
            raise ValueError("n_flip must be >= 1")
        if self.max_generations < 0 or self.stall_generations < 0 or self.max_evaluations < 0:
            raise ValueError("generation/stall/evaluation limits must be nonnegative")
        object.__setattr__(self, "weights", w)


def default_selection() -> tuple[FeaturePool, Chromosome]:
    """All 672 block features selected; used until a GA run narrows them."""
    pool = FeaturePool(tuple(range(FEATURE_COUNT)))
    return pool, Chromosome(np.ones(FEATURE_COUNT, dtype=np.uint8))


def extract_raw(polar: PolarIris) -> RawFeatureVector:
    """Mean intensity of each 8x8 block, ignoring masked pixels.

    A fully masked block contributes 0 with its validity flag cleared.
    Block index = block_row * 56 + block_col (row-major).
    """
    vals = polar.intensities.astype(np.float64)
    good = polar.valid.astype(np.float64)
    sums = (vals * good).reshape(BLOCK_ROWS, BLOCK, BLOCK_COLS, BLOCK).sum(axis=(1, 3))
    counts = good.reshape(BLOCK_ROWS, BLOCK, BLOCK_COLS, BLOCK).sum(axis=(1, 3))
    with np.errstate(invalid="ignore"):
        means = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
    return RawFeatureVector(means.ravel(), (counts > 0).ravel())


def _check_labels(y, min_per_class: int):
    y = np.asarray(y)
    classes, counts = np.unique(y, return_counts=True)
    if len(classes) < 2:
        raise ValueError("need at least 2 classes")
    if counts.min() < min_per_class:
        raise ValueError(f"every class needs at least {min_per_class} samples")
    return y, classes


def _ranking_from_scores(scores: np.ndarray) -> np.ndarray:
    """Descending by score, ties broken by ascending feature index."""
    return np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")


def rank_entropy(X, y) -> np.ndarray:
    """Features ordered by information gain of a 10-bin discretization."""
    X = np.asarray(X, dtype=np.float64)
    y, classes = _check_labels(y, 2)
    n = len(y)
    class_ids = np.searchsorted(classes, y)
    prior = np.bincount(class_ids, minlength=len(classes)) / n
    h_y = -np.sum(prior * np.log2(prior, where=prior > 0, out=np.zeros_like(prior)))

    gains = np.zeros(X.shape[1])
    for f in range(X.shape[1]):
        col = X[:, f]
        lo, hi = col.min(), col.max()
        if hi <= lo:
            continue  # constant feature: a single bin, zero gain
        bins = np.minimum(((col - lo) / (hi - lo) * _ENTROPY_BINS).astype(int), _ENTROPY_BINS - 1)
        cond = 0.0
        for b in np.unique(bins):
            sel = bins == b
            p_b = sel.mean()
            sub = np.bincount(class_ids[sel], minlength=len(classes)) / sel.sum()
            cond += p_b * -np.sum(sub * np.log2(sub, where=sub > 0, out=np.zeros_like(sub)))
        gains[f] = h_y - cond
    return _ranking_from_scores(gains)


def _welch_t(Xa: np.ndarray, Xb: np.ndarray) -> np.ndarray:
    ma, mb = Xa.mean(axis=0), Xb.mean(axis=0)
    va = Xa.var(axis=0, ddof=1) / len(Xa)
    vb = Xb.var(axis=0, ddof=1) / len(Xb)
    denom = np.sqrt(va + vb)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.abs(ma - mb) / denom
    return np.where(denom > 0, t, np.where(np.abs(ma - mb) > 0, np.inf, 0.0))


def rank_tstat(X, y) -> np.ndarray:
    """Features ordered by |Welch t|; one-vs-rest max for multi-class labels."""
    X = np.asarray(X, dtype=np.float64)
    y, classes = _check_labels(y, 2)
    if len(classes) == 2:
        scores = _welch_t(X[y == classes[0]], X[y == classes[1]])
    else:
        scores = np.zeros(X.shape[1])
        for c in classes:
            sel = y == c
            if sel.sum() < 2 or (~sel).sum() < 2:
                raise ValueError("one-vs-rest split leaves a side with < 2 samples")
            scores = np.maximum(scores, _welch_t(X[sel], X[~sel]))
    return _ranking_from_scores(scores)


def rank_knn(X, y) -> np.ndarray:
    """Features ordered by leave-one-out 1-NN accuracy using each feature alone."""
    X = np.asarray(X, dtype=np.float64)
    y, _ = _check_labels(y, 2)
    n = len(y)
    scores = np.zeros(X.shape[1])
    for f in range(X.shape[1]):
        d = np.abs(X[:, f][:, None] - X[:, f][None, :])
        np.fill_diagonal(d, np.inf)
        nn = np.argmin(d, axis=1)  # first occurrence: deterministic tie-break
        scores[f] = float(np.mean(y[nn] == y))
    return _ranking_from_scores(scores)


def rank_rfe(X, y) -> np.ndarray:
    """Recursive feature elimination over a ridge-regularized discriminant.

    Features are standardized once, the discriminant is retrained after each
    elimination of the smallest-|weight| feature, and the ranking is the
    reverse elimination order.
    """
    X = np.asarray(X, dtype=np.float64)
    y, classes = _check_labels(y, 1)
    if len(y) < 2:
        raise ValueError("need at least 2 samples")

    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    Z = (X - mu) / np.where(sd > 0, sd, 1.0)

    # one +/-1 target column per class; a binary problem needs only the first
    targets = classes[:1] if len(classes) == 2 else classes
    T = np.where(y[:, None] == targets[None, :], 1.0, -1.0)

    def weights(cols: np.ndarray) -> np.ndarray:
        Zc = Z[:, cols]
        gram = Zc @ Zc.T + _RIDGE_LAMBDA * np.eye(len(Zc))
        return np.abs(Zc.T @ np.linalg.solve(gram, T)).max(axis=1)

    active = list(range(X.shape[1]))
    eliminated: list[int] = []
    while len(active) > 1:
        w = weights(np.asarray(active, dtype=np.intp))
        worst = np.flatnonzero(np.abs(w) == np.abs(w).min())
        drop_pos = int(worst.max())  # ties: drop the largest index first
        eliminated.append(active.pop(drop_pos))
    order = [active[0]] + eliminated[::-1]
    return np.asarray(order, dtype=np.intp)


def build_pool(rankings, top_k: int) -> FeaturePool:
    """Union of each ranking's top_k features, with ranker provenance."""
    rankings = list(rankings)
    if len(rankings) != len(RANKER_NAMES):
        raise ValueError(f"expected {len(RANKER_NAMES)} rankings, got {len(rankings)}")
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    provenance: dict[int, list[str]] = {}
    for name, ranking in zip(RANKER_NAMES, rankings):
        ranking = np.asarray(ranking)
        if top_k > len(ranking):
            raise ValueError(f"top_k {top_k} exceeds ranking length {len(ranking)}")
        for idx in ranking[:top_k]:
            provenance.setdefault(int(idx), []).append(name)
    indices = tuple(sorted(provenance))
    return FeaturePool(indices, {i: tuple(provenance[i]) for i in indices})


def fitness_cost(rr: float, far: float, frr: float, subset_size: int,
                 total_features: int, weights) -> float:
    """Weighted selection cost: lower is better.

    cost = W1*(1-RR) + W2*FAR + W3*FRR + W4*(subset_size/total_features).
    """
    for name, v in (("RR", rr), ("FAR", far), ("FRR", frr)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {v}")
    if subset_size > total_features:
        raise ValueError("subset size cannot exceed the total feature count")
    w1, w2, w3, w4 = weights
    return float(w1 * (1.0 - rr) + w2 * far + w3 * frr
                 + w4 * (subset_size / total_features if total_features else 0.0))


def roulette_select(fitness, rng) -> int:
    """Sample an index with probability fitness_i / sum(fitness).

    All-zero fitness falls back to a uniform draw.
    """
    f = np.asarray(fitness, dtype=np.float64)
    if f.ndim != 1 or len(f) == 0:
        raise ValueError("fitness must be a nonempty 1-D sequence")
    if np.any(f < 0):
        raise ValueError("fitness values must be nonnegative")
    total = f.sum()
    if total == 0.0:
        return int(rng.integers(len(f)))
    return int(np.searchsorted(np.cumsum(f), rng.random() * total, side="right"))


def match_subset(a: RawFeatureVector, b: RawFeatureVector,
                 chromosome: Chromosome, pool: FeaturePool) -> float:
    """Normalized city-block distance over selected, jointly valid features."""
    sel = chromosome.selected(pool)
    if len(sel) == 0:
        raise ValueError("chromosome selects no features")
    joint = a.valid[sel] & b.valid[sel]
    if not joint.any():
        raise ValueError("no jointly valid features among the selected subset")
    use = sel[joint]
    return float(np.mean(np.abs(a.values[use] - b.values[use])) / 255.0)


@dataclass(frozen=True)
class GaResult:
    best: Chromosome
    history: tuple[float, ...]  # best-so-far cost after each evaluated generation
    evaluations: int


# Bound, in bytes, on each of the two stores that GA fitness scoring adds: the
# cached |dx| pair blocks, and the distances of one chromosome batch
_FITNESS_BYTES = 1 << 26
_CACHED_BLOCKS = 8


class _SubsetTrial:
    """Leave-one-out verification trial used as the GA's fitness oracle.

    Scores a generation at a time: the city-block distances of all its fresh
    chromosomes come from one matmul of their gene matrix with the pool
    features' |dx| over every sample pair (in pdist order).
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, pool: FeaturePool, weights):
        self.X = np.asarray(X, dtype=np.float64)[:, np.asarray(pool.indices, dtype=np.intp)]
        self.y = np.asarray(y)
        self.total = len(pool)
        self.weights = weights
        n = len(self.y)
        self._pairs = np.triu_indices(n, k=1)
        i, j = self._pairs
        self._upper, self._lower = i * n + j, j * n + i  # pair positions in an n x n matrix
        self._pair_same = (self.y[:, None] == self.y[None, :])[self._pairs]
        self._genuine = int(np.count_nonzero(self._pair_same))
        self._imposter = len(self._pair_same) - self._genuine
        # |dx| in pair blocks of 1/_CACHED_BLOCKS of the bound: that many stay
        # cached, and any further ones (large sample counts) are rebuilt per batch
        rows = max(1, _FITNESS_BYTES // (_CACHED_BLOCKS * 8 * self.total))
        self._blocks = [slice(s, s + rows) for s in range(0, len(i), rows)]
        self._cached = [self._deltas(block) for block in self._blocks[:_CACHED_BLOCKS]]
        self._batch = max(1, _FITNESS_BYTES // (8 * len(i)))
        self._cache: dict[bytes, float] = {}
        self.evaluations = 0

    def _deltas(self, block: slice) -> np.ndarray:
        """|dx| over the pool features of the sample pairs in ``block``."""
        i, j = self._pairs
        return np.abs(self.X[i[block]] - self.X[j[block]])

    def costs(self, pop: np.ndarray) -> np.ndarray:
        """Cost of each row of ``pop``; the uncached ones are scored together."""
        keys = [g.tobytes() for g in pop]
        fresh: dict[bytes, np.ndarray] = {}
        for key, genes in zip(keys, pop):
            if key not in self._cache:
                fresh.setdefault(key, genes)
        self.evaluations += len(fresh)
        fresh_keys, fresh_genes = list(fresh), np.array(list(fresh.values()))
        for start in range(0, len(fresh_keys), self._batch):
            stop = start + self._batch
            self._cache.update(zip(fresh_keys[start:stop], self._score(fresh_genes[start:stop])))
        return np.array([self._cache[k] for k in keys])

    def _score(self, genes: np.ndarray) -> list[float]:
        sizes = genes.sum(axis=1, dtype=np.intp)
        G = genes.astype(np.float64)
        dist = np.empty((len(genes), len(self._pair_same)))
        for b, block in enumerate(self._blocks):
            deltas = self._cached[b] if b < len(self._cached) else self._deltas(block)
            dist[:, block] = G @ deltas.T
        values = []
        for d, size in zip(dist, sizes):
            if size == 0:
                values.append(fitness_cost(0.0, 1.0, 1.0, 0, self.total, self.weights))
                continue
            d /= size * 255.0
            far, frr = self._rates_at_eer(1.0 - d)
            values.append(fitness_cost(self._recognition_rate(d), far, frr,
                                       int(size), self.total, self.weights))
        return values

    def _recognition_rate(self, dist: np.ndarray) -> float:
        n = len(self.y)
        square = np.full(n * n, np.inf)
        square[self._upper] = dist
        square[self._lower] = dist
        nearest = np.argmin(square.reshape(n, n), axis=1)
        return np.count_nonzero(self.y[nearest] == self.y) / n

    def _rates_at_eer(self, sims: np.ndarray) -> tuple[float, float]:
        """FAR and FRR at the first distinct threshold minimising |FAR - FRR|.

        The thresholds are the distinct similarities in sorted order.  Below
        the one first at sorted index k lie k pairs; the genuine ones among
        them are those whose similarity first occurs before k.
        """
        ranked = np.sort(sims)
        first = np.searchsorted(ranked, sims[self._pair_same])
        genuine_below = np.cumsum(np.bincount(first + 1, minlength=len(ranked))[:len(ranked)])
        far = 1.0 - (np.arange(len(ranked)) - genuine_below) / self._imposter
        frr = genuine_below / self._genuine
        gap = np.abs(far - frr)
        np.copyto(gap[1:], np.inf, where=ranked[1:] == ranked[:-1])
        i = int(np.argmin(gap))
        return float(far[i]), float(frr[i])


def ga_select(pool: FeaturePool, X, y, cfg: GaConfig) -> GaResult:
    """Evolve a feature-subset bitmask over the pool.

    Each generation: roulette selection over F = 1/(1 + cost), single-point
    crossover to refill the population, elitism of one (the best-ever
    chromosome survives unmutated), and per-offspring mutation flipping
    ``n_flip`` distinct bits.  Stops at the generation cap, on reaching the
    fitness goal, after ``stall_generations`` without improvement, or when
    the evaluation budget runs out.  Deterministic for a fixed rng_seed.
    """
    if len(pool) == 0:
        raise ValueError("feature pool is empty")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    _check_labels(y, 2)
    if X.shape[0] != len(y):
        raise ValueError("feature matrix and labels disagree on sample count")

    rng = np.random.default_rng(cfg.rng_seed)
    trial = _SubsetTrial(X, y, pool, cfg.weights)
    length = len(pool)
    pop = rng.integers(0, 2, size=(cfg.population_size, length), dtype=np.uint8)
    costs = trial.costs(pop)

    best_idx = int(np.argmin(costs))
    best_genes = pop[best_idx].copy()
    best_cost = float(costs[best_idx])
    history = [best_cost]
    since_improvement = 0

    for _ in range(cfg.max_generations):
        if cfg.fitness_goal >= 0 and best_cost <= cfg.fitness_goal:
            break
        if cfg.stall_generations and since_improvement >= cfg.stall_generations:
            break
        if cfg.max_evaluations and trial.evaluations >= cfg.max_evaluations:
            break

        fitness = 1.0 / (1.0 + costs)
        children = [best_genes.copy()]  # elitism: best-ever survives unmutated
        while len(children) < cfg.population_size:
            pa = pop[roulette_select(fitness, rng)]
            pb = pop[roulette_select(fitness, rng)]
            if length > 1:
                cut = int(rng.integers(1, length))
                c1 = np.concatenate([pa[:cut], pb[cut:]])
                c2 = np.concatenate([pb[:cut], pa[cut:]])
            else:
                c1, c2 = pa.copy(), pb.copy()
            for child in (c1, c2):
                if len(children) >= cfg.population_size:
                    break
                if rng.random() < cfg.p_n:
                    flips = rng.choice(length, size=min(cfg.n_flip, length), replace=False)
                    child[flips] ^= 1
                children.append(child)
        pop = np.asarray(children, dtype=np.uint8)
        costs = trial.costs(pop)

        gen_best = int(np.argmin(costs))
        if float(costs[gen_best]) < best_cost:
            best_cost = float(costs[gen_best])
            best_genes = pop[gen_best].copy()
            since_improvement = 0
        else:
            since_improvement += 1
        history.append(best_cost)

    return GaResult(Chromosome(best_genes), tuple(history), trial.evaluations)
