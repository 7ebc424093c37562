"""Block-statistics features, four feature rankers, and GA subset selection.

The (N, 672) ``values`` and ``valid`` columns of a feature table hold the
mean of each 8x8 polar block (56 x 12 blocks, masked pixels excluded) and
whether it has any unmasked pixel; every function here reads them.  Four
rankers (information gain, Welch t-statistic, single-feature 1-NN accuracy,
and recursive elimination over a ridge discriminant) nominate their top
features into a pool.  The elimination forms the inverse ridge gram and the
weights of every feature once and updates both by rank one as each feature
drops; the update divides by d = 1 - z^T M z, which stays in
[1 / (1 + n / lambda), 1] (see ``rank_rfe``).  The rankers and the GA share
one problem check: X is 2-D and finite, with one row per label.  A genetic
algorithm then searches bitmasks over the pool, scoring each subset by a
weighted cost of recognition rate, FAR, FRR, and subset size measured with
a leave-one-out verification trial at the EER operating point.  FAR - FRR
strictly decreases over the distinct similarity thresholds, so after one
sort the EER point is found by searching the genuine similarities alone
(see ``_SubsetTrial``).  Everything is deterministic given the configured
seed.  ``match_subset`` is the two-row case of ``match_pairs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import blas

from .imaging import freeze
from .normalization import POLAR_HEIGHT, POLAR_WIDTH, comparable

BLOCK = 8
BLOCK_COLS = POLAR_WIDTH // BLOCK   # 56
BLOCK_ROWS = POLAR_HEIGHT // BLOCK  # 12
FEATURE_COUNT = BLOCK_COLS * BLOCK_ROWS  # 672

RANKER_NAMES = ("entropy", "tstat", "knn", "rfe")
INCOMPARABLE = "no jointly valid features among the selected subset"

_ENTROPY_BINS = 10
_RIDGE_LAMBDA = 1.0


@dataclass(frozen=True)
class FeaturePool:
    """Deduplicated, ascending feature indices."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if len(set(idx)) != len(idx):
            raise ValueError("pool indices must be unique")
        if idx and (min(idx) < 0 or max(idx) >= FEATURE_COUNT):
            raise ValueError(f"pool indices must lie in [0, {FEATURE_COUNT})")
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return len(self.indices)

    @cached_property
    def index_array(self) -> np.ndarray:
        """``indices`` as a read-only intp array, built once per pool."""
        idx = np.asarray(self.indices, dtype=np.intp)
        idx.setflags(write=False)
        return idx


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
        return pool.index_array[self.genes.astype(bool)]


@dataclass(frozen=True)
class GaConfig:
    population_size: int = 40
    weights: tuple[float, float, float, float] = (1.0, 0.5, 0.5, 0.05)
    p_n: float = 0.3           # per-offspring mutation probability
    n_flip: int = 2            # distinct bits flipped per mutation
    max_generations: int = 200
    stall_generations: int = 30      # 0 disables the stall criterion
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
        if self.max_generations < 0 or self.stall_generations < 0:
            raise ValueError("generation and stall limits must be nonnegative")
        object.__setattr__(self, "weights", w)


def default_selection() -> tuple[FeaturePool, Chromosome]:
    """All 672 block features selected; used until a GA run narrows them."""
    pool = FeaturePool(tuple(range(FEATURE_COUNT)))
    return pool, Chromosome(np.ones(FEATURE_COUNT, dtype=np.uint8))


def extract_raw(intensities: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean intensity of each 8x8 block of the polar image, ignoring masked
    pixels, and each block's validity: read-only (672,) float64 and bool.

    A fully masked block contributes 0 with its validity flag cleared.
    Block index = block_row * 56 + block_col (row-major).
    """
    vals = intensities.astype(np.float64)
    good = (mask == 0).astype(np.float64)
    sums = (vals * good).reshape(BLOCK_ROWS, BLOCK, BLOCK_COLS, BLOCK).sum(axis=(1, 3))
    counts = good.reshape(BLOCK_ROWS, BLOCK, BLOCK_COLS, BLOCK).sum(axis=(1, 3))
    with np.errstate(invalid="ignore"):
        means = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
    return freeze(means.ravel()), freeze((counts > 0).ravel())


def _check_labels(y, min_per_class: int):
    y = np.asarray(y)
    classes, counts = np.unique(y, return_counts=True)
    if len(classes) < 2:
        raise ValueError("need at least 2 classes")
    if counts.min() < min_per_class:
        raise ValueError(f"every class needs at least {min_per_class} samples")
    return y, classes


def _check_problem(X, y, min_per_class: int):
    """Validated (X as float64, y, classes) of a feature-selection problem.

    X must be a 2-D matrix of finite values with one row per label.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"feature matrix must be 2-D, got {X.ndim}-D")
    if not np.all(np.isfinite(X)):
        raise ValueError("feature matrix holds non-finite values")
    if np.shape(y) != X.shape[:1]:
        raise ValueError(f"feature matrix has {X.shape[0]} rows but labels have shape "
                         f"{np.shape(y)}")
    y, classes = _check_labels(y, min_per_class)
    return X, y, classes


def _ranking_from_scores(scores: np.ndarray) -> np.ndarray:
    """Descending by score, ties broken by ascending feature index."""
    return np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")


def rank_entropy(X, y) -> np.ndarray:
    """Features ordered by information gain of a 10-bin discretization."""
    return _ranking_from_scores(_information_gains(X, y))


def _information_gains(X, y) -> np.ndarray:
    """Information gain of each column of X, binned into 10 equal-width bins.

    One ``bincount`` counts the samples of every (feature, bin, class).  The
    conditional entropy is then summed bin by bin in ascending order; an
    empty bin adds exactly zero, so each gain is, to the bit, the sum over
    the occupied bins alone.  A constant feature has one bin and zero gain.
    """
    X, y, classes = _check_problem(X, y, 2)
    n, features = X.shape
    class_ids = np.searchsorted(classes, y)
    prior = np.bincount(class_ids, minlength=len(classes)) / n
    h_y = -np.sum(prior * np.log2(prior, where=prior > 0, out=np.zeros_like(prior)))

    lo, hi = X.min(axis=0), X.max(axis=0)
    varies = hi > lo
    bins = np.minimum(((X - lo) / np.where(varies, hi - lo, 1.0) * _ENTROPY_BINS).astype(int),
                      _ENTROPY_BINS - 1)
    cells = (np.arange(features) * _ENTROPY_BINS + bins) * len(classes) + class_ids[:, None]
    counts = np.bincount(cells.ravel(), minlength=features * _ENTROPY_BINS * len(classes))
    counts = counts.reshape(features, _ENTROPY_BINS, len(classes))
    in_bin = counts.sum(axis=2)
    sub = counts / np.maximum(in_bin, 1)[:, :, None]
    entropy = -np.sum(sub * np.log2(sub, where=sub > 0, out=np.zeros_like(sub)), axis=2)
    p_bin = in_bin / n
    cond = np.zeros(features)
    for b in range(_ENTROPY_BINS):
        cond += p_bin[:, b] * entropy[:, b]
    return np.where(varies, h_y - cond, 0.0)


def _welch_t(Xa: np.ndarray, Xb: np.ndarray) -> np.ndarray:
    ma, mb = Xa.mean(axis=0), Xb.mean(axis=0)
    va = Xa.var(axis=0, ddof=1) / len(Xa)
    vb = Xb.var(axis=0, ddof=1) / len(Xb)
    denom = np.sqrt(va + vb)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.abs(ma - mb) / denom
    return np.where(denom > 0, t, np.where(np.abs(ma - mb) > 0, np.inf, 0.0))


def rank_tstat(X, y) -> np.ndarray:
    """Features ordered by their largest one-vs-rest |Welch t| over the classes."""
    X, y, classes = _check_problem(X, y, 2)
    scores = np.zeros(X.shape[1])
    for c in classes:
        sel = y == c
        scores = np.maximum(scores, _welch_t(X[sel], X[~sel]))
    return _ranking_from_scores(scores)


def rank_knn(X, y) -> np.ndarray:
    """Features ordered by leave-one-out 1-NN accuracy using each feature alone."""
    X, y, _ = _check_problem(X, y, 2)
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
    reverse elimination order.  The inverse ridge gram M = (Z Z^T + lambda I)^-1
    and the weights W = Z^T M T of every feature are formed once.  Dropping
    feature f downdates the gram by z_f z_f^T, so both follow by rank one
    (Sherman-Morrison): with u = M z_f and d = 1 - z_f^T u, M gains u u^T / d
    and W gains (Z^T u)(u^T T) / d.  The downdated gram stays >= lambda I, so
    d = 1 / (1 + z_f^T gram'^-1 z_f) lies in [1 / (1 + n / lambda), 1] for a
    standardized column: no step divides by a small number.  A column and
    its exact copy keep bit-equal weights, so such a tie drops the larger
    index first.
    """
    X, y, classes = _check_problem(X, y, 1)
    if len(y) < 2:
        raise ValueError("need at least 2 samples")

    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    Z = (X - mu) / np.where(sd > 0, sd, 1.0)

    # one +/-1 target column per class; a binary problem needs only the first
    targets = classes[:1] if len(classes) == 2 else classes
    T = np.where(y[:, None] == targets[None, :], 1.0, -1.0)

    # Fortran order, so BLAS ger updates both in place: an np.outer per step
    # allocates a temporary that costs several times the update itself
    M = np.asfortranarray(np.linalg.inv(Z @ Z.T + _RIDGE_LAMBDA * np.eye(len(Z))))
    W = np.asfortranarray(Z.T @ (M @ T))
    scores = np.abs(W).max(axis=1)
    dropped = np.zeros(len(scores))  # +inf once a feature is eliminated
    eliminated: list[int] = []
    for _ in range(len(scores) - 1):
        # the smallest live score; reversed, so ties drop the largest index first
        f = len(scores) - 1 - int(np.argmin(scores[::-1]))
        eliminated.append(f)
        dropped[f] = np.inf
        u = M @ Z[:, f]
        d = 1.0 - Z[:, f] @ u
        M = blas.dger(1.0 / d, u, u, a=M, overwrite_a=True)
        W = blas.dger(1.0 / d, Z.T @ u, u @ T, a=W, overwrite_a=True)
        np.abs(W).max(axis=1, out=scores)
        scores += dropped
    order = [int(np.argmin(scores))] + eliminated[::-1]
    return np.asarray(order, dtype=np.intp)


def build_pool(rankings, top_k: int) -> FeaturePool:
    """Sorted union of each ranking's top_k features."""
    rankings = list(rankings)
    if len(rankings) != len(RANKER_NAMES):
        raise ValueError(f"expected {len(RANKER_NAMES)} rankings, got {len(rankings)}")
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    union: set[int] = set()
    for ranking in rankings:
        if top_k > len(ranking):
            raise ValueError(f"top_k {top_k} exceeds ranking length {len(ranking)}")
        union.update(int(i) for i in ranking[:top_k])
    return FeaturePool(tuple(sorted(union)))


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
    return _spin(_wheel(fitness), rng)


def _wheel(fitness) -> tuple[np.ndarray, float]:
    """Cumulative and total fitness of a validated fitness vector."""
    f = np.asarray(fitness, dtype=np.float64)
    if f.ndim != 1 or len(f) == 0:
        raise ValueError("fitness must be a nonempty 1-D sequence")
    if np.any(f < 0):
        raise ValueError("fitness values must be nonnegative")
    return np.cumsum(f), f.sum()


def _spin(wheel: tuple[np.ndarray, float], rng) -> int:
    """One roulette draw from a ``_wheel``."""
    cum, total = wheel
    if total == 0.0:
        return int(rng.integers(len(cum)))
    return int(np.searchsorted(cum, rng.random() * total, side="right"))


def match_pairs(values: np.ndarray, valid: np.ndarray, first, second,
                chromosome: Chromosome, pool: FeaturePool) -> np.ndarray:
    """Normalized city-block distance of each pair of rows (first[k], second[k])
    of the (N, 672) ``values`` and ``valid``.

    It runs over the selected, jointly valid features; a pair with none gets
    NaN.  In place: only a few (pairs x selected) temporaries are alive at once.
    """
    sel = chromosome.selected(pool)
    if len(sel) == 0:
        raise ValueError("chromosome selects no features")
    values, valid = values[:, sel], valid[:, sel]
    joint = valid[first] & valid[second]
    dist = values[first]
    dist -= values[second]
    np.abs(dist, out=dist)
    dist *= joint
    with np.errstate(invalid="ignore"):  # 0 / 0: no jointly valid feature
        return dist.sum(axis=1) / joint.sum(axis=1) / 255.0


def match_subset(values: np.ndarray, valid: np.ndarray,
                 chromosome: Chromosome, pool: FeaturePool) -> float:
    """Normalized city-block distance between the two rows of ``values`` and
    ``valid`` over the selected, jointly valid features."""
    return float(comparable(match_pairs(values, valid, [0], [1], chromosome, pool), INCOMPARABLE)[0])


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
    features' |dx| over every sample pair (in pdist order).  A row of
    distances carries one trailing +inf, which a precomputed pair-index
    table reads into the diagonal of the chromosome's n x n distance matrix
    for the nearest-neighbour recognition rate.

    FAR and FRR are taken at the first distinct similarity threshold that
    minimises |FAR - FRR|.  Between consecutive distinct thresholds the
    imposters below grow, or the genuine pairs below do, so FAR - FRR
    strictly decreases; the minimum lies on either side of the crossing.
    After one sort, only the genuine similarities are searched: the first
    genuine threshold past the crossing bounds a segment in which the
    genuine count is fixed and FAR - FRR is linear in the sorted index, so
    the crossing index is solved exactly in integers.  The rates are then
    evaluated at the last threshold before it and the first at or after it.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, pool: FeaturePool, weights):
        self.X = np.asarray(X, dtype=np.float64)[:, pool.index_array]
        self.y = np.asarray(y)
        self.total = len(pool)
        self.weights = weights
        n = len(self.y)
        self._pairs = np.triu_indices(n, k=1)
        i, j = self._pairs
        # pair index of each (row, col) of an n x n matrix; the diagonal reads
        # the trailing +inf of a distance row
        self._square = np.full((n, n), len(i), dtype=np.intp)
        self._square[i, j] = self._square[j, i] = np.arange(len(i))
        self._genuine_pairs = np.flatnonzero(self.y[i] == self.y[j])
        self._genuine = len(self._genuine_pairs)
        self._imposter = len(i) - self._genuine
        # |dx| in pair blocks of 1/_CACHED_BLOCKS of the bound: that many stay
        # cached, and any further ones (large sample counts) are rebuilt per batch
        rows = max(1, _FITNESS_BYTES // (_CACHED_BLOCKS * 8 * self.total))
        self._blocks = [slice(s, min(s + rows, len(i))) for s in range(0, len(i), rows)]
        self._cached = [self._deltas(block) for block in self._blocks[:_CACHED_BLOCKS]]
        self._batch = max(1, _FITNESS_BYTES // (8 * (len(i) + 1)))
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
        dist = np.empty((len(genes), len(self._pairs[0]) + 1))
        dist[:, -1] = np.inf
        for b, block in enumerate(self._blocks):
            deltas = self._cached[b] if b < len(self._cached) else self._deltas(block)
            np.matmul(G, deltas.T, out=dist[:, block])
        pairs = dist[:, :-1]
        pairs /= np.maximum(sizes, 1)[:, None] * 255.0  # an empty chromosome's row stays 0
        rr = self._recognition_rates(dist)
        # the similarities overwrite the distances, which RR has finished reading
        rates = self._rates_at_eer(np.subtract(1.0, pairs, out=pairs))
        return [fitness_cost(r, far, frr, size, self.total, self.weights) if size
                else fitness_cost(0.0, 1.0, 1.0, 0, self.total, self.weights)
                for r, (far, frr), size in zip(rr, rates, sizes.tolist())]

    def _recognition_rates(self, dist: np.ndarray) -> list[float]:
        """Leave-one-out 1-NN recognition rate of each row of pair distances."""
        nearest = np.stack([row.take(self._square).argmin(axis=1) for row in dist])
        return (np.count_nonzero(self.y[nearest] == self.y, axis=1) / len(self.y)).tolist()

    def _rates_at_eer(self, sims: np.ndarray) -> list[tuple[float, float]]:
        """FAR and FRR at the EER of each row of pair similarities.

        Sorts each row in place.  Below the threshold first at sorted index k
        lie k pairs; FAR - FRR <= 0 there iff (k - g) * G + g * I >= I * G,
        where g of them are genuine, G are genuine and I imposter in all.
        """
        I, G = self._imposter, self._genuine
        genuine = np.sort(sims.take(self._genuine_pairs, axis=1), axis=1)
        below = np.empty(genuine.shape, dtype=np.intp)  # pairs below each genuine similarity
        gen_below = np.empty_like(below)                 # genuine pairs among them
        for ranked, gen, b, gb in zip(sims, genuine, below, gen_below):
            ranked.sort()  # searched while it is still in cache
            b[:] = ranked.searchsorted(gen)
            gb[:] = b.searchsorted(b)
        # the first genuine threshold with FAR - FRR <= 0 (G if there is none)
        crossed = np.count_nonzero(below * G + gen_below * (I - G) < I * G, axis=1)
        rates = []
        for ranked, b, gb, g in zip(sims, below, gen_below, crossed.tolist()):
            # in the segment after the previous genuine threshold, g pairs
            # below are genuine; k is its first index with FAR - FRR <= 0
            start = int(b[g - 1]) if g else -1
            k = max(g - (I * (g - G)) // G, start + 1)
            before = int(ranked.searchsorted(ranked[k - 1]))  # the last threshold below k
            after = int(ranked.searchsorted(ranked[k - 1], side="right"))  # the next one
            candidates = [(before, g if before > start else int(gb[g - 1]))]
            if after < len(ranked):
                candidates.append((after, g))
            rates.append(min(((1.0 - (t - g_t) / I, g_t / G) for t, g_t in candidates),
                             key=lambda r: abs(r[0] - r[1])))
        return rates


def ga_select(pool: FeaturePool, X, y, cfg: GaConfig) -> GaResult:
    """Evolve a feature-subset bitmask over the pool.

    Each generation: roulette selection over F = 1/(1 + cost), single-point
    crossover to refill the population, elitism of one (the best-ever
    chromosome survives unmutated), and per-offspring mutation flipping
    ``n_flip`` distinct bits.  Stops at the generation cap or after
    ``stall_generations`` without improvement.  Deterministic for a fixed
    rng_seed.
    """
    if len(pool) == 0:
        raise ValueError("feature pool is empty")
    X, y, _ = _check_problem(X, y, 2)

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
        if cfg.stall_generations and since_improvement >= cfg.stall_generations:
            break

        wheel = _wheel(1.0 / (1.0 + costs))
        children = [best_genes.copy()]  # elitism: best-ever survives unmutated
        while len(children) < cfg.population_size:
            pa = pop[_spin(wheel, rng)]
            pb = pop[_spin(wheel, rng)]
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
