import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from irisfuse import gasel
from irisfuse.gasel import (
    Chromosome,
    FEATURE_COUNT,
    FeaturePool,
    GaConfig,
    build_pool,
    extract_raw,
    fitness_cost,
    ga_select,
    match_pairs,
    match_subset,
    rank_entropy,
    rank_knn,
    rank_rfe,
    rank_tstat,
    roulette_select,
)
from irisfuse.normalization import POLAR_HEIGHT, POLAR_WIDTH, IncomparableError
from irisfuse.pipeline import process_images
from irisfuse.segmentation import SegmentationConfig
from irisfuse.synth import build_corpus

from oracles import (
    ScalarSubsetTrial,
    entropy_gains_loop,
    match_subset_compressed,
    planted_problem,
    rank_entropy_loop,
    rank_rfe_rebuild,
    rates_at_eer_sweep,
    roulette_select_per_draw,
)


def polar_of(values, mask=None):
    """(intensities, mask) of a polar image, unmasked by default."""
    if mask is None:
        mask = np.zeros((POLAR_HEIGHT, POLAR_WIDTH), dtype=np.uint8)
    return values, mask


def naive_block_means(values, mask):
    out = np.zeros(FEATURE_COUNT)
    valid = np.zeros(FEATURE_COUNT, dtype=bool)
    idx = 0
    for by in range(POLAR_HEIGHT // 8):
        for bx in range(POLAR_WIDTH // 8):
            acc, cnt = 0.0, 0
            for y in range(by * 8, by * 8 + 8):
                for x in range(bx * 8, bx * 8 + 8):
                    if mask[y, x] == 0:
                        acc += values[y, x]
                        cnt += 1
            if cnt:
                out[idx] = acc / cnt
                valid[idx] = True
            idx += 1
    return out, valid


class TestExtractRaw:
    def test_constant_image(self):
        polar = polar_of(np.full((POLAR_HEIGHT, POLAR_WIDTH), 100, dtype=np.uint8))
        values, valid = extract_raw(*polar)
        assert np.allclose(values, 100.0)
        assert valid.all()

    def test_fully_masked_block_flagged(self):
        vals = np.full((POLAR_HEIGHT, POLAR_WIDTH), 90, dtype=np.uint8)
        mask = np.zeros((POLAR_HEIGHT, POLAR_WIDTH), dtype=np.uint8)
        mask[0:8, 0:8] = 1  # block index 0
        values, valid = extract_raw(*polar_of(vals, mask))
        assert values[0] == 0.0
        assert not valid[0]
        assert valid[1:].all()

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(3)
        vals = rng.integers(0, 256, size=(POLAR_HEIGHT, POLAR_WIDTH), dtype=np.uint8)
        mask = (rng.random((POLAR_HEIGHT, POLAR_WIDTH)) < 0.3).astype(np.uint8)
        values, valid = extract_raw(*polar_of(vals, mask))
        expect_vals, expect_valid = naive_block_means(vals.astype(float), mask)
        assert np.allclose(values, expect_vals, atol=1e-9)
        assert np.array_equal(valid, expect_valid)


class TestRankEntropy:
    def test_constant_feature_last_perfect_predictor_first(self):
        rng = np.random.default_rng(0)
        n = 40
        y = np.repeat([0, 1], n // 2)
        X = rng.normal(size=(n, 4))
        X[:, 1] = 7.0          # constant: zero gain
        X[:, 2] = y            # perfect predictor: maximal gain
        ranking = rank_entropy(X, y)
        assert ranking[0] == 2
        assert ranking[-1] == 1

    def test_shifted_gaussian_dimension_wins(self):
        wins = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(80, 10))
            y = np.repeat([0, 1], 40)
            X[y == 1, 3] += 2.0
            wins += rank_entropy(X, y)[0] == 3
        assert wins >= 95

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            rank_entropy(np.zeros((10, 3)), np.zeros(10))


class TestRankTstat:
    def test_equal_distributions_near_zero(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(200, 1))
        y = np.repeat([0, 1], 100)
        a, b = X[y == 0, 0], X[y == 1, 0]
        t = abs(a.mean() - b.mean()) / np.sqrt(a.var(ddof=1) / 100 + b.var(ddof=1) / 100)
        assert t < 3.0  # sanity: same distribution

    def test_direct_formula_value(self):
        # construct samples whose ddof=1 variance is exactly 1 and means 0 / 1
        base = np.concatenate([np.full(50, -1.0), np.full(50, 1.0)]) * np.sqrt(99 / 100)
        X = np.concatenate([base, base + 1.0])[:, None]
        y = np.repeat([0, 1], 100)
        ranking = rank_tstat(X, y)
        assert np.array_equal(ranking, [0])
        a, b = X[y == 0, 0], X[y == 1, 0]
        t = abs(a.mean() - b.mean()) / np.sqrt(a.var(ddof=1) / 100 + b.var(ddof=1) / 100)
        assert t == pytest.approx(1.0 / np.sqrt(0.02), rel=1e-9)
        assert t == pytest.approx(7.0711, abs=5e-4)

    def test_duplicated_columns_tie_by_index(self):
        rng = np.random.default_rng(2)
        col = rng.normal(size=60)
        y = np.repeat([0, 1], 30)
        col[y == 1] += 1.5
        X = np.column_stack([col, col, rng.normal(size=60)])
        ranking = rank_tstat(X, y)
        assert list(ranking[:2]) == [0, 1]  # identical scores, ascending index

    def test_tiny_class_rejected(self):
        X = np.zeros((3, 2))
        with pytest.raises(ValueError):
            rank_tstat(X, np.array([0, 0, 1]))

    @pytest.mark.parametrize("seed", range(20))
    def test_binary_one_vs_rest_equals_two_sample_t(self, seed):
        # one-vs-rest on two classes scores each feature by the plain
        # two-sample |Welch t|, bit for bit, constant features included
        X, y, _ = planted_problem(seed, n_features=60, classes=2, per_class=int(4 + seed % 5))
        n = len(y) - seed % 3  # unequal class sizes too
        X, y = X[:n], y[:n]
        X[:, ::7] = 42.0
        X[y == y[0], 3] = 1.0
        scores = gasel._welch_t(X[y == y[0]], X[y != y[0]])
        assert np.array_equal(rank_tstat(X, y), gasel._ranking_from_scores(scores))


class TestRankKnn:
    def test_perfect_separator_first(self):
        rng = np.random.default_rng(3)
        y = np.repeat([0, 1], 20)
        X = rng.normal(size=(40, 3))
        X[:, 1] = y * 10.0
        assert rank_knn(X, y)[0] == 1

    def test_random_feature_near_chance(self):
        accs = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            col = rng.normal(size=60)
            y = rng.permutation(np.repeat([0, 1, 2], 20))
            d = np.abs(col[:, None] - col[None, :])
            np.fill_diagonal(d, np.inf)
            accs.append(np.mean(y[np.argmin(d, axis=1)] == y))
        chance = (20 - 1) / (60 - 1)
        assert abs(float(np.mean(accs)) - chance) < 0.05

    def test_identical_features_index_tiebreak(self):
        rng = np.random.default_rng(4)
        col = rng.normal(size=30)
        y = np.repeat([0, 1], 15)
        X = np.column_stack([col, col])
        assert list(rank_knn(X, y)) == [0, 1]


class TestRankRfe:
    def test_informative_dimension_ranked_first(self):
        wins = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(60, 20))
            y = np.repeat([0, 1], 30)
            X[y == 1, 7] += 3.0
            wins += rank_rfe(X, y)[0] == 7
        assert wins >= 90

    def test_all_constant_features_ascending_order(self):
        X = np.ones((12, 6))
        y = np.repeat([0, 1], 6)
        assert list(rank_rfe(X, y)) == [0, 1, 2, 3, 4, 5]

    def test_column_scaling_invariance(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 8))
        y = np.repeat([0, 1], 20)
        X[y == 1, 2] += 2.0
        scaled = X.copy()
        scaled[:, 2] *= 1000.0
        scaled[:, 5] *= 1e-6
        assert np.array_equal(rank_rfe(X, y), rank_rfe(scaled, y))


class TestBuildPool:
    def test_identical_rankings_full_overlap(self):
        r = np.arange(50)
        pool = build_pool([r, r, r, r], top_k=10)
        assert len(pool) == 10
        assert pool.indices == tuple(range(10))

    def test_disjoint_rankings_no_overlap(self):
        rankings = [np.roll(np.arange(40), -10 * i) for i in range(4)]
        pool = build_pool(rankings, top_k=10)
        assert len(pool) == 40

    def test_top_k_bounds(self):
        r = np.arange(10)
        with pytest.raises(ValueError):
            build_pool([r, r, r, r], top_k=0)
        with pytest.raises(ValueError):
            build_pool([r, r, r, r], top_k=11)


class TestFitnessCost:
    def test_perfect_recognition_sole_term(self):
        assert fitness_cost(1.0, 0.0, 0.0, 10, 100, (1.0, 0.0, 0.0, 0.0)) == 0.0

    def test_worked_example(self):
        cost = fitness_cost(0.9, 0.02, 0.05, 50, 672, (1.0, 0.5, 0.5, 0.1))
        expect = 0.1 + 0.5 * 0.02 + 0.5 * 0.05 + 0.1 * 50 / 672
        assert cost == pytest.approx(expect, abs=1e-12)
        assert cost == pytest.approx(0.14244, abs=5e-5)

    def test_zero_weights_zero_cost(self):
        assert fitness_cost(0.1, 0.9, 0.8, 600, 672, (0, 0, 0, 0)) == 0.0

    def test_monotonicity(self):
        w = (1.0, 1.0, 1.0, 1.0)
        base = fitness_cost(0.8, 0.1, 0.1, 30, 100, w)
        assert fitness_cost(0.8, 0.2, 0.1, 30, 100, w) > base
        assert fitness_cost(0.8, 0.1, 0.2, 30, 100, w) > base
        assert fitness_cost(0.8, 0.1, 0.1, 40, 100, w) > base
        assert fitness_cost(0.9, 0.1, 0.1, 30, 100, w) < base

    def test_range_validation(self):
        with pytest.raises(ValueError):
            fitness_cost(1.2, 0, 0, 1, 10, (1, 1, 1, 1))
        with pytest.raises(ValueError):
            fitness_cost(1.0, 0, 0, 11, 10, (1, 1, 1, 1))


class TestRouletteSelect:
    def test_single_individual(self):
        rng = np.random.default_rng(0)
        assert all(roulette_select([3.0], rng) == 0 for _ in range(10))

    def test_all_zero_falls_back_to_uniform(self):
        rng = np.random.default_rng(1)
        draws = np.array([roulette_select([0.0, 0.0, 0.0], rng) for _ in range(3000)])
        freq = np.bincount(draws, minlength=3) / len(draws)
        assert np.max(np.abs(freq - 1 / 3)) < 0.05

    def test_proportional_frequencies(self):
        rng = np.random.default_rng(2)
        draws = np.array([roulette_select([1.0, 3.0], rng) for _ in range(20000)])
        freq = np.bincount(draws, minlength=2) / len(draws)
        assert abs(freq[0] - 0.25) < 0.02
        assert abs(freq[1] - 0.75) < 0.02

    def test_negative_fitness_rejected(self):
        with pytest.raises(ValueError):
            roulette_select([0.5, -0.1], np.random.default_rng(0))

    def test_draws_match_per_draw_oracle(self):
        rng = np.random.default_rng(3)
        for fitness in ([0.0, 0.0, 0.0], [3.0], rng.random(40), rng.random(7) * [0, 1, 0, 1, 1, 0, 1]):
            a, b = np.random.default_rng(5), np.random.default_rng(5)
            draws = [roulette_select(fitness, a) for _ in range(200)]
            assert draws == [roulette_select_per_draw(fitness, b) for _ in range(200)]


class TestMatchSubset:
    def make_vectors(self, rng):
        """Two rows of values, every feature valid in both."""
        return rng.uniform(0, 255, (2, FEATURE_COUNT)), np.ones((2, FEATURE_COUNT), bool)

    def test_identical_vectors_zero(self):
        rng = np.random.default_rng(0)
        values, valid = self.make_vectors(rng)
        pool = FeaturePool(tuple(range(20)))
        c = Chromosome(np.ones(20, dtype=np.uint8))
        assert match_subset(values[[0, 0]], valid, c, pool) == 0.0

    def test_maximal_difference_is_one(self):
        values = np.stack([np.zeros(FEATURE_COUNT), np.full(FEATURE_COUNT, 255.0)])
        pool = FeaturePool(tuple(range(10)))
        c = Chromosome(np.ones(10, dtype=np.uint8))
        assert match_subset(values, np.ones((2, FEATURE_COUNT), bool), c, pool) == 1.0

    def test_matches_naive_loop_oracle(self):
        rng = np.random.default_rng(1)
        values, valid = self.make_vectors(rng)
        a, b = values
        pool = FeaturePool(tuple(range(0, 672, 3)))
        genes = rng.integers(0, 2, size=len(pool), dtype=np.uint8)
        genes[0] = 1
        c = Chromosome(genes)
        total, count = 0.0, 0
        for gi, idx in enumerate(pool.indices):
            if genes[gi]:
                total += abs(a[idx] - b[idx])
                count += 1
        expect = total / count / 255.0
        assert match_subset(values, valid, c, pool) == pytest.approx(expect, abs=1e-12)

    def test_empty_selection_rejected(self):
        rng = np.random.default_rng(2)
        values, valid = self.make_vectors(rng)
        pool = FeaturePool(tuple(range(10)))
        with pytest.raises(ValueError):
            match_subset(values, valid, Chromosome(np.zeros(10, dtype=np.uint8)), pool)

    def test_no_jointly_valid_rejected(self):
        values = np.zeros((2, FEATURE_COUNT))
        valid = np.zeros((2, FEATURE_COUNT), bool)
        valid[0, :5] = True
        valid[1, 5:10] = True
        pool = FeaturePool(tuple(range(10)))
        with pytest.raises(IncomparableError):
            match_subset(values, valid, Chromosome(np.ones(10, dtype=np.uint8)), pool)


class TestMatchPairs:
    """The masked city-block over all pairs against the former compressed mean."""

    def test_matches_compressed_oracle_and_match_subset(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0, 255, (14, FEATURE_COUNT))
        valid = np.stack([rng.random(FEATURE_COUNT) < rng.choice([0.02, 0.5, 0.9, 1.0])
                          for _ in range(14)])
        first, second = np.triu_indices(len(values), k=1)
        incomparable = 0
        for size in (3, 40, FEATURE_COUNT):
            pool = FeaturePool(tuple(sorted(rng.choice(FEATURE_COUNT, size, replace=False))))
            genes = rng.integers(0, 2, size=size, dtype=np.uint8)
            genes[0] = 1
            c = Chromosome(genes)
            got = match_pairs(values, valid, first, second, c, pool)
            for k, pair in enumerate(zip(first, second)):
                pair = list(pair)
                try:
                    want = match_subset_compressed(values[pair], valid[pair], c, pool)
                except IncomparableError:
                    incomparable += 1
                    assert np.isnan(got[k])
                    with pytest.raises(IncomparableError):
                        match_subset(values[pair], valid[pair], c, pool)
                    continue
                assert got[k] == pytest.approx(want, abs=1e-12)
                assert got[k] == match_subset(values[pair], valid[pair], c, pool)
        assert incomparable > 0


class TestGaSelect:
    def test_zero_generations_returns_initial_best(self):
        X, y, _ = planted_problem(0)
        pool = FeaturePool(tuple(range(100)))
        cfg = GaConfig(population_size=10, max_generations=0, rng_seed=3)
        res = ga_select(pool, X, y, cfg)
        assert len(res.history) == 1
        assert res.evaluations == 10

    def test_deterministic_given_seed(self):
        X, y, _ = planted_problem(1)
        pool = FeaturePool(tuple(range(100)))
        cfg = GaConfig(population_size=12, max_generations=15, rng_seed=7)
        r1 = ga_select(pool, X, y, cfg)
        r2 = ga_select(pool, X, y, cfg)
        assert np.array_equal(r1.best.genes, r2.best.genes)
        assert r1.history == r2.history

    def test_history_non_increasing(self):
        X, y, _ = planted_problem(2)
        pool = FeaturePool(tuple(range(100)))
        cfg = GaConfig(population_size=16, max_generations=30, rng_seed=11)
        res = ga_select(pool, X, y, cfg)
        assert all(a >= b for a, b in zip(res.history, res.history[1:]))

    def test_size_only_cost_drives_to_empty_mask(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 255, size=(24, 672))
        y = np.repeat(np.arange(4), 6)
        pool = FeaturePool(tuple(range(30)))
        cfg = GaConfig(population_size=20, max_generations=150, weights=(0, 0, 0, 1.0),
                       p_n=0.4, n_flip=2, rng_seed=1)
        res = ga_select(pool, X, y, cfg)
        assert int(res.best.genes.sum()) == 0
        assert res.history[-1] == 0.0
        assert all(a >= b for a, b in zip(res.history, res.history[1:]))

    def test_planted_subset_recovery_sample(self):
        # the full 100-seed experiment lives in the acceptance suite
        recovered = 0
        for seed in range(5):
            X, y, informative = planted_problem(seed)
            pool = FeaturePool(tuple(range(100)))
            cfg = GaConfig(population_size=40, max_generations=200, stall_generations=30,
                           rng_seed=seed)
            res = ga_select(pool, X, y, cfg)
            chosen = set(int(i) for i in res.best.selected(pool))
            recovered += len(informative & chosen) >= 8
        assert recovered == 5

    def test_empty_pool_rejected(self):
        X, y, _ = planted_problem(4)
        with pytest.raises(ValueError):
            ga_select(FeaturePool(()), X, y, GaConfig(rng_seed=0))

    def test_degenerate_labels_rejected(self):
        X = np.zeros((6, 672))
        with pytest.raises(ValueError):
            ga_select(FeaturePool((0, 1)), X, np.zeros(6), GaConfig(rng_seed=0))


class TestRankingsArePermutations:
    def test_every_ranker_returns_permutation(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(30, 12))
        y = np.repeat([0, 1, 2], 10)
        X[y == 1] += 0.5
        expect = set(range(12))
        for ranker in (rank_entropy, rank_tstat, rank_knn, rank_rfe):
            ranking = ranker(X, y)
            assert set(int(i) for i in ranking) == expect
            assert len(ranking) == 12


class TestRfeMatchesPerTargetOracle:
    """Planted problems against ``rank_rfe_rebuild``, which fits one ridge
    discriminant per class target and retrains after every elimination."""

    @pytest.mark.parametrize("classes", [2, 6])
    @pytest.mark.parametrize("seed", range(4))
    def test_planted_rankings_identical(self, seed, classes):
        X, y, _ = planted_problem(seed, n_features=60, n_informative=6,
                                  classes=classes, per_class=6)
        assert np.array_equal(rank_rfe(X, y), rank_rfe_rebuild(X, y))

    def test_constant_features_identical(self):
        X, y, _ = planted_problem(9, n_features=30, n_informative=4, classes=3, per_class=5)
        X[:, ::3] = 7.0
        assert np.array_equal(rank_rfe(X, y), rank_rfe_rebuild(X, y))


class TestRfeDowndateMatchesRebuild:
    """The rank-one downdated gram gives the rankings of a gram rebuilt at every step."""

    @pytest.mark.parametrize("classes,per_class", [(2, 12), (6, 6)])
    def test_small_problems_match_both_oracles(self, classes, per_class):
        X, y, _ = planted_problem(2026, n_features=FEATURE_COUNT, n_informative=20,
                                  classes=classes, per_class=per_class)
        assert np.array_equal(rank_rfe(X, y), rank_rfe_rebuild(X, y))

    @pytest.mark.parametrize("classes,seed", [(40, 2026), (50, 7)])
    def test_bench_problems_match_rebuild(self, classes, seed):
        # the train-ga workload's problem sizes: 40 classes, or 50 with --full
        X, y, _ = planted_problem(seed, n_features=FEATURE_COUNT, n_informative=20,
                                  classes=classes, per_class=4)
        assert np.array_equal(rank_rfe(X, y), rank_rfe_rebuild(X, y))


def corpus_block_features(identities, samples, seed):
    corpus = build_corpus(identities, samples, seed)
    table, kept = process_images([r.image for r in corpus.records], SegmentationConfig())
    return table.values, np.asarray([corpus.records[k].identity for k in kept])


def duplicated_columns_problem(seed):
    """A binary planted problem whose columns 5k + 1 copy columns 5k."""
    X, y, _ = planted_problem(seed, n_features=100, n_informative=10, classes=2, per_class=10)
    X[:, 1::5] = X[:, ::5]
    return X, y


class TestRfeRankOneUpdates:
    """The rank-one updates of the inverse gram and the weights against ``rank_rfe_rebuild``."""

    def test_block_features_match_both_oracles(self):
        X, y = corpus_block_features(6, 3, 2026)
        ranking = rank_rfe(X, y)
        assert np.array_equal(ranking, rank_rfe_rebuild(X, y))

    def test_block_features_with_zero_columns_drop_a_minimum(self):
        # A block masked in every image is a zero column; one unmasked in a
        # single image standardizes to the same column as any other such block,
        # up to rounding.  Those near-ties (2e-14 relative here) part ``rank_rfe``
        # and ``rank_rfe_rebuild``, so each drop is checked against the rebuilt
        # weights instead.
        X, y = corpus_block_features(6, 3, 7)
        zero = np.flatnonzero(~X.any(axis=0))
        assert len(zero) > 0
        ranking = rank_rfe(X, y)
        assert np.array_equal(ranking[-len(zero):], zero)  # dropped first, largest index first
        Z = (X - X.mean(axis=0)) / np.where(X.std(axis=0) > 0, X.std(axis=0), 1.0)
        T = np.where(y[:, None] == np.unique(y)[None, :], 1.0, -1.0)
        active = sorted(ranking.tolist())
        for f in ranking[:0:-1].tolist():
            Zc = Z[:, active]
            w = np.abs(Zc.T @ np.linalg.solve(Zc @ Zc.T + np.eye(len(Zc)), T)).max(axis=1)
            assert w[active.index(f)] <= w.min() * (1.0 + 1e-12)
            active.remove(f)

    def test_duplicated_columns_match_both_oracles(self):
        X, y = duplicated_columns_problem(101)
        ranking = rank_rfe(X, y)
        assert np.array_equal(ranking, rank_rfe_rebuild(X, y))

    @pytest.mark.parametrize("seed", [101, 103, 116])
    def test_duplicated_columns_tie_to_the_largest_index(self, seed):
        # A column and its copy keep bit-equal weights, so the copy (the larger
        # index) always goes first and ranks below its original.  At seeds 103
        # and 116 ``rank_rfe_rebuild`` breaks such a tie the other way by rounding.
        X, y = duplicated_columns_problem(seed)
        position = np.argsort(rank_rfe(X, y))
        assert np.all(position[0::5] < position[1::5])

    @pytest.mark.parametrize("features", [1, 2])
    def test_one_and_two_features(self, features):
        X, y, _ = planted_problem(3, n_features=features, n_informative=1, classes=3, per_class=4)
        ranking = rank_rfe(X, y)
        assert sorted(ranking.tolist()) == list(range(features))
        assert np.array_equal(ranking, rank_rfe_rebuild(X, y))

    @pytest.mark.parametrize("seed", range(3))
    def test_binary_problem_matches_both_oracles(self, seed):
        X, y, _ = planted_problem(seed, n_features=200, n_informative=8, classes=2, per_class=15)
        ranking = rank_rfe(X, y)
        assert np.array_equal(ranking, rank_rfe_rebuild(X, y))


BAD_PROBLEMS = {
    "1-D": (np.arange(12.0), np.repeat([0, 1], 6), "must be 2-D"),
    "NaN": (np.where(np.eye(12, 4) > 0, np.nan, 1.0), np.repeat([0, 1], 6), "non-finite"),
    "inf": (np.where(np.eye(12, 4) > 0, np.inf, 1.0), np.repeat([0, 1], 6), "non-finite"),
    "short y": (np.ones((12, 4)), np.repeat([0, 1], 5), "12 rows but labels have shape"),
    "long y": (np.ones((12, 4)), np.repeat([0, 1], 7), "12 rows but labels have shape"),
}


class TestProblemValidation:
    """Every ranker and the GA reject a malformed problem with a ValueError naming it."""

    @pytest.mark.parametrize("ranker", [rank_entropy, rank_tstat, rank_knn, rank_rfe])
    @pytest.mark.parametrize("bad", sorted(BAD_PROBLEMS))
    def test_rankers(self, ranker, bad):
        X, y, message = BAD_PROBLEMS[bad]
        with pytest.raises(ValueError, match=message):
            ranker(X, y)

    @pytest.mark.parametrize("bad", sorted(BAD_PROBLEMS))
    def test_ga_select(self, bad):
        X, y, message = BAD_PROBLEMS[bad]
        with pytest.raises(ValueError, match=message):
            ga_select(FeaturePool((0,)), X, y, GaConfig(max_generations=0))


class TestEntropyGainsMatchLoop:
    """One (feature, bin, class) count gives the per-feature loop's gains to the bit."""

    @pytest.mark.parametrize("classes,per_class,seed", [(2, 12, 0), (6, 6, 1), (40, 4, 2026)])
    def test_planted_gains_bit_equal(self, classes, per_class, seed):
        X, y, _ = planted_problem(seed, n_features=FEATURE_COUNT, n_informative=20,
                                  classes=classes, per_class=per_class)
        assert gasel._information_gains(X, y).tobytes() == entropy_gains_loop(X, y).tobytes()
        assert np.array_equal(rank_entropy(X, y), rank_entropy_loop(X, y))

    def test_constant_sparse_and_quantised_features_bit_equal(self):
        rng = np.random.default_rng(11)
        y = np.repeat(np.arange(5), 6)
        X = rng.integers(0, 4, size=(30, 12)).astype(np.float64)  # bin edges hit exactly
        X[:, 0] = 3.0                          # constant: one bin, zero gain
        X[:, 1] = np.where(y == 2, 9.0, 1.0)   # two values: only the end bins occupied
        X[:, 2] = 0.0
        X[5, 2] = 1.0                          # one outlier: 29 samples in bin 0
        X[:, 3] = np.arange(30.0)              # every bin occupied
        gains = gasel._information_gains(X, y)
        assert gains.tobytes() == entropy_gains_loop(X, y).tobytes()
        assert gains[0] == 0.0
        assert np.array_equal(rank_entropy(X, y), rank_entropy_loop(X, y))


def crossing_trial(sizes):
    """A fitness trial over classes of the given sizes, and its pairs' sameness."""
    y = np.repeat(np.arange(len(sizes)), sizes)
    trial = gasel._SubsetTrial(np.zeros((len(y), 1)), y, FeaturePool((0,)), (1.0, 0.5, 0.5, 0.05))
    i, j = trial._pairs
    return trial, y[i] == y[j]


def assert_crossing_matches_sweep(sizes, sims):
    trial, same = crossing_trial(sizes)
    sims = np.asarray(sims, dtype=np.float64)
    assert trial._rates_at_eer(sims[None].copy()) == [rates_at_eer_sweep(sims, same)]


@st.composite
def class_sizes_and_sims(draw):
    sizes = draw(st.lists(st.integers(1, 7), min_size=2, max_size=7).filter(lambda s: max(s) >= 2))
    pairs = sum(sizes) * (sum(sizes) - 1) // 2
    levels = draw(st.sampled_from([1, 2, 3, 5, 17, 0]))
    if levels == 0:
        return sizes, draw(arrays(np.float64, pairs, elements=st.floats(0.0, 1.0)))
    return sizes, draw(arrays(np.int64, pairs, elements=st.integers(0, levels))) / levels


class TestCrossingMatchesSweep:
    """FAR/FRR from the crossing search equal the full threshold sweep's, bit for bit."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(class_sizes_and_sims())
    def test_random_trials(self, case):
        assert_crossing_matches_sweep(*case)

    @pytest.mark.parametrize("levels", [1, 2, 4, 9, 50])
    @pytest.mark.parametrize("sizes", [[20, 2], [2, 1, 1, 1, 1], [4] * 40])
    def test_quantised_ties(self, sizes, levels):
        # [20, 2]: more genuine pairs than imposters; [2, 1, 1, 1, 1]: one genuine pair
        rng = np.random.default_rng(levels)
        n = sum(sizes)
        assert_crossing_matches_sweep(sizes, rng.integers(0, levels + 1, n * (n - 1) // 2) / levels)

    @pytest.mark.parametrize("sizes", [[20, 2], [2, 1, 1, 1, 1], [3, 3, 3]])
    @pytest.mark.parametrize("genuine_high", [True, False])
    def test_perfect_separation(self, sizes, genuine_high):
        _, same = crossing_trial(sizes)
        rng = np.random.default_rng(3)
        sims = np.where(same == genuine_high, 0.6, 0.0) + rng.random(len(same)) * 0.3
        assert_crossing_matches_sweep(sizes, sims)

    @pytest.mark.parametrize("sizes", [[20, 2], [2, 1, 1, 1, 1], [3, 3, 3]])
    def test_all_similarities_equal(self, sizes):
        n = sum(sizes)
        assert_crossing_matches_sweep(sizes, np.full(n * (n - 1) // 2, 0.75))


def ga_against_oracle(monkeypatch, pool, X, y, cfg):
    """Run ga_select with the batched fitness and once-per-generation roulette
    wheel, and with the scalar fitness oracle and per-draw roulette oracle."""
    fast = ga_select(pool, X, y, cfg)
    with monkeypatch.context() as m:
        m.setattr(gasel, "_SubsetTrial", ScalarSubsetTrial)
        m.setattr(gasel, "_wheel", lambda fitness: fitness)
        m.setattr(gasel, "_spin", roulette_select_per_draw)
        slow = ga_select(pool, X, y, cfg)
    assert np.array_equal(fast.best.genes, slow.best.genes)
    assert fast.history == slow.history
    assert fast.evaluations == slow.evaluations
    return fast


class TestGaFitnessMatchesScalarOracle:
    @pytest.mark.parametrize("classes,per_class", [(2, 12), (6, 6)])
    @pytest.mark.parametrize("seed", range(3))
    def test_planted_runs_identical(self, monkeypatch, seed, classes, per_class):
        X, y, _ = planted_problem(seed, classes=classes, per_class=per_class)
        cfg = GaConfig(population_size=20, max_generations=40, rng_seed=seed)
        ga_against_oracle(monkeypatch, FeaturePool(tuple(range(100))), X, y, cfg)

    def test_constant_features_identical(self, monkeypatch):
        X = np.full((24, 40), 90.0)
        y = np.repeat(np.arange(4), 6)
        cfg = GaConfig(population_size=12, max_generations=10, rng_seed=2)
        ga_against_oracle(monkeypatch, FeaturePool(tuple(range(40))), X, y, cfg)

    def test_empty_chromosome_identical(self, monkeypatch):
        X, y, _ = planted_problem(5)
        cfg = GaConfig(population_size=20, max_generations=150, weights=(0, 0, 0, 1.0),
                       p_n=0.4, rng_seed=1)
        res = ga_against_oracle(monkeypatch, FeaturePool(tuple(range(30))), X, y, cfg)
        assert int(res.best.genes.sum()) == 0

    def test_full_width_pool_identical(self, monkeypatch):
        # k = 672 spans more than one BLAS panel of the distance matmul
        X, y, _ = planted_problem(6, n_features=FEATURE_COUNT, n_informative=10)
        cfg = GaConfig(population_size=16, max_generations=8, rng_seed=6)
        ga_against_oracle(monkeypatch, FeaturePool(tuple(range(FEATURE_COUNT))), X, y, cfg)

    def test_duplicates_within_a_generation(self):
        X, y, _ = planted_problem(7)
        pool = FeaturePool(tuple(range(100)))
        rng = np.random.default_rng(7)
        pop = rng.integers(0, 2, size=(12, 100), dtype=np.uint8)
        pop[[3, 7, 11]] = pop[0]
        pop[5] = 0
        fast = gasel._SubsetTrial(X, y, pool, (1.0, 0.5, 0.5, 0.05))
        slow = ScalarSubsetTrial(X, y, pool, (1.0, 0.5, 0.5, 0.05))
        for generation in (pop, pop[::-1], np.roll(pop, 1, axis=1)):
            assert np.array_equal(fast.costs(generation), slow.costs(generation))
            assert fast.evaluations == slow.evaluations
        assert fast.evaluations == 9 + 8

    def test_many_samples_span_several_blocks(self, monkeypatch):
        X, y, _ = planted_problem(8, classes=30, per_class=5)
        pool = FeaturePool(tuple(range(100)))
        assert len(gasel._SubsetTrial(X, y, pool, (1.0, 0.5, 0.5, 0.05))._blocks) > 1
        cfg = GaConfig(population_size=12, max_generations=4, rng_seed=8)
        ga_against_oracle(monkeypatch, pool, X, y, cfg)

    def test_tight_memory_bound_identical(self, monkeypatch):
        # blocks beyond the cached ones are rebuilt, and fresh chromosomes
        # are scored in several batches
        monkeypatch.setattr(gasel, "_FITNESS_BYTES", 40_000)
        X, y, _ = planted_problem(4)
        pool = FeaturePool(tuple(range(100)))
        trial = gasel._SubsetTrial(X, y, pool, (1.0, 0.5, 0.5, 0.05))
        assert len(trial._blocks) > gasel._CACHED_BLOCKS and trial._batch < 10
        assert sum(block.nbytes for block in trial._cached) <= gasel._FITNESS_BYTES
        cfg = GaConfig(population_size=20, max_generations=10, rng_seed=4)
        ga_against_oracle(monkeypatch, pool, X, y, cfg)
