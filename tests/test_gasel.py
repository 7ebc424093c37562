import numpy as np
import pytest

from irisfuse import gasel
from irisfuse.gasel import (
    Chromosome,
    FEATURE_COUNT,
    FeaturePool,
    GaConfig,
    RawFeatureVector,
    build_pool,
    extract_raw,
    fitness_cost,
    ga_select,
    match_subset,
    rank_entropy,
    rank_knn,
    rank_rfe,
    rank_tstat,
    roulette_select,
)
from irisfuse.imaging import BinaryImage
from irisfuse.normalization import POLAR_HEIGHT, POLAR_WIDTH, PolarIris

from oracles import ScalarSubsetTrial, planted_problem, rank_rfe_per_target


def polar_of(values, mask=None):
    if mask is None:
        mask = np.zeros((POLAR_HEIGHT, POLAR_WIDTH), dtype=np.uint8)
    return PolarIris(values, BinaryImage(mask))


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
        fv = extract_raw(polar)
        assert np.allclose(fv.values, 100.0)
        assert fv.valid.all()

    def test_fully_masked_block_flagged(self):
        vals = np.full((POLAR_HEIGHT, POLAR_WIDTH), 90, dtype=np.uint8)
        mask = np.zeros((POLAR_HEIGHT, POLAR_WIDTH), dtype=np.uint8)
        mask[0:8, 0:8] = 1  # block index 0
        fv = extract_raw(polar_of(vals, mask))
        assert fv.values[0] == 0.0
        assert not fv.valid[0]
        assert fv.valid[1:].all()

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(3)
        vals = rng.integers(0, 256, size=(POLAR_HEIGHT, POLAR_WIDTH), dtype=np.uint8)
        mask = (rng.random((POLAR_HEIGHT, POLAR_WIDTH)) < 0.3).astype(np.uint8)
        fv = extract_raw(polar_of(vals, mask))
        expect_vals, expect_valid = naive_block_means(vals.astype(float), mask)
        assert np.allclose(fv.values, expect_vals, atol=1e-9)
        assert np.array_equal(fv.valid, expect_valid)


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
        assert all(pool.provenance[i] == ("entropy", "tstat", "knn", "rfe") for i in pool.indices)

    def test_disjoint_rankings_no_overlap(self):
        rankings = [np.roll(np.arange(40), -10 * i) for i in range(4)]
        pool = build_pool(rankings, top_k=10)
        assert len(pool) == 40

    def test_provenance_bookkeeping(self):
        base = np.arange(20)
        rankings = [base, base, np.roll(base, -5), np.roll(base, -10)]
        pool = build_pool(rankings, top_k=5)
        assert pool.provenance[0] == ("entropy", "tstat")
        assert pool.provenance[5] == ("knn",)

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


class TestMatchSubset:
    def make_vectors(self, rng):
        a = RawFeatureVector(rng.uniform(0, 255, FEATURE_COUNT), np.ones(FEATURE_COUNT, bool))
        b = RawFeatureVector(rng.uniform(0, 255, FEATURE_COUNT), np.ones(FEATURE_COUNT, bool))
        return a, b

    def test_identical_vectors_zero(self):
        rng = np.random.default_rng(0)
        a, _ = self.make_vectors(rng)
        pool = FeaturePool(tuple(range(20)))
        c = Chromosome(np.ones(20, dtype=np.uint8))
        assert match_subset(a, a, c, pool) == 0.0

    def test_maximal_difference_is_one(self):
        vals_a = np.zeros(FEATURE_COUNT)
        vals_b = np.full(FEATURE_COUNT, 255.0)
        a = RawFeatureVector(vals_a, np.ones(FEATURE_COUNT, bool))
        b = RawFeatureVector(vals_b, np.ones(FEATURE_COUNT, bool))
        pool = FeaturePool(tuple(range(10)))
        c = Chromosome(np.ones(10, dtype=np.uint8))
        assert match_subset(a, b, c, pool) == 1.0

    def test_matches_naive_loop_oracle(self):
        rng = np.random.default_rng(1)
        a, b = self.make_vectors(rng)
        pool = FeaturePool(tuple(range(0, 672, 3)))
        genes = rng.integers(0, 2, size=len(pool), dtype=np.uint8)
        genes[0] = 1
        c = Chromosome(genes)
        total, count = 0.0, 0
        for gi, idx in enumerate(pool.indices):
            if genes[gi]:
                total += abs(a.values[idx] - b.values[idx])
                count += 1
        expect = total / count / 255.0
        assert match_subset(a, b, c, pool) == pytest.approx(expect, abs=1e-12)

    def test_empty_selection_rejected(self):
        rng = np.random.default_rng(2)
        a, b = self.make_vectors(rng)
        pool = FeaturePool(tuple(range(10)))
        with pytest.raises(ValueError):
            match_subset(a, b, Chromosome(np.zeros(10, dtype=np.uint8)), pool)

    def test_no_jointly_valid_rejected(self):
        vals = np.zeros(FEATURE_COUNT)
        valid_a = np.zeros(FEATURE_COUNT, bool)
        valid_a[:5] = True
        valid_b = np.zeros(FEATURE_COUNT, bool)
        valid_b[5:10] = True
        a = RawFeatureVector(vals, valid_a)
        b = RawFeatureVector(vals, valid_b)
        pool = FeaturePool(tuple(range(10)))
        with pytest.raises(ValueError):
            match_subset(a, b, Chromosome(np.ones(10, dtype=np.uint8)), pool)


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
                       p_n=0.4, n_flip=2, rng_seed=1, fitness_goal=0.0)
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

    def test_evaluation_budget_stops_early(self):
        X, y, _ = planted_problem(3)
        pool = FeaturePool(tuple(range(100)))
        cfg = GaConfig(population_size=10, max_generations=50, max_evaluations=25, rng_seed=5)
        res = ga_select(pool, X, y, cfg)
        assert res.evaluations <= 35  # budget check happens between generations

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
    @pytest.mark.parametrize("classes", [2, 6])
    @pytest.mark.parametrize("seed", range(4))
    def test_planted_rankings_identical(self, seed, classes):
        X, y, _ = planted_problem(seed, n_features=60, n_informative=6,
                                  classes=classes, per_class=6)
        assert np.array_equal(rank_rfe(X, y), rank_rfe_per_target(X, y))

    def test_constant_features_identical(self):
        X, y, _ = planted_problem(9, n_features=30, n_informative=4, classes=3, per_class=5)
        X[:, ::3] = 7.0
        assert np.array_equal(rank_rfe(X, y), rank_rfe_per_target(X, y))


def ga_against_oracle(monkeypatch, pool, X, y, cfg):
    """Run ga_select with the batched fitness and with the scalar oracle's."""
    fast = ga_select(pool, X, y, cfg)
    with monkeypatch.context() as m:
        m.setattr(gasel, "_SubsetTrial", ScalarSubsetTrial)
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
                       p_n=0.4, rng_seed=1, fitness_goal=0.0)
        res = ga_against_oracle(monkeypatch, FeaturePool(tuple(range(30))), X, y, cfg)
        assert int(res.best.genes.sum()) == 0

    def test_full_width_pool_identical(self, monkeypatch):
        # k = 672 spans more than one BLAS panel of the distance matmul
        X, y, _ = planted_problem(6, n_features=FEATURE_COUNT, n_informative=10)
        cfg = GaConfig(population_size=16, max_generations=8, rng_seed=6)
        ga_against_oracle(monkeypatch, FeaturePool(tuple(range(FEATURE_COUNT))), X, y, cfg)

    def test_evaluation_budget_stop_identical(self, monkeypatch):
        X, y, _ = planted_problem(3)
        cfg = GaConfig(population_size=10, max_generations=50, max_evaluations=25, rng_seed=5)
        res = ga_against_oracle(monkeypatch, FeaturePool(tuple(range(100))), X, y, cfg)
        assert len(res.history) < 51

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
