import numpy as np
import pytest

from irisfuse.euler import calibrated_covariance, common_mask, euler_code, mahalanobis
from irisfuse.evaluation import (
    TrialSet,
    compute_metrics,
    default_selection,
    error_rates,
    report_csv,
    roc_pgm,
    run_trials,
)
from irisfuse.fusion import ALGORITHMS, FUSION_RULES, FusionPolicy, ScoreRange, decide, fuse, normalize_distances
from irisfuse.gasel import Chromosome, FeaturePool, match_subset
from irisfuse.imaging import GrayImage
from irisfuse.normalization import IncomparableError
from irisfuse.pipeline import process_images
from irisfuse.segmentation import SegmentationConfig
from irisfuse.synth import Corpus, CorpusRecord, build_corpus
from irisfuse.zerocross import match as zc_match

from oracles import brute_force_eer


class TestComputeMetrics:
    def test_perfect_separation(self):
        ts = TrialSet(np.full(10, 0.9), np.full(10, 0.1))
        assert compute_metrics(ts).eer == 0.0

    def test_identical_distributions(self):
        scores = np.linspace(0.1, 0.9, 50)
        ts = TrialSet(scores, scores)
        assert compute_metrics(ts).eer == pytest.approx(0.5, abs=0.02)

    def test_small_worked_case_matches_oracle(self):
        gen, imp = [0.8, 0.6], [0.7, 0.3]
        oracle = brute_force_eer(gen, imp)
        got = compute_metrics(TrialSet(np.array(gen), np.array(imp))).eer
        assert got == pytest.approx(oracle, abs=1e-12)
        assert oracle == 0.5  # frozen from the sweep above

    def test_matches_oracle_on_random_sets(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            gen = rng.beta(5, 2, size=40)
            imp = rng.beta(2, 5, size=60)
            ts = TrialSet(gen, imp)
            got = compute_metrics(ts, threshold_count=4001).eer
            assert got == pytest.approx(brute_force_eer(gen, imp), abs=0.01)

    def test_curves_monotone(self):
        rng = np.random.default_rng(5)
        ts = TrialSet(rng.beta(6, 2, 100), rng.beta(2, 6, 150))
        rep = compute_metrics(ts)
        assert np.all(np.diff(rep.far) <= 1e-12)
        assert np.all(np.diff(rep.frr) >= -1e-12)
        assert np.all((rep.far >= 0) & (rep.far <= 1))
        assert np.all((rep.frr >= 0) & (rep.frr <= 1))

    def test_rank_invariance_under_monotone_transform(self):
        rng = np.random.default_rng(6)
        gen = rng.beta(6, 2, 200)
        imp = rng.beta(2, 6, 300)
        a = compute_metrics(TrialSet(gen, imp), threshold_count=2001).eer
        b = compute_metrics(TrialSet(gen**3, imp**3), threshold_count=2001).eer
        assert a == pytest.approx(b, abs=0.01)

    def test_roc_points_track_threshold(self):
        rng = np.random.default_rng(7)
        rep = compute_metrics(TrialSet(rng.beta(6, 2, 80), rng.beta(2, 6, 80)))
        roc = rep.roc
        assert roc.shape[1] == 2
        assert np.all(np.diff(roc[:, 0]) <= 1e-12)  # FAR falls as threshold rises

    def test_empty_scores_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics(TrialSet(np.array([]), np.array([0.5])))

    def test_rates_at_one_threshold_equal_the_grid_curves(self):
        # scores on the grid itself exercise the inclusive boundary
        rng = np.random.default_rng(8)
        grid = np.linspace(0.0, 1.0, 201)
        ts = TrialSet(np.concatenate([rng.beta(6, 2, 70), rng.choice(grid, 30)]),
                      np.concatenate([rng.beta(2, 6, 90), rng.choice(grid, 30)]))
        rep = compute_metrics(ts)
        for k in (0, 1, 84, 100, 137, 200):
            t = float(rep.thresholds[k])
            far, frr = error_rates(ts, t)
            assert (far, frr) == (rep.far[k], rep.frr[k])
            assert far == pytest.approx(np.mean([decide(s, t).accepted for s in ts.imposter]), abs=1e-12)
            assert frr == pytest.approx(np.mean([not decide(s, t).accepted for s in ts.genuine]), abs=1e-12)


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(5, 4, master_seed=21)


@pytest.fixture(scope="module")
def outcome(corpus):
    return run_trials(corpus)


class TestRunTrials:

    def test_pair_counts(self, outcome):
        # 5 identities x C(4,2) genuine; 160 cross pairs, under the 10x cap
        assert len(outcome.fused.genuine) == 30
        assert len(outcome.fused.imposter) == 160
        for ts in outcome.per_algorithm.values():
            assert len(ts.genuine) == 30
            assert len(ts.imposter) == 160

    def test_deterministic(self, corpus, outcome):
        again = run_trials(corpus)
        for algo, ts in outcome.per_algorithm.items():
            assert np.array_equal(ts.genuine, again.per_algorithm[algo].genuine)
            assert np.array_equal(ts.imposter, again.per_algorithm[algo].imposter)
        assert np.array_equal(outcome.fused.genuine, again.fused.genuine)

    def test_genuine_scores_higher_on_average(self, outcome):
        for algo, ts in outcome.per_algorithm.items():
            assert ts.genuine.mean() > ts.imposter.mean(), algo
        assert outcome.fused.genuine.mean() > outcome.fused.imposter.mean()

    def test_scores_in_unit_interval(self, outcome):
        for ts in [*outcome.per_algorithm.values(), outcome.fused]:
            for arr in (ts.genuine, ts.imposter):
                assert np.all((arr >= 0) & (arr <= 1))

    def test_matches_one_pair_matchers(self, corpus, outcome):
        # all 160 cross pairs are under the cap, so the pairs are every
        # same-identity pair, then every cross pair, each in triu order
        table, kept = process_images([r.image for r in corpus.records], SegmentationConfig())
        assert len(kept) == len(corpus.records)
        ids = [r.identity for r in corpus.records]
        pairs = [(i, j) for i in range(len(ids)) for j in range(i + 1, len(ids))]
        pairs = [p for p in pairs if ids[p[0]] == ids[p[1]]] + [p for p in pairs if ids[p[0]] != ids[p[1]]]
        model = calibrated_covariance(table.euler)
        pool, chromosome = default_selection()
        raw = {algo: np.empty(len(pairs)) for algo in ALGORITHMS}
        for k, (i, j) in enumerate(pairs):
            a, b = table.templates[i], table.templates[j]
            cm = common_mask(a.mask, b.mask)
            raw["zerocross"][k] = zc_match(a, b)
            raw["euler"][k] = mahalanobis(euler_code(table.polar[i], cm),
                                          euler_code(table.polar[j], cm), model)
            raw["gasel"][k] = match_subset(table.values[[i, j]], table.valid[[i, j]], chromosome, pool)
        ranges = {a: ScoreRange(raw[a].min(), raw[a].max()) for a in ALGORITHMS}
        scores = normalize_distances(raw, ranges)
        want = scores | {"fused": fuse(scores, FusionPolicy())}
        got = {a: outcome.per_algorithm[a] for a in ALGORITHMS} | {"fused": outcome.fused}
        for name, trials in got.items():
            assert np.array_equal(np.concatenate([trials.genuine, trials.imposter]), want[name]), name

    @pytest.mark.parametrize("rule", FUSION_RULES)
    def test_fused_stream_is_the_fusion_of_its_own_streams(self, corpus, rule):
        policy = FusionPolicy(rule, weights=(0.5, 0.25, 0.25) if rule == "weighted" else None)
        got = run_trials(corpus, policy=policy)
        streams = {a: np.concatenate([t.genuine, t.imposter]) for a, t in got.per_algorithm.items()}
        fused = np.concatenate([got.fused.genuine, got.fused.imposter])
        assert fused.tobytes() == fuse(streams, policy).tobytes()

    def test_pair_with_no_jointly_valid_feature_raises(self, corpus):
        table, _ = process_images([r.image for r in corpus.records], SegmentationConfig())
        valid = table.valid
        block = int(np.flatnonzero(~valid.all(axis=0))[0])  # masked in some image
        selection = (FeaturePool((block,)), Chromosome(np.ones(1, dtype=np.uint8)))
        with pytest.raises(IncomparableError, match="no jointly valid features"):
            run_trials(corpus, selection=selection)

    def test_no_genuine_pair_is_a_plain_error(self):
        with pytest.raises(ValueError, match="no genuine pair: no identity kept two processed images"):
            run_trials(build_corpus(3, 1, 2026))

    def test_abort_on_mass_segmentation_failure(self):
        blank = GrayImage(np.full((192, 256), 127, dtype=np.uint8))
        records = tuple(
            CorpusRecord(identity=i, sample=s, spec=None, image=blank, truth=None)
            for i in range(2)
            for s in range(2)
        )
        with pytest.raises(RuntimeError, match="segmentation failed"):
            run_trials(Corpus(0, records))


class TestReportOutputs:
    def test_csv_shape_and_trailer(self):
        ts = TrialSet(np.array([0.9, 0.8]), np.array([0.2, 0.1]))
        rep = compute_metrics(ts, threshold_count=11)
        text = report_csv(rep)
        lines = text.strip().split("\n")
        assert lines[0] == "threshold,far,frr"
        assert len(lines) == 1 + 11 + 1
        assert lines[-1].startswith("# EER ")

    def test_roc_pgm_has_points(self):
        ts = TrialSet(np.array([0.9, 0.8]), np.array([0.2, 0.1]))
        img = roc_pgm(compute_metrics(ts))
        assert img.width == img.height == 256
        assert (img.pixels == 0).sum() > 0

    def test_default_selection_covers_all_features(self):
        pool, chromo = default_selection()
        assert len(pool) == 672
        assert int(chromo.genes.sum()) == 672
