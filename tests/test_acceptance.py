"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured result (run with -s to see them live)."""

import math
import time

import numpy as np
import pytest

from irisfuse.euler import CovarianceModel, euler_number, mahalanobis
from irisfuse.evaluation import compute_metrics, report_csv, run_trials
from irisfuse.fusion import ALGORITHMS, FusionPolicy, ScoreRange, decide, fuse, normalize
from irisfuse.gasel import FeaturePool, GaConfig, ga_select, roulette_select
from irisfuse.normalization import POLAR_HEIGHT, POLAR_WIDTH, rubber_sheet
from irisfuse.segmentation import Circle, SegmentationConfig, locate_pupil_and_iris
from irisfuse.store import GalleryFormatError, empty_gallery, enroll, load, save
from irisfuse.synth import SynthEyeSpec, build_corpus, rotated, synth_eye
from irisfuse.zerocross import ZeroCrossTemplate, dyadic_wavelet_1d, match, shifted

from oracles import flood_fill_euler, planted_problem

ACCEPTANCE_CORPUS_SEED = 2026


def test_c01_euler_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    for _ in range(1000):
        bits = (rng.random((32, 32)) < rng.uniform(0.15, 0.85)).astype(np.uint8)
        assert euler_number(bits) == flood_fill_euler(bits)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"PASS criterion 1: euler_number == flood-fill oracle on 1000 images ({elapsed:.1f}s)")


def test_c02_segmentation_accuracy_across_ratio_span():
    rng = np.random.default_rng(202)
    cfg = SegmentationConfig()
    n = 200
    hits = 0
    start = time.monotonic()
    for k in range(n):
        ratio = 0.10 + 0.70 * k / (n - 1)
        iris_r = rng.uniform(64.0, 74.0)
        spec = SynthEyeSpec(
            width=256, height=192,
            pupil=Circle(128 + rng.uniform(-2, 2), 96 + rng.uniform(-2, 2), ratio * iris_r),
            iris=Circle(128.0, 96.0, iris_r),
            texture_seed=int(rng.integers(1 << 30)),
            eyelid_coverage=float(rng.uniform(0.0, 0.2)),
            specular_spots=int(rng.integers(0, 2)),
            noise_sigma=1.0,
            noise_seed=k,
        )
        img, truth = synth_eye(spec)
        try:
            pupil, iris = locate_pupil_and_iris(img, cfg)
        except Exception:
            continue
        if (
            abs(pupil.cx - truth.pupil.cx) <= 2 and abs(pupil.cy - truth.pupil.cy) <= 2
            and abs(pupil.r - truth.pupil.r) <= 2
            and abs(iris.cx - truth.iris.cx) <= 2 and abs(iris.cy - truth.iris.cy) <= 2
            and abs(iris.r - truth.iris.r) <= 2
        ):
            hits += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    assert hits >= 0.95 * n
    print(f"PASS criterion 2: {hits}/{n} eyes within 2 px over ratio 0.10-0.80 ({elapsed:.1f}s)")


def test_c03_normalization_shape_and_rotation_covariance():
    geometries = [
        (Circle(128.0, 96.0, 24.0), Circle(128.0, 96.0, 70.0)),
        (Circle(130.0, 95.0, 12.0), Circle(128.0, 96.0, 66.0)),   # non-concentric
        (Circle(128.0, 96.0, 52.0), Circle(128.0, 96.0, 66.0)),   # thin annulus
    ]
    for seed, (pupil, iris) in enumerate(geometries):
        spec = SynthEyeSpec(width=256, height=192, pupil=pupil, iris=iris, texture_seed=seed)
        img, truth = synth_eye(spec)
        polar, _ = rubber_sheet(img, truth)
        assert polar.shape == (POLAR_HEIGHT, POLAR_WIDTH) == (96, 448)

    spec = SynthEyeSpec(
        width=256, height=192,
        pupil=Circle(128.0, 96.0, 26.0), iris=Circle(128.0, 96.0, 72.0), texture_seed=31,
    )
    base, base_mask = rubber_sheet(*synth_eye(spec))
    turned, turned_mask = rubber_sheet(*synth_eye(rotated(spec, math.radians(4.0))))
    shift = round(POLAR_WIDTH * 4.0 / 360.0)
    assert shift == 5
    rolled = np.roll(base.astype(float), shift, axis=1)
    rolled_mask = np.roll(base_mask, shift, axis=1)
    both = (rolled_mask == 0) & (turned_mask == 0)
    mad = float(np.abs(rolled[both] - turned.astype(float)[both]).mean())
    assert mad <= 3.0
    print(f"PASS criterion 3: polar output 448x96; 4-degree rotation = 5-column shift (MAD {mad:.2f})")


def test_c04_wavelet_sanity():
    for s in (1, 2, 4, 8):
        assert np.max(np.abs(dyadic_wavelet_1d(np.full(64, 9.0), s))) < 1e-9
    ramp = np.arange(128, dtype=np.float64)
    assert np.max(np.abs(dyadic_wavelet_1d(ramp, 4)[20:-20])) < 1e-9

    x = np.arange(POLAR_WIDTH)
    sine = np.sin(2 * np.pi * x / POLAR_WIDTH)
    out = dyadic_wavelet_1d(sine, 2)
    bits = out >= 0
    crossings = int(np.count_nonzero(bits != np.roll(bits, 1)))
    assert crossings == 2

    rng = np.random.default_rng(404)
    f, g = rng.normal(size=96), rng.normal(size=96)
    lhs = dyadic_wavelet_1d(3.0 * f - 2.0 * g, 4)
    rhs = 3.0 * dyadic_wavelet_1d(f, 4) - 2.0 * dyadic_wavelet_1d(g, 4)
    assert np.max(np.abs(lhs - rhs)) < 1e-9
    print("PASS criterion 4: wavelet annihilates constants/linears, sine has 2 crossings, linear to 1e-9")


def test_c05_matching_identities():
    rng = np.random.default_rng(505)

    def random_template():
        bits = rng.integers(0, 2, size=(2, POLAR_HEIGHT, POLAR_WIDTH), dtype=np.uint8)
        return ZeroCrossTemplate(bits, np.zeros((POLAR_HEIGHT, POLAR_WIDTH), np.uint8))

    t = random_template()
    assert match(t, t) == 0.0
    comp = ZeroCrossTemplate(1 - t.bits, t.mask)
    assert match(t, comp, max_shift=0) == 1.0
    for k in (-8, -3, 5, 8):
        assert match(t, shifted(t, k), max_shift=8) == 0.0

    start = time.monotonic()
    dists = [match(random_template(), random_template()) for _ in range(1000)]
    mean = float(np.mean(dists))
    elapsed = time.monotonic() - start
    assert 0.48 <= mean <= 0.52
    print(f"PASS criterion 5: self 0, complement 1, shifts 0; 1000 random pairs mean {mean:.4f} ({elapsed:.0f}s)")


def test_c06_mahalanobis_oracle():
    rng = np.random.default_rng(606)
    identity = CovarianceModel(np.eye(4), 1.0)
    for _ in range(50):
        x = rng.integers(-30, 30, 4)
        y = rng.integers(-30, 30, 4)
        euclid = float(np.linalg.norm((x - y).astype(np.float64)))
        assert abs(mahalanobis(x, y, identity) - euclid) < 1e-9

    damped = CovarianceModel(np.diag([4.0, 1.0, 1.0, 1.0]), 1.0)
    assert mahalanobis(np.array([2, 0, 0, 0]), np.array([0, 0, 0, 0]), damped) == pytest.approx(1.0, abs=1e-12)

    for _ in range(30):
        a = rng.normal(size=(4, 4))
        S = a @ a.T + 0.3 * np.eye(4)
        model = CovarianceModel(S, 0.3)
        x = rng.integers(-30, 30, 4)
        y = rng.integers(-30, 30, 4)
        L = np.linalg.cholesky(S)
        whitened = float(np.linalg.norm(np.linalg.solve(L, (x - y).astype(np.float64))))
        assert abs(mahalanobis(x, y, model) - whitened) < 1e-9
    print("PASS criterion 6: Mahalanobis matches Euclidean, hand-solved, and whitened oracles to 1e-9")


def test_c07_roulette_fidelity():
    rng = np.random.default_rng(707)
    draws = np.array([roulette_select([1.0, 3.0], rng) for _ in range(100_000)])
    freq = np.bincount(draws, minlength=2) / len(draws)
    assert abs(freq[0] - 0.25) <= 0.02
    assert abs(freq[1] - 0.75) <= 0.02

    uniform = np.full(5, 2.0)
    draws = np.array([roulette_select(uniform, rng) for _ in range(100_000)])
    freq_u = np.bincount(draws, minlength=5) / len(draws)
    assert np.max(np.abs(freq_u - 0.2)) <= 0.02
    print(f"PASS criterion 7: roulette frequencies (1,3) -> {freq.round(3)}, uniform max dev {np.max(np.abs(freq_u - 0.2)):.4f}")


def test_c08_ga_planted_subset_recovery():
    pool = FeaturePool(tuple(range(100)))
    recovered = 0
    start = time.monotonic()
    for seed in range(100):
        X, y, informative = planted_problem(seed)
        cfg = GaConfig(
            population_size=40, max_generations=200, stall_generations=30,
            p_n=0.3, n_flip=2, weights=(1.0, 0.5, 0.5, 0.05), rng_seed=seed,
        )
        result = ga_select(pool, X, y, cfg)
        history = np.asarray(result.history)
        assert np.all(np.diff(history) <= 0)  # elitism keeps best cost non-increasing
        chosen = set(int(i) for i in result.best.selected(pool))
        recovered += len(informative & chosen) >= 8
    elapsed = time.monotonic() - start
    assert elapsed < 180.0
    assert recovered >= 90
    print(f"PASS criterion 8: {recovered}/100 seeds recovered >=8/10 planted features ({elapsed:.0f}s)")


def test_c09_fusion_chain():
    assert normalize(50.0, ScoreRange(0.0, 100.0)) == 0.5  # 1 - 50 / 100

    rng = np.random.default_rng(909)
    for _ in range(200):
        a, b, c = rng.random(3)
        scores = dict(zip(ALGORITHMS, (a, b, c)))
        lo = fuse(scores, FusionPolicy("min"))
        mid = fuse(scores, FusionPolicy("sum-average"))
        hi = fuse(scores, FusionPolicy("max"))
        assert lo <= mid <= hi

    assert decide(0.6, 0.6).accepted      # boundary inclusive
    assert not decide(0.5999999, 0.6).accepted
    assert decide(0.6, 0.6).bit == 0
    assert decide(0.59, 0.6).bit == 1
    print("PASS criterion 9: normalize(50,[0,100])=0.5, min<=avg<=max, boundary-inclusive decision")


def test_c10_end_to_end_separation():
    start = time.monotonic()
    corpus = build_corpus(50, 4, master_seed=ACCEPTANCE_CORPUS_SEED)
    outcome = run_trials(corpus)
    assert len(outcome.fused.genuine) == 50 * 6       # 50 identities x C(4,2)
    assert len(outcome.fused.imposter) == 10 * 50 * 6  # deterministic 10x cap
    eers = {}
    csvs = {}
    for name, trials in {**outcome.per_algorithm, "fused": outcome.fused}.items():
        report = compute_metrics(trials)
        eers[name] = report.eer
        csvs[name] = report_csv(report)
        assert trials.genuine.mean() > trials.imposter.mean(), name
    elapsed = time.monotonic() - start
    assert elapsed < 300.0

    singles = {k: v for k, v in eers.items() if k != "fused"}
    for name, eer in singles.items():
        assert eer < 0.25, f"{name} EER {eer}"
    assert eers["fused"] <= max(singles.values())

    # deterministic rerun: regenerate the corpus and trials from the seed
    corpus2 = build_corpus(50, 4, master_seed=ACCEPTANCE_CORPUS_SEED)
    outcome2 = run_trials(corpus2)
    for name, trials in {**outcome2.per_algorithm, "fused": outcome2.fused}.items():
        assert report_csv(compute_metrics(trials)) == csvs[name]

    summary = ", ".join(f"{k} {v:.4f}" for k, v in eers.items())
    print(f"PASS criterion 10: EERs {summary}; byte-identical rerun ({elapsed:.0f}s)")


def test_c11_persistence(tmp_path):
    corpus = build_corpus(3, 2, master_seed=77)
    gallery = empty_gallery()
    for ident in range(3):
        samples = [r.image for r in corpus.records if r.identity == ident]
        gallery = enroll(gallery, f"id-{ident}", samples)

    p1 = tmp_path / "g1.irf"
    p2 = tmp_path / "g2.irf"
    save(gallery, p1)
    back = load(p1)
    assert back.identities == gallery.identities
    for a, b in zip(gallery.table.templates, back.table.templates):
        assert np.array_equal(a.bits, b.bits)
        assert np.array_equal(a.mask, b.mask)
    for column in ("euler", "values", "valid"):
        assert np.array_equal(getattr(gallery.table, column), getattr(back.table, column))
    save(back, p2)
    assert p1.read_bytes() == p2.read_bytes()

    data = bytearray(p1.read_bytes())
    rng = np.random.default_rng(11)
    for _ in range(10):
        pos = int(rng.integers(4, len(data) - 4))
        orig = data[pos]
        data[pos] ^= 0x10
        p1.write_bytes(bytes(data))
        with pytest.raises(GalleryFormatError):
            load(p1)
        data[pos] = orig
    print("PASS criterion 11: gallery round trip field-identical, re-save byte-identical, corruption detected")
