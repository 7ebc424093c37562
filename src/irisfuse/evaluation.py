"""Genuine/imposter verification trials and FAR/FRR/EER metrics.

``run_trials`` pushes every corpus image through the full pipeline, scores
all same-identity pairs and a deterministic subsample of cross-identity
pairs with each of the three matchers, normalizes everything onto the
common similarity scale, and fuses, one whole score array at a time.
``compute_metrics`` sweeps a threshold grid to produce FAR/FRR curves, the
equal error rate, and ROC points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .euler import calibrated_covariance, common_mask, euler_code, mahalanobis
from .fusion import ALGORITHMS, FusionPolicy, ScoreRange, fuse, normalize_distances
from .gasel import Chromosome, FeaturePool, default_selection, match_subset
from .imaging import GrayImage
from .pipeline import PipelineConfig, process_images
from .synth import Corpus
from .zerocross import match as zc_match

IMPOSTER_CAP_FACTOR = 10
MAX_FAILURE_RATE = 0.20

_PAIR_SAMPLING_SALT = 0x9E3779B9


@dataclass(frozen=True)
class TrialSet:
    """Similarity-oriented genuine and imposter score collections."""

    genuine: np.ndarray
    imposter: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.genuine, dtype=np.float64)
        i = np.asarray(self.imposter, dtype=np.float64)
        g.setflags(write=False)
        i.setflags(write=False)
        object.__setattr__(self, "genuine", g)
        object.__setattr__(self, "imposter", i)


@dataclass(frozen=True)
class EvalReport:
    thresholds: np.ndarray
    far: np.ndarray
    frr: np.ndarray
    eer: float
    eer_threshold: float

    @property
    def roc(self) -> np.ndarray:
        """(FAR, 1 - FRR) pairs along the threshold sweep."""
        return np.column_stack([self.far, 1.0 - self.frr])


@dataclass(frozen=True)
class TrialOutcome:
    per_algorithm: dict[str, TrialSet]
    fused: TrialSet
    score_ranges: dict[str, ScoreRange]
    processed: int
    failures: int


def run_trials(
    corpus: Corpus,
    pipeline: PipelineConfig | None = None,
    policy: FusionPolicy | None = None,
    selection: tuple[FeaturePool, Chromosome] | None = None,
) -> TrialOutcome:
    """Score genuine and imposter verification pairs over a corpus.

    Imposter pairs are a seed-deterministic subsample capped at 10x the
    genuine count.  Aborts when more than 20% of the images fail
    segmentation.
    """
    pipeline = pipeline or PipelineConfig()
    policy = policy or FusionPolicy()
    pool, chromosome = selection or default_selection()

    features, kept = process_images([r.image for r in corpus.records], pipeline)
    identities = [corpus.records[k].identity for k in kept]
    total = len(corpus.records)
    failures = total - len(kept)
    if total == 0:
        raise ValueError("empty corpus")
    if failures > MAX_FAILURE_RATE * total:
        raise RuntimeError(
            f"segmentation failed on {failures}/{total} images "
            f"(> {MAX_FAILURE_RATE:.0%}); corpus or configuration is unusable"
        )
    if len(set(identities)) < 2:
        raise ValueError("need at least 2 successfully processed identities")

    ids = np.asarray(identities)
    n = len(ids)
    iu, ju = np.triu_indices(n, k=1)
    same = ids[iu] == ids[ju]
    genuine_pairs = list(zip(iu[same], ju[same]))
    cross_pairs = list(zip(iu[~same], ju[~same]))
    cap = IMPOSTER_CAP_FACTOR * len(genuine_pairs)
    if len(cross_pairs) > cap:
        rng = np.random.default_rng((corpus.master_seed, _PAIR_SAMPLING_SALT))
        keep = np.sort(rng.choice(len(cross_pairs), size=cap, replace=False))
        cross_pairs = [cross_pairs[k] for k in keep]

    model = calibrated_covariance([f.own_code for f in features])

    def distances(pairs):
        zc = np.empty(len(pairs))
        eu = np.empty(len(pairs))
        ga = np.empty(len(pairs))
        for p, (i, j) in enumerate(pairs):
            a, b = features[i], features[j]
            zc[p] = zc_match(a.template, b.template, pipeline.max_shift)
            cm = common_mask(a.polar.mask, b.polar.mask)
            eu[p] = mahalanobis(euler_code(a.polar, cm), euler_code(b.polar, cm), model)
            ga[p] = match_subset(a.raw, b.raw, chromosome, pool)
        return {"zerocross": zc, "euler": eu, "gasel": ga}

    raw_genuine = distances(genuine_pairs)
    raw_imposter = distances(cross_pairs)

    # score ranges calibrated from the observed trial population, so the
    # normalized similarities use the full [0, 1] scale for every matcher
    ranges = {}
    for algo in ALGORITHMS:
        both = np.concatenate([raw_genuine[algo], raw_imposter[algo]])
        lo, hi = float(both.min()), float(both.max())
        if hi <= lo:
            hi = lo + 1.0
        ranges[algo] = ScoreRange(algo, lo, hi)

    genuine = normalize_distances(raw_genuine, ranges)
    imposter = normalize_distances(raw_imposter, ranges)
    per_algorithm = {g.algorithm: TrialSet(g.value, i.value) for g, i in zip(genuine, imposter)}
    fused = TrialSet(fuse(genuine, policy), fuse(imposter, policy))
    return TrialOutcome(per_algorithm, fused, ranges, n, failures)


def compute_metrics(trials: TrialSet, threshold_count: int = 201) -> EvalReport:
    """FAR/FRR curves over an even threshold grid and the equal error rate.

    FAR(t) counts imposter scores >= t, FRR(t) genuine scores < t; the EER
    is the midpoint of the two rates at the threshold minimizing their gap
    (first such threshold on ties).
    """
    genuine = np.sort(np.asarray(trials.genuine, dtype=np.float64))
    imposter = np.sort(np.asarray(trials.imposter, dtype=np.float64))
    if len(genuine) == 0 or len(imposter) == 0:
        raise ValueError("both genuine and imposter score lists must be nonempty")
    if threshold_count < 2:
        raise ValueError("need at least 2 thresholds")

    thresholds = np.linspace(0.0, 1.0, threshold_count)
    far = 1.0 - np.searchsorted(imposter, thresholds, side="left") / len(imposter)
    frr = np.searchsorted(genuine, thresholds, side="left") / len(genuine)
    best = int(np.argmin(np.abs(far - frr)))
    eer = float((far[best] + frr[best]) / 2.0)
    return EvalReport(thresholds, far, frr, eer, float(thresholds[best]))


def report_csv(report: EvalReport) -> str:
    """CSV rows (threshold, FAR, FRR) with the EER in a trailing comment."""
    lines = ["threshold,far,frr"]
    for t, fa, fr in zip(report.thresholds, report.far, report.frr):
        lines.append(f"{t:.6f},{fa:.6f},{fr:.6f}")
    lines.append(f"# EER {report.eer:.6f} at threshold {report.eer_threshold:.6f}")
    return "\n".join(lines) + "\n"


def roc_pgm(report: EvalReport, size: int = 256) -> GrayImage:
    """ROC scatter plot as a grayscale raster: FAR right, true-accept up."""
    canvas = np.full((size, size), 255, dtype=np.uint8)
    canvas[0, :] = canvas[-1, :] = canvas[:, 0] = canvas[:, -1] = 128
    for fa, tpr in report.roc:
        x = int(round(fa * (size - 1)))
        y = int(round((1.0 - tpr) * (size - 1)))
        canvas[max(y - 1, 0) : y + 2, max(x - 1, 0) : x + 2] = 0
    return GrayImage(canvas)
