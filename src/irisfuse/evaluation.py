"""Genuine/imposter verification trials and FAR/FRR/EER metrics.

``run_trials`` pushes every corpus image through the full pipeline and
scores one list of pairs (all same-identity pairs, then a deterministic
subsample of cross-identity pairs) with each matcher's pair-list kernel;
the score ranges are ``fit_ranges`` of those trials, and normalization and
fusion work on whole score arrays.
``compute_metrics`` sweeps a threshold grid to produce FAR/FRR curves, the
equal error rate, and ROC points from ``error_rates``, which gives FAR and
FRR at any threshold under ``decide``'s inclusive rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gasel, zerocross
from .euler import calibrated_covariance, mahalanobis_rows, pair_codes
from .fusion import FusionPolicy, fit_ranges, fuse, normalize_distances
from .gasel import Chromosome, FeaturePool, default_selection
from .imaging import GrayImage
from .normalization import comparable
from .pipeline import PipelineConfig, process_images
from .synth import Corpus

IMPOSTER_CAP_FACTOR = 10
MAX_FAILURE_RATE = 0.20

_PAIR_SAMPLING_SALT = 0x9E3779B9


@dataclass(frozen=True)
class TrialSet:
    """Similarity-oriented genuine and imposter score collections."""

    genuine: np.ndarray
    imposter: np.ndarray

    def __post_init__(self):
        for name in ("genuine", "imposter"):
            scores = np.asarray(getattr(self, name), dtype=np.float64)
            scores.setflags(write=False)
            object.__setattr__(self, name, scores)


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
    ids = np.asarray([corpus.records[k].identity for k in kept])
    total = len(corpus.records)
    failures = total - len(kept)
    if total == 0:
        raise ValueError("empty corpus")
    if failures > MAX_FAILURE_RATE * total:
        raise RuntimeError(
            f"segmentation failed on {failures}/{total} images "
            f"(> {MAX_FAILURE_RATE:.0%}); corpus or configuration is unusable"
        )
    if len(set(ids)) < 2:
        raise ValueError("need at least 2 successfully processed identities")

    iu, ju = np.triu_indices(len(ids), k=1)
    same = ids[iu] == ids[ju]
    if not same.any():
        raise ValueError("no genuine pair: no identity kept two processed images")
    genuine = np.flatnonzero(same)
    cross = np.flatnonzero(~same)
    cap = IMPOSTER_CAP_FACTOR * len(genuine)
    if len(cross) > cap:
        rng = np.random.default_rng((corpus.master_seed, _PAIR_SAMPLING_SALT))
        cross = cross[np.sort(rng.choice(len(cross), size=cap, replace=False))]
    order = np.concatenate([genuine, cross])
    first, second = iu[order], ju[order]

    model = calibrated_covariance([f.own_code for f in features])
    codes = np.array([pair_codes(features[i].polar, features[j].polar) for i, j in zip(first, second)])
    zc = zerocross.match_pairs([f.template for f in features], first, second, pipeline.max_shift)
    blocks = gasel.match_pairs([f.raw for f in features], first, second, chromosome, pool)
    raw = {"zerocross": comparable(zc, zerocross.INCOMPARABLE),
           "euler": mahalanobis_rows(codes[:, 0] - codes[:, 1], model),
           "gasel": comparable(blocks, gasel.INCOMPARABLE)}
    scores = normalize_distances(raw, fit_ranges(raw))  # each matcher spans [0, 1] over the trials
    fused = fuse(scores, policy)
    g = len(genuine)
    per_algorithm = {a: TrialSet(s[:g], s[g:]) for a, s in scores.items()}
    return TrialOutcome(per_algorithm, TrialSet(fused[:g], fused[g:]), len(ids), failures)


def error_rates(trials: TrialSet, thresholds):
    """FAR (imposter scores >= t) and FRR (genuine scores < t) at a threshold or array of them."""
    genuine = np.sort(trials.genuine)
    imposter = np.sort(trials.imposter)
    if len(genuine) == 0 or len(imposter) == 0:
        raise ValueError("both genuine and imposter score lists must be nonempty")
    far = 1.0 - np.searchsorted(imposter, thresholds, side="left") / len(imposter)
    frr = np.searchsorted(genuine, thresholds, side="left") / len(genuine)
    return far, frr


def compute_metrics(trials: TrialSet, threshold_count: int = 201) -> EvalReport:
    """FAR/FRR curves over an even threshold grid and the equal error rate.

    The EER is the midpoint of the two ``error_rates`` at the threshold
    minimizing their gap (first such threshold on ties).
    """
    if threshold_count < 2:
        raise ValueError("need at least 2 thresholds")
    thresholds = np.linspace(0.0, 1.0, threshold_count)
    far, frr = error_rates(trials, thresholds)
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
