"""Score normalization, rule-based fusion, and the accept/reject decision.

Raw matcher outputs have mixed polarity (Hamming and Mahalanobis are
distances, smaller = better), so every score is first mapped onto a common
[0, 1] similarity scale via clamped min-max normalization with a polarity
flip for distances.  Fusion then combines the three per-algorithm scores
with a simple rule; the final decision accepts when the fused score reaches
the threshold (boundary inclusive).  ``normalize`` and ``fuse`` take a scalar
score or a whole array of scores per algorithm and apply the same
element-wise arithmetic to either.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ALGORITHMS = ("zerocross", "euler", "gasel")
FUSION_RULES = ("sum-average", "min", "max", "weighted")
POLARITIES = ("distance", "similarity")


@dataclass(frozen=True)
class MatchScore:
    algorithm: str
    raw: float | np.ndarray
    polarity: str

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.polarity not in POLARITIES:
            raise ValueError(f"polarity must be one of {POLARITIES}")
        if not np.all(np.isfinite(self.raw)):
            raise ValueError("raw score must be finite")


@dataclass(frozen=True)
class ScoreRange:
    algorithm: str
    min: float
    max: float

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if not (self.min < self.max):
            raise ValueError(f"score range needs min < max, got [{self.min}, {self.max}]")


@dataclass(frozen=True)
class NormalizedScore:
    algorithm: str
    value: float | np.ndarray

    def __post_init__(self):
        if not np.all((self.value >= 0.0) & (self.value <= 1.0)):
            raise ValueError(f"normalized score {self.value} outside [0, 1]")


DEFAULT_THRESHOLD = 0.42


@dataclass(frozen=True)
class FusionPolicy:
    rule: str = "sum-average"
    weights: tuple[float, float, float] | None = None
    threshold: float = DEFAULT_THRESHOLD

    def __post_init__(self):
        if self.rule not in FUSION_RULES:
            raise ValueError(f"unknown fusion rule {self.rule!r}")
        if (self.rule == "weighted") != (self.weights is not None):
            raise ValueError("weights must be present exactly when rule is 'weighted'")
        if self.weights is not None:
            w = tuple(float(x) for x in self.weights)
            if len(w) != 3 or any(x < 0 for x in w) or not abs(sum(w) - 1.0) <= 1e-9:
                raise ValueError("weights must be 3 nonnegative reals summing to 1")
            object.__setattr__(self, "weights", w)
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold {self.threshold} outside [0, 1]")


@dataclass(frozen=True)
class Decision:
    accepted: bool
    fused: float

    @property
    def bit(self) -> int:
        """0 for an intra-class (accept) outcome, 1 for inter-class (reject)."""
        return 0 if self.accepted else 1


def fit_ranges(raw: dict) -> dict[str, ScoreRange]:
    """Min-max range of each algorithm's distances (Jain, Nandakumar & Ross, 2005).

    The range is [nanmin, nanmax], so an incomparable pair (NaN) adds no
    evidence; a range that collapses to a point widens to [lo, lo + 1].
    """
    bounds = {a: (float(np.nanmin(raw[a])), float(np.nanmax(raw[a]))) for a in ALGORITHMS}
    return {a: ScoreRange(a, lo, hi if hi > lo else lo + 1.0) for a, (lo, hi) in bounds.items()}


def normalize(score: MatchScore, score_range: ScoreRange) -> NormalizedScore:
    """Clamped min-max mapping onto [0, 1], flipped so higher = more genuine."""
    if score.algorithm != score_range.algorithm:
        raise ValueError(
            f"score is for {score.algorithm!r} but range is for {score_range.algorithm!r}"
        )
    s = np.clip((score.raw - score_range.min) / (score_range.max - score_range.min), 0.0, 1.0)
    if score.polarity == "distance":
        s = 1.0 - s
    return NormalizedScore(score.algorithm, s)


def normalize_distances(raw: dict, ranges: dict[str, ScoreRange]) -> list[NormalizedScore]:
    """Similarities of one raw distance (or distance array) per algorithm.

    Every matcher reports a distance, so this is the one place that fixes
    their polarity.
    """
    return [normalize(MatchScore(a, raw[a], "distance"), ranges[a]) for a in ALGORITHMS]


def fuse(scores, policy: FusionPolicy) -> float | np.ndarray:
    """Combine exactly one normalized score (or score array) per algorithm."""
    by_algo = {}
    for s in scores:
        if s.algorithm in by_algo:
            raise ValueError(f"duplicate score for algorithm {s.algorithm!r}")
        by_algo[s.algorithm] = s.value
    missing = [a for a in ALGORITHMS if a not in by_algo]
    if missing:
        raise ValueError(f"missing scores for: {', '.join(missing)}")
    vals = [by_algo[a] for a in ALGORITHMS]

    if policy.rule == "sum-average":
        return sum(vals) / len(vals)
    if policy.rule == "min":
        return np.minimum.reduce(vals)
    if policy.rule == "max":
        return np.maximum.reduce(vals)
    return sum(w * v for w, v in zip(policy.weights, vals))


def decide(fused: float, threshold: float) -> Decision:
    """Accept iff the fused score reaches the threshold (inclusive)."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold {threshold} outside [0, 1]")
    return Decision(accepted=bool(fused >= threshold), fused=float(fused))
