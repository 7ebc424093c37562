"""Score normalization, rule-based fusion, and the accept/reject decision.

Scores are plain floats or numpy arrays in dicts keyed by algorithm name.
Every matcher reports a distance (Hamming and Mahalanobis, smaller = better),
so each distance is mapped onto a common [0, 1] similarity scale by clamped
min-max normalization over a finite range, flipped so higher = more genuine.
Fusion then combines the three per-algorithm similarities with a simple
rule; the final decision accepts when the fused score reaches the threshold
(boundary inclusive).  ``normalize`` and ``fuse`` take a scalar or a whole
array per algorithm and apply the same element-wise arithmetic to either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ALGORITHMS = ("zerocross", "euler", "gasel")
FUSION_RULES = ("sum-average", "min", "max", "weighted")


@dataclass(frozen=True)
class ScoreRange:
    min: float
    max: float

    def __post_init__(self):
        if not (math.isfinite(self.min) and math.isfinite(self.max) and self.min < self.max):
            raise ValueError(f"score range needs finite min < max, got [{self.min}, {self.max}]")


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
    return {a: ScoreRange(lo, hi if hi > lo else lo + 1.0) for a, (lo, hi) in bounds.items()}


def normalize(distance, score_range: ScoreRange) -> float | np.ndarray:
    """Clamped min-max mapping of a distance onto [0, 1], flipped so higher = more genuine."""
    return 1.0 - np.clip((distance - score_range.min) / (score_range.max - score_range.min), 0.0, 1.0)


def normalize_distances(raw: dict, ranges: dict[str, ScoreRange]) -> dict:
    """Similarities of one raw distance (or distance array) per algorithm."""
    return {a: normalize(raw[a], ranges[a]) for a in ALGORITHMS}


def fuse(scores: dict, policy: FusionPolicy) -> float | np.ndarray:
    """Combine the normalized score (or score array) of every algorithm (Ross & Jain, 2003)."""
    vals = [scores[a] for a in ALGORITHMS]
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
