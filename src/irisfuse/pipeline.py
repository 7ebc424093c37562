"""End-to-end per-image processing shared by enrollment, verification, and
the evaluation harness: segment, unwrap, enhance, and extract all three
feature representations.

Two robustness choices live here rather than in the feature modules.  The
outermost polar rows sample within about a pixel of the detected circle
boundaries, where 1 px Hough quantization lets pupil or sclera intensities
leak in, so a small guard band of rows is masked after unwrapping.  And the
Euler path consumes the un-equalized polar image: histogram equalization
redistributes intensities across all bit levels, which scrambles the
topology of the lower MSB planes without adding structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .euler import euler_code
from .gasel import RawFeatureVector, extract_raw
from .imaging import GrayImage, freeze
from .normalization import enhance, rubber_sheet
from .segmentation import SegmentationConfig, SegmentationError, SegmentationResult, segment
from .zerocross import (DEFAULT_MAX_SHIFT, DEFAULT_SCALES, MAX_SHIFT, VALID_SCALES,
                        ZeroCrossTemplate, encode)


@dataclass(frozen=True)
class PipelineConfig:
    segmentation: SegmentationConfig = field(default_factory=SegmentationConfig)
    scales: tuple[int, ...] = DEFAULT_SCALES
    max_shift: int = DEFAULT_MAX_SHIFT
    polar_guard_rows: int = 4

    def __post_init__(self):
        object.__setattr__(self, "scales", tuple(self.scales))
        if not self.scales or not set(self.scales) <= set(VALID_SCALES):
            raise ValueError(f"scales must be a nonempty selection from {VALID_SCALES}")
        if not 0 <= self.max_shift <= MAX_SHIFT:
            raise ValueError(f"max_shift must lie in [0, {MAX_SHIFT}]")
        if not 0 <= self.polar_guard_rows < 48:
            raise ValueError("polar_guard_rows must lie in [0, 48)")


@dataclass(frozen=True)
class IrisFeatures:
    """Everything matching needs from one eye image; the polar arrays are
    read-only (96, 448) uint8."""

    segmentation: SegmentationResult
    polar: np.ndarray                 # un-equalized polar intensities (Euler path)
    enhanced: np.ndarray              # equalized variant (wavelet + block features)
    mask: np.ndarray                  # polar mask with the guard rows, 1 = invalid
    template: ZeroCrossTemplate
    own_code: np.ndarray              # Euler code under the image's own mask
    raw: RawFeatureVector


def _guard_rows(mask: np.ndarray, rows: int) -> np.ndarray:
    if rows == 0:
        return mask
    mask = mask.copy()
    mask[:rows, :] = 1
    mask[-rows:, :] = 1
    return freeze(mask)


def process_image(img: GrayImage, cfg: PipelineConfig) -> IrisFeatures:
    """Run the full feature pipeline on one image.

    Raises SegmentationError when boundary detection fails.
    """
    seg = segment(img, cfg.segmentation)
    polar, mask = rubber_sheet(img, seg)
    mask = _guard_rows(mask, cfg.polar_guard_rows)
    enhanced = enhance(polar, mask)
    return IrisFeatures(
        segmentation=seg,
        polar=polar,
        enhanced=enhanced,
        mask=mask,
        template=encode(enhanced, mask, cfg.scales),
        own_code=euler_code(polar, mask),
        raw=extract_raw(enhanced, mask),
    )


def process_images(images, cfg: PipelineConfig) -> tuple[list[IrisFeatures], list[int]]:
    """Features of every image that segments, and the indices of those images.

    An image whose boundary detection fails is skipped.
    """
    features, kept = [], []
    for k, img in enumerate(images):
        try:
            features.append(process_image(img, cfg))
        except SegmentationError:
            continue
        kept.append(k)
    return features, kept
