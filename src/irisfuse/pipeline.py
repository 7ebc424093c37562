"""End-to-end per-image processing shared by enrollment, verification, and
the evaluation harness: segment, unwrap, enhance, and extract all three
feature representations.

Two robustness choices live here rather than in the feature modules.  The
outermost polar rows sample within about a pixel of the detected circle
boundaries, where 1 px Hough quantization lets pupil or sclera intensities
leak in, so ``GUARD_ROWS`` rows at each edge are masked after unwrapping.
And the Euler path consumes the un-equalized polar image: histogram
equalization redistributes intensities across all bit levels, which
scrambles the topology of the lower MSB planes without adding structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .euler import euler_code
from .gasel import RawFeatureVector, extract_raw
from .imaging import GrayImage, freeze
from .normalization import enhance, rubber_sheet
from .segmentation import SegmentationConfig, SegmentationError, SegmentationResult, segment
from .zerocross import ZeroCrossTemplate, encode

GUARD_ROWS = 4


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


def _guard_rows(mask: np.ndarray) -> np.ndarray:
    mask = mask.copy()
    mask[:GUARD_ROWS, :] = 1
    mask[-GUARD_ROWS:, :] = 1
    return freeze(mask)


def process_image(img: GrayImage, cfg: SegmentationConfig) -> IrisFeatures:
    """Run the full feature pipeline on one image.

    Raises SegmentationError when boundary detection fails.
    """
    seg = segment(img, cfg)
    polar, mask = rubber_sheet(img, seg)
    mask = _guard_rows(mask)
    enhanced = enhance(polar, mask)
    return IrisFeatures(
        segmentation=seg,
        polar=polar,
        enhanced=enhanced,
        mask=mask,
        template=encode(enhanced, mask),
        own_code=euler_code(polar, mask),
        raw=extract_raw(enhanced, mask),
    )


def process_images(images, cfg: SegmentationConfig) -> tuple[list[IrisFeatures], list[int]]:
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
