"""Rubber-sheet unwrapping of the iris annulus and contrast enhancement.

The annulus maps onto a fixed 448 (angular) x 96 (radial) rectangle: column
j samples angle theta = 2*pi*j/448 measured from the positive x-axis, row i
samples the normalized radius r = i/95, and the sample point blends the
pupil-boundary and iris-boundary points at that angle (each computed from
its own circle center).  Rotation of the eye therefore becomes a circular
column shift of the polar image, which the matchers absorb with a shift
search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .imaging import BinaryImage, GrayImage
from .segmentation import SegmentationResult

POLAR_WIDTH = 448   # angular samples
POLAR_HEIGHT = 96   # radial samples


class IncomparableError(ValueError):
    """Raised by a matcher when two templates share no jointly valid sample."""


def comparable(distances: np.ndarray, reason: str) -> np.ndarray:
    """``distances``, or IncomparableError(reason) if a pair got NaN (nothing to compare)."""
    if np.isnan(distances).any():
        raise IncomparableError(reason)
    return distances


@dataclass(frozen=True)
class PolarIris:
    """Unwrapped iris: intensities and validity mask, both (96, 448)."""

    intensities: np.ndarray
    mask: BinaryImage

    def __post_init__(self):
        arr = np.asarray(self.intensities)
        if arr.shape != (POLAR_HEIGHT, POLAR_WIDTH):
            raise ValueError(
                f"polar intensities must be {POLAR_HEIGHT}x{POLAR_WIDTH}, got {arr.shape}"
            )
        if self.mask.bits.shape != (POLAR_HEIGHT, POLAR_WIDTH):
            raise ValueError("polar mask must be congruent with the intensities")
        arr = arr.astype(np.uint8) if arr.dtype != np.uint8 else arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "intensities", arr)

    @property
    def valid(self) -> np.ndarray:
        return self.mask.bits == 0


def rubber_sheet(img: GrayImage, seg: SegmentationResult) -> PolarIris:
    """Unwrap the segmented annulus into the fixed polar rectangle.

    Intensities come from bilinear interpolation; a polar cell is masked when
    its source location falls outside the image or lands on a masked pixel
    of the segmentation noise mask.
    """
    thetas = 2.0 * np.pi * np.arange(POLAR_WIDTH) / POLAR_WIDTH
    radii = (np.arange(POLAR_HEIGHT) / (POLAR_HEIGHT - 1))[:, None]

    cos_t, sin_t = np.cos(thetas)[None, :], np.sin(thetas)[None, :]
    xp = seg.pupil.cx + seg.pupil.r * cos_t
    yp = seg.pupil.cy + seg.pupil.r * sin_t
    xi = seg.iris.cx + seg.iris.r * cos_t
    yi = seg.iris.cy + seg.iris.r * sin_t
    xs = (1.0 - radii) * xp + radii * xi
    ys = (1.0 - radii) * yp + radii * yi

    h, w = img.height, img.width
    inside = (xs >= 0) & (xs <= w - 1) & (ys >= 0) & (ys <= h - 1)

    cx = np.clip(xs, 0, w - 1)
    cy = np.clip(ys, 0, h - 1)
    x0 = np.floor(cx).astype(np.intp)
    y0 = np.floor(cy).astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = cx - x0
    fy = cy - y0

    pix = img.pixels.astype(np.float64)
    val = (
        pix[y0, x0] * (1 - fx) * (1 - fy)
        + pix[y0, x1] * fx * (1 - fy)
        + pix[y1, x0] * (1 - fx) * fy
        + pix[y1, x1] * fx * fy
    )

    nearest_masked = seg.noise_mask.bits[
        np.rint(cy).astype(np.intp), np.rint(cx).astype(np.intp)
    ].astype(bool)
    mask = (~inside) | nearest_masked

    out = np.where(inside, np.rint(val), 0).astype(np.uint8)
    return PolarIris(out, BinaryImage(mask.astype(np.uint8)))


def enhance(polar: PolarIris) -> PolarIris:
    """Histogram equalization over unmasked pixels only.

    Masked pixels and the mask itself pass through unchanged; a fully masked
    input is returned as-is.  The intensity map is monotone, so downstream
    zero-crossing structure is preserved.
    """
    valid = polar.valid
    if not valid.any():
        return polar
    counts = np.bincount(polar.intensities[valid].ravel(), minlength=256)
    cdf = np.cumsum(counts) / counts.sum()
    lut = np.rint(cdf * 255.0).astype(np.uint8)
    out = polar.intensities.copy()
    out[valid] = lut[polar.intensities[valid]]
    return PolarIris(out, polar.mask)


def polar_debug_images(polar: PolarIris) -> tuple[GrayImage, GrayImage]:
    """Intensity and mask rasters for PGM debug dumps."""
    return (
        GrayImage(polar.intensities),
        GrayImage((polar.mask.bits * 255).astype(np.uint8)),
    )
