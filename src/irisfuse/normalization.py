"""Rubber-sheet unwrapping of the iris annulus and contrast enhancement.

The annulus maps onto a fixed 448 (angular) x 96 (radial) rectangle: column
j samples angle theta = 2*pi*j/448 measured from the positive x-axis, row i
samples the normalized radius r = i/95, and the sample point blends the
pupil-boundary and iris-boundary points at that angle (each computed from
its own circle center).  Rotation of the eye therefore becomes a circular
column shift of the polar image, which the matchers absorb with a shift
search.  The angle cosines and sines and the radii form a fixed module-level
grid, and the intensities come from one bilinear
``scipy.ndimage.map_coordinates`` call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .imaging import BinaryImage, GrayImage
from .segmentation import SegmentationResult

POLAR_WIDTH = 448   # angular samples
POLAR_HEIGHT = 96   # radial samples

# the fixed sampling grid: one column per angle, one row per normalized radius
_THETAS = 2.0 * np.pi * np.arange(POLAR_WIDTH) / POLAR_WIDTH
_COS, _SIN = np.cos(_THETAS)[None, :], np.sin(_THETAS)[None, :]
_RADII = (np.arange(POLAR_HEIGHT) / (POLAR_HEIGHT - 1))[:, None]


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
    pupil, iris = seg.pupil, seg.iris
    xs = (1.0 - _RADII) * (pupil.cx + pupil.r * _COS) + _RADII * (iris.cx + iris.r * _COS)
    ys = (1.0 - _RADII) * (pupil.cy + pupil.r * _SIN) + _RADII * (iris.cy + iris.r * _SIN)

    h, w = img.height, img.width
    inside = (xs >= 0) & (xs <= w - 1) & (ys >= 0) & (ys <= h - 1)
    coords = np.array((ys, xs))  # (row, column) of every cell, clipped into the frame
    np.clip(coords, 0, np.reshape((h - 1, w - 1), (2, 1, 1)), out=coords)
    val = ndimage.map_coordinates(img.pixels, coords, output=np.float64, order=1, mode="nearest")

    nearest = tuple(np.rint(coords, out=coords).astype(np.intp))
    mask = (~inside) | seg.noise_mask.bits[nearest].astype(bool)
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
