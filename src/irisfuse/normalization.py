"""Rubber-sheet unwrapping of the iris annulus and contrast enhancement.

The annulus maps onto a fixed 448 (angular) x 96 (radial) rectangle: column
j samples angle theta = 2*pi*j/448 measured from the positive x-axis, row i
samples the normalized radius r = i/95, and the sample point blends the
pupil-boundary and iris-boundary points at that angle (each computed from
its own circle center).  Rotation of the eye therefore becomes a circular
column shift of the polar image, which the matchers absorb with a shift
search.  The angle cosines and sines and the radii form a fixed module-level
grid, and the intensities come from one bilinear
``scipy.ndimage.map_coordinates`` call.  The unwrapped iris is two
read-only (96, 448) uint8 arrays: the intensities and the mask, 1 = invalid.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from .imaging import GrayImage, freeze
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


def rubber_sheet(img: GrayImage, seg: SegmentationResult) -> tuple[np.ndarray, np.ndarray]:
    """Intensities and mask of the segmented annulus unwrapped into the fixed
    polar rectangle.

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
    mask = (~inside) | seg.noise_mask[nearest].astype(bool)
    out = np.where(inside, np.rint(val), 0).astype(np.uint8)
    return freeze(out), freeze(mask.astype(np.uint8))


def enhance(intensities: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Histogram equalization over unmasked pixels only.

    Masked pixels pass through unchanged; a fully masked input is returned
    as-is.  The intensity map is monotone, so downstream zero-crossing
    structure is preserved.
    """
    valid = mask == 0
    if not valid.any():
        return intensities
    counts = np.bincount(intensities[valid], minlength=256)
    cdf = np.cumsum(counts) / counts.sum()
    lut = np.rint(cdf * 255.0).astype(np.uint8)
    out = intensities.copy()
    out[valid] = lut[intensities[valid]]
    return freeze(out)


def polar_debug_images(intensities: np.ndarray, mask: np.ndarray) -> tuple[GrayImage, GrayImage]:
    """Intensity and mask rasters for PGM debug dumps."""
    return GrayImage(intensities), GrayImage(mask * 255)
