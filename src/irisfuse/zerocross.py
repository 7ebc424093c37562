"""Zero-crossing wavelet templates and shift-tolerant masked Hamming matching.

Each polar row is treated as a circular 1-D signal and transformed at a set
of dyadic scales with the second-derivative-of-smoothing wavelet; the
template stores the sign of the transform, so zero crossings appear as bit
transitions and fixed-length Hamming comparison applies.  Before the 1-D
transform the polar image is smoothed across rows with the 3x3 [1,2,1]-row
operator (normalized by its weight 12).  Matching searches circular column
shifts, which makes small eye rotations cost nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .imaging import BinaryImage, Kernel, SMOOTHING_OPERATOR, convolve2d
from .normalization import POLAR_HEIGHT, POLAR_WIDTH, PolarIris

VALID_SCALES = (1, 2, 4, 8)
DEFAULT_SCALES = (2, 4)
DEFAULT_MAX_SHIFT = 8

_G_NORMALIZED = Kernel(SMOOTHING_OPERATOR.weights / SMOOTHING_OPERATOR.weights.sum())


@dataclass(frozen=True)
class ZeroCrossTemplate:
    """Sign bits of the wavelet transform, one plane per scale, plus the mask."""

    bits: np.ndarray  # (scales, POLAR_HEIGHT, POLAR_WIDTH) uint8
    mask: BinaryImage

    def __post_init__(self):
        arr = np.asarray(self.bits, dtype=np.uint8)
        if arr.ndim != 3 or arr.shape[1:] != (POLAR_HEIGHT, POLAR_WIDTH):
            raise ValueError(f"template bits must be (S, {POLAR_HEIGHT}, {POLAR_WIDTH}), got {arr.shape}")
        if self.mask.bits.shape != (POLAR_HEIGHT, POLAR_WIDTH):
            raise ValueError("template mask must be congruent with one bit plane")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "bits", arr)

    @property
    def scale_count(self) -> int:
        return self.bits.shape[0]


def _bspline3(t: np.ndarray) -> np.ndarray:
    """Cubic B-spline, support [-2, 2], unit integral."""
    at = np.abs(t)
    inner = 2.0 / 3.0 - at**2 + at**3 / 2.0
    outer = (2.0 - at) ** 3 / 6.0
    return np.where(at <= 1.0, inner, np.where(at <= 2.0, outer, 0.0))


def _smoothing_kernel(s: int) -> np.ndarray:
    j = np.arange(-2 * s, 2 * s + 1, dtype=np.float64)
    return _bspline3(j / s) / s


def dyadic_wavelet_1d(signal, s: int) -> np.ndarray:
    """Wavelet transform of a circular signal at dyadic scale ``s``.

    Computes s^2 * d2/dx2 (f * theta_s) where theta_s is the cubic B-spline
    smoothing kernel dilated to scale s; the second derivative uses circular
    central differences.  The transform is linear and annihilates constant
    and linear signals exactly.
    """
    if s not in VALID_SCALES:
        raise ValueError(f"scale must be one of {VALID_SCALES}, got {s}")
    f = np.asarray(signal, dtype=np.float64)
    if f.ndim != 1:
        raise ValueError("signal must be 1-D")
    if len(f) < 4 * s:
        raise ValueError(f"signal of length {len(f)} too short for scale {s} (needs >= {4 * s})")
    g = ndimage.convolve1d(f, _smoothing_kernel(s), mode="wrap")
    second = np.roll(g, -1) + np.roll(g, 1) - 2.0 * g
    return (s * s) * second


def encode(polar: PolarIris, scales=DEFAULT_SCALES) -> ZeroCrossTemplate:
    """Build the sign-bit template of the masked polar image.

    Rows are first smoothed across neighbours with the normalized [1,2,1]-row
    operator, then each row is transformed along theta at every scale;
    bit = 1 where the transform is >= 0.
    """
    scales = tuple(scales)
    if not scales:
        raise ValueError("need at least one scale")
    for s in scales:
        if s not in VALID_SCALES:
            raise ValueError(f"scale must be one of {VALID_SCALES}, got {s}")

    smoothed = convolve2d(polar.intensities, _G_NORMALIZED)
    planes = np.empty((len(scales), POLAR_HEIGHT, POLAR_WIDTH), dtype=np.uint8)
    for si, s in enumerate(scales):
        kern = _smoothing_kernel(s)
        g = ndimage.convolve1d(smoothed, kern, axis=1, mode="wrap")
        transform = (s * s) * (np.roll(g, -1, axis=1) + np.roll(g, 1, axis=1) - 2.0 * g)
        planes[si] = (transform >= 0.0).astype(np.uint8)
    return ZeroCrossTemplate(planes, polar.mask)


def match(a: ZeroCrossTemplate, b: ZeroCrossTemplate, max_shift: int = DEFAULT_MAX_SHIFT) -> float:
    """Masked Hamming distance in [0, 1], minimized over circular column shifts.

    A position contributes only when neither template masks it; the per-shift
    distance averages the per-scale Hamming fractions, and the minimum over
    shifts in [-max_shift, +max_shift] is returned.
    """
    if a.bits.shape != b.bits.shape:
        raise ValueError(f"template shapes differ: {a.bits.shape} vs {b.bits.shape}")
    if max_shift < 0:
        raise ValueError("max_shift must be >= 0")

    valid_a = a.mask.bits == 0
    bits_a = a.bits.astype(bool)
    bits_b = b.bits.astype(bool)
    valid_b = b.mask.bits == 0
    scales = a.bits.shape[0]

    best = None
    for k in range(-max_shift, max_shift + 1):
        joint = valid_a & np.roll(valid_b, k, axis=1)
        n = int(np.count_nonzero(joint))
        if n == 0:
            continue
        diff = int(np.count_nonzero((bits_a ^ np.roll(bits_b, k, axis=2)) & joint[None, :, :]))
        d = diff / (scales * n)
        if best is None or d < best:
            best = d
    if best is None:
        raise ValueError("no jointly valid bits at any shift; templates are incomparable")
    return best


def shifted(t: ZeroCrossTemplate, k: int) -> ZeroCrossTemplate:
    """Template with bits and mask circularly shifted by k columns."""
    return ZeroCrossTemplate(
        np.roll(t.bits, k, axis=2),
        BinaryImage(np.roll(t.mask.bits, k, axis=1)),
    )
