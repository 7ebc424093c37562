"""Zero-crossing wavelet templates and shift-tolerant masked Hamming matching.

Each polar row is treated as a circular 1-D signal and transformed at a set
of dyadic scales with the second-derivative-of-smoothing wavelet; the
template stores the sign of the transform, so zero crossings appear as bit
transitions and fixed-length Hamming comparison applies.  Before the 1-D
transform the polar image is smoothed across rows with the 3x3 [1,2,1]-row
operator (normalized by its weight 12).  Matching searches circular column
shifts, which makes small eye rotations cost nothing.

Matching is bit-parallel (Daugman, "How iris recognition works", 2004): a
column's S*96 bits (scale-major, then row) and its validity, tiled once per
scale, pack into uint64 words, with the zero padding invalid.  Each
template wraps its packed columns by MAX_SHIFT on both sides once, so a
shift is a row offset into the partner's words, and one
``np.bitwise_count`` over the sliding windows of one slice counts every
shift at once.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage

from .imaging import SMOOTHING_OPERATOR, convolve2d, freeze
from .normalization import POLAR_HEIGHT, POLAR_WIDTH, IncomparableError, comparable

VALID_SCALES = (1, 2, 4, 8)
DEFAULT_SCALES = (2, 4)
DEFAULT_MAX_SHIFT = 8
MAX_SHIFT = POLAR_WIDTH // 2  # wider column shifts repeat
INCOMPARABLE = "no jointly valid bits at any shift; templates are incomparable"

_G_NORMALIZED = SMOOTHING_OPERATOR / SMOOTHING_OPERATOR.sum()


@dataclass(frozen=True)
class ZeroCrossTemplate:
    """Sign bits of the wavelet transform, one plane per scale, plus the polar mask."""

    bits: np.ndarray  # (scales, POLAR_HEIGHT, POLAR_WIDTH) uint8
    mask: np.ndarray  # (POLAR_HEIGHT, POLAR_WIDTH) uint8, 1 = invalid

    def __post_init__(self):
        arr = np.asarray(self.bits, dtype=np.uint8)
        if arr.ndim != 3 or arr.shape[1:] != (POLAR_HEIGHT, POLAR_WIDTH):
            raise ValueError(f"template bits must be (S, {POLAR_HEIGHT}, {POLAR_WIDTH}), got {arr.shape}")
        mask = np.asarray(self.mask, dtype=np.uint8)
        if mask.shape != (POLAR_HEIGHT, POLAR_WIDTH):
            raise ValueError("template mask must be congruent with one bit plane")
        if mask.flags.writeable:
            object.__setattr__(self, "mask", freeze(mask.copy()))
        object.__setattr__(self, "bits", freeze(arr.copy()))

    @property
    def scale_count(self) -> int:
        return self.bits.shape[0]

    @cached_property
    def words(self) -> tuple[np.ndarray, np.ndarray]:
        """Bits and scale-tiled validity, each packed per column into uint64
        words; row MAX_SHIFT + j holds column j, and the MAX_SHIFT rows on
        each side wrap around, (W + 2 * MAX_SHIFT, words) in all."""
        valid = np.broadcast_to(self.mask == 0, self.bits.shape)
        return _pack_columns(self.bits), _pack_columns(valid)


_WRAPPED = np.arange(-MAX_SHIFT, POLAR_WIDTH + MAX_SHIFT) % POLAR_WIDTH


def _pack_columns(planes: np.ndarray) -> np.ndarray:
    packed = np.packbits(np.ascontiguousarray(planes.reshape(-1, planes.shape[-1]).T), axis=1)
    return np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8))).view(np.uint64)[_WRAPPED]


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
    """Wavelet transform of circular signals at dyadic scale ``s``.

    Computes s^2 * d2/dx2 (f * theta_s) along the last axis, where theta_s
    is the cubic B-spline smoothing kernel dilated to scale s; the second
    derivative uses circular central differences.  The transform is linear
    and annihilates constant and linear signals exactly.
    """
    if s not in VALID_SCALES:
        raise ValueError(f"scale must be one of {VALID_SCALES}, got {s}")
    f = np.asarray(signal, dtype=np.float64)
    if f.ndim == 0:
        raise ValueError("signal must have at least one axis")
    if f.shape[-1] < 4 * s:
        raise ValueError(f"signal of length {f.shape[-1]} too short for scale {s} (needs >= {4 * s})")
    g = ndimage.convolve1d(f, _smoothing_kernel(s), axis=-1, mode="wrap")
    second = np.roll(g, -1, axis=-1) + np.roll(g, 1, axis=-1) - 2.0 * g
    return (s * s) * second


def encode(intensities: np.ndarray, mask: np.ndarray, scales=DEFAULT_SCALES) -> ZeroCrossTemplate:
    """Build the sign-bit template of the polar intensities under ``mask``.

    Rows are first smoothed across neighbours with the normalized [1,2,1]-row
    operator, then each row is transformed along theta at every scale;
    bit = 1 where the transform is >= 0.
    """
    scales = tuple(scales)
    if not scales:
        raise ValueError("need at least one scale")
    smoothed = convolve2d(intensities, _G_NORMALIZED)
    planes = np.stack([dyadic_wavelet_1d(smoothed, s) >= 0.0 for s in scales]).astype(np.uint8)
    return ZeroCrossTemplate(planes, mask)


def match(a: ZeroCrossTemplate, b: ZeroCrossTemplate, max_shift: int = DEFAULT_MAX_SHIFT) -> float:
    """Masked Hamming distance in [0, 1], minimized over circular column shifts.

    A position contributes only when neither template masks it; the per-shift
    distance averages the per-scale Hamming fractions, and the minimum over
    shifts in [-max_shift, +max_shift] is returned; max_shift lies in [0, MAX_SHIFT].
    """
    if a.bits.shape != b.bits.shape:
        raise ValueError(f"template shapes differ: {a.bits.shape} vs {b.bits.shape}")
    if not 0 <= max_shift <= MAX_SHIFT:
        raise ValueError(f"max_shift must lie in [0, {MAX_SHIFT}]")

    centre = slice(MAX_SHIFT, MAX_SHIFT + POLAR_WIDTH)
    # window i of the partner's slab is b rolled by k = max_shift - i
    slab = slice(MAX_SHIFT - max_shift, MAX_SHIFT + max_shift + POLAR_WIDTH)
    bits_a, valid_a = (w[centre].T for w in a.words)
    bits_b, valid_b = (sliding_window_view(w[slab], POLAR_WIDTH, axis=0) for w in b.words)
    joint = valid_a & valid_b
    mismatch = (bits_a ^ bits_b) & joint
    n = np.bitwise_count(joint).sum(axis=(1, 2))  # scales x jointly valid positions
    diff = np.bitwise_count(mismatch).sum(axis=(1, 2))
    with np.errstate(invalid="ignore"):  # 0 / 0: no jointly valid bit at that shift
        return float(comparable(np.fmin.reduce(diff / n), INCOMPARABLE))


def match_pairs(templates, first, second, max_shift: int = DEFAULT_MAX_SHIFT) -> np.ndarray:
    """``match`` per pair (templates[first[k]], templates[second[k]]), NaN where it raises."""
    out = np.full(len(first), np.nan)
    for p, (i, j) in enumerate(zip(first, second)):  # batching the shift search ran 2.5x slower
        with suppress(IncomparableError):
            out[p] = match(templates[i], templates[j], max_shift)
    return out


def shifted(t: ZeroCrossTemplate, k: int) -> ZeroCrossTemplate:
    """Template with bits and mask circularly shifted by k columns."""
    return ZeroCrossTemplate(np.roll(t.bits, k, axis=2), freeze(np.roll(t.mask, k, axis=1)))
