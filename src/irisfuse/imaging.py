"""Image containers, PGM I/O, and primitive raster operations.

Pixel storage convention (fixed here for the whole package): row-major
arrays with the origin at the top-left corner, x growing rightward and
y growing downward.  Images are immutable; kernels are read-only float64
arrays, masks read-only uint8 arrays with values in {0, 1} (1 = invalid)
and edge maps read-only (N, 2) int64 arrays of (x, y); every operation is
a pure function, so everything in this module is safe to share across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage


class PgmError(ValueError):
    """Raised for malformed or unsupported PGM payloads."""


def freeze(arr: np.ndarray) -> np.ndarray:
    """``arr`` itself, made read-only."""
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class GrayImage:
    """8-bit grayscale raster, shape (height, width)."""

    pixels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.pixels)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"GrayImage needs a non-empty 2-D array, got shape {arr.shape}")
        if arr.dtype != np.uint8:
            raise ValueError(f"GrayImage needs a uint8 array, got {arr.dtype}")
        object.__setattr__(self, "pixels", freeze(arr.copy()))

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


# The 3x3 cross-row smoothing operator used by the zero-crossing encoder:
# every row is [1, 2, 1], total weight 12.
SMOOTHING_OPERATOR = freeze(np.array([[1, 2, 1]] * 3, dtype=np.float64))


def load_pgm(data: bytes) -> GrayImage:
    """Parse a binary (P5) PGM byte string.

    Accepts `#` comments inside the header; requires maxval <= 255, an
    exact-length pixel payload and no sample above maxval.  A maxval below
    255 is rescaled onto 0-255 as round(255 * s / maxval), halves up.
    """
    if not data.startswith(b"P5"):
        raise PgmError("not a binary PGM (missing P5 magic)")

    tokens: list[bytes] = []
    pos = 2
    n = len(data)
    while len(tokens) < 3:
        while pos < n and data[pos : pos + 1].isspace():
            pos += 1
        if pos < n and data[pos : pos + 1] == b"#":
            while pos < n and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < n and not data[pos : pos + 1].isspace():
            pos += 1
        if pos == start:
            raise PgmError("malformed PGM header (missing dimension tokens)")
        tokens.append(data[start:pos])
    if pos >= n or not data[pos : pos + 1].isspace():
        raise PgmError("malformed PGM header (no delimiter before pixel data)")
    pos += 1  # single whitespace byte separates maxval from the payload

    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise PgmError(f"non-numeric PGM header token: {exc}") from None
    if width < 1 or height < 1:
        raise PgmError(f"invalid PGM dimensions {width}x{height}")
    if maxval > 255:
        raise PgmError(f"maxval {maxval} exceeds 8-bit range")
    if maxval < 1:
        raise PgmError(f"invalid maxval {maxval}")

    payload = data[pos:]
    expected = width * height
    if len(payload) < expected:
        raise PgmError(f"truncated pixel payload: expected {expected} bytes, got {len(payload)}")
    if len(payload) > expected:
        raise PgmError(f"trailing data after pixel payload ({len(payload) - expected} extra bytes)")
    arr = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    top = int(arr.max())
    if top > maxval:
        raise PgmError(f"sample value {top} exceeds maxval {maxval}")
    if maxval < 255:
        arr = ((arr.astype(np.uint32) * 510 + maxval) // (2 * maxval)).astype(np.uint8)
    return GrayImage(arr)


def save_pgm(img: GrayImage) -> bytes:
    """Serialize to canonical binary PGM: `P5\\n{w} {h}\\n255\\n` + raw bytes."""
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.pixels.tobytes()


def convolve2d(arr: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """2-D convolution with edge-replication padding, same-size float64 output."""
    if kernel.shape[0] > arr.shape[0] or kernel.shape[1] > arr.shape[1]:
        raise ValueError(f"kernel {kernel.shape} larger than image {arr.shape}")
    return ndimage.convolve(np.asarray(arr, dtype=np.float64), kernel, mode="nearest")


def gaussian_kernel(size: int, sigma: float) -> np.ndarray:
    """Sampled, normalized 2-D Gaussian; `size` must be odd."""
    if size % 2 == 0 or size < 1:
        raise ValueError(f"Gaussian kernel size must be odd and positive, got {size}")
    if sigma <= 0:
        raise ValueError(f"Gaussian sigma must be positive, got {sigma}")
    half = size // 2
    coords = np.arange(-half, half + 1, dtype=np.float64)
    g1 = np.exp(-(coords**2) / (2.0 * sigma**2))
    g2 = np.outer(g1, g1)
    return freeze(g2 / g2.sum())
