"""Euler codes from MSB bit planes and Mahalanobis matching.

The Euler number of a binary image is its count of connected components
minus its count of holes; foreground uses 8-connectivity, background
4-connectivity (the standard complementary pair), and a hole is a
background component that never reaches the image border.  A 4-tuple of
Euler numbers over the b7..b4 planes of the masked polar image forms the
code; codes compare under Mahalanobis distance with a covariance estimated
over the enrolled population (regularized to stay positive-definite).

Euler numbers come from Gray's (1971) bit-quad counts, E = (Q1 - Q3 -
2*QD) / 4 over the 2x2 quads of the zero-padded plane (Q1, Q3: one or three
pixels set; QD: a diagonal pair).  The top nibble of a masked pixel holds
b7..b4, so nibble-wide bitwise operations on the quad corners give all four
planes' indicators in one pass; one 12-bit code per quad (Q1 << 8 | Q3 << 4
| QD), one bincount and a constant (4096, 4) weight table yield the code.
``euler_number`` runs the same kernel on a single plane shifted to bit 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import linalg as sla

from .imaging import BinaryImage
from .normalization import PolarIris

MSB_PLANES = 4


@dataclass(frozen=True)
class EulerCode:
    """Euler numbers of the (b7, b6, b5, b4) planes, in that order."""

    e: tuple[int, int, int, int]

    def __post_init__(self):
        vals = tuple(int(v) for v in self.e)
        if len(vals) != MSB_PLANES:
            raise ValueError(f"Euler code needs {MSB_PLANES} components, got {len(vals)}")
        object.__setattr__(self, "e", vals)

    def as_array(self) -> np.ndarray:
        return np.array(self.e, dtype=np.float64)


@dataclass(frozen=True)
class CovarianceModel:
    S: np.ndarray
    epsilon: float

    def __post_init__(self):
        S = np.asarray(self.S, dtype=np.float64)
        if S.shape != (MSB_PLANES, MSB_PLANES):
            raise ValueError(f"covariance must be {MSB_PLANES}x{MSB_PLANES}, got {S.shape}")
        if not np.allclose(S, S.T, atol=1e-9):
            raise ValueError("covariance matrix must be symmetric")
        if self.epsilon <= 0:
            raise ValueError("regularization epsilon must be positive")
        S = (S + S.T) / 2.0
        S.setflags(write=False)
        object.__setattr__(self, "S", S)

    @cached_property
    def cholesky(self):
        """Lower Cholesky factor of S, in ``cho_factor`` form; ValueError if not PD."""
        try:
            return sla.cho_factor(self.S, lower=True)
        except sla.LinAlgError as exc:
            raise ValueError(f"covariance model is not positive-definite: {exc}") from None


def euler_number(b: BinaryImage) -> int:
    """Connected components (8-connected) minus holes (4-connected background).

    The image is plane 0 (nibble bit 3) of the bit-quad kernel that
    ``euler_code`` runs.
    """
    return int(_nibble_euler(b.bits << 3)[0])


def _quad_weights() -> np.ndarray:
    """(4096, 4) weights of Q1 - Q3 - 2*QD per 12-bit quad code and plane."""
    code = np.arange(1 << 12)[:, None]
    bit = np.arange(MSB_PLANES - 1, -1, -1)  # b7..b4 sit at nibble bits 3..0
    return ((code >> (bit + 8)) & 1) - ((code >> (bit + 4)) & 1) - 2 * ((code >> bit) & 1)


_QUAD_WEIGHTS = _quad_weights()


def common_mask(ma: BinaryImage, mb: BinaryImage) -> BinaryImage:
    """Union of invalid regions: bitwise OR under the 1 = invalid convention."""
    if ma.bits.shape != mb.bits.shape:
        raise ValueError(f"mask shapes differ: {ma.bits.shape} vs {mb.bits.shape}")
    return BinaryImage(ma.bits | mb.bits)


def euler_code(polar: PolarIris, cm: BinaryImage) -> EulerCode:
    """Euler numbers of the four MSB planes of the masked polar image.

    Invalid pixels are zeroed before plane decomposition; zeroing can alter
    topology right at mask borders, an accepted approximation.
    """
    if cm.bits.shape != polar.intensities.shape:
        raise ValueError("common mask must be congruent with the polar image")
    return EulerCode(tuple(_nibble_euler((polar.intensities >> 4) * (cm.bits ^ 1))))


def _nibble_euler(nib: np.ndarray) -> np.ndarray:
    """Euler numbers of the four planes (nibble bits 3..0) of a 2-D uint8 nibble image."""
    # zero-padded and flattened; the quads that straddle a row end see only
    # padding and weigh nothing
    nib = np.pad(nib, 1)
    w = nib.shape[1]
    nib = nib.ravel()
    a, b, c, d = nib[: -w - 1], nib[1:-w], nib[w:-1], nib[w + 1 :]
    odd = a ^ b ^ c ^ d                    # one or three set
    three = odd & ((a & b) | (c & d))      # any three set include a&b or c&d
    diag = (a ^ b) & ~((a ^ d) | (b ^ c))  # 1001 or 0110
    code = ((odd ^ three).astype(np.uint16) << 8) | (three << 4) | diag
    counts = np.bincount(code, minlength=1 << 12)
    return counts @ _QUAD_WEIGHTS // 4


def calibrated_covariance(codes) -> CovarianceModel:
    """Population covariance of the enrolled codes plus epsilon * I.

    Euler-code components are strongly correlated across identities (they
    all respond to overall texture richness), which makes the raw population
    covariance nearly singular along the identity axis; whitening with it
    would amplify pure-noise directions.  Setting epsilon to the mean sample
    variance, floored at 1.0, keeps the matrix positive-definite even when
    every code is identical, while still damping high-variance components
    relative to stable ones.
    """
    mat = np.array([c.e for c in codes], dtype=np.float64)
    if len(mat) < 2:
        raise ValueError(f"need at least 2 codes to estimate covariance, got {len(mat)}")
    epsilon = max(1.0, float(np.mean(np.var(mat, axis=0, ddof=1))))
    S = np.cov(mat, rowvar=False, ddof=1) + epsilon * np.eye(MSB_PLANES)
    return CovarianceModel((S + S.T) / 2.0, epsilon)


def mahalanobis(x: EulerCode, y: EulerCode, model: CovarianceModel) -> float:
    """sqrt((x-y)^T S^-1 (x-y)), solved via Cholesky rather than inversion."""
    d = x.as_array() - y.as_array()
    return float(np.sqrt(d @ sla.cho_solve(model.cholesky, d)))
