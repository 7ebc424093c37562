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
pixels set; QD: a diagonal pair), counted per bit plane of a uint8 image
(``_plane_euler``).  ``pair_codes`` packs one polar image's b7..b4 over the
other's, so both codes of a pair under its union mask come from one pass.
``mahalanobis`` is the one-pair case of ``mahalanobis_rows``.
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
        if not self.epsilon > 0:
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
    """Connected components (8-connected) minus holes (4-connected background)."""
    return int(_plane_euler(b.bits)[-1])


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
    return EulerCode(tuple(_plane_euler(polar.intensities * (cm.bits ^ 1))[:MSB_PLANES]))


def pair_codes(a: PolarIris, b: PolarIris) -> np.ndarray:
    """Rows: ``euler_code`` of ``a`` and of ``b`` under ``common_mask(a.mask, b.mask)``."""
    valid = (a.mask.bits | b.mask.bits) ^ 1
    return _plane_euler(((a.intensities & 0xF0) | (b.intensities >> 4)) * valid).reshape(2, MSB_PLANES)


def _plane_euler(img: np.ndarray) -> np.ndarray:
    """Euler numbers of the eight bit planes (b7 first) of a 2-D uint8 image."""
    p = np.pad(img, 1)
    a, b, c, d = p[:-1, :-1], p[:-1, 1:], p[1:, :-1], p[1:, 1:]
    odd = a ^ b ^ c ^ d                    # one or three set
    three = odd & ((a & b) | (c & d))      # any three set include a&b or c&d
    one = odd ^ three
    diag = (a ^ b) & ~((a ^ d) | (b ^ c))  # 1001 or 0110
    return np.array([np.count_nonzero(one & bit) - np.count_nonzero(three & bit)
                     - 2 * np.count_nonzero(diag & bit) for bit in (128, 64, 32, 16, 8, 4, 2, 1)]) // 4


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
    # CovarianceModel symmetrizes S
    return CovarianceModel(np.cov(mat, rowvar=False, ddof=1) + epsilon * np.eye(MSB_PLANES), epsilon)


def mahalanobis_rows(diffs: np.ndarray, model: CovarianceModel) -> np.ndarray:
    """sqrt(d^T S^-1 d) for every row d of ``diffs``, by one Cholesky solve."""
    return np.sqrt(np.vecdot(diffs, sla.cho_solve(model.cholesky, diffs.T).T))


def mahalanobis(x: EulerCode, y: EulerCode, model: CovarianceModel) -> float:
    """sqrt((x-y)^T S^-1 (x-y)), solved via Cholesky rather than inversion."""
    return float(mahalanobis_rows((x.as_array() - y.as_array())[None], model)[0])
