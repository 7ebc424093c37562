"""Pupil/iris circle detection, eyelid parabola detection, and noise masking.

As in Canny's detector, ``segment`` smooths and differentiates the image
once (``edge_gradient``); the pupil, iris and eyelid edge maps each take
that one gradient and suppress non-maxima along their own direction.
Circles come from a classic voting Hough transform over an edge map; the
accumulator has 1 px resolution in (cx, cy, r) and ties are broken
deterministically (smallest r, then smallest cy, then cx) so repeated runs
are bit-for-bit identical.  Both circle searches vote only for centres in a
31x31 window, as Daugman's and Masek's coarse-to-fine localisers do: the
pupil around a dark-region prior (the centroid of the darkest connected
region of the box-mean image), the iris around the pupil; a pupil circle
not inside the iris circle (``Circle.encloses``) fails segmentation.  The
same region bounds the pupil radii: the search covers 0.8 to 1.25 times its
equivalent radius sqrt(area / pi), within the configured range, and an
image whose band holds fewer than two radii (noise, a blank frame) fails to
acquire.  Both stages run through ``_find_circle``: each votes from the
edge map ("none" bias for the pupil, "vertical-edges" for the iris) of the
gradient cropped to its centre window widened by r_hi + 2 on each side,
which leaves the accumulator exact: inside the crop, suppression reads the
same neighbours as over the whole frame; a point on the crop's edge, which
may survive suppression only there, and every point outside the crop lie
at least r_hi + 2 from each window centre, so they vote only into the sink
and the kernel drops them; at the image border the crop has the frame's
-inf padding.  One kernel fills the accumulator: it rounds integer
point-to-centre distances through a table of rint(sqrt(n)) indexed by
dx^2 + dy^2, which equals rint(hypot(dx, dy)) because no sqrt(n) of an
integer n lies within about 1/(8r) of a half-integer; it votes one centre
row at a time, point-major, so its temporaries stay a few hundred KB.
Eyelids use a quantized four-parameter vote over tilted vertex-form
parabolas.  The roots of each
(theta, a) quadratic depend only on the integer offset x - h, so they come
from one cached table, computed by the per-pair expressions; and only the
pairs whose root lies in a band that provably holds every landing vote are
voted, along runs of the table that a second cache holds per region height.
A vote is integer work: a third cache holds floor(2 - Y) for every root Y,
and rint((m - Y) / 4) = (m + floor(2 - Y)) // 4 for the integer m = y - y_lo
except at half-integers.  The float expression the vote is defined by is off
the real value by at most about ulp(2 * height), so the two agree for every
root at least 1e-6 from an integer; the pairs on the few roots nearer one
than that are voted again by the float expression.  Edge
suppression and the noise mask's circle and eyelid rules run only where
their outcome is open: at pixels that pass the gradient threshold, and
inside the iris's bounding box.  An edge map is a read-only (N, 2) int64
array of (x, y) points, and the noise mask a read-only uint8 array of the
image's shape, 1 = invalid.  All functions are pure; accumulators are
operation-local and the cached tables read-only, so everything is
thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import ndimage

from .imaging import GrayImage, convolve2d, freeze, gaussian_kernel

EDGE_BIASES = ("vertical-edges", "horizontal-edges", "none")

# Eyelid Hough quantization: 5 tilt angles, 20 log-spaced curvature
# magnitudes, 4 px translation steps.  The flattest curvature step doubles
# as a sink for straight-line structure; peaks landing there are rejected.
PARABOLA_THETAS = tuple(math.radians(d) for d in (-10.0, -5.0, 0.0, 5.0, 10.0))
PARABOLA_CURVATURES = tuple(np.geomspace(0.004, 0.08, 20))
PARABOLA_STEP = 4
PARABOLA_VOTE_FLOOR = 0.05
# A root within this distance of an integer may vote differently in integer
# and float arithmetic, so ``_parabola_votes`` casts its votes by the float
# expression.
_NEAR_INTEGER = 1e-6

# Half-width of both centre windows: the pupil search around the dark-region
# prior, and the iris search around the pupil ("near but not necessarily
# concentric").
CENTER_OFFSET = 15

MIN_CIRCLE_VOTES = 3

# The pupil search covers radii [floor(PUPIL_BAND_LOW d), ceil(PUPIL_BAND_HIGH d)],
# clamped to the configured pupil range, where d = sqrt(area / pi) is the
# equivalent radius of the dark region ``_pupil_prior`` labels.  The Hough
# radius over d lies within 0.83-1.16 on the synthetic eyes at every
# pupil/iris ratio from 0.10 to 0.80; it is 2.3 or more when the search locks
# onto the iris boundary, and on noise, whose dark regions are smaller than
# the smallest pupil, the clamped band is empty.
PUPIL_BAND_LOW = 0.8
PUPIL_BAND_HIGH = 1.25


class SegmentationError(RuntimeError):
    """Raised when boundary detection fails or produces invalid geometry."""


@dataclass(frozen=True)
class Circle:
    cx: float
    cy: float
    r: float

    def __post_init__(self):
        for name in ("cx", "cy", "r"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.r <= 0:
            raise ValueError(f"circle radius must be positive, got {self.r}")

    def encloses(self, inner: "Circle") -> bool:
        """Whether ``inner`` lies wholly inside this circle (touching allowed)."""
        return math.hypot(inner.cx - self.cx, inner.cy - self.cy) + inner.r <= self.r


@dataclass(frozen=True)
class Parabola:
    """Vertex-form parabola with a tilted axis.

    In coordinates rotated by ``theta`` about the peak (h, k), with
    u along the rotated x-axis and w along the rotated y-axis, the curve
    is w = a * u**2.  ``a`` is the curvature in 1/pixels; its sign selects
    the opening direction (a < 0 bulges toward larger y, the upper-eyelid
    shape under a y-down raster).
    """

    h: float
    k: float
    a: float
    theta: float

    def __post_init__(self):
        for name in ("h", "k", "a", "theta"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.a == 0:
            raise ValueError("parabola curvature must be nonzero")
        if not -math.pi / 2 <= self.theta <= math.pi / 2:
            raise ValueError(f"theta {self.theta} outside [-pi/2, pi/2]")

    def side(self, x, y):
        """Signed residual: sign(a) * (w - a*u^2) > 0 on the occluded side."""
        dx = np.asarray(x, dtype=np.float64) - self.h
        dy = np.asarray(y, dtype=np.float64) - self.k
        c, s = math.cos(self.theta), math.sin(self.theta)
        u = dx * c + dy * s
        w = -dx * s + dy * c
        return np.sign(self.a) * (w - self.a * u * u)


@dataclass(frozen=True)
class SegmentationResult:
    pupil: Circle
    iris: Circle
    upper_eyelid: Parabola | None
    lower_eyelid: Parabola | None
    noise_mask: np.ndarray  # uint8, 1 = invalid, the image's shape

    def __post_init__(self):
        if not self.iris.encloses(self.pupil):
            raise ValueError("pupil circle must lie inside the iris circle")


@dataclass(frozen=True)
class SegmentationConfig:
    pupil_r_min: int = 6
    pupil_r_max: int = 62
    iris_r_min: int = 63
    iris_r_max: int = 110
    grad_threshold: float = 14.0
    specular_threshold: int = 240
    detect_eyelids: bool = True

    def __post_init__(self):
        if not 0 < self.pupil_r_min < self.pupil_r_max:
            raise ValueError("invalid pupil radius range")
        if not 0 < self.iris_r_min < self.iris_r_max:
            raise ValueError("invalid iris radius range")
        if self.pupil_r_max >= self.iris_r_min:
            raise ValueError("pupil radius range must lie below the iris radius range")
        if not 0 < self.grad_threshold < math.inf:
            raise ValueError("gradient threshold must be positive and finite")


_EDGE_SMOOTHING = gaussian_kernel(5, 1.0)


def edge_gradient(img: GrayImage) -> tuple[np.ndarray, np.ndarray]:
    """(d/dy, d/dx) of the image after 5x5 Gaussian smoothing, shared by all edge maps."""
    if img.height < _EDGE_SMOOTHING.shape[0] or img.width < _EDGE_SMOOTHING.shape[1]:
        raise SegmentationError(
            f"image {img.height}x{img.width} is smaller than the "
            f"{_EDGE_SMOOTHING.shape[0]}x{_EDGE_SMOOTHING.shape[1]} edge-smoothing kernel"
        )
    return np.gradient(convolve2d(img.pixels, _EDGE_SMOOTHING), edge_order=1)


def edge_map(gradient: tuple[np.ndarray, np.ndarray], bias: str, grad_threshold: float) -> np.ndarray:
    """Thresholded, non-maximum-suppressed edge points of an ``edge_gradient``,
    a read-only (N, 2) int64 array of (x, y) in row-major order.

    ``bias`` selects the gradient component: "vertical-edges" keeps |d/dx|
    (vertically oriented boundaries such as the iris sides),
    "horizontal-edges" keeps |d/dy| (eyelids), "none" the full magnitude.
    Non-maxima are suppressed along x, along y and along the quantized
    gradient direction, respectively, at the pixels that pass the threshold.
    """
    if bias not in EDGE_BIASES:
        raise ValueError(f"unknown edge bias {bias!r}; expected one of {EDGE_BIASES}")
    if grad_threshold <= 0:
        raise ValueError("grad_threshold must be positive")

    gy, gx = gradient
    width = gy.shape[1]
    mag = np.hypot(gx, gy) if bias == "none" else np.abs(gx if bias == "vertical-edges" else gy)
    # only pixels at or above the threshold can survive, so the direction and
    # the two neighbours are read at those candidates alone (row-major order)
    cand = np.flatnonzero(mag >= grad_threshold)
    if bias == "none":
        step = _SECTOR_STEPS[_gradient_sectors(gx.flat[cand], gy.flat[cand])]
        step = step[:, 0] * (width + 2) + step[:, 1]
    else:
        step = width + 2 if bias == "horizontal-edges" else 1
    # A pixel survives when its magnitude strictly exceeds the neighbour on
    # one side and is at least the neighbour on the other, so a tied pair
    # (as on a perfectly symmetric step) keeps exactly one pixel.
    padded = np.pad(mag, 1, mode="constant", constant_values=-np.inf).ravel()
    at = cand + 2 * (cand // width) + width + 3  # the candidate's index in the padded frame
    m = padded[at]
    cand = cand[(m > padded[at - step]) & (m >= padded[at + step])]
    ys, xs = np.divmod(cand, width)
    return freeze(np.column_stack([xs, ys]))


# (dy, dx) of the "positive" neighbour in each gradient sector
_SECTOR_STEPS = np.array(((0, 1), (1, 1), (1, 0), (1, -1)))


def _gradient_sectors(gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """Quantize gradient direction into 4 sectors: 0=E/W, 1=NE/SW, 2=N/S, 3=NW/SE."""
    ang = np.mod(np.arctan2(gy, gx), math.pi)
    return (np.rint(ang / (math.pi / 4)).astype(np.uint8)) % 4


def circular_hough(
    points: np.ndarray,
    shape: tuple[int, int],
    r_min: int,
    r_max: int,
    center_window: tuple[int, int, int, int],
    per_radius: bool = False,
) -> Circle:
    """Peak of the (cx, cy, r) vote accumulator of (x, y) edge ``points`` at 1 px resolution.

    ``center_window`` holds the candidate centres, the inclusive box
    (x_lo, x_hi, y_lo, y_hi), clipped to the source image of ``shape``
    (height, width).  ``per_radius`` scores each cell by votes/r (circle
    completeness) instead of raw votes: raw counts grow with circumference,
    which lets long near-tangential arcs of a large boundary outvote a small
    complete circle.  The pupil stage uses it, since small and large circles
    compete in one accumulator there.  Ties break toward the smallest radius,
    then smallest cy, then cx.
    """
    if len(points) == 0:
        raise SegmentationError("empty edge map, cannot vote for circles")
    if not 0 < r_min < r_max:
        raise ValueError(f"need 0 < r_min < r_max, got [{r_min}, {r_max}]")

    height, width = shape
    x_lo, x_hi, y_lo, y_hi = center_window
    x_lo, y_lo = max(x_lo, 0), max(y_lo, 0)
    x_hi, y_hi = min(x_hi, width - 1), min(y_hi, height - 1)
    if x_lo > x_hi or y_lo > y_hi:
        raise ValueError("center window does not intersect the image")
    acc_w = x_hi - x_lo + 1
    acc_h = y_hi - y_lo + 1

    r_min, r_max = int(r_min), int(r_max)
    px, py = points[:, 0], points[:, 1]
    acc = _vote_by_distance(px, py, r_min, r_max, x_lo, acc_w, y_lo, acc_h)
    # Best plane first, then the best cell in it.  Dividing by r is monotone
    # and keeps distinct counts of one plane distinct, so each plane's best
    # cell is its integer max; first occurrences keep the tie-break order.
    plane_max = acc.reshape(len(acc), -1).max(axis=1)
    if per_radius:
        plane_max = plane_max / np.arange(r_min, r_max + 1, dtype=np.float64)
    ri = int(np.argmax(plane_max))
    cell = int(np.argmax(acc[ri]))
    votes = int(acc[ri].flat[cell])
    if votes < MIN_CIRCLE_VOTES:
        raise SegmentationError(f"degenerate circle evidence: peak has only {votes} votes")
    cy, cx = divmod(cell, acc_w)
    return Circle(float(cx + x_lo), float(cy + y_lo), float(r_min + ri))


def _vote_by_distance(px, py, r_min, r_max, x_lo, acc_w, y_lo, acc_h):
    """Accumulate votes by rounding point-to-center distances.

    For integer offsets, rint(hypot(dx, dy)) == LUT[dx^2 + dy^2] with
    LUT[n] = rint(sqrt(n)): sqrt(n) = m + 1/2 would need n = m^2 + m + 1/4,
    so the nearest integers n leave sqrt(n) at least about 1/(8 m) from a
    rounding boundary, far beyond either function's last-bit error.  Squared
    offsets are capped at (r_max + 1)^2, beyond which every distance rounds
    past r_max; the LUT maps the radii outside [r_min, r_max] to a sink plane.
    A point whose nearest and farthest window centres both round outside
    [r_min, r_max] (rint(sqrt(n)) <= r_max iff n <= r_max (r_max + 1)) votes
    only into the sink, so it is dropped.  One centre row votes at a time,
    through one small ``bincount`` of plane * acc_w + column, so the working
    set stays near (points, acc_w) whatever the window height.  The votes go
    point-major: consecutive votes are one point's columns, which land in
    distinct counters even in the sink plane, where about half the pupil
    votes go and column-major order made ``bincount`` stall on one counter.
    """
    x_hi, y_hi = x_lo + acc_w - 1, y_lo + acc_h - 1
    near2 = (np.maximum(np.maximum(x_lo - px, px - x_hi), 0) ** 2
             + np.maximum(np.maximum(y_lo - py, py - y_hi), 0) ** 2)
    far2 = np.maximum(px - x_lo, x_hi - px) ** 2 + np.maximum(py - y_lo, y_hi - py) ** 2
    keep = (near2 <= r_max * (r_max + 1)) & (far2 > r_min * (r_min - 1))
    px, py = px[keep], py[keep]
    n_r = r_max - r_min + 1
    cap = (r_max + 1) ** 2
    dx2 = np.minimum((px[:, None] - (x_lo + np.arange(acc_w))[None, :]) ** 2, cap).astype(np.int32)
    dy2 = np.minimum((py[None, :] - (y_lo + np.arange(acc_h))[:, None]) ** 2, cap).astype(np.int32)
    ring = _rounded_sqrt(2 * cap + 1) - r_min
    plane = np.where((ring >= 0) & (ring < n_r), ring, n_r) * acc_w
    column = np.arange(acc_w)
    acc = np.empty((n_r, acc_h, acc_w), dtype=np.int32)
    for row in range(acc_h):
        flat = np.take(plane, dx2 + dy2[row, :, None])
        flat += column
        acc[:, row] = np.bincount(flat.ravel(), minlength=(n_r + 1) * acc_w)[: n_r * acc_w].reshape(n_r, acc_w)
    return acc


def _rounded_sqrt(n: int) -> np.ndarray:
    """LUT[m] = rint(sqrt(m)) for 0 <= m < n: the rounded length of an offset with dx^2 + dy^2 = m."""
    return np.rint(np.sqrt(np.arange(n))).astype(np.intp)


def _pupil_prior(img: GrayImage, r_min: int) -> tuple[int, int, float]:
    """Rounded centroid (x, y) of the darkest region, a prior for the pupil centre,
    and the region's equivalent radius sqrt(area / pi), a prior for its radius.

    The image is box-averaged over the smallest pupil's diameter, so thin
    dark structure fades while the pupil stays darkest; the region is the
    connected set at or below min + (median - min) / 4 that holds the
    first minimum.
    """
    mean = ndimage.uniform_filter(img.pixels.astype(np.float64), 2 * r_min + 1, mode="nearest")
    lo = mean.min()
    labels, _ = ndimage.label(mean <= lo + (np.median(mean) - lo) / 4)
    ys, xs = np.nonzero(labels == labels.flat[np.argmin(mean)])
    return round(xs.mean()), round(ys.mean()), math.sqrt(len(xs) / math.pi)


def _center_window(cx: int, cy: int) -> tuple[int, int, int, int]:
    """The inclusive centre box of half-width CENTER_OFFSET around (cx, cy)."""
    return cx - CENTER_OFFSET, cx + CENTER_OFFSET, cy - CENTER_OFFSET, cy + CENTER_OFFSET


def _pupil_band(d: float, cfg: SegmentationConfig) -> tuple[int, int]:
    """The pupil radii [r_lo, r_hi] for a dark region of equivalent radius ``d``."""
    r_lo = max(cfg.pupil_r_min, math.floor(PUPIL_BAND_LOW * d))
    r_hi = min(cfg.pupil_r_max, math.ceil(PUPIL_BAND_HIGH * d))
    if r_hi <= r_lo:
        raise SegmentationError("no pupil-sized dark region")
    return r_lo, r_hi


def _window_edges(gradient: tuple[np.ndarray, np.ndarray], window: tuple[int, int, int, int],
                  bias: str, margin: int, grad_threshold: float) -> np.ndarray:
    """The ``bias`` ``edge_map`` of the gradient cropped to ``window`` widened by
    ``margin`` on each side, in the coordinates of the whole image."""
    x_lo, x_hi, y_lo, y_hi = window
    x0, y0 = max(x_lo - margin, 0), max(y_lo - margin, 0)
    crop = (slice(y0, y_hi + margin + 1), slice(x0, x_hi + margin + 1))
    return freeze(edge_map((gradient[0][crop], gradient[1][crop]), bias, grad_threshold) + (x0, y0))


def _find_circle(stage: str, gradient: tuple[np.ndarray, np.ndarray], bias: str,
                 centre: tuple[int, int], r_lo: int, r_hi: int, grad_threshold: float,
                 per_radius: bool = False) -> Circle:
    """The ``circular_hough`` circle of radius r_lo..r_hi centred within CENTER_OFFSET
    of ``centre``, voted by the ``bias`` edges around that window; a failed vote is a
    ``SegmentationError`` naming ``stage``."""
    window = _center_window(*centre)
    # a point r_hi + 2 outside the window votes only into the sink (see the module docstring)
    edges = _window_edges(gradient, window, bias, r_hi + 2, grad_threshold)
    try:
        return circular_hough(edges, gradient[0].shape, r_lo, r_hi, window, per_radius)
    except SegmentationError as exc:
        raise SegmentationError(f"{stage} detection failed: {exc}") from exc


def locate_pupil_and_iris(img: GrayImage, cfg: SegmentationConfig,
                          gradient=None) -> tuple[Circle, Circle]:
    """Two-stage circle detection: pupil near the dark-region prior, iris near the pupil.

    ``gradient`` is the image's ``edge_gradient``, computed here when omitted.
    """
    gradient = edge_gradient(img) if gradient is None else gradient
    cx, cy, d = _pupil_prior(img, cfg.pupil_r_min)
    pupil = _find_circle("pupil", gradient, "none", (cx, cy), *_pupil_band(d, cfg),
                         cfg.grad_threshold, per_radius=True)
    iris = _find_circle("iris", gradient, "vertical-edges", (int(pupil.cx), int(pupil.cy)),
                        cfg.iris_r_min, cfg.iris_r_max, cfg.grad_threshold)
    if not iris.encloses(pupil):
        raise SegmentationError("pupil circle not contained in iris circle")
    return pupil, iris


def parabolic_hough(
    points: np.ndarray,
    search_region: tuple[int, int, int, int],
    curvature_sign: int = 1,
) -> Parabola | None:
    """Quantized (h, k, a, theta) vote of (x, y) edge ``points`` for an eyelid arc.

    ``search_region`` is the inclusive box (x_lo, x_hi, y_lo, y_hi) that must
    contain the peak; only the points inside it vote.  Returns None when no
    cell collects at least 5% of the region's edge points, or when the winner
    sits on the flattest curvature step (straight-line structure, not an
    eyelid).  Absence is a valid outcome, not an error.
    """
    if curvature_sign not in (1, -1):
        raise ValueError("curvature_sign must be +1 or -1")
    x_lo, x_hi, y_lo, y_hi = search_region
    inside = (
        (points[:, 0] >= x_lo) & (points[:, 0] <= x_hi)
        & (points[:, 1] >= y_lo) & (points[:, 1] <= y_hi)
    )
    pts = points[inside]
    if len(pts) == 0:
        return None

    acc = _parabola_votes(pts, search_region, curvature_sign)
    _, _, k_count, n_h = acc.shape
    cells = k_count * n_h
    peak = int(np.argmax(acc))
    votes = int(acc.flat[peak])
    if votes < PARABOLA_VOTE_FLOOR * len(pts):
        return None
    ti, rem = divmod(peak, len(PARABOLA_CURVATURES) * cells)
    ai, rem = divmod(rem, cells)
    ki, hi = divmod(rem, n_h)
    if ai == 0:
        return None  # flattest-step sink: straight-line structure
    return Parabola(
        h=float(x_lo + hi * PARABOLA_STEP),
        k=float(y_lo + ki * PARABOLA_STEP),
        a=curvature_sign * float(PARABOLA_CURVATURES[ai]),
        theta=PARABOLA_THETAS[ti],
    )


@lru_cache(maxsize=8)
def _parabola_roots(curvature_sign: int, extent: int) -> np.ndarray:
    """Both roots Y of every (theta, a) quadratic at each integer X in [-extent, extent].

    Shape (thetas, curvatures, 2, 2 * extent + 1), NaN where a root does not
    exist.  The expressions and their order are the per-pair ones, so each
    entry carries the bits the per-pair evaluation would give.
    """
    X = np.arange(-extent, extent + 1, dtype=np.float64)
    roots = np.full((len(PARABOLA_THETAS), len(PARABOLA_CURVATURES), 2, len(X)), np.nan)
    for ti, theta in enumerate(PARABOLA_THETAS):
        c, s = math.cos(theta), math.sin(theta)
        for ai, a_mag in enumerate(PARABOLA_CURVATURES):
            a = curvature_sign * a_mag
            # substitute Y = y - k into w = a*u^2 and solve the quadratic
            # a*s^2*Y^2 + (2aXsc - c)*Y + (aX^2c^2 + Xs) = 0
            alpha = a * s * s
            beta = 2.0 * a * X * s * c - c
            gamma = a * X * X * c * c + X * s
            if abs(alpha) < 1e-12:
                with np.errstate(divide="ignore", invalid="ignore"):
                    roots[ti, ai, 0] = np.where(beta != 0, -gamma / beta, np.nan)
            else:
                disc = beta * beta - 4.0 * alpha * gamma
                valid = disc >= 0
                sq = np.sqrt(np.where(valid, disc, 0.0))
                roots[ti, ai, 0] = np.where(valid, (-beta + sq) / (2 * alpha), np.nan)
                roots[ti, ai, 1] = np.where(valid, (-beta - sq) / (2 * alpha), np.nan)
    roots.setflags(write=False)
    return roots


@lru_cache(maxsize=256)
def _parabola_runs(curvature_sign: int, extent: int, span: int) -> tuple[np.ndarray, ...]:
    """The in-band runs (row, X0, X1) of the root table for a region span + 1 rows tall.

    Row ``row`` of the table reshaped to one row per (theta, a, root) has its
    root inside ``_parabola_band`` exactly at the offsets X0 <= X + extent < X1.
    The band, and so the runs, depend only on the region's height.
    """
    roots = _parabola_roots(curvature_sign, extent)
    roots = roots.reshape(-1, roots.shape[-1])
    band_lo, band_hi = _parabola_band(0, span)
    in_band = (roots >= band_lo) & (roots <= band_hi)
    steps = np.diff(in_band.astype(np.int8), axis=1, prepend=0, append=0)
    row, x0 = np.nonzero(steps == 1)
    x1 = np.nonzero(steps == -1)[1]
    for arr in (row, x0, x1):
        arr.setflags(write=False)
    return row, x0, x1


@lru_cache(maxsize=8)
def _parabola_floors(curvature_sign: int, extent: int) -> tuple[np.ndarray, ...]:
    """floor(2 - Y) of every ``_parabola_roots`` entry, and the entries near an integer.

    Returns (floors, near_row, near_x).  ``floors`` has one row per
    (theta, a, root), like the reshaped root table, and holds 1 where the
    root does not exist (such an entry is never in band).  The entries
    (near_row, near_x) are the roots within ``_NEAR_INTEGER`` of an integer:
    212 of the 72,744 roots at extent 256, of which 192 are integers.
    """
    roots = _parabola_roots(curvature_sign, extent)
    roots = roots.reshape(-1, roots.shape[-1])
    roots = np.where(np.isfinite(roots), roots, 0.5)
    floors = np.floor(2 - roots).astype(np.intp)
    near_row, near_x = np.nonzero(np.abs(roots - np.rint(roots)) < _NEAR_INTEGER)
    for arr in (floors, near_row, near_x):
        arr.setflags(write=False)
    return floors, near_row, near_x


def _parabola_band(y_lo: int, y_hi: int) -> tuple[int, int]:
    """Bounds [lo, hi] on the root Y of every vote that lands in the accumulator.

    With v = ((y - Y) - y_lo) / 4 and y_lo <= y <= y_hi, k index 0 needs
    v >= -1/2, so Y <= y - y_lo + 2 <= (y_hi - y_lo) + 2; the last index
    k_count - 1 needs v <= k_count - 1/2, so Y >= y - y_lo - 4 k_count + 2
    >= -4 k_count + 2.  The computed v is off by a few ulps of a value
    below 1e3, far inside the 2 px added on each side.  In the band,
    floor(2 - Y) >= -(y_hi - y_lo) - 2, which sets the offset that keeps the
    integer vote's bin indices non-negative.
    """
    k_count = (y_hi - y_lo) // PARABOLA_STEP + 1
    return -PARABOLA_STEP * k_count - PARABOLA_STEP, (y_hi - y_lo) + PARABOLA_STEP


def _parabola_votes(pts: np.ndarray, search_region, curvature_sign: int) -> np.ndarray:
    """The (theta, a, k, h) vote accumulator of the points inside the region.

    Each (point, column h) pair votes, for every (theta, a) and each root Y
    of its quadratic, at k index rint(((y - Y) - y_lo) / PARABOLA_STEP).
    The root depends only on the integer X = x - h, so it comes from the
    ``_parabola_roots`` table.  With the pairs sorted by X, the pairs whose
    root lies in ``_parabola_band`` form a few contiguous runs per
    (theta, a, root), read from the cached ``_parabola_runs`` plan; only
    those vote.

    The vote is integer work.  With m = y - y_lo, real arithmetic gives
    rint((m - Y) / 4) = (m + floor(2 - Y)) // 4 except where (m - Y) / 4 is
    a half-integer, and the float expression is off the real value by at
    most about ulp(2 * height), below 2.5e-7 for any height under 2^30; so
    the two agree wherever Y lies at least ``_NEAR_INTEGER`` from an integer.
    A run therefore repeats each entry's cached ``_parabola_floors`` value
    over that entry's pairs (they are sorted by X), adds m, and counts the
    sums in 1 px bins, which fold four to a k row.  The offset 4 * base keeps
    every sum non-negative; votes outside [0, k_count) land in bins that are
    sliced off.  The pairs on an in-band entry near an integer are then
    voted again: the integer vote is taken back and the float vote cast.
    """
    x_lo, x_hi, y_lo, y_hi = search_region
    n_h = len(range(x_lo, x_hi + 1, PARABOLA_STEP))
    k_count = (y_hi - y_lo) // PARABOLA_STEP + 1
    extent = 1 << (x_hi - x_lo).bit_length()  # the next power of two >= the region width
    roots = _parabola_roots(curvature_sign, extent)
    roots = roots.reshape(-1, roots.shape[-1])  # one row per (theta, a, root)
    floors, near_row, near_x = _parabola_floors(curvature_sign, extent)

    # (point, column) pairs sorted by X, as offsets X + extent into the root table
    Xi = (pts[:, 0][:, None] - (x_lo + PARABOLA_STEP * np.arange(n_h))[None, :] + extent).ravel()
    order = np.argsort(Xi.astype(np.min_scalar_type(2 * extent)), kind="stable")
    m = pts[order // n_h, 1] - y_lo
    col = order % n_h
    base = -(-(y_hi - y_lo + 2) // PARABOLA_STEP)  # see _parabola_band
    cell = (m + PARABOLA_STEP * base) * n_h + col
    counts = np.bincount(Xi[order], minlength=roots.shape[1])
    bounds = np.concatenate(([0], np.cumsum(counts)))

    lo_bin, hi_bin = PARABOLA_STEP * base * n_h, PARABOLA_STEP * (base + k_count) * n_h
    run_row, run_x0, run_x1 = _parabola_runs(curvature_sign, extent, y_hi - y_lo)
    run_lo, run_hi = bounds[run_x0], bounds[run_x1]
    runs = run_lo < run_hi
    acc = np.zeros((len(roots) // 2, k_count, n_h), dtype=np.int64)
    for row, x0, x1, lo, hi in zip(run_row[runs].tolist(), run_x0[runs].tolist(),
                                   run_x1[runs].tolist(), run_lo[runs].tolist(), run_hi[runs].tolist()):
        flat = np.repeat(floors[row, x0:x1] * n_h, counts[x0:x1])
        flat += cell[lo:hi]
        bins = np.bincount(flat, minlength=hi_bin)[lo_bin:hi_bin]
        acc[row // 2] += bins.reshape(k_count, PARABOLA_STEP, n_h).sum(axis=1)

    # in-band roots near an integer: take the integer votes back, cast the float ones
    band_lo, band_hi = _parabola_band(y_lo, y_hi)
    Y = roots[near_row, near_x]
    near = (Y >= band_lo) & (Y <= band_hi)
    row, x, Y = near_row[near], near_x[near], Y[near]
    n = counts[x]
    entry = np.repeat(np.arange(len(x)), n)  # each entry's pairs, in turn
    pair = np.arange(len(entry)) + np.repeat(bounds[x] - (np.cumsum(n) - n), n)
    k_int = (m[pair] + floors[row, x][entry]) // PARABOLA_STEP
    y = (m[pair] + y_lo).astype(np.float64)
    k_float = np.rint(((y - Y[entry]) - y_lo) * (1 / PARABOLA_STEP)).astype(np.intp)
    moved = (k_int != k_float).nonzero()[0]
    plane, column = row[entry[moved]] // 2, col[pair[moved]]
    for k, vote in ((k_int[moved], -1), (k_float[moved], 1)):
        lands = (k >= 0) & (k < k_count)
        np.add.at(acc, (plane[lands], k[lands], column[lands]), vote)
    shape = (len(PARABOLA_THETAS), len(PARABOLA_CURVATURES), k_count, n_h)
    return acc.reshape(shape).astype(np.int32)


def detect_eyelids(
    gradient: tuple[np.ndarray, np.ndarray], pupil: Circle, iris: Circle, grad_threshold: float
) -> tuple[Parabola | None, Parabola | None]:
    """Upper and lower eyelid arcs in the iris's bounding box, from an ``edge_gradient``."""
    edges = edge_map(gradient, "horizontal-edges", grad_threshold)
    height, width = gradient[0].shape
    x_lo = max(0, int(iris.cx - iris.r))
    x_hi = min(width - 1, int(iris.cx + iris.r))
    upper_region = (x_lo, x_hi, max(0, int(iris.cy - iris.r)), int(iris.cy))
    lower_region = (x_lo, x_hi, int(iris.cy), min(height - 1, int(iris.cy + iris.r)))
    upper = parabolic_hough(edges, upper_region, curvature_sign=-1)
    lower = parabolic_hough(edges, lower_region, curvature_sign=1)
    return upper, lower


def build_noise_mask(
    img: GrayImage,
    pupil: Circle,
    iris: Circle,
    eyelids: tuple[Parabola | None, Parabola | None] = (None, None),
    specular_threshold: int = 240,
) -> np.ndarray:
    """Per-pixel validity mask, a read-only uint8 array of the image's shape, 1 = invalid.

    Marks everything outside the iris annulus, inside the pupil, on the
    occluded side of each eyelid parabola, or at/above the specular
    intensity threshold.
    """
    if not iris.encloses(pupil):
        raise SegmentationError("pupil circle not contained in iris circle")

    # every pixel outside the iris circle is masked, so the circle and eyelid
    # rules run only in its bounding box, widened by 1 px against rounding
    box_rows, box_cols = _span(iris.cy, iris.r, img.height), _span(iris.cx, iris.r, img.width)
    ys, xs = np.mgrid[box_rows, box_cols]
    d_pupil = np.hypot(xs - pupil.cx, ys - pupil.cy)
    d_iris = np.hypot(xs - iris.cx, ys - iris.cy)
    box = (d_pupil <= pupil.r) | (d_iris > iris.r)
    for lid in eyelids:
        if lid is not None:
            box |= lid.side(xs, ys) > 0
    mask = np.ones(img.pixels.shape, dtype=bool)
    mask[box_rows, box_cols] = box
    mask |= img.pixels >= specular_threshold
    return freeze(mask.astype(np.uint8))


def _span(center: float, radius: float, n: int) -> slice:
    """The indices in range(n) within 1 px of [center - radius, center + radius]."""
    lo, hi = np.clip((np.floor(center - radius) - 1, np.ceil(center + radius) + 2), 0, n).astype(int)
    return slice(lo, hi)


def segment(img: GrayImage, cfg: SegmentationConfig) -> SegmentationResult:
    """Full segmentation: circles, optional eyelids, and the noise mask, from one gradient."""
    gradient = edge_gradient(img)
    pupil, iris = locate_pupil_and_iris(img, cfg, gradient)
    lids = (None, None)
    if cfg.detect_eyelids:
        lids = detect_eyelids(gradient, pupil, iris, cfg.grad_threshold)
    mask = build_noise_mask(img, pupil, iris, lids, cfg.specular_threshold)
    return SegmentationResult(pupil, iris, *lids, mask)


def segmentation_overlay(img: GrayImage, pupil: Circle, iris: Circle) -> GrayImage:
    """Debug image with both circle boundaries painted at intensity 255."""
    out = img.pixels.copy()
    ys, xs = np.mgrid[0 : img.height, 0 : img.width]
    for circle in (pupil, iris):
        d = np.hypot(xs - circle.cx, ys - circle.cy)
        out[np.abs(d - circle.r) < 0.7] = 255
    return GrayImage(out)


def circles_sidecar(pupil: Circle, iris: Circle) -> str:
    """Line-oriented text summary of the detected circles."""
    return (
        f"pupil {pupil.cx:g} {pupil.cy:g} {pupil.r:g}\n"
        f"iris {iris.cx:g} {iris.cy:g} {iris.r:g}\n"
    )
