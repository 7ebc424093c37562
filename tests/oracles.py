"""Independent reference implementations shared by module and acceptance tests.

These deliberately use plain loops and breadth-first search so they share no
code path with the library they check.  The RFE and GA-fitness references
are the one-target-at-a-time and one-chromosome-at-a-time forms of the
batched kernels in ``irisfuse.gasel``; they share only the scalar
``fitness_cost`` formula with it.  ``hough_circle_normalized`` is the
former whole-image pupil-stage decoder of ``irisfuse.segmentation``, kept
verbatim so ``circular_hough(..., per_radius=True)`` and the prior-window
pupil search can be checked against it; it votes with ``vote_by_rings``, the
former ring-stamping kernel, also kept verbatim.  ``zerocross_match_rolled``
and ``euler_code_per_plane`` are the former ``np.roll`` shift loop of
``zerocross.match`` and the former one-plane-at-a-time ``euler.euler_code``,
kept verbatim as the references for the bit-packed and one-pass kernels.
``encode_inline`` is the former ``zerocross.encode`` with the wavelet
transform written out along the rows, and ``roulette_select_per_draw`` the
former roulette draw that validates and sums the fitness on every call; both
are kept verbatim as the references for the shared-transform encoder and the
GA's once-per-generation roulette wheel.  ``parabolic_hough_loop`` is the
former ``parabolic_hough``, which solved every (theta, a) quadratic per
(point, column) pair and voted with one ``bincount`` per root, and
``vote_by_distance_hypot`` the former float-``hypot`` distance kernel; both
are kept verbatim as the references for the root-table eyelid vote and the
integer-distance circle vote.  ``euler_number_quads`` is the former
``euler.euler_number``, a one-plane bit-quad count kept verbatim so that the
one-plane oracle ``euler_code_per_plane`` does not run the nibble kernel it
checks.  ``edge_map_image`` is the former ``segmentation.edge_map``, which
smoothed and differentiated the image on every call and suppressed
non-maxima through a per-pixel sector array for every bias; it is kept
verbatim, with its two helpers, as the reference for the shared-gradient
edge maps.  ``nibble_euler`` is the former ``euler._nibble_euler``, which
counted the four planes of a nibble image through one 12-bit quad code, a
``bincount`` and the ``quad_weights`` table, and ``match_subset_compressed``
the former ``gasel.match_subset``, which averaged over the compressed array of
jointly valid features; both are kept verbatim as the references for the
per-plane ``count_nonzero`` kernel and the masked city-block over all pairs.
``trial_ranges`` and ``recalibrate_worst`` are the two former score-range
fits: the ``[min, max]`` loop of ``evaluation.run_trials`` and
``store._recalibrate`` with its per-pair zerocross loop that skipped
incomparable pairs; ``worst_ranges`` is the latter's range rule on given
distance arrays.  All three are kept verbatim as the references for
``fusion.fit_ranges``.  ``rank_rfe_rebuild`` is the former ``gasel.rank_rfe``,
which rebuilt the ridge gram at every elimination step; ``rank_entropy_loop``
the former ``gasel.rank_entropy``, whose per-feature, per-bin loop is
``entropy_gains_loop``; and ``rates_at_eer_sweep`` the former
``_SubsetTrial._rates_at_eer``, a sweep over every distinct threshold.  All
three are kept verbatim as the references for the downdated gram, the
whole-matrix information gain and the FAR/FRR crossing search.
``vote_by_distance_bincount`` is the former ``segmentation._vote_by_distance``,
which voted every centre of the window at once through one chunked
``bincount``; ``parabola_votes_per_region`` the former
``segmentation._parabola_votes``, which derived its in-band run plan from the
root table in every region and clipped with ``np.clip``; and
``build_noise_mask_full`` the former ``segmentation.build_noise_mask``, which
evaluated the circle and eyelid rules over the whole frame.  All three are
kept verbatim as the references for the row-blocked circle vote, the cached
run plan and the box-bounded noise mask; ``edge_map_image`` above already is
the whole-frame reference for the candidate-only edge suppression.
``synth_eye_full_frame`` is the former ``synth.synth_eye``, which evaluated
the circle tests, the fixed-point inverse rubber-sheet map (with an
``arctan2`` in every iteration) and the texture over the whole frame, and
tested every specular dot against every pixel; it is kept verbatim as the
reference for the renderer that touches only the pixels each step writes.
``rubber_sheet_bilinear`` is the former ``normalization.rubber_sheet``, which
recomputed the grid trigonometry on every call and wrote the bilinear
interpolation out as four gathers weighted by ``fx`` and ``fy``; it is kept
verbatim as the reference for the fixed grid sampled by one
``map_coordinates`` call.  ``rank_rfe_downdate`` is the later
``gasel.rank_rfe``, which built the ridge gram once, downdated it by each
dropped feature and refit every live weight with one LU solve per step; it
is kept verbatim as the reference for the rank-one updates of the inverse
gram and of the weights.  ``parabola_votes_float`` is the later
``segmentation._parabola_votes``, which read the cached run plan but cast
every vote by the float expression rint(((y - Y) - y_lo) / 4) with a clip to
sink rows; it is kept verbatim as the reference for the integer vote from the
cached floor table and its near-integer re-vote.
"""

import math
from functools import lru_cache

import numpy as np
from scipy import ndimage
from scipy.spatial.distance import pdist, squareform

from irisfuse.euler import MSB_PLANES, CovarianceModel, EulerCode, calibrated_covariance, mahalanobis_rows
from irisfuse.fusion import ALGORITHMS, ScoreRange
from irisfuse.gasel import (
    _ENTROPY_BINS,
    _RIDGE_LAMBDA,
    _check_labels,
    _ranking_from_scores,
    fitness_cost,
    match_pairs,
)
from irisfuse.imaging import BinaryImage, GrayImage, gaussian_kernel
from irisfuse.normalization import POLAR_HEIGHT, POLAR_WIDTH, IncomparableError, PolarIris
from irisfuse.segmentation import (
    EDGE_BIASES,
    MIN_CIRCLE_VOTES,
    PARABOLA_CURVATURES,
    PARABOLA_STEP,
    PARABOLA_THETAS,
    PARABOLA_VOTE_FLOOR,
    Circle,
    EdgeMap,
    Parabola,
    SegmentationError,
    SegmentationResult,
    _parabola_band,
    _parabola_roots,
    _parabola_runs,
    _rounded_sqrt,
    build_noise_mask,
)
from irisfuse.synth import (
    EYELID_LEVEL,
    IRIS_BASE,
    PUPIL_LEVEL,
    SCLERA_LEVEL,
    SPECULAR_LEVEL,
    TEXTURE_WAVES,
    SynthEyeSpec,
    _eyelids_for,
    _texture_params,
)
from irisfuse.zerocross import (
    _G_NORMALIZED,
    VALID_SCALES,
    ZeroCrossTemplate,
    _smoothing_kernel,
    convolve2d,
    match as zc_match,
)


def flood_fill_euler(bits):
    """BFS component/hole counting on a 0/1 grid (8-conn fg, 4-conn bg)."""
    h, w = bits.shape
    seen = np.zeros((h, w), dtype=bool)

    def flood(y0, x0, value, neighbors):
        stack = [(y0, x0)]
        seen[y0, x0] = True
        while stack:
            y, x = stack.pop()
            for dy, dx in neighbors:
                ny, nx = y + dy, x + dx
                if 0 <= ny < h and 0 <= nx < w and not seen[ny, nx] and bits[ny, nx] == value:
                    seen[ny, nx] = True
                    stack.append((ny, nx))

    eight = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
    four = [(-1, 0), (1, 0), (0, -1), (0, 1)]

    components = 0
    for y in range(h):
        for x in range(w):
            if bits[y, x] == 1 and not seen[y, x]:
                components += 1
                flood(y, x, 1, eight)

    seen[:] = False
    # background connected to the border is the outside, not a hole
    for y in range(h):
        for x in range(w):
            if (y in (0, h - 1) or x in (0, w - 1)) and bits[y, x] == 0 and not seen[y, x]:
                flood(y, x, 0, four)
    holes = 0
    for y in range(h):
        for x in range(w):
            if bits[y, x] == 0 and not seen[y, x]:
                holes += 1
                flood(y, x, 0, four)
    return components - holes


def brute_force_eer(genuine, imposter):
    """Sweep every distinct score value, midpoint at min |FAR - FRR|."""
    genuine = np.asarray(genuine, dtype=float)
    imposter = np.asarray(imposter, dtype=float)
    best = None
    for t in np.unique(np.concatenate([genuine, imposter])):
        far = float(np.mean(imposter >= t))
        frr = float(np.mean(genuine < t))
        key = abs(far - frr)
        if best is None or key < best[0] - 1e-15:
            best = (key, (far + frr) / 2.0)
    return best[1]


def planted_problem(seed, n_features=100, n_informative=10, classes=6, per_class=6):
    """Feature-selection benchmark: class structure on a hidden subset."""
    rng = np.random.default_rng(seed)
    informative = np.sort(rng.choice(n_features, size=n_informative, replace=False))
    n = classes * per_class
    X = rng.uniform(60.0, 200.0, size=(n, n_features))
    y = np.repeat(np.arange(classes), per_class)
    for j in informative:
        mu = rng.uniform(60.0, 200.0, size=classes)
        X[:, j] = mu[y] + rng.normal(0.0, 12.0, size=n)
    return X, y, set(int(i) for i in informative)


def rank_rfe_per_target(X, y):
    """Recursive feature elimination solving one class target at a time.

    The scalar reference for ``gasel.rank_rfe``: the ridge discriminant is
    refit after each elimination with one ``np.linalg.solve`` per target.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    classes = np.unique(y)

    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    Z = (X - mu) / np.where(sd > 0, sd, 1.0)

    targets = []
    if len(classes) == 2:
        targets.append(np.where(y == classes[0], 1.0, -1.0))
    else:
        for c in classes:
            targets.append(np.where(y == c, 1.0, -1.0))

    def weights(cols):
        Zc = Z[:, cols]
        gram = Zc @ Zc.T + 1.0 * np.eye(len(Zc))
        best = np.zeros(len(cols))
        for t in targets:
            alpha = np.linalg.solve(gram, t)
            best = np.maximum(best, np.abs(Zc.T @ alpha))
        return best

    active = list(range(X.shape[1]))
    eliminated = []
    while len(active) > 1:
        w = weights(np.asarray(active, dtype=np.intp))
        worst = np.flatnonzero(np.abs(w) == np.abs(w).min())
        drop_pos = int(worst.max())  # ties: drop the largest index first
        eliminated.append(active.pop(drop_pos))
    order = [active[0]] + eliminated[::-1]
    return np.asarray(order, dtype=np.intp)


def rank_rfe_rebuild(X, y) -> np.ndarray:
    """Recursive feature elimination over a ridge-regularized discriminant.

    Features are standardized once, the discriminant is retrained after each
    elimination of the smallest-|weight| feature, and the ranking is the
    reverse elimination order.
    """
    X = np.asarray(X, dtype=np.float64)
    y, classes = _check_labels(y, 1)
    if len(y) < 2:
        raise ValueError("need at least 2 samples")

    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    Z = (X - mu) / np.where(sd > 0, sd, 1.0)

    # one +/-1 target column per class; a binary problem needs only the first
    targets = classes[:1] if len(classes) == 2 else classes
    T = np.where(y[:, None] == targets[None, :], 1.0, -1.0)

    def weights(cols: np.ndarray) -> np.ndarray:
        Zc = Z[:, cols]
        gram = Zc @ Zc.T + _RIDGE_LAMBDA * np.eye(len(Zc))
        return np.abs(Zc.T @ np.linalg.solve(gram, T)).max(axis=1)

    active = list(range(X.shape[1]))
    eliminated: list[int] = []
    while len(active) > 1:
        w = weights(np.asarray(active, dtype=np.intp))
        worst = np.flatnonzero(np.abs(w) == np.abs(w).min())
        drop_pos = int(worst.max())  # ties: drop the largest index first
        eliminated.append(active.pop(drop_pos))
    order = [active[0]] + eliminated[::-1]
    return np.asarray(order, dtype=np.intp)


def rank_rfe_downdate(X, y) -> np.ndarray:
    """Recursive feature elimination over a ridge-regularized discriminant.

    Features are standardized once, the discriminant is retrained after each
    elimination of the smallest-|weight| feature, and the ranking is the
    reverse elimination order.  The ridge gram Z Z^T + lambda I over the
    active features is built once and downdated by each dropped feature's
    outer product.  Each refit is one LU solve: at these sizes OpenBLAS's
    threaded Cholesky is several times slower.
    """
    X = np.asarray(X, dtype=np.float64)
    y, classes = _check_labels(y, 1)
    if len(y) < 2:
        raise ValueError("need at least 2 samples")

    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    Z = (X - mu) / np.where(sd > 0, sd, 1.0)

    # one +/-1 target column per class; a binary problem needs only the first
    targets = classes[:1] if len(classes) == 2 else classes
    T = np.where(y[:, None] == targets[None, :], 1.0, -1.0)

    gram = Z @ Z.T + _RIDGE_LAMBDA * np.eye(len(Z))
    active = list(range(X.shape[1]))
    eliminated: list[int] = []
    while len(active) > 1:
        w = np.abs(Z[:, active].T @ np.linalg.solve(gram, T)).max(axis=1)
        drop_pos = int(np.flatnonzero(w == w.min()).max())  # ties: drop the largest index first
        eliminated.append(active.pop(drop_pos))
        dropped = Z[:, eliminated[-1]]
        gram -= np.outer(dropped, dropped)
    order = [active[0]] + eliminated[::-1]
    return np.asarray(order, dtype=np.intp)


def rank_entropy_loop(X, y) -> np.ndarray:
    """Features ordered by information gain of a 10-bin discretization."""
    return _ranking_from_scores(entropy_gains_loop(X, y))


def entropy_gains_loop(X, y) -> np.ndarray:
    """Information gain of each feature, one feature and one bin at a time."""
    X = np.asarray(X, dtype=np.float64)
    y, classes = _check_labels(y, 2)
    n = len(y)
    class_ids = np.searchsorted(classes, y)
    prior = np.bincount(class_ids, minlength=len(classes)) / n
    h_y = -np.sum(prior * np.log2(prior, where=prior > 0, out=np.zeros_like(prior)))

    gains = np.zeros(X.shape[1])
    for f in range(X.shape[1]):
        col = X[:, f]
        lo, hi = col.min(), col.max()
        if hi <= lo:
            continue  # constant feature: a single bin, zero gain
        bins = np.minimum(((col - lo) / (hi - lo) * _ENTROPY_BINS).astype(int), _ENTROPY_BINS - 1)
        cond = 0.0
        for b in np.unique(bins):
            sel = bins == b
            p_b = sel.mean()
            sub = np.bincount(class_ids[sel], minlength=len(classes)) / sel.sum()
            cond += p_b * -np.sum(sub * np.log2(sub, where=sub > 0, out=np.zeros_like(sub)))
        gains[f] = h_y - cond
    return gains


def rates_at_eer_sweep(sims, pair_same) -> tuple[float, float]:
    """FAR and FRR at the first distinct threshold minimising |FAR - FRR|.

    The thresholds are the distinct similarities in sorted order.  Below
    the one first at sorted index k lie k pairs; the genuine ones among
    them are those whose similarity first occurs before k.
    """
    pair_same = np.asarray(pair_same, dtype=bool)
    genuine_count = int(np.count_nonzero(pair_same))
    imposter_count = len(pair_same) - genuine_count
    ranked = np.sort(sims)
    first = np.searchsorted(ranked, sims[pair_same])
    genuine_below = np.cumsum(np.bincount(first + 1, minlength=len(ranked))[:len(ranked)])
    far = 1.0 - (np.arange(len(ranked)) - genuine_below) / imposter_count
    frr = genuine_below / genuine_count
    gap = np.abs(far - frr)
    np.copyto(gap[1:], np.inf, where=ranked[1:] == ranked[:-1])
    i = int(np.argmin(gap))
    return float(far[i]), float(frr[i])


class ScalarSubsetTrial:
    """The GA fitness oracle scored one chromosome at a time.

    The scalar reference for ``gasel._SubsetTrial``: one ``pdist`` per
    chromosome, RR from its square form, and FAR/FRR at the EER from a
    ``searchsorted`` sweep over every distinct similarity.
    """

    def __init__(self, X, y, pool, weights):
        self.X = np.asarray(X, dtype=np.float64)
        self.y = np.asarray(y)
        self.pool = np.asarray(pool.indices, dtype=np.intp)
        self.total = len(pool)
        self.weights = weights
        same = self.y[:, None] == self.y[None, :]
        iu = np.triu_indices(len(self.y), k=1)
        self._pair_same = same[iu]
        self._cache = {}
        self.evaluations = 0

    def costs(self, pop):
        return np.array([self.cost(g) for g in pop])

    def cost(self, genes):
        key = genes.tobytes()
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        self.evaluations += 1
        sel = self.pool[genes.astype(bool)]
        if len(sel) == 0:
            value = fitness_cost(0.0, 1.0, 1.0, 0, self.total, self.weights)
        else:
            dist = pdist(self.X[:, sel], "cityblock") / (len(sel) * 255.0)
            sims = 1.0 - dist
            rr = self._recognition_rate(squareform(dist))
            far, frr = self._rates_at_eer(sims)
            value = fitness_cost(rr, far, frr, int(len(sel)), self.total, self.weights)
        self._cache[key] = value
        return value

    def _recognition_rate(self, dmat):
        np.fill_diagonal(dmat, np.inf)
        nn = np.argmin(dmat, axis=1)
        return float(np.mean(self.y[nn] == self.y))

    def _rates_at_eer(self, sims):
        genuine = np.sort(sims[self._pair_same])
        imposter = np.sort(sims[~self._pair_same])
        if len(genuine) == 0 or len(imposter) == 0:
            return 1.0, 1.0
        thresholds = np.unique(sims)
        far = 1.0 - np.searchsorted(imposter, thresholds, side="left") / len(imposter)
        frr = np.searchsorted(genuine, thresholds, side="left") / len(genuine)
        i = int(np.argmin(np.abs(far - frr)))
        return float(far[i]), float(frr[i])


@lru_cache(maxsize=256)
def _ring_offsets(r: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer offsets (dx, dy) whose rounded distance from the origin is r."""
    span = np.arange(-r - 1, r + 2)
    dx, dy = np.meshgrid(span, span)
    keep = np.round(np.hypot(dx, dy)).astype(np.int64) == r
    out = dx[keep].copy(), dy[keep].copy()
    out[0].setflags(write=False)
    out[1].setflags(write=False)
    return out


def vote_by_rings(px, py, r_min, r_max, x_lo, acc_w, y_lo, acc_h, img_w, img_h):
    """Accumulate votes by stamping ring offsets around each edge point.

    Votes land in a padded plane so no bounds test is needed per vote; the
    pad is cropped away before the peak search.
    """
    pad = r_max + 1
    pw = img_w + 2 * pad
    ph = img_h + 2 * pad
    base = ((py + pad).astype(np.intp) * pw + (px + pad).astype(np.intp))
    n_r = r_max - r_min + 1
    acc = np.empty((n_r, acc_h, acc_w), dtype=np.int32)
    for ri, r in enumerate(range(r_min, r_max + 1)):
        dx, dy = _ring_offsets(r)
        off = dy.astype(np.intp) * pw + dx.astype(np.intp)
        flat = (base[:, None] + off[None, :]).ravel()
        plane = np.bincount(flat, minlength=ph * pw).reshape(ph, pw)
        acc[ri] = plane[pad + y_lo : pad + y_lo + acc_h, pad + x_lo : pad + x_lo + acc_w]
    return acc


def hough_circle_normalized(edges: EdgeMap, r_min: int, r_max: int) -> Circle:
    """Circle vote peak scored by votes/r (circle completeness).

    Raw vote counts grow with circumference, which lets long near-tangential
    arcs of a large boundary outvote a small complete circle; dividing by the
    radius scores fraction-of-circle support instead.  Used for the pupil
    stage, where small and large circles compete in one accumulator.
    """
    if len(edges) == 0:
        raise SegmentationError("empty edge map, cannot vote for circles")
    if not 0 < r_min < r_max:
        raise ValueError(f"need 0 < r_min < r_max, got [{r_min}, {r_max}]")
    r_min, r_max = int(r_min), int(r_max)
    acc = vote_by_rings(
        edges.points[:, 0], edges.points[:, 1], r_min, r_max,
        0, edges.width, 0, edges.height, edges.width, edges.height,
    )
    radii = np.arange(r_min, r_max + 1, dtype=np.float64)
    scored = acc / radii[:, None, None]
    peak = int(np.argmax(scored))
    if int(acc.flat[peak]) < MIN_CIRCLE_VOTES:
        raise SegmentationError("degenerate circle evidence in normalized vote")
    ri, rem = divmod(peak, edges.height * edges.width)
    cy, cx = divmod(rem, edges.width)
    return Circle(float(cx), float(cy), float(r_min + ri))


def zerocross_match_rolled(a, b, max_shift=8):
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


def euler_code_per_plane(polar, cm):
    """Euler numbers of the four MSB planes of the masked polar image.

    Invalid pixels are zeroed before plane decomposition; zeroing can alter
    topology right at mask borders, an accepted approximation.
    """
    if cm.bits.shape != polar.intensities.shape:
        raise ValueError("common mask must be congruent with the polar image")
    masked = np.where(cm.bits == 1, 0, polar.intensities).astype(np.uint8)
    planes = [(masked >> k) & 1 for k in range(7, 7 - MSB_PLANES, -1)]  # b7..b4
    return EulerCode(tuple(euler_number_quads(BinaryImage(p)) for p in planes))


def euler_number_quads(b: BinaryImage) -> int:
    """Connected components (8-connected) minus holes (4-connected background).

    Computed by bit-quad counting over all 2x2 neighborhoods of the
    zero-padded image, which equals the component/hole difference under the
    8-connected-foreground / 4-connected-background convention and runs in
    one vectorized pass.
    """
    p = np.pad(b.bits, 1)
    code = (p[:-1, :-1] << 3) | (p[:-1, 1:] << 2) | (p[1:, :-1] << 1) | p[1:, 1:]
    c = np.bincount(code.ravel(), minlength=16)
    quads_one = c[1] + c[2] + c[4] + c[8]
    quads_three = c[7] + c[11] + c[13] + c[14]
    quads_diag = c[6] + c[9]
    return int(quads_one - quads_three - 2 * quads_diag) // 4


def quad_weights() -> np.ndarray:
    """(4096, 4) weights of Q1 - Q3 - 2*QD per 12-bit quad code and plane."""
    code = np.arange(1 << 12)[:, None]
    bit = np.arange(MSB_PLANES - 1, -1, -1)  # b7..b4 sit at nibble bits 3..0
    return ((code >> (bit + 8)) & 1) - ((code >> (bit + 4)) & 1) - 2 * ((code >> bit) & 1)


QUAD_WEIGHTS = quad_weights()


def nibble_euler(nib: np.ndarray) -> np.ndarray:
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
    return counts @ QUAD_WEIGHTS // 4


def match_subset_compressed(a, b, chromosome, pool) -> float:
    """Normalized city-block distance over selected, jointly valid features."""
    sel = chromosome.selected(pool)
    if len(sel) == 0:
        raise ValueError("chromosome selects no features")
    joint = a.valid[sel] & b.valid[sel]
    if not joint.any():
        raise IncomparableError("no jointly valid features among the selected subset")
    use = sel[joint]
    return float(np.mean(np.abs(a.values[use] - b.values[use])) / 255.0)


def trial_ranges(raw):
    """The former range fit of ``run_trials``: [min, max] of each matcher's trials."""
    # score ranges calibrated from the observed trial population, so the
    # normalized similarities use the full [0, 1] scale for every matcher
    ranges = {}
    for algo, d in raw.items():
        lo, hi = float(d.min()), float(d.max())
        ranges[algo] = ScoreRange(lo, hi if hi > lo else lo + 1.0)
    return ranges


_RANGE_PAIR_CAP = 300


def recalibrate_worst(records, pool, chromosome, max_shift):
    """Covariance and score ranges over the enrolled population.

    A genuine trial against the gallery's single stored template is a
    self-match with distance 0, so every range starts at 0; the upper end is
    the worst cross-identity distance observed for that matcher, zerocross
    at the shift budget verification uses.  Pair enumeration is stride-capped
    to keep repeated enrollment affordable.
    """
    if len(records) < 2:
        return CovarianceModel(np.eye(4), 1.0), {a: ScoreRange(0.0, 1.0) for a in ALGORITHMS}
    model = calibrated_covariance([r.euler for r in records])

    first, second = np.triu_indices(len(records), k=1)
    stride = -(-len(first) // _RANGE_PAIR_CAP)  # 1 up to the cap
    first, second = first[::stride], second[::stride]
    worst = {algo: 0.0 for algo in ALGORITHMS}
    for i, j in zip(first, second):
        a, b = records[i], records[j]
        try:
            worst["zerocross"] = max(worst["zerocross"], zc_match(a.template, b.template, max_shift))
        except IncomparableError:
            pass  # incomparable masks contribute no calibration evidence
    codes = np.array([r.euler.e for r in records], dtype=np.float64)
    worst["euler"] = float(mahalanobis_rows(codes[first] - codes[second], model).max())
    gasel = match_pairs([r.features for r in records], first, second, chromosome, pool)
    worst["gasel"] = float(np.nanmax(gasel, initial=0.0))  # NaN: no jointly valid feature
    ranges = {a: ScoreRange(0.0, worst[a] if worst[a] > 0 else 1.0) for a in ALGORITHMS}
    return model, ranges


def worst_ranges(raw):
    """``recalibrate_worst``'s range rule on given cross-identity distances.

    A NaN zerocross distance stands for a pair whose ``match`` raised.
    """
    worst = {algo: 0.0 for algo in ALGORITHMS}
    for d in raw["zerocross"]:
        if not np.isnan(d):  # incomparable masks contribute no calibration evidence
            worst["zerocross"] = max(worst["zerocross"], d)
    worst["euler"] = float(raw["euler"].max())
    worst["gasel"] = float(np.nanmax(raw["gasel"], initial=0.0))  # NaN: no jointly valid feature
    return {a: ScoreRange(0.0, worst[a] if worst[a] > 0 else 1.0) for a in ALGORITHMS}


def encode_inline(polar, scales=(2, 4)):
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


def roulette_select_per_draw(fitness, rng):
    """Sample an index with probability fitness_i / sum(fitness).

    All-zero fitness falls back to a uniform draw.
    """
    f = np.asarray(fitness, dtype=np.float64)
    if f.ndim != 1 or len(f) == 0:
        raise ValueError("fitness must be a nonempty 1-D sequence")
    if np.any(f < 0):
        raise ValueError("fitness values must be nonnegative")
    total = f.sum()
    if total == 0.0:
        return int(rng.integers(len(f)))
    return int(np.searchsorted(np.cumsum(f), rng.random() * total, side="right"))


def vote_by_distance_hypot(px, py, r_min, r_max, x_lo, acc_w, y_lo, acc_h):
    """Accumulate votes by rounding point-to-center distances (small windows)."""
    n_r = r_max - r_min + 1
    cxs = (x_lo + np.arange(acc_w))[None, :, None]
    cys = (y_lo + np.arange(acc_h))[:, None, None]
    acc = np.zeros((n_r, acc_h, acc_w), dtype=np.int32)
    chunk = max(1, 4_000_000 // (acc_h * acc_w))
    for lo in range(0, len(px), chunk):
        d = np.hypot(px[lo : lo + chunk][None, None, :] - cxs,
                     py[lo : lo + chunk][None, None, :] - cys)
        ri = np.rint(d).astype(np.int64) - r_min
        ok = (ri >= 0) & (ri < n_r)
        cell = np.broadcast_to(
            (np.arange(acc_h)[:, None, None] * acc_w + np.arange(acc_w)[None, :, None]),
            ri.shape,
        )
        flat = ri[ok] * (acc_h * acc_w) + cell[ok]
        acc += np.bincount(flat, minlength=n_r * acc_h * acc_w).reshape(acc.shape).astype(np.int32)
    return acc


def parabolic_hough_loop(edges, search_region, curvature_sign=1, landed=None):
    """Quantized (h, k, a, theta) vote for an eyelid arc.

    Returns ``(parabola or None, accumulator or None)``; the accumulator is
    None when no edge point lies in the region.  When ``landed`` is a list,
    the roots Y of the votes that land in the accumulator are appended to it.
    """
    if curvature_sign not in (1, -1):
        raise ValueError("curvature_sign must be +1 or -1")
    x_lo, x_hi, y_lo, y_hi = search_region
    if len(edges) == 0:
        return None, None
    pts = edges.points
    inside = (
        (pts[:, 0] >= x_lo) & (pts[:, 0] <= x_hi) & (pts[:, 1] >= y_lo) & (pts[:, 1] <= y_hi)
    )
    pts = pts[inside]
    if len(pts) == 0:
        return None, None

    h_vals = np.arange(x_lo, x_hi + 1, PARABOLA_STEP, dtype=np.float64)
    k_count = (y_hi - y_lo) // PARABOLA_STEP + 1
    x = pts[:, 0].astype(np.float64)
    y = pts[:, 1].astype(np.float64)

    acc = np.zeros((len(PARABOLA_THETAS), len(PARABOLA_CURVATURES), k_count, len(h_vals)),
                   dtype=np.int32)
    cells = k_count * len(h_vals)
    X = x[:, None] - h_vals[None, :]  # (N, H), shared across (theta, a)

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
                    roots = [np.where(beta != 0, -gamma / beta, np.nan)]
            else:
                disc = beta * beta - 4.0 * alpha * gamma
                valid = disc >= 0
                sq = np.sqrt(np.where(valid, disc, 0.0))
                r1 = np.where(valid, (-beta + sq) / (2 * alpha), np.nan)
                r2 = np.where(valid, (-beta - sq) / (2 * alpha), np.nan)
                roots = [r1, r2]
            for Y in roots:
                k = y[:, None] - Y
                with np.errstate(invalid="ignore"):
                    ki = np.rint((k - y_lo) / PARABOLA_STEP)
                ok = np.isfinite(ki) & (ki >= 0) & (ki < k_count)
                if landed is not None:
                    landed.append(Y[ok])
                flat = (ki[ok].astype(np.int64) * len(h_vals)
                        + np.broadcast_to(np.arange(len(h_vals)), k.shape)[ok])
                acc[ti, ai] += np.bincount(flat, minlength=cells).reshape(
                    k_count, len(h_vals)).astype(np.int32)

    peak = int(np.argmax(acc))
    votes = int(acc.flat[peak])
    if votes < PARABOLA_VOTE_FLOOR * len(pts):
        return None, acc
    ti, rem = divmod(peak, len(PARABOLA_CURVATURES) * cells)
    ai, rem = divmod(rem, cells)
    ki, hi = divmod(rem, len(h_vals))
    if ai == 0:
        return None, acc  # flattest-step sink: straight-line structure
    return Parabola(
        h=float(h_vals[hi]),
        k=float(y_lo + ki * PARABOLA_STEP),
        a=curvature_sign * float(PARABOLA_CURVATURES[ai]),
        theta=PARABOLA_THETAS[ti],
    ), acc


_EDGE_SMOOTHING = gaussian_kernel(5, 1.0)


def edge_map_image(img: GrayImage, bias: str, grad_threshold: float) -> EdgeMap:
    """Thresholded first-derivative edge map after 5x5 Gaussian smoothing.

    ``bias`` selects the gradient component: "vertical-edges" keeps |d/dx|
    (vertically oriented boundaries such as the iris sides),
    "horizontal-edges" keeps |d/dy| (eyelids), "none" the full magnitude.
    """
    if bias not in EDGE_BIASES:
        raise ValueError(f"unknown edge bias {bias!r}; expected one of {EDGE_BIASES}")
    if img.width < _EDGE_SMOOTHING.width or img.height < _EDGE_SMOOTHING.height:
        raise SegmentationError(
            f"image {img.height}x{img.width} is smaller than the "
            f"{_EDGE_SMOOTHING.height}x{_EDGE_SMOOTHING.width} edge-smoothing kernel"
        )
    if grad_threshold <= 0:
        raise ValueError("grad_threshold must be positive")

    smoothed = convolve2d(img.pixels, _EDGE_SMOOTHING)
    gy, gx = np.gradient(smoothed, edge_order=1)
    if bias == "vertical-edges":
        mag = np.abs(gx)
        keep = _directional_maxima(mag, np.zeros_like(mag, dtype=np.uint8))
    elif bias == "horizontal-edges":
        mag = np.abs(gy)
        keep = _directional_maxima(mag, np.full(mag.shape, 2, dtype=np.uint8))
    else:
        mag = np.hypot(gx, gy)
        keep = _directional_maxima(mag, _gradient_sectors(gx, gy))
    ys, xs = np.nonzero((mag >= grad_threshold) & keep)
    return EdgeMap(np.column_stack([xs, ys]), img.width, img.height)


def _gradient_sectors(gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """Quantize gradient direction into 4 sectors: 0=E/W, 1=NE/SW, 2=N/S, 3=NW/SE."""
    ang = np.mod(np.arctan2(gy, gx), math.pi)
    return (np.rint(ang / (math.pi / 4)).astype(np.uint8)) % 4


def _directional_maxima(mag: np.ndarray, sectors: np.ndarray) -> np.ndarray:
    """Non-maximum suppression along the gradient direction.

    A pixel survives when its magnitude strictly exceeds the neighbor on one
    side and is at least the neighbor on the other, so a tied pair (as on a
    perfectly symmetric step) keeps exactly one pixel.
    """
    padded = np.pad(mag, 1, mode="constant", constant_values=-np.inf)
    core = np.s_[1:-1, 1:-1]
    offsets = {  # (dy, dx) of the "positive" neighbor per sector
        0: (0, 1),
        1: (1, 1),
        2: (1, 0),
        3: (1, -1),
    }
    keep = np.zeros(mag.shape, dtype=bool)
    for sector, (dy, dx) in offsets.items():
        fwd = padded[1 + dy : padded.shape[0] - 1 + dy, 1 + dx : padded.shape[1] - 1 + dx]
        bwd = padded[1 - dy : padded.shape[0] - 1 - dy, 1 - dx : padded.shape[1] - 1 - dx]
        sel = sectors == sector
        keep |= sel & (mag > bwd) & (mag >= fwd)
    return keep


def vote_by_distance_bincount(px, py, r_min, r_max, x_lo, acc_w, y_lo, acc_h):
    """Accumulate votes by rounding point-to-center distances.

    For integer offsets, rint(hypot(dx, dy)) == LUT[dx^2 + dy^2] with
    LUT[n] = rint(sqrt(n)): sqrt(n) = m + 1/2 would need n = m^2 + m + 1/4,
    so the nearest integers n leave sqrt(n) at least about 1/(8 m) from a
    rounding boundary, far beyond either function's last-bit error.  Squared
    offsets are capped at (r_max + 1)^2, beyond which every distance rounds
    past r_max; the LUT maps the radii outside [r_min, r_max] to a sink plane.
    """
    n_r = r_max - r_min + 1
    cells = acc_h * acc_w
    cap = (r_max + 1) ** 2
    dx2 = np.minimum((px[None, :] - (x_lo + np.arange(acc_w))[:, None]) ** 2, cap).astype(np.int32)
    dy2 = np.minimum((py[None, :] - (y_lo + np.arange(acc_h))[:, None]) ** 2, cap).astype(np.int32)
    ring = _rounded_sqrt(2 * cap + 1) - r_min
    plane = np.where((ring >= 0) & (ring < n_r), ring, n_r) * cells
    cell = np.arange(cells).reshape(acc_h, acc_w, 1)
    acc = np.zeros((n_r + 1) * cells, dtype=np.int64)
    chunk = max(1, 4_000_000 // cells)
    for lo in range(0, len(px), chunk):
        flat = np.take(plane, dy2[:, None, lo : lo + chunk] + dx2[None, :, lo : lo + chunk])
        flat += cell
        acc += np.bincount(flat.ravel(), minlength=len(acc))
    return acc[: n_r * cells].reshape(n_r, acc_h, acc_w).astype(np.int32)


def parabola_votes_per_region(pts: np.ndarray, search_region, curvature_sign: int) -> np.ndarray:
    """The (theta, a, k, h) vote accumulator of the points inside the region.

    Each (point, column h) pair votes, for every (theta, a) and each root Y
    of its quadratic, at k index rint(((y - Y) - y_lo) / PARABOLA_STEP).
    The root depends only on the integer X = x - h, so it comes from the
    ``_parabola_roots`` table.  With the pairs sorted by X, the pairs whose
    root lies in ``_parabola_band`` form a few contiguous runs per
    (theta, a, root); only those vote, and their votes outside [0, k_count)
    land in sink rows at k = -1 and k = k_count.
    """
    x_lo, x_hi, y_lo, y_hi = search_region
    n_h = len(range(x_lo, x_hi + 1, PARABOLA_STEP))
    k_count = (y_hi - y_lo) // PARABOLA_STEP + 1
    extent = 1 << (x_hi - x_lo).bit_length()  # the next power of two >= the region width
    roots = _parabola_roots(curvature_sign, extent)
    roots = roots.reshape(-1, roots.shape[-1])  # one row per (theta, a, root)

    # (point, column) pairs sorted by X, as offsets X + extent into the root table
    Xi = (pts[:, 0][:, None] - (x_lo + PARABOLA_STEP * np.arange(n_h))[None, :] + extent).ravel()
    order = np.argsort(Xi.astype(np.min_scalar_type(2 * extent)), kind="stable")
    Xi = Xi[order]
    y = pts[order // n_h, 1].astype(np.float64)
    col = order % n_h + n_h  # past the k = -1 sink row
    bounds = np.concatenate(([0], np.cumsum(np.bincount(Xi, minlength=roots.shape[1]))))

    band_lo, band_hi = _parabola_band(y_lo, y_hi)
    in_band = (roots >= band_lo) & (roots <= band_hi)
    steps = np.diff(in_band.astype(np.int8), axis=1, prepend=0, append=0)
    run_row, run_lo = np.nonzero(steps == 1)
    run_lo, run_hi = bounds[run_lo], bounds[np.nonzero(steps == -1)[1]]
    runs = run_lo < run_hi

    acc = np.zeros((len(roots) // 2, (k_count + 2) * n_h), dtype=np.int64)
    for row, lo, hi in zip(run_row[runs].tolist(), run_lo[runs].tolist(), run_hi[runs].tolist()):
        k = np.take(roots[row], Xi[lo:hi])  # Y, then ((y - Y) - y_lo) / STEP in place
        np.subtract(y[lo:hi], k, out=k)
        k -= y_lo
        k /= PARABOLA_STEP
        np.rint(k, out=k)
        np.clip(k, -1, k_count, out=k)
        flat = k.astype(np.intp)
        flat *= n_h
        flat += col[lo:hi]
        acc[row // 2] += np.bincount(flat, minlength=acc.shape[1])
    shape = (len(PARABOLA_THETAS), len(PARABOLA_CURVATURES), k_count + 2, n_h)
    return acc.reshape(shape)[:, :, 1:-1].astype(np.int32)


def parabola_votes_float(pts: np.ndarray, search_region, curvature_sign: int) -> np.ndarray:
    """The (theta, a, k, h) vote accumulator of the points inside the region.

    Each (point, column h) pair votes, for every (theta, a) and each root Y
    of its quadratic, at k index rint(((y - Y) - y_lo) / PARABOLA_STEP).
    The root depends only on the integer X = x - h, so it comes from the
    ``_parabola_roots`` table.  With the pairs sorted by X, the pairs whose
    root lies in ``_parabola_band`` form a few contiguous runs per
    (theta, a, root), read from the cached ``_parabola_runs`` plan; only
    those vote, and their votes outside [0, k_count) land in sink rows at
    k = -1 and k = k_count.
    """
    x_lo, x_hi, y_lo, y_hi = search_region
    n_h = len(range(x_lo, x_hi + 1, PARABOLA_STEP))
    k_count = (y_hi - y_lo) // PARABOLA_STEP + 1
    extent = 1 << (x_hi - x_lo).bit_length()  # the next power of two >= the region width
    roots = _parabola_roots(curvature_sign, extent)
    roots = roots.reshape(-1, roots.shape[-1])  # one row per (theta, a, root)

    # (point, column) pairs sorted by X, as offsets X + extent into the root table
    Xi = (pts[:, 0][:, None] - (x_lo + PARABOLA_STEP * np.arange(n_h))[None, :] + extent).ravel()
    order = np.argsort(Xi.astype(np.min_scalar_type(2 * extent)), kind="stable")
    Xi = Xi[order]
    y = pts[order // n_h, 1].astype(np.float64)
    col = order % n_h + n_h  # past the k = -1 sink row
    bounds = np.concatenate(([0], np.cumsum(np.bincount(Xi, minlength=roots.shape[1]))))

    run_row, run_lo, run_hi = _parabola_runs(curvature_sign, extent, y_hi - y_lo)
    run_lo, run_hi = bounds[run_lo], bounds[run_hi]
    runs = run_lo < run_hi

    acc = np.zeros((len(roots) // 2, (k_count + 2) * n_h), dtype=np.int64)
    for row, lo, hi in zip(run_row[runs].tolist(), run_lo[runs].tolist(), run_hi[runs].tolist()):
        k = np.take(roots[row], Xi[lo:hi])  # Y, then ((y - Y) - y_lo) / STEP in place
        np.subtract(y[lo:hi], k, out=k)
        k -= y_lo
        k *= 1 / PARABOLA_STEP  # exact: the step is a power of two
        np.rint(k, out=k)
        np.maximum(k, -1, out=k)
        np.minimum(k, k_count, out=k)
        flat = k.astype(np.intp)
        flat *= n_h
        flat += col[lo:hi]
        acc[row // 2] += np.bincount(flat, minlength=acc.shape[1])
    shape = (len(PARABOLA_THETAS), len(PARABOLA_CURVATURES), k_count + 2, n_h)
    return acc.reshape(shape)[:, :, 1:-1].astype(np.int32)


def build_noise_mask_full(
    img: GrayImage,
    pupil: Circle,
    iris: Circle,
    eyelids: tuple[Parabola | None, Parabola | None] = (None, None),
    specular_threshold: int = 240,
) -> BinaryImage:
    """Per-pixel validity mask, 1 = invalid.

    Marks everything outside the iris annulus, inside the pupil, on the
    occluded side of each eyelid parabola, or at/above the specular
    intensity threshold.
    """
    if not iris.encloses(pupil):
        raise SegmentationError("pupil circle not contained in iris circle")

    ys, xs = np.mgrid[0 : img.height, 0 : img.width]
    d_pupil = np.hypot(xs - pupil.cx, ys - pupil.cy)
    d_iris = np.hypot(xs - iris.cx, ys - iris.cy)
    mask = (d_pupil <= pupil.r) | (d_iris > iris.r)
    for lid in eyelids:
        if lid is not None:
            mask |= lid.side(xs, ys) > 0
    mask |= img.pixels >= specular_threshold
    return BinaryImage(mask.astype(np.uint8))


def synth_eye_full_frame(spec: SynthEyeSpec) -> tuple[GrayImage, SegmentationResult]:
    """Render the eye described by ``spec`` and its exact ground truth."""
    h, w = spec.height, spec.width
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    pupil, iris = spec.pupil, spec.iris

    img = np.full((h, w), float(SCLERA_LEVEL))

    d_iris = np.hypot(xs - iris.cx, ys - iris.cy)
    d_pupil = np.hypot(xs - pupil.cx, ys - pupil.cy)
    in_iris = d_iris <= iris.r
    in_pupil = d_pupil <= pupil.r
    annulus = in_iris & ~in_pupil

    # normalized annulus coordinates: the exact inverse of the rubber-sheet
    # map q = c(r) + R(r)*u(theta) with c(r) the blended center and R(r) the
    # blended radius, solved by fixed-point iteration; identity texture lives
    # in this frame so it survives circle jitter and non-concentric centers
    r_norm = np.zeros((h, w))
    theta = np.arctan2(ys - pupil.cy, xs - pupil.cx)
    dcx, dcy = iris.cx - pupil.cx, iris.cy - pupil.cy
    dr = iris.r - pupil.r
    for _ in range(4):
        cx_r = pupil.cx + r_norm * dcx
        cy_r = pupil.cy + r_norm * dcy
        theta = np.arctan2(ys - cy_r, xs - cx_r)
        r_norm = np.clip((np.hypot(xs - cx_r, ys - cy_r) - pupil.r) / max(dr, 1e-9), 0.0, 1.0)

    (ln, lf, lph, lps, la), (n_ang, f_rad, phases, amps) = _texture_params(spec.texture_seed)
    t_ang = theta - spec.rotation
    tex = la * np.sin(ln * t_ang + lph) * np.cos(2.0 * math.pi * lf * r_norm + lps)
    for m in range(TEXTURE_WAVES - 1):
        tex += amps[m] * np.sin(n_ang[m] * t_ang + 2.0 * math.pi * f_rad[m] * r_norm + phases[m])
    img[in_iris] = IRIS_BASE + tex[in_iris]
    img[in_pupil] = PUPIL_LEVEL

    upper, lower = _eyelids_for(spec)
    for lid in (upper, lower):
        if lid is not None:
            img[lid.side(xs, ys) > 0] = EYELID_LEVEL

    rng = np.random.default_rng((spec.noise_seed, spec.texture_seed))
    if spec.noise_sigma > 0:
        img += rng.normal(0.0, spec.noise_sigma, size=(h, w))

    for _ in range(spec.specular_spots):
        ang = rng.uniform(0.0, 2.0 * math.pi)
        rad = rng.uniform(0.25, 0.75)
        spot_r = rng.uniform(1.5, 2.5)
        sx = pupil.cx + (pupil.r + rad * (iris.r - pupil.r)) * math.cos(ang)
        sy = pupil.cy + (pupil.r + rad * (iris.r - pupil.r)) * math.sin(ang)
        img[np.hypot(xs - sx, ys - sy) <= spot_r] = SPECULAR_LEVEL

    gray = GrayImage(np.clip(np.rint(img), 0, 255).astype(np.uint8))
    mask = build_noise_mask(gray, pupil, iris, (upper, lower), specular_threshold=240)
    truth = SegmentationResult(pupil, iris, upper, lower, mask)
    return gray, truth


def rubber_sheet_bilinear(img: GrayImage, seg: SegmentationResult) -> PolarIris:
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
