import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from irisfuse import segmentation
from irisfuse.imaging import GrayImage
from irisfuse.segmentation import (
    CENTER_OFFSET,
    MIN_CIRCLE_VOTES,
    Circle,
    PARABOLA_CURVATURES,
    PARABOLA_STEP,
    SegmentationConfig,
    SegmentationError,
    Parabola,
    SegmentationResult,
    build_noise_mask,
    circular_hough,
    circles_sidecar,
    edge_gradient,
    edge_map,
    locate_pupil_and_iris,
    parabolic_hough,
    segment,
    segmentation_overlay,
    _parabola_band,
    _parabola_floors,
    _parabola_roots,
    _parabola_votes,
    _rounded_sqrt,
    _vote_by_distance,
)
from irisfuse.synth import SynthEyeSpec, build_corpus, synth_eye

from oracles import (
    _directional_maxima,
    _gradient_sectors,
    build_noise_mask_full,
    edge_map_image,
    hough_circle_normalized,
    noise_image,
    noise_segmentations,
    parabola_votes_float,
    parabola_votes_per_region,
    parabolic_hough_loop,
    vote_by_distance_hypot,
    vote_by_rings,
)


def clean_eye(pupil_r=30.0, iris_r=80.0, seed=7, **kw):
    spec = SynthEyeSpec(
        width=288,
        height=224,
        pupil=Circle(145.0, 113.0, pupil_r),
        iris=Circle(144.0, 112.0, iris_r),
        texture_seed=seed,
        **kw,
    )
    return synth_eye(spec)


def edges_of(img, bias, grad_threshold):
    return edge_map(edge_gradient(img), bias, grad_threshold)


class TestEdgeMap:
    def test_constant_image_empty(self):
        img = GrayImage(np.full((16, 16), 90, dtype=np.uint8))
        for bias in ("none", "vertical-edges", "horizontal-edges"):
            assert len(edges_of(img, bias, 5.0)) == 0

    def test_vertical_step_gives_single_column(self):
        arr = np.zeros((20, 24), dtype=np.uint8)
        arr[:, 12:] = 200
        em = edges_of(GrayImage(arr), "vertical-edges", 10.0)
        assert len(em) > 0
        assert len(np.unique(em[:, 0])) == 1
        assert em[:, 0].max() < 24 and em[:, 1].max() < 20

    def test_points_are_read_only_int64_inside_the_frame(self):
        for img in (clean_eye()[0], noise_image(0)):
            gradient = edge_gradient(img)
            for bias in segmentation.EDGE_BIASES:
                em = edge_map(gradient, bias, SegmentationConfig().grad_threshold)
                assert em.dtype == np.int64 and em.ndim == 2 and em.shape[1] == 2 and len(em) > 0
                assert np.all((em >= 0) & (em < (img.width, img.height)))
                with pytest.raises(ValueError):
                    em[0, 0] = 0

    def test_horizontal_step_invisible_to_vertical_bias(self):
        arr = np.zeros((24, 20), dtype=np.uint8)
        arr[12:, :] = 200
        assert len(edges_of(GrayImage(arr), "vertical-edges", 10.0)) == 0
        assert len(edges_of(GrayImage(arr), "horizontal-edges", 10.0)) > 0

    def test_synthetic_eye_points_near_boundaries(self):
        img, truth = clean_eye()
        em = edges_of(img, "none", SegmentationConfig().grad_threshold)
        pts = em.astype(np.float64)
        d_p = np.abs(np.hypot(pts[:, 0] - truth.pupil.cx, pts[:, 1] - truth.pupil.cy) - truth.pupil.r)
        d_i = np.abs(np.hypot(pts[:, 0] - truth.iris.cx, pts[:, 1] - truth.iris.cy) - truth.iris.r)
        near = np.minimum(d_p, d_i) <= 2.0
        assert near.mean() >= 0.80

    @pytest.mark.parametrize("shape", [(1, 1), (3, 3), (4, 4), (4, 30), (30, 4)])
    def test_image_smaller_than_smoothing_kernel_fails_segmentation(self, shape):
        img = GrayImage(np.full(shape, 90, dtype=np.uint8))
        with pytest.raises(SegmentationError, match="5x5 edge-smoothing kernel"):
            edge_gradient(img)
        with pytest.raises(SegmentationError, match="5x5 edge-smoothing kernel"):
            segment(img, SegmentationConfig())
        with pytest.raises(SegmentationError, match="5x5 edge-smoothing kernel"):
            locate_pupil_and_iris(img, SegmentationConfig())

    def test_five_by_five_image_has_an_edge_map(self):
        arr = np.zeros((5, 5), dtype=np.uint8)
        arr[:, 3:] = 200
        assert len(edges_of(GrayImage(arr), "vertical-edges", 10.0)) > 0

    def test_rejects_unknown_bias_and_bad_threshold(self):
        gradient = edge_gradient(GrayImage(np.zeros((8, 8), dtype=np.uint8)))
        with pytest.raises(ValueError):
            edge_map(gradient, "diagonal", 1.0)
        with pytest.raises(ValueError):
            edge_map(gradient, "none", 0.0)

    def test_segment_smooths_once(self, monkeypatch):
        calls = []
        convolve = segmentation.convolve2d

        def counting(*args):
            calls.append(args[0].shape)
            return convolve(*args)

        monkeypatch.setattr(segmentation, "convolve2d", counting)
        img, _ = clean_eye(eyelid_coverage=0.3)
        result = segment(img, SegmentationConfig())
        assert result.upper_eyelid is not None  # the eyelid edges were read
        assert calls == [(img.height, img.width)]


class TestEdgeMapMatchesImageOracle:
    """Edge maps of one shared gradient against the former image-in ``edge_map``."""

    @staticmethod
    def check(img, thresholds=(14.0,)):
        gradient = edge_gradient(img)
        for bias in segmentation.EDGE_BIASES:
            for t in thresholds:
                got = edge_map(gradient, bias, t)
                want = edge_map_image(img, bias, t)
                assert got.dtype == want.dtype and np.array_equal(got, want), (bias, t)

    def test_corpus_images(self, small_corpus):
        for rec in small_corpus.records:
            self.check(rec.image, thresholds=(2.0, 14.0, 40.0))

    def test_noise_and_blank_images(self):
        for seed in (0, 1, 2):
            # 1e6: no pixel passes, so no candidate is suppressed
            self.check(noise_image(seed), thresholds=(0.5, 14.0, 60.0, 1e6))
        self.check(GrayImage(np.full((192, 256), 128, dtype=np.uint8)), thresholds=(1e-9, 14.0))

    def test_small_sizes(self):
        rng = np.random.default_rng(12)
        for h in range(5, 12):
            for w in range(5, 12):
                img = GrayImage(rng.integers(0, 256, (h, w), dtype=np.uint8))
                self.check(img, thresholds=(1.0, 14.0, 50.0))

    def test_steps_and_ties(self):
        # symmetric steps tie neighbouring magnitudes, which the NMS breaks
        for shape in ((5, 5), (9, 14), (20, 7)):
            arr = np.zeros(shape, dtype=np.uint8)
            arr[:, shape[1] // 2 :] = 200
            self.check(GrayImage(arr), thresholds=(1.0, 10.0))
            self.check(GrayImage(np.ascontiguousarray(arr.T)), thresholds=(1.0, 10.0))


def test_edge_map_breaks_exact_ties_as_the_whole_frame_suppression():
    # small-integer gradients tie neighbouring magnitudes exactly, along
    # every sector, which smoothed images rarely do
    rng = np.random.default_rng(66)
    for shape in ((5, 5), (1, 9), (9, 1), (17, 23)):
        gy, gx = (rng.choice([-4.0, 0.0, 3.0, 4.0], size=shape) for _ in range(2))
        for bias in segmentation.EDGE_BIASES:
            if bias == "none":
                mag, sectors = np.hypot(gx, gy), _gradient_sectors(gx, gy)
            else:
                mag = np.abs(gx if bias == "vertical-edges" else gy)
                sectors = np.full(shape, 0 if bias == "vertical-edges" else 2, dtype=np.uint8)
            for t in (1.0, 3.0, 4.0, 5.0):
                ys, xs = np.nonzero((mag >= t) & _directional_maxima(mag, sectors))
                got = edge_map((gy, gx), bias, t)
                assert np.array_equal(got, np.column_stack([xs, ys])), (shape, bias, t)


def circle_points(cx, cy, r, step_deg=2.0, jitter=None, rng=None):
    angles = np.radians(np.arange(0.0, 360.0, step_deg))
    rr = np.full(angles.shape, float(r))
    if jitter is not None:
        rr = rr + rng.uniform(-jitter, jitter, size=angles.shape)
    xs = np.rint(cx + rr * np.cos(angles)).astype(int)
    ys = np.rint(cy + rr * np.sin(angles)).astype(int)
    return np.unique(np.column_stack([xs, ys]), axis=0)


def frame(shape):
    """The centre window (x_lo, x_hi, y_lo, y_hi) that covers the whole image of ``shape``."""
    height, width = shape
    return 0, width - 1, 0, height - 1


class TestCircularHough:
    def test_exact_recovery_from_sampled_circle(self):
        pts = circle_points(100, 80, 30)
        found = circular_hough(pts, (160, 200), 10, 50, frame((160, 200)))
        assert (found.cx, found.cy, found.r) == (100.0, 80.0, 30.0)

    def test_jittered_circle_within_2px(self):
        rng = np.random.default_rng(3)
        pts = circle_points(100, 80, 30, jitter=1.0, rng=rng)
        found = circular_hough(pts, (160, 200), 10, 50, frame((160, 200)))
        assert abs(found.cx - 100) <= 2 and abs(found.cy - 80) <= 2 and abs(found.r - 30) <= 2

    def test_empty_edge_map_rejected(self):
        with pytest.raises(SegmentationError):
            circular_hough(np.empty((0, 2), dtype=int), (64, 64), 5, 20, frame((64, 64)))

    def test_bad_radius_range_rejected(self):
        pts = circle_points(32, 32, 10)
        with pytest.raises(ValueError):
            circular_hough(pts, (64, 64), 20, 10, frame((64, 64)))

    def test_vote_floor(self):
        # two isolated points cannot carry a circle
        with pytest.raises(SegmentationError):
            circular_hough(np.array([[10, 10], [50, 50]]), (64, 64), 30, 31, frame((64, 64)))

    def test_translation_equivariance(self):
        pts = circle_points(60, 60, 20)
        base = circular_hough(pts, (160, 160), 10, 30, frame((160, 160)))
        for dx, dy in [(7, 0), (0, 11), (13, 9)]:
            moved = circular_hough(pts + [dx, dy], (160, 160), 10, 30, frame((160, 160)))
            assert (moved.cx, moved.cy) == (base.cx + dx, base.cy + dy)
            assert moved.r == base.r

    def test_center_window_restricts_search(self):
        pts = np.vstack([circle_points(60, 60, 20), circle_points(120, 60, 20)])
        found = circular_hough(pts, (120, 200), 10, 30, center_window=(100, 140, 40, 80))
        assert (found.cx, found.cy) == (120.0, 60.0)


def outcome(fn, *args, **kwargs):
    """The returned circle, or the type of the raised exception."""
    try:
        return fn(*args, **kwargs)
    except (SegmentationError, ValueError) as exc:
        return type(exc)


def random_edges(rng, width, height):
    """(points, (height, width)): uniform clutter plus zero to two partial
    circles, clipped to the image."""
    parts = [np.column_stack([rng.integers(0, width, 40), rng.integers(0, height, 40)])]
    for _ in range(rng.integers(0, 3)):
        pts = circle_points(rng.uniform(0, width), rng.uniform(0, height),
                            rng.uniform(4, 30), step_deg=rng.uniform(2, 20))
        parts.append(pts[rng.random(len(pts)) < rng.uniform(0.3, 1.0)])
    pts = np.vstack(parts)
    inside = (pts[:, 0] >= 0) & (pts[:, 0] < width) & (pts[:, 1] >= 0) & (pts[:, 1] < height)
    return pts[inside][: rng.integers(0, len(pts) + 1)], (height, width)


def c02_style_specs(n):
    """The eye specs of acceptance criterion c02, at n pupil/iris ratios from 0.10 to 0.80."""
    rng = np.random.default_rng(202)
    for k in range(n):
        iris_r = rng.uniform(64.0, 74.0)
        yield SynthEyeSpec(
            width=256, height=192,
            pupil=Circle(128 + rng.uniform(-2, 2), 96 + rng.uniform(-2, 2),
                         (0.10 + 0.70 * k / (n - 1)) * iris_r),
            iris=Circle(128.0, 96.0, iris_r),
            texture_seed=int(rng.integers(1 << 30)),
            eyelid_coverage=float(rng.uniform(0.0, 0.2)),
            specular_spots=int(rng.integers(0, 2)),
            noise_sigma=1.0,
            noise_seed=k,
        )


@pytest.fixture(scope="module")
def small_corpus():
    return build_corpus(4, 2, 2026)


def random_hough_cases():
    """80 (points, shape, r_min, r_max) cases; some radius ranges are empty."""
    rng = np.random.default_rng(41)
    for _ in range(80):
        width, height = (int(v) for v in rng.integers(12, 90, size=2))
        edges = random_edges(rng, width, height)
        r_min = int(rng.integers(1, 25))
        r_max = r_min + int(rng.integers(0, 20))  # 0: an invalid, empty range
        yield *edges, r_min, r_max


class TestPerRadiusMatchesOracle:
    """``circular_hough(per_radius=True)`` against the whole-image pupil decoder
    ``hough_circle_normalized``, which votes with ``vote_by_rings``."""

    def test_random_edge_maps(self):
        for case in random_hough_cases():
            expect = outcome(hough_circle_normalized, *case)
            points, shape, r_min, r_max = case
            assert outcome(circular_hough, *case, frame(shape), per_radius=True) == expect

    def test_ring_stamps_match_the_distance_oracle(self):
        # ties the whole-image reference to the per-point distance reference
        for points, (height, width), r_min, r_max in random_hough_cases():
            if r_max == r_min:
                continue
            px, py = points[:, 0], points[:, 1]
            got = vote_by_rings(px, py, r_min, r_max, 0, width, 0, height, width, height)
            expect = vote_by_distance_hypot(px, py, r_min, r_max, 0, width, 0, height)
            assert got.dtype == expect.dtype and np.array_equal(got, expect)

    def test_same_errors(self):
        empty = np.empty((0, 2), dtype=int)
        sparse = np.array([[10, 10], [50, 50]])
        ring = circle_points(32, 32, 10)
        for points, r_min, r_max in [(empty, 5, 20), (sparse, 30, 31), (ring, 20, 10),
                                     (ring, 0, 10), (ring, 12, 12)]:
            expect = outcome(hough_circle_normalized, points, (64, 64), r_min, r_max)
            assert isinstance(expect, type)
            got = outcome(circular_hough, points, (64, 64), r_min, r_max, frame((64, 64)),
                          per_radius=True)
            assert got is expect

    def test_synthetic_eyes(self):
        # the prior-window pupil search finds the whole-image peak
        cfg = SegmentationConfig()
        images = [rec.image for rec in build_corpus(6, 2, 2026).records]
        images += [synth_eye(spec)[0] for spec in c02_style_specs(20)]
        for img in images:
            edges = edges_of(img, "none", cfg.grad_threshold)
            expect = hough_circle_normalized(edges, img.pixels.shape,
                                             cfg.pupil_r_min, cfg.pupil_r_max)
            assert locate_pupil_and_iris(img, cfg)[0] == expect


def iris_vote_inputs(img, pupil_cx, pupil_cy, cfg=SegmentationConfig()):
    """The iris-stage arguments of ``_vote_by_distance``, as ``locate_pupil_and_iris`` forms them."""
    edges = edges_of(img, "vertical-edges", cfg.grad_threshold)
    half = CENTER_OFFSET
    x_lo, x_hi = max(int(pupil_cx) - half, 0), min(int(pupil_cx) + half, img.width - 1)
    y_lo, y_hi = max(int(pupil_cy) - half, 0), min(int(pupil_cy) + half, img.height - 1)
    return (edges[:, 0], edges[:, 1], cfg.iris_r_min, cfg.iris_r_max,
            x_lo, x_hi - x_lo + 1, y_lo, y_hi - y_lo + 1)


class TestDistanceVoteMatchesHypotOracle:
    """The integer-distance kernel against the float-``hypot`` distances of
    ``vote_by_distance_hypot``."""

    @staticmethod
    def check(*args):
        got, expect = _vote_by_distance(*args), vote_by_distance_hypot(*args)
        assert got.dtype == expect.dtype and np.array_equal(got, expect)

    def test_random_points_and_windows(self):
        rng = np.random.default_rng(47)
        for _ in range(60):
            width, height = (int(v) for v in rng.integers(8, 200, size=2))
            points, _ = random_edges(rng, width, height)
            r_min = int(rng.integers(1, 60))
            r_max = r_min + int(rng.integers(1, 80))
            x_lo, y_lo = int(rng.integers(0, width)), int(rng.integers(0, height))
            acc_w = int(rng.integers(1, min(width - x_lo, 40) + 1))
            acc_h = int(rng.integers(1, min(height - y_lo, 40) + 1))
            self.check(points[:, 0], points[:, 1], r_min, r_max, x_lo, acc_w, y_lo, acc_h)

    def test_noise_images(self):
        for seed in (0, 1):
            self.check(*iris_vote_inputs(noise_image(seed), 128, 96))

    def test_corpus_images(self, small_corpus):
        for rec in small_corpus.records:
            self.check(*iris_vote_inputs(rec.image, rec.truth.pupil.cx, rec.truth.pupil.cy))


class TestRowVoteMatchesBincountOracle:
    """The one-row-at-a-time circle vote against ``vote_by_distance_hypot`` on
    whole-image, one-row, one-column and border-clipped windows."""

    @staticmethod
    def check(points, shape, r_min, r_max, x_lo, x_hi, y_lo, y_hi):
        x_lo, y_lo = max(x_lo, 0), max(y_lo, 0)
        x_hi, y_hi = min(x_hi, shape[1] - 1), min(y_hi, shape[0] - 1)
        args = (points[:, 0], points[:, 1], r_min, r_max,
                x_lo, x_hi - x_lo + 1, y_lo, y_hi - y_lo + 1)
        got, expect = _vote_by_distance(*args), vote_by_distance_hypot(*args)
        assert got.dtype == expect.dtype and np.array_equal(got, expect)

    def test_window_shapes(self):
        rng = np.random.default_rng(48)
        for _ in range(30):
            width, height = (int(v) for v in rng.integers(8, 120, size=2))
            edges = random_edges(rng, width, height)
            r_min = int(rng.integers(1, 40))
            r_max = r_min + int(rng.integers(1, 50))
            x, y = int(rng.integers(0, width)), int(rng.integers(0, height))
            for window in [(0, width - 1, 0, height - 1),     # the whole image
                           (0, width - 1, y, y),              # one row
                           (x, x, 0, height - 1),             # one column
                           (x - 15, x + 15, y - 15, y + 15)]:  # clipped at the border
                self.check(*edges, r_min, r_max, *window)

    def test_points_that_reach_only_the_sink(self):
        # every point is nearer than r_min or farther than r_max from every centre
        points = np.array([[0, 0], [99, 99], [50, 50], [52, 49]])
        self.check(points, (100, 100), 20, 30, 45, 55, 45, 55)
        self.check(np.empty((0, 2), dtype=int), (100, 100), 20, 30, 45, 55, 45, 55)

    def test_pupil_and_iris_windows(self, small_corpus):
        # the corpus eyes' pupil bands; the whole pupil range on every image,
        # noise included, though ``locate_pupil_and_iris`` no longer votes it
        cfg = SegmentationConfig()
        images = [(rec.image, True) for rec in small_corpus.records]
        images += [(noise_image(seed), False) for seed in (0, 1)]
        for img, is_eye in images:
            gradient = edge_gradient(img)
            cx, cy, d = segmentation._pupil_prior(img, cfg.pupil_r_min)
            window = segmentation._center_window(cx, cy)
            pupil_edges = edge_map(gradient, "none", cfg.grad_threshold)
            self.check(pupil_edges, img.pixels.shape, cfg.pupil_r_min, cfg.pupil_r_max, *window)
            if is_eye:
                self.check(pupil_edges, img.pixels.shape, *segmentation._pupil_band(d, cfg), *window)
            self.check(edge_map(gradient, "vertical-edges", cfg.grad_threshold), img.pixels.shape,
                       cfg.iris_r_min, cfg.iris_r_max, *window)


class TestWindowEdgesVoteAsTheWholeImage:
    """Each stage's edge map of the gradient cropped around its centre window
    against the whole-image edge map of the same bias: the two fill one
    accumulator."""

    @staticmethod
    def check(gradient, window, bias, r_min, r_max, cfg=SegmentationConfig()):
        height, width = gradient[0].shape
        cropped = segmentation._window_edges(gradient, window, bias, r_max + 2, cfg.grad_threshold)
        full = edge_map(gradient, bias, cfg.grad_threshold)
        x_lo, x_hi, y_lo, y_hi = window
        x_lo, y_lo = max(x_lo, 0), max(y_lo, 0)
        x_hi, y_hi = min(x_hi, width - 1), min(y_hi, height - 1)
        args = (r_min, r_max, x_lo, x_hi - x_lo + 1, y_lo, y_hi - y_lo + 1)
        got = _vote_by_distance(cropped[:, 0], cropped[:, 1], *args)
        expect = _vote_by_distance(full[:, 0], full[:, 1], *args)
        assert np.array_equal(got, expect)
        assert not cropped.flags.writeable and cropped.dtype == np.int64

    @staticmethod
    def synthetic_eyes(small_corpus):
        images = [rec.image for rec in small_corpus.records]
        images += [synth_eye(spec)[0] for spec in c02_style_specs(20)]
        images.append(clean_eye(pupil_r=7.0, iris_r=70.0)[0])
        return images

    def test_pupil_bands_of_synthetic_eyes(self, small_corpus):
        cfg = SegmentationConfig()
        for img in self.synthetic_eyes(small_corpus):
            cx, cy, d = segmentation._pupil_prior(img, cfg.pupil_r_min)
            window = segmentation._center_window(cx, cy)
            self.check(edge_gradient(img), window, "none", *segmentation._pupil_band(d, cfg))

    def test_iris_windows_of_synthetic_eyes(self, small_corpus):
        # the iris stage votes around the detected pupil
        cfg = SegmentationConfig()
        for img in self.synthetic_eyes(small_corpus):
            gradient = edge_gradient(img)
            pupil, _ = locate_pupil_and_iris(img, cfg, gradient)
            window = segmentation._center_window(int(pupil.cx), int(pupil.cy))
            self.check(gradient, window, "vertical-edges", cfg.iris_r_min, cfg.iris_r_max)

    def test_windows_at_the_image_border(self, small_corpus):
        gradient = edge_gradient(small_corpus.records[0].image)
        height, width = gradient[0].shape
        for cx, cy in [(0, 0), (width - 1, height - 1), (3, height // 2), (width // 2, height - 4)]:
            window = segmentation._center_window(cx, cy)
            for r_min, r_max in [(6, 7), (6, 62), (30, 40)]:
                self.check(gradient, window, "none", r_min, r_max)
            self.check(gradient, window, "vertical-edges", 63, 110)


def test_rounded_sqrt_matches_hypot_exhaustively():
    dx, dy = np.meshgrid(np.arange(257), np.arange(193))
    lut = _rounded_sqrt(256**2 + 192**2 + 1)
    assert np.array_equal(lut[dx * dx + dy * dy], np.rint(np.hypot(dx, dy)).astype(lut.dtype))


def flat_argmax_circle(acc, r_min, per_radius):
    """The former peak search: first flat argmax of votes, or of votes/r."""
    scored = acc
    if per_radius:
        scored = acc / np.arange(r_min, r_min + len(acc), dtype=np.float64)[:, None, None]
    peak = int(np.argmax(scored))
    if int(acc.flat[peak]) < MIN_CIRCLE_VOTES:
        return SegmentationError
    ri, rem = divmod(peak, acc.shape[1] * acc.shape[2])
    cy, cx = divmod(rem, acc.shape[2])
    return Circle(cx, cy, r_min + ri)


class TestCircularPeak:
    """The per-plane peak search picks the cell the flat argmax picked, ties included."""

    @staticmethod
    def peak_of(monkeypatch, acc, r_min, per_radius):
        monkeypatch.setattr(segmentation, "_vote_by_distance", lambda *args: acc)
        n_r, acc_h, acc_w = acc.shape
        return outcome(circular_hough, np.array([[0, 0]]), (acc_h, acc_w), r_min, r_min + n_r - 1,
                       frame((acc_h, acc_w)), per_radius=per_radius)

    @pytest.mark.parametrize("per_radius", [False, True])
    def test_random_tied_accumulators(self, monkeypatch, per_radius):
        rng = np.random.default_rng(73)
        for _ in range(300):
            n_r = int(rng.integers(2, 8))
            acc_h, acc_w = (int(v) for v in rng.integers(1, 9, size=2))
            r_min = int(rng.integers(1, 6))
            acc = rng.integers(0, int(rng.integers(1, 9)), (n_r, acc_h, acc_w)).astype(np.int32)
            expect = flat_argmax_circle(acc, r_min, per_radius)
            assert self.peak_of(monkeypatch, acc, r_min, per_radius) == expect

    def test_equal_completeness_prefers_the_smaller_radius(self, monkeypatch):
        acc = np.zeros((11, 3, 4), dtype=np.int32)
        acc[0, 2, 3] = 5   # 5 votes at r = 10
        acc[10, 0, 0] = 10  # 10 votes at r = 20: the same votes/r, first in flat order
        assert self.peak_of(monkeypatch, acc, 10, True) == Circle(3, 2, 10)
        assert self.peak_of(monkeypatch, acc, 10, False) == Circle(0, 0, 20)


class TestLocatePupilAndIris:
    def test_recovery_on_synthetic_eye(self):
        img, truth = clean_eye(pupil_r=30, iris_r=80)
        cfg = SegmentationConfig()
        pupil, iris = locate_pupil_and_iris(img, cfg)
        for found, want in ((pupil, truth.pupil), (iris, truth.iris)):
            assert abs(found.cx - want.cx) <= 2
            assert abs(found.cy - want.cy) <= 2
            assert abs(found.r - want.r) <= 2
        assert pupil.r < iris.r

    def test_smallest_supported_pupil_ratio_detected(self):
        # pupil diameter at 10% of the iris diameter, the anatomical lower bound
        img, truth = clean_eye(pupil_r=7.0, iris_r=70.0)
        pupil, iris = locate_pupil_and_iris(img, SegmentationConfig())
        assert abs(pupil.r - 7.0) <= 2 and abs(iris.r - 70.0) <= 2

    def test_c02_eye_194_pupil_found_near_the_prior(self):
        # a whole-image search picks Circle(168, 44, 9), a small circle of
        # texture edges, over the pupil of this eye
        img, truth = synth_eye(list(c02_style_specs(200))[194])
        pupil, iris = locate_pupil_and_iris(img, SegmentationConfig())
        for found, want in ((pupil, truth.pupil), (iris, truth.iris)):
            assert abs(found.cx - want.cx) <= 2
            assert abs(found.cy - want.cy) <= 2
            assert abs(found.r - want.r) <= 2

    def test_blank_image_fails(self):
        img = GrayImage(np.full((192, 256), 128, dtype=np.uint8))
        with pytest.raises(SegmentationError):
            locate_pupil_and_iris(img, SegmentationConfig())

    @pytest.mark.parametrize("img", [noise_image(seed) for seed in range(20)]
                             + [GrayImage(np.full((192, 256), v, dtype=np.uint8)) for v in (0, 128, 255)])
    def test_no_pupil_sized_dark_region_fails_to_acquire(self, img):
        # a noise image's darkest region is smaller than the smallest pupil,
        # and a blank image's fills the frame
        with pytest.raises(SegmentationError, match="^no pupil-sized dark region$"):
            segment(img, SegmentationConfig())

    def test_eyes_below_the_iris_range_of_seed_7(self):
        # identity 14's true iris radius, 62.3, lies below iris_r_min; the whole
        # pupil range found the iris boundary (r 62) on sample 2 and a pupil
        # circle the iris did not contain on sample 1
        records = build_corpus(30, 4, 7).records[57:59]
        assert [(rec.identity, rec.sample) for rec in records] == [(14, 1), (14, 2)]
        for rec in records:
            pupil, iris = locate_pupil_and_iris(rec.image, SegmentationConfig())
            for found, want in ((pupil, rec.truth.pupil), (iris, rec.truth.iris)):
                assert abs(found.cx - want.cx) <= 2
                assert abs(found.cy - want.cy) <= 2
                assert abs(found.r - want.r) <= 2

    @pytest.mark.parametrize("d, band", [(4.8, (6, 6)), (5.6, (6, 7)), (77.4, (61, 62)), (78.0, (62, 62))])
    def test_band_with_one_radius_at_either_clamp_fails(self, monkeypatch, d, band):
        # d is the dark region's equivalent radius; band is [0.8 d, 1.25 d]
        # clamped to the configured [6, 62]
        cfg = SegmentationConfig()
        img, _ = clean_eye()
        monkeypatch.setattr(segmentation, "_pupil_prior", lambda *a: (145, 113, d))
        if band[0] < band[1]:
            assert segmentation._pupil_band(d, cfg) == band
            return
        with pytest.raises(SegmentationError, match="^no pupil-sized dark region$"):
            locate_pupil_and_iris(img, cfg)

    def test_rejects_pupil_circle_the_noise_mask_rejects(self, monkeypatch):
        # centre inside the iris and radius smaller, but the pupil circle
        # crosses the iris boundary: the circles one corpus eye gave
        pupil, iris = Circle(130, 97, 62), Circle(131, 96, 63)
        circles = iter([pupil, iris])
        monkeypatch.setattr(segmentation, "circular_hough", lambda *a, **kw: next(circles))
        img, _ = clean_eye()
        message = "pupil circle not contained in iris circle"
        with pytest.raises(SegmentationError, match=message):
            locate_pupil_and_iris(img, SegmentationConfig())
        with pytest.raises(SegmentationError, match=message):
            build_noise_mask(img, pupil, iris)

    def test_encloses(self):
        iris = Circle(50, 50, 20)
        assert iris.encloses(iris)
        assert iris.encloses(Circle(60, 50, 10))      # touching from inside
        assert not iris.encloses(Circle(60, 50, 10.5))
        assert not iris.encloses(Circle(50, 50, 21))
        assert not Circle(0, 0, 5).encloses(Circle(100, 0, 1))

    def test_gradient_argument_is_the_default(self):
        img, _ = clean_eye()
        cfg = SegmentationConfig()
        assert locate_pupil_and_iris(img, cfg, edge_gradient(img)) == locate_pupil_and_iris(img, cfg)

    def test_overlapping_radius_ranges_rejected(self):
        with pytest.raises(ValueError):
            SegmentationConfig(pupil_r_min=6, pupil_r_max=70, iris_r_min=63, iris_r_max=100)


def parabola_points(h, k, a, theta=0.0, u_span=40.0, count=81):
    us = np.linspace(-u_span, u_span, count)
    ws = a * us * us
    c, s = math.cos(theta), math.sin(theta)
    xs = h + us * c - ws * s
    ys = k + us * s + ws * c
    return np.unique(np.column_stack([np.rint(xs), np.rint(ys)]).astype(int), axis=0)


class TestParabolicHough:
    def test_recovers_synthesized_parabola(self):
        pts = parabola_points(64.0, 20.0, 0.05)
        found = parabolic_hough(pts, (0, 127, 0, 123))
        assert found is not None
        assert abs(found.h - 64.0) <= 4.0
        assert abs(found.k - 20.0) <= 4.0
        grid = np.asarray(PARABOLA_CURVATURES)
        idx = int(np.argmin(np.abs(grid - found.a)))
        step = grid[1] / grid[0]
        assert grid[idx] / step <= 0.05 <= grid[idx] * step

    def test_empty_region_absent(self):
        pts = np.array([[5, 5], [6, 5]])
        assert parabolic_hough(pts, (60, 120, 60, 120)) is None

    def test_horizontal_line_rejected(self):
        xs = np.arange(0, 128)
        pts = np.column_stack([xs, np.full_like(xs, 50)])
        assert parabolic_hough(pts, (0, 127, 0, 127)) is None

    def test_negative_curvature_search(self):
        pts = parabola_points(64.0, 90.0, -0.03)
        found = parabolic_hough(pts, (0, 127, 0, 127), curvature_sign=-1)
        assert found is not None and found.a < 0
        assert abs(found.h - 64.0) <= 4.0 and abs(found.k - 90.0) <= 4.0


def eyelid_regions(iris, width, height):
    """The upper and lower search regions ``detect_eyelids`` derives from an iris circle."""
    x_lo = max(0, int(iris.cx - iris.r))
    x_hi = min(width - 1, int(iris.cx + iris.r))
    return ((x_lo, x_hi, max(0, int(iris.cy - iris.r)), int(iris.cy)),
            (x_lo, x_hi, int(iris.cy), min(height - 1, int(iris.cy + iris.r))))


def random_lid_edges(rng, width, height):
    """Uniform clutter plus zero to three tilted parabolic arcs, clipped to the image."""
    parts = [np.column_stack([rng.integers(0, width, 60), rng.integers(0, height, 60)])]
    for _ in range(rng.integers(0, 4)):
        parts.append(parabola_points(rng.uniform(0, width), rng.uniform(0, height),
                                     rng.choice([-1, 1]) * rng.uniform(0.004, 0.08),
                                     rng.uniform(-0.2, 0.2), u_span=rng.uniform(5, 60)))
    pts = np.vstack(parts)
    inside = (pts[:, 0] >= 0) & (pts[:, 0] < width) & (pts[:, 1] >= 0) & (pts[:, 1] < height)
    return pts[inside]


def lid_cases(rng, count):
    """(edges, region) pairs: random images and regions, some past the image border."""
    for _ in range(count):
        width, height = (int(v) for v in rng.integers(8, 160, size=2))
        x_lo, x_hi = sorted(int(v) for v in rng.integers(-8, width + 8, size=2))
        y_lo, y_hi = sorted(int(v) for v in rng.integers(-8, height + 8, size=2))
        yield random_lid_edges(rng, width, height), (x_lo, x_hi, y_lo, y_hi)


def image_lid_cases(small_corpus):
    """(edges, region, sign) for every corpus image and two noise images."""
    cfg = SegmentationConfig()
    images = [(rec.image, rec.truth.iris) for rec in small_corpus.records]
    images += [(noise_image(seed), Circle(128, 96, 90)) for seed in (0, 1)]
    for img, iris in images:
        edges = edges_of(img, "horizontal-edges", cfg.grad_threshold)
        upper, lower = eyelid_regions(iris, img.width, img.height)
        yield edges, upper, -1
        yield edges, lower, 1


def region_points(pts, region):
    x_lo, x_hi, y_lo, y_hi = region
    return pts[(pts[:, 0] >= x_lo) & (pts[:, 0] <= x_hi) & (pts[:, 1] >= y_lo) & (pts[:, 1] <= y_hi)]


class TestParabolaVotesMatchLoopOracle:
    """The integer eyelid vote against the former per-pair loop and the former float vote."""

    @staticmethod
    def check(edges, region, sign):
        expect, acc = parabolic_hough_loop(edges, region, sign)
        assert parabolic_hough(edges, region, sign) == expect
        if acc is not None:
            pts = region_points(edges, region)
            got = _parabola_votes(pts, region, sign)
            assert got.dtype == acc.dtype and np.array_equal(got, acc)
            assert np.array_equal(got, parabola_votes_float(pts, region, sign))

    def test_random_edge_sets(self):
        for edges, region in lid_cases(np.random.default_rng(61), 40):
            for sign in (1, -1):
                self.check(edges, region, sign)

    def test_regions_touching_the_image_border(self):
        edges = random_lid_edges(np.random.default_rng(62), 96, 72)
        for region in [(0, 95, 0, 71), (0, 30, 0, 20), (60, 95, 40, 71), (-6, 101, -5, 77),
                       (0, 95, 71, 71), (95, 95, 0, 71), (-20, 0, 10, 40)]:
            for sign in (1, -1):
                self.check(edges, region, sign)

    @pytest.mark.parametrize("width", [0, 1, 2, 3])
    def test_narrow_regions(self, width):
        rng = np.random.default_rng(63 + width)
        edges = random_lid_edges(rng, 64, 64)
        for _ in range(10):
            x_lo, y_lo = (int(v) for v in rng.integers(0, 64, size=2))
            tall = int(rng.integers(0, 64))
            for region in [(x_lo, x_lo + width - 1, y_lo - tall, y_lo + tall),
                           (x_lo - tall, x_lo + tall, y_lo, y_lo + width - 1)]:
                for sign in (1, -1):
                    self.check(edges, region, sign)

    def test_single_point_regions(self):
        edges = np.array([[20, 30]])
        for region in [(20, 20, 30, 30), (0, 63, 0, 63), (20, 40, 30, 50), (0, 20, 0, 30),
                       (19, 21, 29, 31), (17, 20, 30, 33)]:
            for sign in (1, -1):
                self.check(edges, region, sign)

    def test_corpus_and_noise_images(self, small_corpus):
        for edges, region, sign in image_lid_cases(small_corpus):
            self.check(edges, region, sign)


def test_parabola_band_holds_every_vote_the_loop_casts(small_corpus):
    rng = np.random.default_rng(64)
    cases = [(e, r, sign) for e, r in lid_cases(rng, 40) for sign in (1, -1)]
    slack = []
    for edges, region, sign in cases + list(image_lid_cases(small_corpus)):
        landed = []
        parabolic_hough_loop(edges, region, sign, landed)
        votes = np.concatenate(landed) if landed else np.empty(0)
        if len(votes) == 0:
            continue
        band_lo, band_hi = _parabola_band(region[2], region[3])
        assert band_lo <= votes.min() and votes.max() <= band_hi
        slack.append(band_hi - votes.max())
    # some vote comes within 3 px of the upper edge, so a narrower band shows
    assert min(slack) < 3


class TestRunPlanMatchesPerRegionOracle:
    """The cached eyelid run plan against the plan derived in every region."""

    def test_every_eyelid_span_of_a_corpus(self):
        cfg = SegmentationConfig()
        spans = set()
        for rec in build_corpus(30, 4, 7).records:
            gradient = edge_gradient(rec.image)
            try:
                _, iris = locate_pupil_and_iris(rec.image, cfg, gradient)
            except SegmentationError:
                continue  # the corpus's one failure
            edges = edge_map(gradient, "horizontal-edges", cfg.grad_threshold)
            regions = eyelid_regions(iris, rec.image.width, rec.image.height)
            for region, sign in zip(regions, (-1, 1)):
                inside = region_points(edges, region)
                got = _parabola_votes(inside, region, sign)
                expect = parabola_votes_per_region(inside, region, sign)
                assert got.dtype == expect.dtype and np.array_equal(got, expect), region
                assert np.array_equal(got, parabola_votes_float(inside, region, sign)), region
                spans.add(region[3] - region[2])
        assert len(spans) > 10  # so most plans are read back from the cache


def near_integer_moves(pts, region, sign):
    """Votes on a near-integer root whose float k differs from the integer k, either landing.

    The integer k is (m + floor(2 - Y)) // 4 with the floor taken in exact
    arithmetic, so these are the votes the near-integer re-vote must move.
    """
    x_lo, x_hi, y_lo, y_hi = region
    extent = 1 << (x_hi - x_lo).bit_length()
    roots = _parabola_roots(sign, extent).reshape(-1, 2 * extent + 1)
    _, near_row, near_x = _parabola_floors(sign, extent)
    k_count = (y_hi - y_lo) // PARABOLA_STEP + 1
    columns = np.arange(x_lo, x_hi + 1, PARABOLA_STEP)
    moves = 0
    for row, xi in zip(near_row.tolist(), near_x.tolist()):
        Y = roots[row, xi]
        ys = pts[np.isin(pts[:, 0] - (xi - extent), columns), 1]  # one column per point at most
        k_float = np.rint(((ys - Y) - y_lo) / PARABOLA_STEP)
        k_int = (ys - y_lo + math.floor(2 - Fraction(Y))) // PARABOLA_STEP
        lands = ((k_float >= 0) & (k_float < k_count)) | ((k_int >= 0) & (k_int < k_count))
        moves += int(np.count_nonzero((k_float != k_int) & lands))
    return moves


class TestNearIntegerRevote:
    """The roots that integer arithmetic may round differently from the float vote."""

    @pytest.mark.parametrize("sign", [1, -1])
    def test_floor_table_classes_every_root(self, sign):
        for extent in (1 << e for e in range(11)):
            roots = _parabola_roots(sign, extent).reshape(-1, 2 * extent + 1)
            floors, near_row, near_x = _parabola_floors(sign, extent)
            near = np.zeros(roots.shape, dtype=bool)
            near[near_row, near_x] = True
            plain = np.isfinite(roots) & ~near
            dist = np.abs(roots - np.rint(roots))
            assert np.all(dist[plain] >= 1e-6) and np.all(dist[near] < 1e-6), extent
            lifted = 2 - roots[plain]
            assert np.all((floors[plain] < lifted) & (lifted < floors[plain] + 1)), extent
            assert near.any()

    def test_root_half_an_ulp_above_an_integer(self):
        # theta 0, a = -0.08, X = 35: Y = -98.00000000000001, and y - Y = 40 - Y
        # rounds to 138, so the float vote is rint(34.5) = 34 where the exact
        # (40 + floor(2 - Y)) // 4 is 35
        edges = np.array([[35, 40], [20, 3], [38, 90], [0, 140]])
        region = (0, 40, 0, 140)
        assert near_integer_moves(region_points(edges, region), region, -1) > 0
        TestParabolaVotesMatchLoopOracle.check(edges, region, -1)

    def test_corpus_regions_cast_near_integer_votes(self, small_corpus):
        # an X = 0 pair has the integer root Y = 0, where the float vote at
        # m = 2 mod 8 rounds half to even and the integer vote rounds up
        moves = [near_integer_moves(region_points(edges, region), region, sign)
                 for edges, region, sign in list(image_lid_cases(small_corpus))[:4]]
        assert min(moves) > 0


class TestNoiseMaskMatchesFullFrameOracle:
    """The box-bounded noise mask against the former whole-frame rules."""

    @staticmethod
    def check(img, pupil, iris, lids=(None, None), threshold=240):
        got = build_noise_mask(img, pupil, iris, lids, threshold)
        expect = build_noise_mask_full(img, pupil, iris, lids, threshold)
        assert got.dtype == expect.dtype and np.array_equal(got, expect)

    def test_segmented_images(self, small_corpus):
        cfg = SegmentationConfig()
        cases = [(rec.image, segment(rec.image, cfg)) for rec in small_corpus.records]
        for img, res in cases + list(noise_segmentations()):
            for threshold in (240, 120):
                self.check(img, res.pupil, res.iris, (res.upper_eyelid, res.lower_eyelid), threshold)

    def test_circles_leaving_the_frame(self):
        img = noise_image(0)
        # the iris noise image 0 once segmented to, which leaves the frame on three sides
        self.check(img, Circle(22, 15, 9), Circle(36, 16, 106))
        lid = Parabola(h=40.0, k=30.0, a=-0.02, theta=0.1)
        for pupil, iris in [(Circle(0, 0, 3), Circle(0, 0, 50)),
                            (Circle(255.5, 191.5, 2), Circle(250.25, 190.75, 40.5)),
                            (Circle(-60, 100, 5), Circle(-60, 100, 40)),      # wholly left
                            (Circle(128, 300, 5), Circle(128, 300, 90)),      # wholly below
                            (Circle(128, -40, 5), Circle(128, -40, 39.5)),    # just above
                            (Circle(128, 96, 10), Circle(128, 96, 1e4)),
                            (Circle(128, 96, 10), Circle(128, 96, math.inf))]:
            self.check(img, pupil, iris)
            self.check(img, pupil, iris, (lid, None))

    def test_random_geometry_and_eyelids(self):
        rng = np.random.default_rng(65)
        for _ in range(60):
            height, width = (int(v) for v in rng.integers(5, 80, size=2))
            img = GrayImage(rng.integers(0, 256, (height, width), dtype=np.uint8))
            iris = Circle(rng.uniform(-20, width + 20), rng.uniform(-20, height + 20), rng.uniform(3, 60))
            pupil = Circle(iris.cx + rng.uniform(-1, 1), iris.cy + rng.uniform(-1, 1),
                           rng.uniform(0.1, 0.8) * (iris.r - 1.5))
            lids = [Parabola(h=rng.uniform(0, width), k=rng.uniform(0, height),
                             a=rng.choice([-1, 1]) * rng.uniform(0.004, 0.08),
                             theta=rng.uniform(-0.2, 0.2)) if rng.random() < 0.7 else None
                    for _ in range(2)]
            self.check(img, pupil, iris, tuple(lids), int(rng.integers(0, 256)))


def test_segment_peak_memory_is_bounded(small_corpus):
    # one segmentation once allocated multi-megabyte vote temporaries; the
    # cached tables are filled before tracing, as every later image finds them
    cfg = SegmentationConfig()
    images = [rec.image for rec in small_corpus.records]
    for img in images:
        segment(img, cfg)
    tracemalloc.start()
    try:
        for img in images:
            segment(img, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"segment peak {peak / 2**20:.1f} MiB"


class TestNoiseMask:
    def test_pure_geometry_complement_of_annulus(self):
        img = GrayImage(np.full((64, 64), 100, dtype=np.uint8))
        pupil = Circle(32.0, 32.0, 8.0)
        iris = Circle(32.0, 32.0, 24.0)
        mask = build_noise_mask(img, pupil, iris)
        ys, xs = np.mgrid[0:64, 0:64]
        d = np.hypot(xs - 32.0, ys - 32.0)
        annulus = (d > 8.0) & (d <= 24.0)
        assert np.array_equal(mask == 0, annulus)

    def test_specular_pixel_masked(self):
        arr = np.full((64, 64), 100, dtype=np.uint8)
        arr[32, 48] = 255  # inside the annulus
        mask = build_noise_mask(GrayImage(arr), Circle(32, 32, 8), Circle(32, 32, 24))
        assert mask[32, 48] == 1

    def test_masked_fraction_monotone_in_specular_threshold(self):
        rng = np.random.default_rng(5)
        img = GrayImage(rng.integers(0, 256, size=(64, 64), dtype=np.uint8))
        pupil, iris = Circle(32, 32, 8), Circle(32, 32, 24)
        fractions = [
            build_noise_mask(img, pupil, iris, specular_threshold=t).mean()
            for t in (250, 220, 180, 120, 60)
        ]
        assert all(a <= b for a, b in zip(fractions, fractions[1:]))

    def test_geometry_violation_rejected(self):
        img = GrayImage(np.zeros((64, 64), dtype=np.uint8))
        with pytest.raises(SegmentationError):
            build_noise_mask(img, Circle(10, 32, 8), Circle(50, 32, 20))

    def test_detected_eyelid_masks_ground_truth_occlusion(self):
        img, truth = clean_eye(pupil_r=26, iris_r=75, eyelid_coverage=0.3, noise_sigma=2.0)
        result = segment(img, SegmentationConfig())
        ys, xs = np.mgrid[0 : img.height, 0 : img.width]
        d_p = np.hypot(xs - truth.pupil.cx, ys - truth.pupil.cy)
        d_i = np.hypot(xs - truth.iris.cx, ys - truth.iris.cy)
        annulus = (d_p > truth.pupil.r) & (d_i <= truth.iris.r)
        occluded = annulus & (truth.upper_eyelid.side(xs, ys) > 0)
        assert occluded.sum() > 0
        covered = result.noise_mask[occluded] == 1
        assert covered.mean() >= 0.95


class TestResultInvariants:
    def test_pupil_must_be_smaller(self):
        mask = np.zeros((8, 8), dtype=np.uint8)
        with pytest.raises(ValueError):
            SegmentationResult(Circle(4, 4, 5), Circle(4, 4, 3), None, None, mask)

    def test_pupil_center_inside_iris(self):
        mask = np.zeros((8, 8), dtype=np.uint8)
        with pytest.raises(ValueError):
            SegmentationResult(Circle(40, 4, 1), Circle(4, 4, 3), None, None, mask)

    def test_overlay_and_sidecar(self):
        img, truth = clean_eye()
        overlay = segmentation_overlay(img, truth.pupil, truth.iris)
        assert (overlay.pixels == 255).sum() > 100
        text = circles_sidecar(truth.pupil, truth.iris)
        assert text.startswith("pupil ") and "\niris " in text


class TestPinnedSegmentation:
    # sha256 of the outputs below; a kernel that moves a circle, a parabola
    # or one mask pixel, or changes the blank image's error, changes it.
    # Re-pinned when the pupil search moved into the dark-region prior's
    # window: only the two noise images' circles changed.  Re-pinned when the
    # pupil radii were bounded by the dark region's: the two noise images
    # went from segmenting, and the blank image from "empty edge map", to
    # "no pupil-sized dark region"; the corpus outputs stayed.
    DIGEST = "7c2757104442eb06cade3e29387da712694772c65b1c7d57407764ce9d6dce43"

    def test_segment_outputs_are_unchanged(self, small_corpus):
        images = [rec.image for rec in small_corpus.records]
        images += [noise_image(seed) for seed in (0, 1)]
        images.append(GrayImage(np.full((192, 256), 128, dtype=np.uint8)))
        digest = hashlib.sha256()
        for img in images:
            try:
                res = segment(img, SegmentationConfig())
            except SegmentationError as exc:
                digest.update(f"error: {exc}\n".encode())
                continue
            digest.update(repr((res.pupil, res.iris, res.upper_eyelid, res.lower_eyelid)).encode())
            digest.update(res.noise_mask.tobytes())
        assert digest.hexdigest() == self.DIGEST
