import math

import numpy as np
import pytest

from irisfuse.imaging import GrayImage
from irisfuse.normalization import POLAR_HEIGHT, POLAR_WIDTH, enhance, rubber_sheet
from irisfuse.segmentation import (
    Circle,
    SegmentationConfig,
    SegmentationError,
    SegmentationResult,
    build_noise_mask,
    segment,
)
from irisfuse.synth import SynthEyeSpec, build_corpus, rotated, synth_eye

from oracles import noise_segmentations, rubber_sheet_bilinear


def plain_segmentation(img, pupil, iris):
    mask = build_noise_mask(img, pupil, iris)
    return SegmentationResult(pupil, iris, None, None, mask)


def ramp_image(w=200, h=160):
    return GrayImage(np.tile(np.arange(w, dtype=np.uint8), (h, 1)))


class TestRubberSheet:
    def test_output_shape_fixed(self):
        img = ramp_image()
        seg = plain_segmentation(img, Circle(100, 80, 20), Circle(100, 80, 60))
        polar, mask = rubber_sheet(img, seg)
        assert polar.shape == (POLAR_HEIGHT, POLAR_WIDTH)
        assert mask.shape == (POLAR_HEIGHT, POLAR_WIDTH)

    def test_first_row_samples_pupil_boundary(self):
        # on a linear ramp I(x, y) = x, bilinear sampling is exact, so
        # row 0 must equal the x-coordinate of the pupil boundary circle
        img = ramp_image()
        pupil, iris = Circle(100.0, 80.0, 20.0), Circle(100.0, 80.0, 60.0)
        seg = plain_segmentation(img, pupil, iris)
        polar, _ = rubber_sheet(img, seg)
        thetas = 2.0 * np.pi * np.arange(POLAR_WIDTH) / POLAR_WIDTH
        expect_first = pupil.cx + pupil.r * np.cos(thetas)
        expect_last = iris.cx + iris.r * np.cos(thetas)
        assert np.max(np.abs(polar[0].astype(float) - expect_first)) <= 0.5 + 1e-9
        assert np.max(np.abs(polar[-1].astype(float) - expect_last)) <= 1.0

    def test_radial_texture_gives_constant_rows(self):
        h, w = 200, 200
        ys, xs = np.mgrid[0:h, 0:w]
        pupil, iris = Circle(100.0, 100.0, 25.0), Circle(100.0, 100.0, 75.0)
        d = np.hypot(xs - 100.0, ys - 100.0)
        img = GrayImage(
            np.clip(np.rint(120 + 50 * np.sin(2 * np.pi * (d - 25.0) / 20.0)), 0, 255).astype(np.uint8)
        )
        seg = plain_segmentation(img, pupil, iris)
        polar, _ = rubber_sheet(img, seg)
        rows = polar.astype(float)
        spread = rows.max(axis=1) - rows.min(axis=1)
        assert np.all(spread <= 2.0)

    def test_masked_source_propagates_to_polar_mask(self):
        img = ramp_image()
        pupil, iris = Circle(100, 80, 20), Circle(100, 80, 60)
        arr = np.zeros((160, 200), dtype=np.uint8)
        arr[:, 150:] = 1  # mask everything right of x=150
        seg = SegmentationResult(pupil, iris, None, None, arr)
        _, mask = rubber_sheet(img, seg)
        assert mask[-1, 0] == 1  # theta=0 samples x=160, masked
        assert mask[0, 0] == 0   # pupil boundary at x=120, clear

    def test_out_of_image_sample_masked(self):
        img = GrayImage(np.full((100, 100), 50, dtype=np.uint8))
        pupil = Circle(50.0, 50.0, 10.0)
        iris = Circle(50.0, 50.0, 60.0)  # pokes outside the 100x100 frame
        mask = np.zeros((100, 100), dtype=np.uint8)
        seg = SegmentationResult(pupil, iris, None, None, mask)
        _, polar_mask = rubber_sheet(img, seg)
        assert polar_mask[-1, 0] == 1  # theta=0 outer sample at x=110

    def test_rotation_becomes_column_shift(self):
        spec = SynthEyeSpec(
            width=256, height=192,
            pupil=Circle(128.0, 96.0, 26.0), iris=Circle(128.0, 96.0, 72.0),
            texture_seed=11,
        )
        img_a, truth_a = synth_eye(spec)
        img_b, truth_b = synth_eye(rotated(spec, math.radians(4.0)))
        pa, mask_a = rubber_sheet(img_a, truth_a)
        pb, mask_b = rubber_sheet(img_b, truth_b)
        shift = round(POLAR_WIDTH * 4.0 / 360.0)
        shifted = np.roll(pa.astype(float), shift, axis=1)
        shifted_mask = np.roll(mask_a, shift, axis=1)
        both = (shifted_mask == 0) & (mask_b == 0)
        mad = np.abs(shifted[both] - pb.astype(float)[both]).mean()
        assert shift == 5
        assert mad <= 3.0

    def test_scaling_leaves_polar_image_unchanged(self):
        base = SynthEyeSpec(
            width=256, height=192,
            pupil=Circle(128.0, 96.0, 24.0), iris=Circle(128.0, 96.0, 60.0),
            texture_seed=23,
        )
        big = SynthEyeSpec(
            width=384, height=288,
            pupil=Circle(192.0, 144.0, 36.0), iris=Circle(192.0, 144.0, 90.0),
            texture_seed=23,
        )
        pa, mask_a = rubber_sheet(*synth_eye(base))
        pb, mask_b = rubber_sheet(*synth_eye(big))
        both = (mask_a == 0) & (mask_b == 0)
        mad = np.abs(pa.astype(float)[both] - pb.astype(float)[both]).mean()
        assert mad <= 3.0


def random_geometry(rng, kind):
    """(image, segmentation) on a random frame; ``kind`` picks the circle family.

    0: float circles anywhere near the frame; 1: integer circles; 2: circles
    wholly outside the frame; 3: an integer iris whose right and bottom
    points land exactly on the last column and row, or past them so the
    clipped coordinates do.
    """
    h, w = (int(v) for v in rng.integers(1, 301, size=2))
    if rng.random() < 0.2:
        h, w = (1, w) if rng.random() < 0.5 else (h, 1)
    img = GrayImage(rng.integers(0, 256, (h, w), dtype=np.uint8))
    mask = rng.integers(0, 2, (h, w), dtype=np.uint8)
    r = rng.uniform(2.0, 1.5 * max(h, w) + 4.0)
    cx, cy = rng.uniform(-0.5 * w, 1.5 * w), rng.uniform(-0.5 * h, 1.5 * h)
    if kind == 2:
        angle = rng.uniform(0.0, 2.0 * math.pi)
        reach = math.hypot(w, h) + r + rng.uniform(0.0, 50.0)
        cx, cy = w / 2 + reach * math.cos(angle), h / 2 + reach * math.sin(angle)
    if kind in (1, 3):
        r, cx, cy = float(round(r)), float(round(cx)), float(round(cy))
    if kind == 3:
        overshoot = int(rng.integers(0, 3))
        cx, cy = w - 1 - r + overshoot, h - 1 - r + overshoot
    iris = Circle(cx, cy, r)
    pupil_r = r * rng.uniform(0.05, 0.9)
    angle, slack = rng.uniform(0.0, 2.0 * math.pi), (r - pupil_r) * rng.uniform(0.0, 1.0)
    pupil = Circle(cx + slack * math.cos(angle), cy + slack * math.sin(angle), pupil_r)
    if kind in (1, 3):
        pupil = Circle(round(pupil.cx), round(pupil.cy), max(1, round(pupil_r)))
        if not iris.encloses(pupil):
            pupil = Circle(cx, cy, max(1.0, r // 2))
    return img, SegmentationResult(pupil, iris, None, None, mask)


class TestRubberSheetMatchesOracle:
    """The fixed-grid, one-call unwrap against the former four-gather bilinear one."""

    @staticmethod
    def check(img, seg):
        (got, got_mask), (expect, expect_mask) = rubber_sheet(img, seg), rubber_sheet_bilinear(img, seg)
        assert np.array_equal(got, expect)
        assert np.array_equal(got_mask, expect_mask)

    @pytest.mark.parametrize("corpus_args", [(6, 2, 2026), (4, 2, 7)])
    def test_corpus_segmentations_and_float_truth(self, corpus_args):
        records = build_corpus(*corpus_args).records
        segmented = 0
        for rec in records:
            self.check(rec.image, rec.truth)
            try:
                seg = segment(rec.image, SegmentationConfig())
            except SegmentationError:
                continue
            self.check(rec.image, seg)
            segmented += 1
        assert segmented >= len(records) - 1

    def test_noise_segmentations_leaving_the_frame(self):
        for img, seg in noise_segmentations():
            self.check(img, seg)

    def test_random_geometries(self):
        rng = np.random.default_rng(14)
        for k in range(1000):
            self.check(*random_geometry(rng, k % 4))


class TestEnhance:
    def polar_of(self, values, mask=None):
        """(intensities, mask) of a polar image, unmasked by default."""
        if mask is None:
            mask = np.zeros((POLAR_HEIGHT, POLAR_WIDTH), dtype=np.uint8)
        return values, mask

    def test_uniform_distribution_fixed_point(self):
        rng = np.random.default_rng(2)
        vals = rng.permutation(
            np.tile(np.arange(256, dtype=np.uint8), POLAR_HEIGHT * POLAR_WIDTH // 256 + 1)[
                : POLAR_HEIGHT * POLAR_WIDTH
            ]
        ).reshape(POLAR_HEIGHT, POLAR_WIDTH)
        out = enhance(*self.polar_of(vals))
        diff = out.astype(int) - vals.astype(int)
        assert np.max(np.abs(diff)) <= 1

    def test_two_valued_image_maps_to_cdf_targets(self):
        vals = np.full((POLAR_HEIGHT, POLAR_WIDTH), 50, dtype=np.uint8)
        vals[:, POLAR_WIDTH // 2 :] = 200
        out = enhance(*self.polar_of(vals))
        # direct CDF computation: cdf(50)=0.5 -> 127.5, cdf(200)=1.0 -> 255
        low = out[vals == 50]
        high = out[vals == 200]
        assert set(np.unique(low)) <= {127, 128}
        assert set(np.unique(high)) == {255}
        assert low.max() < high.min()

    def test_fully_masked_returned_unchanged(self):
        vals = np.arange(POLAR_HEIGHT * POLAR_WIDTH, dtype=np.int64) % 256
        vals = vals.astype(np.uint8).reshape(POLAR_HEIGHT, POLAR_WIDTH)
        polar = self.polar_of(vals, np.ones((POLAR_HEIGHT, POLAR_WIDTH), dtype=np.uint8))
        out = enhance(*polar)
        assert out is polar[0]

    def test_masked_pixels_unchanged_and_order_preserved(self):
        rng = np.random.default_rng(9)
        vals = rng.integers(0, 256, size=(POLAR_HEIGHT, POLAR_WIDTH), dtype=np.uint8)
        mask = (rng.random((POLAR_HEIGHT, POLAR_WIDTH)) < 0.3).astype(np.uint8)
        polar = self.polar_of(vals, mask.copy())
        out = enhance(*polar)
        assert np.array_equal(out[mask == 1], vals[mask == 1])
        assert np.array_equal(polar[1], mask)
        v_in = vals[mask == 0].astype(int)
        v_out = out[mask == 0].astype(int)
        order = np.argsort(v_in, kind="stable")
        assert np.all(np.diff(v_out[order]) >= 0)

