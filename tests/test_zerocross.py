import numpy as np
import pytest

from irisfuse import store
from irisfuse.gasel import FEATURE_COUNT
from irisfuse.normalization import POLAR_HEIGHT, POLAR_WIDTH, IncomparableError
from irisfuse.pipeline import process_image, process_images
from irisfuse.segmentation import SegmentationConfig, SegmentationError
from irisfuse.synth import build_corpus
from irisfuse.zerocross import (
    ZeroCrossTemplate,
    dyadic_wavelet_1d,
    encode,
    match,
    match_pairs,
    shifted,
    _smoothing_kernel,
)

from oracles import encode_inline, gallery_with_rows, zerocross_match_rolled


def oracle_transform(signal, s):
    """Direct circular convolution + differencing, written as plain loops."""
    kern = _smoothing_kernel(s)
    half = len(kern) // 2
    n = len(signal)
    g = np.zeros(n)
    for x in range(n):
        acc = 0.0
        for j, w in enumerate(kern):
            acc += w * signal[(x - (j - half)) % n]
        g[x] = acc
    out = np.zeros(n)
    for x in range(n):
        out[x] = (s * s) * (g[(x + 1) % n] - 2 * g[x] + g[(x - 1) % n])
    return out


def circular_transitions(bits):
    return int(np.count_nonzero(bits != np.roll(bits, 1)))


def unmasked_polar(values):
    """(intensities, mask) of a polar image with nothing masked."""
    return values, np.zeros((POLAR_HEIGHT, POLAR_WIDTH), dtype=np.uint8)


def random_template(rng, mask=None):
    bits = rng.integers(0, 2, size=(2, POLAR_HEIGHT, POLAR_WIDTH), dtype=np.uint8)
    if mask is None:
        mask = np.zeros((POLAR_HEIGHT, POLAR_WIDTH), dtype=np.uint8)
    return ZeroCrossTemplate(bits, mask)


class TestDyadicWavelet:
    @pytest.mark.parametrize("s", [1, 2, 4, 8])
    def test_constant_annihilated(self, s):
        out = dyadic_wavelet_1d(np.full(64, 5.0), s)
        assert np.max(np.abs(out)) < 1e-9

    def test_linear_annihilated_away_from_wrap(self):
        ramp = np.arange(128, dtype=np.float64)
        out = dyadic_wavelet_1d(ramp, 4)
        # the circular wrap creates a discontinuity; check the safe interior
        safe = out[20:-20]
        assert np.max(np.abs(safe)) < 1e-9

    def test_single_period_sine(self):
        x = np.arange(POLAR_WIDTH)
        sig = np.sin(2 * np.pi * x / POLAR_WIDTH)
        out = dyadic_wavelet_1d(sig, 2)
        expect = oracle_transform(sig, 2)
        assert np.allclose(out, expect, atol=1e-9)
        # proportional to -sine: projection coefficient negative, residual tiny
        coef = out @ sig / (sig @ sig)
        assert coef < 0
        assert np.max(np.abs(out - coef * sig)) < 1e-9 * max(1.0, np.max(np.abs(out)))
        assert circular_transitions(out >= 0) == 2

    def test_linearity(self):
        rng = np.random.default_rng(4)
        f = rng.normal(size=96)
        g = rng.normal(size=96)
        for s in (2, 4):
            lhs = dyadic_wavelet_1d(2.5 * f - 1.5 * g, s)
            rhs = 2.5 * dyadic_wavelet_1d(f, s) - 1.5 * dyadic_wavelet_1d(g, s)
            assert np.allclose(lhs, rhs, atol=1e-9)

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            dyadic_wavelet_1d(np.zeros(64), 3)

    def test_short_signal_rejected(self):
        with pytest.raises(ValueError):
            dyadic_wavelet_1d(np.zeros(15), 4)
        with pytest.raises(ValueError):
            dyadic_wavelet_1d(np.zeros((3, 15)), 4)

    def test_scalar_rejected(self):
        with pytest.raises(ValueError):
            dyadic_wavelet_1d(5.0, 1)

    @pytest.mark.parametrize("s", [1, 2, 4, 8])
    def test_transforms_along_last_axis(self, s):
        rng = np.random.default_rng(s)
        for shape in ((7, 64), (2, 3, 40), (1, POLAR_WIDTH)):
            signals = rng.normal(size=shape) * 50.0
            out = dyadic_wavelet_1d(signals, s)
            rows = signals.reshape(-1, shape[-1])
            want = np.stack([dyadic_wavelet_1d(row, s) for row in rows]).reshape(shape)
            assert out.tobytes() == want.tobytes()


class TestEncode:
    def test_constant_polar_all_ones_and_flagged(self):
        polar = unmasked_polar(np.full((POLAR_HEIGHT, POLAR_WIDTH), 120, dtype=np.uint8))
        t = encode(*polar)
        assert np.all(t.bits == 1)  # transform is exactly 0, ">= 0" convention

    def test_stripe_texture_alternates_with_period(self):
        x = np.arange(POLAR_WIDTH)
        vals = np.tile(120 + 80 * np.sin(2 * np.pi * x / 32), (POLAR_HEIGHT, 1))
        polar = unmasked_polar(np.clip(np.rint(vals), 0, 255).astype(np.uint8))
        t = encode(*polar)
        for plane in t.bits:
            for row in plane:
                # sign bits at exact-crossing samples may land either way;
                # everything else must repeat with the stripe period
                assert np.count_nonzero(row != np.roll(row, 32)) <= 2
                assert circular_transitions(row) == 2 * (POLAR_WIDTH // 32)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        vals = rng.integers(0, 256, size=(POLAR_HEIGHT, POLAR_WIDTH), dtype=np.uint8)
        polar = unmasked_polar(vals)
        a, b = encode(*polar), encode(*polar)
        assert np.array_equal(a.bits, b.bits)

    def test_scale_count(self):
        polar = unmasked_polar(np.zeros((POLAR_HEIGHT, POLAR_WIDTH), dtype=np.uint8))
        assert encode(*polar, scales=(1, 2, 4)).scale_count == 3
        with pytest.raises(ValueError):
            encode(*polar, scales=())


class TestMatch:
    def test_self_distance_zero(self):
        t = random_template(np.random.default_rng(0))
        assert match(t, t) == 0.0

    def test_complement_distance_one_at_zero_shift(self):
        t = random_template(np.random.default_rng(1))
        comp = ZeroCrossTemplate(1 - t.bits, t.mask)
        assert match(t, comp, max_shift=0) == 1.0

    def test_shifted_self_distance_zero(self):
        t = random_template(np.random.default_rng(2))
        assert match(t, shifted(t, 5), max_shift=8) == 0.0
        assert match(t, shifted(t, -7), max_shift=8) == 0.0

    def test_max_shift_bounded_by_half_the_polar_width(self):
        t = random_template(np.random.default_rng(4))
        # at 224 every circular shift is searched, so a shifted copy matches
        assert match(t, shifted(t, 200), max_shift=POLAR_WIDTH // 2) == 0.0
        with pytest.raises(ValueError, match=r"max_shift must lie in \[0, 224\]"):
            match(t, t, max_shift=POLAR_WIDTH // 2 + 1)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        a, b = random_template(rng), random_template(rng)
        assert match(a, b) == pytest.approx(match(b, a), abs=1e-12)

    def test_random_pairs_near_half(self):
        rng = np.random.default_rng(4)
        dists = [match(random_template(rng), random_template(rng)) for _ in range(60)]
        assert 0.47 <= float(np.mean(dists)) <= 0.53

    def test_mask_excludes_positions(self):
        rng = np.random.default_rng(5)
        t = random_template(rng)
        # flip bits under a mask: distance must stay 0 when those bits are masked
        mask = np.zeros((POLAR_HEIGHT, POLAR_WIDTH), dtype=np.uint8)
        mask[:, :100] = 1
        damaged = t.bits.copy()
        damaged[:, :, :50] = 1 - damaged[:, :, :50]
        other = ZeroCrossTemplate(damaged, mask)
        assert match(ZeroCrossTemplate(t.bits, mask), other, max_shift=0) == 0.0

    def test_all_masked_incomparable(self):
        full = np.ones((POLAR_HEIGHT, POLAR_WIDTH), dtype=np.uint8)
        a = random_template(np.random.default_rng(6), mask=full)
        b = random_template(np.random.default_rng(7), mask=full)
        with pytest.raises(IncomparableError):
            match(a, b)

    def test_shape_mismatch_rejected(self):
        a = random_template(np.random.default_rng(8))
        bits3 = np.random.default_rng(9).integers(
            0, 2, size=(3, POLAR_HEIGHT, POLAR_WIDTH), dtype=np.uint8
        )
        b = ZeroCrossTemplate(bits3, np.zeros((POLAR_HEIGHT, POLAR_WIDTH), dtype=np.uint8))
        with pytest.raises(ValueError):
            match(a, b)


@pytest.fixture(scope="module")
def corpus_features():
    features = []
    for rec in build_corpus(6, 3, master_seed=2026).records:
        try:
            features.append(process_image(rec.image, SegmentationConfig()))
        except SegmentationError:
            continue
    assert len(features) >= 15
    return features


@pytest.fixture(scope="module")
def corpus_templates(corpus_features):
    return [f.template for f in corpus_features]


class TestEncodeMatchesInlineOracle:
    """encode through dyadic_wavelet_1d against the former row-wise inline transform."""

    @pytest.mark.parametrize("scales", [(2, 4), (1, 2, 4, 8), (8,)])
    def test_random_polars(self, scales):
        rng = np.random.default_rng(len(scales))
        for _ in range(5):
            vals = rng.integers(0, 256, size=(POLAR_HEIGHT, POLAR_WIDTH), dtype=np.uint8)
            mask = (rng.random((POLAR_HEIGHT, POLAR_WIDTH)) < 0.3).astype(np.uint8)
            got, want = encode(vals, mask, scales), encode_inline(vals, mask, scales)
            assert np.array_equal(got.bits, want.bits)
            assert np.array_equal(got.mask, want.mask)

    def test_real_polars(self, corpus_features):
        for f in corpus_features:
            assert np.array_equal(f.template.bits, encode_inline(f.enhanced, f.mask).bits)

    def test_invalid_scales_raise_like_oracle(self):
        polar = unmasked_polar(np.zeros((POLAR_HEIGHT, POLAR_WIDTH), dtype=np.uint8))
        for scales in ((), (3,), (2, 5)):
            with pytest.raises(ValueError) as got:
                encode(*polar, scales)
            with pytest.raises(ValueError) as want:
                encode_inline(*polar, scales)
            assert str(got.value) == str(want.value)


def outcome(fn, *args):
    """The float a matcher returns, or ("ValueError", message) for the ValueError it
    raises; the kernel's IncomparableError is a ValueError with the oracle's message."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def assert_matches_oracle(a, b, max_shift):
    want = outcome(zerocross_match_rolled, a, b, max_shift)
    if max_shift > POLAR_WIDTH // 2:
        # wider shifts repeat: the kernel rejects them, and the oracle's answer
        # is the kernel's at the bound
        with pytest.raises(ValueError, match=r"max_shift must lie in \[0, 224\]"):
            match(a, b, max_shift)
        max_shift = POLAR_WIDTH // 2
    got = outcome(match, a, b, max_shift)
    assert got == want
    if isinstance(got, float):
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestMatchMatchesRolledOracle:
    """The bit-packed all-shifts kernel against the former np.roll loop."""

    SHIFTS = (0, 1, 8, 300, 500)  # 300 and 500 lie past the bound of 224

    @staticmethod
    def template(rng, scales, mask):
        bits = rng.integers(0, 2, size=(scales, POLAR_HEIGHT, POLAR_WIDTH), dtype=np.uint8)
        return ZeroCrossTemplate(bits, mask)

    @staticmethod
    def random_mask(rng):
        mask = (rng.random((POLAR_HEIGHT, POLAR_WIDTH)) < rng.uniform(0.0, 0.7)).astype(np.uint8)
        mask[:, rng.choice(POLAR_WIDTH, size=int(rng.integers(0, 60)), replace=False)] = 1
        mask[rng.integers(0, POLAR_HEIGHT, size=5), :] = 1
        return mask

    @pytest.mark.parametrize("scales", [1, 2, 4])
    def test_random_templates(self, scales):
        rng = np.random.default_rng(100 + scales)
        for _ in range(6):
            a = self.template(rng, scales, self.random_mask(rng))
            b = self.template(rng, scales, self.random_mask(rng))
            for k in self.SHIFTS:
                assert_matches_oracle(a, b, k)
                assert_matches_oracle(b, a, k)

    def test_partly_and_fully_masked_columns(self):
        rng = np.random.default_rng(7)
        mask_a = np.zeros((POLAR_HEIGHT, POLAR_WIDTH), dtype=np.uint8)
        mask_a[:, 10:200] = 1                  # fully masked columns
        mask_a[:50, 300:320] = 1               # partly masked columns
        mask_b = np.ones((POLAR_HEIGHT, POLAR_WIDTH), dtype=np.uint8)
        mask_b[:, 5:12] = 0                    # only a few valid columns
        mask_b[90:, 400] = 0
        a, b = self.template(rng, 2, mask_a), self.template(rng, 2, mask_b)
        for k in self.SHIFTS:
            assert_matches_oracle(a, b, k)
            assert_matches_oracle(b, a, k)

    def test_no_joint_validity_within_shift_range(self):
        rng = np.random.default_rng(8)
        mask_a = np.ones((POLAR_HEIGHT, POLAR_WIDTH), dtype=np.uint8)
        mask_a[:, 0] = 0
        mask_b = np.ones((POLAR_HEIGHT, POLAR_WIDTH), dtype=np.uint8)
        mask_b[:, 20] = 0
        a, b = self.template(rng, 2, mask_a), self.template(rng, 2, mask_b)
        for k in self.SHIFTS:  # comparable only once the search reaches 20 columns
            assert_matches_oracle(a, b, k)
        with pytest.raises(IncomparableError):
            match(a, b, 8)

    def test_fully_masked_template_raises_like_oracle(self):
        rng = np.random.default_rng(9)
        full = np.ones((POLAR_HEIGHT, POLAR_WIDTH), dtype=np.uint8)
        a = self.template(rng, 2, full)
        b = self.template(rng, 2, np.zeros_like(full))
        for k in self.SHIFTS:
            assert_matches_oracle(a, b, k)
            with pytest.raises(IncomparableError, match="incomparable"):
                match(b, a, min(k, POLAR_WIDTH // 2))

    def test_invalid_arguments_raise_like_oracle(self):
        rng = np.random.default_rng(10)
        zeros = np.zeros((POLAR_HEIGHT, POLAR_WIDTH), dtype=np.uint8)
        a, b = self.template(rng, 2, zeros), self.template(rng, 4, zeros)
        assert_matches_oracle(a, b, 8)
        for fn in (match, zerocross_match_rolled):
            with pytest.raises(ValueError, match="max_shift must"):
                fn(a, a, -1)

    def test_real_templates(self, corpus_templates):
        for i, a in enumerate(corpus_templates):
            for b in corpus_templates[i + 1:]:
                assert_matches_oracle(a, b, 8)
        a, b = corpus_templates[0], corpus_templates[-1]
        for k in self.SHIFTS:
            assert_matches_oracle(a, b, k)

    def test_words_rebuilt_after_gallery_round_trip(self, corpus_templates, tmp_path):
        templates = corpus_templates[:4]
        for t in templates:
            match(t, t)  # fill the cached words before the save
        path = tmp_path / "g.irf"
        store.save(gallery_with_rows(store.empty_gallery(), [f"id-{i}" for i in range(4)], templates,
                                     np.zeros((4, 4)), np.zeros((4, FEATURE_COUNT)),
                                     np.ones((4, FEATURE_COUNT))), path)
        loaded = store.load(path).table.templates
        for before, after in zip(corpus_templates, loaded):
            assert "words" not in vars(after)
            for w_before, w_after in zip(before.words, after.words):
                assert np.array_equal(w_before, w_after)
        for a in loaded:
            for b in loaded:
                assert_matches_oracle(a, b, 8)



class TestMatchPairs:
    """The pair-list kernel against one ``match`` call per pair."""

    @pytest.fixture(scope="class")
    def templates(self):
        table, kept = process_images([r.image for r in build_corpus(4, 2, 2026).records],
                                     SegmentationConfig())
        assert len(kept) == 8
        t = table.templates[0]
        full = np.ones_like(t.mask)
        return [*table.templates, ZeroCrossTemplate(t.bits, full)]

    @pytest.mark.parametrize("max_shift", [0, 8])
    def test_every_pair_equals_match_and_nan_where_it_raises(self, templates, max_shift):
        n = len(templates)
        first, second = np.divmod(np.arange(n * n), n)
        got = match_pairs(templates, first, second, max_shift)
        assert got.shape == (n * n,)
        raised = 0
        for k, (i, j) in enumerate(zip(first, second)):
            try:
                want = match(templates[i], templates[j], max_shift)
            except IncomparableError:
                raised += 1
                assert np.isnan(got[k])
            else:
                assert got[k] == want
        assert raised == 2 * n - 1  # every pair with the fully masked template

    def test_empty_pair_list(self, templates):
        assert match_pairs(templates, [], []).shape == (0,)

    def test_shape_mismatch_still_raises(self, templates):
        one_scale = ZeroCrossTemplate(templates[0].bits[:1], templates[0].mask)
        with pytest.raises(ValueError, match="template shapes differ"):
            match_pairs([templates[0], one_scale], [0], [1])
