import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import linalg as sla

from irisfuse.euler import (
    CovarianceModel,
    _plane_euler,
    calibrated_covariance,
    common_mask,
    euler_code,
    euler_number,
    mahalanobis,
    mahalanobis_rows,
    pair_codes,
)
from irisfuse.normalization import POLAR_HEIGHT, POLAR_WIDTH
from irisfuse.pipeline import process_image, process_images
from irisfuse.segmentation import SegmentationConfig, SegmentationError
from irisfuse.synth import build_corpus

from oracles import euler_code_per_plane, euler_number_quads, flood_fill_euler


class TestEulerNumber:
    def test_empty_image(self):
        assert euler_number(np.zeros((5, 5), dtype=np.uint8)) == 0

    def test_solid_square(self):
        assert euler_number(np.ones((3, 3), dtype=np.uint8)) == 1

    def test_ring_with_hole(self):
        ring = np.ones((3, 3), dtype=np.uint8)
        ring[1, 1] = 0
        assert euler_number(ring) == 0

    def test_diagonal_counts_as_connected(self):
        arr = np.eye(4, dtype=np.uint8)
        assert euler_number(arr) == 1

    def test_matches_flood_fill_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            bits = (rng.random((32, 32)) < rng.uniform(0.2, 0.8)).astype(np.uint8)
            assert euler_number(bits) == flood_fill_euler(bits)

    def test_matches_one_plane_quad_oracle(self):
        # every size from 1x1, including one-row and one-column images,
        # whose quads all straddle the padding
        rng = np.random.default_rng(19)
        for _ in range(600):
            h, w = (int(v) for v in rng.integers(1, 40, size=2))
            bits = (rng.random((h, w)) < rng.uniform(0.05, 0.95)).astype(np.uint8)
            assert euler_number(bits) == euler_number_quads(bits)

    def test_additive_over_separated_components(self):
        rng = np.random.default_rng(23)
        a = (rng.random((16, 16)) < 0.5).astype(np.uint8)
        b = (rng.random((16, 16)) < 0.5).astype(np.uint8)
        gutter = np.zeros((16, 3), dtype=np.uint8)
        pasted = np.hstack([a, gutter, b])
        assert euler_number(pasted) == euler_number(a) + euler_number(b)


class TestCommonMask:
    def test_identity_element(self):
        rng = np.random.default_rng(1)
        m = (rng.random((8, 8)) < 0.5).astype(np.uint8)
        zero = np.zeros((8, 8), dtype=np.uint8)
        assert np.array_equal(common_mask(m, zero), m)

    def test_absorbing_element(self):
        rng = np.random.default_rng(2)
        m = (rng.random((8, 8)) < 0.5).astype(np.uint8)
        ones = np.ones((8, 8), dtype=np.uint8)
        assert np.all(common_mask(m, ones) == 1)

    def test_commutative(self):
        rng = np.random.default_rng(3)
        a = (rng.random((8, 8)) < 0.5).astype(np.uint8)
        b = (rng.random((8, 8)) < 0.5).astype(np.uint8)
        assert np.array_equal(common_mask(a, b), common_mask(b, a))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            common_mask(np.zeros((4, 4), dtype=np.uint8), np.zeros((5, 5), dtype=np.uint8))


class TestEulerCode:
    def test_fully_masked_all_zero(self):
        rng = np.random.default_rng(4)
        vals = rng.integers(0, 256, size=(POLAR_HEIGHT, POLAR_WIDTH), dtype=np.uint8)
        full = np.ones((POLAR_HEIGHT, POLAR_WIDTH), dtype=np.uint8)
        code = euler_code(vals, full)
        assert np.array_equal(code, [0, 0, 0, 0])

    def test_constant_240_gives_unit_code(self):
        vals = np.full((POLAR_HEIGHT, POLAR_WIDTH), 240, dtype=np.uint8)  # 11110000
        code = euler_code(vals, np.zeros_like(vals))
        assert np.array_equal(code, [1, 1, 1, 1])

    def test_matches_bitplane_flood_fill_composition(self):
        rng = np.random.default_rng(5)
        vals = rng.integers(0, 256, size=(POLAR_HEIGHT, POLAR_WIDTH), dtype=np.uint8)
        cm = (rng.random((POLAR_HEIGHT, POLAR_WIDTH)) < 0.2).astype(np.uint8)
        code = euler_code(vals, cm)
        masked = np.where(cm == 1, 0, vals)
        for i, k in enumerate((7, 6, 5, 4)):
            plane = (masked >> k) & 1
            assert code[i] == flood_fill_euler(plane)

    def test_invariant_to_masked_pixel_changes(self):
        rng = np.random.default_rng(6)
        vals = rng.integers(0, 256, size=(POLAR_HEIGHT, POLAR_WIDTH), dtype=np.uint8)
        cm = (rng.random((POLAR_HEIGHT, POLAR_WIDTH)) < 0.3).astype(np.uint8)
        altered = vals.copy()
        altered[cm == 1] = rng.integers(0, 256, size=int(cm.sum()), dtype=np.uint8)
        a = euler_code(vals, cm)
        b = euler_code(altered, cm)
        assert np.array_equal(a, b)

    def test_dimension_mismatch(self):
        vals = np.zeros((POLAR_HEIGHT, POLAR_WIDTH), dtype=np.uint8)
        with pytest.raises(ValueError):
            euler_code(vals, np.zeros((4, 4), dtype=np.uint8))

    def test_codes_are_read_only_int64_arrays(self):
        table, _ = process_images([r.image for r in build_corpus(2, 1, master_seed=2026).records],
                                  SegmentationConfig())
        for code in (euler_code(table.polar[0], table.templates[0].mask), table.euler[0]):
            assert code.dtype == np.int64 and code.shape == (4,)
            with pytest.raises(ValueError):
                code[0] = 99


@pytest.fixture(scope="module")
def corpus_polars():
    """(intensities, mask) of every polar image of a small corpus."""
    polars = []
    for rec in build_corpus(6, 3, master_seed=2026).records:
        try:
            f = process_image(rec.image, SegmentationConfig())
        except SegmentationError:
            continue
        polars.append((f.polar, f.mask))
    assert len(polars) >= 15
    return polars


class TestEulerCodeMatchesPerPlaneOracle:
    """``euler_code`` against ``euler_code_per_plane``, which counts each of the
    four MSB planes by ``euler_number_quads``."""

    @staticmethod
    def masks(rng, shape):
        yield np.zeros(shape, dtype=np.uint8)
        yield np.ones(shape, dtype=np.uint8)
        yield (np.indices(shape).sum(axis=0) % 2).astype(np.uint8)
        yield (rng.random(shape) < 0.3).astype(np.uint8)

    def test_random_images_of_every_small_size(self):
        rng = np.random.default_rng(11)
        shapes = [(h, w) for h in range(1, 7) for w in range(1, 7)]
        shapes += [(1, 448), (96, 1), (13, 29), (96, 448)]
        for shape in shapes:
            for _ in range(3):
                polar = rng.integers(0, 256, size=shape, dtype=np.uint8)
                for cm in self.masks(rng, shape):
                    assert np.array_equal(euler_code(polar, cm), euler_code_per_plane(polar, cm))

    def test_extreme_intensities(self):
        rng = np.random.default_rng(12)
        for values in (0, 15, 16, 240, 255):
            vals = np.full((POLAR_HEIGHT, POLAR_WIDTH), values, dtype=np.uint8)
            vals[rng.random(vals.shape) < 0.5] = 255 - values
            for cm in self.masks(rng, vals.shape):
                assert np.array_equal(euler_code(vals, cm), euler_code_per_plane(vals, cm))

    def test_real_polar_images_and_common_masks(self, corpus_polars):
        for i, (a, ma) in enumerate(corpus_polars):
            assert np.array_equal(euler_code(a, ma), euler_code_per_plane(a, ma))
            for b, mb in corpus_polars[i + 1:]:
                cm = common_mask(ma, mb)
                assert np.array_equal(euler_code(a, cm), euler_code_per_plane(a, cm))
                assert np.array_equal(euler_code(b, cm), euler_code_per_plane(b, cm))


def nibble_oracle(img):
    """Eight plane Euler numbers, b7 first: the planes of the high nibble, then
    of the low nibble, each by the one-plane bit-quad count."""
    return np.array([euler_number_quads((img >> k) & 1) for k in range(7, -1, -1)])


class TestPlaneEulerMatchesNibbleOracle:
    """The per-plane count_nonzero kernel against ``euler_number_quads`` on each
    of the eight planes (``nibble_oracle``)."""

    @settings(derandomize=True, deadline=None, max_examples=300, database=None)
    @given(arrays(np.uint8, st.tuples(st.integers(1, 40), st.integers(1, 40))))
    @example(np.array([[255]], dtype=np.uint8))
    @example(np.array([[0, 255, 170, 85, 15, 240]], dtype=np.uint8))
    @example(np.array([[0], [255], [170], [85], [15], [240]], dtype=np.uint8))
    def test_random_byte_images(self, img):
        assert np.array_equal(_plane_euler(img), nibble_oracle(img))

    def test_one_row_and_one_column_images(self):
        # every quad of these straddles the padding
        rng = np.random.default_rng(31)
        for n in range(1, 41):
            row = rng.integers(0, 256, size=(1, n), dtype=np.uint8)
            assert np.array_equal(_plane_euler(row), nibble_oracle(row))
            assert np.array_equal(_plane_euler(row.T), nibble_oracle(row.T))


class TestPairCodes:
    def test_match_two_union_mask_codes_on_every_ordered_pair(self, corpus_polars):
        for a, ma in corpus_polars:
            for b, mb in corpus_polars:
                cm = common_mask(ma, mb)
                codes = pair_codes(a, b, ma | mb)
                assert np.array_equal(codes[0], euler_code(a, cm))
                assert np.array_equal(codes[1], euler_code(b, cm))


class TestCovariance:
    def test_identical_codes_give_pure_regularization(self):
        codes = [np.array([3, -1, 2, 0])] * 5
        model = calibrated_covariance(codes)
        assert model.epsilon == 1.0
        assert np.allclose(model.S, np.eye(4))

    def test_standard_normal_sampling(self):
        rng = np.random.default_rng(7)
        draws = rng.standard_normal((10_000, 4)) * 10.0
        model = calibrated_covariance(np.round(draws))
        # epsilon is the mean sample variance, so S is about 2 * 100 * I
        assert model.epsilon == pytest.approx(100.0, rel=0.05)
        assert np.max(np.abs(model.S - model.epsilon * np.eye(4) - 100.0 * np.eye(4))) < 5.0

    def test_always_positive_definite(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            codes = rng.integers(-50, 50, size=(rng.integers(2, 30), 4))
            model = calibrated_covariance(codes)
            np.linalg.cholesky(model.S)  # raises if not PD

    def test_needs_two_codes(self):
        with pytest.raises(ValueError):
            calibrated_covariance([np.array([1, 2, 3, 4])])


class TestMahalanobis:
    def identity_model(self):
        return CovarianceModel(np.eye(4), 1.0)

    def test_zero_for_equal_codes(self):
        x = np.array([5, -3, 2, 7])
        assert mahalanobis(x, x, self.identity_model()) == 0.0

    def test_identity_reduces_to_euclidean(self):
        x = np.array([3, 4, 0, 0])
        y = np.array([0, 0, 0, 0])
        assert mahalanobis(x, y, self.identity_model()) == pytest.approx(5.0, abs=1e-9)

    def test_high_variance_damps_component(self):
        model = CovarianceModel(np.diag([4.0, 1.0, 1.0, 1.0]), 1.0)
        x = np.array([2, 0, 0, 0])
        y = np.array([0, 0, 0, 0])
        assert mahalanobis(x, y, model) == pytest.approx(1.0, abs=1e-12)

    def test_matches_whitened_euclidean(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = rng.normal(size=(4, 4))
            S = a @ a.T + 0.5 * np.eye(4)
            model = CovarianceModel(S, 0.5)
            x = rng.integers(-20, 20, 4)
            y = rng.integers(-20, 20, 4)
            L = np.linalg.cholesky(S)
            z = np.linalg.solve(L, (x - y).astype(np.float64))
            assert mahalanobis(x, y, model) == pytest.approx(float(np.linalg.norm(z)), abs=1e-9)

    def test_symmetric(self):
        model = CovarianceModel(np.diag([2.0, 3.0, 1.0, 5.0]), 1.0)
        x = np.array([1, 2, 3, 4])
        y = np.array([-2, 0, 5, 1])
        assert mahalanobis(x, y, model) == pytest.approx(mahalanobis(y, x, model), abs=1e-12)

    def test_variance_increase_never_increases_distance(self):
        x = np.array([3, 1, 1, 1])
        y = np.array([0, 1, 1, 1])
        dists = [
            mahalanobis(x, y, CovarianceModel(np.diag([v, 1.0, 1.0, 1.0]), 0.1))
            for v in (0.5, 1.0, 2.0, 4.0, 16.0)
        ]
        assert all(a >= b for a, b in zip(dists, dists[1:]))

    def test_non_positive_definite_rejected(self):
        bad = np.diag([1.0, 1.0, 1.0, -1.0])
        model = CovarianceModel.__new__(CovarianceModel)
        object.__setattr__(model, "S", bad)
        object.__setattr__(model, "epsilon", 1.0)
        with pytest.raises(ValueError):
            mahalanobis(np.array([1, 0, 0, 0]), np.array([0, 0, 0, 0]), model)

    def test_cached_factor_bit_identical_to_fresh_factor(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            a = rng.normal(size=(4, 4)) * rng.uniform(0.1, 30.0)
            model = CovarianceModel(a @ a.T + rng.uniform(0.01, 2.0) * np.eye(4), 1.0)
            fresh = sla.cho_factor(model.S, lower=True)
            for _ in range(4):
                d = rng.integers(-40, 40, size=4).astype(np.float64)
                x, y = d.astype(np.int64), np.zeros(4, dtype=np.int64)
                want = float(np.sqrt(d @ sla.cho_solve(fresh, d)))
                assert np.float64(mahalanobis(x, y, model)).tobytes() == np.float64(want).tobytes()
            assert model.cholesky is model.cholesky  # factored once per model

    def test_rows_bit_identical_to_scalar_and_to_one_solve_per_pair(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            a = rng.normal(size=(4, 4)) * rng.uniform(0.1, 30.0)
            model = CovarianceModel(a @ a.T + rng.uniform(0.01, 2.0) * np.eye(4), 1.0)
            x = rng.integers(-40, 40, size=(60, 4))
            y = rng.integers(-40, 40, size=(60, 4))
            d = (x - y).astype(np.float64)
            rows = mahalanobis_rows(d, model)
            scalar = [mahalanobis(p, q, model) for p, q in zip(x, y)]
            per_pair = [np.sqrt(v @ sla.cho_solve(model.cholesky, v)) for v in d]
            assert rows.tobytes() == np.array(scalar).tobytes()
            assert rows.tobytes() == np.array(per_pair).tobytes()

    def test_non_positive_definite_rejected_on_every_call(self):
        model = CovarianceModel(np.diag([1.0, 1.0, 1.0, -1.0]), 1.0)
        for _ in range(2):
            with pytest.raises(ValueError, match="positive-definite"):
                mahalanobis(np.array([1, 0, 0, 0]), np.array([0, 0, 0, 0]), model)
