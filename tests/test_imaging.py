import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irisfuse.imaging import (
    BinaryImage,
    GrayImage,
    Kernel,
    PgmError,
    SMOOTHING_OPERATOR,
    convolve2d,
    gaussian_kernel,
    load_pgm,
    save_pgm,
)


def naive_convolve(arr, weights):
    """Brute-force double-loop convolution with edge-replicated padding."""
    h, w = arr.shape
    kh, kw = weights.shape
    cy, cx = kh // 2, kw // 2
    out = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for j in range(kh):
                for i in range(kw):
                    # true convolution: kernel indices run opposite to image offsets
                    sy = min(max(y + cy - j, 0), h - 1)
                    sx = min(max(x + cx - i, 0), w - 1)
                    acc += weights[j, i] * arr[sy, sx]
            out[y, x] = acc
    return out


class TestPgm:
    def test_hand_constructed_file(self):
        data = b"P5\n2 2\n255\n" + bytes([0, 64, 128, 255])
        img = load_pgm(data)
        assert (img.width, img.height) == (2, 2)
        assert img.pixels.tolist() == [[0, 64], [128, 255]]

    def test_wrong_magic_rejected(self):
        with pytest.raises(PgmError):
            load_pgm(b"P6\n2 2\n255\n" + bytes(12))

    def test_truncated_payload_rejected(self):
        with pytest.raises(PgmError, match="truncated"):
            load_pgm(b"P5\n2 2\n255\n" + bytes([1, 2, 3]))

    def test_trailing_bytes_rejected(self):
        with pytest.raises(PgmError, match="trailing"):
            load_pgm(b"P5\n2 2\n255\n" + bytes(5))

    def test_maxval_over_255_rejected(self):
        with pytest.raises(PgmError, match="maxval"):
            load_pgm(b"P5\n1 1\n65535\n\x00")

    def test_sample_above_maxval_rejected(self):
        with pytest.raises(PgmError, match=r"sample value 200 exceeds maxval 100"):
            load_pgm(b"P5\n2 1\n100\n" + bytes([200, 50]))

    def test_low_maxval_rescaled_to_full_range(self):
        img = load_pgm(b"P5\n5 1\n15\n" + bytes([0, 1, 7, 8, 15]))
        assert img.pixels.tolist() == [[0, 17, 119, 136, 255]]
        # round(255 * s / maxval) with halves rounded up: 127.5 -> 128
        assert load_pgm(b"P5\n3 1\n2\n" + bytes([0, 1, 2])).pixels.tolist() == [[0, 128, 255]]

    def test_low_maxval_matches_float_rounding(self):
        for maxval in range(1, 255):
            samples = np.arange(maxval + 1, dtype=np.uint8)
            data = f"P5\n{maxval + 1} 1\n{maxval}\n".encode() + samples.tobytes()
            expect = np.floor(255.0 * samples / maxval + 0.5).astype(np.uint8)
            assert np.array_equal(load_pgm(data).pixels[0], expect)

    def test_comment_in_header(self):
        data = b"P5\n# made by hand\n2 1\n255\n" + bytes([10, 20])
        img = load_pgm(data)
        assert img.pixels.tolist() == [[10, 20]]

    def test_round_trip_is_byte_identical(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            h, w = rng.integers(1, 40, size=2)
            img = GrayImage(rng.integers(0, 256, size=(h, w), dtype=np.uint8))
            data = save_pgm(img)
            again = load_pgm(data)
            assert np.array_equal(again.pixels, img.pixels)
            assert save_pgm(again) == data


class TestConvolve2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        arr = rng.integers(0, 256, size=(5, 7), dtype=np.uint8)
        out = convolve2d(arr, Kernel(np.array([[1.0]])))
        assert out.dtype == np.float64
        assert np.array_equal(out, arr.astype(np.float64))

    def test_constant_image_with_smoothing_operator(self):
        out = convolve2d(np.full((6, 6), 9, dtype=np.uint8), SMOOTHING_OPERATOR)
        # operator weights sum to 12
        assert np.allclose(out, 12 * 9)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(5)
        arr = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
        out = convolve2d(arr, SMOOTHING_OPERATOR)
        expect = naive_convolve(arr.astype(np.float64), SMOOTHING_OPERATOR.weights)
        assert np.allclose(out, expect, atol=1e-9)

    def test_asymmetric_kernel_matches_naive_oracle(self):
        rng = np.random.default_rng(6)
        arr = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
        k = Kernel(rng.normal(size=(3, 5)))
        out = convolve2d(arr, k)
        expect = naive_convolve(arr.astype(np.float64), k.weights)
        assert np.allclose(out, expect, atol=1e-9)

    def test_linearity(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(8, 8))
        b = rng.normal(size=(8, 8))
        k = Kernel(rng.normal(size=(3, 3)))
        lhs = convolve2d(2.0 * a + 3.0 * b, k)
        rhs = 2.0 * convolve2d(a, k) + 3.0 * convolve2d(b, k)
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_kernel_larger_than_image_rejected(self):
        with pytest.raises(ValueError):
            convolve2d(np.zeros((2, 2), dtype=np.uint8), SMOOTHING_OPERATOR)


class TestContainers:
    def test_gray_image_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            GrayImage(np.array([[300]]))

    def test_binary_image_rejects_nonbinary(self):
        with pytest.raises(ValueError):
            BinaryImage(np.array([[2]]))

    def test_kernel_rejects_even_dims(self):
        with pytest.raises(ValueError):
            Kernel(np.ones((2, 3)))

    def test_kernel_rejects_all_zero(self):
        with pytest.raises(ValueError):
            Kernel(np.zeros((3, 3)))

    def test_pixels_are_immutable(self):
        img = GrayImage(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 1

    def test_gaussian_kernel_normalized(self):
        k = gaussian_kernel(5, 1.0)
        assert k.weights.shape == (5, 5)
        assert abs(k.weights.sum() - 1.0) < 1e-12


_TOKENS = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from(["", "255", "256", "0", "1e3", "0x10", "+4", "\u0663", "9" * 5000]),
    st.text(alphabet="0123456789-+#x \n\t", max_size=6),
)


@st.composite
def pgm_like(draw):
    """Headers assembled from fuzzed tokens, or a valid file with a few bytes changed."""
    if draw(st.booleans()):
        sep = draw(st.sampled_from([" ", "\n", "\t", " # note\n", ""]))
        header = "P5" + sep + sep.join(draw(_TOKENS) for _ in range(3))
        delim = draw(st.sampled_from([b"\n", b" ", b"", b"#"]))
        return header.encode("utf-8") + delim + draw(st.binary(max_size=48))
    h, w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    data = bytearray(save_pgm(GrayImage(np.full((h, w), 9, dtype=np.uint8))))
    for pos, value in draw(st.lists(st.tuples(st.integers(0, len(data) - 1),
                                              st.integers(0, 255)), max_size=3)):
        data[pos] = value
    return bytes(data[: draw(st.integers(0, len(data) + 1))])


class TestPgmBoundary:
    @settings(max_examples=400, derandomize=True, deadline=None, database=None)
    @given(pgm_like())
    def test_only_pgm_errors_escape(self, data):
        try:
            img = load_pgm(data)
        except PgmError:
            return
        assert isinstance(img, GrayImage)
