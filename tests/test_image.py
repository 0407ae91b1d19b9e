import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from vecmatch import (
    BoundsError,
    ColorImage,
    GrayImage,
    MalformedHeaderError,
    PixelValueError,
    Rect,
    SampleRangeError,
    TruncatedPayloadError,
    UnsupportedFormatError,
    UnsupportedMaxvalError,
    crop,
    decode_pnm,
    encode_pgm,
    encode_ppm,
    to_gray,
)

gray_arrays = hnp.arrays(
    np.uint8,
    st.tuples(st.integers(1, 12), st.integers(1, 12)),
    elements=st.integers(0, 255),
)


class TestDecode:
    def test_p5_2x2(self):
        img = decode_pnm(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        assert isinstance(img, GrayImage)
        assert img.pixels.tolist() == [[0, 255], [128, 64]]

    def test_p5_minimal(self):
        img = decode_pnm(b"P5\n1 1\n255\n" + bytes([7]))
        assert img.pixels.tolist() == [[7]]

    def test_truncated_payload(self):
        with pytest.raises(TruncatedPayloadError):
            decode_pnm(b"P5\n2 2\n255\n" + bytes([0, 255, 128]))

    def test_p6_color(self):
        img = decode_pnm(b"P6\n2 1\n255\n" + bytes([1, 2, 3, 4, 5, 6]))
        assert isinstance(img, ColorImage)
        assert img.pixels.tolist() == [[[1, 2, 3], [4, 5, 6]]]

    def test_comments_and_whitespace(self):
        data = b"P5 # magic\n# a comment line\n 2\t2 # dims\n255\n" + bytes(4)
        img = decode_pnm(data)
        assert (img.height, img.width) == (2, 2)

    def test_unsupported_magic(self):
        with pytest.raises(UnsupportedFormatError):
            decode_pnm(b"P2\n1 1\n255\n7")

    def test_maxval_too_large(self):
        with pytest.raises(UnsupportedMaxvalError):
            decode_pnm(b"P5\n1 1\n65535\n" + bytes([0, 0]))

    def test_malformed_header(self):
        with pytest.raises(MalformedHeaderError):
            decode_pnm(b"P5\nabc 2\n255\n" + bytes(4))

    def test_empty_input(self):
        with pytest.raises(MalformedHeaderError):
            decode_pnm(b"")

    @pytest.mark.parametrize("wrap", [memoryview, bytearray])
    def test_bytes_like_input(self, wrap):
        data = b"P5\n2 1\n255\n" + bytes([255, 16])
        assert decode_pnm(wrap(data)).pixels.tolist() == [[255, 16]]

    @pytest.mark.parametrize("wrap", [memoryview, bytearray])
    def test_bytes_like_malformed_header(self, wrap):
        with pytest.raises(MalformedHeaderError):
            decode_pnm(wrap(b"P5\nabc 2\n255\n" + bytes(4)))

    def test_sample_above_maxval(self):
        with pytest.raises(SampleRangeError):
            decode_pnm(b"P5\n2 1\n15\n\xff\x10")

    def test_color_sample_above_maxval(self):
        with pytest.raises(SampleRangeError):
            decode_pnm(b"P6\n1 1\n100\n" + bytes([1, 101, 3]))

    def test_samples_up_to_maxval(self):
        img = decode_pnm(b"P5\n2 1\n15\n" + bytes([0, 15]))
        assert img.pixels.tolist() == [[0, 15]]


class TestEncode:
    def test_minimal(self):
        assert encode_pgm(GrayImage([[7]])) == b"P5\n1 1\n255\n" + bytes([7])

    def test_dimension_order(self):
        data = encode_pgm(GrayImage(np.zeros((2, 3), dtype=np.uint8)))
        assert data.startswith(b"P5\n3 2\n255\n")

    def test_round_trip_4x4(self, rng):
        img = GrayImage(rng.integers(0, 256, (4, 4), dtype=np.uint8))
        assert decode_pnm(encode_pgm(img)) == img

    @given(gray_arrays)
    def test_round_trip_property(self, arr):
        img = GrayImage(arr)
        assert decode_pnm(encode_pgm(img)) == img

    def test_ppm_round_trip(self, rng):
        img = ColorImage(rng.integers(0, 256, (3, 5, 3), dtype=np.uint8))
        assert decode_pnm(encode_ppm(img)) == img


class TestPixelValues:
    @pytest.mark.parametrize("bad", [3.7, np.nan, np.inf, -np.inf, -1, 256])
    def test_rejected(self, bad):
        with pytest.raises(PixelValueError):
            GrayImage([[1.0, bad]])
        with pytest.raises(PixelValueError):
            ColorImage([[[1.0, 2.0, bad]]])

    def test_whole_floats_accepted(self):
        img = GrayImage([[3.0, 255.0], [0.0, 7.0]])
        assert img.pixels.dtype == np.uint8
        assert img.pixels.tolist() == [[3, 255], [0, 7]]

    def test_uint8_input_copied(self):
        arr = np.array([[1, 2]], dtype=np.uint8)
        img = GrayImage(arr)
        arr[0, 0] = 9
        assert img.pixels.tolist() == [[1, 2]]
        assert not img.pixels.flags.writeable


class TestToGray:
    def test_white_luma(self):
        img = to_gray(ColorImage([[[255, 255, 255]]]), "luma")
        assert img.pixels[0, 0] == 255

    def test_black_both_modes(self):
        black = ColorImage([[[0, 0, 0]]])
        assert to_gray(black, "luma").pixels[0, 0] == 0
        assert to_gray(black, "channel-sum").pixels[0, 0] == 0

    def test_red_luma(self):
        # round(0.299 * 255) = 76
        img = to_gray(ColorImage([[[255, 0, 0]]]), "luma")
        assert img.pixels[0, 0] == 76

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            to_gray(ColorImage([[[0, 0, 0]]]), "hsv")

    @given(st.tuples(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255)))
    def test_output_in_range(self, rgb):
        img = ColorImage([[list(rgb)]])
        for mode in ("luma", "channel-sum"):
            v = int(to_gray(img, mode).pixels[0, 0])
            assert 0 <= v <= 255


class TestCrop:
    def test_direct_indexing(self):
        img = GrayImage([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        out = crop(img, Rect(top=1, left=1, height=2, width=2))
        assert out.pixels.tolist() == [[5, 6], [8, 9]]

    def test_identity_crop(self, rng):
        img = GrayImage(rng.integers(0, 256, (5, 7), dtype=np.uint8))
        assert crop(img, Rect(0, 0, 5, 7)) == img

    def test_out_of_bounds(self):
        img = GrayImage([[1, 2], [3, 4]])
        with pytest.raises(BoundsError):
            crop(img, Rect(top=1, left=1, height=2, width=2))

    def test_zero_extent_rejected(self):
        with pytest.raises(BoundsError):
            Rect(top=0, left=0, height=0, width=1)

    @given(
        gray_arrays,
        st.data(),
    )
    def test_crop_composition(self, arr, data):
        img = GrayImage(arr)
        h, w = img.height, img.width
        a_top = data.draw(st.integers(0, h - 1))
        a_left = data.draw(st.integers(0, w - 1))
        a_h = data.draw(st.integers(1, h - a_top))
        a_w = data.draw(st.integers(1, w - a_left))
        b_top = data.draw(st.integers(0, a_h - 1))
        b_left = data.draw(st.integers(0, a_w - 1))
        b_h = data.draw(st.integers(1, a_h - b_top))
        b_w = data.draw(st.integers(1, a_w - b_left))
        inner = crop(crop(img, Rect(a_top, a_left, a_h, a_w)), Rect(b_top, b_left, b_h, b_w))
        direct = crop(img, Rect(a_top + b_top, a_left + b_left, b_h, b_w))
        assert inner == direct
