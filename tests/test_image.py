import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from vecmatch import (
    BoundsError,
    ColorImage,
    GrayImage,
    MalformedHeaderError,
    PixelValueError,
    PnmError,
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
from vecmatch.image import GRAY_MODES

gray_arrays = hnp.arrays(
    np.uint8,
    st.tuples(st.integers(1, 12), st.integers(1, 12)),
    elements=st.integers(0, 255),
)


_header_token = st.one_of(
    st.integers(1, 4).map(lambda v: str(v).encode()),
    st.integers(0, 300).map(lambda v: str(v).encode()),
    st.sampled_from([b"-1", b"0x10", b"1e3", b"255", b"\xff"]),
    st.binary(max_size=3),
)
# Byte strings that start like a PNM header, so that decoding gets past the
# magic number and the header fields far more often than random bytes do.
pnm_like = st.tuples(
    st.sampled_from([b"P5", b"P6", b"P4", b""]),
    st.lists(st.tuples(st.sampled_from([b" ", b"\n", b"#x\n"]), _header_token),
             min_size=2, max_size=4),
    st.sampled_from([b"\n", b" ", b"", b"#"]),
    st.binary(max_size=64),
).map(lambda p: p[0] + b"".join(sep + tok for sep, tok in p[1]) + p[2] + p[3])


class TestDecode:
    @staticmethod
    def _image_or_pnm_error(data):
        try:
            img = decode_pnm(data)
        except PnmError:
            return
        assert isinstance(img, (GrayImage, ColorImage))

    @given(st.binary(max_size=64))
    def test_any_bytes_decode_or_raise_pnm_error(self, data):
        self._image_or_pnm_error(data)

    @settings(max_examples=300)
    @given(pnm_like)
    def test_header_like_bytes_decode_or_raise_pnm_error(self, data):
        self._image_or_pnm_error(data)

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


class TestShape:
    @pytest.mark.parametrize("pixels", [np.zeros((0, 0)), np.zeros((0, 3)), np.zeros((2, 0))])
    def test_empty_gray_rejected(self, pixels):
        with pytest.raises(ValueError, match="at least 1x1"):
            GrayImage(pixels)

    @pytest.mark.parametrize("pixels", [[1, 2, 3], [[[1, 2, 3]]], 7])
    def test_gray_needs_2d(self, pixels):
        with pytest.raises(ValueError, match="2-D"):
            GrayImage(pixels)

    @pytest.mark.parametrize("pixels", [[[1, 2, 3]], [[[1, 2]]], [[[[1, 2, 3]]]]])
    def test_color_needs_three_channels(self, pixels):
        with pytest.raises(ValueError, match=r"\(H, W, 3\)"):
            ColorImage(pixels)

    def test_empty_color_rejected(self):
        with pytest.raises(ValueError, match="at least 1x1"):
            ColorImage(np.zeros((0, 2, 3)))

    def test_eq_with_other_types(self):
        gray = GrayImage([[1, 2]])
        assert gray != [[1, 2]]
        assert gray != ColorImage([[[1, 1, 1], [2, 2, 2]]])
        assert gray.__eq__("image") is NotImplemented

    def test_repr(self):
        assert repr(GrayImage(np.zeros((2, 3)))) == "GrayImage(2x3)"
        assert repr(ColorImage(np.zeros((4, 1, 3)))) == "ColorImage(4x1)"


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

    def test_gray_input_is_a_type_error(self):
        with pytest.raises(TypeError, match="ColorImage"):
            to_gray(GrayImage([[1, 2]]))

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

    def test_color_crop(self, rng):
        # a ColorImage crops to a ColorImage, and gray conversion commutes
        # with cropping, as it works pixel by pixel
        img = ColorImage(rng.integers(0, 256, (6, 7, 3), dtype=np.uint8))
        rect = Rect(top=2, left=3, height=3, width=4)
        out = crop(img, rect)
        assert out == ColorImage(img.pixels[2:5, 3:7])
        for mode in GRAY_MODES:
            assert to_gray(out, mode) == crop(to_gray(img, mode), rect)

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

    @pytest.mark.parametrize("top, left", [(-1, 0), (0, -1)])
    def test_negative_corner_rejected(self, top, left):
        with pytest.raises(BoundsError, match="non-negative"):
            Rect(top=top, left=left, height=1, width=1)

    def test_non_integer_fields_are_a_type_error(self):
        with pytest.raises(TypeError, match="integers"):
            Rect(0.5, 0, 1, 1)
        with pytest.raises(TypeError, match="integers"):
            Rect(0, 0, "2", 1)
        # numpy integers are integers
        img = GrayImage([[1, 2], [3, 4]])
        assert crop(img, Rect(np.int64(1), np.uint8(0), 1, 2)).pixels.tolist() == [[3, 4]]

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
