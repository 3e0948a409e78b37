"""PPM serialization, rounding, and gray conversion tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rcc.image import (
    Image,
    PpmError,
    read_ppm,
    to_uint8,
    write_ppm,
)
from rcc.segment import rgb_to_gray

from oracles import round_half_away


def rgb_arrays(max_side=16):
    shapes = st.tuples(
        st.integers(1, max_side), st.integers(1, max_side), st.just(3)
    )
    return hnp.arrays(dtype=np.uint8, shape=shapes)


class TestRounding:
    def test_halves_round_away_from_zero(self):
        vals = np.array([0.5, 1.5, 2.5, -0.5, -1.5, -2.5])
        assert round_half_away(vals).tolist() == [1, 2, 3, -1, -2, -3]

    def test_ordinary_values(self):
        vals = np.array([0.49, 0.51, -0.49, 2.0])
        assert round_half_away(vals).tolist() == [0, 1, 0, 2]


def clamped_oracle(values):
    return np.clip(round_half_away(values), 0, 255).astype(np.uint8)


class TestToUint8:
    """`to_uint8` against rounding half away from zero, then clamping."""

    def test_ties_signs_and_range_ends(self):
        vals = np.array([
            0.5, -0.5, 1.5, 2.5, 254.5, 255.5, -0.0, 0.0, -1.5, -300.0,
            0.49999999999999994, 254.49999999999997, 255.0, 256.0, 1e300, -1e300,
        ])
        want = clamped_oracle(vals)
        assert want[:8].tolist() == [1, 0, 2, 3, 255, 255, 0, 0]
        assert np.array_equal(to_uint8(vals.copy()), want)

    @settings(max_examples=50, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(0, 64),
                      elements=st.floats(-600, 600, allow_nan=False)))
    def test_random_floats(self, vals):
        want = clamped_oracle(vals)
        got = to_uint8(vals.copy())
        assert got.dtype == np.uint8
        assert np.array_equal(got, want)

    def test_rounds_its_input_in_place(self):
        vals = np.array([[0.5, -2.5], [7.25, 300.0]])
        out = to_uint8(vals)
        assert out.tolist() == [[1, 0], [7, 255]]
        assert vals.tolist() == [[1.0, 0.0], [7.0, 255.0]]


class TestPpm:
    def test_write_emits_canonical_header(self):
        img = Image(np.zeros((2, 3, 3), dtype=np.uint8))
        data = write_ppm(img)
        assert data.startswith(b"P6\n3 2\n255\n")
        assert len(data) == len(b"P6\n3 2\n255\n") + 18

    def test_round_trip_hand_case(self):
        pixels = np.arange(24, dtype=np.uint8).reshape(2, 4, 3)
        img = Image(pixels)
        assert read_ppm(write_ppm(img)) == img

    @settings(max_examples=50, deadline=None)
    @given(rgb_arrays())
    def test_round_trip_random(self, pixels):
        img = Image(pixels)
        data = write_ppm(img)
        assert read_ppm(data) == img
        assert write_ppm(read_ppm(data)) == data

    def test_reader_accepts_comments_and_extra_whitespace(self):
        payload = bytes(range(12))
        data = b"P6 # magic\n# a comment line\n  2\t2\n 255\n" + payload
        img = read_ppm(data)
        assert img.width == 2 and img.height == 2
        assert img.pixels.tobytes() == payload

    def test_missing_magic(self):
        with pytest.raises(PpmError, match="^missing P6 magic number$"):
            read_ppm(b"P5\n1 1\n255\n\x00")

    @pytest.mark.parametrize("data", [
        b"P61 1 255\n" + bytes(3), b"P632 32 255\n" + bytes(3072), b"P6",
    ], ids=["1x1", "32x32", "magic-only"])
    def test_magic_must_be_followed_by_whitespace(self, data):
        with pytest.raises(PpmError, match="missing whitespace after the P6 magic"):
            read_ppm(data)

    @pytest.mark.parametrize("sep", [b" ", b"\t", b"\r", b"\n", b"\x0b", b"\x0c", b"#c\n"])
    def test_magic_may_be_followed_by_any_whitespace_or_a_comment(self, sep):
        assert read_ppm(b"P6" + sep + b"1 1 255\n" + bytes(3)).width == 1

    @pytest.mark.parametrize("data", [
        b"P6\n1 1", b"P6\n1 1 #255", b"P6\n1 1\n#255\n", b"P6 " + b"#" * 64,
    ], ids=["token", "comment", "comment-line", "hashes"])
    def test_header_cut_short(self, data):
        # no token may come out of a comment's tail, and a run of '#' is one comment
        with pytest.raises(PpmError, match="^unexpected end of stream in header$"):
            read_ppm(data)

    @pytest.mark.parametrize("end", [b"\n", b"\r"])
    def test_comment_may_follow_a_token_directly(self, end):
        img = read_ppm(b"P6\n1#c" + end + b"1 255\n" + bytes(3))
        assert img.width == 1 and img.height == 1

    @pytest.mark.parametrize("data", [b"P6\n1 1 255#c\n" + bytes(3), b"P6\n1 1 255"],
                             ids=["comment", "end"])
    def test_maxval_must_be_followed_by_whitespace(self, data):
        with pytest.raises(PpmError, match="^missing whitespace after maxval$"):
            read_ppm(data)

    def test_non_numeric_header(self):
        with pytest.raises(PpmError, match="^non-numeric header token: "):
            read_ppm(b"P6\nx 1\n255\n" + b"\x00" * 3)

    @pytest.mark.parametrize("header", [
        b"+10 2 255", b"10 +2 255", b"10 2 +255", b"1_0 2 255", b"10 0_2 255", b"10 2 25_5",
    ], ids=["width+", "height+", "maxval+", "width_", "height_", "maxval_"])
    def test_header_token_must_be_ascii_digits(self, header):
        # int() reads each as 10, 2 or 255, and the payload fits a 10x2 image
        with pytest.raises(PpmError, match="is not ASCII digits"):
            read_ppm(b"P6\n" + header + b"\n" + bytes(60))

    def test_wrong_maxval(self):
        with pytest.raises(PpmError, match="^unsupported maxval 128, only 255 is accepted$"):
            read_ppm(b"P6\n1 1\n128\n" + b"\x00" * 3)

    def test_short_payload(self):
        with pytest.raises(PpmError, match="^payload holds 5 bytes, header promises 12$"):
            read_ppm(b"P6\n2 2\n255\n" + b"\x00" * 5)

    def test_trailing_bytes_rejected(self):
        with pytest.raises(PpmError, match="^payload holds 4 bytes, header promises 3$"):
            read_ppm(b"P6\n1 1\n255\n" + b"\x00" * 4)

    @pytest.mark.parametrize("size", [5, 16])
    def test_payload_length_error_names_both_sizes(self, size):
        with pytest.raises(
            PpmError, match=f"^payload holds {size} bytes, header promises 12$"
        ):
            read_ppm(b"P6\n2 2\n255\n" + b"\x00" * size)

    def test_image_owns_its_pixels_when_parsed_from_a_bytearray(self):
        pixels = np.arange(24, dtype=np.uint8).reshape(2, 4, 3)
        buf = bytearray(write_ppm(Image(pixels)))
        img = read_ppm(buf)
        buf[-24:] = bytes(24)
        buf += b"resizable again"
        assert np.array_equal(img.pixels, pixels)

    def test_zero_dimension_rejected(self):
        with pytest.raises(PpmError, match="^invalid dimensions 0x1$"):
            read_ppm(b"P6\n0 1\n255\n")


class TestContainers:
    def test_image_requires_three_channels(self):
        with pytest.raises(ValueError):
            Image(np.zeros((2, 2, 4), dtype=np.uint8))

    def test_image_pixels_are_read_only(self):
        img = Image(np.zeros((1, 1, 3), dtype=np.uint8))
        with pytest.raises(ValueError):
            img.pixels[0, 0, 0] = 1

    def test_out_of_range_float_input_rejected(self):
        with pytest.raises(ValueError, match="integers in"):
            Image(np.full((1, 1, 3), 300.0))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -0.5, 12.5])
    @pytest.mark.filterwarnings("error")
    def test_non_integer_channel_values_rejected(self, value):
        with pytest.raises(ValueError, match="integers in"):
            Image(np.full((2, 2, 3), value))

    def test_integral_float_channel_values_accepted(self):
        assert Image(np.array([[[12.0, 0.0, 255.0]]])).pixels.tolist() == [[[12, 0, 255]]]


class TestGray:
    def test_primary_colors(self):
        img = Image(np.array([[[255, 0, 0], [0, 255, 0], [0, 0, 255]]], dtype=np.uint8))
        # BT.601 weights: 0.299, 0.587, 0.114
        assert rgb_to_gray(img).tolist() == [[76, 150, 29]]

    def test_black_and_white_fixed_points(self):
        img = Image(np.array([[[0, 0, 0], [255, 255, 255]]], dtype=np.uint8))
        assert rgb_to_gray(img).tolist() == [[0, 255]]

    def test_every_rgb_triple_matches_rounded_luma(self):
        """All 2^24 colors, 16 red levels per chunk, against the weighted
        sum rounded half away from zero and clamped."""
        gb = np.arange(1 << 16)
        for r0 in range(0, 256, 16):
            rgb = np.empty((16, 1 << 16, 3), dtype=np.uint8)
            rgb[:, :, 0] = np.arange(r0, r0 + 16)[:, None]
            rgb[:, :, 1] = gb >> 8
            rgb[:, :, 2] = gb & 0xFF
            f = rgb.astype(np.float64)
            luma = 0.299 * f[:, :, 0] + 0.587 * f[:, :, 1] + 0.114 * f[:, :, 2]
            want = np.clip(round_half_away(luma), 0, 255).astype(np.uint8)
            assert np.array_equal(rgb_to_gray(Image(rgb)), want), r0
