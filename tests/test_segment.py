"""Localization pipeline tests against brute-force oracles."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rcc import segment
from rcc.image import BAND_ROWS, GrayImage, Image, rgb_to_gray
from rcc.rng import Xoshiro256StarStar
from rcc.synth import COLOR_CLASSES, ILLUMINANT_PRESETS, render_scene
from rcc.segment import (
    BLUR_SIGMA,
    BinaryMask,
    BoundRect,
    NoObjectError,
    adaptive_threshold,
    detect_bounding_box,
    dilate,
    gaussian_blur,
    gaussian_kernel,
    label_components,
    sobel_magnitude,
)

from oracles import round_half_away

try:
    from numpy._core._multiarray_umath import __cpu_features__ as CPU_FEATURES
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__ as CPU_FEATURES


def random_gray(rng, h, w):
    return GrayImage(rng.integers_below(256, h * w).reshape(h, w).astype(np.uint8))


def naive_blur(img: GrayImage, sigma: float) -> GrayImage:
    """Direct 2-d convolution with the outer-product kernel, replicate pad."""
    taps = gaussian_kernel(sigma)
    kernel = np.outer(taps, taps)
    radius = len(taps) // 2
    padded = np.pad(img.pixels.astype(np.float64), radius, mode="edge")
    out = np.zeros((img.height, img.width))
    for y in range(img.height):
        for x in range(img.width):
            window = padded[y : y + 2 * radius + 1, x : x + 2 * radius + 1]
            out[y, x] = (window * kernel).sum()
    return GrayImage(np.clip(round_half_away(out), 0, 255).astype(np.uint8))


def naive_adaptive(img: GrayImage, window: int, c: float) -> np.ndarray:
    radius = window // 2
    padded = np.pad(img.pixels.astype(np.int64), radius, mode="edge")
    out = np.zeros((img.height, img.width), dtype=bool)
    for y in range(img.height):
        for x in range(img.width):
            total = padded[y : y + window, x : x + window].sum()
            out[y, x] = img.pixels[y, x] < total / (window * window) - c
    return out


def naive_sobel(img: GrayImage) -> np.ndarray:
    kx = [[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]]
    ky = [[-1, -2, -1], [0, 0, 0], [1, 2, 1]]
    padded = np.pad(img.pixels.astype(np.int64), 1, mode="edge")
    out = np.zeros((img.height, img.width), dtype=np.uint8)
    for y in range(img.height):
        for x in range(img.width):
            gx = gy = 0
            for m in range(3):
                for n in range(3):
                    gx += kx[m][n] * padded[y + m, x + n]
                    gy += ky[m][n] * padded[y + m, x + n]
            mag = math.sqrt(gx * gx + gy * gy)
            out[y, x] = int(min(round_half_away(mag), 255))
    return out


# The whole-image gray, blur, threshold and Sobel that the banded and
# separable front end replaced.  They define the bytes it must produce.

def oracle_rgb_to_gray(img):
    px = img.pixels
    luma = 0.299 * px[:, :, 0].astype(np.float64)
    luma += 0.587 * px[:, :, 1]
    luma += 0.114 * px[:, :, 2]
    luma += 0.5
    return GrayImage(np.floor(luma, out=luma).astype(np.uint8))


def oracle_blur_values(img, sigma):
    """The float64 blur before rounding."""
    kernel = gaussian_kernel(sigma)
    radius = len(kernel) // 2
    acc = img.pixels.astype(np.float64)
    for axis in (1, 0):  # horizontal pass, then vertical
        pad = [(0, 0), (0, 0)]
        pad[axis] = (radius, radius)
        padded = np.pad(acc, pad, mode="edge")
        acc = np.zeros_like(acc)
        for t, weight in enumerate(kernel):
            if axis == 1:
                acc += weight * padded[:, t : t + img.width]
            else:
                acc += weight * padded[t : t + img.height, :]
    return acc


def oracle_gaussian_blur(img, sigma):
    acc = oracle_blur_values(img, sigma)
    return GrayImage(np.clip(round_half_away(acc), 0, 255).astype(np.uint8))


def oracle_adaptive_threshold(img, window, c):
    padded = np.pad(img.pixels.astype(np.int64), window // 2, mode="edge")
    integral = np.zeros((padded.shape[0] + 1, padded.shape[1] + 1), dtype=np.int64)
    integral[1:, 1:] = padded.cumsum(axis=0).cumsum(axis=1)
    sums = (
        integral[window:, window:]
        - integral[:-window, window:]
        - integral[window:, :-window]
        + integral[:-window, :-window]
    )
    return BinaryMask(img.pixels.astype(np.float64) < sums / float(window * window) - c)


def oracle_sobel_magnitude(img):
    sobel_x = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=np.int64)
    sobel_y = np.array([[-1, -2, -1], [0, 0, 0], [1, 2, 1]], dtype=np.int64)
    padded = np.pad(img.pixels.astype(np.int64), 1, mode="edge")
    h, w = img.height, img.width
    gx = np.zeros((h, w), dtype=np.int64)
    gy = np.zeros((h, w), dtype=np.int64)
    for m in range(3):
        for n in range(3):
            patch = padded[m : m + h, n : n + w]
            gx += sobel_x[m, n] * patch
            gy += sobel_y[m, n] * patch
    mag = np.sqrt(gx.astype(np.float64) ** 2 + gy.astype(np.float64) ** 2)
    return GrayImage(np.clip(round_half_away(mag), 0, 255).astype(np.uint8))


# Heights around the band edges, and widths up to just past the blur radius,
# where the edge padding is most of each row.
BAND_HEIGHTS = (1, BAND_ROWS - 1, BAND_ROWS, BAND_ROWS + 1, 2 * BAND_ROWS + 3)
BLUR_RADIUS = len(gaussian_kernel(BLUR_SIGMA)) // 2


# 0/1 stripes blur to within 3.5e-5 of a half level at sigma 1.4, so nearly
# every float32 value is unsure and the band is redone whole in float64.
STRIPE_WIDTH = 40


def stripes(shape, pattern):
    """0/1 alternating columns, alternating rows or a checkerboard."""
    ys, xs = np.indices(shape[:2])
    bits = {"columns": xs, "rows": ys, "checkerboard": xs + ys}[pattern] % 2
    return np.broadcast_to(bits.reshape(shape[:2] + (1,) * (len(shape) - 2)), shape)


@st.composite
def pixel_arrays(draw, channels=(), min_side=1, max_width=BLUR_RADIUS + 2):
    """Constant, uniform random, 0/255 or 0/1 striped pixels at a band-edge
    height; stripes come up to STRIPE_WIDTH wide."""
    h = draw(st.sampled_from([t for t in BAND_HEIGHTS if t >= min_side]))
    kind = draw(st.sampled_from(("constant", "random", "extremes", "stripes")))
    width = max(max_width, STRIPE_WIDTH) if kind == "stripes" else max_width
    shape = (h, draw(st.integers(min_side, width))) + channels
    if kind == "constant":
        return np.full(shape, draw(st.integers(0, 255)), dtype=np.uint8)
    if kind == "stripes":
        pattern = draw(st.sampled_from(("columns", "rows", "checkerboard")))
        return stripes(shape, pattern).astype(np.uint8)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        return rng.integers(0, 256, shape, dtype=np.uint8)
    return rng.choice(np.array([0, 255], dtype=np.uint8), shape)


def striped_scene():
    """A 640x480 scene of uniform noise above 0/1 stripe bands with noise
    between them: the blur redoes the unsure pixels of the top bands one
    by one, then the first striped band whole, then the rest in float64."""
    px = np.random.default_rng(11).integers(0, 256, (480, 640, 3), dtype=np.uint8)
    for top, pattern in ((200, "columns"), (330, "rows"), (430, "checkerboard")):
        px[top : top + 50] = stripes((50, 640, 3), pattern)
    return px


class TestFrontEndOracles:
    @settings(max_examples=100, deadline=None)
    @given(pixel_arrays(channels=(3,)))
    def test_gray_matches_oracle(self, px):
        img = Image(px)
        assert np.array_equal(rgb_to_gray(img).pixels, oracle_rgb_to_gray(img).pixels)

    @settings(max_examples=100, deadline=None)
    @given(pixel_arrays(), st.sampled_from((0.8, BLUR_SIGMA, 2.3)))
    def test_blur_matches_oracle(self, px, sigma):
        img = GrayImage(px)
        want = oracle_gaussian_blur(img, sigma).pixels
        assert np.array_equal(gaussian_blur(img, sigma).pixels, want)

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.sampled_from((3, 5, 11, 15)),
           st.integers(-255, 255) | st.sampled_from((-16, -15, 0, 2, 15, 16)))
    def test_threshold_matches_oracle(self, data, window, c):
        # window 11 sums in int16 for |c| <= 15 and in int32 past that
        img = GrayImage(data.draw(pixel_arrays(max_width=window // 2 + 2)))
        want = oracle_adaptive_threshold(img, window, float(c)).bits
        assert np.array_equal(adaptive_threshold(img, window, float(c)).bits, want)

    @settings(max_examples=100, deadline=None)
    @given(pixel_arrays(min_side=3))
    def test_sobel_matches_oracle(self, px):
        img = GrayImage(px)
        assert np.array_equal(sobel_magnitude(img).pixels, oracle_sobel_magnitude(img).pixels)

    def test_wide_scene_matches_oracles(self):
        noise = np.random.default_rng(7).integers(0, 256, (2 * BAND_ROWS + 3, 97, 3),
                                                  dtype=np.uint8)
        for px in (noise, striped_scene()):
            img = Image(px)
            gray = rgb_to_gray(img)
            assert np.array_equal(gray.pixels, oracle_rgb_to_gray(img).pixels)
            blurred = gaussian_blur(gray, BLUR_SIGMA)
            assert np.array_equal(blurred.pixels,
                                  oracle_gaussian_blur(gray, BLUR_SIGMA).pixels)
            assert np.array_equal(adaptive_threshold(blurred, 11, 2.0).bits,
                                  oracle_adaptive_threshold(blurred, 11, 2.0).bits)
            assert np.array_equal(sobel_magnitude(blurred).pixels,
                                  oracle_sobel_magnitude(blurred).pixels)


# numpy's dispatch targets with AVX-512 loops; none of numpy's loops fuses a
# multiply into an add, so the float32 pass and the int16 sums give the
# same bytes without them
AVX512_TARGETS = ("X86_V4", "AVX512_ICL", "AVX512_SPR")
_OFF_AVX512_SCRIPT = """
import sys
import pytest
try:
    from numpy._core._multiarray_umath import __cpu_features__ as features
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__ as features
assert not any(features[f] for f in sys.argv[1].split()), "AVX-512 loops still enabled"
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[2:]]))
"""


@pytest.mark.skipif(not all(CPU_FEATURES.get(f) for f in AVX512_TARGETS),
                    reason="CPU lacks AVX-512")
def test_front_end_golden_bytes_off_avx512():
    targets = " ".join(AVX512_TARGETS)
    done = subprocess.run(
        [sys.executable, "-c", _OFF_AVX512_SCRIPT, targets,
         "tests/test_golden.py::test_front_end_arrays_match_golden",
         "tests/test_golden.py::test_detect_boxes_match_golden"],
        cwd=Path(__file__).resolve().parents[1],
        env=dict(os.environ, NPY_DISABLE_CPU_FEATURES=targets),
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "4 passed" in done.stdout


def flood_fill_boxes(bits: np.ndarray) -> list[tuple[int, BoundRect]]:
    """Independent component scan: (pixel count, tight box) per component,
    in first-pixel scan order."""
    h, w = bits.shape
    seen = np.zeros_like(bits, dtype=bool)
    boxes = []
    for row in range(h):
        for col in range(w):
            if not bits[row, col] or seen[row, col]:
                continue
            stack = [(col, row)]
            seen[row, col] = True
            pixels = []
            while stack:
                x, y = stack.pop()
                pixels.append((x, y))
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        nx, ny = x + dx, y + dy
                        if 0 <= nx < w and 0 <= ny < h and bits[ny, nx] and not seen[ny, nx]:
                            seen[ny, nx] = True
                            stack.append((nx, ny))
            xs = [p[0] for p in pixels]
            ys = [p[1] for p in pixels]
            boxes.append(
                (len(pixels),
                 BoundRect(min(xs), min(ys), max(xs) - min(xs) + 1, max(ys) - min(ys) + 1))
            )
    return boxes


class TestGaussian:
    def test_kernel_length_and_normalization(self):
        for sigma in (0.5, 1.0, 1.4, 2.3):
            k = gaussian_kernel(sigma)
            assert len(k) == 2 * math.ceil(3 * sigma) + 1
            assert math.isclose(k.sum(), 1.0, abs_tol=1e-12)
            assert np.array_equal(k, k[::-1])

    def test_kernel_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            gaussian_kernel(0.0)

    def test_blur_preserves_constant_image(self):
        img = GrayImage(np.full((10, 12), 137, dtype=np.uint8))
        assert gaussian_blur(img, 1.4) == img

    @pytest.mark.parametrize("sigma", (0.8, BLUR_SIGMA, 2.3))
    def test_float32_pass_within_its_bound_on_scenes(self, sigma):
        """The largest |V32 - V64| over rendered scenes stays below the
        first-order bound of gaussian_blur's docstring; the pass decides a
        pixel only when it is twice that from a half level."""
        taps = gaussian_kernel(sigma)
        bound = segment._float32_error_bound(len(taps))
        radius = len(taps) // 2
        worst = 0.0
        for i, (color, name) in enumerate(zip(COLOR_CLASSES * 5, sorted(ILLUMINANT_PRESETS) * 6)):
            rect = BoundRect(5 + i, 4 + i % 20, 40 + i, 30 + i % 20)
            scene, _ = render_scene(color, rect, 128, 96, ILLUMINANT_PRESETS[name], seed=i,
                                    jitter=i % 3)
            gray = rgb_to_gray(scene)
            padded = np.pad(gray.pixels, radius, mode="edge").astype(np.float32)
            h, w = gray.pixels.shape
            acc = np.empty((h + 2 * radius, w), dtype=np.float32)
            v32 = segment._separable_sums(padded, taps.astype(np.float32), acc,
                                          np.empty_like(acc), np.empty((h, w), np.float32))
            worst = max(worst, np.abs(v32 - oracle_blur_values(gray, sigma)).max())
        assert 0 < worst < bound

    def test_blur_matches_direct_convolution(self):
        rng = Xoshiro256StarStar(100)
        for sigma in (0.8, 1.4):
            img = random_gray(rng, 9, 13)
            assert gaussian_blur(img, sigma) == naive_blur(img, sigma)


class TestAdaptiveThreshold:
    def test_matches_per_pixel_oracle(self):
        rng = Xoshiro256StarStar(101)
        for window in (3, 5, 11):
            img = random_gray(rng, 14, 17)
            mask = adaptive_threshold(img, window, 2.0)
            assert np.array_equal(mask.bits, naive_adaptive(img, window, 2.0))

    def test_flat_image_has_no_foreground(self):
        img = GrayImage(np.full((8, 8), 100, dtype=np.uint8))
        assert not adaptive_threshold(img, 5, 2.0).bits.any()

    def test_dark_spot_is_marked(self):
        pixels = np.full((9, 9), 200, dtype=np.uint8)
        pixels[4, 4] = 10
        mask = adaptive_threshold(GrayImage(pixels), 5, 2.0)
        assert mask.bits[4, 4]

    def test_even_window_rejected(self):
        img = GrayImage(np.zeros((5, 5), dtype=np.uint8))
        with pytest.raises(ValueError):
            adaptive_threshold(img, 4, 2.0)

    @pytest.mark.parametrize("c", [2.5, -0.5, math.nan, math.inf, -math.inf, 256.0])
    def test_offset_not_an_integer_in_range_rejected(self, c):
        img = GrayImage(np.zeros((5, 5), dtype=np.uint8))
        with pytest.raises(ValueError, match="offset"):
            adaptive_threshold(img, 5, c)

    def test_window_beyond_int32_sums_rejected(self):
        img = GrayImage(np.zeros((1, 1), dtype=np.uint8))
        with pytest.raises(ValueError, match="window"):
            adaptive_threshold(img, 2053, 2.0)

    def test_largest_window_matches_oracle(self):
        # window 2051 is the largest accepted; its sums run in int32
        img = random_gray(Xoshiro256StarStar(102), 5, 7)
        for c in (-255.0, 2.0, 255.0):
            want = oracle_adaptive_threshold(img, 2051, c).bits
            assert np.array_equal(adaptive_threshold(img, 2051, c).bits, want)

    @pytest.mark.parametrize("window", range(3, 16, 2))
    def test_integer_compare_equals_float_compare_exhaustively(self, window):
        """n * (p + c) < s gives the float test p < s / n - c for every
        pixel p and every window sum s that an n-pixel window can hold."""
        n = window * window
        s = np.arange(n * 255 + 1)
        p = np.arange(256)[:, None]
        for c in range(4):
            assert np.array_equal(n * (p + c) < s, p < s / float(n) - c)


class TestSobel:
    def test_matches_per_pixel_oracle(self):
        rng = Xoshiro256StarStar(102)
        img = random_gray(rng, 11, 16)
        assert np.array_equal(sobel_magnitude(img).pixels, naive_sobel(img))

    def test_flat_image_has_zero_gradient(self):
        img = GrayImage(np.full((6, 6), 99, dtype=np.uint8))
        assert not sobel_magnitude(img).pixels.any()

    def test_vertical_step_edge(self):
        pixels = np.zeros((5, 6), dtype=np.uint8)
        pixels[:, 3:] = 100
        mag = sobel_magnitude(GrayImage(pixels)).pixels
        assert mag[2, 2] > 0 and mag[2, 3] > 0
        assert mag[2, 0] == 0

    def test_too_small_image_rejected(self):
        with pytest.raises(ValueError):
            sobel_magnitude(GrayImage(np.zeros((2, 5), dtype=np.uint8)))


class TestComponents:
    def test_diagonal_pixels_are_one_component(self):
        mask = BinaryMask(np.eye(4, dtype=bool))
        assert label_components(mask) == [(4, BoundRect(0, 0, 4, 4))]

    def test_separate_blobs_counted_in_scan_order(self):
        bits = np.zeros((6, 8), dtype=bool)
        bits[0, 5] = True
        bits[2:4, 0:2] = True
        assert label_components(BinaryMask(bits)) == [
            (1, BoundRect(5, 0, 1, 1)),
            (4, BoundRect(0, 2, 2, 2)),
        ]

    def test_empty_mask(self):
        assert label_components(BinaryMask(np.zeros((3, 3), dtype=bool))) == []

    def test_u_shape_joins_late(self):
        # two arms start as separate runs and meet only in the last row
        bits = np.zeros((4, 5), dtype=bool)
        bits[0:3, 0] = True
        bits[0:3, 4] = True
        bits[3, :] = True
        assert label_components(BinaryMask(bits)) == [(11, BoundRect(0, 0, 5, 4))]

    @settings(max_examples=300, deadline=None)
    @given(
        hnp.arrays(
            bool,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=24),
        )
    )
    def test_matches_flood_fill_on_arbitrary_masks(self, bits):
        assert label_components(BinaryMask(bits)) == flood_fill_boxes(bits)


class TestContours:
    """A component's box is the extent of its outer boundary, whatever its
    holes or shape."""

    def test_isolated_pixel(self):
        bits = np.zeros((3, 3), dtype=bool)
        bits[1, 1] = True
        assert label_components(BinaryMask(bits)) == [(1, BoundRect(1, 1, 1, 1))]

    def test_square_block_boundary(self):
        bits = np.zeros((5, 5), dtype=bool)
        bits[1:4, 1:4] = True
        assert label_components(BinaryMask(bits)) == [(9, BoundRect(1, 1, 3, 3))]

    def test_two_components_starting_on_one_row(self):
        bits = np.zeros((4, 9), dtype=bool)
        bits[1:3, 1:4] = True
        bits[1:3, 6:8] = True
        assert label_components(BinaryMask(bits)) == [
            (6, BoundRect(1, 1, 3, 2)),
            (4, BoundRect(6, 1, 2, 2)),
        ]

    def test_ring_is_one_component(self):
        bits = np.zeros((7, 7), dtype=bool)
        bits[1:6, 1:6] = True
        bits[2:5, 2:5] = False  # hollow
        assert label_components(BinaryMask(bits)) == [(16, BoundRect(1, 1, 5, 5))]


def box_of_mask(monkeypatch, bits) -> BoundRect:
    """detect_bounding_box with the threshold step replaced by `bits`."""
    monkeypatch.setattr(segment, "adaptive_threshold", lambda *_: BinaryMask(bits))
    return detect_bounding_box(Image(np.zeros(bits.shape + (3,), dtype=np.uint8)))


class TestBoundingBoxes:
    def test_largest_component_wins(self, monkeypatch):
        bits = np.zeros((8, 8), dtype=bool)
        bits[0, 0] = True
        bits[3:6, 3:7] = True
        assert box_of_mask(monkeypatch, bits) == BoundRect(3, 3, 4, 3)

    def test_largest_component_tie_breaks_by_scan_order(self, monkeypatch):
        bits = np.zeros((6, 6), dtype=bool)
        bits[3:5, 0:2] = True
        bits[0:2, 3:5] = True
        assert box_of_mask(monkeypatch, bits) == BoundRect(3, 0, 2, 2)

    def test_empty_mask_has_no_object(self, monkeypatch):
        with pytest.raises(NoObjectError):
            box_of_mask(monkeypatch, np.zeros((3, 3), dtype=bool))

    def test_rect_matches_flood_fill_on_random_masks(self):
        rng = Xoshiro256StarStar(103)
        for _ in range(25):
            bits = (rng.doubles(20 * 24) < 0.3).reshape(20, 24)
            assert label_components(BinaryMask(bits)) == flood_fill_boxes(bits)

    def test_rect_of_single_point(self):
        bits = np.zeros((5, 6), dtype=bool)
        bits[2, 4] = True
        assert label_components(BinaryMask(bits)) == [(1, BoundRect(4, 2, 1, 1))]


class TestDilate:
    def test_single_pixel_grows_to_block(self):
        bits = np.zeros((5, 5), dtype=bool)
        bits[2, 2] = True
        grown = dilate(BinaryMask(bits))
        assert grown.bits.sum() == 9
        assert grown.bits[1:4, 1:4].all()

    def test_clipped_at_border(self):
        bits = np.zeros((3, 3), dtype=bool)
        bits[0, 0] = True
        assert dilate(BinaryMask(bits)).bits.sum() == 4


def make_scene(level=40):
    pixels = np.full((40, 50, 3), 245, dtype=np.uint8)
    pixels[10:28, 15:38] = (level, level, level)
    return Image(pixels), BoundRect(15, 10, 23, 18)


class TestDetect:
    def test_dark_rectangle_found_within_tolerance(self):
        img, truth = make_scene()
        box = detect_bounding_box(img)
        assert abs(box.x - truth.x) <= 2 and abs(box.y - truth.y) <= 2
        assert abs(box.x + box.w - truth.x - truth.w) <= 2
        assert abs(box.y + box.h - truth.y - truth.h) <= 2

    def test_sobel_mode_finds_same_object(self):
        # edge response is blurred and dilated, so the box brackets the
        # true rect from outside rather than matching it exactly
        img, truth = make_scene()
        box = detect_bounding_box(img, "sobel")
        assert box.x <= truth.x and box.y <= truth.y
        assert box.x + box.w >= truth.x + truth.w
        assert box.y + box.h >= truth.y + truth.h
        assert truth.x - box.x <= 6 and truth.y - box.y <= 6
        assert (box.x + box.w) - (truth.x + truth.w) <= 6
        assert (box.y + box.h) - (truth.y + truth.h) <= 6

    def test_blank_image_raises(self):
        img = Image(np.full((30, 30, 3), 255, dtype=np.uint8))
        with pytest.raises(NoObjectError):
            detect_bounding_box(img)

    @pytest.mark.parametrize(
        "mode, stages",
        [
            ("adaptive", ["rgb_to_gray", "gaussian_blur", "adaptive_threshold",
                          "label_components"]),
            ("sobel", ["rgb_to_gray", "gaussian_blur", "sobel_magnitude", "dilate",
                       "label_components"]),
        ],
    )
    def test_stages_are_called_through_the_module(self, monkeypatch, mode, stages):
        """perfbench's tracer times stages by wrapping `rcc.segment`
        attributes, so a stage reached any other way would time as 0."""
        called = []
        for name in stages:
            def wrapper(*args, _name=name, _fn=getattr(segment, name)):
                called.append(_name)
                return _fn(*args)
            monkeypatch.setattr(segment, name, wrapper)
        detect_bounding_box(make_scene()[0], mode)
        assert called == stages

    def test_unknown_mode_rejected(self):
        img, _ = make_scene()
        with pytest.raises(ValueError, match="watershed"):
            detect_bounding_box(img, "watershed")


class TestBoundRect:
    def test_negative_origin_rejected(self):
        with pytest.raises(ValueError):
            BoundRect(-1, 0, 5, 5)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            BoundRect(0, 0, 0, 5)


class TestBinaryMask:
    @pytest.mark.parametrize("dtype", [bool, np.uint8])
    def test_mask_is_a_read_only_copy(self, dtype):
        source = np.eye(3, dtype=dtype)
        mask = BinaryMask(source)
        source[0, 1] = 1
        assert mask.bits.dtype == bool
        assert mask.bits.tolist() == np.eye(3, dtype=bool).tolist()
        with pytest.raises(ValueError):
            mask.bits[0, 0] = False
