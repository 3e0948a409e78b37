"""Localization pipeline tests against brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.extra import numpy as hnp

from rcc import segment
from rcc.image import GrayImage, Image, round_half_away
from rcc.rng import Xoshiro256StarStar
from rcc.segment import (
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
