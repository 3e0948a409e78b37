"""Cube grid geometry and vote aggregation tests."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import second_call_peak
from rcc.cubes import CUBE_SIZE, aggregate_votes, cube_centers, extract_color_cubes
from rcc.image import Image
from rcc.segment import BoundRect


def solid(w, h, value=120):
    return Image(np.full((h, w, 3), value, dtype=np.uint8))


def gradient_image(w, h):
    """Pixels encode their own coordinates so sampling is checkable."""
    pixels = np.zeros((h, w, 3), dtype=np.uint8)
    pixels[:, :, 0] = (np.arange(w) % 256)[None, :]
    pixels[:, :, 1] = (np.arange(h) % 256)[:, None]
    return Image(pixels)


class TestCenters:
    def test_known_grids(self):
        assert cube_centers(96, 96) == (
            (16, 16), (16, 48), (16, 80),
            (48, 16), (48, 48), (48, 80),
            (80, 16), (80, 48), (80, 80),
        )
        xs = sorted({c[0] for c in cube_centers(192, 192)})
        assert xs == [32, 96, 160]

    def test_halves_round_to_even(self):
        # 16.5, 49.5 and 82.5: half-up rounding would give 17, 50 and 83
        xs = sorted({c[0] for c in cube_centers(99, 99)})
        assert xs == [16, 50, 82]

    def test_rectangular_area(self):
        centers = cube_centers(96, 192)
        assert sorted({c[0] for c in centers}) == [16, 48, 80]
        assert sorted({c[1] for c in centers}) == [32, 96, 160]


def reference_cubes(pixels, rect):
    """The cubes the long way: crop the box, upscale the whole crop by
    nearest neighbor while it is under 96 px on either side, then cut the
    32x32 windows at the cell midpoints, column by column."""
    crop = pixels[rect.y : rect.y + rect.h, rect.x : rect.x + rect.w]
    h, w = crop.shape[:2]
    need = 3 * CUBE_SIZE
    if w < need or h < need:
        factor = max(need / w, need / h)
        new_w, new_h = max(math.ceil(w * factor), need), max(math.ceil(h * factor), need)
        ys = [min(int((d + 0.5) * h / new_h), h - 1) for d in range(new_h)]
        xs = [min(int((d + 0.5) * w / new_w), w - 1) for d in range(new_w)]
        crop = crop[ys][:, xs]
        h, w = new_h, new_w
    cubes = []
    for i in range(3):
        x = round((2 * i + 1) * w / 6) - CUBE_SIZE // 2
        for j in range(3):
            y = round((2 * j + 1) * h / 6) - CUBE_SIZE // 2
            cubes.append(crop[y : y + CUBE_SIZE, x : x + CUBE_SIZE])
    return np.stack(cubes), (w, h)


class TestCrop:
    """The box the cubes are read from: its place in the image, its bounds."""

    def test_extracts_expected_window(self):
        img = gradient_image(120, 110)
        grid = extract_color_cubes(img, BoundRect(3, 2, 96, 96))
        assert grid.cubes[0, 0, 0, :2].tolist() == [3, 2]
        for cube, r in zip(grid.cubes, grid.rects):
            window = img.pixels[2 + r.y : 2 + r.y + r.h, 3 + r.x : 3 + r.x + r.w]
            assert np.array_equal(cube, window)

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError, match="exceeds image bounds 10x10"):
            extract_color_cubes(solid(10, 10), BoundRect(8, 0, 5, 5))


class TestResize:
    """The nearest-neighbor upscale of a small box, as the cubes read it."""

    def test_doubling_duplicates_source_pixels(self):
        grid = extract_color_cubes(gradient_image(48, 48), BoundRect(0, 0, 48, 48))
        assert grid.crop_size == (96, 96)
        # src = floor((dst + 0.5) * 48 / 96) -> 0, 0, 1, 1, ...
        assert grid.cubes[0, 0, :, 0].tolist() == [d // 2 for d in range(CUBE_SIZE)]
        assert grid.cubes[0, :, 0, 1].tolist() == [d // 2 for d in range(CUBE_SIZE)]

    def test_identity_resize(self):
        pixels = np.random.default_rng(3).integers(0, 256, (97, 100, 3), dtype=np.uint8)
        grid = extract_color_cubes(Image(pixels), BoundRect(0, 0, 100, 97))
        assert grid.crop_size == (100, 97)
        for cube, r in zip(grid.cubes, grid.rects):
            assert np.array_equal(cube, pixels[r.y : r.y + r.h, r.x : r.x + r.w])


class TestGridExtraction:
    def test_nine_cubes_partition_a_96_crop(self):
        grid = extract_color_cubes(solid(120, 120), BoundRect(10, 10, 96, 96))
        assert grid.crop_size == (96, 96)
        coverage = np.zeros((96, 96), dtype=int)
        for rect in grid.rects:
            assert rect.w == CUBE_SIZE and rect.h == CUBE_SIZE
            coverage[rect.y : rect.y + rect.h, rect.x : rect.x + rect.w] += 1
        assert (coverage == 1).all()

    def test_small_crop_is_upscaled_until_grid_fits(self):
        grid = extract_color_cubes(solid(50, 40), BoundRect(5, 5, 30, 20))
        assert grid.crop_size[0] >= 96 and grid.crop_size[1] >= 96
        assert grid.cubes.shape == (9, CUBE_SIZE, CUBE_SIZE, 3)

    def test_cube_order_is_column_major(self):
        grid = extract_color_cubes(solid(200, 200), BoundRect(0, 0, 96, 96))
        assert [r.x for r in grid.rects] == [0, 0, 0, 32, 32, 32, 64, 64, 64]
        assert [r.y for r in grid.rects] == [0, 32, 64] * 3

    def test_cubes_average_their_region(self):
        pixels = np.zeros((96, 96, 3), dtype=np.uint8)
        pixels[:, 64:] = 200  # right third bright
        pixels[64:, :, 2] = 100  # bottom third blue
        grid = extract_color_cubes(Image(pixels), BoundRect(0, 0, 96, 96))
        assert grid.cubes[0].max() == 0
        assert grid.cubes[6].min() == 200
        for cube, r in zip(grid.cubes, grid.rects):
            assert np.array_equal(cube, pixels[r.y : r.y + r.h, r.x : r.x + r.w])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 150), st.integers(1, 150))
    def test_any_box_yields_in_bounds_cubes(self, w, h):
        img = solid(160, 160)
        grid = extract_color_cubes(img, BoundRect(2, 3, w, h))
        cw, ch = grid.crop_size
        for rect in grid.rects:
            assert rect.x >= 0 and rect.y >= 0
            assert rect.x + rect.w <= cw and rect.y + rect.h <= ch
            assert rect.w == CUBE_SIZE and rect.h == CUBE_SIZE

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 150), st.integers(1, 150), st.integers(0, 6), st.integers(0, 5),
           st.integers(0, 2**32 - 1))
    @example(1, 150, 0, 0, 0)
    @example(150, 1, 3, 2, 1)
    @example(1, 1, 0, 0, 2)
    @example(95, 96, 1, 1, 3)
    @example(96, 95, 1, 1, 4)
    def test_matches_crop_resize_and_windows(self, w, h, x, y, seed):
        pixels = np.random.default_rng(seed).integers(0, 256, (h + y + 3, w + x + 2, 3),
                                                      dtype=np.uint8)
        rect = BoundRect(x, y, w, h)
        grid = extract_color_cubes(Image(pixels), rect)
        cubes, size = reference_cubes(pixels, rect)
        assert grid.crop_size == size
        assert grid.cubes.dtype == np.uint8
        assert np.array_equal(grid.cubes, cubes)

    def test_thin_box_memory_is_bounded(self):
        # the upscaled 5000x1 box would be 480000x96 pixels, 138 MB
        img = solid(5000, 3)
        peak = second_call_peak(lambda: extract_color_cubes(img, BoundRect(0, 1, 5000, 1)))
        assert peak < 4 << 20


def one_hot_rows(labels, n_classes=6, confidence=1.0):
    rows = np.full((len(labels), n_classes), (1 - confidence) / (n_classes - 1))
    for i, label in enumerate(labels):
        rows[i, label] = confidence
    return rows


class TestVotes:
    def test_unanimous(self):
        label, conf = aggregate_votes(one_hot_rows([2] * 9))
        assert label == 2
        assert conf == pytest.approx(1.0)

    def test_majority_wins(self):
        label, _ = aggregate_votes(one_hot_rows([1] * 5 + [3] * 4, confidence=0.9))
        assert label == 1

    def test_each_cube_votes_for_its_argmax(self):
        # five unsure cubes outvote four sure ones, though class 3 has the larger mean
        probs = one_hot_rows([1] * 5 + [3] * 4)
        probs[:5] = [0.12, 0.4, 0.12, 0.12, 0.12, 0.12]
        label, conf = aggregate_votes(probs)
        assert label == 1
        assert conf == pytest.approx(2 / 9)

    def test_tie_breaks_on_mean_probability(self):
        probs = one_hot_rows([0] * 4 + [5] * 4 + [2], confidence=0.8)
        probs[8] = np.array([0.05, 0.02, 0.5, 0.02, 0.02, 0.39])
        # the argmaxes tie 4-4 between classes 0 and 5; class 5 has the larger mean
        assert np.bincount(probs.argmax(axis=1)).tolist() == [4, 0, 1, 0, 0, 4]
        label, conf = aggregate_votes(probs)
        assert label == 5
        assert conf == pytest.approx(probs[:, 5].mean())

    def test_wrong_cube_count_rejected(self):
        with pytest.raises(ValueError):
            aggregate_votes(one_hot_rows([0] * 8))

    def test_unnormalized_confidences_rejected(self):
        probs = one_hot_rows([0] * 9)
        probs[3] *= 2
        with pytest.raises(ValueError):
            aggregate_votes(probs)

    @pytest.mark.parametrize("delta, accepted", [
        (1.05e-5, True), (-1.05e-5, True), (1.2e-5, False), (-1.2e-5, False),
        (np.nan, False), (np.inf, False),
    ])
    def test_row_sum_tolerance(self, delta, accepted):
        """Row sums within 1e-6 + 1e-5 of 1 pass, np.allclose's test at
        atol 1e-6 and its default rtol 1e-5; a NaN row fails."""
        probs = one_hot_rows([0] * 9)
        probs[4, 1] = delta
        if accepted:
            assert aggregate_votes(probs)[0] == 0
        else:
            with pytest.raises(ValueError, match="must sum to 1"):
                aggregate_votes(probs)

    def test_row_sum_tolerance_agrees_with_allclose_at_its_edge(self):
        edge = 1e-6 + 1e-5
        for bound in (1.0 + edge, 1.0 - edge):
            for steps in range(-40, 41):
                total = bound + steps * np.spacing(bound)
                probs = one_hot_rows([0] * 9)
                probs[4] = [total, 0, 0, 0, 0, 0]
                want = np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)
                try:
                    aggregate_votes(probs)
                except ValueError:
                    assert not want, total
                else:
                    assert want, total
