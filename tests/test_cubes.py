"""Cube grid geometry and vote aggregation tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcc.cubes import (
    CUBE_SIZE,
    aggregate_votes,
    crop,
    cube_centers,
    extract_color_cubes,
    resize_nearest,
)
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

    def test_rectangular_area(self):
        centers = cube_centers(96, 192)
        assert sorted({c[0] for c in centers}) == [16, 48, 80]
        assert sorted({c[1] for c in centers}) == [32, 96, 160]


class TestCrop:
    def test_extracts_expected_window(self):
        img = gradient_image(20, 10)
        piece = crop(img, BoundRect(3, 2, 5, 4))
        assert piece.width == 5 and piece.height == 4
        assert piece.pixels[0, 0, 0] == 3 and piece.pixels[0, 0, 1] == 2

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            crop(solid(10, 10), BoundRect(8, 0, 5, 5))


class TestResize:
    def test_doubling_duplicates_source_pixels(self):
        img = gradient_image(2, 1)
        out = resize_nearest(img, 4, 1)
        # src = floor((dst + 0.5) * 2 / 4) -> 0, 0, 1, 1
        assert out.pixels[0, :, 0].tolist() == [0, 0, 1, 1]

    def test_identity_resize(self):
        img = gradient_image(7, 5)
        assert resize_nearest(img, 7, 5) == img

    def test_downscale_picks_center_samples(self):
        img = gradient_image(4, 1)
        out = resize_nearest(img, 2, 1)
        # src = floor((dst + 0.5) * 4 / 2) -> 1, 3
        assert out.pixels[0, :, 0].tolist() == [1, 3]


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
        xs = [c[0] for c in grid.centers]
        ys = [c[1] for c in grid.centers]
        assert xs == [16, 16, 16, 48, 48, 48, 80, 80, 80]
        assert ys == [16, 48, 80] * 3

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
