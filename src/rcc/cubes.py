"""Color-cube extraction: a 3x3 grid of fixed-size patches from a box.

The detected object is cropped, upscaled if it is too small to host the
grid, and sampled at nine cell midpoints.  Each cube is classified on its
own; aggregate_votes folds the nine per-cube probability vectors into a
single label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .image import Image
from .net import INPUT_SIZE
from .segment import BoundRect

CUBE_SIZE = INPUT_SIZE
GRID_SIDE = 3


@dataclass(frozen=True)
class CubeGrid:
    """Nine cubes, a (9, 32, 32, 3) uint8 stack, with their centers and
    rects in resized-crop coordinates.

    Order is column-major over the grid: index k = 3*i + j where i is the
    grid column and j the grid row, both counted from the top-left.
    """

    cubes: np.ndarray
    centers: tuple[tuple[int, int], ...]
    rects: tuple[BoundRect, ...]
    crop_size: tuple[int, int]  # (width, height) after any upscaling

    def __post_init__(self):
        n = GRID_SIDE * GRID_SIDE
        shape = (n, CUBE_SIZE, CUBE_SIZE, 3)
        if not (self.cubes.shape == shape and len(self.centers) == len(self.rects) == n):
            raise ValueError(f"grid must hold exactly {n} cubes")


def crop(img: Image, rect: BoundRect) -> Image:
    """Cut the rectangle out of the image; rect must lie inside it."""
    if rect.x + rect.w > img.width or rect.y + rect.h > img.height:
        raise ValueError(
            f"rect {rect} exceeds image bounds {img.width}x{img.height}"
        )
    return Image(img.pixels[rect.y : rect.y + rect.h, rect.x : rect.x + rect.w])


def resize_nearest(img: Image, new_w: int, new_h: int) -> Image:
    """Nearest-neighbor resize: each target pixel reads the source pixel
    under its center, src = floor((dst + 0.5) * src_extent / dst_extent)."""
    if new_w < 1 or new_h < 1:
        raise ValueError(f"target size {new_w}x{new_h} must be positive")
    cols = np.minimum(
        ((np.arange(new_w) + 0.5) * img.width / new_w).astype(np.int64),
        img.width - 1,
    )
    rows = np.minimum(
        ((np.arange(new_h) + 0.5) * img.height / new_h).astype(np.int64),
        img.height - 1,
    )
    return Image(img.pixels.take(rows, axis=0).take(cols, axis=1))


def cube_centers(width: int, height: int) -> tuple[tuple[int, int], ...]:
    """Midpoints of the 3x3 cells over a width x height area.

    Cell (i, j) is centered at x = (2i+1)*W/6, y = (2j+1)*H/6, rounded to
    the nearest pixel; ordering is column-major (i outer, j inner).
    """
    centers = []
    for i in range(GRID_SIDE):
        x1 = round((2 * i + 1) * width / 6)
        for j in range(GRID_SIDE):
            y1 = round((2 * j + 1) * height / 6)
            centers.append((x1, y1))
    return tuple(centers)


def extract_color_cubes(img: Image, rect: BoundRect) -> CubeGrid:
    """Crop the box and sample nine CUBE_SIZE x CUBE_SIZE cubes at cell
    midpoints.

    Crops smaller than the 3x3 footprint in either dimension are upscaled
    (nearest neighbor, aspect preserved up to rounding) until both
    dimensions fit, so every cube lies fully inside the crop.
    """
    area = crop(img, rect)
    need = GRID_SIDE * CUBE_SIZE
    if area.width < need or area.height < need:
        factor = max(need / area.width, need / area.height)
        new_w = max(math.ceil(area.width * factor), need)
        new_h = max(math.ceil(area.height * factor), need)
        area = resize_nearest(area, new_w, new_h)
    half = CUBE_SIZE // 2
    centers = cube_centers(area.width, area.height)
    rects = tuple(BoundRect(x - half, y - half, CUBE_SIZE, CUBE_SIZE) for x, y in centers)
    # cube k is the crop's window at rects[k], copied out in one indexing step
    windows = np.lib.stride_tricks.sliding_window_view(area.pixels, (CUBE_SIZE, CUBE_SIZE, 3))
    return CubeGrid(
        cubes=windows[[r.y for r in rects], [r.x for r in rects], 0],
        centers=centers,
        rects=rects,
        crop_size=(area.width, area.height),
    )


def aggregate_votes(confidences: np.ndarray) -> tuple[int, float]:
    """Fold nine per-cube predictions into one label.

    `confidences` holds the nine cubes' probability vectors, (9, n_classes),
    each summing to 1.  Each cube votes for its argmax; a tied vote goes to
    the tied class with the greatest mean probability over all nine cubes.
    Returns (label index, mean probability of that label).
    """
    n = GRID_SIDE * GRID_SIDE
    confidences = np.asarray(confidences, dtype=np.float64)
    if confidences.ndim != 2 or confidences.shape[0] != n:
        raise ValueError(
            f"expected (9, n_classes) confidences, got {confidences.shape}"
        )
    if not np.allclose(confidences.sum(axis=1), 1.0, atol=1e-6):
        raise ValueError("each confidence vector must sum to 1")
    votes = np.bincount(confidences.argmax(axis=1), minlength=confidences.shape[1])
    means = confidences.mean(axis=0)
    tied = np.flatnonzero(votes == votes.max())
    label = int(tied[np.argmax(means[tied])])
    return label, float(means[label])
