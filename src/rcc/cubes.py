"""Color-cube extraction: a 3x3 grid of fixed-size patches from a box.

The box is upscaled (nearest neighbor) if it is too small to host the grid,
and sampled at nine cell midpoints; only the rows and columns that the cubes
read are ever gathered.  Each cube is classified on its own; aggregate_votes
folds the nine per-cube probability vectors into a single label.
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
    """Nine cubes, a (9, 32, 32, 3) uint8 stack, with their rects in
    upscaled-box coordinates.

    Order is column-major over the grid: index k = 3*i + j where i is the
    grid column and j the grid row, both counted from the top-left.
    """

    cubes: np.ndarray
    rects: tuple[BoundRect, ...]
    crop_size: tuple[int, int]  # (width, height) after any upscaling

    def __post_init__(self):
        n = GRID_SIDE * GRID_SIDE
        shape = (n, CUBE_SIZE, CUBE_SIZE, 3)
        if not (self.cubes.shape == shape and len(self.rects) == n):
            raise ValueError(f"grid must hold exactly {n} cubes")


def cube_centers(width: int, height: int) -> tuple[tuple[int, int], ...]:
    """Midpoints of the 3x3 cells over a width x height area.

    Cell (i, j) is centered at x = (2i+1)*W/6, y = (2j+1)*H/6, rounded
    ties to even by Python's round; ordering is column-major (i outer, j inner).
    """
    centers = []
    for i in range(GRID_SIDE):
        x1 = round((2 * i + 1) * width / 6)
        for j in range(GRID_SIDE):
            y1 = round((2 * j + 1) * height / 6)
            centers.append((x1, y1))
    return tuple(centers)


def _source_offsets(starts: list[int], size: int, extent: int) -> np.ndarray:
    """Box offsets, along one axis, of the CUBE_SIZE pixels from each start
    in a box upscaled from `extent` to `size` pixels: each upscaled pixel
    reads the box pixel under its center, min(floor((d + 0.5) * extent /
    size), extent - 1), which is d itself when size == extent."""
    d = (np.array(starts)[:, None] + np.arange(CUBE_SIZE)).ravel()
    return np.minimum(((d + 0.5) * extent / size).astype(np.int64), extent - 1)


def extract_color_cubes(img: Image, rect: BoundRect) -> CubeGrid:
    """Sample nine CUBE_SIZE x CUBE_SIZE cubes from the box at cell
    midpoints.

    A box smaller than the 3x3 footprint in either dimension is upscaled
    (nearest neighbor, aspect preserved up to rounding) until both
    dimensions fit, so every cube lies fully inside it.  Only the cubes'
    rows and columns are read, one `take` per axis, so the memory used is
    bounded by the footprint times the box's width, whatever the upscale.
    """
    if rect.x + rect.w > img.width or rect.y + rect.h > img.height:
        raise ValueError(
            f"rect {rect} exceeds image bounds {img.width}x{img.height}"
        )
    need = GRID_SIDE * CUBE_SIZE
    width, height = rect.w, rect.h
    if width < need or height < need:
        factor = max(need / width, need / height)
        width = max(math.ceil(width * factor), need)
        height = max(math.ceil(height * factor), need)
    half = CUBE_SIZE // 2
    rects = tuple(
        BoundRect(x - half, y - half, CUBE_SIZE, CUBE_SIZE)
        for x, y in cube_centers(width, height)
    )
    rows = _source_offsets([r.y for r in rects[:GRID_SIDE]], height, rect.h)
    cols = _source_offsets([r.x for r in rects[::GRID_SIDE]], width, rect.w)
    box = img.pixels[rect.y : rect.y + rect.h, rect.x : rect.x + rect.w]
    # the (grid row, row, grid column, column) block, cube k = 3*i + j
    block = box.take(rows, axis=0).take(cols, axis=1)
    block = block.reshape(GRID_SIDE, CUBE_SIZE, GRID_SIDE, CUBE_SIZE, 3)
    return CubeGrid(
        cubes=block.transpose(2, 0, 1, 3, 4).reshape(-1, CUBE_SIZE, CUBE_SIZE, 3),
        rects=rects,
        crop_size=(width, height),
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
