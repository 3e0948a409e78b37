"""Object localization: blur, threshold, edges, components, bounding box.

The default pipeline is gray -> Gaussian blur -> adaptive threshold ->
row-run component labelling -> largest component -> its axis-aligned
bounding box.  An alternative edge-driven mode replaces the threshold step
with Sobel magnitude, a fixed edge threshold, and one binary dilation pass
to close small gaps before labelling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .image import GrayImage, Image, rgb_to_gray, round_half_away


class NoObjectError(Exception):
    """The mask contains no foreground component to box."""


@dataclass(frozen=True)
class BinaryMask:
    """Foreground/background bitmap; True marks foreground."""

    bits: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.bits)
        if arr.ndim != 2:
            raise ValueError(f"mask must be 2-d, got shape {arr.shape}")
        arr = arr.astype(bool).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "bits", arr)


@dataclass(frozen=True)
class BoundRect:
    """Axis-aligned box: left column, top row, width, height."""

    x: int
    y: int
    w: int
    h: int

    def __post_init__(self):
        if self.x < 0 or self.y < 0:
            raise ValueError(f"box origin ({self.x}, {self.y}) must be non-negative")
        if self.w < 1 or self.h < 1:
            raise ValueError(f"box size {self.w}x{self.h} must be at least 1x1")


# detect_bounding_box's settings; the CLI chooses only the mode
MODES = ("adaptive", "sobel")
BLUR_SIGMA = 1.4
THRESHOLD_WINDOW = 11
THRESHOLD_OFFSET = 2.0
SOBEL_THRESHOLD = 80


def gaussian_kernel(sigma: float) -> np.ndarray:
    """Normalized 1-d Gaussian taps of length 2*ceil(3*sigma)+1."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    radius = math.ceil(3.0 * sigma)
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    weights = np.exp(-(offsets**2) / (2.0 * sigma * sigma))
    return weights / weights.sum()


def _replicate_pad_1d(values: np.ndarray, radius: int, axis: int) -> np.ndarray:
    pad = [(0, 0), (0, 0)]
    pad[axis] = (radius, radius)
    return np.pad(values, pad, mode="edge")


def gaussian_blur(img: GrayImage, sigma: float) -> GrayImage:
    """Separable Gaussian blur, replicate borders, rounded once at the end."""
    kernel = gaussian_kernel(sigma)
    radius = len(kernel) // 2
    acc = img.pixels.astype(np.float64)
    for axis in (1, 0):  # horizontal pass, then vertical
        padded = _replicate_pad_1d(acc, radius, axis)
        acc = np.zeros_like(acc)
        for t, weight in enumerate(kernel):
            if axis == 1:
                acc += weight * padded[:, t : t + img.width]
            else:
                acc += weight * padded[t : t + img.height, :]
    return GrayImage(np.clip(round_half_away(acc), 0, 255).astype(np.uint8))


def adaptive_threshold(img: GrayImage, window: int, c: float) -> BinaryMask:
    """Mark pixels darker than their local window mean minus the offset c.

    The window x window sums, with replicated borders, come from an int64
    integral image, so each mean is a single exact division; this keeps
    the fast path bit-identical to a per-pixel oracle.
    """
    if window < 3 or window % 2 == 0:
        raise ValueError(f"window must be odd and >= 3, got {window}")
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


_SOBEL_X = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=np.int64)
_SOBEL_Y = np.array([[-1, -2, -1], [0, 0, 0], [1, 2, 1]], dtype=np.int64)


def sobel_magnitude(img: GrayImage) -> GrayImage:
    """Gradient magnitude from the 3x3 Sobel pair, clamped to [0, 255]."""
    if img.width < 3 or img.height < 3:
        raise ValueError(f"image {img.width}x{img.height} is smaller than 3x3")
    padded = np.pad(img.pixels.astype(np.int64), 1, mode="edge")
    h, w = img.height, img.width
    gx = np.zeros((h, w), dtype=np.int64)
    gy = np.zeros((h, w), dtype=np.int64)
    for m in range(3):
        for n in range(3):
            patch = padded[m : m + h, n : n + w]
            gx += _SOBEL_X[m, n] * patch
            gy += _SOBEL_Y[m, n] * patch
    mag = np.sqrt(gx.astype(np.float64) ** 2 + gy.astype(np.float64) ** 2)
    return GrayImage(np.clip(round_half_away(mag), 0, 255).astype(np.uint8))


def label_components(mask: BinaryMask) -> list[tuple[int, BoundRect]]:
    """Every 8-connected component as (pixel count, box), in scan order of
    each component's first pixel.

    Row-run labelling (He, Chao & Suzuki, 2008): the mask's row runs are
    joined by union-find wherever a run touches one in the row above,
    diagonals included.  The root is always the smaller run index, so each
    component's root is its first run in scan order.
    """
    bits = mask.bits
    h, w = bits.shape
    stride = w + 2  # run ends reach w, so a row's keys never meet the next row's
    padded = np.zeros((h, stride), dtype=np.int8)
    padded[:, 1:-1] = bits
    steps = np.diff(padded, axis=1)
    rows, starts = np.nonzero(steps == 1)
    ends = np.nonzero(steps == -1)[1]  # exclusive; row-major, so paired with starts
    # Run a in the row above touches run b when a.start <= b.end and
    # b.start <= a.end.  Keyed by row * stride + col, the runs touching b are
    # first[b]..stop[b]-1, a range that is empty when none do.
    above = (rows - 1) * stride
    first = np.searchsorted(rows * stride + ends, above + starts, side="left")
    stop = np.searchsorted(rows * stride + starts, above + ends, side="right")
    parent = list(range(len(starts)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for b, (lo, hi) in enumerate(zip(first.tolist(), stop.tolist())):
        for a in range(lo, hi):
            ra, rb = find(a), find(b)
            if ra < rb:
                parent[rb] = ra
            elif rb < ra:
                parent[ra] = rb
    root = np.array([find(i) for i in range(len(parent))], dtype=np.int64)
    # each component's totals gather at its root run, whose row is its top row
    counts = np.bincount(root, weights=ends - starts, minlength=len(root))
    left, right, bottom = starts.copy(), ends.copy(), rows.copy()
    np.minimum.at(left, root, starts)
    np.maximum.at(right, root, ends)
    np.maximum.at(bottom, root, rows)
    components = []
    for r in np.flatnonzero(root == np.arange(len(root))):
        x, y = int(left[r]), int(rows[r])
        box = BoundRect(x, y, int(right[r]) - x, int(bottom[r]) - y + 1)
        components.append((int(counts[r]), box))
    return components


def dilate(mask: BinaryMask) -> BinaryMask:
    """Binary dilation with the full 3x3 structuring element."""
    bits = mask.bits
    h, w = bits.shape
    padded = np.pad(bits, 1, mode="constant")
    grown = np.zeros_like(bits)
    for dy in range(3):
        for dx in range(3):
            grown |= padded[dy : dy + h, dx : dx + w]
    return BinaryMask(grown)


def detect_bounding_box(img: Image, mode: str = "adaptive") -> BoundRect:
    """Locate the dominant object and return its bounding rectangle."""
    if mode not in MODES:
        raise ValueError(f"unknown segmentation mode {mode!r}")
    blurred = gaussian_blur(rgb_to_gray(img), BLUR_SIGMA)
    if mode == "adaptive":
        mask = adaptive_threshold(blurred, THRESHOLD_WINDOW, THRESHOLD_OFFSET)
    elif min(blurred.pixels.shape) < 3:
        raise NoObjectError("image is smaller than the 3x3 Sobel window")
    else:
        edges = sobel_magnitude(blurred)
        mask = dilate(BinaryMask(edges.pixels > SOBEL_THRESHOLD))
    components = label_components(mask)
    if not components:
        raise NoObjectError("no foreground component found")
    return max(components, key=lambda c: c[0])[1]  # first of the largest
