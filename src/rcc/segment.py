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

from .image import BAND_ROWS, GrayImage, Image, rgb_to_gray


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
        arr = arr.astype(bool)  # a new array, so no caller can write to it
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


def gaussian_blur(img: GrayImage, sigma: float) -> GrayImage:
    """Separable Gaussian blur, replicate borders, rounded once at the end.

    The horizontal pass runs first, then the vertical, each adding its taps
    in kernel order.  Output rows go in bands of BAND_ROWS over the gray
    image padded once by the radius: a band's horizontal pass covers its
    rows plus the radius in halo rows above and below, since the padded
    rows of the horizontal pass are the horizontal pass of padded rows.
    """
    kernel = gaussian_kernel(sigma)
    radius = len(kernel) // 2
    h, w = img.height, img.width
    padded = np.pad(img.pixels, radius, mode="edge")
    blurred = np.empty((h, w), dtype=np.uint8)
    band = min(BAND_ROWS, h)
    horizontal = np.empty((band + 2 * radius, w))
    vertical = np.empty((band, w))
    term = np.empty_like(horizontal)
    for top in range(0, h, BAND_ROWS):
        n = min(BAND_ROWS, h - top)
        rows = padded[top : top + n + 2 * radius]
        # Every product is >= +0.0, so storing the first tap equals adding
        # it to zeros.
        acc, tmp = horizontal[: n + 2 * radius], term[: n + 2 * radius]
        np.multiply(rows[:, :w], kernel[0], out=acc)
        for t in range(1, len(kernel)):
            acc += np.multiply(rows[:, t : t + w], kernel[t], out=tmp)
        out, tmp = vertical[:n], term[:n]
        np.multiply(acc[:n], kernel[0], out=out)
        for t in range(1, len(kernel)):
            out += np.multiply(acc[t : t + n], kernel[t], out=tmp)
        # out lies in [0, 255] up to rounding, so rounding half away is
        # floor(out + 0.5) and needs no clamp
        out += 0.5
        blurred[top : top + n] = np.floor(out, out=out)
    return GrayImage(blurred)


def adaptive_threshold(img: GrayImage, window: int, c: float) -> BinaryMask:
    """Mark pixels darker than their local window mean minus the offset c.

    With area = window * window and s the window's sum (replicated
    borders), the test p < s / area - c runs in int32 as
    area * (p + c) < s.  For an integral c the two agree even in float64:
    s / area is an integer or at least 1 / area away from one, far beyond
    the rounding of s / area - c.  The sums are separable box sums, run
    over bands of BAND_ROWS rows.
    """
    if window < 3 or window % 2 == 0 or window > 2051:
        raise ValueError(f"window must be odd and in [3, 2051], got {window}")
    if not (math.isfinite(c) and c == int(c) and abs(c) <= 255):
        raise ValueError(f"offset c must be an integer in [-255, 255], got {c}")
    # area * (p + c) lies in [-255, 510] * area, within int32 for window <= 2051
    area = window * window
    radius = window // 2
    h, w = img.height, img.width
    padded = np.pad(img.pixels, radius, mode="edge")
    bits = np.empty((h, w), dtype=bool)
    band = min(BAND_ROWS, h)
    column_sums = np.empty((band, w + 2 * radius), dtype=np.int32)
    window_sums = np.empty((band, w), dtype=np.int32)
    scaled = np.empty((band, w), dtype=np.int32)
    for top in range(0, h, BAND_ROWS):
        n = min(BAND_ROWS, h - top)
        cols, sums, lhs = column_sums[:n], window_sums[:n], scaled[:n]
        cols[...] = padded[top : top + n]
        for k in range(1, window):
            cols += padded[top + k : top + k + n]
        sums[...] = cols[:, :w]
        for k in range(1, window):
            sums += cols[:, k : k + w]
        lhs[...] = img.pixels[top : top + n]
        lhs += int(c)
        lhs *= area
        np.less(lhs, sums, out=bits[top : top + n])
    return BinaryMask(bits)


def sobel_magnitude(img: GrayImage) -> GrayImage:
    """Gradient magnitude from the 3x3 Sobel pair, clamped to [0, 255].

    Each Sobel kernel is [1, 2, 1] smoothing across its axis times a
    [-1, 0, 1] difference along it, so both gradients run separably in
    exact int32.
    """
    if img.width < 3 or img.height < 3:
        raise ValueError(f"image {img.width}x{img.height} is smaller than 3x3")
    padded = np.pad(img.pixels, 1, mode="edge").astype(np.int32)
    down = padded[:-2] + 2 * padded[1:-1] + padded[2:]
    gx = down[:, 2:] - down[:, :-2]
    across = padded[:, :-2] + 2 * padded[:, 1:-1] + padded[:, 2:]
    gy = across[2:] - across[:-2]
    gx *= gx
    gx += gy * gy
    mag = np.sqrt(gx, dtype=np.float64)
    mag += 0.5  # mag >= 0: rounding half away is floor(mag + 0.5)
    np.floor(mag, out=mag)
    return GrayImage(np.minimum(mag, 255, out=mag).astype(np.uint8))


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
    rows, starts = np.divmod(np.flatnonzero(steps == 1), w + 1)
    ends = np.flatnonzero(steps == -1) % (w + 1)  # exclusive; row-major like starts
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
