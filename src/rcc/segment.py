"""Object localization: blur, threshold, edges, components, bounding box.

The default pipeline is gray -> Gaussian blur -> adaptive threshold ->
row-run component labelling -> largest component -> its axis-aligned
bounding box.  An alternative edge-driven mode replaces the threshold step
with Sobel magnitude, a fixed edge threshold, and one binary dilation pass
to close small gaps before labelling.

Every stage gives the bytes of its float64 or integer definition.  The
blur sums in float32 first, as BLAS products with band matrices of the
taps, whose error is at most 255 * (2 * taps + 2) * 2**-24 (3.65e-4 for
sigma 1.4) in any summation order, and redoes in float64 only the pixels
that lie within twice that of a rounding tie.  The gray conversion and
the blur run in row bands of BAND_ROWS, whose buffers stay in cache.  The
threshold's box sums are one whole-image pass, in int16 when they cannot
overflow it: bands were slower.  The blur's taps and band matrix are
built once per sigma, read-only, and the blur, threshold and Sobel pad
their edges by slice assignment.  The stages hand on plain 2-d arrays,
uint8 levels or bool masks; only label_components reads a BinaryMask.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .image import Image, round_half_up, to_uint8


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

# Rows per band of the gray conversion and the blur: each band's buffers
# stay in L2 instead of streaming whole-image temporaries through memory
# once per tap.  The blur's float32 products also take a band's columns in
# tiles of BAND_ROWS, so its one band matrix serves both passes.  The
# threshold runs in one pass, which was faster there.
BAND_ROWS = 64


def rgb_to_gray(img: Image) -> np.ndarray:
    """BT.601 luma: gray = round(0.299 r + 0.587 g + 0.114 b), as uint8.

    Runs over bands of BAND_ROWS rows; every pixel sees the same products
    and adds, in the same order, as a whole-image pass.
    """
    px = img.pixels
    gray = np.empty(px.shape[:2], dtype=np.uint8)
    luma = np.empty((min(BAND_ROWS, img.height), img.width))
    term = np.empty_like(luma)
    for top in range(0, img.height, BAND_ROWS):
        rows = px[top : top + BAND_ROWS]
        acc, tmp = luma[: len(rows)], term[: len(rows)]
        np.multiply(rows[:, :, 0], 0.299, out=acc)
        acc += np.multiply(rows[:, :, 1], 0.587, out=tmp)
        acc += np.multiply(rows[:, :, 2], 0.114, out=tmp)
        gray[top : top + len(rows)] = round_half_up(acc)  # luma lies in [0, 255]
    return gray


def gaussian_kernel(sigma: float) -> np.ndarray:
    """Normalized 1-d Gaussian taps of length 2*ceil(3*sigma)+1."""
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be finite and positive, got {sigma}")
    radius = math.ceil(3.0 * sigma)
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    weights = np.exp(-(offsets**2) / (2.0 * sigma * sigma))
    return weights / weights.sum()


def _edge_pad(values: np.ndarray, radius: int, dtype) -> np.ndarray:
    """`values` as `dtype`, padded by `radius` on every side with copies of
    its edge values: np.pad's "edge" mode, by slice assignment."""
    h, w = values.shape
    padded = np.empty((h + 2 * radius, w + 2 * radius), dtype=dtype)
    middle = padded[radius : radius + h]
    middle[:, radius : radius + w] = values
    middle[:, :radius] = middle[:, radius : radius + 1]
    middle[:, radius + w :] = middle[:, radius + w - 1 : radius + w]
    padded[:radius] = middle[0]
    padded[radius + h :] = middle[-1]
    return padded


def _separable_sums(rows, kernel, acc, tmp, out):
    """Write into `out` (n, ..., w) the vertical pass of the horizontal pass
    of `rows` (n + 2r, ..., w + 2r), r the kernel's radius.  Each pass adds
    its taps in kernel order into `acc` (n + 2r, ..., w), `tmp` being its
    scratch.  Every product is >= +0.0, so storing the first tap equals
    adding it to zeros."""
    n, w = out.shape[0], out.shape[-1]
    np.multiply(rows[..., :w], kernel[0], out=acc)
    for t in range(1, len(kernel)):
        acc += np.multiply(rows[..., t : t + w], kernel[t], out=tmp)
    np.multiply(acc[:n], kernel[0], out=out)
    for t in range(1, len(kernel)):
        out += np.multiply(acc[t : t + n], kernel[t], out=tmp[:n])
    return out


def _float32_error_bound(taps: int) -> float:
    """The first-order bound on |V32 - V64| that gaussian_blur derives."""
    return 255 * (2 * taps + 2) * 2.0**-24


def _band_matrix(taps: np.ndarray, n: int) -> np.ndarray:
    """The (n + 2r, n) band (Toeplitz) matrix whose column c holds the taps
    in rows c to c + 2r and exact zeros elsewhere: n + 2r values times it
    are their pass over n outputs.  Its top-left (t + 2r, t) block is the
    matrix for t outputs."""
    zeros = np.zeros(n - 1, dtype=taps.dtype)
    line = np.concatenate((zeros, taps, zeros))
    return np.ascontiguousarray(np.lib.stride_tricks.sliding_window_view(line, n)[:, ::-1])


def _float32_sums(rows, across, horizontal, out):
    """Write into `out` (n, w) the vertical pass of the horizontal pass of
    the float32 `rows` (n + 2r, w + 2r), as BLAS products with `across`,
    the band matrix of B >= n outputs: the horizontal pass into
    `horizontal` (n + 2r, w) in tiles of B columns, then the vertical pass
    as one product with the transpose."""
    n, w = out.shape
    tile = across.shape[1]
    reach = across.shape[0] - tile
    for left in range(0, w, tile):
        t = min(tile, w - left)
        np.matmul(rows[:, left : left + t + reach], across[: t + reach, :t],
                  out=horizontal[:, left : left + t])
    return np.matmul(across[: n + reach, :n].T, horizontal, out=out)


@functools.lru_cache(maxsize=8)
def _blur_constants(sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """gaussian_kernel(sigma) and the float32 band matrix of its taps for
    BAND_ROWS outputs, both read-only, built once per sigma."""
    kernel = gaussian_kernel(sigma)
    across = _band_matrix(kernel.astype(np.float32), BAND_ROWS)
    kernel.setflags(write=False)
    across.setflags(write=False)
    return kernel, across


# A band whose unsure pixels are more than this share of it is blurred
# again whole in float64: past it, the float32 pass and the redo of each
# unsure pixel would cost more than the float64 pass alone.  A 64x640
# noise band took 1.0 ms in float64 and 0.55 ms through the float32 pass
# with its 61 unsure pixels redone; redoing 1280 pixels took 0.32-0.47 ms.
REDO_BAND_SHARE = 1 / 32


def gaussian_blur(gray: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur, replicate borders, rounded once at the end.

    The result is the float64 blur: the horizontal pass, then the
    vertical, each adding its float64 taps in kernel order, then V + 0.5
    floored.  Output rows go in bands of BAND_ROWS over the gray image
    padded once by the radius: a band's horizontal pass covers its rows
    plus the radius in halo rows above and below, since the padded rows
    of the horizontal pass are the horizontal pass of padded rows.

    Each band runs both passes in float32 first, as BLAS matrix products
    (_float32_sums): BAND_ROWS + 2r values of a row or column times a band
    matrix of the float32 taps give their BAND_ROWS outputs.  Every entry
    of a band matrix off the taps is an exact zero, and 0 * x and s + 0
    are exact, so whatever order, blocking or thread count the BLAS kernel
    adds in, each output is still the sum of the same n nonzero products.
    With n taps and u = 2**-24, a float32 output sums nonnegative terms
    pixel * tap * tap, each carrying at most 2n + 2 roundings in any order
    of summation: the two taps cast to float32, the two products and at
    most n - 1 adds of each pass; a fused multiply-add only removes
    roundings.  The float64 taps sum to 1, so |V32 - V64| <=
    255 * (2n + 2) * u to first order (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 4), which is 3.65e-4 for the 11 taps of
    sigma 1.4.  Twice that, the slack, also
    covers the higher-order terms, the float32 adds of 0.5 -+ slack and
    the float64 sum's own error.  A pixel whose V32 + 0.5 lies farther
    than the slack from an integer, so that V32 + 0.5 - slack and
    V32 + 0.5 + slack floor alike, rounds as V64 does.  The others are
    unsure, and are redone by the float64 passes on their gathered
    windows, the same products and adds in the same order, so every byte
    is the float64 blur's.  A band with more than REDO_BAND_SHARE of its
    pixels unsure (a 0/1 stripe blurs to within 3.5e-5 of a half level
    everywhere) is redone whole in float64 instead, and the bands below it
    run in float64 alone, so no image costs much more than the float64
    blur does.
    """
    kernel, across = _blur_constants(sigma)
    size = len(kernel)
    slack = 2 * _float32_error_bound(size)
    radius = size // 2
    h, w = gray.shape
    padded = _edge_pad(gray, radius, gray.dtype)
    blurred = np.empty((h, w), dtype=np.uint8)
    band = min(BAND_ROWS, h)
    rows32 = np.empty((band + 2 * radius, w + 2 * radius), dtype=np.float32)
    horizontal = np.empty((band + 2 * radius, w), dtype=np.float32)
    vertical = np.empty((band, w), dtype=np.float32)
    high = np.empty((band, w), dtype=np.uint8)
    unsure = np.empty((band, w), dtype=bool)
    redo = []  # flat indices of the unsure pixels in bands not redone whole
    exact = False  # set once a band is redone whole; the bands below skip float32
    for top in range(0, h, BAND_ROWS):
        n = min(BAND_ROWS, h - top)
        halo = n + 2 * radius
        rows = padded[top : top + halo]
        if not exact:
            np.copyto(rows32[:halo], rows)
            v = _float32_sums(rows32[:halo], across, horizontal[:halo], vertical[:n])
            # V + 0.5 -+ slack truncate as they floor, for both are positive
            low = blurred[top : top + n]
            np.copyto(high[:n], np.add(v, 0.5 + slack, out=horizontal[:n]), casting="unsafe")
            np.copyto(low, np.add(v, 0.5 - slack, out=v), casting="unsafe")
            flat = np.flatnonzero(np.not_equal(low, high[:n], out=unsure[:n]))
            if len(flat) <= REDO_BAND_SHARE * n * w:
                if len(flat):
                    redo.append(flat + top * w)
                continue
            exact = True  # float64 buffers from here on
            horizontal = np.empty((band + 2 * radius, w))
            term = np.empty_like(horizontal)
            vertical = np.empty((band, w))
        v = _separable_sums(rows, kernel, horizontal[:halo], term[:halo], vertical[:n])
        blurred[top : top + n] = round_half_up(v)
    if redo:
        ys, xs = np.divmod(np.concatenate(redo), w)
        # each pixel's window, rows first, so the passes run down axis 0 and along axis 2
        windows = np.lib.stride_tricks.sliding_window_view(padded, (size, size))
        win = windows[ys, xs].transpose(1, 0, 2)
        acc = np.empty((size, len(ys), 1))
        out = _separable_sums(win, kernel, acc, np.empty_like(acc), np.empty((1, len(ys), 1)))
        blurred[ys, xs] = round_half_up(out).ravel()
    return blurred


def adaptive_threshold(gray: np.ndarray, window: int, c: float) -> BinaryMask:
    """Mark pixels darker than their local window mean minus the offset c.

    With area = window * window and s the window's sum (replicated
    borders), the test p < s / area - c runs in integers as
    area * (p + c) < s.  For an integral c the two agree even in float64:
    s / area is an integer or at least 1 / area away from one, far beyond
    the rounding of s / area - c.  The sums are separable box sums in one
    whole-image pass over the pixels cast once to the sum dtype (row bands
    cast each row again on each add, and were slower).  Every value lies
    within area * (255 + |c|) of 0, so they run in int16 when that is
    below 2**15 (31,097 for window 11 and c 2), and in int32 otherwise.
    """
    if window < 3 or window % 2 == 0 or window > 2051:
        raise ValueError(f"window must be odd and in [3, 2051], got {window}")
    if not (math.isfinite(c) and c == int(c) and abs(c) <= 255):
        raise ValueError(f"offset c must be an integer in [-255, 255], got {c}")
    # area * (255 + |c|) <= 510 * area, within int32 for window <= 2051
    area = window * window
    dtype = np.int16 if area * (255 + abs(int(c))) < 2**15 else np.int32
    radius = window // 2
    h, w = gray.shape
    padded = _edge_pad(gray, radius, dtype)
    column_sums = padded[:h].copy()
    for k in range(1, window):
        column_sums += padded[k : k + h]
    sums = column_sums[:, :w].copy()
    for k in range(1, window):
        sums += column_sums[:, k : k + w]
    scaled = padded[radius : radius + h, radius : radius + w] + int(c)
    scaled *= area
    return BinaryMask(scaled < sums)


def sobel_magnitude(gray: np.ndarray) -> np.ndarray:
    """Gradient magnitude from the 3x3 Sobel pair, clamped to [0, 255].

    Each Sobel kernel is [1, 2, 1] smoothing across its axis times a
    [-1, 0, 1] difference along it, so both gradients run separably in
    exact int32.
    """
    if min(gray.shape) < 3:
        raise ValueError(f"image {gray.shape[1]}x{gray.shape[0]} is smaller than 3x3")
    padded = _edge_pad(gray, 1, np.int32)
    down = padded[:-2] + 2 * padded[1:-1] + padded[2:]
    gx = down[:, 2:] - down[:, :-2]
    across = padded[:, :-2] + 2 * padded[:, 1:-1] + padded[:, 2:]
    gy = across[2:] - across[:-2]
    gx *= gx
    gx += gy * gy
    return to_uint8(np.sqrt(gx, dtype=np.float64))


def label_components(mask: BinaryMask) -> list[tuple[int, BoundRect]]:
    """Every 8-connected component as (pixel count, box), in scan order of
    each component's first pixel.

    Row-run labelling (He, Chao & Suzuki, 2008): each run touches runs in
    the row above, diagonals included, and all touching pairs join at once
    (after Shiloach & Vishkin, 1982).  Each round hooks every root onto the
    smallest root it touches, then jumps every run to its root until none
    moves.  Roots only move to smaller run indices, so each component's
    root is its first run in scan order.  Each round lowers at least one
    root and no parent rises, so the rounds end, with no O(log n) bound.
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
    touching = np.maximum(stop - first, 0)  # stop < first where none touch
    b = np.repeat(np.arange(len(starts)), touching)
    a = np.arange(len(b)) + np.repeat(first + touching - touching.cumsum(), touching)
    root = np.arange(len(starts))
    # the jumps reuse these; np.take buffers its out= unless mode is "clip"
    jumped, moved = np.empty_like(root), np.empty(len(root), dtype=bool)
    ra, rb = a, b
    while (ra != rb).any():
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        root, jumped = np.take(root, root, out=jumped, mode="clip"), root
        while np.not_equal(root, jumped, out=moved).any():
            root, jumped = np.take(root, root, out=jumped, mode="clip"), root
        ra, rb = root[a], root[b]
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


def dilate(bits: np.ndarray) -> np.ndarray:
    """Binary dilation of a bool array with the full 3x3 structuring element."""
    h, w = bits.shape
    padded = np.pad(bits, 1, mode="constant")
    grown = np.zeros_like(bits)
    for dy in range(3):
        for dx in range(3):
            grown |= padded[dy : dy + h, dx : dx + w]
    return grown


def detect_bounding_box(img: Image, mode: str = "adaptive") -> BoundRect:
    """Locate the dominant object and return its bounding rectangle."""
    if mode not in MODES:
        raise ValueError(f"unknown segmentation mode {mode!r}")
    blurred = gaussian_blur(rgb_to_gray(img), BLUR_SIGMA)
    if mode == "adaptive":
        mask = adaptive_threshold(blurred, THRESHOLD_WINDOW, THRESHOLD_OFFSET)
    elif min(blurred.shape) < 3:
        raise NoObjectError("image is smaller than the 3x3 Sobel window")
    else:
        edges = sobel_magnitude(blurred)
        mask = BinaryMask(dilate(edges > SOBEL_THRESHOLD))
    components = label_components(mask)
    if not components:
        raise NoObjectError("no foreground component found")
    return max(components, key=lambda c: c[0])[1]  # first of the largest
