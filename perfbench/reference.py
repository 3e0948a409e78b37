"""Reference computations written apart from the `rcc` package.

The benchmark checks the program's outputs against these. Each function
re-derives a result from the documented algorithm (module docstrings of
`rcc.rng`, `rcc.image`, `rcc.synth`, `rcc.segment`, `rcc.cubes`,
`rcc.net` and `rcc.baseline`) without calling the function it checks.
Only numpy and the standard library are used.
"""

from __future__ import annotations

import colorsys
import math
from collections import deque

import numpy as np

M64 = (1 << 64) - 1

# The dataset definition: palette, illuminants and canvas, as documented.
PALETTE = (
    ("red", (220, 30, 30)),
    ("orange", (240, 140, 20)),
    ("yellow", (235, 220, 40)),
    ("green", (30, 180, 60)),
    ("blue", (30, 80, 220)),
    ("purple", (140, 40, 180)),
)
NOISE_STD = 4.0
ILLUMINANTS = {
    "identity": ((1.0, 1.0, 1.0), 1.0, NOISE_STD),
    "warm": ((1.15, 1.0, 0.8), 1.0, NOISE_STD),
    "cool": ((0.85, 0.95, 1.2), 1.0, NOISE_STD),
    "dim": ((0.5, 0.5, 0.5), 1.0, NOISE_STD),
    "bright": ((1.5, 1.5, 1.5), 1.0, NOISE_STD),
}
ILLUMINANT_ORDER = ("identity", "warm", "cool", "dim", "bright")
BRIGHT_LO, BRIGHT_HI = 0.2, 1.0
PATCH = 32
JITTER = 5
CANVAS_W, CANVAS_H = 128, 96
BACKGROUND = 245


# ---------------------------------------------------------------- generator

class Stream:
    """xoshiro256** seeded by splitmix64, one draw at a time."""

    def __init__(self, seed: int):
        x = seed & M64
        words = []
        for _ in range(4):
            x = (x + 0x9E3779B97F4A7C15) & M64
            z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & M64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
            words.append(z ^ (z >> 31))
        if words == [0, 0, 0, 0]:
            words[0] = 1
        self.s = words

    def draw(self) -> int:
        s = self.s
        out = (((s[1] * 5) & M64) << 7 | ((s[1] * 5) & M64) >> 57) & M64
        out = (out * 9) & M64
        t = (s[1] << 17) & M64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = ((s[3] << 45) | (s[3] >> 19)) & M64
        return out

    def uniforms(self, n: int) -> np.ndarray:
        raw = np.array([self.draw() >> 11 for _ in range(n)], dtype=np.uint64)
        return raw.astype(np.float64) * 2.0**-53

    def below(self, bound: int, n: int) -> np.ndarray:
        """floor(u * bound), one draw per value."""
        return np.minimum((self.uniforms(n) * bound).astype(np.int64), bound - 1)

    def gaussians(self, n: int) -> np.ndarray:
        """Box-Muller over uniform pairs, cosine value first."""
        pairs = (n + 1) // 2
        u = self.uniforms(2 * pairs)
        radius = np.sqrt(-2.0 * np.log(np.maximum(u[0::2], 2.0**-53)))
        angle = 2.0 * math.pi * u[1::2]
        z = np.empty(2 * pairs)
        z[0::2] = radius * np.cos(angle)
        z[1::2] = radius * np.sin(angle)
        return z[:n]


def half_away(x: np.ndarray) -> np.ndarray:
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def _to_u8(x: np.ndarray) -> np.ndarray:
    return np.clip(half_away(x), 0, 255).astype(np.uint8)


def light(pixels: np.ndarray, illuminant, noise_seed: int) -> np.ndarray:
    """clamp(round(255*(gain*c/255)^gamma) + noise), noise row-major."""
    gains, gamma, std = illuminant
    lit = half_away(255.0 * (np.array(gains) * pixels.astype(np.float64) / 255.0) ** gamma)
    if std > 0:
        lit = half_away(lit + std * Stream(noise_seed).gaussians(lit.size).reshape(lit.shape))
    return np.clip(lit, 0, 255).astype(np.uint8)


def ppm(pixels: np.ndarray) -> bytes:
    h, w, _ = pixels.shape
    return b"P6\n%d %d\n255\n" % (w, h) + pixels.tobytes()


def class_counts(total: int, classes: int = 6) -> list[int]:
    return [total // classes + (1 if i < total % classes else 0) for i in range(classes)]


def brightness(index: int, total: int = 250) -> float:
    """Patch `index` sits at ramp position index // 6 of its class."""
    n_k = class_counts(total)[index % 6]
    ramp = (index // 6) / (n_k - 1) if n_k > 1 else 0.0
    return BRIGHT_LO + (BRIGHT_HI - BRIGHT_LO) * ramp


def patch_bytes(seed: int, index: int, total: int = 250) -> bytes:
    """Bytes of patch_<index>.ppm, rebuilt from the dataset seed."""
    cls = index % 6
    rng = Stream((seed ^ index) & M64)
    flat = np.broadcast_to(brightness(index, total) * np.array(PALETTE[cls][1], dtype=np.float64),
                           (PATCH, PATCH, 3)).copy()
    flat += (rng.below(2 * JITTER + 1, flat.size) - JITTER).reshape(flat.shape)
    noise_seed = rng.draw()
    illuminant = ILLUMINANTS[ILLUMINANT_ORDER[index % 5]]
    return ppm(light(_to_u8(flat), illuminant, noise_seed))


def scene_rect(rng: Stream) -> tuple[int, int, int, int]:
    margin = 4
    w = 24 + int(rng.below(33, 1)[0])
    h = 24 + int(rng.below(min(33, CANVAS_H - 2 * margin - 23), 1)[0])
    x = margin + int(rng.below(CANVAS_W - w - 2 * margin + 1, 1)[0])
    y = margin + int(rng.below(CANVAS_H - h - 2 * margin + 1, 1)[0])
    return x, y, w, h


def scene_pixels(cls: int, rect, width: int, height: int, illuminant, seed: int) -> np.ndarray:
    """A coloured rectangle on the near-white canvas, then the illuminant."""
    x, y, w, h = rect
    rng = Stream(seed)
    brightness = BRIGHT_LO + (BRIGHT_HI - BRIGHT_LO) * float(rng.uniforms(1)[0])
    canvas = np.full((height, width, 3), float(BACKGROUND))
    canvas[y : y + h, x : x + w] = brightness * np.array(PALETTE[cls][1], dtype=np.float64)
    canvas += (rng.below(2 * JITTER + 1, canvas.size) - JITTER).reshape(canvas.shape)
    noise_seed = rng.draw()
    return light(_to_u8(canvas), illuminant, noise_seed)


def scene_bytes(seed: int, index: int, total: int = 250) -> bytes:
    """Bytes of scene_<index>.ppm, rebuilt from the dataset seed."""
    rng = Stream((seed ^ (total + index)) & M64)
    rect = scene_rect(rng)
    return ppm(scene_pixels(index % 6, rect, CANVAS_W, CANVAS_H,
                            ILLUMINANTS[ILLUMINANT_ORDER[index % 5]], rng.draw()))


def parse_ppm(data: bytes) -> np.ndarray:
    """Canonical P6 only, as written by the generator."""
    head, rest = data.split(b"\n", 1)
    size, rest = rest.split(b"\n", 1)
    maxval, payload = rest.split(b"\n", 1)
    w, h = (int(v) for v in size.split())
    if head != b"P6" or maxval != b"255" or len(payload) != w * h * 3:
        raise ValueError("not a canonical P6 stream")
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w, 3)


# ------------------------------------------------------------- segmentation

def foreground_mask(rgb: np.ndarray, sigma: float = 1.4, window: int = 11,
                    c: float = 2.0) -> np.ndarray:
    """gray -> separable Gaussian (replicate borders, one rounding) ->
    pixels below their window mean minus c."""
    f = rgb.astype(np.float64)
    gray = _to_u8(0.299 * f[:, :, 0] + 0.587 * f[:, :, 1] + 0.114 * f[:, :, 2])
    radius = math.ceil(3.0 * sigma)
    taps = np.exp(-(np.arange(-radius, radius + 1, dtype=np.float64) ** 2) / (2.0 * sigma * sigma))
    taps /= taps.sum()
    h, w = gray.shape
    acc = gray.astype(np.float64)
    src = np.pad(acc, ((0, 0), (radius, radius)), mode="edge")
    acc = np.zeros((h, w))
    for t, tap in enumerate(taps):
        acc += tap * src[:, t : t + w]
    src = np.pad(acc, ((radius, radius), (0, 0)), mode="edge")
    acc = np.zeros((h, w))
    for t, tap in enumerate(taps):
        acc += tap * src[t : t + h, :]
    blurred = _to_u8(acc)
    r = window // 2
    padded = np.pad(blurred.astype(np.int64), r, mode="edge")
    box = np.zeros((padded.shape[0] + 1, padded.shape[1] + 1), dtype=np.int64)
    box[1:, 1:] = padded.cumsum(0).cumsum(1)
    sums = box[window:, window:] - box[:-window, window:] - box[window:, :-window] + box[:-window, :-window]
    return blurred.astype(np.float64) < sums / float(window * window) - c


def largest_component_extent(mask: np.ndarray) -> tuple[tuple[int, int, int, int], int]:
    """(x, y, w, h) of the 8-connected component with the most pixels, ties
    to the one met first in row-major order; also the component count."""
    h, w = mask.shape
    seen = np.zeros_like(mask, dtype=bool)
    best = None
    best_size = 0
    count = 0
    for y0, x0 in zip(*np.nonzero(mask)):
        if seen[y0, x0]:
            continue
        count += 1
        seen[y0, x0] = True
        todo = deque([(int(y0), int(x0))])
        xs, ys = [], []
        while todo:
            y, x = todo.pop()
            xs.append(x)
            ys.append(y)
            for ny in (y - 1, y, y + 1):
                for nx in (x - 1, x, x + 1):
                    if 0 <= ny < h and 0 <= nx < w and mask[ny, nx] and not seen[ny, nx]:
                        seen[ny, nx] = True
                        todo.append((ny, nx))
        if len(xs) > best_size:
            best_size = len(xs)
            best = (min(xs), min(ys), max(xs) - min(xs) + 1, max(ys) - min(ys) + 1)
    if best is None:
        raise ValueError("mask has no foreground")
    return best, count


# -------------------------------------------------------------------- cubes

def cube_inputs(rgb: np.ndarray, box: tuple[int, int, int, int], size: int = 32) -> np.ndarray:
    """The nine cubes of the box as a (9, 3, size, size) batch in [0, 1],
    column-major over the 3x3 grid."""
    x, y, w, h = box
    area = rgb[y : y + h, x : x + w]
    need = 3 * size
    if w < need or h < need:
        factor = max(need / w, need / h)
        nw, nh = max(math.ceil(w * factor), need), max(math.ceil(h * factor), need)
        cols = np.minimum(((np.arange(nw) + 0.5) * w / nw).astype(np.int64), w - 1)
        rows = np.minimum(((np.arange(nh) + 0.5) * h / nh).astype(np.int64), h - 1)
        area = area[rows[:, None], cols[None, :]]
    ah, aw = area.shape[:2]
    half = size // 2
    cubes = []
    for i in range(3):
        cx = round((2 * i + 1) * aw / 6)
        for j in range(3):
            cy = round((2 * j + 1) * ah / 6)
            cube = area[cy - half : cy + half, cx - half : cx + half]
            cubes.append(cube.astype(np.float64).transpose(2, 0, 1) / 255.0)
    return np.stack(cubes)


def vote(cube_labels: list[int], probs: np.ndarray) -> tuple[int, float]:
    """Majority label; a tie goes to the tied class of highest mean
    probability. Returns the label and its mean probability."""
    tally = [cube_labels.count(k) for k in range(probs.shape[1])]
    top = max(tally)
    means = probs.mean(axis=0)
    tied = [k for k in range(len(tally)) if tally[k] == top]
    label = max(tied, key=lambda k: (means[k], -k))
    return label, float(means[label])


# ---------------------------------------------------------------------- net

def naive_logits(x: np.ndarray, layers) -> np.ndarray:
    """Forward pass of one (3, 32, 32) input with explicit loops over every
    output position. `layers` is six (weights, bias) pairs: three 3x3 conv
    (pad 1) + ReLU + 2x2 max pool stages, then fc, ReLU, fc, ReLU, fc."""
    cur = x
    for filters, bias in layers[:3]:
        c, h, w = cur.shape
        padded = np.zeros((c, h + 2, w + 2))
        padded[:, 1:-1, 1:-1] = cur
        out = np.empty((filters.shape[0], h, w))
        for r in range(h):
            for q in range(w):
                window = padded[:, r : r + 3, q : q + 3]
                for o in range(filters.shape[0]):
                    out[o, r, q] = float(np.sum(filters[o] * window)) + bias[o]
        out = np.maximum(out, 0.0)
        pooled = np.empty((out.shape[0], h // 2, w // 2))
        for r in range(h // 2):
            for q in range(w // 2):
                pooled[:, r, q] = out[:, 2 * r : 2 * r + 2, 2 * q : 2 * q + 2].max(axis=(1, 2))
        cur = pooled
    vec = cur.reshape(-1)
    for n, (weights, bias) in enumerate(layers[3:]):
        vec = np.array([float(np.dot(weights[o], vec)) + bias[o] for o in range(len(bias))])
        if n < 2:
            vec = np.maximum(vec, 0.0)
    return vec


def log_softmax(v: np.ndarray) -> np.ndarray:
    shifted = v - v.max()
    return shifted - math.log(float(np.exp(shifted).sum()))


# --------------------------------------------------------------------- hsv

def mean_hsv(rgb: np.ndarray) -> tuple[float, float, float]:
    """Hue in degrees, saturation and value of the patch's mean pixel."""
    mean = rgb.astype(np.float64).mean(axis=(0, 1)) / 255.0
    h, s, v = colorsys.rgb_to_hsv(*(float(c) for c in mean))
    return h * 360.0, s, v


def hsv_ranges(samples) -> list[tuple[float, float, float, float]]:
    """Per class (h_min, h_max, s_min, v_min): circular p5/p95 hue window,
    p5 floors for saturation and value."""
    ranges = []
    for cls in range(6):
        hsv = [mean_hsv(rgb) for rgb, label in samples if label == cls]
        hues = np.array([e[0] for e in hsv])
        rad = np.deg2rad(hues)
        centre = math.degrees(math.atan2(np.sin(rad).sum(), np.cos(rad).sum())) % 360.0
        dev = (hues - centre + 180.0) % 360.0 - 180.0
        lo, hi = np.percentile(dev, [5.0, 95.0])
        h_min = (centre + lo) % 360.0
        ranges.append((h_min, h_min + (hi - lo),
                       float(np.percentile([e[1] for e in hsv], 5.0)),
                       float(np.percentile([e[2] for e in hsv], 5.0))))
    return ranges


def hsv_class(rgb: np.ndarray, ranges) -> int | None:
    h, s, v = mean_hsv(rgb)
    for cls, (h_min, h_max, s_min, v_min) in enumerate(ranges):
        if s >= s_min and v >= v_min and (h_min <= h <= h_max or h_min <= h + 360.0 <= h_max):
            return cls
    return None


def uniform_gain(rgb: np.ndarray, gain: float) -> np.ndarray:
    """Noise-free uniform brightness gain, as in the robustness sweep."""
    return light(rgb, ((gain, gain, gain), 1.0, 0.0), 0)
