"""Image containers, gray conversion, rounding, and PPM (P6) file I/O.

The on-disk format is binary PPM with maxval 255: ``P6\\n{w} {h}\\n255\\n``
followed by width*height*3 bytes row-major.  Writing emits exactly that
canonical form; reading additionally tolerates ``#`` comments and arbitrary
whitespace between header tokens, so the round trip is bit-exact for
canonical streams.

Rounding rule used across the whole package (`round_half_up`, `to_uint8`):
round half away from zero, then clamp to the target range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class PpmError(ValueError):
    """Base class for PPM stream problems."""


class PpmHeaderError(PpmError):
    """Magic number or header tokens are not a valid P6 header."""


class PpmMaxvalError(PpmError):
    """Stream declares a maxval other than 255."""


class PpmTruncatedError(PpmError):
    """Pixel payload is shorter or longer than the header promises."""


def round_half_up(values: np.ndarray) -> np.ndarray:
    """floor(values + 0.5) in place, returning `values`: the package's
    rounding, half away from zero for values >= 0."""
    values += 0.5
    return np.floor(values, out=values)


def to_uint8(values: np.ndarray) -> np.ndarray:
    """Channel values rounded half away from zero and clamped to [0, 255],
    as uint8; `values`, a float64 array, is rounded in place.

    round_half_up rounds half away from zero for x >= 0, and every x below
    0.5 clamps to 0 under either rounding.
    """
    return np.clip(round_half_up(values), 0, 255, out=values).astype(np.uint8)


def _as_channel_array(pixels: np.ndarray, expect_ndim: int) -> np.ndarray:
    arr = np.asarray(pixels)
    if arr.ndim != expect_ndim:
        raise ValueError(f"expected {expect_ndim}-d pixel array, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("image must have at least one pixel")
    if arr.dtype != np.uint8:
        # NaN fails every test here, and a fraction would truncate in the cast
        if not np.all((arr >= 0) & (arr <= 255) & (np.floor(arr) == arr)):
            raise ValueError("channel values must be integers in [0, 255]")
        arr = arr.astype(np.uint8)
    else:
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Image:
    """RGB raster, 8-bit channels, stored as a read-only (h, w, 3) array."""

    pixels: np.ndarray

    def __post_init__(self):
        arr = _as_channel_array(self.pixels, 3)
        if arr.shape[2] != 3:
            raise ValueError(f"expected 3 channels, got {arr.shape[2]}")
        object.__setattr__(self, "pixels", arr)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, Image) and np.array_equal(self.pixels, other.pixels)


@dataclass(frozen=True)
class GrayImage:
    """Single-channel 8-bit raster, read-only (h, w) array."""

    pixels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pixels", _as_channel_array(self.pixels, 2))

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, GrayImage) and np.array_equal(self.pixels, other.pixels)


def write_ppm(img: Image) -> bytes:
    """Serialize to the canonical P6 byte stream."""
    header = f"P6\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.pixels.tobytes()


def _read_header_tokens(data: bytes, start: int, count: int) -> tuple[list[bytes], int]:
    """Read whitespace-separated tokens, skipping # comments to end of line."""
    tokens: list[bytes] = []
    i = start
    n = len(data)
    while len(tokens) < count:
        while i < n and data[i : i + 1].isspace():
            i += 1
        if i < n and data[i] == ord("#"):
            while i < n and data[i] not in (0x0A, 0x0D):
                i += 1
            continue
        if i >= n:
            raise PpmHeaderError("unexpected end of stream in header")
        j = i
        while j < n and not data[j : j + 1].isspace() and data[j] != ord("#"):
            j += 1
        tokens.append(data[i:j])
        i = j
    return tokens, i


def read_ppm(data: bytes) -> Image:
    """Parse a binary PPM (P6, maxval 255) byte stream."""
    if len(data) < 2 or data[:2] != b"P6":
        raise PpmHeaderError("missing P6 magic number")
    if not (data[2:3].isspace() or data[2:3] == b"#"):  # else "P632 32 255" reads as 32x32
        raise PpmHeaderError("missing whitespace after the P6 magic number")
    tokens, pos = _read_header_tokens(data, 2, 3)
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise PpmHeaderError(f"non-numeric header token: {exc}") from exc
    if width < 1 or height < 1:
        raise PpmHeaderError(f"invalid dimensions {width}x{height}")
    if maxval != 255:
        raise PpmMaxvalError(f"unsupported maxval {maxval}, only 255 is accepted")
    for token in tokens:  # int() also takes a sign and underscores; "-1" fails above
        if not token.isdigit():
            raise PpmHeaderError(f"header token {token!r} is not ASCII digits")
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise PpmHeaderError("missing whitespace after maxval")
    payload = memoryview(data)[pos + 1 :]  # Image makes the one copy
    expected = width * height * 3
    if len(payload) != expected:
        raise PpmTruncatedError(
            f"payload holds {len(payload)} bytes, header promises {expected}"
        )
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)
    return Image(pixels)


# Rows per band of gray here and the blur in segment: each band's buffers
# stay in L2 instead of streaming whole-image temporaries through memory
# once per tap.  The threshold runs in one pass, which was faster there.
BAND_ROWS = 64


def rgb_to_gray(img: Image) -> GrayImage:
    """BT.601 luma: gray = round(0.299 r + 0.587 g + 0.114 b).

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
    return GrayImage(gray)
