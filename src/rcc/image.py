"""The RGB image container, rounding, and PPM (P6) file I/O.

The on-disk format is binary PPM with maxval 255: ``P6\\n{w} {h}\\n255\\n``
followed by width*height*3 bytes row-major.  Writing emits exactly that
canonical form; reading additionally tolerates ``#`` comments and arbitrary
whitespace between header tokens, so the round trip is bit-exact for
canonical streams.

Rounding rule of every pixel value the package computes (`round_half_up`,
`to_uint8`): round half away from zero, then clamp to the target range.
Positions are not pixel values: `cubes.cube_centers` rounds with Python's
`round`, ties to even.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np


class PpmError(ValueError):
    """Bytes that are not a P6 PPM stream with maxval 255."""


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


@dataclass(frozen=True)
class Image:
    """RGB raster, 8-bit channels, stored as a read-only (h, w, 3) array."""

    pixels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.pixels)
        if arr.ndim != 3:
            raise ValueError(f"expected 3-d pixel array, got shape {arr.shape}")
        if arr.size == 0:
            raise ValueError("image must have at least one pixel")
        if arr.dtype != np.uint8:
            # NaN fails every test here, and a fraction would truncate in the cast
            if not np.all((arr >= 0) & (arr <= 255) & (np.floor(arr) == arr)):
                raise ValueError("channel values must be integers in [0, 255]")
        arr = arr.astype(np.uint8, order="C")  # a copy, so no caller can write to it
        if arr.shape[2] != 3:
            raise ValueError(f"expected 3 channels, got {arr.shape[2]}")
        arr.setflags(write=False)
        object.__setattr__(self, "pixels", arr)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, Image) and np.array_equal(self.pixels, other.pixels)


def write_ppm(img: Image) -> bytes:
    """Serialize to the canonical P6 byte stream."""
    header = f"P6\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.pixels.tobytes()


# One header token after any whitespace and # comments; a bytes pattern's
# \s is exactly the six bytes bytes.isspace() accepts.  A comment runs to
# the end of its line: the lookahead keeps a failed match from backtracking
# into it, which would read its tail as a token and take exponential time
# over a run of '#'.
_HEADER_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*(?![^\r\n]))*([^\s#]+)")


def read_ppm(data: bytes) -> Image:
    """Parse a binary PPM (P6, maxval 255) byte stream."""
    if len(data) < 2 or data[:2] != b"P6":
        raise PpmError("missing P6 magic number")
    if not (data[2:3].isspace() or data[2:3] == b"#"):  # else "P632 32 255" reads as 32x32
        raise PpmError("missing whitespace after the P6 magic number")
    tokens, pos = [], 2
    for _ in range(3):
        match = _HEADER_TOKEN.match(data, pos)
        if match is None:
            raise PpmError("unexpected end of stream in header")
        tokens.append(match[1])
        pos = match.end()
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise PpmError(f"non-numeric header token: {exc}") from exc
    if width < 1 or height < 1:
        raise PpmError(f"invalid dimensions {width}x{height}")
    if maxval != 255:
        raise PpmError(f"unsupported maxval {maxval}, only 255 is accepted")
    for token in tokens:  # int() also takes a sign and underscores; "-1" fails above
        if not token.isdigit():
            raise PpmError(f"header token {token!r} is not ASCII digits")
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise PpmError("missing whitespace after maxval")
    payload = memoryview(data)[pos + 1 :]  # Image makes the one copy
    expected = width * height * 3
    if len(payload) != expected:
        raise PpmError(
            f"payload holds {len(payload)} bytes, header promises {expected}"
        )
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)
    return Image(pixels)

