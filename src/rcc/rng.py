"""Deterministic pseudo-random number generation.

Every stochastic choice in this package (weight init, pixel jitter, sensor
noise, epoch shuffling) flows through the xoshiro256** generator so that a
given seed reproduces identical bytes on any platform.  Nothing here depends
on Python's `random` or numpy's generators.

Algorithm constants:

* xoshiro256** step: ``result = rotl64(s1 * 5, 7) * 9`` followed by the
  state update ``t = s1 << 17; s2 ^= s0; s3 ^= s1; s1 ^= s2; s0 ^= s3;
  s2 ^= t; s3 = rotl64(s3, 45)``.
* Seeding: the four 64-bit state words are the first four outputs of
  splitmix64 applied to the seed (gamma 0x9E3779B97F4A7C15, mix constants
  0xBF58476D1CE4E5B9 and 0x94D049BB133111EB).
* Doubles: ``(x >> 11) * 2**-53`` giving uniforms in [0, 1).
* Normals: Box-Muller on uniform pairs, cosine branch first.

Bulk draws (`fill_uint64`) run one stream as many numpy lanes in lockstep.
The state step is linear over GF(2) (Blackman & Vigna, 2018, "Scrambled
linear pseudorandom number generators"), so jumping a state n steps ahead
is a product with the 256x256 bit matrix ``T**n``.  A fill of `count`
draws is split into lanes of `_LANE_STEPS` consecutive draws: lane j
starts ``j * _LANE_STEPS`` steps into the stream.  The lane start states
come by doubling: with lanes 0..m-1 known, lanes m..2m-1 are one float32
matrix product with the cached ``T**(_LANE_STEPS * m)``, reduced mod 2.
All lanes then step `_LANE_STEPS` times as uint64 vectors, the scrambler
runs over the whole ``s1`` history at once, and the lanes are laid out in
stream order.  The generator is left exactly `count` draws on, taken from
the last lane.  Long fills go in chunks of `_CHUNK_LANES` lanes to bound
memory, and short ones use the scalar step, which costs less than the
fixed overhead of the lanes.  Either way the output is the same stream
that `next_uint64` draws, bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_DOUBLE_SCALE = 2.0 ** -53


def splitmix64(seed: int, count: int) -> list[int]:
    """Return `count` successive splitmix64 outputs for `seed`."""
    x = seed & _MASK
    out = []
    for _ in range(count):
        x = (x + 0x9E3779B97F4A7C15) & _MASK
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        out.append(z ^ (z >> 31))
    return out


_LANE_STEPS = 48  # consecutive draws per lane
_CHUNK_LANES = 1024  # lanes per chunk; bounds the working memory of a fill
_LANE_MIN_COUNT = 512  # shorter fills take the scalar step
_STATE_BITS = 256

# _jumps[i] is T**(_LANE_STEPS * 2**i) in row form (a state's bit row times
# it is the state that many steps on), as float32 0/1; built on first use.
_jumps: list[np.ndarray] = []


def _step_lanes(s: np.ndarray, steps: int, history: np.ndarray | None = None) -> None:
    """Step every lane of `s` (rows s0..s3, one column per lane) in place,
    storing each step's s1 in the rows of `history` when given."""
    s0, s1, s2, s3 = s
    for k in range(steps):
        if history is not None:
            history[k] = s1
        t = s1 << np.uint64(17)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        np.bitwise_or(s3 << np.uint64(45), s3 >> np.uint64(19), out=s3)


def _words_to_bits(words: np.ndarray) -> np.ndarray:
    """(lanes, 4) state words to (lanes, 256) bit rows; bit 64*w + b is
    bit b of word w."""
    as_bytes = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(as_bytes, axis=1, bitorder="little")


def _bits_to_words(bits: np.ndarray) -> np.ndarray:
    """Inverse of `_words_to_bits`, as (4, lanes) uint64 rows s0..s3."""
    packed = np.packbits(bits.astype(np.uint8), axis=1, bitorder="little")
    return np.ascontiguousarray(packed.view("<u8").T, dtype=np.uint64)


def _mod2_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # sums of at most 256 ones are exact in float32
    return ((a @ b).astype(np.int32) & 1).astype(np.float32)


def _jump(level: int) -> np.ndarray:
    if not _jumps:
        # row i is basis state i stepped _LANE_STEPS times
        basis = _bits_to_words(np.eye(_STATE_BITS, dtype=np.uint8))
        _step_lanes(basis, _LANE_STEPS)
        _jumps.append(_words_to_bits(basis.T).astype(np.float32))
    while len(_jumps) <= level:
        _jumps.append(_mod2_product(_jumps[-1], _jumps[-1]))
    return _jumps[level]


def _fill_lanes(state: list[int], count: int) -> tuple[np.ndarray, list[int]]:
    """`count` draws from `state` as lanes, and the state after them."""
    lanes = -(-count // _LANE_STEPS)
    bits = np.empty((lanes, _STATE_BITS), dtype=np.float32)
    bits[0] = _words_to_bits(np.array([state], dtype=np.uint64))[0]
    known, level = 1, 0
    while known < lanes:
        n = min(known, lanes - known)
        bits[known : known + n] = _mod2_product(bits[:n], _jump(level))
        known += n
        level += 1
    s = _bits_to_words(bits)
    history = np.empty((_LANE_STEPS, lanes), dtype=np.uint64)
    last_steps = count - (lanes - 1) * _LANE_STEPS
    _step_lanes(s, last_steps, history)
    final = [int(w) for w in s[:, -1]]
    _step_lanes(s, _LANE_STEPS - last_steps, history[last_steps:])
    r = history * np.uint64(5)
    r = (r << np.uint64(7)) | (r >> np.uint64(57))
    r *= np.uint64(9)
    return r.T.reshape(-1)[:count], final


class Xoshiro256StarStar:
    """xoshiro256** stream seeded from a 64-bit integer via splitmix64."""

    def __init__(self, seed: int):
        state = splitmix64(seed, 4)
        if not any(state):
            state[0] = 1  # all-zero state is the one forbidden fixed point
        self._s = state

    def next_uint64(self) -> int:
        s0, s1, s2, s3 = self._s
        r = (s1 * 5) & _MASK
        r = ((((r << 7) | (r >> 57)) & _MASK) * 9) & _MASK
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _MASK
        self._s = [s0, s1, s2, s3]
        return r

    def fill_uint64(self, count: int) -> np.ndarray:
        """Generate `count` raw outputs as a uint64 array.

        Equal to `count` calls of `next_uint64`, the state after included.
        """
        if count < _LANE_MIN_COUNT:
            return np.array(
                [self.next_uint64() for _ in range(count)], dtype=np.uint64
            )
        out = np.empty(count, dtype=np.uint64)
        chunk = _CHUNK_LANES * _LANE_STEPS
        for start in range(0, count, chunk):
            n = min(chunk, count - start)
            out[start : start + n], self._s = _fill_lanes(self._s, n)
        return out

    def next_double(self) -> float:
        return (self.next_uint64() >> 11) * _DOUBLE_SCALE

    def doubles(self, count: int) -> np.ndarray:
        """Uniform float64 samples in [0, 1)."""
        return ((self.fill_uint64(count) >> np.uint64(11))).astype(np.float64) * _DOUBLE_SCALE

    def normals(self, count: int) -> np.ndarray:
        """Standard-normal float64 samples via Box-Muller.

        Uniform pairs are consumed two at a time; for odd `count` the spare
        sine-branch sample is discarded, so consumption is always an even
        number of raw draws.
        """
        pairs = (count + 1) // 2
        u = self.doubles(2 * pairs)
        u1 = u[0::2]
        u2 = u[1::2]
        u1 = np.maximum(u1, _DOUBLE_SCALE)  # avoid log(0)
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = 2.0 * math.pi * u2
        z = np.empty(2 * pairs)
        z[0::2] = radius * np.cos(angle)
        z[1::2] = radius * np.sin(angle)
        return z[:count]

    def integers_below(self, bound: int, count: int) -> np.ndarray:
        """Uniform integers in [0, bound) as int64.

        Computed as floor(u * bound) from the 53-bit uniforms; the floor
        map keeps the stream consumption at exactly one draw per value.
        """
        if bound <= 0:
            raise ValueError("bound must be positive")
        return np.minimum((self.doubles(count) * bound).astype(np.int64), bound - 1)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle driven by this stream."""
        for i in range(len(items) - 1, 0, -1):
            j = int(self.next_double() * (i + 1))
            if j > i:
                j = i
            items[i], items[j] = items[j], items[i]


def derive_stream_seed(seed: int, index: int) -> int:
    """Per-file stream seed: base seed XOR file index.

    Streams seeded through splitmix64 decorrelate even for adjacent seeds,
    so the XOR keeps derivation order-independent across files.
    """
    return (seed ^ index) & _MASK
