"""Deterministic pseudo-random number generation.

Every stochastic choice in this package (weight init, pixel jitter, sensor
noise, epoch shuffling) flows through the xoshiro256** generator, and
nothing here depends on Python's `random` or numpy's generators.  A seed's
raw draws, uniforms and bounded integers are the same bytes on any platform;
its normals need numpy's `log`, `sin` and `cos`, whose code numpy picks by
CPU, so they can differ in the last ulp on another host.

Algorithm constants:

* xoshiro256** step: ``result = rotl64(s1 * 5, 7) * 9`` followed by the
  state update ``t = s1 << 17; s2 ^= s0; s3 ^= s1; s1 ^= s2; s0 ^= s3;
  s2 ^= t; s3 = rotl64(s3, 45)``.
* Seeding: the four 64-bit state words are the first four outputs of
  splitmix64 applied to the seed (gamma 0x9E3779B97F4A7C15, mix constants
  0xBF58476D1CE4E5B9 and 0x94D049BB133111EB).
* Doubles: ``(x >> 11) * 2**-53`` giving uniforms in [0, 1).
* Normals: Box-Muller on uniform pairs, cosine branch first.  The radius
  and angle (`box_muller_polar`) are apart from the trigonometry, so
  `synth` can take a float32 estimate of the same noise and redo its
  near-ties with `box_muller`.

Bulk draws run many streams at once as numpy lanes in lockstep: one fill
takes n start states and a count and returns n rows of `count` draws plus
the n states after them.  `Xoshiro256StarStar.fill_uint64` is the n = 1
case and `fill_streams` the batch of fresh seeded streams.  The state step
is linear over GF(2) (Blackman & Vigna, 2018, "Scrambled linear
pseudorandom number generators"), so jumping a state n steps ahead is a
product with the 256x256 bit matrix ``T**n``.  Each stream's draws are
split into lanes of L consecutive draws, L = ``_LANE_STEPS * 2**k``: lane
j starts ``j * L`` steps into its stream.  The lane start states come by
doubling: with lanes 0..m-1 of every stream known, lanes m..2m-1 are one
float32 matrix product with the cached ``T**(L * m)``, reduced mod 2.
All lanes then step L times as uint64 vectors, `_SCRAMBLE_ROWS` steps at
a time: each block's ``s1`` values are scrambled and written to their
lanes' places in the output as the lanes step, so no history of the whole
fill is kept.  Each stream's state after the fill is taken from its last lane.

The lane length trades the Python cost of each step against the matrix
cost of each lane: a fill takes the shortest L whose lane count over all
its streams is at most `_LANE_RATIO` times L (a single 36865-draw stream
gets L = 96; 250 streams of 3073 draws get L = 384).  A fill runs all its
lanes in one pass, and fills of fewer than `_LANE_MIN_COUNT` draws in all
use the scalar step, which costs less than the fixed overhead of the lanes.
Either way each row is the stream that `next_uint64` draws, bit for bit.
The uniform and bounded-integer transforms are functions of raw draws
along the last axis, and Box-Muller a function of the uniforms; the
methods and the batch share them.
"""

from __future__ import annotations

import math
from typing import Sequence

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


_LANE_STEPS = 48  # draws per lane at the shortest lane length
_LANE_RATIO = 8  # a fill takes the shortest lanes with at most this many lanes per step
_LANE_MIN_COUNT = 512  # fills of fewer draws take the scalar step
_SCRAMBLE_ROWS = 16  # lane steps scrambled and written out at a time
_STATE_BITS = 256

# _jumps[i] is T**(_LANE_STEPS * 2**i) in row form (a state's bit row times
# it is the state that many steps on), as float32 0/1; built on first use.
_jumps: list[np.ndarray] = []


def _seed_state(seed: int) -> list[int]:
    state = splitmix64(int(seed), 4)
    if not any(state):
        state[0] = 1  # all-zero state is the one forbidden fixed point
    return state


def _scalar_fill(state: list[int], count: int) -> tuple[list[int], list[int]]:
    """`count` draws from `state` one step at a time, and the state after."""
    s0, s1, s2, s3 = state
    out = []
    for _ in range(count):
        r = (s1 * 5) & _MASK
        out.append((((r << 7) | (r >> 57)) & _MASK) * 9 & _MASK)
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _MASK
    return out, [s0, s1, s2, s3]


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


def _mod2_product(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The 0/1 product of a and b mod 2, written into the float32 `out`."""
    # Sums of at most 256 ones are exact in float32.  Past 2**23 the ulp is
    # 1, so sum + 2**23 is exact and its lowest mantissa bit is the sum's
    # parity, which becomes 0.0 or 1.0 (bits 0x3F800000) in place.
    np.matmul(a, b, out=out)
    out += 2.0**23
    parity = out.view(np.int32)
    parity &= 1
    parity *= 0x3F800000
    return out


def _jump(level: int) -> np.ndarray:
    if not _jumps:
        # row i is basis state i stepped _LANE_STEPS times
        basis = _bits_to_words(np.eye(_STATE_BITS, dtype=np.uint8))
        _step_lanes(basis, _LANE_STEPS)
        _jumps.append(_words_to_bits(basis.T).astype(np.float32))
    while len(_jumps) <= level:
        _jumps.append(_mod2_product(_jumps[-1], _jumps[-1], np.empty_like(_jumps[-1])))
    return _jumps[level]


def _lane_level(n: int, count: int) -> int:
    """The k of the lane length ``_LANE_STEPS * 2**k`` for `count` draws
    from each of n streams: the shortest with at most `_LANE_RATIO` lanes
    per step."""
    level = 0
    while n * -(-count // (_LANE_STEPS << level)) > _LANE_RATIO * (_LANE_STEPS << level):
        level += 1
    return level


def _fill_lanes(states: np.ndarray, out: np.ndarray, level: int) -> np.ndarray:
    """Fill `out` (n, count) with the draws of the n streams that start at
    `states` (n, 4), as lanes of ``_LANE_STEPS * 2**level`` draws; returns
    the n states after them."""
    n, count = out.shape
    steps = _LANE_STEPS << level
    m = -(-count // steps)  # lanes per stream; lane j*n + i is lane j of stream i
    bits = np.empty((m * n, _STATE_BITS), dtype=np.float32)
    bits[:n] = _words_to_bits(states)
    known, jump = 1, level
    while known < m:
        k = min(known, m - known)
        _mod2_product(bits[: k * n], _jump(jump), bits[known * n : (known + k) * n])
        known += k
        jump += 1
    s = _bits_to_words(bits)
    whole = (m - 1) * steps
    last_steps = count - whole
    rows = steps if m > 1 else last_steps
    # every lane steps `rows` times, a block of steps at a time, whose s1 values are
    # scrambled into `out`; the last lanes' states are taken at `count`, a block edge
    block = np.empty((_SCRAMBLE_ROWS, m * n), dtype=np.uint64)
    rotated = np.empty_like(block)
    edges = sorted({*range(0, rows, _SCRAMBLE_ROWS), last_steps, rows})
    for start, stop in zip(edges, edges[1:]):
        r = block[: stop - start]
        t = rotated[: stop - start]
        _step_lanes(s, stop - start, r)
        if stop == last_steps:
            after = s[:, (m - 1) * n :].T.copy()
        r *= np.uint64(5)
        np.right_shift(r, np.uint64(57), out=t)
        r <<= np.uint64(7)
        r |= t
        r *= np.uint64(9)
        r = r.reshape(-1, m, n)
        out[:, :whole].reshape(n, m - 1, steps, copy=False)[:, :, start:stop] = r[:, : m - 1].T
        if stop <= last_steps:
            out[:, whole + start : whole + stop] = r[:, m - 1].T
    return after


def _fill(states: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """`count` draws from each of the n streams that start at `states`
    (n, 4), as an (n, count) uint64 array, and the n states after them."""
    if count < 0:
        raise ValueError(f"draw count {count} is negative")
    n = len(states)
    out = np.empty((n, count), dtype=np.uint64)
    after = np.array(states, dtype=np.uint64).reshape(n, 4)
    if n * count < _LANE_MIN_COUNT:
        for i in range(n):
            out[i], after[i] = _scalar_fill([int(w) for w in after[i]], count)
        return out, after
    return out, _fill_lanes(after, out, _lane_level(n, count))


def fill_streams(seeds: Sequence[int], count: int) -> np.ndarray:
    """The first `count` raw outputs of a fresh stream for each seed, as a
    (len(seeds), count) uint64 array; row i is
    ``Xoshiro256StarStar(seeds[i]).fill_uint64(count)``."""
    states = np.array([_seed_state(seed) for seed in seeds], dtype=np.uint64)
    return _fill(states.reshape(-1, 4), count)[0]


def doubles_from(raw: np.ndarray) -> np.ndarray:
    """Uniform float64 samples in [0, 1), one per raw draw."""
    u = (raw >> np.uint64(11)).astype(np.float64)
    u *= _DOUBLE_SCALE
    return u


def box_muller_polar(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Box-Muller radius sqrt(-2 ln u1) and angle 2*pi*u2 of each
    uniform pair (u1, u2) along the last axis of `u`, as float64 arrays.

    u1 is floored at 2**-53, so the radius is at most sqrt(106 ln 2) =
    8.57, and the angle lies in [0, 2*pi).
    """
    u1 = np.maximum(u[..., 0::2], _DOUBLE_SCALE)  # avoid log(0)
    return np.sqrt(-2.0 * np.log(u1)), 2.0 * math.pi * u[..., 1::2]


def box_muller(u: np.ndarray) -> np.ndarray:
    """Standard-normal float64 samples from uniforms in [0, 1), one each.

    The last axis holds uniform pairs, so its length must be even; each
    pair gives its cosine-branch sample radius * cos(angle), then its
    sine-branch one radius * sin(angle) (`box_muller_polar`).
    """
    radius, angle = box_muller_polar(u)
    z = np.empty(u.shape)
    z[..., 0::2] = radius * np.cos(angle)
    z[..., 1::2] = radius * np.sin(angle)
    return z


def integers_below_from(raw: np.ndarray, bound: int) -> np.ndarray:
    """Uniform integers in [0, bound) as int64, one per raw draw.

    Computed as floor(u * bound) from the 53-bit uniforms; the floor map
    keeps the stream consumption at exactly one draw per value.
    """
    if bound <= 0:
        raise ValueError("bound must be positive")
    u = doubles_from(raw)
    u *= bound
    values = u.astype(np.int64)
    return np.minimum(values, bound - 1, out=values)


class Xoshiro256StarStar:
    """xoshiro256** stream seeded from a 64-bit integer via splitmix64."""

    def __init__(self, seed: int):
        self._s = _seed_state(seed)

    def next_uint64(self) -> int:
        (r,), self._s = _scalar_fill(self._s, 1)
        return r

    def fill_uint64(self, count: int) -> np.ndarray:
        """Generate `count` raw outputs as a uint64 array.

        Equal to `count` calls of `next_uint64`, the state after included.
        """
        out, after = _fill(np.array([self._s], dtype=np.uint64), count)
        self._s = [int(w) for w in after[0]]
        return out[0]

    def next_double(self) -> float:
        return (self.next_uint64() >> 11) * _DOUBLE_SCALE

    def doubles(self, count: int) -> np.ndarray:
        """Uniform float64 samples in [0, 1)."""
        return doubles_from(self.fill_uint64(count))

    def normals(self, count: int) -> np.ndarray:
        """Standard-normal float64 samples via Box-Muller.

        Uniform pairs are consumed two at a time; for odd `count` the spare
        sine-branch sample is discarded, so consumption is always an even
        number of raw draws.
        """
        if count < 0:
            raise ValueError(f"draw count {count} is negative")
        return box_muller(self.doubles(2 * ((count + 1) // 2)))[:count]

    def integers_below(self, bound: int, count: int) -> np.ndarray:
        """Uniform integers in [0, bound) as int64; see `integers_below_from`."""
        return integers_below_from(self.fill_uint64(count), bound)

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
