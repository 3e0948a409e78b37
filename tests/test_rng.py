"""Generator correctness: frozen reference outputs and stream properties."""

import bisect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rcc import rng as rng_mod
from rcc.rng import Xoshiro256StarStar, derive_stream_seed, fill_streams, splitmix64

from oracles import second_call_peak

# Published reference outputs for splitmix64 (seed 0 and seed 42).
SPLITMIX_SEED0 = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
]
SPLITMIX_SEED42 = [0xBDD732262FEB6E95, 0x28EFE333B266F103]

# xoshiro256** outputs for the state produced by splitmix64(0), and for the
# raw state (1, 2, 3, 4) used by the algorithm authors' reference tests.
XOSHIRO_FROM_SEED0 = [
    0x99EC5F36CB75F2B4,
    0xBF6E1F784956452A,
    0x1A5F849D4933E6E0,
    0x6AA594F1262D2D2C,
    0xBBA5AD4A1F842E59,
]
XOSHIRO_STATE_1234 = [0x2D00, 0x0, 0x5A007080, 0x10E0000000009D80, 0x10E0B61CE1009D80]


def test_splitmix64_reference_outputs():
    assert splitmix64(0, 4) == SPLITMIX_SEED0
    assert splitmix64(42, 2) == SPLITMIX_SEED42


def test_splitmix64_is_prefix_stable():
    assert splitmix64(0, 2) == SPLITMIX_SEED0[:2]


def test_xoshiro_reference_outputs_seed0():
    rng = Xoshiro256StarStar(0)
    assert [rng.next_uint64() for _ in range(5)] == XOSHIRO_FROM_SEED0


def test_xoshiro_reference_outputs_raw_state():
    rng = Xoshiro256StarStar(0)
    rng._s = [1, 2, 3, 4]
    assert [rng.next_uint64() for _ in range(5)] == XOSHIRO_STATE_1234


def test_fill_uint64_matches_scalar_path():
    a = Xoshiro256StarStar(9)
    b = Xoshiro256StarStar(9)
    assert a.fill_uint64(100).tolist() == [b.next_uint64() for _ in range(100)]


def _scalar_draws(seed, count):
    """`count` draws through next_uint64, and the state after them."""
    rng = Xoshiro256StarStar(seed)
    return [rng.next_uint64() for _ in range(count)], rng._s


_SHORT = rng_mod._LANE_MIN_COUNT
_LANE = rng_mod._LANE_STEPS
_LARGE = 1024 * _LANE
# empty and one-draw fills, both sides of the short-fill threshold, whole
# and ragged last lanes, and fills of about 1024 and 2048 shortest lanes
LANE_EDGE_COUNTS = [
    0, 1, _SHORT - 1, _SHORT, _SHORT + 1,
    _LANE * 64 - 1, _LANE * 64, _LANE * 64 + 1,
    _LARGE - 1, _LARGE, _LARGE + 1, 2 * _LARGE + 7,
]


@pytest.mark.parametrize("count", LANE_EDGE_COUNTS)
def test_fill_uint64_lanes_match_scalar_stream(count):
    rng = Xoshiro256StarStar(21)
    expected, state = _scalar_draws(21, count)
    out = rng.fill_uint64(count)
    assert out.dtype == np.uint64
    assert out.tolist() == expected
    assert rng._s == state


@pytest.mark.parametrize("first", [1, _SHORT - 1, _LARGE + 1, 460_800, 921_599])
def test_fill_uint64_continues_where_the_last_fill_stopped(first):
    # the second fill starts from the state the first one left, lanes or not
    rng = Xoshiro256StarStar(31)
    parts = [rng.fill_uint64(first), rng.fill_uint64(921_600 - first)]
    whole = Xoshiro256StarStar(31)
    assert np.array_equal(np.concatenate(parts), whole.fill_uint64(921_600))
    assert rng._s == whole._s


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=10_000))
def test_fill_uint64_any_seed_and_count(seed, count):
    rng = Xoshiro256StarStar(seed)
    expected, state = _scalar_draws(seed, count)
    assert rng.fill_uint64(count).tolist() == expected
    assert rng._s == state


def _edge_counts(n):
    """Per-stream counts on both sides of each place where an n-stream fill
    changes path: the scalar threshold, the first count of each lane-length
    level, and whole and ragged lanes of each level."""
    limit = (1 << 20) // n  # bounds the scalar reference's draws
    edges = {-(-_SHORT // n)}
    for level in range(1, 5):
        edges.add(bisect.bisect_left(range(limit), level,
                                     key=lambda c: rng_mod._lane_level(n, c)))
        lane = _LANE << level
        edges.update((lane, 3 * lane))
    return sorted({c + d for c in edges for d in (-1, 0, 1) if 0 <= c + d < limit})


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.data())
def test_multi_stream_fill_matches_per_stream_draws(n, data):
    count = data.draw(st.sampled_from(_edge_counts(n)) | st.integers(0, 4000))
    seeds = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=n, max_size=n))
    streams = [Xoshiro256StarStar(seed) for seed in seeds]
    states = np.array([rng._s for rng in streams], dtype=np.uint64)
    out, after = rng_mod._fill(states, count)
    assert out.shape == (n, count) and out.dtype == np.uint64
    for i, rng in enumerate(streams):
        assert out[i].tolist() == [rng.next_uint64() for _ in range(count)], i
        assert after[i].tolist() == rng._s, i


@pytest.mark.parametrize("n, count", [(18, 29), (11, 47), (12, 48), (600, 1)])
def test_multi_stream_fill_of_one_lane_per_stream(n, count):
    # the lane path with a single, ragged lane per stream
    seeds = range(100, 100 + n)
    streams = [Xoshiro256StarStar(seed) for seed in seeds]
    out, after = rng_mod._fill(np.array([rng._s for rng in streams], dtype=np.uint64), count)
    for i, rng in enumerate(streams):
        assert out[i].tolist() == [rng.next_uint64() for _ in range(count)], i
        assert after[i].tolist() == rng._s, i


@pytest.mark.parametrize("n", [1, 7, 40])
def test_edge_counts_reach_every_path(n):
    counts = _edge_counts(n)
    assert n * min(counts) < _SHORT
    assert {rng_mod._lane_level(n, c) for c in counts} >= {0, 1, 2, 3}


def _stepped(states, steps):
    """(lanes, 4) states after `steps` lane steps."""
    s = np.ascontiguousarray(np.asarray(states, dtype=np.uint64).T)
    rng_mod._step_lanes(s, steps)
    return s.T


def _jumped(states, level):
    states = np.ascontiguousarray(states, dtype=np.uint64)
    return rng_mod._jump(states, rng_mod._table(level), np.empty_like(states))


def _byte_states(values):
    """The states whose only nonzero byte is byte p = values[v], as a
    (32 * len(values), 4) array in (p, v) order."""
    by = np.zeros((32, len(values), 32), dtype=np.uint8)
    p = np.arange(32)[:, None]
    by[p, np.arange(len(values)), p] = values
    return by.reshape(-1, 32).view(np.uint64)


SINGLE_BITS = _byte_states(1 << np.arange(8, dtype=np.uint8))
ALL_ONES = np.full((1, 4), 2**64 - 1, dtype=np.uint64)


@pytest.mark.parametrize("level", range(5))
def test_jump_of_single_bits_and_all_ones_is_stepping(level):
    states = np.concatenate([SINGLE_BITS, ALL_ONES])
    assert np.array_equal(_jumped(states, level), _stepped(states, _LANE << level))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 4), st.lists(st.lists(st.integers(0, 2**64 - 1), min_size=4, max_size=4),
                                   min_size=1, max_size=16))
def test_jump_of_any_state_is_stepping(level, words):
    assert np.array_equal(_jumped(words, level), _stepped(words, _LANE << level))


def test_squared_table_is_stepped_table():
    # level 2 is built by squaring level 1; entry [p, v] must be the state
    # whose only nonzero byte is byte p = v, stepped 4 * _LANE_STEPS times
    states = _byte_states(np.arange(256, dtype=np.uint8))
    assert np.array_equal(rng_mod._table(2).reshape(-1, 4), _stepped(states, _LANE << 2))


def test_fill_streams_rows_are_fresh_streams():
    seeds = [0, 1, 2**64 - 1, 12345]
    out = fill_streams(seeds, _LANE * 64 + 5)
    for seed, row in zip(seeds, out):
        assert row.tolist() == Xoshiro256StarStar(seed).fill_uint64(_LANE * 64 + 5).tolist()
    assert fill_streams([], 3).shape == (0, 3)


def test_large_fill_holds_no_lane_history():
    # a 640x480 image's noise draws: a (steps, lanes) history of the whole
    # fill would cost as much again as the output
    count = 640 * 480 * 3
    peak = second_call_peak(lambda: fill_streams([5], count))
    assert peak <= count * 8 + 5 * 2**20


@pytest.mark.parametrize("draw", [
    lambda rng: rng.fill_uint64(-5),
    lambda rng: rng.doubles(-5),
    lambda rng: rng.integers_below(6, -5),
    lambda rng: rng.normals(-5),
    lambda rng: rng.normals(-1),
    lambda rng: fill_streams([1, 2], -1),
])
def test_negative_draw_count_rejected(draw):
    rng = Xoshiro256StarStar(4)
    with pytest.raises(ValueError, match="negative"):
        draw(rng)
    assert rng._s == Xoshiro256StarStar(4)._s


def test_normals_at_lane_counts_match_scalar_draws():
    count = _LANE * 64 + 3
    raw, _ = _scalar_draws(13, count + 1)
    u = np.array([(x >> 11) * 2.0**-53 for x in raw])
    u1 = np.maximum(u[0::2], 2.0**-53)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u[1::2]
    expected = np.empty(count + 1)
    expected[0::2] = radius * np.cos(angle)
    expected[1::2] = radius * np.sin(angle)
    assert np.array_equal(Xoshiro256StarStar(13).normals(count), expected[:count])


def test_integers_below_at_lane_counts_match_scalar_draws():
    count = _LARGE + 1
    raw, _ = _scalar_draws(17, count)
    expected = [min(int((x >> 11) * 2.0**-53 * 11), 10) for x in raw]
    assert Xoshiro256StarStar(17).integers_below(11, count).tolist() == expected


def test_doubles_unit_interval_and_mean():
    d = Xoshiro256StarStar(7).doubles(20000)
    assert d.min() >= 0.0
    assert d.max() < 1.0
    assert abs(d.mean() - 0.5) < 0.01


def test_normals_moments():
    z = Xoshiro256StarStar(7).normals(20001)
    assert abs(z.mean()) < 0.03
    assert 0.98 < z.std() < 1.02


def test_normals_odd_count_is_even_count_prefix():
    # the spare sine-branch draw is discarded, not deferred
    odd = Xoshiro256StarStar(3).normals(5)
    even = Xoshiro256StarStar(3).normals(6)
    assert np.array_equal(odd, even[:5])


def test_integers_below_range_and_determinism():
    vals = Xoshiro256StarStar(11).integers_below(6, 5000)
    assert vals.min() >= 0
    assert vals.max() <= 5
    assert set(np.unique(vals)) == set(range(6))
    again = Xoshiro256StarStar(11).integers_below(6, 5000)
    assert np.array_equal(vals, again)


def test_integers_below_rejects_nonpositive_bound():
    with pytest.raises(ValueError):
        Xoshiro256StarStar(0).integers_below(0, 1)


def test_shuffle_is_a_permutation():
    items = list(range(200))
    rng = Xoshiro256StarStar(5)
    shuffled = items.copy()
    rng.shuffle(shuffled)
    assert shuffled != items
    assert sorted(shuffled) == items


def test_shuffle_deterministic():
    a, b = list(range(50)), list(range(50))
    Xoshiro256StarStar(8).shuffle(a)
    Xoshiro256StarStar(8).shuffle(b)
    assert a == b


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=2**32))
def test_derive_stream_seed_is_xor(seed, index):
    derived = derive_stream_seed(seed, index)
    assert 0 <= derived < 2**64
    assert derive_stream_seed(derived, index) == seed & (2**64 - 1)


def test_derived_streams_differ():
    base = Xoshiro256StarStar(derive_stream_seed(0, 1)).doubles(8)
    other = Xoshiro256StarStar(derive_stream_seed(0, 2)).doubles(8)
    assert not np.array_equal(base, other)
