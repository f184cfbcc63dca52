"""Deterministic stream derivation and generator statistics.

The lane-parallel generator is checked lane by lane against the scalar
Stream, which stays the reference for every draw.  The byte streams
themselves are pinned to committed integers: keys, Stream draws and Lanes
draws, which any change to mix64, GOLDEN or the xoshiro step alters.
"""

import numpy as np
import pytest
from draws import random

from gradsurf.rng import (
    _GOLDEN,
    Lanes,
    Stream,
    _expand,
    derive_key,
    derive_keys,
    derive_stream,
)


def test_same_key_gives_same_sequence():
    a = derive_stream(7, "experiment/a")
    b = derive_stream(7, "experiment/a")
    assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]


def test_distinct_labels_and_seeds_diverge():
    base = [derive_stream(7, "a").next_u64() for _ in range(4)]
    assert base != [derive_stream(7, "b").next_u64() for _ in range(4)]
    assert base != [derive_stream(8, "a").next_u64() for _ in range(4)]


def test_derive_composes_keys():
    parent = derive_stream(3, "x")
    child = parent.derive("y")
    assert child.key == derive_key(derive_key(3, "x"), "y")
    direct = Stream(child.key)
    assert [child.next_u64() for _ in range(5)] == [direct.next_u64() for _ in range(5)]


def test_key_is_64_bit():
    k = derive_key(2**64 - 1, "node/123")
    assert 0 <= k < 2**64
    with pytest.raises(ValueError):
        derive_key(-1, "x")
    with pytest.raises(ValueError):
        derive_key(2**64, "x")


def test_nearby_labels_give_distant_keys():
    # avalanche: one character of difference should flip many bits
    a = derive_key(0, "node/1")
    b = derive_key(0, "node/2")
    assert bin(a ^ b).count("1") > 10


@pytest.mark.parametrize(
    "seed, label, key",
    [
        (0, "", 0xE220A8397B1DCDAF),
        (0, "sample", 0xCB018DD0A5A7F3B5),
        (7, "experiment/a", 0x477EC11DB528F4EC),
        (2**64 - 1, "node/123", 0xF87B7ADEBB1E5F2C),
    ],
    ids=["empty-label", "sample", "experiment-a", "max-seed"],
)
def test_derive_key_is_pinned(seed, label, key):
    assert derive_key(seed, label) == key


@pytest.mark.parametrize(
    "key, draws",
    [
        (0, [0x99EC5F36CB75F2B4, 0xBF6E1F784956452A, 0x1A5F849D4933E6E0, 0x6AA594F1262D2D2C]),
        (
            0xCB018DD0A5A7F3B5,
            [0xA2F9A02A7E4846D0, 0x3F5AF5AA2E852FCE, 0x3C69C35739B5C0B3, 0xDBAC73C77CD6FDEA],
        ),
    ],
    ids=["key-0", "key-0-sample"],
)
def test_stream_draws_are_pinned(key, draws):
    s = Stream(key)
    assert [s.next_u64() for _ in range(4)] == draws


def test_lanes_draws_are_pinned():
    lanes = Lanes(np.array([0, 1, 2**64 - 1], dtype=np.uint64))
    rows = np.arange(3)
    assert lanes.next_u64(rows).tolist() == [
        0x99EC5F36CB75F2B4,
        0xB3F2AF6D0FC710C5,
        0x8F5520D52A7EAD08,
    ]
    assert lanes.next_u64(rows).tolist() == [
        0xBF6E1F784956452A,
        0x853B559647364CEA,
        0xC476A018CAA1802D,
    ]
    assert lanes.below(121, rows).tolist() == [113, 41, 97]


def test_random_in_unit_interval_and_roughly_uniform():
    s = derive_stream(11, "uniform")
    draws = [random(s) for _ in range(20000)]
    assert all(0.0 <= d < 1.0 for d in draws)
    mean = sum(draws) / len(draws)
    assert abs(mean - 0.5) < 0.02
    low = sum(1 for d in draws if d < 0.25) / len(draws)
    assert abs(low - 0.25) < 0.02


def test_below_bounds_and_frequencies():
    s = derive_stream(5, "below")
    counts = [0] * 7
    n = 14000
    for _ in range(n):
        k = s.below(7)
        counts[k] += 1
    for c in counts:
        assert abs(c / n - 1 / 7) < 0.03


def test_below_rejects_nonpositive():
    s = derive_stream(0, "x")
    with pytest.raises(ValueError):
        s.below(0)
    with pytest.raises(ValueError):
        s.below(-3)


def test_choose_is_distinct_and_in_range():
    s = derive_stream(9, "choose")
    for _ in range(50):
        picked = s.choose(121, 5)
        assert len(picked) == 5
        assert len(set(picked)) == 5
        assert all(0 <= k < 121 for k in picked)


def test_choose_full_range_is_permutation():
    s = derive_stream(9, "perm")
    assert sorted(s.choose(10, 10)) == list(range(10))


def test_choose_deterministic():
    assert derive_stream(4, "c").choose(50, 8) == derive_stream(4, "c").choose(50, 8)


def test_choose_invalid_sizes():
    s = derive_stream(0, "x")
    with pytest.raises(ValueError):
        s.choose(5, 6)
    with pytest.raises(ValueError):
        s.choose(5, -1)


@pytest.mark.parametrize("seed", [0, 12345, 2**64 - 1])
def test_derive_keys_match_derive_key_for_1_to_5_digit_labels(seed):
    keys = derive_keys(seed, "node/", 10201)
    assert keys.dtype == np.uint64
    assert keys.tolist() == [derive_key(seed, f"node/{k}") for k in range(10201)]


def test_derive_keys_for_short_counts():
    assert derive_keys(3, "x", 0).size == 0
    assert derive_keys(3, "x", 1).tolist() == [derive_key(3, "x0")]
    assert derive_keys(3, "x", 11).tolist() == [derive_key(3, f"x{k}") for k in range(11)]


def lanes_and_streams(count, seed=7):
    keys = derive_keys(seed, "lane/", count)
    return Lanes(keys), [Stream(int(k)) for k in keys]


def test_lanes_next_u64_match_streams_and_advance_only_named_lanes():
    lanes, streams = lanes_and_streams(12)
    for rows in ([0, 1, 2, 3], [5], list(range(12)), [11, 0, 7]):
        got = lanes.next_u64(np.array(rows)).tolist()
        assert got == [streams[k].next_u64() for k in rows]


def test_lanes_below_with_about_half_the_draws_rejected():
    # 2**64 % n = 2**63 - 1, so every draw from 2**63 + 1 on is rejected
    n = 2**63 + 1
    limit = (1 << 64) - (1 << 64) % n
    lanes, streams = lanes_and_streams(64)
    # shadows draw the same raw sequence, to count the rejections
    _, shadows = lanes_and_streams(64)
    rows = np.arange(64)
    rejected = 0
    for _ in range(4):
        got = lanes.below(n, rows).tolist()
        assert got == [s.below(n) for s in streams]
        for shadow in shadows:
            while shadow.next_u64() >= limit:
                rejected += 1
    assert rejected > 50


@pytest.mark.parametrize("n", [1, 2, 2**10, 2**63])
def test_lanes_below_power_of_two_accepts_every_draw(n):
    # the limit is 2**64 itself, which a uint64 cannot hold
    lanes, streams = lanes_and_streams(16)
    rows = np.arange(16)
    for _ in range(3):
        assert lanes.below(n, rows).tolist() == [s.below(n) for s in streams]
    # exactly one draw per call: the lanes stay in step with the streams
    assert lanes.next_u64(rows).tolist() == [s.next_u64() for s in streams]


def test_lanes_below_small_n_on_a_subset():
    lanes, streams = lanes_and_streams(10)
    for n, rows in ((121, [0, 3, 9]), (7, list(range(10))), (2**64 - 1, [4])):
        got = lanes.below(n, np.array(rows)).tolist()
        assert got == [streams[k].below(n) for k in rows]


def test_lanes_below_rejects_n_outside_uint64():
    lanes, _ = lanes_and_streams(2)
    for n in (0, -1, 2**64):
        with pytest.raises(ValueError):
            lanes.below(n, np.arange(2))


def test_keys_that_zero_a_state_word_zero_only_that_word():
    # mix64(0) == 0, so key -(i+1)*GOLDEN zeroes word i; no key zeroes two
    # words (that needs k*GOLDEN == 0 mod 2**64 for 0 < k < 4), so the
    # state is never all zero and needs no guard
    keys = [(-(i + 1) * _GOLDEN) % 2**64 for i in range(4)]
    for i, key in enumerate(keys):
        words = _expand(key)
        lane_words = [int(w[0]) for w in _expand(np.array([key], dtype=np.uint64))]
        assert lane_words == words
        assert [k for k, w in enumerate(words) if w == 0] == [i]
    lanes = Lanes(np.array(keys, dtype=np.uint64))
    streams = [Stream(key) for key in keys]
    rows = np.arange(4)
    for _ in range(8):
        assert lanes.next_u64(rows).tolist() == [s.next_u64() for s in streams]
