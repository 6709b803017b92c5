"""Normalized search time and optimal cache sizing."""

from __future__ import annotations

import io
import random
from math import log2

import numpy as np
import pytest

from addrloc.cachesim import CacheStats, MissCurve, sweep
from addrloc.searchcost import (
    SearchTimeCurve,
    SearchTimePoint,
    binary_search_cost,
    constant_cost,
    normalized_search_time,
    optimal_cache_size,
    search_time_curve,
    write_search_time_csv,
)


def test_binary_search_cost():
    assert binary_search_cost(1) == 1.0
    assert binary_search_cost(2) == 2.0
    assert binary_search_cost(296) == pytest.approx(1 + log2(296))
    with pytest.raises(ValueError):
        binary_search_cost(0)


def test_constant_cost():
    assert constant_cost(1) == constant_cost(10**6) == 1.0


def test_full_cache_with_no_misses_is_exactly_one():
    for n in (1, 2, 30, 296, 1000):
        assert normalized_search_time(0.0, n, n) == 1.0
        assert normalized_search_time(0.0, n, n, cost=constant_cost) == 1.0


def test_single_entry_cache_with_full_misses():
    t = normalized_search_time(1.0, 1, 296)
    assert t == pytest.approx(1.109, abs=5e-4)


def test_no_miss_lower_envelope():
    for n in (2, 10, 100):
        expected = binary_search_cost(1) / binary_search_cost(n)
        assert normalized_search_time(0.0, 1, n) == pytest.approx(expected, abs=1e-15)


def test_decomposition_identity():
    rnd = random.Random(17)
    for cost in (binary_search_cost, constant_cost):
        for _ in range(300):
            n = rnd.randint(1, 5000)
            c = rnd.randint(1, n)
            p = rnd.random()
            t = normalized_search_time(p, c, n, cost=cost)
            assert abs(t - (cost(c) / cost(n) + p)) <= 1e-12


def test_monotone_in_miss_ratio():
    times = [normalized_search_time(p / 10, 8, 100) for p in range(11)]
    assert all(b > a for a, b in zip(times, times[1:]))


def test_parameter_validation():
    with pytest.raises(ValueError):
        normalized_search_time(-0.1, 1, 10)
    with pytest.raises(ValueError):
        normalized_search_time(1.1, 1, 10)
    with pytest.raises(ValueError):
        normalized_search_time(0.5, 0, 10)
    with pytest.raises(ValueError):
        normalized_search_time(0.5, 11, 10)


# Each function and size argument, then sizes that are not integers >= 1:
# True once read as 1, and 2.5 as a size.
_SIZED_CALLS = [
    ("normalized_search_time", "cache_size", lambda v: normalized_search_time(0.5, v, 10)),
    ("normalized_search_time", "database_size", lambda v: normalized_search_time(0.5, 1, v)),
    (
        "search_time_curve",
        "database_size",
        lambda v: search_time_curve(MissCurve("LRU", (CacheStats(1, 4, 2),)), v),
    ),
    ("binary_search_cost", "table_size", binary_search_cost),
    ("constant_cost", "table_size", constant_cost),
]
_BAD_SIZES = [True, np.True_, False, 2.5, 2.0, "2", None, 0, -3]


@pytest.mark.parametrize("value", _BAD_SIZES, ids=repr)
@pytest.mark.parametrize(
    "argument,call", [c[1:] for c in _SIZED_CALLS], ids=[f"{f}-{a}" for f, a, _ in _SIZED_CALLS]
)
def test_sizes_must_be_integers_at_least_one(argument, call, value):
    with pytest.raises(ValueError, match=f"^{argument} must be an integer >= 1, got "):
        call(value)


def test_numpy_integer_sizes_are_accepted():
    time = normalized_search_time(0.5, np.int64(2), np.int32(8))
    assert time == normalized_search_time(0.5, 2, 8)
    assert binary_search_cost(np.uint8(4)) == 3.0 and constant_cost(np.int16(9)) == 1.0


def test_curve_applies_formula_pointwise():
    seq = [0, 1, 2, 0, 1, 2] * 10
    miss_curve = sweep(seq, "LRU", [1, 2, 3])
    curve = search_time_curve(miss_curve, 3)
    assert curve.policy == "LRU" and curve.database_size == 3
    for point in curve.entries:
        expected = binary_search_cost(point.capacity) / binary_search_cost(3) + point.miss_ratio
        assert point.time == pytest.approx(expected, abs=1e-15)


def test_curve_rejects_capacity_beyond_database():
    miss_curve = MissCurve("LRU", (CacheStats(8, 100, 10),))
    with pytest.raises(ValueError):
        search_time_curve(miss_curve, 4)


def test_zero_miss_curve_increases_with_capacity():
    entries = tuple(CacheStats(c, 100, 0) for c in (1, 2, 4, 8))
    curve = search_time_curve(MissCurve("LRU", entries), 8)
    times = [p.time for p in curve.entries]
    assert all(b > a for a, b in zip(times, times[1:]))


def test_optimal_cache_size():
    curve = SearchTimeCurve(
        "LRU", 8, (SearchTimePoint(1, 0, 0.9), SearchTimePoint(2, 0, 0.7), SearchTimePoint(4, 0, 0.8))
    )
    assert optimal_cache_size(curve) == (2, 0.7)


def test_optimal_cache_size_tie_takes_smallest():
    curve = SearchTimeCurve(
        "LRU", 8, (SearchTimePoint(2, 0, 0.5), SearchTimePoint(4, 0, 0.5))
    )
    assert optimal_cache_size(curve) == (2, 0.5)


def test_optimal_cache_size_empty():
    with pytest.raises(ValueError):
        optimal_cache_size(SearchTimeCurve("LRU", 8, ()))


def test_search_time_csv():
    entries = tuple(CacheStats(c, 4, m) for c, m in ((1, 4), (2, 2)))
    curve = search_time_curve(MissCurve("LRU", entries), 2)
    buf = io.StringIO()
    write_search_time_csv([curve], buf)
    t1 = binary_search_cost(1) / binary_search_cost(2) + 1.0
    assert buf.getvalue() == f"capacity,LRU\n1,{t1!r}\n2,1.5\n"
