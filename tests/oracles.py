"""Slow reference implementations that the fast product code is checked against."""

from __future__ import annotations

from functools import lru_cache
from math import inf
from typing import Sequence

_BRUTE_MAX_LENGTH = 12
_BRUTE_MAX_DISTINCT = 4
_BRUTE_MAX_CAPACITY = 3


def brute_force_optimal(dst_sequence: Sequence[int], capacity: int, *, force: bool = False) -> int:
    """Exhaustive minimum miss count over all eviction strategies.

    Exponential in the worst case; refuses inputs beyond length 12,
    4 distinct addresses, or capacity 3 unless force=True.  Exists to
    validate MIN, not to analyze real traces.
    """
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    n = len(dst_sequence)
    if n == 0:
        raise ValueError("cannot simulate an empty reference sequence")
    distinct = len(set(dst_sequence))
    if not force and (
        n > _BRUTE_MAX_LENGTH or distinct > _BRUTE_MAX_DISTINCT or capacity > _BRUTE_MAX_CAPACITY
    ):
        raise ValueError(
            f"input too large for exhaustive search (length {n}, {distinct} distinct, "
            f"capacity {capacity}); pass force=True to override"
        )
    seq = tuple(dst_sequence)

    @lru_cache(maxsize=None)
    def best(i: int, cache: frozenset) -> int:
        if i == n:
            return 0
        a = seq[i]
        if a in cache:
            return best(i + 1, cache)
        if len(cache) < capacity:
            return 1 + best(i + 1, cache | {a})
        return 1 + min(best(i + 1, (cache - {v}) | {a}) for v in cache)

    result = best(0, frozenset())
    best.cache_clear()
    return result


def stack_distances_naive(seq: Sequence[int]) -> list:
    """Move-to-top stack distances from an explicit stack; O(N * D)."""
    stack: list[int] = []
    distances: list = []
    for a in seq:
        try:
            idx = stack.index(a)
        except ValueError:
            distances.append(inf)
        else:
            distances.append(idx + 1)
            del stack[idx]
        stack.insert(0, a)
    return distances
