"""Slow reference implementations that the fast product code is checked against."""

from __future__ import annotations

import heapq
from collections import deque
from functools import lru_cache
from math import inf
from typing import Sequence

from addrloc._rng import SplitMix64, derive_seed

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


# Per-capacity simulators: each replays the whole reference string at one
# capacity, with no shared preparation and no shortcuts.

def simulate_min(seq: Sequence[int], capacity: int) -> int:
    n = len(seq)
    next_use: list = [inf] * n
    upcoming: dict[int, int] = {}
    for i in range(n - 1, -1, -1):
        a = seq[i]
        next_use[i] = upcoming.get(a, inf)
        upcoming[a] = i
    # cache maps addr -> (next use, last use); the heap holds
    # (-next use, last use, addr) with stale entries dropped lazily.
    # Ties on next use (only possible at infinity) evict the oldest
    # last use first, then the lowest address id.
    cache: dict[int, tuple] = {}
    heap: list = []
    misses = 0
    for i, a in enumerate(seq):
        nxt = next_use[i]
        if a in cache:
            cache[a] = (nxt, i)
            heapq.heappush(heap, (-nxt, i, a))
            continue
        misses += 1
        if len(cache) >= capacity:
            while True:
                neg_next, last, victim = heapq.heappop(heap)
                if cache.get(victim) == (-neg_next, last):
                    del cache[victim]
                    break
        cache[a] = (nxt, i)
        heapq.heappush(heap, (-nxt, i, a))
    return misses


def simulate_lru(seq: Sequence[int], capacity: int) -> int:
    # Insertion-ordered dict doubles as the recency list (last = most recent).
    cache: dict[int, None] = {}
    misses = 0
    for a in seq:
        if a in cache:
            del cache[a]
        else:
            misses += 1
            if len(cache) >= capacity:
                del cache[next(iter(cache))]
        cache[a] = None
    return misses


def simulate_fifo(seq: Sequence[int], capacity: int) -> int:
    cache: set[int] = set()
    order: deque[int] = deque()
    misses = 0
    for a in seq:
        if a in cache:
            continue
        misses += 1
        if len(cache) >= capacity:
            cache.discard(order.popleft())
        cache.add(a)
        order.append(a)
    return misses


def simulate_rand(seq: Sequence[int], capacity: int, seed: int) -> int:
    rng = SplitMix64(seed)
    slots: list[int] = []
    index: dict[int, int] = {}
    misses = 0
    for a in seq:
        if a in index:
            continue
        misses += 1
        if len(slots) >= capacity:
            pos = rng.randbelow(capacity)
            del index[slots[pos]]
            slots[pos] = a
            index[a] = pos
        else:
            index[a] = len(slots)
            slots.append(a)
    return misses


def oracle_misses(seq: Sequence[int], policy: str, capacity: int, seed: int = 0) -> int:
    """Misses of `policy` at `capacity`, from the per-capacity simulators."""
    if policy == "MIN":
        return simulate_min(seq, capacity)
    if policy == "LRU":
        return simulate_lru(seq, capacity)
    if policy == "FIFO":
        return simulate_fifo(seq, capacity)
    return simulate_rand(seq, capacity, seed)


def oracle_sweep(
    seq: Sequence[int], policy: str, capacities: Sequence[int], seed: int = 0
) -> list[int]:
    """Sweep misses, each RAND capacity on the stream derived from (seed, capacity)."""
    return [oracle_misses(seq, policy, c, derive_seed(seed, c)) for c in capacities]
