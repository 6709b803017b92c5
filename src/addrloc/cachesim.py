"""Cache replacement simulation over destination reference strings.

Policies:

* MIN  - offline optimal: evict the entry whose next use is farthest away
* LRU  - evict the least recently used entry
* FIFO - evict the entry resident longest; hits do not refresh position
* RAND - evict a uniformly random entry (seeded, reproducible)

Every reference to an address not currently cached counts as one miss,
including compulsory misses while the cache is filling.  LRU miss counts
for a whole capacity sweep can also be reconstructed in one pass from the
stack distance histogram (`lru_curve_from_distances`); the two routes must
agree exactly.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from math import inf
from operator import attrgetter
from typing import Sequence, TextIO

import numpy as np

from ._csvfmt import write_curve_table
from ._rng import SplitMix64, derive_seed
from .locality import StackDistanceHistogram

POLICIES = ("MIN", "LRU", "FIFO", "RAND")


@dataclass(frozen=True)
class CacheStats:
    capacity: int
    references: int
    misses: int

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.references

    @property
    def interfault_distance(self) -> float:
        """Mean references per miss; inf when nothing missed."""
        if self.misses == 0:
            return inf
        return self.references / self.misses


@dataclass(frozen=True)
class MissCurve:
    policy: str
    entries: tuple[CacheStats, ...]

    def capacities(self) -> list[int]:
        return [e.capacity for e in self.entries]

    def miss_ratios(self) -> list[float]:
        return [e.miss_ratio for e in self.entries]


def _simulate_min(seq: Sequence[int], capacity: int) -> int:
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


def _simulate_lru(seq: Sequence[int], capacity: int) -> int:
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


def _simulate_fifo(seq: Sequence[int], capacity: int) -> int:
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


def _simulate_rand(seq: Sequence[int], capacity: int, seed: int) -> int:
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


def simulate(dst_sequence: Sequence[int], policy: str, capacity: int, seed: int = 0) -> CacheStats:
    """Count misses for one policy at one capacity.

    `seed` matters only for RAND; identical seeds give identical victim
    choices on every platform.
    """
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    n = len(dst_sequence)
    if n == 0:
        raise ValueError("cannot simulate an empty reference sequence")
    if policy == "MIN":
        misses = _simulate_min(dst_sequence, capacity)
    elif policy == "LRU":
        misses = _simulate_lru(dst_sequence, capacity)
    elif policy == "FIFO":
        misses = _simulate_fifo(dst_sequence, capacity)
    elif policy == "RAND":
        misses = _simulate_rand(dst_sequence, capacity, seed)
    else:
        raise ValueError(f"unknown policy {policy!r}, expected one of {', '.join(POLICIES)}")
    return CacheStats(capacity, n, misses)


def sweep(
    dst_sequence: Sequence[int], policy: str, capacities: Sequence[int], seed: int = 0
) -> MissCurve:
    """Simulate one policy across a capacity sweep.

    Each RAND capacity runs on its own stream derived from (seed, capacity),
    so adding or removing capacities never perturbs the others.
    """
    if not capacities:
        raise ValueError("capacity sweep is empty")
    entries = []
    for c in capacities:
        entries.append(simulate(dst_sequence, policy, c, seed=derive_seed(seed, c)))
    return MissCurve(policy, tuple(entries))


def lru_curve_from_distances(
    hist: StackDistanceHistogram, capacities: Sequence[int]
) -> MissCurve:
    """Reconstruct LRU miss counts from a stack distance histogram.

    An LRU cache of capacity c misses exactly the references whose stack
    distance exceeds c, plus every first reference, so the whole sweep
    falls out of one histogram without re-simulating.
    """
    if not capacities:
        raise ValueError("capacity sweep is empty")
    distances, counts = hist.distance_arrays()
    cumulative = np.cumsum(counts) if len(counts) else np.empty(0, dtype=np.int64)
    entries = []
    for c in capacities:
        if c < 1:
            raise ValueError(f"capacity must be >= 1, got {c}")
        idx = int(np.searchsorted(distances, c, side="right"))
        hits = int(cumulative[idx - 1]) if idx > 0 else 0
        entries.append(CacheStats(c, hist.total, hist.total - hits))
    return MissCurve("LRU", tuple(entries))


def write_miss_ratio_csv(curves: Sequence[MissCurve], stream: TextIO) -> None:
    """One row per capacity, one miss-ratio column per policy."""
    write_curve_table(curves, attrgetter("miss_ratio"), stream)


def write_interfault_csv(curves: Sequence[MissCurve], stream: TextIO) -> None:
    """One row per capacity, one mean-references-per-miss column per policy."""
    write_curve_table(curves, attrgetter("interfault_distance"), stream)
