"""Cache replacement simulation over destination reference strings.

Policies:

* MIN  - offline optimal: evict the entry whose next use is farthest away
* LRU  - evict the least recently used entry
* FIFO - evict the entry resident longest; hits do not refresh position
* RAND - evict a uniformly random entry (seeded, reproducible)

Every reference to an address not currently cached counts as one miss,
including compulsory misses while the cache is filling.

LRU is a stack algorithm: capacity c misses exactly the references whose
stack distance exceeds c, so every LRU sweep is read off the prepared
string's one stack distance histogram (`lru_curve_from_distances`).  The
other policies run every capacity on the prepared string without its
immediate repeats, which hit under every policy and change no state;
`references` still counts them.  MIN's next-use keys are scattered from
the prepared previous-use array; nothing is sorted again.  Two
capacities need no simulation: at c >= D (distinct destinations) only
the D compulsory misses remain, and at c = 1 every remaining reference
misses.  All counts are exact.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from heapq import heapify, heappush, heapreplace
from math import inf
from operator import attrgetter
from typing import Sequence, TextIO

import numpy as np

from ._csvfmt import write_curve_table
from ._rng import derive_seed, randbelow_stream
from .locality import StackDistanceHistogram, _refs

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


def _min_keys(refs) -> array:
    """Belady eviction keys of the collapsed string: -next use, or i - 2n at a last use.

    Smaller keys evict first.  "Never used again" keys lie below -n and any
    next use is above it, so infinite next uses go first, oldest last use
    first among them.  Kept as a C array: 8 bytes a key, not an int object.
    """
    prev = refs.collapsed_prev
    n = len(prev)
    keys = np.arange(-2 * n, -n, dtype=np.int64)
    reref = np.flatnonzero(prev >= 0)
    at = prev[reref]
    keys[at] = np.negative(reref, out=reref)
    del reref, at
    packed = array("q")
    packed.frombytes(keys.view(np.uint8))
    return packed


def _min_misses(seq: list[int], keys: array, capacity: int) -> int:
    # The heap holds one key per reference still resident, plus the keys of
    # re-referenced entries (stale).  At step i a stale key is >= -i, while a
    # resident's key is < -i, so a stale key never reaches the top and the
    # victim follows from the key alone.  Stale keys are dropped once the
    # heap holds about two per slot.
    n = len(seq)
    cache: set[int] = set()
    heap: list[int] = []
    limit = 2 * capacity
    misses = 0
    for i, a in enumerate(seq):
        if a in cache:
            heappush(heap, keys[i])
            if len(heap) > limit:
                heap = [k for k in heap if k < -i]
                heapify(heap)
            continue
        misses += 1
        if len(cache) >= capacity:
            k = heapreplace(heap, keys[i])
            cache.remove(seq[-k] if k >= -n else seq[k + 2 * n])
        else:
            heappush(heap, keys[i])
        cache.add(a)
    return misses


def _fifo_misses(seq: list[int], capacity: int) -> int:
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


def _rand_misses(seq: list[int], capacity: int, seed: int) -> int:
    # Victim slots are the successive values of randbelow(capacity) on
    # stream `seed`; the stream draws them in blocks, so this loop only indexes.
    victims = randbelow_stream(seed, capacity)
    slots: list[int] = []
    index: dict[int, int] = {}
    misses = 0
    for a in seq:
        if a in index:
            continue
        misses += 1
        if len(slots) >= capacity:
            pos = next(victims)
            del index[slots[pos]]
            slots[pos] = a
            index[a] = pos
        else:
            index[a] = len(slots)
            slots.append(a)
    return misses


def _simulate_all(
    dst_sequence: Sequence[int], policy: str, capacities: Sequence[int], seeds: Sequence[int]
) -> tuple[CacheStats, ...]:
    """Miss counts at each capacity (RAND on the matching seed), from one prepared string."""
    refs = _refs(dst_sequence)
    n = len(refs)
    if n == 0:
        raise ValueError("cannot simulate an empty reference sequence")
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}, expected one of {', '.join(POLICIES)}")
    if policy == "LRU":
        return lru_curve_from_distances(refs.hist, capacities).entries
    seq, distinct = refs.collapsed.tolist(), refs.distinct
    keys = None
    entries = []
    for c, seed in zip(capacities, seeds):
        if c < 1:
            raise ValueError(f"capacity must be >= 1, got {c}")
        if c >= distinct:
            misses = distinct         # nothing is ever evicted
        elif c == 1:
            misses = len(seq)         # no reference repeats the one before it
        elif policy == "MIN":
            if keys is None:
                keys = _min_keys(refs)
            misses = _min_misses(seq, keys, c)
        elif policy == "FIFO":
            misses = _fifo_misses(seq, c)
        else:
            misses = _rand_misses(seq, c, seed)
        entries.append(CacheStats(c, n, misses))
    return tuple(entries)


def simulate(dst_sequence: Sequence[int], policy: str, capacity: int, seed: int = 0) -> CacheStats:
    """Count misses for one policy at one capacity.

    `seed` matters only for RAND; identical seeds give identical victim
    choices on every platform.  RAND runs on stream `seed` itself, while
    `sweep(seed=s)` runs capacity c on stream `derive_seed(s, c)`.
    """
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    return _simulate_all(dst_sequence, policy, (capacity,), (seed,))[0]


def sweep(
    dst_sequence: Sequence[int], policy: str, capacities: Sequence[int], seed: int = 0
) -> MissCurve:
    """Simulate one policy across a capacity sweep.

    The reference string is prepared once for the whole sweep.  Each RAND
    capacity c runs on its own stream, `derive_seed(seed, c)`, so adding
    or removing capacities never perturbs the others.
    """
    if not capacities:
        raise ValueError("capacity sweep is empty")
    seeds = [derive_seed(seed, c) for c in capacities]
    return MissCurve(policy, _simulate_all(dst_sequence, policy, capacities, seeds))


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
