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
`references` still counts them.  FIFO and RAND share one list of it per
command, with ids renumbered to 0..D-1 (`_Refs.collapsed_list`), and
each keeps one D-entry list indexed by id.  FIFO evicts the entry
inserted c misses earlier, so the entry inserted at miss t is resident
until miss t + c: an expiry per id and a miss counter decide every miss.
RAND fills its c slots with the first c misses; then each victim slot
drawn from its stream, `derive_seed(seed, c)` whether one capacity or many
is asked for, waits for the next miss, so the draws are taken one per
eviction.

MIN keeps no resident set.  Its heap holds Belady keys, -(next use), so
an eviction's key names the reference that the victim's absence turns
into a miss: a mark there, plus the first-reference marks, decide every
miss (Belady, IBM Sys. J. 1966).  An LRU hit is a MIN hit at the same
capacity (Mattson et al., IBM Sys. J. 1970), so a key whose next use is
an LRU hit is never pushed, and references that are LRU hits and push
nothing are not visited.  The LRU hits come from the stack distances of
the same pass that builds the histogram.  The key of the entry the
latest miss brought in is held outside the heap, and the next miss
evicts it without a heap call when its key is below the heap's top.  On
the benchmark's traces that is most full-cache misses: 87% on the wide
trace at c = 16 and 72% on the mixed trace at c = 2; over their swept
capacities only 28% and 30% make a heap call.  A fill loop takes the
first c misses and a steady loop the rest without counting them: every
marked position is visited, so the misses are the marks.  Two
capacities need no simulation: at c >= D (distinct destinations) only
the D compulsory misses remain, and at c = 1 every remaining reference
misses.  All counts are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush, heapreplace
from math import inf
from operator import attrgetter
from typing import Sequence, TextIO

import numpy as np

from . import _checks
from ._csvfmt import write_curve_table
from ._rng import derive_seed, randbelow_stream
from .locality import _BLOCK, StackDistanceHistogram, _refs

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


class _MinPlan:
    """What every MIN capacity of one string shares, and each capacity's loop.

    A Belady key is -(next use), or i - 2n at a last use i: smaller keys
    evict first, "never used again" keys lie below -n and any next use
    above it.  An LRU hit at capacity c is a MIN hit at c (Mattson et al.,
    "Evaluation techniques for storage hierarchies", IBM Sys. J. 1970).
    So an entry whose next use is an LRU hit is never the victim before
    that use and its key is not pushed, and a position that is itself an
    LRU hit and pushes nothing leaves the loop.  LRU hits are read off the
    stack distances left by the histogram's pass (`_Refs.collapsed_distances`).
    """

    def __init__(self, refs):
        prev = refs.collapsed_prev
        n = len(prev)
        self.distances = refs.collapsed_distances
        self.reref = prev >= 0
        self.next_use = np.full(n, n, dtype=np.int32)  # n: never used again
        self.next_use[prev[self.reref]] = np.flatnonzero(self.reref)

    def loop(self, capacity: int) -> tuple[bytearray, memoryview, memoryview]:
        """The first-reference marks, then the positions left to loop over and
        their keys (0: push nothing), as int32 C arrays; the keys are int64
        only when -2n does not fit in int32.

        The arrays are views of numpy buffers: copying them into `array`s
        would hold both at once.  The positions are found a block at a time,
        so no int64 array is as long as the string.
        """
        n = len(self.reref)
        hit = np.zeros(n + 1, dtype=bool)  # hit[n] stands for "no next use"
        np.less_equal(self.distances, capacity, out=hit[:n])
        hit[:n] &= self.reref
        push = hit[self.next_use]
        np.logical_not(push, out=push)
        visit = np.logical_not(hit[:n], out=hit[:n])
        visit |= push
        positions = np.empty(np.count_nonzero(visit), dtype=np.int32)
        filled = 0
        for start in range(0, n, _BLOCK):
            block = np.flatnonzero(visit[start : start + _BLOCK])
            block += start
            positions[filled : filled + len(block)] = block
            filled += len(block)
        del hit, visit
        keys = self.next_use[positions]
        if 2 * n >= 2**31:  # a last use's key, i - 2n, needs int64
            keys = keys.astype(np.int64)
        np.negative(keys, out=keys)
        last = np.flatnonzero(keys == -n)
        keys[last] = np.subtract(positions[last], 2 * n, dtype=keys.dtype)
        keys *= push[positions]
        del push, last
        dead = bytearray(n)
        np.logical_not(self.reref, out=np.frombuffer(dead, dtype=bool))
        return dead, memoryview(positions), memoryview(keys)


def _min_misses(dead: bytearray, positions: memoryview, keys: memoryview, capacity: int) -> int:
    # dead[i] is set when reference i misses: at a first reference, and when an
    # eviction picks a key k >= -n, the victim's next use -k.  The key of the
    # entry the latest miss brought in is `held`, outside the heap; the heap
    # holds the pushed key of every other resident entry, plus the keys of
    # re-referenced entries (stale).  At step i a stale key is >= -i, while a
    # resident's key is < -i, so a stale key never reaches the top while the
    # heap holds a resident's key.  Most victims are `held`: it is the victim
    # when below the top, or when the heap is empty, and costs no heap call;
    # otherwise it goes into the heap as the top comes out.  A held entry
    # re-referenced before the next miss had an LRU hit as next use, so its key
    # is 0, above every key in the heap.  Stale keys are dropped once the heap
    # holds about two per slot.  The fill loop takes the first `capacity`
    # misses.  The steady loop counts none: every marked position is visited
    # (first references and pushed keys' next uses are not LRU hits), so the
    # misses are the marks.
    m = -len(dead)
    heap: list[int] = []
    limit = 2 * capacity
    held = misses = 0
    steps = zip(positions, keys)
    for i, k in steps:
        if dead[i]:
            if held:
                heappush(heap, held)
            held = k
            misses += 1
            if misses == capacity:
                break
        elif k:
            heappush(heap, k)
            if len(heap) > limit:
                heap = [x for x in heap if x < -i]
                heapify(heap)
    for i, k in steps:
        if dead[i]:
            if heap and heap[0] < held:
                v = heapreplace(heap, held) if held else heappop(heap)
            else:
                v = held
            if v >= m:
                dead[-v] = 1
            held = k
        elif k:
            heappush(heap, k)
            if len(heap) > limit:
                heap = [x for x in heap if x < -i]
                heapify(heap)
    return dead.count(1)


def _fifo_misses(seq: list[int], distinct: int, capacity: int) -> int:
    # The entry inserted at miss t is evicted at miss t + capacity, so it is
    # resident while fewer misses than its expiry have happened.
    expiry = [0] * distinct
    t = 0
    for a in seq:
        if expiry[a] <= t:
            t += 1
            expiry[a] = t + capacity
    return t


def _rand_misses(seq: list[int], distinct: int, capacity: int, seed: int) -> int:
    # The first `capacity` misses fill the slots in order.  After that each
    # victim slot, the next value of randbelow(capacity) on stream `seed`,
    # waits for the miss that evicts it: one draw per eviction.
    resident = [False] * distinct
    slots: list[int] = []
    refs = iter(seq)
    for a in refs:
        if not resident[a]:
            resident[a] = True
            slots.append(a)
            if len(slots) == capacity:
                break
    misses = len(slots)
    for pos in randbelow_stream(seed, capacity):  # endless: it ends at the return
        for a in refs:
            if not resident[a]:
                break
        else:
            return misses
        misses += 1
        resident[slots[pos]] = False
        resident[a] = True
        slots[pos] = a


def _capacities(capacities: Sequence[int]) -> list[int]:
    """The capacities as ints; `ValueError` for an empty sweep or any entry
    that is not an integer >= 1."""
    if not len(capacities):
        raise ValueError("capacity sweep is empty")
    return [_checks.positive_int(c, "capacity") for c in capacities]


def simulate(dst_sequence: Sequence[int], policy: str, capacity: int, seed: int = 0) -> CacheStats:
    """Count misses for one policy at one capacity: the one-capacity `sweep`.

    `seed` is checked for every policy but matters only for RAND, which
    runs on the stream that `sweep` gives this capacity,
    `derive_seed(seed, capacity)`.
    """
    return sweep(dst_sequence, policy, (capacity,), seed).entries[0]


def sweep(
    dst_sequence: Sequence[int], policy: str, capacities: Sequence[int], seed: int = 0
) -> MissCurve:
    """Simulate one policy across a capacity sweep.

    The reference string is prepared once for the whole sweep.  Each RAND
    capacity c runs on its own stream, `derive_seed(seed, c)`, so adding
    or removing capacities never perturbs the others, and identical seeds
    give identical victim choices on every platform.  Capacities must be
    integers >= 1 and the seed an integer in 0..2**64 - 1, for every policy.
    """
    capacities = _capacities(capacities)
    seed = _checks.seed(seed, "seed")
    refs = _refs(dst_sequence)
    n = len(refs)
    if n == 0:
        raise ValueError("cannot simulate an empty reference sequence")
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}, expected one of {', '.join(POLICIES)}")
    if policy == "LRU":
        return lru_curve_from_distances(refs.hist, capacities)
    distinct = refs.distinct
    plan = None
    entries = []
    for c in capacities:
        if c >= distinct:
            misses = distinct         # nothing is ever evicted
        elif c == 1:
            misses = len(refs.collapsed)  # no reference repeats the one before it
        elif policy == "MIN":
            if plan is None:
                plan = _MinPlan(refs)
            misses = _min_misses(*plan.loop(c), c)
        elif policy == "FIFO":
            misses = _fifo_misses(refs.collapsed_list, distinct, c)
        else:
            misses = _rand_misses(refs.collapsed_list, distinct, c, derive_seed(seed, c))
        entries.append(CacheStats(c, n, misses))
    return MissCurve(policy, tuple(entries))


def lru_curve_from_distances(hist: StackDistanceHistogram, capacities: Sequence[int]) -> MissCurve:
    """LRU miss counts read off a stack distance histogram, without simulating.

    Capacity c misses the first references and those at distance above c.
    Capacities must be integers >= 1.
    """
    if not hist.total:
        raise ValueError("cannot simulate an empty reference sequence")
    entries = tuple(
        CacheStats(c, hist.total, hist.total - hist.hits(c)) for c in _capacities(capacities)
    )
    return MissCurve("LRU", entries)


def write_miss_ratio_csv(curves: Sequence[MissCurve], stream: TextIO) -> None:
    """One row per capacity, one miss-ratio column per policy."""
    write_curve_table(curves, attrgetter("miss_ratio"), stream)


def write_interfault_csv(curves: Sequence[MissCurve], stream: TextIO) -> None:
    """One row per capacity, one mean-references-per-miss column per policy."""
    write_curve_table(curves, attrgetter("interfault_distance"), stream)
