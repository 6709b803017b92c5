"""Slow reference implementations that the fast product code is checked against."""

from __future__ import annotations

import bisect
import heapq
from collections import Counter, deque
from functools import lru_cache
from itertools import groupby
from math import inf
from typing import Callable, Iterable, Sequence

import numpy as np

from addrloc._rng import derive_seed
from addrloc.locality import (
    ConcentrationCurve,
    RunLengthHistogram,
    StackDistanceHistogram,
    WorkingSetReport,
)
from addrloc.trace import InternTable, Trace, TraceOrderError, TraceParseError

from helpers import rows

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


class FenwickTree:
    """Prefix sums over slot activity flags, 1-based."""

    __slots__ = ("size", "tree")

    def __init__(self, size: int, active_prefix: int = 0):
        # Linear-time build of a tree whose first `active_prefix` slots are 1.
        self.size = size
        values = [0] * (size + 1)
        for i in range(1, active_prefix + 1):
            values[i] = 1
        for i in range(1, size + 1):
            parent = i + (i & -i)
            if parent <= size:
                values[parent] += values[i]
        self.tree = values

    def add(self, index: int, delta: int) -> None:
        while index <= self.size:
            self.tree[index] += delta
            index += index & -index

    def prefix_sum(self, index: int) -> int:
        total = 0
        while index > 0:
            total += self.tree[index]
            index -= index & -index
        return total


_MIN_SLOTS = 64


def stack_distances_fenwick(seq: Sequence[int]) -> list:
    """Move-to-top stack distances from one sequential pass over a Fenwick tree."""
    # One slot per reference; a slot is active while it is the most recent
    # use of its address.  The distance of a re-reference is the number of
    # active slots after the address's own, plus one.  Compacting whenever
    # the slot array fills keeps the tree O(D) wide.
    slot_of: dict[int, int] = {}
    capacity = _MIN_SLOTS
    tree = FenwickTree(capacity)
    next_slot = 1
    distances: list = []
    for a in seq:
        old = slot_of.get(a)
        if old is None:
            distances.append(inf)
        else:
            distances.append(len(slot_of) - tree.prefix_sum(old) + 1)
            tree.add(old, -1)
            del slot_of[a]  # keep the dict in step with the tree for compaction
        if next_slot > capacity:
            # Renumber active slots 1..A in recency order, then regrow.
            ordered = sorted(slot_of.items(), key=lambda item: item[1])
            for rank, (addr, _) in enumerate(ordered, start=1):
                slot_of[addr] = rank
            active = len(slot_of)
            capacity = max(_MIN_SLOTS, 2 * active)
            tree = FenwickTree(capacity, active_prefix=active)
            next_slot = active + 1
        tree.add(next_slot, 1)
        slot_of[a] = next_slot
        next_slot += 1
    return distances


def greater_before_insort(values: Sequence[int]) -> list[int]:
    """Per position k, #{j < k : values[j] > values[k]}, from a sorted list of
    the values before k (each insert moves O(k) entries: O(m**2) in all)."""
    before: list[int] = []
    counts = []
    for k, v in enumerate(values):
        counts.append(k - bisect.bisect_right(before, v))
        bisect.insort(before, v)
    return counts


def zero_for_inf(distances: Sequence) -> list:
    """An oracle's distance list in the product's form: 0 marks a first reference."""
    return [0 if d is inf else d for d in distances]


def stack_histogram(distances: Sequence) -> StackDistanceHistogram:
    """The histogram of an oracle's distance list: references counted per
    distance, first references (math.inf in the list) at index 0."""
    counts = Counter(zero_for_inf(distances))
    return StackDistanceHistogram([counts[d] for d in range(max(counts, default=0) + 1)])


# Per-capacity simulators: each replays the whole reference string at one
# capacity, with no shared preparation and no shortcuts.

def simulate_min(seq: Sequence[int], capacity: int) -> int:
    return len(min_miss_positions(seq, capacity))


def min_miss_positions(seq: Sequence[int], capacity: int) -> list[int]:
    """The positions at which MIN misses."""
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
    misses = []
    for i, a in enumerate(seq):
        nxt = next_use[i]
        if a in cache:
            cache[a] = (nxt, i)
            heapq.heappush(heap, (-nxt, i, a))
            continue
        misses.append(i)
        if len(cache) >= capacity:
            while True:
                neg_next, last, victim = heapq.heappop(heap)
                if cache.get(victim) == (-neg_next, last):
                    del cache[victim]
                    break
        cache[a] = (nxt, i)
        heapq.heappush(heap, (-nxt, i, a))
    return misses


def min_keys_loop(seq: Sequence[int]) -> list[int]:
    """Belady keys of a string: -next use, or i - 2n when position i is a last use."""
    n = len(seq)
    keys = [0] * n
    upcoming: dict[int, int] = {}
    for i in range(n - 1, -1, -1):
        a = seq[i]
        j = upcoming.get(a)
        keys[i] = i - 2 * n if j is None else -j
        upcoming[a] = i
    return keys


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


class SplitMix64:
    """Scalar splitmix64: the reference for the block streams in `addrloc._rng`."""

    __slots__ = ("_state",)
    _MASK64 = (1 << 64) - 1

    def __init__(self, seed: int):
        self._state = seed & self._MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & self._MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * 2.0**-53

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n), rejection-sampled to avoid modulo bias."""
        if n <= 0:
            raise ValueError(f"randbelow() requires n >= 1, got {n}")
        limit = self._MASK64 + 1 - ((self._MASK64 + 1) % n)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % n


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


# Line-by-line and per-frame forms of the columnar trace code and the
# vectorized locality kernels.

def parse_trace_by_line(lines: Iterable[str]) -> tuple[list[tuple], tuple[str, ...]]:
    """The frames and address tokens of a trace file, parsed one line at a time.

    Frames are (timestamp, src, dst, proto, length) tuples, as
    `helpers.rows` yields them.  Accepts any timestamp or length int()
    accepts; the product parser also bounds them to int64.
    """
    interns = InternTable()
    records: list[tuple] = []
    prev_ts = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) < 3 or len(fields) > 5:
            raise TraceParseError(lineno, f"expected 3 to 5 tab-separated fields, got {len(fields)}")
        try:
            ts = int(fields[0])
        except ValueError:
            raise TraceParseError(lineno, f"bad timestamp {fields[0]!r}") from None
        if ts < 0:
            raise TraceParseError(lineno, f"negative timestamp {ts}")
        if prev_ts is not None and ts < prev_ts:
            raise TraceOrderError(lineno, f"timestamp {ts} decreases below {prev_ts}")
        prev_ts = ts
        src_tok, dst_tok = fields[1], fields[2]
        if not src_tok or not dst_tok:
            raise TraceParseError(lineno, "empty address token")
        proto = fields[3] if len(fields) > 3 and fields[3] != "" else None
        length = None
        if len(fields) > 4:
            try:
                length = int(fields[4])
            except ValueError:
                raise TraceParseError(lineno, f"bad length {fields[4]!r}") from None
            if length < 0:
                raise TraceParseError(lineno, f"negative length {length}")
        records.append((ts, interns.intern(src_tok), interns.intern(dst_tok), proto, length))
    return records, interns.tokens


def working_set_loop(dst_sequence: Sequence[int], window: int, mode: str) -> WorkingSetReport:
    """Working set by counting each window's distinct ids directly."""
    n = len(dst_sequence)
    if mode == "disjoint":
        window_count = n // window
        total = 0
        for w in range(window_count):
            total += len(set(dst_sequence[w * window : (w + 1) * window]))
        return WorkingSetReport(window, mode, total / window_count, window_count)
    counts: Counter = Counter()
    distinct = 0
    total = 0
    window_count = n - window + 1
    for i, a in enumerate(dst_sequence):
        counts[a] += 1
        if counts[a] == 1:
            distinct += 1
        if i >= window:
            old = dst_sequence[i - window]
            counts[old] -= 1
            if counts[old] == 0:
                distinct -= 1
        if i >= window - 1:
            total += distinct
    return WorkingSetReport(window, mode, total / window_count, window_count)


def run_lengths_groupby(dst_sequence: Sequence[int]) -> RunLengthHistogram:
    counts: Counter = Counter()
    for _, group in groupby(dst_sequence):
        counts[sum(1 for _ in group)] += 1
    return RunLengthHistogram(dict(counts), sum(counts.values()))


def concentration_curve_counter(dst_sequence: Sequence[int]) -> ConcentrationCurve:
    freq = Counter(dst_sequence)
    ranked = sorted(freq.items(), key=lambda item: (-item[1], item[0]))
    counts = np.array([c for _, c in ranked], dtype=np.int64)
    d = len(counts)
    return ConcentrationCurve(
        destination_fractions=np.arange(1, d + 1, dtype=np.float64) / d,
        frame_fractions=np.cumsum(counts) / len(dst_sequence),
    )


def select_rows(trace: Trace, mask: np.ndarray) -> Trace:
    """The frames where `mask` holds, re-interned from their token rows as a parse would."""
    return Trace.from_token_rows(
        (ts, trace.token_of(src), trace.token_of(dst), proto, length)
        for (ts, src, dst, proto, length), chosen in zip(rows(trace), mask.tolist())
        if chosen
    )


def split_by_protocol_rows(
    trace: Trace, proto_predicate: Callable[[str], bool]
) -> tuple[Trace, Trace]:
    """Split frame by frame, re-interning each side from its token rows."""
    tags = [proto for _, _, _, proto, _ in rows(trace)]
    matching = np.array([tag is not None and bool(proto_predicate(tag)) for tag in tags], bool)
    return select_rows(trace, matching), select_rows(trace, ~matching)
