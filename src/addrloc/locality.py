"""Locality statistics over a destination reference string.

Four analyses, all pure functions of the ordered sequence of destination
address ids (integers in 0..2**31 - 1, as in a trace's dst column):

* concentration_curve - how much traffic the most popular destinations absorb
* working_set         - average number of distinct destinations per window
* stack_distances     - move-to-top stack depth of every re-reference
* run_lengths         - maximal runs of identical consecutive destinations

All four are numpy kernels with exact integer results.  Each takes ids or
a `_Refs`, the string prepared once per command, whose one previous-use
array serves the working set and stack distances.  The stack-distance
histogram is an array indexed by distance: `addrloc.cachesim` reads the
LRU miss curve off its running sum, and MIN's LRU-hit filter reads the
collapsed string's distances, kept from the same pass.  That pass counts
a block of `_BLOCK` positions at a time, so its scratch is bounded.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, TextIO

import numpy as np

from . import _checks
from ._csvfmt import fmt


# Largest destination id the vectorized analyses accept: a trace's int32 id.
_MAX_ID = 2**31 - 1


@dataclass(frozen=True)
class ConcentrationCurve:
    """Cumulative frame coverage by destinations ranked most-popular first.

    Point k (1-based) is (k/D, frames covered by the top k destinations / N).
    """

    destination_fractions: np.ndarray
    frame_fractions: np.ndarray

    @property
    def points(self) -> list[tuple[float, float]]:
        return list(zip(self.destination_fractions.tolist(), self.frame_fractions.tolist()))

    def quantile(self, frame_quantile: float) -> float:
        """Smallest destination fraction whose frame coverage reaches `frame_quantile`."""
        frame_quantile = _checks.fraction(frame_quantile, "frame quantile", zero=False)
        idx = int(np.searchsorted(self.frame_fractions, frame_quantile, side="left"))
        return float(self.destination_fractions[idx])


@dataclass(frozen=True)
class WorkingSetReport:
    window: int
    mode: str                # "disjoint" or "sliding"
    average_wss: float       # mean distinct destinations per window
    window_count: int


class StackDistanceHistogram:
    """References at stack distance d >= 1 in `counts[d]`, first references in `counts[0]`.

    `counts` (int64, no trailing zeros) and its running sum `cumulative`
    are read-only arrays.  The counts given must be a non-empty 1-D
    sequence of non-negative integers that some reference string gives:
    a reference at distance d needs d distinct addresses on the stack,
    each first referenced once, so the largest distance with a count,
    `len(counts) - 1`, may not exceed `counts[0]`.  Others raise
    ValueError.  `hits`, `pdf` and `cdf` take a distance that is an integer
    >= 0.  A histogram of no references has no fractions: `pdf` and `cdf`
    raise ValueError.
    """

    def __init__(self, counts: Sequence[int]):
        counts = np.asarray(counts)
        if counts.ndim != 1 or not len(counts):
            raise ValueError(f"counts must be a non-empty 1-D sequence, got shape {counts.shape}")
        counts = _checks.int_array(counts, "counts").astype(np.int64)
        if counts.min() < 0:
            raise ValueError("counts must be non-negative")
        self.counts = counts[: np.flatnonzero(counts).max(initial=0) + 1]
        if len(self.counts) - 1 > self.counts[0]:
            raise ValueError(
                f"a reference at distance {len(self.counts) - 1} needs as many distinct"
                f" addresses, but counts[0] holds {self.counts[0]} first references"
            )
        self.cumulative = np.cumsum(self.counts)
        self.counts.flags.writeable = self.cumulative.flags.writeable = False
        self.infinite_count = int(self.counts[0])
        self.total = int(self.cumulative[-1])

    def __eq__(self, other: object) -> bool:
        same = isinstance(other, StackDistanceHistogram)
        return same and np.array_equal(self.counts, other.counts)

    def __repr__(self) -> str:
        return f"StackDistanceHistogram({self.counts.tolist()})"

    def hits(self, distance: int) -> int:
        """References at stack distance 1..`distance`: LRU's hits at that capacity."""
        distance = _checks.nonnegative_int(distance, "distance")
        return int(self.cumulative[min(distance, len(self.counts) - 1)]) - self.infinite_count

    def pdf(self, distance: int) -> float:
        """Fraction of all references at distance `distance`: 0 at distance 0."""
        distance = _checks.nonnegative_int(distance, "distance")
        return self._share(int(self.counts[distance]) if 0 < distance < len(self.counts) else 0)

    def cdf(self, distance: int) -> float:
        """Fraction of all references at distance <= `distance`: below 1 if any is a first."""
        return self._share(self.hits(distance))

    def _share(self, count: int) -> float:
        """`count` as a fraction of all references."""
        if not self.total:
            raise ValueError("a histogram of no references has no fractions")
        return count / self.total


@dataclass(frozen=True)
class RunLengthHistogram:
    counts: dict[int, int]   # run length n -> number of maximal runs
    total_runs: int

    def frequencies(self) -> dict[int, float]:
        return {n: c / self.total_runs for n, c in sorted(self.counts.items())}


class _Refs:
    """A reference string prepared once for all the analyses that share it.

    `ids` is the checked id array (a trace's int32 column is not copied).
    Cached properties are computed on first use; `collapsed_prev` holds
    the only sort, and everything else is derived without sorting again.
    """

    def __init__(self, dst_sequence: Sequence[int]):
        ids = _checks.int_array(dst_sequence, "destination ids")
        if ids.dtype != np.int32:
            ids = ids.astype(np.intp, copy=False)
        if len(ids) and (ids.min() < 0 or ids.max() > _MAX_ID):
            raise ValueError(f"destination ids must lie in 0..{_MAX_ID}")
        if len(ids) > _MAX_ID:
            raise ValueError(f"sequence length {len(ids)} exceeds {_MAX_ID}")
        self.ids = ids

    def __len__(self) -> int:
        return len(self.ids)

    @cached_property
    def heads(self) -> np.ndarray:
        heads = np.ones(len(self.ids), dtype=bool)
        np.not_equal(self.ids[1:], self.ids[:-1], out=heads[1:])
        return heads

    @cached_property
    def collapsed(self) -> np.ndarray:
        return self.ids[self.heads]

    @cached_property
    def collapsed_prev(self) -> np.ndarray:
        ids = self.collapsed
        n = len(ids)
        # The keys id * n + position are distinct, so sorting them groups equal
        # ids in position order.
        keys = ids.astype(np.int64)
        keys *= n
        keys += np.arange(n)
        keys.sort()
        position = np.empty(n, dtype=np.int32)
        np.remainder(keys, n, out=position, casting="unsafe")
        keys //= n
        repeat = keys[1:] == keys[:-1]
        del keys
        prev = np.full(n, -1, dtype=np.int32)
        prev[position[1:][repeat]] = position[:-1][repeat]
        return prev

    @cached_property
    def distinct(self) -> int:
        return int(np.count_nonzero(self.collapsed_prev < 0))

    @cached_property
    def hist(self) -> StackDistanceHistogram:
        return stack_distances(self)[1]

    @cached_property
    def collapsed_distances(self) -> np.ndarray:
        """Stack distance of each collapsed reference, 0 at a first reference.

        `stack_distances` leaves them here, so the one pass that builds
        `hist` builds them too: 4 B per collapsed reference, kept for MIN.
        """
        self.hist
        return self.__dict__["collapsed_distances"]

    @cached_property
    def collapsed_list(self) -> list[int]:
        """The collapsed ids renumbered 0..D-1 by first reference, as a list.

        FIFO and RAND index per-id lists of D entries with it; miss counts
        do not depend on id values.  Every entry is one of D shared int
        objects, so the list costs 8 B per reference where `tolist()` would
        add an int object for each.  The rank table is indexed by id (8 B
        per id up to the largest) or, past twice the string's length, found
        by binary search in the sorted ids.  A destinations-only read
        numbers ids by first appearance already, so they come back unchanged.
        """
        ids = self.collapsed
        first = ids[self.collapsed_prev < 0]
        ranks = np.arange(len(first)).astype(object)
        top = int(ids.max(initial=0))
        if top < 2 * len(ids):
            table = np.empty(top + 1, dtype=object)
            table[first] = ranks
        else:
            order = np.argsort(first)
            table, ids = ranks[order], np.searchsorted(first[order], ids)
        # Filled a block at a time, so no object array is as long as the list.
        out = [None] * len(ids)
        for s in range(0, len(ids), _BLOCK):
            out[s : s + _BLOCK] = table[ids[s : s + _BLOCK]].tolist()
        return out

    @cached_property
    def previous_use(self) -> np.ndarray:
        """Per position, the last earlier position of the same id, or -1.

        4 B per reference: a caller done with it frees it by `del`.  A
        reference that is no run head repeats the one before it.  A run
        head's previous use ends the earlier run k of its id, so it is
        before[k + 1], the position just before run k + 1 (before[0] = -1).
        """
        prev = np.arange(-1, len(self.ids) - 1, dtype=np.int32)
        before = prev[self.heads]
        prev[self.heads] = before[self.collapsed_prev + 1]
        return prev


def _refs(dst_sequence: Sequence[int] | _Refs) -> _Refs:
    return dst_sequence if isinstance(dst_sequence, _Refs) else _Refs(dst_sequence)


def concentration_curve(dst_sequence: Sequence[int]) -> ConcentrationCurve:
    """Rank destinations by descending frequency (ties by ascending id) and accumulate."""
    refs = _refs(dst_sequence)
    if len(refs) == 0:
        raise ValueError("cannot compute a concentration curve for an empty sequence")
    freq = np.unique(refs.ids, return_counts=True)[1]
    # A stable sort keeps equal counts in ascending id order.
    counts = freq[np.argsort(-freq, kind="stable")]
    d = len(counts)
    n = len(refs)
    return ConcentrationCurve(
        destination_fractions=np.arange(1, d + 1, dtype=np.float64) / d,
        frame_fractions=np.cumsum(counts) / n,
    )


def working_set(dst_sequence: Sequence[int], window: int, mode: str = "disjoint") -> WorkingSetReport:
    """Average count of distinct destinations per window of `window` references.

    Disjoint mode partitions the sequence into consecutive windows and drops
    a trailing partial one; sliding mode averages over every window start.
    A reference counts toward a window that holds it iff its previous use
    lies before that window's start, so the total over all windows is an
    exact integer count from one previous-use array, which a prepared
    string (`_Refs`) keeps for its next window.  The window must be an
    integer from 1 to the sequence length.
    """
    refs = _refs(dst_sequence)
    n = len(refs)
    window = _checks.positive_int(window, "window")
    if window > n:
        raise ValueError(f"window {window} exceeds sequence length {n}")
    if mode not in ("disjoint", "sliding"):
        raise ValueError(f"unknown working-set mode {mode!r}")
    prev = refs.previous_use
    position = np.arange(n, dtype=np.int32)
    if mode == "disjoint":
        window_count = n // window
        covered = window_count * window
        total = np.count_nonzero(prev[:covered] < position[:covered] // window * window)
    else:
        # Position i counts for starts s with
        # max(prev_i + 1, i - W + 1) <= s <= min(i, n - W).
        window_count = n - window + 1
        first = np.maximum(prev + 1, position - window + 1)
        last = np.minimum(position, n - window)
        total = np.maximum(last - first + 1, 0).sum()
    return WorkingSetReport(window, mode, int(total) / window_count, window_count)


# Positions per block of the stack-distance count; bounds its scratch arrays.
_BLOCK = 1 << 15


def _greater_before(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per rank r, #{j < k : values[j] > values[k]} for k = order[r]; and `order`.

    `order` sorts `values`, at most 2**15 distinct ones.  A slot packs
    rank << 16 | count in one int32; ranks m, m + 1, ... pad the slots to a
    power of two after the values, so they pass none of them.  Ranks are
    partitioned stably, one bit per pass from the most significant: every
    earlier 1 in a group of equal higher bits passes a 0.  Before the pass
    for bit b, the groups are the aligned rows of 2 << b slots.
    """
    m = len(values)
    if m > 1 << 15:  # rank << 16 would overflow an int32
        raise ValueError(f"a block of {m} values exceeds the 2**15 that one int32 packs")
    order = np.argsort(values)
    size = 1 << max(m - 1, 0).bit_length()
    slot = np.arange(size, dtype=np.int32)
    packed = slot << 16
    packed[order] = slot[:m] << 16
    # Every pass reuses these scratch arrays, one block long.
    out, bit, ones, scratch = (np.empty_like(packed) for _ in range(4))
    for b in range(size.bit_length() - 2, -1, -1):
        np.right_shift(packed, 16 + b, out=bit)
        bit &= 1
        groups = ones.reshape(-1, 2 << b)
        np.cumsum(bit.reshape(groups.shape), axis=1, out=groups)  # 1s in the group so far
        np.bitwise_xor(bit, 1, out=scratch)
        scratch *= ones
        packed += scratch                       # every earlier 1 passes a 0
        # A 0 moves down past the 1s before it, a 1 to the group's start + 2**b + them.
        np.subtract(slot, ones, out=scratch)
        ones += ones
        groups += (1 << b) - 1 - slot[: 2 << b]
        ones *= bit
        scratch += ones
        out[scratch] = packed
        packed, out = out, packed
    return packed[:m] & 0xFFFF, order


def stack_distances(dst_sequence: Sequence[int]) -> tuple[np.ndarray, StackDistanceHistogram]:
    """Per-reference move-to-top stack distances and their histogram.

    A reference's distance is the 1-based depth of its address in the stack
    at reference time; first references get 0.  The distances come back as
    a read-only int32 array.

    A re-reference at position i whose previous use is p = prev[i] has
    distance i - p - #{j < i : prev[j] > p}: of the positions strictly
    between p and i, those with prev[j] > p repeat an address already seen
    there (Bennett & Kruskal's offline count).  Immediate repeats are
    dropped first (distance 1, stack unchanged).  In each block of
    positions `_greater_before` counts within the block, and one
    `searchsorted` per level counts the earlier blocks' prev values, kept
    in sorted levels merged like the digits of a binary counter.  The
    collapsed string's distances stay on `_Refs.collapsed_distances`.
    """
    refs = _refs(dst_sequence)
    prev = refs.collapsed_prev
    collapsed = np.zeros(len(prev), dtype=np.int32)
    levels: list[np.ndarray] = []          # each more than twice the size of the next
    for s in range(0, len(prev), _BLOCK):
        block = prev[s : s + _BLOCK]
        reref = np.flatnonzero(block >= 0)
        greater, order = _greater_before(block[reref])
        at = s + reref[order]
        p = prev[at]                       # sorted
        for level in levels:
            greater += len(level) - np.searchsorted(level, p)
        collapsed[at] = at - p - greater
        while levels and len(levels[-1]) <= 2 * len(p):
            p = np.concatenate((levels.pop(), p))
            p.sort()
        levels.append(p)
    del levels
    collapsed.flags.writeable = False
    refs.collapsed_distances = collapsed
    distances = np.ones(len(refs), dtype=np.int32)
    distances[refs.heads] = collapsed
    distances.flags.writeable = False
    # The n - m references that are no run head have distance 1.  The run
    # heads are counted a block at a time, so bincount's intp copy is small.
    counts = np.zeros(max(int(collapsed.max(initial=0)), 1) + 1, dtype=np.int64)
    counts[1] = len(refs) - len(collapsed)
    for s in range(0, len(collapsed), _BLOCK):
        counts += np.bincount(collapsed[s : s + _BLOCK], minlength=len(counts))
    return distances, StackDistanceHistogram(counts)


def run_lengths(dst_sequence: Sequence[int]) -> RunLengthHistogram:
    """Histogram of maximal runs of identical consecutive destinations."""
    refs = _refs(dst_sequence)
    if len(refs) == 0:
        return RunLengthHistogram({}, 0)
    runs = np.diff(np.append(np.flatnonzero(refs.heads), len(refs)))
    lengths, counts = np.unique(runs, return_counts=True)
    return RunLengthHistogram(dict(zip(lengths.tolist(), counts.tolist())), len(runs))


def write_concentration_csv(curve: ConcentrationCurve, stream: TextIO) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["dest_fraction", "frame_fraction"])
    for dest_frac, frame_frac in curve.points:
        writer.writerow([fmt(dest_frac), fmt(frame_frac)])


def write_wss_csv(reports: Sequence[WorkingSetReport], stream: TextIO) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["window", "mode", "avg_wss"])
    for report in reports:
        writer.writerow([report.window, report.mode, fmt(report.average_wss)])


def write_stackdist_csv(hist: StackDistanceHistogram, stream: TextIO) -> None:
    """Finite distances in order, then one 'inf' row for first references.

    The pdf and cdf columns are one numpy division each.  While the total
    is below 2**53 every count converts to float exactly, so each quotient
    rounds as `hist.pdf` and `hist.cdf` round it.
    """
    first = fmt(hist._share(hist.infinite_count))  # an empty histogram raises before any row
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["distance", "count", "pdf", "cdf"])
    distances = np.flatnonzero(hist.counts[1:]) + 1
    counts = hist.counts[distances]
    pdf = counts / hist.total
    cdf = (hist.cumulative[distances] - hist.infinite_count) / hist.total
    writer.writerows(
        zip(distances.tolist(), counts.tolist(), map(fmt, pdf.tolist()), map(fmt, cdf.tolist()))
    )
    writer.writerow(["inf", hist.infinite_count, first, fmt(1.0)])


def write_runs_csv(hist: RunLengthHistogram, stream: TextIO) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["length", "count", "frequency"])
    for length, frequency in hist.frequencies().items():
        writer.writerow([length, hist.counts[length], fmt(frequency)])
