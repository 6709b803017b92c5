"""Locality statistics over a destination reference string.

Four analyses, all pure functions of the ordered sequence of destination
address ids (integers in 0..2**31 - 1, as in a trace's dst column):

* concentration_curve - how much traffic the most popular destinations absorb
* working_set         - average number of distinct destinations per window
* stack_distances     - move-to-top stack depth of every re-reference
* run_lengths         - maximal runs of identical consecutive destinations

Concentration, working set and run lengths are numpy kernels over an id
array, with exact integer totals.  Stack distances drive the single-pass
miss-count reconstruction in `addrloc.cachesim`; they are a sequential
pass over an order-statistic tree of last-use slots: amortized
O(N log D) for N references over D distinct destinations.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from math import inf
from typing import Sequence, TextIO

import numpy as np

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
        if not 0.0 < frame_quantile <= 1.0:
            raise ValueError(f"frame quantile must be in (0, 1], got {frame_quantile}")
        idx = int(np.searchsorted(self.frame_fractions, frame_quantile, side="left"))
        return float(self.destination_fractions[idx])


@dataclass(frozen=True)
class WorkingSetReport:
    window: int
    mode: str                # "disjoint" or "sliding"
    average_wss: float       # mean distinct destinations per window
    window_count: int


@dataclass(frozen=True)
class StackDistanceHistogram:
    """Counts of finite stack distances plus the first-reference (infinite) mass."""

    finite: dict[int, int]   # distance d >= 1 -> count
    infinite_count: int
    total: int

    def pdf(self, distance: int) -> float:
        return self.finite.get(distance, 0) / self.total

    def cdf(self, distance: int) -> float:
        """Fraction of all references at stack distance <= `distance`.

        First references never count, so cdf(max distance) < 1 whenever the
        sequence introduces any address at all.
        """
        return sum(c for d, c in self.finite.items() if d <= distance) / self.total

    def distance_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted finite distances and their counts, as parallel arrays."""
        if not self.finite:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        distances = np.array(sorted(self.finite), dtype=np.int64)
        counts = np.array([self.finite[int(d)] for d in distances], dtype=np.int64)
        return distances, counts


@dataclass(frozen=True)
class RunLengthHistogram:
    counts: dict[int, int]   # run length n -> number of maximal runs
    total_runs: int

    def frequencies(self) -> dict[int, float]:
        return {n: c / self.total_runs for n, c in sorted(self.counts.items())}


def _id_array(dst_sequence: Sequence[int]) -> np.ndarray:
    ids = np.asarray(dst_sequence, dtype=np.intp)
    if len(ids) and (ids.min() < 0 or ids.max() > _MAX_ID):
        raise ValueError(f"destination ids must lie in 0..{_MAX_ID}")
    return ids


def _previous_use(ids: np.ndarray) -> np.ndarray:
    """Per position, the last earlier position with the same id, or -1."""
    n = len(ids)
    # The keys id * n + position are distinct, so sorting them groups equal
    # ids in position order.
    keys = np.sort(ids * n + np.arange(n))
    position = keys % n
    repeat = keys[1:] // n == keys[:-1] // n
    prev = np.full(n, -1, dtype=np.intp)
    prev[position[1:][repeat]] = position[:-1][repeat]
    return prev


def concentration_curve(dst_sequence: Sequence[int]) -> ConcentrationCurve:
    """Rank destinations by descending frequency (ties by ascending id) and accumulate."""
    if len(dst_sequence) == 0:
        raise ValueError("cannot compute a concentration curve for an empty sequence")
    ids = _id_array(dst_sequence)
    freq = np.bincount(ids)
    freq = freq[freq > 0]
    # A stable sort keeps equal counts in ascending id order.
    counts = freq[np.argsort(-freq, kind="stable")]
    d = len(counts)
    n = len(ids)
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
    exact integer count from one previous-use array.
    """
    n = len(dst_sequence)
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if window > n:
        raise ValueError(f"window {window} exceeds sequence length {n}")
    if mode not in ("disjoint", "sliding"):
        raise ValueError(f"unknown working-set mode {mode!r}")
    prev = _previous_use(_id_array(dst_sequence))
    position = np.arange(n)
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


class _FenwickTree:
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


def _stack_distances_fenwick(seq: Sequence[int]) -> list:
    # One slot per reference; a slot is active while it is the most recent
    # use of its address.  The distance of a re-reference is the number of
    # active slots after the address's own, plus one.  Compacting whenever
    # the slot array fills keeps the tree O(D) wide.
    slot_of: dict[int, int] = {}
    capacity = _MIN_SLOTS
    tree = _FenwickTree(capacity)
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
            tree = _FenwickTree(capacity, active_prefix=active)
            next_slot = active + 1
        tree.add(next_slot, 1)
        slot_of[a] = next_slot
        next_slot += 1
    return distances


def stack_distances(dst_sequence: Sequence[int]) -> tuple[list, StackDistanceHistogram]:
    """Per-reference move-to-top stack distances and their histogram.

    A reference's distance is the 1-based depth of its address in the stack
    at reference time; first-ever references get math.inf.
    """
    distances = _stack_distances_fenwick(dst_sequence)
    finite: Counter = Counter(d for d in distances if d is not inf)
    infinite_count = len(distances) - sum(finite.values())
    hist = StackDistanceHistogram(dict(finite), infinite_count, len(distances))
    return distances, hist


def run_lengths(dst_sequence: Sequence[int]) -> RunLengthHistogram:
    """Histogram of maximal runs of identical consecutive destinations."""
    ids = _id_array(dst_sequence)
    if len(ids) == 0:
        return RunLengthHistogram({}, 0)
    starts = np.flatnonzero(ids[1:] != ids[:-1]) + 1
    runs = np.diff(np.concatenate(([0], starts, [len(ids)])))
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
    """Finite distances in order, then one 'inf' row for first references."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["distance", "count", "pdf", "cdf"])
    cumulative = 0
    for d in sorted(hist.finite):
        count = hist.finite[d]
        cumulative += count
        writer.writerow([d, count, fmt(count / hist.total), fmt(cumulative / hist.total)])
    writer.writerow(
        ["inf", hist.infinite_count, fmt(hist.infinite_count / hist.total), fmt(1.0)]
    )


def write_runs_csv(hist: RunLengthHistogram, stream: TextIO) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["length", "count", "frequency"])
    for length in sorted(hist.counts):
        count = hist.counts[length]
        writer.writerow([length, count, fmt(count / hist.total_runs)])
