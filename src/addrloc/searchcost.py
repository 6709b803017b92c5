"""Normalized lookup time for a cache in front of a full address table.

A hit costs one cache search; a miss costs the cache search plus the full
table search.  Normalizing by the no-cache lookup cost gives

    T = ((1 - p) * cost(c) + p * (cost(c) + cost(n))) / cost(n)
      = cost(c) / cost(n) + p

for miss ratio p, cache size c, and table size n.  T < 1 means the cache
pays for itself; T > 1 means lookups got slower.  The default cost model
is a balanced binary search, cost(m) = 1 + log2(m) comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2
from operator import attrgetter
from typing import Callable, NamedTuple, Sequence, TextIO

from . import _checks
from ._csvfmt import write_curve_table
from .cachesim import MissCurve

CostModel = Callable[[int], float]


def binary_search_cost(table_size: int) -> float:
    """Expected comparisons to find an entry in a sorted table."""
    return 1.0 + log2(_checks.positive_int(table_size, "table_size"))


def constant_cost(table_size: int) -> float:
    """Size-independent lookup, e.g. a hardware associative search."""
    _checks.positive_int(table_size, "table_size")
    return 1.0


class SearchTimePoint(NamedTuple):
    capacity: int
    miss_ratio: float
    time: float


@dataclass(frozen=True)
class SearchTimeCurve:
    policy: str
    database_size: int
    entries: tuple[SearchTimePoint, ...]


def normalized_search_time(
    miss_ratio: float,
    cache_size: int,
    database_size: int,
    cost: CostModel = binary_search_cost,
) -> float:
    """T for one operating point; exactly cost(c)/cost(n) + miss ratio.

    The miss ratio is a real number in [0, 1] and the sizes are integers
    >= 1: a ValueError names the argument that is not.
    """
    miss_ratio = _checks.fraction(miss_ratio, "miss ratio")
    cache_size = _checks.positive_int(cache_size, "cache_size")
    database_size = _checks.positive_int(database_size, "database_size")
    if cache_size > database_size:
        raise ValueError(
            f"cache size {cache_size} exceeds database size {database_size}"
        )
    return cost(cache_size) / cost(database_size) + miss_ratio


def search_time_curve(
    miss_curve: MissCurve,
    database_size: int,
    cost: CostModel = binary_search_cost,
) -> SearchTimeCurve:
    """Evaluate T at every capacity of a simulated miss curve."""
    database_size = _checks.positive_int(database_size, "database_size")
    points = []
    for entry in miss_curve.entries:
        p = entry.miss_ratio
        points.append(
            SearchTimePoint(
                entry.capacity,
                p,
                normalized_search_time(p, entry.capacity, database_size, cost),
            )
        )
    return SearchTimeCurve(miss_curve.policy, database_size, tuple(points))


def optimal_cache_size(curve: SearchTimeCurve) -> tuple[int, float]:
    """Capacity minimizing T; ties go to the smallest capacity."""
    if not curve.entries:
        raise ValueError("search time curve is empty")
    best = min(curve.entries, key=lambda e: (e.time, e.capacity))
    return best.capacity, best.time


def write_search_time_csv(curves: Sequence[SearchTimeCurve], stream: TextIO) -> None:
    """One row per capacity, one normalized-time column per policy."""
    write_curve_table(curves, attrgetter("time"), stream)
