"""Deterministic float formatting for CSV output.

repr() of a Python float is the shortest string that round-trips, which is
stable across platforms, so emitted tables are byte-identical for identical
inputs.  Infinities format as 'inf'/'-inf'.
"""

from __future__ import annotations

import csv
from typing import Callable, Sequence, TextIO


def fmt(value: float) -> str:
    return repr(float(value))


def write_curve_table(curves: Sequence, value: Callable, stream: TextIO) -> None:
    """One row per capacity, one `value(entry)` column per curve, headed by its policy.

    Each curve has `.policy` and `.entries` whose items have `.capacity`;
    every curve must cover the same capacities in the same order.
    """
    if not curves:
        raise ValueError("no curves to write")
    capacities = [e.capacity for e in curves[0].entries]
    for curve in curves[1:]:
        got = [e.capacity for e in curve.entries]
        if got != capacities:
            raise ValueError(f"curve {curve.policy!r} has capacities {got}, expected {capacities}")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["capacity"] + [c.policy for c in curves])
    for i, cap in enumerate(capacities):
        writer.writerow([cap] + [fmt(value(c.entries[i])) for c in curves])
