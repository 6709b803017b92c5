"""Shared test utilities: seeded random reference strings and a trace's frames as rows."""

from __future__ import annotations

import random
from typing import Iterator, Optional

from addrloc.trace import Trace


def random_reference_string(
    rnd: random.Random, max_distinct: int, max_length: int, min_length: int = 1
) -> list[int]:
    """A random destination sequence over a random-sized alphabet."""
    length = rnd.randint(min_length, max_length)
    alphabet = rnd.randint(1, max_distinct)
    return [rnd.randrange(alphabet) for _ in range(length)]


def rows(trace: Trace) -> Iterator[tuple[int, int, int, Optional[str], Optional[int]]]:
    """The frames as (timestamp, src, dst, proto, length) tuples.

    proto is None for an untagged frame and length None where it is absent.
    """
    for ts, src, dst, code, length in zip(
        trace.timestamps.tolist(),
        trace.src.tolist(),
        trace.dst.tolist(),
        trace.proto.tolist(),
        trace.length.tolist(),
    ):
        yield ts, src, dst, trace.protos[code], None if length < 0 else length
