"""Shared test utilities: random reference strings, a trace's frames as rows,
and patched random-draw block sizes."""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Iterator, Optional

import pytest
from hypothesis import strategies as st

from addrloc import _rng
from addrloc.trace import Trace

_MAX_ID = 2**31 - 1


def random_reference_string(
    rnd: random.Random, max_distinct: int, max_length: int, min_length: int = 1
) -> list[int]:
    """A random destination sequence over a random-sized alphabet."""
    length = rnd.randint(min_length, max_length)
    alphabet = rnd.randint(1, max_distinct)
    return [rnd.randrange(alphabet) for _ in range(length)]


def reference_strings(min_size: int = 0) -> st.SearchStrategy[list[int]]:
    """Strings for differential tests: small alphabets, runs of immediate
    repeats, all-distinct strings, one address, and ids near 2**31 - 1."""
    return st.one_of(
        st.lists(st.integers(min_value=0, max_value=9), min_size=min_size, max_size=120),
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=5), st.integers(min_value=1, max_value=6)),
            min_size=min_size,
            max_size=30,
        ).map(lambda runs: [a for a, k in runs for _ in range(k)]),
        st.lists(
            st.integers(min_value=0, max_value=10**6), unique=True, min_size=min_size, max_size=60
        ),
        st.tuples(st.integers(min_value=0, max_value=_MAX_ID), st.integers(min_size, 40)).map(
            lambda pair: [pair[0]] * pair[1]
        ),
        st.lists(
            st.integers(min_value=_MAX_ID - 4, max_value=_MAX_ID), min_size=min_size, max_size=60
        ),
    )


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


@contextmanager
def rng_blocks(blocks: Optional[tuple[int, int]]) -> Iterator[None]:
    """Inside the `with`, draw blocks start at `first` draws and double up to `cap`.

    `blocks` is (first, cap); None keeps the package defaults.
    """
    with pytest.MonkeyPatch.context() as mp:
        if blocks is not None:
            mp.setattr(_rng, "_FIRST_BLOCK", blocks[0])
            mp.setattr(_rng, "_BLOCK", blocks[1])
        yield
