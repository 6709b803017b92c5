"""Deterministic 64-bit pseudo-random streams (SplitMix64).

Every random draw in this package (synthetic traces, RAND eviction) comes
from SplitMix64 (Steele, Lea & Flood, OOPSLA 2014), so results are
bit-identical across runs, platforms, and Python versions; the stdlib
Mersenne Twister's integer helpers carry no cross-version guarantee.
Output k (k = 1, 2, ...) of the stream seeded s is mix(s + k * golden mod
2**64), so outputs are computed in blocks of numpy uint64 arithmetic, which
wraps exactly.  Blocks double from `_FIRST_BLOCK` to `_BLOCK` draws, so a
short stream stays cheap and scratch memory stays bounded.  Each stream
equals the scalar generator's draws one at a time (tests/oracles.py).
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_FIRST_BLOCK = 16
_BLOCK = 1 << 14
RANDBELOW_MAX = 1 << 64


def _mix(seed: int, start: int, count: int) -> np.ndarray:
    """Outputs start + 1 .. start + count of the stream seeded `seed`, as uint64."""
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    z += np.uint64(seed & _MASK64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _blocks(seed: int) -> Iterator[np.ndarray]:
    start, count = 0, _FIRST_BLOCK
    while True:
        yield _mix(seed, start, count)
        start += count
        count = min(2 * count, _BLOCK)


def random_stream(seed: int) -> Iterator[float]:
    """Uniform floats in [0, 1) with 53 bits of precision: output >> 11, scaled."""
    return chain.from_iterable(((b >> np.uint64(11)) * 2.0**-53).tolist() for b in _blocks(seed))


def randbelow_stream(seed: int, n: int) -> Iterator[int]:
    """Uniform integers in [0, n), 1 <= n <= RANDBELOW_MAX, without modulo bias.

    An output r is rejected when r >= 2**64 - 2**64 % n, and r % n kept
    otherwise.  A power of two rejects nothing: its limit is 2**64.
    """
    if not 1 <= n <= RANDBELOW_MAX:
        raise ValueError(f"randbelow needs 1 <= n <= 2**64, got {n}")
    if n & (n - 1) == 0:
        mask = np.uint64(n - 1)
        draws = ((b & mask).tolist() for b in _blocks(seed))
    else:
        limit, n64 = np.uint64(RANDBELOW_MAX - RANDBELOW_MAX % n), np.uint64(n)
        draws = ((b[b < limit] % n64).tolist() for b in _blocks(seed))
    return chain.from_iterable(draws)


def derive_seed(seed: int, salt: int) -> int:
    """Deterministic sub-seed for stream `salt` of master seed `seed`.

    Gives every (seed, capacity) pair of a RAND simulation, one capacity
    or a sweep, and every sub-stream of an interleaved generator its own
    independent stream.
    """
    return int(_mix(seed ^ (salt * _GOLDEN), 0, 1)[0])
