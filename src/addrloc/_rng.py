"""Deterministic 64-bit pseudo-random draws (SplitMix64).

Every random draw in this package (synthetic traces, RAND eviction) comes
from SplitMix64 (Steele, Lea & Flood, OOPSLA 2014), so results are
bit-identical across runs, platforms, and Python versions; the stdlib
Mersenne Twister's integer helpers carry no cross-version guarantee.
Output k (k = 1, 2, ...) of the stream seeded s is mix(s + k * golden mod
2**64), so outputs are computed as numpy uint64 arrays, whose arithmetic
wraps exactly.  The generators take their draws as arrays (`random_array`,
`randbelow_array`).  RAND eviction, which stops at a point it cannot know
in advance, takes them from an endless stream (`randbelow_stream`) computed
in blocks that double from `_FIRST_BLOCK` to `_BLOCK` draws, so a short
stream stays cheap and scratch memory stays bounded.  Every form equals the
scalar generator's draws one at a time (tests/oracles.py).
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
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= np.uint64(_GOLDEN)
    z += np.uint64(seed & _MASK64)
    # In place, so no more than two arrays of `count` outputs are live.
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _blocks(seed: int) -> Iterator[np.ndarray]:
    start, count = 0, _FIRST_BLOCK
    while True:
        yield _mix(seed, start, count)
        start += count
        count = min(2 * count, _BLOCK)


def random_array(seed: int, start: int, count: int) -> np.ndarray:
    """Uniform floats in [0, 1) with 53 bits of precision, from outputs
    start + 1 .. start + count: output >> 11, scaled, as float64."""
    outputs = _mix(seed, start, count)
    outputs >>= np.uint64(11)
    return outputs * 2.0**-53


def _check_randbelow(n: int) -> None:
    if not 1 <= n <= RANDBELOW_MAX:
        raise ValueError(f"randbelow needs 1 <= n <= 2**64, got {n}")


def _accepted(outputs: np.ndarray, n: int) -> np.ndarray:
    """The draws in [0, n) that `outputs` give, in order, without modulo
    bias; `outputs` may be overwritten.

    An output r is rejected when r >= 2**64 - 2**64 % n, and r % n kept
    otherwise.  A power of two rejects nothing: its limit is 2**64.
    """
    if n & (n - 1) == 0:
        outputs &= np.uint64(n - 1)
        return outputs
    kept = outputs[outputs < np.uint64(RANDBELOW_MAX - RANDBELOW_MAX % n)]
    kept %= np.uint64(n)
    return kept


def randbelow_array(seed: int, n: int, count: int) -> np.ndarray:
    """The first `count` draws of `randbelow_stream(seed, n)`, as uint64."""
    _check_randbelow(n)
    out = np.empty(count, np.uint64)
    filled = start = 0
    while filled < count:  # each pass draws exactly as many outputs as are missing
        kept = _accepted(_mix(seed, start, count - filled), n)
        start += count - filled
        out[filled : filled + len(kept)] = kept
        filled += len(kept)
    return out


def randbelow_stream(seed: int, n: int) -> Iterator[int]:
    """Uniform integers in [0, n), 1 <= n <= RANDBELOW_MAX, without modulo
    bias (`_accepted`), as an endless stream of Python ints."""
    _check_randbelow(n)
    return chain.from_iterable(_accepted(b, n).tolist() for b in _blocks(seed))


def derive_seed(seed: int, salt: int) -> int:
    """Deterministic sub-seed for stream `salt` of master seed `seed`.

    Gives every (seed, capacity) pair of a RAND simulation, one capacity
    or a sweep, and every sub-stream of an interleaved generator its own
    independent stream.
    """
    return int(_mix(seed ^ (salt * _GOLDEN), 0, 1)[0])
