"""Seeded synthetic reference-string generators.

Four workload models, each deterministic for a fixed (spec, seed):

* UniformIrm  - independent references, all addresses equally likely
* Irm         - independent references drawn from a fixed per-address pmf
* Cyclic      - round-robin over K addresses (position i references i mod K),
                the pattern terminal servers polling ~30 stations produce
* LruStackModel - the next reference's move-to-top stack depth is drawn from
                a fixed distance pmf, so temporal locality is dialed in
                directly

Models can be interleaved deterministically (fixed integer round-robin
ratios) to blend, say, a cyclic stream into an IRM background.

Models and `GeneratorSpec` are frozen dataclasses that check and
normalize their fields when built (integers become Python ints, a pmf a
tuple of floats), so a model that exists is valid and `generate` checks
nothing again.

A model's `emit(length, seed)` returns `(codes, tokens)`: one int code per
reference and the token of each code, so a token string is made once per
distinct address.  Generated traces have timestamps 0, 1, 2, ...
microseconds, a single dummy source address, and destination tokens "a0",
"a1", ... (prefixed "s<j>." per sub-stream when interleaving, so sub-stream
address spaces stay disjoint), interned in order of first appearance.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, islice
from typing import Union

import numpy as np

from . import _checks
from ._rng import RANDBELOW_MAX, derive_seed, random_stream, randbelow_stream
from .trace import InternTable, Trace

PMF_SUM_TOLERANCE = 1e-9

Model = Union["UniformIrm", "Irm", "Cyclic", "LruStackModel", "Interleave"]


def _pmf(pmf) -> tuple[float, ...]:
    """`pmf` as a tuple of floats, each entry a weight (`_checks.weight`), summing to 1."""
    pmf = tuple(_checks.weight(p, "pmf entry") for p in pmf)
    if not pmf:
        raise ValueError("pmf is empty")
    total = sum(pmf)
    if abs(total - 1.0) > PMF_SUM_TOLERANCE:
        raise ValueError(f"pmf sums to {total!r}, not 1")
    return pmf


@dataclass(frozen=True)
class UniformIrm:
    """Independent references, uniform over `n_addresses` addresses."""

    n_addresses: int

    def __post_init__(self) -> None:
        n = _checks.positive_int(self.n_addresses, "n_addresses")
        if n > RANDBELOW_MAX:
            raise ValueError(f"n_addresses must be at most 2**64, got {n}")
        object.__setattr__(self, "n_addresses", n)

    def emit(self, length: int, seed: int) -> tuple[np.ndarray, list[str]]:
        draws = np.fromiter(randbelow_stream(seed, self.n_addresses), np.uint64, count=length)
        # n can be 2**64, so only the drawn addresses get a token.
        drawn, codes = np.unique(draws, return_inverse=True)
        return codes, [f"a{i}" for i in drawn.tolist()]


@dataclass(frozen=True)
class Irm:
    """Independent references with probability pmf[i] for address i."""

    pmf: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pmf", _pmf(self.pmf))

    def emit(self, length: int, seed: int) -> tuple[np.ndarray, list[str]]:
        weights = np.asarray(self.pmf, dtype=np.float64)
        cum = np.cumsum(weights / weights.sum())
        cum[-1] = 1.0  # uniforms live in [0, 1), so indices stay in range
        uniforms = np.fromiter(random_stream(seed), dtype=np.float64, count=length)
        codes = np.searchsorted(cum, uniforms, side="right")
        return codes, [f"a{i}" for i in range(len(self.pmf))]


@dataclass(frozen=True)
class Cyclic:
    """Round-robin: position i references address i mod k."""

    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", _checks.positive_int(self.k, "k"))

    def emit(self, length: int, seed: int) -> tuple[np.ndarray, list[str]]:
        k = min(self.k, length)  # k may exceed int64; i mod k == i for i < length
        return np.arange(length) % k, [f"a{i}" for i in range(k)]


@dataclass(frozen=True)
class LruStackModel:
    """Move-to-top stack with depth of the next reference drawn from `pmf`.

    pmf[d-1] is the probability of re-referencing the address currently at
    depth d (1 = top of stack).  The stack starts as a0, a1, ..., one
    address per depth, top first; no reference goes deeper.
    """

    pmf: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pmf", _pmf(self.pmf))

    def emit(self, length: int, seed: int) -> tuple[np.ndarray, list[str]]:
        cum = [*accumulate(self.pmf[:-1]), 1.0]  # u < 1, so depths stay in range
        stack = list(range(len(self.pmf)))  # codes, top first
        out = []
        for u in islice(random_stream(seed), length):
            code = stack.pop(bisect_right(cum, u))
            stack.insert(0, code)
            out.append(code)
        return np.array(out, dtype=np.intp), [f"a{i}" for i in range(len(self.pmf))]


@dataclass(frozen=True)
class Interleave:
    """Deterministic round-robin blend: pattern[j] references from parts[j] per cycle."""

    parts: tuple[Model, ...]
    pattern: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("Interleave needs at least one part")
        if len(self.pattern) != len(self.parts):
            raise ValueError(
                f"Interleave pattern length {len(self.pattern)} != parts length {len(self.parts)}"
            )
        pattern = tuple(_checks.positive_int(c, "pattern entry") for c in self.pattern)
        object.__setattr__(self, "pattern", pattern)

    def emit(self, length: int, seed: int) -> tuple[np.ndarray, list[str]]:
        # owner[i] makes reference i; a take past `length` cannot change it.
        takes = [min(take, length) for take in self.pattern]
        owner = np.resize(np.repeat(np.arange(len(self.parts)), takes), length)
        codes = np.empty(length, np.intp)
        tokens: list[str] = []
        for j, part in enumerate(self.parts):
            mine = owner == j
            part_codes, part_tokens = part.emit(int(np.count_nonzero(mine)), derive_seed(seed, j))
            codes[mine] = part_codes + len(tokens)  # after earlier parts' tokens
            tokens += [f"s{j}.{token}" for token in part_tokens]
        return codes, tokens


@dataclass(frozen=True)
class GeneratorSpec:
    """`length` references of `model` drawn from `seed`, an integer in 0..2**64 - 1."""

    model: Model
    length: int
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "length", _checks.nonnegative_int(self.length, "length"))
        object.__setattr__(self, "seed", _checks.seed(self.seed, "seed"))


def generate(spec: GeneratorSpec) -> Trace:
    """Produce the trace for `spec`; bit-identical for identical spec and seed."""
    n = spec.length
    codes, tokens = spec.model.emit(n, spec.seed)
    # Intern the used codes' tokens by first appearance, after the source "src" (id 0).
    used, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first)
    interns = InternTable(["src"] if n else [])
    ids = np.empty(len(used), np.int32)
    ids[order] = interns.intern_all([tokens[c] for c in used[order].tolist()])
    return Trace(np.arange(n), np.zeros(n, np.int32), ids[inverse], interns)
