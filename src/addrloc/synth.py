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

Generated traces have timestamps 0, 1, 2, ... microseconds, a single dummy
source address, and destination tokens "a0", "a1", ... (prefixed "s<j>."
per sub-stream when interleaving, so sub-stream address spaces stay
disjoint).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, islice
from typing import Union

import numpy as np

from ._rng import RANDBELOW_MAX, derive_seed, random_stream, randbelow_stream
from .trace import InternTable, Trace

PMF_SUM_TOLERANCE = 1e-9

Model = Union["UniformIrm", "Irm", "Cyclic", "LruStackModel", "Interleave"]


def _check_pmf(pmf: tuple[float, ...], what: str) -> None:
    if not pmf:
        raise ValueError(f"{what}: pmf is empty")
    if any(p < 0 for p in pmf):
        raise ValueError(f"{what}: pmf has negative entries")
    total = sum(pmf)
    if abs(total - 1.0) > PMF_SUM_TOLERANCE:
        raise ValueError(f"{what}: pmf sums to {total!r}, not 1")


@dataclass(frozen=True)
class UniformIrm:
    """Independent references, uniform over `n_addresses` addresses."""

    n_addresses: int

    def validate(self) -> None:
        if not 1 <= self.n_addresses <= RANDBELOW_MAX:
            raise ValueError(f"UniformIrm needs 1 <= n_addresses <= 2**64, got {self.n_addresses}")

    def emit(self, length: int, seed: int) -> list[str]:
        draws = islice(randbelow_stream(seed, self.n_addresses), length)
        return [f"a{i}" for i in draws]


@dataclass(frozen=True)
class Irm:
    """Independent references with probability pmf[i] for address i."""

    pmf: tuple[float, ...]

    def validate(self) -> None:
        _check_pmf(self.pmf, "Irm")

    def emit(self, length: int, seed: int) -> list[str]:
        weights = np.asarray(self.pmf, dtype=np.float64)
        cum = np.cumsum(weights / weights.sum())
        cum[-1] = 1.0  # uniforms live in [0, 1), so indices stay in range
        uniforms = np.fromiter(random_stream(seed), dtype=np.float64, count=length)
        indices = np.searchsorted(cum, uniforms, side="right")
        return [f"a{i}" for i in indices]


@dataclass(frozen=True)
class Cyclic:
    """Round-robin: position i references address i mod k."""

    k: int

    def validate(self) -> None:
        if self.k < 1:
            raise ValueError(f"Cyclic needs k >= 1, got {self.k}")

    def emit(self, length: int, seed: int) -> list[str]:
        k = self.k
        return [f"a{i % k}" for i in range(length)]


@dataclass(frozen=True)
class LruStackModel:
    """Move-to-top stack with depth of the next reference drawn from `pmf`.

    pmf[d-1] is the probability of re-referencing the address currently at
    depth d (1 = top of stack).  `initial_stack` fixes the starting order,
    top first; it defaults to one address per possible depth.
    """

    pmf: tuple[float, ...]
    initial_stack: tuple[str, ...] = field(default=())

    def resolved_stack(self) -> tuple[str, ...]:
        if self.initial_stack:
            return self.initial_stack
        return tuple(f"a{i}" for i in range(len(self.pmf)))

    def validate(self) -> None:
        _check_pmf(self.pmf, "LruStackModel")
        max_depth = max((d for d, p in enumerate(self.pmf, start=1) if p > 0), default=0)
        stack = self.resolved_stack()
        if len(set(stack)) != len(stack):
            raise ValueError("LruStackModel initial stack has duplicate addresses")
        if len(stack) < max_depth:
            raise ValueError(
                f"LruStackModel stack of {len(stack)} addresses cannot serve depth {max_depth}"
            )

    def emit(self, length: int, seed: int) -> list[str]:
        cum = list(accumulate(self.pmf))
        cum[-1] = 1.0
        stack = list(self.resolved_stack())
        out = []
        for u in islice(random_stream(seed), length):
            depth = bisect_right(cum, u) + 1
            token = stack.pop(depth - 1)
            stack.insert(0, token)
            out.append(token)
        return out


@dataclass(frozen=True)
class Interleave:
    """Deterministic round-robin blend: pattern[j] references from parts[j] per cycle."""

    parts: tuple[Model, ...]
    pattern: tuple[int, ...]

    def validate(self) -> None:
        if not self.parts:
            raise ValueError("Interleave needs at least one part")
        if len(self.pattern) != len(self.parts):
            raise ValueError(
                f"Interleave pattern length {len(self.pattern)} != parts length {len(self.parts)}"
            )
        if any(c < 1 for c in self.pattern):
            raise ValueError("Interleave pattern entries must be >= 1")
        for part in self.parts:
            part.validate()

    def emit(self, length: int, seed: int) -> list[str]:
        # Figure out how many references each part contributes, then weave.
        counts = [0] * len(self.parts)
        remaining = length
        while remaining > 0:
            for j, take in enumerate(self.pattern):
                take = min(take, remaining)
                counts[j] += take
                remaining -= take
                if remaining == 0:
                    break
        streams = [
            iter(part.emit(counts[j], derive_seed(seed, j)))
            for j, part in enumerate(self.parts)
        ]
        out: list[str] = []
        while len(out) < length:
            for j, take in enumerate(self.pattern):
                for _ in range(min(take, length - len(out))):
                    out.append(f"s{j}.{next(streams[j])}")
        return out


@dataclass(frozen=True)
class GeneratorSpec:
    model: Model
    length: int
    seed: int = 0

    def validate(self) -> None:
        if self.length < 0:
            raise ValueError(f"length must be >= 0, got {self.length}")
        self.model.validate()


def generate(spec: GeneratorSpec) -> Trace:
    """Produce the trace for `spec`; bit-identical for identical spec and seed."""
    spec.validate()
    tokens = spec.model.emit(spec.length, spec.seed)
    # The source token comes first in every frame, so it takes id 0.
    interns = InternTable(["src"] if tokens else [])
    dst = interns.intern_all(tokens)
    return Trace(np.arange(len(tokens)), np.zeros(len(tokens), np.int32), dst, interns)
