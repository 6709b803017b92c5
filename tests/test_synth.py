"""Synthetic reference-string generators."""

from __future__ import annotations

import hashlib
import io
import math
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from addrloc import synth
from addrloc.locality import stack_distances
from addrloc.synth import (
    Cyclic,
    GeneratorSpec,
    Interleave,
    Irm,
    LruStackModel,
    UniformIrm,
    generate,
)
from addrloc.trace import parse_trace, write_trace
from addrloc._rng import derive_seed

from oracles import interleave_owners, lru_stack_codes


def _tokens(model, length, seed=0):
    trace = generate(GeneratorSpec(model, length, seed))
    return [trace.token_of(d) for d in trace.destinations()]


def _emitted(model, length, seed):
    codes, tokens = model.emit(length, seed)
    return [tokens[c] for c in codes.tolist()]


def _digest(tokens):
    return hashlib.sha256(" ".join(tokens).encode()).hexdigest()


def test_generate_trace_shape():
    trace = generate(GeneratorSpec(Cyclic(4), 10, seed=3))
    assert len(trace) == 10
    assert trace.timestamps.tolist() == list(range(10))
    src_tokens = {trace.token_of(src) for src in trace.src.tolist()}
    assert len(src_tokens) == 1  # single dummy source


def test_cyclic_pattern():
    assert _tokens(Cyclic(3), 7) == ["a0", "a1", "a2", "a0", "a1", "a2", "a0"]


def test_cyclic_stack_distance_is_k():
    trace = generate(GeneratorSpec(Cyclic(5), 200, seed=0))
    distances, _ = stack_distances(trace.destinations())
    assert all(d == 5 for d in distances[5:])


def test_determinism_and_seed_sensitivity():
    spec = GeneratorSpec(UniformIrm(20), 500, seed=42)
    assert generate(spec) == generate(spec)
    other = generate(GeneratorSpec(UniformIrm(20), 500, seed=43))
    assert generate(spec) != other


def test_lru_stack_model_top_only():
    assert _tokens(LruStackModel(pmf=(1.0,)), 4) == ["a0", "a0", "a0", "a0"]


def test_lru_stack_model_stays_inside_stack():
    k = 6
    model = LruStackModel(pmf=tuple(1 / k for _ in range(k)))
    tokens = _tokens(model, 500, seed=9)
    assert set(tokens) <= {f"a{i}" for i in range(k)}


def test_lru_stack_model_validation():
    for pmf in ((), (0.5, 0.6), (1.5, -0.5), (True,)):
        with pytest.raises(ValueError, match="^pmf "):
            LruStackModel(pmf)


def test_pmf_validation():
    with pytest.raises(ValueError):
        generate(GeneratorSpec(Irm((0.5, 0.6)), 1))      # sums past 1
    with pytest.raises(ValueError):
        generate(GeneratorSpec(Irm((1.5, -0.5)), 1))     # negative mass
    with pytest.raises(ValueError):
        generate(GeneratorSpec(Irm(()), 1))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            Irm((bad, 1.0))
        with pytest.raises(ValueError, match="finite"):
            LruStackModel((1.0, bad))


def test_spec_validation():
    with pytest.raises(ValueError):
        generate(GeneratorSpec(Cyclic(0), 5))
    with pytest.raises(ValueError):
        generate(GeneratorSpec(UniformIrm(0), 5))
    with pytest.raises(ValueError):
        generate(GeneratorSpec(Cyclic(3), -1))


def test_uniform_irm_frequencies_within_three_sigma():
    n, length = 50, 100_000
    tokens = _tokens(UniformIrm(n), length, seed=1)
    counts = Counter(tokens)
    expected = length / n
    sigma = math.sqrt(length * (1 / n) * (1 - 1 / n))
    within = sum(
        1 for i in range(n) if abs(counts[f"a{i}"] - expected) <= 3 * sigma
    )
    assert within >= 0.95 * n


def test_irm_matches_pmf_chi_square():
    pmf = (0.5, 0.3, 0.2)
    length = 20_000
    tokens = _tokens(Irm(pmf), length, seed=4)
    counts = Counter(tokens)
    observed = [counts[f"a{i}"] for i in range(3)]
    expected = [p * length for p in pmf]
    _, p_value = stats.chisquare(observed, expected)
    assert p_value > 1e-6


def test_interleave_pattern_and_prefixes():
    model = Interleave(parts=(Cyclic(2), Cyclic(3)), pattern=(2, 1))
    tokens = _tokens(model, 10, seed=5)
    # cycle of 3 takes: two from part 0, one from part 1
    assert [t.split(".")[0] for t in tokens] == [
        "s0", "s0", "s1", "s0", "s0", "s1", "s0", "s0", "s1", "s0"
    ]
    part0 = [t[3:] for t in tokens if t.startswith("s0.")]
    part1 = [t[3:] for t in tokens if t.startswith("s1.")]
    assert part0 == _emitted(Cyclic(2), 7, derive_seed(5, 0))
    assert part1 == _emitted(Cyclic(3), 3, derive_seed(5, 1))


def test_interleave_take_beyond_length():
    model = Interleave(parts=(Cyclic(3), Cyclic(2)), pattern=(2**70, 1))
    assert _tokens(model, 5) == ["s0.a0", "s0.a1", "s0.a2", "s0.a0", "s0.a1"]


def test_interleave_validation():
    with pytest.raises(ValueError):
        generate(GeneratorSpec(Interleave(parts=(), pattern=()), 1))
    with pytest.raises(ValueError):
        generate(GeneratorSpec(Interleave(parts=(Cyclic(2),), pattern=(1, 2)), 1))
    with pytest.raises(ValueError):
        generate(GeneratorSpec(Interleave(parts=(Cyclic(2),), pattern=(0,)), 1))


def test_interleave_is_deterministic():
    spec = GeneratorSpec(
        Interleave(parts=(UniformIrm(5), Cyclic(4)), pattern=(3, 1)), 200, seed=11
    )
    assert generate(spec) == generate(spec)


@pytest.mark.parametrize(
    "model, digest",
    [
        (UniformIrm(37), "25fc0ad96d423f68d81684c7e5273562484d4785de1f973bb5b2d6772e2c434b"),
        (UniformIrm(2**63 + 1),
         "29552f03930b4d8baf93ff119e7e812ab13ccd68cb915a2c3fc733039dd8833f"),
        (Irm((0.5, 0.25, 0.125, 0.125)),
         "ead2d4ee5703b4e7e872a25ef376e4b0da30a0a78547a6f3d76d23ba39c856e1"),
        (LruStackModel((0.4, 0.3, 0.2, 0.1)),
         "549cc2cd4a0c55aba93189f2c189ef68e3bf1b04cd801d5f66c787b29a28d175"),
        (Interleave(parts=(LruStackModel((8 / 15, 4 / 15, 2 / 15, 1 / 15)), UniformIrm(2000),
                           Irm((0.7, 0.3))), pattern=(3, 1, 2)),
         "06ddaf4a20287bf541b91c9c42368386bc5125b7c3b5689c3f358dc745670861"),
    ],
    ids=["uniform-irm", "uniform-irm-rejecting", "irm", "lru-stack", "interleave"],
)
def test_model_tokens_never_drift(model, digest):
    # Pinned from the one-draw-at-a-time generator: drawing in blocks must
    # leave every model's tokens unchanged.
    assert _digest(_emitted(model, 5000, 2024)) == digest


@pytest.mark.parametrize(
    "model, length, seed, digest",
    [
        (LruStackModel((8 / 15, 4 / 15, 2 / 15, 1 / 15)), 2 * 2**16 + 1, 0,
         "76f207d315c02d62e74b3767cc8758e536f696376683966ab69bcae035e1ad41"),
        (LruStackModel((8 / 15, 4 / 15, 2 / 15, 1 / 15)), 2 * 2**16 + 1, 2024,
         "470b91984bc1edf216f0db80dc31259488322aa5c273970b9d14c9cbaa85f511"),
        (UniformIrm(2**63 + 1), 150_000, 2024,
         "a2b505b33acb799debf7365364deeb822d641003b23ddcc176acba57c0f8cce3"),
    ],
    ids=["lru-stack-seed0", "lru-stack-seed2024", "uniform-irm-rejecting"],
)
def test_long_model_tokens_never_drift(model, length, seed, digest):
    # Pinned from the one-draw-at-a-time generator over lengths that cross
    # 2**16-draw blocks and, rejecting about half of all outputs, refills.
    assert _digest(_emitted(model, length, seed)) == digest


def _normalized(weights):
    return tuple(w / sum(weights) for w in weights)


_B = synth._DRAW_BLOCK
STACK_PMFS = st.one_of(
    st.just((1.0,)),
    st.lists(st.integers(0, 9), min_size=1, max_size=12).filter(any).map(_normalized),
    st.lists(st.integers(0, 9), min_size=1, max_size=12).filter(any).map(
        lambda w: _normalized([0, *w])  # no draw at the top
    ),
    st.lists(st.integers(1, 9), min_size=50, max_size=50).map(_normalized),
)


@settings(max_examples=30, deadline=None)
@given(
    STACK_PMFS,
    st.one_of(st.sampled_from([0, 1, _B - 1, _B, _B + 1]), st.integers(0, 300)),
    st.integers(0, 2**64 - 1),
)
def test_lru_stack_model_matches_the_per_draw_loop(pmf, length, seed):
    model = LruStackModel(pmf)
    codes, tokens = model.emit(length, seed)
    assert codes.tolist() == lru_stack_codes(model.pmf, length, seed)
    assert tokens == [f"a{i}" for i in range(len(pmf))]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.one_of(st.integers(1, 5), st.just(2**70)), min_size=1, max_size=4),
    st.integers(0, 40),
)
@example(pattern=[3, 1], length=0)  # every take cut to 0: an empty owner cycle
def test_interleave_owners_match_the_cycle_loop(pattern, length):
    # Each part counts up past the trace's end, so a token names its part
    # and how many references that part made before it.
    model = Interleave(tuple(Cyclic(2**70) for _ in pattern), tuple(pattern))
    owners = interleave_owners(pattern, length)
    assert _emitted(model, length, 0) == [
        f"s{j}.a{owners[:i].count(j)}" for i, j in enumerate(owners)
    ]


def test_nested_interleave_tokens_never_drift():
    inner = Interleave(parts=(Cyclic(3), UniformIrm(50)), pattern=(1, 2))
    model = Interleave(parts=(inner, LruStackModel((0.5, 0.3, 0.2))), pattern=(2, 3))
    tokens = _tokens(model, 2000, seed=7)
    assert tokens[:6] == ["s0.s0.a0", "s0.s1.a43", "s1.a1", "s1.a1", "s1.a0", "s0.s1.a17"]
    assert _digest(tokens) == "b83fcb7f0603cd5be9e773371bb0a9ed6bcb38c8cb7b38c809f8fb39240ed99b"


def test_uniform_irm_over_the_full_draw_range():
    tokens = _tokens(UniformIrm(2**64), 1000, seed=3)
    assert tokens[0] == "a2092789425003139053"
    assert _digest(tokens) == "4cddf72b11caf7f26fbc8a5293d71cda4e6f62c8e9d13a3f74fe2a4c0ee1b46d"


def test_cyclic_larger_than_the_trace():
    for k in (10**15, 2**70):  # 2**70 does not fit in int64
        assert _tokens(Cyclic(k), 5) == ["a0", "a1", "a2", "a3", "a4"]


EVERY_MODEL = pytest.mark.parametrize(
    "model",
    [Cyclic(3), UniformIrm(2**64), Irm((0.5, 0.5)), LruStackModel((1.0,)),
     Interleave(parts=(Cyclic(2), UniformIrm(5)), pattern=(2, 1))],
    ids=["cyclic", "uniform-irm", "irm", "lru-stack", "interleave"],
)


@EVERY_MODEL
def test_length_zero_is_an_empty_trace(model):
    trace = generate(GeneratorSpec(model, 0, seed=1))
    assert len(trace) == 0
    assert len(trace.interns) == 0


@EVERY_MODEL
def test_generated_ids_are_in_first_appearance_order(model):
    # The source is id 0 and each new destination takes the next id, so
    # the trace survives a write and a parse unchanged.
    trace = generate(GeneratorSpec(model, 300, seed=4))
    firsts = list(dict.fromkeys(trace.dst.tolist()))
    assert firsts == list(range(1, len(trace.interns)))
    text = io.StringIO()
    write_trace(trace, text)
    assert parse_trace(io.StringIO(text.getvalue())) == trace


def _generate_peak_per_reference(length: int) -> float:
    """The traced peak of `generate` on the ROADMAP baseline mix, per reference."""
    model = Interleave(
        parts=(LruStackModel((8 / 15, 4 / 15, 2 / 15, 1 / 15)), UniformIrm(2000)), pattern=(3, 1)
    )
    tracemalloc.start()
    try:
        generate(GeneratorSpec(model, length, seed=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / length


def test_generate_memory_is_bounded():
    # The ROADMAP baseline mix at 100k references.  Interning one token per
    # reference peaked at about 92 B/reference; interning one per distinct
    # address needs about half that.
    assert _generate_peak_per_reference(100_000) < 60


def test_generate_memory_at_300k_is_bounded():
    # The trace's five columns hold 28 B/reference.  The draws, the stack's
    # moves and the first-appearance ranking must take scratch in blocks or
    # of a byte or so per reference, not a sort's several arrays.
    assert _generate_peak_per_reference(300_000) < 44
