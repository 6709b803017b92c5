"""Replacement policy simulation: MIN, LRU, FIFO, RAND."""

from __future__ import annotations

import gc
import heapq
import io
import random
import tracemalloc
from math import inf

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addrloc import cachesim
from addrloc.cachesim import (
    POLICIES,
    CacheStats,
    lru_curve_from_distances,
    simulate,
    sweep,
    write_interfault_csv,
    write_miss_ratio_csv,
)
from addrloc.locality import _refs, stack_distances
from addrloc._rng import derive_seed

from helpers import random_reference_string, rng_blocks
from oracles import (
    brute_force_optimal,
    min_miss_positions,
    oracle_misses,
    oracle_sweep,
    simulate_fifo,
    simulate_min,
    simulate_rand,
    stack_distances_naive,
)

ABCD3 = [0, 1, 2, 3] * 3
BELADY = [1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5]


def test_lru_thrashes_on_cycle():
    assert simulate(ABCD3, "LRU", 3).misses == 12


def test_min_on_cycle_matches_exhaustive_search():
    # Evicting the farthest-next-use resident at each of the 6 misses:
    # positions 1,2,3,4 are compulsory, then one miss per remaining lap.
    assert simulate(ABCD3, "MIN", 3).misses == 6
    assert brute_force_optimal(ABCD3, 3) == 6


def test_brute_force_trivial_cases():
    assert brute_force_optimal([0, 0, 0], 1) == 1
    assert brute_force_optimal([0, 1, 0, 1], 1) == 4


def test_belady_anomaly_on_fifo_only():
    assert simulate(BELADY, "FIFO", 3).misses == 9
    assert simulate(BELADY, "FIFO", 4).misses == 10
    for policy in ("LRU", "MIN"):
        counts = [simulate(BELADY, policy, c).misses for c in range(1, 6)]
        assert all(b <= a for a, b in zip(counts, counts[1:]))


def test_capacity_one_alternating_thrashes_under_every_policy():
    seq = [0, 1] * 20
    for policy in ("MIN", "LRU", "FIFO", "RAND"):
        assert simulate(seq, policy, 1).miss_ratio == 1.0


def test_capacity_at_least_distinct_leaves_only_cold_misses():
    rnd = random.Random(21)
    for _ in range(20):
        seq = random_reference_string(rnd, 10, 200)
        distinct = len(set(seq))
        for policy in ("MIN", "LRU", "FIFO", "RAND"):
            for capacity in (distinct, distinct + 3):
                assert simulate(seq, policy, capacity).misses == distinct


def test_cyclic_cliff_at_full_capacity():
    seq = [i % 30 for i in range(3000)]
    assert simulate(seq, "LRU", 29).misses == 3000
    assert simulate(seq, "LRU", 30).misses == 30


def test_min_is_optimal_on_random_traces():
    rnd = random.Random(33)
    for _ in range(120):
        seq = random_reference_string(rnd, 8, 64)
        for capacity in range(1, len(set(seq)) + 1):
            best = simulate(seq, "MIN", capacity).misses
            assert best <= simulate(seq, "LRU", capacity).misses
            assert best <= simulate(seq, "FIFO", capacity).misses
            for seed in range(3):
                assert best <= simulate(seq, "RAND", capacity, seed=seed).misses


def test_min_equals_brute_force_on_guard_sized_traces():
    rnd = random.Random(8)
    for _ in range(40):
        seq = random_reference_string(rnd, 4, 12)
        capacity = rnd.randint(1, 3)
        assert simulate(seq, "MIN", capacity).misses == brute_force_optimal(seq, capacity)


def test_lru_and_min_miss_counts_non_increasing_in_capacity():
    rnd = random.Random(14)
    for _ in range(25):
        seq = random_reference_string(rnd, 12, 300)
        for policy in ("LRU", "MIN"):
            counts = [
                e.misses for e in sweep(seq, policy, list(range(1, 14))).entries
            ]
            assert all(b <= a for a, b in zip(counts, counts[1:]))


def test_rand_is_seed_deterministic():
    rnd = random.Random(0)
    seq = [rnd.randrange(100) for _ in range(2000)]
    a = simulate(seq, "RAND", 10, seed=1).misses
    assert a == simulate(seq, "RAND", 10, seed=1).misses
    assert a == 1796            # pinned: the seeded victim stream never drifts
    assert simulate(seq, "RAND", 10, seed=2).misses == 1803


def test_sweep_reseeds_rand_per_capacity():
    rnd = random.Random(1)
    seq = [rnd.randrange(40) for _ in range(800)]
    curve = sweep(seq, "RAND", [4, 10, 20], seed=7)
    for entry in curve.entries:
        assert entry == simulate(seq, "RAND", entry.capacity, seed=7)
        assert entry == sweep(seq, "RAND", [entry.capacity], seed=7).entries[0]


def test_cache_stats_metrics():
    stats = CacheStats(capacity=4, references=200, misses=50)
    assert stats.miss_ratio == 0.25
    assert stats.interfault_distance == 4.0
    assert CacheStats(4, 10, 0).interfault_distance == inf


def test_reciprocity_and_count_bounds():
    rnd = random.Random(40)
    for _ in range(30):
        seq = random_reference_string(rnd, 9, 150)
        for policy in ("MIN", "LRU", "FIFO", "RAND"):
            stats = simulate(seq, policy, rnd.randint(1, 10))
            assert 1 <= stats.misses <= stats.references
            assert abs(stats.interfault_distance * stats.miss_ratio - 1.0) <= 1e-12


def test_mattson_reconstruction_example():
    _, hist = stack_distances([0, 1, 0, 1])
    curve = lru_curve_from_distances(hist, [1, 2])
    assert [e.misses for e in curve.entries] == [4, 2]


def test_simulate_validation():
    with pytest.raises(ValueError):
        simulate([0], "LRU", 0)
    with pytest.raises(ValueError):
        simulate([0], "CLOCK", 1)
    with pytest.raises(ValueError):
        simulate([], "LRU", 1)
    with pytest.raises(ValueError):
        sweep([0], "LRU", [])
    # simulate checks its capacity through sweep.
    with pytest.raises(ValueError, match="capacity must be an integer >= 1, got 2.5"):
        simulate([0, 1, 2, 0], "FIFO", 2.5)
    with pytest.raises(ValueError, match="capacity must be an integer >= 1, got True"):
        simulate([0, 1, 2, 0], "MIN", True)
    seq = [0, 1, 2, 0]
    assert simulate(seq, "RAND", np.int64(2), seed=5) == simulate(seq, "RAND", 2, seed=5)


def _lru_from_histogram(seq, capacities):
    return lru_curve_from_distances(stack_distances(seq)[1], capacities)


_CAPACITY_TAKERS = [
    *(pytest.param(lambda seq, caps, p=p: sweep(seq, p, caps), id=p) for p in POLICIES),
    pytest.param(_lru_from_histogram, id="lru_curve_from_distances"),
]


@pytest.mark.parametrize("curve_of", _CAPACITY_TAKERS)
def test_capacities_must_be_integers_at_least_one(curve_of):
    # Entries that are not integers >= 1 are rows of tests/test_arguments.py.
    seq = [0, 1, 2, 0, 3, 1, 0, 2]
    with pytest.raises(ValueError, match="capacity sweep is empty"):
        curve_of(seq, np.array([], dtype=np.int64))
    # Numpy integers and arrays are integers: the entries come back as ints.
    want = curve_of(seq, [2, 3])
    for caps in ([np.int32(2), np.int64(3)], np.array([2, 3]), (2, 3)):
        curve = curve_of(seq, caps)
        assert curve == want
        assert all(type(e.capacity) is int for e in curve.entries)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("bad_id", [-1, 2**31])
def test_ids_outside_int32_range_are_rejected_by_every_policy(policy, bad_id):
    with pytest.raises(ValueError, match=r"destination ids must lie in 0\.\.2147483647"):
        sweep([bad_id, 0], policy, [1, 2])
    assert sweep([2**31 - 1, 0], policy, [1, 2]).entries[-1].misses == 2


def test_brute_force_guard():
    big = list(range(4)) * 4  # 16 references: past the length guard
    with pytest.raises(ValueError):
        brute_force_optimal(big, 3)
    assert brute_force_optimal(big, 3, force=True) == simulate(big, "MIN", 3).misses


def test_miss_ratio_csv():
    curves = [sweep([0, 1, 0, 1], policy, [1, 2]) for policy in ("MIN", "LRU")]
    buf = io.StringIO()
    write_miss_ratio_csv(curves, buf)
    assert buf.getvalue() == "capacity,MIN,LRU\n1,1.0,1.0\n2,0.5,0.5\n"


def test_interfault_csv():
    curves = [sweep([0, 1, 0, 1], "LRU", [1, 2])]
    buf = io.StringIO()
    write_interfault_csv(curves, buf)
    assert buf.getvalue() == "capacity,LRU\n1,1.0\n2,2.0\n"


def test_csv_requires_aligned_capacities():
    a = sweep([0, 1], "LRU", [1, 2])
    b = sweep([0, 1], "MIN", [1])
    with pytest.raises(ValueError):
        write_miss_ratio_csv([a, b], io.StringIO())


@st.composite
def _reference_strings(draw):
    """Short strings with heavy immediate repeats and one-shot addresses.

    Addresses from `alphabet` upward occur once each, so their next use is
    infinite from the start and MIN has ties at infinity to break.
    """
    alphabet = draw(st.integers(min_value=1, max_value=8))
    runs = draw(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=alphabet - 1),
                      st.integers(min_value=1, max_value=5)),
            min_size=1,
            max_size=60,
        )
    )
    seq = [a for a, repeat in runs for _ in range(repeat)]
    one_shots = draw(st.lists(st.integers(min_value=0, max_value=len(seq)), max_size=6))
    for k, pos in enumerate(sorted(one_shots, reverse=True)):
        seq.insert(pos, alphabet + k)
    return seq


def _capacities(seq, extra):
    distinct = len(set(seq))
    return sorted({1, distinct, distinct + 2, *extra})


@settings(max_examples=150, deadline=None)
@given(
    _reference_strings(),
    st.lists(st.integers(min_value=1, max_value=16), max_size=4),
    st.integers(min_value=0, max_value=2**64 - 1),
)
def test_sweep_equals_per_capacity_oracles(seq, extra, seed):
    capacities = _capacities(seq, extra)
    for policy in POLICIES:
        curve = sweep(seq, policy, capacities, seed=seed)
        assert [e.capacity for e in curve.entries] == capacities
        assert all(e.references == len(seq) for e in curve.entries)
        assert [e.misses for e in curve.entries] == oracle_sweep(seq, policy, capacities, seed)


@settings(max_examples=150, deadline=None)
@given(
    _reference_strings(),
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=0, max_value=2**64 - 1),
)
def test_simulate_equals_per_capacity_oracles(seq, capacity, seed):
    for c in _capacities(seq, [capacity]):
        for policy in POLICIES:
            stats = simulate(seq, policy, c, seed=seed)
            assert stats == CacheStats(c, len(seq), oracle_sweep(seq, policy, [c], seed)[0])


@settings(max_examples=100, deadline=None)
@given(
    _reference_strings(),
    st.lists(st.integers(min_value=1, max_value=16), min_size=1, max_size=4),
    st.integers(min_value=0, max_value=2**64 - 1),
)
def test_simulate_is_the_one_capacity_sweep(seq, capacities, seed):
    # One RAND stream per (seed, capacity), whichever function asks for it.
    for policy in POLICIES:
        curve = sweep(seq, policy, capacities, seed=seed)
        want = oracle_sweep(seq, policy, capacities, seed)
        for c, entry, misses in zip(capacities, curve.entries, want):
            assert simulate(seq, policy, c, seed=seed) == entry == CacheStats(c, len(seq), misses)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=3, max_value=10),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=2**32),
    st.sampled_from([(1, 1), (2, 7), None]),
)
def test_hit_rich_sweeps_equal_oracles(alphabet, capacity, salt, blocks):
    # Long strings over a few addresses: mostly hits at small capacities,
    # so MIN's heap fills with stale keys and is compacted many times.
    # Tiny random-draw blocks make RAND's victims cross many block edges.
    rnd = random.Random(salt)
    seq = [rnd.randrange(alphabet) for _ in range(1500)] + list(range(alphabet, alphabet + 5))
    capacities = [capacity, capacity + 1]
    with rng_blocks(blocks):
        curves = {policy: sweep(seq, policy, capacities, seed=salt) for policy in POLICIES}
    for policy, curve in curves.items():
        assert [e.misses for e in curve.entries] == oracle_sweep(seq, policy, capacities, salt)


def test_min_heap_compaction_keeps_counts_exact(monkeypatch):
    compactions = []

    def counting_heapify(heap):
        compactions.append(len(heap))
        heapq.heapify(heap)

    monkeypatch.setattr(cachesim, "heapify", counting_heapify)
    rnd = random.Random(5)
    seq = [rnd.randrange(6) for _ in range(3000)]
    plan = cachesim._MinPlan(_refs(seq))
    for c in (2, 3, 4, 5):
        compactions.clear()
        assert simulate(seq, "MIN", c).misses == oracle_misses(seq, "MIN", c)
        assert compactions and max(compactions) <= c
        # ... with the keys of next uses that are LRU hits left out.
        assert 0 in plan.loop(c)[2]


@st.composite
def _min_strings(draw):
    """Strings with runs and last uses: short ones, or long ones whose
    hits fill MIN's heap with stale keys until it is compacted."""
    if draw(st.booleans()):
        return draw(_reference_strings())
    rnd = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    alphabet = draw(st.integers(min_value=2, max_value=16))
    seq = []
    for _ in range(draw(st.integers(min_value=100, max_value=600))):
        seq += [rnd.randrange(alphabet)] * rnd.choice((1, 1, 1, 2, 5))
    for k in range(draw(st.integers(min_value=0, max_value=6))):
        seq.insert(rnd.randrange(len(seq) + 1), alphabet + k)
    return seq


@settings(max_examples=80, deadline=None)
@given(_min_strings())
def test_min_sweep_equals_the_oracle_at_every_simulated_capacity(seq):
    capacities = list(range(2, len(set(seq))))
    if capacities:
        curve = sweep(seq, "MIN", capacities)
        assert [e.misses for e in curve.entries] == [simulate_min(seq, c) for c in capacities]


@settings(max_examples=80, deadline=None)
@given(_min_strings())
def test_lru_hits_are_min_hits(seq):
    # The premise of MIN's filter (Mattson et al. 1970's inclusion
    # property), checked reference by reference against the oracles.
    distances = stack_distances_naive(seq)
    for c in range(1, len(set(seq)) + 1):
        missed = set(min_miss_positions(seq, c))
        assert not [i for i, d in enumerate(distances) if d <= c and i in missed]


@st.composite
def _held_strings(draw):
    """Zipf-like strings over 30-300 ids, in both regimes of MIN's held
    entry: the latest miss's key is often the next victim, and with
    `revisit` the latest reference comes back after a hot id, before the
    next miss, so its next use is an LRU hit and its held key is 0."""
    rnd = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    ids = draw(st.integers(min_value=30, max_value=300))
    skew = draw(st.floats(min_value=0.6, max_value=1.4))
    revisit = draw(st.sampled_from([0.0, 0.3, 0.8]))
    length = draw(st.integers(min_value=300, max_value=1200))
    seq = []
    for a in rnd.choices(range(ids), [(r + 1) ** -skew for r in range(ids)], k=length):
        seq.append(a)
        if rnd.random() < revisit:
            seq += [rnd.randrange(3), a]
    return seq


@settings(max_examples=60, deadline=None)
@given(_held_strings())
def test_min_held_entry_sweeps_equal_the_oracle(seq):
    distinct = len(set(seq))
    capacities = sorted({c for c in (2, distinct // 8, distinct // 2, distinct - 1) if c >= 2})
    curve = sweep(seq, "MIN", capacities)
    assert [e.misses for e in curve.entries] == [simulate_min(seq, c) for c in capacities]


def test_min_evicts_the_held_entry_without_heap_calls(monkeypatch):
    # Most MIN victims are the entry the latest miss brought in, which is
    # kept outside the heap: on this string fewer than a quarter of the
    # misses make a heap call, and all pushes, pops and replacements
    # together are fewer than the misses.  A loop that evicts through the
    # heap at every miss makes 14,109 replacements for 14,491 misses here.
    calls = {"heapreplace": 0, "heappush": 0, "heappop": 0}

    def counted(name):
        call = getattr(heapq, name)

        def wrapper(*args):
            calls[name] += 1
            return call(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(cachesim, name, counted(name))
    seq = _long_string("zipf")
    misses = simulate(seq, "MIN", 16).misses
    assert misses == simulate_min(seq, 16)
    assert calls["heapreplace"] + calls["heappop"] <= misses / 4
    assert sum(calls.values()) < misses


@pytest.mark.parametrize(
    "seq, dense",
    [
        ([0, 0, 1, 2, 1, 0, 2, 3, 1] * 200, True),   # a trace's dst ids
        ([9000, 9000, 300, 7, 300, 9000, 7, 123456, 300] * 200, False),
        ([7, 7, 300, 900, 300, 7, 900, 1234, 300] * 200, False),  # below 2n
    ],
)
def test_fifo_and_rand_share_one_list(seq, dense):
    refs = _refs(seq)
    assert sweep(refs, "FIFO", [2, 3]).entries == sweep(seq, "FIFO", [2, 3]).entries
    listed = refs.collapsed_list
    assert sweep(refs, "RAND", [2, 3]).entries == sweep(seq, "RAND", [2, 3]).entries
    assert refs.collapsed_list is listed
    # The collapsed string renumbered 0..D-1 by first reference.
    collapsed = refs.collapsed.tolist()
    rank: dict[int, int] = {}
    assert listed == [rank.setdefault(a, len(rank)) for a in collapsed]
    assert (listed == collapsed) == dense
    assert len({id(a) for a in listed}) == refs.distinct  # one int object per id


def _long_string(kind: str) -> list[int]:
    rng = np.random.default_rng(11)
    if kind == "uniform":
        return rng.integers(0, 600, size=20_000).tolist()
    if kind == "zipf":
        return (rng.zipf(1.2, size=30_000) % 3000).tolist()
    # A scan of 700 ids with random detours, on sparse ids.
    scan = np.arange(25_000) % 700
    detour = rng.random(25_000) < 0.2
    scan[detour] = rng.integers(0, 900, size=int(detour.sum()))
    return (scan * 3_000_017 % 2**31).tolist()


@pytest.mark.parametrize("kind", ["uniform", "zipf", "sparse scan"])
def test_long_fifo_and_rand_sweeps_equal_the_oracles(kind):
    # Tens of thousands of misses at capacities in the hundreds: FIFO's
    # expiries reach far past D, and RAND draws thousands of victims.
    seq = _long_string(kind)
    distinct = len(set(seq))
    assert len(seq) >= 20_000 and distinct >= 500
    capacities = [2**k for k in range(1, distinct.bit_length()) if 2**k < distinct]
    fifo = sweep(seq, "FIFO", capacities)
    assert [e.misses for e in fifo.entries] == [simulate_fifo(seq, c) for c in capacities]
    rand = sweep(seq, "RAND", capacities, seed=7)
    want = [simulate_rand(seq, c, derive_seed(7, c)) for c in capacities]
    assert [e.misses for e in rand.entries] == want


@settings(max_examples=100, deadline=None)
@given(_reference_strings(), st.data())
def test_sparse_relabeled_ids_give_the_same_counts(seq, data):
    # Counts do not depend on id values: an injective map of the ids into
    # 0..2**31 - 1 changes no policy's sweep.
    ids = sorted(set(seq))
    image = data.draw(
        st.lists(st.integers(0, 2**31 - 1), min_size=len(ids), max_size=len(ids), unique=True)
    )
    relabel = dict(zip(ids, image))
    relabeled = [relabel[a] for a in seq]
    capacities = _capacities(seq, [2, 3, 5])
    for policy in POLICIES:
        assert sweep(relabeled, policy, capacities, seed=9) == sweep(seq, policy, capacities, seed=9)


def test_exact_shortcuts_skip_simulation(monkeypatch):
    # c = 1 and c >= D are answered without simulating, under every policy.
    def refuse(*args):
        raise AssertionError("simulated a capacity with an exact answer")

    for name in ("_min_misses", "_fifo_misses", "_rand_misses"):
        monkeypatch.setattr(cachesim, name, refuse)
    seq = [0, 0, 1, 2, 2, 2, 0, 3, 1, 1]
    for policy in POLICIES:
        assert [e.misses for e in sweep(seq, policy, [1, 4, 9]).entries] == [6, 4, 4]


def _sweep_peaks(policy: str) -> tuple[int, int, int]:
    """Traced bytes of the collapsed string's list (200k references over
    5,000 ids), and peaks of a sweep at capacity 256 that builds it and of
    one that finds it built."""
    ids = np.random.default_rng(3).integers(0, 5000, size=200_000).astype(np.int32)
    refs = _refs(ids)
    refs.collapsed, refs.distinct  # prepared before measuring
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        curve = sweep(refs, policy, [256], seed=1)
        peak = tracemalloc.get_traced_memory()[1] - base
        list_bytes = tracemalloc.get_traced_memory()[0] - base  # the list is kept
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        again = sweep(refs, policy, [256], seed=1)
        loop_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert curve == again
    assert all(e.misses > 150_000 for e in curve.entries)
    return list_bytes, peak, loop_peak


def test_rand_sweep_memory_is_bounded():
    # Beyond the collapsed string as a list, a RAND sweep holds its D-entry
    # residency list, the slots and one block of victim draws.  Drawing
    # every victim at once would add 8 B per reference plus an int object
    # per draw.  The list is filled a block at a time: an n-entry object
    # array beside it would add 8 B per reference (1.6 MB).
    list_bytes, peak, loop_peak = _sweep_peaks("RAND")
    assert peak <= list_bytes + 2**20
    assert loop_peak <= 2**20  # nothing per reference: 8 B each would be 1.6 MB


def test_fifo_sweep_memory_is_bounded():
    # Beyond the collapsed string as a list, a FIFO sweep holds one D-entry
    # list of expiries, and the list is built without an n-entry object array.
    list_bytes, peak, loop_peak = _sweep_peaks("FIFO")
    assert peak <= list_bytes + 2**20
    assert loop_peak <= 2**20


def test_min_keys_memory_is_bounded():
    # Per collapsed reference, a MIN sweep holds its next uses and
    # first-reference mask (5 B) and, for the capacity it runs, two masks,
    # the marks, the int32 positions and the int32 keys it visits, negated
    # in place from the next uses gathered for them, and one mask gathered
    # for them: 17 B where every position is visited.  An int64
    # `flatnonzero` of the positions and int64 keys beside the gather made
    # it 22 B.  A list of the string would add 8 B a reference, and
    # `tolist()` an int object for each besides.
    ids = np.random.default_rng(5).integers(0, 5000, size=200_000).astype(np.int32)
    refs = _refs(ids)
    refs.collapsed_distances  # the histogram's pass, prepared before measuring
    sweep(refs, "MIN", [2])   # and numpy's lazily imported helpers
    n = len(refs.collapsed)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        curve = sweep(refs, "MIN", [2, 16, 256])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert all(e.misses > 140_000 for e in curve.entries)
    assert peak / n <= 19
