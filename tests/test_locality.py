"""Concentration, working set, stack distance, and run length analyses."""

from __future__ import annotations

import gc
import io
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from addrloc import locality
from addrloc.cachesim import lru_curve_from_distances
from addrloc.locality import (
    StackDistanceHistogram,
    concentration_curve,
    run_lengths,
    stack_distances,
    working_set,
    write_concentration_csv,
    write_runs_csv,
    write_stackdist_csv,
    write_wss_csv,
)

from helpers import random_reference_string, reference_strings, traced_peak
from oracles import (
    concentration_curve_counter,
    greater_before_insort,
    run_lengths_groupby,
    simulate_lru,
    stack_distances_fenwick,
    stack_distances_naive,
    stack_histogram,
    working_set_loop,
    zero_for_inf,
)


# --- concentration ---------------------------------------------------------

def test_concentration_hot_destination():
    seq = [0] * 90 + list(range(1, 11))
    curve = concentration_curve(seq)
    dest_frac, frame_frac = curve.points[0]
    assert dest_frac == pytest.approx(1 / 11)
    assert frame_frac == 0.9
    assert curve.quantile(0.9) == pytest.approx(1 / 11)


def test_concentration_uniform_is_diagonal():
    curve = concentration_curve(list(range(10)))
    for dest_frac, frame_frac in curve.points:
        assert frame_frac == pytest.approx(dest_frac)
    assert curve.quantile(0.5) == 0.5


def test_concentration_single_destination():
    curve = concentration_curve([7, 7, 7])
    assert curve.points == [(1.0, 1.0)]


def test_concentration_last_point_and_concavity():
    rnd = random.Random(3)
    for _ in range(30):
        seq = random_reference_string(rnd, 12, 300)
        curve = concentration_curve(seq)
        assert curve.points[-1] == (1.0, 1.0)
        increments = [
            b[1] - a[1] for a, b in zip(curve.points, curve.points[1:])
        ]
        assert all(y >= x - 1e-12 for x, y in zip(increments[1:], increments))


def test_concentration_quantile_bounds():
    curve = concentration_curve([0, 1])
    assert curve.quantile(1.0) == 1.0
    with pytest.raises(ValueError):
        curve.quantile(0.0)
    with pytest.raises(ValueError):
        curve.quantile(1.5)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=60))
def test_concentration_matches_counter_ranking(seq):
    got, want = concentration_curve(seq), concentration_curve_counter(seq)
    assert np.array_equal(got.destination_fractions, want.destination_fractions)
    assert np.array_equal(got.frame_fractions, want.frame_fractions)


def test_concentration_ties_rank_by_ascending_id():
    # Every id occurs twice except 9 and 4, so all other ranks are ties.
    seq = [5, 3, 9, 5, 3, 9, 9, 1, 1, 7, 7, 4, 0, 0]
    assert concentration_curve(seq).frame_fractions.tolist() == (
        concentration_curve_counter(seq).frame_fractions.tolist()
    )
    assert concentration_curve(seq).points[0] == (1 / 7, 3 / 14)


def test_concentration_counts_sparse_ids_without_a_dense_table():
    # A table indexed by id would take 8 bytes per id up to the largest.
    gc.collect()
    tracemalloc.start()
    try:
        curve = concentration_curve([0, 2**24])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert curve.points == [(0.5, 0.5), (1.0, 1.0)]
    assert concentration_curve([2**31 - 1, 0, 2**31 - 1]).points == [(0.5, 2 / 3), (1.0, 1.0)]


@pytest.mark.parametrize("seq", [[-1, 0], [2**31]])
def test_locality_rejects_ids_outside_int32(seq):
    for analysis in (concentration_curve, run_lengths, lambda s: working_set(s, 1)):
        with pytest.raises(ValueError, match="destination ids"):
            analysis(seq)


def test_concentration_empty_raises():
    with pytest.raises(ValueError):
        concentration_curve([])


# --- working set -----------------------------------------------------------

def test_working_set_constant_sequence():
    for mode in ("disjoint", "sliding"):
        report = working_set([0, 0, 0, 0], 2, mode)
        assert report.average_wss == 1.0


def test_working_set_alternating_sliding():
    report = working_set([0, 1, 0, 1], 2, "sliding")
    assert report.average_wss == 2.0
    assert report.window_count == 3


def test_working_set_disjoint_drops_partial_window():
    report = working_set([0, 1, 0, 1], 3, "disjoint")
    assert report.window_count == 1       # floor(4/3), trailing ref dropped
    assert report.average_wss == 2.0


def test_working_set_bounds():
    rnd = random.Random(11)
    for _ in range(40):
        seq = random_reference_string(rnd, 8, 100, min_length=5)
        w = rnd.randint(1, len(seq))
        for mode in ("disjoint", "sliding"):
            report = working_set(seq, w, mode)
            assert 1.0 <= report.average_wss <= min(w, len(set(seq)))


def test_working_set_sliding_monotone_in_window():
    rnd = random.Random(13)
    for _ in range(10):
        seq = random_reference_string(rnd, 6, 60, min_length=10)
        averages = [
            working_set(seq, w, "sliding").average_wss for w in range(1, len(seq) + 1)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(averages, averages[1:]))


def test_working_set_disjoint_not_monotone_in_window():
    # Dropping the partial tail window can discard the most diverse part
    # of the trace, so disjoint averages may go DOWN as W grows. Pin one
    # such case so the drop-the-tail semantics can't change silently.
    seq = [3, 2, 3, 3, 1, 1, 2, 1, 0, 4, 3, 5, 5, 2, 0]
    assert working_set(seq, 7, "disjoint").average_wss == 4.5
    assert working_set(seq, 8, "disjoint").average_wss == 3.0


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=80),
    st.data(),
)
def test_working_set_matches_window_loop(seq, data):
    n = len(seq)
    windows = {1, n, data.draw(st.integers(min_value=1, max_value=n))}
    for window in windows:
        for mode in ("disjoint", "sliding"):
            assert working_set(seq, window, mode) == working_set_loop(seq, window, mode)
            assert working_set(np.array(seq, np.int32), window, mode) == working_set_loop(
                seq, window, mode
            )


def test_working_set_matches_window_loop_on_long_strings():
    rnd = random.Random(17)
    for alphabet in (3, 60, 2000):
        seq = [rnd.randrange(alphabet) for _ in range(5000)]
        for window in (1, 10, 333, 5000):
            for mode in ("disjoint", "sliding"):
                assert working_set(seq, window, mode) == working_set_loop(seq, window, mode)


def _windows_near_runs(seq: list[int]) -> set[int]:
    """1, the length, and each run length with its neighbours, that fit."""
    lengths = run_lengths_groupby(seq).counts
    near = {w + d for w in lengths for d in (-1, 0, 1)}
    return {w for w in near | {1, len(seq)} if 1 <= w <= len(seq)}


@settings(max_examples=200, deadline=None)
@given(reference_strings(), st.sampled_from([1, 2, 3, 8, None]))
def test_head_walks_match_the_oracles_in_small_blocks(seq, block):
    # Working sets and run lengths walk the run heads a block at a time; tiny
    # blocks put runs, windows and the sliding tail across block edges.
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(locality, "_BLOCK", block)
        refs = locality._Refs(seq)
        assert run_lengths(refs) == run_lengths_groupby(seq)
        for window in sorted(_windows_near_runs(seq)):
            for mode in ("disjoint", "sliding"):
                assert working_set(refs, window, mode) == working_set_loop(seq, window, mode)


def _bursty_ids(n: int) -> np.ndarray:
    """A trace's int32 dst column: 5,000 ids, each repeated once or twice in a row."""
    rng = np.random.default_rng(0)
    ids = rng.integers(0, 5000, size=n).astype(np.int32)
    return np.repeat(ids, rng.integers(1, 3, size=n))[:n].copy()


def test_working_set_phase_memory_is_bounded():
    # The 7 default windows in both modes, as `wss` runs them, on a prepared
    # string whose sort is done: the phase holds the head positions and gaps
    # (8 B per run head) and block scratch.  An n-entry previous-use array
    # with n-length temporaries per window took 24 B per reference.
    n = 1 << 19
    refs = locality._Refs(_bursty_ids(n))
    refs.collapsed_prev
    heads = len(refs.collapsed)

    def phase():
        for mode in ("disjoint", "sliding"):
            for window in (10, 20, 50, 100, 200, 500, 1000):
                working_set(refs, window, mode)

    _, peak = traced_peak(phase)
    assert peak / n <= 8 * heads / n + 1


def test_run_lengths_memory_is_bounded():
    # Block scratch only, given the run-head mask every analysis shares: an
    # int64 array of head positions and its differences took 12 B per reference.
    n = 1 << 20
    refs = locality._Refs(_bursty_ids(n))
    refs.heads
    hist, peak = traced_peak(lambda: run_lengths(refs))
    assert hist.total_runs == len(refs.collapsed)
    assert peak / n <= 1.5


def test_working_set_errors():
    with pytest.raises(ValueError):
        working_set([0, 1], 0)
    with pytest.raises(ValueError):
        working_set([0, 1], 3)
    with pytest.raises(ValueError):
        working_set([0, 1], 2, "zigzag")
    # A window is an integer: no bool, no float.
    for bad in (True, 1.0, 2.5, np.float64(2.0), "2"):
        with pytest.raises(ValueError, match="window must be an integer >= 1"):
            working_set([0, 1, 0], bad)
    assert working_set([0, 1, 0], np.int64(2)) == working_set([0, 1, 0], 2)


# --- stack distances -------------------------------------------------------

def test_stack_distances_alternating():
    distances, hist = stack_distances([0, 1, 0, 1])
    assert distances.dtype == np.int32 and not distances.flags.writeable
    assert distances.tolist() == [0, 0, 2, 2]
    assert hist.counts.tolist() == [2, 0, 2] and not hist.counts.flags.writeable
    assert hist.infinite_count == 2
    assert hist.total == 4


def test_stack_distances_repeat():
    distances, _ = stack_distances([0, 0])
    assert distances.tolist() == [0, 1]


def test_stack_distance_histogram_pdf_cdf():
    _, hist = stack_distances([0, 1, 0, 1, 1])
    assert hist.pdf(1) == pytest.approx(1 / 5)
    assert hist.pdf(2) == pytest.approx(2 / 5)
    assert hist.cdf(1) == pytest.approx(1 / 5)
    assert hist.cdf(2) == pytest.approx(3 / 5)
    # first references keep the finite cdf below 1
    assert hist.cdf(99) == pytest.approx(3 / 5)
    assert hist.cdf(len(set([0, 1]))) + hist.infinite_count / hist.total == 1.0


def test_stack_distances_methods_agree():
    rnd = random.Random(5)
    for _ in range(25):
        seq = random_reference_string(rnd, 40, 600)
        assert stack_distances(seq)[0].tolist() == zero_for_inf(stack_distances_naive(seq))


def test_stack_distances_agree_across_compaction():
    # alphabet far wider than the initial slot arena forces many rebuilds
    rnd = random.Random(6)
    seq = [rnd.randrange(500) for _ in range(3000)]
    assert stack_distances(seq)[0].tolist() == zero_for_inf(stack_distances_naive(seq))


def test_stack_distances_cyclic_mass():
    seq = [i % 30 for i in range(10_000)]
    distances, hist = stack_distances(seq)
    assert all(d == 30 for d in distances[30:])
    assert hist.pdf(30) >= 0.99
    assert hist.cdf(29) == 0.0
    assert len(hist.counts) - 1 <= len(set(seq))


def test_stack_distances_empty():
    distances, hist = stack_distances([])
    assert distances.tolist() == [] and hist.total == 0


def test_empty_histogram_has_no_fractions():
    _, hist = stack_distances([])
    for fraction in (hist.pdf, hist.cdf):
        with pytest.raises(ValueError, match="no references"):
            fraction(1)
    buf = io.StringIO()
    with pytest.raises(ValueError, match="no references"):
        write_stackdist_csv(hist, buf)
    assert buf.getvalue() == ""
    with pytest.raises(ValueError, match="cannot simulate an empty reference sequence"):
        lru_curve_from_distances(hist, [1])


@pytest.mark.parametrize(
    "counts, message",
    [
        ([], "non-empty 1-D"),
        (5, "non-empty 1-D"),
        ([[1, 2]], "non-empty 1-D"),
        ([0, -1, 3], "non-negative"),
        ([1.5, 2], "integers"),
        ([1.0, 2.0], "integers"),
        ([True, False], "integers"),
    ],
)
def test_histogram_rejects_bad_counts(counts, message):
    with pytest.raises(ValueError, match=message):
        StackDistanceHistogram(counts)


@pytest.mark.parametrize(
    "counts, allowed",
    [
        ([0, 3], False),  # re-references with no first reference
        ([1, 0, 0, 5], False),  # distance 3 with one distinct address
        ([2, 1, 1, 1], False),
        ([0, 1, 0, 0], False),  # trailing zeros do not count
        ([0], True),  # no references
        ([0, 0], True),
        ([1, 5], True),
        ([3, 0, 0, 2], True),
        ([2, 4, 1, 0], True),
    ],
)
def test_histogram_needs_a_first_reference_per_distance(counts, allowed):
    # A reference at distance d has d distinct addresses at and above it in
    # the stack, each first referenced once: d <= counts[0].
    if allowed:
        kept = np.trim_zeros(counts, "b") or [0]
        assert StackDistanceHistogram(counts).counts.tolist() == kept
    else:
        with pytest.raises(ValueError, match="needs as many distinct addresses"):
            StackDistanceHistogram(counts)


def _check_greater_before(values) -> None:
    values = np.asarray(values, dtype=np.int32)
    counts, order = locality._greater_before(values)
    assert counts.dtype == np.int32 and order.dtype == np.intp
    assert np.array_equal(values[order], np.sort(values))
    want = greater_before_insort(values.tolist())
    assert counts.tolist() == [want[k] for k in order.tolist()]


# Sizes at and around the powers of two, where the padding changes.
_SIZES = st.one_of(
    st.integers(0, 200), st.sampled_from([(1 << k) + e for k in range(8) for e in (-1, 0, 1)])
)


@settings(max_examples=200, deadline=None)
@given(_SIZES.flatmap(
    lambda m: st.lists(st.integers(0, 2**31 - 1), min_size=m, max_size=m, unique=True)
))
def test_greater_before_matches_brute_force(values):
    _check_greater_before(values)


@pytest.mark.parametrize("m", [(1 << 15) - 1, 1 << 15])
def test_greater_before_at_the_packing_limit(m):
    # Descending values give every count its largest value, m - 1 at the end.
    _check_greater_before(np.random.default_rng(m).permutation(4 * m)[:m])
    _check_greater_before(np.arange(m)[::-1])


def test_greater_before_refuses_more_than_it_packs():
    # Ranks from 2**15 on would overflow rank << 16 in an int32.
    with pytest.raises(ValueError, match="exceeds"):
        locality._greater_before(np.arange((1 << 15) + 1, dtype=np.int32))
    # So does a block of more re-references than that.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(locality, "_BLOCK", 1 << 16)
        with pytest.raises(ValueError, match="exceeds"):
            stack_distances([0, 1] * (1 << 15))


# Without its immediate repeats this string keeps 376 positions; in blocks of
# 3 they push 126 levels, and the binary-counter merges take 120 steps.
_rnd = random.Random(23)
_MERGING = [_rnd.randrange(12) for _ in range(400)]


@settings(max_examples=300, deadline=None)
@given(reference_strings(), st.sampled_from([1, 2, 3, 8, None]))
@example(_MERGING, 3)
def test_stack_distances_match_oracles(seq, block):
    # A tiny block size makes most counts cross block boundaries.
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(locality, "_BLOCK", block)
        results = [stack_distances(seq), stack_distances(np.array(seq, dtype=np.int32))]
    for oracle in (stack_distances_naive, stack_distances_fenwick):
        want = oracle(seq)
        for distances, hist in results:
            assert distances.tolist() == zero_for_inf(want)
            assert hist == stack_histogram(want)


def test_stack_distances_match_fenwick_on_long_strings():
    rnd = random.Random(19)
    for alphabet in (3, 60, 2000):
        seq = [rnd.randrange(alphabet) for _ in range(20_000)]
        want = stack_distances_fenwick(seq)
        for block in (64, locality._BLOCK):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(locality, "_BLOCK", block)
                distances, hist = stack_distances(seq)
            assert distances.tolist() == zero_for_inf(want)
            assert hist == stack_histogram(want)


@pytest.mark.parametrize("seq", [[-1, 0], [3, -7, 3], np.array([0, -2], dtype=np.int32)])
def test_stack_distances_rejects_negative_ids(seq):
    with pytest.raises(ValueError, match="destination ids"):
        stack_distances(seq)


def test_stack_distances_memory_is_bounded():
    # Peak bytes per reference above the caller's, for a trace's int32 dst
    # column with few immediate repeats (the case that collapses least).
    # The per-block scratch is fixed, so the bound per reference must not
    # grow with the trace.
    rng = np.random.default_rng(0)
    per_reference = {}
    for n in (50_000, 200_000):
        ids = rng.integers(0, 20_000, size=n).astype(np.int32)
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            stack_distances(ids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        per_reference[n] = (peak - base) / n
    assert per_reference[200_000] <= 48
    assert per_reference[200_000] < 1.25 * per_reference[50_000]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=120))
def test_mattson_equivalence_property(seq):
    # LRU misses reconstructed from the histogram match direct simulation
    # at every capacity (the one-pass hierarchy evaluation result).
    _, hist = stack_distances(seq)
    capacities = list(range(1, len(set(seq)) + 2))
    recon = lru_curve_from_distances(hist, capacities)
    for entry in recon.entries:
        assert entry.misses == simulate_lru(seq, entry.capacity)


# --- run lengths -----------------------------------------------------------

def test_run_lengths_example():
    hist = run_lengths([0, 0, 1, 0])
    assert hist.counts == {1: 2, 2: 1}
    assert hist.total_runs == 3
    freqs = hist.frequencies()
    assert freqs[1] == pytest.approx(2 / 3)
    assert freqs[2] == pytest.approx(1 / 3)


def test_run_lengths_all_singletons():
    assert run_lengths([0, 1, 2]).counts == {1: 3}


def test_run_lengths_mass_accounts_for_every_reference():
    rnd = random.Random(9)
    for _ in range(30):
        seq = random_reference_string(rnd, 5, 200)
        hist = run_lengths(seq)
        assert sum(n * c for n, c in hist.counts.items()) == len(seq)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=3), max_size=80))
def test_run_lengths_match_groupby(seq):
    assert run_lengths(seq) == run_lengths_groupby(seq)


def test_run_lengths_empty():
    hist = run_lengths([])
    assert hist.counts == {} and hist.total_runs == 0
    assert hist.frequencies() == {}


# --- CSV emitters ----------------------------------------------------------

def test_concentration_csv():
    buf = io.StringIO()
    write_concentration_csv(concentration_curve([0, 0, 1, 1]), buf)
    assert buf.getvalue() == "dest_fraction,frame_fraction\n0.5,0.5\n1.0,1.0\n"


def test_wss_csv():
    buf = io.StringIO()
    write_wss_csv([working_set([0, 1, 0, 1], 2, "sliding")], buf)
    assert buf.getvalue() == "window,mode,avg_wss\n2,sliding,2.0\n"


def test_stackdist_csv():
    _, hist = stack_distances([0, 1, 0, 1])
    buf = io.StringIO()
    write_stackdist_csv(hist, buf)
    assert buf.getvalue() == (
        "distance,count,pdf,cdf\n2,2,0.5,0.5\ninf,2,0.5,1.0\n"
    )
    # Counts up to 2**40, with gaps: each row's fractions are those of
    # `pdf` and `cdf`, digit for digit.
    counts = np.random.default_rng(2).integers(0, 2**40, size=300)
    counts[::7] = 0
    counts[0] = 2**41
    hist = StackDistanceHistogram(counts)
    buf = io.StringIO()
    write_stackdist_csv(hist, buf)
    rows = [line.split(",") for line in buf.getvalue().splitlines()[1:-1]]
    assert rows == [
        [str(d), str(counts[d]), repr(hist.pdf(d)), repr(hist.cdf(d))]
        for d in range(1, len(counts)) if counts[d]
    ]


def test_runs_csv():
    buf = io.StringIO()
    write_runs_csv(run_lengths([0, 0, 1]), buf)
    assert buf.getvalue() == "length,count,frequency\n1,1,0.5\n2,1,0.5\n"
