"""The prepared reference string: the same results as a plain sequence, one
previous-use sort and one stack-distance pass per command, and derived
arrays equal to their direct computations."""

from __future__ import annotations

import functools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addrloc import cachesim, cli, locality
from addrloc import trace as trace_module
from addrloc.cachesim import POLICIES, simulate, sweep
from addrloc.cli import main
from addrloc.locality import _Refs, concentration_curve, run_lengths, stack_distances, working_set

from helpers import reference_strings
from oracles import min_keys_loop, stack_distances_naive, zero_for_inf


def _results(x, window, capacities, seed) -> list:
    """Every public kernel's result on `x`, in a form that compares with ==."""
    distances, hist = stack_distances(x)
    return [
        concentration_curve(x).points,
        working_set(x, window, "disjoint"),
        working_set(x, window, "sliding"),
        distances.tolist(),
        hist,
        run_lengths(x),
        *(sweep(x, policy, capacities, seed=seed) for policy in POLICIES),
        *(simulate(x, policy, capacities[0], seed=seed) for policy in POLICIES),
    ]


@settings(max_examples=150, deadline=None)
@given(reference_strings(min_size=1), st.data())
def test_kernels_agree_on_prepared_and_plain_strings(seq, data):
    window = data.draw(st.integers(min_value=1, max_value=len(seq)))
    capacities = sorted(data.draw(st.sets(st.integers(1, 12), min_size=1, max_size=4)))
    seed = data.draw(st.integers(min_value=0, max_value=2**64 - 1))
    want = _results(seq, window, capacities, seed)
    assert _results(_Refs(seq), window, capacities, seed) == want
    shared = _Refs(seq)
    # The first pass fills the caches as it goes; the second finds them full.
    assert _results(shared, window, capacities, seed) == want
    assert _results(shared, window, capacities, seed) == want


@settings(max_examples=150, deadline=None)
@given(reference_strings())
def test_derived_previous_use_equals_a_direct_sort(seq):
    ids = np.array(seq, dtype=np.int64)
    order = np.argsort(ids, kind="stable")      # equal ids in position order
    repeat = ids[order][1:] == ids[order][:-1]
    want = np.full(len(seq), -1)
    want[order[1:][repeat]] = order[:-1][repeat]
    refs = _Refs(seq)
    assert refs.previous_use.tolist() == want.tolist()
    assert refs.distinct == len(set(seq))


@settings(max_examples=150, deadline=None)
@given(reference_strings(min_size=1))
def test_min_keys_equal_the_loop_oracle(seq):
    # At capacity c, MIN visits the positions that are no LRU hit or whose
    # next use is none; its keys are the oracle's, but 0 (no push) where
    # the next use is an LRU hit.  Only first references start marked.
    refs = _Refs(seq)
    collapsed = refs.collapsed.tolist()
    n = len(collapsed)
    oracle = min_keys_loop(collapsed)
    distances = zero_for_inf(stack_distances_naive(collapsed))
    plan = cachesim._MinPlan(refs)
    for c in range(2, refs.distinct):
        lru_hit = [0 < d <= c for d in distances]
        keys = [0 if k >= -n and lru_hit[-k] else k for k in oracle]
        want = [(i, k) for i, k in enumerate(keys) if k or not lru_hit[i]]
        dead, positions, loop_keys = plan.loop(c)
        assert list(zip(positions, loop_keys)) == want
        assert list(dead) == [int(d == 0) for d in distances]


@pytest.mark.parametrize(
    "command, stack_passes",
    [
        (["report", "--out-dir", "{out}"], 1),
        (["wss", "--out", "{out}/wss.csv"], 0),                       # 7 default windows
        (["simulate", "--miss-out", "{out}/m.csv", "--interfault-out", "{out}/i.csv"], 1),
        (["simulate", "--policies", "LRU", "--miss-out", "{out}/m.csv",
          "--interfault-out", "{out}/i.csv"], 1),
        (["simulate", "--policies", "MIN", "--miss-out", "{out}/m.csv",
          "--interfault-out", "{out}/i.csv"], 1),               # MIN's LRU-hit filter
    ],
)
def test_each_command_sorts_once_and_builds_one_histogram(
    tmp_path, monkeypatch, command, stack_passes
):
    trace = tmp_path / "t.txt"
    gen = ["gen", "--uniform-irm", "40", "--length", "1500", "--seed", "5", "--out", str(trace)]
    assert main(gen) == 0
    sorts, passes = [], []
    sort = _Refs.collapsed_prev.func

    def counted_sort(refs):
        sorts.append(len(refs))
        return sort(refs)

    prop = functools.cached_property(counted_sort)
    prop.__set_name__(_Refs, "collapsed_prev")
    monkeypatch.setattr(_Refs, "collapsed_prev", prop)
    # Wrapped where it is defined, as a tracer does, so every caller's pass counts.
    stack = locality.stack_distances

    def counted_stack(seq):
        passes.append(len(seq))
        return stack(seq)

    monkeypatch.setattr(locality, "stack_distances", counted_stack)
    argv = [command[0], str(trace)] + [a.format(out=tmp_path) for a in command[1:]]
    assert main(argv) == 0
    assert sorts == [1500]
    assert len(passes) == stack_passes


def test_windows_share_one_previous_use_array_freed_before_the_sweeps(tmp_path, monkeypatch):
    trace = tmp_path / "t.txt"
    gen = ["gen", "--uniform-irm", "40", "--length", "1500", "--seed", "5", "--out", str(trace)]
    assert main(gen) == 0
    derived = []
    derive = _Refs.previous_use.func

    def counted_derive(refs):
        prev = derive(refs)
        derived.append(weakref.ref(prev))
        return prev

    prop = functools.cached_property(counted_derive)
    prop.__set_name__(_Refs, "previous_use")
    monkeypatch.setattr(_Refs, "previous_use", prop)
    alive_at_sweep = []
    sweep_ = cli.sweep

    def checked_sweep(*args, **kwargs):
        alive_at_sweep.append(any(ref() is not None for ref in derived))
        return sweep_(*args, **kwargs)

    monkeypatch.setattr(cli, "sweep", checked_sweep)
    assert main(["report", str(trace), "--out-dir", str(tmp_path / "out")]) == 0
    assert len(derived) == 1                  # 7 default windows
    assert alive_at_sweep and not any(alive_at_sweep)


# Every command, with its flags, and its read: the dst column alone, the
# summary read (dst ids, the first and last timestamps, the address count)
# or every column.
_COMMANDS = [
    (["concentration", "--out", "{out}/c.csv"], "destinations"),
    (["wss", "--out", "{out}/w.csv"], "destinations"),
    (["stackdist", "--out", "{out}/s.csv"], "destinations"),
    (["runs", "--out", "{out}/r.csv"], "destinations"),
    (["simulate", "--miss-out", "{out}/m.csv", "--interfault-out", "{out}/i.csv"], "destinations"),
    (["searchtime", "--out", "{out}/t.csv"], "destinations"),
    (["summarize"], "summary"),
    (
        ["split", "--proto", "lat", "--match-out", "{out}/a.txt", "--rest-out", "{out}/b.txt"],
        "trace",
    ),
    (["report", "--out-dir", "{out}/report"], "summary"),
]


@pytest.mark.parametrize("command, select", _COMMANDS, ids=[c[0] for c, _ in _COMMANDS])
def test_each_command_reads_its_trace_once(tmp_path, monkeypatch, command, select):
    # The readers are wrapped where they are defined, as a tracer does, so a
    # command that bound its own reader at import, or read twice, is caught.
    trace = tmp_path / "t.txt"
    gen = ["gen", "--uniform-irm", "40", "--length", "1500", "--seed", "5", "--out", str(trace)]
    assert main(gen) == 0
    calls = []
    for name in ("read_trace", "parse_trace"):

        def counted(*args, _name=name, _read=getattr(trace_module, name), **kwargs):
            only = "destinations" if kwargs.get("destinations_only") else "trace"
            calls.append((_name, kwargs.get("_select") or only))
            return _read(*args, **kwargs)

        monkeypatch.setattr(trace_module, name, counted)
    argv = [command[0], str(trace)] + [a.format(out=tmp_path) for a in command[1:]]
    assert main(argv) == 0
    assert calls == [("read_trace", select), ("parse_trace", select)]


_NOT_INTEGERS = [
    [0.5, 0.7, 1.2, 2.9], np.array([0.0, 1.0, 0.0]), ["0", "1", "0"], [True, False, True]
]


@pytest.mark.parametrize("ids", _NOT_INTEGERS, ids=["float", "float-array", "str", "bool"])
@pytest.mark.parametrize(
    "kernel",
    [
        concentration_curve,
        lambda x: working_set(x, 1),
        stack_distances,
        run_lengths,
        *(functools.partial(simulate, policy=policy, capacity=2) for policy in POLICIES),
        *(functools.partial(sweep, policy=policy, capacities=[1, 2]) for policy in POLICIES),
    ],
)
def test_every_kernel_rejects_ids_that_are_not_integers(kernel, ids):
    # Truncating 0.5 and 0.7 to 0 once merged distinct addresses silently.
    dtype = np.asarray(ids).dtype
    with pytest.raises(ValueError, match=f"must be integers, got dtype {dtype}"):
        kernel(ids)
