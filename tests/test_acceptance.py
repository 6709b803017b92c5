"""Acceptance suite: one test per criterion, one printed verdict line each.

Each criterion prints `criterion N PASS/FAIL: <label>` directly to the
terminal (bypassing capture) so a full `pytest` run always shows the
battery's verdicts, with elapsed seconds as evidence against the stated
runtime budgets.
"""

from __future__ import annotations

import math
import random
import sys
import time
from contextlib import contextmanager

from addrloc import (
    Cyclic,
    GeneratorSpec,
    LruStackModel,
    UniformIrm,
    generate,
    lru_curve_from_distances,
    normalized_search_time,
    optimal_cache_size,
    search_time_curve,
    simulate,
    sweep,
    working_set,
)
from addrloc.cli import main
from addrloc.locality import stack_distances
from addrloc.searchcost import binary_search_cost, constant_cost

from helpers import random_reference_string
from oracles import brute_force_optimal, simulate_lru


@contextmanager
def criterion(number: int, label: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} FAIL: {label}", file=sys.__stdout__)
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_seconds:
        print(f"criterion {number} FAIL: {label} (over budget: {elapsed:.1f}s)", file=sys.__stdout__)
        raise AssertionError(f"runtime {elapsed:.1f}s exceeds {budget_seconds}s budget")
    print(f"criterion {number} PASS: {label} ({elapsed:.1f}s)", file=sys.__stdout__)


def test_criterion_1_min_optimality_oracle():
    with criterion(1, "MIN never loses to LRU/FIFO/RAND and matches exhaustive search", 60):
        rnd = random.Random(101)
        for _ in range(1000):
            seq = random_reference_string(rnd, 8, 64)
            for capacity in range(1, len(set(seq)) + 1):
                best = simulate(seq, "MIN", capacity).misses
                assert best <= simulate(seq, "LRU", capacity).misses
                assert best <= simulate(seq, "FIFO", capacity).misses
                for seed in range(10):
                    assert best <= simulate(seq, "RAND", capacity, seed=seed).misses
        for _ in range(100):
            seq = random_reference_string(rnd, 4, 12)
            capacity = rnd.randint(1, 3)
            assert simulate(seq, "MIN", capacity).misses == brute_force_optimal(seq, capacity)


def test_criterion_2_mattson_equivalence():
    with criterion(2, "stack-distance LRU reconstruction equals direct simulation", 30):
        rnd = random.Random(202)
        for _ in range(200):
            seq = random_reference_string(rnd, 16, 512)
            capacities = list(range(1, len(set(seq)) + 2))
            _, hist = stack_distances(seq)
            recon = lru_curve_from_distances(hist, capacities)
            direct = [simulate_lru(seq, c) for c in capacities]
            assert [e.misses for e in recon.entries] == direct
            assert [e.misses for e in sweep(seq, "LRU", capacities).entries] == direct


def test_criterion_3_reciprocity_anchor():
    with criterion(3, "interfault x miss ratio = 1; full-capacity anchor 6912.2", 60):
        rnd = random.Random(303)
        for _ in range(40):
            seq = random_reference_string(rnd, 10, 300)
            for policy in ("MIN", "LRU", "FIFO", "RAND"):
                stats = simulate(seq, policy, rnd.randint(1, 12))
                assert abs(stats.interfault_distance * stats.miss_ratio - 1.0) <= 1e-12
        # at capacity = distinct destinations only the cold misses remain,
        # so interfault is references/distinct by construction
        length, distinct = 2_046_000, 296
        seq = [i % distinct for i in range(length)]
        stats = simulate(seq, "LRU", distinct)
        assert stats.misses == distinct
        assert stats.interfault_distance == length / distinct
        assert round(stats.interfault_distance, 1) == 6912.2


def test_criterion_4_cyclic_harm_regime():
    with criterion(4, "cyclic trace: caching below the cycle length is harmful", 5):
        trace = generate(GeneratorSpec(Cyclic(30), 10_000, seed=7))
        dst = trace.destinations()
        curve = sweep(dst, "LRU", list(range(2, 30)))
        assert all(e.miss_ratio >= 0.99 for e in curve.entries)
        _, hist = stack_distances(dst)
        assert hist.pdf(30) >= 0.99
        for entry in curve.entries:
            if entry.capacity > 16:
                continue
            t = normalized_search_time(entry.miss_ratio, entry.capacity, 30)
            assert t > 1.0


def test_criterion_5_search_time_anchors():
    with criterion(5, "T = 1 exactly at full capacity; decomposition to 1e-12", 5):
        for n in (1, 2, 8, 30, 296, 4096):
            assert normalized_search_time(0.0, n, n) == 1.0
            assert normalized_search_time(0.0, n, n, cost=constant_cost) == 1.0
        rnd = random.Random(505)
        for cost in (binary_search_cost, constant_cost):
            for _ in range(500):
                n = rnd.randint(1, 10_000)
                c = rnd.randint(1, n)
                p = rnd.random()
                t = normalized_search_time(p, c, n, cost=cost)
                assert abs(t - (cost(c) / cost(n) + p)) <= 1e-12


def test_criterion_6_lru_favorable_regime():
    with criterion(6, "decreasing-pmf stack model: LRU beats FIFO/RAND, interior T* < 1", 10):
        raw = [0.8**d for d in range(1, 41)]
        total = sum(raw)
        pmf = tuple(w / total for w in raw)
        assert all(a > b for a, b in zip(pmf, pmf[1:]))  # strictly decreasing
        trace = generate(GeneratorSpec(LruStackModel(pmf), 100_000, seed=1))
        dst = trace.destinations()
        capacities = [2, 4, 8, 16, 32]
        lru = sweep(dst, "LRU", capacities)
        fifo = sweep(dst, "FIFO", capacities)
        rand = sweep(dst, "RAND", capacities, seed=0)
        for l, f, r in zip(lru.entries, fifo.entries, rand.entries):
            assert l.misses <= f.misses
            assert l.misses <= r.misses
        full = [1, 2, 4, 8, 16, 32, 40]
        curve = search_time_curve(sweep(dst, "LRU", full), 40)
        best_c, best_t = optimal_cache_size(curve)
        assert best_t < 1.0
        assert min(full) < best_c < max(full)


def test_criterion_7_working_set_analytic_check():
    with criterion(7, "uniform-IRM working set matches N(1-(1-1/N)^W) within 1.0", 10):
        n = 100
        trace = generate(GeneratorSpec(UniformIrm(n), 100_000, seed=2))
        dst = trace.destinations()
        for window in (10, 50, 200):
            report = working_set(dst, window, "sliding")
            analytic = n * (1 - (1 - 1 / n) ** window)
            assert abs(report.average_wss - analytic) <= 1.0


def test_criterion_8_belady_anomaly_witness():
    with criterion(8, "FIFO anomaly on the classic 12-reference string; none for LRU/MIN", 1):
        seq = [1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5]
        assert simulate(seq, "FIFO", 3).misses == 9
        assert simulate(seq, "FIFO", 4).misses == 10
        for policy in ("LRU", "MIN"):
            counts = [simulate(seq, policy, c).misses for c in range(1, 6)]
            assert all(b <= a for a, b in zip(counts, counts[1:]))


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "identical flags and seeds give byte-identical CSVs", 60):
        gen_flags = ["gen", "--interleave", "lru-stack:8,4,2,1;uniform-irm:60",
                     "--pattern", "3,1", "--length", "30000", "--seed", "11"]
        traces = []
        for name in ("a.tsv", "b.tsv"):
            path = tmp_path / name
            assert main([*gen_flags, "--out", str(path)]) == 0
            traces.append(path.read_bytes())
        assert traces[0] == traces[1]

        report_dirs = []
        for name in ("r1", "r2"):
            out_dir = tmp_path / name
            assert main(["report", str(tmp_path / "a.tsv"), "--out-dir", str(out_dir),
                         "--policies", "MIN,LRU,FIFO,RAND", "--seed", "23",
                         "--windows", "10,100,1000"]) == 0
            report_dirs.append(out_dir)
        first, second = report_dirs
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
        # the RAND column really is exercised by the comparison
        header = (first / "miss_ratio.csv").read_text().splitlines()[0]
        assert header == "capacity,MIN,LRU,FIFO,RAND"
