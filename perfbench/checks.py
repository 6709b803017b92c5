"""Correctness checks on addrloc's outputs.

Each check returns a list of problems, empty when the output is right.
The oracles are independent of addrloc's code: facts about the input
(frame count N, distinct destinations D, generator counts), Belady's and
Mattson's theorems, and the search-time formula T = cost(c)/cost(n) + p.
Floats are compared as the text addrloc writes (`repr`), exactly.
"""

from __future__ import annotations

import csv
from math import log2
from pathlib import Path

from capture import CaptureCounts


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.reader(f))


def trace_facts(path: Path) -> tuple[int, int]:
    """(frames, distinct destinations) of a trace file, read without addrloc."""
    frames = 0
    destinations = set()
    with open(path, encoding="utf-8") as f:
        for line in f:
            if not line.strip() or line.startswith("#"):
                continue
            frames += 1
            destinations.add(line.split("\t", 3)[2].rstrip("\r\n"))
    return frames, len(destinations)


def _columns(rows: list[list[str]]) -> tuple[list[int], dict[str, list[str]]]:
    policies = rows[0][1:]
    capacities = [int(r[0]) for r in rows[1:]]
    return capacities, {p: [r[j] for r in rows[1:]] for j, p in enumerate(policies, start=1)}


def check_miss_curves(
    miss_rows: list[list[str]], interfault_rows: list[list[str]], frames: int, destinations: int
) -> list[str]:
    """Belady, stack-inclusion and compulsory-miss facts about a capacity sweep."""
    problems = []
    capacities, ratios = _columns(miss_rows)
    interfault_caps, interfaults = _columns(interfault_rows)
    if interfault_caps != capacities or list(interfaults) != list(ratios):
        return ["interfault.csv rows or columns differ from miss_ratio.csv"]
    misses = {}
    for policy, cells in ratios.items():
        misses[policy] = [round(float(cell) * frames) for cell in cells]
        for cap, cell, m, gap in zip(capacities, cells, misses[policy], interfaults[policy]):
            if repr(m / frames) != cell:
                problems.append(f"{policy}@{cap}: miss ratio {cell} is not a count over {frames}")
            if gap != (repr(frames / m) if m else "inf"):
                problems.append(f"{policy}@{cap}: interfault {gap} != {frames}/{m}")
            if cap >= destinations and m != destinations:
                problems.append(f"{policy}@{cap}: {m} misses at capacity >= D={destinations}")
    for policy in ("MIN", "LRU"):
        seq = misses.get(policy, [])
        if any(b > a for a, b in zip(seq, seq[1:])):
            problems.append(f"{policy} misses increase with capacity: {seq}")
    for policy, seq in misses.items():
        for cap, best, other in zip(capacities, misses.get("MIN", seq), seq):
            if best > other:
                problems.append(f"MIN@{cap} misses {best} > {policy} misses {other}")
    return problems


def lru_misses_from_stackdist(rows: list[list[str]], capacities: list[int]) -> list[int]:
    """Mattson: LRU at capacity c misses every reference at distance > c or inf."""
    finite = [(int(r[0]), int(r[1])) for r in rows[1:] if r[0] != "inf"]
    total = sum(count for _, count in finite) + int(rows[-1][1])
    return [total - sum(count for d, count in finite if d <= c) for c in capacities]


def check_lru_matches_stackdist(
    miss_rows: list[list[str]], stackdist_rows: list[list[str]], frames: int
) -> list[str]:
    capacities, ratios = _columns(miss_rows)
    expected = [repr(m / frames) for m in lru_misses_from_stackdist(stackdist_rows, capacities)]
    if ratios.get("LRU") != expected:
        return [f"LRU column {ratios.get('LRU')} != stack-distance reconstruction {expected}"]
    return []


def check_search_time(
    search_rows: list[list[str]], miss_rows: list[list[str]], database_size: int
) -> list[str]:
    """searchtime.csv must equal cost(c)/cost(n) + p with cost(m) = 1 + log2(m)."""
    capacities, ratios = _columns(miss_rows)
    search_caps, times = _columns(search_rows)
    if search_caps != capacities or list(times) != list(ratios):
        return ["searchtime.csv rows or columns differ from miss_ratio.csv"]
    problems = []
    full = 1.0 + log2(database_size)
    for policy, cells in ratios.items():
        for cap, p, t in zip(capacities, cells, times[policy]):
            want = repr((1.0 + log2(cap)) / full + float(p))
            if t != want:
                problems.append(f"{policy}@{cap}: search time {t} != {want}")
    return problems


def check_stackdist(rows: list[list[str]], frames: int, destinations: int) -> list[str]:
    problems = []
    if rows[-1][0] != "inf" or int(rows[-1][1]) != destinations:
        problems.append(f"stackdist inf row {rows[-1]} != D={destinations}")
    total = sum(int(r[1]) for r in rows[1:])
    if total != frames:
        problems.append(f"stackdist counts sum to {total}, not N={frames}")
    return problems


def check_runs(rows: list[list[str]], frames: int) -> list[str]:
    covered = sum(int(r[0]) * int(r[1]) for r in rows[1:])
    return [] if covered == frames else [f"run lengths cover {covered} frames, not N={frames}"]


def check_concentration(rows: list[list[str]], destinations: int) -> list[str]:
    if len(rows) - 1 != destinations or rows[-1] != ["1.0", "1.0"]:
        return [f"concentration has {len(rows) - 1} rows ending {rows[-1]}, D={destinations}"]
    return []


def check_wss(rows: list[list[str]], mode: str) -> list[str]:
    problems = []
    for window, got_mode, avg in rows[1:]:
        if got_mode != mode or not 1.0 <= float(avg) <= int(window):
            problems.append(f"wss row {[window, got_mode, avg]} out of range for {mode}")
    return problems if len(rows) > 1 else ["wss.csv has no rows"]


def check_summary(path: Path, frames: int, destinations: int) -> list[str]:
    lines = set(path.read_text(encoding="utf-8").splitlines())
    want = {f"frames={frames}", f"destinations={destinations}"}
    return [] if want <= lines else [f"summary.txt lacks {sorted(want - lines)}"]


def check_summarize_stdout(stdout: str, counts: CaptureCounts) -> list[str]:
    want = counts.summarize_line()
    got = stdout.splitlines()[:1]
    return [] if got == [want] else [f"summarize printed {got}, expected {want!r}"]


def check_split(match_path: Path, rest_path: Path, counts: CaptureCounts) -> list[str]:
    def frames(path: Path) -> int:
        with open(path, encoding="utf-8") as f:
            return sum(1 for line in f if line.strip() and not line.startswith("#"))

    matched, rest = frames(match_path), frames(rest_path)
    problems = []
    if matched != counts.lat_frames:
        problems.append(f"split matched {matched} lat frames, generator made {counts.lat_frames}")
    if matched + rest != counts.frames:
        problems.append(f"split sides hold {matched} + {rest} frames, not N={counts.frames}")
    return problems
