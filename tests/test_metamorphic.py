"""Metamorphic relations through `main()`.

The six analysis subcommands read the trace's dst ids alone.  Replacing
every source token, proto and length, or renaming the address tokens by a
bijection, changes the ids a full read gives, but must leave every file
those commands write byte-identical.

`simulate`'s miss-ratio table must order its policies and capacities as
the theory does: MIN is optimal, MIN and LRU are stack algorithms, and a
cache that holds every destination misses only on first references.

`split`'s two sides must hold every frame between them, and its matching
side must analyse as the trace filtered by hand.

`report` reads a full trace.  Shifting every timestamp by a constant must
leave its eight files byte-identical, and scaling them by an integer must
change only `summary.txt`'s `duration_hours` line.  Comment lines, blank
lines and the line ends (LF, CRLF or a lone CR) are not part of the trace,
so they must change no file; nor may the reader's chunk sizes, nor a
bijective renaming of the address tokens.  Its CSV files must equal those
the six subcommands write with the same flags.
"""

from __future__ import annotations

import csv
import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from addrloc import trace as trace_module
from addrloc.cli import main
from addrloc.trace import MICROSECONDS_PER_HOUR

# The six dst-only subcommands, each writing its files into {out}.
COMMANDS = [
    ["concentration", "--out", "{out}/concentration.csv"],
    ["wss", "--windows", "1,2,5", "--mode", "sliding", "--out", "{out}/wss.csv"],
    ["stackdist", "--out", "{out}/stackdist.csv"],
    ["runs", "--out", "{out}/runs.csv"],
    ["simulate", "--seed", "3", "--miss-out", "{out}/miss.csv", "--interfault-out", "{out}/if.csv"],
    ["searchtime", "--policies", "MIN,LRU,FIFO,RAND", "--seed", "3", "--out", "{out}/time.csv"],
]

# Tokens of 1 to 13 bytes, multi-byte characters among them, so renamed
# tokens hash, group and cross 8-byte words differently.
_NAMES = ["a", "b", "00:1b:21:0a", "é", "host-7", "€x", "z" * 9, "q:q", "12345678x", "n"]


@st.composite
def _frames(draw) -> list[tuple]:
    """(timestamp, src, dst, proto, length) rows; proto and length may be None."""
    n = draw(st.integers(5, 40))
    pool = st.sampled_from(_NAMES[: draw(st.integers(1, len(_NAMES)))])
    frames, ts = [], 0
    for _ in range(n):
        ts += draw(st.integers(0, 3))
        proto = draw(st.sampled_from([None, "lat", "ip"]))
        length = draw(st.one_of(st.none(), st.integers(0, 1500)))
        frames.append((ts, draw(pool), draw(pool), proto, length))
    return frames


def _text(frames: list[tuple]) -> str:
    lines = []
    for ts, src, dst, proto, length in frames:
        fields = [str(ts), src, dst]
        if proto is not None or length is not None:
            fields.append(proto or "")
        if length is not None:
            fields.append(str(length))
        lines.append("\t".join(fields) + "\n")
    return "".join(lines)


def _outputs(frames: list[tuple]) -> dict[str, bytes]:
    """Every file the six commands write for the trace of `frames`."""
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "trace.txt"
        trace.write_text(_text(frames), encoding="utf-8")
        out = Path(tmp) / "out"
        out.mkdir()
        for command in COMMANDS:
            argv = [command[0], str(trace)] + [a.format(out=out) for a in command[1:]]
            assert main(argv) == 0
        return {p.name: p.read_bytes() for p in out.iterdir()}


@settings(max_examples=10, deadline=None)
@given(_frames(), st.data())
def test_sources_protos_and_lengths_do_not_change_dst_only_outputs(frames, data):
    others = st.sampled_from(_NAMES + ["new-src"])
    replaced = [
        (
            ts,
            data.draw(others),
            dst,
            data.draw(st.sampled_from([None, "lat", "arp"])),
            data.draw(st.one_of(st.none(), st.integers(0, 10**6))),
        )
        for ts, _, dst, _, _ in frames
    ]
    assert _outputs(replaced) == _outputs(frames)


@settings(max_examples=10, deadline=None)
@given(_frames(), st.permutations(_NAMES), st.sampled_from(["", "-renamed", "€"]))
def test_renaming_addresses_does_not_change_dst_only_outputs(frames, names, suffix):
    rename = {old: new + suffix for old, new in zip(_NAMES, names)}
    renamed = [
        (ts, rename[src], rename[dst], proto, length) for ts, src, dst, proto, length in frames
    ]
    assert _outputs(renamed) == _outputs(frames)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(0, 23), min_size=1, max_size=300),
    st.lists(st.integers(1, 30), min_size=1, max_size=8),
    st.integers(0, 2**32),
)
def test_simulated_miss_ratios_keep_the_policy_relations(dsts, capacities, seed):
    frames = [(i, "s", f"h{a}", None, None) for i, a in enumerate(dsts)]
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "trace.txt"
        trace.write_text(_text(frames), encoding="utf-8")
        miss = Path(tmp) / "miss.csv"
        argv = [
            "simulate", str(trace), "--policies", "MIN,LRU,FIFO,RAND",
            "--capacities", ",".join(map(str, capacities)), "--seed", str(seed),
            "--miss-out", str(miss), "--interfault-out", str(Path(tmp) / "if.csv"),
        ]
        assert main(argv) == 0
        with open(miss, newline="") as f:
            header, *table = list(csv.reader(f))
    assert header == ["capacity", "MIN", "LRU", "FIFO", "RAND"]
    assert [int(row[0]) for row in table] == sorted(set(capacities))
    ratios = {p: [float(row[k]) for row in table] for k, p in enumerate(header[1:], 1)}
    for k, row in enumerate(table):
        assert all(ratios["MIN"][k] <= ratios[p][k] for p in ratios)
        if int(row[0]) >= len(set(dsts)):
            assert row[1:] == [repr(len(set(dsts)) / len(dsts))] * 4
    for p in ("MIN", "LRU"):
        assert ratios[p] == sorted(ratios[p], reverse=True)


def _summarized_frames(path: Path) -> int:
    """`summarize`'s frame count for the trace at `path`; 0 for an empty file, which it rejects."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        status = main(["summarize", str(path)])
    if status == 1 and path.stat().st_size == 0:
        return 0
    assert status == 0
    return int(out.getvalue().split()[0].removeprefix("frames="))


def _stackdist_and_runs(path: Path, out: Path) -> tuple:
    """The exit statuses of `stackdist` and `runs` on `path`, and the files they write."""
    out.mkdir()
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        statuses = [
            main(["stackdist", str(path), "--out", str(out / "stackdist.csv")]),
            main(["runs", str(path), "--out", str(out / "runs.csv")]),
        ]
    return statuses, {p.name: p.read_bytes() for p in out.iterdir()}


@settings(max_examples=10, deadline=None)
@given(_frames(), st.sampled_from(["lat", "ip", "arp"]))
def test_split_sides_add_up_and_the_matching_side_is_the_filtered_trace(frames, wanted):
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "trace.txt"
        trace.write_text(_text(frames), encoding="utf-8")
        sides = Path(tmp) / "match.txt", Path(tmp) / "rest.txt"
        argv = ["split", str(trace), "--proto", wanted,
                "--match-out", str(sides[0]), "--rest-out", str(sides[1])]
        with redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        assert sum(map(_summarized_frames, sides)) == len(frames)
        filtered = Path(tmp) / "filtered.txt"
        filtered.write_text(_text([f for f in frames if f[3] == wanted]), encoding="utf-8")
        got = _stackdist_and_runs(sides[0], Path(tmp) / "match")
        assert got == _stackdist_and_runs(filtered, Path(tmp) / "filtered")


def _report(text: str, flags: tuple = ("--windows", "1,2,5", "--seed", "3")) -> dict[str, bytes]:
    """Every file `report` writes, run with `flags`, for a trace file holding `text`."""
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "trace.txt"
        trace.write_bytes(text.encode("utf-8"))
        out = Path(tmp) / "out"
        argv = ["report", str(trace), *flags, "--out-dir", str(out)]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert main(argv) == 0
        return {p.name: p.read_bytes() for p in out.iterdir()}


@settings(max_examples=10, deadline=None)
@given(_frames(), st.integers(1, 2**62))
def test_shifting_timestamps_does_not_change_the_report(frames, shift):
    shifted = [(ts + shift, *rest) for ts, *rest in frames]
    report = _report(_text(frames))
    assert len(report) == 8
    assert _report(_text(shifted)) == report


@settings(max_examples=10, deadline=None)
@given(_frames(), st.integers(1, 10**6))
def test_scaling_timestamps_changes_only_the_duration(frames, k):
    scaled = [(ts * k, *rest) for ts, *rest in frames]
    report, got = _report(_text(frames)), _report(_text(scaled))
    summary, got_summary = report.pop("summary.txt"), got.pop("summary.txt")
    assert got == report
    span = (frames[-1][0] - frames[0][0]) * k
    duration = f"duration_hours={span / MICROSECONDS_PER_HOUR!r}"
    want = [duration if line.startswith("duration_hours=") else line
            for line in summary.decode().splitlines()]
    assert got_summary.decode().splitlines() == want


_NOISE = ["", " ", "\t", "#", "# comment\twith a tab", "#0\tA\tB"]


def _noisy_text(frames: list[tuple], data) -> str:
    """The text of `frames` with comment and blank lines drawn in, and mixed line ends."""
    lines = []
    for line in _text(frames).splitlines():
        lines += data.draw(st.lists(st.sampled_from(_NOISE), max_size=2))
        lines.append(line)
    lines += data.draw(st.lists(st.sampled_from(_NOISE), max_size=2))
    ends = data.draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                              min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if data.draw(st.booleans()):
        text = text.rstrip("\r\n")  # the last line needs no line end
    return text


@settings(max_examples=10, deadline=None)
@given(_frames(), st.data())
def test_comments_blank_lines_and_line_ends_do_not_change_the_report(frames, data):
    assert _report(_noisy_text(frames, data)) == _report(_text(frames))


@settings(max_examples=10, deadline=None)
@given(_frames(), st.data(), st.sampled_from([1, 7, 64]), st.sampled_from([1, 3]))
def test_chunk_sizes_do_not_change_the_report(frames, data, chunk_bytes, chunk_lines):
    text = _noisy_text(frames, data)
    report = _report(text)
    with mock.patch.object(trace_module, "_CHUNK_BYTES", chunk_bytes), \
            mock.patch.object(trace_module, "_CHUNK_LINES", chunk_lines):
        assert _report(text) == report


@settings(max_examples=10, deadline=None)
@given(_frames(), st.permutations(_NAMES), st.sampled_from(["", "-renamed", "€"]))
def test_renaming_addresses_does_not_change_the_report(frames, names, suffix):
    rename = {old: new + suffix for old, new in zip(_NAMES, names)}
    renamed = [
        (ts, rename[src], rename[dst], proto, length) for ts, src, dst, proto, length in frames
    ]
    report = _report(_text(frames))
    assert len(report) == 8
    assert _report(_text(renamed)) == report


@settings(max_examples=10, deadline=None)
@given(_frames(), st.data())
def test_report_equals_its_parts(frames, data):
    # Every policy, RAND on a drawn seed, capacities that hold 1 and D (the
    # distinct destinations), sliding windows that fit the trace.
    n, distinct = len(frames), len({dst for _, _, dst, _, _ in frames})
    extra = data.draw(st.lists(st.integers(1, distinct), max_size=3))
    capacities = ",".join(map(str, sorted({1, distinct, *extra})))
    windows = ",".join(map(str, data.draw(st.sets(st.integers(1, n), min_size=1, max_size=3))))
    sweep = ["--policies", "MIN,LRU,FIFO,RAND", "--capacities", capacities,
             "--seed", str(data.draw(st.integers(0, 2**63)))]
    wss = ["--windows", windows, "--mode", "sliding"]
    report = _report(_text(frames), (*wss, *sweep))
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "trace.txt"
        trace.write_text(_text(frames), encoding="utf-8")
        path, out = str(trace), Path(tmp)
        for argv in (
            ["concentration", path, "--out", str(out / "concentration.csv")],
            ["wss", path, *wss, "--out", str(out / "wss.csv")],
            ["stackdist", path, "--out", str(out / "stackdist.csv")],
            ["runs", path, "--out", str(out / "runs.csv")],
            ["simulate", path, *sweep, "--miss-out", str(out / "miss_ratio.csv"),
             "--interfault-out", str(out / "interfault.csv")],
            ["searchtime", path, *sweep, "--out", str(out / "searchtime.csv")],
        ):
            assert main(argv) == 0
        parts = {p.name: p.read_bytes() for p in out.iterdir() if p.suffix == ".csv"}
    assert sorted(report) == sorted([*parts, "summary.txt"])
    assert all(report[name] == parts[name] for name in parts)
