"""CLI subcommands: shapes, consistency, exit codes, determinism."""

from __future__ import annotations

import argparse
import csv
import os
import stat
import subprocess
import sys
import threading
from math import log2
from pathlib import Path

import pytest

import addrloc
import addrloc.cli
import addrloc.trace
from addrloc.cli import build_parser, main
from addrloc.trace import read_trace

FIXTURE = "0\tA\tB\n5\tB\tA\n"


def _write_fixture(tmp_path, text=FIXTURE, name="t.tsv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.reader(f))


def _parse_trace_text(text):
    from io import StringIO

    from addrloc.trace import parse_trace

    return parse_trace(StringIO(text))


def test_summarize_fixture(tmp_path, capsys):
    path = _write_fixture(tmp_path)
    assert main(["summarize", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("frames=2 addresses=2 destinations=2")


def test_gen_then_stackdist_pipeline(tmp_path):
    trace_path = tmp_path / "cyc.tsv"
    csv_path = tmp_path / "sd.csv"
    assert main(["gen", "--cyclic", "30", "--length", "10000", "--seed", "7",
                 "--out", str(trace_path)]) == 0
    assert main(["stackdist", str(trace_path), "--out", str(csv_path)]) == 0
    rows = _read_csv(csv_path)
    assert rows[0] == ["distance", "count", "pdf", "cdf"]
    by_distance = {r[0]: r for r in rows[1:]}
    assert float(by_distance["30"][2]) >= 0.99
    assert rows[-1][0] == "inf"


def test_gen_writes_parseable_trace_to_stdout(capsys):
    assert main(["gen", "--uniform-irm", "5", "--length", "20", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert len(_parse_trace_text(out)) == 20


def test_gen_model_flags(tmp_path):
    for flags in (
        ["--irm", "5,3,2"],
        ["--lru-stack", "4,3,2,1"],
        ["--interleave", "cyclic:3;uniform-irm:4", "--pattern", "2,1"],
    ):
        out = tmp_path / "g.tsv"
        assert main(["gen", *flags, "--length", "30", "--seed", "1", "--out", str(out)]) == 0
        assert len(read_trace(out)) == 30


@pytest.mark.parametrize(
    "flags",
    [["--cyclic", "3", "--pattern", "2,1"], ["--interleave", "cyclic:3"],
     ["--interleave", "cyclic:3;cyclic:2", "--pattern", "1"]],
)
def test_gen_flag_pairing_is_usage_error(capsys, flags):
    with pytest.raises(SystemExit) as info:
        main(["gen", *flags, "--length", "5"])
    assert info.value.code == 2
    assert "--pattern" in capsys.readouterr().err


def test_split_command(tmp_path):
    path = _write_fixture(
        tmp_path, "0\tA\tB\tLAT\n1\tB\tA\tDEC\n2\tA\tB\tLAT\n", "p.tsv"
    )
    match_out = tmp_path / "lat.tsv"
    rest_out = tmp_path / "rest.tsv"
    assert main(["split", str(path), "--proto", "LAT",
                 "--match-out", str(match_out), "--rest-out", str(rest_out)]) == 0
    assert len(read_trace(match_out)) == 2
    assert len(read_trace(rest_out)) == 1


_SPLIT_TEXT = "# capture\n0\tA\tB\tLAT\n1\tB\tA\tDEC\n2\tA\tB\tLAT\t60\n3\tC\tA\n"
_SIDES = "0\tA\tB\tLAT\n2\tA\tB\tLAT\t60\n", "1\tB\tA\tDEC\n3\tC\tA\n"


def _split(path, match, rest) -> int:
    return main(["split", str(path), "--proto", "LAT", "--match-out", str(match),
                 "--rest-out", str(rest)])


def test_split_writes_both_sides_as_open_would_and_leaves_nothing_else(tmp_path, capsys):
    path = _write_fixture(tmp_path, _SPLIT_TEXT)
    sides = tmp_path / "lat.tsv", tmp_path / "rest.tsv"
    assert _split(path, *sides) == 0
    assert capsys.readouterr().out == f"wrote {sides[0]}\nwrote {sides[1]}\n"
    assert tuple(side.read_text(encoding="utf-8") for side in sides) == _SIDES
    assert sorted(os.listdir(tmp_path)) == ["lat.tsv", "rest.tsv", "t.tsv"]
    umask = os.umask(0)
    os.umask(umask)
    assert [stat.S_IMODE(side.stat().st_mode) for side in sides] == [0o666 & ~umask] * 2


@pytest.mark.parametrize("match, rest", [("-", "-"), ("-", "rest.tsv"), ("lat.tsv", "-")])
def test_split_sides_on_stdout_come_in_order(tmp_path, capsys, match, rest):
    path = _write_fixture(tmp_path, _SPLIT_TEXT)
    targets = [side if side == "-" else tmp_path / side for side in (match, rest)]
    assert _split(path, *targets) == 0
    want = "".join(
        text if target == "-" else f"wrote {target}\n" for target, text in zip(targets, _SIDES)
    )
    assert capsys.readouterr().out == want


def test_split_may_write_over_its_input(tmp_path):
    path = _write_fixture(tmp_path, _SPLIT_TEXT)
    assert _split(path, path, tmp_path / "rest.tsv") == 0
    assert path.read_text(encoding="utf-8") == _SIDES[0]
    assert (tmp_path / "rest.tsv").read_text(encoding="utf-8") == _SIDES[1]


@pytest.mark.parametrize("text", ["", "# a comment\n\n# and no frame\n"])
def test_split_of_no_frames_writes_two_empty_files(tmp_path, text):
    path = _write_fixture(tmp_path, text)
    sides = tmp_path / "lat.tsv", tmp_path / "rest.tsv"
    assert _split(path, *sides) == 0
    assert [side.read_bytes() for side in sides] == [b"", b""]


@pytest.mark.parametrize("linked", [False, True])
def test_split_with_a_bad_line_late_in_the_file_writes_nothing(
    tmp_path, capsys, monkeypatch, linked
):
    # Reads of 64 bytes: the blocks before the bad line are parsed and
    # written to the temporary files before it is found.  A target with a
    # second link is written in place, so it must be opened untruncated.
    monkeypatch.setattr(addrloc.trace, "_CHUNK_BYTES", 64)
    frames = "".join(f"{i}\tA\tB\t{'LAT' if i % 2 else 'DEC'}\t60\n" for i in range(200))
    path = _write_fixture(tmp_path, frames + "200\tA\n")
    kept = tmp_path / "lat.tsv"
    kept.write_text("kept\n", encoding="utf-8")
    if linked:
        os.link(kept, tmp_path / "other.tsv")
    assert _split(path, kept, tmp_path / "rest.tsv") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 201: expected 3 to 5 tab-separated fields, got 2\n"
    assert sorted(os.listdir(tmp_path)) == ["lat.tsv"] + ["other.tsv"] * linked + ["t.tsv"]
    assert kept.read_text(encoding="utf-8") == "kept\n"


def test_split_into_a_missing_directory_writes_neither_side(tmp_path, capsys):
    path = _write_fixture(tmp_path, _SPLIT_TEXT)
    rest = tmp_path / "missing" / "rest.tsv"
    assert _split(path, tmp_path / "lat.tsv", rest) == 1
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{rest}'\n"
    assert sorted(os.listdir(tmp_path)) == ["t.tsv"]


def test_split_onto_a_directory_writes_neither_side(tmp_path, capsys):
    path = _write_fixture(tmp_path, _SPLIT_TEXT)
    rest = tmp_path / "rest"
    rest.mkdir()
    assert _split(path, tmp_path / "lat.tsv", rest) == 1
    assert capsys.readouterr() == ("", f"error: [Errno 21] Is a directory: '{rest}'\n")
    assert sorted(os.listdir(tmp_path)) == ["rest", "t.tsv"]
    assert os.listdir(rest) == []


def test_split_writes_a_fifo_in_place(tmp_path, capsys):
    # A rename onto the FIFO would replace the node and leave the reader
    # waiting on the old one.
    path = _write_fixture(tmp_path, _SPLIT_TEXT)
    fifo = tmp_path / "rest.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(
        target=lambda: got.append(fifo.read_text(encoding="utf-8")), daemon=True
    )
    reader.start()
    assert _split(path, tmp_path / "lat.tsv", fifo) == 0
    reader.join(timeout=30)
    assert got == [_SIDES[1]]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert capsys.readouterr().out == f"wrote {tmp_path / 'lat.tsv'}\nwrote {fifo}\n"
    assert sorted(os.listdir(tmp_path)) == ["lat.tsv", "rest.fifo", "t.tsv"]


def test_split_keeps_a_targets_mode_symlink_and_hard_links(tmp_path):
    path = _write_fixture(tmp_path, _SPLIT_TEXT)
    private, real, link, other = (tmp_path / name for name in ("p", "real", "link", "other"))
    for target in private, real:
        target.write_text("longer than a side\n" * 4, encoding="utf-8")
    private.chmod(0o600)
    link.symlink_to(real)
    os.link(real, other)
    assert _split(path, private, link) == 0
    assert stat.S_IMODE(private.stat().st_mode) == 0o600
    assert private.read_text(encoding="utf-8") == _SIDES[0]
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert real.read_text(encoding="utf-8") == other.read_text(encoding="utf-8") == _SIDES[1]
    assert os.path.samefile(real, other)
    assert sorted(os.listdir(tmp_path)) == ["link", "other", "p", "real", "t.tsv"]


@pytest.mark.parametrize("second", ["same", "symlink", "hard link", "dot"])
def test_two_outputs_naming_one_file_write_nothing(tmp_path, capsys, second):
    # One text would replace the other; '-' twice is allowed (see above).
    path = _write_fixture(tmp_path, _SPLIT_TEXT)
    first = tmp_path / "same.txt"
    first.write_text("old\n", encoding="utf-8")
    other = {"same": first, "symlink": tmp_path / "link", "hard link": tmp_path / "hard",
             "dot": f"{tmp_path}/./same.txt"}[second]
    if second == "symlink":
        other.symlink_to(first)
    elif second == "hard link":
        os.link(first, other)
    names = sorted(os.listdir(tmp_path))
    for argv in (["split", str(path), "--proto", "LAT", "--match-out", str(first),
                  "--rest-out", str(other)],
                 ["simulate", str(path), "--miss-out", str(first), "--interfault-out", str(other)]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: outputs {first} and {other} are the same file\n"
        assert first.read_text(encoding="utf-8") == "old\n"
        assert sorted(os.listdir(tmp_path)) == names


def test_split_renames_onto_the_file_a_symlink_names(tmp_path):
    path = _write_fixture(tmp_path, _SPLIT_TEXT)
    (tmp_path / "data").mkdir()
    real, link = tmp_path / "data" / "rest.tsv", tmp_path / "rest.tsv"
    real.write_text("old\n", encoding="utf-8")
    link.symlink_to(real)
    assert _split(path, tmp_path / "lat.tsv", link) == 0
    assert link.is_symlink() and real.read_text(encoding="utf-8") == _SIDES[1]
    assert os.listdir(tmp_path / "data") == ["rest.tsv"]


def test_split_writes_in_place_where_no_temporary_file_may_be_made(tmp_path, monkeypatch):
    # As in a directory we may not write: an existing file is written in
    # place, as open() would write it; a new one cannot be made.
    def refused(target, path, old):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(addrloc.cli, "_temporary", refused)
    path = _write_fixture(tmp_path, _SPLIT_TEXT)
    sides = tmp_path / "lat.tsv", tmp_path / "rest.tsv"
    for side in sides:
        side.write_text("longer than a side\n" * 4, encoding="utf-8")
    assert _split(path, *sides) == 0
    assert tuple(side.read_text(encoding="utf-8") for side in sides) == _SIDES
    assert _split(path, *sides[:1], tmp_path / "new.tsv") == 1
    assert sorted(os.listdir(tmp_path)) == ["lat.tsv", "rest.tsv", "t.tsv"]


@pytest.mark.skipif(os.geteuid() == 0, reason="root may write a read-only file")
def test_split_onto_a_read_only_file_fails_as_open_would(tmp_path, capsys):
    path = _write_fixture(tmp_path, _SPLIT_TEXT)
    rest = tmp_path / "rest.tsv"
    rest.write_text("kept\n", encoding="utf-8")
    rest.chmod(0o444)
    assert _split(path, tmp_path / "lat.tsv", rest) == 1
    assert capsys.readouterr().err == f"error: [Errno 13] Permission denied: '{rest}'\n"
    assert rest.read_text(encoding="utf-8") == "kept\n"
    assert sorted(os.listdir(tmp_path)) == ["rest.tsv", "t.tsv"]


def test_concentration_stdout(tmp_path, capsys):
    path = _write_fixture(tmp_path)
    assert main(["concentration", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "dest_fraction,frame_fraction"
    assert lines[-1] == "1.0,1.0"


def test_wss_skips_oversized_windows(tmp_path, capsys):
    path = _write_fixture(tmp_path)
    assert main(["wss", str(path), "--windows", "1,2,100", "--mode", "sliding"]) == 0
    captured = capsys.readouterr()
    assert "skipping window 100" in captured.err
    rows = captured.out.splitlines()
    assert rows[0] == "window,mode,avg_wss"
    assert len(rows) == 3


def test_wss_no_usable_window_fails(tmp_path, capsys):
    path = _write_fixture(tmp_path)
    assert main(["wss", str(path), "--windows", "50"]) == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_shape(tmp_path):
    path = _write_fixture(tmp_path, "".join(f"{i}\tS\td{i % 6}\n" for i in range(600)))
    miss_out = tmp_path / "m.csv"
    inter_out = tmp_path / "i.csv"
    assert main(["simulate", str(path), "--policies", "MIN,LRU,FIFO,RAND",
                 "--capacities", "1,2,4,8", "--seed", "1",
                 "--miss-out", str(miss_out), "--interfault-out", str(inter_out)]) == 0
    miss = _read_csv(miss_out)
    inter = _read_csv(inter_out)
    assert miss[0] == ["capacity", "MIN", "LRU", "FIFO", "RAND"]
    assert [r[0] for r in miss[1:]] == ["1", "2", "4", "8"]
    assert len(miss) == len(inter) == 5
    for miss_row, inter_row in zip(miss[1:], inter[1:]):
        for p, d in zip(miss_row[1:], inter_row[1:]):
            assert abs(float(p) * float(d) - 1.0) <= 1e-12


def test_simulate_default_capacities_include_distinct(tmp_path):
    path = _write_fixture(tmp_path, "".join(f"{i}\tS\td{i % 6}\n" for i in range(60)))
    miss_out = tmp_path / "m.csv"
    assert main(["simulate", str(path), "--policies", "LRU",
                 "--miss-out", str(miss_out),
                 "--interfault-out", str(tmp_path / "i.csv")]) == 0
    capacities = [r[0] for r in _read_csv(miss_out)[1:]]
    assert capacities == ["1", "2", "4", "6", "8", "16", "32", "64", "128", "256"]


def test_searchtime_full_cache_row_is_one(tmp_path, capsys):
    path = _write_fixture(tmp_path, "".join(f"{i}\tS\td{i % 4}\n" for i in range(400)))
    assert main(["searchtime", str(path), "--policies", "LRU"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "capacity,LRU"
    # at capacity = database size only the 4 cold misses remain
    assert rows[-1] == f"4,{1.0 + 4 / 400!r}"


def test_searchtime_rejects_capacity_beyond_database(tmp_path, capsys):
    path = _write_fixture(tmp_path)
    assert main(["searchtime", str(path), "--capacities", "8"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, extra", [("searchtime", []), ("searchtime", ["--database-size", "4"]), ("report", [])]
)
def test_capacity_beyond_database_names_both_flags(tmp_path, capsys, command, extra):
    path = _write_fixture(tmp_path, "".join(f"{i}\tS\td{i % 2}\n" for i in range(20)))
    argv = [command, str(path), "--capacities", "2,5", *extra]
    if command == "report":
        argv += ["--out-dir", str(tmp_path / "rep")]
    assert main(argv) == 1
    database_size = extra[-1] if extra else "2"  # default: the 2 distinct destinations
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"error: --capacities: 5 exceeds --database-size {database_size}"
    )


@pytest.mark.parametrize(
    "flag, value, named",
    [
        ("--windows", "100", "no window fits a trace of 30 references"),
        ("--capacities", "9", "--capacities: 9 exceeds --database-size 3"),
        ("--database-size", "2", "--database-size 2 is below the trace's 3 distinct"),
    ],
)
def test_report_bad_flag_writes_no_file(tmp_path, capsys, flag, value, named):
    path = _write_fixture(tmp_path, "".join(f"{i}\tS\td{i % 3}\n" for i in range(30)))
    out = tmp_path / "rep"
    out.mkdir()
    assert main(["report", str(path), "--out-dir", str(out), flag, value]) == 1
    assert capsys.readouterr().err.splitlines()[-1].startswith(f"error: {named}")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["gen", "simulate", "searchtime", "report"])
def test_seed_out_of_range_is_a_usage_error_before_any_work(tmp_path, capsys, command):
    # -1 and 2**64 were once reduced modulo 2**64 without a word.
    path = _write_fixture(tmp_path, "".join(f"{i}\tS\td{i % 3}\n" for i in range(30)))
    out = tmp_path / "out"
    out.mkdir()
    argv = {
        "gen": ["gen", "--cyclic", "3", "--length", "5", "--out", str(out / "t.tsv")],
        "simulate": ["simulate", str(path), "--miss-out", str(out / "m.csv"),
                     "--interfault-out", str(out / "i.csv")],
        "searchtime": ["searchtime", str(path), "--out", str(out / "t.csv")],
        "report": ["report", str(path), "--out-dir", str(out)],
    }[command]
    for seed in ("-1", str(2**64)):
        with pytest.raises(SystemExit) as stop:
            main([*argv, "--seed", seed])
        assert stop.value.code == 2
        error = capsys.readouterr().err.splitlines()[-1]
        assert error.endswith(f"argument --seed: seed must be an integer in 0..2**64 - 1, got {seed}")
        assert list(out.iterdir()) == []
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert "an integer in 0..2**64 - 1" in " ".join(capsys.readouterr().out.split())


def test_report_outputs_are_mutually_consistent(tmp_path):
    text = "".join(f"{i}\tS\td{(i * i) % 17}\n" for i in range(2000))
    path = _write_fixture(tmp_path, text)
    out_dir = tmp_path / "rep"
    assert main(["report", str(path), "--out-dir", str(out_dir),
                 "--windows", "5,20,100", "--seed", "2"]) == 0
    names = {
        "concentration.csv", "wss.csv", "stackdist.csv", "runs.csv",
        "miss_ratio.csv", "interfault.csv", "searchtime.csv", "summary.txt",
    }
    assert {p.name for p in out_dir.iterdir()} == names

    summary = dict(
        line.split("=", 1) for line in (out_dir / "summary.txt").read_text().splitlines()
    )
    n = int(summary["destinations"])
    miss = _read_csv(out_dir / "miss_ratio.csv")
    inter = _read_csv(out_dir / "interfault.csv")
    times = _read_csv(out_dir / "searchtime.csv")
    assert miss[0] == inter[0] == times[0]
    for miss_row, inter_row, time_row in zip(miss[1:], inter[1:], times[1:]):
        capacity = int(miss_row[0])
        for p, d, t in zip(miss_row[1:], inter_row[1:], time_row[1:]):
            assert abs(float(p) * float(d) - 1.0) <= 1e-12
            expected = (1 + log2(capacity)) / (1 + log2(n)) + float(p)
            assert abs(float(t) - expected) <= 1e-12


def test_report_is_byte_deterministic(tmp_path):
    text = "".join(f"{i}\tS\td{(i * 7) % 23}\n" for i in range(1500))
    path = _write_fixture(tmp_path, text)
    dirs = [tmp_path / "r1", tmp_path / "r2"]
    for d in dirs:
        assert main(["report", str(path), "--out-dir", str(d), "--seed", "5"]) == 0
    for name in ("miss_ratio.csv", "interfault.csv", "searchtime.csv",
                 "stackdist.csv", "concentration.csv", "wss.csv", "runs.csv",
                 "summary.txt"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_missing_file_is_runtime_error(tmp_path, capsys):
    assert main(["summarize", str(tmp_path / "absent.tsv")]) == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_trace_reports_line(tmp_path, capsys):
    path = _write_fixture(tmp_path, "0\tA\tB\nnonsense\n")
    assert main(["summarize", str(path)]) == 1
    assert "line 2" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_console_entry_point(tmp_path):
    path = _write_fixture(tmp_path)
    # The child imports the package under test, wherever pytest found it.
    env = dict(os.environ, PYTHONPATH=str(Path(addrloc.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-m", "addrloc", "summarize", str(path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("frames=2")


SUBCOMMANDS = (
    "summarize", "gen", "split", "concentration", "wss", "stackdist", "runs",
    "simulate", "searchtime", "report",
)


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_subcommand_help_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: addrloc {command}")


@pytest.mark.parametrize(
    "command, database_size",
    [("searchtime", "1"), ("report", "2")],
)
def test_database_size_below_distinct_is_rejected(tmp_path, capsys, command, database_size):
    path = _write_fixture(tmp_path, "".join(f"{i}\tS\td{i % 3}\n" for i in range(30)))
    argv = [command, str(path), "--database-size", database_size]
    if command == "report":
        argv += ["--out-dir", str(tmp_path / "rep")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "error: --database-size" in err and "3 distinct" in err


def test_non_utf8_trace_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.tsv"
    path.write_bytes(b"0\tA\tB\n1\tA\t\xffB\n")
    assert main(["summarize", str(path)]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err and "0xff" in err


def test_report_equals_its_parts(tmp_path):
    text = "".join(f"{i}\tS\td{(i * i) % 17}\n" for i in range(2000))
    path = str(_write_fixture(tmp_path, text))
    # 9 distinct destinations: the sweep spans capacity 1 to past D, where
    # report's LRU column (read off the histogram it also writes) must
    # still match the one simulate and searchtime build, byte for byte.
    sweep = ["--capacities", "1,2,4,8,9,40", "--seed", "3"]
    table = ["--database-size", "40"]
    out = tmp_path / "rep"
    assert main(["report", path, "--out-dir", str(out), "--windows", "5,20",
                 "--mode", "sliding", *sweep, *table]) == 0
    parts = tmp_path / "parts"
    parts.mkdir()
    for argv in (
        ["concentration", path, "--out", str(parts / "concentration.csv")],
        ["wss", path, "--windows", "5,20", "--mode", "sliding",
         "--out", str(parts / "wss.csv")],
        ["stackdist", path, "--out", str(parts / "stackdist.csv")],
        ["runs", path, "--out", str(parts / "runs.csv")],
        ["simulate", path, *sweep, "--miss-out", str(parts / "miss_ratio.csv"),
         "--interfault-out", str(parts / "interfault.csv")],
        ["searchtime", path, "--policies", "MIN,LRU,FIFO,RAND", *sweep, *table,
         "--out", str(parts / "searchtime.csv")],
    ):
        assert main(argv) == 0
    names = sorted(p.name for p in parts.iterdir())
    assert names == sorted(p.name for p in out.iterdir() if p.suffix == ".csv")
    for name in names:
        assert (out / name).read_bytes() == (parts / name).read_bytes(), name


def _fail_to_write(curves, stream):
    stream.write("capacity\n")
    raise OSError(28, "No space left on device")


def test_simulate_writes_both_csvs_or_neither(tmp_path, capsys, monkeypatch):
    path = _write_fixture(tmp_path, "".join(f"{i}\tS\td{i % 6}\n" for i in range(60)))
    out = tmp_path / "out"
    out.mkdir()
    (out / "m.csv").write_text("old\n", encoding="utf-8")
    monkeypatch.setattr(addrloc.cli, "write_interfault_csv", _fail_to_write)
    assert main(["simulate", str(path), "--miss-out", str(out / "m.csv"),
                 "--interfault-out", str(out / "i.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "No space left on device" in captured.err
    assert os.listdir(out) == ["m.csv"]
    assert (out / "m.csv").read_text(encoding="utf-8") == "old\n"


def test_report_writes_all_eight_files_or_none(tmp_path, capsys, monkeypatch):
    # An --out-dir that was there stays, empty; one the report made, with
    # its parents, is removed.
    path = _write_fixture(tmp_path, "".join(f"{i}\tS\td{(i * i) % 17}\n" for i in range(500)))
    old = tmp_path / "rep"
    old.mkdir()
    monkeypatch.setattr(addrloc.cli, "write_search_time_csv", _fail_to_write)
    for out in (old, old / "new" / "rep"):
        assert main(["report", str(path), "--out-dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "No space left on device" in captured.err
    assert list(old.iterdir()) == []


def test_report_makes_no_out_dir_for_a_trace_it_rejects(tmp_path, capsys):
    # The --out-dir was made before the trace was read, and left behind.
    one = _write_fixture(tmp_path, "0\tS\tD\n")
    out = tmp_path / "new" / "rep"
    for argv in ([str(tmp_path / "absent.tsv")], [str(one), "--windows", "5"]):
        assert main(["report", *argv, "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.tsv"]


@pytest.mark.parametrize(
    "argv",
    [["concentration", "{trace}", "--out", ""],
     ["split", "{trace}", "--proto", "LAT", "--rest-out", "-", "--match-out", ""]],
    ids=["concentration", "split"],
)
def test_an_empty_output_path_fails_as_open_would(tmp_path, capsys, monkeypatch, argv):
    # realpath("") names the working directory: "" must not be staged as a
    # temporary file beside it, to be renamed onto it.
    path = _write_fixture(tmp_path, _SPLIT_TEXT)
    (tmp_path / "cwd").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    assert main([arg.format(trace=path) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: [Errno 2] No such file or directory: ''\n"
    assert sorted(os.listdir(tmp_path)) == ["cwd", "t.tsv"] and not os.listdir()


_ONE_OUTPUT = [
    ["gen", "--uniform-irm", "9", "--length", "50", "--seed", "4"],
    ["concentration", "{trace}"],
    ["wss", "{trace}", "--windows", "2,5"],
    ["stackdist", "{trace}"],
    ["runs", "{trace}"],
    ["searchtime", "{trace}", "--policies", "MIN,LRU"],
]


@pytest.mark.parametrize("argv", _ONE_OUTPUT, ids=[argv[0] for argv in _ONE_OUTPUT])
def test_stdout_gets_the_bytes_a_file_gets(tmp_path, capsysbinary, argv):
    path = _write_fixture(tmp_path, "".join(f"{i}\tS\td{(i * i) % 17}\n" for i in range(200)))
    argv = [arg.format(trace=path) for arg in argv]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0
    assert capsysbinary.readouterr().out == f"wrote {tmp_path / 'out'}\n".encode()
    text = (tmp_path / "out").read_bytes()
    for to_stdout in ([], ["--out", "-"]):
        assert main([*argv, *to_stdout]) == 0
        assert capsysbinary.readouterr().out == text
    assert sorted(os.listdir(tmp_path)) == ["out", "t.tsv"]


def test_simulate_stdout_gets_both_csvs_in_order(tmp_path, capsysbinary):
    path = _write_fixture(tmp_path, "".join(f"{i}\tS\td{(i * i) % 17}\n" for i in range(200)))
    argv = ["simulate", str(path), "--capacities", "2,4,9"]
    assert main([*argv, "--miss-out", str(tmp_path / "m.csv"),
                 "--interfault-out", str(tmp_path / "i.csv")]) == 0
    capsysbinary.readouterr()
    want = (tmp_path / "m.csv").read_bytes() + (tmp_path / "i.csv").read_bytes()
    assert main([*argv, "--miss-out", "-", "--interfault-out", "-"]) == 0
    assert capsysbinary.readouterr().out == want


# The flag contract: every value-taking flag has an argparse `type` (or
# `choices`) that checks its value, so a bad value is a usage error naming
# the flag, raised before the trace is opened or any output is written.
# Only these take free strings: any text is a valid path or proto token.
_FREE_STRINGS = {
    "trace", "--out", "--out-dir", "--miss-out", "--interfault-out", "--match-out",
    "--rest-out", "--proto",
}

# Bad values for every checked flag.
_BAD_VALUES = {
    "--windows": ["0", "-1", "x", "", ",", "2.0"],
    "--mode": ["x"],
    "--policies": ["", "LRU,XYZ", "LRU,lru"],
    "--capacities": ["0", "-1", "x", "", "1,0"],
    "--seed": ["-1", "x", "1.5", str(2**64)],
    "--database-size": ["0", "-1", "x"],
    "--cost": ["x"],
    "--cyclic": ["0", "-1", "x", ""],
    "--uniform-irm": ["0", "-1", "x", str(2**65)],
    "--irm": ["", "x", "nan,1", "inf,1", "-1,2", "0,0", "1e308,1e308"],
    "--lru-stack": ["", "x", "1,nan", "1,inf", "1,-2", "0,0"],
    "--interleave": ["", ";", "cyclic", "cyclic:0", "cyclic:x", "frob:3", "irm:nan,1",
                     "cyclic:2;lru-stack:inf,1"],
    "--pattern": ["0", "-1", "x", "", "1,0"],
    "--length": ["-1", "x", "2.5"],
}

_GEN_MODELS = ("--cyclic", "--uniform-irm", "--irm", "--lru-stack", "--interleave")

# Each command's required flags (a `gen` model besides); a bad value is added to them.
_REQUIRED = {
    "gen": ["--length", "5", "--out", "{out}/t.tsv"],
    "split": ["--proto", "P", "--match-out", "{out}/m.tsv", "--rest-out", "{out}/r.tsv"],
    "simulate": ["--miss-out", "{out}/m.csv", "--interfault-out", "{out}/i.csv"],
    "report": ["--out-dir", "{out}"],
}


def _value_flags():
    """(command, option or positional name, action) for every value-taking argument."""
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return [
        (command, (action.option_strings or [action.dest])[0], action)
        for command, subparser in sub.choices.items()
        for action in subparser._actions
        if action.nargs != 0
    ]


def test_every_value_flag_has_a_type_or_choices():
    # A flag checked after parsing would fail later than the others, and with exit 1.
    unchecked = {name for _, name, action in _value_flags()
                 if action.type is None and action.choices is None}
    assert unchecked == _FREE_STRINGS


@pytest.mark.parametrize(
    "command, flag, bad",
    [
        (command, flag, bad)
        for command, flag, _ in _value_flags()
        if flag not in _FREE_STRINGS
        for bad in _BAD_VALUES[flag]
    ],
)
def test_bad_flag_value_is_a_usage_error_before_the_read(tmp_path, capsys, command, flag, bad):
    trace_path, out = tmp_path / "missing.tsv", tmp_path / "out"
    argv = [command] if command == "gen" else [command, str(trace_path)]
    argv += [arg.format(out=out) for arg in _REQUIRED.get(command, ["--out", "{out}/o.csv"])]
    if command == "gen" and flag not in _GEN_MODELS:
        argv += ["--cyclic", "3"]
    with pytest.raises(SystemExit) as stop:
        main([*argv, f"{flag}={bad}"])  # "=" keeps a value such as "-1,2" from reading as a flag
    assert stop.value.code == 2
    assert f"argument {flag}: " in capsys.readouterr().err
    assert not trace_path.exists() and not out.exists()


@pytest.mark.parametrize(
    "value, named",
    [
        ("cyclic:x", "interleave part 'cyclic:x': k must be an integer >= 1, got x"),
        ("cyclic:2;lru-stack:inf,1", "interleave part 'lru-stack:inf,1': weight must be"),
        ("frob:3", "interleave part 'frob:3': unknown kind 'frob'"),
    ],
)
def test_interleave_errors_name_the_part(capsys, value, named):
    with pytest.raises(SystemExit):
        main(["gen", "--interleave", value, "--pattern", "1", "--length", "5"])
    assert f"error: argument --interleave: {named}" in capsys.readouterr().err
