"""CLI subcommands: shapes, consistency, exit codes, determinism."""

from __future__ import annotations

import argparse
import csv
import os
import subprocess
import sys
from math import log2
from pathlib import Path

import pytest

import addrloc
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
