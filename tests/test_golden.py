"""Golden `report` outputs for one fixed-seed synthetic trace.

The hashes were recorded before the capacity sweeps shared a prepared
reference string; any change to a CSV byte, to `gen`'s output or to
`summary.txt` fails here.  The analysis subcommands, which read the
trace's dst ids alone, must write `report`'s files byte for byte.
"""

from __future__ import annotations

import hashlib

import pytest

from addrloc.cli import main

# The ROADMAP baseline mix at 20k references (1,827 distinct destinations).
GEN_ARGS = ["gen", "--interleave", "lru-stack:8,4,2,1;uniform-irm:2000", "--pattern", "3,1",
            "--length", "20000", "--seed", "1"]

GOLDEN = {
    "trace.txt": "76c323cf27c344f03d8c444c0ea244ab4bb05619ec51fbdfdd1c8f66787f9a1a",
    "concentration.csv": "da03b50ae6e479ce80ee3f1947c1d1b0cfea316eac4b28ad09bc984182a1046a",
    "interfault.csv": "ab8562ea310c1e9c237745693fec6a6cff0d28e4ad410b29f6362d09247caf6f",
    "miss_ratio.csv": "926915d3de9413a099b464362e87996c814aa32bddedc3e09aaa73e2ad367b18",
    "runs.csv": "9d2fff361d7ea68de43967e5a5a5785cf920377cc34f4c14aa703c3b3cc92a21",
    "searchtime.csv": "6cd7871c98921ef455eab573cb06eaf01fa69dbb95fd6c470cc292468b8662fa",
    "stackdist.csv": "2d9c9da3a17d36d35def8b2e7ba711296137e846ae7fb5fa7090e0d71ef4fee9",
    "summary.txt": "e2267275edbe2af1835027d4b5f4beaa5d128fa3970b70624423723e3020fb6c",
    "wss.csv": "ad92eb83189ff7aef3d9f29b7d6d3dd23dfa5bfba0b63746805b0849c04302ca",
}


def test_report_matches_golden_hashes(tmp_path):
    trace = tmp_path / "trace.txt"
    out = tmp_path / "report"
    assert main([*GEN_ARGS, "--out", str(trace)]) == 0
    assert main(["report", str(trace), "--out-dir", str(out)]) == 0
    files = {p.name: p for p in out.iterdir()} | {"trace.txt": trace}
    hashes = {name: hashlib.sha256(p.read_bytes()).hexdigest() for name, p in files.items()}
    assert hashes == GOLDEN


# Each analysis subcommand with `report`'s flags, and the files it writes.
# `simulate`'s default sweep equals `report`'s here: the database size is
# the distinct count, 1,827, so both are 1 to 256 plus 1,827.
SUBCOMMANDS = [
    ["concentration", "--out", "{out}/concentration.csv"],
    ["wss", "--out", "{out}/wss.csv"],
    ["stackdist", "--out", "{out}/stackdist.csv"],
    ["runs", "--out", "{out}/runs.csv"],
    ["simulate", "--miss-out", "{out}/miss_ratio.csv", "--interfault-out", "{out}/interfault.csv"],
    ["searchtime", "--policies", "MIN,LRU,FIFO,RAND", "--out", "{out}/searchtime.csv"],
]


@pytest.fixture(scope="module")
def golden_trace(tmp_path_factory):
    trace = tmp_path_factory.mktemp("golden") / "trace.txt"
    assert main([*GEN_ARGS, "--out", str(trace)]) == 0
    return trace


@pytest.mark.parametrize("command", SUBCOMMANDS, ids=[c[0] for c in SUBCOMMANDS])
def test_subcommands_match_golden_hashes(tmp_path, golden_trace, command):
    argv = [command[0], str(golden_trace)] + [a.format(out=tmp_path) for a in command[1:]]
    assert main(argv) == 0
    hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert len(hashes) == sum("{out}" in a for a in command)
    assert hashes == {name: GOLDEN[name] for name in hashes}
