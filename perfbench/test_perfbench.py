"""Self-tests of the benchmark on tiny inputs.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import checks
import run
import spans
import speed
from capture import CaptureShape, build_capture

TINY = CaptureShape(frames=400, stations=24, zipf_s=1.0, burst_prob=0.2, senders=6,
                    comment_every=100)


def _env(pythonpath: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(pythonpath)
    return env


def _bench(tmp_path, monkeypatch, command, pythonpath=run.SRC) -> tuple[run.Bench, run.Facts]:
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    run.WORK.mkdir()
    workload = run.Workload(commands=(command,), shape=TINY)
    bench = run.Bench("tiny", workload, seed=5, env=_env(pythonpath),
                      deadline=time.perf_counter() + 60)
    _, facts, _ = bench.set_up(traced=False)
    return bench, facts


SIMULATE = run.Command(
    ("simulate", "{trace}", "--policies", "MIN,LRU,FIFO,RAND", "--capacities", "1,2,4,64",
     "--miss-out", "miss_ratio.csv", "--interfault-out", "interfault.csv"),
    run._check_simulate,
)


def test_correct_run_passes_and_repeats_byte_identically(tmp_path, monkeypatch):
    bench, facts = _bench(tmp_path, monkeypatch, SIMULATE)
    for _ in range(2):
        children, _ = bench.run_sequence(facts, traced=False)
        assert children[0].exit_code == 0 and children[0].peak_rss_mb > 0
    assert (bench.attempted, bench.failed) == (2, 0), bench.problems


def test_probed_child_runs_to_the_end_and_is_timed_at_the_reference_speed(tmp_path):
    loop = "import sys\nn = 0\nfor i in range(3_000_000): n += i\nprint(n)\nsys.exit(3)"
    child = run.run_child([sys.executable, "-c", loop], tmp_path, _env(run.SRC),
                          tmp_path / "out", tmp_path / "err", time.perf_counter() + 60,
                          probed=True)
    assert child.exit_code == 3
    assert (tmp_path / "out").read_text() == f"{sum(range(3_000_000))}\n"
    assert child.peak_rss_mb > 0
    assert 0 < child.wall_s < time.perf_counter() - child.spawned   # pauses left out
    assert child.ref_s > 0


def test_each_stretch_is_scaled_by_the_mean_of_the_probes_around_it(monkeypatch):
    ref = speed.PROBE_REF_S
    probes = iter([2 * ref, ref, ref])
    monkeypatch.setattr(speed, "probe_s", lambda: next(probes))
    clock = speed.RefClock()
    clock.since = 10.0
    clock.pause(13.0)            # 3 s between probes of 2*ref and ref: 2 s at ref speed
    clock.since = 20.0
    clock.pause(21.0)            # 1 s at ref speed
    assert (clock.ran_s, clock.ref_s) == (pytest.approx(4.0), pytest.approx(3.0))


def test_nonzero_exit_counts_as_failure(tmp_path, monkeypatch):
    command = run.Command(("simulate", "{trace}", "--capacities", "0"), run._check_simulate)
    bench, facts = _bench(tmp_path, monkeypatch, command)
    bench.run_sequence(facts, traced=False)
    assert (bench.attempted, bench.failed) == (1, 1)
    assert "exit 1" in bench.problems[0]


def test_child_running_past_the_deadline_is_killed_and_fails(tmp_path, monkeypatch):
    bench, facts = _bench(tmp_path, monkeypatch, SIMULATE)
    bench.deadline = time.perf_counter()
    children, _ = bench.run_sequence(facts, traced=False)
    assert children[0].exit_code < 0
    assert (bench.attempted, bench.failed) == (1, 1)


def test_corrupted_miss_ratio_from_the_program_counts_as_failure(tmp_path, monkeypatch):
    # A stand-in program that exits 0 but claims LRU beats MIN.
    fake = tmp_path / "fake" / "addrloc"
    fake.mkdir(parents=True)
    (fake / "__init__.py").write_text("")
    (fake / "__main__.py").write_text(
        "open('miss_ratio.csv', 'w').write('capacity,MIN,LRU\\n1,0.5,0.25\\n')\n"
        "open('interfault.csv', 'w').write('capacity,MIN,LRU\\n1,2.0,4.0\\n')\n"
    )
    bench, facts = _bench(tmp_path, monkeypatch, SIMULATE, pythonpath=fake.parent)
    bench.run_sequence(facts, traced=False)
    assert (bench.attempted, bench.failed) == (1, 1)
    assert any("MIN@1" in p for p in bench.problems)


def test_output_that_changes_between_runs_counts_as_failure(tmp_path, monkeypatch):
    bench, facts = _bench(tmp_path, monkeypatch, SIMULATE)
    bench.run_sequence(facts, traced=False)
    bench.reference[0]["miss_ratio.csv"] = "0" * 64
    bench.run_sequence(facts, traced=False)
    assert bench.failed == 1
    assert "differ from the first run" in bench.problems[0]


def test_sidecar_next_to_input_is_removed_and_reported(tmp_path, monkeypatch):
    bench, facts = _bench(tmp_path, monkeypatch, SIMULATE)
    (bench.input_dir / "trace.txt.cache").write_text("stale")
    bench.run_sequence(facts, traced=False)
    assert sorted(p.name for p in bench.input_dir.iterdir()) == ["trace.txt"]
    assert any("left trace.txt.cache" in p for p in bench.problems)


def _simulate_outputs(tmp_path) -> tuple[list, list, list, int, int]:
    from addrloc.cli import main

    text, counts = build_capture(TINY, seed=3)
    trace = tmp_path / "t.txt"
    trace.write_text(text)
    assert main(["simulate", str(trace), "--capacities", "1,2,3,8,64",
                 "--miss-out", str(tmp_path / "m.csv"),
                 "--interfault-out", str(tmp_path / "i.csv")]) == 0
    assert main(["searchtime", str(trace), "--policies", "MIN,LRU,FIFO,RAND",
                 "--capacities", "1,2,3,8", "--out", str(tmp_path / "s.csv")]) == 0
    return (checks.read_csv(tmp_path / "m.csv"), checks.read_csv(tmp_path / "i.csv"),
            checks.read_csv(tmp_path / "s.csv"), counts.frames, counts.destinations)


def test_checks_accept_real_output_and_reject_a_corrupted_cell(tmp_path):
    miss, interfault, search, frames, destinations = _simulate_outputs(tmp_path)
    assert checks.check_miss_curves(miss, interfault, frames, destinations) == []
    assert checks.check_search_time(search, miss[:-1], destinations) == []
    bad = [row[:] for row in miss]
    bad[2][1] = repr(float(bad[2][2]) + 1 / frames)   # MIN now misses more than LRU
    assert checks.check_miss_curves(bad, interfault, frames, destinations)
    assert checks.check_search_time(search, bad[:-1], destinations)


def test_stackdist_reconstruction_matches_addrloc(tmp_path):
    from addrloc.cachesim import lru_curve_from_distances
    from addrloc.locality import stack_distances, write_stackdist_csv
    from addrloc.trace import read_trace

    text, counts = build_capture(TINY, seed=4)
    (tmp_path / "t.txt").write_text(text)
    _, hist = stack_distances(read_trace(tmp_path / "t.txt").destinations())
    with open(tmp_path / "sd.csv", "w", newline="") as f:
        write_stackdist_csv(hist, f)
    capacities = [1, 2, 5, 8, 100]
    want = [e.misses for e in lru_curve_from_distances(hist, capacities).entries]
    rows = checks.read_csv(tmp_path / "sd.csv")
    assert checks.lru_misses_from_stackdist(rows, capacities) == want
    assert checks.check_stackdist(rows, counts.frames, counts.destinations) == []


def test_capture_is_seeded_and_counts_match_the_file(tmp_path):
    text, counts = build_capture(TINY, seed=9)
    assert build_capture(TINY, seed=9) == (text, counts)
    assert build_capture(TINY, seed=10)[0] != text
    (tmp_path / "t.txt").write_text(text)
    assert checks.trace_facts(tmp_path / "t.txt") == (counts.frames, counts.destinations)
    assert text.count("\n#") >= TINY.frames // TINY.comment_every - 1


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_span_self_times_add_up_to_the_root():
    recorder = spans.SpanRecorder(clock=_Clock())
    leaf = recorder.wrap("m.leaf", "m", lambda: None)
    mid = recorder.wrap("m.mid", "m", lambda: (leaf(), leaf()))
    root = recorder.wrap("cli.main", "cli", lambda: (mid(), leaf()))
    root()
    own = spans.self_times(recorder.spans)
    durations = [s["end"] - s["start"] for s in recorder.spans]
    assert [s["parent"] for s in recorder.spans] == [None, 0, 1, 1, 0]
    assert sum(own) == durations[0]
    assert own == [3.0, 3.0, 1.0, 1.0, 1.0]


def test_missing_wrapped_name_is_reported_not_fatal(monkeypatch):
    module = types.ModuleType("fake_layer")
    module.kept = lambda x: x + 1
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    recorder = spans.SpanRecorder()
    missing = spans.install(
        recorder, {"fake_layer": ("kept", "removed"), "no_such_module": ("gone",)}
    )
    assert missing == ["fake_layer.removed", "no_such_module.gone"]
    assert module.kept(1) == 2
    assert [s["name"] for s in recorder.spans] == ["fake_layer.kept"]


def test_traced_command_matches_untraced_and_accounts_for_its_time(tmp_path, monkeypatch):
    command = run.Command(("report", "{trace}", "--out-dir", "report"), lambda *a: [])
    bench, facts = _bench(tmp_path, monkeypatch, command)
    bench.run_sequence(facts, traced=False)
    _, traced = bench.run_sequence(facts, traced=True)
    assert bench.failed == 0, bench.problems   # traced outputs are byte-identical
    record = traced[0]
    assert record["missing"] == [] and record["startup_s"] > 0
    root = record["spans"][0]
    assert root["name"] == "cli.main"
    assert sum(spans.self_times(record["spans"])) == pytest.approx(
        root["end"] - root["start"], abs=1e-9)
    metrics = spans.per_layer_metrics(traced)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    assert set(metrics) | {"tracing.overhead_s", "tracing.missing_wrappers"} == names
    assert metrics["trace.parse_calls"] == 1
    assert metrics["cachesim.refs_simulated"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report-mixed-300k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env=_env(run.SRC),
    )
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
