"""addrloc benchmark: cold CLI runs of three workloads, checked outputs.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the program under test is the
checkout's own `src/addrloc`.  Each addrloc command runs as a fresh child
process (`python3 -m addrloc ...`), one at a time, the way a user runs it,
so interpreter start-up and imports are part of every number.

--trace 0 runs the workload's command sequence MIN_SEQUENCES times, then
again while the next run should end within --seconds, and reports the
end-to-end metrics named in BENCHMARK.json: median sequence wall time,
median peak RSS of the largest child, and median set-up time over
SETUP_REPEATS builds of the input.  Both times are taken at a reference
CPU speed (speed.py): the runner pins itself and its children to one CPU
and pauses each child briefly every speed.PERIOD_S to time a probe.

--trace 1 alternates an untraced sequence with a traced one, in which
each command runs under perfbench/spans.py, and reports the per-layer
metrics.  Every output of every run is checked; a command that
exits non-zero or whose outputs fail a check counts as failed.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The lines before it give each
metric with its unit, the fail ratio and the run's provenance.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import speed
from capture import CaptureCounts, CaptureShape
from spans import per_layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
GOLDEN = BENCH_DIR / "golden.json"

DEFAULT_SEED = 1          # golden output hashes are recorded for this seed
SETUP_REPEATS = 3
MIN_SEQUENCES = 2
RUN_BUDGET_S = 170.0      # children still running after this are killed
FRAMES = 300_000

# The ROADMAP baseline trace: an LRU-stack stream woven into a uniform IRM
# background over about 2,000 destinations.
MIXED_GEN_ARGS = (
    "--interleave", "lru-stack:8,4,2,1;uniform-irm:2000", "--pattern", "3,1",
    "--length", str(FRAMES),
)
WIDE_CAPACITIES = "16,64,256,1024,4096,16384,32768"


@dataclass
class Facts:
    """What is known about the input independently of addrloc."""

    frames: int
    destinations: int
    counts: CaptureCounts | None = None


@dataclass(frozen=True)
class Command:
    args: tuple[str, ...]                      # addrloc argv; "{trace}" is the input
    check: Callable[[Path, str, Facts], list[str]]


@dataclass(frozen=True)
class Workload:
    """A command sequence over one input; BENCHMARK.json says why each exists."""

    commands: tuple[Command, ...]
    shape: CaptureShape | None = None          # None: the input comes from `addrloc gen`


def _check_report(out: Path, stdout: str, facts: Facts) -> list[str]:
    miss = checks.read_csv(out / "report" / "miss_ratio.csv")
    stackdist = checks.read_csv(out / "report" / "stackdist.csv")
    return (
        checks.check_miss_curves(
            miss, checks.read_csv(out / "report" / "interfault.csv"),
            facts.frames, facts.destinations,
        )
        + checks.check_lru_matches_stackdist(miss, stackdist, facts.frames)
        + checks.check_search_time(
            checks.read_csv(out / "report" / "searchtime.csv"), miss, facts.destinations
        )
        + checks.check_stackdist(stackdist, facts.frames, facts.destinations)
        + checks.check_runs(checks.read_csv(out / "report" / "runs.csv"), facts.frames)
        + checks.check_summary(out / "report" / "summary.txt", facts.frames, facts.destinations)
    )


def _check_simulate(out: Path, stdout: str, facts: Facts) -> list[str]:
    return checks.check_miss_curves(
        checks.read_csv(out / "miss_ratio.csv"), checks.read_csv(out / "interfault.csv"),
        facts.frames, facts.destinations,
    )


WORKLOADS: dict[str, Workload] = {
    "report-mixed-300k": Workload(
        commands=(Command(("report", "{trace}", "--out-dir", "report"), _check_report),),
    ),
    "explore-capture-300k": Workload(
        shape=CaptureShape(FRAMES, stations=4000, zipf_s=1.0, burst_prob=0.3),
        commands=(
            Command(
                ("summarize", "{trace}"),
                lambda out, stdout, f: checks.check_summarize_stdout(stdout, f.counts),
            ),
            Command(
                ("split", "{trace}", "--proto", "lat",
                 "--match-out", "lat.txt", "--rest-out", "rest.txt"),
                lambda out, stdout, f: checks.check_split(
                    out / "lat.txt", out / "rest.txt", f.counts),
            ),
            Command(
                ("concentration", "{trace}", "--out", "concentration.csv"),
                lambda out, stdout, f: checks.check_concentration(
                    checks.read_csv(out / "concentration.csv"), f.destinations),
            ),
            Command(
                ("wss", "{trace}", "--mode", "sliding", "--out", "wss.csv"),
                lambda out, stdout, f: checks.check_wss(
                    checks.read_csv(out / "wss.csv"), "sliding"),
            ),
            Command(
                ("stackdist", "{trace}", "--out", "stackdist.csv"),
                lambda out, stdout, f: checks.check_stackdist(
                    checks.read_csv(out / "stackdist.csv"), f.frames, f.destinations),
            ),
            Command(
                ("runs", "{trace}", "--out", "runs.csv"),
                lambda out, stdout, f: checks.check_runs(
                    checks.read_csv(out / "runs.csv"), f.frames),
            ),
        ),
    ),
    "simulate-wide-300k": Workload(
        shape=CaptureShape(FRAMES, stations=20000, zipf_s=0.8, burst_prob=0.0),
        commands=(
            Command(
                ("simulate", "{trace}", "--policies", "MIN,LRU,FIFO,RAND",
                 "--capacities", WIDE_CAPACITIES,
                 "--miss-out", "miss_ratio.csv", "--interfault-out", "interfault.csv"),
                _check_simulate,
            ),
        ),
    ),
}


@dataclass
class Child:
    wall_s: float        # time the child ran, spawn to exit, pauses left out
    ref_s: float         # the same at the reference CPU speed; wall_s if not probed
    peak_rss_mb: float
    exit_code: int
    spawned: float


def run_child(argv: list[str], cwd: Path, env: dict, out_path: Path, err_path: Path,
              deadline: float, probed: bool = False) -> Child:
    """Run one child to completion; peak RSS comes from its own wait4 rusage.

    Linux carries the parent's high-water RSS into a forked child's
    ru_maxrss, so this process must stay smaller than any child it measures:
    it never holds a trace in memory.  With `probed`, the child is paused
    every speed.PERIOD_S while the runner times a speed probe (speed.py).
    """
    clock = speed.RefClock() if probed else None
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        spawned = time.perf_counter() if clock is None else clock.resume()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        try:
            ended, usage = _supervise(proc, deadline, clock)
        except BaseException:
            if proc.returncode is None:
                os.kill(proc.pid, signal.SIGKILL)
                os.wait4(proc.pid, 0)
                proc.returncode = -signal.SIGKILL
            raise
    if clock is None:
        wall = ref = ended - spawned
    else:
        wall, ref = clock.ran_s, clock.ref_s
    return Child(wall, ref, usage.ru_maxrss / 1024.0, proc.returncode, spawned)


def _supervise(proc: subprocess.Popen, deadline: float,
               clock: speed.RefClock | None) -> tuple[float, resource.struct_rusage]:
    """Reap `proc`, killing it at the deadline; returns when it ended and its rusage.

    Signals go through os.kill, not Popen, whose send_signal may reap the
    child and lose its rusage.
    """
    pidfd = os.pidfd_open(proc.pid)
    try:
        while True:
            left = max(0.0, deadline - time.perf_counter())
            wait = left if clock is None else min(left, speed.PERIOD_S)
            if select.select([pidfd], [], [], wait)[0]:
                break
            if clock is None or time.perf_counter() >= deadline:
                os.kill(proc.pid, signal.SIGKILL)
                break
            os.kill(proc.pid, signal.SIGSTOP)
            paused = time.perf_counter()
            _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
            if not os.WIFSTOPPED(status):
                proc.returncode = os.waitstatus_to_exitcode(status)
                clock.pause(paused)
                return paused, usage
            clock.pause(paused)
            os.kill(proc.pid, signal.SIGCONT)
            clock.resume()
    finally:
        os.close(pidfd)
    ended = time.perf_counter()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if clock is not None:
        clock.pause(ended)
    return ended, usage


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def hash_tree(directory: Path) -> dict[str, str]:
    return {p.relative_to(directory).as_posix(): sha256(p)
            for p in sorted(directory.rglob("*")) if p.is_file()}


@dataclass
class Bench:
    """One benchmark invocation: its directories, input and failure tally."""

    name: str
    workload: Workload
    seed: int
    env: dict
    deadline: float
    probed: bool = False       # time untraced children at the reference CPU speed
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    golden: dict[str, str] = field(default_factory=dict)
    reference: dict[int, dict[str, str]] = field(default_factory=dict)
    input_sha: str = ""
    runs: int = 0
    argvs: list[list[str]] = field(default_factory=list)

    @property
    def input_dir(self) -> Path:
        return WORK / "input"

    @property
    def trace(self) -> Path:
        return self.input_dir / "trace.txt"

    def fail(self, where: str, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(f"{where}: {p}" for p in problems)

    # -- set-up ---------------------------------------------------------

    def set_up(self, traced: bool) -> tuple[list[Child], Facts, list[dict]]:
        """Build the input SETUP_REPEATS times (once when traced), each in a cold child."""
        builds, hashes, gen_spans = [], [], []
        self.input_dir.mkdir(parents=True)
        for k in range(1 if traced else SETUP_REPEATS):
            self.trace.unlink(missing_ok=True)
            setup_dir = WORK / f"setup-{k}"
            setup_dir.mkdir()
            if self.workload.shape is None:
                args = ["gen", *MIXED_GEN_ARGS, "--seed", str(self.seed),
                        "--out", "../input/trace.txt"]
                child, spans = self._run_command(args, setup_dir, traced)
                gen_spans.extend(spans)
                self.attempted += 1
                if child.exit_code != 0:
                    self.fail("setup gen", [f"exit {child.exit_code}"])
            else:
                shape = json.dumps(dataclasses.asdict(self.workload.shape))
                argv = [sys.executable, str(BENCH_DIR / "capture.py"), shape, str(self.seed),
                        "../input/trace.txt"]
                child = run_child(argv, setup_dir, self.env, setup_dir / "stdout",
                                  setup_dir / "stderr", self.deadline, self.probed)
                if child.exit_code != 0:
                    raise SystemExit(f"error: capture generator failed: {argv}")
                counts = CaptureCounts(**json.loads((setup_dir / "stdout").read_text()))
            builds.append(child)
            hashes.append(sha256(self.trace))
        if len(set(hashes)) != 1:
            self.fail("setup", [f"input differs between builds: {hashes}"])
        self.input_sha = hashes[-1]
        if self.golden and self.golden.get("input") != self.input_sha:
            self.fail("setup", [f"input sha256 {self.input_sha} != recorded {self.golden['input']}"])
        shutil.copyfile(self.trace, WORK / "pristine.txt")
        if self.workload.shape is None:
            return builds, Facts(*checks.trace_facts(self.trace)), gen_spans
        return builds, Facts(counts.frames, counts.destinations, counts), gen_spans

    # -- measured sequences ---------------------------------------------

    def _run_command(self, args: list[str], cwd: Path, traced: bool) -> tuple[Child, list[dict]]:
        spans_path = cwd.parent / f"{cwd.name}.spans.json"
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "spans.py"), str(spans_path), "--", *args]
        else:
            argv = [sys.executable, "-m", "addrloc", *args]
        if argv not in self.argvs:
            self.argvs.append(argv)
        child = run_child(argv, cwd, self.env, cwd / "stdout", cwd / "stderr", self.deadline,
                          self.probed and not traced)
        if not traced:
            return child, []
        try:
            record = json.loads(spans_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return child, [{"startup_s": 0.0, "spans": [], "missing": []}]
        return child, [{
            "startup_s": record["entered"] - child.spawned,
            "spans": record["spans"],
            "missing": record["missing"],
        }]

    def _restore_input(self) -> list[str]:
        """Cold-run hygiene: the input directory holds the pristine input alone."""
        problems = []
        for path in self.input_dir.iterdir():
            if path != self.trace:
                problems.append(f"program left {path.name} next to its input")
                shutil.rmtree(path) if path.is_dir() else path.unlink()
        if sha256(self.trace) != self.input_sha:
            problems.append("program modified its input")
            shutil.copyfile(WORK / "pristine.txt", self.trace)
        return problems

    def run_sequence(self, facts: Facts, traced: bool) -> tuple[list[Child], list[dict]]:
        run_dir = WORK / f"run-{self.runs}"
        self.runs += 1
        children, traced_commands = [], []
        for i, command in enumerate(self.workload.commands):
            cmd_dir = run_dir / f"cmd-{i}"
            cmd_dir.mkdir(parents=True)
            args = [a.replace("{trace}", "../../input/trace.txt") for a in command.args]
            child, spans = self._run_command(args, cmd_dir, traced)
            children.append(child)
            traced_commands.extend(spans)
            self.attempted += 1
            problems = self._restore_input()
            if child.exit_code != 0:
                problems.append(f"exit {child.exit_code}")
            else:
                problems.extend(self._check_outputs(i, command, cmd_dir, facts))
            if problems:
                self.fail(f"{self.name} cmd-{i} ({' '.join(args)})", problems)
        return children, traced_commands

    def _check_outputs(self, i: int, command: Command, cmd_dir: Path, facts: Facts) -> list[str]:
        stdout = (cmd_dir / "stdout").read_text(encoding="utf-8")
        try:
            problems = command.check(cmd_dir, stdout, facts)
        except (OSError, ValueError, IndexError, KeyError) as exc:
            problems = [f"outputs unreadable: {exc!r}"]
        hashes = hash_tree(cmd_dir)
        first = self.reference.setdefault(i, hashes)
        if hashes != first:
            problems.append(f"outputs differ from the first run: {_diff(first, hashes)}")
        for rel, digest in hashes.items():
            want = self.golden.get(f"cmd-{i}/{rel}")
            if self.golden and want != digest:
                problems.append(f"{rel} sha256 {digest} != recorded {want}")
        return problems


def _diff(a: dict[str, str], b: dict[str, str]) -> list[str]:
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def _probe_program(env: dict) -> dict:
    """Import the checkout's addrloc in a child; warms its bytecode cache."""
    probe = subprocess.run(
        [sys.executable, "-c",
         "import json, addrloc, addrloc.cli; "
         "print(json.dumps({'file': addrloc.__file__, 'version': addrloc.__version__}))"],
        env=env, capture_output=True, text=True, timeout=60, check=False,
    )
    if probe.returncode != 0:
        raise SystemExit(f"error: cannot import addrloc from {SRC}:\n{probe.stderr}")
    info = json.loads(probe.stdout)
    if not Path(info["file"]).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: imported addrloc from {info['file']}, not from {SRC}")
    return info


def _another(durations: list[float], count: int, start: float, seconds: float) -> bool:
    """Run another sequence if fewer than `count` ran or the next one ends in time."""
    if len(durations) < count:
        return True
    return time.perf_counter() - start + statistics.median(durations) <= seconds


def measure(bench: Bench, seconds: float, facts: Facts, builds: list[Child]) -> dict:
    walls, raw_walls, rss, took = [], [], [], []
    start = time.perf_counter()
    while _another(took, MIN_SEQUENCES, start, seconds):
        began = time.perf_counter()
        children, _ = bench.run_sequence(facts, traced=False)
        took.append(time.perf_counter() - began)
        walls.append(sum(c.ref_s for c in children))
        raw_walls.append(sum(c.wall_s for c in children))
        rss.append(max(c.peak_rss_mb for c in children))
    return {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(c.ref_s for c in builds),
        "unscaled_wall_s": statistics.median(raw_walls),
        "unscaled_setup_s": statistics.median(c.wall_s for c in builds),
    }


def measure_traced(bench: Bench, seconds: float, facts: Facts, gen_spans: list[dict]) -> dict:
    per_pair, missing, took = [], set(), []
    start = time.perf_counter()
    while _another(took, 1, start, seconds):
        began = time.perf_counter()
        plain, _ = bench.run_sequence(facts, traced=False)
        traced, commands = bench.run_sequence(facts, traced=True)
        for command in commands:
            missing.update(command["missing"])
        metrics = per_layer_metrics(gen_spans + commands)
        metrics["tracing.overhead_s"] = (
            sum(c.wall_s for c in traced) - sum(c.wall_s for c in plain)
        )
        per_pair.append(metrics)
        took.append(time.perf_counter() - began)
    result = {name: statistics.median(m[name] for m in per_pair) for name in per_pair[0]}
    result["tracing.missing_wrappers"] = len(missing)
    if missing:
        print(f"missing wrapped names: {sorted(missing)}", file=sys.stderr)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help=f"record output hashes for --seed {DEFAULT_SEED} in golden.json")
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_BUDGET_S
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "addrloc" / "cli.py").is_file():
        print(f"error: no addrloc sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.write_golden and (args.seed != DEFAULT_SEED or args.trace):
        parser.error(f"--write-golden needs --seed {DEFAULT_SEED} and --trace 0")

    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    program = _probe_program(env)

    golden_all = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.is_file() else {}
    nproc = len(os.sched_getaffinity(0))
    bench = Bench(args.workload, WORKLOADS[args.workload], args.seed, env, deadline,
                  probed=not args.trace)
    if bench.probed:
        # The speed probes must run on the CPU the children run on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.seed == DEFAULT_SEED and not args.write_golden:
        bench.golden = golden_all.get(args.workload, {})
        if not bench.golden:
            bench.fail("golden", [f"no recorded hashes for {args.workload} in {GOLDEN.name}"])

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    builds, facts, gen_spans = bench.set_up(traced=bool(args.trace))
    if args.trace:
        values = measure_traced(bench, seconds, facts, gen_spans)
    else:
        values = measure(bench, seconds, facts, builds)

    if args.write_golden and not bench.failed:
        golden_all[args.workload] = {"input": bench.input_sha} | {
            f"cmd-{i}/{rel}": digest
            for i, hashes in sorted(bench.reference.items()) for rel, digest in hashes.items()
        }
        GOLDEN.write_text(json.dumps(golden_all, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")

    metrics = {}
    for entry in wanted:
        metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
        print(f"{entry['name']} = {values[entry['name']]!r} {entry['unit']}")
    print(f"fail_ratio = {bench.failed / bench.attempted!r} ({bench.failed} of "
          f"{bench.attempted} runs failed)")
    for problem in bench.problems[:50]:
        print(f"FAILED {problem}", file=sys.stderr)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "input_sha256": bench.input_sha,
        "argv": bench.argvs,
        "addrloc_version": program["version"],
        "python": platform.python_version(),
        "nproc": nproc,
        "sequences": bench.runs,
        "runner_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    } | {name: value for name, value in values.items() if name.startswith("unscaled_")}
    print("provenance " + json.dumps(provenance, sort_keys=True))
    shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
