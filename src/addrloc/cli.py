"""Command line front end.

Every subcommand is a pure function of its flags and input files: fixed
seeds, no wall clock, no hidden state, so repeated runs emit byte-identical
output.  Analysis subcommands write CSV with a header row and full
double-precision values; rounding is left to downstream plotting.

Exit status: 0 on success; 2 on a usage error; 1 on an input error or a
flag value that the trace refutes (message on stderr).  Every value-taking
flag has an argparse `type` that checks its value by the library's own
rule, so a bad flag value exits 2 with argparse's "argument --FLAG: ..."
message before the trace is opened.  Only the checks that need the trace
exit 1: a --database-size below its distinct destinations, a --capacities
entry above the database size, or no --windows entry that fits.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import suppress
from functools import partial
from pathlib import Path

# trace.read_trace and trace.write_trace are looked up per call: a wrapper sees each one.
from . import _checks, synth, trace
from .cachesim import (
    POLICIES,
    MissCurve,
    sweep,
    write_interfault_csv,
    write_miss_ratio_csv,
)
from .locality import (
    ConcentrationCurve,
    WorkingSetReport,
    _Refs,
    concentration_curve,
    run_lengths,
    working_set,
    write_concentration_csv,
    write_runs_csv,
    write_stackdist_csv,
    write_wss_csv,
)
from ._csvfmt import fmt
from .searchcost import (
    CostModel,
    SearchTimeCurve,
    binary_search_cost,
    constant_cost,
    optimal_cache_size,
    search_time_curve,
    write_search_time_csv,
)
from .trace import TraceSummary

_POWER_SWEEP = (1, 2, 4, 8, 16, 32, 64, 128, 256)
_SEEDS = "an integer in 0..2**64 - 1 (default: 0)"
_COST_MODELS: dict[str, CostModel] = {
    "binary": binary_search_cost,
    "constant": constant_cost,
}


def _write(path, writer) -> None:
    """Run `writer(stream)` on `path`, or on stdout for None/'-'; note each file written."""
    if path is None or path == "-":
        writer(sys.stdout)
        return
    with open(path, "w", encoding="utf-8", newline="") as stream:
        writer(stream)
    print(f"wrote {path}")


def _read_nonempty(path, select: str):
    """The "destinations" or "summary" read of the trace at `path`, which must have frames."""
    frames = trace.read_trace(path, _select=select)
    if len(frames) == 0:
        raise ValueError(f"{path}: trace has no records")
    return frames


# Flag values.  Each value-taking flag's argparse `type=` is one `_flag`
# parser: it checks the value with the library's own rule, so a bad value
# is a usage error naming the flag, raised before any trace is read.

def _flag(parse):
    """`parse` as an argparse `type=`: its ValueError becomes a usage error."""

    def checked(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return checked


def _spelled(text: str, kind=int):
    """`text` as a `kind` if it spells one, else unchanged, for a rule to refuse by name."""
    with suppress(ValueError):
        return kind(text)
    return text


def _list(text: str, sep: str = ",") -> list[str]:
    """The non-blank `sep`-separated entries of `text`, stripped."""
    entries = [entry.strip() for entry in text.split(sep) if entry.strip()]
    if not entries:
        raise ValueError("empty list")
    return entries


def _positive_ints(text: str, what: str) -> list[int]:
    return [_checks.positive_int(_spelled(entry), what) for entry in _list(text)]


def _capacities(text: str) -> list[int]:
    """The --capacities entries, sorted and without duplicates."""
    return sorted(set(_positive_ints(text, "capacity")))


def _policies(text: str) -> list[str]:
    policies = [entry.upper() for entry in _list(text)]
    for policy in policies:
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}, expected one of {', '.join(POLICIES)}")
    if len(set(policies)) != len(policies):
        raise ValueError(f"duplicate policy in {text!r}")
    return policies


def _weights(text: str) -> tuple[float, ...]:
    """Comma-separated weights, each a pmf entry, normalized to a pmf."""
    weights = [_checks.weight(_spelled(entry, float), "weight") for entry in _list(text)]
    total = sum(weights)  # infinite if the weights overflow
    if not 0 < total < math.inf:
        raise ValueError(f"weights must have a finite positive sum, got {text!r}")
    return tuple(w / total for w in weights)


# The `KIND:ARG` model grammar: `gen --KIND ARG` and each `--interleave`
# part build their model here.
_MODELS = {
    "cyclic": lambda arg: synth.Cyclic(_spelled(arg)),
    "uniform-irm": lambda arg: synth.UniformIrm(_spelled(arg)),
    "irm": lambda arg: synth.Irm(_weights(arg)),
    "lru-stack": lambda arg: synth.LruStackModel(_weights(arg)),
}


def _interleave(text: str) -> tuple[synth.Model, ...]:
    parts = []
    for part in _list(text, ";"):
        kind, _, arg = part.partition(":")
        try:
            if kind not in _MODELS:
                raise ValueError(f"unknown kind {kind!r}, expected one of {', '.join(_MODELS)}")
            parts.append(_MODELS[kind](arg))
        except ValueError as exc:
            raise ValueError(f"interleave part {part!r}: {exc}") from None
    return tuple(parts)


def _model_from_args(args, parser: argparse.ArgumentParser) -> synth.Model:
    if (args.pattern is None) != (args.interleave is None):
        parser.error("--interleave and --pattern must be given together")
    if args.interleave is None:
        return args.model
    if len(args.pattern) != len(args.interleave):
        parser.error(
            f"--pattern has {len(args.pattern)} entries for {len(args.interleave)} "
            "--interleave parts"
        )
    return synth.Interleave(args.interleave, args.pattern)


# Analysis steps.  Each subcommand runs one of them and `report` runs them
# all, so a flag means the same thing everywhere it is accepted.

def _working_sets(args, refs: _Refs) -> list[WorkingSetReport]:
    """Average working set per --windows size in --mode; oversized windows are skipped."""
    reports = []
    for window in args.windows:
        if window > len(refs):
            print(
                f"note: skipping window {window}: exceeds trace length {len(refs)}",
                file=sys.stderr,
            )
        else:
            reports.append(working_set(refs, window, args.mode))
    if not reports:
        raise ValueError(f"no window fits a trace of {len(refs)} references")
    del refs.previous_use  # shared by the windows; no later step needs it
    return reports


def _sweep(args, refs: _Refs, capacities: list[int]) -> list[MissCurve]:
    """One miss curve per --policies entry over `capacities`."""
    return [sweep(refs, policy, capacities, seed=args.seed) for policy in args.policies]


def _search_sweep(args, refs: _Refs) -> tuple[int, list[int]]:
    """The --database-size table size and the capacities to sweep, checked against the trace.

    The default sweep is the powers of two below the database size, plus
    the database size and the trace's distinct-destination count.
    """
    distinct = refs.distinct
    database_size = distinct if args.database_size is None else args.database_size
    if database_size < distinct:
        raise ValueError(
            f"--database-size {database_size} is below the trace's "
            f"{distinct} distinct destinations"
        )
    default = sorted({c for c in _POWER_SWEEP if c < database_size} | {database_size, distinct})
    capacities = args.capacities or default
    if capacities[-1] > database_size:
        raise ValueError(f"--capacities: {capacities[-1]} exceeds --database-size {database_size}")
    return database_size, capacities


def _search_times(
    args, refs: _Refs, database_size: int, capacities: list[int]
) -> tuple[list[MissCurve], list[SearchTimeCurve]]:
    """Miss curves over `capacities` and their normalized search times for that table size."""
    miss_curves = _sweep(args, refs, capacities)
    cost = _COST_MODELS[args.cost]
    return miss_curves, [search_time_curve(c, database_size, cost) for c in miss_curves]


def _cmd_summarize(args) -> int:
    s = _read_nonempty(args.trace, "summary").summary()
    print(
        f"frames={s.frame_count} addresses={s.distinct_addresses} "
        f"destinations={s.distinct_destinations} duration_hours={fmt(s.duration_hours)}"
    )
    return 0


def _cmd_gen(args, parser) -> int:
    model = _model_from_args(args, parser)
    generated = synth.generate(synth.GeneratorSpec(model, args.length, args.seed))
    _write(args.out, partial(trace.write_trace, generated))
    return 0


def _cmd_split(args) -> int:
    # Both sides are written from the parsed columns through one mask.
    wanted = args.proto
    parsed = trace.read_trace(args.trace)
    matching = trace._protocol_mask(parsed, lambda proto: proto == wanted)
    _write(args.match_out, partial(trace.write_trace, parsed, frames=matching))
    matching ^= True  # now the rest
    _write(args.rest_out, partial(trace.write_trace, parsed, frames=matching))
    return 0


def _cmd_concentration(args) -> int:
    curve = concentration_curve(_Refs(_read_nonempty(args.trace, "destinations")))
    _write(args.out, partial(write_concentration_csv, curve))
    return 0


def _cmd_wss(args) -> int:
    reports = _working_sets(args, _Refs(_read_nonempty(args.trace, "destinations")))
    _write(args.out, partial(write_wss_csv, reports))
    return 0


def _cmd_stackdist(args) -> int:
    hist = _Refs(_read_nonempty(args.trace, "destinations")).hist
    _write(args.out, partial(write_stackdist_csv, hist))
    return 0


def _cmd_runs(args) -> int:
    hist = run_lengths(_Refs(_read_nonempty(args.trace, "destinations")))
    _write(args.out, partial(write_runs_csv, hist))
    return 0


def _cmd_simulate(args) -> int:
    refs = _Refs(_read_nonempty(args.trace, "destinations"))
    curves = _sweep(args, refs, args.capacities or sorted(set(_POWER_SWEEP) | {refs.distinct}))
    _write(args.miss_out, partial(write_miss_ratio_csv, curves))
    _write(args.interfault_out, partial(write_interfault_csv, curves))
    return 0


def _cmd_searchtime(args) -> int:
    refs = _Refs(_read_nonempty(args.trace, "destinations"))
    _, time_curves = _search_times(args, refs, *_search_sweep(args, refs))
    _write(args.out, partial(write_search_time_csv, time_curves))
    return 0


def _write_summary(
    s: TraceSummary,
    curve: ConcentrationCurve,
    time_curves: list[SearchTimeCurve],
    stream,
) -> None:
    stream.write(f"frames={s.frame_count}\n")
    stream.write(f"addresses={s.distinct_addresses}\n")
    stream.write(f"destinations={s.distinct_destinations}\n")
    stream.write(f"duration_hours={fmt(s.duration_hours)}\n")
    stream.write(f"dest_fraction_for_50pct_frames={fmt(curve.quantile(0.5))}\n")
    stream.write(f"dest_fraction_for_90pct_frames={fmt(curve.quantile(0.9))}\n")
    for time_curve in time_curves:
        best_c, best_t = optimal_cache_size(time_curve)
        stream.write(f"optimal_cache_size_{time_curve.policy}={best_c}\n")
        stream.write(f"optimal_search_time_{time_curve.policy}={fmt(best_t)}\n")


def _cmd_report(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    read = _read_nonempty(args.trace, "summary")
    summary, refs = read.summary(), _Refs(read.dst)
    # Every check that the trace decides comes before the first file is written.
    sizes = _search_sweep(args, refs)
    reports = _working_sets(args, refs)
    curve = concentration_curve(refs)
    _write(out_dir / "concentration.csv", partial(write_concentration_csv, curve))
    _write(out_dir / "wss.csv", partial(write_wss_csv, reports))
    _write(out_dir / "stackdist.csv", partial(write_stackdist_csv, refs.hist))
    _write(out_dir / "runs.csv", partial(write_runs_csv, run_lengths(refs)))
    miss_curves, time_curves = _search_times(args, refs, *sizes)
    _write(out_dir / "miss_ratio.csv", partial(write_miss_ratio_csv, miss_curves))
    _write(out_dir / "interfault.csv", partial(write_interfault_csv, miss_curves))
    _write(out_dir / "searchtime.csv", partial(write_search_time_csv, time_curves))
    _write(out_dir / "summary.txt", partial(_write_summary, summary, curve, time_curves))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="addrloc",
        description="Locality analysis and cache simulation for address reference traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    seed = _flag(lambda text: _checks.seed(_spelled(text), "seed"))

    # Flag groups shared through `parents=`; report takes the union of the
    # wss, simulate and searchtime flags.
    trace_arg = argparse.ArgumentParser(add_help=False)
    trace_arg.add_argument("trace")
    out_flag = argparse.ArgumentParser(add_help=False)
    out_flag.add_argument("--out", help="output CSV (default: stdout)")
    window_flags = argparse.ArgumentParser(add_help=False)
    window_flags.add_argument(
        "--windows",
        type=_flag(lambda text: _positive_ints(text, "window")),
        default="10,20,50,100,200,500,1000",
        metavar="W1,W2,...",
        help="window sizes (default: %(default)s)",
    )
    window_flags.add_argument("--mode", choices=("disjoint", "sliding"), default="disjoint")

    def sweep_flags(policies: str, capacities: str) -> argparse.ArgumentParser:
        # Built per caller: parents share Action objects, so a shared group
        # cannot carry per-subcommand defaults.
        flags = argparse.ArgumentParser(add_help=False)
        flags.add_argument("--policies", type=_flag(_policies), default=policies)
        flags.add_argument(
            "--capacities",
            type=_flag(_capacities),
            metavar="C1,C2,...",
            help=f"cache sizes (default: {capacities})",
        )
        flags.add_argument("--seed", type=seed, default=0, help=f"RAND eviction seed, {_SEEDS}")
        return flags

    clipped_sweep = (
        "powers of two below the database size, plus it and the distinct-destination count"
    )
    search_flags = argparse.ArgumentParser(add_help=False)
    search_flags.add_argument(
        "--database-size",
        type=_flag(lambda text: _checks.positive_int(_spelled(text), "database_size")),
        help="full table size n, at least the distinct destinations in the trace "
        "(default: that count)",
    )
    search_flags.add_argument("--cost", choices=sorted(_COST_MODELS), default="binary")

    p = sub.add_parser(
        "summarize", parents=[trace_arg], help="print frame/address counts and duration"
    )
    p.set_defaults(func=_cmd_summarize)

    p = sub.add_parser(
        "gen",
        help="generate a synthetic trace",
        description="Generate a synthetic trace from a seeded reference model. "
        "Weights for --irm/--lru-stack are normalized to a pmf.",
    )
    model = p.add_mutually_exclusive_group(required=True)
    for kind, metavar, help in (
        ("cyclic", "K", "round-robin over K addresses"),
        ("uniform-irm", "N", "i.i.d. uniform over N addresses"),
        ("irm", "W1,W2,...", "i.i.d. with per-address weights"),
        ("lru-stack", "W1,W2,...", "stack model with per-depth weights"),
    ):
        model.add_argument(
            f"--{kind}", dest="model", type=_flag(_MODELS[kind]), metavar=metavar, help=help
        )
    model.add_argument(
        "--interleave",
        type=_flag(_interleave),
        metavar="KIND:ARG;...",
        help="weave part streams round-robin, e.g. 'cyclic:30;uniform-irm:100'",
    )
    p.add_argument(
        "--pattern",
        type=_flag(lambda text: _positive_ints(text, "pattern entry")),
        metavar="N1,N2,...",
        help="per-cycle take counts for --interleave",
    )
    p.add_argument(
        "--length",
        type=_flag(lambda text: _checks.nonnegative_int(_spelled(text), "length")),
        required=True,
        help="number of references",
    )
    p.add_argument("--seed", type=seed, default=0, help=_SEEDS)
    p.add_argument("--out", help="output trace file (default: stdout)")
    p.set_defaults(func=partial(_cmd_gen, parser=p))  # flag-pairing errors are usage errors

    p = sub.add_parser("split", parents=[trace_arg], help="split a trace by protocol tag")
    p.add_argument("--proto", required=True, help="protocol token selecting the matching side")
    p.add_argument("--match-out", required=True)
    p.add_argument("--rest-out", required=True)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser(
        "concentration",
        parents=[trace_arg, out_flag],
        help="cumulative traffic share of top-ranked destinations",
        description="CSV columns: dest_fraction, frame_fraction.",
    )
    p.set_defaults(func=_cmd_concentration)

    p = sub.add_parser(
        "wss",
        parents=[trace_arg, window_flags, out_flag],
        help="average working set size per window",
        description="CSV columns: window, mode, avg_wss. Windows larger than "
        "the trace are skipped with a note on stderr.",
    )
    p.set_defaults(func=_cmd_wss)

    p = sub.add_parser(
        "stackdist",
        parents=[trace_arg, out_flag],
        help="LRU stack distance histogram",
        description="CSV columns: distance, count, pdf, cdf; final row 'inf' "
        "counts first references.",
    )
    p.set_defaults(func=_cmd_stackdist)

    p = sub.add_parser(
        "runs",
        parents=[trace_arg, out_flag],
        help="histogram of consecutive-reference run lengths",
        description="CSV columns: length, count, frequency.",
    )
    p.set_defaults(func=_cmd_runs)

    p = sub.add_parser(
        "simulate",
        parents=[
            trace_arg,
            sweep_flags(
                "MIN,LRU,FIFO,RAND", "1,2,4,...,256 plus the distinct-destination count"
            ),
        ],
        help="miss ratio and interfault distance over a capacity sweep",
        description="Writes two CSVs (capacity + one column per policy): "
        "miss ratios and mean references per miss.",
    )
    p.add_argument("--miss-out", default="miss_ratio.csv")
    p.add_argument("--interfault-out", default="interfault.csv")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "searchtime",
        parents=[trace_arg, sweep_flags("LRU", clipped_sweep), search_flags, out_flag],
        help="normalized search time over a capacity sweep",
        description="CSV columns: capacity + one normalized-time column per "
        "policy. T < 1 means the cache speeds lookups up.",
    )
    p.set_defaults(func=_cmd_searchtime)

    p = sub.add_parser(
        "report",
        parents=[
            trace_arg,
            window_flags,
            sweep_flags("MIN,LRU,FIFO,RAND", clipped_sweep),
            search_flags,
        ],
        help="run the whole battery and write one file per analysis",
        description="Writes concentration.csv, wss.csv, stackdist.csv, runs.csv, "
        "miss_ratio.csv, interfault.csv, searchtime.csv, summary.txt into --out-dir.",
    )
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
