"""Span recorder for the traced benchmark run.

The recorder wraps addrloc's public functions from outside the program:
each call becomes a span with a name, a layer, start and end times from
`time.perf_counter` (CLOCK_MONOTONIC on Linux, so a parent process can
compare them with its own clock) and the index of its parent span.

Run as a script, this module is the traced stand-in for `python -m addrloc`:

    python3 perfbench/spans.py SPANS_JSON -- ADDRLOC_ARGS...

It wraps the functions in the modules that define them before
`addrloc.cli` is imported, so calls made from the CLI and calls made inside
the package are both caught, runs `addrloc.cli.main(ADDRLOC_ARGS)` in
process, writes the spans to SPANS_JSON and exits with main's status.
A wrapped name that the package no longer defines is listed as missing.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Callable

# module -> public callables to wrap.  The layer of a span is the module's
# short name, except that CSV writers form the "csv" layer (reported as
# cli.csv_write_s).
TARGETS: dict[str, tuple[str, ...]] = {
    "addrloc.trace": (
        "parse_trace",
        "read_trace",
        "write_trace",
        "save_trace",
        "split_by_protocol",
        "summarize",
        "Trace.destinations",
    ),
    "addrloc.synth": ("generate",),
    "addrloc.locality": (
        "concentration_curve",
        "working_set",
        "stack_distances",
        "run_lengths",
        "write_concentration_csv",
        "write_wss_csv",
        "write_stackdist_csv",
        "write_runs_csv",
    ),
    "addrloc.cachesim": (
        "simulate",
        "sweep",
        "lru_curve_from_distances",
        "write_miss_ratio_csv",
        "write_interfault_csv",
    ),
    "addrloc.searchcost": (
        "normalized_search_time",
        "search_time_curve",
        "optimal_cache_size",
        "write_search_time_csv",
    ),
}

Extractor = Callable[[tuple, dict, object], object]


def _policy(args: tuple, kwargs: dict, result: object) -> object:
    return args[1] if len(args) > 1 else kwargs.get("policy")


# Span name -> extractor of the span's label (appended to its name).
LABELS: dict[str, Extractor] = {"cachesim.sweep": _policy}

# Span name -> extractor of the span's work count, read from the call.
COUNTS: dict[str, Extractor] = {
    "trace.parse_trace": lambda args, kwargs, result: len(result),
    "locality.stack_distances": lambda args, kwargs, result: result[1].infinite_count,
    "cachesim.simulate": lambda args, kwargs, result: result.references,
}


class SpanRecorder:
    """Collects nested spans in memory, in the order calls start."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, name: str, layer: str, fn: Callable) -> Callable:
        label = LABELS.get(name)
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name if label is None else f"{name}.{label(args, kwargs, None)}",
                "layer": layer,
                "parent": self._open[-1] if self._open else None,
                "start": self.clock(),
                "end": None,
            }
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = self.clock()
                self._open.pop()
            if count is not None:
                span["count"] = count(args, kwargs, result)
            return result

        return traced


def install(recorder: SpanRecorder, targets: dict[str, tuple[str, ...]] = TARGETS) -> list[str]:
    """Wrap every target in place; return the dotted names that do not exist."""
    missing = []
    for module_name, names in targets.items():
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            missing.extend(f"{module_name}.{name}" for name in names)
            continue
        short = module_name.rsplit(".", 1)[-1]
        for dotted in names:
            owner_path, _, attr = dotted.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if not callable(fn):
                missing.append(f"{module_name}.{dotted}")
                continue
            layer = "csv" if attr.startswith("write_") and attr.endswith("_csv") else short
            setattr(owner, attr, recorder.wrap(f"{short}.{attr}", layer, fn))
    return missing


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def per_layer_metrics(commands: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced command sequence.

    `commands` holds, per traced child, its "spans" and its "startup_s"
    (spawn to the call of main).  Times named after a function are
    inclusive of its callees; `<layer>.self_s` is the layer's self time.
    """
    inclusive: dict[str, float] = {}
    calls: dict[str, int] = {}
    counted: dict[str, int] = {}
    layer_self: dict[str, float] = {}
    for command in commands:
        spans = command["spans"]
        for s, own in zip(spans, self_times(spans)):
            name = s["name"]
            inclusive[name] = inclusive.get(name, 0.0) + s["end"] - s["start"]
            calls[name] = calls.get(name, 0) + 1
            counted[name] = counted.get(name, 0) + s.get("count", 0)
            layer_self[s["layer"]] = layer_self.get(s["layer"], 0.0) + own
    parse_s = inclusive.get("trace.parse_trace", 0.0)
    metrics = {
        "trace.read_s": inclusive.get("trace.read_trace", 0.0),
        "trace.parse_s": parse_s,
        "trace.parse_calls": calls.get("trace.parse_trace", 0),
        "trace.frames_per_s": counted.get("trace.parse_trace", 0) / parse_s if parse_s else 0.0,
        "trace.split_s": inclusive.get("trace.split_by_protocol", 0.0),
        "trace.write_s": inclusive.get("trace.write_trace", 0.0),
        "trace.summarize_s": inclusive.get("trace.summarize", 0.0),
        "synth.generate_s": inclusive.get("synth.generate", 0.0),
        "locality.stackdist_s": inclusive.get("locality.stack_distances", 0.0),
        "locality.first_refs": counted.get("locality.stack_distances", 0),
        "locality.wss_s": inclusive.get("locality.working_set", 0.0),
        "locality.wss_windows": calls.get("locality.working_set", 0),
        "locality.concentration_s": inclusive.get("locality.concentration_curve", 0.0),
        "locality.runs_s": inclusive.get("locality.run_lengths", 0.0),
        "cachesim.refs_simulated": counted.get("cachesim.simulate", 0),
        "searchcost.curve_s": inclusive.get("searchcost.search_time_curve", 0.0),
        "cli.startup_s": sum(c["startup_s"] for c in commands),
        "cli.csv_write_s": layer_self.get("csv", 0.0),
    }
    for policy in ("MIN", "LRU", "FIFO", "RAND"):
        metrics[f"cachesim.sweep_s.{policy}"] = inclusive.get(f"cachesim.sweep.{policy}", 0.0)
    for layer in ("trace", "synth", "locality", "cachesim", "searchcost", "cli"):
        metrics[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    return metrics


def _run_cli(spans_path: str, argv: list[str]) -> int:
    recorder = SpanRecorder()
    missing = install(recorder)
    import addrloc.cli

    main = recorder.wrap("cli.main", "cli", addrloc.cli.main)
    entered = recorder.clock()
    status = 1
    try:
        status = main(argv)
    except SystemExit as exc:   # argparse usage errors
        status = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        with open(spans_path, "w", encoding="utf-8") as f:
            json.dump({"entered": entered, "spans": recorder.spans, "missing": missing}, f)
    return status


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print("usage: spans.py SPANS_JSON -- ADDRLOC_ARGS...", file=sys.stderr)
        sys.exit(2)
    sys.exit(_run_cli(sys.argv[1], sys.argv[3:]))
