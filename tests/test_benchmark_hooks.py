"""The benchmark's traced run wraps addrloc functions by name; keep those names alive."""

from __future__ import annotations

import importlib
import importlib.util
import io
import json
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_span_targets_resolve_to_callables():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)  # defines TARGETS; install() is never called
    missing = []
    for module_name, names in spans.TARGETS.items():
        module = importlib.import_module(module_name)
        for dotted in names:
            owner = module
            for part in dotted.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{module_name}.{dotted}")
    assert missing == []


def test_span_counts_read_real_return_values():
    # Each work counter reads the wrapped function's return value; a change
    # to that value's type must not crash the traced run.  The counts are
    # written to JSON, so they must be plain ints.
    calls = {
        "trace.parse_trace": ((io.StringIO("0\tA\tB\n1\tB\tC\n2\tC\tB\n"),), {}, 3),
        "locality.stack_distances": (([4, 7, 4, 4, 9],), {}, 3),
        "cachesim.simulate": (([4, 7, 4, 4, 9], "LRU", 2), {}, 5),
    }
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)  # defines COUNTS; install() is never called
    assert set(spans.COUNTS) == set(calls)
    for name, (args, kwargs, expected) in calls.items():
        module_name, function_name = name.split(".")
        function = getattr(importlib.import_module(f"addrloc.{module_name}"), function_name)
        count = spans.COUNTS[name](args, kwargs, function(*args, **kwargs))
        assert count == expected
        assert json.loads(json.dumps(count)) == expected


def test_a_wrapper_installed_after_import_sees_every_trace_write(tmp_path, monkeypatch):
    # The traced run wraps `trace.write_trace` where it is defined, after the
    # CLI is imported: `gen` must call the wrapper.  `split` copies every
    # block, zero-padded ones too, and makes no call.
    from addrloc import trace
    from addrloc.cli import main

    written = []
    write = trace.write_trace

    def counted(t, stream, frames=None):
        written.append(len(t) if frames is None else int(frames.sum()))
        return write(t, stream, frames=frames)

    monkeypatch.setattr(trace, "write_trace", counted)
    path = tmp_path / "t.tsv"
    assert main(["gen", "--cyclic", "3", "--length", "7", "--out", str(path)]) == 0
    path.write_text("0\tA\tB\tlat\n1\tB\tA\tip\n2\tA\tC\n", encoding="utf-8")
    argv = ["split", str(path), "--proto", "lat",
            "--match-out", str(tmp_path / "a.tsv"), "--rest-out", str(tmp_path / "b.tsv")]
    assert main(argv) == 0
    assert written == [7]
    # Zero-padded timestamps, read 11 bytes at a time: three blocks of one line.
    path.write_text("00\tA\tB\tlat\n01\tB\tA\tarp\n02\tA\tC\tlat\n", encoding="utf-8")
    monkeypatch.setattr(trace, "_CHUNK_BYTES", 11)
    assert main(argv) == 0
    assert written == [7]
