"""The benchmark's traced run wraps addrloc functions by name; keep those names alive."""

from __future__ import annotations

import importlib
import importlib.util
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
