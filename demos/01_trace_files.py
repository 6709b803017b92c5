"""Build, save, reload, summarize, and split a small trace.

Walks the full data-model loop: construct a trace from token rows, round
trip it through the tab-separated file format, then carve out one
protocol's traffic.  Run from the repository root:

    python demos/01_trace_files.py
"""

from __future__ import annotations

import io

import numpy as np

from addrloc import Trace, parse_trace, summarize, write_trace

rows = [
    (0,        "08-00-2b-11-22-33", "08-00-2b-aa-bb-cc", "LAT", 64),
    (120,      "08-00-2b-aa-bb-cc", "08-00-2b-11-22-33", "LAT", 64),
    (450,      "08-00-2b-44-55-66", "ff-ff-ff-ff-ff-ff", "ARP"),
    (1200,     "08-00-2b-11-22-33", "08-00-2b-aa-bb-cc", "LAT", 1518),
    (3_600_000, "08-00-2b-44-55-66", "08-00-2b-11-22-33", "DECnet", 576),
]
trace = Trace.from_token_rows(rows)

print("== the file format ==")
buf = io.StringIO()
write_trace(trace, buf)
print(buf.getvalue(), end="")

reloaded = parse_trace(io.StringIO(buf.getvalue()))
print("\nround trip reproduces the trace exactly:", reloaded == trace)

print("\n== summary ==")
s = summarize(trace)
print(f"frames               {s.frame_count}")
print(f"distinct addresses   {s.distinct_addresses}   (src and dst together)")
print(f"distinct destinations {s.distinct_destinations}")
print(f"duration             {s.duration_hours:.6f} h")

print("\n== split by protocol ==")
# As the `split` command does: a mask over the frames, from the proto
# column and its tag table, and each side written through it.
lat = np.array([tag == "LAT" for tag in trace.protos])[trace.proto]
for name, mask in (("LAT", lat), ("rest", ~lat)):
    side = io.StringIO()
    write_trace(trace, side, frames=mask)
    print(f"-- {name} side: {int(mask.sum())} frames --")
    print(side.getvalue(), end="")
