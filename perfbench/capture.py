"""Seeded generator for traces shaped like a LAN capture.

Each frame line has all five fields of the addrloc trace format: a
microsecond timestamp, MAC-style source and destination tokens, a protocol
tag and a frame length.  Comment lines are sprinkled through the file, as
capture tools write them.  Destinations follow a Zipf law over a fixed
station population; with `burst_prob` > 0 a frame repeats the previous
frame's destination with that probability, which gives geometric bursts.

The generator is independent of addrloc, so the counts it returns are an
oracle for the program's own `summarize`, `split` and `stackdist` output.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PROTOCOLS = ("lat", "decnet", "ip", "arp", "xns")
PROTOCOL_WEIGHTS = (0.35, 0.25, 0.25, 0.10, 0.05)
MICROSECONDS_PER_HOUR = 3_600_000_000
_MAC_MULTIPLIER = 0x5DEECE66D  # odd, so k -> k * m mod 2**48 is a bijection
_MAC_MASK = (1 << 48) - 1


@dataclass(frozen=True)
class CaptureShape:
    frames: int
    stations: int          # Zipf population for destinations
    zipf_s: float
    burst_prob: float      # chance a frame repeats the previous destination
    senders: int = 400     # Zipf population for sources (top stations)
    comment_every: int = 5000
    mean_gap_us: float = 2000.0


@dataclass(frozen=True)
class CaptureCounts:
    """What `addrloc summarize` and `split --proto lat` must report."""

    frames: int
    addresses: int
    destinations: int
    duration_us: int
    lat_frames: int

    def summarize_line(self) -> str:
        hours = self.duration_us / MICROSECONDS_PER_HOUR
        return (
            f"frames={self.frames} addresses={self.addresses} "
            f"destinations={self.destinations} duration_hours={float(hours)!r}"
        )


def _mac(station: int) -> str:
    value = (station * _MAC_MULTIPLIER) & _MAC_MASK
    return "-".join(f"{(value >> shift) & 0xFF:02x}" for shift in range(40, -8, -8))


def _zipf_ranks(rng: np.random.Generator, population: int, s: float, n: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, population + 1, dtype=np.float64) ** s
    cum = np.cumsum(weights)
    cum /= cum[-1]
    ranks = np.searchsorted(cum, rng.random(n), side="right")
    return np.minimum(ranks, population - 1)


def build_capture(shape: CaptureShape, seed: int) -> tuple[str, CaptureCounts]:
    """Return the trace file text and its counts; identical for identical seeds."""
    rng = np.random.default_rng(seed)
    n = shape.frames
    # Popularity rank -> station id, so popular stations are not the low ids.
    station_of_rank = rng.permutation(shape.stations)
    dst = station_of_rank[_zipf_ranks(rng, shape.stations, shape.zipf_s, n)]
    if shape.burst_prob > 0:
        repeat = rng.random(n) < shape.burst_prob
        repeat[0] = False
        source_index = np.where(repeat, 0, np.arange(n))
        dst = dst[np.maximum.accumulate(source_index)]
    src = station_of_rank[_zipf_ranks(rng, min(shape.senders, shape.stations), shape.zipf_s, n)]
    proto_cum = np.cumsum(PROTOCOL_WEIGHTS)
    proto_cum /= proto_cum[-1]
    proto = np.searchsorted(proto_cum, rng.random(n), side="right")
    lengths = rng.integers(60, 1515, size=n)
    gaps = rng.exponential(shape.mean_gap_us, size=n).astype(np.int64)
    timestamps = 1_000_000 + np.cumsum(gaps)

    used = np.union1d(src, dst)
    macs = {int(k): _mac(int(k)) for k in used}
    lines = ["# synthetic LAN capture", f"# frames={n} seed={seed}"]
    for i, (ts, s, d, p, length) in enumerate(
        zip(timestamps.tolist(), src.tolist(), dst.tolist(), proto.tolist(), lengths.tolist())
    ):
        if i and i % shape.comment_every == 0:
            lines.append(f"# segment {i // shape.comment_every}")
        lines.append(f"{ts}\t{macs[s]}\t{macs[d]}\t{PROTOCOLS[p]}\t{length}")
    text = "\n".join(lines) + "\n"
    counts = CaptureCounts(
        frames=n,
        addresses=len(used),
        destinations=len(np.unique(dst)),
        duration_us=int(timestamps[-1] - timestamps[0]),
        lat_frames=int(np.count_nonzero(proto == PROTOCOLS.index("lat"))),
    )
    return text, counts


if __name__ == "__main__":
    # python3 capture.py SHAPE_JSON SEED OUT: write the trace, print its counts as JSON.
    text, counts = build_capture(CaptureShape(**json.loads(sys.argv[1])), int(sys.argv[2]))
    Path(sys.argv[3]).write_text(text, encoding="utf-8")
    print(json.dumps(dataclasses.asdict(counts)))
