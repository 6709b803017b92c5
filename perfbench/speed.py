"""Time a CPU-bound child at a fixed reference CPU speed.

On a small shared VM one vCPU runs the same Python code up to 1.8x faster
or slower from second to second, and the two vCPUs change speed
independently of each other (see README.md).  The wall time of a whole
run therefore moves with the host's load by more than a code change
should have to move it to show.

`RefClock` takes the speed where the child runs.  The runner and its
child share one CPU.  Every PERIOD_S the runner stops the child with
SIGSTOP, times `probe_s`, and lets the child go on with SIGCONT.  Each
stretch the child ran is scaled by PROBE_REF_S over the mean of the probes
on either side of it.  The sum is the child's time at the reference speed:
the time it would have taken had the CPU run at the probe's reference
speed throughout.

The probe times three fixed loops of the kinds of work addrloc does:
counting under integer keys, looking up string keys and appending to a
list, and splitting and parsing trace lines.  The slow phases slow these
by different factors, and so they slow addrloc's commands by different
factors too; the geometric mean of the three tracks both the cachesim-heavy
`report` and the parse-heavy commands better than any one loop does.
"""

from __future__ import annotations

import time

PERIOD_S = 0.15
# probe_s on the 2-vCPU VM the benchmark was written on, in a fast phase.
PROBE_REF_S = 0.0013

_KEYS = [f"{i & 255:02x}:{i * 7 & 255:02x}:{i >> 8:02x}" for i in range(4096)]
_TABLE = {key: i for i, key in enumerate(_KEYS)}
_LINES = [f"{i * 1000} {_KEYS[i * 31 & 4095]} {_KEYS[i * 2654435761 & 4095]} lat {60 + i % 1400}"
          for i in range(512)]


def _count_ints() -> None:
    counts: dict[int, int] = {}
    for i in range(8000):
        key = (i * 2654435761) % 509
        counts[key] = counts.get(key, 0) + 1


def _look_up_strings() -> None:
    total, out = 0, []
    for i in range(4000):
        total += _TABLE[_KEYS[(i * 2654435761) & 4095]]
        out.append(total & 1023)


def _parse_lines() -> None:
    lengths: dict[str, int] = {}
    for _ in range(4):
        for line in _LINES:
            fields = line.split()
            lengths[fields[2]] = lengths.get(fields[2], 0) + int(fields[4])


def probe_s() -> float:
    """The geometric mean time of three fixed loops: the CPU's current speed."""
    product = 1.0
    for loop in (_count_ints, _look_up_strings, _parse_lines):
        start = time.perf_counter()
        loop()
        product *= time.perf_counter() - start
    return product ** (1 / 3)


class RefClock:
    """Sums the stretches a child ran, each at the speed the probes found."""

    def __init__(self) -> None:
        self.probes = [probe_s()]
        self.ref_s = 0.0
        self.ran_s = 0.0
        self.since = time.perf_counter()

    def resume(self) -> float:
        """Mark the start of a stretch; returns its start time."""
        self.since = time.perf_counter()
        return self.since

    def pause(self, at: float) -> None:
        """End the stretch at `at`, then probe while the child is not running."""
        stretch = at - self.since
        probe = probe_s()
        self.ref_s += stretch * PROBE_REF_S / ((self.probes[-1] + probe) / 2)
        self.ran_s += stretch
        self.probes.append(probe)
