"""Reference-trace data model and the tab-separated trace file format.

A trace is an ordered, timestamped sequence of frames, each carrying a
source and a destination address.  Raw address tokens (MAC-style strings
or anything else without tabs) are interned to dense integer ids in
first-appearance order; every analysis in this package consumes the
sequence of destination ids.

A `Trace` is stored by column, one array per field:

    timestamps  int64 microseconds
    src, dst    int32 address ids into `interns`
    proto       int32 codes into the `protos` table; code 0 (None) is "no tag"
    length      int64 frame lengths; -1 is "absent"

File format: UTF-8 text, LF line endings, one frame per line, fields
tab-separated in the order

    timestamp_us <TAB> src <TAB> dst [<TAB> proto [<TAB> length]]

Timestamps are integer microseconds, non-negative and non-decreasing
(ties allowed).  Timestamps and lengths must fit in a signed 64-bit
integer, so neither may exceed 2**63 - 1.  Lines starting with '#' and
blank lines are skipped.  An empty proto field stands for "no proto tag".
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import islice, repeat
from typing import Callable, Iterable, Optional, Sequence, TextIO

import numpy as np

MICROSECONDS_PER_HOUR = 3_600_000_000
_INT64_MAX = 2**63 - 1

# Lines parsed (or frames split) per block.  Bounds the transient memory,
# which is the per-line strings of one block.
_CHUNK_LINES = 4096
# Frames written per output block.
_WRITE_CHUNK = 8192


class TraceParseError(ValueError):
    """Malformed trace input; `line` is the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class TraceOrderError(TraceParseError):
    """Timestamps went backwards."""


class InternTable:
    """Bidirectional map between raw address tokens and dense ids (0, 1, ...)."""

    __slots__ = ("_ids", "_tokens")

    def __init__(self, tokens: Iterable[str] = ()):
        self._ids: dict[str, int] = {}
        self._tokens: list[str] = []
        for token in tokens:
            self.intern(token)

    def intern(self, token: str) -> int:
        """Return the id for `token`, assigning the next free id if new."""
        aid = self._ids.get(token)
        if aid is None:
            aid = len(self._tokens)
            self._ids[token] = aid
            self._tokens.append(token)
        return aid

    def intern_all(self, tokens: list[str]) -> np.ndarray:
        """Ids of `tokens` as an int32 array, new tokens numbered in order of first appearance."""
        ids = self._ids
        try:
            return np.fromiter(map(ids.__getitem__, tokens), np.int32, len(tokens))
        except KeyError:
            fresh = dict.fromkeys(tokens)
            new = fresh.keys() - ids.keys()
            for token in filter(new.__contains__, fresh):
                ids[token] = len(self._tokens)
                self._tokens.append(token)
            return np.fromiter(map(ids.__getitem__, tokens), np.int32, len(tokens))

    def token_of(self, address_id: int) -> str:
        return self._tokens[address_id]

    @property
    def tokens(self) -> tuple[str, ...]:
        return tuple(self._tokens)

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    def __eq__(self, other) -> bool:
        if not isinstance(other, InternTable):
            return NotImplemented
        return self._tokens == other._tokens


def _column(values, dtype) -> np.ndarray:
    """`values` as a read-only array of `dtype`; the caller's own array stays writable."""
    column = np.asarray(values, dtype=dtype).view()
    column.flags.writeable = False
    return column


class Trace:
    """Immutable columnar table of frames plus the intern table of their addresses.

    `Trace(timestamps, src, dst, interns, proto, length, protos)` takes the
    columns described in the module docstring; `proto` defaults to all 0
    (no tag), `length` to all -1 (absent) and `protos` to `(None,)`.  Ids
    are assigned in first-appearance order, scanning each frame's source
    before its destination.  Construct with `Trace.from_token_rows`,
    `parse_trace`, or a generator; do not mutate afterwards (analyses may
    share one Trace across threads).
    """

    __slots__ = ("timestamps", "src", "dst", "proto", "length", "protos", "interns")

    def __init__(
        self,
        timestamps,
        src,
        dst,
        interns: InternTable,
        proto=None,
        length=None,
        protos: Sequence[Optional[str]] = (None,),
    ):
        n = len(timestamps)
        self.timestamps = _column(timestamps, np.int64)
        self.src = _column(src, np.int32)
        self.dst = _column(dst, np.int32)
        self.proto = _column(np.zeros(n, np.int32) if proto is None else proto, np.int32)
        self.length = _column(np.full(n, -1, np.int64) if length is None else length, np.int64)
        self.protos = tuple(protos)
        self.interns = interns
        if any(len(c) != n for c in (self.src, self.dst, self.proto, self.length)):
            raise ValueError("trace columns differ in length")
        if self.protos[:1] != (None,):
            raise ValueError("protos[0] must be None, the code of untagged frames")
        for ids, size, what in (
            (self.src, len(interns), "src"),
            (self.dst, len(interns), "dst"),
            (self.proto, len(self.protos), "proto"),
        ):
            if n and (ids.min() < 0 or ids.max() >= size):
                raise ValueError(f"{what} column has a code outside 0..{size - 1}")

    @classmethod
    def from_token_rows(cls, rows: Iterable[tuple]) -> "Trace":
        """Build a trace from (timestamp, src_token, dst_token[, proto[, length]]) rows.

        A proto of None or "" means no tag; a length of None means absent.
        """
        columns = _Columns()
        timestamps: list[int] = []
        addresses: list[str] = []
        protos: list[str] = []
        lengths: list[int] = []
        for row in rows:
            timestamps.append(row[0])
            addresses += row[1:3]
            protos.append(row[3] or "" if len(row) > 3 else "")
            length = row[4] if len(row) > 4 else None
            lengths.append(-1 if length is None else length)
        columns.append(
            np.array(timestamps, np.int64),
            addresses,
            columns.protos.intern_all(protos),
            np.array(lengths, np.int64),
        )
        return columns.trace()

    def destinations(self) -> list[int]:
        """The destination reference string: the ordered sequence of dst ids."""
        return self.dst.tolist()

    def token_of(self, address_id: int) -> str:
        return self.interns.token_of(address_id)

    def __len__(self) -> int:
        return len(self.timestamps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.interns == other.interns
            and np.array_equal(self.timestamps, other.timestamps)
            and np.array_equal(self.src, other.src)
            and np.array_equal(self.dst, other.dst)
            and np.array_equal(self.length, other.length)
            and [self.protos[c] for c in self.proto.tolist()]
            == [other.protos[c] for c in other.proto.tolist()]
        )


class _Columns:
    """Trace columns growing block by block, with their address and proto tables.

    Each column is an `array`, which grows in place with little slack, so
    building a trace holds one copy of it plus the current block.
    """

    def __init__(self):
        self.timestamps = array("q")
        self.src = array("i")
        self.dst = array("i")
        self.proto = array("i")
        self.length = array("q")
        self.interns = InternTable()
        self.protos = InternTable([""])  # "" -> 0, the "no tag" code

    def append(
        self, timestamps: np.ndarray, addresses: list[str], proto: np.ndarray, lengths: np.ndarray
    ) -> None:
        """Add one block: `addresses` alternates src and dst tokens; `proto` indexes `protos`."""
        ids = self.interns.intern_all(addresses)
        for column, values in (
            (self.timestamps, timestamps),
            (self.src, ids[0::2]),
            (self.dst, ids[1::2]),
            (self.proto, proto),
            (self.length, lengths),
        ):
            column.frombytes(np.ascontiguousarray(values).view(np.uint8))

    def trace(self) -> Trace:
        return Trace(
            np.frombuffer(self.timestamps, np.int64),
            np.frombuffer(self.src, np.int32),
            np.frombuffer(self.dst, np.int32),
            self.interns,
            np.frombuffer(self.proto, np.int32),
            np.frombuffer(self.length, np.int64),
            (None,) + self.protos.tokens[1:],
        )


@dataclass(frozen=True)
class TraceSummary:
    frame_count: int
    distinct_addresses: int      # over src and dst fields together
    distinct_destinations: int   # over dst only
    duration_hours: float        # last timestamp minus first, in hours


def _check_lines(lines: list[str], first_lineno: int, prev_ts: Optional[int]) -> None:
    """Raise the error of the first bad line in `lines`, checking one line at a time.

    `parse_trace` calls this only for a block that it found to hold a bad
    line; the checks and their order define what a bad line is.
    """
    for lineno, raw in enumerate(lines, start=first_lineno):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) < 3 or len(fields) > 5:
            raise TraceParseError(lineno, f"expected 3 to 5 tab-separated fields, got {len(fields)}")
        try:
            ts = int(fields[0])
        except ValueError:
            raise TraceParseError(lineno, f"bad timestamp {fields[0]!r}") from None
        if ts < 0:
            raise TraceParseError(lineno, f"negative timestamp {ts}")
        if ts > _INT64_MAX:
            raise TraceParseError(lineno, f"timestamp {ts} exceeds 2**63 - 1")
        if prev_ts is not None and ts < prev_ts:
            raise TraceOrderError(lineno, f"timestamp {ts} decreases below {prev_ts}")
        prev_ts = ts
        if not fields[1] or not fields[2]:
            raise TraceParseError(lineno, "empty address token")
        if len(fields) > 4:
            try:
                length = int(fields[4])
            except ValueError:
                raise TraceParseError(lineno, f"bad length {fields[4]!r}") from None
            if length < 0:
                raise TraceParseError(lineno, f"negative length {length}")
            if length > _INT64_MAX:
                raise TraceParseError(lineno, f"length {length} exceeds 2**63 - 1")
    raise AssertionError("a block failed a check that none of its lines fails")


class _BadBlock(Exception):
    """A check failed somewhere in the current block."""


def _int64s(texts: list[str]) -> np.ndarray:
    try:
        return np.fromiter(map(int, texts), np.int64, len(texts))
    except (ValueError, OverflowError):
        raise _BadBlock from None


def _parse_block(rows: list[str], prev_ts: int, columns: _Columns) -> int:
    """Append the frames of `rows` (line breaks stripped) to `columns`; return the last timestamp.

    Raises _BadBlock if any line fails a check; the parse then fails, so
    `columns` may be left holding part of the block.
    """
    tabs = list(map(str.count, rows, repeat("\t")))
    fewest, most = min(tabs), max(tabs)
    if fewest < 2 or most > 4:
        raise _BadBlock
    fields = "\t".join(rows).split("\t")
    widths = np.array(tabs) + 1
    if fewest == most:
        width = fewest + 1

        def column(j: int) -> list[str]:
            return fields[j::width] if j < width else []
    else:
        table = np.array(fields, dtype=object)
        starts = np.cumsum(widths) - widths

        def column(j: int) -> list[str]:
            return table[starts[widths > j] + j].tolist()

    timestamps = _int64s(column(0))
    # Non-decreasing from max(prev_ts, 0) also rules out negative timestamps.
    if timestamps[0] < prev_ts or (np.diff(timestamps) < 0).any():
        raise _BadBlock
    given = _int64s(column(4))
    if (given < 0).any():
        raise _BadBlock
    lengths = np.full(len(rows), -1, np.int64)
    lengths[widths > 4] = given
    proto = np.zeros(len(rows), np.int32)
    proto[widths > 3] = columns.protos.intern_all(column(3))
    addresses = [""] * (2 * len(rows))
    addresses[0::2] = column(1)
    addresses[1::2] = column(2)
    columns.append(timestamps, addresses, proto, lengths)
    if "" in columns.interns:
        raise _BadBlock
    return int(timestamps[-1])


def parse_trace(lines: Iterable[str]) -> Trace:
    """Parse trace file lines into a Trace.

    Raises TraceParseError on a malformed line (wrong field count,
    non-integer, negative or out-of-int64-range timestamp or length, empty
    address token) and TraceOrderError when a timestamp decreases.
    '#'-comment lines and blank lines are skipped.  Lines are read in
    blocks of a few thousand and checked a block at a time; the error
    names the first bad line.
    """
    columns = _Columns()
    source = iter(lines)
    lineno = 1
    prev_ts: Optional[int] = None
    while True:
        block = list(islice(source, _CHUNK_LINES))
        if not block:
            return columns.trace()
        rows = list(map(str.rstrip, block, repeat("\n")))
        if "\r" in "".join(rows):
            rows = list(map(str.rstrip, rows, repeat("\r")))
        rows = [row for row in rows if row.strip() and row[0] != "#"]
        if rows:
            try:
                prev_ts = _parse_block(rows, 0 if prev_ts is None else prev_ts, columns)
            except _BadBlock:
                _check_lines(block, lineno, prev_ts)
        lineno += len(block)


def _breaks_line(token: str) -> bool:
    return "\t" in token or "\n" in token or "\r" in token


def write_trace(trace: Trace, stream: TextIO) -> None:
    """Write a trace in the file format; parse_trace(write_trace(t)) == t.

    Raises ValueError at the first frame with a token holding a tab or
    line break, after writing the frames before it.
    """
    tokens = np.array(trace.interns.tokens, dtype=object)
    protos = trace.protos
    unsafe_token = np.fromiter(map(_breaks_line, tokens), bool, len(tokens))
    unsafe_proto = np.array([p is not None and _breaks_line(p) for p in protos])
    unsafe = np.flatnonzero(
        unsafe_token[trace.src] | unsafe_token[trace.dst] | unsafe_proto[trace.proto]
    )
    end = int(unsafe[0]) if len(unsafe) else len(trace)
    # The text after the dst field: "\tproto" alone, or "\tproto\tlength"
    # with an empty proto field when untagged.
    tag_only = np.array(["" if p is None else f"\t{p}" for p in protos], dtype=object)
    tag_field = np.array([f"\t{p or ''}" for p in protos], dtype=object)
    for start in range(0, end, _WRITE_CHUNK):
        block = slice(start, min(start + _WRITE_CHUNK, end))
        codes = trace.proto[block]
        lengths = trace.length[block]
        tails = tag_only[codes]
        sized = lengths >= 0
        if sized.any():
            tags = tag_field[codes[sized]].tolist()
            tails[sized] = [f"{tag}\t{n}" for tag, n in zip(tags, lengths[sized].tolist())]
        stream.write("".join([
            f"{ts}\t{src}\t{dst}{tail}\n"
            for ts, src, dst, tail in zip(
                trace.timestamps[block].tolist(),
                tokens[trace.src[block]].tolist(),
                tokens[trace.dst[block]].tolist(),
                tails.tolist(),
            )
        ]))
    if end < len(trace):
        for token in (tokens[trace.src[end]], tokens[trace.dst[end]], protos[trace.proto[end]]):
            if token is not None and _breaks_line(token):
                raise ValueError(f"token {token!r} contains a tab or line break")


def read_trace(path) -> Trace:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return parse_trace(f)
    except UnicodeDecodeError:
        # The text layer decodes in blocks, so its error has no line number.
        # Rescan with each bad byte escaped to a lone surrogate, splitting
        # lines exactly as parse_trace saw them, and report the first one.
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
            for lineno, line in enumerate(f, start=1):
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as exc:
                    byte = ord(line[exc.start]) - 0xDC00
                    raise TraceParseError(
                        lineno, f"not UTF-8: byte 0x{byte:02x} at column {exc.start + 1}"
                    ) from None
        raise


def save_trace(trace: Trace, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        write_trace(trace, f)


def summarize(trace: Trace) -> TraceSummary:
    """Frame, address, and destination counts plus the timestamp span in hours."""
    if len(trace) == 0:
        raise ValueError("cannot summarize an empty trace")
    span = int(trace.timestamps[-1]) - int(trace.timestamps[0])
    return TraceSummary(
        frame_count=len(trace),
        distinct_addresses=len(trace.interns),
        distinct_destinations=int(np.count_nonzero(np.bincount(trace.dst))),
        duration_hours=span / MICROSECONDS_PER_HOUR,
    )


def _select(trace: Trace, mask: np.ndarray) -> Trace:
    """The frames where `mask` holds, with their addresses and protos interned afresh."""
    tokens = np.array(trace.interns.tokens, dtype=object)
    tags = np.array(("",) + trace.protos[1:], dtype=object)
    columns = _Columns()
    frames = np.flatnonzero(mask)
    for start in range(0, len(frames), _CHUNK_LINES):
        block = frames[start : start + _CHUNK_LINES]
        pairs = np.stack([trace.src[block], trace.dst[block]], axis=1).ravel()
        columns.append(
            trace.timestamps[block],
            tokens[pairs].tolist(),
            columns.protos.intern_all(tags[trace.proto[block]].tolist()),
            trace.length[block],
        )
    return columns.trace()


def split_by_protocol(
    trace: Trace, proto_predicate: Callable[[str], bool]
) -> tuple[Trace, Trace]:
    """Partition a trace into (matching, rest) by the proto field.

    Frames without a proto tag never match; the predicate is called once
    per tag in the trace's proto table.  Order and timestamps are
    preserved; each output re-interns its own addresses so ids stay dense.
    """
    wanted = np.array([False] + [bool(proto_predicate(p)) for p in trace.protos[1:]])
    matching = wanted[trace.proto]
    return _select(trace, matching), _select(trace, ~matching)
