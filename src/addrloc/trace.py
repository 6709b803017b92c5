"""Reference-trace data model and the tab-separated trace file format.

A trace is an ordered, timestamped sequence of frames, each carrying a
source and a destination address.  Raw address tokens (MAC-style strings
or anything else without tabs) are interned to dense integer ids in
first-appearance order; every analysis in this package consumes the
sequence of destination ids.

File format: UTF-8 text, LF line endings, one frame per line, fields
tab-separated in the order

    timestamp_us <TAB> src <TAB> dst [<TAB> proto [<TAB> length]]

Timestamps are integer microseconds, non-negative and non-decreasing
(ties allowed).  Lines starting with '#' and blank lines are skipped.
An empty proto field stands for "no proto tag".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, TextIO

MICROSECONDS_PER_HOUR = 3_600_000_000


class TraceParseError(ValueError):
    """Malformed trace input; `line` is the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class TraceOrderError(TraceParseError):
    """Timestamps went backwards."""


class FrameRecord(NamedTuple):
    timestamp: int
    src: int
    dst: int
    proto: Optional[str] = None
    length: Optional[int] = None


class InternTable:
    """Bidirectional map between raw address tokens and dense ids (0, 1, ...)."""

    __slots__ = ("_ids", "_tokens")

    def __init__(self):
        self._ids: dict[str, int] = {}
        self._tokens: list[str] = []

    def intern(self, token: str) -> int:
        """Return the id for `token`, assigning the next free id if new."""
        aid = self._ids.get(token)
        if aid is None:
            aid = len(self._tokens)
            self._ids[token] = aid
            self._tokens.append(token)
        return aid

    def id_of(self, token: str) -> int:
        return self._ids[token]

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


class Trace:
    """Immutable ordered sequence of frames plus the intern table of their addresses.

    Ids are assigned in first-appearance order, scanning each record's
    source field before its destination field.  Construct with
    `Trace.from_token_rows`, `parse_trace`, or a generator; do not mutate
    afterwards (analyses may share one Trace across threads).
    """

    __slots__ = ("_records", "_interns")

    def __init__(self, records: Iterable[FrameRecord], interns: InternTable):
        self._records: tuple[FrameRecord, ...] = tuple(records)
        self._interns = interns

    @classmethod
    def from_token_rows(cls, rows: Iterable[tuple]) -> "Trace":
        """Build a trace from (timestamp, src_token, dst_token[, proto[, length]]) rows."""
        interns = InternTable()
        records = []
        for row in rows:
            ts, src_tok, dst_tok = row[0], row[1], row[2]
            proto = row[3] if len(row) > 3 else None
            length = row[4] if len(row) > 4 else None
            records.append(
                FrameRecord(ts, interns.intern(src_tok), interns.intern(dst_tok), proto, length)
            )
        return cls(records, interns)

    @property
    def records(self) -> tuple[FrameRecord, ...]:
        return self._records

    @property
    def interns(self) -> InternTable:
        return self._interns

    def destinations(self) -> list[int]:
        """The destination reference string: the ordered sequence of dst ids."""
        return [r.dst for r in self._records]

    def token_of(self, address_id: int) -> str:
        return self._interns.token_of(address_id)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[FrameRecord]:
        return iter(self._records)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return self._records == other._records and self._interns == other._interns


@dataclass(frozen=True)
class TraceSummary:
    frame_count: int
    distinct_addresses: int      # over src and dst fields together
    distinct_destinations: int   # over dst only
    duration_hours: float        # last timestamp minus first, in hours


def parse_trace(lines: Iterable[str]) -> Trace:
    """Parse trace file lines into a Trace.

    Raises TraceParseError on a malformed line (wrong field count,
    non-integer timestamp or length) and TraceOrderError when a timestamp
    decreases.  '#'-comment lines and blank lines are skipped.
    """
    interns = InternTable()
    records: list[FrameRecord] = []
    prev_ts = None
    for lineno, raw in enumerate(lines, start=1):
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
        if prev_ts is not None and ts < prev_ts:
            raise TraceOrderError(lineno, f"timestamp {ts} decreases below {prev_ts}")
        prev_ts = ts
        src_tok, dst_tok = fields[1], fields[2]
        if not src_tok or not dst_tok:
            raise TraceParseError(lineno, "empty address token")
        proto = fields[3] if len(fields) > 3 and fields[3] != "" else None
        length = None
        if len(fields) > 4:
            try:
                length = int(fields[4])
            except ValueError:
                raise TraceParseError(lineno, f"bad length {fields[4]!r}") from None
            if length < 0:
                raise TraceParseError(lineno, f"negative length {length}")
        records.append(FrameRecord(ts, interns.intern(src_tok), interns.intern(dst_tok), proto, length))
    return Trace(records, interns)


def _breaks_line(token: str) -> bool:
    return "\t" in token or "\n" in token or "\r" in token


def write_trace(trace: Trace, stream: TextIO) -> None:
    """Write a trace in the file format; parse_trace(write_trace(t)) == t."""
    # Each address token and each distinct proto is checked once; a record
    # is re-checked field by field only when one of its tokens is unsafe.
    tokens = trace.interns.tokens
    unsafe = {aid for aid, tok in enumerate(tokens) if _breaks_line(tok)}
    safe_protos: set = {None}
    write = stream.write
    for r in trace.records:
        src_tok = tokens[r.src]
        dst_tok = tokens[r.dst]
        if r.proto not in safe_protos or r.src in unsafe or r.dst in unsafe:
            for tok in (src_tok, dst_tok, r.proto or ""):
                if _breaks_line(tok):
                    raise ValueError(f"token {tok!r} contains a tab or line break")
            safe_protos.add(r.proto)
        if r.length is not None:
            write(f"{r.timestamp}\t{src_tok}\t{dst_tok}\t{r.proto or ''}\t{r.length}\n")
        elif r.proto is not None:
            write(f"{r.timestamp}\t{src_tok}\t{dst_tok}\t{r.proto}\n")
        else:
            write(f"{r.timestamp}\t{src_tok}\t{dst_tok}\n")


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
    distinct_dst = len({r.dst for r in trace.records})
    span = trace.records[-1].timestamp - trace.records[0].timestamp
    return TraceSummary(
        frame_count=len(trace),
        distinct_addresses=len(trace.interns),
        distinct_destinations=distinct_dst,
        duration_hours=span / MICROSECONDS_PER_HOUR,
    )


def split_by_protocol(
    trace: Trace, proto_predicate: Callable[[str], bool]
) -> tuple[Trace, Trace]:
    """Partition a trace into (matching, rest) by the proto field.

    Frames without a proto tag never match.  Order and timestamps are
    preserved; each output re-interns its own addresses so ids stay dense.
    """
    matched: list[tuple] = []
    rest: list[tuple] = []
    interns = trace.interns
    for r in trace.records:
        row = (r.timestamp, interns.token_of(r.src), interns.token_of(r.dst), r.proto, r.length)
        if r.proto is not None and proto_predicate(r.proto):
            matched.append(row)
        else:
            rest.append(row)
    return Trace.from_token_rows(matched), Trace.from_token_rows(rest)
