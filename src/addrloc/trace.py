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

File format: UTF-8 text, one frame per line, fields tab-separated in the
order

    timestamp_us <TAB> src <TAB> dst [<TAB> proto [<TAB> length]]

A timestamp or length is 1 to 19 ASCII digits with a value of at most
2**63 - 1, so that it fits in a signed 64-bit integer: no sign, space,
underscore or other digit.  Timestamps are microseconds, non-decreasing
(ties allowed).  A line starting with '#', an empty line and a line of
only spaces, tabs, vertical tabs and form feeds are skipped.  An empty
proto field stands for "no proto tag".  In a file, LF, CRLF and a lone
CR each end a line, as in Python's text mode.  The `Trace` constructor
enforces these rules.

`parse_trace` reads a file opened in binary mode, as `read_trace` gives
it, in chunks cut after their last line break; str lines are read as the
file holding their text.  One reader, `_read_block`, reads every block:
it reads its bytes with numpy and groups equal tokens by a hash of their
8-byte words, checked byte for byte; a table kept across blocks gives
known tokens their ids, so only new ones are decoded and interned.  It
counts lines from the line breaks it finds, so error line numbers need
no further pass over the bytes.  It refuses a block that holds a bad
line, and `_first_bad_line` reads that block one line at a time only to
raise the error that names its first bad line and field.

There are four reads, each a selection of `_Columns`, and each checks
every line as the full one does, with the same errors:
- the full read gives the `Trace`.  It is for library callers: no
  command makes it;
- the split read, which the `split` command (`_split`) makes, writes each
  block and drops it.  A block whose frame lines are already as
  `write_trace` writes them (no number with a leading zero, no 4-field
  line with an empty proto field) keeps only its bytes and each line's
  proto code, and its frame lines are copied to their side: src and dst
  tokens are checked but never grouped or interned.
  Any other block is a full read of its own, a trace with its own
  address and tag tables, written through its protocol mask;
- the destinations read, which the commands that need only the `dst`
  column make, gives that read-only int32 column alone, its ids numbered
  by first appearance among destinations: only destination tokens are
  interned, and src and proto tokens are never grouped;
- the summary read, which the `summarize` and `report` commands make,
  interns src and dst tokens as the full read does, so its dst ids are
  the full read's, and keeps only them, the first and last timestamps
  and the count of addresses: enough for `summarize`'s `TraceSummary`.
  Proto tokens are never grouped.
"""

from __future__ import annotations

import io
from array import array
from dataclasses import dataclass
from itertools import islice, repeat
from typing import BinaryIO, Callable, Iterable, Iterator, NoReturn, Optional, Sequence, TextIO

import numpy as np

from . import _checks

MICROSECONDS_PER_HOUR = 3_600_000_000
_INT64_MAX = 2**63 - 1

# str lines (or frames split) per block, and bytes read from a file per
# block.  Each bounds the transient memory: one block's lines or bytes and
# the numpy arrays over them, which the block reader keeps to about 3 bytes
# per block byte for capture-shaped lines and 5 for 17-byte 3-field lines.
# A 256 KiB block pays the reader's fixed numpy-call cost half as often as
# a 128 KiB one.
_CHUNK_LINES = 2048
_CHUNK_BYTES = 1 << 18
# A block of this many bytes or more takes int64 field offsets, as int32
# ones cannot reach its end.  Only very long lines make one.
_INT64_OFFSETS = 2**31
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
        """Ids of `tokens` as an int32 array, new tokens numbered in order of first appearance.

        The new tokens join the table in one `dict.update` and one `list.extend`.
        """
        ids = np.fromiter(map(self._ids.get, tokens, repeat(-1)), np.int32, len(tokens))
        new = np.flatnonzero(ids < 0)
        if len(new):
            missing = list(map(tokens.__getitem__, new.tolist()))
            fresh = dict.fromkeys(missing)  # each new token once, in order
            self._ids.update(zip(fresh, range(len(self._tokens), len(self._tokens) + len(fresh))))
            self._tokens.extend(fresh)
            ids[new] = list(map(self._ids.__getitem__, missing))
        return ids

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


def _column(values, dtype, what: str) -> np.ndarray:
    """`values` as a read-only `dtype` array; ValueError unless they are integers it holds."""
    values = _checks.int_array(values, what)
    column = values.astype(dtype, copy=False).view()  # the caller's array stays writable
    if not np.can_cast(values.dtype, dtype) and (column != values).any():
        raise ValueError(f"{what} must fit in {np.dtype(dtype)}")
    column.flags.writeable = False
    return column


def _breaks_line(token: str) -> bool:
    return "\t" in token or "\n" in token or "\r" in token


class Trace:
    """Immutable columnar table of frames plus the intern table of their addresses.

    `Trace(timestamps, src, dst, interns, proto, length, protos)` takes the
    columns described in the module docstring; `proto` defaults to all 0 (no
    tag), `length` to all -1 (absent) and `protos` to `(None,)`.  It holds only
    what a file can: a ValueError names the column, frame or token that is not
    an integer its dtype holds, an id or code outside its table, a negative or
    decreasing timestamp, a length below -1, a repeated or "" tag (a file cannot
    tell "" from None), or a token or tag, used or not, that is empty or holds a
    tab or line break.  Ids should be in first-appearance order, each frame's
    source before its destination, with no unused token.  That is not checked;
    only such a trace round-trips through `write_trace` and `parse_trace`:
    `Trace([0], [1], [0], InternTable(["A", "B"]))` writes a frame from B to A,
    which parses back with B as id 0.  Construct with `Trace.from_token_rows`,
    `parse_trace`, or a generator; do not mutate afterwards (analyses may share
    one Trace across threads).
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
        self.timestamps = _column(timestamps, np.int64, "timestamps")
        self.src = _column(src, np.int32, "src")
        self.dst = _column(dst, np.int32, "dst")
        self.proto = _column(np.zeros(n, np.int32) if proto is None else proto, np.int32, "proto")
        self.length = _column(np.full(n, -1) if length is None else length, np.int64, "length")
        self.protos = tuple(protos)
        self.interns = interns
        if any(len(c) != n for c in (self.src, self.dst, self.proto, self.length)):
            raise ValueError("trace columns differ in length")
        if self.protos[:1] != (None,):
            raise ValueError("protos[0] must be None, the code of untagged frames")
        if "" in self.protos or len(set(self.protos)) < len(self.protos):
            raise ValueError("protos must be distinct tags, none of them empty")
        if "" in interns:
            raise ValueError("empty address token")
        if _breaks_line("".join(tokens := (*interns.tokens, *self.protos[1:]))):
            unsafe = next(filter(_breaks_line, tokens))  # after one scan of them all
            raise ValueError(f"token {unsafe!r} contains a tab or line break")
        for column, low, high, what in (
            (self.src, 0, len(interns) - 1, "src"),
            (self.dst, 0, len(interns) - 1, "dst"),
            (self.proto, 0, len(self.protos) - 1, "proto"),
            (self.timestamps, 0, _INT64_MAX, "timestamps"),
            (self.length, -1, _INT64_MAX, "length"),
        ):
            if n and (column.min() < low or column.max() > high):
                frame = np.argmax((column < low) | (column > high))
                raise ValueError(f"{what} column at frame {frame} is outside {low}..{high}")
        # One byte per frame, where an int64 difference would take eight.
        if (decreasing := np.less(self.timestamps[1:], self.timestamps[:-1])).any():
            raise ValueError(f"timestamps column decreases at frame {decreasing.argmax() + 1}")

    @classmethod
    def from_token_rows(cls, rows: Iterable[tuple]) -> "Trace":
        """Build a trace from (timestamp, src_token, dst_token[, proto[, length]]) rows.

        A proto of None or "" is no tag, a length of None is absent, and the
        constructor's rules hold: a timestamp of 0.5 or 2**63 is a ValueError.
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
            lengths.append(-1 if len(row) < 5 or row[4] is None else row[4])
        columns.append_tokens(timestamps, addresses, protos, lengths)
        return columns.result()

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
    building a trace holds one copy of it plus the current block.  `select`
    names the read of `_read_block`: "trace" keeps every column; "summary"
    interns src and dst tokens as "trace" does but keeps only `dst` and
    the first and last timestamps; "destinations" interns dst tokens alone
    and keeps `dst`.  "split" keeps no column and no address table.  Of a
    block whose frame lines are `write_trace`'s text of its frames it
    keeps `copied`: the bytes of its lines, their lengths and per line the
    proto code, or -1 for a skipped line; its src and dst tokens are
    checked but never grouped or interned.  Any other block is read into
    `block`, a "trace" read of its own.  `_split` writes and drops each
    block of a "split" read, which has no `result`.  Only a "trace" read
    takes tokens (`append_tokens`).
    """

    def __init__(self, select: str = "trace"):
        if select not in ("trace", "summary", "destinations", "split"):
            raise ValueError(f"unknown read {select!r}")
        self.select = select
        self.copied: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self.block: Optional[_Columns] = None
        self.timestamps = array("q")
        self.src = array("i")
        self.dst = array("i")
        self.proto = array("i")
        self.length = array("q")
        self.span: tuple[int, ...] = ()  # a summary read's first and last timestamps
        self.interns = InternTable()
        self.protos = InternTable([""])  # "" -> 0, the "no tag" code
        self.known_addresses = _Known(self.interns)
        self.known_protos = _Known(self.protos)

    def append(self, timestamps, ids: np.ndarray, proto=None, lengths=None) -> None:
        """Add one block: `ids` alternates src and dst ids, or holds dst ids
        alone in a "destinations" read; `proto` indexes `protos`, and it and
        `lengths` are read only in a "trace" read."""
        if self.select in ("summary", "destinations"):
            dst = ids if self.select == "destinations" else ids[1::2]
            self.dst.frombytes(np.ascontiguousarray(dst).view(np.uint8))
            if self.select == "summary" and len(timestamps):
                first = self.span[0] if self.span else int(timestamps[0])
                self.span = (first, int(timestamps[-1]))
            return
        for column, values in (
            (self.timestamps, timestamps),
            (self.src, ids[0::2]),
            (self.dst, ids[1::2]),
            (self.proto, proto),
            (self.length, lengths),
        ):
            column.frombytes(np.ascontiguousarray(values).view(np.uint8))

    def append_tokens(
        self,
        timestamps: Sequence[int],
        addresses: list[str],
        protos: list[str],
        lengths: Sequence[int],
    ) -> None:
        """Add one block of tokens: `addresses` alternates src and dst, a proto
        of "" is no tag and a length of -1 is absent."""
        self.append(
            _column(timestamps, np.int64, "timestamps"),
            self.interns.intern_all(addresses),
            self.protos.intern_all(protos),
            _column(lengths, np.int64, "length"),
        )

    def result(self):
        """What the read gives: a `Trace`, a `_SummaryRead` or the read-only dst column."""
        if self.select == "trace":
            columns = self.timestamps, self.src, self.dst, self.proto, self.length
            timestamps, src, dst, proto, length = (
                np.frombuffer(column, f"i{column.itemsize}") for column in columns
            )
            protos = (None,) + self.protos.tokens[1:]
            return Trace(timestamps, src, dst, self.interns, proto, length, protos)
        dst = _column(np.frombuffer(self.dst, np.int32), np.int32, "dst")
        if self.select == "destinations":
            return dst
        return _SummaryRead(dst, self.span, len(self.interns))


@dataclass(frozen=True)
class TraceSummary:
    frame_count: int
    distinct_addresses: int      # over src and dst fields together
    distinct_destinations: int   # over dst only
    duration_hours: float        # last timestamp minus first, in hours


def _summary(dst: np.ndarray, timestamps, tokens: int, src=None) -> TraceSummary:
    """The summary of frames with ids below `tokens`, destinations `dst` and
    `timestamps` (or just their first and last).

    `src` None stands for a read that interned only the tokens of its
    frames, so all `tokens` are distinct addresses.
    """
    if len(dst) == 0:
        raise ValueError("cannot summarize an empty trace")
    seen = np.zeros(tokens, bool)
    seen[dst] = True
    destinations = int(np.count_nonzero(seen))
    if src is not None:
        seen[src] = True  # a token no frame uses is not counted
        tokens = int(np.count_nonzero(seen))
    return TraceSummary(
        frame_count=len(dst),
        distinct_addresses=tokens,
        distinct_destinations=destinations,
        duration_hours=(int(timestamps[-1]) - int(timestamps[0])) / MICROSECONDS_PER_HOUR,
    )


@dataclass(frozen=True, eq=False)
class _SummaryRead:
    """A summary read: the read-only dst ids, the first and last timestamps
    and the count of distinct addresses.  Its len() is the frame count."""

    dst: np.ndarray
    span: tuple[int, ...]
    addresses: int

    def __len__(self) -> int:
        return len(self.dst)

    def summary(self) -> TraceSummary:
        """As `summarize` of the full read; ValueError for no frames."""
        return _summary(self.dst, self.span, self.addresses)


def _number(lineno: int, what: str, field: str) -> int:
    """`field` read as a timestamp or length (`what`), or the TraceParseError naming it."""
    digits = field.removeprefix("-")
    value = digits.lstrip("0") or "0"  # as int() spells it, without its 4,300-digit limit
    if digits != field and digits.isascii() and digits.isdigit() and value != "0":
        raise TraceParseError(lineno, f"negative {what} -{value}")
    if field.isascii() and field.isdigit():
        if len(value) > _DIGITS or int(value) > _INT64_MAX:
            raise TraceParseError(lineno, f"{what} {value} exceeds 2**63 - 1")
        if len(field) <= _DIGITS:
            return int(value)
    raise TraceParseError(lineno, f"bad {what} {field!r}")


def _first_bad_line(lines: list[str], first_lineno: int, prev_ts: int) -> NoReturn:
    """Raise the error of the first bad line of a block `_read_block` refused.

    `lines` are the block's lines, numbered from `first_lineno`, and
    `prev_ts` the timestamp of the frame before them.  A line's checks run
    in this order: its field count, its timestamp and their order, its
    address tokens, its length.  A block with no bad line is an
    AssertionError: the block reader refuses only a block that has one.
    """
    for lineno, line in enumerate(lines, start=first_lineno):
        if line.startswith("#") or not line.strip(_BLANK):
            continue
        fields = line.split("\t")
        if len(fields) < 3 or len(fields) > 5:
            raise TraceParseError(lineno, f"expected 3 to 5 tab-separated fields, got {len(fields)}")
        ts = _number(lineno, "timestamp", fields[0])
        if ts < prev_ts:
            raise TraceOrderError(lineno, f"timestamp {ts} decreases below {prev_ts}")
        prev_ts = ts
        if not fields[1] or not fields[2]:
            raise TraceParseError(lineno, "empty address token")
        if len(fields) == 5:
            _number(lineno, "length", fields[4])
    raise AssertionError(f"the block reader refused lines {first_lineno}.. with no bad line")


# The block reader pads a block's bytes so that the digits before any field
# end, and the 8-byte word at any token byte, can be read without a bounds
# check.  The lead ends in a line break, which starts the block's first
# line.  A number of at most 19 digits is below 10**19 < 2**64.
_DIGITS = 19
_BLANK = " \t\v\f"  # the bytes of a skipped line that is not empty or a '#' line
_LEAD = b"\n" * (_DIGITS + 1)
_TAIL = b"\0" * 8
_MASKS = np.array([(1 << 8 * r) - 1 for r in range(9)], np.uint64)  # the low r bytes
_MIX = np.uint64(0x9E3779B97F4A7C15)


def _words(words: np.ndarray, starts: np.ndarray, widths: np.ndarray) -> list[tuple]:
    """Each token's bytes as 8-byte words: a (live, word) pair for k = 0, 8, 16, ...

    `live` picks the tokens longer than k bytes (a slice while that is all
    of them) and `word` holds 8 of their bytes from k on.  `words[p]` is
    the buffer's bytes p..p+7.  A token's last word is its last 8 bytes, and
    a token shorter than 8 bytes is zero-padded, so no word reaches past
    its token.
    """
    shortest = widths.min() if len(widths) else 0
    pairs = []
    for k in range(0, widths.max(initial=0), 8):
        live = slice(None) if k < shortest else np.flatnonzero(widths > k)
        if k == 0:
            word = words[starts[live]]
            if shortest < 8:
                word &= _MASKS[np.minimum(widths[live], 8)]
        else:
            at = widths[live] - 8  # the last word, unless the token goes on past k + 8
            np.minimum(at, k, out=at)
            at += starts[live]
            word = words[at]
        pairs.append((live, word))
    return pairs


def _hash(widths: np.ndarray, pairs: list[tuple]) -> np.ndarray:
    """A uint64 hash of each token from its width and words (`_words`)."""
    h = widths.astype(np.uint64)
    h *= _MIX  # so that the width cannot cancel a short token's low bytes
    for live, word in pairs:
        if isinstance(live, slice):
            h ^= word
            h *= _MIX
        else:
            h[live] = (h[live] ^ word) * _MIX
    return h


def _spans(ends: np.ndarray, fields: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first byte and the width of each of `fields` (see `_read_block`)."""
    starts = ends[fields]
    widths = ends[fields + 1] - starts
    starts += 1
    widths -= 1
    return starts, widths


def _distinct(words: np.ndarray, ends: np.ndarray, fields: np.ndarray):
    """Group equal tokens exactly: (first, inverse, hashes), or None on a hash collision.

    Token i is field `fields[i]` of the block (see `_read_block`).  The
    groups are in order of their hashes: `hashes` holds them, increasing,
    and `first` the index of each group's first token; `inverse[i]` is the
    group of token i.  Every token's width and words are compared with its
    group's first token's, so tokens share a group only if their bytes are
    equal.  Per token, only the words, the widths and int32 groups outlive
    the sort.
    """
    starts, widths = _spans(ends, fields)
    pairs = _words(words, starts, widths)
    del starts
    # One sort of the hashes with each token's index in their low bits: a
    # sort is several times faster than an argsort.  Tokens are grouped by
    # the bits above the index, and their words tell apart any they join.
    bits = len(widths).bit_length()
    keys = _hash(widths, pairs)
    keys &= ~np.uint64((1 << bits) - 1)
    keys |= np.arange(len(keys), dtype=np.uint64)
    keys.sort()
    by_hash = keys.astype(np.uint32)
    by_hash &= np.uint32((1 << bits) - 1)
    by_hash = by_hash.view(np.int32)
    keys >>= np.uint64(bits)
    head = np.empty(len(keys), bool)
    head[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    del keys
    first = by_hash[head]  # a group's tokens are in index order
    group = np.cumsum(head, dtype=np.int32)
    del head
    group -= 1
    inverse = np.empty_like(group)
    inverse[by_hash] = group
    del by_hash, group
    rep = first[inverse]
    if (widths[rep] != widths).any():
        return None
    firsts = []  # the first tokens' words, for their hashes
    while pairs:  # each token's word is dropped once checked
        live, word = pairs.pop(0)
        # Equal widths put each token's first in the same live set.
        at = rep[live] if isinstance(live, slice) else np.searchsorted(live, rep[live])
        if (word[at] != word).any():
            return None
        if isinstance(live, slice):
            firsts.append((live, word[first]))
        else:  # the first tokens that are live, and their places in `live`
            at = np.searchsorted(live, first)
            inside = np.flatnonzero(live[np.minimum(at, len(live) - 1)] == first)
            firsts.append((inside, word[at[inside]]))
    return first, inverse, _hash(widths[first], firsts)


def _decode(body: np.ndarray, starts: np.ndarray, widths: np.ndarray) -> list[str]:
    """The tokens of `widths` bytes at `starts` in `body`, decoded in one batch.

    Only their bytes are copied, joined by the tab they are split at.
    """
    view = memoryview(body)
    spans = map(slice, starts.tolist(), (starts + widths).tolist())
    return b"\t".join(map(view.__getitem__, spans)).decode().split("\t")


class _Known:
    """An `InternTable`'s tokens found again by hash, so a block decodes only its new tokens.

    It lives as long as one parse.  Entry e is one token: its id, its width
    and its 8-byte words (`_words`), stored from `words[starts[e]]` on.
    `levels` holds (hashes, entries) pairs sorted by hash, each more than
    twice the size of the next, like the digits of a binary counter, so an
    entry moves O(log n) times as the table grows.  A hash is in at most
    one level: a token whose hash other bytes hold stays out, is decoded
    every time and gets its id from `interns`.
    """

    def __init__(self, interns: InternTable):
        self.interns = interns
        self.ids = array("i")
        self.widths = array("i")
        self.starts = array("q")
        self.words = array("Q")
        self.levels: list[tuple[np.ndarray, np.ndarray]] = []

    def ids_of(
        self, body: np.ndarray, words: np.ndarray, ends: np.ndarray, fields: np.ndarray, groups
    ) -> np.ndarray:
        """Ids of the tokens in `fields`, which `_distinct` grouped into `groups`.

        Distinct tokens with an entry of equal width and words take its id;
        the others are decoded, interned and entered.  With `groups` None
        (colliding hashes), every token is decoded and interned, none entered.
        """
        if groups is None:
            return self.interns.intern_all(_decode(body, *_spans(ends, fields)))
        first, inverse, hashes = groups
        fields = fields[first]
        starts, widths = _spans(ends, fields)
        entries = np.full(len(hashes), -1, np.int32)
        for level, level_entries in self.levels:
            at = np.minimum(np.searchsorted(level, hashes), len(level) - 1)
            hit = level[at] == hashes
            entries[hit] = level_entries[at[hit]]
        hit = np.flatnonzero(entries >= 0)
        hit = hit[np.frombuffer(self.widths, np.int32)[entries[hit]] == widths[hit]]
        at = np.frombuffer(self.starts, np.int64)[entries[hit]]
        same = np.ones(len(hit), bool)
        for k, (live, word) in enumerate(_words(words, starts[hit], widths[hit])):
            same[live] &= np.frombuffer(self.words, np.uint64)[at[live] + k] == word
        ids = np.full(len(fields), -1, np.int32)
        ids[hit[same]] = np.frombuffer(self.ids, np.int32)[entries[hit[same]]]
        new = np.flatnonzero(ids < 0)
        if len(new):
            new = new[np.argsort(first[new])]  # in order of first appearance
            ids[new] = self.interns.intern_all(_decode(body, starts[new], widths[new]))
            free = new[entries[new] < 0]  # the others' hashes are taken
            if len(free):
                self._enter(words, starts[free], widths[free], hashes[free], ids[free])
        return ids[inverse]

    def _enter(self, words, starts, widths, hashes, ids) -> None:
        """Add entries for tokens at `starts` in `words`, whose `hashes` no entry holds."""
        count = (widths + 7) // 8
        at = np.cumsum(count) - count
        packed = np.empty(at[-1] + count[-1], np.uint64)
        for k, (live, word) in enumerate(_words(words, starts, widths)):
            packed[at[live] + k] = word
        entries = np.arange(len(self.ids), len(self.ids) + len(ids), dtype=np.int32)
        at += len(self.words)
        columns = self.ids, self.widths, self.starts, self.words
        for column, values in zip(columns, (ids, widths, at, packed)):
            column.frombytes(values.astype(column.typecode, copy=False).view(np.uint8))
        order = np.argsort(hashes)
        level = hashes[order], entries[order]
        while self.levels and len(self.levels[-1][0]) <= 2 * len(level[0]):
            hashes, entries = (np.concatenate(pair) for pair in zip(self.levels.pop(), level))
            order = np.argsort(hashes, kind="stable")
            level = hashes[order], entries[order]
        self.levels.append(level)


def _numbers(data: bytes, ends: np.ndarray, fields: np.ndarray) -> Optional[np.ndarray]:
    """The numbers in `fields` as int64, or None unless each is 1 to 19 ASCII
    digits with a value of at most 2**63 - 1.

    Row i of the digit matrix is the widest number's count of bytes before
    field i's end.  Only the columns that some number does not reach are
    masked, so a matrix of equal widths is not masked at all.
    """
    stops = ends[fields + 1]
    widths = stops - ends[fields]
    widths -= 1
    low, widest = widths.min(), widths.max()
    if low < 1 or widest > _DIGITS:
        return None
    rows = np.ndarray((len(data) - _DIGITS,), f"V{widest}", data, _DIGITS - widest, (1,))
    digits = rows[stops].view(np.uint8).reshape(-1, widest)
    digits -= 48
    for k in range(widest - low):  # column k is a digit of numbers of widest - k digits or more
        digits[:, k] *= widths > widest - k - 1
    if digits.max() > 9:
        return None
    numbers = digits[:, 0].astype(np.uint64)
    for column in digits.T[1:]:
        numbers *= 10
        numbers += column
    if widest == _DIGITS and (numbers > np.uint64(_INT64_MAX)).any():
        return None
    return numbers.view(np.int64)


def _read_block(data: bytes, prev_ts: int, columns: _Columns) -> Optional[tuple[int, int]]:
    """Append the frames of a block to `columns`, read as bytes by numpy.

    `data` is the block's UTF-8 bytes, whole lines ending in LF, between
    `_LEAD` and `_TAIL`.  Returns the last timestamp and the block's count
    of lines, or None, with `columns` untouched, for a block with a bad
    line (see the module docstring for the format).  Proto tokens are
    grouped only in a "trace" or "split" read, and src tokens are checked
    but never grouped in a "destinations" read, nor src and dst tokens of
    a block that a "split" read copies.  A "split" read decides whether it
    copies a block before it groups any token, and reads any other block
    into a "trace" read of the block's own (`_Columns`).

    Field offsets are int32, or int64 in a block of `_INT64_OFFSETS` bytes
    or more, and the one temporary as long as the block is the field-end
    mask, so the arrays peak at about 3 bytes per block byte for
    capture-shaped lines and 5 for 17-byte 3-field lines.
    """
    offset = np.int32 if len(data) < _INT64_OFFSETS else np.int64
    # body[0] is the lead's last line break.  ends[j] is the tab or line
    # break before field j, which is body[ends[j] + 1 : ends[j + 1]].
    body = np.frombuffer(data, np.uint8, len(data) - _DIGITS - 8, _DIGITS)
    at_end = body - 9
    ends = np.flatnonzero(np.less(at_end, 2, out=at_end.view(bool)))
    del at_end
    breaks = np.flatnonzero(body[ends] == 10).astype(offset)
    lines = len(breaks) - 1  # body[0] is no line's end
    ends = ends.astype(offset, copy=False)
    lead = body[ends[breaks[:-1]] + 1]
    frame = lead - 48 < 10
    known = frame | (lead == 35) | (lead == 10)  # frame, '#' and empty lines
    if not known.all():
        other = ~known
        starts = ends[breaks[:-1][other]] + 1
        if "".join(_decode(body, starts, ends[breaks[1:][other]] - starts)).strip(_BLANK):
            return None  # a line that is neither a frame nor skipped
    del known
    if not frame.any():
        return prev_ts, lines
    base = breaks[:-1][frame]  # field k of frame line i is field base[i] + k
    tabs = breaks[1:][frame]
    del lead
    if columns.select != "split":
        del breaks, frame  # only a split copies lines by them
    tabs -= base + 1
    if tabs.min() < 2 or tabs.max() > 4:
        return None
    sized, tagged = tabs == 4, tabs > 2
    del tabs
    # Tokens: src and dst interleaved, then the proto fields.  The address
    # tokens are grouped first, while no other per-frame array is held; a
    # split groups them only for a block it does not copy.
    address = np.stack((base + 1, base + 2), axis=1).ravel()
    if (ends[address + 1] - ends[address] < 2).any():
        return None  # an empty address token
    if columns.select == "destinations":
        address = address[1::2]
    words = np.ndarray((len(body) + 1,), "<u8", data, _DIGITS, (1,))
    address_groups = _distinct(words, ends, address) if columns.select != "split" else None
    if (timestamps := _numbers(data, ends, base)) is None:
        return None
    if timestamps[0] < prev_ts or (timestamps[1:] < timestamps[:-1]).any():
        return None
    sized_lengths = _numbers(data, ends, base[sized] + 4) if sized.any() else ()
    if sized_lengths is None:
        return None
    if columns.select in ("summary", "destinations"):
        ids = columns.known_addresses.ids_of(body, words, ends, address, address_groups)
        columns.append(timestamps, ids)
        return int(timestamps[-1]), lines
    read = columns
    if columns.select == "split":
        # `write_trace` writes a number without leading zeros, and a 4-field
        # line's empty proto field (code 0) not at all; it writes any other
        # frame line as it is read.  Any other block is a trace of its own.
        first = ends[np.concatenate((base, base[sized] + 4))] + 1
        padded = (body[first] == 48) & (body[first + 1] - 48 < 10)  # "0" and a digit
        proto = base[tagged & ~sized] + 3
        if padded.any() or (ends[proto + 1] - ends[proto] < 2).any():
            read = _Columns()
            address_groups = _distinct(words, ends, address)
    codes = np.zeros(len(base), np.int32)  # 0: untagged
    if tagged.any():
        proto = base[tagged] + 3
        proto_groups = _distinct(words, ends, proto)
        codes[tagged] = read.known_protos.ids_of(body, words, ends, proto, proto_groups)
    if read.select == "split":
        line_codes = np.full(lines, -1, np.int32)
        line_codes[frame] = codes
        columns.copied = body[1:], np.diff(ends[breaks]), line_codes
        return int(timestamps[-1]), lines
    ids = read.known_addresses.ids_of(body, words, ends, address, address_groups)
    lengths = np.full(len(base), -1, np.int64)
    lengths[sized] = sized_lengths
    read.append(timestamps, ids, codes, lengths)
    if read is not columns:
        columns.block = read
    return int(timestamps[-1]), lines


class _StrLines:
    """str lines as a binary file: `read()` returns the next `_CHUNK_LINES`
    of them joined and encoded as UTF-8, a lone surrogate kept as its bytes
    so that `_file_blocks` names its line, and b"" only when they run out.
    """

    def __init__(self, lines: Iterable[str]):
        self.lines = iter(lines)

    def read(self, size: int = -1) -> bytes:
        while group := list(islice(self.lines, _CHUNK_LINES)):
            if text := "".join(group):  # lines all "" are not the end
                return text.encode("utf-8", "surrogatepass")
        return b""


class _NotUtf8(Exception):
    """A byte that is not UTF-8, raised by `_file_blocks` on the line after the lines it yielded."""


def _file_blocks(f: BinaryIO) -> Iterator[bytes]:
    """Binary file `f` in blocks of whole lines, as padded bytes.

    Reads `_CHUNK_BYTES` at a time, or as much as the carried bytes while a
    line is longer, and cuts each chunk after its last line break; the
    rest starts the next block.  CRLF and lone CR become LF, as in text
    mode.  A CR that ends a chunk waits for the next one, which may start
    with the LF of the same CRLF.  The last line gets a line break if it
    has none.  At the first byte that is not UTF-8 it yields the lines
    before that byte's line, then raises `_NotUtf8` naming its column, so
    the first bad line gives the error and the line after the yielded ones
    is the bad one.  Lines are counted by `_read_block`, not here.
    """
    rest = b""
    while True:
        chunk = f.read(max(_CHUNK_BYTES, len(rest)))
        data, eof = rest + chunk, not chunk
        del chunk
        if b"\r" in data:
            held = not eof and data.endswith(b"\r")
            data = data[: len(data) - held].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            data += b"\r" * held
        if eof and data and not data.endswith(b"\n"):
            data += b"\n"
        cut = data.rfind(b"\n") + 1
        rest = data[cut:]
        if cut:
            block = b"".join((_LEAD, memoryview(data)[:cut], _TAIL))
            del data
            try:
                if not block.isascii():
                    block.decode()
            except UnicodeDecodeError as exc:
                line_start = block.rfind(b"\n", 0, exc.start) + 1
                column = len(block[line_start : exc.start].decode()) + 1
                error = _NotUtf8(f"not UTF-8: byte 0x{block[exc.start]:02x} at column {column}")
                if line_start > len(_LEAD):  # the lines before may hold an earlier error
                    yield block[:line_start] + _TAIL
                raise error from None
            yield block
        if eof:
            return


def _blocks(lines: Iterable[str] | BinaryIO, columns: _Columns) -> Iterator[None]:
    """Read `lines` into `columns` one block at a time, yielding after each block.

    The one parse loop: `parse_trace` runs it to the end, and `_split`
    writes and drops each block's frames in between.
    """
    prev_ts, lineno = 0, 1
    binary = isinstance(lines, (io.RawIOBase, io.BufferedIOBase))
    try:
        for data in _file_blocks(lines if binary else _StrLines(lines)):
            if (read := _read_block(data, prev_ts, columns)) is None:  # lines of valid UTF-8
                _first_bad_line(data[len(_LEAD) : -len(_TAIL)].decode().split("\n"), lineno, prev_ts)
            prev_ts, count = read
            lineno += count
            yield
    except _NotUtf8 as exc:
        raise TraceParseError(lineno, str(exc)) from None


def parse_trace(lines: Iterable[str] | BinaryIO, *, _select: str = "trace") -> Trace:
    """Parse a trace file opened in binary mode, or an iterable of str lines.

    Raises TraceParseError on a malformed line (wrong field count, a
    timestamp or length that is not 1 to 19 ASCII digits of at most
    2**63 - 1, empty address token, or a byte that is not UTF-8) and
    TraceOrderError when a timestamp decreases.  '#' lines, empty lines
    and lines of only spaces, tabs, vertical tabs and form feeds are skipped.
    str lines read as the file holding `"".join(lines)` in UTF-8 (see
    `_StrLines`): line numbers count line ends, and a lone surrogate is an
    error.  The module docstring describes the reader of its blocks.
    `_select` names another read of `_Columns`, whose result it returns.
    """
    columns = _Columns(_select)
    for _ in _blocks(lines, columns):
        pass
    return columns.result()


def _tag_only(tag: Optional[str]) -> str:
    """The text after an unsized row's dst field: "\tproto", or none when untagged."""
    return f"\t{tag}" if tag else ""


def _tag_field(tag: Optional[str]) -> str:
    """A sized row's proto field with its tab: "\tproto", or "\t" when untagged."""
    return f"\t{tag or ''}"


def _write_rows(
    stream: TextIO, tokens: np.ndarray, tags: tuple, columns: tuple, frames=None
) -> None:
    """Write the frames of `columns` (timestamps, src, dst, proto codes,
    lengths) where the boolean mask `frames` holds, or all of them, one
    `_WRITE_CHUNK` window at a time, so no temporary is longer than a window.

    `tokens` holds the address tokens by id, and `tags` the `_tag_only` and
    `_tag_field` texts by proto code, as object arrays.
    """
    tag_only, tag_field = tags
    for start in range(0, len(columns[0]), _WRITE_CHUNK):
        rows = slice(start, start + _WRITE_CHUNK)
        if frames is not None:
            rows = np.flatnonzero(frames[rows]) + start
        ts, src, dst, codes, lengths = (column[rows] for column in columns)
        fields = ts.tolist(), tokens[src].tolist(), tokens[dst].tolist()
        tails = tag_only[codes]
        if (sized := lengths >= 0).any():
            tag_texts = tag_field[codes[sized]].tolist()
            tails[sized] = [f"{tag}\t{n}" for tag, n in zip(tag_texts, lengths[sized].tolist())]
        text = [f"{t}\t{s}\t{d}{tail}\n" for t, s, d, tail in zip(*fields, tails.tolist())]
        stream.write("".join(text))
        del fields, text  # before the next window's are built


def write_trace(trace: Trace, stream: TextIO, frames: Optional[np.ndarray] = None) -> None:
    """Write a trace in the file format; parse_trace(write_trace(t)) == t.

    The round trip holds for a trace whose ids are in first-appearance
    order, source before destination, with no unused token, as a parsed or
    generated trace's are; other ids come back renumbered.  `frames`, a
    boolean mask over the trace's frames, writes only the frames where it
    holds, in order, and builds no sub-trace: for a parsed trace, the text
    of the trace those frames parse to, which for a protocol mask is a side
    of `split_by_protocol`.  The rows are written a window at a time
    (`_write_rows`).  It only formats, as the constructor has checked every
    rule: its one ValueError, for a `frames` that is not a boolean mask of
    N entries, comes before any text.
    """
    frames = frames if frames is None else np.asarray(frames)
    if frames is not None and (frames.dtype != bool or frames.shape != (len(trace),)):
        raise ValueError(f"frames must be a boolean mask of {len(trace)} entries")
    tokens = np.array(trace.interns.tokens, dtype=object)
    tags = tuple(np.array(list(map(form, trace.protos)), dtype=object)
                 for form in (_tag_only, _tag_field))
    columns = trace.timestamps, trace.src, trace.dst, trace.proto, trace.length
    _write_rows(stream, tokens, tags, columns, frames)


def _split(lines: Iterable[str] | BinaryIO, proto: str, match: TextIO, rest: TextIO) -> None:
    """Write the frames of a trace file whose proto tag is `proto` to `match`
    and the others, untagged ones included, to `rest`, a block at a time.

    `lines` is read as `parse_trace` reads it, with the same errors, and each
    side's text is what `write_trace` writes of the full read through its
    protocol mask.  A block whose frame lines are already in that form (see
    `_Columns`) is copied line by line; any other block is a trace of its
    own, written through its protocol mask.  Only the tag table and the last
    timestamp outlive a block.  A bad line raises after the blocks before it
    were written.
    """
    columns = _Columns("split")
    for _ in _blocks(lines, columns):
        if columns.copied is not None:
            code = columns.protos._ids.get(proto, -1) if proto else -1  # "" is code 0, no tag
            _copy_lines(columns.copied, code, match, rest)
        elif columns.block is not None:  # None for a block of no frame lines
            block = columns.block.result()
            matching = _protocol_mask(block, proto.__eq__)
            write_trace(block, match, frames=matching)
            write_trace(block, rest, frames=~matching)
        columns.copied = columns.block = None


def _copy_lines(copied: tuple, code: int, match: TextIO, rest: TextIO) -> None:
    """Write the frame lines of a split's copied block (`_Columns.copied`)
    with proto code `code` to `match` and the others to `rest`, byte for byte."""
    text, lengths, codes = copied
    sides = np.where(codes == code, np.uint8(1), np.uint8(2))
    sides[codes < 0] = 0  # comment and blank lines
    sides = np.repeat(sides, lengths)
    match.write(str(text[sides == 1], "utf-8"))
    rest.write(str(text[sides == 2], "utf-8"))


def read_trace(path, *, _select: str = "trace") -> Trace:
    """Read the trace file at `path` with one `parse_trace` call of it opened in binary mode.

    Raises TraceParseError naming the line of a malformed line or of a
    byte that is not UTF-8, and OSError when the file cannot be read.
    `_select` is passed on to `parse_trace`.
    """
    with open(path, "rb") as f:
        return parse_trace(f, _select=_select)


def save_trace(trace: Trace, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        write_trace(trace, f)


def summarize(trace: Trace) -> TraceSummary:
    """Frame, address, and destination counts plus the timestamp span in hours."""
    return _summary(trace.dst, trace.timestamps, len(trace.interns), trace.src)


def _protocol_mask(trace: Trace, proto_predicate: Callable[[str], bool]) -> np.ndarray:
    """Per frame, whether its proto tag satisfies `proto_predicate`, as a new bool array.

    Untagged frames never do; the predicate is called once per tag.
    """
    wanted = np.array([False] + [bool(proto_predicate(p)) for p in trace.protos[1:]])
    return wanted[trace.proto]


def split_by_protocol(trace: Trace, proto_predicate: Callable[[str], bool]) -> tuple[Trace, Trace]:
    """Partition a trace into (matching, rest) by the proto field.

    Frames without a proto tag never match; the predicate is called once
    per tag in the trace's proto table.  Order and timestamps are
    preserved.  Each side is built as a parse builds a trace: the tokens
    of its frames go to `_Columns.append_tokens`, `_CHUNK_LINES` frames at
    a time, so its ids are numbered by first appearance among its frames
    and its tables hold only the tokens it uses.
    """
    matching = _protocol_mask(trace, proto_predicate)
    tokens = np.array(trace.interns.tokens, dtype=object)
    tags = np.array([tag or "" for tag in trace.protos], dtype=object)
    sides = []
    for chosen in (matching, ~matching):
        columns = _Columns()
        frames = np.flatnonzero(chosen)
        for start in range(0, len(frames), _CHUNK_LINES):
            block = frames[start : start + _CHUNK_LINES]
            addresses = tokens[np.stack((trace.src[block], trace.dst[block]), 1).ravel()].tolist()
            protos = tags[trace.proto[block]].tolist()
            columns.append_tokens(trace.timestamps[block], addresses, protos, trace.length[block])
        sides.append(columns.result())
    return sides[0], sides[1]
