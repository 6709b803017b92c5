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

Timestamps are integer microseconds, non-negative and non-decreasing
(ties allowed).  Timestamps and lengths must fit in a signed 64-bit
integer, so neither may exceed 2**63 - 1.  Lines starting with '#' and
blank lines are skipped.  An empty proto field stands for "no proto tag".
In a file, LF, CRLF and a lone CR each end a line, as in Python's text
mode.  The `Trace` constructor enforces these rules.

`parse_trace` reads a file opened in binary mode, as `read_trace` gives
it, in chunks cut after their last line break; str lines are read as the
file holding their text.  A block of the plain shape that writers
produce (numbers of 1 to 18 digits, every line starting with a digit or
'#' or empty) goes to the block reader, which reads its bytes with numpy
and groups equal tokens by a hash of their 8-byte words, checked byte
for byte; a table kept across blocks gives known tokens their ids, so
only new ones are decoded and interned.  Any other block goes to the
line reader, which reads one line at a time and defines the accepted
syntax: a timestamp or length is anything `int()` accepts, such as " 5",
"+5" or "1_0", and the error names the first bad line.  Both readers
give the same trace, with the syntax and errors of the line reader.  Each
reader counts the lines it reads, the block reader from the line breaks
it finds and the line reader from its list of lines, so error line
numbers need no further pass over the bytes.

There are three reads, each a selection of `_Columns`, and each checks
every line as the full one does, with the same errors:
- the full read gives the `Trace`;
- with `destinations_only=True`, `parse_trace` and `read_trace` return
  the read-only int32 `dst` column alone, its ids numbered by first
  appearance among destinations: only destination tokens are interned,
  and the block reader never groups src or proto tokens;
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
from typing import BinaryIO, Callable, Iterable, Iterator, Optional, Sequence, TextIO

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
    names the read: "trace" keeps every column; "summary" interns src and
    dst tokens as "trace" does but keeps only `dst` and the first and last
    timestamps; "destinations" interns dst tokens alone and keeps `dst`.
    """

    def __init__(self, select: str = "trace"):
        if select not in ("trace", "summary", "destinations"):
            raise ValueError(f"unknown read {select!r}")
        self.select = select
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
        if self.select != "trace":
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
        """Add one block of tokens: a proto of "" is no tag, a length of -1 is absent."""
        if self.select != "trace":  # `addresses` alternates src and dst
            kept = addresses[1::2] if self.select == "destinations" else addresses
            self.append(timestamps, self.interns.intern_all(kept))
            return
        self.append(
            _column(timestamps, np.int64, "timestamps"),
            self.interns.intern_all(addresses),
            self.protos.intern_all(protos),
            _column(lengths, np.int64, "length"),
        )

    def result(self):
        """What the read gives: a `Trace`, a `_SummaryRead` or the read-only dst column."""
        if self.select == "trace":
            return Trace(
                np.frombuffer(self.timestamps, np.int64),
                np.frombuffer(self.src, np.int32),
                np.frombuffer(self.dst, np.int32),
                self.interns,
                np.frombuffer(self.proto, np.int32),
                np.frombuffer(self.length, np.int64),
                (None,) + self.protos.tokens[1:],
            )
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


def _read_lines(lines: list[str], first_lineno: int, prev_ts: int, columns: _Columns) -> int:
    """Append the frames of `lines` to `columns` one line at a time; return the last timestamp.

    The checks and their order define the accepted syntax: a timestamp or
    length is anything `int()` takes, within 0..2**63 - 1, whatever columns
    `columns` keeps.  Raises the error of the first bad line, after which
    the parse fails and `columns` is not used again.
    """
    timestamps: list[int] = []
    addresses: list[str] = []
    protos: list[str] = []
    lengths: list[int] = []
    for lineno, line in enumerate(lines, start=first_lineno):
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
        if ts < prev_ts:
            raise TraceOrderError(lineno, f"timestamp {ts} decreases below {prev_ts}")
        prev_ts = ts
        if not fields[1] or not fields[2]:
            raise TraceParseError(lineno, "empty address token")
        length = -1
        if len(fields) > 4:
            try:
                length = int(fields[4])
            except ValueError:
                raise TraceParseError(lineno, f"bad length {fields[4]!r}") from None
            if length < 0:
                raise TraceParseError(lineno, f"negative length {length}")
            if length > _INT64_MAX:
                raise TraceParseError(lineno, f"length {length} exceeds 2**63 - 1")
        timestamps.append(ts)
        addresses += fields[1:3]
        protos.append(fields[3] if len(fields) > 3 else "")
        lengths.append(length)
    columns.append_tokens(timestamps, addresses, protos, lengths)
    return prev_ts


# The block reader pads a block's bytes so that the digits before any field
# end, and the 8-byte word at any token byte, can be read without a bounds
# check.  The lead ends in a line break, which starts the block's first
# line.  At most 18 digits keep a number below 10**18 < 2**63.
_DIGITS = 18
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
        the others are decoded, interned and entered.
        """
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
            column.frombytes(values.view(np.uint8))
        order = np.argsort(hashes)
        level = hashes[order], entries[order]
        while self.levels and len(self.levels[-1][0]) <= 2 * len(level[0]):
            hashes, entries = (np.concatenate(pair) for pair in zip(self.levels.pop(), level))
            order = np.argsort(hashes, kind="stable")
            level = hashes[order], entries[order]
        self.levels.append(level)


def _numbers(data: bytes, ends: np.ndarray, fields: np.ndarray) -> Optional[np.ndarray]:
    """The numbers in `fields` as int64, or None unless each is 1 to 18 ASCII digits.

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
    numbers = digits[:, 0].astype(np.int64)
    for column in digits.T[1:]:
        numbers *= 10
        numbers += column
    return numbers


def _read_block(data: bytes, prev_ts: int, columns: _Columns) -> Optional[tuple[int, int]]:
    """Append the frames of a block to `columns`, read as bytes by numpy.

    `data` is the block's UTF-8 bytes, whole lines ending in LF, between
    `_LEAD` and `_TAIL`.  Returns the last timestamp and the block's count
    of lines, or None, with `columns` untouched, for a block this reader
    does not take: a line not starting with a digit, '#' or its line
    break, 3 to 5 fields not met, a number that is not 1 to 18 ASCII
    digits, a decreasing timestamp, an empty address token or a hash
    collision.  Such a block goes to `_read_lines`, as does one of 2 GiB or
    more, whose offsets int32 cannot hold.  Proto tokens are grouped only
    in a "trace" read, and src tokens are checked but never grouped in a
    "destinations" read.

    Field offsets are int32, and the one temporary as long as the block is
    the field-end mask, so the arrays peak at about 3 bytes per block byte
    for capture-shaped lines and 5 for 17-byte 3-field lines.
    """
    if len(data) >= 2**31:
        return None
    # body[0] is the lead's last line break.  ends[j] is the tab or line
    # break before field j, which is body[ends[j] + 1 : ends[j + 1]].
    body = np.frombuffer(data, np.uint8, len(data) - _DIGITS - 8, _DIGITS)
    at_end = body - 9
    ends = np.flatnonzero(np.less(at_end, 2, out=at_end.view(bool)))
    del at_end
    breaks = np.flatnonzero(body[ends] == 10).astype(np.int32)
    lines = len(breaks) - 1  # body[0] is no line's end
    ends = ends.astype(np.int32)
    lead = body[ends[breaks[:-1]] + 1]
    frame = lead - 48 < 10
    if not (frame | (lead == 35) | (lead == 10)).all():
        return None
    if not frame.any():
        return prev_ts, lines
    base = breaks[:-1][frame]  # field k of frame line i is field base[i] + k
    tabs = breaks[1:][frame]
    del breaks, lead, frame
    tabs -= base + 1
    if tabs.min() < 2 or tabs.max() > 4:
        return None
    sized, tagged = tabs == 4, tabs > 2
    del tabs
    # Tokens: src and dst interleaved, then the proto fields.  The address
    # tokens are grouped first, while no other per-frame array is held.
    address = np.stack((base + 1, base + 2), axis=1).ravel()
    if (ends[address + 1] - ends[address] < 2).any():
        return None  # an empty address token
    if columns.select == "destinations":
        address = address[1::2]
    words = np.ndarray((len(body) + 1,), "<u8", data, _DIGITS, (1,))
    if (address_groups := _distinct(words, ends, address)) is None:
        return None
    if (timestamps := _numbers(data, ends, base)) is None:
        return None
    if timestamps[0] < prev_ts or (timestamps[1:] < timestamps[:-1]).any():
        return None
    sized_lengths = _numbers(data, ends, base[sized] + 4) if sized.any() else ()
    if sized_lengths is None:
        return None
    if columns.select != "trace":
        ids = columns.known_addresses.ids_of(body, words, ends, address, address_groups)
        columns.append(timestamps, ids)
        return int(timestamps[-1]), lines
    codes = np.zeros(len(base), np.int32)  # 0: untagged
    if tagged.any():
        proto = base[tagged] + 3
        if (proto_groups := _distinct(words, ends, proto)) is None:
            return None
        codes[tagged] = columns.known_protos.ids_of(body, words, ends, proto, proto_groups)
    ids = columns.known_addresses.ids_of(body, words, ends, address, address_groups)
    lengths = np.full(len(base), -1, np.int64)
    lengths[sized] = sized_lengths
    columns.append(timestamps, ids, codes, lengths)
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
    is the bad one.  Lines are counted by the readers, not here.
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


def parse_trace(
    lines: Iterable[str] | BinaryIO, *, destinations_only: bool = False, _select: str = ""
) -> Trace | np.ndarray:
    """Parse a trace file opened in binary mode, or an iterable of str lines.

    Raises TraceParseError on a malformed line (wrong field count,
    non-integer, negative or out-of-int64-range timestamp or length, empty
    address token, or a byte that is not UTF-8) and TraceOrderError when a
    timestamp decreases.  '#'-comment lines and blank lines are skipped.
    str lines read as the file holding `"".join(lines)` in UTF-8 (see
    `_StrLines`): line numbers count line ends, and a lone surrogate is an
    error.  The module docstring describes the two readers of its blocks.
    With `destinations_only`, returns the read-only int32 dst ids alone,
    numbered by first appearance among destinations, after the same checks.
    `_select` names a read of `_Columns` in place of `destinations_only`.
    """
    columns = _Columns(_select or ("destinations" if destinations_only else "trace"))
    prev_ts, lineno = 0, 1
    binary = isinstance(lines, (io.RawIOBase, io.BufferedIOBase))
    try:
        for data in _file_blocks(lines if binary else _StrLines(lines)):
            read = _read_block(data, prev_ts, columns)
            if read is None:  # whole lines of valid UTF-8
                block = data[len(_LEAD) : -len(_TAIL)].decode().split("\n")[:-1]
                read = _read_lines(block, lineno, prev_ts, columns), len(block)
            prev_ts, count = read
            lineno += count
    except _NotUtf8 as exc:
        raise TraceParseError(lineno, str(exc)) from None
    return columns.result()


def write_trace(trace: Trace, stream: TextIO, frames: Optional[np.ndarray] = None) -> None:
    """Write a trace in the file format; parse_trace(write_trace(t)) == t.

    The round trip holds for a trace whose ids are in first-appearance
    order, source before destination, with no unused token, as a parsed or
    generated trace's are; other ids come back renumbered.  `frames`, a
    boolean mask over the trace's frames, writes only the frames where it
    holds, in order, and builds no sub-trace: for a parsed trace, the text
    of the trace those frames parse to, which for a protocol mask is a side
    of `split_by_protocol`.  The trace is walked one `_WRITE_CHUNK` window
    at a time, so no temporary is longer than a window.  It only formats,
    as the constructor has checked every rule: its one ValueError, for a
    `frames` that is not a boolean mask of N entries, comes before any text.
    """
    frames = frames if frames is None else np.asarray(frames)
    if frames is not None and (frames.dtype != bool or frames.shape != (len(trace),)):
        raise ValueError(f"frames must be a boolean mask of {len(trace)} entries")
    tokens = np.array(trace.interns.tokens, dtype=object)
    # The text after the dst field: "\tproto" alone, or "\tproto\tlength"
    # with an empty proto field when untagged.
    tag_only = np.array(["" if p is None else f"\t{p}" for p in trace.protos], dtype=object)
    tag_field = np.array([f"\t{p or ''}" for p in trace.protos], dtype=object)
    columns = trace.timestamps, trace.src, trace.dst, trace.proto, trace.length
    for start in range(0, len(trace), _WRITE_CHUNK):
        rows = slice(start, start + _WRITE_CHUNK)
        if frames is not None:
            rows = np.flatnonzero(frames[rows]) + start
        ts, src, dst, codes, lengths = (column[rows] for column in columns)
        fields = ts.tolist(), tokens[src].tolist(), tokens[dst].tolist()
        if (sized := lengths >= 0).all():  # one format for every row
            text = [
                f"{t}\t{s}\t{d}{tag}\t{n}\n"
                for t, s, d, tag, n in zip(*fields, tag_field[codes].tolist(), lengths.tolist())
            ]
        else:
            tails = tag_only[codes]
            if sized.any():
                tags = tag_field[codes[sized]].tolist()
                tails[sized] = [f"{tag}\t{n}" for tag, n in zip(tags, lengths[sized].tolist())]
            text = [f"{t}\t{s}\t{d}{tail}\n" for t, s, d, tail in zip(*fields, tails.tolist())]
        stream.write("".join(text))
        del fields, text  # before the next window's are built


def read_trace(path, *, destinations_only: bool = False, _select: str = "") -> Trace | np.ndarray:
    """Read the trace file at `path` with one `parse_trace` call of it opened in binary mode.

    Raises TraceParseError naming the line of a malformed line or of a
    byte that is not UTF-8, and OSError when the file cannot be read.
    `destinations_only` is passed on: the dst ids alone, as `parse_trace`.
    """
    with open(path, "rb") as f:
        return parse_trace(f, destinations_only=destinations_only, _select=_select)


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
